"""Exact dense statevector simulation for the cube-state decoder circuits.

Register model
--------------
A layout is a label register of L digit slots over F_p followed by some
number of cube registers, each an F_q^n vector register (n coordinates
of m digit slots each).  Every slot has radix p, so a state is a flat
complex array of p^(L + count*n*m) amplitudes in C order.

Slot order is fixed so dumps are bit-reproducible: label slots first,
then cube registers in order, each coordinate-major.  The label codec:
label digit j sits at axis j, most significant first, so a label's
basis index is its digit vector read in base p (the numeral codec
:func:`pqdec.gf.label_to_digits` and its inverse
:func:`pqdec.gf.digits_to_label`, on scalars and arrays alike; it lives
in ``gf`` so that ``codes`` enumerates messages with it too).
Within a coordinate the LEAST significant digit sits at the last
(fastest-varying) axis, so the m axes of a coordinate, read as a C-order
number, equal the coordinate's integer image, and a cube register's
block index is the base-q number of its coordinate images.  Every radix
conversion in the package goes through that one codec; the only
exceptions are the two on Python ints for images past 2^63,
``gf._int_digits`` and ``FieldElement.image``.  The one read-out of a
label register is :meth:`PcsSampler.collapse`, which also checks the
label it is given.
Every cube-register shift, controlled or not, goes through the one
shift kernel :func:`_shift_cube`, a gather through a source-index map
with one entry per basis value of the cube register.

Conventions: omega_p = exp(2*pi*i/p); the forward single-digit Fourier
transform is F[a, b] = omega_p^(a*b)/sqrt(p); measuring "in the Fourier
basis" means applying the inverse transform and reading the standard
basis.  The shift U_x adds digits mod p (no carries), i.e. F_q vector
addition.

Factor first: gates that act before the first entangling gate run on
the factor register they touch, as a state on a one-sided layout
(label-only, ``cube_count=0``, or cube-only, ``label_digits=0``), and
one outer product then joins the factors.  A product state needs no
joint tensor until a gate couples its parts, so the PCS sampler and the
decoder's full-tensor path pass over the joined state only from the
first controlled shift on.

Buffers: a :class:`DenseState` owns two full-state arrays, the state (a
copy of the array it was built from, or the product a join writes
straight into it) and a spare.  Each gate writes its output once, into
the spare, and then swaps the two, so a run of gates touches no fresh
memory after the first.  For p = 2 the Fourier matrix is the real
Hadamard power, and a transform multiplies the float64 view of the
amplitudes (real and imaginary parts alike), half the flops of a
complex product.  Each gate is checked: a Fourier transform checks the
norm to 1e-10 after it runs (:class:`~pqdec.errors.InvariantViolated`
otherwise), on whichever register it runs on, and a gate that only
reorders amplitudes (a label permutation or a shift) first checks that
its index map is a bijection, which is exact and costs one pass over
the map instead of one over the state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .codes import LinearCode, message_images
from .errors import (
    BadParams,
    BadRegister,
    InvariantViolated,
    LengthMismatch,
    OrthogonalityViolated,
    OutOfRange,
    ScaleExceeded,
)
from .gf import Field, FieldElement, digits_to_label, label_to_digits, stack_digits

MAX_AMPLITUDES = 2**24
NORM_TOL = 1e-10
UNIFORM_TOL = 1e-12
# Largest side of one Fourier matrix: a run of digit axes is transformed
# by one matmul while p^width stays at or under this.  A wider run makes
# fewer passes over the state but more flops per amplitude.  With one
# BLAS thread on about 2^21 amplitudes, ten F_2 label digits took 49 ms
# at 32 against 121 ms at 256, and four F_5 digits 38 ms against 56 ms.
DFT_BLOCK_DIM = 32


@dataclass(frozen=True)
class SigmaParam:
    """Cube side sigma = p^r; [sigma] is the set with zero top m-r digits."""

    r: int
    sigma: int

    @classmethod
    def from_r(cls, field: Field, r: int) -> SigmaParam:
        if not 0 <= r < field.m:
            raise OutOfRange(f"r = {r} outside [0, {field.m - 1}]")
        return cls(r=r, sigma=field.p**r)


def require_cube_orthogonality(code: LinearCode, sigma: SigmaParam) -> None:
    """Raise OrthogonalityViolated unless d > sigma*n (an unknown d passes)."""
    if code.d is not None and not code.d > sigma.sigma * code.n:
        raise OrthogonalityViolated(
            f"d = {code.d} <= sigma*n = {sigma.sigma * code.n}; cubes may collide"
        )


def label_permutation(matrix: np.ndarray, p: int) -> np.ndarray:
    """perm[i] = digits_to_label(M @ label_to_digits(i) mod p) for all p^T labels i.

    Built by Horner's rule, one output digit at a time, so no (p^T, T)
    digit table is held: over all labels in index order, output digit r
    is the outer sum of M[r, c] * (0, ..., p-1) across the columns c.
    """
    mat = np.asarray(matrix, dtype=np.int64) % p
    perm = np.zeros(p ** mat.shape[1], dtype=np.int64)
    for row in mat:
        digit = np.zeros(1, dtype=np.int64)
        for coeff in row:
            digit = np.add.outer(digit, coeff * np.arange(p)).reshape(-1)
        perm = perm * p + digit % p
    return perm


def _require_bijection(index_map: np.ndarray, what: str) -> np.ndarray:
    """``index_map`` itself, once it is checked to permute range(len(index_map))."""
    counts = np.bincount(index_map, minlength=len(index_map))
    if len(counts) != len(index_map) or not np.all(counts == 1):
        raise BadParams(f"{what} is not a bijection")
    return index_map


@dataclass(frozen=True)
class RegisterLayout:
    """Shape bookkeeping for a label register plus cube registers."""

    p: int
    m: int
    n: int
    label_digits: int
    cube_count: int

    def __post_init__(self) -> None:
        if self.dim > MAX_AMPLITUDES:
            raise ScaleExceeded(
                f"layout needs {self.dim} amplitudes, above the {MAX_AMPLITUDES} guard"
            )

    @property
    def total_axes(self) -> int:
        return self.label_digits + self.cube_count * self.n * self.m

    @property
    def dim(self) -> int:
        return self.p**self.total_axes

    @property
    def label_dim(self) -> int:
        return self.p**self.label_digits

    @property
    def cube_dim(self) -> int:
        return self.p ** (self.n * self.m)

    def cube_axis(self, register: int, coord: int, digit: int) -> int:
        """Axis holding digit index ``digit`` (0 = LSB) of a cube coordinate."""
        if not 0 <= register < self.cube_count:
            raise BadRegister(f"cube register {register} of {self.cube_count}")
        base = self.label_digits + register * self.n * self.m
        return base + coord * self.m + (self.m - 1 - digit)

    def cube_tail(self, register: int, count: int = 1) -> int:
        """Number of basis values of the cube registers after ``register`` .. ``register + count - 1``."""
        if not (0 <= register and count >= 1 and register + count <= self.cube_count):
            raise BadRegister(
                f"cube registers {register}..{register + count - 1} of {self.cube_count}"
            )
        return self.cube_dim ** (self.cube_count - register - count)


@lru_cache(maxsize=64)
def _dft_matrix(p: int, inverse: bool = False, width: int = 1) -> np.ndarray:
    """Fourier transform on ``width`` digits: the Kronecker power of F (or F^-1).

    For p = 2 that is the Hadamard power, its own inverse, built exactly
    real (float64, entries +-2^(-width/2)); ``exp`` would leave imaginary
    parts of about 1e-16.
    """
    if p == 2:
        out = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * width)
        out *= 2.0 ** (-width / 2)
    else:
        sign = -1.0 if inverse else 1.0
        a = np.arange(p)
        f = np.exp(sign * 2j * np.pi * np.outer(a, a) / p) / np.sqrt(p)
        out = reduce(np.kron, [f] * width)
    out.setflags(write=False)
    return out


def _dft_runs(first: int, count: int, p: int) -> list[tuple[int, int]]:
    """(axis, width) runs tiling axes first .. first+count-1, p^width <= DFT_BLOCK_DIM."""
    width = 1
    while p ** (width + 1) <= DFT_BLOCK_DIM:
        width += 1
    last = first + count
    return [(axis, min(width, last - axis)) for axis in range(first, last, width)]


def _shift_source(digit_rows: np.ndarray, p: int) -> np.ndarray:
    """Source-index map of adding an (n, m) digit matrix v, LSB first, to a cube register.

    Adding v sends basis value y to y + v, so output x reads input x - v.
    Built one digit at a time, as :func:`label_permutation` is, from the
    least significant place up (last coordinate first, LSB first within
    it), so each outer sum puts the long, already built part innermost.
    The map has one entry per basis value of the register.
    """
    src = np.zeros(1, dtype=np.intp)
    place = 1
    for amt in np.asarray(digit_rows, dtype=np.int64)[::-1].reshape(-1):
        src = np.add.outer((np.arange(p) - amt) % p * place, src).reshape(-1)
        place *= p
    return _require_bijection(src, "cube shift")


def _shift_cube(
    block: np.ndarray, digit_rows: np.ndarray, p: int, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Add an (n, m) digit matrix, LSB first, to the cube register indexed by
    ``axis`` of ``block``: one gather through its checked source-index map."""
    src = _shift_source(digit_rows, p)
    if block.shape[axis] != len(src):
        raise BadRegister(f"cube register of {block.shape[axis]} values, shift of {len(src)}")
    return np.take(block, src, axis=axis, out=out, mode="clip")


class DenseState:
    """Complex amplitude vector over a :class:`RegisterLayout`, with a spare buffer.

    The constructor copies ``vec``, so a state owns its amplitudes and
    never writes an array its caller still holds; :meth:`from_parts`
    instead writes its tensor product once, into the state's own array.
    Every gate writes its
    output into the spare, a second array of ``layout.dim`` amplitudes,
    and then swaps it with ``vec``; the old state array becomes the next
    gate's spare.  ``state.vec`` is therefore valid only until the next
    gate: a caller that keeps it across one must copy it.  A state kept
    after its last gate should call :meth:`release_spare` so that it
    holds one state-sized array, not two.
    """

    def __init__(self, layout: RegisterLayout, vec: np.ndarray):
        self.layout = layout
        self.vec = np.array(vec, dtype=np.complex128, order="C")
        if self.vec.shape != (layout.dim,):
            raise BadRegister(f"state of shape {self.vec.shape}, layout needs ({layout.dim},)")
        self._spare: np.ndarray | None = None

    @classmethod
    def zero_state(cls, layout: RegisterLayout) -> DenseState:
        # the broadcast zero is copied straight into the state's own array
        state = cls(layout, np.broadcast_to(np.complex128(0), (layout.dim,)))
        state.vec[0] = 1.0
        return state

    @classmethod
    def from_parts(
        cls,
        layout: RegisterLayout,
        label_vec: np.ndarray,
        cube_vecs: Sequence[np.ndarray],
    ) -> DenseState:
        """Tensor product of a label-register state and one state per cube register."""
        if len(cube_vecs) != layout.cube_count:
            raise BadRegister(
                f"expected {layout.cube_count} cube registers, got {len(cube_vecs)}"
            )
        parts = [np.asarray(label_vec, dtype=np.complex128).reshape(-1)]
        if len(parts[0]) != layout.label_dim:
            raise BadRegister(f"label part has {len(parts[0])} amplitudes, not {layout.label_dim}")
        for j, cv in enumerate(cube_vecs):
            parts.append(np.asarray(cv, dtype=np.complex128).reshape(-1))
            if len(parts[-1]) != layout.cube_dim:
                raise BadRegister(
                    f"cube part {j} has {len(parts[-1])} amplitudes, not {layout.cube_dim}"
                )
        return cls._joined(layout, parts)

    @classmethod
    def _joined(cls, layout: RegisterLayout, parts: Sequence[np.ndarray]) -> DenseState:
        """Tensor product of flat ``parts`` in register order, written once.

        The parts before the last are Kronecker-multiplied into a prefix,
        and one outer product with the last part writes the state straight
        into the array it owns: no zero fill and no copy.
        """
        prefix = reduce(np.kron, parts[:-1], np.ones(1, dtype=np.complex128))
        state = cls.__new__(cls)
        state.layout, state._spare = layout, None
        state.vec = np.empty(layout.dim, dtype=np.complex128)
        np.multiply.outer(prefix, parts[-1], out=state.vec.reshape(len(prefix), -1))
        return state

    # -- plumbing ---------------------------------------------------------

    def release_spare(self) -> DenseState:
        """Drop the spare buffer, so a finished state holds one array."""
        self._spare = None
        return self

    def _out(self) -> np.ndarray:
        """The spare, for a gate to write its whole output into before :meth:`_swap`."""
        if self._spare is None:
            self._spare = np.empty(self.layout.dim, dtype=np.complex128)
        return self._spare

    def _swap(self) -> None:
        """Make the freshly written spare the state, and the old state the spare."""
        self.vec, self._spare = self._spare, self.vec

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.vec, self.vec).real))

    def _check_norm(self) -> DenseState:
        drift = abs(self.norm() - 1.0)
        if not drift < NORM_TOL:
            raise InvariantViolated(f"statevector norm drifted by {drift:.3g}")
        return self

    # -- gates ------------------------------------------------------------

    def dft_axis(self, axis: int, inverse: bool = False, width: int = 1) -> DenseState:
        """Fourier transform on the ``width`` digit axes from ``axis``: one matmul.

        With a real matrix (p = 2) and post > 1 the product runs on the
        float64 view, whose rows are twice as long: the matrix acts on
        real and imaginary parts alike.
        """
        if not (0 <= axis and width >= 1 and axis + width <= self.layout.total_axes):
            raise BadRegister(
                f"digit axes {axis}..{axis + width - 1} of {self.layout.total_axes}"
            )
        p = self.layout.p
        pre = p**axis
        block = p**width
        post = self.layout.dim // (pre * block)
        f = _dft_matrix(p, inverse, width)
        src, dst = self.vec, self._out()
        if post == 1:
            np.matmul(src.reshape(pre, block), f.T, out=dst.reshape(pre, block))
        else:
            if f.dtype == np.float64:
                src, dst, post = src.view(np.float64), dst.view(np.float64), 2 * post
            shape = (block, post) if pre == 1 else (pre, block, post)
            np.matmul(f, src.reshape(shape), out=dst.reshape(shape))
        self._swap()
        return self._check_norm()

    def shift_register(
        self, register: int, digit_rows: np.ndarray, ell: int = 1
    ) -> DenseState:
        """Shift a cube register by ell-fold addition of an F_q^n vector.

        ``digit_rows`` is the (n, m) digit matrix of the vector, LSB first.
        """
        lay = self.layout
        tail = lay.cube_tail(register)
        amounts = np.asarray(digit_rows, dtype=np.int64) * ell % lay.p
        if not amounts.any():
            return self
        shape = (-1, lay.cube_dim, tail)
        _shift_cube(self.vec.reshape(shape), amounts, lay.p, axis=1, out=self._out().reshape(shape))
        self._swap()
        return self

    def prep_cube(self, register: int, y_digit_rows: np.ndarray, sigma: SigmaParam) -> DenseState:
        """Turn |0> of a cube register into the side-sigma cube anchored at y.

        Realised as the p-ary Fourier transform on the r low digit slots
        of every coordinate (uniformising [sigma]^n), then the shift by y.
        Those r slots are adjacent axes, so each coordinate takes one
        transform.  Unitary, so callers starting elsewhere get the
        rotated state.
        """
        lay = self.layout
        for coord in range(lay.n):
            first = lay.cube_axis(register, coord, lay.m - 1) + lay.m - sigma.r
            for axis, width in _dft_runs(first, sigma.r, lay.p):
                self.dft_axis(axis, width=width)
        return self.shift_register(register, y_digit_rows)

    def qft_label(self, inverse: bool = False) -> DenseState:
        """Tensor-product Fourier transform over Z_p on every label slot."""
        for axis, width in _dft_runs(0, self.layout.label_digits, self.layout.p):
            self.dft_axis(axis, inverse=inverse, width=width)
        return self

    def permute_label(self, matrix_fp: np.ndarray, inverse: bool = False) -> DenseState:
        """Basis permutation |v> -> |M v>, or |v> -> |M^-1 v> with ``inverse``.

        Both directions read M's own index map i -> M i: the forward one
        scatters through it, the inverse one gathers through it, so M^-1
        is never formed.  A singular M raises BadParams: its label map is
        not a bijection.
        """
        perm = label_permutation(matrix_fp, self.layout.p)
        _require_bijection(perm, "label permutation")
        v = self.vec.reshape(self.layout.label_dim, -1)
        out = self._out().reshape(v.shape)
        if inverse:
            np.take(v, perm, axis=0, out=out, mode="clip")
        else:
            out[perm] = v
        self._swap()
        return self

    def controlled_register_shifts(self, amounts: np.ndarray, register: int) -> DenseState:
        """Shift cube registers by label-dependent F_q^n vectors.

        ``amounts`` has shape (label_dim, n, m), the digit matrices added
        to cube register ``register``, or (label_dim, R, n, m), those added
        to registers ``register`` .. ``register + R - 1``.  ``amounts[i]``
        applies on label basis value i, and a zero matrix is the identity.
        A pure basis permutation, made label by label: each register of a
        label's slice is one gather, and the gathers alternate between the
        spare's slice and the input's own (dead once read), so an even
        register count ends back in ``vec`` and needs no swap.
        """
        lay = self.layout
        amounts = np.asarray(amounts, dtype=np.int64)
        if amounts.ndim == 3:
            amounts = amounts[:, None]
        if len(amounts) != lay.label_dim:
            raise BadRegister(f"{len(amounts)} shift rows for {lay.label_dim} labels")
        count = amounts.shape[1]
        tail = lay.cube_tail(register, count)
        v = self.vec.reshape((lay.label_dim, -1) + (lay.cube_dim,) * count + (tail,))
        out = self._out().reshape(v.shape)
        for i, label_rows in enumerate(amounts):
            block = v[i]
            for j, digit_rows in enumerate(label_rows):
                dest = v[i] if j % 2 else out[i]
                block = _shift_cube(block, digit_rows, lay.p, axis=1 + j, out=dest)
        if count % 2:
            self._swap()
        return self

    def controlled_shift_power(self, t_digit_rows: np.ndarray) -> DenseState:
        """Apply U_t^(digit j of the label) to cube register j, for every j.

        The label register's current basis value supplies the control
        digits; powers are ell-fold F_q additions of t.
        """
        lay = self.layout
        if lay.cube_count > lay.label_digits:
            raise BadRegister(
                f"{lay.cube_count} cube registers but {lay.label_digits} control digits"
            )
        ells = label_to_digits(np.arange(lay.label_dim), lay.label_digits, lay.p)
        amounts = ells[:, : lay.cube_count, None, None] * np.asarray(t_digit_rows, dtype=np.int64)
        return self.controlled_register_shifts(amounts, 0)

    # -- measurement --------------------------------------------------------

    def label_marginal(self) -> np.ndarray:
        """Exact outcome distribution of a standard-basis label measurement."""
        w = self.vec.view(np.float64).reshape(self.layout.label_dim, -1)
        return np.einsum("ij,ij->i", w, w)


# ----------------------------------------------------------------------
# Small-vector helpers on a single F_q^n register (no label part)
# ----------------------------------------------------------------------

def vector_digit_rows(vec: Sequence[FieldElement]) -> np.ndarray:
    """(n, m) digit matrix of an F_q^n vector, LSB first."""
    return np.array([e.digits for e in vec], dtype=np.int64)


def cube_vector(field: Field, n: int, anchor: Sequence[FieldElement], sigma: SigmaParam) -> np.ndarray:
    """The side-sigma cube state at ``anchor`` as a bare q^n amplitude vector.

    Straight from the definition, as the oracle of :meth:`DenseState.prep_cube`:
    each offset z in [sigma]^n (coordinate images below sigma) is added to
    the anchor digit by digit, and each point's basis index is its
    coordinate images read in base q, all through the numeral codec.
    """
    if len(anchor) != n:
        raise LengthMismatch(f"anchor length {len(anchor)} != n = {n}")
    p, m, q = field.p, field.m, field.q
    offsets = label_to_digits(np.arange(sigma.sigma**n), n, sigma.sigma)
    anchor_digits = label_to_digits([a.image for a in anchor], m, p)
    # digits_to_label reduces mod p, so the sum is F_q addition
    points = digits_to_label(label_to_digits(offsets, m, p) + anchor_digits, p)
    vec = np.zeros(q**n, dtype=np.complex128)
    vec[digits_to_label(points, q)] = sigma.sigma ** (-n / 2)
    return vec


def shift_cube_vector(
    vec: np.ndarray, field: Field, n: int, t_digit_rows: np.ndarray, ell: int = 1
) -> np.ndarray:
    """U_t^ell on a bare q^n register vector."""
    p = field.p
    ell %= p
    if ell == 0:
        return vec.copy()
    amounts = np.asarray(t_digit_rows, dtype=np.int64) * ell
    return _shift_cube(np.asarray(vec).reshape(-1), amounts, p, axis=0)


def pcs_state_direct(
    code: LinearCode, sigma: SigmaParam, label_digits: Sequence[int]
) -> np.ndarray:
    """Phased cube state built straight from its definition (q^n vector).

    Sum over all messages c of omega_p^(label . digits(c)) times the cube
    at A c, scaled by q^(-k/2).  Independent of the sampler circuit; used
    as its oracle.
    """
    f = code.field
    q, k = f.q, code.k
    omega = np.exp(2j * np.pi / f.p)
    out = np.zeros(q**code.n, dtype=np.complex128)
    msgs = message_images(f, k)
    label = np.array(label_digits, dtype=np.int64)
    for row in msgs:
        c = tuple(f.el(int(v)) for v in row)
        c_digits = stack_digits(c)
        phase = omega ** int((label * c_digits).sum() % f.p)
        out += phase * cube_vector(f, code.n, code.encode(c), sigma)
    return out * q ** (-k / 2)


def cube_overlap(delta: Sequence[FieldElement], sigma: SigmaParam) -> float:
    """<C_sigma(0) | C_sigma(delta)> computed by digit counting.

    Per coordinate the overlap of [sigma] with delta_i + [sigma] is sigma
    when delta_i has no nonzero digit above position r (digit-wise
    addition cannot clear a high digit), and 0 otherwise; the state
    overlap is the product of the per-coordinate fractions.
    """
    out = 1.0
    for e in delta:
        top_clear = all(d == 0 for d in e.digits[sigma.r :])
        count = sigma.sigma if top_clear else 0
        out *= count / sigma.sigma
    return out


# ----------------------------------------------------------------------
# The PCS sampler circuit
# ----------------------------------------------------------------------

class PcsSampler:
    """Five-step sampler producing a uniformly labelled phased cube state.

    Runs on a message register (m*k digit slots) tensored with ONE cube
    register.  The first two steps act on one register each, so they run
    on that register alone: cube preparation at 0 on a cube-only state of
    q^n amplitudes, and the digit-wise Fourier transform on a label-only
    state of p^(mk) amplitudes.  One outer product joins the two, and the
    joined state takes the controlled shift by A c, the (no-op under this
    encoding) change of representation, and a second digit-wise Fourier
    transform.  Measuring the message register then yields a uniform
    label and collapses the cube register to the matching phased cube
    state; :meth:`collapse` is that read-out, the only one in the
    package, and it checks its label (``t_digits`` digits in [0, p)).

    Orthogonality of the anchored cubes is what makes the label marginal
    exactly uniform; it is checked both through the cached code distance
    (d > sigma*n) when available and numerically on the computed
    marginal.
    """

    def __init__(self, code: LinearCode, sigma: SigmaParam):
        f = code.field
        self.code = code
        self.sigma = sigma
        self.field = f
        self.t_digits = f.m * code.k
        require_cube_orthogonality(code, sigma)
        self.layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=self.t_digits, cube_count=1
        )
        # the registers are not entangled before the controlled shift, so
        # each runs its gates on its own one-sided state, and one outer
        # product joins them
        label = DenseState.zero_state(replace(self.layout, cube_count=0)).qft_label()
        cube = DenseState.zero_state(replace(self.layout, label_digits=0))
        cube.prep_cube(0, np.zeros((code.n, f.m), dtype=np.int64), sigma)
        state = DenseState._joined(self.layout, [label.vec, cube.vec])
        del label, cube  # not held while the controlled shift takes its spare
        # label digits j*m .. j*m+m-1 are the LSB-first digits of message
        # coordinate j, i.e. the label is the stacked digit vector of c
        labels = label_to_digits(np.arange(self.layout.label_dim), self.t_digits, f.p)
        amounts = labels @ code.operator.entries.T % f.p
        state.controlled_register_shifts(amounts.reshape(-1, code.n, f.m), 0)
        # step 4, the change of representation F_q^k -> F_p^{mk}, is a
        # no-op: the label slots already hold digits.  Step 5 is the
        # second digit-wise Fourier transform
        state.qft_label()
        self.state = state.release_spare()
        self.marginal = state.label_marginal()
        expected = 1.0 / self.layout.label_dim
        if np.max(np.abs(self.marginal - expected)) > UNIFORM_TOL:
            raise OrthogonalityViolated(
                "label marginal is not uniform; cube states are not orthonormal"
            )

    def collapse(self, label_digits: Sequence[int]) -> np.ndarray:
        """Post-measurement cube register state for a label (q^n vector).

        The label must be exactly ``t_digits`` integer digits, each in
        [0, p); any other raises BadParams rather than reading another label.
        """
        p = self.field.p
        digits = np.asarray(label_digits)
        if (
            digits.shape != (self.t_digits,)
            or digits.dtype.kind not in "iu"
            or ((digits < 0) | (digits >= p)).any()
        ):
            raise BadParams(f"label {digits.tolist()} is not {self.t_digits} digits in [0, {p})")
        slice_ = self.state.vec.reshape(self.layout.label_dim, -1)[digits_to_label(digits, p)]
        nrm = np.linalg.norm(slice_)
        if nrm == 0:
            raise OrthogonalityViolated(f"label {tuple(digits.tolist())} has zero amplitude")
        return slice_ / nrm


# ----------------------------------------------------------------------
# State dumps (golden-file regression format)
# ----------------------------------------------------------------------

_DUMP_MAGIC = b"PQDS"


def dump_state(
    state: DenseState, path: str, k: int, sigma: SigmaParam | None = None
) -> None:
    """Binary dump: header {p, m, n, k, T, sigma_r} then little-endian f64 pairs."""
    lay = state.layout
    sigma_r = -1 if sigma is None else sigma.r
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<6i", lay.p, lay.m, lay.n, k, lay.label_digits, sigma_r))
        fh.write(struct.pack("<i", lay.cube_count))
        arr = np.empty(2 * lay.dim, dtype="<f8")
        arr[0::2] = state.vec.real
        arr[1::2] = state.vec.imag
        fh.write(arr.tobytes())


def load_state(path: str) -> tuple[dict, DenseState]:
    """Read a :func:`dump_state` file.

    A file that is not a dump, has a short header, or whose payload is
    not exactly 16 bytes per amplitude of its layout raises OutOfRange.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _DUMP_MAGIC:
            raise OutOfRange(f"{path} is not a state dump")
        head = fh.read(28)
        if len(head) != 28:
            raise OutOfRange(f"{path}: header has {len(head)} of 28 bytes")
        p, m, n, k, t, sigma_r, cube_count = struct.unpack("<7i", head)
        layout = RegisterLayout(p=p, m=m, n=n, label_digits=t, cube_count=cube_count)
        payload = fh.read()
    if len(payload) != 16 * layout.dim:
        raise OutOfRange(
            f"{path}: payload has {len(payload)} bytes, not 16 * {layout.dim} amplitudes"
        )
    header = {"p": p, "m": m, "n": n, "k": k, "T": t, "sigma_r": sigma_r}
    return header, DenseState(layout, np.frombuffer(payload, dtype="<c16"))
