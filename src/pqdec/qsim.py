"""Exact dense statevector simulation for the cube-state decoder circuits.

Register model
--------------
A layout is a label register of L digit slots over F_p followed by some
number of cube registers, each an F_q^n vector register (n coordinates
of m digit slots each).  Every slot has radix p, so a state is a flat
array of p^(L + count*n*m) amplitudes in C order: float64 when p = 2
and the input is real, complex128 otherwise (see :class:`DenseState`).

Slot order is fixed: label slots first, then cube registers in order,
each coordinate-major.  The label codec: label digit j sits at axis j,
most significant first, so a label's basis index is its digit vector
read in base p (the numeral codec
:func:`pqdec.gf.label_to_digits` and its inverse
:func:`pqdec.gf.digits_to_label`, on scalars and arrays alike; it lives
in ``gf`` so that ``codes`` enumerates messages with it too).
Within a coordinate the LEAST significant digit sits at the last
(fastest-varying) axis, so the m axes of a coordinate, read as a C-order
number, equal the coordinate's integer image, and a cube register's
block index is the base-q number of its coordinate images.  Every radix
conversion in the package goes through that one codec, with four
exceptions.  Two work on Python ints for images past 2^63,
``gf._int_digits`` and ``FieldElement.image``.  Two build index maps by
Horner's rule: :func:`label_permutation`, so that no (p^T, T) digit
table is held for labels (p^T may reach the amplitude guard), and
:func:`_shift_source`, for speed (a 3^9-entry shift map takes about
0.1 ms by Horner against about 6 ms through the codec, on one core of
a 2-vCPU Xeon).  The one read-out of a label register is
:meth:`PcsSampler.collapse`, which also checks the label it is given.

Cube gates act on every cube register at once: no gate addresses one
register.  As in the decoder of the paper, a cube is prepared at 0
(:meth:`DenseState.prep_cube`) and moved only by controlled shifts
(:meth:`DenseState.controlled_register_shifts`, one digit matrix per
label and register), which all go through the one shift kernel
:func:`_shift_cube`, a gather through a source-index map with one entry
per basis value of the cube register.  A cube anchored elsewhere
exists only as the bare vector :func:`cube_vector`, and
:func:`shift_cube_vector` moves a bare vector through the same kernel.

Conventions: omega_p = exp(2*pi*i/p); the forward single-digit Fourier
transform is F[a, b] = omega_p^(a*b)/sqrt(p); measuring "in the Fourier
basis" means applying the inverse transform and reading the standard
basis.  The shift U_x adds digits mod p (no carries), i.e. F_q vector
addition.

Factor first: gates that act before the first entangling gate run on
the factor register they touch, as a state on a one-sided layout
(label-only, ``cube_count=0``, or cube-only, ``label_digits=0``).  The
first entangling gate of both circuits is a label-controlled shift, and
one controlled join (:meth:`DenseState.from_parts` with ``amounts``, or
the sampler's direct call of ``DenseState._controlled_join``) writes the
joined state with that shift already made: label slice i is the label
amplitude times the Kronecker product of each register's factor shifted
by its amount for label i.  A product state needs no joint tensor until
a gate couples its parts, so the PCS sampler and the decoder's
full-tensor path write the joined state once and pass over it only for
the gates after the first controlled shift.

Buffers: a :class:`DenseState` owns one full-state array (a copy of the
array it was built from, or the state a join writes straight into it),
and every gate works in place on it, so no gate allocates a state-sized
array.  A join writes each label slice once, as one outer product whose
long run is innermost: on one core of a 2-vCPU Xeon, 16 MB of float64
took 2.2 ms as eight 64 x 4096 outer products, against 5.2 ms as one
32768 x 64 product and 1.8 ms for a fill.  A Fourier transform
multiplies the state tile by tile (about ``DFT_TILE`` floats each) into
a small scratch tile and copies each tile back.  A controlled shift and
a label permutation move one label slice at a time, through one slice
of scratch.  For p = 2 the Fourier matrix is the real Hadamard power,
and every other gate only moves amplitudes, so a state built from real
amplitudes stays real: it is stored as float64, half the bytes of a
complex state, and a transform is a real product.  Each gate is checked:
a Fourier transform checks the norm to 1e-10
(:class:`~pqdec.errors.InvariantViolated` otherwise), on whichever
register it runs on, summing each tile's squared magnitudes while the
tile is still in cache; a gate that only reorders amplitudes (a label
permutation or a shift) first checks that its index map is a bijection,
which is exact and costs one pass over the map instead of one over the
state.
"""

from __future__ import annotations

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
from .gf import Field, FieldElement, digits_to_label, is_prime, label_to_digits, stack_digits

MAX_AMPLITUDES = 2**24
NORM_TOL = 1e-10
UNIFORM_TOL = 1e-12
# Largest side of one Fourier matrix: a run of digit axes is transformed
# by one matmul while p^width stays at or under this.  A wider run makes
# fewer passes over the state but more flops per amplitude.  With one
# BLAS thread on about 2^21 amplitudes, ten F_2 label digits took 49 ms
# at 32 against 121 ms at 256, and four F_5 digits 38 ms against 56 ms.
DFT_BLOCK_DIM = 32
# Floats (a complex amplitude counts as two, a real one as one) in one
# tile of an in-place Fourier transform, whatever the state's dtype.
# With one BLAS thread on 2^21 complex amplitudes (median of 15), three
# F_2 label digits took 6.9 ms in tiles of 2^15 floats, against 15.1 ms
# at 2^12, 7.7 ms at 2^14, 7.1 ms at 2^16 and 10.4 ms at 2^17, and
# 16.7 ms as one out-of-place product followed by a norm pass.
DFT_TILE = 2**15


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
        if not (
            is_prime(self.p)
            and min(self.m, self.n) >= 1
            and min(self.label_digits, self.cube_count) >= 0
        ):
            raise OutOfRange(f"{self}: p must be prime, m and n >= 1, and no count negative")
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


def _shift_power_amounts(layout: RegisterLayout, t_digit_rows: np.ndarray) -> np.ndarray:
    """Amounts of U_t^(digit j of the label) on cube register j, for every label.

    Shaped (label_dim, cube_count, n, m), as
    :meth:`DenseState.controlled_register_shifts` takes them: label digit
    j times the (n, m) digit matrix of t (not reduced mod p; a shift
    reduces its own amounts).
    """
    if layout.cube_count > layout.label_digits:
        raise BadRegister(
            f"{layout.cube_count} cube registers but {layout.label_digits} control digits"
        )
    ells = label_to_digits(np.arange(layout.label_dim), layout.label_digits, layout.p)
    return ells[:, : layout.cube_count, None, None] * np.asarray(t_digit_rows, dtype=np.int64)


class DenseState:
    """Amplitude vector over a :class:`RegisterLayout`, in one array.

    Its dtype is that of the input and the layout's Fourier matrix
    together, ``np.result_type(vec, _dft_matrix(p))``: float64 for a
    real input at p = 2, whose gates are all real, and complex128 for
    any other p or any complex input.  No gate changes it, and a complex
    input is never cast to real.

    The constructor copies ``vec``, so a state owns its amplitudes and
    never writes an array its caller still holds; :meth:`from_parts`
    instead writes its tensor product once, into the state's own array,
    with the first label-controlled shifts already made when it is given
    their ``amounts`` (one controlled join, no separate shift pass).
    Every gate then works in place on that array, with at most one tile
    or one label slice of scratch, so ``state.vec`` is the same array
    for the state's whole life and each gate overwrites it: a caller
    that keeps the amplitudes across a gate must copy them.
    """

    def __init__(self, layout: RegisterLayout, vec: np.ndarray):
        self.layout = layout
        vec = np.asarray(vec)
        self.vec = np.array(vec, dtype=np.result_type(vec, _dft_matrix(layout.p)), order="C")
        if self.vec.shape != (layout.dim,):
            raise BadRegister(f"state of shape {self.vec.shape}, layout needs ({layout.dim},)")

    @classmethod
    def zero_state(cls, layout: RegisterLayout) -> DenseState:
        # the broadcast zero is copied straight into the state's own array
        state = cls(layout, np.broadcast_to(np.float64(0), (layout.dim,)))
        state.vec[0] = 1.0
        return state

    @classmethod
    def from_parts(
        cls,
        layout: RegisterLayout,
        label_vec: np.ndarray,
        cube_vecs: Sequence[np.ndarray],
        amounts: np.ndarray | None = None,
    ) -> DenseState:
        """Tensor product of a label-register state and one state per cube register.

        With ``amounts`` (the argument of :meth:`controlled_register_shifts`)
        the product is written with those controlled shifts already made;
        without it, with all-zero amounts, which is the plain product.
        Either way the state is written once, by :meth:`_controlled_join`.
        """
        if len(cube_vecs) != layout.cube_count:
            raise BadRegister(
                f"expected {layout.cube_count} cube registers, got {len(cube_vecs)}"
            )
        label = np.asarray(label_vec).reshape(-1)
        if len(label) != layout.label_dim:
            raise BadRegister(f"label part has {len(label)} amplitudes, not {layout.label_dim}")
        cubes = [np.asarray(cv).reshape(-1) for cv in cube_vecs]
        for j, cv in enumerate(cubes):
            if len(cv) != layout.cube_dim:
                raise BadRegister(f"cube part {j} has {len(cv)} amplitudes, not {layout.cube_dim}")
        if amounts is None:
            amounts = np.zeros((layout.label_dim, layout.cube_count, layout.n, layout.m), np.int64)
        return cls._controlled_join(layout, label, cubes, amounts)

    @classmethod
    def _controlled_join(
        cls,
        layout: RegisterLayout,
        label: np.ndarray,
        cubes: Sequence[np.ndarray],
        amounts: np.ndarray,
    ) -> DenseState:
        """label (x) cubes, then ``controlled_register_shifts(amounts)``, written once.

        ``label`` and ``cubes`` are flat parts of the layout's sizes, and
        ``amounts`` is the argument of :meth:`controlled_register_shifts`.
        No register is entangled before the shift, so label slice i is
        label[i] times the Kronecker product over j of cube j shifted by
        ``amounts[i, j]``.  A register has one shifted factor per distinct
        amount: one gather through one checked source-index map, or the
        part itself for a zero amount.  Each slice is one outer product,
        (label[i] * first factor) (x) (Kronecker product of the others),
        so the long run is innermost; with one cube register it is
        label[i] (x) that register's factor.  The factors of every register
        but the last are kept for the call.  Labels are taken in order of
        the last register's amount, which holds one factor at a time, so a
        sampler's one register (a distinct amount per label) keeps none.
        The state is real only when every part is and the layout has p = 2.
        """
        lay = layout
        amounts = np.asarray(amounts, dtype=np.int64)
        want = (lay.label_dim, lay.cube_count, lay.n, lay.m)
        if amounts.shape != want:
            raise BadRegister(f"shift amounts of shape {amounts.shape}, layout needs {want}")
        amounts = amounts % lay.p  # one map per distinct shift
        keys = [[rows.tobytes() for rows in label_rows] for label_rows in amounts]
        dtype = np.result_type(label, *cubes, _dft_matrix(lay.p))
        state = cls.__new__(cls)
        state.layout = lay
        state.vec = np.empty(lay.dim, dtype=dtype)
        out = state.vec.reshape(lay.label_dim, -1)
        split = 2 if lay.cube_count > 1 else 1  # parts in the outer product's head
        factors: list[dict[bytes, np.ndarray]] = [{} for _ in cubes]
        for i in sorted(range(lay.label_dim), key=lambda i: keys[i][-1:]):
            parts = [label[i : i + 1]]
            for j, (cube, held) in enumerate(zip(cubes, factors)):
                key = keys[i][j]
                if key not in held:
                    if j == lay.cube_count - 1:
                        held.clear()
                    rows = amounts[i, j]
                    held[key] = _shift_cube(cube, rows, lay.p, axis=0) if rows.any() else cube
                parts.append(held[key])
            # Kronecker products, by outer products (np.kron costs ~3x more)
            head = reduce(np.multiply.outer, parts[:split]).reshape(-1)
            tail = reduce(np.multiply.outer, parts[split:] or [np.ones(1)]).reshape(-1)
            np.multiply.outer(head, tail, out=out[i].reshape(len(head), -1))
        return state

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.vec, self.vec).real))

    # -- gates ------------------------------------------------------------

    def dft_axis(self, axis: int, inverse: bool = False, width: int = 1) -> DenseState:
        """Fourier transform on the ``width`` digit axes from ``axis``, in place.

        The state, viewed as (pre, block, post), is multiplied by the
        Fourier matrix one tile of about ``DFT_TILE`` floats at a time:
        a run of ``pre`` rows when a row fits in a tile, else a slice of
        ``post`` columns of one row.  Each product goes into a scratch
        tile, whose squared magnitudes are summed for the norm check
        before it is copied back.  A tile holds ``DFT_TILE`` floats for a
        real and a complex state alike.  The matrix takes the state's
        dtype, so a real state (p = 2) takes a real product and a complex
        one a complex product.  With post == 1 each tile of rows is
        multiplied by F^T.
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
        v = self.vec
        f = f.astype(v.dtype, copy=False)
        x = v.reshape((pre, block) if post == 1 else (pre, block, post))
        size = DFT_TILE * 8 // v.itemsize  # elements of v in one tile
        if block * post <= size:
            step = size // (block * post)
            tiles = [np.s_[i : i + step] for i in range(0, pre, step)]
        else:
            step = max(size // block, 1)
            tiles = [np.s_[i, :, j : j + step] for i in range(pre) for j in range(0, post, step)]
        scratch = np.empty(x[tiles[0]].size, dtype=v.dtype)
        total = 0.0
        for tile in tiles:
            src = x[tile]
            out = scratch[: src.size].reshape(src.shape)
            if post == 1:
                np.matmul(src, f.T, out=out)
            else:
                np.matmul(f, src, out=out)
            total += np.vdot(out, out).real
            x[tile] = out
        drift = abs(np.sqrt(total) - 1.0)
        if not drift < NORM_TOL:
            raise InvariantViolated(f"statevector norm drifted by {drift:.3g}")
        return self

    def prep_cube(self, sigma: SigmaParam) -> DenseState:
        """Turn |0> of every cube register into the side-sigma cube at 0.

        Realised as the p-ary Fourier transform on the r low digit slots
        of every coordinate (uniformising [sigma]^n).  Those r slots are
        adjacent axes, so each coordinate takes one transform.  Unitary,
        so callers starting elsewhere get the rotated state.
        """
        lay = self.layout
        for coord in range(lay.cube_count * lay.n):
            first = lay.label_digits + (coord + 1) * lay.m - sigma.r
            for axis, width in _dft_runs(first, sigma.r, lay.p):
                self.dft_axis(axis, width=width)
        return self

    def qft_label(self, inverse: bool = False) -> DenseState:
        """Tensor-product Fourier transform over Z_p on every label slot."""
        for axis, width in _dft_runs(0, self.layout.label_digits, self.layout.p):
            self.dft_axis(axis, inverse=inverse, width=width)
        return self

    def permute_label(self, matrix_fp: np.ndarray, inverse: bool = False) -> DenseState:
        """Basis permutation |v> -> |M v>, or |v> -> |M^-1 v> with ``inverse``.

        Both directions read M's own index map i -> M i: the inverse one
        gathers slice i from slice M i, the forward one from the inverted
        index map, so M^-1 is never formed.  A singular M raises
        BadParams: its label map is not a bijection.  Label slices move
        in place, one cycle of the map at a time: the cycle's first slice
        waits in one slice of scratch while the others move up.
        """
        perm = _require_bijection(label_permutation(matrix_fp, self.layout.p), "label permutation")
        if inverse:
            source = perm
        else:
            source = np.empty_like(perm)
            source[perm] = np.arange(len(perm))
        source = source.tolist()
        v = self.vec.reshape(self.layout.label_dim, -1)
        scratch = np.empty_like(v[0])
        moved = [i == s for i, s in enumerate(source)]  # fixed points stay
        for start in range(len(source)):
            if moved[start]:
                continue
            scratch[:] = v[start]
            i = start
            while source[i] != start:
                v[i] = v[source[i]]
                moved[i], i = True, source[i]
            v[i] = scratch
            moved[i] = True
        return self

    def controlled_register_shifts(self, amounts: np.ndarray) -> DenseState:
        """Shift every cube register by label-dependent F_q^n vectors.

        ``amounts`` has shape (label_dim, cube_count, n, m): ``amounts[i, j]``
        is the digit matrix added to cube register j on label basis value
        i, and a zero matrix is the identity, so it makes no pass.  A pure
        basis permutation, made in place one label slice at a time: each
        register's shift is one gather along its axis, and the gathers
        alternate between the slice and one slice of scratch, which is
        copied back when the last gather ends there.
        """
        lay = self.layout
        amounts = np.asarray(amounts, dtype=np.int64)
        want = (lay.label_dim, lay.cube_count, lay.n, lay.m)
        if amounts.shape != want:
            raise BadRegister(f"shift amounts of shape {amounts.shape}, layout needs {want}")
        v = self.vec.reshape((lay.label_dim,) + (lay.cube_dim,) * lay.cube_count)
        scratch = np.empty_like(v[0])
        for label_slice, label_rows in zip(v, amounts):
            block, other = label_slice, scratch
            for j, digit_rows in enumerate(label_rows):
                if digit_rows.any():
                    _shift_cube(block, digit_rows, lay.p, axis=j, out=other)
                    block, other = other, block
            if block is scratch:
                label_slice[...] = scratch
        return self

    def controlled_shift_power(self, t_digit_rows: np.ndarray) -> DenseState:
        """Apply U_t^(digit j of the label) to cube register j, for every j.

        The label register's current basis value supplies the control
        digits; powers are ell-fold F_q additions of t.
        """
        return self.controlled_register_shifts(_shift_power_amounts(self.layout, t_digit_rows))

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

    Straight from the definition, as the oracle of :meth:`DenseState.prep_cube`
    and of the shifts that move its cube: each offset z in [sigma]^n (coordinate images below sigma) is added to
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
    vec: np.ndarray, field: Field, t_digit_rows: np.ndarray, ell: int = 1
) -> np.ndarray:
    """U_t^ell on a bare q^n register vector (a new array, also at ell = 0)."""
    amounts = np.asarray(t_digit_rows, dtype=np.int64) * ell
    return _shift_cube(np.asarray(vec).reshape(-1), amounts, field.p, axis=0)


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
    on that register alone: cube preparation at 0 on a cube-only state
    of q^n amplitudes, and the digit-wise Fourier transform on a
    label-only state of p^(mk) amplitudes.  The third step, the
    controlled shift by A c, is the first to couple them, so one
    controlled join (``DenseState._controlled_join``; not
    :meth:`DenseState.from_parts`, whose calls the benchmark's trace
    counts as the decoder's full-tensor path) writes the joined state
    with it made: label slice c is the label amplitude times the cube
    moved to A c.  The joined state then takes the (no-op under this
    encoding) change of representation and a second digit-wise Fourier
    transform.  Measuring the message register then yields a uniform
    label and collapses the cube register to the matching phased cube
    state; :meth:`collapse` is that read-out, the only one in the
    package, and it checks its label (``layout.label_digits`` digits in
    [0, p)).

    Orthogonality of the anchored cubes is what makes the label marginal
    exactly uniform; it is checked both through the cached code distance
    (d > sigma*n) when available and numerically on the computed
    marginal.
    """

    def __init__(self, code: LinearCode, sigma: SigmaParam):
        f = code.field
        require_cube_orthogonality(code, sigma)
        self.layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=f.m * code.k, cube_count=1
        )
        # the registers are not entangled before the controlled shift, so
        # each runs its gates on its own one-sided state, and one join
        # writes them together with that shift made
        label = DenseState.zero_state(replace(self.layout, cube_count=0)).qft_label()
        cube = DenseState.zero_state(replace(self.layout, label_digits=0))
        cube.prep_cube(sigma)
        # label digits j*m .. j*m+m-1 are the LSB-first digits of message
        # coordinate j, i.e. the label is the stacked digit vector of c
        labels = label_to_digits(np.arange(self.layout.label_dim), self.layout.label_digits, f.p)
        amounts = labels @ code.operator.entries.T % f.p
        state = DenseState._controlled_join(
            self.layout, label.vec, [cube.vec], amounts.reshape(-1, 1, code.n, f.m)
        )
        # step 4, the change of representation F_q^k -> F_p^{mk}, is a
        # no-op: the label slots already hold digits.  Step 5 is the
        # second digit-wise Fourier transform
        state.qft_label()
        self.state = state
        self.marginal = state.label_marginal()
        expected = 1.0 / self.layout.label_dim
        if np.max(np.abs(self.marginal - expected)) > UNIFORM_TOL:
            raise OrthogonalityViolated(
                "label marginal is not uniform; cube states are not orthonormal"
            )

    def collapse(self, label_digits: Sequence[int]) -> np.ndarray:
        """Post-measurement cube register state for a label (q^n vector).

        The label must be exactly ``layout.label_digits`` integer digits,
        each in [0, p); any other raises BadParams rather than reading
        another label.
        """
        p, width = self.layout.p, self.layout.label_digits
        digits = np.asarray(label_digits)
        if (
            digits.shape != (width,)
            or digits.dtype.kind not in "iu"
            or ((digits < 0) | (digits >= p)).any()
        ):
            raise BadParams(f"label {digits.tolist()} is not {width} digits in [0, {p})")
        slice_ = self.state.vec.reshape(self.layout.label_dim, -1)[digits_to_label(digits, p)]
        nrm = np.linalg.norm(slice_)
        if nrm == 0:
            raise OrthogonalityViolated(f"label {tuple(digits.tolist())} has zero amplitude")
        return slice_ / nrm
