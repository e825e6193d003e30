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
block index is the base-q number of its coordinate images (each
coordinate's digit row reversed).  Every radix conversion in the package
goes through that one codec, with four exceptions.  Three work on Python
ints for images past 2^63, ``gf._int_digits``, ``FieldElement.image``
and ``gf.digit_images``.  One builds an index map
by Horner's rule: :func:`_shift_source`, for speed (a 3^9-entry shift
map and its bijection check take about 0.13 ms by Horner against about
6 ms through the codec, on one core of a 2-vCPU Xeon).  A decode builds
few shift maps, at most one per label digit and register in a join (see
Factor first) and one per power d = 1 .. p//2 of U_t in the factorised
marginal: one over F_27 at k = 1.  Label index maps go through the
codec, in :func:`label_source`, with a bijection check: a decode has at
most 2^12 labels, where the codec is about as fast as Horner's rule, and
each dense decode builds exactly one, on either marginal path.  The one
read-out of a label register is :meth:`PcsSampler.collapse`, which also
checks the label it is given.

Cube gates act on every cube register at once: no gate addresses one
register.  As in the decoder of the paper, a cube is prepared at 0
(:meth:`DenseState.prep_cube`, whose uniform low digits the sampler
leaves unwritten; see Factor first) and moved only by label-controlled
shifts.  The sampler's moves a basis state to a basis state, which it
holds as one index per label; the decoder's are made by the controlled
join of :meth:`DenseState.from_parts` (see Factor first), which goes
through the one shift kernel :func:`_shift_cube`, a gather through a
source-index map with one entry per basis value of the cube register,
as every other shift does.  A cube anchored elsewhere
exists only as the bare vector :func:`cube_vector`, and
:func:`shift_cube_vector` moves a stack of them through the same kernel.

Conventions: omega_p = exp(2*pi*i/p); the forward single-digit Fourier
transform is F[a, b] = omega_p^(a*b)/sqrt(p); measuring "in the Fourier
basis" means applying the inverse transform and reading the standard
basis.  The shift U_x adds digits mod p (no carries), i.e. F_q vector
addition.

Factor first: gates that act before the first entangling gate run on
the factor register they touch, as a state on a one-sided layout
(label-only, ``cube_count=0``, or cube-only, ``label_digits=0``).  The
first entangling gate of both circuits is a label-controlled shift, and
both shifts are F_p-linear in the label digits, qudit Clifford gates
given by an F_p matrix: the sampler's A c, and the decoder's
U_t^(ell_j), read at L^-1 y when the label permutations L^-1 and L
around the shift are folded in.  One controlled join,
:meth:`DenseState.from_parts` with ``generators``, takes that map, one
digit matrix per label digit and register, and writes the joined state
with the shift already made:
label slice i is the label amplitude times the Kronecker product of each
register's factor shifted by its amount for label i.  The join takes
labels in index order, so each register's factor for label i is one
gather of its factor for label i-1, by a step that depends only on the
carry from i-1 to i, a suffix sum of the generators: at most one map per
label digit and register, built before the loop, and no per-label
table.  A product state needs no joint
tensor until a gate couples its parts, and a part that no gate couples
needs none at all: the PCS sampler's cube is prepared uniform on the r
low digits of each coordinate, the Fourier state |+>^r, which every
digit shift fixes, so its controlled shift never entangles those digits.
They stay one factor of sigma^n equal amplitudes that no decode reads,
so the sampler never writes them.  Its shift acts on the m - r high
digits of each coordinate, still at |0>, and a shift maps a basis state
to a basis state, so the joined state has one nonzero per label c, at
the high digits of A c.  The sampler holds it by that support, one cube
index per label, beside the label amplitudes, and joins nothing.  Its
label is uniform exactly when no two messages share those high digits,
an F_p rank condition it checks before it builds anything.
:meth:`PcsSampler.collapse` computes a label's slice of the state after
step 5's transform as that label's row of F times the label amplitudes,
scattered to the support: its
high vector, all that a decode reads, since every later gate fixes the
low digits too (the decoder shifts by t's high digits alone).  The
decoder's full-tensor path holds no joined state at all: after its
shift, label slice y is (work amplitude times register 0's factor) (x)
(the other registers' factors), so it joins a head (the work register
with register 0) and a tail (a unit label with the other registers)
over the same generators, and its one gate after the shift, the
Fourier-basis measurement (:func:`fourier_label_marginal`), reads the
label register's reduced density matrix off them: the entrywise
product of their label Gram matrices.  No decode runs
:meth:`DenseState.permute_label` or
:meth:`DenseState.controlled_register_shifts` as a pass of its own:
they are the reference gates a join is checked against.

Buffers: a :class:`DenseState` owns one full-state array (a copy of the
array it was built from, or the state a join writes straight into it),
and every gate works in place on it, so no gate allocates a state-sized
array.  A join writes each label slice once, as one outer product whose
long run is innermost: on one core of a 2-vCPU Xeon, 16 MB of float64
took 2.2 ms as eight 64 x 4096 outer products, against 5.2 ms as one
32768 x 64 product and 1.8 ms for a fill.  A Fourier transform
multiplies the state tile by tile (about ``DFT_TILE`` floats each) into
a small scratch tile and copies each tile back.  The Fourier-basis
label measurement of a head and a tail (:func:`fourier_label_marginal`)
forms no composite amplitude at all: it holds the p^T x p^T reduced
density matrix rho = Gram(head) o Gram(tail) (entrywise), each Gram
summed over column blocks of ``2 * DFT_TILE`` floats, and reads the law
as the diagonal of F^-1 rho F^-H; neither part is written.  The
sampler holds p^(mk) label amplitudes and p^(mk) int64 cube indices, not
a p^(mk) x q^n state: on F_27 at n = 3 and sigma = 3 that is 27 of each,
against 3^9 floats for the joined high digits and 4.25 MB for the whole
register, and :meth:`PcsSampler.collapse` writes only the
(count, p^((m-r)n)) stack of high vectors it returns.  A
controlled shift and a label permutation move one label slice at a
time, through one slice of scratch.  For p = 2 the Fourier matrix is
the real Hadamard power, and every other gate only moves amplitudes, so
a state built from real amplitudes stays real: it is stored as float64,
half the bytes of a complex state, and a transform is a real product.
Each gate is checked: a Fourier transform checks the norm to
1e-10 (:class:`~pqdec.errors.InvariantViolated` otherwise), on
whichever register it runs on, summing each tile's squared magnitudes
while the tile is still in cache, and the full-tensor read-out checks
its law's sum, trace rho; a gate that only reorders amplitudes (a label
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
from .gf import (
    Field,
    digit_rows,
    digits_to_label,
    is_prime,
    label_to_digits,
    top_digit_submatrix,
)
from .modp import rank

MAX_AMPLITUDES = 2**24
NORM_TOL = 1e-10
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
# 16.7 ms as one out-of-place product followed by a norm pass.  The
# Gram matrices' column blocks take twice this.
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


def label_source(matrix: np.ndarray, p: int, inverse: bool = False) -> np.ndarray:
    """Source-index map of the label permutation |v> -> |M v> (|M^-1 v> with ``inverse``).

    After the permutation, label i holds what label ``source[i]`` held:
    source[i] = M^-1 i, or M i with ``inverse``.  Both read M's own
    index map i -> M i, built through the numeral codec and checked to
    be a bijection (a singular M raises BadParams); the forward one
    inverts it, so M^-1 is never formed.  The codec holds a (p^T, T)
    int64 digit table while it builds the map.  A decode has p^T <= 2^12
    (the sampler fits p^(m*k) * q^n in the amplitude guard with n >= k),
    where the map takes about as long as a digit-at-a-time Horner build,
    at most about 2 ms, and a third of that at 8 or 27 labels.  Past about
    2^16 labels the codec is 1.5 to 2 times slower, and at 2^24 labels the
    table is 3.2 GB; only :meth:`DenseState.permute_label` on a large
    label-only layout gets there, and no decode runs that gate.
    """
    mat = np.asarray(matrix, dtype=np.int64) % p
    labels = label_to_digits(np.arange(p ** mat.shape[1]), mat.shape[1], p)
    perm = _require_bijection(digits_to_label(labels @ mat.T, p), "label permutation")
    if inverse:
        return perm
    source = np.empty_like(perm)
    source[perm] = np.arange(len(perm))
    return source


def _require_bijection(index_map: np.ndarray, what: str) -> np.ndarray:
    """``index_map`` itself, once it is checked to permute range(len(index_map))."""
    counts = np.bincount(index_map, minlength=len(index_map))
    if len(counts) != len(index_map) or not np.all(counts == 1):
        raise BadParams(f"{what} is not a bijection")
    return index_map


def _require_amplitudes(dim: int, what: str) -> None:
    """Raise ScaleExceeded before anything is allocated if ``dim`` passes the guard."""
    if dim > MAX_AMPLITUDES:
        raise ScaleExceeded(f"{what} needs {dim} amplitudes, above the {MAX_AMPLITUDES} guard")


def _require_unit_norm(squared_norm: float) -> None:
    """Raise InvariantViolated unless sqrt(``squared_norm``) is within NORM_TOL of 1."""
    drift = abs(np.sqrt(squared_norm) - 1.0)
    if not drift < NORM_TOL:
        raise InvariantViolated(f"statevector norm drifted by {drift:.3g}")


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
        _require_amplitudes(self.dim, "layout")

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
    Built one digit at a time by Horner's rule, from the least
    significant place up (last coordinate first, LSB first within
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
    block: np.ndarray, src: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Shift the cube register indexed by ``axis`` of ``block``: one gather
    through ``src``, a checked source-index map from :func:`_shift_source`."""
    if block.shape[axis] != len(src):
        raise BadRegister(f"cube register of {block.shape[axis]} values, shift of {len(src)}")
    return np.take(block, src, axis=axis, out=out, mode="clip")


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
    their ``generators`` (one controlled join, no separate shift pass).
    Every gate then works in place on that array, with at most one tile
    or one label slice of scratch, so ``state.vec`` is the same array
    for the state's whole life and each gate overwrites it: a caller
    that keeps the amplitudes across a gate must copy them.
    """

    def __init__(self, layout: RegisterLayout, vec: np.ndarray):
        # the shape is checked before the copy, so a wrong input allocates no state
        if np.shape(vec) != (layout.dim,):
            raise BadRegister(f"state of shape {np.shape(vec)}, layout needs ({layout.dim},)")
        self.layout = layout
        vec = np.asarray(vec)
        self.vec = np.array(vec, dtype=np.result_type(vec, _dft_matrix(layout.p)), order="C")

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
        generators: np.ndarray | None = None,
    ) -> DenseState:
        """Tensor product of a label-register state and one state per cube register.

        With ``generators`` (G), shaped (label_digits, cube_count, n, m),
        the product is written with the label-controlled shifts they
        define already made, one controlled join: label i shifts cube
        register j by sum_d digit_d(i) * G[d, j] mod p.  Without them it
        is the plain product, all-zero generators, which build no map.
        No register is entangled before the shift, so label slice i is
        label[i] times the Kronecker product over j of cube j so shifted.
        Labels are taken in index order and each register holds one
        factor: label i's is one gather of label i-1's (label 0 shifts
        nothing, so its factor is the part itself).  When i has l
        trailing zero base-p digits, digit T-1-l goes up by one and the l
        digits below it wrap from p-1 to 0, also +1 mod p, so the step is
        the suffix sum G[T-1-l] + ... + G[T-1].  One checked source-index
        map is built per nonzero step and register, before the label
        loop.  Each slice is one outer product, (label[i] * first factor)
        (x) (Kronecker product of the others), so the long run is
        innermost; with one cube register it is label[i] (x) that
        register's factor.  The state is written once and held without a
        copy; it is real only when every part is and the layout has p = 2.
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
        want = (layout.label_digits, layout.cube_count, layout.n, layout.m)
        if generators is None:
            generators = np.zeros(want, np.int64)
        generators = np.asarray(generators, dtype=np.int64)
        if generators.shape != want:
            raise BadRegister(f"shift generators of shape {generators.shape}, layout needs {want}")
        steps = np.cumsum(generators[::-1], axis=0) % layout.p  # row l: the step at carry level l
        maps = [[_shift_source(s, layout.p) if s.any() else None for s in row] for row in steps]
        state = cls.__new__(cls)
        state.layout = layout
        dtype = np.result_type(label, *cubes, _dft_matrix(layout.p))
        state.vec = np.empty(layout.dim, dtype=dtype)
        out = state.vec.reshape(layout.label_dim, -1)
        split = 2 if layout.cube_count > 1 else 1  # parts in the outer product's head
        factors = list(cubes)  # each register's factor, moved label by label
        for i in range(layout.label_dim):
            if i:
                level = 0  # trailing zero base-p digits of i
                while i % layout.p ** (level + 1) == 0:
                    level += 1
                for j, src in enumerate(maps[level]):
                    if src is not None:
                        factors[j] = _shift_cube(factors[j], src, axis=0)
            parts = [label[i : i + 1], *factors]
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

        The state, viewed as (pre, block, post), is cut into tiles of about
        ``DFT_TILE`` floats: a run of ``pre`` rows when a row fits in a
        tile, else a slice of ``post`` columns of one row.  A tile holds
        ``DFT_TILE`` floats for a real and a complex state alike.  Each
        tile is multiplied by the Fourier matrix into one scratch tile,
        whose squared magnitudes are summed for the norm check while it is
        still in cache, and copied back over the tile.  The matrix takes
        the state's dtype, so a real state (p = 2) takes a real product and
        a complex one a complex product.  With post == 1 each tile of rows
        is multiplied by F^T.
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
        x = v.reshape(pre, block, post)
        size = DFT_TILE * 8 // v.itemsize  # elements of v in one tile
        if block * post <= size:
            step = size // (block * post)
            tiles = [np.s_[i : i + step, :, :] for i in range(0, pre, step)]
        else:
            step = max(size // block, 1)
            tiles = [np.s_[i : i + 1, :, j : j + step] for i in range(pre) for j in range(0, post, step)]
        scratch = np.empty(x[tiles[0]].size, dtype=v.dtype)
        total = 0.0
        for tile in tiles:
            src = x[tile]
            out = scratch[: src.size].reshape(src.shape)
            if post == 1:
                np.matmul(src[..., 0], f.T, out=out[..., 0])
            else:
                np.matmul(f, src, out=out)
            total += np.vdot(out, out).real
            src[...] = out
        _require_unit_norm(total)
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

        Slice i is gathered from slice ``label_source(M, p, inverse)[i]``,
        so a singular M raises BadParams.  Label slices move in place,
        one cycle of the map at a time: the cycle's first slice waits in
        one slice of scratch while the others move up.
        """
        source = label_source(matrix_fp, self.layout.p, inverse).tolist()
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
                    _shift_cube(block, _shift_source(digit_rows, lay.p), axis=j, out=other)
                    block, other = other, block
            if block is scratch:
                label_slice[...] = scratch
        return self

    # -- measurement --------------------------------------------------------

    def label_marginal(self) -> np.ndarray:
        """Exact outcome distribution of a standard-basis label measurement."""
        w = self.vec.view(np.float64).reshape(self.layout.label_dim, -1)
        return np.einsum("ij,ij->i", w, w)


def fourier_label_marginal(head: DenseState, tail: DenseState) -> np.ndarray:
    """Fourier-basis label measurement of the label-wise product of two states.

    ``head`` and ``tail`` share one label register (the same p and label
    digits), and the composite they stand for has label slice y equal to
    head's slice y (x) tail's slice y.  Its outcome law (``qft_label``
    with ``inverse``, then :meth:`DenseState.label_marginal`, on the
    composite) depends only on the label register's reduced density
    matrix rho, entry (y, y') <head_y'|head_y> <tail_y'|tail_y>: the
    entrywise product of the parts' Gram matrices (:func:`_gram`), so no
    composite amplitude is formed.  The law is the real diagonal of
    F^-1 rho F^-H; its sum, trace rho, is checked at ``NORM_TOL``, and
    each entry is clamped at 0, where rounding can leave an impossible
    outcome a few ulps below.  rho is p^T x p^T: at most 2^8 x 2^8 on the
    decoder's full-tensor path when T >= 2, and ScaleExceeded past the
    amplitude guard.  Neither state is written.
    """
    lay = head.layout
    if (tail.layout.p, tail.layout.label_digits) != (lay.p, lay.label_digits):
        raise BadRegister(f"head {lay} and tail {tail.layout} have different label registers")
    if not lay.label_digits:
        raise BadRegister("the layout has no label register to measure")
    _require_amplitudes(lay.label_dim**2, "label density matrix")
    rho = _gram(head.vec.reshape(lay.label_dim, -1)) * _gram(tail.vec.reshape(lay.label_dim, -1))
    # complex only at p >= 3, where every DenseState is complex too
    f = _dft_matrix(lay.p, True, lay.label_digits).astype(rho.dtype, copy=False)
    # Re sum_y' (F rho)[z, y'] conj(F[z, y']), on float64 views
    law = np.einsum("ij,ij->i", (f @ rho).view(np.float64), f.view(np.float64))
    _require_unit_norm(law.sum())
    return np.maximum(law, 0.0)


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^H over column blocks of ``2 * DFT_TILE`` floats: a complex x is conjugated by block."""
    step = max(2 * DFT_TILE * 8 // (x.itemsize * len(x)), 1)
    out = np.zeros((len(x), len(x)), dtype=x.dtype)
    for c in range(0, x.shape[1], step):
        block = x[:, c : c + step]
        out += block @ block.conj().T
    return out


# ----------------------------------------------------------------------
# Small-vector helpers on a single F_q^n register (no label part)
# ----------------------------------------------------------------------

def cube_vector(field: Field, n: int, anchor, sigma: SigmaParam) -> np.ndarray:
    """The side-sigma cube state at ``anchor`` as a bare q^n amplitude vector.

    Straight from the definition, as the oracle of :meth:`DenseState.prep_cube`
    and of the shifts that move its cube: each offset z in [sigma]^n (coordinate images below sigma) is added to
    the anchor digit by digit, and each point's basis index is its
    coordinate images read in base q, all through the numeral codec.
    More than ``MAX_AMPLITUDES`` amplitudes raise ScaleExceeded before
    anything is allocated.
    """
    anchor = digit_rows(field, anchor, "anchor entry")
    if len(anchor) != n:
        raise LengthMismatch(f"anchor length {len(anchor)} != n = {n}")
    p, m, q = field.p, field.m, field.q
    _require_amplitudes(q**n, "cube vector")
    offsets = label_to_digits(np.arange(sigma.sigma**n), n, sigma.sigma)
    anchor_digits = anchor[:, ::-1]  # most significant first, as the codec reads
    # digits_to_label reduces mod p, so the sum is F_q addition
    points = digits_to_label(label_to_digits(offsets, m, p) + anchor_digits, p)
    vec = np.zeros(q**n, dtype=np.complex128)
    vec[digits_to_label(points, q)] = sigma.sigma ** (-n / 2)
    return vec


def shift_cube_vector(
    vec: np.ndarray, field: Field, t_digit_rows: np.ndarray, ell: int = 1
) -> np.ndarray:
    """U_t^ell along the last axis of a (..., p^(n*m')) stack of bare register vectors.

    ``t_digit_rows`` is an (n, m') digit block: all of t for q^n vectors,
    t's high digits ``t[:, r:]`` for collapsed high vectors.  Always a
    new array.  A zero power (ell * t = 0 mod p) is a copy and builds no
    map, as a zero step of the join and a zero row of
    :meth:`DenseState.controlled_register_shifts` build none; any other
    power is one gather through one checked map, whatever the stack.
    """
    vec = np.asarray(vec)
    amounts = np.asarray(t_digit_rows, dtype=np.int64) * ell % field.p
    if amounts.any():
        return _shift_cube(vec, _shift_source(amounts, field.p), axis=-1)
    if vec.shape[-1:] != (field.p**amounts.size,):
        raise BadRegister(f"register vectors of shape {vec.shape}, shift of {amounts.shape}")
    return vec.copy()


def pcs_state_direct(
    code: LinearCode, sigma: SigmaParam, label_digits: Sequence[int]
) -> np.ndarray:
    """Phased cube state built straight from its definition (q^n vector).

    Sum over all messages c of omega_p^(label . digits(c)) times the cube
    at A c, scaled by q^(-k/2).  Independent of the sampler circuit; used
    as its oracle.  More than ``MAX_AMPLITUDES`` amplitudes raise
    ScaleExceeded before anything is allocated.
    """
    f = code.field
    q, k = f.q, code.k
    _require_amplitudes(q**code.n, "phased cube state")
    omega = np.exp(2j * np.pi / f.p)
    out = np.zeros(q**code.n, dtype=np.complex128)
    msgs = label_to_digits(message_images(f, k), f.m, f.p)[..., ::-1]  # (q^k, k, m) rows
    label = np.array(label_digits, dtype=np.int64)
    for c in msgs:
        phase = omega ** int((label * c.reshape(-1)).sum() % f.p)
        out += phase * cube_vector(f, code.n, code.encode(c), sigma)
    return out * q ** (-k / 2)


def cube_overlap(field: Field, delta, sigma: SigmaParam) -> float:
    """<C_sigma(0) | C_sigma(delta)> computed by digit counting.

    Per coordinate the overlap of [sigma] with delta_i + [sigma] is sigma
    when delta_i has no nonzero digit above position r (digit-wise
    addition cannot clear a high digit), and 0 otherwise; the state
    overlap is the product of the per-coordinate fractions.
    """
    return 0.0 if digit_rows(field, delta)[:, sigma.r :].any() else 1.0


# ----------------------------------------------------------------------
# The PCS sampler circuit
# ----------------------------------------------------------------------

class PcsSampler:
    """Five-step sampler producing a uniformly labelled phased cube state.

    Runs on a message register (m*k digit slots) tensored with ONE cube
    register; ``layout`` is that whole register.  The first two steps act
    on one register each, so they run on that register alone: the
    digit-wise Fourier transform on a label-only state of p^(mk)
    amplitudes, held as ``label_amplitudes``, and cube preparation at 0,
    which transforms only the r low digits of each coordinate into the
    uniform |+>^r.  Every digit shift fixes that uniform state, so no
    later gate entangles it: it is a factor of every later state, sigma^n
    equal amplitudes, and since no decode reads it the sampler does not
    write it.  The cube's m - r high digits per coordinate start at |0>,
    one basis state.  The third step, the controlled shift
    |c>|y> -> |c>|y + A c>, maps a basis state to a basis state, so the
    joined state is sum_c a_c |c>|Top_r(A c)>: one nonzero per label.
    The sampler holds that state by its support alone: ``support[c]`` is
    the cube index of the high digits of A c (the numeral codec on the
    digits of every label times the expanded A), and the amplitude there
    is ``label_amplitudes[c]``.  Step 4, the change of representation, is
    a no-op under this encoding.  Step 5, the second digit-wise Fourier
    transform, is never written: measuring the message register after it
    yields a uniform label and collapses the cube register to the
    matching phased cube state, and :meth:`collapse` is that read-out,
    the only one in the package.  It checks its labels
    (``layout.label_digits`` digits in [0, p)).

    The label is uniform exactly when the anchored cubes are
    orthonormal, which holds exactly when no two messages share the high
    digits of A c: when ``support`` has no repeat, i.e. when Top_r(A)
    (:func:`~pqdec.gf.top_digit_submatrix` of the expanded A) has full
    column rank m*k over F_p.  The constructor checks the cached code
    distance first (d > sigma*n, by :func:`require_cube_orthogonality`),
    then the amplitude guard (ScaleExceeded), then that rank, and raises
    OrthogonalityViolated, naming r and kappa_r = m*k - rank, before it
    allocates anything.
    """

    def __init__(self, code: LinearCode, sigma: SigmaParam):
        f = code.field
        require_cube_orthogonality(code, sigma)
        self.layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=f.m * code.k, cube_count=1
        )
        # the label law is uniform exactly when no two messages share the
        # high digits of A c: when Top_r(A) has full column rank m*k
        kappa = self.layout.label_digits - rank(top_digit_submatrix(code.operator, sigma.r), f.p)
        if kappa:
            raise OrthogonalityViolated(
                f"at r = {sigma.r}, kappa_r = m*k - rank Top_r(A) = {kappa} > 0: "
                "messages share a cube, so the cube states are not orthonormal"
            )
        high = replace(self.layout, m=f.m - sigma.r, cube_count=0)
        self.label_amplitudes = DenseState.zero_state(high).qft_label().vec
        self.high_dim = high.cube_dim  # p^((m-r)n) high-digit values
        # label digits j*m .. j*m+m-1 are the LSB-first digits of message
        # coordinate j, so the label's digit vector times the expanded A
        # is A c's flattened digit rows; a high cube index reads each
        # coordinate's high digits most significant first
        labels = label_to_digits(np.arange(high.label_dim), high.label_digits, f.p)
        images = (labels @ code.operator.entries.T).reshape(-1, code.n, f.m)
        high_digits = images[..., sigma.r :][..., ::-1].reshape(len(labels), -1)
        self.support = digits_to_label(high_digits, f.p)
        # step 4, the change of representation F_q^k -> F_p^{mk}, is a
        # no-op: the label slots already hold digits.  Step 5, the second
        # digit-wise Fourier transform, is read by ``collapse``

    def collapse(self, label_digits: Sequence[int] | np.ndarray) -> np.ndarray:
        """Post-measurement state of the cube register's high digits for a label.

        Label z's high vector, p^((m-r)n) amplitudes, is row z of F (the
        Kronecker product of its label runs' rows) times the held state:
        entry ``support[c]`` is F[z, c] * ``label_amplitudes[c]``, every
        other entry 0.  It is divided by its own norm (a zero vector
        raises OrthogonalityViolated); the register's state is that
        vector (x) the uniform low digits, interleaved per coordinate, and
        every later shift fixes the low digits, so a decode never writes a
        q^n vector.  A nonempty (count, label_digits) stack of labels
        gives a (count, p^((m-r)n)) stack of vectors.  Each label must be
        exactly ``layout.label_digits`` integer digits, each in [0, p);
        any other raises BadParams rather than reading another label.
        """
        p, width = self.layout.p, self.layout.label_digits
        digits = np.asarray(label_digits)
        if (
            digits.ndim not in (1, 2)
            or digits.shape[-1] != width
            or not digits.size
            or digits.dtype.kind not in "iu"
            or ((digits < 0) | (digits >= p)).any()
        ):
            raise BadParams(f"label {digits.tolist()} is not {width} digits in [0, {p})")
        labels = digits.reshape(-1, width)
        # row z of F on every label digit: the Kronecker product of the
        # rows of its label runs' matrices, so no p^T-sided matrix is built
        runs = [(a, w, _dft_matrix(p, False, w)) for a, w in _dft_runs(0, width, p)]
        rows = np.array(
            [reduce(np.kron, [f[digits_to_label(z[a : a + w], p)] for a, w, f in runs])
             for z in labels]
        )
        terms = rows * self.label_amplitudes
        vecs = np.zeros((len(labels), self.high_dim), dtype=terms.dtype)
        vecs[:, self.support] = terms  # support has no repeat, so no two terms meet
        w = vecs.view(np.float64)
        norms = np.sqrt(_row_dots(w, w))
        for z, nrm in zip(labels, norms):
            if nrm == 0:
                raise OrthogonalityViolated(f"label {tuple(z.tolist())} has zero amplitude")
        vecs /= norms[:, None]
        return vecs if digits.ndim == 2 else vecs[0]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[..., k] y[..., k] of two arrays of one shape.

    Summed in an order numpy fixes: no BLAS dot, whose bits depend on how
    many threads split it, and no one running sum, which over a cube
    state's many equal terms drifts by up to about 3e-13 (F_27, n = 3).
    einsum sums runs of 128 entries and ``np.sum`` adds the runs pairwise.
    """
    cut = x.shape[-1] - x.shape[-1] % 128
    runs = [v[..., :cut].reshape(*v.shape[:-1], -1, 128) for v in (x, y)]
    rest = np.einsum("...k,...k->...", x[..., cut:], y[..., cut:])
    return np.einsum("...k,...k->...", *runs).sum(axis=-1) + rest
