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
block index is the mixed-radix-q number of its coordinate images.
Every cube-register shift, controlled or not, goes through the one
shift kernel :func:`_shift_cube`.

Conventions: omega_p = exp(2*pi*i/p); the forward single-digit Fourier
transform is F[a, b] = omega_p^(a*b)/sqrt(p); measuring "in the Fourier
basis" means applying the inverse transform and reading the standard
basis.  The shift U_x adds digits mod p (no carries), i.e. F_q vector
addition.  Gates are exactly unitary; the norm is asserted to 1e-10
after every application.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import LinearCode, message_images
from .errors import (
    BadRegister,
    OrthogonalityViolated,
    OutOfRange,
    ScaleExceeded,
)
from .gf import Field, FieldElement, digits_to_label, label_to_digits

MAX_AMPLITUDES = 2**24
NORM_TOL = 1e-10
UNIFORM_TOL = 1e-12


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

    def encode_label(self, digits: Sequence[int]) -> int:
        return int(digits_to_label(digits, self.p))

    def decode_label(self, index: int) -> tuple[int, ...]:
        return tuple(label_to_digits(index, self.label_digits, self.p).tolist())


def _dft_matrix(p: int, inverse: bool = False) -> np.ndarray:
    sign = -1.0 if inverse else 1.0
    a = np.arange(p)
    return np.exp(sign * 2j * np.pi * np.outer(a, a) / p) / np.sqrt(p)


def _shift_cube(t: np.ndarray, digit_rows: np.ndarray, first_axis: int, p: int) -> np.ndarray:
    """Add an (n, m) digit matrix, LSB first, to the cube register of tensor ``t``
    whose axes start at ``first_axis`` (``cube_axis(register, 0, m - 1)``);
    ``t`` itself if every digit is 0 mod p."""
    n, m = digit_rows.shape
    for coord in range(n):
        for digit in range(m):
            amt = int(digit_rows[coord, digit]) % p
            if amt:
                t = np.roll(t, amt, axis=first_axis + coord * m + (m - 1 - digit))
    return t


class DenseState:
    """Complex amplitude vector over a :class:`RegisterLayout`."""

    def __init__(self, layout: RegisterLayout, vec: np.ndarray):
        self.layout = layout
        self.vec = vec

    @classmethod
    def zero_state(cls, layout: RegisterLayout) -> DenseState:
        vec = np.zeros(layout.dim, dtype=np.complex128)
        vec[0] = 1.0
        return cls(layout, vec)

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
        vec = np.asarray(label_vec, dtype=np.complex128)
        for cv in cube_vecs:
            vec = np.kron(vec, np.asarray(cv, dtype=np.complex128))
        return cls(layout, vec)

    # -- plumbing ---------------------------------------------------------

    def copy(self) -> DenseState:
        return DenseState(self.layout, self.vec.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def _check_norm(self) -> DenseState:
        assert abs(self.norm() - 1.0) < NORM_TOL, "statevector norm drifted"
        return self

    def _tensor(self) -> np.ndarray:
        return self.vec.reshape((self.layout.p,) * self.layout.total_axes)

    # -- gates ------------------------------------------------------------

    def dft_axis(self, axis: int, inverse: bool = False) -> DenseState:
        p = self.layout.p
        pre = p**axis
        post = self.layout.dim // (pre * p)
        v = self.vec.reshape(pre, p, post)
        f = _dft_matrix(p, inverse)
        self.vec = np.einsum("ab,ibj->iaj", f, v).reshape(-1)
        return self._check_norm()

    def shift_register(
        self, register: int, digit_rows: np.ndarray, ell: int = 1
    ) -> DenseState:
        """Shift a cube register by ell-fold addition of an F_q^n vector.

        ``digit_rows`` is the (n, m) digit matrix of the vector, LSB first.
        """
        lay = self.layout
        ell %= lay.p
        if ell == 0:
            return self
        first = lay.cube_axis(register, 0, lay.m - 1)
        amounts = np.asarray(digit_rows, dtype=np.int64) * ell
        self.vec = _shift_cube(self._tensor(), amounts, first, lay.p).reshape(-1)
        return self._check_norm()

    def prep_cube(self, register: int, y_digit_rows: np.ndarray, sigma: SigmaParam) -> DenseState:
        """Turn |0> of a cube register into the side-sigma cube anchored at y.

        Realised as the p-ary Fourier transform on each of the r low digit
        slots of every coordinate (uniformising [sigma]^n), then the shift
        by y.  Unitary, so callers starting elsewhere get the rotated state.
        """
        for coord in range(self.layout.n):
            for digit in range(sigma.r):
                self.dft_axis(self.layout.cube_axis(register, coord, digit))
        return self.shift_register(register, y_digit_rows)

    def qft_label(self, inverse: bool = False) -> DenseState:
        """Tensor-product Fourier transform over Z_p on every label slot."""
        for axis in range(self.layout.label_digits):
            self.dft_axis(axis, inverse=inverse)
        return self

    def permute_label(self, matrix_fp: np.ndarray) -> DenseState:
        """Basis permutation |v> -> |M v> with M invertible over F_p."""
        v = self.vec.reshape(self.layout.label_dim, -1)
        out = np.empty_like(v)
        out[label_permutation(matrix_fp, self.layout.p)] = v
        self.vec = out.reshape(-1)
        return self._check_norm()

    def controlled_register_shifts(self, amounts: np.ndarray, register: int) -> DenseState:
        """Shift one cube register by a label-dependent F_q^n vector.

        ``amounts`` has shape (label_dim, n, m): ``amounts[i]`` is the digit
        matrix added to the register on label basis value i, and a zero
        matrix is the identity.  A pure basis permutation.
        """
        lay = self.layout
        amounts = np.asarray(amounts, dtype=np.int64) % lay.p
        v = self.vec.reshape((lay.label_dim,) + (lay.p,) * (lay.total_axes - lay.label_digits))
        first = lay.cube_axis(register, 0, lay.m - 1) - lay.label_digits
        for i in np.flatnonzero(amounts.reshape(lay.label_dim, -1).any(axis=1)):
            v[i] = _shift_cube(v[i], amounts[i], first, lay.p)
        self.vec = v.reshape(-1)
        return self._check_norm()

    def controlled_shift_power(self, t_digit_rows: np.ndarray) -> DenseState:
        """Apply U_t^(digit j of the label) to cube register j, for every j.

        The label register's current basis value supplies the control
        digits; powers are ell-fold F_q additions of t.
        """
        lay = self.layout
        ells = label_to_digits(np.arange(lay.label_dim), lay.label_digits, lay.p)
        amounts = ells[:, :, None, None] * np.asarray(t_digit_rows, dtype=np.int64)
        for register in range(lay.cube_count):
            self.controlled_register_shifts(amounts[:, register], register)
        return self

    # -- measurement --------------------------------------------------------

    def label_marginal(self) -> np.ndarray:
        """Exact outcome distribution of a standard-basis label measurement."""
        v = self.vec.reshape(self.layout.label_dim, -1)
        return (np.abs(v) ** 2).sum(axis=1)

    def measure_label(self, rng: np.random.Generator) -> tuple[tuple[int, ...], DenseState]:
        """Sample the label register and collapse; returns (digits, self)."""
        probs = self.label_marginal()
        outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
        self.collapse_label(outcome)
        return self.layout.decode_label(outcome), self

    def collapse_label(self, label_index: int) -> DenseState:
        v = self.vec.reshape(self.layout.label_dim, -1)
        keep = v[label_index].copy()
        nrm = np.linalg.norm(keep)
        if nrm == 0:
            raise OutOfRange(f"label outcome {label_index} has zero probability")
        out = np.zeros_like(v)
        out[label_index] = keep / nrm
        self.vec = out.reshape(-1)
        return self._check_norm()


# ----------------------------------------------------------------------
# Small-vector helpers on a single F_q^n register (no label part)
# ----------------------------------------------------------------------

def vector_digit_rows(vec: Sequence[FieldElement]) -> np.ndarray:
    """(n, m) digit matrix of an F_q^n vector, LSB first."""
    return np.array([e.digits for e in vec], dtype=np.int64)


def cube_index(field: Field, images: Sequence[int]) -> int:
    """Basis index of |v> in a cube register: mixed-radix-q of the images."""
    acc = 0
    for img in images:
        acc = acc * field.q + int(img)
    return acc


def cube_vector(field: Field, n: int, anchor: Sequence[FieldElement], sigma: SigmaParam) -> np.ndarray:
    """The side-sigma cube state at ``anchor`` as a bare q^n amplitude vector."""
    vec = np.zeros(field.q**n, dtype=np.complex128)
    amp = sigma.sigma ** (-n / 2)
    offsets = [0]
    for _ in range(n):
        offsets = [o * field.q + z for o in offsets for z in range(sigma.sigma)]
    base_images = [a.image for a in anchor]
    for off in offsets:
        imgs = []
        rest = off
        for _ in range(n):
            imgs.append(rest % field.q)
            rest //= field.q
        imgs.reverse()
        shifted = [
            (field.el(b) + field.el(z)).image for b, z in zip(base_images, imgs)
        ]
        vec[cube_index(field, shifted)] += amp
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
    return _shift_cube(vec.reshape((p,) * (n * field.m)), amounts, 0, p).reshape(-1)


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
        c_digits = np.array([d for e in c for d in e.digits], dtype=np.int64)
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
    register: cube preparation at 0, digit-wise Fourier transform of the
    message register, the controlled shift by A c, the (no-op under this
    encoding) change of representation, and a second digit-wise Fourier
    transform.  Measuring the message register then yields a uniform
    label and collapses the cube register to the matching phased cube
    state.

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
        if code.d is not None and not (code.d > sigma.sigma * code.n):
            raise OrthogonalityViolated(
                f"d = {code.d} <= sigma*n = {sigma.sigma * code.n}; cubes may collide"
            )
        self.layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=self.t_digits, cube_count=1
        )
        state = DenseState.zero_state(self.layout)
        state.prep_cube(0, np.zeros((code.n, f.m), dtype=np.int64), sigma)
        state.qft_label()
        # label digits j*m .. j*m+m-1 are the LSB-first digits of message
        # coordinate j, i.e. the label is the stacked digit vector of c
        labels = label_to_digits(np.arange(self.layout.label_dim), self.t_digits, f.p)
        amounts = labels @ code.operator.entries.T % f.p
        state.controlled_register_shifts(amounts.reshape(-1, code.n, f.m), 0)
        # change of representation F_q^k -> F_p^{mk}: a no-op for digit slots
        state.qft_label()
        self.state = state
        self.marginal = state.label_marginal()
        expected = 1.0 / self.layout.label_dim
        if np.max(np.abs(self.marginal - expected)) > UNIFORM_TOL:
            raise OrthogonalityViolated(
                "label marginal is not uniform; cube states are not orthonormal"
            )

    def collapse(self, label_digits: Sequence[int]) -> np.ndarray:
        """Post-measurement cube register state for a given label (q^n vector)."""
        idx = self.layout.encode_label(label_digits)
        v = self.state.vec.reshape(self.layout.label_dim, -1)
        slice_ = v[idx]
        nrm = np.linalg.norm(slice_)
        if nrm == 0:
            raise OrthogonalityViolated(
                f"label {tuple(np.asarray(label_digits).tolist())} has zero amplitude"
            )
        return (slice_ / nrm).copy()

    def sample(self, rng: np.random.Generator) -> tuple[tuple[int, ...], np.ndarray]:
        """Draw a label from the exact marginal and return (label, PCS vector)."""
        probs = self.marginal / self.marginal.sum()
        idx = int(rng.choice(len(probs), p=probs))
        label = self.layout.decode_label(idx)
        return label, self.collapse(label)


def sample_pcs(
    code: LinearCode, sigma: SigmaParam, rng: np.random.Generator
) -> tuple[tuple[int, ...], np.ndarray, PcsSampler]:
    """One-shot PCS sample; returns (label digits, cube vector, sampler)."""
    sampler = PcsSampler(code, sigma)
    label, vec = sampler.sample(rng)
    return label, vec, sampler


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
    with open(path, "rb") as fh:
        if fh.read(4) != _DUMP_MAGIC:
            raise OutOfRange(f"{path} is not a state dump")
        p, m, n, k, t, sigma_r = struct.unpack("<6i", fh.read(24))
        (cube_count,) = struct.unpack("<i", fh.read(4))
        layout = RegisterLayout(p=p, m=m, n=n, label_digits=t, cube_count=cube_count)
        raw = np.frombuffer(fh.read(), dtype="<f8")
        vec = raw[0::2] + 1j * raw[1::2]
    header = {"p": p, "m": m, "n": n, "k": k, "T": t, "sigma_r": sigma_r}
    return header, DenseState(layout, vec.astype(np.complex128))
