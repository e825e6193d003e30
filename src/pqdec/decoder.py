"""The quantum decoder, end to end, on two backends.

Dense backend: every circuit step of the decoder is executed on the
dense simulator, as three gates.  The uniform superposition runs on the
label work register of T = m*k digit slots alone.  L^-1, the controlled
shift powers CU and L are one gate on the composite register of the
work register and the T cube registers: L only moves label slices, so
L . CU . L^-1 is the shift controlled by L^-1 y on label y, and it
leaves the work register's amplitudes where they were.  Its generators
are the columns of L^-1, read off L's one index map, times t.  Label
slice y of the composite state is then (work amplitude times register
0's shifted factor) (x) (the other registers' shifted factors), so two
controlled joins over those generators, each one
``DenseState.from_parts``, write its two parts: a head, the work
register with register 0, and a tail, a unit label with the other
registers.  The Fourier-basis measurement
(``qsim.fourier_label_marginal``) depends only on the label register's
reduced density matrix, the entrywise product of the head's and the
tail's label Gram matrices, so no amplitude of the composite is ever
formed.  When the full
tensor product exceeds the amplitude guard, the final label marginal
is computed exactly without it: the state after the controlled shifts
is a sum of label-basis terms whose cube part factorises register by
register, so the measurement distribution is a permuted product state,
the Kronecker product of one phase-estimation law per register, each
from p overlaps, read at u = A^T o for outcome o.  Both paths produce
identical marginals where both run.

Structured backend: a classical shadow of the same algorithm, valid
exactly where the eigenphase relation holds (every coordinate of
t - A s_true has integer image below sigma, i.e. zero top m - r
digits).  It redraws the label batch until the label matrix has full
rank over F_p (no path inverts it; the full-tensor dense path reads
through its own index map), and returns
s_true, the negation of the outcome -s_true that the circuit measures.
It refuses (PromiseViolated) rather than extrapolate: without a planted
message the phase bookkeeping has no ground truth to follow, and with
one it checks the eigenphase condition before answering.  Label draws
are uniform, the sampler's exact marginal when the cubes are orthonormal.

Both backends consume the same label stream from the seed, so they
agree run for run, including the number of resample rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .codes import DecodeInstance
from .errors import (
    BadParams,
    InvariantViolated,
    NoSigmaSucceeded,
    OrthogonalityViolated,
    PromiseViolated,
    RetryBudgetExhausted,
    ScaleExceeded,
)
from .gf import digit_images, label_to_digits
from .metrics import manhattan_dist
from .modp import rank
from .qsim import (
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    _dft_matrix,
    _row_dots,
    fourier_label_marginal,
    label_source,
    require_cube_orthogonality,
    shift_cube_vector,
)

BACKENDS = ("dense", "structured")
DEFAULT_RETRY_BUDGET = 64
CONCENTRATION_TOL = 1e-9


@dataclass
class DecodeResult:
    s_hat_digits: tuple[int, ...]
    s_hat: tuple[int, ...]  # integer images of the recovered message
    sigma_r: int
    backend: str
    resample_rounds: int
    verified: bool  # a bound was checked and held; False when the instance has no w
    peak_probability: float | None = None


def sample_label_matrix(p: int, t: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Redraw whole batches of T uniform labels until they have rank T over F_p.

    Returns the surviving (T, T) batch, column j = label j, and the number
    of batches drawn (expected O(1)).  The draw checks rank only; no path
    inverts the batch, since the full-tensor dense path reads the columns
    of L^-1 off L's own index map.
    """
    for rounds in range(1, DEFAULT_RETRY_BUDGET + 1):
        columns = rng.integers(0, p, size=(t, t))
        if rank(columns, p) == t:
            return columns, rounds
    raise RetryBudgetExhausted(
        f"no invertible label matrix in {DEFAULT_RETRY_BUDGET} rounds (p={p}, T={t})"
    )


def verify_candidate(inst: DecodeInstance, s_hat) -> bool:
    """True iff the candidate's codeword is within the instance's bound (always, without one)."""
    return _within_bound(inst, inst.code.encode(s_hat))


def _within_bound(inst: DecodeInstance, codeword: np.ndarray) -> bool:
    return inst.w is None or manhattan_dist(inst.field, inst.t, codeword) <= inst.w


def decode_structured(
    inst: DecodeInstance,
    sigma: SigmaParam,
    seed: int | np.random.Generator = 0,
) -> DecodeResult:
    """Analytic run of the decoder, exact under the eigenphase condition."""
    code = inst.code
    f = code.field
    if inst.s_true is None:
        raise PromiseViolated("structured backend needs a planted instance")
    codeword = code.encode(inst.s_true)
    residual = (inst.t - codeword) % f.p
    if residual[:, sigma.r :].any():  # some coordinate of t - A s has image >= sigma
        raise PromiseViolated(
            f"planted error has a coordinate image >= sigma = {sigma.sigma}; "
            "the phased cube states are not eigenvectors of the shift here"
        )
    require_cube_orthogonality(code, sigma)
    rng = np.random.default_rng(seed)
    _, rounds = sample_label_matrix(f.p, f.m * code.k, rng)
    # the phases telescope through L^-1 then L, leaving -s on the work
    # register; the Fourier-basis measurement reads it out and negation
    # recovers s, so the answer is the planted message itself
    if not _within_bound(inst, codeword):
        raise PromiseViolated("structured decode failed verification against the bound")
    return DecodeResult(
        s_hat_digits=tuple(inst.s_true.reshape(-1).tolist()),
        s_hat=tuple(digit_images(inst.s_true, f.p).tolist()),
        sigma_r=sigma.r,
        backend="structured",
        resample_rounds=rounds,
        verified=inst.w is not None,
    )


def _dense_full_marginal(
    columns: np.ndarray,
    pcs_vectors: Sequence[np.ndarray],
    t_digit_rows: np.ndarray,
    layout: RegisterLayout,
) -> np.ndarray:
    """Steps 3-7 on every amplitude of the composite register (L = ``columns``).

    Three gates.  The uniform superposition runs on a label-only state.
    L . CU . L^-1 is a join read through L's one index map: L only moves
    label slices (slice y comes from slice L^-1 y), so the composite state
    after it is the shift controlled by L^-1 y on label y, and the work
    register's amplitude there is its amplitude before L^-1, since L^-1
    then L returns slice y to itself.  So the join takes the work register
    as it is and the shift U_t^((L^-1 y)_j) on register j, which is linear
    in y: its generators are (L^-1 e_d)_j * t, and the column L^-1 e_d is
    read off L's index map at the label e_d, T entries of ``source``.
    Label slice y of the result is (work amplitude at y) * (register 0's
    shifted factor) (x) (registers 1..T-1's shifted factors), so it is
    written as two joins over the same generators, each one
    :meth:`DenseState.from_parts`: a head, the work register with
    register 0 (p^T x q^n), and a tail, a unit label with the other
    registers (p^T x q^(n(T-1))).  The Fourier-basis measurement
    (:func:`~pqdec.qsim.fourier_label_marginal`) reads them through the
    label register's p^T x p^T reduced density matrix, Gram(head) o
    Gram(tail) entrywise, so no amplitude of the p^T x q^(nT) composite
    is formed; it agrees with the whole join read in the Fourier basis
    to rounding, not bit for bit.  Each register takes at most
    ``label_digits`` shift maps.
    """
    p, t = layout.p, layout.label_digits
    label = DenseState.zero_state(replace(layout, cube_count=0))
    label.qft_label()  # uniform superposition over the work register
    source = label_source(columns, p)  # L^-1 y for every label y
    inv_cols = label_to_digits(source[p ** np.arange(t - 1, -1, -1)], t, p)  # row d: L^-1 e_d
    generators = inv_cols[:, : layout.cube_count, None, None] * t_digit_rows
    head = DenseState.from_parts(
        replace(layout, cube_count=1), label.vec, pcs_vectors[:1], generators[:, :1]
    )
    tail = DenseState.from_parts(
        replace(layout, cube_count=layout.cube_count - 1),
        np.ones(layout.label_dim),
        pcs_vectors[1:],
        generators[:, 1:],
    )
    return fourier_label_marginal(head, tail)


def _dense_factorized_marginal(
    columns: np.ndarray,
    pcs_vectors: Sequence[np.ndarray],
    t_digit_rows: np.ndarray,
    field,
) -> np.ndarray:
    """Exact label marginal as a permuted product state, by phase estimation.

    After the controlled shifts the state is
    q^(-k/2) sum_z |z> (x)_j U_t^((A^-1 z)_j) Phi_j, so for outcome o the
    probability is prod_j W_j(u_j) with u = A^T o, where W_j is the law of
    phase estimation of U_t on Phi_j, read from p overlaps per register.
    U_t is a unitary with U_t^p = I, so <U^a Phi_j | U^b Phi_j> depends on
    b - a alone, and W_j = F^-1 g_j / sqrt(p) for the overlap row
    g_j(d) = <Phi_j | U_t^d Phi_j>, d = 0 .. p-1, through the simulator's
    own inverse Fourier matrix F^-1 (real and nonnegative up to rounding).
    The Kronecker product of the T rows W_j is indexed by the label of u,
    and A^T's one index map o -> A^T o (``label_source`` with
    ``inverse``, checked to be a bijection, so a singular A raises
    BadParams) moves it to outcome order.  No
    approximation is involved; the tensor product is just never
    materialised.  g_j(0) is the squared norm of Phi_j, and
    g_j(p - d) = conj(g_j(d)), since U_t^(p-d) = U_t^-d, so only the powers
    d = 1 .. p//2 shift: each shifts the (T, q^n) stack of the Phi_j at
    once, through one checked map shared by the T registers, p//2 maps in
    all (at p = 2, d = 1 is its own mirror and still shifts).  Every
    overlap is summed by :func:`~pqdec.qsim._row_dots`, in an order
    numpy fixes, so its bits do not depend on the BLAS thread count.
    """
    p = field.p
    phis = np.asarray(pcs_vectors)  # a (T, q^n) stack is read where it is held
    g = np.empty((len(phis), p), dtype=phis.dtype)  # row j: register j's overlaps
    flat = phis.view(np.float64)
    g[:, 0] = _row_dots(flat, flat)  # d = 0: the squared norm
    for d in range(1, p // 2 + 1):
        # <phi|v> = conj(sum conj(v) phi): the fresh shifted stack v is
        # conjugated in place, so no conjugate of the phis is allocated
        moved = shift_cube_vector(phis, field, t_digit_rows, d)
        overlap = _row_dots(np.conjugate(moved, out=moved), phis).conj()
        # U_t^(p-d) = U_t^-d, so g(p - d) = <U_t^d phi|phi> = conj(g(d));
        # written first, so at p = 2 (d = p - d = 1) g(1) is the overlap itself
        g[:, p - d] = overlap.conj()
        g[:, d] = overlap
    f_inv = _dft_matrix(p, inverse=True)
    weights = [np.maximum((f_inv @ row).real / np.sqrt(p), 0.0) for row in g]
    return reduce(np.kron, weights)[label_source(columns.T, p, inverse=True)]


def decode_dense(
    inst: DecodeInstance,
    sigma: SigmaParam,
    seed: int | np.random.Generator = 0,
) -> DecodeResult:
    """Run the full decoder circuit on the dense simulator.

    Uses the materialised composite register when it fits under the
    amplitude guard and the exact factorised marginal otherwise.  The
    label batch is redrawn (whole batches) until the label matrix is
    invertible; labels come from the seed stream after the sampler's
    marginal has been checked to be exactly uniform, which makes the
    draw equal in distribution to measuring the sampler.
    """
    code = inst.code
    f = code.field
    rng = np.random.default_rng(seed)
    sampler = PcsSampler(code, sigma)  # raises OrthogonalityViolated / ScaleExceeded
    t_digits = f.m * code.k
    columns, rounds = sample_label_matrix(f.p, t_digits, rng)
    pcs_vectors = sampler.collapse(columns.T)  # the T labels' (T, q^n) stack, in one product
    del sampler  # its joined state is not read again; free it before the marginal
    try:
        layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=t_digits, cube_count=t_digits
        )
        marginal = _dense_full_marginal(columns, pcs_vectors, inst.t, layout)
    except ScaleExceeded:
        marginal = _dense_factorized_marginal(columns, pcs_vectors, inst.t, f)
    total = marginal.sum()
    if not abs(total - 1.0) < 1e-9:
        raise InvariantViolated(f"final marginal sums to {total!r}, not 1")
    peak_idx = int(np.argmax(marginal))
    peak = float(marginal[peak_idx])
    if peak >= 1.0 - CONCENTRATION_TOL:
        outcome_idx = peak_idx
    else:
        outcome_idx = int(rng.choice(len(marginal), p=marginal / total))
    s_hat = -label_to_digits(outcome_idx, t_digits, f.p).reshape(code.k, f.m) % f.p
    if not verify_candidate(inst, s_hat):
        raise PromiseViolated("dense decode failed verification against the bound")
    return DecodeResult(
        s_hat_digits=tuple(s_hat.reshape(-1).tolist()),
        s_hat=tuple(digit_images(s_hat, f.p).tolist()),
        sigma_r=sigma.r,
        backend="dense",
        resample_rounds=rounds,
        verified=inst.w is not None,
        peak_probability=peak,
    )


def backend_decoder(name: str):
    """The decode function of a backend, read from the module at call time."""
    if name not in BACKENDS:
        raise BadParams(f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}")
    return decode_dense if name == "dense" else decode_structured


def sigma_search(
    inst: DecodeInstance,
    backend: str = "dense",
    seed: int | np.random.Generator = 0,
) -> DecodeResult:
    """Try sigma = p^0, p^1, ... and return the first verified, concentrated candidate.

    The code distance need not be known; each failed or refused run moves
    to the next exponent.  A dense run whose final marginal did not
    concentrate (peak below 1 - CONCENTRATION_TOL) also moves on: below
    the covering sigma the marginal is spread out, and a sampled candidate
    that happens to verify is luck, not a decode.  Rounding can put a
    concentrated ``peak_probability`` a few ulps above 1; the test is a
    lower bound only, so such a peak passes.
    """
    decode = backend_decoder(backend)
    rng = np.random.default_rng(seed)
    f = inst.field
    for r in range(f.m):
        sigma = SigmaParam.from_r(f, r)
        try:
            res = decode(inst, sigma, rng)
        except (PromiseViolated, OrthogonalityViolated, RetryBudgetExhausted):
            continue
        if res.peak_probability is None or res.peak_probability >= 1.0 - CONCENTRATION_TOL:
            return res
    raise NoSigmaSucceeded(f"no sigma in p^0..p^{f.m - 1} produced a verified answer")


__all__ = [
    "BACKENDS",
    "DecodeResult",
    "backend_decoder",
    "decode_dense",
    "decode_structured",
    "sample_label_matrix",
    "sigma_search",
    "verify_candidate",
]
