"""The quantum decoder, end to end, on two backends.

Dense backend: every circuit step of the decoder is executed on the
dense simulator.  The steps before the first controlled shift (the
uniform superposition and L^-1 on the label work register of T = m*k
digit slots) run on the work register alone.  One controlled join
(``DenseState.from_parts`` with the controlled-shift-power amounts)
then writes the composite register of the work register and the T cube
registers with the controlled shift powers already made, and every
later step runs on that composite register.  When the full tensor
product exceeds the amplitude guard, the final label marginal is
computed exactly without it: the state after the controlled shifts is a
sum of label-basis terms whose cube part factorises register by
register, so the measurement distribution is a permuted product state,
the Kronecker product of one phase-estimation law per register, each
from p overlaps, read at u = A^T o for outcome o.  Both paths produce
identical marginals where both run.

Structured backend: a classical shadow of the same algorithm, valid
exactly where the eigenphase relation holds (every coordinate of
t - A s_true has integer image below sigma, i.e. zero top m - r
digits).  It redraws the label batch until the label matrix has full
rank over F_p (no path inverts it; the full-tensor dense path undoes it
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
from .gf import FieldElement, label_to_digits, stack_digits, unstack_digits
from .metrics import manhattan_dist
from .modp import rank
from .qsim import (
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    _dft_matrix,
    _shift_power_amounts,
    label_permutation,
    require_cube_orthogonality,
    shift_cube_vector,
    vector_digit_rows,
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
    inverts the batch, since the full-tensor dense path applies L^-1 as a
    gather through L's own index map.
    """
    for rounds in range(1, DEFAULT_RETRY_BUDGET + 1):
        columns = rng.integers(0, p, size=(t, t)).astype(np.int64)
        if rank(columns, p) == t:
            return columns, rounds
    raise RetryBudgetExhausted(
        f"no invertible label matrix in {DEFAULT_RETRY_BUDGET} rounds (p={p}, T={t})"
    )


def verify_candidate(inst: DecodeInstance, s_hat: tuple[FieldElement, ...]) -> bool:
    """True iff the candidate's codeword is within the instance's bound (always, without one)."""
    return _within_bound(inst, inst.code.encode(s_hat))


def _within_bound(inst: DecodeInstance, codeword: tuple[FieldElement, ...]) -> bool:
    return inst.w is None or manhattan_dist(inst.t, codeword) <= inst.w


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
    residual = (stack_digits(inst.t) - stack_digits(codeword)).reshape(code.n, f.m) % f.p
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
    s_hat_digits = tuple(int(d) for d in stack_digits(inst.s_true))
    if not _within_bound(inst, codeword):
        raise PromiseViolated("structured decode failed verification against the bound")
    return DecodeResult(
        s_hat_digits=s_hat_digits,
        s_hat=tuple(e.image for e in inst.s_true),
        sigma_r=sigma.r,
        backend="structured",
        resample_rounds=rounds,
        verified=inst.w is not None,
    )


def _dense_full_marginal(
    columns: np.ndarray,
    pcs_vectors: list[np.ndarray],
    t_digit_rows: np.ndarray,
    layout: RegisterLayout,
) -> np.ndarray:
    """Steps 3-7 on the materialised composite register (L = ``columns``).

    The work register's gates before the controlled shifts run on a
    label-only state.  The controlled shift powers are the first gate that
    couples it to the PCS vectors, so one join writes the composite state
    with them already made: one ``from_parts`` call, no separate shift.
    """
    label = DenseState.zero_state(replace(layout, cube_count=0))
    label.qft_label()  # uniform superposition over the work register
    label.permute_label(columns, inverse=True)
    amounts = _shift_power_amounts(layout, t_digit_rows)
    state = DenseState.from_parts(layout, label.vec, pcs_vectors, amounts)
    state.permute_label(columns)
    state.qft_label(inverse=True)  # Fourier-basis measurement
    return state.label_marginal()


def _dense_factorized_marginal(
    columns: np.ndarray,
    pcs_vectors: list[np.ndarray],
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
    and the label permutation of A^T moves it to outcome order.  No
    approximation is involved; the tensor product is just never
    materialised.
    """
    p = field.p
    weights = []
    for phi in pcs_vectors:
        g = [np.vdot(phi, shift_cube_vector(phi, field, t_digit_rows, d)) for d in range(p)]
        weights.append(np.maximum((_dft_matrix(p, inverse=True) @ g).real / np.sqrt(p), 0.0))
    return reduce(np.kron, weights)[label_permutation(columns.T, p)]


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
    pcs_vectors = [sampler.collapse(label) for label in columns.T]
    t_rows = vector_digit_rows(inst.t)
    try:
        layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=t_digits, cube_count=t_digits
        )
        marginal = _dense_full_marginal(columns, pcs_vectors, t_rows, layout)
    except ScaleExceeded:
        marginal = _dense_factorized_marginal(columns, pcs_vectors, t_rows, f)
    total = marginal.sum()
    if not abs(total - 1.0) < 1e-9:
        raise InvariantViolated(f"final marginal sums to {total!r}, not 1")
    peak_idx = int(np.argmax(marginal))
    peak = float(marginal[peak_idx])
    if peak >= 1.0 - CONCENTRATION_TOL:
        outcome_idx = peak_idx
    else:
        outcome_idx = int(rng.choice(len(marginal), p=marginal / total))
    s_hat_digits = tuple((-label_to_digits(outcome_idx, t_digits, f.p) % f.p).tolist())
    s_hat = unstack_digits(f, s_hat_digits)
    if not verify_candidate(inst, s_hat):
        raise PromiseViolated("dense decode failed verification against the bound")
    return DecodeResult(
        s_hat_digits=s_hat_digits,
        s_hat=tuple(e.image for e in s_hat),
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
    that happens to verify is luck, not a decode.
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
