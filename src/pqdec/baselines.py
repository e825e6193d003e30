"""Classical direct-inversion decoding and the quantum/classical comparison.

Direct inversion solves the F_p linear system induced by the
noise-free most-significant digits of the target: with per-coordinate
error images below p^r, rows of the expanded generator above digit r
are exact, and the full message digit vector is the unknown.  All
available top-digit rows are used (more information than a square
slice); the solver reports rank deficiency and inconsistency instead
of guessing, and a recovered answer is re-verified before returning,
so it never silently answers wrong under its precondition.

The comparison experiment reports *success rates* under matched
promises.  Asymptotic runtime separations cannot be reproduced at desk
scale; the operationally checkable content is that at the tight
promise level (classical system exactly square) the quantum decoder
keeps succeeding while direct inversion fails where its system is
singular.  The classical attack is handed the true per-coordinate digit
cutoff, which is generous to it.

Two known open defects (ROADMAP items 1 and 3).  The quantum side runs
the structured backend, which checks cube orthogonality only through
d > sigma*n, and ``separation_experiment`` never knows d: where the
cubes collide, exactly where direct inversion is singular, the dense
backend raises OrthogonalityViolated but the structured one reports
success, so the tight-level gap is an artifact.  And the classical
failure rate matches the uniform-matrix law :func:`singularity_oracle`
at criterion 8's shape only: a top-digit system of an expanded F_q
operator is not uniform once m - r > 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .codes import DecodeInstance, plant_instance, random_code
from .decoder import decode_structured, verify_candidate
from .errors import BadShape, InvariantViolated, NotPrime, PqdecError, PreconditionUnmet
from .gf import Field, digit_images, is_prime, label_to_digits, top_digit_submatrix
# not called here: the benchmark self-tests find the tracer's wrapper on this module
from .metrics import manhattan_dist  # noqa: F401
from .modp import fp_solve, invertibility_product, rank
from .qsim import SigmaParam

# invertibility_stats ranks its draws in stacks of at most this many
# entries (512 KB of int64), at least one matrix per stack
STATS_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DirectInversionReport:
    r_used: int
    system_shape: tuple[int, int]
    # "recovered" (solved and within the bound w), "unverified" (solved, but
    # the instance has no w to check), "out_of_bound" (solved uniquely, but
    # the codeword breaks w), "singular" or "inconsistent" (no solution)
    status: str
    s_hat: tuple[int, ...] | None  # integer images when recovered or unverified


def direct_inversion_decode(inst: DecodeInstance, r: int) -> DirectInversionReport:
    """Solve for the message from the top m-r digit rows of the target.

    Requires n*(m-r) >= m*k so the system is at least square; below that
    the unknown is underdetermined and the attack cannot even start.
    """
    code = inst.code
    f = code.field
    m, n, k = f.m, code.n, code.k
    if not 0 <= r <= m:
        raise PreconditionUnmet(f"digit cutoff r = {r} outside [0, {m}]")
    rows = n * (m - r)
    if rows < m * k:
        raise PreconditionUnmet(
            f"system underdetermined: {rows} noise-free rows < {m * k} unknowns"
        )
    top = top_digit_submatrix(code.operator, r)
    rhs = inst.t[:, r:].reshape(-1)
    solved = fp_solve(top, rhs, f.p)
    if solved.status == "inconsistent":
        return DirectInversionReport(r, (rows, m * k), "inconsistent", None)
    if solved.status == "rank_deficient":
        return DirectInversionReport(r, (rows, m * k), "singular", None)
    solution = np.asarray(solved.solution, dtype=np.int64)
    if ((top @ solution - rhs) % f.p).any():
        raise InvariantViolated("solver returned a non-solution")
    s_hat = solution.reshape(k, m) % f.p
    if not verify_candidate(inst, s_hat):
        # only reachable when the precondition was violated
        return DirectInversionReport(r, (rows, m * k), "out_of_bound", None)
    status = "unverified" if inst.w is None else "recovered"
    return DirectInversionReport(r, (rows, m * k), status, tuple(digit_images(s_hat, f.p).tolist()))


def invertibility_stats(
    p: int, t: int, trials: int, seed: int | np.random.Generator
) -> float:
    """Empirical invertibility frequency of uniform T x T matrices over F_p.

    Trials come from one generator, one draw per stack of at most
    STATS_STACK_ENTRIES entries (at least one matrix), so memory stays
    bounded for any trial count; a stack's draw equals its T x T matrices
    drawn one by one, in order, in values and in the generator state left.
    A non-prime p raises NotPrime, and T or trials below 1 raise
    PreconditionUnmet, before anything is drawn.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if t < 1:
        raise PreconditionUnmet("T must be >= 1")
    if trials < 1:
        raise PreconditionUnmet("trials must be >= 1")
    rng = np.random.default_rng(seed)
    stack = max(1, STATS_STACK_ENTRIES // (t * t))
    hits = 0
    for start in range(0, trials, stack):
        draws = rng.integers(0, p, size=(min(stack, trials - start), t, t))
        hits += int(np.count_nonzero(rank(draws, p) == t))
    return hits / trials


# ----------------------------------------------------------------------
# Separation experiment
# ----------------------------------------------------------------------

@dataclass
class SeparationConfig:
    p: int = 2
    m: int = 8
    n: int = 8
    k: int = 2
    trials: int = 200
    seed: int = 0

    def resolved_levels(self) -> list[tuple[str, int]]:
        """Promise levels as (name, per-coordinate error digit budget r_e).

        tight is the square-system cutoff, loose two digits less, and
        beyond puts every error's top digit out of reach.
        """
        tight = self.m - (self.m * self.k) // self.n
        return [("tight", tight), ("loose", max(tight - 2, 0)), ("beyond", self.m)]


def separation_experiment(config: SeparationConfig) -> list[dict]:
    """Quantum (structured backend) vs direct inversion on matched ensembles.

    Per trial and level: plant an error with per-coordinate images
    uniform on [0, p^r_e - 1], decode with sigma = p^r_e, and attack
    classically with the cutoff r_e.  "beyond" plants errors whose top
    digit is nonzero in every coordinate, so no sigma and no digit
    cutoff can cover them and neither side should survive.  Success
    means exact recovery of the planted message.  The error images are
    drawn as int64, so q > 2^63 raises PreconditionUnmet before any draw.
    """
    if config.trials < 1:
        raise PreconditionUnmet("trials must be >= 1")
    if not config.n >= config.k >= 1:  # resolved_levels divides by n
        raise BadShape(f"need n >= k >= 1, got n={config.n}, k={config.k}")
    f = Field(config.p, config.m)
    if f.q > 2**63:  # the beyond level draws int64 images below q
        raise PreconditionUnmet(f"q = {config.p}^{config.m} is past 2^63, the error draw's range")
    rng = np.random.default_rng(config.seed)
    rows = []
    for name, r_e in config.resolved_levels():
        q_hits = 0
        c_hits = 0
        for _ in range(config.trials):
            code = random_code(f, config.n, config.k, rng)
            s = rng.integers(0, f.p, size=(config.k, f.m))  # the draws of k f.random_element calls
            low, high = (f.q // f.p, f.q) if r_e >= config.m else (0, config.p**r_e)
            e = label_to_digits(rng.integers(low, high, size=config.n), f.m, f.p)[:, ::-1]
            inst = plant_instance(code, s, e)
            s_images = tuple(digit_images(s, f.p).tolist())
            sigma_r = min(r_e, config.m - 1)
            try:
                res = decode_structured(inst, SigmaParam.from_r(f, sigma_r), rng)
                if res.s_hat == s_images:
                    q_hits += 1
            except PqdecError:
                pass
            try:
                rep = direct_inversion_decode(inst, min(r_e, config.m))
                if rep.status == "recovered" and rep.s_hat == s_images:
                    c_hits += 1
            except PreconditionUnmet:
                pass
        rows.append(
            {
                "p": config.p,
                "m": config.m,
                "n": config.n,
                "k": config.k,
                "promise": name,
                "error_digits": r_e,
                "quantum_success": q_hits / config.trials,
                "classical_success": c_hits / config.trials,
                "trials": config.trials,
                "seed": config.seed,
            }
        )
    return rows


def separation_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def singularity_oracle(p: int) -> float:
    """1 - prod(1 - p^-k): the square-system failure rate oracle."""
    return 1.0 - invertibility_product(p)
