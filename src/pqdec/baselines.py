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
keeps succeeding while direct inversion fails at the random-matrix
singularity rate.  The classical attack is handed the true
per-coordinate digit cutoff, which is generous to it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .codes import DecodeInstance, plant_instance, random_code
from .decoder import decode_structured, verify_candidate
from .errors import InvariantViolated, PqdecError, PreconditionUnmet
from .gf import Field, stack_digits, top_digit_submatrix, unstack_digits
# not called here: the benchmark self-tests find the tracer's wrapper on this module
from .metrics import manhattan_dist  # noqa: F401
from .modp import fp_solve, invertibility_product, invertible_fraction
from .qsim import SigmaParam


@dataclass(frozen=True)
class DirectInversionReport:
    r_used: int
    system_shape: tuple[int, int]
    status: str  # "recovered" | "singular" | "inconsistent"
    s_hat: tuple[int, ...] | None  # integer images when recovered


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
    rhs = stack_digits(inst.t).reshape(n, m)[:, r:].reshape(-1)
    solved = fp_solve(top, rhs, f.p)
    if solved.status == "inconsistent":
        return DirectInversionReport(r, (rows, m * k), "inconsistent", None)
    if solved.status == "rank_deficient":
        return DirectInversionReport(r, (rows, m * k), "singular", None)
    s_hat = unstack_digits(f, solved.solution)
    residual = (top @ np.array(solved.solution, dtype=np.int64) - rhs) % f.p
    if residual.any():
        raise InvariantViolated("solver returned a non-solution")
    if not verify_candidate(inst, s_hat):
        # only reachable when the precondition was violated
        return DirectInversionReport(r, (rows, m * k), "inconsistent", None)
    return DirectInversionReport(
        r, (rows, m * k), "recovered", tuple(e.image for e in s_hat)
    )


def invertibility_stats(
    p: int, t: int, trials: int, seed: int | np.random.Generator
) -> float:
    """Empirical invertibility frequency of uniform T x T matrices over F_p."""
    if trials < 1:
        raise PreconditionUnmet("trials must be >= 1")
    rng = np.random.default_rng(seed)
    return invertible_fraction(p, t, trials, rng)


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
    means exact recovery of the planted message.
    """
    if config.trials < 1:
        raise PreconditionUnmet("trials must be >= 1")
    f = Field(config.p, config.m)
    rng = np.random.default_rng(config.seed)
    rows = []
    for name, r_e in config.resolved_levels():
        q_hits = 0
        c_hits = 0
        for _ in range(config.trials):
            code = random_code(f, config.n, config.k, rng)
            s = tuple(f.random_element(rng) for _ in range(config.k))
            if r_e >= config.m:
                e = tuple(
                    f.el(int(v))
                    for v in rng.integers(f.q // f.p, f.q, size=config.n)
                )
            else:
                e = tuple(
                    f.el(int(v))
                    for v in rng.integers(0, config.p**r_e, size=config.n)
                )
            inst = plant_instance(code, s, e)
            s_images = tuple(x.image for x in s)
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


def singularity_oracle(p: int, terms: int = 64) -> float:
    """1 - prod(1 - p^-k): the square-system failure rate oracle."""
    return 1.0 - invertibility_product(p, terms)
