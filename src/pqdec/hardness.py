"""Set-cover gadget vectors and brute-force verification of the distance gap.

The reduction turns a set-cover instance (universe U, sets S_1..S_m',
target cover size K, gap constant c) into vectors over F_q of dimension
L*|U| + m' with L = c*K: the first L*|U| coordinates are |U| tuples of
L repeated slots, b_i is all-ones on the tuples of the elements of S_i
and carries a 1 at tail position i, and the target b0 is all-ones on
the universe block with a zero tail.  OPT is the minimum Manhattan
distance from b0 to the span of the b_i.

An exact cover of size K certifies OPT <= (p-1)*K (the all-ones
assignment on the cover hits distance exactly K, which is stronger for
p > 2); when every cover needs at least c*K sets, OPT >= c*K: either
some tuple stays at value zero (costing L = c*K on that tuple) or the
support of the assignment covers U and the tail alone costs at least
the support size.

The set count is written m' throughout so it never collides with the
field degree m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .codes import LinearCode
from .errors import BadParams, BudgetExceeded, GadgetGapError
from .gf import Field, FieldElement
from .metrics import manhattan_dist

DEFAULT_GADGET_BUDGET = 2**20


@dataclass(frozen=True)
class SetCoverInstance:
    """Ground set {0..universe_size-1}, subsets, target size K, gap constant c."""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    K: int
    c: int

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise BadParams("empty universe")
        if not self.sets:
            raise BadParams("no sets")
        if self.K < 1:
            raise BadParams(f"cover size K = {self.K} must be >= 1")
        if self.c < 1 or self.c * self.K < 1:
            raise BadParams(f"gap constant c = {self.c} must make L = c*K >= 1")
        for i, s in enumerate(self.sets):
            if not s:
                raise BadParams(f"set {i} is empty")
            if any(not 0 <= u < self.universe_size for u in s):
                raise BadParams(f"set {i} has elements outside the universe")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    def to_json(self) -> dict:
        return {
            "universe": self.universe_size,
            "sets": [sorted(s) for s in self.sets],
            "K": self.K,
            "c": self.c,
        }

    @classmethod
    def from_json(cls, obj: dict) -> SetCoverInstance:
        """Inverse of :meth:`to_json`; BadParams on a missing key or a mistyped value."""
        try:
            return cls(
                universe_size=int(obj["universe"]),
                sets=tuple(frozenset(int(u) for u in s) for s in obj["sets"]),
                K=int(obj["K"]),
                c=int(obj["c"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadParams(f"malformed set cover: {exc!r}") from exc


@dataclass(frozen=True)
class Gadget:
    field: Field
    sc: SetCoverInstance
    L: int
    b0: tuple[FieldElement, ...]
    columns: tuple[tuple[FieldElement, ...], ...]  # column i is vector b_i

    @property
    def dimension(self) -> int:
        return len(self.b0)


def build_gadget(sc: SetCoverInstance, field: Field) -> Gadget:
    """Materialise b0 and b_1..b_m' for a set-cover instance."""
    L = sc.c * sc.K
    dim = L * sc.universe_size + sc.num_sets
    zero, one = field.zero, field.one
    b0 = tuple(
        one if pos < L * sc.universe_size else zero for pos in range(dim)
    )
    cols = []
    for i, s in enumerate(sc.sets):
        vec = [zero] * dim
        for u in s:
            for slot in range(L):
                vec[u * L + slot] = one
        vec[L * sc.universe_size + i] = one
        cols.append(tuple(vec))
    return Gadget(field=field, sc=sc, L=L, b0=b0, columns=tuple(cols))


def _span_combination(g: Gadget, alpha: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    acc = [g.field.zero] * g.dimension
    for coef, col in zip(alpha, g.columns):
        if coef.image == 0:
            continue
        for pos, entry in enumerate(col):
            if entry.image:
                acc[pos] = acc[pos] + coef * entry
    return tuple(acc)


def gadget_distance_bruteforce(
    g: Gadget, budget: int = DEFAULT_GADGET_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact OPT = min over assignments alpha of dist(b0, sum alpha_i b_i).

    Enumerates all q^m' assignments directly (independent of the
    codeword oracle, which cross-checks it).  Returns (OPT, the first
    minimising alpha as integer images).
    """
    f = g.field
    m_sets = g.sc.num_sets
    total = f.q**m_sets
    if total > budget:
        raise BudgetExceeded(f"q^m' = {total} exceeds the gadget budget {budget}")
    best: int | None = None
    best_alpha: tuple[int, ...] = ()
    alpha_imgs = [0] * m_sets
    for idx in range(total):
        rest = idx
        for pos in range(m_sets - 1, -1, -1):
            alpha_imgs[pos] = rest % f.q
            rest //= f.q
        alpha = tuple(f.el(v) for v in alpha_imgs)
        dist = manhattan_dist(g.b0, _span_combination(g, alpha))
        if best is None or dist < best:
            best, best_alpha = dist, tuple(alpha_imgs)
    return int(best), best_alpha


def gadget_code(g: Gadget) -> LinearCode:
    """The gadget span as a linear code (columns are the generators)."""
    matrix = [[g.columns[j][pos] for j in range(g.sc.num_sets)] for pos in range(g.dimension)]
    return LinearCode(g.field, matrix)


@dataclass(frozen=True)
class GapReport:
    case: str  # "yes" | "no"
    opt: int
    bound: int
    passed: bool
    witness_distance: int | None = None
    residual_weight: int | None = None  # weight of b0 - sum of the cover vectors


def _validate_exact_cover(sc: SetCoverInstance, cover: Sequence[int]) -> None:
    if len(cover) != sc.K:
        raise BadParams(f"witness has {len(cover)} sets, K = {sc.K}")
    seen: set[int] = set()
    for i in cover:
        if not 0 <= i < sc.num_sets:
            raise BadParams(f"witness set index {i} out of range")
        if seen & sc.sets[i]:
            raise BadParams("witness sets are not disjoint (cover is not exact)")
        seen |= sc.sets[i]
    if seen != set(range(sc.universe_size)):
        raise BadParams("witness does not cover the universe")


def min_cover_size_bruteforce(sc: SetCoverInstance) -> int | None:
    """Smallest cover cardinality by subset enumeration (None if uncoverable)."""
    if sc.num_sets > 20:
        raise BudgetExceeded("too many sets for subset enumeration")
    universe = set(range(sc.universe_size))
    best = None
    for mask in range(1, 1 << sc.num_sets):
        chosen = [i for i in range(sc.num_sets) if mask >> i & 1]
        if best is not None and len(chosen) >= best:
            continue
        covered: set[int] = set()
        for i in chosen:
            covered |= sc.sets[i]
        if covered == universe:
            best = len(chosen)
    return best


def verify_gap(
    g: Gadget,
    exact_cover: Sequence[int] | None = None,
    min_cover_size: int | None = None,
    budget: int = DEFAULT_GADGET_BUDGET,
) -> GapReport:
    """Check the YES or NO distance bound against the brute-forced OPT.

    A failed bound raises GadgetGapError: it would mean a construction
    bug (or a genuine counterexample) and must not pass silently.
    """
    if (exact_cover is None) == (min_cover_size is None):
        raise BadParams("provide exactly one of exact_cover / min_cover_size")
    sc = g.sc
    p = g.field.p
    opt, _ = gadget_distance_bruteforce(g, budget)
    if exact_cover is not None:
        _validate_exact_cover(sc, exact_cover)
        bound = (p - 1) * sc.K
        # constructive: all-ones on the cover zeroes the universe block and
        # pays exactly K on the tail
        alpha = [g.field.zero] * sc.num_sets
        for i in exact_cover:
            alpha[i] = g.field.one
        witness_distance = manhattan_dist(g.b0, _span_combination(g, alpha))
        # scaling the cover by p-1 (= -1) cancels the universe block, so the
        # weight of b0 + (p-1) * sum is carried entirely by the K tail marks
        alpha_pm1 = [g.field.zero] * sc.num_sets
        for i in exact_cover:
            alpha_pm1[i] = g.field.el(p - 1)
        summed = _span_combination(g, alpha_pm1)
        residual_weight = sum((a + b).image for a, b in zip(g.b0, summed))
        passed = (
            opt <= bound
            and witness_distance == sc.K
            and residual_weight == (p - 1) * sc.K
        )
        if not passed:
            raise GadgetGapError(
                f"YES bound failed: OPT={opt}, bound={bound}, witness={witness_distance}"
            )
        return GapReport(
            case="yes",
            opt=opt,
            bound=bound,
            passed=True,
            witness_distance=witness_distance,
            residual_weight=residual_weight,
        )
    bound = sc.c * sc.K
    if min_cover_size < bound:
        raise BadParams(
            f"NO case needs every cover to have size >= c*K = {bound}; got {min_cover_size}"
        )
    if opt < bound:
        raise GadgetGapError(f"NO bound failed: OPT={opt} < c*K={bound}")
    return GapReport(case="no", opt=opt, bound=bound, passed=True)


def gap_report_json(report: GapReport) -> str:
    obj = {
        "case": report.case,
        "opt": report.opt,
        "bound": report.bound,
        "passed": report.passed,
    }
    if report.witness_distance is not None:
        obj["witness_distance"] = report.witness_distance
    if report.residual_weight is not None:
        obj["residual_weight"] = report.residual_weight
    return json.dumps(obj, indent=2, sort_keys=True)
