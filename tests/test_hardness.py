import numpy as np
import pytest

from pqdec.codes import nearest_codeword_oracle
from pqdec.errors import BadParams, BudgetExceeded
from pqdec.gf import Field, digit_images, digit_rows
from pqdec.hardness import (
    SetCoverInstance,
    build_gadget,
    gadget_distance_bruteforce,
    min_cover_size_bruteforce,
    verify_gap,
)
from pqdec.metrics import manhattan_dist


def _column(g, i):
    """Vector b_(i+1): generator column i of the gadget's code."""
    return [g.field.from_digits(row[i].tolist()) for row in g.code.matrix]


def test_build_gadget_single_set(f4):
    # |U| = 1, one covering set, K = 1, c = 1 so L = 1
    f2 = Field(2, 1)
    sc = SetCoverInstance(universe_size=1, sets=(frozenset({0}),), K=1, c=1)
    g = build_gadget(sc, f2)
    assert digit_images(g.b0, 2).tolist() == [1, 0]
    assert not g.b0.flags.writeable
    assert [e.image for e in _column(g, 0)] == [1, 1]


def test_build_gadget_tail_of_b0_is_zero():
    f2 = Field(2, 1)
    sc = SetCoverInstance(
        universe_size=3,
        sets=(frozenset({0, 1}), frozenset({2}), frozenset({0}), frozenset({1, 2})),
        K=2,
        c=2,
    )
    g = build_gadget(sc, f2)
    L = 4
    assert g.L == L
    assert g.dimension == L * 3 + 4
    images = digit_images(g.b0, 2)
    assert all(images[: L * 3] == 1)
    assert all(images[L * 3 :] == 0)
    # b_1 covers elements 0 and 1: ones on their tuples, tail mark at 0
    col = _column(g, 0)
    assert all(col[u * L + j].image == 1 for u in (0, 1) for j in range(L))
    assert all(col[2 * L + j].image == 0 for j in range(L))
    assert [e.image for e in col[3 * L :]] == [1, 0, 0, 0]


def test_gadget_distance_zero_assignment(f4):
    f2 = Field(2, 1)
    sc = SetCoverInstance(universe_size=2, sets=(frozenset({0}), frozenset({1})), K=2, c=2)
    g = build_gadget(sc, f2)
    zeros = tuple(f2.zero for _ in range(2))
    assert manhattan_dist(f2, g.b0, g.code.encode(zeros)) == g.L * 2


def test_gadget_distance_exact_cover_yes_case():
    f2 = Field(2, 1)
    sc = SetCoverInstance(universe_size=1, sets=(frozenset({0}),), K=1, c=1)
    g = build_gadget(sc, f2)
    opt, alpha = gadget_distance_bruteforce(g)
    # alpha = 1 zeroes the universe block at tail cost K; alpha = 0 also
    # costs L*|U| = 1 here, and the lexicographic tie-break returns it
    assert opt == 1
    assert alpha == (0,)
    report = verify_gap(g, exact_cover=[0])
    assert report.passed and report.opt == 1
    assert report.bound == (2 - 1) * 1
    assert report.witness_distance == 1
    assert report.residual_weight == 1


def test_gadget_no_cover_distance_at_least_L():
    f2 = Field(2, 1)
    # element 2 is uncovered, so OPT >= L on its tuple
    sc = SetCoverInstance(
        universe_size=3, sets=(frozenset({0}), frozenset({1})), K=1, c=2
    )
    g = build_gadget(sc, f2)
    opt, _ = gadget_distance_bruteforce(g)
    assert opt >= g.L


def test_verify_gap_no_case_singleton_starvation():
    f2 = Field(2, 1)
    sets = tuple(frozenset({u}) for u in range(6))
    sc = SetCoverInstance(universe_size=6, sets=sets, K=2, c=3)
    assert min_cover_size_bruteforce(sc) == 6 >= sc.c * sc.K
    g = build_gadget(sc, f2)
    report = verify_gap(g, min_cover_size=6)
    assert report.passed
    assert report.opt >= 6


def test_verify_gap_p3_yes_case(f9):
    f3 = Field(3, 1)
    sc = SetCoverInstance(
        universe_size=4, sets=(frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})), K=2, c=4
    )
    g = build_gadget(sc, f3)
    report = verify_gap(g, exact_cover=[0, 1])
    assert report.passed
    assert report.opt <= (3 - 1) * 2
    assert report.witness_distance == 2  # all-ones witness costs exactly K
    assert report.residual_weight == (3 - 1) * 2  # tail weight of b0 - cover sum


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_verify_gap_residual_weight_is_b0_plus_p_minus_1_times_the_cover(p, m):
    # the residual is b0 + (p-1) * sum over the cover, scaled term by term;
    # its weight is the K tail marks, each carrying p - 1
    f = Field(p, m)
    sc = SetCoverInstance(
        universe_size=3, sets=(frozenset({0}), frozenset({1, 2}), frozenset({0, 1})), K=2, c=2
    )
    g = build_gadget(sc, f)
    summed = [f.zero] * g.dimension
    for i in (0, 1):
        summed = [a + f.el(p - 1) * b for a, b in zip(summed, _column(g, i))]
    b0 = [f.from_digits(row.tolist()) for row in g.b0]
    report = verify_gap(g, exact_cover=[0, 1])
    assert report.residual_weight == sum((a + b).image for a, b in zip(b0, summed))
    assert report.residual_weight == (p - 1) * sc.K


def test_verify_gap_rejects_bad_witness():
    f2 = Field(2, 1)
    sc = SetCoverInstance(
        universe_size=2, sets=(frozenset({0}), frozenset({0, 1})), K=1, c=2
    )
    g = build_gadget(sc, f2)
    with pytest.raises(BadParams):
        verify_gap(g, exact_cover=[0])  # does not cover element 1
    with pytest.raises(BadParams):
        verify_gap(g)  # no witness at all
    with pytest.raises(BadParams):
        verify_gap(g, min_cover_size=1)  # not a NO instance


def test_verify_gap_checks_its_inputs_before_enumerating(monkeypatch):
    # a malformed witness or an undersized NO-case cover size is refused
    # before the exponential distance enumeration starts
    def refuse(g):
        raise AssertionError("enumerated the gadget before checking the inputs")

    monkeypatch.setattr("pqdec.hardness.gadget_distance_bruteforce", refuse)
    f2 = Field(2, 1)
    sc = SetCoverInstance(
        universe_size=2, sets=(frozenset({0}), frozenset({1}), frozenset({0, 1})), K=1, c=2
    )
    g = build_gadget(sc, f2)
    for witness in ([0], [0, 1], [5], [2, 2]):
        with pytest.raises(BadParams):
            verify_gap(g, exact_cover=witness)
    with pytest.raises(BadParams):
        verify_gap(g, min_cover_size=sc.c * sc.K - 1)


def test_degenerate_k_rejected():
    with pytest.raises(BadParams):
        SetCoverInstance(universe_size=1, sets=(frozenset({0}),), K=0, c=3)
    with pytest.raises(BadParams):
        SetCoverInstance(universe_size=1, sets=(frozenset(),), K=1, c=3)


def test_gadget_agrees_with_codeword_oracle():
    sc = SetCoverInstance(
        universe_size=3,
        sets=(frozenset({0, 1}), frozenset({2}), frozenset({1, 2})),
        K=2,
        c=2,
    )
    for field in (Field(2, 1), Field(2, 2)):  # F_4 spans go through 2x2 operator blocks
        g = build_gadget(sc, field)
        opt, _ = gadget_distance_bruteforce(g)
        _, oracle_dist = nearest_codeword_oracle(g.code, g.b0)
        assert opt == oracle_dist


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 2), (5, 1)])
def test_gadget_span_is_the_scalar_column_sum(p, m):
    # the reference: sum_i alpha_i * b_i in FieldElement arithmetic,
    # column by column, against the code's expanded-operator encode
    f = Field(p, m)
    sc = SetCoverInstance(
        universe_size=3, sets=(frozenset({0}), frozenset({1, 2}), frozenset({0, 1})), K=1, c=2
    )
    g = build_gadget(sc, f)
    rng = np.random.default_rng(23)
    for _ in range(10):
        alpha = [f.random_element(rng) for _ in range(sc.num_sets)]
        summed = [f.zero] * g.dimension
        for i, coef in enumerate(alpha):
            summed = [a + coef * b for a, b in zip(summed, _column(g, i))]
        assert np.array_equal(g.code.encode(alpha), digit_rows(f, summed))


def test_verify_gap_yes_and_no_over_f9(f9):
    yes = SetCoverInstance(
        universe_size=3, sets=(frozenset({0, 1}), frozenset({2}), frozenset({1, 2})), K=2, c=2
    )
    report = verify_gap(build_gadget(yes, f9), exact_cover=[0, 1])
    assert report.passed and report.opt <= (3 - 1) * 2
    assert report.witness_distance == 2
    assert report.residual_weight == (3 - 1) * 2
    no = SetCoverInstance(
        universe_size=3, sets=tuple(frozenset({u}) for u in range(3)), K=1, c=3
    )
    report = verify_gap(build_gadget(no, f9), min_cover_size=min_cover_size_bruteforce(no))
    assert report.passed and report.opt >= 3


def test_gadget_budget():
    f2 = Field(2, 1)
    sets = tuple(frozenset({u}) for u in range(8))
    sc = SetCoverInstance(universe_size=8, sets=sets, K=2, c=2)
    g = build_gadget(sc, f2)
    with pytest.raises(BudgetExceeded):
        gadget_distance_bruteforce(g, budget=100)


def test_set_cover_json_round_trip():
    sc = SetCoverInstance(
        universe_size=3, sets=(frozenset({0, 1}), frozenset({2})), K=2, c=3
    )
    assert SetCoverInstance.from_json(sc.to_json()) == sc


@pytest.mark.parametrize(
    "mutate",
    [
        {"universe": 2.7},
        {"sets": [[0.0], [1]]},
        {"K": True},
        {"c": "2"},
    ],
    ids=["fractional_universe", "float_element", "bool_K", "text_c"],
)
def test_set_cover_from_json_rejects_non_integers(mutate):
    obj = {"universe": 2, "sets": [[0], [1]], "K": 2, "c": 2, **mutate}
    with pytest.raises(BadParams):
        SetCoverInstance.from_json(obj)
