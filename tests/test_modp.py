import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqdec.errors import BadShape
from pqdec.modp import (
    fp_gauss_invert,
    fp_solve,
    invertibility_product,
    rank,
    row_echelon,
)


def reference_echelon(mat, p):
    """Textbook Gauss-Jordan over F_p, the generic modular loop kept outside pqdec.modp.

    At p = 2 the library runs a packed XOR elimination instead, so this
    is the independent reference its rank, echelon form and pivots are
    checked against.
    """
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
    return a, pivots


def low_rank(rng, rows, cols, p=2):
    """A product of random (rows, inner) and (inner, cols) factors, inner <= min(rows, cols)."""
    if min(rows, cols) == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    inner = int(rng.integers(1, min(rows, cols) + 1))
    return (rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols))) % p


def assert_gf2_matches_reference(mat):
    ech, pivots = row_echelon(mat, 2)
    want, want_pivots = reference_echelon(mat, 2)
    assert ech.dtype == np.int64 and ech.shape == mat.shape, mat.shape
    assert np.array_equal(ech, want), mat.shape
    assert pivots == want_pivots, mat.shape
    assert rank(mat, 2) == len(want_pivots), mat.shape


def test_reference_echelon_matches_generic_loop_at_odd_p():
    # the reference is the textbook loop; the library's p >= 3 kernel is checked against it here
    rng = np.random.default_rng(4)
    for p in (3, 5, 7):
        for _ in range(50):
            rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
            mat = rng.integers(0, p, size=(rows, cols))
            ech, pivots = row_echelon(mat, p)
            want, want_pivots = reference_echelon(mat, p)
            assert np.array_equal(ech, want) and pivots == want_pivots


def assert_stack_matches_reference(stack, p):
    """Stacked rank and row_echelon against the reference, matrix by matrix."""
    ranks = rank(stack, p)
    echelons, pivots = row_echelon(stack, p)
    assert isinstance(ranks, np.ndarray) and ranks.dtype == np.int64
    assert ranks.shape == (len(stack),)
    assert echelons.dtype == np.int64 and echelons.shape == stack.shape
    assert len(pivots) == len(stack)
    for mat, got_rank, ech, got_pivots in zip(stack, ranks.tolist(), echelons, pivots):
        want, want_pivots = reference_echelon(mat, p)
        assert np.array_equal(ech, want), mat.shape
        assert got_pivots == want_pivots, mat.shape
        assert got_rank == len(want_pivots), mat.shape
        # the matrix alone, as a 2-D input, gives the same answer
        alone = rank(mat, p)
        assert type(alone) is int and alone == got_rank
        ech_alone, pivots_alone = row_echelon(mat, p)
        assert np.array_equal(ech_alone, want) and pivots_alone == want_pivots


@st.composite
def stacks(draw, p, cols=None):
    """B <= 4 matrices over F_p: random, low rank, or random with a zero row and column."""
    count = draw(st.integers(0, 4))
    if cols is None:
        rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    else:
        rows = draw(st.integers(0, cols + 2))
    kind = draw(st.sampled_from(["random", "low_rank", "zero_lines"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(count):
        if kind == "low_rank":
            mat = low_rank(rng, rows, cols, p)
        else:
            mat = rng.integers(0, p, (rows, cols))
        if kind == "zero_lines" and rows and cols:
            mat[rng.integers(rows)] = 0
            mat[:, rng.integers(cols)] = 0
        mats.append(mat)
    return np.array(mats, dtype=np.int64).reshape(count, rows, cols)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_stacked_rank_and_echelon_match_reference(p, data):
    assert_stack_matches_reference(data.draw(stacks(p)), p)


@pytest.mark.parametrize("cols", [63, 64, 65, 128])
@settings(max_examples=25)
@given(data=st.data())
def test_stacked_gf2_across_word_boundaries(cols, data):
    # the packed rows hold 64 columns per word
    assert_stack_matches_reference(data.draw(stacks(2, cols)), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (5, 5), (3, 8), (8, 3)])
def test_stacks_of_zero_and_one(p, count, shape):
    rng = np.random.default_rng(count + sum(shape))
    assert_stack_matches_reference(rng.integers(0, p, size=(count, *shape)), p)
    assert_stack_matches_reference(np.zeros((count, *shape), dtype=np.int64), p)


@pytest.mark.parametrize("p", [1_000_003, 2_147_483_647])
def test_stacked_elimination_at_large_primes(p):
    # p^3 near or past 2^62: the kernel reduces its entries every few pivots
    # (every pivot at the larger p), so no product passes int64
    rng = np.random.default_rng(p % 1000)
    stack = rng.integers(0, p, size=(4, 12, 12))
    stack[3, -1] = stack[3, 0]  # rank at most 10
    stack[3, -2] = stack[3, 1] * 3 % p
    assert_stack_matches_reference(stack, p)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_and_echelon_take_matrices_and_stacks_only(p):
    for bad in (np.ones(4, dtype=np.int64), np.ones((2, 2, 2, 2), dtype=np.int64)):
        with pytest.raises(BadShape):
            rank(bad, p)
        with pytest.raises(BadShape):
            row_echelon(bad, p)
    assert type(rank(np.eye(3, dtype=np.int64), p)) is int
    # inverse and solve stay one matrix at a time
    with pytest.raises(BadShape):
        fp_gauss_invert(np.ones((2, 3, 3), dtype=np.int64), p)
    with pytest.raises(BadShape):
        fp_solve(np.ones((2, 3, 3), dtype=np.int64), np.ones(3, dtype=np.int64), p)


def test_rank_gf2_matches_generic_echelon():
    rng = np.random.default_rng(0)
    for _ in range(300):
        rows, cols = rng.integers(1, 12, size=2)
        assert_gf2_matches_reference(rng.integers(0, 2, size=(rows, cols)))


def test_rank_gf2_across_word_boundaries():
    rng = np.random.default_rng(1)
    shapes = [(int(rng.integers(1, 140)), cols) for cols in range(1, 131)]
    shapes += [(rows, cols) for cols in (63, 64, 65, 128) for rows in (cols - 1, cols, cols + 1)]
    shapes += [(rows, cols) for cols in (63, 64, 65, 128) for rows in (cols // 3, 2 * cols)]
    for rows, cols in shapes:
        for mat in (rng.integers(0, 2, size=(rows, cols)), low_rank(rng, rows, cols)):
            assert_gf2_matches_reference(mat)


@pytest.mark.parametrize(
    "shape",
    [(0, 5), (5, 0), (1, 1), (3, 5), (64, 64), (1, 7), (1, 64), (1, 130), (7, 1), (130, 1)],
)
def test_gf2_echelon_degenerate_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    assert_gf2_matches_reference(np.zeros(shape, dtype=np.int64))
    if 1 in shape:
        for _ in range(5):
            assert_gf2_matches_reference(rng.integers(0, 2, size=shape))
        assert_gf2_matches_reference(np.ones(shape, dtype=np.int64))


def test_fp_solve_gf2_matches_reference():
    rng = np.random.default_rng(5)
    seen = set()
    for rows, cols in [(32, 17), (16, 17), (17, 16), (5, 5), (8, 3), (3, 8), (70, 66), (1, 1)]:
        for trial in range(20):
            if trial % 2:
                a = rng.integers(0, 2, size=(rows, cols))
            else:
                a = low_rank(rng, rows, cols)
            x = rng.integers(0, 2, size=cols)
            # half consistent by construction, half with a random rhs
            b = a @ x % 2 if trial % 4 < 2 else rng.integers(0, 2, size=rows)
            res = fp_solve(a, b, 2)
            ech, pivots = reference_echelon(np.concatenate([a, b[:, None]], axis=1), 2)
            if cols in pivots:
                want = "inconsistent"
                assert res.rank == len(pivots) - 1
            elif len(pivots) < cols:
                want = "rank_deficient"
                assert res.rank == len(pivots)
            else:
                want = "unique"
                assert res.rank == cols
                assert np.array_equal(res.solution, ech[:cols, cols])
                assert np.array_equal(a @ res.solution % 2, b % 2)
            assert res.status == want, (rows, cols, trial)
            seen.add(want)
    assert seen == {"unique", "inconsistent", "rank_deficient"}


def reference_invert(mat, p):
    """The reference elimination on [A | I]."""
    n = mat.shape[0]
    ech, pivots = reference_echelon(np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1), p)
    return ech, sum(1 for c in pivots if c < n)


def test_fp_gauss_invert_gf2_across_word_boundaries():
    rng = np.random.default_rng(2)
    for n in [1, 2, 7, 8, 9, 31, 63, 64, 65, 100, 128]:
        for _ in range(3):
            mat = rng.integers(0, 2, size=(n, n))
            res = fp_gauss_invert(mat, 2)
            ech, r = reference_invert(mat, 2)
            assert res.rank == r
            assert np.array_equal(res.echelon, ech[:, :n])
            if r == n:
                assert np.array_equal(mat @ res.inverse % 2, np.eye(n, dtype=np.int64))
                assert np.array_equal(res.inverse, ech[:, n:])
            else:
                assert res.singular


def test_fp_gauss_invert_gf2_singular_certificate():
    rng = np.random.default_rng(3)
    for n in [2, 5, 63, 64, 65, 130]:
        mat = low_rank(rng, n, n)
        mat[:, -1] = mat[:, 0]  # force a repeated column
        res = fp_gauss_invert(mat, 2)
        ech, r = reference_invert(mat, 2)
        assert res.singular and res.inverse is None
        assert res.rank == r < n
        assert np.array_equal(res.echelon, ech[:, :n])


def test_rank_known_values():
    assert rank(np.eye(5, dtype=np.int64), 2) == 5
    assert rank(np.zeros((3, 4), dtype=np.int64), 3) == 0
    assert rank(np.array([[1, 2], [2, 4]]), 5) == 1  # second row is twice the first
    assert rank(np.array([[1, 2], [2, 4]]), 3) == 1


def test_fp_solve_statuses():
    a = np.array([[1, 1], [0, 1], [1, 0]])
    x = np.array([2, 1])
    b = (a @ x) % 3
    res = fp_solve(a, b, 3)
    assert res.status == "unique"
    assert np.array_equal(res.solution, x % 3)

    bad = b.copy()
    bad[0] = (bad[0] + 1) % 3
    # rhs off by one unit cannot be hit: 3 rows pin 2 unknowns
    assert fp_solve(a, bad, 3).status == "inconsistent"

    wide = np.array([[1, 1, 0], [0, 1, 1]])
    assert fp_solve(wide, np.array([1, 1]), 2).status == "rank_deficient"


def test_fp_solve_shape_guard():
    with pytest.raises(BadShape):
        fp_solve(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 2)
    with pytest.raises(BadShape):
        fp_gauss_invert(np.ones((2, 3), dtype=np.int64), 2)


def test_invertibility_product_values():
    assert abs(invertibility_product(2) - 0.288788) < 1e-5
    assert abs(invertibility_product(3) - 0.560126) < 1e-5
    assert abs(invertibility_product(5) - 0.760333) < 1e-5
