import numpy as np
import pytest

from pqdec.errors import BadShape
from pqdec.modp import (
    _rank_gf2,
    fp_gauss_invert,
    fp_solve,
    invertibility_product,
    rank,
    row_echelon,
)


def test_rank_gf2_matches_generic_echelon():
    rng = np.random.default_rng(0)
    for _ in range(300):
        rows, cols = rng.integers(1, 12, size=2)
        mat = rng.integers(0, 2, size=(rows, cols))
        assert _rank_gf2(mat) == len(row_echelon(mat, 2)[1])


def low_rank_gf2(rng, rows, cols):
    inner = int(rng.integers(1, min(rows, cols) + 1))
    return (rng.integers(0, 2, size=(rows, inner)) @ rng.integers(0, 2, size=(inner, cols))) % 2


def test_rank_gf2_across_word_boundaries():
    rng = np.random.default_rng(1)
    shapes = [(int(rng.integers(1, 140)), cols) for cols in range(1, 131)]
    shapes += [(rows, cols) for cols in (63, 64, 65, 128) for rows in (cols - 1, cols, cols + 1)]
    for rows, cols in shapes:
        for mat in (rng.integers(0, 2, size=(rows, cols)), low_rank_gf2(rng, rows, cols)):
            assert _rank_gf2(mat) == len(row_echelon(mat, 2)[1]), (rows, cols)


def reference_invert(mat, p):
    """The generic path: row_echelon on [A | I]."""
    n = mat.shape[0]
    ech, pivots = row_echelon(np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1), p)
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
        mat = low_rank_gf2(rng, n, n)
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
