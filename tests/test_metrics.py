from itertools import product

import numpy as np
import pytest

from pqdec.errors import FieldMismatch, LengthMismatch
from pqdec.gf import Field
from pqdec.metrics import manhattan_dist, manhattan_norm


def test_manhattan_not_shift_invariant_prime_field():
    # q = p = 5, n = 1: dist(p-1, 0) = 4 but dist(0, 1) = 1 after shifting by 1
    f5 = Field(5, 1)
    assert manhattan_dist([f5.el(4)], [f5.el(0)]) == 4
    shifted_x = f5.el(4) + f5.el(1)
    shifted_y = f5.el(0) + f5.el(1)
    assert manhattan_dist([shifted_x], [shifted_y]) == 1


def test_manhattan_zero_on_equal(f16):
    rng = np.random.default_rng(0)
    v = [f16.random_element(rng) for _ in range(4)]
    assert manhattan_dist(v, v) == 0


def test_manhattan_f16_example(f16):
    x = [f16.el(1), f16.el(3)]
    y = [f16.el(3), f16.el(1)]
    assert manhattan_dist(x, y) == 4


def test_manhattan_errors(f4, f9):
    with pytest.raises(LengthMismatch):
        manhattan_dist([f4.el(1)], [f4.el(1), f4.el(0)])
    with pytest.raises(FieldMismatch):
        manhattan_dist([f4.el(1)], [f9.el(1)])


def test_norm_examples(f4):
    assert manhattan_norm([f4.zero, f4.zero]) == 0
    assert manhattan_norm([f4.el(2), f4.el(3), f4.el(1)]) == 6
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = [f4.random_element(rng) for _ in range(3)]
        zero = [f4.zero] * 3
        assert manhattan_norm(v) == manhattan_dist(v, zero)


def test_prefix_equal_iff_difference_image_below_block(f16):
    # the field difference has image < p^r exactly when prefixes agree
    for a in range(16):
        for b in range(16):
            for r in range(5):
                diff = f16.el(a) - f16.el(b)
                prefix_equal = f16.el(a).digits[r:] == f16.el(b).digits[r:]
                assert prefix_equal == (diff.image < 2**r)


@pytest.mark.parametrize("p,m,n", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)])
def test_gap_preservation_under_prefix_agreement(p, m, n):
    """Planted form of the gap property.

    When the top m-r digits agree in every coordinate (which is what a
    low-digit planted error guarantees), both the image distance and the
    norm of the field difference stay below n * p^r.
    """
    f = Field(p, m)
    for r in range(m):
        block = p**r
        for xs in product(range(f.q), repeat=n):
            x = [f.el(v) for v in xs]
            for es in product(range(block), repeat=n):
                y = [a + f.el(e) for a, e in zip(x, es)]
                assert all(a.digits[r:] == b.digits[r:] for a, b in zip(x, y))
                diff = [a - b for a, b in zip(x, y)]
                assert manhattan_norm(diff) <= n * (block - 1)
                assert manhattan_dist(x, y) <= n * (block - 1)


def test_gap_preservation_fails_across_block_boundaries(f4):
    """Documented counterexample: a small image distance does not bound
    the difference norm when the pair straddles a p^r block boundary.

    x = 1, y = 2 in F_4 with r = 1: the image distance is 1 < 2 = p^r,
    yet x - y = 3 has norm 3 > n * p^r = 2.  Downstream correctness
    arguments therefore rely on the per-coordinate strict form above,
    never on the unconditioned statement.
    """
    x, y = [f4.el(1)], [f4.el(2)]
    assert manhattan_dist(x, y) == 1
    assert manhattan_norm([x[0] - y[0]]) == 3
    assert manhattan_norm([x[0] - y[0]]) > 1 * 2
    assert x[0].digits[1:] != y[0].digits[1:]
