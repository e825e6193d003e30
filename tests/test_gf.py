from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqdec import gf
from pqdec.codes import DecodeInstance, LinearCode
from pqdec.errors import (
    BadShape,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    OutOfRange,
    Reducible,
)
from pqdec.gf import (
    Field,
    _poly_divmod,
    _x_power_operators,
    default_irreducible,
    digit_images,
    digit_rows,
    expand_operator,
    is_irreducible,
    matrix_digits,
    top_digit_submatrix,
)
from pqdec.metrics import manhattan_dist, manhattan_norm
from pqdec.modp import rank


# ---------------------------------------------------------------- construction

def test_make_field_f4_explicit_polynomial():
    f = Field(2, 2, [1, 1])  # x^2 + x + 1
    assert f.q == 4
    assert f.poly == (1, 1)


def test_make_field_degree_one():
    f = Field(2, 1)
    assert f.q == 2
    assert len(f.poly) == 1  # any monic linear polynomial is irreducible


def test_make_field_f9_x2_plus_1():
    # independent check: x^2 + 1 has no root mod 3
    assert all((x * x + 1) % 3 != 0 for x in range(3))
    f = Field(3, 2, [1, 0])
    assert f.q == 9


def test_make_field_errors():
    with pytest.raises(NotPrime):
        Field(4, 2)
    with pytest.raises(Reducible):
        Field(2, 2, [0, 0])  # x^2 = x * x
    with pytest.raises(Reducible):
        Field(2, 2, [1, 0])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(DegreeMismatch):
        Field(2, 2, [1, 1, 1])
    with pytest.raises(DegreeMismatch):
        Field(2, 0)


def test_default_polynomials_are_smallest():
    assert Field(2, 2).poly == (1, 1)      # x^2+x+1
    assert Field(2, 3).poly == (1, 1, 0)   # x^3+x+1
    assert Field(2, 4).poly == (1, 1, 0, 0)  # x^4+x+1
    assert Field(3, 2).poly == (1, 0)      # x^2+1
    # the benchmark's fields keep their moduli
    assert Field(3, 3).poly == (1, 2, 0)   # x^3+2x+1
    assert Field(2, 8).poly == (1, 1, 0, 1, 1, 0, 0, 0)  # x^8+x^4+x^3+x+1
    assert Field(2, 16).poly == (1, 1, 0, 1, 0, 1) + (0,) * 10  # x^16+x^5+x^3+x+1


# ---------------------------------------------------------------- polynomial core

def _reference_rem(a, b, p):
    """Remainder of a by the monic b over F_p by schoolbook division."""
    out = list(a)
    db = len(b) - 1
    for i in range(len(out) - 1, db - 1, -1):
        c = out[i]
        for j in range(db + 1):
            out[i - db + j] = (out[i - db + j] - c * b[j]) % p
    return out


def trial_division_irreducible(poly_full, p):
    """Reference: no monic divisor of degree 1..m/2, by exhaustive trial division."""
    m = len(poly_full) - 1
    for d in range(1, m // 2 + 1):
        for low in product(range(p), repeat=d):
            if not any(_reference_rem(poly_full, list(low) + [1], p)):
                return False
    return True


@pytest.mark.parametrize("p,max_degree", [(2, 7), (3, 4), (5, 4), (7, 4)])
def test_ben_or_agrees_with_trial_division(p, max_degree):
    for m in range(1, max_degree + 1):
        for low in product(range(p), repeat=m):
            poly_full = list(low) + [1]
            assert is_irreducible(poly_full, p) == trial_division_irreducible(poly_full, p), (
                poly_full
            )


def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


@st.composite
def divmod_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    a = draw(st.lists(st.integers(0, p - 1), max_size=12))
    b = draw(st.lists(st.integers(0, p - 1), max_size=6)) + [draw(st.integers(1, p - 1))]
    return p, a, b


@given(divmod_inputs())
def test_poly_divmod_identity(inputs):
    p, a, b = inputs
    quot, rem = _poly_divmod(a, b, p)
    assert len(rem) < len(b)  # deg r < deg b, with deg 0 = -inf
    assert quot == _trimmed(quot) and rem == _trimmed(rem)
    assert all(0 <= c < p for c in quot + rem)
    total = [0] * (len(quot) + len(b) + len(rem))  # q*b + r, schoolbook
    for i, qi in enumerate(quot):
        for j, bj in enumerate(b):
            total[i + j] += qi * bj
    for i, ri in enumerate(rem):
        total[i] += ri
    assert _trimmed(c % p for c in total) == _trimmed(a)


def test_field_json_round_trip(f16):
    obj = f16.to_json()
    assert obj == {"p": 2, "m": 4, "poly": [1, 1, 0, 0]}
    assert Field.from_json(obj) == f16


@pytest.mark.parametrize(
    "obj",
    [
        {"p": 2.9, "m": "3", "poly": [1.5, 1, 0]},
        {"p": 2, "m": 4, "poly": [1, 1.0, 0, 0]},
        {"p": True, "m": 4, "poly": [1, 1, 0, 0]},
        {"p": 2, "poly": [1, 1, 0, 0]},
    ],
    ids=["fractional", "float_poly", "bool_p", "missing_m"],
)
def test_field_from_json_rejects_malformed(obj):
    with pytest.raises(BadShape):
        Field.from_json(obj)


# ---------------------------------------------------------------- add / mul / inv

def test_add_f16_carryfree_example(f16):
    # images add digit-wise mod 2, so 1 + 3 = 2
    assert (f16.el(1) + f16.el(3)).image == 2


def test_add_identity_random(f4, f9):
    rng = np.random.default_rng(0)
    for f in (f4, f9):
        for _ in range(50):
            a = f.random_element(rng)
            assert (a + f.zero) == a


def test_add_f9_digitwise(f9):
    a = f9.el(4)  # digits (1, 1)
    assert a.digits == (1, 1)
    s = a + a
    assert s.digits == (2, 2)
    assert s.image == 8


def test_mul_f4_table(f4):
    assert (f4.el(2) * f4.el(2)).image == 3  # x * x = x^2 = x + 1
    assert (f4.el(2) * f4.el(3)).image == 1  # x(x+1) = x^2 + x = 1
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = f4.random_element(rng)
        assert (a * f4.one) == a


def test_inv_examples(f4, f9):
    assert f4.el(2).inv().image == 3
    assert f4.one.inv() == f4.one
    # x * 2x = 2x^2 = -2 = 1 mod 3
    assert f9.from_digits([0, 1]).inv().digits == (0, 2)
    with pytest.raises(DivisionByZero):
        f4.zero.inv()


def test_field_mismatch_raises(f4, f9):
    with pytest.raises(FieldMismatch):
        f4.el(1) + f9.el(1)
    with pytest.raises(FieldMismatch):
        f4.el(1) * f9.el(1)


# ---------------------------------------------------------------- integer images

def test_to_integer_examples(f4, f8):
    assert f4.from_digits([0, 1]).image == 2
    assert f8.from_digits([1, 0, 1]).image == 5
    with pytest.raises(OutOfRange):
        f4.el(4)


def test_integer_image_is_a_bijection(f4, f8, f9, f16):
    for f in (f4, f8, f9, f16):
        seen = {e.image for e in f.elements()}
        assert seen == set(range(f.q))
        for img in range(f.q):
            assert f.el(img).image == img


# ---------------------------------------------------------------- field axioms

@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_random_triples(p, m):
    f = Field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    for _ in range(10_000):
        a, b, c = (f.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == f.zero
        if a.image:
            assert a * a.inv() == f.one


def test_vector_addition_is_digitwise(f16):
    # field addition of vectors equals digit-wise mod-p addition of digit rows
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = [f16.random_element(rng) for _ in range(3)]
        y = [f16.random_element(rng) for _ in range(3)]
        s = [a + b for a, b in zip(x, y)]
        assert np.array_equal(
            digit_rows(f16, s), (digit_rows(f16, x) + digit_rows(f16, y)) % 2
        )


# ---------------------------------------------------------------- expanded operators

def example_f4_matrix(f4):
    return [[f4.el(1), f4.el(2)], [f4.el(3), f4.el(0)]]


# hand expansion of the matrix above: mult-by-1 is I, mult-by-2 sends
# (1, x) to (x, x+1), mult-by-3 sends (1, x) to (x+1, 1), mult-by-0 is 0
EXPECTED_EXPANDED = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 1],
        [1, 1, 0, 0],
        [1, 0, 0, 0],
    ]
)


def test_expand_operator_matches_hand_expansion(f4):
    exp = expand_operator(example_f4_matrix(f4), f4)
    assert np.array_equal(exp.entries, EXPECTED_EXPANDED)


def test_expand_identity(f4):
    ident = [[f4.one, f4.zero], [f4.zero, f4.one]]
    exp = expand_operator(ident, f4)
    assert np.array_equal(exp.entries, np.eye(4, dtype=np.int64))


def test_expand_defining_property_random(f9):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = [[f9.random_element(rng) for _ in range(2)] for _ in range(3)]
        exp = expand_operator(a, f9)
        x = [f9.random_element(rng) for _ in range(2)]
        ax = [
            a[i][0] * x[0] + a[i][1] * x[1]
            for i in range(3)
        ]
        lhs = (exp.entries @ digit_rows(f9, x).reshape(-1)) % 3
        assert np.array_equal(lhs, digit_rows(f9, ax).reshape(-1))


def test_expand_respects_composition(f4):
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = [[f4.random_element(rng) for _ in range(2)] for _ in range(2)]
        b = [[f4.random_element(rng) for _ in range(2)] for _ in range(2)]
        ab = [
            [
                a[i][0] * b[0][j] + a[i][1] * b[1][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
        lhs = expand_operator(ab, f4).entries
        rhs = (expand_operator(a, f4).entries @ expand_operator(b, f4).entries) % 2
        assert np.array_equal(lhs, rhs)


def test_top_digit_submatrix_r0_is_identity_slice(f4):
    exp = expand_operator(example_f4_matrix(f4), f4)
    assert np.array_equal(top_digit_submatrix(exp, 0), exp.entries)


def test_top_digit_submatrix_shapes(f9):
    rng = np.random.default_rng(5)
    a = [[f9.random_element(rng)] for _ in range(4)]
    exp = expand_operator(a, f9)
    sub = top_digit_submatrix(exp, 1)
    assert sub.shape == (4, 2)  # one MSB row per coordinate, all columns
    with pytest.raises(OutOfRange):
        top_digit_submatrix(exp, 2)


def test_top_digit_extraction_is_singular(f4):
    """The F_4 example: one digit row per coordinate is rank deficient.

    Both per-block square slices (first-digit rows/columns and
    most-significant rows/columns) are singular, and the attack system
    that keeps all columns is underdetermined.
    """
    exp = expand_operator(example_f4_matrix(f4), f4)
    displayed = exp.entries[np.ix_([0, 2], [0, 2])]
    assert np.array_equal(displayed, np.array([[1, 0], [1, 0]]))
    assert rank(displayed, 2) == 1
    msb_square = exp.entries[np.ix_([1, 3], [1, 3])]
    assert rank(msb_square, 2) == 1
    attack_rows = top_digit_submatrix(exp, 1)
    assert attack_rows.shape == (2, 4)
    assert rank(attack_rows, 2) < 4


def scalar_mul_operator(a):
    """Reference: column j holds the digits of a * x^j, by FieldElement products."""
    f = a.field
    x = f.from_digits([0, 1] + [0] * (f.m - 2)) if f.m > 1 else f.one
    cols, b = [], a
    for _ in range(f.m):
        cols.append(b.digits)
        b = b * x
    return np.array(cols, dtype=np.int64).T


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 16), (3, 3), (5, 2), (7, 3)])
def test_expand_operator_equals_scalar_mul_blocks(p, m):
    f = Field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a = [[f.random_element(rng) for _ in range(2)] for _ in range(3)]
    entries = expand_operator(a, f).entries
    for i in range(3):
        for j in range(2):
            ref = scalar_mul_operator(a[i][j])
            assert np.array_equal(entries[i * m : (i + 1) * m, j * m : (j + 1) * m], ref)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 8), (3, 2), (3, 5), (5, 2), (7, 3)])
def test_x_power_operator_columns_are_reduced_powers_of_x(p, m):
    # slice l, column j: the digits of x^(l+j) in FieldElement arithmetic
    f = Field(p, m)
    x = f.el(f.p)
    ops = _x_power_operators(f)
    for ell in range(m):
        for j in range(m):
            assert ops[ell][:, j].tolist() == list((x ** (ell + j)).digits)


def test_x_power_operators_built_once_per_modulus():
    table = _x_power_operators(Field(2, 8))
    assert _x_power_operators(Field(2, 8)) is table  # equal fields share one table
    with pytest.raises(ValueError):
        table[1, 0, 0] = 1
    # same (p, m), different modulus: the cache key includes the polynomial
    a = _x_power_operators(Field(2, 4, [1, 1, 0, 0]))  # x^4 + x + 1
    b = _x_power_operators(Field(2, 4, [1, 0, 0, 1]))  # x^4 + x^3 + 1
    assert not np.array_equal(a, b)
    # column m-1 of slice 1 holds x^4 reduced, which is the modulus's low part over F_2
    assert a[1][:, 3].tolist() == [1, 1, 0, 0]
    assert b[1][:, 3].tolist() == [1, 0, 0, 1]


def test_expand_operator_rejects_foreign_entry(f4, f9):
    with pytest.raises(FieldMismatch):
        expand_operator([[f4.one], [f9.one]], f4)


def test_random_element_draws_its_m_digits():
    for p, m in [(2, 1), (2, 16), (3, 3), (257, 1)]:
        f = Field(p, m)
        rng, ref = np.random.default_rng(p + m), np.random.default_rng(p + m)
        got = [f.random_element(rng) for _ in range(3)]
        assert got == [f.from_digits(ref.integers(0, p, m).tolist()) for _ in range(3)]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_digit_rows_round_trip(f8):
    rng = np.random.default_rng(6)
    vec = tuple(f8.random_element(rng) for _ in range(5))
    rows = digit_rows(f8, vec)
    assert rows.shape == (5, 3) and rows.dtype == np.int64
    assert tuple(f8.from_digits(row.tolist()) for row in rows) == vec
    assert digit_images(rows, 2).tolist() == [e.image for e in vec]
    assert np.array_equal(digit_rows(f8, rows), rows)
    assert digit_rows(f8, ()).shape == (0, 3)


# ---------------------------------------------------------------- the vector boundary

@pytest.mark.parametrize(
    "bad, error",
    [
        (np.zeros((2, 3), dtype=np.int64), BadShape),  # width 3 over F_16
        (np.zeros(8, dtype=np.int64), BadShape),  # not rows
        (np.zeros((2, 4)), BadShape),  # float dtype
        (np.zeros((2, 4), dtype=bool), BadShape),
        (np.array([[0, 0, 0, 0], [0, 0, -1, 0]]), OutOfRange),
        (np.array([[0, 0, 0, 0], [0, 2, 0, 0]]), OutOfRange),
        (np.array([[0, 0, 0, 0], [0, 2, 0, 0]], dtype=np.uint8), OutOfRange),
    ],
)
def test_digit_rows_rejects_malformed_arrays(f16, bad, error):
    with pytest.raises(error):
        digit_rows(f16, bad)


def test_digit_rows_rejects_a_foreign_field(f16, f4):
    with pytest.raises(FieldMismatch):
        digit_rows(f16, [f16.one, f4.one])
    # the same p and m under another modulus
    with pytest.raises(FieldMismatch):
        digit_rows(f16, [f16.one, Field(2, 4, [1, 0, 0, 1]).one])


def test_digit_rows_is_a_read_only_copy(f16):
    caller = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.int32)
    rows = digit_rows(f16, caller)
    assert rows.dtype == np.int64 and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    caller[0, 0] = 0
    assert rows[0, 0] == 1
    assert not digit_rows(f16, [f16.one]).flags.writeable


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda f: digit_rows(f, [[1, 0, 0]], "probe"), "probe"),
        (lambda f: digit_rows(f, [f.one, 3], "probe"), "probe"),
        (lambda f: LinearCode(f, [[1], [2]]), "matrix entry"),
        (lambda f: LinearCode(f, [[f.one], [[1, 0, 0]]]), "matrix entry"),
        (lambda f: LinearCode(f, [[f.el(1)], [f.el(2)]]).encode([3]), "message entry"),
    ],
    ids=["digit_list", "int_among_elements", "int_matrix", "digit_list_entry", "int_message"],
)
def test_non_elements_raise_bad_shape_naming_the_entry(f8, call, what):
    with pytest.raises(BadShape, match=what):
        call(f8)


# ---------------------------------------------------------------- the matrix boundary

def test_matrix_digits_reads_elements_and_arrays_alike(f9):
    caller = np.array([[[1, 0]], [[2, 1]], [[0, 2]]], dtype=np.int32)
    from_rows = matrix_digits(f9, [[f9.el(1)], [f9.el(5)], [f9.el(6)]])
    from_array = matrix_digits(f9, caller)
    for got in (from_rows, from_array):
        assert got.shape == (3, 1, 2) and got.dtype == np.int64
        assert not got.flags.writeable
        assert np.array_equal(got, caller)
    caller[0, 0, 0] = 0
    assert from_array[0, 0, 0] == 1
    code = LinearCode(f9, from_array)
    assert (code.n, code.k) == (3, 1) and np.array_equal(code.matrix, from_rows)
    assert code.images() == [[1], [5], [6]]
    assert not code.matrix.flags.writeable


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda f, g: np.ones((3, 2), dtype=np.int64), BadShape),
        (lambda f, g: np.ones((3, 1, 1, 2), dtype=np.int64), BadShape),
        (lambda f, g: np.ones((3, 1, 3), dtype=np.int64), BadShape),
        (lambda f, g: np.ones((3, 1, 2)), BadShape),
        (lambda f, g: np.ones((3, 1, 2), dtype=bool), BadShape),
        (lambda f, g: np.full((3, 1, 2), 3), OutOfRange),
        (lambda f, g: np.full((3, 1, 2), -1), OutOfRange),
        (lambda f, g: np.ones((0, 1, 2), dtype=np.int64), BadShape),
        (lambda f, g: np.ones((3, 0, 2), dtype=np.int64), BadShape),
        (lambda f, g: [], BadShape),
        (lambda f, g: [[]], BadShape),
        (lambda f, g: [f.one, f.one], BadShape),  # rows that are not sequences
        (lambda f, g: [[f.one], [f.one, f.el(2)], [f.one]], BadShape),
        (lambda f, g: [[f.one], [g.one], [f.el(2)]], FieldMismatch),
    ],
    ids=[
        "ndim_2",
        "ndim_4",
        "width_3",
        "float",
        "bool",
        "digit_p",
        "negative_digit",
        "no_rows",
        "no_columns",
        "empty_list",
        "one_empty_row",
        "element_rows",
        "ragged",
        "foreign_entry",
    ],
)
def test_matrix_way_in_rejects_malformed_matrices(f9, f4, monkeypatch, make, error):
    def refuse(field):
        raise AssertionError("expanded a malformed matrix")

    monkeypatch.setattr(gf, "_x_power_operators", refuse)
    bad = make(f9, f4)
    with pytest.raises(error):
        LinearCode(f9, bad)
    with pytest.raises(error):
        expand_operator(bad, f9)


def test_instance_holds_a_read_only_copy_of_its_vectors(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]])
    t, s = code.encode([f16.el(5)]), digit_rows(f16, [f16.el(5)]).copy()
    inst = DecodeInstance(code=code, t=t, w=0, s_true=s)
    t[0, 0] ^= 1
    s[0, 0] ^= 1
    assert np.array_equal(inst.t, code.encode([f16.el(5)]))
    assert np.array_equal(inst.s_true, digit_rows(f16, [f16.el(5)]))
    assert not inst.t.flags.writeable and not inst.s_true.flags.writeable


def _image_reference(x, y):
    return sum(abs(a.image - b.image) for a, b in zip(x, y))


def test_digit_images_are_exact_past_2_63():
    f = Field(2, 64)
    x, y = [f.el(0), f.el(0)], [f.el(2**64 - 1), f.el(2**64 - 1)]
    dist = manhattan_dist(f, digit_rows(f, x), digit_rows(f, y))
    assert dist == 2**65 - 2 == _image_reference(x, y)
    assert type(dist) is int
    assert manhattan_norm(f, digit_rows(f, y)) == 2**65 - 2
    assert digit_images(digit_rows(f, y), 2).tolist() == [2**64 - 1] * 2


@pytest.mark.parametrize("n", [1, 2])  # n * q = 2^62 (int64 images) and 2^63 (Python ints)
def test_digit_images_on_both_sides_of_the_int64_split(n):
    f = Field(2, 62)
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = [f.el(f.q - 1 - int(v)) for v in rng.integers(0, 4, n)]
        y = [f.el(int(v)) for v in rng.integers(0, 4, n)]
        x_rows, y_rows = digit_rows(f, x), digit_rows(f, y)
        images = digit_images(x_rows, 2)
        assert images.dtype == (np.int64 if n == 1 else object)
        assert images.tolist() == [e.image for e in x]
        assert manhattan_dist(f, x_rows, y_rows) == _image_reference(x, y)
        assert manhattan_norm(f, x_rows) == sum(e.image for e in x)


def test_large_degree_field_uses_exact_bigints():
    # images beyond native widths stay exact
    f = Field(2, 64)
    e = f.el(2**63 + 12345)
    assert e.image == 2**63 + 12345
    assert (e * e.inv()).image == 1
    a, b = f.el(2**62 + 7), f.el(2**61 + 9)
    assert ((a + b) - b) == a


def test_default_modulus_is_memoised_per_size():
    default_irreducible.cache_clear()
    a = Field(2, 8)
    b = Field(2, 8)
    assert a.poly is b.poly
    info = default_irreducible.cache_info()
    assert (info.misses, info.hits) == (1, 1)
