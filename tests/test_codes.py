import json

import numpy as np
import pytest

from pqdec.codes import (
    DecodeInstance,
    LinearCode,
    codeword_images,
    gen_instance,
    instance_from_json,
    instance_to_json,
    message_images,
    min_distance_bruteforce,
    nearest_codeword_oracle,
    plant_instance,
    random_code,
)
from pqdec.errors import (
    BadShape,
    BudgetExceeded,
    FieldMismatch,
    LengthMismatch,
    OutOfRange,
    PreconditionUnmet,
)
from pqdec.gf import Field, digit_images, digit_rows
from pqdec.metrics import manhattan_dist


def code_123(f4):
    return LinearCode(f4, [[f4.el(1)], [f4.el(2)], [f4.el(3)]])


# ---------------------------------------------------------------- encode

def test_encode_zero_is_zero(f4):
    code = code_123(f4)
    assert code.encode([f4.zero]).shape == (3, 2)
    assert not code.encode([f4.zero]).any()
    assert not code.encode(np.zeros((1, 2), dtype=np.int64)).any()


def test_encode_f4_column_code(f4):
    code = code_123(f4)
    assert digit_images(code.encode([f4.el(2)]), 2).tolist() == [2, 3, 1]
    assert digit_images(code.encode([f4.el(3)]), 2).tolist() == [3, 1, 2]
    with pytest.raises(LengthMismatch):
        code.encode([f4.el(1), f4.el(1)])


def test_encode_is_linear(f9):
    rng = np.random.default_rng(0)
    code = random_code(f9, 4, 2, rng)
    for _ in range(100):
        s1 = [f9.random_element(rng) for _ in range(2)]
        s2 = [f9.random_element(rng) for _ in range(2)]
        lhs = code.encode([a + b for a, b in zip(s1, s2)])
        rhs = (code.encode(s1) + code.encode(s2)) % 3
        assert np.array_equal(lhs, rhs)


def test_rank_check_rejects_dependent_columns(f4):
    with pytest.raises(BadShape):
        LinearCode(f4, [[f4.el(1), f4.el(2)], [f4.el(2), f4.el(3)], [f4.el(3), f4.el(1)]])
    with pytest.raises(BadShape):
        LinearCode(f4, [[f4.zero]])


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_rank_check_rejects_scaled_column(p, m):
    """Column 2 = x * column 1: F_p-independent digits, F_q-dependent columns."""
    f = Field(p, m)
    x = f.from_digits([0, 1] + [0] * (m - 2))
    col = [f.el(1), f.el(p + 1), f.el(2)]
    with pytest.raises(BadShape):
        LinearCode(f, [[c, c * x] for c in col])
    LinearCode(f, [[c, c * x + f.el(i == 0)] for i, c in enumerate(col)])


def reference_encode(code, s):
    """A @ s by FieldElement arithmetic, entry by entry."""
    f = code.field
    out = []
    for row in code.matrix:
        acc = f.zero
        for a, x in zip(row, s):
            acc = acc + f.from_digits(a.tolist()) * x
        out.append(acc)
    return tuple(out)


def image_distance(x, y):
    """The Manhattan distance of two FieldElement vectors, image by image."""
    return sum(abs(a.image - b.image) for a, b in zip(x, y))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 16), (3, 3), (5, 2), (7, 3)])
def test_encode_and_codeword_images_match_scalar_path(p, m):
    f = Field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    k = 1 if f.q > 1000 else 2
    code = random_code(f, 4, k, rng)
    for _ in range(20):
        s = [f.random_element(rng) for _ in range(k)]
        assert np.array_equal(code.encode(s), digit_rows(f, reference_encode(code, s)))
    imgs = codeword_images(code)
    msgs = message_images(f, k)
    assert imgs.shape == (f.q**k, 4)
    rows = rng.choice(imgs.shape[0], size=min(imgs.shape[0], 200), replace=False)
    for row in list(rows) + [0, imgs.shape[0] - 1]:
        s = [f.el(int(v)) for v in msgs[row]]
        assert [e.image for e in reference_encode(code, s)] == list(imgs[row])


def test_encode_matches_scalar_path_on_f2_64():
    f = Field(2, 64)
    rng = np.random.default_rng(64)
    code = random_code(f, 3, 2, rng)
    for _ in range(5):
        s = [f.random_element(rng) for _ in range(2)]
        assert np.array_equal(code.encode(s), digit_rows(f, reference_encode(code, s)))


def test_encode_rejects_foreign_message(f4, f9):
    with pytest.raises(FieldMismatch):
        code_123(f4).encode([f9.one])


def test_cached_operator_is_read_only(f9):
    code = random_code(f9, 3, 2, 0)
    with pytest.raises(ValueError):
        code.operator.entries[0, 0] = 1


# ---------------------------------------------------------------- random codes

def test_random_code_reproducible(f16):
    a = random_code(f16, 4, 2, 123)
    b = random_code(f16, 4, 2, 123)
    assert a.images() == b.images()


def test_random_code_1x1_nonzero(f4):
    for seed in range(10):
        code = random_code(f4, 1, 1, seed)
        assert code.images()[0][0] != 0


def test_random_code_bad_shape(f4):
    with pytest.raises(BadShape):
        random_code(f4, 1, 2, 0)


def per_element_code(f, n, k, rng):
    """random_code as one generator draw per element, the reference for its single draw."""
    draws = 0
    while True:
        draws += 1
        matrix = [
            [f.from_digits(rng.integers(0, f.p, f.m).tolist()) for _ in range(k)]
            for _ in range(n)
        ]
        try:
            return LinearCode(f, matrix), draws
        except BadShape:
            continue


@pytest.mark.parametrize(
    "p,m,n,k,seed,redrawn",
    [
        (2, 3, 4, 2, 0, False),
        (2, 8, 8, 2, 7, False),
        (3, 2, 3, 2, 1, False),
        (5, 1, 4, 3, 2, False),
        (5, 3, 2, 1, 3, False),
        # the first digit each of these seeds draws is 0: the 1 x 1 zero matrix is redrawn
        (2, 1, 1, 1, 1, True),
        (3, 1, 1, 1, 11, True),
        (5, 1, 1, 1, 11, True),
    ],
)
def test_random_code_draws_like_per_element_calls(p, m, n, k, seed, redrawn):
    f = Field(p, m)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    code = random_code(f, n, k, rng)
    want, draws = per_element_code(f, n, k, ref)
    assert np.array_equal(code.matrix, want.matrix)
    assert (draws > 1) == redrawn
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("p,m,k", [(2, 4, 3), (3, 2, 2), (5, 1, 4)])
def test_gen_instance_message_draws_like_per_element_calls(p, m, k):
    f = Field(p, m)
    code = random_code(f, k + 1, k, 0)
    inst = gen_instance(code, 0, 13)
    ref = np.random.default_rng(13)
    want = [f.from_digits(ref.integers(0, p, m).tolist()) for _ in range(k)]
    assert np.array_equal(inst.s_true, digit_rows(f, want))


# ---------------------------------------------------------------- min distance

def test_min_distance_f4_column_code(f4):
    code = code_123(f4)
    # independent enumeration with plain field ops
    words = [reference_encode(code, [f4.el(s)]) for s in range(4)]
    expected = min(
        image_distance(words[i], words[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert expected == 4
    assert min_distance_bruteforce(code) == 4
    assert code.d == 4


def test_min_distance_repetition_f16(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(1)]])
    words = [code.encode([f16.el(s)]) for s in range(16)]
    expected = min(
        manhattan_dist(f16, words[i], words[j])
        for i in range(16)
        for j in range(i + 1, 16)
    )
    assert min_distance_bruteforce(code) == expected == 2


def test_min_distance_budget(f16):
    code = random_code(f16, 4, 2, 0)
    with pytest.raises(BudgetExceeded):
        min_distance_bruteforce(code, budget=100)


def test_codeword_images_match_encode(f9):
    code = random_code(f9, 3, 2, 5)
    imgs = codeword_images(code)
    msgs = message_images(f9, 2)
    for row in range(0, imgs.shape[0], 7):
        s = [f9.el(int(v)) for v in msgs[row]]
        assert digit_images(code.encode(s), 3).tolist() == list(imgs[row])


# ---------------------------------------------------------------- oracle

def test_oracle_on_codeword(f4):
    code = code_123(f4)
    s = (f4.el(3),)
    s_star, dist = nearest_codeword_oracle(code, code.encode(s))
    assert np.array_equal(s_star, digit_rows(f4, s)) and dist == 0


def test_oracle_recovers_planted(f4):
    code = code_123(f4)
    min_distance_bruteforce(code)
    # error weight 1 < d/2 = 2, so the plant is the unique nearest codeword
    for s_img in range(4):
        s = (f4.el(s_img),)
        t = list(reference_encode(code, s))
        t[0] = t[0] + f4.one
        s_star, dist = nearest_codeword_oracle(code, digit_rows(f4, t))
        assert np.array_equal(s_star, digit_rows(f4, s))
        assert dist == 1


def test_oracle_tie_breaks_lexicographically(f4):
    code = LinearCode(f4, [[f4.el(1)], [f4.el(1)]])
    # t = (0, 1) is at distance 1 from both message 0 and message 1
    t = digit_rows(f4, (f4.el(0), f4.el(1)))
    s_star, dist = nearest_codeword_oracle(code, t)
    assert dist == 1
    assert digit_images(s_star, 2).tolist() == [0]  # smallest image wins
    again, _ = nearest_codeword_oracle(code, t)
    assert np.array_equal(again, s_star)


# ---------------------------------------------------------------- instances

def test_gen_instance_zero_budget_is_codeword(f4):
    code = code_123(f4)
    inst = gen_instance(code, 0, seed=3)
    assert np.array_equal(inst.t, code.encode(inst.s_true))
    assert inst.w == 0


def test_gen_instance_respects_bound(f16):
    code = random_code(f16, 4, 2, 9)
    for seed in range(30):
        inst = gen_instance(code, 8, seed=seed)
        assert manhattan_dist(f16, inst.t, code.encode(inst.s_true)) <= 8


def test_gen_instance_error_images_uniform(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(1)], [f16.el(1)], [f16.el(1)]])
    w, n = 12, 4  # per-coordinate bound floor(w/n) = 3
    rng = np.random.default_rng(11)
    counts = np.zeros(4, dtype=np.int64)
    draws = 2500
    for _ in range(draws):
        inst = gen_instance(code, w, rng)
        cw = code.encode(inst.s_true)
        for image in digit_images((inst.t - cw) % 2, 2):
            counts[image] += 1
    freqs = counts / (draws * n)
    assert counts.sum() == draws * n  # every error image stayed in [0, 3]
    assert np.all(np.abs(freqs - 0.25) < 0.02)


@pytest.mark.parametrize("seed", range(1, 6))
def test_gen_instance_caps_each_error_image_at_q_minus_1(f4, seed):
    # w // n = 50 is past q - 1 = 3: each error image is drawn from all of
    # F_4 instead of reaching an image F_4 does not have
    code = LinearCode(f4, [[f4.el(2)], [f4.el(3)]])
    inst = gen_instance(code, 100, seed=seed)
    assert inst.w == 100
    assert manhattan_dist(f4, inst.t, code.encode(inst.s_true)) <= 2 * (f4.q - 1)


def test_gen_instance_refuses_an_error_bound_past_int64():
    # F_{2^64} at n = 2: w = 2^64 puts w // n = 2^63 past the int64 draw,
    # while w = 2^64 - 2 (bound 2^63 - 1) is still drawn
    f = Field(2, 64)
    code = random_code(f, 2, 1, 1)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionUnmet):
        gen_instance(code, 2**64, rng)
    assert rng.bit_generator.state == state  # refused before any draw
    inst = gen_instance(code, 2**64 - 2, rng)
    assert inst.w == 2**64 - 2
    assert manhattan_dist(f, inst.t, code.encode(inst.s_true)) <= inst.w


def test_plant_instance_records_actual_distance(f9):
    code = random_code(f9, 3, 1, 2)
    s = (f9.el(5),)
    e = (f9.el(1), f9.el(0), f9.el(2))
    inst = plant_instance(code, s, e)
    t = [c + err for c, err in zip(reference_encode(code, s), e)]
    assert np.array_equal(inst.t, digit_rows(f9, t))
    assert inst.w == image_distance(t, reference_encode(code, s))
    assert np.array_equal(inst.s_true, digit_rows(f9, s))


def test_plant_instance_rejects_error_of_wrong_length(f4):
    code = code_123(f4)
    s = (f4.el(1),)
    with pytest.raises(LengthMismatch):
        plant_instance(code, s, (f4.zero,) * 3 + (f4.el(3),))  # not dropped as w = 0
    with pytest.raises(LengthMismatch):
        plant_instance(code, s, (f4.zero,) * 2)


@pytest.mark.parametrize(
    "where,foreign",
    [
        ("t", Field(2, 4, [1, 0, 0, 1]).el(1)),  # F_16 under another modulus
        ("t", Field(3, 2).el(1)),
        ("s_true", Field(3, 2).el(1)),
        ("s_true", Field(2, 4, [1, 0, 0, 1]).el(1)),
        ("oracle", Field(3, 2).el(8)),  # a bare target, read by its image once
    ],
    ids=["t_other_modulus", "t_f9", "s_true_f9", "s_true_other_modulus", "oracle_t_f9"],
)
def test_instance_rejects_an_entry_from_another_field(f16, where, foreign):
    # the check is made when the instance is built, so no decoder reads it,
    # and the oracle, which takes a bare target, makes it itself; the
    # foreign entry is the last one, past what a first-entry check sees
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]])
    parts = {"t": list(reference_encode(code, (f16.el(5),))), "s_true": [f16.el(5)]}
    parts["t" if where == "oracle" else where][-1] = foreign
    with pytest.raises(FieldMismatch):
        if where == "oracle":
            nearest_codeword_oracle(code, tuple(parts["t"]))
        else:
            DecodeInstance(code=code, t=tuple(parts["t"]), w=0, s_true=tuple(parts["s_true"]))


@pytest.mark.parametrize(
    "where,bad,error",
    [
        ("t", np.zeros((3, 3), dtype=np.int64), BadShape),  # width 3 over F_16
        ("t", np.zeros((3, 4)), BadShape),  # float digits
        ("t", np.full((3, 4), -1), OutOfRange),
        ("s_true", np.full((1, 4), 2), OutOfRange),
    ],
    ids=["t_width", "t_float", "t_negative_digit", "s_true_digit_p"],
)
def test_instance_rejects_malformed_digit_rows(f16, where, bad, error):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]])
    parts = {"t": code.encode([f16.el(5)]), "s_true": digit_rows(f16, [f16.el(5)])}
    parts[where] = bad
    with pytest.raises(error):
        DecodeInstance(code=code, t=parts["t"], w=0, s_true=parts["s_true"])


def test_instance_json_round_trip(f9):
    code = random_code(f9, 3, 1, 4)
    min_distance_bruteforce(code)
    inst = gen_instance(code, 3, seed=8)
    obj = json.loads(json.dumps(instance_to_json(inst)))
    back = instance_from_json(obj)
    assert back.code.images() == inst.code.images()
    assert back.code.d == inst.code.d
    assert np.array_equal(back.t, inst.t)
    assert back.w == inst.w
    assert np.array_equal(back.s_true, inst.s_true)


def test_instance_json_unbounded_and_unplanted(f9):
    code = random_code(f9, 3, 1, 4)
    inst = DecodeInstance(code=code, t=code.encode((f9.el(2),)), w=None)
    obj = json.loads(json.dumps(instance_to_json(inst)))
    assert obj["w"] is None and "s_true" not in obj
    back = instance_from_json(obj)
    assert back.w is None and back.s_true is None and back.code.d is None


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda obj: obj.update(t=obj["t"][:-1]), LengthMismatch),
        (lambda obj: obj.update(t=obj["t"] + [0]), LengthMismatch),
        (lambda obj: obj.update(s_true=obj["s_true"] + [1]), LengthMismatch),
        (lambda obj: obj.update(s_true=[]), LengthMismatch),
        (lambda obj: obj.update(w=-1), BadShape),
        (lambda obj: obj.pop("t"), BadShape),
        (lambda obj: obj.pop("A"), BadShape),
        (lambda obj: obj.update(A=[]), BadShape),
        (lambda obj: obj.update(A=[obj["A"][0], obj["A"][1] + [1], obj["A"][2]]), BadShape),
        (lambda obj: obj.update(A=[[]]), BadShape),
        (lambda obj: obj.pop("field"), BadShape),
        (lambda obj: obj["field"].pop("poly"), BadShape),
        (lambda obj: obj.update(t="abc"), BadShape),
        (lambda obj: obj.update(d="abc"), BadShape),
        (lambda obj: obj.update(w=float("inf")), BadShape),
        (lambda obj: obj.update(d=float("inf")), BadShape),
        (lambda obj: obj.update(t=obj["t"][:-1] + [float("inf")]), BadShape),
        (lambda obj: obj.update(n=obj["n"] + 1), BadShape),
        (lambda obj: obj.update(k=5), BadShape),
        (lambda obj: obj.update(d=-3), BadShape),
        (lambda obj: obj.update(d=0), BadShape),
        (lambda obj: obj.update(d=3 * 8 + 1), BadShape),  # n*(q-1) + 1 on F_9, n = 3
        # numbers that int() would truncate or coerce
        (lambda obj: obj.update(t=[1.9] + obj["t"][1:]), BadShape),
        (lambda obj: obj.update(w=2.5), BadShape),
        (lambda obj: obj.update(s_true=[0.5]), BadShape),
        (lambda obj: obj.update(t=obj["t"][:-1] + [True]), BadShape),
        (lambda obj: obj.update(w="4"), BadShape),
        (lambda obj: obj.update(field={"p": 2.9, "m": "3", "poly": [1.5, 1, 0]}), BadShape),
        (lambda obj: obj.update(k=True), BadShape),  # True == 1 == k
    ],
    ids=[
        "short_t",
        "long_t",
        "long_s_true",
        "empty_s_true",
        "negative_w",
        "missing_t",
        "missing_A",
        "empty_A",
        "ragged_A",
        "A_of_one_empty_row",
        "missing_field",
        "missing_poly",
        "text_t",
        "text_d",
        "infinite_w",
        "infinite_d",
        "infinite_t",
        "header_n_mismatch",
        "header_k_mismatch",
        "negative_d",
        "zero_d",
        "d_above_max",
        "fractional_t",
        "fractional_w",
        "fractional_s_true",
        "bool_t",
        "text_w",
        "fractional_field",
        "bool_header_k",
    ],
)
def test_instance_from_json_rejects_malformed(f9, mutate, error):
    obj = instance_to_json(gen_instance(random_code(f9, 3, 1, 4), 3, seed=8))
    instance_from_json(obj)  # the unmutated instance is accepted
    mutate(obj)
    with pytest.raises(error):
        instance_from_json(obj)
