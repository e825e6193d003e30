import json
import math
from types import SimpleNamespace

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
from pqdec.errors import BadShape, BudgetExceeded, FieldMismatch, LengthMismatch
from pqdec.gf import Field
from pqdec.metrics import manhattan_dist


def code_123(f4):
    return LinearCode(f4, [[f4.el(1)], [f4.el(2)], [f4.el(3)]])


# ---------------------------------------------------------------- encode

def test_encode_zero_is_zero(f4):
    code = code_123(f4)
    assert all(e.image == 0 for e in code.encode([f4.zero]))


def test_encode_f4_column_code(f4):
    code = code_123(f4)
    assert [e.image for e in code.encode([f4.el(2)])] == [2, 3, 1]
    assert [e.image for e in code.encode([f4.el(3)])] == [3, 1, 2]
    with pytest.raises(LengthMismatch):
        code.encode([f4.el(1), f4.el(1)])


def test_encode_is_linear(f9):
    rng = np.random.default_rng(0)
    code = random_code(f9, 4, 2, rng)
    for _ in range(100):
        s1 = [f9.random_element(rng) for _ in range(2)]
        s2 = [f9.random_element(rng) for _ in range(2)]
        lhs = code.encode([a + b for a, b in zip(s1, s2)])
        rhs = [a + b for a, b in zip(code.encode(s1), code.encode(s2))]
        assert lhs == tuple(rhs)


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
    out = []
    for row in code.matrix:
        acc = code.field.zero
        for a, x in zip(row, s):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 16), (3, 3), (5, 2), (7, 3)])
def test_encode_and_codeword_images_match_scalar_path(p, m):
    f = Field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    k = 1 if f.q > 1000 else 2
    code = random_code(f, 4, k, rng)
    for _ in range(20):
        s = [f.random_element(rng) for _ in range(k)]
        assert code.encode(s) == reference_encode(code, s)
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
        assert code.encode(s) == reference_encode(code, s)


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
        assert code.matrix[0][0].image != 0


def test_random_code_bad_shape(f4):
    with pytest.raises(BadShape):
        random_code(f4, 1, 2, 0)


# ---------------------------------------------------------------- min distance

def test_min_distance_sentinel_for_no_pairs(f4):
    fake = SimpleNamespace(field=f4, n=2, k=0, matrix=())
    assert min_distance_bruteforce(fake) == math.inf


def test_min_distance_f4_column_code(f4):
    code = code_123(f4)
    # independent enumeration with plain field ops
    words = [code.encode([f4.el(s)]) for s in range(4)]
    expected = min(
        manhattan_dist(words[i], words[j])
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
        manhattan_dist(words[i], words[j])
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
        assert [e.image for e in code.encode(s)] == list(imgs[row])


# ---------------------------------------------------------------- oracle

def test_oracle_on_codeword(f4):
    code = code_123(f4)
    s = (f4.el(3),)
    s_star, dist = nearest_codeword_oracle(code, code.encode(s))
    assert s_star == s and dist == 0


def test_oracle_recovers_planted(f4):
    code = code_123(f4)
    min_distance_bruteforce(code)
    # error weight 1 < d/2 = 2, so the plant is the unique nearest codeword
    for s_img in range(4):
        s = (f4.el(s_img),)
        t = list(code.encode(s))
        t[0] = t[0] + f4.one
        s_star, dist = nearest_codeword_oracle(code, tuple(t))
        assert s_star == s
        assert dist == 1


def test_oracle_tie_breaks_lexicographically(f4):
    code = LinearCode(f4, [[f4.el(1)], [f4.el(1)]])
    # t = (0, 1) is at distance 1 from both message 0 and message 1
    t = (f4.el(0), f4.el(1))
    s_star, dist = nearest_codeword_oracle(code, t)
    assert dist == 1
    assert s_star[0].image == 0  # smallest image wins
    again, _ = nearest_codeword_oracle(code, t)
    assert again == s_star


# ---------------------------------------------------------------- instances

def test_gen_instance_zero_budget_is_codeword(f4):
    code = code_123(f4)
    inst = gen_instance(code, 0, seed=3)
    assert inst.t == code.encode(inst.s_true)
    assert inst.w == 0


def test_gen_instance_respects_bound(f16):
    code = random_code(f16, 4, 2, 9)
    for seed in range(30):
        inst = gen_instance(code, 8, seed=seed)
        assert manhattan_dist(inst.t, code.encode(inst.s_true)) <= 8


def test_gen_instance_error_images_uniform(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(1)], [f16.el(1)], [f16.el(1)]])
    w, n = 12, 4  # per-coordinate bound floor(w/n) = 3
    rng = np.random.default_rng(11)
    counts = np.zeros(4, dtype=np.int64)
    draws = 2500
    for _ in range(draws):
        inst = gen_instance(code, w, rng)
        cw = code.encode(inst.s_true)
        for a, b in zip(inst.t, cw):
            counts[(a - b).image] += 1
    freqs = counts / (draws * n)
    assert counts.sum() == draws * n  # every error image stayed in [0, 3]
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_plant_instance_records_actual_distance(f9):
    code = random_code(f9, 3, 1, 2)
    s = (f9.el(5),)
    e = (f9.el(1), f9.el(0), f9.el(2))
    inst = plant_instance(code, s, e)
    assert inst.w == manhattan_dist(inst.t, code.encode(s))
    assert inst.s_true == s


def test_plant_instance_rejects_error_of_wrong_length(f4):
    code = code_123(f4)
    s = (f4.el(1),)
    with pytest.raises(LengthMismatch):
        plant_instance(code, s, (f4.zero,) * 3 + (f4.el(3),))  # not dropped as w = 0
    with pytest.raises(LengthMismatch):
        plant_instance(code, s, (f4.zero,) * 2)


def test_instance_json_round_trip(f9):
    code = random_code(f9, 3, 1, 4)
    min_distance_bruteforce(code)
    inst = gen_instance(code, 3, seed=8)
    obj = json.loads(json.dumps(instance_to_json(inst)))
    back = instance_from_json(obj)
    assert back.code.images() == inst.code.images()
    assert back.code.d == inst.code.d
    assert [e.image for e in back.t] == [e.image for e in inst.t]
    assert back.w == inst.w
    assert back.s_true == inst.s_true


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
        (lambda obj: obj.pop("field"), BadShape),
        (lambda obj: obj["field"].pop("poly"), BadShape),
        (lambda obj: obj.update(t="abc"), BadShape),
        (lambda obj: obj.update(d="abc"), BadShape),
    ],
    ids=[
        "short_t",
        "long_t",
        "long_s_true",
        "empty_s_true",
        "negative_w",
        "missing_t",
        "missing_A",
        "missing_field",
        "missing_poly",
        "text_t",
        "text_d",
    ],
)
def test_instance_from_json_rejects_malformed(f9, mutate, error):
    obj = instance_to_json(gen_instance(random_code(f9, 3, 1, 4), 3, seed=8))
    instance_from_json(obj)  # the unmutated instance is accepted
    mutate(obj)
    with pytest.raises(error):
        instance_from_json(obj)
