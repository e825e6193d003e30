"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass.  Tolerances are pinned here and nowhere else.
"""

import time
from itertools import product

import numpy as np
import pytest

from pqdec.baselines import (
    SeparationConfig,
    direct_inversion_decode,
    invertibility_stats,
    separation_experiment,
    singularity_oracle,
)
from pqdec.codes import (
    LinearCode,
    gen_instance,
    min_distance_bruteforce,
    nearest_codeword_oracle,
    plant_instance,
    random_code,
)
from pqdec.decoder import decode_dense, decode_structured
from pqdec.gf import (
    Field,
    digit_images,
    digit_rows,
    expand_operator,
    label_to_digits,
    top_digit_submatrix,
)
from pqdec.hardness import (
    SetCoverInstance,
    build_gadget,
    gadget_distance_bruteforce,
    min_cover_size_bruteforce,
    verify_gap,
)
from pqdec.metrics import manhattan_dist, manhattan_norm
from pqdec.modp import invertibility_product, rank
from pqdec.qsim import (
    PcsSampler,
    SigmaParam,
    cube_overlap,
    cube_vector,
    pcs_state_direct,
    shift_cube_vector,
)

from conftest import reference_label_law, with_low_factor

F4 = Field(2, 2)
F8 = Field(2, 3)
F9 = Field(3, 2)
F16 = Field(2, 4)


def report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def column_codes(field: Field, n: int, want_d: int, limit: int) -> list[LinearCode]:
    """Rank-one codes with a prescribed minimum distance, in generator order."""
    found = []
    for images in product(range(1, field.q), repeat=n):
        code = LinearCode(field, [[field.el(v)] for v in images])
        if min_distance_bruteforce(code) == want_d:
            found.append(code)
            if len(found) == limit:
                break
    return found


# ------------------------------------------------------------------ 1

def test_criterion_01_field_exactness():
    started = time.perf_counter()
    ok = True
    ok &= (F16.el(1) + F16.el(3)).image == 2
    ok &= (F4.el(2) * F4.el(2)).image == 3
    ok &= (F4.el(2) * F4.el(3)).image == 1
    ok &= F4.el(2).inv().image == 3
    ok &= F9.from_digits([0, 1]).inv().digits == (0, 2)
    ok &= F8.from_digits([1, 0, 1]).image == 5
    matrix = [[F4.el(1), F4.el(2)], [F4.el(3), F4.el(0)]]
    expanded = expand_operator(matrix, F4)
    ok &= np.array_equal(
        expanded.entries,
        np.array([[1, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]),
    )
    displayed = expanded.entries[np.ix_([0, 2], [0, 2])]
    ok &= np.array_equal(displayed, np.array([[1, 0], [1, 0]]))
    ok &= rank(displayed, 2) == 1  # not invertible over F_2
    ok &= rank(expanded.entries[np.ix_([1, 3], [1, 3])], 2) == 1
    ok &= rank(top_digit_submatrix(expanded, 1), 2) < 4
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, f"field exactness incl. 1+3=2 and singular submatrix ({elapsed:.3f}s)", ok)


# ------------------------------------------------------------------ 2

def test_criterion_02_cube_state_laws():
    started = time.perf_counter()
    checked = 0
    ok = True
    for field in (F4, F8, F9, F16):
        for n in (1, 2):
            zero = tuple(field.zero for _ in range(n))
            for r in range(field.m):
                sigma = SigmaParam.from_r(field, r)
                c0 = cube_vector(field, n, zero, sigma)
                for images in product(range(field.q), repeat=n):
                    delta = digit_rows(field, [field.el(v) for v in images])
                    cd = cube_vector(field, n, delta, sigma)
                    dense = np.vdot(c0, cd)
                    analytic = cube_overlap(field, delta, sigma)
                    ok &= abs(dense - analytic) < 1e-10
                    if all(v < sigma.sigma for v in images):
                        # strict close form: the states coincide
                        ok &= np.allclose(c0, cd, atol=1e-10)
                        ok &= abs(analytic - 1.0) < 1e-10
                    if manhattan_norm(field, delta) > n * sigma.sigma:
                        ok &= abs(analytic) < 1e-10
                    checked += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(2, f"cube-state laws on {checked} exhaustive overlaps ({elapsed:.1f}s)", ok)


# ------------------------------------------------------------------ 3

def test_criterion_03_eigenphase_exhaustive():
    started = time.perf_counter()
    code = LinearCode(F4, [[F4.el(2)], [F4.el(3)]])
    sigma = SigmaParam.from_r(F4, 1)
    errors = [(0, 0), (1, 0), (0, 1)]  # Manhattan distance <= sigma/n = 1
    ok = True
    checked = 0
    for s_img in range(4):
        s = (F4.el(s_img),)
        s_digits = np.array([d for e in s for d in e.digits])
        for err in errors:
            e = digit_rows(F4, [F4.el(v) for v in err])
            t = (code.encode(s) + e) % 2
            ok &= manhattan_dist(F4, t, code.encode(s)) <= 1
            for label in product(range(2), repeat=2):
                phi = pcs_state_direct(code, sigma, label)
                shifted = shift_cube_vector(phi, F4, t)
                phase = int(np.array(label) @ s_digits) % 2
                ok &= np.allclose(shifted, (-1.0) ** phase * phi, atol=1e-10)
                checked += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(3, f"eigenphase law, {checked} exhaustive label/plant pairs ({elapsed:.1f}s)", ok)


# ------------------------------------------------------------------ 4

def test_criterion_04_sampler_uniformity():
    started = time.perf_counter()
    configs = [
        (LinearCode(F4, [[F4.el(1)], [F4.el(2)], [F4.el(3)]], d=4), 0),
        (LinearCode(F9, [[F9.el(1)], [F9.el(3)]], d=3), 0),
        (LinearCode(F16, [[F16.el(1)], [F16.el(2)], [F16.el(4)]], d=7), 1),
        (LinearCode(F16, [[F16.el(1)], [F16.el(2)], [F16.el(4)]], d=7), 0),
    ]
    ok = True
    for code, r in configs:
        sigma = SigmaParam.from_r(code.field, r)
        assert code.d > sigma.sigma * code.n
        sampler = PcsSampler(code, sigma)
        expected = code.field.q ** (-code.k)
        ok &= np.max(np.abs(reference_label_law(code, sigma) - expected)) < 1e-12
        for idx in range(sampler.layout.label_dim):
            label = tuple(label_to_digits(idx, sampler.layout.label_digits, code.field.p).tolist())
            ok &= np.allclose(
                with_low_factor(sampler, sampler.collapse(label)),
                pcs_state_direct(code, sigma, label),
                atol=1e-10,
            )
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(4, f"sampler label marginal exactly uniform, states match ({elapsed:.1f}s)", ok)


# ------------------------------------------------------------------ 5

def test_criterion_05_end_to_end_decoder():
    """At least 50 window-satisfying instances across q in {4, 9, 16}.

    sigma = p^r sits inside (d/(pn), d/n) for every instance.  The q=4
    and q=9 runs are zero error (their promise d/(p n^2) is below one
    unit); the q=16 side-2 runs also carry nonzero errors, which the
    eigenphase condition covers even though they exceed d/(p n^2).
    """
    started = time.perf_counter()
    instances = []
    for i, code in enumerate(column_codes(F4, 3, 4, 6)):  # window: 3 < 4 < 6
        for seed in (2 * i, 2 * i + 1):
            instances.append((gen_instance(code, 0, seed=seed), 0))
    for i, code in enumerate(column_codes(F9, 2, 3, 12)):  # window: 2 < 3 < 6
        for seed in (3 * i, 3 * i + 1):
            instances.append((gen_instance(code, 0, seed=seed), 0))
    q16_codes = column_codes(F16, 3, 7, 6)  # window: 7/6 < 2 < 7/3
    rng = np.random.default_rng(99)
    for i, code in enumerate(q16_codes):
        instances.append((gen_instance(code, 0, seed=i), 1))
        s = (F16.random_element(rng),)
        e = tuple(F16.el(int(v)) for v in rng.integers(0, 2, size=3))
        instances.append((plant_instance(code, s, e), 1))
    for i, code in enumerate(column_codes(F16, 2, 3, 4)):  # window: 2 < 3 < 4
        instances.append((gen_instance(code, 0, seed=50 + i), 0))
    ok = len(instances) >= 50
    agreements = 0
    for idx, (inst, r) in enumerate(instances):
        sigma = SigmaParam.from_r(inst.field, r)
        d, n, p = inst.code.d, inst.code.n, inst.field.p
        ok &= d / (p * n) < sigma.sigma < d / n
        dense = decode_dense(inst, sigma, seed=idx)
        ok &= dense.peak_probability >= 1 - 1e-9
        ok &= dense.s_hat == tuple(digit_images(inst.s_true, p).tolist())
        structured = decode_structured(inst, sigma, seed=idx)
        ok &= structured.s_hat == dense.s_hat
        ok &= structured.resample_rounds == dense.resample_rounds
        agreements += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed < 600.0
    report(
        5,
        f"end-to-end on {len(instances)} instances, {agreements} backend "
        f"agreements ({elapsed:.1f}s)",
        ok,
    )


# ------------------------------------------------------------------ 6

def test_criterion_06_structured_scale():
    started = time.perf_counter()
    field = Field(2, 16)
    rng = np.random.default_rng(616)
    code = random_code(field, 32, 4, rng)
    sigma = SigmaParam.from_r(field, 8)
    recovered = 0
    worst = 0.0
    for seed in range(1000):
        inst_rng = np.random.default_rng(70_000 + seed)
        s = tuple(field.random_element(inst_rng) for _ in range(4))
        e = tuple(field.el(int(v)) for v in inst_rng.integers(0, 256, size=32))
        inst = plant_instance(code, s, e)
        t0 = time.perf_counter()
        res = decode_structured(inst, sigma, seed=seed)
        worst = max(worst, time.perf_counter() - t0)
        if res.s_hat == tuple(x.image for x in s):
            recovered += 1
    ok = recovered == 1000 and worst < 0.1
    elapsed = time.perf_counter() - started
    report(
        6,
        f"structured n=32 q=2^16 k=4: {recovered}/1000 recovered, "
        f"worst run {worst * 1e3:.1f}ms ({elapsed:.1f}s)",
        ok,
    )


# ------------------------------------------------------------------ 7

def test_criterion_07_invertibility_constant():
    started = time.perf_counter()
    ok = True
    freqs = {}
    for p in (2, 3, 5):
        freq = invertibility_stats(p, 20, 10_000, seed=p)
        freqs[p] = freq
        ok &= abs(freq - invertibility_product(p)) <= 0.02
    # resample rounds in the decoder, p = 2, T = 20
    field = Field(2, 10)
    rng = np.random.default_rng(7)
    code = random_code(field, 4, 2, rng)
    sigma = SigmaParam.from_r(field, 1)
    rounds = []
    for seed in range(1000):
        inst = gen_instance(code, 0, seed=seed)
        rounds.append(decode_structured(inst, sigma, seed=seed).resample_rounds)
    mean_rounds = float(np.mean(rounds))
    ok &= mean_rounds <= 4.0
    elapsed = time.perf_counter() - started
    report(
        7,
        f"invertibility {freqs} vs products, mean rounds {mean_rounds:.2f} "
        f"({elapsed:.1f}s)",
        ok,
    )


# ------------------------------------------------------------------ 8

def test_criterion_08_classical_baseline_honesty():
    started = time.perf_counter()
    field = Field(2, 8)
    rng = np.random.default_rng(88)
    singular = 0
    trials = 1500
    wrong_recovered = 0
    for _ in range(trials):
        code = random_code(field, 8, 2, rng)
        s = tuple(field.random_element(rng) for _ in range(2))
        e = tuple(field.el(int(v)) for v in rng.integers(0, 2**6, size=8))
        inst = plant_instance(code, s, e)
        rep = direct_inversion_decode(inst, 6)  # square 16 x 16 system
        if rep.status == "singular":
            singular += 1
        elif rep.status == "recovered" and rep.s_hat != tuple(x.image for x in s):
            wrong_recovered += 1
    freq = singular / trials
    ok = wrong_recovered == 0
    ok &= abs(freq - singularity_oracle(2)) <= 0.03
    rows = separation_experiment(SeparationConfig(p=2, m=8, n=8, k=2, trials=300, seed=8))
    tight = rows[0]
    gap = tight["quantum_success"] - tight["classical_success"]
    ok &= gap >= 0.3
    elapsed = time.perf_counter() - started
    report(
        8,
        f"no wrong recovery; square singularity {freq:.3f} vs "
        f"{singularity_oracle(2):.3f}; tight-promise gap {gap:.2f} ({elapsed:.1f}s)",
        ok,
    )


# ------------------------------------------------------------------ 9

def test_criterion_09_hardness_gadget():
    started = time.perf_counter()
    f2 = Field(2, 1)
    f3 = Field(3, 1)
    rng = np.random.default_rng(9)
    ok = True
    yes_count = 0
    # YES family: random partitions of the universe into K nonempty sets,
    # plus decoy sets that can only lower OPT
    for trial in range(20):
        u = int(rng.integers(3, 7))
        k_cover = int(rng.integers(2, min(4, u) + 1))
        perm = rng.permutation(u)
        cuts = sorted(rng.choice(np.arange(1, u), size=k_cover - 1, replace=False))
        parts = np.split(perm, cuts)
        sets = [frozenset(int(x) for x in part) for part in parts]
        decoys = int(rng.integers(0, 3))
        for _ in range(decoys):
            size = int(rng.integers(1, u + 1))
            decoy = frozenset(int(x) for x in rng.choice(u, size=size, replace=False))
            sets.append(decoy)
        field = f3 if trial % 4 == 3 else f2
        c = int(rng.integers(field.p + 1, field.p + 3))
        sc = SetCoverInstance(universe_size=u, sets=tuple(sets), K=k_cover, c=c)
        gadget = build_gadget(sc, field)
        rep = verify_gap(gadget, exact_cover=list(range(k_cover)))
        ok &= rep.passed and rep.opt <= (field.p - 1) * k_cover
        yes_count += 1
    no_count = 0
    # singleton starvation: every cover needs all u sets, u >= c*K
    no_params = [
        (4, 1, 3), (5, 1, 3), (6, 1, 3), (6, 2, 3), (7, 1, 3),
        (7, 2, 3), (8, 1, 4), (8, 2, 4), (9, 1, 4), (9, 3, 3),
    ]
    for u, k_cover, c in no_params:
        sets = tuple(frozenset({x}) for x in range(u))
        sc = SetCoverInstance(universe_size=u, sets=sets, K=k_cover, c=c)
        min_cover = min_cover_size_bruteforce(sc)
        assert min_cover == u >= c * k_cover
        gadget = build_gadget(sc, f2)
        rep = verify_gap(gadget, min_cover_size=min_cover)
        ok &= rep.passed and rep.opt >= c * k_cover
        no_count += 1
    ok &= yes_count >= 20 and no_count >= 10
    # oracle agreement on a few gadgets
    for u, k_cover, c in [(3, 1, 3), (4, 2, 3)]:
        sets = [frozenset(range(u))] if k_cover == 1 else [
            frozenset(range(u // 2)), frozenset(range(u // 2, u))
        ]
        sets.append(frozenset({0}))
        sc = SetCoverInstance(universe_size=u, sets=tuple(sets), K=k_cover, c=c)
        gadget = build_gadget(sc, f2)
        opt, _ = gadget_distance_bruteforce(gadget)
        _, oracle_dist = nearest_codeword_oracle(gadget.code, gadget.b0)
        ok &= opt == oracle_dist
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    report(
        9,
        f"gadget gap on {yes_count} YES / {no_count} NO instances, oracle "
        f"agreement ({elapsed:.1f}s)",
        ok,
    )


# ------------------------------------------------------------------ 10

def test_criterion_10_random_code_distance():
    started = time.perf_counter()
    threshold = F4.q ** (1 - 2 / 8) / 2  # q^(1-k/n)/2 ~ 1.414
    hits = 0
    rng = np.random.default_rng(10)
    for _ in range(1000):
        code = random_code(F4, 8, 2, rng)
        if min_distance_bruteforce(code) >= threshold:
            hits += 1
    ok = hits >= 950
    elapsed = time.perf_counter() - started
    report(
        10,
        f"random-code distance >= q^(1-k/n)/2 in {hits}/1000 draws ({elapsed:.1f}s)",
        ok,
    )
