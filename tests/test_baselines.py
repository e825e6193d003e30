import numpy as np
import pytest

from pqdec import baselines
from pqdec.baselines import (
    SeparationConfig,
    direct_inversion_decode,
    invertibility_stats,
    separation_csv,
    separation_experiment,
    singularity_oracle,
)
from pqdec.codes import LinearCode, plant_instance, random_code
from pqdec.decoder import decode_structured
from pqdec.errors import InvariantViolated, PreconditionUnmet
from pqdec.gf import Field
from pqdec.qsim import SigmaParam


def test_direct_inversion_zero_error_square(f4):
    # n = k with invertible A: the full digit system recovers exactly
    code = LinearCode(f4, [[f4.el(1), f4.el(2)], [f4.el(3), f4.el(0)]])
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = tuple(f4.random_element(rng) for _ in range(2))
        inst = plant_instance(code, s, (f4.zero, f4.zero))
        rep = direct_inversion_decode(inst, 0)
        assert rep.status == "recovered"
        assert rep.s_hat == tuple(e.image for e in s)
        assert rep.system_shape == (4, 4)


def test_direct_inversion_rejects_a_non_solution(f4, monkeypatch):
    code = LinearCode(f4, [[f4.el(1), f4.el(2)], [f4.el(3), f4.el(0)]])
    inst = plant_instance(code, (f4.el(1), f4.el(2)), (f4.zero, f4.zero))
    solve = baselines.fp_solve

    def off_by_one(matrix, rhs, p):
        solved = solve(matrix, rhs, p)
        solved.solution[0] = (solved.solution[0] + 1) % p
        return solved

    monkeypatch.setattr(baselines, "fp_solve", off_by_one)
    with pytest.raises(InvariantViolated):
        direct_inversion_decode(inst, 0)


def test_direct_inversion_checks_the_bound(f16):
    # the top digits pin s, but the low-digit error of image 1 exceeds w = 0
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]])
    s, e = (f16.el(9),), (f16.el(1), f16.zero, f16.zero)
    rep = direct_inversion_decode(plant_instance(code, s, e), 1)
    assert (rep.status, rep.s_hat) == ("recovered", (9,))
    rep = direct_inversion_decode(plant_instance(code, s, e, w=0), 1)
    assert (rep.status, rep.s_hat) == ("inconsistent", None)


def test_direct_inversion_underdetermined_raises(f4):
    code = LinearCode(f4, [[f4.el(1), f4.el(2)], [f4.el(3), f4.el(0)]])
    inst = plant_instance(code, (f4.el(1), f4.el(2)), (f4.zero, f4.zero))
    with pytest.raises(PreconditionUnmet):
        direct_inversion_decode(inst, 1)  # 2 rows < 4 unknowns
    with pytest.raises(PreconditionUnmet):
        direct_inversion_decode(inst, 5)


def test_direct_inversion_recovers_under_precondition(f16):
    # per-coordinate error < 2^r leaves the top rows clean
    f = Field(2, 8)
    rng = np.random.default_rng(1)
    hits = 0
    for seed in range(40):
        code = random_code(f, 8, 2, rng)
        s = tuple(f.random_element(rng) for _ in range(2))
        e = tuple(f.el(int(v)) for v in rng.integers(0, 2**4, size=8))
        inst = plant_instance(code, s, e)
        rep = direct_inversion_decode(inst, 4)  # 32 rows, 16 unknowns
        if rep.status == "recovered":
            hits += 1
            assert rep.s_hat == tuple(x.image for x in s)  # never wrong
    assert hits >= 35  # overdetermined by 16 rows: failures are rare


def test_direct_inversion_square_singularity_rate():
    f = Field(2, 8)
    rng = np.random.default_rng(2)
    singular = 0
    trials = 400
    for _ in range(trials):
        code = random_code(f, 8, 2, rng)
        s = tuple(f.random_element(rng) for _ in range(2))
        e = tuple(f.el(int(v)) for v in rng.integers(0, 2**6, size=8))
        inst = plant_instance(code, s, e)
        rep = direct_inversion_decode(inst, 6)  # exactly square: 16 x 16
        if rep.status == "singular":
            singular += 1
        elif rep.status == "recovered":
            assert rep.s_hat == tuple(x.image for x in s)
    assert abs(singular / trials - singularity_oracle(2)) < 0.07


def test_invertibility_stats_t1():
    for p in (2, 3, 5):
        freq = invertibility_stats(p, 1, 4000, seed=p)
        assert abs(freq - (p - 1) / p) < 0.03


def test_invertibility_stats_increases_with_p():
    freqs = [invertibility_stats(p, 20, 2000, seed=0) for p in (2, 3, 5)]
    assert freqs[0] < freqs[1] < freqs[2]


def test_separation_experiment_shape_and_gap():
    config = SeparationConfig(p=2, m=8, n=8, k=2, trials=60, seed=5)
    rows = separation_experiment(config)
    assert [r["promise"] for r in rows] == ["tight", "loose", "beyond"]
    tight, loose, beyond = rows
    assert tight["quantum_success"] == 1.0
    assert tight["quantum_success"] - tight["classical_success"] >= 0.3
    assert loose["quantum_success"] == 1.0
    assert loose["classical_success"] >= 0.9
    assert beyond["quantum_success"] == 0.0
    assert beyond["classical_success"] == 0.0
    csv_text = separation_csv(rows)
    header = csv_text.splitlines()[0].split(",")
    assert header == [
        "p", "m", "n", "k", "promise", "error_digits",
        "quantum_success", "classical_success", "trials", "seed",
    ]
    assert len(csv_text.splitlines()) == 4


@pytest.mark.parametrize("trials", [0, -2])
def test_separation_rejects_fewer_than_one_trial(trials):
    with pytest.raises(PreconditionUnmet, match="trials must be >= 1"):
        separation_experiment(SeparationConfig(p=2, m=4, n=4, k=1, trials=trials, seed=1))
    # checked before the field is built: p = 4 would raise NotPrime there
    with pytest.raises(PreconditionUnmet):
        separation_experiment(SeparationConfig(p=4, m=4, n=4, k=1, trials=trials, seed=1))


def test_separation_reproducible():
    config = SeparationConfig(p=2, m=6, n=6, k=2, trials=25, seed=9)
    assert separation_experiment(config) == separation_experiment(config)


def test_classical_agrees_with_decoder_when_it_recovers():
    f = Field(2, 8)
    rng = np.random.default_rng(3)
    compared = 0
    for seed in range(25):
        code = random_code(f, 8, 2, rng)
        s = tuple(f.random_element(rng) for _ in range(2))
        e = tuple(f.el(int(v)) for v in rng.integers(0, 2**4, size=8))
        inst = plant_instance(code, s, e)
        rep = direct_inversion_decode(inst, 4)
        if rep.status != "recovered":
            continue
        res = decode_structured(inst, SigmaParam.from_r(f, 4), seed=seed)
        assert res.s_hat == rep.s_hat
        compared += 1
    assert compared >= 15
