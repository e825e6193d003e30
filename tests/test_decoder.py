import time
from dataclasses import replace

import numpy as np
import pytest

import pqdec
from pqdec import decoder
from pqdec.codes import LinearCode, gen_instance, nearest_codeword_oracle, plant_instance, random_code
from pqdec.decoder import (
    CONCENTRATION_TOL,
    DEFAULT_RETRY_BUDGET,
    _dense_factorized_marginal,
    _dense_full_marginal,
    backend_decoder,
    decode_dense,
    decode_structured,
    sample_label_matrix,
    sigma_search,
    verify_candidate,
)
from pqdec.errors import (
    BadParams,
    InvariantViolated,
    NoSigmaSucceeded,
    OrthogonalityViolated,
    PromiseViolated,
    RetryBudgetExhausted,
)
from pqdec.gf import Field, label_to_digits
from pqdec.modp import fp_gauss_invert, invertibility_product
from pqdec.qsim import (
    MAX_AMPLITUDES,
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    pcs_state_direct,
    vector_digit_rows,
)


def code_123(f4):
    return LinearCode(f4, [[f4.el(1)], [f4.el(2)], [f4.el(3)]], d=4)


def code_q16_d7(f16):
    return LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]], d=7)


# ---------------------------------------------------------------- F_p inversion

def test_fp_gauss_invert_identity():
    res = fp_gauss_invert(np.eye(3, dtype=np.int64), 2)
    assert not res.singular
    assert np.array_equal(res.inverse, np.eye(3, dtype=np.int64))


def test_fp_gauss_invert_self_inverse_example():
    mat = np.array([[1, 1], [0, 1]])
    res = fp_gauss_invert(mat, 2)
    assert np.array_equal(res.inverse, mat)
    assert np.array_equal((mat @ res.inverse) % 2, np.eye(2, dtype=np.int64))


def test_fp_gauss_invert_singular_certificate():
    mat = np.array([[1, 1], [0, 0]])
    res = fp_gauss_invert(mat, 3)
    assert res.singular and res.inverse is None
    assert res.rank == 1
    assert res.echelon.shape == (2, 2)


# ---------------------------------------------------------------- label sampling

def test_label_matrix_t1_p2_frequency():
    rng = np.random.default_rng(0)
    rounds = []
    for _ in range(2000):
        _, r = sample_label_matrix(2, 1, rng)
        rounds.append(r)
    # each round succeeds iff the single label is (1): mean rounds = 2
    assert abs(np.mean(rounds) - 2.0) < 0.15


@pytest.mark.parametrize(
    "p,expected", [(2, 0.288788), (3, 0.560126)]
)
def test_label_matrix_first_round_frequency(p, expected):
    rng = np.random.default_rng(p)
    hits = sum(
        1 for _ in range(3000) if sample_label_matrix(p, 20, rng)[1] == 1
    )
    assert abs(hits / 3000 - expected) < 0.03
    assert abs(invertibility_product(p) - expected) < 1e-5


def test_label_matrix_is_first_full_rank_batch():
    redrawn = 0
    for p, ts in ((2, (1, 3, 8, 64, 70)), (3, (1, 4, 9)), (5, (2, 6))):
        for t in ts:
            for seed in range(4):
                columns, rounds = sample_label_matrix(p, t, np.random.default_rng(seed))
                # the invertibility certificate, independent of modp.rank
                res = fp_gauss_invert(columns, p)
                assert not res.singular
                assert np.array_equal(columns @ res.inverse % p, np.eye(t, dtype=np.int64))
                # the same stream drawn batch by batch, directly
                direct = np.random.default_rng(seed)
                for expected_rounds in range(1, 65):
                    batch = direct.integers(0, p, size=(t, t))
                    if not fp_gauss_invert(batch, p).singular:
                        break
                assert rounds == expected_rounds
                assert np.array_equal(columns, batch)
                redrawn += rounds > 1
    assert redrawn > 0  # some draws passed over a singular batch


def test_label_matrix_retry_budget():
    class ZeroRng:
        draws = 0

        def integers(self, low, high, size):
            self.draws += 1
            return np.zeros(size, dtype=np.int64)

    rng = ZeroRng()
    with pytest.raises(RetryBudgetExhausted):
        sample_label_matrix(2, 3, rng)
    assert rng.draws == DEFAULT_RETRY_BUDGET


# ---------------------------------------------------------------- dense decode

def test_decode_dense_zero_error_q4(f4):
    code = code_123(f4)
    sigma = SigmaParam.from_r(f4, 0)
    for seed in range(8):
        inst = gen_instance(code, 0, seed=seed)
        res = decode_dense(inst, sigma, seed=seed)
        assert res.s_hat == tuple(e.image for e in inst.s_true)
        assert res.peak_probability > 1 - 1e-9
        assert res.verified


def test_decode_dense_nonzero_error_q16_matches_oracle(f16):
    # window: d/(p n) = 7/6 < sigma = 2 < 7/3 = d/n
    code = code_q16_d7(f16)
    sigma = SigmaParam.from_r(f16, 1)
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = (f16.random_element(rng),)
        e = tuple(f16.el(int(v)) for v in rng.integers(0, 2, size=3))
        inst = plant_instance(code, s, e)
        res = decode_dense(inst, sigma, seed=3)
        assert res.s_hat == (s[0].image,)
        assert res.peak_probability > 1 - 1e-9
        s_star, _ = nearest_codeword_oracle(code, inst.t)
        assert res.s_hat == tuple(x.image for x in s_star)


def test_decode_dense_p3_negation_step(f9):
    # for p = 3 the measured label is -s, so an un-negated decoder would
    # return 2s; planted s with s != -s catches that
    code = LinearCode(f9, [[f9.el(1)], [f9.el(1)], [f9.el(3)]], d=5)
    sigma = SigmaParam.from_r(f9, 0)
    hit_asymmetric = False
    for seed in range(6):
        inst = gen_instance(code, 0, seed=seed)
        res = decode_dense(inst, sigma, seed=seed)
        s_digits = tuple(d for e in inst.s_true for d in e.digits)
        assert res.s_hat_digits == s_digits
        if any(d not in (0,) and (-d) % 3 != d for d in s_digits):
            hit_asymmetric = True
    assert hit_asymmetric


def test_decode_dense_full_tensor_sigma2(f4):
    """Side-2 cubes through the materialised composite register.

    The code's cached distance is left unknown; the sampler's exact
    uniformity check certifies the cubes are disjoint (they are), which
    is the honest precondition.
    """
    code = LinearCode(f4, [[f4.el(2)], [f4.el(3)]])
    sigma = SigmaParam.from_r(f4, 1)
    layout = RegisterLayout(p=2, m=2, n=2, label_digits=2, cube_count=2)
    assert layout.dim == 1024  # genuinely the full-tensor path
    rng = np.random.default_rng(9)
    for seed in range(4):
        s = (f4.random_element(rng),)
        e = tuple(f4.el(int(v)) for v in rng.integers(0, 2, size=2))
        inst = plant_instance(code, s, e)
        res = decode_dense(inst, sigma, seed=seed)
        assert res.s_hat == (s[0].image,)
        assert res.peak_probability > 1 - 1e-9
        res2 = decode_structured(inst, sigma, seed=seed)
        assert res2.s_hat == res.s_hat
        assert res2.resample_rounds == res.resample_rounds


def test_factorized_marginal_equals_full_tensor(f4, f8, f9):
    code_f8 = LinearCode(f8, [[f8.el(1)], [f8.el(2)]], d=3)
    f5 = Field(5, 1)
    code_f5 = LinearCode(f5, [[f5.el(1)], [f5.el(2)]], d=3)
    cases = [
        (gen_instance(code_123(f4), 0, seed=5), SigmaParam.from_r(f4, 0), 5),
        (
            gen_instance(LinearCode(f9, [[f9.el(1)], [f9.el(3)]], d=3), 0, seed=6),
            SigmaParam.from_r(f9, 0),
            6,
        ),
        # T = 3 with a non-identity label matrix; the peak sits at the digits
        # of -s, away from label 0, so a wrong permutation moves it
        (
            plant_instance(code_f8, (f8.el(5),), (f8.zero, f8.zero)),
            SigmaParam.from_r(f8, 0),
            1,
        ),
        # radix 5; the error reaches sigma, so the marginal is spread
        (
            plant_instance(code_f5, (f5.el(3),), (f5.el(1), f5.zero)),
            SigmaParam.from_r(f5, 0),
            2,
        ),
    ]
    for inst, sigma, seed in cases:
        code = inst.code
        f = code.field
        sampler = PcsSampler(code, sigma)
        rng = np.random.default_rng(seed)
        t_digits = f.m * code.k
        columns, _ = sample_label_matrix(f.p, t_digits, rng)
        if t_digits >= 3:
            assert not np.array_equal(columns, np.eye(t_digits))
        pcs = [
            sampler.collapse(tuple(int(x) for x in columns[:, j]))
            for j in range(t_digits)
        ]
        t_rows = vector_digit_rows(inst.t)
        layout = RegisterLayout(
            p=f.p, m=f.m, n=code.n, label_digits=t_digits, cube_count=t_digits
        )
        full = _dense_full_marginal(columns, pcs, t_rows, layout)
        fact = _dense_factorized_marginal(columns, pcs, t_rows, f)
        assert np.allclose(full, fact, atol=1e-12)


@pytest.mark.parametrize("p,m,gens,d", [(2, 2, (1, 2, 3), 4), (3, 2, (1, 3), 3), (5, 1, (1, 2), 3)])
def test_factorized_rows_are_phase_estimation(p, m, gens, d):
    # with one register and the 1 x 1 label matrix, the factorised marginal
    # is that register's row W_j, which must be the outcome law of phase
    # estimation run on the gates: one label digit prepared uniform
    # controls U_t on Phi_j, and the inverse Fourier transform reads it out
    f = Field(p, m)
    code = LinearCode(f, [[f.el(g)] for g in gens], d=d)
    sampler = PcsSampler(code, SigmaParam.from_r(f, 0))
    layout = RegisterLayout(p=p, m=m, n=code.n, label_digits=1, cube_count=1)
    label_zero = np.eye(p)[0]
    # an exact codeword keeps t inside the promise; error image 1 reaches sigma = 1
    for error, inside in [(0, True), (1, False)]:
        errors = (f.el(error),) + (f.zero,) * (code.n - 1)
        t_rows = vector_digit_rows(plant_instance(code, (f.el(1),), errors).t)
        for label in label_to_digits(np.arange(p**m), m, p):
            phi = sampler.collapse(label)
            row = _dense_factorized_marginal(np.eye(1, dtype=np.int64), [phi], t_rows, f)
            state = DenseState(layout, np.kron(label_zero, phi)).qft_label()
            state.controlled_shift_power(t_rows).qft_label(inverse=True)
            assert np.max(np.abs(row - state.label_marginal())) < 1e-12
            assert (row.max() > 1 - 1e-12) == inside


def _full_marginal_reference(columns, pcs_vectors, t_digit_rows, layout):
    """Steps 3-7 with every gate on the joined composite register, the work register at |0>."""
    label0 = np.zeros(layout.label_dim, dtype=np.complex128)
    label0[0] = 1.0
    state = DenseState.from_parts(layout, label0, pcs_vectors)
    state.qft_label()
    state.permute_label(columns, inverse=True)
    state.controlled_shift_power(t_digit_rows)
    state.permute_label(columns)
    state.qft_label(inverse=True)
    return state.label_marginal()


@pytest.mark.parametrize("p,n,r", [(2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1), (5, 1, 0), (5, 1, 1)])
def test_full_marginal_matches_composite_reference(p, n, r):
    # at n = 1 the side-5 cubes collide, so the phased cube states are
    # built from their definition and normalised; the circuit takes any
    # product state
    f = Field(p, 2)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]][:n])
    sigma = SigmaParam.from_r(f, r)
    rng = np.random.default_rng(10 * p + r)
    columns, _ = sample_label_matrix(p, f.m, rng)
    pcs = [pcs_state_direct(code, sigma, label) for label in columns.T]
    pcs = [v / np.linalg.norm(v) for v in pcs]
    t_rows = rng.integers(0, p, size=(n, f.m))
    layout = RegisterLayout(p=p, m=f.m, n=n, label_digits=f.m, cube_count=f.m)
    got = _dense_full_marginal(columns, pcs, t_rows, layout)
    assert np.max(np.abs(got - _full_marginal_reference(columns, pcs, t_rows, layout))) < 1e-12


def test_full_marginal_of_real_parts_matches_complex_parts(f4):
    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    rng = np.random.default_rng(3)
    columns, _ = sample_label_matrix(2, f4.m, rng)
    pcs = [sampler.collapse(label) for label in columns.T]
    assert all(v.dtype == np.float64 for v in pcs)  # p = 2: the sampler is real
    t_rows = rng.integers(0, 2, size=(code.n, f4.m))
    layout = RegisterLayout(p=2, m=f4.m, n=code.n, label_digits=f4.m, cube_count=f4.m)
    real = _dense_full_marginal(columns, pcs, t_rows, layout)
    cplx = _dense_full_marginal(columns, [v.astype(np.complex128) for v in pcs], t_rows, layout)
    assert np.max(np.abs(real - cplx)) < 1e-12


def test_full_marginal_joins_once_and_shifts_in_the_join(f4, monkeypatch):
    # bench/tracer.py counts a from_parts call inside a decode as the
    # full-tensor path, and times the join under from_parts
    joins = []
    from_parts = DenseState.from_parts.__func__

    def counted(cls, *args):
        joins.append(args)
        return from_parts(cls, *args)

    def refuse(self, amounts):
        raise AssertionError("the full-tensor path shifted outside the join")

    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    rng = np.random.default_rng(4)
    columns, _ = sample_label_matrix(2, f4.m, rng)
    pcs = [sampler.collapse(label) for label in columns.T]
    t_rows = rng.integers(0, 2, size=(code.n, f4.m))
    layout = RegisterLayout(p=2, m=f4.m, n=code.n, label_digits=f4.m, cube_count=f4.m)
    want = _full_marginal_reference(columns, pcs, t_rows, layout)
    monkeypatch.setattr(DenseState, "from_parts", classmethod(counted))
    monkeypatch.setattr(DenseState, "controlled_register_shifts", refuse)
    got = _dense_full_marginal(columns, pcs, t_rows, layout)
    assert len(joins) == 1
    assert np.max(np.abs(got - want)) < 1e-12


def _complex_zero_state(layout):
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[0] = 1.0
    return DenseState(layout, vec)


def test_decode_dense_on_real_states_matches_complex_states(f8, monkeypatch):
    # the benchmark's dense_full shape: F_8, n = 2, k = 1, sigma = 1, so
    # the joined state has 2^21 amplitudes
    code = LinearCode(f8, [[f8.el(1)], [f8.el(3)]])
    sigma = SigmaParam.from_r(f8, 0)
    cases = [(gen_instance(code, 0, seed=seed), seed) for seed in range(3)]
    real = [decode_dense(inst, sigma, seed=seed) for inst, seed in cases]
    # every circuit starts from zero_state, so complex starts keep it all complex
    monkeypatch.setattr(DenseState, "zero_state", staticmethod(_complex_zero_state))
    assert PcsSampler(code, sigma).state.vec.dtype == np.complex128
    cplx = [decode_dense(inst, sigma, seed=seed) for inst, seed in cases]
    # the marginal sums run in another order, so the peak may move by an ulp
    assert [replace(r, peak_probability=None) for r in cplx] == [
        replace(r, peak_probability=None) for r in real
    ]
    assert np.allclose([r.peak_probability for r in cplx], [r.peak_probability for r in real],
                       rtol=0, atol=1e-12)


def test_decode_dense_raises_on_unverifiable_answer(f4):
    code = code_123(f4)
    # a far target with a zero budget cannot verify at sigma = 1
    t = (f4.el(1), f4.el(1), f4.el(2))
    _, dist = nearest_codeword_oracle(code, t)
    assert dist > 0
    from pqdec.codes import DecodeInstance

    inst = DecodeInstance(code=code, t=t, w=0, s_true=None)
    with pytest.raises(PromiseViolated):
        decode_dense(inst, SigmaParam.from_r(f4, 0), seed=0)


def test_decode_dense_rejects_an_unnormalised_marginal(f4, monkeypatch):
    full_marginal = decoder._dense_full_marginal
    monkeypatch.setattr(decoder, "_dense_full_marginal", lambda *args: 2 * full_marginal(*args))
    inst = gen_instance(code_123(f4), 0, seed=5)
    with pytest.raises(InvariantViolated):
        decode_dense(inst, SigmaParam.from_r(f4, 0), seed=5)


# ---------------------------------------------------------------- structured decode

def test_structured_requires_plant(f4):
    code = code_123(f4)
    from pqdec.codes import DecodeInstance

    inst = DecodeInstance(code=code, t=code.encode((f4.el(2),)), w=0, s_true=None)
    with pytest.raises(PromiseViolated):
        decode_structured(inst, SigmaParam.from_r(f4, 0), seed=0)


def test_structured_refuses_eigenphase_violation(f16):
    code = code_q16_d7(f16)
    s = (f16.el(5),)
    e = (f16.el(2), f16.zero, f16.zero)  # image 2 >= sigma = 2
    inst = plant_instance(code, s, e)
    with pytest.raises(PromiseViolated):
        decode_structured(inst, SigmaParam.from_r(f16, 1), seed=0)
    # never a silent wrong answer: the refusal happens before any output


def test_structured_refuses_window_violation_when_d_cached(f4):
    code = code_123(f4)  # d = 4 cached, sigma * n = 6 >= 4
    inst = gen_instance(code, 0, seed=0)
    with pytest.raises(OrthogonalityViolated):
        decode_structured(inst, SigmaParam.from_r(f4, 1), seed=0)


def test_structured_scale_q2_16(subtests=None):
    f = Field(2, 16)
    rng = np.random.default_rng(0)
    code = random_code(f, 32, 4, rng)
    sigma = SigmaParam.from_r(f, 8)
    elapsed = []
    for seed in range(20):
        inst_rng = np.random.default_rng(1000 + seed)
        s = tuple(f.random_element(inst_rng) for _ in range(4))
        e = tuple(f.el(int(v)) for v in inst_rng.integers(0, 256, size=32))
        inst = plant_instance(code, s, e)
        t0 = time.perf_counter()
        res = decode_structured(inst, sigma, seed=seed)
        elapsed.append(time.perf_counter() - t0)
        assert res.s_hat == tuple(x.image for x in s)
        assert res.verified
    assert max(elapsed) < 0.1


# ---------------------------------------------------------------- equivalence

def test_backends_agree_instance_and_seed(f4, f8, f9, f16):
    cases = [
        (code_123(f4), SigmaParam.from_r(f4, 0), 0),
        (LinearCode(f8, [[f8.el(1)], [f8.el(2)]], d=3), SigmaParam.from_r(f8, 0), 0),
        (LinearCode(f9, [[f9.el(1)], [f9.el(3)]], d=3), SigmaParam.from_r(f9, 0), 0),
        (code_q16_d7(f16), SigmaParam.from_r(f16, 1), 1),
    ]
    for code, sigma, w in cases:
        for seed in range(4):
            inst = gen_instance(code, w, seed=100 + seed)
            dense = decode_dense(inst, sigma, seed=seed)
            structured = decode_structured(inst, sigma, seed=seed)
            assert dense.s_hat == structured.s_hat
            assert dense.s_hat_digits == structured.s_hat_digits
            assert dense.resample_rounds == structured.resample_rounds


# Recorded from the per-axis einsum DFT and np.roll shift kernels:
# (path, field, generator images, s, error images, sigma r, seed,
#  s_hat_digits, resample_rounds, peak_probability).  The peaks below 1
# are decodes whose outcome is sampled from the marginal.
RECORDED_DENSE = [
    ("full", (2, 2), (1, 2, 3), 2, (0, 0, 0), 0, 2, (0, 1), 3, 0.9999999999999993),
    ("full", (2, 2), (1, 2, 3), 2, (1, 0, 0), 0, 7, (0, 1), 2, 0.24999999999999983),
    ("full", (2, 3), (1, 2), 5, (0, 0), 0, 0, (1, 0, 1), 4, 0.9999999999999986),
    ("full", (3, 2), (1, 3), 7, (0, 0), 0, 1, (1, 2), 6, 1.0000000000000013),
    ("factorised", (2, 4), (1, 2, 4), 11, (0, 0, 0), 0, 0, (1, 1, 0, 1), 5, 1.0000000000000018),
    ("factorised", (2, 4), (1, 2, 4), 11, (1, 0, 1), 1, 1, (1, 1, 0, 1), 3, 0.9999999999999933),
    ("factorised", (2, 4), (1, 2, 4), 11, (1, 0, 1), 0, 3, (1, 1, 0, 1), 5, 0.06250000000000011),
    # F_27 at sigma = 3: the sampler's cube preparation runs a radix-3
    # transform on one digit per coordinate.  These rows were recorded while
    # the sampler still ran every gate on its joined composite register, so
    # they pin the factor-first build to the old one.  The last two errors
    # reach sigma, so their marginals are spread and the draw decides.
    ("factorised", (3, 3), (1, 3, 9), 5, (0, 0, 0), 1, 0, (2, 1, 0), 2, 1.0000000000000027),
    ("factorised", (3, 3), (1, 3, 9), 13, (1, 2, 0), 1, 1, (1, 1, 1), 1, 1.0000000000000013),
    ("factorised", (3, 3), (1, 3, 9), 22, (2, 1, 1), 1, 4, (1, 1, 2), 1, 1.0000000000000022),
    ("factorised", (3, 3), (1, 3, 11), 19, (0, 4, 1), 1, 2, (1, 0, 2), 1, 0.03703703703703704),
    ("factorised", (3, 3), (1, 3, 11), 7, (3, 0, 0), 1, 27, (1, 2, 0), 4, 0.037037037037037056),
]


@pytest.mark.parametrize("case", RECORDED_DENSE)
def test_decode_dense_matches_recorded_results(case):
    path, (p, m), gens, s, err, r, seed, digits, rounds, peak = case
    full_dim = p ** (m + m * len(gens) * m)  # T = m label digits and T cube registers
    assert (full_dim <= MAX_AMPLITUDES) == (path == "full")
    f = Field(p, m)
    code = LinearCode(f, [[f.el(g)] for g in gens])
    inst = plant_instance(code, (f.el(s),), tuple(f.el(e) for e in err))
    res = decode_dense(inst, SigmaParam.from_r(f, r), seed=seed)
    assert res.s_hat_digits == digits
    assert res.resample_rounds == rounds
    assert abs(res.peak_probability - peak) < 1e-12


def test_decode_deterministic_given_seed(f4):
    inst = gen_instance(code_123(f4), 0, seed=7)
    a = decode_dense(inst, SigmaParam.from_r(f4, 0), seed=13)
    b = decode_dense(inst, SigmaParam.from_r(f4, 0), seed=13)
    assert a == b


# ---------------------------------------------------------------- sigma search

def test_sigma_search_codeword(f4):
    inst = gen_instance(code_123(f4), 0, seed=2)
    res = sigma_search(inst, backend="dense", seed=0)
    assert res.sigma_r == 0
    assert res.s_hat == tuple(e.image for e in inst.s_true)


def test_sigma_search_reaches_working_exponent(f16):
    code = code_q16_d7(f16)
    rng = np.random.default_rng(3)
    s = (f16.el(11),)
    e = tuple(f16.el(int(v)) for v in rng.integers(0, 2, size=3))
    inst = plant_instance(code, s, e)
    res = sigma_search(inst, backend="dense", seed=0)
    assert res.sigma_r <= 1
    assert res.s_hat == (11,)


def test_sigma_search_skips_unconcentrated_dense_try(f16):
    """The error is not covered by sigma = 1, whose marginal is uniform over
    the 16 messages; with this seed the candidate sampled there equals the
    planted message.  That try must count as failed, not as the answer."""
    inst = plant_instance(code_q16_d7(f16), (f16.el(11),), (f16.el(1), f16.el(0), f16.el(1)))
    res = sigma_search(inst, backend="dense", seed=3)
    assert res.peak_probability >= 1.0 - CONCENTRATION_TOL
    assert res.sigma_r == 1
    assert res.s_hat == (11,)


def test_sigma_search_structured_backend(f16):
    code = code_q16_d7(f16)
    rng = np.random.default_rng(8)
    s = (f16.el(6),)
    e = tuple(f16.el(int(v)) for v in rng.integers(0, 2, size=3))
    inst = plant_instance(code, s, e)
    res = sigma_search(inst, backend="structured", seed=4)
    assert res.backend == "structured"
    assert res.s_hat == (6,)
    # nonzero error refuses sigma = 1 and lands on sigma = 2
    if any(x.image for x in e):
        assert res.sigma_r == 1


def test_unknown_backend_is_rejected(f4):
    inst = gen_instance(code_123(f4), 0, seed=0)
    for name in ("Dense", "", "dense "):
        with pytest.raises(BadParams):
            sigma_search(inst, backend=name, seed=0)
        with pytest.raises(BadParams):
            backend_decoder(name)
    assert backend_decoder("dense") is decode_dense
    assert backend_decoder("structured") is decode_structured


def test_sigma_search_adversarial_far_target(f4):
    code = code_123(f4)
    t = (f4.el(1), f4.el(1), f4.el(2))
    _, dist = nearest_codeword_oracle(code, t)
    assert dist > code.d // 2 - 1  # beyond any promise the code can keep
    from pqdec.codes import DecodeInstance

    inst = DecodeInstance(code=code, t=t, w=0, s_true=None)
    with pytest.raises(NoSigmaSucceeded):
        sigma_search(inst, backend="dense", seed=0)


# ---------------------------------------------------------------- helpers

def test_verify_candidate(f4):
    code = code_123(f4)
    inst = gen_instance(code, 0, seed=1)
    assert verify_candidate(inst, inst.s_true)
    other = (inst.s_true[0] + f4.one,)
    assert not verify_candidate(inst, other)  # d = 4 > 2w = 0
    from pqdec.codes import DecodeInstance

    unbounded = DecodeInstance(code=code, t=inst.t, w=None)
    assert verify_candidate(unbounded, other)


@pytest.mark.parametrize("module", [pqdec, decoder], ids=["pqdec", "pqdec.decoder"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
