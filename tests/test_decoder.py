import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

import pqdec
from pqdec import decoder
from pqdec.codes import (
    LinearCode,
    gen_instance,
    min_distance_bruteforce,
    nearest_codeword_oracle,
    plant_instance,
    random_code,
)
from pqdec.decoder import (
    CONCENTRATION_TOL,
    DEFAULT_RETRY_BUDGET,
    DecodeResult,
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
from pqdec.gf import Field, digit_images, digit_rows, digits_to_label, label_to_digits
from pqdec.modp import fp_gauss_invert, invertibility_product
from pqdec.qsim import (
    MAX_AMPLITUDES,
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    _dft_matrix,
    label_source,
    pcs_state_direct,
    shift_cube_vector,
)

from conftest import generator_table, power_generators


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
        assert res.s_hat == tuple(digit_images(inst.s_true, 2).tolist())
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
        assert res.s_hat == tuple(digit_images(s_star, 2).tolist())


def test_decode_dense_p3_negation_step(f9):
    # for p = 3 the measured label is -s, so an un-negated decoder would
    # return 2s; planted s with s != -s catches that
    code = LinearCode(f9, [[f9.el(1)], [f9.el(1)], [f9.el(3)]], d=5)
    sigma = SigmaParam.from_r(f9, 0)
    hit_asymmetric = False
    for seed in range(6):
        inst = gen_instance(code, 0, seed=seed)
        res = decode_dense(inst, sigma, seed=seed)
        s_digits = tuple(inst.s_true.reshape(-1).tolist())  # coordinate-major, LSB first
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
        t_rows = inst.t
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
        t_rows = plant_instance(code, (f.el(1),), errors).t
        for label in label_to_digits(np.arange(p**m), m, p):
            phi = sampler.collapse(label)
            row = _dense_factorized_marginal(np.eye(1, dtype=np.int64), [phi], t_rows, f)
            state = DenseState(layout, np.kron(label_zero, phi)).qft_label()
            state.controlled_register_shifts(
                generator_table(layout, power_generators(layout, t_rows))
            )
            state.qft_label(inverse=True)
            assert np.max(np.abs(row - state.label_marginal())) < 1e-12
            assert (row.max() > 1 - 1e-12) == inside


def _factorized_marginal_reference(columns, pcs_vectors, t_digit_rows, field):
    """The factorised marginal register by register: p shifts of each register."""
    p = field.p
    weights = []
    for phi in pcs_vectors:
        g = [np.vdot(phi, shift_cube_vector(phi, field, t_digit_rows, d)) for d in range(p)]
        weights.append(np.maximum((_dft_matrix(p, inverse=True) @ g).real / np.sqrt(p), 0.0))
    t = len(columns)
    order = [digits_to_label(columns.T @ label_to_digits(o, t, p), p) for o in range(p**t)]
    return reduce(np.kron, weights)[order]  # outcome o reads label A^T o


@pytest.mark.parametrize("p,m,gens", [(2, 3, (1, 2)), (3, 2, (1, 3)), (5, 2, (1, 5))])
def test_stacked_factorized_marginal_equals_the_per_register_loop(p, m, gens):
    f = Field(p, m)
    code = LinearCode(f, [[f.el(g)] for g in gens])
    sampler = PcsSampler(code, SigmaParam.from_r(f, 0))
    rng = np.random.default_rng(p)
    for _ in range(3):
        columns, _ = sample_label_matrix(p, m, rng)
        pcs = [sampler.collapse(label) for label in columns.T]
        t_rows = rng.integers(0, p, size=(code.n, m))  # anywhere, so the law is spread
        got = _dense_factorized_marginal(columns, pcs, t_rows, f)
        want = _factorized_marginal_reference(columns, pcs, t_rows, f)
        assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_halved_overlap_rows_match_every_shift(p, shift_maps):
    # the marginal shifts d = 1 .. p//2 and reads g(p - d) as conj(g(d));
    # on random complex states and a random t its rows must match the
    # reference's, which shifts all p - 1 powers
    f = Field(p, 2)
    rng = np.random.default_rng(p)
    phis = rng.normal(size=(2, p**4)) + 1j * rng.normal(size=(2, p**4))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    t_rows = rng.integers(1, p, size=(2, 2))
    for j, phi in enumerate(phis):
        # the 1 x 1 label matrix: the marginal is register j's row itself
        got = _dense_factorized_marginal(np.eye(1, dtype=np.int64), [phi], t_rows, f)
        want = _factorized_marginal_reference(np.eye(1, dtype=np.int64), [phi], t_rows, f)
        assert np.max(np.abs(got - want)) < 1e-15
        assert len(shift_maps) == (j + 1) * (p // 2 + p - 1)  # here, then the reference


def test_dense_factorised_decode_makes_label_digits_plus_half_p_maps(shift_maps):
    # the dense_factorised workload's shape: F_27, n = 3, k = 1, sigma = 3;
    # the sampler's join takes one map per label digit (3) and the
    # marginal one per power d = 1 .. p//2 of U_t (1), shared by the T
    # registers: g(2) is the conjugate of g(1)
    f = Field(3, 3)
    code = LinearCode(f, [[f.el(1)], [f.el(3)], [f.el(9)]])
    inst = plant_instance(code, (f.el(17),), (f.el(2), f.zero, f.el(1)))
    res = decode_dense(inst, SigmaParam.from_r(f, 1), seed=4)
    assert res.s_hat == (17,) and res.peak_probability > 1 - 1e-9
    assert len(shift_maps) == 3 + 1


def _full_marginal_reference(columns, pcs_vectors, t_digit_rows, layout):
    """Steps 3-7 with every gate on the joined composite register, the work register at |0>."""
    label0 = np.zeros(layout.label_dim, dtype=np.complex128)
    label0[0] = 1.0
    state = DenseState.from_parts(layout, label0, pcs_vectors)
    state.qft_label()
    state.permute_label(columns, inverse=True)
    state.controlled_register_shifts(
        generator_table(layout, power_generators(layout, t_digit_rows))
    )
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
    # full-tensor path, and times both joins, head and tail, under from_parts
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
    assert len(joins) == 2  # the head and the tail
    assert np.max(np.abs(got - want)) < 1e-12


def test_full_marginal_permutes_no_joined_state(f4, monkeypatch):
    # L^-1 before the controlled shifts and L after them are both folded
    # into the join's read, so no state is permuted, not even the work
    # register alone
    permuted = []
    permute_label = DenseState.permute_label

    def counted(self, *args, **kwargs):
        permuted.append(self.layout.cube_count)
        return permute_label(self, *args, **kwargs)

    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    rng = np.random.default_rng(5)
    columns, _ = sample_label_matrix(2, f4.m, rng)
    pcs = [sampler.collapse(label) for label in columns.T]
    t_rows = rng.integers(0, 2, size=(code.n, f4.m))
    layout = RegisterLayout(p=2, m=f4.m, n=code.n, label_digits=f4.m, cube_count=f4.m)
    want = _full_marginal_reference(columns, pcs, t_rows, layout)
    monkeypatch.setattr(DenseState, "permute_label", counted)
    got = _dense_full_marginal(columns, pcs, t_rows, layout)
    assert permuted == []
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_full_marginal_builds_one_label_map(p, m, monkeypatch):
    # each marginal builds L's (or A^T's) index map, with its bijection
    # check, once: the full-tensor join reads the shift amounts through
    # it and nothing else permutes, and the factorised law is read at it
    maps = []
    monkeypatch.setattr(
        "pqdec.decoder.label_source", lambda *a, **kw: maps.append(a) or label_source(*a, **kw)
    )
    f = Field(p, m)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]])
    sampler = PcsSampler(code, SigmaParam.from_r(f, 0))
    rng = np.random.default_rng(p)
    layout = RegisterLayout(p=p, m=m, n=code.n, label_digits=m, cube_count=m)
    for calls in (1, 2):
        columns, _ = sample_label_matrix(p, m, rng)
        pcs = [sampler.collapse(label) for label in columns.T]
        t_rows = rng.integers(0, p, size=(code.n, m))
        _dense_full_marginal(columns, pcs, t_rows, layout)
        assert len(maps) == 2 * calls - 1
        _dense_factorized_marginal(columns, pcs, t_rows, f)
        assert len(maps) == 2 * calls


def test_factorized_marginal_rejects_a_singular_label_matrix(f9):
    # A^T's index map is checked like L's: a singular label matrix has no
    # outcome order, so it raises rather than returning a law read at a
    # map that is not a permutation
    code = LinearCode(f9, [[f9.el(1)], [f9.el(3)]])
    sampler = PcsSampler(code, SigmaParam.from_r(f9, 0))
    columns = np.array([[1, 2], [2, 1]], dtype=np.int64)  # column 2 = 2 * column 1 mod 3
    pcs = [sampler.collapse(label) for label in columns.T]
    with pytest.raises(BadParams, match="not a bijection"):
        _dense_factorized_marginal(columns, pcs, np.zeros((code.n, 2), dtype=np.int64), f9)


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
    # every circuit starts from zero_state, so complex starts make the
    # decoder's head join complex; the sampler checks that its factors'
    # imaginary parts are exactly zero and holds their real join
    monkeypatch.setattr(DenseState, "zero_state", staticmethod(_complex_zero_state))
    assert PcsSampler(code, sigma).amplitudes.dtype == np.float64
    measured = decoder.fourier_label_marginal
    heads = []

    def recording(head, tail):
        heads.append(head.vec.dtype)
        return measured(head, tail)

    monkeypatch.setattr(decoder, "fourier_label_marginal", recording)
    cplx = [decode_dense(inst, sigma, seed=seed) for inst, seed in cases]
    assert heads == [np.complex128] * len(cases)
    # the marginal sums run in another order, so the peak may move by an ulp
    assert [replace(r, peak_probability=None) for r in cplx] == [
        replace(r, peak_probability=None) for r in real
    ]
    assert np.allclose([r.peak_probability for r in cplx], [r.peak_probability for r in real],
                       rtol=0, atol=1e-12)


# the benchmark's dense_full inputs: the 14 generator columns (a, b) of
# F_8^2 with d > sigma*n = 2, each planted with message j mod 8 and no error
DENSE_FULL_COLUMNS = [
    (1, 2), (1, 5), (2, 1), (2, 4), (3, 4), (3, 6), (4, 2),
    (4, 3), (5, 1), (5, 7), (6, 3), (6, 7), (7, 5), (7, 6),
]
# what every decode of them returned: the resample rounds at seeds 0, 1
# and 2, as when the composite state was held whole and read in the
# Fourier basis, and one peak, whose bits depend on every summation's
# order.  Read from the label register's reduced density matrix, the peak
# moved from 0x1.0000000000003p+0, by four ulps
DENSE_FULL_ROUNDS = (4, 1, 3)
DENSE_FULL_PEAK = float.fromhex("0x1.0000000000007p+0")
DENSE_FULL_STREAMED_PEAK = float.fromhex("0x1.0000000000003p+0")


def _dense_full_decodes() -> list[list]:
    """[s_hat, rounds, peak in hex] of every decode of the dense_full inputs."""
    f8 = Field(2, 3)
    sigma = SigmaParam.from_r(f8, 0)
    out = []
    for j, (a, b) in enumerate(DENSE_FULL_COLUMNS):
        code = LinearCode(f8, [[f8.el(a)], [f8.el(b)]])
        code = LinearCode(f8, code.matrix, d=min_distance_bruteforce(code))
        s = f8.el(j % 8)
        inst = plant_instance(code, (s,), (f8.zero, f8.zero))
        for seed in range(len(DENSE_FULL_ROUNDS)):
            res = decode_dense(inst, sigma, seed=seed)
            assert (res.s_hat_digits, res.sigma_r, res.verified) == (s.digits, 0, True)
            out.append([list(res.s_hat), res.resample_rounds, res.peak_probability.hex()])
    return out


def test_decode_dense_on_dense_full_inputs_is_unchanged_seed_for_seed():
    assert abs(DENSE_FULL_PEAK - DENSE_FULL_STREAMED_PEAK) < 1e-12
    want = [
        [[j % 8], rounds, DENSE_FULL_PEAK.hex()]
        for j in range(len(DENSE_FULL_COLUMNS))
        for rounds in DENSE_FULL_ROUNDS
    ]
    assert _dense_full_decodes() == want


# the benchmark's dense_factorised inputs: the four F_27 generator columns
# it selects (modulus low coefficients (1, 2, 0)), planted with message
# 7j + 4 and errors (j, j + 1, j + 2) mod 3, decoded at sigma = 3
DENSE_FACTORISED_COLUMNS = [(20, 24, 3), (2, 17, 8), (5, 16, 21), (18, 1, 6)]
# what every decode of them returned: the resample rounds at seeds 0, 1
# and 2, and each decode's peak, whose bits depend on every collapsed
# amplitude and on the order of every sum behind the overlaps.  With the
# cube's low digits held as one uniform factor (each collapsed vector is
# its high part, normalised with the factor's norm, times the factor) and
# g(p - d) read as conj(g(d)), the peaks moved by at most four ulps from
# DENSE_FACTORISED_WHOLE_CUBE_PEAKS
DENSE_FACTORISED_ROUNDS = (2, 1, 1)
DENSE_FACTORISED_PEAKS = [
    ("0x1.0000000000003p+0", "0x1.0000000000002p+0", "0x1.0000000000003p+0"),
    ("0x1.0000000000003p+0", "0x1.0000000000004p+0", "0x1.0000000000005p+0"),
    ("0x1.0000000000003p+0", "0x1.0000000000001p+0", "0x1.0000000000003p+0"),
    ("0x1.0000000000006p+0", "0x1.0000000000005p+0", "0x1.0000000000003p+0"),
]
# the peaks when the sampler held every cube digit in its joined state
# and the overlaps shifted every power d = 1 .. p - 1
DENSE_FACTORISED_WHOLE_CUBE_PEAKS = [
    ("0x1.0000000000003p+0", "0x1.0000000000001p+0", "0x1.0000000000004p+0"),
    ("0x1.0000000000001p+0", "0x1.0000000000002p+0", "0x1.0000000000002p+0"),
    ("0x1.0000000000001p+0", "0x1.0000000000000p+0", "0x1.0000000000003p+0"),
    ("0x1.0000000000002p+0", "0x1.0000000000001p+0", "0x1.0000000000001p+0"),
]
# the peaks when the norms and overlaps were BLAS dot products, read with
# one BLAS thread
DENSE_FACTORISED_BLAS_PEAKS = [
    ("0x1.0000000000011p+0", "0x1.0000000000024p+0", "0x1.0000000000029p+0"),
    ("0x1.0000000000016p+0", "0x1.0000000000012p+0", "0x1.000000000001dp+0"),
    ("0x1.0000000000014p+0", "0x1.000000000000dp+0", "0x1.000000000002dp+0"),
    ("0x1.0000000000014p+0", "0x1.0000000000012p+0", "0x1.0000000000025p+0"),
]


def _dense_factorised_decodes() -> list[list]:
    """[s_hat, rounds, peak in hex] of every decode of the dense_factorised inputs."""
    f = Field(3, 3, poly=(1, 2, 0))
    sigma = SigmaParam.from_r(f, 1)
    out = []
    for j, column in enumerate(DENSE_FACTORISED_COLUMNS):
        code = LinearCode(f, [[f.el(a)] for a in column])
        code = LinearCode(f, code.matrix, d=min_distance_bruteforce(code))
        s = f.el((7 * j + 4) % 27)
        inst = plant_instance(code, (s,), tuple(f.el((j + i) % 3) for i in range(3)))
        for seed in range(len(DENSE_FACTORISED_ROUNDS)):
            res = decode_dense(inst, sigma, seed=seed)
            assert (res.s_hat_digits, res.sigma_r, res.verified) == (s.digits, 1, True)
            out.append([list(res.s_hat), res.resample_rounds, res.peak_probability.hex()])
    return out


def _decodes_in_a_child(helper: str, threads: int) -> list[list]:
    """What ``helper`` of this module returns in a child whose BLAS has ``threads`` threads."""
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update({var: str(threads) for var in variables})
    script = f"import json, test_decoder as t; print(json.dumps(t.{helper}()))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_decode_dense_on_dense_factorised_inputs_is_unchanged_seed_for_seed():
    # the factorised path: the full tensor is past the amplitude guard
    assert 3 ** (3 + 3 * 9) > MAX_AMPLITUDES
    for old_pins in (DENSE_FACTORISED_WHOLE_CUBE_PEAKS, DENSE_FACTORISED_BLAS_PEAKS):
        for peaks, old_peaks in zip(DENSE_FACTORISED_PEAKS, old_pins):
            for peak, old_peak in zip(peaks, old_peaks):
                assert abs(float.fromhex(peak) - float.fromhex(old_peak)) < 1e-12
    want = [
        [[(7 * j + 4) % 27], rounds, peak]
        for j, peaks in enumerate(DENSE_FACTORISED_PEAKS)
        for rounds, peak in zip(DENSE_FACTORISED_ROUNDS, peaks)
    ]
    assert _dense_factorised_decodes() == want


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
@pytest.mark.parametrize("helper", ["_dense_full_decodes", "_dense_factorised_decodes"])
def test_pinned_decodes_do_not_depend_on_the_blas_thread_count(helper):
    # the norms and overlaps are summed in an order numpy fixes, and the
    # matrix products behind the collapse and the Gram matrices split
    # their outputs, not their sums, across threads: the same bits
    assert _decodes_in_a_child(helper, 1) == _decodes_in_a_child(helper, 2)


def test_full_marginal_at_the_dense_full_shape_holds_no_joined_state(f8):
    # no amplitude of the 2^21-amplitude (16 MB) composite is formed: a
    # head, a tail and their 8 x 8 label Gram matrices are held
    code = LinearCode(f8, [[f8.el(1)], [f8.el(2)]], d=3)
    sampler = PcsSampler(code, SigmaParam.from_r(f8, 0))
    columns, _ = sample_label_matrix(2, 3, np.random.default_rng(0))
    pcs = [sampler.collapse(label) for label in columns.T]
    del sampler
    t_rows = plant_instance(code, (f8.el(5),), (f8.zero, f8.zero)).t
    layout = RegisterLayout(p=2, m=3, n=2, label_digits=3, cube_count=3)
    state_bytes = layout.dim * np.result_type(*pcs).itemsize
    assert layout.dim == 2**21 and state_bytes == 2**24
    _dense_full_marginal(columns, pcs, t_rows, layout)  # warm the caches
    tracemalloc.start()
    try:
        marginal = _dense_full_marginal(columns, pcs, t_rows, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert marginal.max() > 1 - 1e-9
    assert peak < state_bytes / 4


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


class _RecordingGenerator(np.random.Generator):
    """A generator that keeps the law of every ``choice`` it draws."""

    def choice(self, a, *args, p=None, **kwargs):
        self.laws.append(p)
        return super().choice(a, *args, p=p, **kwargs)


@pytest.mark.parametrize("p,images,error", [(3, [5, 1, 0], (1, 0, 0)), (5, [19, 7], (1, 0))])
def test_full_path_law_is_nonnegative_at_and_below_the_covering_sigma(
    p, images, error, monkeypatch
):
    # F_9 at n = 3 and F_25 at n = 2 take the full-tensor path on complex
    # states, and sigma = p covers the error image 1.  There the law
    # concentrates, and rounding leaves some impossible outcomes up to
    # about 5e-16 below 0 before the read-out clamps them.  At sigma = 1
    # the law spreads out and the outcome is drawn from it, which a
    # negative entry would make raise ValueError
    f = Field(p, 2)
    code = LinearCode(f, [[f.el(a)] for a in images])
    inst = plant_instance(code, (f.el(1),), tuple(f.el(e) for e in error))
    measured = decoder.fourier_label_marginal
    laws = []

    def recording(head, tail):
        laws.append(measured(head, tail))
        return laws[-1]

    monkeypatch.setattr(decoder, "fourier_label_marginal", recording)
    for seed in range(2):
        assert decode_dense(inst, SigmaParam.from_r(f, 1), seed=seed).s_hat == (1,)
        rng = _RecordingGenerator(np.random.PCG64(seed))
        rng.laws = []
        try:
            decode_dense(inst, SigmaParam.from_r(f, 0), seed=rng)
        except PromiseViolated:
            pass  # the drawn candidate is far from t
        [drawn] = rng.laws
        assert drawn.max() < 1 - CONCENTRATION_TOL
    assert len(laws) == 4 and all(law.min() >= 0 for law in laws)


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
    assert res.s_hat == tuple(digit_images(inst.s_true, 2).tolist())


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
    other = (f4.from_digits(inst.s_true[0].tolist()) + f4.one,)
    assert not verify_candidate(inst, other)  # d = 4 > 2w = 0
    assert not verify_candidate(inst, digit_rows(f4, other))
    from pqdec.codes import DecodeInstance

    unbounded = DecodeInstance(code=code, t=inst.t, w=None)
    assert verify_candidate(unbounded, other)


@pytest.mark.parametrize("module", [pqdec, decoder], ids=["pqdec", "pqdec.decoder"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
