import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqdec.codes import LinearCode
from pqdec.errors import OrthogonalityViolated, OutOfRange, ScaleExceeded
from pqdec.gf import Field
from pqdec.metrics import manhattan_norm
from pqdec.modp import rank
from pqdec.qsim import (
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    cube_overlap,
    cube_vector,
    digits_to_label,
    dump_state,
    label_permutation,
    label_to_digits,
    load_state,
    pcs_state_direct,
    sample_pcs,
    shift_cube_vector,
    vector_digit_rows,
)

OMEGA = {p: np.exp(2j * np.pi / p) for p in (2, 3)}


def code_123(f4):
    return LinearCode(f4, [[f4.el(1)], [f4.el(2)], [f4.el(3)]], d=4)


def code_23(f4):
    # d deliberately left uncached: the sampler's numeric orthogonality
    # check governs (the cubes at side 2 are in fact disjoint here)
    return LinearCode(f4, [[f4.el(2)], [f4.el(3)]])


# ---------------------------------------------------------------- layout

def test_sigma_param_validation(f4):
    assert SigmaParam.from_r(f4, 1).sigma == 2
    with pytest.raises(OutOfRange):
        SigmaParam.from_r(f4, 2)
    with pytest.raises(OutOfRange):
        SigmaParam.from_r(f4, -1)


def test_layout_counts_and_codec():
    lay = RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2)
    assert lay.dim == 3 ** (2 + 2 * 2 * 2)
    for idx in range(lay.label_dim):
        assert lay.encode_label(lay.decode_label(idx)) == idx


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    width=st.integers(0, 8),
    data=st.data(),
)
def test_label_codec_round_trip(p, width, data):
    lay = RegisterLayout(p=p, m=1, n=1, label_digits=width, cube_count=0)
    labels = st.integers(0, lay.label_dim - 1)
    index = data.draw(labels)
    digits = label_to_digits(index, width, p)
    assert digits.shape == (width,)
    assert tuple(digits.tolist()) == lay.decode_label(index)
    # most significant first: the digits read as a base-p numeral
    assert int("".join(map(str, digits.tolist())) or "0", p) == index
    assert int(digits_to_label(digits, p)) == lay.encode_label(digits) == index
    batch = data.draw(st.lists(labels, max_size=12))
    table = label_to_digits(np.array(batch, dtype=np.int64), width, p)
    assert table.shape == (len(batch), width)
    assert [tuple(row) for row in table.tolist()] == [lay.decode_label(i) for i in batch]
    assert digits_to_label(table, p).tolist() == batch


def test_layout_scale_guard():
    with pytest.raises(ScaleExceeded):
        RegisterLayout(p=2, m=4, n=2, label_digits=4, cube_count=4)  # 2^36


# ---------------------------------------------------------------- cube states

def test_prep_cube_sigma1_is_point(f4):
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=0, cube_count=1)
    st = DenseState.zero_state(lay)
    y = (f4.el(3), f4.el(1))
    st.prep_cube(0, vector_digit_rows(y), SigmaParam.from_r(f4, 0))
    direct = cube_vector(f4, 2, y, SigmaParam.from_r(f4, 0))
    assert np.allclose(st.vec, direct, atol=1e-12)
    assert abs(direct[3 * 4 + 1] - 1.0) < 1e-12


def test_prep_cube_f4_side2(f4):
    sig = SigmaParam.from_r(f4, 1)
    lay = RegisterLayout(p=2, m=2, n=1, label_digits=0, cube_count=1)
    st = DenseState.zero_state(lay)
    st.prep_cube(0, vector_digit_rows((f4.zero,)), sig)
    assert np.allclose(st.vec, [2**-0.5, 2**-0.5, 0, 0], atol=1e-12)
    st2 = DenseState.zero_state(lay)
    st2.prep_cube(0, vector_digit_rows((f4.el(2),)), sig)
    assert np.allclose(st2.vec, [0, 0, 2**-0.5, 2**-0.5], atol=1e-12)


def test_shift_moves_cubes(f4):
    rng = np.random.default_rng(0)
    sig = SigmaParam.from_r(f4, 1)
    for _ in range(25):
        x = tuple(f4.random_element(rng) for _ in range(2))
        y = tuple(f4.random_element(rng) for _ in range(2))
        moved = shift_cube_vector(
            cube_vector(f4, 2, y, sig), f4, 2, vector_digit_rows(x)
        )
        target = cube_vector(f4, 2, tuple(a + b for a, b in zip(x, y)), sig)
        assert np.allclose(moved, target, atol=1e-12)


def test_shift_zero_power_is_identity(f9):
    sig = SigmaParam.from_r(f9, 1)
    vec = cube_vector(f9, 1, (f9.el(4),), sig)
    assert np.array_equal(shift_cube_vector(vec, f9, 1, vector_digit_rows((f9.el(7),)), 0), vec)


def test_shift_order_p_is_identity(f9):
    vec = cube_vector(f9, 1, (f9.el(2),), SigmaParam.from_r(f9, 1))
    rows = vector_digit_rows((f9.el(5),))
    out = vec
    for _ in range(3):
        out = shift_cube_vector(out, f9, 1, rows)
    assert np.allclose(out, vec, atol=1e-12)


def test_dense_shift_register_matches_small_vector(f4):
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    st = DenseState.zero_state(lay)
    sig = SigmaParam.from_r(f4, 1)
    y = (f4.el(1), f4.el(2))
    st.prep_cube(0, vector_digit_rows(y), sig)
    x = (f4.el(2), f4.el(3))
    st.shift_register(0, vector_digit_rows(x))
    expect = np.kron(
        [1, 0], cube_vector(f4, 2, tuple(a + b for a, b in zip(x, y)), sig)
    )
    assert np.allclose(st.vec, expect, atol=1e-12)


def _random_state(lay: RegisterLayout, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    return vec / np.linalg.norm(vec)


def test_controlled_register_shifts_single_row_is_shift_register():
    lay = RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2)
    vec = _random_state(lay, 4)
    v = vec.reshape(lay.label_dim, -1)
    rows = np.array([[1, 2], [0, 1]])
    label = 5
    others = np.arange(lay.label_dim) != label
    for register in range(lay.cube_count):
        amounts = np.zeros((lay.label_dim, lay.n, lay.m), dtype=np.int64)
        amounts[label] = rows
        got = DenseState(lay, vec.copy()).controlled_register_shifts(amounts, register)
        got_v = got.vec.reshape(lay.label_dim, -1)
        weight = np.linalg.norm(v[label])
        alone = np.zeros_like(v)
        alone[label] = v[label] / weight
        want = DenseState(lay, alone.reshape(-1)).shift_register(register, rows)
        want_v = want.vec.reshape(lay.label_dim, -1)
        assert np.allclose(got_v[label], weight * want_v[label], atol=1e-12)
        assert not np.allclose(got_v[label], v[label], atol=1e-6)
        assert np.array_equal(got_v[others], v[others])


# ---------------------------------------------------------------- overlaps

def test_cube_overlap_examples(f4):
    sig = SigmaParam.from_r(f4, 1)
    assert cube_overlap((f4.el(1), f4.el(1)), sig) == 1.0
    assert cube_overlap((f4.el(2), f4.el(0)), sig) == 0.0
    # norm equals n*sigma yet the overlap is already zero: the far
    # condition is sufficient, not necessary
    delta = (f4.el(2),)
    assert manhattan_norm(delta) == 2
    assert cube_overlap(delta, sig) == 0.0


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_cube_overlap_matches_dense_inner_product(p, m):
    f = Field(p, m)
    for n in (1, 2):
        zero = tuple(f.zero for _ in range(n))
        for r in range(m):
            sig = SigmaParam.from_r(f, r)
            c0 = cube_vector(f, n, zero, sig)
            for images in product(range(f.q), repeat=n):
                delta = tuple(f.el(v) for v in images)
                dense = np.vdot(c0, cube_vector(f, n, delta, sig))
                assert abs(dense - cube_overlap(delta, sig)) < 1e-12


# ---------------------------------------------------------------- label QFT

def test_qft_label_p2_single_digit_is_hadamard():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=1, cube_count=0)
    st = DenseState.zero_state(lay)
    st.qft_label()
    assert np.allclose(st.vec, [2**-0.5, 2**-0.5], atol=1e-12)
    one = DenseState(lay, np.array([0, 1], dtype=np.complex128))
    one.qft_label()
    assert np.allclose(one.vec, [2**-0.5, -(2**-0.5)], atol=1e-12)


def test_qft_label_round_trip(f9):
    lay = RegisterLayout(p=3, m=2, n=1, label_digits=2, cube_count=1)
    rng = np.random.default_rng(1)
    vec = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    vec /= np.linalg.norm(vec)
    st = DenseState(lay, vec.copy())
    st.qft_label()
    st.qft_label(inverse=True)
    assert np.allclose(st.vec, vec, atol=1e-10)


def test_qft_label_zero_to_uniform():
    lay = RegisterLayout(p=3, m=1, n=1, label_digits=3, cube_count=0)
    st = DenseState.zero_state(lay)
    st.qft_label()
    assert np.allclose(st.vec, 3**-1.5, atol=1e-12)


# ---------------------------------------------------------------- label permutation

def _permute_label_reference(vec: np.ndarray, matrix: np.ndarray, p: int, t: int) -> np.ndarray:
    """|v> -> |M v> by one pass over the labels, with the digit arithmetic written out."""
    v = vec.reshape(p**t, -1)
    out = np.empty_like(v)
    for i in range(p**t):
        digits = [(i // p ** (t - 1 - j)) % p for j in range(t)]
        image = (matrix @ np.array(digits)) % p
        out[sum(int(d) * p ** (t - 1 - j) for j, d in enumerate(image))] = v[i]
    return out.reshape(-1)


@pytest.mark.parametrize("p,t", [(2, 4), (3, 3), (5, 2)])
def test_permute_label_matches_per_label_loop(p, t):
    rng = np.random.default_rng(p)
    lay = RegisterLayout(p=p, m=1, n=1, label_digits=t, cube_count=1)
    for trial in range(4):
        matrix = rng.integers(0, p, size=(t, t))
        while rank(matrix, p) < t:
            matrix = rng.integers(0, p, size=(t, t))
        vec = _random_state(lay, trial)
        got = DenseState(lay, vec.copy()).permute_label(matrix)
        assert np.array_equal(got.vec, _permute_label_reference(vec, matrix, p, t))
        table = label_to_digits(np.arange(lay.label_dim), t, p)
        assert np.array_equal(
            label_permutation(matrix, p), digits_to_label(table @ matrix.T % p, p)
        )


# ---------------------------------------------------------------- controlled shifts

def test_controlled_shift_zero_control_is_identity(f4):
    code = code_123(f4)
    sig = SigmaParam.from_r(f4, 0)
    phi = pcs_state_direct(code, sig, (0, 1))
    lay = RegisterLayout(p=2, m=2, n=3, label_digits=2, cube_count=1)
    label = np.zeros(4, dtype=np.complex128)
    label[0] = 1.0  # control digits (0, 0)
    st = DenseState.from_parts(lay, label, [phi])
    before = st.vec.copy()
    st.controlled_shift_power(vector_digit_rows(code.encode((f4.el(1),))))
    assert np.allclose(st.vec, before, atol=1e-12)


def test_controlled_shift_kickback_matches_eigenphase(f4):
    """Control in uniform superposition picks up omega^(-ell a.s) per branch."""
    code = code_23(f4)
    sig = SigmaParam.from_r(f4, 1)
    s = (f4.el(3),)
    t = code.encode(s)
    for label in product(range(2), repeat=2):
        phi = pcs_state_direct(code, sig, label)
        lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
        label_vec = np.array([2**-0.5, 2**-0.5], dtype=np.complex128)
        st = DenseState.from_parts(lay, label_vec, [phi])
        st.controlled_shift_power(vector_digit_rows(t))
        phase = (np.array(label) @ np.array([d for e in s for d in e.digits])) % 2
        expect = np.concatenate(
            [2**-0.5 * phi, 2**-0.5 * (-1.0) ** phase * phi]
        )
        assert np.allclose(st.vec, expect, atol=1e-10)


# ---------------------------------------------------------------- eigenvector law

def test_pcs_is_shift_eigenvector_exhaustive(f4):
    """U_t Phi(a) = omega^(-a.s) Phi(a) for every label, planted t."""
    code = code_23(f4)
    sig = SigmaParam.from_r(f4, 1)
    errors = [(0, 0), (1, 0), (0, 1)]
    for s_img in range(4):
        s = (f4.el(s_img),)
        for err in errors:
            e = tuple(f4.el(v) for v in err)
            t = tuple(a + b for a, b in zip(code.encode(s), e))
            for label in product(range(2), repeat=2):
                phi = pcs_state_direct(code, sig, label)
                shifted = shift_cube_vector(phi, f4, 2, vector_digit_rows(t))
                phase = (
                    np.array(label) @ np.array([d for x in s for d in x.digits])
                ) % 2
                assert np.allclose(shifted, (-1.0) ** phase * phi, atol=1e-10)


def test_pcs_is_shift_eigenvector_n1(f4):
    # n = 1: the code is the full line, sigma = 1 cubes are the q points
    code = LinearCode(f4, [[f4.el(2)]])
    sig = SigmaParam.from_r(f4, 0)
    for s_img in range(4):
        s = (f4.el(s_img),)
        t = code.encode(s)
        for label in product(range(2), repeat=2):
            phi = pcs_state_direct(code, sig, label)
            shifted = shift_cube_vector(phi, f4, 1, vector_digit_rows(t))
            phase = (np.array(label) @ np.array(s[0].digits)) % 2
            assert np.allclose(shifted, (-1.0) ** phase * phi, atol=1e-10)


def test_pcs_eigenvector_fails_beyond_sigma(f4):
    """Boundary honesty: a coordinate error with image >= sigma breaks it."""
    code = code_123(f4)
    sig = SigmaParam.from_r(f4, 0)  # sigma = 1: only zero error qualifies
    s = (f4.el(1),)
    e = (f4.el(1), f4.zero, f4.zero)  # image 1 >= sigma
    t = tuple(a + b for a, b in zip(code.encode(s), e))
    phi = pcs_state_direct(code, sig, (1, 0))
    shifted = shift_cube_vector(phi, f4, 3, vector_digit_rows(t))
    assert not np.allclose(np.abs(np.vdot(phi, shifted)), 1.0, atol=1e-6)


# ---------------------------------------------------------------- the sampler

def test_sampler_marginal_exactly_uniform(f4, f9):
    for code, field in [
        (code_123(f4), f4),
        (LinearCode(f9, [[f9.el(1)], [f9.el(3)]], d=3), f9),
    ]:
        sampler = PcsSampler(code, SigmaParam.from_r(field, 0))
        assert np.max(np.abs(sampler.marginal - 1 / sampler.layout.label_dim)) < 1e-12


def test_sampler_collapse_equals_direct_construction(f4):
    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    for label in product(range(2), repeat=2):
        got = sampler.collapse(label)
        want = pcs_state_direct(code, SigmaParam.from_r(f4, 0), label)
        assert np.allclose(got, want, atol=1e-12)


def test_sampler_collapse_sigma2_q16(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]], d=7)
    sig = SigmaParam.from_r(f16, 1)
    sampler = PcsSampler(code, sig)
    assert np.max(np.abs(sampler.marginal - 1 / 16)) < 1e-12
    for label in [(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0)]:
        assert np.allclose(
            sampler.collapse(label), pcs_state_direct(code, sig, label), atol=1e-12
        )


def test_sampler_sigma1_is_phased_codeword_superposition(f4):
    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    vec = sampler.collapse((1, 1))
    support = np.nonzero(np.abs(vec) > 1e-12)[0]
    assert len(support) == 4  # one point per codeword
    assert np.allclose(np.abs(vec[support]), 0.5, atol=1e-12)


def test_sampler_raises_on_cached_small_distance(f4):
    code = code_123(f4)  # d = 4 <= sigma * n = 2 * 3
    with pytest.raises(OrthogonalityViolated):
        PcsSampler(code, SigmaParam.from_r(f4, 1))


def test_sampler_detects_collisions_numerically(f4):
    # q4 n1 k1: the code is the whole line, cubes of side 2 coincide
    code = LinearCode(f4, [[f4.el(1)]])
    with pytest.raises(OrthogonalityViolated):
        PcsSampler(code, SigmaParam.from_r(f4, 1))


def test_sample_pcs_stream(f4):
    code = code_123(f4)
    rng = np.random.default_rng(5)
    label, vec, sampler = sample_pcs(code, SigmaParam.from_r(f4, 0), rng)
    assert len(label) == 2
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
    assert np.allclose(vec, sampler.collapse(label), atol=1e-12)


# ---------------------------------------------------------------- measurement

def test_prep_cube_bad_register(f4):
    from pqdec.errors import BadRegister

    lay = RegisterLayout(p=2, m=2, n=1, label_digits=0, cube_count=1)
    st = DenseState.zero_state(lay)
    with pytest.raises(BadRegister):
        st.prep_cube(1, vector_digit_rows((f4.zero,)), SigmaParam.from_r(f4, 1))


def test_measure_label_deterministic_state(f4):
    lay = RegisterLayout(p=2, m=2, n=1, label_digits=2, cube_count=1)
    st = DenseState.zero_state(lay)
    digits, _ = st.measure_label(np.random.default_rng(0))
    assert digits == (0, 0)


def test_measure_label_uniform_probabilities():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=3, cube_count=0)
    st = DenseState.zero_state(lay)
    st.qft_label()
    marg = st.label_marginal()
    assert np.allclose(marg, 1 / 8, atol=1e-12)


# ---------------------------------------------------------------- dumps

def test_dump_load_round_trip(tmp_path, f4):
    code = code_123(f4)
    sampler = PcsSampler(code, SigmaParam.from_r(f4, 0))
    path = str(tmp_path / "state.pqds")
    dump_state(sampler.state, path, k=1, sigma=SigmaParam.from_r(f4, 0))
    header, loaded = load_state(path)
    assert header == {"p": 2, "m": 2, "n": 3, "k": 1, "T": 2, "sigma_r": 0}
    assert np.array_equal(loaded.vec, sampler.state.vec)


def test_dump_golden_bytes(tmp_path, f4):
    # exact 0/1 amplitudes make the dump bit-stable across platforms
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    st = DenseState.zero_state(lay)
    st.shift_register(0, vector_digit_rows((f4.el(3), f4.el(1))))
    path = str(tmp_path / "golden.pqds")
    dump_state(st, path, k=1)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_SHA256


GOLDEN_SHA256 = "17611be24bc2092f60b988274df4dfa347ed5401e74d7ec9691f34e467059a90"
