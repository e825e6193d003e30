import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqdec.codes import LinearCode
from pqdec.errors import (
    BadParams,
    BadRegister,
    InvariantViolated,
    LengthMismatch,
    OrthogonalityViolated,
    OutOfRange,
    ScaleExceeded,
)
from pqdec.gf import Field
from pqdec.metrics import manhattan_norm
from pqdec.modp import fp_gauss_invert, rank
from pqdec.qsim import (
    DFT_BLOCK_DIM,
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    _dft_matrix,
    cube_overlap,
    cube_vector,
    digits_to_label,
    dump_state,
    label_permutation,
    label_to_digits,
    load_state,
    pcs_state_direct,
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
        assert digits_to_label(label_to_digits(idx, lay.label_digits, lay.p), lay.p) == idx


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
    # most significant first: the digits read as a base-p numeral
    assert int("".join(map(str, digits.tolist())) or "0", p) == index
    assert int(digits_to_label(digits, p)) == int(digits_to_label(digits.tolist(), p)) == index
    batch = data.draw(st.lists(labels, max_size=12))
    table = label_to_digits(np.array(batch, dtype=np.int64), width, p)
    assert table.shape == (len(batch), width)
    assert [tuple(row) for row in table.tolist()] == [
        tuple(label_to_digits(i, width, p).tolist()) for i in batch
    ]
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


@pytest.mark.parametrize("p,m,n", [(2, 3, 2), (3, 2, 2), (5, 2, 1)])
def test_cube_vector_matches_the_elementwise_definition(p, m, n):
    """The cube at y is the sum of |y + z> over z in [sigma]^n, added as field elements."""
    f = Field(p, m)
    rng = np.random.default_rng(p + m + n)
    for r in range(m):
        sig = SigmaParam.from_r(f, r)
        y = tuple(f.random_element(rng) for _ in range(n))
        want = np.zeros(f.q**n, dtype=np.complex128)
        for z in product(range(sig.sigma), repeat=n):
            images = [(a + f.el(b)).image for a, b in zip(y, z)]
            want[sum(v * f.q ** (n - 1 - j) for j, v in enumerate(images))] += sig.sigma ** (-n / 2)
        assert np.array_equal(cube_vector(f, n, y, sig), want)


@pytest.mark.parametrize("anchor", [(1,), (1, 2, 3)])
def test_cube_vector_rejects_an_anchor_of_the_wrong_length(f4, anchor):
    with pytest.raises(LengthMismatch):
        cube_vector(f4, 2, tuple(f4.el(v) for v in anchor), SigmaParam.from_r(f4, 1))


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
    with pytest.raises(BadRegister):  # every label needs its row, or its slice is never written
        DenseState(lay, vec.copy()).controlled_register_shifts(amounts[1:], 0)


def _shift_cube_reference(t: np.ndarray, digit_rows: np.ndarray, first_axis: int, p: int) -> np.ndarray:
    """The digit-axis rolling kernel the gather replaced: add (n, m) digit rows, LSB first."""
    n, m = digit_rows.shape
    for coord in range(n):
        for digit in range(m):
            amt = int(digit_rows[coord, digit]) % p
            if amt:
                t = np.roll(t, amt, axis=first_axis + coord * m + (m - 1 - digit))
    return t


@pytest.mark.parametrize("p,m,n", [(2, 2, 2), (3, 2, 1), (5, 1, 2), (2, 3, 1)])
def test_shift_kernels_match_rolling_reference(p, m, n):
    rng = np.random.default_rng(p * 10 + m)
    f = Field(p, m)
    lay = RegisterLayout(p=p, m=m, n=n, label_digits=2, cube_count=2)
    tensor_shape = (p,) * lay.total_axes
    for trial in range(4):
        rows = rng.integers(0, p, size=(n, m))
        ell = int(rng.integers(0, p))
        vec = _random_state(lay, trial)
        for register in range(lay.cube_count):
            first = lay.cube_axis(register, 0, m - 1)
            got = DenseState(lay, vec.copy()).shift_register(register, rows, ell)
            want = _shift_cube_reference(vec.reshape(tensor_shape), rows * ell, first, p)
            assert np.array_equal(got.vec, want.reshape(-1))
        cube = _random_state(RegisterLayout(p=p, m=m, n=n, label_digits=0, cube_count=1), trial)
        want = _shift_cube_reference(cube.reshape((p,) * (n * m)), rows * ell, 0, p)
        assert np.array_equal(shift_cube_vector(cube, f, n, rows, ell), want.reshape(-1))
        # controlled powers: label digit j drives register j
        got = DenseState(lay, vec.copy()).controlled_shift_power(rows)
        assert np.array_equal(got.vec, _controlled_shift_power_reference(vec, lay, rows))


def _controlled_shift_power_reference(vec: np.ndarray, lay: RegisterLayout, rows: np.ndarray) -> np.ndarray:
    """U_t^(label digit j) on cube register j, label by label with the rolling kernel."""
    p = lay.p
    want = vec.reshape((lay.label_dim,) + (p,) * (lay.total_axes - lay.label_digits)).copy()
    ells = label_to_digits(np.arange(lay.label_dim), lay.label_digits, p)
    for i in range(lay.label_dim):
        for register in range(lay.cube_count):
            first = lay.cube_axis(register, 0, lay.m - 1) - lay.label_digits
            want[i] = _shift_cube_reference(want[i], rows * ells[i, register], first, p)
    return want.reshape(-1)


def test_shift_rejects_mismatched_register(f4):
    with pytest.raises(BadRegister):
        shift_cube_vector(np.ones(8, dtype=np.complex128), f4, 2, np.ones((2, 2), dtype=np.int64))


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


def _dft_axis_reference(vec: np.ndarray, p: int, axis: int, inverse: bool = False) -> np.ndarray:
    """The one-digit einsum transform the blocked matmul replaced."""
    sign = -1.0 if inverse else 1.0
    a = np.arange(p)
    f = np.exp(sign * 2j * np.pi * np.outer(a, a) / p) / np.sqrt(p)
    return np.einsum("ab,ibj->iaj", f, vec.reshape(p**axis, p, -1)).reshape(-1)


@pytest.mark.parametrize("p,t", [(2, 4), (3, 3), (5, 2)])
def test_dft_axis_matches_per_axis_einsum(p, t):
    lay = RegisterLayout(p=p, m=1, n=2, label_digits=t, cube_count=1)
    vec = _random_state(lay, p)
    for width in range(1, t + 1):
        # first axis, a middle one, and the run that ends at the last axis (post == 1)
        for axis in sorted({0, (lay.total_axes - width) // 2, lay.total_axes - width}):
            for inverse in (False, True):
                got = DenseState(lay, vec.copy()).dft_axis(axis, inverse, width)
                want = vec
                for a in range(axis, axis + width):
                    want = _dft_axis_reference(want, p, a, inverse)
                assert np.max(np.abs(got.vec - want)) < 1e-12


@pytest.mark.parametrize("axis,width", [(2, 2), (3, 1), (-1, 1), (0, 0)])
def test_dft_axis_rejects_axes_outside_layout(axis, width):
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=2, cube_count=1)  # 3 axes
    st = DenseState(lay, _random_state(lay, 0))
    with pytest.raises(BadRegister):
        st.dft_axis(axis, width=width)


def test_qft_label_over_several_runs_matches_per_axis_einsum():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=7, cube_count=1)
    assert lay.label_dim > DFT_BLOCK_DIM  # more label digits than one matmul takes
    vec = _random_state(lay, 7)
    for inverse in (False, True):
        want = vec
        for axis in range(lay.label_digits):
            want = _dft_axis_reference(want, 2, axis, inverse)
        got = DenseState(lay, vec.copy()).qft_label(inverse)
        assert np.max(np.abs(got.vec - want)) < 1e-12


@pytest.mark.parametrize("p,m,r", [(2, 3, 2), (3, 3, 2), (2, 4, 3)])
def test_prep_cube_matches_per_axis_reference(p, m, r):
    f = Field(p, m)
    sigma = SigmaParam.from_r(f, r)
    lay = RegisterLayout(p=p, m=m, n=2, label_digits=1, cube_count=2)
    rng = np.random.default_rng(r)
    rows = rng.integers(0, p, size=(lay.n, m))
    vec = _random_state(lay, m)
    for register in range(lay.cube_count):
        got = DenseState(lay, vec.copy()).prep_cube(register, rows, sigma)
        want = vec
        for coord in range(lay.n):
            for digit in range(r):
                want = _dft_axis_reference(want, p, lay.cube_axis(register, coord, digit))
        want = _shift_cube_reference(
            want.reshape((p,) * lay.total_axes), rows, lay.cube_axis(register, 0, m - 1), p
        )
        assert np.max(np.abs(got.vec - want.reshape(-1))) < 1e-12


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


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_permute_label_inverse_is_permutation_by_inverse_matrix(p, t):
    rng = np.random.default_rng(10 * p + t)
    lay = RegisterLayout(p=p, m=2, n=1, label_digits=t, cube_count=1)
    for trial in range(3):
        matrix = rng.integers(0, p, size=(t, t))
        while rank(matrix, p) < t:
            matrix = rng.integers(0, p, size=(t, t))
        vec = _random_state(lay, trial)
        got = DenseState(lay, vec.copy()).permute_label(matrix, inverse=True)
        want = DenseState(lay, vec.copy()).permute_label(fp_gauss_invert(matrix, p).inverse)
        assert np.array_equal(got.vec, want.vec)
        back = got.permute_label(matrix)
        assert np.array_equal(back.vec, vec)
        there_and_back = DenseState(lay, vec.copy()).permute_label(matrix)
        assert np.array_equal(there_and_back.permute_label(matrix, inverse=True).vec, vec)


def test_permute_label_singular_matrix_raises():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=2, cube_count=1)
    st = DenseState(lay, _random_state(lay, 0))
    with pytest.raises(BadParams):
        st.permute_label(np.array([[1, 1], [1, 1]]))
    with pytest.raises(BadParams):
        st.permute_label(np.array([[1, 1], [1, 1]]), inverse=True)


# ---------------------------------------------------------------- buffers

def _dft_axes_reference(vec, p, first, width, inverse=False):
    for axis in range(first, first + width):
        vec = _dft_axis_reference(vec, p, axis, inverse)
    return vec


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_dft_matrix_p2_is_the_exact_hadamard_power(w, inverse):
    f = _dft_matrix(2, inverse, w)
    a, b = np.indices((2**w, 2**w))
    parity = np.vectorize(lambda x: bin(x).count("1") % 2)(a & b)
    assert f.dtype == np.float64
    assert np.array_equal(f, np.where(parity, -1.0, 1.0) * 2.0 ** (-w / 2))


def _gate_cases():
    """(layout, gate) for every gate kind, with the case name as its id."""
    f4, f9 = Field(2, 2), Field(3, 2)
    lay2 = RegisterLayout(p=2, m=2, n=1, label_digits=3, cube_count=2)  # 7 axes
    lay3 = RegisterLayout(p=3, m=2, n=1, label_digits=2, cube_count=2)  # 6 axes
    rows2 = np.array([[1, 1]])
    matrix = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    return [
        pytest.param(lay2, lambda st: st.dft_axis(0, width=2), id="dft_axis_p2_pre1"),
        pytest.param(lay2, lambda st: st.dft_axis(2, inverse=True, width=3), id="dft_axis_p2_middle"),
        pytest.param(lay2, lambda st: st.dft_axis(5, width=2), id="dft_axis_p2_post1"),
        pytest.param(lay3, lambda st: st.dft_axis(0, width=2), id="dft_axis_p3_pre1"),
        pytest.param(lay3, lambda st: st.dft_axis(2, inverse=True), id="dft_axis_p3_middle"),
        pytest.param(lay3, lambda st: st.dft_axis(4, width=2), id="dft_axis_p3_post1"),
        pytest.param(lay2, lambda st: st.shift_register(1, rows2), id="shift_register"),
        pytest.param(lay2, lambda st: st.prep_cube(0, rows2, SigmaParam.from_r(f4, 1)), id="prep_cube"),
        pytest.param(lay3, lambda st: st.prep_cube(1, np.array([[2, 1]]), SigmaParam.from_r(f9, 1)), id="prep_cube_p3"),
        pytest.param(lay2, lambda st: st.permute_label(matrix), id="permute_label"),
        pytest.param(lay2, lambda st: st.permute_label(matrix, inverse=True), id="permute_label_inverse"),
        pytest.param(lay2, lambda st: st.controlled_shift_power(rows2), id="controlled_shift_power"),
        pytest.param(lay3, lambda st: st.controlled_shift_power(np.array([[1, 2]])), id="controlled_shift_power_p3"),
    ]


@pytest.mark.parametrize("lay,gate", _gate_cases())
def test_gates_never_write_the_callers_array(lay, gate):
    vec = _random_state(lay, 11)
    kept = vec.copy()
    st = DenseState(lay, vec)
    once = gate(st).vec.copy()
    gate(st)  # the second gate is the first to write a recycled buffer
    gate(st)
    assert np.array_equal(vec, kept)
    assert np.array_equal(gate(DenseState(lay, kept.copy())).vec, once)


@pytest.mark.parametrize("p,cube_count", [(2, 2), (2, 3), (3, 2)])
def test_gate_chain_matches_reference_kernels(p, cube_count):
    """Seven gates in a row, each writing into the buffer the one before it left."""
    lay = RegisterLayout(p=p, m=2, n=1, label_digits=cube_count, cube_count=cube_count)
    rng = np.random.default_rng(p + cube_count)
    matrix = rng.integers(0, p, size=(cube_count, cube_count))
    while rank(matrix, p) < cube_count:
        matrix = rng.integers(0, p, size=(cube_count, cube_count))
    rows = rng.integers(1, p, size=(1, 2))
    shape = (p,) * lay.total_axes
    vec = _random_state(lay, 3)
    kept = vec.copy()

    want = _dft_axes_reference(vec, p, 0, cube_count)
    want = _permute_label_reference(want, fp_gauss_invert(matrix, p).inverse, p, cube_count)
    want = _controlled_shift_power_reference(want, lay, rows)
    want = _permute_label_reference(want, matrix, p, cube_count)
    want = _shift_cube_reference(want.reshape(shape), rows, lay.cube_axis(1, 0, 1), p).reshape(-1)
    want = _dft_axes_reference(want, p, lay.total_axes - 2, 2)  # post == 1
    want = _dft_axes_reference(want, p, 0, cube_count, inverse=True)

    st = DenseState(lay, vec)
    (
        st.qft_label()
        .permute_label(matrix, inverse=True)
        .controlled_shift_power(rows)
        .permute_label(matrix)
        .shift_register(1, rows)
        .dft_axis(lay.total_axes - 2, width=2)
        .qft_label(inverse=True)
    )
    assert np.max(np.abs(st.vec - want)) < 1e-12
    assert np.array_equal(vec, kept)


def test_state_rejects_a_vector_of_the_wrong_size():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=1, cube_count=1)
    with pytest.raises(BadRegister):
        DenseState(lay, np.ones(8, dtype=np.complex128))


@pytest.mark.parametrize("p", [2, 3])
def test_norm_drift_raises_a_typed_error(p):
    lay = RegisterLayout(p=p, m=1, n=1, label_digits=2, cube_count=1)
    with pytest.raises(InvariantViolated):
        DenseState(lay, 2 * _random_state(lay, 0)).dft_axis(0)


def test_built_sampler_holds_one_state_sized_array(f16):
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]], d=7)
    sigma = SigmaParam.from_r(f16, 1)
    PcsSampler(code, sigma)  # warm the caches the build fills
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sampler = PcsSampler(code, sigma)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    state_bytes = 16 * sampler.layout.dim  # 2^16 amplitudes
    assert state_bytes <= held < 1.5 * state_bytes


def test_from_parts_checks_part_sizes():
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)  # 32 amplitudes
    with pytest.raises(BadRegister):
        DenseState.from_parts(lay, np.ones(2), [np.ones(8)])
    with pytest.raises(BadRegister):
        DenseState.from_parts(lay, np.ones(4), [np.ones(16)])
    assert len(DenseState.from_parts(lay, np.ones(2), [np.ones(16)]).vec) == lay.dim


def test_from_parts_is_the_kronecker_product():
    lay = RegisterLayout(p=3, m=1, n=2, label_digits=2, cube_count=2)
    rng = np.random.default_rng(8)
    parts = [rng.normal(size=9) + 1j * rng.normal(size=9) for _ in range(3)]
    label, *cubes = parts
    want = np.kron(np.kron(label, cubes[0]), cubes[1])
    assert np.array_equal(DenseState.from_parts(lay, label, cubes).vec, want)


# ---------------------------------------------------------------- factor-first builds

def _sampler_state_reference(code: LinearCode, sigma: SigmaParam) -> np.ndarray:
    """The sampler's five steps with every gate on the joined composite register."""
    f = code.field
    t = f.m * code.k
    lay = RegisterLayout(p=f.p, m=f.m, n=code.n, label_digits=t, cube_count=1)
    state = DenseState.zero_state(lay)
    state.prep_cube(0, np.zeros((code.n, f.m), dtype=np.int64), sigma)
    state.qft_label()
    labels = label_to_digits(np.arange(lay.label_dim), t, f.p)
    amounts = labels @ code.operator.entries.T % f.p
    state.controlled_register_shifts(amounts.reshape(-1, code.n, f.m), 0)
    state.qft_label()
    return state.vec


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_sampler_state_matches_composite_reference(p, r):
    f = Field(p, 2)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]])  # top digits (0, 1): orthogonal at r = 1
    sigma = SigmaParam.from_r(f, r)
    got = PcsSampler(code, sigma).state.vec
    assert np.max(np.abs(got - _sampler_state_reference(code, sigma))) < 1e-12


def test_sampler_joins_its_registers_without_from_parts(f4, monkeypatch):
    # bench/tracer.py counts a from_parts call inside a decode as the full-tensor path
    def refuse(cls, *args):
        raise AssertionError("the sampler built its state through from_parts")

    monkeypatch.setattr(DenseState, "from_parts", classmethod(refuse))
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    assert len(sampler.state.vec) == sampler.layout.dim


@pytest.mark.parametrize("p,label_digits", [(2, 3), (3, 2), (5, 2)])
def test_one_sided_gates_then_from_parts_match_gates_on_the_joined_state(p, label_digits):
    lay = RegisterLayout(p=p, m=2, n=1, label_digits=label_digits, cube_count=2)
    label_lay = RegisterLayout(p=p, m=2, n=1, label_digits=label_digits, cube_count=0)
    cube_lay = RegisterLayout(p=p, m=2, n=1, label_digits=0, cube_count=1)
    label = _random_state(label_lay, 1)
    cubes = [_random_state(cube_lay, 2 + j) for j in range(lay.cube_count)]
    rng = np.random.default_rng(p)
    matrix = rng.integers(0, p, size=(label_digits, label_digits))
    while rank(matrix, p) < label_digits:
        matrix = rng.integers(0, p, size=(label_digits, label_digits))
    label_gates = [
        lambda st: st.qft_label(),
        lambda st: st.qft_label(inverse=True),
        lambda st: st.permute_label(matrix),
        lambda st: st.permute_label(matrix, inverse=True),
    ]
    for gate in label_gates:
        alone = gate(DenseState(label_lay, label)).vec
        joined = gate(DenseState.from_parts(lay, label, cubes)).vec
        assert np.max(np.abs(DenseState.from_parts(lay, alone, cubes).vec - joined)) < 1e-12
    sigma = SigmaParam.from_r(Field(p, 2), 1)
    y = rng.integers(0, p, size=(1, 2))
    for register in range(lay.cube_count):
        parts = list(cubes)
        parts[register] = DenseState(cube_lay, cubes[register]).prep_cube(0, y, sigma).vec
        joined = DenseState.from_parts(lay, label, cubes).prep_cube(register, y, sigma).vec
        assert np.max(np.abs(DenseState.from_parts(lay, label, parts).vec - joined)) < 1e-12


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


@pytest.mark.parametrize(
    "label",
    [(1,), (0, 1, 0), (2, 0), (0, -1), (0.7, 1)],
    ids=["too_short", "too_long", "digit_equal_to_p", "digit_minus_one", "not_an_integer"],
)
def test_collapse_rejects_a_malformed_label(f4, label):
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    with pytest.raises(BadParams):
        sampler.collapse(label)


def test_collapse_of_a_valid_label_is_unchanged(f4):
    # label (0, 1) is basis row 1: the vector is that row of the sampler
    # state, normalised, read both from a tuple and from a numpy column
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    row = sampler.state.vec.reshape(sampler.layout.label_dim, -1)[1]
    want = row / np.linalg.norm(row)
    assert np.array_equal(sampler.collapse((0, 1)), want)
    assert np.array_equal(sampler.collapse(np.array([0, 1])), want)


# ---------------------------------------------------------------- measurement

def test_prep_cube_bad_register(f4):
    from pqdec.errors import BadRegister

    lay = RegisterLayout(p=2, m=2, n=1, label_digits=0, cube_count=1)
    st = DenseState.zero_state(lay)
    with pytest.raises(BadRegister):
        st.prep_cube(1, vector_digit_rows((f4.zero,)), SigmaParam.from_r(f4, 1))


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


def test_load_state_rejects_malformed_dumps(tmp_path, f4):
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    path = tmp_path / "state.pqds"
    dump_state(DenseState.zero_state(lay), str(path), k=1)
    whole = path.read_bytes()
    for name, data in [
        ("missing_last_amplitude", whole[:-16]),
        ("extra_bytes", whole + bytes(16)),
        ("short_header", whole[:10]),
    ]:
        bad = tmp_path / f"{name}.pqds"
        bad.write_bytes(data)
        with pytest.raises(OutOfRange):
            load_state(str(bad))


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
