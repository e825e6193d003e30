import hashlib
import tracemalloc
from dataclasses import replace
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pqdec import decoder, qsim
from pqdec.codes import LinearCode
from pqdec.decoder import _dense_full_marginal
from pqdec.errors import (
    BadParams,
    BadRegister,
    InvariantViolated,
    LengthMismatch,
    OrthogonalityViolated,
    OutOfRange,
    ScaleExceeded,
)
from pqdec.gf import Field, digit_rows
from pqdec.metrics import manhattan_norm
from pqdec.modp import fp_gauss_invert, rank
from pqdec.qsim import (
    DFT_BLOCK_DIM,
    DFT_TILE,
    DenseState,
    PcsSampler,
    RegisterLayout,
    SigmaParam,
    _dft_matrix,
    _dft_runs,
    _fourier_law,
    _join,
    _real_part,
    _require_uniform,
    _row_dots,
    cube_overlap,
    cube_vector,
    digits_to_label,
    fourier_label_marginal,
    label_source,
    label_to_digits,
    pcs_state_direct,
    shift_cube_vector,
)

from conftest import generator_table, power_generators

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


@pytest.mark.parametrize(
    "bad",
    [
        {"p": 4},
        {"p": 1},
        {"p": 0},
        {"m": 0},
        {"n": 0},
        {"label_digits": -1},
        {"cube_count": -1},
        # a negative m or n counts negative digit slots per coordinate
        {"m": -1},
        {"n": -1},
    ],
)
def test_layout_rejects_impossible_shapes(bad):
    with pytest.raises(OutOfRange):
        RegisterLayout(**{"p": 2, "m": 1, "n": 1, "label_digits": 1, "cube_count": 1, **bad})


# ---------------------------------------------------------------- cube states

def test_prep_cube_sigma1_is_point(f4):
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=0, cube_count=1)
    sig = SigmaParam.from_r(f4, 0)
    st = DenseState.zero_state(lay).prep_cube(sig)
    assert np.allclose(st.vec, cube_vector(f4, 2, (f4.zero, f4.zero), sig), atol=1e-12)
    y = digit_rows(f4, (f4.el(3), f4.el(1)))
    direct = cube_vector(f4, 2, y, sig)
    assert np.allclose(shift_cube_vector(st.vec, f4, y), direct, atol=1e-12)
    assert abs(direct[3 * 4 + 1] - 1.0) < 1e-12


def test_prep_cube_f4_side2(f4):
    sig = SigmaParam.from_r(f4, 1)
    lay = RegisterLayout(p=2, m=2, n=1, label_digits=0, cube_count=1)
    st = DenseState.zero_state(lay).prep_cube(sig)
    assert np.allclose(st.vec, [2**-0.5, 2**-0.5, 0, 0], atol=1e-12)
    two = digit_rows(f4, (f4.el(2),))
    moved = shift_cube_vector(st.vec, f4, two)
    assert np.allclose(moved, [0, 0, 2**-0.5, 2**-0.5], atol=1e-12)
    assert np.allclose(moved, cube_vector(f4, 1, two, sig), atol=1e-12)


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
        assert np.array_equal(cube_vector(f, n, digit_rows(f, y), sig), want)
        assert np.array_equal(cube_vector(f, n, y, sig), want)


@pytest.mark.parametrize("anchor", [(1,), (1, 2, 3)])
def test_cube_vector_rejects_an_anchor_of_the_wrong_length(f4, anchor):
    with pytest.raises(LengthMismatch):
        cube_vector(f4, 2, tuple(f4.el(v) for v in anchor), SigmaParam.from_r(f4, 1))


@pytest.mark.parametrize("p,m,n", [(2, 16, 4), (2, 5, 5)], ids=["past_int64", "past_guard"])
def test_cube_vector_guards_its_amplitudes(p, m, n):
    # q^n past the amplitude guard raises before the vector is allocated
    f = Field(p, m)
    with pytest.raises(ScaleExceeded, match="cube vector needs"):
        cube_vector(f, n, (f.zero,) * n, SigmaParam.from_r(f, 0))


@pytest.mark.parametrize("p,m,n", [(2, 16, 4), (2, 5, 5)], ids=["past_int64", "past_guard"])
def test_pcs_state_direct_guards_its_amplitudes(p, m, n):
    f = Field(p, m)
    code = LinearCode(f, [[f.one]] * n)
    with pytest.raises(ScaleExceeded, match="phased cube state needs"):
        pcs_state_direct(code, SigmaParam.from_r(f, 0), (0,) * m)


def test_shift_moves_cubes(f4):
    rng = np.random.default_rng(0)
    sig = SigmaParam.from_r(f4, 1)
    for _ in range(25):
        x = tuple(f4.random_element(rng) for _ in range(2))
        y = tuple(f4.random_element(rng) for _ in range(2))
        moved = shift_cube_vector(cube_vector(f4, 2, y, sig), f4, digit_rows(f4, x))
        target = cube_vector(f4, 2, tuple(a + b for a, b in zip(x, y)), sig)
        assert np.allclose(moved, target, atol=1e-12)


def test_shift_zero_power_is_identity(f9):
    sig = SigmaParam.from_r(f9, 1)
    vec = cube_vector(f9, 1, (f9.el(4),), sig)
    assert np.array_equal(shift_cube_vector(vec, f9, digit_rows(f9, (f9.el(7),)), 0), vec)


def test_shift_zero_power_is_a_copy_and_makes_no_map(f9, shift_maps):
    vec = cube_vector(f9, 1, (f9.el(4),), SigmaParam.from_r(f9, 1))
    rows = digit_rows(f9, (f9.el(7),))
    for ell in (0, 3, -6):  # every multiple of p is the zero power
        moved = shift_cube_vector(vec, f9, rows, ell)
        assert moved is not vec and np.array_equal(moved, vec)
    assert shift_maps == []
    with pytest.raises(BadRegister):
        shift_cube_vector(np.ones(8, dtype=np.complex128), f9, rows, 0)


def test_shift_of_a_stack_shifts_each_row_through_one_map(f9, shift_maps):
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(3, 2, 81)) + 1j * rng.normal(size=(3, 2, 81))
    rows = digit_rows(f9, (f9.el(5), f9.el(7)))
    got = shift_cube_vector(stack, f9, rows, 2)
    assert len(shift_maps) == 1 and got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-1]):
        assert np.array_equal(got[idx], shift_cube_vector(stack[idx], f9, rows, 2))


def test_shift_order_p_is_identity(f9):
    vec = cube_vector(f9, 1, (f9.el(2),), SigmaParam.from_r(f9, 1))
    rows = digit_rows(f9, (f9.el(5),))
    out = vec
    for _ in range(3):
        out = shift_cube_vector(out, f9, rows)
    assert np.allclose(out, vec, atol=1e-12)


def test_dense_shift_register_matches_small_vector(f4):
    """Prep at 0, then a controlled shift by x (label 0) or y (label 1)."""
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    sig = SigmaParam.from_r(f4, 1)
    st = DenseState.zero_state(lay).prep_cube(sig).qft_label()
    x = digit_rows(f4, (f4.el(2), f4.el(3)))
    y = digit_rows(f4, (f4.el(1), f4.el(2)))
    st.controlled_register_shifts(np.stack([x, y])[:, None])
    at_zero = DenseState.zero_state(replace(lay, label_digits=0)).prep_cube(sig).vec
    for label, anchor in enumerate([x, y]):
        slice_ = st.vec.reshape(2, -1)[label] * 2**0.5
        assert np.allclose(slice_, cube_vector(f4, 2, anchor, sig), atol=1e-12)
        moved = shift_cube_vector(at_zero, f4, anchor)
        assert np.allclose(slice_, moved, atol=1e-12)


def _random_state(lay: RegisterLayout, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    return vec / np.linalg.norm(vec)


def _cube_axis(lay: RegisterLayout, register: int, coord: int, digit: int) -> int:
    """Axis holding digit ``digit`` (0 = LSB) of a coordinate of a cube register."""
    return lay.label_digits + (register * lay.n + coord) * lay.m + (lay.m - 1 - digit)


def _one_register_amounts(lay: RegisterLayout, register: int, rows: np.ndarray) -> np.ndarray:
    """Shift amounts adding ``rows`` to one cube register on every label."""
    amounts = np.zeros((lay.label_dim, lay.cube_count, lay.n, lay.m), dtype=np.int64)
    amounts[:, register] = rows
    return amounts


def test_controlled_register_shifts_single_row_is_shift_register():
    """One label's row shifts that label's slice of one register, and nothing else."""
    lay = RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2)
    vec = _random_state(lay, 4)
    v = vec.reshape(lay.label_dim, -1)
    rows = np.array([[1, 2], [0, 1]])
    label = 5
    others = np.arange(lay.label_dim) != label
    cube_shape = (lay.p,) * (lay.total_axes - lay.label_digits)
    for register in range(lay.cube_count):
        amounts = np.zeros((lay.label_dim, lay.cube_count, lay.n, lay.m), dtype=np.int64)
        amounts[label, register] = rows
        got = DenseState(lay, vec.copy()).controlled_register_shifts(amounts)
        got_v = got.vec.reshape(lay.label_dim, -1)
        first = _cube_axis(lay, register, 0, lay.m - 1) - lay.label_digits
        want = _shift_cube_reference(v[label].reshape(cube_shape), rows, first, lay.p)
        assert np.array_equal(got_v[label], want.reshape(-1))
        assert not np.allclose(got_v[label], v[label], atol=1e-6)
        assert np.array_equal(got_v[others], v[others])
    with pytest.raises(BadRegister):  # every label needs its row, or its slice is never written
        DenseState(lay, vec.copy()).controlled_register_shifts(amounts[1:])


def test_controlled_register_shifts_bad_register():
    """Amounts must name every cube register, with the layout's n and m."""
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=2)
    st = DenseState(lay, _random_state(lay, 0))
    good = (lay.label_dim, lay.cube_count, lay.n, lay.m)
    st.controlled_register_shifts(np.zeros(good, dtype=np.int64))
    for shape in [(2, 1, 2, 2), (2, 3, 2, 2), (2, 2, 1, 2), (2, 2, 2, 3), (2, 2, 2)]:
        with pytest.raises(BadRegister):
            st.controlled_register_shifts(np.zeros(shape, dtype=np.int64))


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
            first = _cube_axis(lay, register, 0, m - 1)
            amounts = _one_register_amounts(lay, register, rows * ell)
            got = DenseState(lay, vec.copy()).controlled_register_shifts(amounts)
            want = _shift_cube_reference(vec.reshape(tensor_shape), rows * ell, first, p)
            assert np.array_equal(got.vec, want.reshape(-1))
        cube = _random_state(RegisterLayout(p=p, m=m, n=n, label_digits=0, cube_count=1), trial)
        want = _shift_cube_reference(cube.reshape((p,) * (n * m)), rows * ell, 0, p)
        assert np.array_equal(shift_cube_vector(cube, f, rows, ell), want.reshape(-1))
        # controlled powers: label digit j drives register j
        got = DenseState(lay, vec.copy())
        got.controlled_register_shifts(generator_table(lay, power_generators(lay, rows)))
        assert np.array_equal(got.vec, _controlled_shift_power_reference(vec, lay, rows))


def _controlled_shift_power_reference(vec: np.ndarray, lay: RegisterLayout, rows: np.ndarray) -> np.ndarray:
    """U_t^(label digit j) on cube register j, label by label with the rolling kernel."""
    p = lay.p
    want = vec.reshape((lay.label_dim,) + (p,) * (lay.total_axes - lay.label_digits)).copy()
    ells = label_to_digits(np.arange(lay.label_dim), lay.label_digits, p)
    for i in range(lay.label_dim):
        for register in range(lay.cube_count):
            first = _cube_axis(lay, register, 0, lay.m - 1) - lay.label_digits
            want[i] = _shift_cube_reference(want[i], rows * ells[i, register], first, p)
    return want.reshape(-1)


def test_shift_rejects_mismatched_register(f4):
    with pytest.raises(BadRegister):
        shift_cube_vector(np.ones(8, dtype=np.complex128), f4, np.ones((2, 2), dtype=np.int64))


# ---------------------------------------------------------------- overlaps

def test_cube_overlap_examples(f4):
    sig = SigmaParam.from_r(f4, 1)
    assert cube_overlap(f4, digit_rows(f4, (f4.el(1), f4.el(1))), sig) == 1.0
    assert cube_overlap(f4, digit_rows(f4, (f4.el(2), f4.el(0))), sig) == 0.0
    assert cube_overlap(f4, (f4.el(2), f4.el(0)), sig) == 0.0
    # norm equals n*sigma yet the overlap is already zero: the far
    # condition is sufficient, not necessary
    delta = digit_rows(f4, (f4.el(2),))
    assert manhattan_norm(f4, delta) == 2
    assert cube_overlap(f4, delta, sig) == 0.0


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_cube_overlap_matches_dense_inner_product(p, m):
    f = Field(p, m)
    for n in (1, 2):
        zero = np.zeros((n, m), dtype=np.int64)
        for r in range(m):
            sig = SigmaParam.from_r(f, r)
            c0 = cube_vector(f, n, zero, sig)
            for images in product(range(f.q), repeat=n):
                delta = digit_rows(f, [f.el(v) for v in images])
                dense = np.vdot(c0, cube_vector(f, n, delta, sig))
                assert abs(dense - cube_overlap(f, delta, sig)) < 1e-12


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
    """prep_cube transforms the r low digits of every coordinate of every cube register."""
    f = Field(p, m)
    sigma = SigmaParam.from_r(f, r)
    lay = RegisterLayout(p=p, m=m, n=2, label_digits=1, cube_count=2)
    vec = _random_state(lay, m)
    got = DenseState(lay, vec.copy()).prep_cube(sigma)
    want = vec
    for register in range(lay.cube_count):
        for coord in range(lay.n):
            for digit in range(r):
                want = _dft_axis_reference(want, p, _cube_axis(lay, register, coord, digit))
    assert np.max(np.abs(got.vec - want)) < 1e-12


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
        per_label = [digits_to_label(matrix @ label_to_digits(i, t, p), p) for i in range(p**t)]
        assert np.array_equal(label_source(matrix, p, inverse=True), per_label)


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


def _gate_cases(lay2: RegisterLayout, lay3: RegisterLayout):
    """(layout, gate) for every gate kind, with the case name as its id.

    ``lay2`` is over F_4 and ``lay3`` over F_9; each needs two cube
    registers and at least two label digits.
    """
    f4, f9 = Field(2, 2), Field(3, 2)
    rows2 = np.ones((lay2.n, lay2.m), dtype=np.int64)
    rows3 = np.arange(1, lay3.n * lay3.m + 1).reshape(lay3.n, lay3.m) % 3

    def shift_powers(rows):  # U_t^(label digit j) on cube register j
        return lambda st: st.controlled_register_shifts(
            generator_table(st.layout, power_generators(st.layout, rows))
        )

    amounts2 = np.random.default_rng(5).integers(
        0, 2, size=(lay2.label_dim, lay2.cube_count, lay2.n, lay2.m)
    )
    t = lay2.label_digits
    matrix = np.eye(t, dtype=np.int64) + np.eye(t, k=1, dtype=np.int64)
    post1_2, post1_3 = lay2.total_axes - 2, lay3.total_axes - 2
    return [
        pytest.param(lay2, lambda st: st.dft_axis(0, width=2), id="dft_axis_p2_pre1"),
        pytest.param(lay2, lambda st: st.dft_axis(2, inverse=True, width=3), id="dft_axis_p2_middle"),
        pytest.param(lay2, lambda st: st.dft_axis(post1_2, width=2), id="dft_axis_p2_post1"),
        pytest.param(lay3, lambda st: st.dft_axis(0, width=2), id="dft_axis_p3_pre1"),
        pytest.param(lay3, lambda st: st.dft_axis(2, inverse=True), id="dft_axis_p3_middle"),
        pytest.param(lay3, lambda st: st.dft_axis(post1_3, width=2), id="dft_axis_p3_post1"),
        pytest.param(lay2, lambda st: st.controlled_register_shifts(amounts2), id="controlled_register_shifts"),
        pytest.param(lay2, lambda st: st.prep_cube(SigmaParam.from_r(f4, 1)), id="prep_cube"),
        pytest.param(lay3, lambda st: st.prep_cube(SigmaParam.from_r(f9, 1)), id="prep_cube_p3"),
        pytest.param(lay2, lambda st: st.permute_label(matrix), id="permute_label"),
        pytest.param(lay2, lambda st: st.permute_label(matrix, inverse=True), id="permute_label_inverse"),
        pytest.param(lay2, shift_powers(rows2), id="controlled_shift_power"),
        pytest.param(lay3, shift_powers(rows3), id="controlled_shift_power_p3"),
    ]


@pytest.mark.parametrize(
    "lay,gate",
    _gate_cases(
        RegisterLayout(p=2, m=2, n=1, label_digits=3, cube_count=2),  # 7 axes
        RegisterLayout(p=3, m=2, n=1, label_digits=2, cube_count=2),  # 6 axes
    ),
)
def test_gates_never_write_the_callers_array(lay, gate):
    vec = _random_state(lay, 11)
    kept = vec.copy()
    st = DenseState(lay, vec)
    once = gate(st).vec.copy()
    gate(st)  # later gates overwrite the state's own array, never the caller's
    gate(st)
    assert np.array_equal(vec, kept)
    assert np.array_equal(gate(DenseState(lay, kept.copy())).vec, once)


@pytest.mark.parametrize(
    "lay,gate",
    _gate_cases(
        RegisterLayout(p=2, m=2, n=3, label_digits=4, cube_count=2),  # 2^16 amplitudes
        RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2),  # 3^10 amplitudes
    ),
)
def test_gates_allocate_no_state_sized_array(lay, gate):
    st = DenseState(lay, _random_state(lay, 12))
    vec = st.vec
    tracemalloc.start()
    try:
        gate(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.vec is vec
    assert peak < 16 * lay.dim / 2


@pytest.mark.parametrize("p", [2, 3])
def test_controlled_shift_skips_zero_rows_and_matches_reference(p, shift_maps):
    """Zero digit matrices make no map and no pass; the rest match the rolling kernel.

    With three registers, labels shift an even and an odd number of them,
    so the gathers end in the label slice and in the scratch alike.
    """
    lay = RegisterLayout(p=p, m=2, n=1, label_digits=3, cube_count=3)
    rows = np.array([[1, p - 1]])
    ells = label_to_digits(np.arange(lay.label_dim), lay.label_digits, p)
    amounts = ells[:, :, None, None] * rows
    nonzero = int(np.count_nonzero(amounts.any(axis=(2, 3))))
    assert 0 < nonzero < lay.label_dim * lay.cube_count
    vec = _random_state(lay, 6)
    got = DenseState(lay, vec.copy()).controlled_register_shifts(amounts)
    assert len(shift_maps) == nonzero
    assert np.array_equal(got.vec, _controlled_shift_power_reference(vec, lay, rows))


def _tiled_dft_cases():
    """(layout, axis, width) on states of several Fourier tiles: pre == 1, a
    run of rows, post == 1, and column slices of more than one row."""
    lay2 = RegisterLayout(p=2, m=2, n=4, label_digits=1, cube_count=2)  # 2^17 amplitudes
    lay3 = RegisterLayout(p=3, m=2, n=2, label_digits=3, cube_count=2)  # 3^11 amplitudes
    return [
        pytest.param(lay, axis, width, id=f"p{lay.p}_{name}")
        for lay in (lay2, lay3)
        for name, axis, width in [
            ("pre1", 0, 3 if lay.p == 2 else 2),
            ("rows", lay.total_axes // 2, 2),
            ("post1", lay.total_axes - 2, 2),
            ("columns", 1, 1),
        ]
    ]


@pytest.mark.parametrize("lay,axis,width", _tiled_dft_cases())
def test_dft_axis_over_several_tiles_matches_per_axis_einsum(lay, axis, width):
    assert 2 * lay.dim >= 4 * DFT_TILE
    vec = _random_state(lay, axis)
    for inverse in (False, True):
        got = DenseState(lay, vec.copy()).dft_axis(axis, inverse, width)
        want = _dft_axes_reference(vec, lay.p, axis, width, inverse)
        assert np.max(np.abs(got.vec - want)) < 1e-12


@pytest.mark.parametrize("lay,axis,width", _tiled_dft_cases())
def test_norm_drift_in_a_later_tile_raises(lay, axis, width):
    """The drift sits in the last amplitudes, which no tile but the last holds."""
    vec = _random_state(lay, 1)
    vec[-64:] *= 1 + 1e-4
    with pytest.raises(InvariantViolated):
        DenseState(lay, vec).dft_axis(axis, width=width)


@pytest.mark.parametrize("p,cube_count", [(2, 2), (2, 3), (3, 2)])
def test_gate_chain_matches_reference_kernels(p, cube_count):
    """Seven gates in a row, each in place on the state's one array."""
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
    want = _shift_cube_reference(want.reshape(shape), rows, _cube_axis(lay, 1, 0, 1), p).reshape(-1)
    want = _dft_axes_reference(want, p, lay.total_axes - 2, 2)  # post == 1
    want = _dft_axes_reference(want, p, 0, cube_count, inverse=True)

    st = DenseState(lay, vec)
    (
        st.qft_label()
        .permute_label(matrix, inverse=True)
        .controlled_register_shifts(generator_table(lay, power_generators(lay, rows)))
        .permute_label(matrix)
        .controlled_register_shifts(_one_register_amounts(lay, 1, rows))
        .dft_axis(lay.total_axes - 2, width=2)
        .qft_label(inverse=True)
    )
    assert np.max(np.abs(st.vec - want)) < 1e-12
    assert np.array_equal(vec, kept)


def test_state_rejects_a_vector_of_the_wrong_size():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=1, cube_count=1)
    with pytest.raises(BadRegister):
        DenseState(lay, np.ones(8, dtype=np.complex128))


@pytest.mark.parametrize("shape", [(2**16 + 1,), (2**15,), (2, 2**15), (2**16, 1)])
def test_state_checks_the_shape_before_the_copy(shape):
    lay = RegisterLayout(p=2, m=2, n=7, label_digits=2, cube_count=1)  # 2^16 amplitudes
    vec = np.ones(shape, dtype=np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(BadRegister):
            DenseState(lay, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * lay.dim / 64  # a copy would take 16 bytes per amplitude


@pytest.mark.parametrize("p", [2, 3])
def test_norm_drift_raises_a_typed_error(p):
    lay = RegisterLayout(p=p, m=1, n=1, label_digits=2, cube_count=1)
    with pytest.raises(InvariantViolated):
        DenseState(lay, 2 * _random_state(lay, 0)).dft_axis(0)


def _built_sampler_and_bytes_held(code: LinearCode, sigma: SigmaParam) -> tuple[PcsSampler, int]:
    """A sampler and the bytes it holds once built, caches warmed first."""
    PcsSampler(code, sigma)  # warm the caches the build fills
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sampler = PcsSampler(code, sigma)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return sampler, held


def test_built_sampler_holds_one_state_sized_array(f16):
    # at r = 1 the held array is the state on the m - r high digits of each
    # coordinate: p^(mk) * p^((m-r)n) = 2^4 * 2^9 amplitudes, an eighth of
    # the 2^16 of the whole register
    code = LinearCode(f16, [[f16.el(1)], [f16.el(2)], [f16.el(4)]], d=7)
    sampler, held = _built_sampler_and_bytes_held(code, SigmaParam.from_r(f16, 1))
    state_bytes = 2**4 * 2 ** ((4 - 1) * 3) * 8
    assert sampler.amplitudes.nbytes == state_bytes
    assert state_bytes <= held < 1.5 * state_bytes


def test_sampler_build_at_the_dense_factorised_shape_peaks_under_1_mb():
    # F_27, n = 3, k = 1, sigma = 3: the whole register's 3^12 real
    # amplitudes are 4.25 MB; the high digits' 3^3 * 3^6 are 157 kB
    f = Field(3, 3, poly=(1, 2, 0))
    code = LinearCode(f, [[f.el(20)], [f.el(24)], [f.el(3)]], d=10)
    sigma = SigmaParam.from_r(f, 1)
    PcsSampler(code, sigma)  # warm the caches the build fills
    tracemalloc.start()
    try:
        PcsSampler(code, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_built_sampler_holds_8_bytes_per_amplitude_at_p3(f9):
    # F_9 at n = 4: 3^10 amplitudes, held real although p >= 3
    code = LinearCode(f9, [[f9.el(1)], [f9.el(3)], [f9.el(4)], [f9.el(7)]])
    sampler, held = _built_sampler_and_bytes_held(code, SigmaParam.from_r(f9, 0))
    state_bytes = 8 * sampler.layout.dim
    assert sampler.amplitudes.nbytes == state_bytes
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


# ---------------------------------------------------------------- controlled join

JOIN_LAYOUTS = [
    # the two layouts of each _gate_cases call, then p = 5, more cube
    # registers, and the sampler's one register
    RegisterLayout(p=2, m=2, n=1, label_digits=3, cube_count=2),
    RegisterLayout(p=3, m=2, n=1, label_digits=2, cube_count=2),
    RegisterLayout(p=2, m=2, n=3, label_digits=4, cube_count=2),
    RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2),
    RegisterLayout(p=5, m=1, n=2, label_digits=2, cube_count=2),
    RegisterLayout(p=2, m=2, n=1, label_digits=3, cube_count=3),
    RegisterLayout(p=3, m=1, n=2, label_digits=3, cube_count=3),
    RegisterLayout(p=5, m=1, n=1, label_digits=3, cube_count=3),
    RegisterLayout(p=2, m=1, n=2, label_digits=4, cube_count=4),
    RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=1),
]


def _join_parts(lay: RegisterLayout, seed: int, real: bool):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=lay.label_dim)]
    parts += [rng.normal(size=lay.cube_dim) for _ in range(lay.cube_count)]
    if not real:
        parts = [v + 1j * rng.normal(size=len(v)) for v in parts]
    return parts[0], parts[1:]


def _join_generators(lay: RegisterLayout, seed: int) -> np.ndarray:
    """Random generators, some entries at or past p, with a zero row.

    With more than one register, register 0's generators also sum to zero
    mod p but not as integers, so its top carry level takes no step.
    """
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, 2 * lay.p, size=(lay.label_digits, lay.cube_count, lay.n, lay.m))
    gens[-1] = 0  # a label digit that shifts no register
    if lay.cube_count > 1:
        gens[0, 0] += lay.p - gens[:, 0].sum(axis=0) % lay.p
    return gens


def _carry_steps(lay: RegisterLayout, generators: np.ndarray) -> np.ndarray:
    """Each register's step into label p^l (carry level l), read off the table.

    Also checks that every label i takes the step of its carry level, the
    number of trailing zero base-p digits of i.
    """
    table = generator_table(lay, generators)
    steps = (table[1:] - table[:-1]) % lay.p  # row i-1: the step into label i
    firsts = lay.p ** np.arange(lay.label_digits)
    for i in range(1, lay.label_dim):
        level = 0
        while i % lay.p ** (level + 1) == 0:
            level += 1
        assert np.array_equal(steps[i - 1], steps[firsts[level] - 1])
    return steps[firsts - 1]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "lay", JOIN_LAYOUTS, ids=[f"p{lay.p}_c{lay.cube_count}_d{lay.dim}" for lay in JOIN_LAYOUTS]
)
def test_join_is_the_product_then_the_controlled_shifts(lay, real):
    label, cubes = _join_parts(lay, lay.dim, real)
    gens = _join_generators(lay, lay.cube_count)
    want = DenseState.from_parts(lay, label, cubes)
    want = want.controlled_register_shifts(generator_table(lay, gens)).vec
    got = DenseState.from_parts(lay, label, cubes, gens).vec
    assert got.dtype == want.dtype == (np.float64 if real and lay.p == 2 else np.complex128)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lay", JOIN_LAYOUTS[:2] + JOIN_LAYOUTS[5:8])
def test_join_of_shift_powers_is_the_product_then_controlled_shift_power(lay):
    label, cubes = _join_parts(lay, 7, real=False)
    rows = np.arange(1, lay.n * lay.m + 1).reshape(lay.n, lay.m) % lay.p
    gens = power_generators(lay, rows)
    want = DenseState.from_parts(lay, label, cubes)
    want = want.controlled_register_shifts(generator_table(lay, gens)).vec
    got = DenseState.from_parts(lay, label, cubes, gens).vec
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lay", JOIN_LAYOUTS[5:7] + JOIN_LAYOUTS[-1:])
def test_join_makes_at_most_label_digits_maps_per_register(lay, shift_maps):
    """One map per register and carry level whose step is nonzero, and no other."""
    label, cubes = _join_parts(lay, 2, real=False)
    DenseState.from_parts(lay, label, cubes)  # no generators make no map
    assert shift_maps == []
    rows = np.arange(1, lay.n * lay.m + 1).reshape(lay.n, lay.m) % lay.p
    for gens in [_join_generators(lay, 3), power_generators(lay, rows)]:
        want = DenseState.from_parts(lay, label, cubes)
        want = want.controlled_register_shifts(generator_table(lay, gens)).vec
        moving = _carry_steps(lay, gens).any(axis=(2, 3))  # (level, register)
        for j in range(lay.cube_count):  # one register shifted at a time
            alone = np.zeros_like(gens)
            alone[:, j] = gens[:, j]
            shift_maps.clear()
            DenseState.from_parts(lay, label, cubes, alone)
            assert len(shift_maps) == np.count_nonzero(moving[:, j]) <= lay.label_digits
        shift_maps.clear()
        got = DenseState.from_parts(lay, label, cubes, gens).vec
        assert 0 < len(shift_maps) == np.count_nonzero(moving)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lay", JOIN_LAYOUTS[:5])
def test_join_read_at_the_label_source_is_the_join_then_the_permutation(lay, shift_maps):
    """L . CU . L^-1 is the shift controlled by L^-1 y: one join, no permutation pass.

    The shift powers read at source[y] = L^-1 y are linear in y's digits,
    with generators sum_e (L^-1 e_d)_e G[e]; joined with the label part
    read there, they give the same bits as the plain join followed by
    ``permute_label(L)``, and each register takes one map per nonzero
    carry step.
    """
    rng = np.random.default_rng(lay.dim)
    t = lay.label_digits
    matrix = rng.integers(0, lay.p, size=(t, t))
    while rank(matrix, lay.p) < t:
        matrix = rng.integers(0, lay.p, size=(t, t))
    label, cubes = _join_parts(lay, 7, real=lay.p == 2)
    rows = np.arange(1, lay.n * lay.m + 1).reshape(lay.n, lay.m) % lay.p
    gens = power_generators(lay, rows)
    want = DenseState.from_parts(lay, label, cubes, gens).permute_label(matrix).vec
    source = label_source(matrix, lay.p)
    assert np.array_equal(label_source(matrix, lay.p, inverse=True)[source], np.arange(lay.label_dim))
    inverse = fp_gauss_invert(matrix, lay.p).inverse  # column d: L^-1 e_d
    read = np.tensordot(inverse.T, gens, axes=1)
    table = generator_table(lay, gens)[source]
    assert np.array_equal(generator_table(lay, read) % lay.p, table % lay.p)
    moving = _carry_steps(lay, read).any(axis=(2, 3))
    for j in range(lay.cube_count):  # one register shifted at a time
        alone = np.zeros_like(read)
        alone[:, j] = read[:, j]
        shift_maps.clear()
        DenseState.from_parts(lay, label[source], cubes, alone)
        assert len(shift_maps) == np.count_nonzero(moving[:, j]) <= t
    got = DenseState.from_parts(lay, label[source], cubes, read).vec
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lay", JOIN_LAYOUTS[:5])
def test_full_path_join_is_bitwise_the_permute_then_gather_join(lay, monkeypatch):
    """The full-tensor path joins the uniform work register as it is.

    Permuting it by L^-1 and then reading it at L^-1 y gives back the
    same array, so the composite state, the label-wise product of the
    head and tail the measurement receives, equals, bit for bit, the
    plain join of the permuted work register gathered at the label
    source, followed by the shift powers' table gathered there.
    """
    rng = np.random.default_rng(lay.dim)
    t = lay.label_digits
    matrix = rng.integers(0, lay.p, size=(t, t))
    while rank(matrix, lay.p) < t:
        matrix = rng.integers(0, lay.p, size=(t, t))
    _, cubes = _join_parts(lay, 7, real=lay.p == 2)
    rows = np.arange(1, lay.n * lay.m + 1).reshape(lay.n, lay.m) % lay.p
    label = DenseState.zero_state(replace(lay, cube_count=0)).qft_label()
    label.permute_label(matrix, inverse=True)
    source = label_source(matrix, lay.p)
    amounts = generator_table(lay, power_generators(lay, rows))[source]
    want = DenseState.from_parts(lay, label.vec[source], cubes)
    want = want.controlled_register_shifts(amounts).vec
    joined = []
    monkeypatch.setattr(
        decoder, "fourier_label_marginal", lambda head, tail: joined.append((head.vec, tail.vec))
    )
    _dense_full_marginal(matrix, cubes, rows, lay)
    assert len(joined) == 1
    head, tail = (part.reshape(lay.label_dim, -1) for part in joined[0])
    got = (head[:, :, None] * tail[:, None, :]).reshape(-1)  # label-wise product
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 1, 2), (3, 3, 1, 2), (3, 2, 2, 1), (3, 2, 2), (3, 2, 1, 2, 1), (), (8, 2, 1, 2)],
)
def test_join_rejects_amounts_of_the_wrong_shape(shape):
    # generators of shape (3, 2, 1, 2); the last shape is a per-label table
    lay = JOIN_LAYOUTS[0]
    label, cubes = _join_parts(lay, 1, real=True)
    generators = np.zeros(shape, dtype=np.int64)
    with pytest.raises(BadRegister):
        DenseState.from_parts(lay, label, cubes, generators)
    with pytest.raises(BadRegister):
        _join(lay, label, cubes, generators, np.float64)  # the sampler's entry


SAMPLER_LAYOUT = RegisterLayout(p=3, m=3, n=3, label_digits=3, cube_count=1)


def _sampler_generators() -> np.ndarray:
    """The sampler's generators, the columns of A, at its shape over F_27."""
    f = Field(3, 3)
    code = LinearCode(f, [[f.el(1)], [f.el(3)], [f.el(9)]])
    return code.operator.entries.T.reshape(-1, 1, 3, 3)


@pytest.mark.parametrize(
    "lay,sampler",
    [
        (RegisterLayout(p=2, m=2, n=3, label_digits=4, cube_count=2), False),  # 2^16 amplitudes
        (RegisterLayout(p=3, m=2, n=2, label_digits=2, cube_count=2), False),  # 3^10 amplitudes
        (RegisterLayout(p=2, m=2, n=2, label_digits=4, cube_count=3), False),  # 2^16 amplitudes
        (SAMPLER_LAYOUT, False),  # the sampler's shape, random generators
        (SAMPLER_LAYOUT, True),  # the sampler's shape and generators
    ],
    ids=["p2_c2", "p3_c2", "p2_c3", "p3_c1", "p3_c1_sampler"],
)
def test_join_writes_no_second_state_sized_array(lay, sampler):
    label, cubes = _join_parts(lay, 9, real=lay.p == 2)
    gens = _sampler_generators() if sampler else _join_generators(lay, 4)
    DenseState.from_parts(lay, label, cubes, gens)  # warm the caches a join fills
    tracemalloc.start()
    try:
        state = DenseState.from_parts(lay, label, cubes, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most one bounded ufunc buffer beside the state, never a second state
    assert state.vec.nbytes <= peak < 1.5 * state.vec.nbytes


# ---------------------------------------------------------------- amplitude dtype

@pytest.mark.parametrize("p", [2, 3, 5])
def test_state_dtype_is_that_of_the_fields_fourier_matrix(p):
    # a real input stays real exactly when the Fourier matrix is (p = 2)
    want = np.float64 if p == 2 else np.complex128
    lay = RegisterLayout(p=p, m=1, n=1, label_digits=1, cube_count=1)
    assert DenseState.zero_state(lay).vec.dtype == want
    assert DenseState(lay, np.eye(lay.dim)[1]).vec.dtype == want
    assert DenseState.from_parts(lay, np.eye(p)[0], [np.ones(p) / np.sqrt(p)]).vec.dtype == want
    # the sampler's joined state is no DenseState: it is real at every p
    f = Field(p, 2)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]])
    assert PcsSampler(code, SigmaParam.from_r(f, 0)).amplitudes.dtype == np.float64


def test_a_complex_input_stays_complex_at_p2():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=1, cube_count=1)
    vec = np.array([0.5, 0.5j, 0.5, -0.5j])
    st = DenseState(lay, vec).qft_label()
    assert st.vec.dtype == np.complex128 and np.abs(st.vec.imag).max() > 0.1
    assert np.array_equal(DenseState(lay, vec).vec, vec)
    joined = DenseState.from_parts(lay, np.array([1.0, 0.0]), [np.array([0.6, 0.8j])])
    assert np.array_equal(joined.vec, [0.6, 0.8j, 0.0, 0.0])


@pytest.mark.parametrize(
    "lay,gate",
    [
        case
        for case in _gate_cases(
            RegisterLayout(p=2, m=2, n=3, label_digits=4, cube_count=2),  # 2^16 amplitudes
            RegisterLayout(p=3, m=1, n=1, label_digits=2, cube_count=2),
        )
        if case.values[0].p == 2
    ],
)
def test_gates_on_a_real_state_match_its_complex_copy(lay, gate):
    vec = _random_state(lay, 4).real
    vec /= np.linalg.norm(vec)
    real = gate(DenseState(lay, vec))
    assert real.vec.dtype == np.float64
    cplx = gate(DenseState(lay, vec.astype(np.complex128)))
    assert cplx.vec.dtype == np.complex128
    assert np.max(np.abs(real.vec - cplx.vec)) < 1e-12


# ---------------------------------------------------------------- factor-first builds

def _sampler_state_reference(code: LinearCode, sigma: SigmaParam) -> DenseState:
    """The sampler's first four steps with every gate on the joined composite register."""
    f = code.field
    t = f.m * code.k
    lay = RegisterLayout(p=f.p, m=f.m, n=code.n, label_digits=t, cube_count=1)
    state = DenseState.zero_state(lay)
    state.prep_cube(sigma)
    state.qft_label()
    labels = label_to_digits(np.arange(lay.label_dim), t, f.p)
    amounts = labels @ code.operator.entries.T % f.p
    return state.controlled_register_shifts(amounts.reshape(-1, 1, code.n, f.m))


def _expanded_sampler_state(sampler: PcsSampler) -> np.ndarray:
    """The sampler's state on every cube digit: its high array times its low factor.

    A cube basis value's coordinate i has image h_i * sigma + l_i, for
    h the high array's coordinate values and l the low factor's, so each
    (h, l) pair is placed at its index through the numeral codec.
    """
    lay, s = sampler.layout, sampler.sigma.sigma
    high = lay.p ** (lay.m - sampler.sigma.r)
    highs = label_to_digits(np.arange(high**lay.n), lay.n, high)
    lows = label_to_digits(np.arange(s**lay.n), lay.n, s)
    index = digits_to_label(highs[:, None, :] * s + lows[None, :, :], lay.p**lay.m)
    full = np.zeros((lay.label_dim, lay.cube_dim))
    full[:, index] = sampler.amplitudes[:, :, None] * sampler.low
    return full.reshape(-1)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_sampler_state_matches_composite_reference(p, r):
    # the held array and the low factor together are the state before
    # step 5; step 5 then measured is the marginal, and each label's slice
    # of it is that label's collapse
    f = Field(p, 2)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]])  # top digits (0, 1): orthogonal at r = 1
    sigma = SigmaParam.from_r(f, r)
    sampler = PcsSampler(code, sigma)
    assert sampler.amplitudes.shape == (p**2, p ** ((2 - r) * code.n))
    assert sampler.low.shape == (p ** (r * code.n),)
    ref = _sampler_state_reference(code, sigma)
    assert np.max(np.abs(_expanded_sampler_state(sampler) - ref.vec)) < 1e-12
    want = ref.qft_label().vec.reshape(sampler.layout.label_dim, -1)
    labels = label_to_digits(np.arange(sampler.layout.label_dim), 2, p)
    got = np.sqrt(sampler.marginal)[:, None] * sampler.collapse(labels)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sampler_joins_its_registers_without_from_parts(f4, monkeypatch):
    # bench/tracer.py counts a from_parts call inside a decode as the full-tensor path
    def refuse(cls, *args):
        raise AssertionError("the sampler built its state through from_parts")

    monkeypatch.setattr(DenseState, "from_parts", classmethod(refuse))
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    assert sampler.amplitudes.size == sampler.layout.dim


@pytest.mark.parametrize("p", [2, 3])
def test_sampler_refuses_a_low_cube_factor_that_is_not_uniform(p, monkeypatch):
    # only a uniform low factor is fixed by every shift, so a forged one,
    # off by one ulp in one amplitude, must not be carried past the join
    prep_cube = DenseState.prep_cube

    def forged(self, sigma):
        state = prep_cube(self, sigma)
        state.vec[-1] = np.nextafter(state.vec[-1].real, 1.0)
        return state

    f = Field(p, 2)
    code = LinearCode(f, [[f.el(1)], [f.el(p)]])
    PcsSampler(code, SigmaParam.from_r(f, 1))  # the prepared factor passes
    monkeypatch.setattr(DenseState, "prep_cube", forged)
    with pytest.raises(InvariantViolated, match="not uniform"):
        PcsSampler(code, SigmaParam.from_r(f, 1))


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
    f = Field(p, 2)
    sigma = SigmaParam.from_r(f, 1)
    parts = [DenseState(cube_lay, c).prep_cube(sigma).vec for c in cubes]
    joined = DenseState.from_parts(lay, label, cubes).prep_cube(sigma).vec
    assert np.max(np.abs(DenseState.from_parts(lay, label, parts).vec - joined)) < 1e-12
    # the same shift on every label acts on each cube register alone
    ys = rng.integers(0, p, size=(lay.cube_count, 1, 2))
    parts = [shift_cube_vector(c, f, y) for c, y in zip(cubes, ys)]
    amounts = np.broadcast_to(ys, (lay.label_dim,) + ys.shape)
    joined = DenseState.from_parts(lay, label, cubes).controlled_register_shifts(amounts).vec
    assert np.array_equal(DenseState.from_parts(lay, label, parts).vec, joined)


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
    rows = code.encode((f4.el(1),))
    st.controlled_register_shifts(generator_table(lay, power_generators(lay, rows)))
    assert np.allclose(st.vec, before, atol=1e-12)


def test_controlled_shift_kickback_matches_eigenphase(f4):
    """Control in uniform superposition picks up omega^(-ell a.s) per branch."""
    code = code_23(f4)
    sig = SigmaParam.from_r(f4, 1)
    s = (f4.el(3),)
    rows = code.encode(s)
    for label in product(range(2), repeat=2):
        phi = pcs_state_direct(code, sig, label)
        lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
        label_vec = np.array([2**-0.5, 2**-0.5], dtype=np.complex128)
        st = DenseState.from_parts(lay, label_vec, [phi])
        st.controlled_register_shifts(generator_table(lay, power_generators(lay, rows)))
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
            e = digit_rows(f4, [f4.el(v) for v in err])
            t = (code.encode(s) + e) % 2
            for label in product(range(2), repeat=2):
                phi = pcs_state_direct(code, sig, label)
                shifted = shift_cube_vector(phi, f4, t)
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
            shifted = shift_cube_vector(phi, f4, t)
            phase = (np.array(label) @ np.array(s[0].digits)) % 2
            assert np.allclose(shifted, (-1.0) ** phase * phi, atol=1e-10)


def test_pcs_eigenvector_fails_beyond_sigma(f4):
    """Boundary honesty: a coordinate error with image >= sigma breaks it."""
    code = code_123(f4)
    sig = SigmaParam.from_r(f4, 0)  # sigma = 1: only zero error qualifies
    s = (f4.el(1),)
    e = digit_rows(f4, (f4.el(1), f4.zero, f4.zero))  # image 1 >= sigma
    t = (code.encode(s) + e) % 2
    phi = pcs_state_direct(code, sig, (1, 0))
    shifted = shift_cube_vector(phi, f4, t)
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
    # label (0, 1) is basis row 1: the vector is row 1 of F times the held
    # array, normalised, read from a tuple, from a numpy column and from a
    # stack of labels
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    row = _dft_matrix(2, width=2)[1] @ sampler.amplitudes
    want = row / np.linalg.norm(row)
    assert np.array_equal(sampler.collapse((0, 1)), want)
    assert np.array_equal(sampler.collapse(np.array([0, 1])), want)
    assert np.array_equal(sampler.collapse(np.array([[1, 1], [0, 1]]))[1], want)


# (p, label digits, label run widths, a sampler's code over F_(p^m) and
# m): one label run or two, at p = 2, 3 and 5
SAMPLER_READOUT_CASES = [
    (2, 3, (3,), [[1], [2]], 3),
    (2, 6, (5, 1), [[1, 0], [0, 1]], 3),
    (3, 2, (2,), [[1], [3]], 2),
    (3, 4, (3, 1), [[1, 0], [0, 1]], 2),
    (5, 2, (2,), [[1], [5]], 2),
    (5, 3, (2, 1), [[1]], 3),
]


def _real_label_state(p: int, t: int, seed: int) -> tuple[RegisterLayout, np.ndarray]:
    """A random real unit state of t label digits and two cube digits."""
    lay = RegisterLayout(p=p, m=1, n=2, label_digits=t, cube_count=1)
    vec = np.random.default_rng(seed).normal(size=lay.dim)
    return lay, vec / np.linalg.norm(vec)


@pytest.mark.parametrize("p,t,widths,rows,m", SAMPLER_READOUT_CASES)
def test_sampler_measurement_is_the_transform_then_the_marginal(p, t, widths, rows, m):
    assert tuple(w for _, w in _dft_runs(0, t, p)) == widths
    lay, vec = _real_label_state(p, t, seed=p * t)
    for inverse in (False, True):
        want = DenseState(lay, vec.astype(np.complex128)).qft_label(inverse).label_marginal()
        got = _fourier_law(vec.reshape(lay.label_dim, -1), p, t, inverse)
        assert np.max(np.abs(got - want)) < 1e-12
    # a sampler's state: each collapse is the normalised slice of its
    # complex copy transformed in place, one label at a time or stacked
    f = Field(p, m)
    code = LinearCode(f, [[f.el(x) for x in row] for row in rows])
    sampler = PcsSampler(code, SigmaParam.from_r(f, 0))
    assert sampler.layout.label_digits == t
    want = DenseState(sampler.layout, sampler.amplitudes.reshape(-1).astype(np.complex128))
    want = want.qft_label().vec.reshape(sampler.layout.label_dim, -1)
    labels = label_to_digits(np.arange(sampler.layout.label_dim), t, p)
    stacked = sampler.collapse(labels)
    assert stacked.shape == want.shape
    for z, label in enumerate(labels):
        ref = want[z] / np.linalg.norm(want[z])
        assert np.max(np.abs(sampler.collapse(label) - ref)) < 1e-12
        assert np.max(np.abs(stacked[z] - ref)) < 1e-12


@pytest.mark.parametrize("p,t", [(2, 3), (2, 6), (3, 2), (3, 4), (5, 3)])
def test_sampler_measurement_checks_the_norm(p, t):
    lay, vec = _real_label_state(p, t, seed=1)
    held = vec.reshape(lay.label_dim, -1)
    with pytest.raises(InvariantViolated):
        _fourier_law(held * (1 + 1e-8), p, t, inverse=False)
    held = held.copy()
    held[1, 2] = np.nan
    with pytest.raises(InvariantViolated):
        _fourier_law(held, p, t, inverse=False)


def test_uniform_check_fails_on_nan():
    law = np.full(9, 1 / 9)
    _require_uniform(law)
    law[4] = np.nan
    with pytest.raises(OrthogonalityViolated):
        _require_uniform(law)
    law[4] = 1 / 9 + 1e-11
    with pytest.raises(OrthogonalityViolated):
        _require_uniform(law)


def test_sampler_factors_must_be_exactly_real():
    part = _real_part(np.array([0.5 + 0j, -0.0 + 0j, 0.5 - 0j]))
    assert part.dtype == np.float64 and np.array_equal(part, [0.5, 0.0, 0.5])
    with pytest.raises(InvariantViolated):
        _real_part(np.array([0.5 + 0j, 0.5 + 1e-300j]))
    with pytest.raises(InvariantViolated):
        _real_part(np.array([0.5 + 0j, complex(0.5, np.nan)]))


@pytest.mark.parametrize("length", [1, 127, 128, 300, 2 * 3**9])
def test_row_dots_are_dot_products_summed_in_runs(length):
    rng = np.random.default_rng(length)
    x, y = rng.normal(size=(2, 3, length))
    want = np.sum(x.astype(np.longdouble) * y, axis=-1)
    assert np.max(np.abs(_row_dots(x, y) - want)) < 1e-12
    bra, ket = x - 1j * y, y + 1j * x  # complex rows, as the overlaps take them
    want = np.sum(bra.astype(np.clongdouble) * ket, axis=-1)
    assert np.max(np.abs(_row_dots(bra, ket) - want)) < 1e-12
    # a cube state's many equal terms: one running sum of 2 * 3^9 squares of
    # 3^(-9/2) / sqrt(2) drifts by about 7e-14, the runs by a few ulps
    flat = np.full((1, length), np.sqrt(0.5 / 3**9))
    assert abs(_row_dots(flat, flat)[0] - length / (2 * 3**9)) < 1e-15


def test_collapse_rejects_a_malformed_stack(f4):
    sampler = PcsSampler(code_123(f4), SigmaParam.from_r(f4, 0))
    for shape in [(2, 3), (1, 1, 2), (0, 2)]:
        with pytest.raises(BadParams):
            sampler.collapse(np.zeros(shape, dtype=int))
    for labels in [[[0, 2]], [[0, 1], [1, -1]]]:
        with pytest.raises(BadParams):
            sampler.collapse(labels)


# ---------------------------------------------------------------- measurement

def test_measure_label_uniform_probabilities():
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=3, cube_count=0)
    st = DenseState.zero_state(lay)
    st.qft_label()
    marg = st.label_marginal()
    assert np.allclose(marg, 1 / 8, atol=1e-12)


# (p, n, label digits, real input, label runs, tail in one Gram block):
# one label run or several (p = 2 and T = 7: widths 5 and 2; p = 3 and
# T = 4: widths 3 and 1), and a tail whose Gram matrix is one block or
# many blocks of 2 * DFT_TILE floats; a real input stays real only at
# p = 2
FOURIER_READOUT_CASES = [
    (2, 2, 3, True, 1, True),
    (2, 2, 3, False, 1, True),
    (2, 13, 3, True, 1, False),
    (2, 13, 3, False, 1, False),
    (2, 2, 7, True, 2, True),
    (2, 2, 7, False, 2, True),
    (2, 13, 7, True, 2, True),  # a wide head
    (2, 13, 7, False, 2, False),
    (3, 2, 4, True, 2, True),
    (3, 2, 4, False, 2, True),
    (3, 8, 4, False, 2, False),
    (5, 2, 2, True, 1, True),
    (5, 1, 3, False, 2, True),
    (5, 5, 2, True, 1, False),
    (5, 5, 2, False, 1, False),
]


def _readout_parts(
    p: int, n: int, t: int, real: bool, seed: int, by_rows: bool = True
) -> tuple[DenseState, DenseState]:
    """A head and a tail over t label digits whose label-wise product has norm 1.

    The composite has p^(t + n + 1) random amplitudes.  With ``by_rows``
    the head holds n coordinates and the tail one; otherwise the head is
    label-only and the tail holds all n + 1, so its Gram matrix is summed
    over several column blocks once the tail passes one.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for coords, count in [(n, 1), (1, 1)] if by_rows else [(1, 0), (n + 1, 1)]:
        lay = RegisterLayout(p=p, m=1, n=coords, label_digits=t, cube_count=count)
        vec = rng.normal(size=lay.dim if real else 2 * lay.dim)
        parts.append(DenseState(lay, vec if real else vec.view(np.complex128)))
    head, tail = parts
    head.vec /= np.sqrt(np.sum(head.label_marginal() * tail.label_marginal()))
    return head, tail


def _composite(head: DenseState, tail: DenseState) -> DenseState:
    """The label-wise product of ``head`` and ``tail``, held as one state."""
    labels = head.layout.label_dim
    vec = head.vec.reshape(labels, -1)[:, :, None] * tail.vec.reshape(labels, 1, -1)
    coords = head.layout.n * head.layout.cube_count + tail.layout.n * tail.layout.cube_count
    lay = RegisterLayout(
        p=head.layout.p, m=1, n=coords, label_digits=head.layout.label_digits, cube_count=1
    )
    return DenseState(lay, vec.reshape(-1))


@pytest.mark.parametrize("p,n,t,real,run_count,by_rows", FOURIER_READOUT_CASES)
def test_fourier_label_marginal_is_the_inverse_transform_then_the_marginal(
    p, n, t, real, run_count, by_rows
):
    head, tail = _readout_parts(p, n, t, real, seed=p * t + n, by_rows=by_rows)
    st = _composite(head, tail)
    lay = st.layout
    assert len(_dft_runs(0, t, p)) == run_count
    tail_columns = tail.layout.dim // lay.label_dim
    assert (lay.label_dim * tail_columns <= 2 * DFT_TILE * 8 // st.vec.itemsize) == by_rows
    want = st.qft_label(inverse=True).label_marginal()
    got = fourier_label_marginal(head, tail)
    assert got.shape == (lay.label_dim,)
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("p,n,t", [(2, 2, 3), (2, 13, 3), (3, 2, 2), (5, 5, 2), (2, 2, 7)])
def test_fourier_label_marginal_checks_the_norm(p, n, t):
    head, tail = _readout_parts(p, n, t, real=False, seed=1)
    head.vec *= 1 + 1e-8
    with pytest.raises(InvariantViolated):
        fourier_label_marginal(head, tail)


def test_fourier_label_marginal_needs_a_label_register():
    head = DenseState.zero_state(RegisterLayout(p=2, m=1, n=2, label_digits=0, cube_count=1))
    tail = DenseState.zero_state(RegisterLayout(p=2, m=1, n=1, label_digits=0, cube_count=1))
    with pytest.raises(BadRegister):
        fourier_label_marginal(head, tail)
    # and the head and tail must share one label register
    head, tail = _readout_parts(2, 2, 3, real=True, seed=1)
    other = DenseState.zero_state(RegisterLayout(p=2, m=1, n=1, label_digits=2, cube_count=1))
    with pytest.raises(BadRegister):
        fourier_label_marginal(head, other)
    other = DenseState.zero_state(RegisterLayout(p=3, m=1, n=1, label_digits=3, cube_count=1))
    with pytest.raises(BadRegister):
        fourier_label_marginal(head, other)


def test_fourier_label_marginal_refuses_a_density_matrix_past_the_guard():
    # 2^13 labels: rho would hold 2^26 entries, past the 2^24 amplitude guard
    lay = RegisterLayout(p=2, m=1, n=1, label_digits=13, cube_count=0)
    with pytest.raises(ScaleExceeded):
        fourier_label_marginal(DenseState.zero_state(lay), DenseState.zero_state(lay))


@pytest.mark.parametrize("p,n,t,real", [(3, 8, 4, False), (2, 13, 7, True)])
def test_fourier_label_marginal_allocates_no_state_sized_array(p, n, t, real):
    head, tail = _readout_parts(p, n, t, real, seed=3)
    composite_bytes = p ** (t + n + 1) * np.result_type(head.vec, tail.vec).itemsize
    tracemalloc.start()
    try:
        fourier_label_marginal(head, tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < composite_bytes / 8


def _random_part(p: int, t: int, coords: int, real: bool, rng) -> DenseState:
    """Random amplitudes over t label digits and ``coords`` one-digit coordinates."""
    lay = RegisterLayout(p=p, m=1, n=max(coords, 1), label_digits=t, cube_count=min(coords, 1))
    vec = rng.normal(size=lay.dim if real else 2 * lay.dim)
    return DenseState(lay, vec if real else vec.view(np.complex128))


@st.composite
def _readout_shapes(draw):
    """(p, label digits, head and tail coordinates, real, log2 DFT_TILE): <= 3^8 amplitudes."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    digits = {2: 12, 3: 8, 5: 5, 7: 4}[p]  # p^digits <= 3^8 composite amplitudes
    t = draw(st.integers(1, min(3, digits - 1)))
    tail = draw(st.integers(1, digits - t))
    head = draw(st.integers(0, digits - t - tail))
    # a small tile cuts a tail into many Gram blocks; 15 is the real one
    return p, t, head, tail, draw(st.booleans()), draw(st.sampled_from([3, 6, 15]))


@given(shape=_readout_shapes(), seed=st.integers(0, 2**16))
@example(shape=(2, 1, 1, 17, False, 15), seed=0)  # eight Gram blocks at the real tile
@example(shape=(3, 2, 0, 9, False, 15), seed=1)  # six
def test_fourier_label_marginal_is_the_composite_read_in_the_fourier_basis(shape, seed):
    p, t, head_coords, tail_coords, real, tile_log = shape
    rng = np.random.default_rng(seed)
    head = _random_part(p, t, head_coords, real, rng)
    tail = _random_part(p, t, tail_coords, real, rng)
    head.vec /= np.sqrt(np.sum(head.label_marginal() * tail.label_marginal()))
    want = _composite(head, tail).qft_label(inverse=True).label_marginal()
    with patch.object(qsim, "DFT_TILE", 2**tile_log):
        got = fourier_label_marginal(head, tail)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(got >= 0)


# layouts of the full-tensor read-out's composite: p = 2 (real), p = 3
# and p = 5 (complex), one to three cube registers, and two label runs
# (p = 7, T = 2: 49 > DFT_BLOCK_DIM)
STREAMED_LAYOUTS = [
    RegisterLayout(p=2, m=2, n=2, label_digits=3, cube_count=1),
    RegisterLayout(p=2, m=2, n=1, label_digits=3, cube_count=2),
    RegisterLayout(p=2, m=1, n=2, label_digits=3, cube_count=3),
    RegisterLayout(p=3, m=2, n=1, label_digits=2, cube_count=1),
    RegisterLayout(p=3, m=1, n=2, label_digits=2, cube_count=2),
    RegisterLayout(p=3, m=1, n=1, label_digits=3, cube_count=3),
    RegisterLayout(p=5, m=1, n=2, label_digits=2, cube_count=1),
    RegisterLayout(p=5, m=1, n=1, label_digits=2, cube_count=3),
    RegisterLayout(p=7, m=1, n=1, label_digits=2, cube_count=2),
]


@pytest.mark.parametrize(
    "lay",
    STREAMED_LAYOUTS,
    ids=[f"p{lay.p}_c{lay.cube_count}_d{lay.dim}" for lay in STREAMED_LAYOUTS],
)
def test_streamed_marginal_is_the_joined_state_read_in_the_fourier_basis(lay):
    # the head joins the label with register 0, the tail a unit label with
    # the others, over the same generators; their label-wise product,
    # measured, is the whole join inverse transformed and then measured
    label, cubes = _join_parts(lay, lay.dim, real=lay.p == 2)
    label /= np.linalg.norm(label)
    cubes = [v / np.linalg.norm(v) for v in cubes]
    gens = _join_generators(lay, lay.dim)
    head = DenseState.from_parts(replace(lay, cube_count=1), label, cubes[:1], gens[:, :1])
    tail = DenseState.from_parts(
        replace(lay, cube_count=lay.cube_count - 1), np.ones(lay.label_dim), cubes[1:], gens[:, 1:]
    )
    assert len(_dft_runs(0, lay.label_digits, lay.p)) == (2 if lay.p == 7 else 1)
    want = DenseState.from_parts(lay, label, cubes, gens)
    assert want.vec.dtype == np.result_type(head.vec, tail.vec)
    want = want.qft_label(inverse=True).label_marginal()
    got = fourier_label_marginal(head, tail)
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------- golden amplitudes

def test_state_golden_bytes():
    # exact 0/1 amplitudes make the bytes bit-stable across platforms
    # the basis state |label 0>|cube (3, 1)>: block index 3*4 + 1 of the cube
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    vec = np.zeros(lay.dim, dtype=np.complex128)
    vec[3 * 4 + 1] = 1.0
    st = DenseState(lay, vec)
    digest = hashlib.sha256(np.asarray(st.vec, dtype="<c16").tobytes()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_state_golden_bytes_of_a_real_state():
    # the real twin of the state above, read as complex: imaginary parts 0.0
    lay = RegisterLayout(p=2, m=2, n=2, label_digits=1, cube_count=1)
    vec = np.zeros(lay.dim)
    vec[3 * 4 + 1] = 1.0
    st = DenseState(lay, vec)
    assert st.vec.dtype == np.float64
    digest = hashlib.sha256(np.asarray(st.vec, dtype="<c16").tobytes()).hexdigest()
    assert digest == GOLDEN_SHA256


# little-endian complex128 amplitudes of the basis state above
GOLDEN_SHA256 = "15b0a7c89176d98b7025ce00fa00cf53494c204481c031b0b6abb1f5ac900770"
