from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from pqdec import qsim
from pqdec.codes import LinearCode
from pqdec.gf import Field, digits_to_label, label_to_digits
from pqdec.qsim import DenseState, RegisterLayout, SigmaParam

# The same examples on every run, with no timing-based failures, so the
# suite's outcome does not change from run to run.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def f4():
    return Field(2, 2)


@pytest.fixture(scope="session")
def f8():
    return Field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def f16():
    return Field(2, 4)


@pytest.fixture
def shift_maps(monkeypatch):
    """The arguments of every checked cube-shift map built during the test, in order."""
    build = qsim._shift_source
    maps = []
    monkeypatch.setattr(qsim, "_shift_source", lambda *a: maps.append(a) or build(*a))
    return maps


def power_generators(layout, rows) -> np.ndarray:
    """Generators of the controlled shift powers: label digit j shifts cube register j by rows."""
    eye = np.eye(layout.label_digits, layout.cube_count, dtype=np.int64)
    return eye[:, :, None, None] * np.asarray(rows, dtype=np.int64)


def generator_table(layout, generators) -> np.ndarray:
    """Every label's shift amounts, sum_d digit_d(i) * generators[d], not reduced mod p.

    Shaped (label_dim, cube_count, n, m), as the reference gate
    ``DenseState.controlled_register_shifts`` takes them.
    """
    labels = label_to_digits(np.arange(layout.label_dim), layout.label_digits, layout.p)
    return np.tensordot(labels, np.asarray(generators, dtype=np.int64), axes=1)


def with_low_factor(sampler, high) -> np.ndarray:
    """A (..., p^((m-r)n)) stack of the sampler's high-digit vectors on every cube digit.

    Each vector (x) the uniform low factor, sigma^n amplitudes of
    sigma^(-n/2), as q^n vectors: a cube basis value's coordinate i has
    image h_i * sigma + l_i, for h the high vector's coordinate values
    and l the low factor's, so each (h, l) pair is placed at its index
    through the numeral codec.
    """
    lay = sampler.layout
    high = np.asarray(high)
    lows = lay.cube_dim // high.shape[-1]  # sigma^n
    sigma = round(lows ** (1 / lay.n))
    side = lay.p**lay.m // sigma  # values of a coordinate's high digits
    highs = label_to_digits(np.arange(side**lay.n), lay.n, side)
    low_digits = label_to_digits(np.arange(lows), lay.n, sigma)
    index = digits_to_label(highs[:, None, :] * sigma + low_digits[None, :, :], lay.p**lay.m)
    full = np.zeros((*high.shape[:-1], lay.cube_dim), dtype=high.dtype)
    full[..., index] = high[..., :, None] * lows**-0.5
    return full


def joined_sampler_state(code: LinearCode, sigma: SigmaParam) -> np.ndarray:
    """The sampler's state after its controlled shift, written out by one controlled join.

    The label after ``qft_label`` (x) the |0> high cube, with the shift by
    A c made through :meth:`DenseState.from_parts`, whose generators are
    the high digits of the expanded A's columns: a (p^(mk), p^((m-r)n))
    array, row c the label amplitude times the high cube moved to the
    high digits of A c.
    """
    f = code.field
    high = RegisterLayout(p=f.p, m=f.m - sigma.r, n=code.n, label_digits=f.m * code.k, cube_count=1)
    label = DenseState.zero_state(replace(high, cube_count=0)).qft_label()
    cube = DenseState.zero_state(replace(high, label_digits=0))
    generators = code.operator.entries.T.reshape(-1, 1, code.n, f.m)[..., sigma.r :]
    joined = DenseState.from_parts(high, label.vec, [cube.vec], generators)
    return joined.vec.reshape(high.label_dim, -1)


def sampler_state_reference(code: LinearCode, sigma: SigmaParam) -> DenseState:
    """The sampler's first four steps with every gate on the joined composite register.

    Its label law after ``qft_label`` is the law the sampler's measurement
    would give, and it is uniform exactly where the sampler accepts.
    """
    f = code.field
    t = f.m * code.k
    lay = RegisterLayout(p=f.p, m=f.m, n=code.n, label_digits=t, cube_count=1)
    state = DenseState.zero_state(lay)
    state.prep_cube(sigma)
    state.qft_label()
    labels = label_to_digits(np.arange(lay.label_dim), t, f.p)
    amounts = labels @ code.operator.entries.T % f.p
    return state.controlled_register_shifts(amounts.reshape(-1, 1, code.n, f.m))


def reference_label_law(code: LinearCode, sigma: SigmaParam) -> np.ndarray:
    """The label law of :func:`sampler_state_reference` measured after step 5's transform."""
    return sampler_state_reference(code, sigma).qft_label().label_marginal()
