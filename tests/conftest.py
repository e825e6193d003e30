import numpy as np
import pytest
from hypothesis import settings

from pqdec import qsim
from pqdec.gf import Field, label_to_digits

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
