import pytest
from hypothesis import settings

from pqdec.gf import Field

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
