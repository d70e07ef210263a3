import pytest

from conebraid.quadrature import build_grid


@pytest.fixture(scope="session")
def grid():
    return build_grid(10.0)


@pytest.fixture(scope="session")
def grid12():
    return build_grid(12.0)
