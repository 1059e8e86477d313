import pytest

from kchaos import build_goe, eigendecompose


@pytest.fixture(scope="session")
def goe32():
    ham = build_goe(32, 12)
    return ham, eigendecompose(ham)
