import numpy as np
import pytest
from hypothesis import settings

from kp5 import DispersionParams, KPSign, make_grid

# derandomized and without an example database, so every run draws the same
# examples and the suite stays reproducible
settings.register_profile("kp5", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("kp5")


@pytest.fixture
def grid16():
    return make_grid(16, 16, 2 * np.pi, 2 * np.pi)


@pytest.fixture
def grid32():
    return make_grid(32, 32, 2 * np.pi, 2 * np.pi)


@pytest.fixture
def kp1():
    return DispersionParams(kp_sign=KPSign.KP1, alpha=0.0)


@pytest.fixture
def kp1_alpha1():
    return DispersionParams(kp_sign=KPSign.KP1, alpha=1.0)


@pytest.fixture
def kp2():
    return DispersionParams(kp_sign=KPSign.KP2, alpha=0.0)
