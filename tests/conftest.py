import numpy as np
import pytest
from hypothesis import settings

from gravdicke.metric import PhysicalConstants, WeakFieldMetric

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def scaled_constants():
    return PhysicalConstants.scaled()


@pytest.fixture()
def metric_small_a():
    return WeakFieldMetric(a=1e-3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
