import numpy as np
import pytest
from hypothesis import settings

from pmnet import Dataset, Partition

# examples that fit a model or score a pair grid can outlast the default
# 200 ms per-example deadline on a slow machine
settings.register_profile("pmnet", deadline=None, max_examples=50)
settings.load_profile("pmnet")


def make_dataset(n, m1, m2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, m1 + m2))
    return Dataset(x, Partition(tuple(range(m1)), tuple(range(m1, m1 + m2))))


def make_coded_dataset(n, m1, m2, categories=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, categories, size=(n, m1 + m2)).astype(np.float64)
    return Dataset(x, Partition(tuple(range(m1)), tuple(range(m1, m1 + m2))), categories)


@pytest.fixture
def small_data():
    return make_dataset(12, 3, 2, seed=7)


@pytest.fixture
def coded_data():
    return make_coded_dataset(14, 3, 2, categories=3, seed=3)
