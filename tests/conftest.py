import numpy as np
import pytest
from hypothesis import settings

# one deterministic profile for every property test: the same examples on
# every run, no example database, no per-example deadline
settings.register_profile("nrange", derandomize=True, database=None, deadline=None)
settings.load_profile("nrange")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_complex(rng, m, n):
    """Standard complex Gaussian matrix."""
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def rand_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
