import threading

import numpy as np
import pytest
from hypothesis import settings

from nrange import rankk

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


@pytest.fixture
def forget_svds(monkeypatch):
    """Empty ``rankk``'s slot of kept decompositions, now and at each call of
    the returned function, so the next SVD of any matrix is made afresh."""

    def forget():
        monkeypatch.setattr(rankk, "_recent", threading.local())

    forget()
    return forget


@pytest.fixture
def svd_calls(monkeypatch, forget_svds):
    """(shape, full_matrices) of every np.linalg.svd call made after this fixture."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(x, full_matrices=True, *args, **kwargs):
        calls.append((np.shape(x), full_matrices))
        return real_svd(x, full_matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
