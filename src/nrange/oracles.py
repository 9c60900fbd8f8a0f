"""Independent verification engines: Monte Carlo samplers and power iteration.

These share no code with the closed-form region modules; tests and the
``verify`` command use them as the second route when checking every radius
or boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["McReport", "mc_fov_samples", "mc_rect_sup", "power_sigma_max"]


@dataclass(frozen=True)
class McReport:
    """Result of one sampling run; reproducible bitwise per seed."""

    n_samples: int
    sup_abs: float
    seed: int
    points: Optional[np.ndarray] = None


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


def mc_rect_sup(a, n_samples: int, seed: int, keep_points: bool = False) -> McReport:
    """Sample y* A x over independent uniform unit pairs (x, y).

    Draw order is x block then y block, so reports are stable regression
    fixtures for a given seed.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    m, n = arr.shape
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = _unit_rows(rng, n_samples, n)
    ys = _unit_rows(rng, n_samples, m)
    vals = np.sum(ys.conj() * (xs @ arr.T), axis=1)
    return McReport(
        n_samples=n_samples,
        sup_abs=float(np.max(np.abs(vals))),
        seed=seed,
        points=vals if keep_points else None,
    )


def mc_fov_samples(a, n_samples: int, seed: int) -> McReport:
    """Sample the quadratic form x* A x over uniform unit vectors."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("mc_fov_samples needs a square matrix")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = _unit_rows(rng, n_samples, arr.shape[0])
    vals = np.sum(xs.conj() * (xs @ arr.T), axis=1)
    return McReport(
        n_samples=n_samples,
        sup_abs=float(np.max(np.abs(vals))),
        seed=seed,
        points=vals,
    )


def power_sigma_max(a, n_iters: int, seed: int) -> float:
    """Spectral-norm estimate by power iteration on the Gram matrix.

    The Rayleigh quotient never exceeds the true value, so the estimate is a
    certified lower bound; 200 iterations resolve well-separated spectra to
    better than 1e-8 relative.  The iteration runs on a divided by its
    largest entry modulus and scales the estimate back, so the Gram matrix
    neither overflows nor underflows at any finite scale.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    peak = float(np.abs(arr).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    arr = arr / peak
    m, n = arr.shape
    gram = arr.conj().T @ arr if n <= m else arr @ arr.conj().T
    dim = gram.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(n_iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    rho = float(np.real(v.conj() @ gram @ v))
    return peak * float(np.sqrt(max(rho, 0.0)))
