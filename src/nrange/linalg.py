"""Dense complex linear algebra kernels shared by every range computation.

All functions are pure in their inputs (plus an explicit seed for the random
frame generator), so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermEig",
    "SvdResult",
    "as_matrix",
    "frobenius_inner",
    "hermitian_eigen",
    "isometry_defect",
    "random_isometries",
    "random_isometry",
    "require_isometry",
    "sigma_max",
    "svd",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a nonempty complex 2-d array; vectors become single columns."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition with descending singular values."""

    sigma: np.ndarray  # (min(m, n),) real, descending
    left: np.ndarray   # (m, min(m, n)) orthonormal columns
    right: np.ndarray  # (n, min(m, n)) orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.sigma) @ self.right.conj().T


@dataclass(frozen=True)
class HermEig:
    """Hermitian eigendecomposition with descending real eigenvalues."""

    lam: np.ndarray    # real, descending
    frame: np.ndarray  # unitary; frame[:, i] pairs with lam[i]

    def reconstruct(self) -> np.ndarray:
        return (self.frame * self.lam) @ self.frame.conj().T


def svd(a) -> SvdResult:
    """Thin SVD of a rectangular complex matrix.

    Deterministic for a fixed input; ``sigma[0]`` is the spectral norm.
    """
    arr = as_matrix(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return SvdResult(sigma=s, left=u, right=vh.conj().T)


def sigma_max(a) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(a), 2))


def hermitian_eigen(hm) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises ValueError when the input deviates from Hermitian symmetry by more
    than 1e-10 * max(1, Frobenius norm).
    """
    arr = as_matrix(hm)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("hermitian_eigen needs a square matrix")
    scale = max(1.0, float(np.linalg.norm(arr)))
    if float(np.linalg.norm(arr - arr.conj().T)) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(arr)
    return HermEig(lam=w[::-1].copy(), frame=v[:, ::-1].copy())


def random_isometries(m: int, k: int, seeds) -> np.ndarray:
    """Stack of random m-by-k isometries, shape (len(seeds), m, k).

    Row i depends on ``seeds[i]`` alone: complex Gaussian entries from one
    generator per seed, then one QR of the whole stack, with each R diagonal
    rotated to be real nonnegative, which pins every factor uniquely.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    seeds = list(seeds)
    g = np.empty((len(seeds), m, k), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g[i] = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def random_isometry(m: int, k: int, seed) -> np.ndarray:
    """Random m-by-k matrix with orthonormal columns, identical per seed.

    The one-seed case of ``random_isometries``.
    """
    return random_isometries(m, k, [seed])[0]


def isometry_defect(h) -> float:
    """Frobenius distance of h* h from the identity."""
    arr = np.asarray(h, dtype=complex)
    return float(np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[1])))


def require_isometry(h, tol: float = 1e-10) -> np.ndarray:
    """Validate orthonormal columns and return the frame as an ndarray."""
    arr = as_matrix(h)
    if arr.shape[0] < arr.shape[1]:
        raise ValueError("an isometry cannot have more columns than rows")
    defect = isometry_defect(arr)
    if defect > tol:
        raise ValueError(f"columns are not orthonormal (defect {defect:.3g})")
    return arr


def frobenius_inner(a, b) -> complex:
    """Frobenius inner product tr(b* a); conjugate-linear in b."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return complex(np.vdot(bm, am))
