"""Dense complex linear algebra kernels shared by every range computation.

All functions are pure in their inputs (plus an explicit seed for the random
frame generator), so concurrent use needs no locking.  ``pow2_scaled`` is the
one scaling rule of every closed form and sweep, exact at every scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermEig",
    "SvdResult",
    "as_matrix",
    "frobenius",
    "frobenius_inner",
    "hermitian_eigen",
    "isometry_defect",
    "pow2_scaled",
    "pow2_shift",
    "random_isometries",
    "random_isometry",
    "require_ints",
    "require_isometry",
    "sigma_max",
    "svd",
    "times_pow2",
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
    than 1e-10 times its Frobenius norm, tested on the input under
    ``pow2_scaled``, where neither norm under- or overflows.
    """
    arr = as_matrix(hm)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("hermitian_eigen needs a square matrix")
    unit = pow2_scaled(arr)[0]
    if float(np.linalg.norm(unit - unit.conj().T)) > 1e-10 * float(np.linalg.norm(unit)):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(arr)
    return HermEig(lam=w[::-1].copy(), frame=v[:, ::-1].copy())


def pow2_scaled(x):
    """``(x * 2**-e, e)``: the library's one scaling rule.

    x is used as is (e = 0) while its largest real or imaginary part lies in
    [0.5, 2**400), as is a zero x.  A larger x is divided down to [2**399,
    2**400), where sums of squares fit and parts 2**1400 smaller keep their
    bits; a smaller one is multiplied up to [0.5, 1), which loses nothing.
    Results from the scaled x, multiplied back by ``times_pow2``, agree for
    every power-of-two multiple of x.  Parts, not moduli, are read, so the
    rule cannot overflow; an infinite part counts as the largest float.
    """
    x = np.asarray(x)
    e = pow2_shift(max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0)))
    return (times_pow2(x, -e) if e else x), e


def pow2_shift(peak: float) -> int:
    """The e of ``pow2_scaled`` for a value whose largest part is ``peak``."""
    e = math.frexp(min(peak, sys.float_info.max))[1]
    return e - min(max(e, 0), 400)


def times_pow2(x, e):
    """x times 2**e part by part, exact up to rounding; inf past the float range, silently."""
    if not e:
        return x
    with np.errstate(over="ignore"):
        if not np.iscomplexobj(x):
            return np.ldexp(x, e)
        out = np.empty_like(x, dtype=complex)
        out.real, out.imag = np.ldexp(np.real(x), e), np.ldexp(np.imag(x), e)
        return out


def frobenius(x) -> float:
    """||x||_F with no square over- or underflowing; inf past the float range."""
    scaled, e = pow2_scaled(x)
    return float(times_pow2(np.linalg.norm(scaled), e))


def random_isometries(m: int, k: int, count: int, seed) -> np.ndarray:
    """Stack of ``count`` random m-by-k isometries, shape (count, m, k).

    One ``default_rng(seed)`` draws ``(count, 2, m, k)`` standard normals,
    frame i taking block i as real then imaginary parts, so a shorter stack
    is a prefix of a longer one.  One QR of the whole stack follows, with
    each R diagonal rotated to be real nonnegative, which pins every factor
    uniquely.  ``seed`` is a non-negative integer or a tuple of them,
    SeedSequence entropy such as ``(seed, 1)``; ``require_ints`` refuses
    anything else.
    """
    require_ints(1, m=m, k=k, count=count)
    for part in seed if isinstance(seed, tuple) else (seed,):
        require_ints(0, seed=part)
    if k > m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    draw = np.random.default_rng(seed).standard_normal((count, 2, m, k))
    q, r = np.linalg.qr(draw[:, 0] + 1j * draw[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def random_isometry(m: int, k: int, seed) -> np.ndarray:
    """Random m-by-k matrix with orthonormal columns, identical per seed.

    The ``count = 1`` case of ``random_isometries``.
    """
    return random_isometries(m, k, 1, seed)[0]


def isometry_defect(h) -> float:
    """Frobenius distance of h* h from the identity."""
    arr = np.asarray(h, dtype=complex)
    return float(np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[1])))


def require_ints(minimum: int, /, **values) -> None:
    """The library's one check of counts, indices and seeds, keyword by keyword.

    Raises TypeError ("k must be an integer, got bool") for a value that is
    not a Python or numpy integer, bools included, and ValueError ("n_angles
    must be >= 8, got 7", or "seed must be non-negative, got -1" when
    ``minimum`` is 0) for one below ``minimum``.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if value < minimum:
            bound = "non-negative" if minimum == 0 else f">= {minimum}"
            raise ValueError(f"{name} must be {bound}, got {value}")


def require_isometry(h) -> np.ndarray:
    """Validate orthonormal columns, to an ``isometry_defect`` of 1e-10, and return the frame."""
    arr = as_matrix(h)
    if arr.shape[0] < arr.shape[1]:
        raise ValueError("an isometry cannot have more columns than rows")
    defect = isometry_defect(arr)
    if defect > 1e-10:
        raise ValueError(f"columns are not orthonormal (defect {defect:.3g})")
    return arr


def frobenius_inner(a, b) -> complex:
    """Frobenius inner product tr(b* a); conjugate-linear in b."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return complex(np.vdot(bm, am))
