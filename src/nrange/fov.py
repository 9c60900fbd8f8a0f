"""Field of values of a square matrix via Johnson's supporting-line sweep.

Each direction theta contributes the top eigenvalue of the Hermitian part of
exp(-i theta) A together with the quadratic form of its eigenvector; corners
show up as boundary points that win the sweep over a whole run of angles.
The Hermitian part at theta + pi is minus the one at theta, so one
decomposition serves two opposite directions: its top eigenpair gives theta
and its negated bottom eigenpair gives theta + pi.  The sweep stacks the
rotated Hermitian parts of a block of angles and solves them with one
``np.linalg.eigh`` call per block, sized so that each stacked input stays
within ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundaryCurve, SharpPoint, default_angles
from .linalg import as_matrix

__all__ = ["fov_boundary", "sharp_points", "support_point"]

# cap on the bytes of one stacked (c, n, n) complex input to eigh
_CHUNK_BYTES = 2**18


def _require_square(a) -> np.ndarray:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("the field of values needs a square matrix")
    return arr


def _solve(arr: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked eigendecompositions of the Hermitian parts of exp(-i theta) arr.

    (R + R*)/2 is exactly Hermitian in floating point, so no symmetry check
    is needed; only overflow of the rotated part is rejected.
    """
    phases = np.exp(-1j * angles)
    # with a 2-d 1x1 operand and one angle numpy picks a multiply loop that
    # rounds differently; the 3-d form matches exp(-i theta) * arr exactly
    rot = phases[:, None, None] * arr[None]
    herm = (rot + rot.conj().swapaxes(-1, -2)) / 2
    if not np.isfinite(herm).all():
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigh(herm)


def _forms(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quadratic forms x* arr x of a stack of vectors."""
    # matmul (not einsum) keeps the quadratic form bit-identical to x* A x
    return (x.conj()[:, None, :] @ arr @ x[:, :, None])[:, 0, 0]


def support_point(a, theta: float) -> tuple[float, complex]:
    """Support value and attaining boundary point in direction theta.

    Returns ``(p, z)`` where p is the top eigenvalue of the Hermitian part of
    exp(-i theta) a and z the quadratic form of the corresponding unit
    eigenvector, so Re(exp(-i theta) z) = p.
    """
    arr = _require_square(a)
    w, v = _solve(arr, np.array([theta], dtype=float))
    return float(w[0, -1]), complex(_forms(arr, v[:, :, -1])[0])


def fov_boundary(a, n_angles: int = 720) -> BoundaryCurve:
    """Sampled boundary of the field of values.

    On an even grid of N angles, angle j + N/2 lies pi after angle j, so only
    the first N/2 angles are solved: the top eigenpair at angle j gives
    sample j, and the bottom eigenpair (value negated, quadratic form of its
    vector) gives sample j + N/2.  An odd grid solves all N angles.  The
    solved angles go in blocks of c, one stacked ``eigh`` per block, with
    c = max(1, _CHUNK_BYTES // (16 n^2)) so the stacked (c, n, n) input stays
    at or under 256 KiB (c >= 202 for n <= 9, c = 4 for n = 60); 720 angles
    take 360 solves.  The result does not depend on the block size: samples
    j < N/2 (every sample of an odd grid) equal the one-angle
    ``support_point`` bit for bit, and samples j + N/2 agree with it to
    rounding, because exp(-i theta) at the two angles is not exactly opposite.
    """
    arr = _require_square(a)
    if n_angles < 8:
        raise ValueError("need at least eight angles")
    angles = default_angles(n_angles)
    support = np.empty(n_angles, dtype=float)
    points = np.empty(n_angles, dtype=complex)
    lead = n_angles // 2 if n_angles % 2 == 0 else n_angles
    chunk = max(1, _CHUNK_BYTES // (16 * arr.shape[0] ** 2))
    for lo in range(0, lead, chunk):
        hi = min(lo + chunk, lead)
        w, v = _solve(arr, angles[lo:hi])
        support[lo:hi], points[lo:hi] = w[:, -1], _forms(arr, v[:, :, -1])
        if lead < n_angles:
            far = slice(lo + lead, hi + lead)
            support[far], points[far] = -w[:, 0], _forms(arr, v[:, :, 0])
    return BoundaryCurve(angles, support, points)


def sharp_points(
    curve: BoundaryCurve,
    min_cone_width: float | None = None,
    cluster_tol: float | None = None,
) -> list[SharpPoint]:
    """Corners of a convex boundary curve.

    A corner is a boundary point that stays the support maximizer across a
    cyclic run of grid angles whose total width reaches ``min_cone_width``.
    Defaults: three grid steps of cone width, and clustering at 1e-6 relative
    to the curve scale.  Smooth boundaries yield an empty list.
    """
    n = len(curve.angles)
    step = curve.grid_step()
    if min_cone_width is None:
        min_cone_width = 3.0 * step
    if cluster_tol is None:
        cluster_tol = 1e-6 * curve.scale()
    pts = curve.points
    same = np.abs(np.diff(pts, append=pts[:1])) <= cluster_tol
    if same.all():
        return [SharpPoint(location=complex(pts[n // 2]), normal_cone_width=2.0 * np.pi)]
    breaks = np.flatnonzero(~same)
    found = []
    for start_break, end_break in zip(breaks, np.roll(breaks, -1)):
        start = (int(start_break) + 1) % n
        length = (int(end_break) - start) % n + 1
        width = length * step
        if width + 1e-12 < min_cone_width:
            continue
        idx = (start + np.arange(length)) % n
        # the run's middle angle sits strictly inside the normal cone, where
        # the stored point is the corner itself; run edges can drift by the
        # clustering tolerance
        found.append(
            SharpPoint(location=complex(pts[idx[length // 2]]), normal_cone_width=width)
        )
    return found
