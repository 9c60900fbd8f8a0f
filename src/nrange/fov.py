"""Field of values of a square matrix via Johnson's supporting-line sweep.

Each direction theta contributes the top eigenvalue of the Hermitian part of
exp(-i theta) A together with the quadratic form of its eigenvector; corners
show up as boundary points that win the sweep over a whole run of angles.
The Hermitian part at theta + pi is minus the one at theta, so one
decomposition serves two opposite directions: its top eigenpair gives theta
and its negated bottom eigenpair gives theta + pi.  The sweep stacks the
rotated Hermitian parts of a block of angles and solves them with one
``np.linalg.eigh`` call per block, sized so that each stacked input stays
within ``_CHUNK_BYTES``.  The blocks do not depend on each other, so they run
on the CPUs this process may use (numpy's ``eigh`` releases the GIL): one
thread per CPU when BLAS runs on one thread, and fewer when BLAS threads
itself (with OpenBLAS's default of one thread per CPU, none: the sweep then
stays on the calling thread).  A sweep of one block runs inline too.  Each
block writes only its own samples, so the curve does not depend on the
number of threads.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .geometry import BoundaryCurve, SharpPoint, default_angles
from .linalg import as_matrix, require_ints

__all__ = ["fov_boundary", "sharp_points", "support_point"]

# cap on the bytes of one stacked (c, n, n) complex input to eigh
_CHUNK_BYTES = 2**18

# names under which numpy's OpenBLAS builds export their thread count
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


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
        raise ValueError("the Hermitian part is not finite at this scale; scale the matrix down")
    return np.linalg.eigh(herm)


def _forms(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quadratic forms x* arr x of a stack of vectors."""
    # matmul (not einsum) keeps the quadratic form bit-identical to x* A x
    return (x.conj()[:, None, :] @ arr @ x[:, :, None])[:, 0, 0]


@functools.cache
def _blas_thread_query():
    """The thread-count function of the OpenBLAS numpy calls, or None."""
    # a local import: numpy has loaded ctypes by the time a sweep runs, and a
    # top-level import would charge it to importing nrange
    import ctypes

    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    query = next((getattr(lib, name) for name in _BLAS_THREAD_QUERIES if hasattr(lib, name)), None)
    if query is not None:
        query.argtypes, query.restype = [], ctypes.c_int
    return query


def _workers(blocks: int) -> int:
    """Threads for ``blocks`` independent blocks: the usable CPUs that BLAS leaves idle.

    Concurrent calls into a multi-threaded OpenBLAS contend for its threads:
    on 2 CPUs, 2 sweep threads over a 2-thread OpenBLAS took 1.6x as long as
    one at n = 40 and 60, where over a 1-thread OpenBLAS they took half as
    long.  So the CPUs in the affinity mask are shared out per BLAS thread;
    a BLAS whose thread count cannot be read takes every CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    query = _blas_thread_query()
    blas = query() if query is not None else cpus
    return max(1, min(blocks, cpus // max(1, blas)))


def _run_blocks(solve, count: int) -> None:
    """Call ``solve(j)`` for j in range(count) on ``_workers(count)`` threads.

    One worker runs the blocks inline.  More run each block in a copy of the
    caller's context, so numpy's error state carries over; every thread is
    joined before this returns, and the earliest failing block's exception
    is raised, the one a serial loop would meet first.
    """
    workers = _workers(count)
    if workers == 1:
        for j in range(count):
            solve(j)
        return
    # local imports: concurrent.futures would add about 7 ms to importing nrange
    from concurrent.futures import ThreadPoolExecutor
    from contextvars import copy_context

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(copy_context().run, solve, j) for j in range(count)]
    for future in futures:
        future.result()


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
    solved angles go in the fewest blocks of at most
    c = max(1, _CHUNK_BYTES // (16 n^2)) angles, so each stacked (c, n, n)
    input stays at or under 256 KiB, with sizes that differ by at most one;
    each block is one stacked ``eigh``.  At 720 angles that is 360 solves:
    one block for n <= 6, two blocks of 180 for n = 7..9, 90 blocks of 4 at
    n = 60.  The blocks run on one thread per usable CPU that BLAS leaves
    idle (see ``_workers``); a single block, or a single such CPU, runs them
    inline on the calling thread.  The result depends neither on the block size nor on the
    number of threads: samples j < N/2 (every sample of an odd grid) equal
    the one-angle ``support_point`` bit for bit, and samples j + N/2 agree
    with it to rounding, because exp(-i theta) at the two angles is not
    exactly opposite.
    """
    require_ints(8, n_angles=n_angles)
    arr = _require_square(a)
    angles = default_angles(n_angles)
    support = np.empty(n_angles, dtype=float)
    points = np.empty(n_angles, dtype=complex)
    lead = n_angles // 2 if n_angles % 2 == 0 else n_angles
    count = -(-lead // max(1, _CHUNK_BYTES // (16 * arr.shape[0] ** 2)))
    edges = [lead * j // count for j in range(count + 1)]

    def solve(j: int) -> None:
        lo, hi = edges[j], edges[j + 1]
        w, v = _solve(arr, angles[lo:hi])
        support[lo:hi], points[lo:hi] = w[:, -1], _forms(arr, v[:, :, -1])
        if lead < n_angles:
            far = slice(lo + lead, hi + lead)
            support[far], points[far] = -w[:, 0], _forms(arr, v[:, :, 0])

    _run_blocks(solve, count)
    return BoundaryCurve(angles, support, points)


def sharp_points(curve: BoundaryCurve) -> list[SharpPoint]:
    """Corners of a convex boundary curve.

    A corner is a boundary point that stays the support maximizer across a
    cyclic run of grid angles at least three grid steps wide; consecutive
    samples within 1e-6 times the curve scale count as one point.  Every
    run's start, length and width come from one pass over the breaks between
    runs, and each kept run reports its middle sample: that angle sits
    strictly inside the normal cone, where the stored point is the corner
    itself, while run edges can drift by the clustering tolerance.  Smooth
    boundaries yield an empty list.
    """
    n = len(curve.angles)
    step = curve.grid_step()
    pts = curve.points
    same = np.abs(np.diff(pts, append=pts[:1])) <= 1e-6 * curve.scale()
    if same.all():
        return [SharpPoint(location=complex(pts[n // 2]), normal_cone_width=2.0 * np.pi)]
    breaks = np.flatnonzero(~same)
    starts = (breaks + 1) % n
    lengths = (np.roll(breaks, -1) - starts) % n + 1
    widths = lengths * step
    keep = widths + 1e-12 >= 3.0 * step
    middles = (starts[keep] + lengths[keep] // 2) % n
    return [SharpPoint(location=complex(pts[i]), normal_cone_width=float(width))
            for i, width in zip(middles, widths[keep])]
