"""Rank-k ranges of rectangular matrices.

The set of values z for which some pair of k-column isometries M, N solves
M* A N = z I_k is circular around the origin and falls into three regimes by
the index k: a disc of radius sigma_k while 2k stays within the larger
dimension, the ring between sigma_{m+n-2k+1} and sigma_k up to
3k <= m + n + 1, and past that empty unless repeated singular values make
those two radii equal, when it is the circle |z| = sigma_k.  Membership can
also be read off the singular-value interlacing inequalities, and
``find_witness`` certifies individual values with an explicit isometry pair:
for a member, built in closed form from the SVD of A, with a multi-start
descent as the fallback and as the search for every other value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Disc, Empty, Point, Region, Segment, normalize_region
from .linalg import as_matrix, hermitian_eigen, random_isometries, require_ints, svd

__all__ = [
    "ProjectorBoundReport",
    "RankKRegion",
    "WitnessPair",
    "find_witness",
    "hermitian_rank_interval",
    "projector_intersection_check",
    "rank_k_contains",
    "rank_k_region",
]


@dataclass(frozen=True)
class RankKRegion:
    """Closed-form classification of one rank-k range."""

    k: int
    regime: str  # "low" | "ring" | "empty"
    region: Region


@dataclass(frozen=True)
class WitnessPair:
    """Isometry pair certifying (or best approximating) one range value."""

    left: np.ndarray   # m x k
    right: np.ndarray  # n x k
    value: complex
    residual: float    # ||left* A right - value I||_F
    restarts_used: int
    iterations: int    # left/right iteration pairs the returned restart ran


def rank_k_region(a, k: int) -> RankKRegion:
    """Region of the rank-k range by the index trichotomy.

    Past the low regime the region is the ring sigma_j <= |z| <= sigma_k,
    j = m + n - 2k + 1, whenever sigma_j <= sigma_k: always up to
    3k <= m + n + 1, past that only when the two are equal, and otherwise
    empty.  Since 2k > max(m, n) there, j never passes min(m, n).  A zero
    inner radius collapses the ring to a disc, equal radii to a circle and a
    zero outer radius to the origin.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k)
    if k > min(m, n):
        return RankKRegion(k, "empty", Empty())
    sig = svd(arr).sigma
    outer = float(sig[k - 1])
    if 2 * k <= max(m, n):
        return RankKRegion(k, "low", normalize_region(Disc(0j, outer)))
    inner = float(sig[m + n - 2 * k])
    if inner <= outer:
        return RankKRegion(k, "ring", normalize_region(Annulus(0j, inner, outer)))
    return RankKRegion(k, "empty", Empty())


def rank_k_contains(a, k: int, z) -> bool:
    """Membership through the singular-value interlacing inequalities.

    |z| must stay at or below the top k singular values and, when 2k exceeds
    both dimensions, at or above sigma_{i+m+n-2k} for i = 1, ..., 2k -
    max(m, n) (R. C. Thompson, Linear Algebra Appl. 5, 1972).  With
    descending singular values only two of them bind: sigma_k above and,
    as in ``rank_k_region``, sigma_j, j = m + n - 2k + 1, below.  Both have
    a slack of 1e-12, the tolerance ``verify`` passes to ``region_contains``,
    so the two routes agree on boundaries.  A z that is not finite, or whose
    modulus exceeds the float range, is never a member.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k)
    if k > min(m, n):
        return False
    sig = svd(arr).sigma
    inner = float(sig[m + n - 2 * k]) if 2 * k > max(m, n) else 0.0
    z = complex(z)
    # math.hypot gives inf where abs() of a finite z raises OverflowError
    return inner - 1e-12 <= math.hypot(z.real, z.imag) <= float(sig[k - 1]) + 1e-12


def hermitian_rank_interval(hm, k: int) -> Region:
    """Rank-k range of a Hermitian matrix: an eigenvalue-indexed interval.

    With descending eigenvalues the interval runs from the k-th smallest up
    to the k-th largest; it is a point when they meet and empty when they
    cross (or when k exceeds the dimension).
    """
    require_ints(1, k=k)
    lam = hermitian_eigen(hm).lam
    n = len(lam)
    if k > n:
        return Empty()
    hi = float(lam[k - 1])
    lo = float(lam[n - k])
    if hi > lo:
        return Segment(complex(lo), complex(hi))
    if hi == lo:
        return Point(complex(hi))
    return Empty()


# ---------------------------------------------------------------------------
# witness search


def _fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack, as np.linalg.norm(x, axis=(1, 2))."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(1, 2)))


def _minus_identity(x: np.ndarray, c) -> np.ndarray:
    """x - c I for every square matrix in a fresh (C-ordered) stack, in place."""
    x.reshape(len(x), -1)[:, ::x.shape[-1] + 1] -= c
    return x


def _off_identity(x: np.ndarray, c) -> float:
    """Frobenius norm of x - c I for one fresh square matrix x, changed in place."""
    _minus_identity(x[None], c)
    return math.sqrt(np.vdot(x, x).real)


def _frames(b: np.ndarray, z: complex, near_origin: bool) -> np.ndarray:
    """One half-step for a stack of images b, shape (R, m, k), from one SVD.

    Row by row: the exact isometry F with F* b = z I where one exists --
    the column-space part U diag(conj(z)/s) plus, for every singular value
    strictly above |z|, a correction in the orthogonal complement; feasible
    when no singular value falls below |z| and the complement has a
    direction for every strictly larger one.  Otherwise the polar factor of
    b conj(z), which is U_k V* conj(z)/|z| on the same SVD.

    Only when ``near_origin`` (|z| may be negligible against a row) do the
    origin cases arise: there the exact frame spans left null directions of
    b when it has k of them, and the least-aligned directions replace the
    polar factor, which would maximize exactly the wrong correlation.
    """
    m, k = b.shape[1:]
    u, s, vh = np.linalg.svd(b)
    r = abs(z)
    zbar = np.conj(z)
    # only infeasible or origin rows divide by a zero singular value, and
    # their quotients are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = zbar / s
        defect = 1.0 - (r / s) ** 2
        phase = zbar / r
    need = defect > 1e-12
    exact = s[:, -1] >= r * (1.0 - 1e-10)
    if m - k < k:
        # descending singular values make the columns that need a
        # complement direction a prefix, which must end before column m - k
        exact &= ~need[:, m - k]
    if near_origin:
        scale = np.maximum(s[:, 0], 1.0)
        origin = r <= 1e-14 * scale
        exact &= ~origin
    # count_nonzero is a fraction of the cost of .all()/.any() on masks
    # this small, and a search makes several such tests per half-step
    if np.count_nonzero(exact) < len(b):
        coef[~exact] = phase
        need &= exact[:, None]
    frame = u[:, :, :k] * coef[:, None, :]
    q = min(k, m - k)
    if q:
        frame[:, :, :q] += u[:, :, k:k + q] * np.sqrt(
            np.where(need[:, :q], defect[:, :q], 0.0))[:, None, :]
    frame = frame @ vh
    repair = _fro(_minus_identity(frame.conj().swapaxes(1, 2) @ frame, 1.0)) > 1e-12
    if np.count_nonzero(repair):
        pu, _, pvh = np.linalg.svd(frame[repair], full_matrices=False)
        frame[repair] = pu @ pvh
    if near_origin:
        least = ~exact & (r <= 1e-14 * np.maximum(np.sqrt((s * s).sum(axis=1)), 1.0))
        for i in np.flatnonzero(least):
            rank = int(np.sum(s[i] > 1e-12 * scale[i]))
            start = rank if origin[i] and m - rank >= k else m - k
            frame[i] = u[i, :, start:start + k]
    return frame


def _start_frames(sig, u, v, m: int, n: int, k: int, z: complex):
    """Deterministic start frame N and, where one exists, the exact M with M* A N = z I.

    ``u``, ``sig``, ``v`` are the full SVD of an m x n A, m >= n.  While 2k
    fits inside m, N is the top-k right singular vectors; past that, the
    surplus columns must compress to norm |z| exactly, so each one mixes the
    largest and smallest unused indices hi and lo with weights c and
    s = sqrt(1 - c^2), c^2 = (|z|^2 - sig_lo^2) / (sig_hi^2 - sig_lo^2)
    clipped to [0, 1], whenever sig_hi > sig_lo.  Disjoint index sets make N
    orthonormal and the columns of A N orthogonal.  Column j of M is the
    unit image of column j times conj(z)/d_j, d_j its norm, plus
    sqrt(1 - |z|^2/d_j^2) times a complement direction of its own: an unused
    u_i or a mix's orthogonal partner.  As in ``_frames``, M exists when no
    d_j falls below |z| (relative 1e-10) and there is a complement direction
    for every d_j above it (1 - |z|^2/d_j^2 > 1e-12); otherwise, or when
    mixes run out of indices, M is None.
    """
    pins = max(0, 2 * k - m)
    plain = k - pins
    r = abs(z)
    cols, norms, order, mixes = [v[:, :plain]], sig[:plain].tolist(), list(range(plain)), []
    available = range(plain, n)
    for j in range(plain, k):
        if not available:
            break
        hi, lo = available[0], available[-1]
        sa, sp = float(sig[hi]), float(sig[lo])
        if sa > sp:
            # |z|, sig_lo and sig_hi over the power of two just above sig_hi:
            # exact, so c^2 is the plain formula's wherever its squares fit,
            # and no square overflows at any scale
            e = -math.frexp(sa)[1]
            ra, rp, rz = math.ldexp(sa, e), math.ldexp(sp, e), math.ldexp(r, e)
            c2 = min(max((rz * rz - rp * rp) / (ra * ra - rp * rp), 0.0), 1.0)
            c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
            cols.append(c * v[:, hi] + s * v[:, lo])
            x, y = c * sa, s * sp
            h = math.hypot(x, y)
            # an image of norm 0 (z = 0 at sig_lo = 0) may point anywhere
            mixes.append((j, hi, lo) + ((x / h, y / h) if h else (0.0, 1.0)))
            norms.append(h)
            available = available[1:-1]
        else:
            cols.append(v[:, hi])
            norms.append(float(sig[hi]))
            available = available[1:]
        order.append(hi)
    frame = np.column_stack(cols)
    if frame.shape[1] < k:
        # mixes can exhaust the index pool past the ring regime; top up from
        # the orthogonal complement of what was collected
        comp = np.linalg.svd(frame, full_matrices=True)[0][:, frame.shape[1]:]
        return np.hstack([frame, comp[:, :k - frame.shape[1]]]), None
    if mixes:
        # rotate u so that its first k columns are the unit images and the
        # rest the complement directions: the unused u_i, then the partners
        rot = np.eye(m).take(order + [*available, *range(n, m)] + [mix[2] for mix in mixes], axis=1)
        for t, (j, hi, lo, x, y) in enumerate(mixes, start=m - len(mixes)):
            rot[hi, j], rot[lo, j], rot[hi, t], rot[lo, t] = x, y, y, -x
        u = u @ rot
    if min(norms) < r * (1.0 - 1e-10):
        return frame, None
    # within 1e-12 of |z| a column takes the phase of conj(z) alone, which
    # keeps M an isometry exactly; an image of norm 0 needs z = 0
    phase = z.conjugate() / r if r else 0j
    coef, need, weights = [], [], []
    for j, d in enumerate(norms):
        ratio = r / d if d else 0.0
        defect = (1.0 - ratio) * (1.0 + ratio)
        if defect > 1e-12:
            need.append(j)
            weights.append(math.sqrt(defect))
        coef.append(ratio * phase if defect > 1e-12 else phase)
    if len(need) > m - k:
        return frame, None
    left = u[:, :k] * np.array(coef)
    if need:
        left[:, need] += u[:, k:k + len(need)] * weights
    return frame, left


def _descend(arr, z, right, near_origin, max_iter, tol):
    """Block-coordinate descent on the witness residual, for a stack of start frames.

    ``right`` stacks R start frames, shape (R, n, k), and every row runs
    from pass 1.  A row stops once its best residual reaches ``tol``, after
    ``max_iter`` passes, or when three passes in a row fail to lower its
    best residual by a relative 1e-12.  The relative rule leaves the search
    exactly invariant under power-of-two scaling, and stops rows whose only
    gains are rounding noise.  Finished rows leave the stack, so each
    half-step is one SVD of the rows still running.  Rows never interact,
    so a row's result is the one it gets alone.  Returns the best left and
    right frames, residual and number of passes of every row, in row order.
    """
    rows = np.arange(len(right))
    best_left = best_right = None
    best_res, stall = np.inf, 0
    finished = []
    for it in range(1, max_iter + 1):
        left = _frames(arr @ right, z, near_origin)
        res = _fro(_minus_identity(left.conj().swapaxes(1, 2) @ arr @ right, z))
        better = res < best_res * (1.0 - 1e-12)
        if np.count_nonzero(better) == len(better):
            best_left, best_right, best_res = left, right, res
            stall = np.zeros(len(res), dtype=int)
        else:
            # a row's first pass sets its frames even when its residual is not finite
            if best_left is None:
                best_left, best_right = left, right
            best_left = np.where(better[:, None, None], left, best_left)
            best_right = np.where(better[:, None, None], right, best_right)
            best_res = np.where(better, res, best_res)
            stall = np.where(better, 0, stall + 1)
        done = (best_res <= tol) | (stall >= 3)
        finished_now = np.count_nonzero(done)
        if finished_now == len(done) or it == max_iter:
            finished.append((rows, best_left, best_right, best_res, np.full(len(rows), it)))
            break
        if finished_now:
            finished.append((rows[done], best_left[done], best_right[done], best_res[done],
                             np.full(finished_now, it)))
            keep = ~done
            rows, left, best_left, best_right, best_res, stall = (
                part[keep] for part in (rows, left, best_left, best_right, best_res, stall))
        right = _frames(arr.conj().T @ left, z.conjugate(), near_origin)
    if len(finished) == 1:
        return finished[0][1:]
    order = np.argsort(np.concatenate([part[0] for part in finished]))
    return tuple(np.concatenate([part[j] for part in finished])[order] for j in (1, 2, 3, 4))


def find_witness(a, k: int, z, seed: int = 0, restarts: int = 20,
                 max_iter: int = 500, tol: float = 1e-8) -> WitnessPair:
    """Search for an isometry pair certifying z in the rank-k range.

    Restart 0 starts from (possibly mixed) singular-vector frames N, and the
    one SVD of A also gives the left frame M with M* A N = z I in closed
    form where one exists (``_start_frames``).  That pair, pass 1 of restart
    0 without an SVD of A N, is returned with ``restarts_used`` and
    ``iterations`` 1 when M is an isometry to 1e-12 and ||M* A N - z I||_F,
    computed from A, M and N, is at most ``tol``; every member certifies
    this way.  Otherwise multi-start block-coordinate descent on
    ||M* A N - z I||_F runs every restart in one stack from pass 1: restart
    0, and the frames ``random_isometries(min(m, n), k, restarts - 1,
    (seed, 1))``.  Each half-step solves the one-sided isometry subproblem
    exactly whenever it is feasible and otherwise falls back to the
    phase-steered polar update.  A restart stops at ``tol``, at ``max_iter``
    passes, or after three passes that each lower its best residual by no
    more than a relative 1e-12.  Returns the first certifying restart in
    index order, else the lowest-index best pair; a residual at or below
    ``tol`` certifies the value, anything else is inconclusive.  A z that is
    not finite, or whose modulus exceeds the float range, raises ValueError
    before any decomposition.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k, restarts=restarts, max_iter=max_iter)
    require_ints(0, seed=seed)
    if k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    value = z = complex(z)
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError("z must be finite, and so must its modulus")
    wide = m < n
    if wide:
        # Work on the adjoint so the exact step sees the taller side.
        arr, z, m, n = arr.conj().T, z.conjugate(), n, m
    u, sig, vh = np.linalg.svd(arr, full_matrices=True)
    start, left = _start_frames(sig, u, vh.conj().T, m, n, k, z)
    res = np.inf
    if left is not None:
        # pass 1's left half-step in closed form, checked from A, M and N
        adj = left.conj().T
        if _off_identity(adj @ left, 1.0) <= 1e-12:
            res = _off_identity(adj @ arr @ start, z)
    if res <= tol:
        right, iterations, used = start, 1, 1
    else:
        # no image A N or A* M of a k-column isometry exceeds sqrt(k) ||A||_2
        # in Frobenius norm; the factor 2 absorbs rounding
        near_origin = abs(z) <= 2e-14 * max(1.0, k ** 0.5 * float(sig[0]))
        start = start[None]
        if restarts > 1:
            start = np.concatenate([start, random_isometries(n, k, restarts - 1, (seed, 1))])
        left, right, res, iterations = _descend(arr, z, start, near_origin, max_iter, tol)
        hit = res <= tol
        pick = int(np.argmax(hit)) if hit.any() else int(np.argmin(res))
        left, right, res, iterations = left[pick], right[pick], res[pick], iterations[pick]
        used = pick + 1 if res <= tol else restarts
    if wide:
        left, right = right, left
    return WitnessPair(left=left, right=right, value=value, residual=float(res),
                       restarts_used=used, iterations=int(iterations))


# ---------------------------------------------------------------------------
# projector intersection bound


@dataclass(frozen=True)
class ProjectorBoundReport:
    """Sampled and deterministic projector bounds for one (matrix, k)."""

    k: int
    n_trials: int
    sigma_k: float
    min_right_sampled: float
    right_star_value: float
    min_left_sampled: float
    left_star_value: float
    outer_radius: float
    sampled_bounds_hold: bool
    star_attains: bool
    outer_within_sampled: bool


def projector_intersection_check(a, k: int, n_trials: int, seed: int) -> ProjectorBoundReport:
    """Projections onto random co-dimension-(k-1) subspaces never cut below sigma_k.

    Random (n-k+1)-dimensional right subspaces and (m-k+1)-dimensional left
    subspaces keep the projected spectral norm at or above sigma_k, and the
    deterministic frames built from the trailing singular vectors attain it
    exactly.  The n_trials right frames are one ``random_isometries`` stack
    from seed ``(seed, 0)`` and the left frames one from ``(seed, 1)``.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k, n_trials=n_trials)
    require_ints(0, seed=seed)
    if k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    u_full, sig, vh_full = np.linalg.svd(arr, full_matrices=True)
    sigma_k = float(sig[k - 1])
    right_dim = n - k + 1
    left_dim = m - k + 1
    right = random_isometries(n, right_dim, n_trials, (seed, 0))
    left = random_isometries(m, left_dim, n_trials, (seed, 1))
    # the largest singular value of each projected matrix is its 2-norm
    min_right = float(np.linalg.svd(arr @ (right @ right.conj().swapaxes(1, 2)),
                                    compute_uv=False)[:, 0].min())
    min_left = float(np.linalg.svd((left @ left.conj().swapaxes(1, 2)) @ arr,
                                   compute_uv=False)[:, 0].min())
    g_star = vh_full.conj().T[:, k - 1:]
    right_star = float(np.linalg.norm(arr @ (g_star @ g_star.conj().T), 2))
    l_star = u_full[:, k - 1:]
    left_star = float(np.linalg.norm((l_star @ l_star.conj().T) @ arr, 2))
    outer = sigma_k  # outer radius of the closed-form region
    return ProjectorBoundReport(
        k=k,
        n_trials=n_trials,
        sigma_k=sigma_k,
        min_right_sampled=min_right,
        right_star_value=right_star,
        min_left_sampled=min_left,
        left_star_value=left_star,
        outer_radius=outer,
        sampled_bounds_hold=bool(min_right >= sigma_k - 1e-9 and min_left >= sigma_k - 1e-9),
        star_attains=bool(abs(right_star - sigma_k) <= 1e-9 and abs(left_star - sigma_k) <= 1e-9),
        outer_within_sampled=bool(outer <= min(min_right, min_left) + 1e-9),
    )
