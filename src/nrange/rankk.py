"""Rank-k ranges of rectangular matrices.

The set of values z for which some pair of k-column isometries M, N solves
M* A N = z I_k is circular around the origin and falls into three regimes by
the index k: a disc of radius sigma_k while 2k stays within the larger
dimension, the ring between sigma_{m+n-2k+1} and sigma_k up to
3k <= m + n + 1, and past that empty unless repeated singular values make
those two radii equal, when it is the circle |z| = sigma_k.  Membership can
also be read off the singular-value interlacing inequalities.  Both sides of
a verdict come with an explicit certificate from one SVD of A:
``find_witness`` builds, in closed form, an isometry pair that solves the
equation for a member and attains sqrt(k) times the distance from the region
for any other value, and ``separating_frame`` gives a frame whose bound,
checked from A and the frame alone, proves a value outside.

Each matrix is decomposed once, under ``linalg.pow2_scaled``'s rule: every
entry point here, and ``rectrange``'s rank-1 certificates, read the full SVD
of A from a slot that keeps the last two this thread took, keyed on the
exact shape and bytes of the matrix, its factors read-only; a wide A's
certificates swap A's own factors for its adjoint's (``_taller_side``).  A
value off by one ulp is a new matrix.  A matrix more than twice as long as
it is wide, or with more than 4096 entries, bypasses the slot: its full
factors would cost far more than the thin SVD its region needs, and nothing
that size is kept after a call returns.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Disc, Empty, Point, Region, Segment, normalize_region
from .linalg import (as_matrix, hermitian_eigen, pow2_scaled, pow2_shift, random_isometries,
                     require_ints, times_pow2)

__all__ = [
    "ProjectorBoundReport",
    "RankKRegion",
    "WitnessPair",
    "find_witness",
    "hermitian_rank_interval",
    "projector_intersection_check",
    "rank_k_contains",
    "rank_k_region",
    "separating_frame",
]


@dataclass(frozen=True)
class RankKRegion:
    """Closed-form classification of one rank-k range."""

    k: int
    regime: str  # "low" | "ring" | "empty"
    region: Region


@dataclass(frozen=True)
class WitnessPair:
    """Isometry pair certifying one range value, or the pair at its nearest region point."""

    left: np.ndarray   # m x k
    right: np.ndarray  # n x k
    value: complex
    residual: float    # ||left* A right - value I||_F
    restarts_used: int  # always 1
    iterations: int     # always 1


# the newest two (key, (u, sigma, vh)) entries of each thread, newest first
_recent = threading.local()


def _decomposed(arr: np.ndarray, full: bool):
    """SVD (u, sigma, vh) of ``arr``: full and read-only from the slot, or as asked.

    A matrix of at most 4096 entries and at most twice as long as it is wide
    is decomposed in full once while it stays among its thread's last two,
    keyed on its shape and bytes; its singular values equal the thin SVD's
    bit for bit.  Any other is decomposed on every call, with
    ``full_matrices=full``, and kept nowhere.  Sigma past the float range is
    inf.  A request takes one entry, a wide one too; the second lets a
    caller alternate two matrices, such as one and its adjoint.
    """
    m, n = arr.shape
    kept = max(m, n) <= 2 * min(m, n) and m * n <= 4096
    key = (arr.shape, arr.tobytes()) if kept else None
    entries = getattr(_recent, "entries", ())
    for known, factors in entries:
        if known == key:
            return factors
    scaled, e = pow2_scaled(arr)
    u, sig, vh = np.linalg.svd(scaled, full_matrices=full or kept)
    factors = (u, times_pow2(sig, e), vh)
    if kept:
        for part in factors:
            part.flags.writeable = False
        _recent.entries = ((key, factors),) + entries[:1]
    return factors


def _taller_side(arr: np.ndarray):
    """The taller of arr and its adjoint, with that side's full SVD (u, sigma, v) from arr's.

    A wide arr = U S V* has the adjoint V S U*, so its factors are arr's
    swapped, u <- V and v <- U, and no second matrix is decomposed.
    """
    u, sig, vh = _decomposed(arr, True)
    if arr.shape[0] < arr.shape[1]:
        return arr.conj().T, vh.conj().T, sig, u
    return arr, u, sig, vh.conj().T


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
    sig = _decomposed(arr, False)[1]
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
    sig = _decomposed(arr, False)[1]
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


def _off_identity(x: np.ndarray, c) -> float:
    """Frobenius norm of x - c I for one fresh square matrix x, changed in place."""
    x.reshape(-1)[::x.shape[-1] + 1] -= c
    return math.sqrt(np.vdot(x, x).real)


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
    u_i or a mix's orthogonal partner.  An image of norm 0 (then z = 0)
    takes its own unit direction and no complement.  M exists when no d_j
    falls below |z| (relative 1e-10) and there is a complement direction for
    every d_j above it (1 - |z|^2/d_j^2 > 1e-12); otherwise M is None, and so
    it is when mixes run out of indices, where N is topped up with their
    orthogonal partners.
    """
    pins = max(0, 2 * k - m)
    plain = k - pins
    r = abs(z)
    cols, norms, order = [v[:, :plain]], sig[:plain].tolist(), list(range(plain))
    mixes, partners = [], []
    available = range(plain, n)
    for j in range(plain, k):
        if not available:
            break
        hi, lo = available[0], available[-1]
        sa, sp = float(sig[hi]), float(sig[lo])
        if sa > sp:
            # scaled by the rule for sig_hi: exact, and no square overflows;
            # a |z| past sig_hi gives c^2 = 1, as sig_hi itself does
            e = pow2_shift(sa)
            ra, rp, rz = (math.ldexp(t, -e) for t in (sa, sp, min(r, sa)))
            c2 = min(max((rz * rz - rp * rp) / (ra * ra - rp * rp), 0.0), 1.0)
            c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
            cols.append(c * v[:, hi] + s * v[:, lo])
            partners.append((hi, lo, c, s))
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
    if len(norms) < k:
        # mixes can exhaust the index pool past the ring regime; top up with
        # their orthogonal partners, which span what is left
        return np.column_stack(cols + [s * v[:, hi] - c * v[:, lo]
                                       for hi, lo, c, s in partners[:k - len(norms)]]), None
    frame = np.column_stack(cols)
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
    # keeps M an isometry exactly
    phase = z.conjugate() / r if r else 0j
    coef, need, weights = [], [], []
    for j, d in enumerate(norms):
        if not d:
            # an image of norm 0 needs z = 0, which its own unit direction
            # meets with no complement direction
            coef.append(1.0)
            continue
        ratio = r / d
        defect = (1.0 - ratio) * (1.0 + ratio)
        if defect > 1e-12:
            need.append(j)
            weights.append(math.sqrt(defect))
        coef.append(ratio * phase if defect > 1e-12 else phase)
    if len(need) > m - k:
        return frame, None
    left = u[:, :k] * np.array(coef)
    if need:
        # descending norms make need a leading range, except beside a
        # mix; a slice adds the same values, in a third of the time
        p = len(need)
        left[:, slice(p) if need[-1] == p - 1 else need] += u[:, k:k + p] * weights
    return frame, left


def _pair_residual(arr, left, right, z) -> float:
    """||M* A N - z I||_F, or inf where M is missing or not an isometry to 1e-12."""
    if left is None:
        return math.inf
    adj = left.conj().T
    if _off_identity(adj @ left, 1.0) > 1e-12:
        return math.inf
    return _off_identity(adj @ arr @ right, z)


def find_witness(a, k: int, z, seed: int = 0, restarts: int = 20,
                 max_iter: int = 500, tol: float = 1e-8) -> WitnessPair:
    """Isometry pair certifying z in the rank-k range, or the pair at its nearest point.

    Works on the taller of A and its adjoint (``_taller_side``: A's one SVD
    serves both), with A and z scaled by ``linalg.pow2_scaled``'s rule for
    sigma_1 and z.  N and M with M* A N = z I come in closed form where they
    exist (``_start_frames``), and every member certifies with them: a
    residual ||M* A N - z I||_F, recomputed from A, M and N and scaled back,
    at most ``tol``.  Any other z moves along its ray (phase 1 at z = 0)
    onto the region's radial interval [sigma_j, sigma_k] of
    ``rank_k_region``, and the closed-form pair at that nearest point is
    returned: residual sqrt(k) times the distance from the region, to
    rounding; ``separating_frame`` proves such a z outside.  One pair is
    built per value: at z where the region is empty or |z| lies within
    ``_start_frames``' relative 1e-10 band of that interval, and at the
    nearest point elsewhere or where the pair at z does not certify.  Where
    the region is empty, or M misses its isometry test, M comes from one SVD
    of the m x k image A N: its polar factor steered by conj(z)/|z| (1 at
    z = 0), with the directions of singular values past 2|z| traded for
    unused ones as far as there are any.  ``seed``, ``restarts`` and ``max_iter`` are
    validated but have no effect, and ``restarts_used`` and ``iterations``
    are always 1.  A z that is not finite, or whose modulus exceeds the
    float range, raises ValueError before any decomposition.
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
    # the closed form sees the taller side: the adjoint of a wide A, with conj(z)
    arr, u, sig, v = _taller_side(arr)
    if wide:
        z, m, n = z.conjugate(), n, m
    e = pow2_shift(max(sig[0], abs(z.real), abs(z.imag)))
    arr, sig, z = times_pow2(arr, -e), times_pow2(sig, -e), complex(times_pow2(z, -e))
    # a sigma_1 past the float range is decomposed again, scaled
    if math.isinf(sig[0]):
        u, sig, vh = np.linalg.svd(arr, full_matrices=True)
        v = vh.conj().T
    outer = float(sig[k - 1])
    inner = float(sig[m + n - 2 * k]) if 2 * k > m else 0.0
    r = math.hypot(z.real, z.imag)
    phase = z / r if r else 1 + 0j
    res = math.inf
    # past the band _start_frames finds no M at z: a column's image falls
    # below |z|, or more need a complement direction than there are
    if inner > outer or (inner * (1.0 - 1e-10) <= r and r * (1.0 - 1e-10) <= outer):
        right, left = _start_frames(sig, u, v, m, n, k, z)
        res = float(times_pow2(_pair_residual(arr, left, right, z), e))
    if not res <= tol:
        if inner <= outer:
            right, left = _start_frames(sig, u, v, m, n, k, min(max(r, inner), outer) * phase)
            res = float(times_pow2(_pair_residual(arr, left, right, z), e))
        if res == math.inf:
            # the polar factor of A N = U S V*, steered by conj(z)/|z|, with
            # u_i moved to an unused direction of U, which A N never reaches,
            # for the largest s_i past 2|z|: there column i misses z by |z|
            # rather than s_i - |z|
            pu, s, pvh = np.linalg.svd(arr @ right)
            d = min(m - k, int(np.count_nonzero(s > 2 * r)))
            left = (pu[:, [*range(k, k + d), *range(d, k)]] * phase.conjugate()) @ pvh
            res = float(times_pow2(_off_identity(left.conj().T @ arr @ right, z), e))
    if wide:
        left, right = right, left
    return WitnessPair(left=left, right=right, value=value, residual=res,
                       restarts_used=1, iterations=1)


def separating_frame(a, k: int, z):
    """Right isometry that proves z outside the rank-k range of A, or None.

    Take A as given, m x n, and any k-column isometries M, N.  If
    |z| > sigma_k, the frame is G, the trailing n - k + 1 right singular
    vectors: range(N) meets range(G), so some unit x = N c has
    ||A x|| >= |c* M* A N c| = |z|, and ||A G|| < |z| rules every pair out.
    If |z| < sigma_j, j = m + n - 2k + 1 (past the low regime), it is S, the
    top j: the c with N c in range(S) span at least m - k + 1 dimensions, so
    their images under A N meet range(M), where ||A N c|| >= sigma_min(A S)
    but M* A N c = z c; sigma_min(A S) > |z| rules every pair out.  Anyone can
    check either bound from A and the frame alone.  Returns None for a
    member and within a relative 1e-12 sigma_1 of the binding value.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k)
    if k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    z = complex(z)
    _, sig, vh = _decomposed(arr, True)
    r = math.hypot(z.real, z.imag)
    band = 1e-12 * float(sig[0])
    if r > sig[k - 1] + band:
        return vh[k - 1:].conj().T
    j = m + n - 2 * k + 1
    if 2 * k > max(m, n) and r < sig[j - 1] - band:
        return vh[:j].conj().T
    return None


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


def _spectral_norms(x: np.ndarray, e: int) -> np.ndarray:
    """2**e times the 2-norm of each matrix of the stack x, from its smaller Gram matrix."""
    xh = x.conj().swapaxes(1, 2)
    gram = xh @ x if x.shape[2] <= x.shape[1] else x @ xh
    return times_pow2(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)), e)


def projector_intersection_check(a, k: int, n_trials: int, seed: int) -> ProjectorBoundReport:
    """Projections onto random co-dimension-(k-1) subspaces never cut below sigma_k.

    Random (n-k+1)-dimensional right subspaces and (m-k+1)-dimensional left
    subspaces keep the projected spectral norm at or above sigma_k, and the
    deterministic frames built from the trailing singular vectors attain it
    exactly.  The n_trials right frames are one ``random_isometries`` stack
    from seed ``(seed, 0)`` and the left frames one from ``(seed, 1)``; the
    star frames G, L close each stack.  Frames are isometries, so ||A G G*||
    = ||A G|| and ||L L* A|| = ||L* A||: roots of the top ``eigvalsh`` values
    of one stack of the smaller Gram matrices per side.  A enters scaled by a
    power of two to parts in [0.5, 1), exact to undo; at ``pow2_scaled``'s
    [2**399, 2**400) a Gram matrix would pass 2**485, past which LAPACK's
    zheevd rescales it by a factor that is no power of two.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    require_ints(1, k=k, n_trials=n_trials)
    require_ints(0, seed=seed)
    if k > min(m, n):
        raise ValueError(f"need 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    u_full, sig, vh_full = _decomposed(arr, True)
    sigma_k = float(sig[k - 1])
    e = math.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))[1]
    unit = times_pow2(arr, -e)
    right = np.concatenate([random_isometries(n, n - k + 1, n_trials, (seed, 0)),
                            vh_full[None, k - 1:].conj().swapaxes(1, 2)])
    left = np.concatenate([random_isometries(m, m - k + 1, n_trials, (seed, 1)),
                           u_full[None, :, k - 1:]])
    right_norms = _spectral_norms(unit @ right, e)
    left_norms = _spectral_norms(left.conj().swapaxes(1, 2) @ unit, e)
    min_right, right_star = float(right_norms[:-1].min()), float(right_norms[-1])
    min_left, left_star = float(left_norms[:-1].min()), float(left_norms[-1])
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
