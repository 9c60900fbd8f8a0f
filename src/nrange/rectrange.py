"""The circular range of a rectangular matrix and its norm-based relatives.

For a nonscalar m-by-n matrix the set of bilinear values y* A x over unit
vectors is the closed disc of radius ||A||_2 around the origin: the rank-1
range of ``rankk``.  This module takes that disc and the witness pairs of its
values from rankk's closed forms at k = 1, and covers the norm-based range
discs taken against a comparison matrix B with ||B||_F >= 1; A enters them
under ``linalg.pow2_scaled``'s rule, so no square over- or underflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Disc, Region, default_angles, normalize_region
from .linalg import (as_matrix, frobenius, frobenius_inner, pow2_scaled, require_ints,
                     require_isometry, sigma_max, svd, times_pow2)
from .rankk import _start_frames, _taller_side, rank_k_region

__all__ = [
    "CenterBound",
    "NormHypothesisError",
    "NormRangeUnionReport",
    "WitnessVectors",
    "boundary_witness",
    "center_bound_check",
    "compression_radius",
    "interior_witness",
    "norm_range_disc",
    "norm_range_union",
    "range_disc",
    "range_value",
    "rank_one_value",
]

# cap on the bytes of one block of the union's (c, m, n) complex comparisons,
# the cap of the field-of-values sweep's stacks
_CHUNK_BYTES = 2**18


class NormHypothesisError(ValueError):
    """The comparison matrix fails the ||B||_F >= 1 hypothesis."""


@dataclass(frozen=True)
class WitnessVectors:
    """Unit pair (x, y) together with the value y* A x it realizes."""

    x: np.ndarray
    y: np.ndarray
    value: complex


def _unit_vector(v, dim: int, name: str) -> np.ndarray:
    vec = np.asarray(v, dtype=complex).ravel()
    if vec.shape != (dim,):
        raise ValueError(f"{name} must have length {dim}, got {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise ValueError(f"{name} must be a unit vector")
    return vec


def range_disc(a) -> Region:
    """The bilinear range as the rank-1 range ``rank_k_region(a, 1)``: the disc of radius sigma_1.

    The all-zero matrix degrades to ``Point(0)``.  A 1x1 matrix is the one
    shape where the set is the circle |z| = |a|; that case emits a UserWarning.
    """
    arr = as_matrix(a)
    if arr.shape == (1, 1):
        warnings.warn(
            "1x1 input: the range is the circle |z| = |a|, not a filled disc",
            UserWarning,
            stacklevel=2,
        )
    return rank_k_region(arr, 1).region


def range_value(a, x, y) -> complex:
    """The bilinear value y* A x for unit vectors x, y."""
    arr = as_matrix(a)
    xv = _unit_vector(x, arr.shape[1], "x")
    yv = _unit_vector(y, arr.shape[0], "y")
    return complex(yv.conj() @ arr @ xv)


def _rank_one_witness(a, z=None, theta: float = 0.0) -> WitnessVectors:
    """The rank-1 certificate of z, or of sigma_1 exp(i theta) when z is None.

    That is ``find_witness(a, 1, z)``'s closed-form pair: ``rankk._start_frames``
    at k = 1 on the full SVD of the taller side (the adjoint of a wide a, with
    conj(z)).  That SVD is ``rankk._taller_side``'s, a's own from
    ``rankk._decomposed`` as every rank-k entry point's, so a disc and its
    boundary witnesses decompose any a once, a wide one included.  ValueError
    where it finds no pair: |z| past sigma_1 (1 + 1e-10), or a 1x1 matrix's z
    off its circle.
    """
    arr = as_matrix(a)
    wide = arr.shape[0] < arr.shape[1]
    tall, u, sig, v = _taller_side(arr)
    top = float(sig[0])
    if z is None:
        if top == 0.0:
            raise ValueError("the zero matrix has no boundary witness")
        z = top * np.exp(1j * theta)
    z = complex(z)
    # math.hypot gives inf where abs() of a finite z raises OverflowError
    r = math.hypot(z.real, z.imag)
    if not math.isfinite(r):
        raise ValueError("z must be finite, and so must its modulus")
    frame, left = _start_frames(sig, u, v, *tall.shape, 1, z.conjugate() if wide else z)
    if left is None:
        if arr.shape == (1, 1):
            raise ValueError(f"|z| = {r:.6g} is off the 1x1 range, the circle |z| = {top:.6g}")
        raise ValueError(f"|z| = {r:.6g} exceeds the range radius {top:.6g}")
    x, y = (left[:, 0], frame[:, 0]) if wide else (frame[:, 0], left[:, 0])
    return WitnessVectors(x=x, y=y, value=complex(y.conj() @ arr @ x))


def boundary_witness(a, theta: float) -> WitnessVectors:
    """Unit pair attaining the extreme value sigma_1 * exp(i theta): its rank-1 certificate.

    The zero matrix has no boundary witness.
    """
    return _rank_one_witness(a, theta=theta)


def interior_witness(a, z) -> WitnessVectors:
    """Unit pair whose bilinear value equals any z with |z| <= sigma_1.

    The rank-1 certificate of z, bit for bit the pair ``find_witness(a, 1,
    z)`` builds in closed form; a 1x1 matrix has one for z on its circle
    |z| = |a|.
    """
    return _rank_one_witness(a, z)


def compression_radius(a, left, right) -> float:
    """Spectral norm of the two-sided compression left* a right.

    Never exceeds sigma_1; frames spanning the top singular pair attain it.
    """
    arr = as_matrix(a)
    lf = require_isometry(left)
    rf = require_isometry(right)
    if lf.shape[0] != arr.shape[0] or rf.shape[0] != arr.shape[1]:
        raise ValueError("frame ambient dimensions must match the matrix")
    return sigma_max(lf.conj().T @ arr @ rf)


def _sum_squares(x: np.ndarray) -> np.ndarray:
    """||x_i||_F**2 of an (R, m, n) complex stack, one sum of squares over its float parts."""
    parts = np.ascontiguousarray(x).view(float)
    return np.einsum("ijk,ijk->i", parts, parts)


def _norm_discs(a: np.ndarray, b: np.ndarray, eb: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the norm-range discs of a against 2**eb b, b of shape (R, m, n).

    Centre <a, b> / ||b||_F**2, radius ||a - centre b||_F sqrt(1 - ||b||_F^-2).
    A comparison within 1e-12 of unit norm counts as exactly unit, so
    rounding a normalized b cannot flip the result between a point and a
    rejection.  a enters under ``linalg.pow2_scaled``'s rule and the discs
    are scaled back, which is exact; the slack reads the true norms.  Norms
    are sums of squares of float parts, centres conj(b . conj(a)), and the
    residuals fill one buffer; the union and ``norm_range_disc`` both call it.
    A one-entry a gets radius 0: a 1x1 b is parallel to it, so a - centre b
    is 0 exactly, where rounding would leave noise.
    """
    a, ea = pow2_scaled(a)
    nb2 = _sum_squares(b)
    # one product per comparison: a disc's bits do not depend on the stack
    centre = (b.reshape(len(b), 1, -1) @ a.conj().reshape(-1, 1))[:, 0, 0].conj() / nb2
    if a.size == 1:
        return times_pow2(centre, ea - eb), np.zeros(len(b))
    true_nb = times_pow2(np.sqrt(nb2), eb)
    slack = np.where(np.abs(true_nb - 1.0) <= 1e-12, 0.0, 1.0 - times_pow2(1.0 / nb2, -2 * eb))
    residual = b * centre[:, None, None]
    np.subtract(a, residual, out=residual)
    radius = np.sqrt(_sum_squares(residual)) * np.sqrt(np.maximum(slack, 0.0))
    # the true values may lie past the float range
    return times_pow2(centre, ea - eb), times_pow2(radius, ea)


def norm_range_disc(a, b) -> Region:
    """Disc of the norm-based range of a against a fixed comparison b.

    Requires ||b||_F >= 1 - 1e-12; the disc is ``_norm_discs`` of b alone.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    nb = frobenius(bm)
    if nb < 1.0 - 1e-12:
        raise NormHypothesisError(f"the norm range needs ||B||_F >= 1, got {nb:.6g}")
    (centre,), (radius,) = _norm_discs(am, *pow2_scaled(bm[None]))
    return normalize_region(Disc(complex(centre), float(radius)))


@dataclass(frozen=True)
class NormRangeUnionReport:
    """Coverage summary for a sweep of norm-range discs."""

    n_samples: int
    n_discs: int
    sup_abs: float
    containment_violations: int
    frobenius_radius: float
    seed: int


def _comparisons(unit: np.ndarray, re: np.ndarray, im: np.ndarray, scale: np.ndarray,
                 frob: float):
    """The union's comparisons, a block of at most ``_CHUNK_BYTES`` at a time.

    Block by block, re and im are written into one complex G, scaled in place
    by scale / ||G||_F and copied only to drop a zero G; the 32 rotated copies
    of the nonzero ``unit``, of norm ``frob``, come last.
    """
    step = max(1, _CHUNK_BYTES // (16 * unit.size))
    for lo in range(0, len(scale), step):
        s, g = scale[lo:lo + step], np.empty((min(step, len(scale) - lo), *unit.shape), complex)
        g.real, g.imag = re[lo:lo + step], im[lo:lo + step]
        ng = np.sqrt(_sum_squares(g))
        if not ng.all():
            g, ng, s = g[ng != 0.0], ng[ng != 0.0], s[ng != 0.0]
        np.multiply(g.view(float), (s / ng)[:, None, None], out=g.view(float))
        yield g
    if frob > 0.0:
        phases = np.exp(-1j * default_angles(32)) / frob
        yield phases[:, None, None] * unit


def norm_range_union(a, n_samples: int, seed: int) -> NormRangeUnionReport:
    """Random plus deterministic sweep of norm-range discs.

    Samples B = G / ||G||_F * s with complex Gaussian G and s uniform in
    [1, 3], then appends the rotated-copy family at 32 phases so the
    Frobenius-radius boundary is attained exactly rather than asymptotically.
    The draws are three calls on one generator: the real parts of all G,
    then their imaginary parts, then all the scales; a seed therefore samples
    other comparisons than versions that drew G and s one sample at a time.
    Only the draws grow as n_samples * m * n: each block of at most
    ``_CHUNK_BYTES`` of comparisons is built and scaled in place, and one
    ``_norm_discs`` call, ``norm_range_disc``'s kernel, gives its discs, bit
    for bit whatever the block or the caller.  A reach past ||A||_F (1 + 1e-9)
    is a violation, read on the discs of A under ``linalg.pow2_scaled``'s
    rule, where none under- or overflows, so the count is the same for every
    power-of-two multiple of A; ``sup_abs`` is the largest reach of those
    discs, scaled back once, as ``frobenius_radius`` is.
    """
    require_ints(1, n_samples=n_samples)
    require_ints(0, seed=seed)
    arr = as_matrix(a)
    rng = np.random.default_rng(seed)
    shape = (n_samples, *arr.shape)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    scale = rng.uniform(1.0, 3.0, n_samples)
    # 1/||A||_F overflows for a subnormal norm, so A enters scaled
    unit, e = pow2_scaled(arr)
    frob = float(np.linalg.norm(unit))
    n_discs, sup_abs, violations = 0, 0.0, 0
    # with norms 1 to 3, the comparisons need no scaling
    for b in _comparisons(unit, re, im, scale, frob):
        centre, radius = _norm_discs(unit, b)
        reach = np.abs(centre) + radius
        violations += int(np.count_nonzero(reach > frob + 1e-9 * frob))
        sup_abs = max(sup_abs, float(reach.max(initial=0.0)))
        n_discs += len(b)
    return NormRangeUnionReport(
        n_samples=n_samples,
        n_discs=n_discs,
        sup_abs=float(times_pow2(sup_abs, e)),
        containment_violations=violations,
        frobenius_radius=float(times_pow2(frob, e)),
        seed=seed,
    )


class CenterBound(NamedTuple):
    hypothesis_held: bool
    bound_holds: bool


def center_bound_check(a, b) -> CenterBound:
    """Disc-centre bound under the singular-value hypothesis on b.

    Hypothesis: the 2-norm of b's singular values (its Frobenius norm) is at
    least sqrt(rank b).  When it holds, the centre magnitude
    |<a, b>| / ||b||_F**2 cannot exceed the spectral norm of a; the flag
    allows it a relative 1e-9.  a and b are read under
    ``linalg.pow2_scaled``'s rule, so no norm, square or product under- or
    overflows, and each scale is applied once to the value it compares.  Both
    flags are reported; the bound is only asserted elsewhere when the
    hypothesis held.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    unit_b, eb = pow2_scaled(bm)
    sig_b = svd(unit_b).sigma
    if sig_b[0] == 0.0:
        raise ValueError("b must be nonzero")
    rank = int(np.sum(sig_b > 1e-10 * sig_b[0]))
    frob_b = float(np.linalg.norm(sig_b))
    hypothesis = times_pow2(frob_b, eb) >= np.sqrt(rank)
    unit = pow2_scaled(am)[0]
    centre = times_pow2(abs(frobenius_inner(unit, unit_b)) / frob_b**2, -eb)
    top = sigma_max(unit)
    bound = centre <= top + 1e-9 * top
    return CenterBound(bool(hypothesis), bool(bound))


def rank_one_value(a, y, x) -> complex:
    """<a, y x*>: the rank-one inner-product form of the range value."""
    arr = as_matrix(a)
    yv = _unit_vector(y, arr.shape[0], "y")
    xv = _unit_vector(x, arr.shape[1], "x")
    return frobenius_inner(arr, np.outer(yv, xv.conj()))
