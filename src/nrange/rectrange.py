"""The circular range of a rectangular matrix and its norm-based relatives.

For a nonscalar m-by-n matrix the set of bilinear values y* A x over unit
vectors is the closed disc of radius ||A||_2 around the origin.  This module
computes that disc, produces explicit witness pairs for boundary and interior
values, and covers the norm-based range discs taken against a comparison
matrix B with ||B||_F >= 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Circle, Disc, Region, default_angles, normalize_region
from .linalg import as_matrix, frobenius_inner, require_ints, require_isometry, sigma_max, svd

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
    """Closed-form region of the bilinear range: the disc of radius sigma_1.

    The all-zero matrix degrades to ``Point(0)``.  A 1x1 matrix is the one
    shape where the set is the circle |z| = |a| rather than the filled disc;
    that case returns ``Circle`` and emits a UserWarning.
    """
    arr = as_matrix(a)
    top = float(svd(arr).sigma[0])
    if arr.shape == (1, 1):
        warnings.warn(
            "1x1 input: the range is the circle |z| = |a|, not a filled disc",
            UserWarning,
            stacklevel=2,
        )
        return normalize_region(Circle(0j, top))
    return normalize_region(Disc(0j, top))


def range_value(a, x, y) -> complex:
    """The bilinear value y* A x for unit vectors x, y."""
    arr = as_matrix(a)
    xv = _unit_vector(x, arr.shape[1], "x")
    yv = _unit_vector(y, arr.shape[0], "y")
    return complex(yv.conj() @ arr @ xv)


def boundary_witness(a, theta: float) -> WitnessVectors:
    """Unit pair attaining the extreme value sigma_1 * exp(i theta).

    Built from the top singular pair with the phase carried by y; the zero
    matrix has no boundary witness.
    """
    arr = as_matrix(a)
    dec = svd(arr)
    if dec.sigma[0] == 0.0:
        raise ValueError("the zero matrix has no boundary witness")
    x = dec.right[:, 0]
    y = np.exp(-1j * theta) * dec.left[:, 0]
    return WitnessVectors(x=x, y=y, value=complex(y.conj() @ arr @ x))


def _orthogonal_unit(u: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the unit vector u (len >= 2)."""
    j = int(np.argmin(np.abs(u)))
    v = np.zeros_like(u)
    v[j] = 1.0
    v -= u * np.conj(u[j])
    return v / np.linalg.norm(v)


def interior_witness(a, z) -> WitnessVectors:
    """Unit pair whose bilinear value equals any z with |z| <= sigma_1.

    Mixes the image-aligned direction with a deterministic orthogonal
    complement; a single-row matrix is handled through the adjoint with the
    roles of x and y swapped.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    if m == 1 and n == 1:
        raise ValueError("needs at least two rows or columns")
    z = complex(z)
    if m == 1:
        flipped = interior_witness(arr.conj().T, np.conj(z))
        return WitnessVectors(x=flipped.y, y=flipped.x, value=complex(np.conj(flipped.value)))
    dec = svd(arr)
    top = float(dec.sigma[0])
    if abs(z) > top + 1e-9:
        raise ValueError(f"|z| = {abs(z):.6g} exceeds the range radius {top:.6g}")
    if top == 0.0:
        x = np.zeros(n, dtype=complex)
        y = np.zeros(m, dtype=complex)
        x[0] = y[0] = 1.0
        return WitnessVectors(x=x, y=y, value=0j)
    x = dec.right[:, 0]
    image_dir = dec.left[:, 0]
    ortho = _orthogonal_unit(image_dir)
    c = min(abs(z) / top, 1.0)
    phase = z / abs(z) if z != 0 else 1.0
    y = np.conj(phase) * c * image_dir + np.sqrt(max(0.0, 1.0 - c * c)) * ortho
    return WitnessVectors(x=x, y=y, value=complex(y.conj() @ arr @ x))


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


def _norm_discs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the norm-range discs of a against a stack b, shape (R, m, n).

    Centre <a, b> / ||b||_F**2, radius ||a - centre b||_F sqrt(1 - ||b||_F^-2).
    A comparison within 1e-12 of unit norm counts as exactly unit, so
    rounding a normalized b cannot flip the result between a point and a rejection.
    """
    nb = np.linalg.norm(b, axis=(1, 2))
    # one product per comparison: a disc's bits do not depend on the stack
    centre = (b.reshape(len(b), 1, -1).conj() @ a.reshape(-1, 1))[:, 0, 0] / nb**2
    slack = np.where(np.abs(nb - 1.0) <= 1e-12, 0.0, 1.0 - 1.0 / nb**2)
    residual = np.linalg.norm(a - centre[:, None, None] * b, axis=(1, 2))
    return centre, residual * np.sqrt(np.maximum(slack, 0.0))


def norm_range_disc(a, b) -> Region:
    """Disc of the norm-based range of a against a fixed comparison b.

    Requires ||b||_F >= 1 - 1e-12; the disc is ``_norm_discs`` of b alone.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    nb = float(np.linalg.norm(bm))
    if nb < 1.0 - 1e-12:
        raise NormHypothesisError(f"the norm range needs ||B||_F >= 1, got {nb:.6g}")
    (centre,), (radius,) = _norm_discs(am, bm[None])
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


def norm_range_union(a, n_samples: int, seed: int) -> NormRangeUnionReport:
    """Random plus deterministic sweep of norm-range discs.

    Samples B = G / ||G||_F * s with complex Gaussian G and s uniform in
    [1, 3], then appends the rotated-copy family at 32 phases so the
    Frobenius-radius boundary is attained exactly rather than asymptotically.
    The draws are three calls on one generator: the real parts of all G,
    then their imaginary parts, then all the scales; a seed therefore samples
    other comparisons than versions that drew G and s one sample at a time.
    Every disc is ``norm_range_disc``'s, from one ``_norm_discs`` call on the
    whole stack, so memory grows as n_samples * m * n.
    """
    require_ints(1, n_samples=n_samples)
    require_ints(0, seed=seed)
    arr = as_matrix(a)
    rng = np.random.default_rng(seed)
    frob = float(np.linalg.norm(arr))
    shape = (n_samples, *arr.shape)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = rng.uniform(1.0, 3.0, n_samples)
    ng = np.linalg.norm(g, axis=(1, 2))
    keep = ng != 0.0
    b = g[keep] / ng[keep, None, None] * scale[keep, None, None]
    if frob > 0.0:
        phases = np.exp(-1j * default_angles(32)) / frob
        b = np.concatenate([b, phases[:, None, None] * arr])
    centre, radius = _norm_discs(arr, b)
    reach = np.abs(centre) + radius
    return NormRangeUnionReport(
        n_samples=n_samples,
        n_discs=len(b),
        sup_abs=float(reach.max(initial=0.0)),
        containment_violations=int(np.count_nonzero(reach > frob + 1e-9)),
        frobenius_radius=frob,
        seed=seed,
    )


class CenterBound(NamedTuple):
    hypothesis_held: bool
    bound_holds: bool


def center_bound_check(a, b) -> CenterBound:
    """Disc-centre bound under the singular-value hypothesis on b.

    Hypothesis: the 2-norm of b's singular values (its Frobenius norm) is at
    least sqrt(rank b).  When it holds, the centre magnitude
    |<a, b>| / ||b||_F**2 cannot exceed the spectral norm of a.  Both flags
    are reported; the bound is only asserted elsewhere when the hypothesis
    held.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    sig_b = svd(bm).sigma
    if sig_b[0] == 0.0:
        raise ValueError("b must be nonzero")
    rank = int(np.sum(sig_b > 1e-10 * sig_b[0]))
    frob_b = float(np.linalg.norm(sig_b))
    hypothesis = frob_b >= np.sqrt(rank)
    centre = abs(frobenius_inner(am, bm)) / frob_b**2
    bound = centre <= sigma_max(am) + 1e-9
    return CenterBound(bool(hypothesis), bool(bound))


def rank_one_value(a, y, x) -> complex:
    """<a, y x*>: the rank-one inner-product form of the range value."""
    arr = as_matrix(a)
    yv = _unit_vector(y, arr.shape[0], "y")
    xv = _unit_vector(x, arr.shape[1], "x")
    return frobenius_inner(arr, np.outer(yv, xv.conj()))
