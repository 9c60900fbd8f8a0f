"""Planar region value types and predicates shared by the range computations.

A ``Region`` is one of the small frozen value types below.  ``Disc`` and
``Ellipse`` are filled, ``Circle`` is the boundary set only (rings collapse
to it when their radii meet), and ``ConvexBoundary`` wraps a sampled support
function of a convex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import require_ints

__all__ = [
    "Annulus",
    "BoundaryCurve",
    "Circle",
    "ConvexBoundary",
    "Disc",
    "Ellipse",
    "Empty",
    "Point",
    "Region",
    "Segment",
    "SharpPoint",
    "axis_intervals",
    "convexity_defect",
    "curve_from_points",
    "default_angles",
    "normalize_region",
    "radial_interval",
    "rebuild_support",
    "region_contains",
    "region_support_curve",
    "support_gap",
]


def default_angles(n: int) -> np.ndarray:
    """n equispaced angles in [0, 2*pi); n is an integer of at least 2."""
    require_ints(2, n=n)
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


@dataclass(frozen=True)
class BoundaryCurve:
    """Support-function samples of a convex set on an ascending angle grid.

    ``support[j]`` is the largest Re(exp(-i angles[j]) z) over the set and
    ``points[j]`` a boundary point attaining it.
    """

    angles: np.ndarray
    support: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        support = np.asarray(self.support, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        if not (angles.shape == support.shape == points.shape) or angles.ndim != 1:
            raise ValueError("angles, support and points must be aligned 1-d arrays")
        if len(angles) < 2 or np.any(np.diff(angles) <= 0):
            raise ValueError("angles must be strictly ascending")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "points", points)

    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.points))))

    def grid_step(self) -> float:
        return 2.0 * np.pi / len(self.angles)


@dataclass(frozen=True)
class SharpPoint:
    """A corner of a convex boundary and the width of its normal cone."""

    location: complex
    normal_cone_width: float


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Point:
    z: complex


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class Annulus:
    center: complex
    inner: float
    outer: float

    def __post_init__(self):
        if not 0 <= self.inner <= self.outer:
            raise ValueError("need 0 <= inner <= outer")


@dataclass(frozen=True)
class Ellipse:
    """Filled elliptical disc: focal-sum distance at most major_axis_length."""

    focus1: complex
    focus2: complex
    major_axis_length: float

    def __post_init__(self):
        gap = abs(self.focus1 - self.focus2)
        if self.major_axis_length < gap - 1e-12 * max(1.0, gap):
            raise ValueError("major axis shorter than the focal distance")

    def axes(self) -> tuple[complex, float, float, float]:
        """Centre, half major and half minor axes, and the major-axis direction."""
        half_major = self.major_axis_length / 2.0
        foc = abs(self.focus2 - self.focus1) / 2.0
        half_minor = float(np.sqrt(max(half_major**2 - foc**2, 0.0)))
        axis = np.angle(self.focus2 - self.focus1) if self.focus1 != self.focus2 else 0.0
        return (self.focus1 + self.focus2) / 2.0, half_major, half_minor, axis


@dataclass(frozen=True)
class ConvexBoundary:
    curve: BoundaryCurve


Region = Union[Empty, Point, Segment, Disc, Circle, Annulus, Ellipse, ConvexBoundary]


def _modulus(w: complex) -> float:
    """|w|, and inf where that exceeds the float range: abs() of a complex
    with finite parts raises OverflowError there."""
    return math.hypot(w.real, w.imag)


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    # projected onto the unit direction, so no length is squared; Python
    # complex products overflow to inf without a numpy warning
    d = complex(b - a)
    length = _modulus(d)
    if length == 0.0:
        return _modulus(z - a)
    unit = d / length
    t = float(np.clip((complex(z - a) * unit.conjugate()).real, 0.0, length))
    return _modulus(z - (a + t * unit))


def region_contains(region: Region, z: complex, tol: float = 0.0) -> bool:
    """True when z lies within distance tol of the region.

    Ellipses use the focal-sum test (the slack is measured on the focal sum),
    convex boundaries use support-function dominance; both stay robust at
    corners and degenerate shapes.  Distances beyond the float range count
    as inf, so a finite z whose modulus overflows lies in no bounded region.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    z = complex(z)
    match region:
        case Empty():
            return False
        case Point(p):
            return _modulus(z - p) <= tol
        case Segment(a, b):
            return _segment_distance(z, a, b) <= tol
        case Disc(c, r):
            return _modulus(z - c) <= r + tol
        case Circle(c, r):
            return abs(_modulus(z - c) - r) <= tol
        case Annulus(c, lo, hi):
            d = _modulus(z - c)
            return lo - tol <= d <= hi + tol
        case Ellipse(f1, f2, major):
            return _modulus(z - f1) + _modulus(z - f2) <= major + tol
        case ConvexBoundary(curve):
            # a projection past the float range is inf, which no finite
            # support value dominates
            with np.errstate(over="ignore"):
                re = np.real(np.exp(-1j * curve.angles) * z)
            return bool(np.all(re <= curve.support + tol))
    raise TypeError(f"not a region: {region!r}")


def radial_interval(region: Region) -> tuple[float, float] | None:
    """Nearest and farthest distance from the origin over the region's points.

    Defined for points, discs, circles and rings; ``None`` for ``Empty``.
    """
    match region:
        case Empty():
            return None
        case Point(z):
            return (abs(z), abs(z))
        case Disc(c, r):
            return (max(0.0, abs(c) - r), abs(c) + r)
        case Circle(c, r):
            return (abs(abs(c) - r), abs(c) + r)
        case Annulus(c, lo, hi):
            return (max(0.0, lo - abs(c), abs(c) - hi), abs(c) + hi)
    raise TypeError(f"no radial interval for {region!r}")


def normalize_region(region: Region) -> Region:
    """Collapse degenerate shapes: zero radii to points, flat rings to circles."""
    match region:
        case Disc(c, r) if r == 0:
            return Point(c)
        case Circle(c, r) if r == 0:
            return Point(c)
        case Annulus(c, lo, hi):
            if hi == 0:
                return Point(c)
            if lo == hi:
                return Circle(c, hi)
            if lo == 0:
                return Disc(c, hi)
            return region
        case Segment(a, b) if a == b:
            return Point(a)
        case Ellipse(f1, f2, major):
            if major == 0:
                return Point(f1)
            if f1 == f2:
                return normalize_region(Disc(f1, major / 2.0))
            if major == abs(f1 - f2):
                return Segment(f1, f2)
            return region
        case _:
            return region


def _same_grid(angles: np.ndarray, grid: np.ndarray) -> bool:
    return angles.shape == grid.shape and np.allclose(angles, grid, rtol=0.0, atol=1e-12)


def support_gap(a: BoundaryCurve, b: BoundaryCurve) -> float:
    """Largest excess of a's support over b's on their shared angle grid.

    Nonpositive means the set behind ``a`` is contained in the one behind
    ``b``.  Raises when the grids differ.
    """
    if not _same_grid(a.angles, b.angles):
        raise ValueError("curves must share one angle grid")
    return float(np.max(a.support - b.support))


def rebuild_support(curve: BoundaryCurve) -> np.ndarray:
    """Support values recomputed from the stored boundary points alone."""
    return curve_from_points(curve.points, curve.angles).support


def convexity_defect(curve: BoundaryCurve) -> float:
    """Distance between the stored support and the hull of the stored points."""
    return float(np.max(np.abs(rebuild_support(curve) - curve.support)))


def curve_from_points(points, angles) -> BoundaryCurve:
    """Support curve of the convex hull of a finite point set."""
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    grid = np.asarray(angles, dtype=float)
    re = np.real(np.exp(-1j * grid)[:, None] * pts[None, :])
    idx = np.argmax(re, axis=1)
    return BoundaryCurve(grid, re[np.arange(len(grid)), idx], pts[idx])


def region_support_curve(region: Region, angles) -> BoundaryCurve:
    """Analytic support curve of a convex region on the given grid."""
    grid = np.asarray(angles, dtype=float)
    match region:
        case Point(p):
            return curve_from_points([p], grid)
        case Segment(a, b):
            return curve_from_points([a, b], grid)
        case Disc(c, r) | Circle(c, r):
            support = np.real(np.exp(-1j * grid) * c) + r
            points = c + r * np.exp(1j * grid)
            return BoundaryCurve(grid, support, points)
        case Ellipse() as ellipse:
            centre, half_major, half_minor, axis = ellipse.axes()
            psi = grid - axis
            h = np.sqrt((half_major * np.cos(psi)) ** 2 + (half_minor * np.sin(psi)) ** 2)
            support = np.real(np.exp(-1j * grid) * centre) + h
            safe = np.where(h == 0, 1.0, h)
            local = (half_major**2 * np.cos(psi) + 1j * half_minor**2 * np.sin(psi)) / safe
            points = centre + np.exp(1j * axis) * local
            return BoundaryCurve(grid, support, points)
        case ConvexBoundary(curve):
            if _same_grid(curve.angles, grid):
                return curve
            return curve_from_points(curve.points, grid)
        case _:
            raise ValueError(f"no support curve for {type(region).__name__}")


def axis_intervals(curve: BoundaryCurve) -> tuple[tuple[float, float], tuple[float, float]]:
    """Real and imaginary projection intervals, read at the four axis angles.

    Requires the angle count to be a multiple of four so the grid contains
    0, pi/2, pi and 3*pi/2 exactly.
    """
    n = len(curve.angles)
    if n % 4:
        raise ValueError("angle count must be a multiple of four")
    re = (-float(curve.support[n // 2]), float(curve.support[0]))
    im = (-float(curve.support[3 * n // 4]), float(curve.support[n // 4]))
    return re, im
