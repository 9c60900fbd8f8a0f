"""Minimal deterministic SVG emission for regions; no plotting dependency.

Fixed 800x800 viewbox with axes scaled to 1.1 times the outer radius; every
coordinate is formatted with six decimals so identical inputs give identical
bytes.  Coordinates are first scaled as ``linalg.pow2_scaled`` scales the
outer radius, which is exact: a figure and the same figure scaled by any
power of two draw the same bytes, down to subnormal radii.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    Annulus,
    Circle,
    ConvexBoundary,
    Disc,
    Ellipse,
    Empty,
    Point,
    Region,
    Segment,
)
from .linalg import pow2_scaled, times_pow2

__all__ = ["render_regions"]

_SIZE = 800.0
_HALF = _SIZE / 2.0


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


class _Canvas:
    def __init__(self, outer_radius: float):
        # a zero radius (the zero matrix) draws at unit radius
        radius, self.e = pow2_scaled(outer_radius)
        self.reach = 1.1 * (float(radius) or 1.0)
        self.scale = _HALF / self.reach
        self.parts: list[str] = []

    def px(self, z):  # one complex number, or an array of them
        return (_HALF + times_pow2(z.real, -self.e) * self.scale,
                _HALF - times_pow2(z.imag, -self.e) * self.scale)

    def axes(self, style: str) -> None:
        lo, hi = _HALF - self.reach * self.scale, _HALF + self.reach * self.scale
        self.line((lo, _HALF), (hi, _HALF), style)
        self.line((_HALF, hi), (_HALF, lo), style)

    def line(self, start, end, style: str) -> None:  # pixel coordinates
        (xa, ya), (xb, yb) = start, end
        self.parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" {style}/>'
        )

    def circle(self, centre: complex, radius: float, style: str) -> None:
        cx, cy = self.px(centre)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(times_pow2(radius, -self.e) * self.scale)}" '
            f'fill="none" {style}/>'
        )

    def polyline(self, zs, style: str) -> None:
        """Closed outline through the points, drawn as an SVG polygon."""
        zs = np.asarray(zs, dtype=complex)
        xy = np.column_stack(self.px(zs))
        # _fmt's digits; at six decimals only a whole token reads "-0.000000"
        coords = (" ".join(["%.6f,%.6f"] * len(xy)) % tuple(xy.ravel().tolist())
                  ).replace("-0.000000", "0.000000")
        self.parts.append(f'<polygon points="{coords}" fill="none" {style}/>')

    def marker(self, z: complex, style: str, size: float = 6.0) -> None:
        x, y = self.px(z)
        self.parts.append(
            f'<path d="M {_fmt(x - size)} {_fmt(y)} L {_fmt(x + size)} {_fmt(y)} '
            f'M {_fmt(x)} {_fmt(y - size)} L {_fmt(x)} {_fmt(y + size)}" {style}/>'
        )

    def text(self, x: float, y: float, content: str) -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="14">{content}</text>'
        )


def _ellipse_samples(region: Ellipse) -> np.ndarray:
    centre, half_major, half_minor, axis = region.axes()
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    return centre + np.exp(1j * axis) * (half_major * np.cos(t) + 1j * half_minor * np.sin(t))


def _draw_region(canvas: _Canvas, region: Region, style: str) -> None:
    match region:
        case Empty():
            pass
        case Point(z):
            canvas.marker(z, style, size=4.0)
        case Segment(a, b):
            canvas.line(canvas.px(a), canvas.px(b), style)
        case Disc(c, r) | Circle(c, r):
            canvas.circle(c, r, style)
        case Annulus(c, lo, hi):
            canvas.circle(c, hi, style)
            canvas.circle(c, lo, style)
        case Ellipse() as ell:
            canvas.polyline(_ellipse_samples(ell), style)
        case ConvexBoundary(curve):
            canvas.polyline(curve.points, style)
        case _:
            raise TypeError(f"not a region: {region!r}")


def render_regions(
    items,
    outer_radius: float,
    annotations=(),
    markers=(),
) -> str:
    """Render ``(region, style)`` pairs to an SVG document string.

    ``annotations`` are text lines placed top-left; ``markers`` are
    ``(complex, style)`` cross marks.  Output bytes depend only on the
    arguments.
    """
    canvas = _Canvas(outer_radius)
    canvas.axes('stroke="#888888" stroke-width="1"')
    for region, style in items:
        _draw_region(canvas, region, style)
    for z, style in markers:
        canvas.marker(z, style)
    for row, content in enumerate(annotations):
        canvas.text(10.0, 20.0 + 18.0 * row, content)
    body = "\n".join(canvas.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">\n'
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
