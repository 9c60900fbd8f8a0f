"""Matrix and region file formats shared by the command line and tests.

Matrix files are either JSON objects ``{"rows": m, "cols": n, "data":
[[re, im], ...]}`` with row-major entries, or CSV whose header line carries
the two dimensions followed by complex literals like ``6+1i`` or ``-3-6i``.
Region files are JSON with a ``kind`` tag, a payload per kind, and a ``meta``
object; floats round-trip losslessly (shortest-repr, 17 significant digits).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .geometry import (
    Annulus,
    BoundaryCurve,
    Circle,
    ConvexBoundary,
    Disc,
    Ellipse,
    Empty,
    Point,
    Region,
    Segment,
)

__all__ = [
    "MatrixParseError",
    "load_matrix",
    "load_region",
    "parse_complex",
    "region_from_payload",
    "region_to_payload",
    "save_matrix_json",
    "save_region",
]


class MatrixParseError(ValueError):
    """A matrix file could not be parsed."""


_COMPLEX = re.compile(
    r"""^\s*
    (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
    (?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
    (?P<unit>i)?
    \s*$""",
    re.VERBOSE,
)


def parse_complex(token: str) -> complex:
    """Parse a literal like ``3``, ``4i``, ``6+1i``, ``-3-6i`` or ``-i``."""
    text = "".join(token.split())
    if not text:
        raise MatrixParseError("empty complex literal")
    match = _COMPLEX.match(text)
    if not match or (match.group("re") is None and match.group("unit") is None):
        raise MatrixParseError(f"bad complex literal: {token!r}")
    re_part, im_part, unit = match.group("re"), match.group("im"), match.group("unit")
    if unit is None:
        if im_part is not None:
            raise MatrixParseError(f"bad complex literal: {token!r}")
        return complex(float(re_part), 0.0)
    if im_part is None:
        # the whole numeric part belongs to the imaginary unit
        if re_part is None:
            return complex(0.0, 1.0)
        return complex(0.0, float(re_part))
    imag = 1.0 if im_part in "+-" else float(im_part)
    if im_part.startswith("-") and im_part in "+-":
        imag = -1.0
    return complex(float(re_part) if re_part else 0.0, imag)


def _matrix_from_json(payload: dict) -> np.ndarray:
    try:
        rows, cols = int(payload["rows"]), int(payload["cols"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixParseError(f"matrix JSON needs rows/cols/data: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MatrixParseError("rows and cols must be positive")
    if len(data) != rows * cols:
        raise MatrixParseError(f"expected {rows * cols} entries, got {len(data)}")
    try:
        flat = [complex(float(re_im[0]), float(re_im[1])) for re_im in data]
    except (TypeError, ValueError, IndexError) as exc:
        raise MatrixParseError(f"entries must be [re, im] pairs: {exc}") from exc
    arr = np.array(flat, dtype=complex).reshape(rows, cols)
    if not np.isfinite(arr).all():
        raise MatrixParseError("matrix entries must be finite")
    return arr


def _matrix_from_csv(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixParseError("empty matrix file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise MatrixParseError("CSV header must be 'rows,cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixParseError(f"bad CSV header: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MatrixParseError("rows and cols must be positive")
    tokens = [tok for line in lines[1:] for tok in line.split(",") if tok.strip()]
    if len(tokens) != rows * cols:
        raise MatrixParseError(f"expected {rows * cols} entries, got {len(tokens)}")
    arr = np.array([parse_complex(tok) for tok in tokens], dtype=complex)
    arr = arr.reshape(rows, cols)
    if not np.isfinite(arr).all():
        raise MatrixParseError("matrix entries must be finite")
    return arr


def load_matrix(path) -> np.ndarray:
    """Load a matrix file, sniffing JSON versus CSV from the content."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"{path}: bad JSON: {exc}") from exc
        return _matrix_from_json(payload)
    return _matrix_from_csv(text)


def save_matrix_json(path, a) -> None:
    arr = np.asarray(a, dtype=complex)
    payload = {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": [[float(v.real), float(v.imag)] for v in arr.ravel()],
    }
    Path(path).write_text(json.dumps(payload))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def region_to_payload(region: Region, meta: dict) -> dict:
    """Serializable dict for a region plus its metadata block."""
    match region:
        case Empty():
            body = {"kind": "empty"}
        case Point(z):
            body = {"kind": "point", "point": _pair(z)}
        case Segment(a, b):
            body = {"kind": "segment", "start": _pair(a), "end": _pair(b)}
        case Disc(c, r):
            body = {"kind": "disc", "center": _pair(c), "radius": float(r)}
        case Circle(c, r):
            body = {"kind": "circle", "center": _pair(c), "radius": float(r)}
        case Annulus(c, lo, hi):
            body = {"kind": "annulus", "center": _pair(c), "inner": float(lo), "outer": float(hi)}
        case Ellipse(f1, f2, major):
            body = {
                "kind": "ellipse",
                "focus1": _pair(f1),
                "focus2": _pair(f2),
                "major_axis_length": float(major),
            }
        case ConvexBoundary(curve):
            body = {
                "kind": "boundary",
                "angles": curve.angles.tolist(),
                "support": curve.support.tolist(),
                "points": np.column_stack([curve.points.real, curve.points.imag]).tolist(),
            }
        case _:
            raise TypeError(f"not a region: {region!r}")
    body["meta"] = meta
    return body


def region_from_payload(payload: dict) -> tuple[Region, dict]:
    """Inverse of :func:`region_to_payload`."""
    kind = payload.get("kind")
    meta = payload.get("meta", {})

    def cplx(key):
        re_im = payload[key]
        return complex(float(re_im[0]), float(re_im[1]))

    if kind == "empty":
        return Empty(), meta
    if kind == "point":
        return Point(cplx("point")), meta
    if kind == "segment":
        return Segment(cplx("start"), cplx("end")), meta
    if kind == "disc":
        return Disc(cplx("center"), float(payload["radius"])), meta
    if kind == "circle":
        return Circle(cplx("center"), float(payload["radius"])), meta
    if kind == "annulus":
        return Annulus(cplx("center"), float(payload["inner"]), float(payload["outer"])), meta
    if kind == "ellipse":
        return (
            Ellipse(cplx("focus1"), cplx("focus2"), float(payload["major_axis_length"])),
            meta,
        )
    if kind == "boundary":
        re_parts, im_parts = zip(*payload["points"])
        # filled part by part: re + 1j*im would turn the sign of a zero
        points = np.empty(len(re_parts), dtype=complex)
        points.real, points.imag = re_parts, im_parts
        curve = BoundaryCurve(
            np.array(payload["angles"], dtype=float),
            np.array(payload["support"], dtype=float),
            points,
        )
        return ConvexBoundary(curve), meta
    raise ValueError(f"unknown region kind: {kind!r}")


def save_region(path, region: Region, meta: dict) -> None:
    Path(path).write_text(json.dumps(region_to_payload(region, meta)))


def load_region(path) -> tuple[Region, dict]:
    return region_from_payload(json.loads(Path(path).read_text()))
