"""Matrix and region file formats shared by the command line and tests.

Matrix files are either JSON objects ``{"rows": m, "cols": n, "data":
[[re, im], ...]}`` with row-major entries, or CSV whose header line carries
the two dimensions followed by complex literals like ``6+1i`` or ``-3-6i``.
Region files are JSON with a ``kind`` tag, a payload per kind, and a ``meta``
object; floats round-trip losslessly (shortest-repr, 17 significant digits).
One table, ``_KINDS``, maps each tag to its region dataclass and the payload
keys of its fields in field order; a field annotated ``complex`` is written
as an ``[re, im]`` pair and every other field as a float.  Only ``boundary``
(a sampled ``ConvexBoundary``) has its own layout: ``angles`` and ``support``
lists and a list of ``[re, im]`` points.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
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
from .linalg import require_ints

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
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    except KeyError as exc:
        raise MatrixParseError(f"matrix JSON needs rows/cols/data: {exc}") from exc
    try:
        require_ints(1, rows=rows, cols=cols)
    except (TypeError, ValueError) as exc:
        raise MatrixParseError(f"bad matrix JSON header: {exc}") from exc
    if not isinstance(data, list):
        raise MatrixParseError("matrix JSON data must be a list of [re, im] pairs")
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


# kind tag -> (dataclass, payload keys in field order)
_KINDS = {
    "empty": (Empty, ()),
    "point": (Point, ("point",)),
    "segment": (Segment, ("start", "end")),
    "disc": (Disc, ("center", "radius")),
    "circle": (Circle, ("center", "radius")),
    "annulus": (Annulus, ("center", "inner", "outer")),
    "ellipse": (Ellipse, ("focus1", "focus2", "major_axis_length")),
}
_TAGS = {cls: kind for kind, (cls, _) in _KINDS.items()}


def region_to_payload(region: Region, meta: dict) -> dict:
    """Serializable dict for a region plus its metadata block."""
    if isinstance(region, ConvexBoundary):
        curve = region.curve
        body = {
            "kind": "boundary",
            "angles": curve.angles.tolist(),
            "support": curve.support.tolist(),
            "points": np.column_stack([curve.points.real, curve.points.imag]).tolist(),
        }
    elif type(region) in _TAGS:
        kind = _TAGS[type(region)]
        body = {"kind": kind}
        for key, field in zip(_KINDS[kind][1], fields(region)):
            value = getattr(region, field.name)
            pair = field.type == "complex"  # annotations are postponed, so strings
            body[key] = [float(value.real), float(value.imag)] if pair else float(value)
    else:
        raise TypeError(f"not a region: {region!r}")
    body["meta"] = meta
    return body


def region_from_payload(payload: dict) -> tuple[Region, dict]:
    """Inverse of :func:`region_to_payload`."""
    kind = payload.get("kind")
    meta = payload.get("meta", {})
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
    try:
        cls, keys = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValueError(f"unknown region kind: {kind!r}") from None
    values = [
        complex(float(payload[key][0]), float(payload[key][1]))
        if field.type == "complex" else float(payload[key])
        for key, field in zip(keys, fields(cls))
    ]
    return cls(*values), meta


def save_region(path, region: Region, meta: dict) -> None:
    """Write a region file; ValueError, and no file, when a float is not finite."""
    Path(path).write_text(json.dumps(region_to_payload(region, meta), allow_nan=False))


def load_region(path) -> tuple[Region, dict]:
    return region_from_payload(json.loads(Path(path).read_text()))
