"""Matrix and region file formats shared by the command line and tests.

Matrix files are either JSON objects ``{"rows": m, "cols": n, "data":
[[re, im], ...]}`` with row-major entries, each a pair of JSON numbers (not
booleans), or CSV whose header line carries
the two dimensions followed by complex literals like ``6+1i`` or ``-3-6i``.
Region files are JSON with a ``kind`` tag, a payload per kind, and a ``meta``
object; floats round-trip losslessly (shortest-repr, 17 significant digits).
One table, ``_KINDS``, maps each tag to its region dataclass and the payload
keys of its fields in field order; a field annotated ``complex`` is written
as an ``[re, im]`` pair and every other field as a float.  Only ``boundary``
(a sampled ``ConvexBoundary``) has its own layout: ``angles``, a ``support``
list and a list of ``[re, im]`` points.  ``angles`` is the count N when the
grid is ``default_angles(N)`` byte for byte, which the reader rebuilds, and
the list of angles for any other grid.
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
    default_angles,
)
from .linalg import as_matrix, require_ints

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
    (?P<im>[+-](?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?)?
    (?P<unit>i)?
    \s*$""",
    re.VERBOSE,
)


def parse_complex(token: str) -> complex:
    """Parse a literal like ``3``, ``4i``, ``6+1i``, ``-3-6i`` or ``-i``.

    ``_COMPLEX`` is the grammar: an exponent needs a mantissa before it.
    """
    text = "".join(token.split())
    if not text:
        raise MatrixParseError("empty complex literal")
    match = _COMPLEX.match(text)
    # an imaginary part needs the unit; a literal needs a number or the unit
    if not match or (match["im"] and not match["unit"]) or not (match["re"] or match["unit"]):
        raise MatrixParseError(f"bad complex literal: {token!r}")
    return complex(text.replace("i", "j"))


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
    for index, entry in enumerate(data):
        # type(), not isinstance(): JSON true and false load as bools, which are ints
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) in (int, float) and type(entry[1]) in (int, float)):
            raise MatrixParseError(f"entry {index} must be an [re, im] pair of numbers")
    try:
        flat = [complex(re_part, im_part) for re_part, im_part in data]
    except OverflowError as exc:  # an integer literal beyond the float range
        raise MatrixParseError("matrix entries must be finite") from exc
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
    """Load a matrix file, sniffing JSON versus CSV from the content.

    Every decoding failure is a MatrixParseError: bytes that are not UTF-8,
    bad JSON, an integer past Python's digit limit, nesting too deep to parse.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text) if text.lstrip().startswith("{") else None
    except (ValueError, RecursionError) as exc:  # ValueError: UnicodeDecodeError too
        raise MatrixParseError(f"{path}: bad matrix file: {exc}") from exc
    return _matrix_from_csv(text) if payload is None else _matrix_from_json(payload)


def save_matrix_json(path, a) -> None:
    """Write ``linalg.as_matrix(a)`` in the JSON layout; ValueError, and no file, for
    input that is not a finite matrix or vector (a vector is written as a column)."""
    arr = as_matrix(a)
    data = [[float(v.real), float(v.imag)] for v in arr.ravel()]
    payload = {"rows": arr.shape[0], "cols": arr.shape[1], "data": data}
    Path(path).write_text(json.dumps(payload, allow_nan=False))


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
        n = len(curve.angles)
        # bytes, not values: a grid from -0.0, or one an ulp off, keeps its list
        default = curve.angles.tobytes() == default_angles(n).tobytes()
        body = {
            "kind": "boundary",
            "angles": n if default else curve.angles.tolist(),
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


def _required(payload: dict, kind: str, key: str):
    try:
        return payload[key]
    except KeyError:
        raise ValueError(f"{kind} region has no {key!r}") from None


def _is_pair(entry) -> bool:
    try:
        return np.array(entry, dtype=float).shape == (2,)
    except (TypeError, ValueError):
        return False


def _points(pairs) -> np.ndarray:
    """A boundary's ``[re, im]`` points as complex; ValueError naming the first bad one."""
    try:
        xy = np.array(pairs, dtype=float)
    except (TypeError, ValueError):
        xy = None
    if xy is None or xy.ndim != 2 or xy.shape[1] != 2:
        entries = pairs if isinstance(pairs, list) else []
        index = next((i for i, entry in enumerate(entries) if not _is_pair(entry)), None)
        if index is None:
            raise ValueError("boundary points must be a list of [re, im] pairs of numbers")
        raise ValueError(f"boundary point {index} must be an [re, im] pair of numbers")
    # the pairs' bits as they are: re + 1j*im would turn the sign of a zero
    return xy.view(complex)[:, 0]


def _numbers(value, key: str) -> np.ndarray:
    """A boundary's list of numbers as an array; ValueError naming ``key`` otherwise."""
    try:
        arr = np.array(value) if isinstance(value, list) else None
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValueError(f"boundary region's {key!r} must be a list of numbers")
    return arr


def _number(value, kind: str, key: str, pair: bool):
    try:
        if not pair:
            return float(value)
        if isinstance(value, list) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError):
        pass
    want = "an [re, im] pair of numbers" if pair else "a number"
    raise ValueError(f"{kind} region's {key!r} must be {want}")


def region_from_payload(payload: dict) -> tuple[Region, dict]:
    """Inverse of :func:`region_to_payload`.

    ValueError for a payload that is not an object, an unknown ``kind``, a
    missing key, or an entry of the wrong shape or type, naming the key or the
    entry.  A boundary's ``angles`` is a list, or a count N of at least 2 that
    matches ``support`` and stands for ``default_angles(N)``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a region payload is a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    meta = payload.get("meta", {})
    if kind == "boundary":
        angles, support, pairs = (_required(payload, kind, key)
                                  for key in ("angles", "support", "points"))
        support = _numbers(support, "support")
        if type(angles) is not int:  # not a bool either
            angles = _numbers(angles, "angles")
        elif angles < 2 or angles != len(support):
            raise ValueError(f"boundary region's 'angles' count {angles} does not fit its support")
        else:
            angles = default_angles(angles)
        return ConvexBoundary(BoundaryCurve(angles, support, _points(pairs))), meta
    try:
        cls, keys = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValueError(f"unknown region kind: {kind!r}") from None
    values = [
        _number(_required(payload, kind, key), kind, key, field.type == "complex")
        for key, field in zip(keys, fields(cls))
    ]
    return cls(*values), meta


def save_region(path, region: Region, meta: dict) -> None:
    """Write a region file; ValueError, and no file, when a float is not finite."""
    Path(path).write_text(json.dumps(region_to_payload(region, meta), allow_nan=False))


def load_region(path) -> tuple[Region, dict]:
    """Read a region file; every decoding failure is a ValueError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return region_from_payload(payload)
