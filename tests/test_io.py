import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from nrange.fov import fov_boundary
from nrange.geometry import (
    Annulus,
    BoundaryCurve,
    Circle,
    ConvexBoundary,
    Disc,
    Ellipse,
    Empty,
    Point,
    Segment,
    default_angles,
    region_support_curve,
)
from nrange.io import (
    MatrixParseError,
    _matrix_from_json,
    load_matrix,
    load_region,
    parse_complex,
    region_from_payload,
    region_to_payload,
    save_matrix_json,
    save_region,
)
from nrange.reference import WIDE_EXAMPLE


class TestParseComplex:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("3", 3 + 0j),
            ("-4", -4 + 0j),
            ("0.5", 0.5 + 0j),
            ("6+1i", 6 + 1j),
            ("6+i", 6 + 1j),
            ("-3-6i", -3 - 6j),
            ("4i", 4j),
            ("-i", -1j),
            ("i", 1j),
            ("+2.5e-2i", 0.025j),
            ("1e3", 1000 + 0j),
            (" 2 + 3i ", 2 + 3j),
        ],
    )
    def test_accepts(self, token, expected):
        assert parse_complex(token) == pytest.approx(expected)

    @pytest.mark.parametrize("token", ["", "abc", "3+4", "i4", "1+2j3"])
    def test_rejects(self, token):
        with pytest.raises(MatrixParseError):
            parse_complex(token)


    @pytest.mark.parametrize("token", ["1+e8i", "-e7i", "+E2i", "2-e2i"])
    def test_rejects_exponent_without_mantissa(self, token):
        # each raised a bare ValueError from float(): could not convert string to float
        with pytest.raises(MatrixParseError, match="bad complex literal"):
            parse_complex(token)


_OLD_COMPLEX = re.compile(
    r"""^\s*
    (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
    (?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
    (?P<unit>i)?
    \s*$""",
    re.VERBOSE,
)


def _branchy_parse_complex(token: str) -> complex:
    """The hand-written branches that parse_complex once used, kept as its reference."""
    text = "".join(token.split())
    if not text:
        raise MatrixParseError("empty complex literal")
    match = _OLD_COMPLEX.match(text)
    if not match or (match.group("re") is None and match.group("unit") is None):
        raise MatrixParseError(f"bad complex literal: {token!r}")
    re_part, im_part, unit = match.group("re"), match.group("im"), match.group("unit")
    if unit is None:
        if im_part is not None:
            raise MatrixParseError(f"bad complex literal: {token!r}")
        return complex(float(re_part), 0.0)
    if im_part is None:
        if re_part is None:
            return complex(0.0, 1.0)
        return complex(0.0, float(re_part))
    imag = 1.0 if im_part in "+-" else float(im_part)
    if im_part.startswith("-") and im_part in "+-":
        imag = -1.0
    return complex(float(re_part) if re_part else 0.0, imag)


SIGNS = st.sampled_from(["", "+", "-"])
MANTISSAS = st.one_of(
    st.sampled_from(["0", "0.0", ".0", "0.", "00", "1", "7.", ".25"]),
    st.from_regex(r"\d{1,4}(\.\d{0,4})?|\.\d{1,4}", fullmatch=True),
)
EXPONENTS = st.one_of(st.just(""), st.from_regex(r"[eE][+-]?\d{1,3}", fullmatch=True))
NUMBERS_TEXT = st.builds(lambda m, e: m + e, MANTISSAS, EXPONENTS)
LITERALS = st.builds(
    lambda re_sign, re_num, im_sign, im_num, unit, pad: pad.join(
        [re_sign + re_num, im_sign + im_num, unit]),
    SIGNS, st.one_of(st.just(""), NUMBERS_TEXT),
    SIGNS, st.one_of(st.just(""), NUMBERS_TEXT),
    st.sampled_from(["", "i", "ii"]),
    st.sampled_from(["", " ", "\t"]),
)


def _outcome(parse, token):
    try:
        value = parse(token)
    except MatrixParseError as exc:
        return "error", str(exc)
    # repr alone does not tell every signed zero apart
    return repr(value), math.copysign(1.0, value.real), math.copysign(1.0, value.imag)


@given(LITERALS)
def test_parse_complex_matches_the_branchy_reference(token):
    assert _outcome(parse_complex, token) == _outcome(_branchy_parse_complex, token)


class TestMatrixFiles:
    def test_json_round_trip(self, tmp_path, rng):
        a = rand_complex(rng, 3, 4)
        path = tmp_path / "m.json"
        save_matrix_json(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_csv_parsing(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,3\n6+1i, 0, 0.5\n-4, -3-6i, 0\n")
        assert np.array_equal(load_matrix(path), WIDE_EXAMPLE)

    def test_csv_entries_may_wrap_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1, 2i\n3\n-1\n")
        assert np.array_equal(load_matrix(path), np.array([[1, 2j], [3, -1]]))

    def test_bad_entry_count(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1, 2\n")
        with pytest.raises(MatrixParseError, match="entries"):
            load_matrix(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(MatrixParseError):
            load_matrix(path)

    def test_json_missing_fields(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "data": []}))
        with pytest.raises(MatrixParseError):
            load_matrix(path)

    @pytest.mark.parametrize("rows, cols, data, message", [
        (1.9, True, [[2, 0]], "rows must be an integer, got float"),
        (1, True, [[2, 0]], "cols must be an integer, got bool"),
        ("1", 1, [[2, 0]], "rows must be an integer, got str"),
        (0, 1, [], "rows must be >= 1, got 0"),
        (1, -2, [[2, 0]], "cols must be >= 1, got -2"),
        (1, 1, 5, "data must be a list"),
    ])
    def test_json_header_is_checked(self, tmp_path, rows, cols, data, message):
        # {"rows": 1.9, "cols": true, ...} loaded as the 1x1 matrix [[2]],
        # and a data field that is not a list raised a bare TypeError
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}))
        with pytest.raises(MatrixParseError, match=message):
            load_matrix(path)

    @pytest.mark.parametrize("data, index", [
        ([[True, "3"], [1, 2, 99]], 0),
        ([[1, 2], [1, 2, 99]], 1),
        ([[1, 2], [False, 0]], 1),
        ([["1", 2], [1, 2]], 0),
        ([[1], [1, 2]], 0),
        ([[1, 2], 5], 1),
        ([[1, 2], {"re": 1, "im": 2}], 1),
        ([[1, 2], None], 1),
    ])
    def test_json_entries_are_pairs_of_numbers(self, tmp_path, data, index):
        # the first file loaded as [[1+3j, 1+2j]]: float() took the bool,
        # the numeric string and the first two of three numbers
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "data": data}))
        with pytest.raises(MatrixParseError, match=f"entry {index} must be an \\[re, im\\] pair"):
            load_matrix(path)

    def test_json_integer_beyond_the_float_range(self, tmp_path):
        # float() of this integer raised a bare OverflowError
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}')
        with pytest.raises(MatrixParseError, match="finite"):
            load_matrix(path)


NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6))
NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(NUMBERS, max_size=2))
ANY_PART = st.one_of(NUMBERS, NOT_NUMBERS)
MALFORMED_ENTRIES = st.one_of(
    NUMBERS,
    NOT_NUMBERS.filter(lambda entry: not isinstance(entry, list)),
    st.lists(NUMBERS, max_size=1),
    st.lists(NUMBERS, min_size=3, max_size=4),
    st.tuples(NOT_NUMBERS, ANY_PART).map(list),
    st.tuples(ANY_PART, NOT_NUMBERS).map(list),
    st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
)


@settings(max_examples=150)
@given(st.integers(1, 3), st.integers(1, 3), MALFORMED_ENTRIES, st.data())
def test_malformed_json_entry_is_refused(rows, cols, entry, data):
    index = data.draw(st.integers(0, rows * cols - 1))
    entries = [[1.5, -2]] * (rows * cols)
    entries[index] = entry
    payload = json.loads(json.dumps({"rows": rows, "cols": cols, "data": entries}))
    with pytest.raises(MatrixParseError, match=f"entry {index} must be"):
        _matrix_from_json(payload)


REGIONS = [
    Empty(),
    Point(1.25 - 0.5j),
    Segment(0j, 2 + 1j),
    Disc(0.1 + 0.2j, 1.75),
    Circle(0j, np.pi),
    Annulus(0j, 0.5, 2.5),
    Ellipse(0j, 3 + 0j, 5.0),
    ConvexBoundary(region_support_curve(Disc(0j, 2.0), default_angles(16))),
]

REGION_TEXTS = {
    "Empty": '{"kind": "empty", "meta": {"set": "w"}}',
    "Point": '{"kind": "point", "point": [1.25, -0.5], "meta": {"set": "w"}}',
    "Segment": '{"kind": "segment", "start": [0.0, 0.0], "end": [2.0, 1.0], "meta": {"set": "w"}}',
    "Disc": '{"kind": "disc", "center": [0.1, 0.2], "radius": 1.75, "meta": {"set": "w"}}',
    "Circle": '{"kind": "circle", "center": [0.0, 0.0], "radius": 3.141592653589793, '
              '"meta": {"set": "w"}}',
    "Annulus": '{"kind": "annulus", "center": [0.0, 0.0], "inner": 0.5, "outer": 2.5, '
               '"meta": {"set": "w"}}',
    "Ellipse": '{"kind": "ellipse", "focus1": [0.0, 0.0], "focus2": [3.0, 0.0], '
               '"major_axis_length": 5.0, "meta": {"set": "w"}}',
}


class TestRegionFiles:
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: type(r).__name__)
    def test_round_trip_lossless(self, tmp_path, region):
        meta = {"set": "w", "sigma": [2.0, 1.0 / 3.0], "tool_version": "0.1.0"}
        path = tmp_path / "r.json"
        save_region(path, region, meta)
        loaded, loaded_meta = load_region(path)
        assert loaded_meta == meta
        if isinstance(region, ConvexBoundary):
            assert np.array_equal(loaded.curve.angles, region.curve.angles)
            assert np.array_equal(loaded.curve.support, region.curve.support)
            assert np.array_equal(loaded.curve.points, region.curve.points)
        else:
            assert loaded == region

    @pytest.mark.parametrize("region", [Disc(0j, np.inf), Point(complex(np.nan, 0.0))],
                             ids=["inf", "nan"])
    def test_non_finite_region_writes_no_file(self, tmp_path, region):
        # "radius": Infinity is not JSON (RFC 8259)
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_region(path, region, {"set": "w"})
        assert not path.exists()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            region_from_payload({"kind": "blob"})

    @pytest.mark.parametrize("kind", [None, ["disc"], {"kind": "disc"}])
    def test_missing_or_unhashable_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="kind"):
            region_from_payload({"kind": kind})

    @pytest.mark.parametrize("region", REGIONS[:-1], ids=lambda r: type(r).__name__)
    def test_exact_text_per_kind(self, region):
        # key order and float text are the file format
        text = json.dumps(region_to_payload(region, {"set": "w"}))
        assert text == REGION_TEXTS[type(region).__name__]
        assert region_from_payload(json.loads(text)) == (region, {"set": "w"})

    def test_payload_17_digit_floats(self):
        region = Disc(0j, 1.0 / 3.0)
        payload = region_to_payload(region, {})
        text = json.dumps(payload)
        assert json.loads(text)["radius"] == 1.0 / 3.0


def test_boundary_curve_round_trip_preserves_exact_floats(tmp_path):
    angles = default_angles(8)
    support = np.array([1 / 3, 1 / 7, 0.1, 2 / 3, 1, 1, 1, 1])
    points = np.exp(1j * angles) * (1 / 9)
    curve = BoundaryCurve(angles, support, points)
    path = tmp_path / "b.json"
    save_region(path, ConvexBoundary(curve), {})
    loaded, _ = load_region(path)
    assert np.array_equal(loaded.curve.support, support)
    assert np.array_equal(loaded.curve.points, points)


def test_boundary_bytes_match_per_element_encoding(tmp_path, rng):
    curve = fov_boundary(rand_complex(rng, 5, 5), 720)
    # signed zeros must survive both ways
    points = curve.points.copy()
    points[:4] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]
    support = curve.support.copy()
    support[:2] = [-0.0, 0.0]
    curve = BoundaryCurve(curve.angles, support, points)
    meta = {"set": "fov"}
    path = tmp_path / "b.json"
    save_region(path, ConvexBoundary(curve), meta)
    expected = {
        "kind": "boundary",
        "angles": [float(t) for t in curve.angles],
        "support": [float(p) for p in curve.support],
        "points": [[float(z.real), float(z.imag)] for z in curve.points],
        "meta": meta,
    }
    assert path.read_text() == json.dumps(expected)
    loaded, _ = load_region(path)
    for got, want in [(loaded.curve.support, support), (loaded.curve.points.real, points.real),
                      (loaded.curve.points.imag, points.imag)]:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
