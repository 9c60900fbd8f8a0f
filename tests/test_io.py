import base64
import json
import math
import re
import struct

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

    @pytest.mark.parametrize("content, message", [
        (b'{"rows": 1, "cols": 1, "data": [[1, 0]]} \xff\xfe', "can't decode byte 0xff"),
        (b"1,1\n\xe9\n", "can't decode byte 0xe9"),
        (b'{"rows": 1, "cols": 1, "data": [[1' + b"0" * 5000 + b', 0]]}', "4300 digits"),
        (b'{"a":' * 100_000 + b"1" + b"}" * 100_000, "recursion"),
    ], ids=["json-not-utf8", "csv-not-utf8", "5000-digits", "nested-100000-deep"])
    def test_undecodable_file(self, tmp_path, content, message):
        # a UnicodeDecodeError and the digit limit's ValueError were not MatrixParseErrors,
        # and the nesting raised RecursionError
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(MatrixParseError, match=message):
            load_matrix(path)

    def test_save_writes_a_vector_as_a_column(self, tmp_path):
        # a 1-d input raised IndexError
        path = tmp_path / "v.json"
        save_matrix_json(path, [1, 2j, -3])
        assert json.loads(path.read_text())["rows"] == 3
        assert np.array_equal(load_matrix(path), np.array([[1], [2j], [-3]]))

    @pytest.mark.parametrize("a, message", [
        ([[1.0, np.nan]], "finite"), ([[np.inf]], "finite"), ([[complex(0, -np.inf)]], "finite"),
        ([[[1.0]]], "shape"), ([], "shape"),
    ], ids=["nan", "inf", "imag-inf", "3-d", "empty"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, a, message):
        # NaN and Infinity were written, which load_matrix refuses; [[[1]]] was written as 1x1
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=message):
            save_matrix_json(path, a)
        assert not path.exists()


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
    def test_exact_text_per_kind(self, tmp_path, region):
        # key order and float text are the file format
        text = json.dumps(region_to_payload(region, {"set": "w"}))
        assert text == REGION_TEXTS[type(region).__name__]
        assert region_from_payload(json.loads(text)) == (region, {"set": "w"})
        path = tmp_path / "r.json"
        save_region(path, region, {"set": "w"})
        assert path.read_text() == text

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


def _b64(arr, dtype):
    return base64.b64encode(np.asarray(arr).astype(dtype).tobytes()).decode("ascii")


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
    # the points' bytes, packed element by element as little-endian doubles
    points_bytes = b"".join(struct.pack("<dd", z.real, z.imag) for z in curve.points)
    expected = {
        "kind": "boundary",
        "angles": 720,
        "support": [float(p) for p in curve.support],
        "points": base64.b64encode(points_bytes).decode("ascii"),
        "meta": meta,
    }
    assert path.read_text() == json.dumps(expected)
    loaded, _ = load_region(path)
    for got, want in [(loaded.curve.support, support), (loaded.curve.points.real, points.real),
                      (loaded.curve.points.imag, points.imag)]:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _boundary(angles, radius=2.0):
    return ConvexBoundary(region_support_curve(Disc(0.5 - 0.25j, radius), angles))


def _written(tmp_path, region, meta):
    path = tmp_path / "r.json"
    save_region(path, region, meta)
    return path.read_text()


def _bits(curve):
    return [array.tobytes() for array in (curve.angles, curve.support, curve.points)]


class TestAngleGridReuse:
    """A default_angles(N) grid is written as its count N and rebuilt, bit for bit, on
    loading; any other grid, by its bytes, is written out as base64 text."""

    @pytest.mark.parametrize("n", [8, 721])
    def test_exact_text_of_a_default_grid(self, tmp_path, n):
        curve = region_support_curve(Disc(0j, 2.0), default_angles(n))
        support, points = json.dumps(curve.support.tolist()), _b64(curve.points, "<c16")
        text = _written(tmp_path, ConvexBoundary(curve), {"set": "fov"})
        assert text == (f'{{"kind": "boundary", "angles": {n}, "support": {support}, '
                        f'"points": "{points}", "meta": {{"set": "fov"}}}}')
        assert _bits(load_region(tmp_path / "r.json")[0].curve) == _bits(curve)

    def test_grid_that_is_not_the_default(self, tmp_path, rng):
        angles = np.sort(rng.uniform(0.01, 6.0, 50))
        zero_first = angles.copy()
        zero_first[0] = -0.0
        # one ulp off in a single angle is not the default grid
        ulp_off = default_angles(720)
        ulp_off[300] = np.nextafter(ulp_off[300], 4.0)
        for grid in (angles, zero_first, ulp_off):
            region = _boundary(grid)
            text = _written(tmp_path, region, {"set": "wl"})
            assert json.loads(text)["angles"] == _b64(grid, "<f8")
            assert _bits(load_region(tmp_path / "r.json")[0].curve) == _bits(region.curve)
        # -0.0 and 0.0 are two grids: the sign is the top bit of the eighth byte
        zero = zero_first.copy()
        zero[0] = 0.0
        texts = [_written(tmp_path, _boundary(grid), {}) for grid in (zero_first, zero)]
        assert texts[0].startswith('{"kind": "boundary", "angles": "AAAAAAAAAI')
        assert texts[1].startswith('{"kind": "boundary", "angles": "AAAAAAAAAA')

    @pytest.mark.parametrize("n", [8, 720])
    def test_file_listing_a_default_grid_loads_the_same_curve(self, tmp_path, n):
        # files written before the count form list every angle
        region = _boundary(default_angles(n))
        payload = _listed(region, {"set": "fov"})
        assert payload["angles"] == n
        payload["angles"] = [float(t) for t in region.curve.angles]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert _bits(load_region(path)[0].curve) == _bits(region.curve)

    @pytest.mark.parametrize("angles, meta", [
        (default_angles(720), {"set": "fov", "sigma": [np.inf, 1.0]}),
        (default_angles(8), {"set": "fov", "sigma": [1.0, np.nan]}),
        (np.array([0.0, 1.0, np.inf]), {"set": "fov"}),
    ], ids=["meta-inf", "meta-nan", "angles-inf"])
    def test_non_finite_boundary_writes_no_file(self, tmp_path, angles, meta):
        ones = np.ones(len(angles))
        region = ConvexBoundary(BoundaryCurve(angles, ones, ones + 0j))
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_region(path, region, meta)
        assert not path.exists()


def _listed(region, meta):
    """The boundary payload in the list layout that files written before the base64
    form use: numbers, and [re, im] pairs for the points."""
    curve = region.curve
    payload = region_to_payload(region, meta)
    if type(payload["angles"]) is not int:
        payload["angles"] = curve.angles.tolist()
    payload["support"] = curve.support.tolist()
    payload["points"] = np.column_stack([curve.points.real, curve.points.imag]).tolist()
    return payload


class TestBoundaryEncoding:
    """The written layout, read with json, base64 and numpy alone, and the list layout
    of earlier files, read by the loader."""

    def test_file_decodes_by_its_spec(self, tmp_path, rng):
        curve = fov_boundary(rand_complex(rng, 5, 5), 720)
        meta = {"set": "fov", "sigma": [2.0, 1.0], "tool_version": "0.1.0"}
        path = tmp_path / "fov.json"
        save_region(path, ConvexBoundary(curve), meta)
        payload = json.loads(path.read_text())
        assert list(payload) == ["kind", "angles", "support", "points", "meta"]
        assert payload["angles"] == 720 and payload["meta"] == meta
        angles = np.linspace(0.0, 2.0 * np.pi, payload["angles"], endpoint=False)
        support = np.array(payload["support"], "<f8")
        points = np.frombuffer(base64.b64decode(payload["points"]), "<c16")
        # <c16 is re0, im0, re1, im1, ... as little-endian doubles
        xy = np.frombuffer(base64.b64decode(payload["points"]), "<f8").reshape(-1, 2)
        assert _bits(BoundaryCurve(angles, support, points)) == _bits(curve)
        assert xy[:, 0].tobytes() == curve.points.real.tobytes()
        assert xy[:, 1].tobytes() == curve.points.imag.tobytes()

    def test_text_in_the_list_layout_loads_bit_for_bit(self, tmp_path):
        text = ('{"kind": "boundary", "angles": [-0.0, 1.5, 3.0], "support": [1.0, -0.0, 5e-324], '
                '"points": [[1.0, -0.0], [-0.0, 2.5], [1.7e+308, -2.2250738585072014e-308]], '
                '"meta": {"set": "wl"}}')
        path = tmp_path / "r.json"
        path.write_text(text)
        loaded, meta = load_region(path)
        xy = np.array([[1.0, -0.0], [-0.0, 2.5], [1.7e308, -2.2250738585072014e-308]])
        expected = BoundaryCurve(np.array([-0.0, 1.5, 3.0]), np.array([1.0, -0.0, 5e-324]),
                                 xy.view(complex)[:, 0])
        assert _bits(loaded.curve) == _bits(expected) and meta == {"set": "wl"}

    @pytest.mark.parametrize("grid", ["default", "listed"])
    def test_list_layout_of_a_sweep_loads_bit_for_bit(self, tmp_path, rng, grid):
        angles = default_angles(720) if grid == "default" else np.sort(rng.uniform(0, 6, 90))
        region = _boundary(angles)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(_listed(region, {"set": "wl"})))
        assert _bits(load_region(path)[0].curve) == _bits(region.curve)


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  -2.2250738585072014e-308, 1.7e308, -1.7e308])
FINITE_FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _grids(draw):
    n = draw(st.integers(2, 40))
    grid = default_angles(n)
    kind = draw(st.sampled_from(["default", "zero-first", "ulp-off", "any"]))
    if kind == "zero-first":
        grid[0] = -0.0
    elif kind == "ulp-off":
        j = draw(st.integers(1, n - 1))
        grid[j] = np.nextafter(grid[j], -1.0 if draw(st.booleans()) else 7.0)
    elif kind == "any":
        # angle-sized values: BoundaryCurve's ascending test warns on overflow when
        # neighbours lie more than the float range apart
        small = st.one_of(SPECIAL_FLOATS.filter(lambda t: abs(t) < 1.0), st.floats(-7.0, 7.0))
        grid = np.unique(draw(st.lists(small, min_size=2, max_size=40)))
        if len(grid) < 2:
            grid = np.array([-0.0, 5e-324])
    return grid


@settings(max_examples=120, deadline=None)
@given(_grids(), st.data())
def test_round_trip_is_bit_for_bit(tmp_path_factory, angles, data):
    n = len(angles)
    default = angles.tobytes() == default_angles(n).tobytes()
    support = np.array(data.draw(st.lists(FINITE_FLOATS, min_size=n, max_size=n)))
    xy = np.array(data.draw(st.lists(FINITE_FLOATS, min_size=2 * n, max_size=2 * n)))
    curve = BoundaryCurve(angles, support, xy.reshape(n, 2).view(complex)[:, 0])
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    save_region(path, ConvexBoundary(curve), {"set": "wl"})
    assert (json.loads(path.read_text())["angles"] == n) is default
    assert _bits(load_region(path)[0].curve) == _bits(curve)


def _boundary_payload():
    """A default-grid boundary payload in the list layout."""
    return json.loads(json.dumps(_listed(_boundary(default_angles(8)), {"set": "fov"})))


def _encoded_payload():
    """A boundary payload with every array, its 8 angles too, as base64 text: the
    writer lists the support, and the reader takes either form of each array."""
    region = _boundary(default_angles(8) + 0.125)
    payload = region_to_payload(region, {"set": "wl"})
    payload["support"] = _b64(region.curve.support, "<f8")
    return json.loads(json.dumps(payload))


_DTYPES = {"angles": "<f8", "support": "<f8", "points": "<c16"}


class TestMalformedRegionPayloads:
    @pytest.mark.parametrize("payload", [[1, 2], "disc", None, 3.5])
    def test_payload_that_is_not_an_object(self, payload):
        # a list raised AttributeError: 'list' object has no attribute 'get'
        with pytest.raises(ValueError, match="a region payload is a JSON object"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key", ["angles", "support", "points"])
    def test_boundary_without_a_key(self, key):
        # a boundary with no points raised KeyError: 'points'
        payload = _boundary_payload()
        del payload[key]
        with pytest.raises(ValueError, match=f"boundary region has no '{key}'"):
            region_from_payload(payload)

    @pytest.mark.parametrize("region", REGIONS[1:-1], ids=lambda r: type(r).__name__)
    def test_kind_without_a_key(self, region):
        # a disc with no radius raised KeyError: 'radius'
        payload = region_to_payload(region, {})
        for key in [key for key in payload if key not in ("kind", "meta")]:
            short = dict(payload)
            del short[key]
            with pytest.raises(ValueError, match=f"{payload['kind']} region has no '{key}'"):
                region_from_payload(short)

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 2.0, 3.0], 5, None, "ab", [1.0, [2.0]],
                                       {"re": 1.0, "im": 2.0}, ["1.5", True]])
    def test_boundary_point_that_is_not_a_pair(self, entry):
        # a one-element point raised "not enough values to unpack", and ["1.5", true]
        # loaded as 1.5+1j
        payload = _boundary_payload()
        payload["points"][3] = entry
        with pytest.raises(ValueError, match=r"boundary point 3 must be an \[re, im\] pair"):
            region_from_payload(payload)

    @pytest.mark.parametrize("points", [5, None, {"a": [1, 2]}, []])
    def test_boundary_points_that_are_not_a_list_of_pairs(self, points):
        payload = _boundary_payload()
        payload["points"] = points
        with pytest.raises(ValueError, match="boundary points must be a list"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key, value", [
        ("angles", {"a": 1}), ("angles", 720.0), ("angles", True), ("angles", "x"),
        ("angles", [1.0, "2"]), ("angles", [[1.0]]), ("angles", [True, False]),
        ("support", "x"), ("support", None), ("support", [1.0, [2.0]]), ("support", ["1.5"]),
        ("support", [1.0, True]),
    ])
    def test_boundary_list_of_the_wrong_type(self, key, value):
        # {"a": 1} raised TypeError, and "x" numpy's "could not convert string to float"
        payload = _boundary_payload()
        payload[key] = value
        with pytest.raises(ValueError, match=f"boundary region's '{key}' must be a list of numbers"):
            region_from_payload(payload)

    @pytest.mark.parametrize("count", [1, 0, -8, 7, 9, 10**13])
    def test_boundary_angle_count_that_does_not_fit(self, count):
        payload = _boundary_payload()
        assert payload["angles"] == 8
        payload["angles"] = count
        with pytest.raises(ValueError, match=f"'angles' count {count} does not fit its support"):
            region_from_payload(payload)

    def test_region_file_nested_too_deeply(self, tmp_path):
        # raised RecursionError
        path = tmp_path / "r.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_region(path)

    @pytest.mark.parametrize("key, value, shape", [
        ("center", [1.0], "pair"), ("center", 5.0, "pair"), ("center", [1.0, 2.0, 3.0], "pair"),
        ("center", [1.0, None], "pair"), ("radius", [1.0], "number"), ("radius", None, "number"),
        ("radius", "wide", "number"), ("radius", "2.5", "number"), ("radius", True, "number"),
    ])
    def test_disc_entry_of_the_wrong_shape(self, key, value, shape):
        # "radius": "2.5" loaded as 2.5, and true as 1.0
        payload = region_to_payload(Disc(0.1 + 0.2j, 1.75), {})
        payload[key] = value
        with pytest.raises(ValueError, match=f"disc region's '{key}' must be an? .*{shape}"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key", ["angles", "support", "points"])
    @pytest.mark.parametrize("text", ["AAAA!AAAAAAA", "AAAAAAAAAAA=\n", "AAAAAAAAAA", "\u00c5AAA"],
                             ids=["alphabet", "newline", "padding", "not-ascii"])
    def test_encoded_array_that_is_not_base64(self, key, text):
        payload = _encoded_payload()
        payload[key] = text
        with pytest.raises(ValueError, match=f"boundary region's '{key}' must be .* or base64 text"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key, size", [
        ("angles", 60), ("support", 12), ("points", 8), ("points", 120),
    ])
    def test_encoded_byte_count_that_is_not_whole_values(self, key, size):
        payload = _encoded_payload()
        payload[key] = base64.b64encode(bytes(size)).decode("ascii")
        with pytest.raises(ValueError, match=f"boundary region's '{key}' holds {size} bytes, "
                                             f"not a whole number of {_DTYPES[key]} values"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key, n, message", [
        ("angles", 7, "'angles' has 7 values and its 'support' 8"),
        ("points", 9, "'points' has 9 values and its 'support' 8"),
        ("support", 9, "'angles' has 8 values and its 'support' 9"),
    ])
    def test_encoded_arrays_of_different_lengths(self, key, n, message):
        payload = _encoded_payload()
        payload[key] = _b64(np.arange(1.0, n + 1.0), _DTYPES[key])
        with pytest.raises(ValueError, match=f"boundary region's {message}"):
            region_from_payload(payload)

    @pytest.mark.parametrize("key, value", [
        ("angles", np.nan), ("angles", np.inf), ("support", np.nan), ("support", -np.inf),
        ("points", complex(np.nan, 0.0)), ("points", complex(0.0, np.inf)),
    ])
    def test_encoded_value_that_is_not_finite(self, key, value):
        payload = _encoded_payload()
        arr = np.frombuffer(base64.b64decode(payload[key]), _DTYPES[key]).copy()
        arr[5] = value
        payload[key] = _b64(arr, _DTYPES[key])
        with pytest.raises(ValueError, match=f"boundary region's '{key}' must be finite"):
            region_from_payload(payload)

    @pytest.mark.parametrize("text, key", [
        ('{"kind": "disc", "center": [0, 0], "radius": Infinity}', "radius"),
        ('{"kind": "point", "point": [NaN, 0]}', "point"),
        ('{"kind": "disc", "center": [0, 0], "radius": 1' + "0" * 400 + "}", "radius"),
        ('{"kind": "segment", "start": [0, 0], "end": [1' + "0" * 400 + ", 0]}", "end"),
    ], ids=["inf-radius", "nan-point", "400-digit-radius", "400-digit-end"])
    def test_number_that_is_not_finite(self, text, key):
        # loaded as Disc(0j, inf) and Point(nan+0j), which save_region refuses to
        # write; the 400-digit integers raised a bare OverflowError
        with pytest.raises(ValueError, match=f"region's '{key}' must be finite"):
            region_from_payload(json.loads(text))

    @pytest.mark.parametrize("key", ["support", "points"])
    def test_listed_integer_beyond_the_float_range(self, key):
        # a listed point raised a bare OverflowError; support was refused as no number
        payload = _boundary_payload()
        payload[key][2] = [10**400, 0] if key == "points" else 10**400
        with pytest.raises(ValueError, match=f"boundary region's '{key}' must be finite"):
            region_from_payload(payload)
