"""End-to-end contract of ``nrange compute`` on generated and hostile matrix files.

Whatever the file holds, ``compute`` exits with one of the documented codes
0-5, writes at most one ``error:`` line (plus a ``warning:`` line for a 1x1
``--set w``) and never a traceback or a raw Python warning to stderr, prints
only the paths it wrote to stdout, and writes region files that parse as
strict RFC 8259 JSON (no NaN or Infinity).  ``reproduce`` reads the
generated ``NRANGE_SEED`` strings.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrange.cli import EXIT_PARSE, main

# the top of the float range is where overflow shows, so it is drawn most
MAGNITUDES = [1e-320, 1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300, 1e307, 1.7e308, 1.7e308]
SETS = [["w"], ["fov"], ["wl"], ["wh"], ["phik", "--k", "1"], ["phik", "--k", "2"], ["wnorm"]]
BAD_JSON_HEADERS = [{"rows": 1.9}, {"cols": True}, {"rows": "2"}, {"rows": -1}, {"cols": 0},
                    {"rows": None}, {"data": {}}]
BAD_CSV_HEADERS = ["1.7,2", "2", "a,b", "-1,2", "2,2,2", ""]
BAD_JSON_ENTRIES = [[True, 1], "3", [1], [10**400, 0], None, [1, 2, 3], ["1", 0]]
BAD_LITERALS = ["1+e8i", "--1", "1ii", "nan", "inf", "1e999", "i1", "1_0", "0x10", "+", "3j"]
# files the JSON decoder itself refuses: each once exited 4, 4 and 1 (with a traceback)
UNDECODABLE_FILES = {
    "not-utf8": b'{"rows": 1, "cols": 1, "data": [[1, 0]]} \xff\xfe',
    "5000-digit-integer": b'{"rows": 1, "cols": 1, "data": [[1' + b"0" * 4999 + b', 0]]}',
    "nested-100000-deep": b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
}


def _literal(value) -> str:
    return f"{float(value.real)!r}{float(value.imag):+}i"


@st.composite
def matrix_files(draw):
    """(file text, suffix): a JSON or CSV matrix, sometimes with one hostile defect."""
    m = draw(st.integers(1, 6))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero", "rank-deficient"]))
    scale = draw(st.sampled_from(MAGNITUDES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = scale * (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))
    if kind == "zero":
        a[:] = 0
    elif kind == "rank-deficient":
        a = np.outer(a[:, 0], rng.uniform(-1, 1, n))
    defect = draw(st.sampled_from(["none"] * 5 + ["header", "entry", "truncated"]))
    if draw(st.booleans()):
        payload = {"rows": m, "cols": n,
                   "data": [[float(v.real), float(v.imag)] for v in a.ravel()]}
        if defect == "header":
            payload.update(draw(st.sampled_from(BAD_JSON_HEADERS)))
        elif defect == "entry":
            payload["data"][draw(st.integers(0, m * n - 1))] = draw(st.sampled_from(BAD_JSON_ENTRIES))
        text = json.dumps(payload)
        suffix = ".json"
    else:
        tokens = [_literal(v) for v in a.ravel()]
        header = f"{m},{n}"
        if defect == "header":
            header = draw(st.sampled_from(BAD_CSV_HEADERS))
        elif defect == "entry":
            tokens[draw(st.integers(0, m * n - 1))] = draw(st.sampled_from(BAD_LITERALS))
        rows = [", ".join(tokens[i * n:(i + 1) * n]) for i in range(m)]
        text = "\n".join([header, *rows]) + "\n"
        suffix = ".csv"
    if defect == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, suffix


SEED_STRINGS = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
)


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _check_contract(code, out, err, caught, written):
    assert code in range(6), (code, err)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err and "Warning" not in err, err
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    assert sum(line.startswith("error: ") for line in lines) <= 1, err
    printed = out.splitlines()
    assert all(line in written and Path(line).exists() for line in printed), out
    assert (code == 0) == (written[0] in printed), (code, out)


@given(matrix_files(), st.sampled_from(SETS), st.booleans(), matrix_files(), SEED_STRINGS)
def test_compute_keeps_its_contract(matrix, chosen, with_svg, comparison, seed):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"NRANGE_SEED": seed}):
        tmp = Path(tmp)
        (tmp / f"a{matrix[1]}").write_text(matrix[0])
        (tmp / f"b{comparison[1]}").write_text(comparison[0])
        written = [str(tmp / "region.json"), str(tmp / "region.svg")]
        argv = ["compute", "--input", str(tmp / f"a{matrix[1]}"), "--set", *chosen,
                "--out", written[0]] + (["--svg", written[1]] if with_svg else [])
        if chosen == ["wnorm"]:
            argv += ["--B", str(tmp / f"b{comparison[1]}")]
        _check_contract(*_run(argv), written)
        if Path(written[0]).exists():
            json.loads(Path(written[0]).read_text(), parse_constant=_reject_constant)

        figure = str(tmp / "figures" / "sec2-example.svg")
        code, out, err, caught = _run(["reproduce", "--figure", "sec2-example",
                                       "--out-dir", str(tmp / "figures")])
        _check_contract(code, out, err, caught, [figure])
        assert code in (0, 2)


@pytest.mark.parametrize("content", UNDECODABLE_FILES.values(), ids=UNDECODABLE_FILES)
def test_undecodable_matrix_file_is_parse_error(tmp_path, content):
    (tmp_path / "a.json").write_bytes(content)
    written = [str(tmp_path / "region.json")]
    code, out, err, caught = _run(["compute", "--input", str(tmp_path / "a.json"), "--set", "w",
                                   "--out", written[0]])
    _check_contract(code, out, err, caught, written)
    assert code == EXIT_PARSE and not Path(written[0]).exists()
