import json

import numpy as np
import pytest

from nrange.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from nrange.fov import fov_boundary
from nrange.geometry import ConvexBoundary, region_contains, scale_region
from nrange.io import load_matrix, load_region, save_matrix_json
from nrange.linalg import pow2_scaled, svd
from nrange.reference import WIDE_EXAMPLE
from nrange.verify import SUITE_NAMES


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.json"
    save_matrix_json(path, WIDE_EXAMPLE)
    return path


class TestCompute:
    def test_w_disc(self, tmp_path, wide_file):
        out = tmp_path / "region.json"
        code = main(["compute", "--input", str(wide_file), "--set", "w", "--out", str(out)])
        assert code == EXIT_OK
        region, meta = load_region(out)
        assert region.radius == pytest.approx(float(svd(WIDE_EXAMPLE).sigma[0]))
        assert meta["set"] == "w"
        assert meta["sigma"] == [float(s) for s in svd(WIDE_EXAMPLE).sigma]

    def test_phik_circle_on_three_by_two(self, tmp_path, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "phik.json"
        code = main(
            ["compute", "--input", str(src), "--set", "phik", "--k", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kind"] == "circle"
        assert payload["meta"]["k"] == 2

    def test_fov_rejects_rectangular_with_guidance(self, tmp_path, wide_file, capsys):
        out = tmp_path / "fov.json"
        code = main(["compute", "--input", str(wide_file), "--set", "fov", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--set w" in capsys.readouterr().err

    def test_phik_requires_k(self, tmp_path, wide_file):
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(wide_file), "--set", "phik", "--out", str(out)])
        assert code == EXIT_USAGE

    def test_wnorm_domain_error_names_hypothesis(self, tmp_path, wide_file, capsys):
        small = 0.5 * WIDE_EXAMPLE / np.linalg.norm(WIDE_EXAMPLE)
        b_path = tmp_path / "b.json"
        save_matrix_json(b_path, small)
        out = tmp_path / "r.json"
        code = main(
            ["compute", "--input", str(wide_file), "--set", "wnorm",
             "--B", str(b_path), "--out", str(out)]
        )
        assert code == EXIT_DOMAIN
        assert "||B||_F >= 1" in capsys.readouterr().err

    def test_wnorm_success(self, tmp_path, wide_file):
        b_path = tmp_path / "b.json"
        save_matrix_json(b_path, 1.5 * WIDE_EXAMPLE / np.linalg.norm(WIDE_EXAMPLE))
        out = tmp_path / "r.json"
        code = main(
            ["compute", "--input", str(wide_file), "--set", "wnorm",
             "--B", str(b_path), "--out", str(out)]
        )
        assert code == EXIT_OK
        region, _ = load_region(out)
        assert region.radius > 0

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n1, oops\n3, 4\n")
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(bad), "--set", "w", "--out", str(out)])
        assert code == EXIT_PARSE

    def test_exponent_without_mantissa_is_parse_error(self, tmp_path, capsys):
        # this file exited 4 with "could not convert string to float: '+e8'"
        bad = tmp_path / "exponent.csv"
        bad.write_text("1,2\n1+e8i, 2\n")
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(bad), "--set", "w", "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: bad complex literal: '1+e8i'\n"
        assert not out.exists()

    @pytest.mark.parametrize("set_name, flags", [("w", []), ("fov", []), ("phik", ["--k", "1"]),
                                                 ("wl", [])])
    def test_malformed_json_header_is_parse_error(self, tmp_path, set_name, flags):
        # this file loaded as the 1x1 matrix [[2]] and every set exited 0
        bad = tmp_path / "header.json"
        bad.write_text('{"rows": 1.9, "cols": true, "data": [[2, 0]]}')
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(bad), "--set", set_name, *flags, "--out", str(out)])
        assert code == EXIT_PARSE
        assert not out.exists()

    def test_json_entry_that_is_not_a_pair_of_numbers_is_parse_error(self, tmp_path, capsys):
        # this file loaded as [[1+3j, 1+2j]] and exited 0
        bad = tmp_path / "entries.json"
        bad.write_text('{"rows": 1, "cols": 2, "data": [[true, "3"], [1, 2, 99]]}')
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(bad), "--set", "w", "--out", str(out)])
        assert code == EXIT_PARSE
        assert not out.exists()
        assert "entry 0 must be an [re, im] pair of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("set_name, flags", [("w", []), ("phik", ["--k", "1"])])
    def test_region_beyond_the_float_range_is_domain_error(self, tmp_path, capsys, set_name, flags):
        # sigma_1 of this matrix exceeds the largest float: the region file
        # said "radius": Infinity and compute exited 0
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"rows": 2, "cols": 2, "data": [
            [1.7e308, 0], [1.7e308, 0], [-1.7e308, 0], [1.7e308, 1e308]]}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = main(["compute", "--input", str(big), "--set", set_name, *flags, "--out", str(out),
                     "--svg", str(tmp_path / "r.svg")])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        assert captured.err == "error: the region is not finite at this scale; scale the matrix down\n"
        assert not out.exists() and not (tmp_path / "r.svg").exists()

    def test_sigma_beyond_the_float_range_is_written_as_null(self, tmp_path, capsys):
        # sigma_1 = 2e308 but the field of values is the disc of radius 1e308:
        # compute exited 4 because json refused the infinite sigma
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"rows": 2, "cols": 2, "data": [
            [1e308, 0], [1e308, 0], [-1e308, 0], [-1e308, 0]]}))
        for set_name in ("fov", "wl", "wh"):
            out = tmp_path / f"{set_name}.json"
            code = main(["compute", "--input", str(big), "--set", set_name, "--angles", "16",
                         "--out", str(out), "--svg", str(tmp_path / f"{set_name}.svg")])
            assert code == EXIT_OK
            payload = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert payload["meta"]["sigma"] == [None, 0.0]
            assert "sigma=inf, 0.000000" in (tmp_path / f"{set_name}.svg").read_text()
        capsys.readouterr()
        # the w region is the disc of radius sigma_1 itself, which does overflow
        out = tmp_path / "w.json"
        code = main(["compute", "--input", str(big), "--set", "w", "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert not out.exists()
        assert "the region is not finite" in capsys.readouterr().err

    def test_unknown_set_is_usage_error(self, tmp_path, wide_file):
        code = main(
            ["compute", "--input", str(wide_file), "--set", "nope", "--out", str(tmp_path / "r")]
        )
        assert code == EXIT_USAGE

    def test_seed_is_rejected(self, tmp_path, wide_file):
        # compute is deterministic; a seed it would ignore is a usage error
        code = main(
            ["compute", "--input", str(wide_file), "--set", "w",
             "--out", str(tmp_path / "r.json"), "--seed", "3"]
        )
        assert code == EXIT_USAGE
        assert not (tmp_path / "r.json").exists()

    def test_wl_with_default_frame(self, tmp_path, rng):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "wl.json"
        code = main(
            ["compute", "--input", str(src), "--set", "wl", "--angles", "90", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kind"] == "boundary"
        # the default grid is written as its count
        assert payload["angles"] == 90

    @pytest.mark.parametrize("n_angles", [37, 721])
    def test_fov_odd_grid_matches_sweep(self, tmp_path, rng, n_angles):
        # an odd grid has no opposite angles, so every angle is solved
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "fov.json"
        code = main(
            ["compute", "--input", str(src), "--set", "fov",
             "--angles", str(n_angles), "--out", str(out)]
        )
        assert code == EXIT_OK
        expected = fov_boundary(load_matrix(src), n_angles)
        curve = load_region(out)[0].curve
        assert np.array_equal(curve.angles, expected.angles)
        assert np.array_equal(curve.support, expected.support)
        assert np.array_equal(curve.points, expected.points)

    def test_fov_file_holds_base64_points_and_a_count(self, tmp_path, rng):
        # a matrix far from unit scale, so the written curve is scaled back
        a = 1e200 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "fov.json"
        code = main(["compute", "--input", str(src), "--set", "fov", "--angles", "720",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["angles"] == 720
        assert type(payload["support"]) is list and type(payload["points"]) is str
        # 21 1/3 base64 characters a point, where an [re, im] pair of these takes 52
        points = load_region(out)[0].curve.points
        pairs = json.dumps(np.column_stack([points.real, points.imag]).tolist())
        assert len(payload["points"]) == 15_360 and len(pairs) > 35_000
        assert out.stat().st_size < 35_000  # about 55 KB with listed points
        matrix, e = pow2_scaled(load_matrix(src))
        expected = scale_region(ConvexBoundary(fov_boundary(matrix, 720)), e).curve
        curve = load_region(out)[0].curve
        for got, want in [(curve.angles, expected.angles), (curve.support, expected.support),
                          (curve.points, expected.points)]:
            assert got.tobytes() == want.tobytes()

    def test_wl_odd_grid(self, tmp_path, rng):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "wl.json"
        code = main(
            ["compute", "--input", str(src), "--set", "wl", "--angles", "37", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert len(load_region(out)[0].curve.angles) == 37

    @pytest.mark.parametrize("set_name", ["fov", "wl", "wh"])
    @pytest.mark.parametrize("n_angles", [0, 7, 8])
    def test_angles_below_eight_is_usage_error(self, tmp_path, rng, capsys, set_name, n_angles):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(src), "--set", set_name,
                     "--angles", str(n_angles), "--out", str(out)])
        captured = capsys.readouterr()
        if n_angles >= 8:
            assert code == EXIT_OK
            assert len(load_region(out)[0].curve.angles) == n_angles
        else:
            assert code == EXIT_USAGE
            assert captured.out == "" and not out.exists()
            assert captured.err == f"error: --angles must be >= 8, got {n_angles}\n"

    @pytest.mark.parametrize("set_name", ["fov", "wl", "wh"])
    @pytest.mark.parametrize("n_angles", [10**13, 10**18])
    def test_unallocatable_angle_count_is_domain_error(self, tmp_path, capsys, set_name, n_angles):
        # numpy refuses these grids at once; the MemoryError was a traceback
        src = tmp_path / "a.json"
        save_matrix_json(src, np.eye(3))
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(src), "--set", set_name,
                     "--angles", str(n_angles), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1

    def test_wh_with_explicit_frame(self, tmp_path, rng):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        frame = np.zeros((4, 2), dtype=complex)
        frame[2, 0] = frame[3, 1] = 1.0
        h_path = tmp_path / "h.json"
        save_matrix_json(h_path, frame)
        out = tmp_path / "wh.json"
        code = main(
            ["compute", "--input", str(src), "--set", "wh", "--H", str(h_path),
             "--angles", "90", "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_invalid_frame_is_domain_error(self, tmp_path, rng):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        src = tmp_path / "a.json"
        save_matrix_json(src, a)
        h_path = tmp_path / "h.json"
        save_matrix_json(h_path, rng.standard_normal((4, 2)))
        code = main(
            ["compute", "--input", str(src), "--set", "wl", "--H", str(h_path),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_DOMAIN

    def test_svg_emission(self, tmp_path, wide_file):
        out = tmp_path / "r.json"
        svg = tmp_path / "r.svg"
        code = main(
            ["compute", "--input", str(wide_file), "--set", "w",
             "--out", str(out), "--svg", str(svg)]
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg") and "<circle" in text

    def test_w_figure_is_the_same_at_every_scale(self, tmp_path):
        # the disc of [[1, 2], [0.5, -1]] was drawn at 363.636364 px, but at
        # 0.854829 px at 1e-12 times the matrix and at 0.000000 px at
        # 2**-1070 times it, under fixed floors on the outer radius
        figures = []
        for scale in (1.0, 1e-12, 2.0**-1070):
            src, out, svg = (tmp_path / f"{scale!r}.{ext}" for ext in ("json", "out.json", "svg"))
            save_matrix_json(src, scale * np.array([[1, 2], [0.5, -1]]))
            code = main(["compute", "--input", str(src), "--set", "w",
                         "--out", str(out), "--svg", str(svg)])
            assert code == EXIT_OK
            figures.append([line for line in svg.read_text().splitlines()
                            if not line.startswith("<text")])
        assert 'r="363.636364"' in "\n".join(figures[0])
        assert figures[1] == figures[0] and figures[2] == figures[0]

    def test_fov_figure_is_the_same_at_every_scale(self, tmp_path):
        # unscaled, the sweep at 2**-1070 times the matrix drew its points up
        # to 29.7 px from the figure at scale 1
        polygons = []
        for scale in (1.0, 1e-12, 2.0**-1070):
            src, out, svg = (tmp_path / f"{scale!r}.{ext}" for ext in ("json", "out.json", "svg"))
            save_matrix_json(src, scale * np.array([[1, 2], [0.5, -1]]))
            code = main(["compute", "--input", str(src), "--set", "fov",
                         "--out", str(out), "--svg", str(svg)])
            assert code == EXIT_OK
            polygons.append([line for line in svg.read_text().splitlines()
                             if line.startswith("<polygon")])
        assert len(polygons[0]) == 1
        assert polygons[1] == polygons[0] and polygons[2] == polygons[0]

    @pytest.mark.parametrize("flags", [["w"], ["phik", "--k", "2"]])
    def test_small_input_is_decomposed_once(self, tmp_path, svd_calls, flags):
        # sigma for the region file came from a thin SVD of its own, before
        # the region's full one
        src, out = tmp_path / "a.json", tmp_path / "r.json"
        save_matrix_json(src, np.random.default_rng(3).standard_normal((3, 2)))
        assert main(["compute", "--input", str(src), "--set", *flags, "--out", str(out)]) == EXIT_OK
        assert svd_calls == [((3, 2), True)]

    def test_w_on_a_long_matrix_makes_only_thin_svds(self, tmp_path, svd_calls):
        # a full SVD of 2000 x 3 takes about a thousand times the thin one
        src, out = tmp_path / "long.json", tmp_path / "r.json"
        save_matrix_json(src, np.random.default_rng(7).standard_normal((2000, 3)))
        assert main(["compute", "--input", str(src), "--set", "w", "--out", str(out)]) == EXIT_OK
        assert svd_calls and all(call == ((2000, 3), False) for call in svd_calls)

    def test_wnorm_point_marker_stays_on_canvas(self, tmp_path):
        # ||I/sqrt(2)||_F rounds to one, so the region is the point sqrt(2),
        # beyond sigma_1 = 1: the canvas must reach it
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix_json(a_path, np.eye(2))
        save_matrix_json(b_path, np.eye(2) / np.sqrt(2))
        out, svg = tmp_path / "r.json", tmp_path / "r.svg"
        code = main(["compute", "--input", str(a_path), "--set", "wnorm", "--B", str(b_path),
                     "--out", str(out), "--svg", str(svg)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["kind"] == "point"
        # cross of half-width 4 centred at 400 + 400 / 1.1 px
        assert ('<path d="M 759.636364 400.000000 L 767.636364 400.000000 '
                'M 763.636364 396.000000 L 763.636364 404.000000"') in svg.read_text()

    @pytest.mark.parametrize("set_name,flag", [("w", "--input"), ("wl", "--H"), ("wnorm", "--B")])
    def test_unreadable_matrix_file_is_parse_error(self, tmp_path, wide_file, set_name, flag):
        # a repeated --input replaces the first one
        argv = ["compute", "--input", str(wide_file), "--set", set_name,
                "--out", str(tmp_path / "r"), flag, str(tmp_path / "missing.json")]
        assert main(argv) == EXIT_PARSE

    def test_unused_matrix_files_are_not_read(self, tmp_path, wide_file):
        missing = str(tmp_path / "missing.json")
        out = str(tmp_path / "r.json")
        code = main(["compute", "--input", str(wide_file), "--set", "w",
                     "--H", missing, "--B", missing, "--out", out])
        assert code == EXIT_USAGE
        code = main(["compute", "--input", str(wide_file), "--set", "fov",
                     "--H", missing, "--out", out])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("set_name,flag", [
        ("w", "--k"), ("w", "--H"), ("w", "--B"), ("fov", "--k"), ("fov", "--B"),
        ("wl", "--k"), ("wh", "--B"), ("phik", "--H"), ("phik", "--B"),
        ("wnorm", "--k"), ("wnorm", "--H"),
    ])
    def test_flag_the_set_does_not_read_is_usage_error(
        self, tmp_path, capsys, wide_file, set_name, flag
    ):
        # phik and wnorm get their own flag too, so only the stray one can be
        # the reason; the stray matrix files do not exist
        own = {"phik": ["--k", "1"], "wnorm": ["--B", str(wide_file)]}.get(set_name, [])
        value = "2" if flag == "--k" else str(tmp_path / "missing.json")
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(wide_file), "--set", set_name, *own,
                     flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert f"--set {set_name} does not take {flag}" in capsys.readouterr().err

    def test_round_trip_containment_consistency(self, tmp_path, wide_file):
        out = tmp_path / "r.json"
        main(["compute", "--input", str(wide_file), "--set", "w", "--out", str(out)])
        region, _ = load_region(out)
        top = float(svd(WIDE_EXAMPLE).sigma[0])
        for z in (0j, 0.5 * top, top * 1.0001, top * np.exp(1j)):
            again, _ = load_region(out)
            assert region_contains(region, z, 1e-12) == region_contains(again, z, 1e-12)

    def test_scalar_input_warns_on_stderr(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        save_matrix_json(src, np.array([[3 + 4j]]))
        out = tmp_path / "r.json"
        code = main(["compute", "--input", str(src), "--set", "w", "--out", str(out)])
        assert code == EXIT_OK
        assert "circle" in capsys.readouterr().err
        assert json.loads(out.read_text())["kind"] == "circle"


class TestReproduce:
    def test_sec2_byte_identical_per_seed(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d1), "--seed", "9"]) == EXIT_OK
        assert main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d2), "--seed", "9"]) == EXIT_OK
        f1 = (d1 / "sec2-example.svg").read_bytes()
        f2 = (d2 / "sec2-example.svg").read_bytes()
        assert f1 == f2

    def test_sec2_different_seed_changes_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d1), "--seed", "9"])
        main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d2), "--seed", "10"])
        assert (d1 / "sec2-example.svg").read_bytes() != (d2 / "sec2-example.svg").read_bytes()

    def test_sec3_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "--figure", "sec3-example", "--out-dir", str(d1)]) == EXIT_OK
        assert main(["reproduce", "--figure", "sec3-example", "--out-dir", str(d2)]) == EXIT_OK
        assert (d1 / "sec3-example.svg").read_bytes() == (d2 / "sec3-example.svg").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("NRANGE_SEED", "33")
        main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d1)])
        monkeypatch.delenv("NRANGE_SEED")
        main(["reproduce", "--figure", "sec2-example", "--out-dir", str(d2), "--seed", "33"])
        assert (d1 / "sec2-example.svg").read_bytes() == (d2 / "sec2-example.svg").read_bytes()

    def test_env_seed_not_integer_is_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NRANGE_SEED", "abc")
        out_dir = tmp_path / "a"
        for argv in (
            ["reproduce", "--figure", "sec2-example", "--out-dir", str(out_dir)],
            ["verify", "--suite", "prop12"],
        ):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "NRANGE_SEED" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["reproduce", "verify"])
    @pytest.mark.parametrize("source", ["--seed", "NRANGE_SEED"])
    def test_negative_seed_is_usage(self, tmp_path, monkeypatch, capsys, command, source):
        out_dir = tmp_path / "a"
        argv = (["reproduce", "--figure", "sec2-example", "--out-dir", str(out_dir)]
                if command == "reproduce" else ["verify", "--suite", "prop12"])
        if source == "--seed":
            argv += ["--seed", "-5"]
        else:
            monkeypatch.setenv("NRANGE_SEED", "-1")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and source in captured.err
        assert not out_dir.exists()

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["reproduce", "--figure", "sec2-example", "--out-dir", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_unknown_figure_is_usage(self, tmp_path):
        assert main(["reproduce", "--figure", "nope", "--out-dir", str(tmp_path)]) == EXIT_USAGE


class TestVerifyCommand:
    def test_unknown_suite_is_usage(self):
        assert main(["verify", "--suite", "prop99"]) == EXIT_USAGE

    def test_single_suite_table(self, capsys):
        code = main(["verify", "--suite", "prop12", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out and "prop12" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-8"])
    def test_hostile_tol_is_usage_error(self, capsys, monkeypatch, tol):
        # a NaN passed every check that fails on gap > tol without checking
        # anything, and an infinite tol exited 0
        ran = []
        monkeypatch.setitem(SUITE_NAMES, "prop7", lambda seed, tol: ran.append(tol) or {})
        assert main(["verify", "--suite", "prop7", "--seed", "1", f"--tol={tol}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not ran
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: tol must be finite and non-negative")

    def test_zero_tol_runs_the_suite(self, capsys):
        main(["verify", "--suite", "prop12", "--seed", "1", "--tol", "0"])
        assert "checks passed" in capsys.readouterr().out
