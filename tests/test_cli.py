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
from nrange.geometry import region_contains
from nrange.io import load_matrix, load_region, save_matrix_json
from nrange.linalg import svd
from nrange.reference import WIDE_EXAMPLE


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
        assert len(payload["angles"]) == 90

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
