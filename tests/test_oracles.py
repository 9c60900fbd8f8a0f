import ast
import pathlib

import numpy as np
import pytest

from conftest import rand_complex, rand_unit
from nrange import oracles
from nrange.linalg import svd
from nrange.oracles import mc_fov_samples, mc_rect_sup, power_sigma_max
from nrange.reference import WIDE_EXAMPLE

# pinned on the first run; guards the draw order and the generator choice
REFERENCE_MC_FIXTURE = 8.520645192941


class TestMcRectSup:
    def test_zero_matrix(self):
        assert mc_rect_sup(np.zeros((3, 2)), 100, 0).sup_abs == 0.0

    def test_column_vector_concentrates_at_norm(self):
        report = mc_rect_sup(np.array([3.0, 4.0]), 10_000, 5)
        assert 4.85 <= report.sup_abs <= 5.0

    def test_reference_regression_fixture(self):
        report = mc_rect_sup(WIDE_EXAMPLE, 10_000, 42)
        assert report.sup_abs == pytest.approx(REFERENCE_MC_FIXTURE, abs=1e-12)

    def test_never_exceeds_spectral_norm(self, rng):
        for _ in range(5):
            a = rand_complex(rng, 4, 6)
            top = float(svd(a).sigma[0])
            assert mc_rect_sup(a, 2000, 11).sup_abs <= top + 1e-12

    def test_seed_determinism_bitwise(self):
        a = mc_rect_sup(WIDE_EXAMPLE, 500, 3, keep_points=True)
        b = mc_rect_sup(WIDE_EXAMPLE, 500, 3, keep_points=True)
        assert a.sup_abs == b.sup_abs
        assert np.array_equal(a.points, b.points)


class TestMcFovSamples:
    def test_identity_all_ones(self):
        report = mc_fov_samples(np.eye(2), 500, 1)
        assert np.allclose(report.points, 1.0, atol=1e-12)

    def test_hermitian_samples_real_between_eigenvalues(self):
        report = mc_fov_samples(np.diag([1.0, 3.0]), 2000, 2)
        assert np.max(np.abs(report.points.imag)) <= 1e-12
        assert np.all(report.points.real >= 1.0 - 1e-12)
        assert np.all(report.points.real <= 3.0 + 1e-12)

    def test_nilpotent_hull_approaches_radius_one(self):
        report = mc_fov_samples(np.array([[0.0, 2.0], [0.0, 0.0]]), 100_000, 3)
        assert 0.999 <= report.sup_abs <= 1.0 + 1e-12

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            mc_fov_samples(np.zeros((2, 3)), 10, 0)


class TestPowerSigmaMax:
    def test_diagonal(self):
        a = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert power_sigma_max(a, 50, 0) == pytest.approx(3.0, abs=1e-10)

    def test_reference_matches_svd(self):
        top = float(svd(WIDE_EXAMPLE).sigma[0])
        assert power_sigma_max(WIDE_EXAMPLE, 200, 1) == pytest.approx(top, rel=1e-8)

    def test_rank_one_outer_product(self, rng):
        y, x = rand_unit(rng, 4), rand_unit(rng, 3)
        assert power_sigma_max(np.outer(y, x.conj()), 50, 2) == pytest.approx(1.0, abs=1e-10)

    def test_never_exceeds_sigma(self, rng):
        for iters in (1, 3, 10):
            a = rand_complex(rng, 5, 4)
            assert power_sigma_max(a, iters, 4) <= float(svd(a).sigma[0]) + 1e-10

    def test_zero_matrix(self):
        assert power_sigma_max(np.zeros((2, 2)), 10, 0) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e150, 1e300])
    def test_any_finite_scale(self, scale):
        a = rand_complex(np.random.default_rng(4), 4, 3)
        top = scale * float(svd(a).sigma[0])
        estimate = power_sigma_max(scale * a, 200, 0)
        assert np.isfinite(estimate)
        assert abs(estimate - top) <= 1e-8 * top


def test_oracles_import_nothing_from_region_modules():
    source = pathlib.Path(oracles.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    allowed = {"numpy", "dataclasses", "typing", "__future__"}
    assert imported <= allowed, imported
