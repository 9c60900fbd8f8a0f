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


def _reference_forms(a, n_samples, seed, quadratic):
    """Draw order as documented; each row normalised before the product.

    Runs in extended precision, so the comparison bounds the sampler's own
    rounding rather than the sum of two double-precision roundings.
    """
    wide = np.asarray(a, dtype=complex).astype(np.clongdouble)
    rng = np.random.default_rng(seed)

    def unit_rows(dim):
        re = rng.standard_normal((n_samples, dim)).astype(np.longdouble)
        im = rng.standard_normal((n_samples, dim)).astype(np.longdouble)
        norms = np.sqrt(np.sum(re * re + im * im, axis=1, keepdims=True))
        return (re + 1j * im) / norms

    xs = unit_rows(wide.shape[1])
    ys = xs if quadratic else unit_rows(wide.shape[0])
    return np.sum(ys.conj() * (xs @ wide.T), axis=1)


def _sample(a, n_samples, seed, quadratic):
    if quadratic:
        return mc_fov_samples(a, n_samples, seed)
    return mc_rect_sup(a, n_samples, seed, keep_points=True)


EQUIVALENCE_CASES = [((1, 1), False), ((1, 5), False), ((5, 1), False), ((2, 3), False),
                     ((8, 7), False), ((1, 1), True), ((3, 3), True), ((6, 6), True)]


class TestSamplerEquivalence:
    @pytest.mark.parametrize("shape, quadratic", EQUIVALENCE_CASES,
                             ids=[f"{'fov' if q else 'rect'}-{m}x{n}"
                                  for (m, n), q in EQUIVALENCE_CASES])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_normalised_rows(self, shape, quadratic, seed):
        a = rand_complex(np.random.default_rng(seed + 100), *shape)
        expected = _reference_forms(a, 5000, seed, quadratic)
        report = _sample(a, 5000, seed, quadratic)
        assert np.max(np.abs(report.points - expected)) <= 1e-15 * np.abs(a).max()
        top = np.max(np.abs(expected))
        assert abs(report.sup_abs - top) <= 1e-15 * top

    def test_points_kept_only_on_request(self):
        report = mc_rect_sup(WIDE_EXAMPLE, 100, 0)
        assert report.points is None
        assert report.sup_abs == mc_rect_sup(WIDE_EXAMPLE, 100, 0, keep_points=True).sup_abs


class TestSamplerScale:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("quadratic", [False, True], ids=["rect", "fov"])
    def test_any_finite_scale(self, scale, quadratic):
        a = rand_complex(np.random.default_rng(8), 4, 4 if quadratic else 3)
        base, scaled = _sample(a, 2000, 5, quadratic), _sample(scale * a, 2000, 5, quadratic)
        assert np.all(np.isfinite(scaled.points))
        assert abs(scaled.sup_abs / scale - base.sup_abs) <= 1e-15 * base.sup_abs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("oracle", ["rect", "fov", "power"])
    def test_subnormal_matrix(self, oracle):
        # every entry below the smallest normal float, 2.2e-308
        a = rand_complex(np.random.default_rng(8), 4, 4) / 8
        run = {"rect": lambda m: mc_rect_sup(m, 2000, 5).sup_abs,
               "fov": lambda m: mc_fov_samples(m, 2000, 5).sup_abs,
               "power": lambda m: power_sigma_max(m, 200, 5)}[oracle]
        tiny = 3e-309 * a
        assert np.abs(tiny).max() < 2.2e-308
        estimate, base = run(tiny), run(a)
        # subnormal entries keep fewer than 53 significant bits
        assert abs(estimate / 3e-309 - base) <= 1e-12 * base

    @pytest.mark.filterwarnings("error")
    def test_entry_modulus_beyond_float_range(self):
        # |a_00| = 2.4e308 overflows although both its parts are finite
        huge = np.array([[1.7e308 + 1.7e308j, 1.0], [0.0, 1.0]])
        assert power_sigma_max(huge, 50, 1) == np.inf
        assert mc_rect_sup(huge, 2000, 1).sup_abs == np.inf
        # just inside the range the estimate stays finite and accurate
        big = np.array([[1.2e308 + 1.2e308j, 1.0], [0.0, 1.0]])
        top = 4.0 * float(svd(big / 4.0).sigma[0])
        assert abs(power_sigma_max(big, 50, 1) - top) <= 1e-12 * top
        sampled = mc_rect_sup(big, 2000, 1)
        assert np.isfinite(sampled.sup_abs) and sampled.sup_abs <= top * (1 + 1e-15)


HOSTILE = [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite"),
    (np.array([[1.0, 0.0], [np.inf, 1.0]]), "finite"),
    (np.array([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]), "finite"),
    (np.zeros((0, 3)), "nonempty"),
    (np.zeros((0, 0)), "nonempty"),
    (np.zeros(0), "nonempty"),
]


@pytest.mark.parametrize("oracle", [mc_rect_sup, mc_fov_samples, power_sigma_max],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("matrix, message", HOSTILE,
                         ids=["nan", "inf", "imag-inf", "0x3", "0x0", "empty-vector"])
def test_hostile_matrix_raises(oracle, matrix, message):
    with pytest.raises(ValueError, match=message):
        oracle(matrix, 10, 0)


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
