import ast
import contextlib
import pathlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import rand_complex, rand_unit
from nrange import oracles
from nrange.linalg import svd
from nrange.oracles import mc_fov_samples, mc_rect_sup, power_sigma_max
from nrange.rankk import projector_intersection_check
from nrange.rectrange import norm_range_union
from nrange.reference import WIDE_EXAMPLE

# pinned on the first run; guards the draw order and the generator choice
REFERENCE_MC_FIXTURE = 8.520645192941
# the documented sampling block
BLOCK = 10_000


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


def _reference_forms(a, n_samples, seed, quadratic, block):
    """Draw order as documented, one block of ``block`` samples at a time;
    each row normalised before the product.

    Runs in extended precision, so the comparison bounds the sampler's own
    rounding rather than the sum of two double-precision roundings.
    """
    wide = np.asarray(a, dtype=complex).astype(np.clongdouble)
    rng = np.random.default_rng(seed)

    def unit_rows(count, dim):
        re = rng.standard_normal((count, dim)).astype(np.longdouble)
        im = rng.standard_normal((count, dim)).astype(np.longdouble)
        norms = np.sqrt(np.sum(re * re + im * im, axis=1, keepdims=True))
        return (re + 1j * im) / norms

    forms = []
    for lo in range(0, n_samples, block):
        count = min(block, n_samples - lo)
        xs = unit_rows(count, wide.shape[1])
        ys = xs if quadratic else unit_rows(count, wide.shape[0])
        forms.append(np.sum(ys.conj() * (xs @ wide.T), axis=1))
    return np.concatenate(forms)


def _sample(a, n_samples, seed, quadratic):
    if quadratic:
        return mc_fov_samples(a, n_samples, seed)
    return mc_rect_sup(a, n_samples, seed, keep_points=True)


# (shape, quadratic, samples); 25,000 samples are two full blocks and a
# partial one
EQUIVALENCE_CASES = [((1, 1), False, 5000), ((1, 5), False, 5000), ((5, 1), False, 5000),
                     ((2, 3), False, 5000), ((8, 7), False, 5000), ((1, 1), True, 5000),
                     ((3, 3), True, 5000), ((6, 6), True, 5000),
                     ((8, 7), False, 25_000), ((6, 6), True, 25_000)]


class TestSamplerEquivalence:
    @pytest.mark.parametrize("shape, quadratic, n_samples", EQUIVALENCE_CASES,
                             ids=[f"{'fov' if q else 'rect'}-{m}x{n}" + (f"-{k}" if k != 5000 else "")
                                  for (m, n), q, k in EQUIVALENCE_CASES])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_normalised_rows(self, shape, quadratic, n_samples, seed):
        a = rand_complex(np.random.default_rng(seed + 100), *shape)
        expected = _reference_forms(a, n_samples, seed, quadratic, BLOCK)
        report = _sample(a, n_samples, seed, quadratic)
        assert np.max(np.abs(report.points - expected)) <= 1e-15 * np.abs(a).max()
        top = np.max(np.abs(expected))
        assert abs(report.sup_abs - top) <= 1e-15 * top

    @pytest.mark.parametrize("quadratic", [False, True], ids=["rect", "fov"])
    def test_first_block_is_the_one_block_call(self, quadratic):
        a = rand_complex(np.random.default_rng(9), 6, 6 if quadratic else 5)
        long = _sample(a, 25_000, 3, quadratic)
        short = _sample(a, BLOCK, 3, quadratic)
        assert np.array_equal(long.points[:BLOCK], short.points)

    def test_points_kept_only_on_request(self):
        report = mc_rect_sup(WIDE_EXAMPLE, 100, 0)
        assert report.points is None
        assert report.sup_abs == mc_rect_sup(WIDE_EXAMPLE, 100, 0, keep_points=True).sup_abs


class TestSamplerThread:
    """Blocks after the first are drawn on one helper thread, one block ahead."""

    def test_concurrent_calls_match_sequential_ones(self):
        # four callers, each with its own helper, on a shortened switch
        # interval: a block overwritten while it is reduced changes the bits
        a = rand_complex(np.random.default_rng(11), 5, 5)

        def both(seed):
            return (mc_rect_sup(a, 35_000, seed, keep_points=True), mc_fov_samples(a, 35_000, seed))

        expected = {seed: both(seed) for seed in (1, 2, 3, 4)}
        start, got = threading.Barrier(len(expected)), {}

        def run(seed):
            start.wait(timeout=60)
            got[seed] = both(seed)

        callers = [threading.Thread(target=run, args=(seed,)) for seed in expected]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for seed, reports in expected.items():
            for report, want in zip(got[seed], reports):
                assert report.sup_abs == want.sup_abs
                assert np.array_equal(report.points, want.points)

    @pytest.mark.parametrize("call, helpers, fails", [
        (lambda: mc_rect_sup(SQUARE, 25_000, 0), 1, False),
        (lambda: mc_fov_samples(SQUARE, 25_000, 0), 1, False),
        (lambda: mc_rect_sup(SQUARE, BLOCK, 0), 0, False),
        (lambda: mc_rect_sup(SQUARE, 0, 0), 0, True),
        (lambda: mc_fov_samples(SQUARE, 25_000, -1), 0, True),
    ], ids=["rect", "fov", "one-block", "bad-count", "bad-seed"])
    def test_at_most_one_helper_and_none_outlives_the_call(self, monkeypatch, call, helpers, fails):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(oracles.threading, "Thread", Counted)
        before = threading.active_count()
        with pytest.raises(ValueError) if fails else contextlib.nullcontext():
            call()
        assert len(started) == helpers
        assert threading.active_count() == before

    def test_failed_draw_is_raised_by_the_caller(self, monkeypatch):
        class Failing:
            def __init__(self, seed):
                self.rng, self.calls = make_rng(seed), 0

            def standard_normal(self, *args, **kwargs):
                # calls 1 and 2 draw block 0 on the caller; 3 is block 1's x
                self.calls += 1
                if self.calls == 3:
                    raise MemoryError("no room for block 1")
                return self.rng.standard_normal(*args, **kwargs)

        make_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", Failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="block 1"):
            mc_rect_sup(SQUARE, 25_000, 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("quadratic", [False, True], ids=["rect", "fov"])
    def test_two_full_blocks_and_a_partial_one_keep_the_stream_order(self, quadratic):
        a = rand_complex(np.random.default_rng(12), 4, 4 if quadratic else 3)
        expected = _reference_forms(a, 25_000, 13, quadratic, BLOCK)
        report = _sample(a, 25_000, 13, quadratic)
        assert np.max(np.abs(report.points - expected)) <= 1e-15 * np.abs(a).max()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_flat_in_the_sample_count():
    a = rand_complex(np.random.default_rng(6), 8, 7)
    mc_rect_sup(a, 100, 0)  # first-call allocations stay out of the peaks
    peak_100k = _peak_bytes(lambda: mc_rect_sup(a, 100_000, 1))
    peak_300k = _peak_bytes(lambda: mc_rect_sup(a, 300_000, 1))
    assert peak_300k <= 1.1 * peak_100k
    assert max(peak_100k, peak_300k) <= 12e6


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


SQUARE = rand_complex(np.random.default_rng(3), 3, 3)
SEEDED_CALLS = {
    "mc_rect_sup": lambda count, seed: mc_rect_sup(SQUARE, count, seed),
    "mc_fov_samples": lambda count, seed: mc_fov_samples(SQUARE, count, seed),
    "power_sigma_max": lambda count, seed: power_sigma_max(SQUARE, count, seed),
    "projector_intersection_check":
        lambda count, seed: projector_intersection_check(SQUARE, 2, count, seed),
    "norm_range_union": lambda count, seed: norm_range_union(SQUARE, count, seed),
}
COUNT_NAMES = {"mc_rect_sup": "n_samples", "mc_fov_samples": "n_samples",
               "power_sigma_max": "n_iters", "projector_intersection_check": "n_trials",
               "norm_range_union": "n_samples"}
BAD_COUNTS = [(True, TypeError, "n_samples must be an integer, got bool"),
              (np.True_, TypeError, "n_samples must be an integer, got bool"),
              (2.5, TypeError, "n_samples must be an integer, got float"),
              (10.0, TypeError, "n_samples must be an integer, got float"),
              (0, ValueError, "n_samples must be >= 1"),
              (-3, ValueError, "n_samples must be >= 1")]
HOSTILE_ARGUMENTS = (
    [(name, count, 0, error, message) for name in ("mc_rect_sup", "mc_fov_samples")
     for count, error, message in BAD_COUNTS]
    + [(name, 10, -1, ValueError, "seed must be non-negative, got -1") for name in SEEDED_CALLS]
    + [(name, True, 0, TypeError, f"{COUNT_NAMES[name]} must be an integer, got bool")
       for name in ("power_sigma_max", "projector_intersection_check", "norm_range_union")]
    + [(name, 10, seed, TypeError, f"seed must be an integer, got {kind}")
       for name in SEEDED_CALLS for seed, kind in ((True, "bool"), (np.True_, "bool"), (2.0, "float"))])


@pytest.mark.parametrize("name, count, seed, error, message", HOSTILE_ARGUMENTS,
                         ids=[f"{name}-seed={seed!r}" if seed != 0 else f"{name}-{COUNT_NAMES[name]}={count!r}"
                              for name, count, seed, _, _ in HOSTILE_ARGUMENTS])
def test_hostile_count_or_seed_raises(name, count, seed, error, message):
    with pytest.raises(error, match=message):
        SEEDED_CALLS[name](count, seed)


def test_oracles_import_nothing_from_region_modules():
    source = pathlib.Path(oracles.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "nrange" for name in imported), imported
    allowed = {"numpy", "dataclasses", "typing", "__future__", "threading"}
    assert imported <= allowed, imported
