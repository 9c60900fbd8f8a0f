import ctypes
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import rand_complex
from nrange import fov
from nrange.fov import fov_boundary, sharp_points, support_point
from nrange.geometry import (
    BoundaryCurve,
    ConvexBoundary,
    curve_from_points,
    default_angles,
    region_contains,
    support_gap,
)
from nrange.linalg import times_pow2
from nrange.oracles import mc_fov_samples
from nrange.projrange import ProjectorSetting, lower_range
from nrange.reference import TALL_EXAMPLE, TALL_EXAMPLE_FRAME

NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]])

BAD_ANGLES = [(True, TypeError, "n_angles must be an integer, got bool"),
              (np.True_, TypeError, "n_angles must be an integer, got bool"),
              (720.0, TypeError, "n_angles must be an integer, got float"),
              ("16", TypeError, "n_angles must be an integer, got str"),
              (None, TypeError, "n_angles must be an integer, got NoneType"),
              (7, ValueError, "n_angles must be >= 8, got 7"),
              (-720, ValueError, "got -720")]


def use_cpus(monkeypatch, count, blas_threads=1):
    """Make ``count`` CPUs look usable to this process, and BLAS look set to ``blas_threads``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(fov, "_blas_thread_query", lambda: lambda: blas_threads)


@pytest.fixture
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread, as the benchmark does, where it can be set.

    Many sweep threads over a multi-threaded OpenBLAS contend for its threads
    and run up to 20x slower; pinning it keeps the oversubscribed cases fast.
    """
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    names = [name.replace("_get_", "_set_") for name in fov._BLAS_THREAD_QUERIES]
    setter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    query = fov._blas_thread_query()
    if setter is None or query is None:
        yield
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    before = query()
    setter(1)
    try:
        yield
    finally:
        setter(before)


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counting(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return threads


class TestSupportPoint:
    def test_hermitian_at_zero_angle(self):
        p, z = support_point(np.diag([1.0, 3.0]), 0.0)
        assert p == pytest.approx(3.0, abs=1e-12)
        assert z == pytest.approx(3.0, abs=1e-12)

    def test_identity_every_angle(self):
        for theta in np.linspace(0, 2 * np.pi, 9):
            p, z = support_point(np.eye(3), theta)
            assert z == pytest.approx(1.0, abs=1e-12)
            assert p == pytest.approx(np.cos(theta), abs=1e-12)

    def test_nilpotent_boundary_magnitude_one(self):
        # cross-checked against the sampled hull of the quadratic form
        assert mc_fov_samples(NILPOTENT, 100_000, 3).sup_abs <= 1.0 + 1e-12
        for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            p, z = support_point(NILPOTENT, theta)
            assert abs(z) == pytest.approx(1.0, abs=1e-10)
            assert np.real(np.exp(-1j * theta) * z) == pytest.approx(p, abs=1e-10)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            support_point(np.zeros((2, 3)), 0.0)


class TestFovBoundary:
    def test_hermitian_segment_support(self):
        curve = fov_boundary(np.diag([1.0, 3.0]), 720)
        expected = np.maximum(3.0 * np.cos(curve.angles), 1.0 * np.cos(curve.angles))
        assert np.max(np.abs(curve.support - expected)) <= 1e-10

    def test_nilpotent_circle(self):
        curve = fov_boundary(NILPOTENT, 720)
        assert np.max(np.abs(curve.support - 1.0)) <= 1e-8
        assert np.max(np.abs(np.abs(curve.points) - 1.0)) <= 1e-8

    def test_eigenvalues_inside(self, rng):
        for trial in range(50):
            n = 2 + trial % 7
            a = rand_complex(rng, n, n)
            region = ConvexBoundary(fov_boundary(a, 180))
            for lam in np.linalg.eigvals(a):
                assert region_contains(region, complex(lam), 1e-8)

    def test_monte_carlo_samples_inside(self, rng):
        a = rand_complex(rng, 4, 4)
        region = ConvexBoundary(fov_boundary(a, 360))
        points = mc_fov_samples(a, 5000, 17).points
        assert all(region_contains(region, complex(z), 1e-8) for z in points)

    def test_normal_matrix_equals_eigenvalue_hull(self, rng):
        for trial in range(20):
            n = 2 + trial % 5
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = np.linalg.qr(rand_complex(rng, n, n))[0]
            a = u @ np.diag(lam) @ u.conj().T
            swept = fov_boundary(a, 240)
            hull = curve_from_points(lam, swept.angles)
            assert support_gap(swept, hull) <= 1e-8
            assert support_gap(hull, swept) <= 1e-8

    def test_rotation_equivariance(self, rng):
        a = rand_complex(rng, 3, 3)
        base = fov_boundary(a, 360)
        phi = base.angles[30]  # grid-aligned rotation shifts support by 30 slots
        rotated = fov_boundary(np.exp(1j * phi) * a, 360)
        assert np.max(np.abs(np.roll(base.support, 30) - rotated.support)) <= 1e-9

    @staticmethod
    def _per_angle(a, theta):
        rot = np.exp(-1j * theta) * a
        return np.linalg.eigh((rot + rot.conj().T) / 2.0)

    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    @pytest.mark.parametrize("n_angles", [8, 37, 720])
    def test_bit_identical_to_per_angle_loop(self, rng, n, n_angles):
        # n = 60 spans many stacked blocks; 37 angles leave a ragged last block
        # and have no opposite pairs.  On an even grid the reference solves
        # only the first half: angle j + N/2 lies pi after angle j, and takes
        # the negated bottom eigenpair of angle j.
        a = rand_complex(rng, n, n)
        curve = fov_boundary(a, n_angles)
        lead = n_angles // 2 if n_angles % 2 == 0 else n_angles
        support = np.empty(n_angles)
        points = np.empty(n_angles, dtype=complex)
        for j in range(lead):
            w, v = self._per_angle(a, curve.angles[j])
            x = v[:, -1]
            support[j], points[j] = w[-1], x.conj() @ a @ x
            if lead < n_angles:
                y = v[:, 0]
                support[j + lead], points[j + lead] = -w[0], y.conj() @ a @ y
        assert np.array_equal(curve.support, support)
        assert np.array_equal(curve.points, points)

    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    @pytest.mark.parametrize("n_angles", [8, 37, 720])
    def test_every_angle_near_its_own_top_eigenpair(self, rng, n, n_angles):
        a = rand_complex(rng, n, n)
        curve = fov_boundary(a, n_angles)
        support = np.empty(n_angles)
        points = np.empty(n_angles, dtype=complex)
        for j, theta in enumerate(curve.angles):
            w, v = self._per_angle(a, theta)
            x = v[:, -1]
            support[j], points[j] = w[-1], x.conj() @ a @ x
        tol = 1e-13 * np.linalg.norm(a, 2)
        assert np.max(np.abs(curve.support - support)) <= tol
        assert np.max(np.abs(curve.points - points)) <= tol

    @pytest.mark.parametrize("n", [2, 60])
    @pytest.mark.parametrize("n_angles", [720, 37])
    def test_solves_half_of_an_even_grid(self, rng, monkeypatch, n, n_angles):
        solved = []
        eigh = np.linalg.eigh

        def counting(h):
            solved.append(1 if h.ndim == 2 else h.shape[0])
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        fov_boundary(rand_complex(rng, n, n), n_angles)
        assert sum(solved) == (n_angles // 2 if n_angles % 2 == 0 else n_angles)

    def test_rejects_overflowing_hermitian_part(self):
        # this matrix was refused, because its Hermitian part overflows at
        # theta = 0; the sweep now runs on it over 2**624, and the segment
        # between its eigenvalues 1e308 (1 +- i) has a finite support
        a = np.array([[1e308, 1e308], [-1e308, 1e308]])
        curve = fov_boundary(a, 16)
        assert curve.support.max() == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
        small = fov_boundary(a / 2.0**1020, 16)
        assert np.array_equal(curve.support, times_pow2(small.support, 1020))
        assert np.array_equal(curve.points, times_pow2(small.points, 1020))

    @pytest.mark.parametrize("j", [-1070, -900, -500, 500, 900, 1020])
    def test_sweep_of_a_power_of_two_multiple_is_exact(self, j):
        # unscaled, 55 of these 60 sweeps came out other than 2**j times
        # the sweep of a
        g = np.random.default_rng(j + 2000)
        for n in [*range(1, 9), 20, 60]:
            # the bits 2**j a keeps, at a size whose curve 2**1020 stays finite
            a = times_pow2(times_pow2(rand_complex(g, n, n) / 16, j), -j)
            curve, ref = fov_boundary(times_pow2(a, j), 64), fov_boundary(a, 64)
            assert np.array_equal(curve.support, times_pow2(ref.support, j)), n
            assert np.array_equal(curve.points, times_pow2(ref.points, j)), n

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="angles"):
            fov_boundary(np.eye(2), 4)

    @pytest.mark.parametrize("n_angles, error, message", BAD_ANGLES,
                             ids=[repr(n_angles) for n_angles, _, _ in BAD_ANGLES])
    def test_hostile_angle_count_raises_before_solving(self, monkeypatch, n_angles, error, message):
        def never(*args):
            raise AssertionError("solved before checking the angle count")

        monkeypatch.setattr(np.linalg, "eigh", never)
        with pytest.raises(error, match=message):
            fov_boundary(np.eye(3), n_angles)

    def test_accepts_numpy_integer_angle_count(self):
        curve = fov_boundary(np.eye(2), np.int64(16))
        assert len(curve.angles) == 16


class TestThreadedBlocks:
    @pytest.mark.parametrize("n", [9, 20, 60])
    @pytest.mark.parametrize("n_angles", [720, 37])
    def test_curve_is_bit_identical_for_every_cpu_count(self, rng, monkeypatch, one_blas_thread,
                                                        n, n_angles):
        # 8 threads on a 2-core host oversubscribe it; a tiny switch interval
        # makes the threads interleave between nearly every bytecode
        a = rand_complex(rng, n, n)
        curves = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 8):
                use_cpus(monkeypatch, cpus)
                before = threading.active_count()
                curves.append(fov_boundary(a, n_angles))
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        for curve in curves[1:]:
            assert np.array_equal(curve.support, curves[0].support)
            assert np.array_equal(curve.points, curves[0].points)

    @pytest.mark.parametrize("n, n_angles, cpus, workers", [
        (6, 720, 8, 1),    # one block runs inline
        (60, 720, 1, 1),   # one usable CPU
        (9, 720, 8, 2),    # two blocks: never more threads than blocks
        (20, 720, 2, 2),   # nine blocks on two CPUs
        (60, 720, 8, 8),   # ninety blocks on eight CPUs
        (60, 37, 8, 8),    # ten blocks, odd grid
    ])
    def test_threads_started(self, rng, monkeypatch, one_blas_thread, started, n, n_angles, cpus, workers):
        use_cpus(monkeypatch, cpus)
        fov_boundary(rand_complex(rng, n, n), n_angles)
        # the pool starts a thread only when no started one is idle
        assert len(started) == 0 if workers == 1 else 1 <= len(started) <= workers

    @pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_where_there_is_no_affinity_mask(self, monkeypatch, cpu_count, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(fov, "_blas_thread_query", lambda: lambda: 1)
        assert fov._workers(90) == workers

    @pytest.mark.parametrize("cpus, blas_threads, workers", [
        (2, 1, 2), (2, 2, 1), (8, 2, 4), (8, 3, 2), (2, 8, 1), (8, None, 1)])
    def test_cpus_are_shared_out_per_blas_thread(self, monkeypatch, cpus, blas_threads, workers):
        use_cpus(monkeypatch, cpus, blas_threads)
        if blas_threads is None:  # a BLAS whose thread count cannot be read
            monkeypatch.setattr(fov, "_blas_thread_query", lambda: None)
        assert fov._workers(90) == workers
        assert fov._workers(1) == 1

    def test_reads_the_blas_thread_count(self):
        query = fov._blas_thread_query()
        assert query is None or query() >= 1

    def test_threads_keep_the_callers_numpy_error_state(self, rng, monkeypatch, one_blas_thread):
        use_cpus(monkeypatch, 8)
        seen = []
        solve = fov._solve

        def recording(arr, angles):
            seen.append(np.geterr()["over"])
            return solve(arr, angles)

        monkeypatch.setattr(fov, "_solve", recording)
        with np.errstate(over="ignore"):
            fov_boundary(rand_complex(rng, 60, 60), 720)
        assert seen == ["ignore"] * 90

    def test_overflow_raises_through_the_threads(self, monkeypatch):
        # the rotated Hermitian part overflows near theta = 0 and theta = pi,
        # which are the first and the last of four blocks at n = 12
        a = np.full((12, 12), 1e308)
        messages = []
        for cpus in (1, 2, 8):
            use_cpus(monkeypatch, cpus)
            before = threading.active_count()
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite") as caught:
                    fov_boundary(a, 720)
            assert threading.active_count() == before
            messages.append(str(caught.value))
        assert len(set(messages)) == 1

    def test_earliest_failing_block_is_raised(self, rng, monkeypatch, one_blas_thread):
        def failing(arr, angles):
            raise ValueError(f"block from {angles[0]:.6f}")

        use_cpus(monkeypatch, 8)
        monkeypatch.setattr(fov, "_solve", failing)
        with pytest.raises(ValueError, match=r"block from 0\.000000"):
            fov_boundary(rand_complex(rng, 60, 60), 720)


class TestSharpPoints:
    def test_segment_endpoints(self):
        curve = fov_boundary(np.diag([1.0, 3.0]), 720)
        found = sharp_points(curve)
        locations = sorted(s.location.real for s in found)
        assert np.allclose(locations, [1.0, 3.0], atol=1e-9)
        for s in found:
            assert s.normal_cone_width == pytest.approx(np.pi, abs=0.02)

    def test_smooth_circle_has_none(self):
        assert sharp_points(fov_boundary(NILPOTENT, 720)) == []

    def test_single_point_region(self):
        found = sharp_points(fov_boundary(np.eye(2), 720))
        assert len(found) == 1
        assert found[0].location == pytest.approx(1.0)
        assert found[0].normal_cone_width == pytest.approx(2 * np.pi)

    def test_smooth_boundary_has_none_at_any_scale(self):
        # with the clustering tolerance floored at 1e-6, samples of this
        # smooth boundary merged into one spurious corner at every scale
        # up to 1e-9
        g = np.random.default_rng(0)
        a = (g.standard_normal((4, 3)) + 1j * g.standard_normal((4, 3)))[:3]
        for scale in (1e-300, 1e-150, 1e-12, 1e-9, 1.0, 1e150, 1e300):
            assert sharp_points(fov_boundary(scale * a)) == [], scale

    def test_reference_lower_range_corner_near_5i(self):
        curve = lower_range(ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME), 720)
        found = sharp_points(curve)
        # the true bend apex sits 3.17e-5 above 5i (non-reducing eigenvalue)
        assert min(abs(s.location - 5j) for s in found) <= 5e-5


def direct_sum(*blocks):
    """Block-diagonal complex matrix of the square ``blocks``."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


TALL_SETTING = ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME)
# runs of 4 and 6 samples that drift within the clustering tolerance, so the
# reported middle sample is told apart from its neighbours
JITTERED = np.concatenate([1 + 1e-9 * np.arange(4), np.exp(1j * np.linspace(0.5, 3.0, 6)),
                           -2j + 1e-9j * np.arange(6)])
SHARP_CURVES = {
    "diag-1-3-720": lambda: fov_boundary(np.diag([1.0, 3.0]), 720),
    "diag-1-3-37": lambda: fov_boundary(np.diag([1.0, 3.0]), 37),
    "triangle-360": lambda: fov_boundary(np.diag([1.0, 2j, -1 - 1j]), 360),
    "triangle-101": lambda: fov_boundary(np.diag([1.0, 2j, -1 - 1j]), 101),
    "nilpotent-plus-3-720": lambda: fov_boundary(direct_sum(NILPOTENT, [[3.0]]), 720),
    "nilpotent-plus-3-99": lambda: fov_boundary(direct_sum(NILPOTENT, [[3.0]]), 99),
    "tall-lower-720": lambda: lower_range(TALL_SETTING, 720),
    "tall-lower-359": lambda: lower_range(TALL_SETTING, 359),
    "nilpotent-720": lambda: fov_boundary(NILPOTENT, 720),
    "identity-8": lambda: fov_boundary(np.eye(2), 8),
    "jittered-runs-16": lambda: BoundaryCurve(default_angles(16), np.zeros(16), JITTERED),
}
# every corner as (Re, Im, normal cone width) in float.hex, recorded while
# sharp_points still walked the runs one at a time in Python
SHARP_RESULTS = {
    "diag-1-3-720": [('0x1.0000000000000p+0', '0x0.0p+0', '0x1.921fb54442d18p+1'),
                     ('0x1.8000000000000p+1', '0x0.0p+0', '0x1.921fb54442d18p+1')],
    "diag-1-3-37": [('0x1.0000000000000p+0', '0x0.0p+0', '0x1.87417218e7110p+1'),
                    ('0x1.8000000000000p+1', '0x0.0p+0', '0x1.9cfdf86f9e91fp+1')],
    "triangle-360": [('0x0.0p+0', '0x1.0000000000000p+1', '0x1.2d97c7f3321d2p+1'),
                     ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0', '0x1.2d97c7f3321d2p+1'),
                     ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.921fb54442d18p+0')],
    "triangle-101": [('0x0.0p+0', '0x1.0000000000000p+1', '0x1.2e96979b49175p+1'),
                     ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0', '0x1.2e96979b49175p+1'),
                     ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.8e2476a3e6e8cp+0')],
    "nilpotent-plus-3-720": [('0x1.8000000000000p+1', '0x0.0p+0', '0x1.3c1d3157153cep+1')],
    "nilpotent-plus-3-99": [('0x1.8000000000000p+1', '0x0.0p+0', '0x1.3cd329f7b8861p+1')],
    "tall-lower-720": [('0x0.0p+0', '0x1.400085269247cp+2', '0x1.1bb88150df7ffp+0')],
    "tall-lower-359": [('-0x1.d97ad72182f00p-22', '0x1.4000852589190p+2', '0x1.c9028545bbe4cp-1')],
    "nilpotent-720": [],
    "identity-8": [('0x1.0000000000000p+0', '0x0.0p+0', '0x1.921fb54442d18p+2')],
    "jittered-runs-16": [('0x0.0p+0', '-0x1.fffffff31d771p+0', '0x1.2d97c7f3321d2p+1'),
                         ('0x1.000000089705fp+0', '0x0.0p+0', '0x1.921fb54442d18p+0')],
}


@pytest.mark.parametrize("name", SHARP_CURVES)
def test_sharp_points_match_recorded_results(name):
    found = sharp_points(SHARP_CURVES[name]())
    assert [(s.location.real.hex(), s.location.imag.hex(), s.normal_cone_width.hex())
            for s in found] == SHARP_RESULTS[name]
