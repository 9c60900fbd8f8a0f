import numpy as np
import pytest

from conftest import rand_complex
from nrange.fov import fov_boundary, sharp_points, support_point
from nrange.geometry import ConvexBoundary, curve_from_points, region_contains, support_gap
from nrange.oracles import mc_fov_samples
from nrange.projrange import ProjectorSetting, lower_range
from nrange.reference import TALL_EXAMPLE, TALL_EXAMPLE_FRAME

NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]])


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

    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    @pytest.mark.parametrize("n_angles", [8, 37, 720])
    def test_bit_identical_to_per_angle_loop(self, rng, n, n_angles):
        # n = 60 spans many stacked blocks; 37 angles leave a ragged last block
        a = rand_complex(rng, n, n)
        curve = fov_boundary(a, n_angles)
        support = np.empty(n_angles)
        points = np.empty(n_angles, dtype=complex)
        for j, theta in enumerate(curve.angles):
            rot = np.exp(-1j * theta) * a
            w, v = np.linalg.eigh((rot + rot.conj().T) / 2.0)
            x = v[:, -1]
            support[j], points[j] = w[-1], x.conj() @ a @ x
        assert np.array_equal(curve.support, support)
        assert np.array_equal(curve.points, points)

    def test_rejects_overflowing_hermitian_part(self):
        a = np.array([[1e308, 1e308], [-1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            fov_boundary(a, 16)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="angles"):
            fov_boundary(np.eye(2), 4)


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

    def test_reference_lower_range_corner_near_5i(self):
        curve = lower_range(ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME), 720)
        found = sharp_points(curve)
        # the true bend apex sits 3.17e-5 above 5i (non-reducing eigenvalue)
        assert min(abs(s.location - 5j) for s in found) <= 5e-5
