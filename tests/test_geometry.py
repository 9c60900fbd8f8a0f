import numpy as np
import pytest

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
    axis_intervals,
    convexity_defect,
    curve_from_points,
    default_angles,
    normalize_region,
    radial_interval,
    rebuild_support,
    region_contains,
    region_support_curve,
    support_gap,
)


def disc_curve(center, radius, n=32):
    return region_support_curve(Disc(center, radius), default_angles(n))


class TestContainment:
    def test_disc(self):
        assert region_contains(Disc(0j, 2.0), 1 + 1j)
        assert not region_contains(Disc(0j, 2.0), 2 + 1j)

    def test_annulus_excludes_hole(self):
        ring = Annulus(0j, 1.0, 2.0)
        assert not region_contains(ring, 0.5)
        assert region_contains(ring, 1.5j)
        assert region_contains(ring, 1.0)

    def test_ellipse_focal_boundary(self):
        ell = Ellipse(0j, 1 + 0j, 2.0)
        assert region_contains(ell, 1.5)  # |1.5| + |0.5| = 2
        assert not region_contains(ell, 1.6)

    def test_circle_is_boundary_only(self):
        ring = Circle(0j, 1.0)
        assert region_contains(ring, 1j, 1e-12)
        assert not region_contains(ring, 0.5, 1e-12)

    def test_segment_distance(self):
        seg = Segment(0j, 2 + 0j)
        assert region_contains(seg, 1 + 0j)
        assert region_contains(seg, 1 + 0.1j, 0.1 + 1e-12)
        assert not region_contains(seg, 3 + 0j, 0.5)

    def test_segment_longer_than_a_squared_float(self):
        # the squared length 1e400 raised OverflowError(34)
        seg = Segment(0j, 1e200 + 0j)
        assert region_contains(seg, 1 + 0j)
        assert region_contains(seg, 5e199 + 1e-12j, 1e-12)
        assert not region_contains(seg, -1 + 0j, 0.5)
        assert region_contains(Segment(-1e200j, 1e200j), 1e189 + 1e150j, 1e189)
        assert not region_contains(Segment(-1e200j, 1e200j), 1e190 + 0j, 1e189)

    def test_empty_and_point(self):
        assert not region_contains(Empty(), 0j, 10.0)
        assert region_contains(Point(1j), 1j)

    def test_convex_boundary_support_dominance(self):
        curve = disc_curve(0j, 1.0, 64)
        region = ConvexBoundary(curve)
        assert region_contains(region, 0.5 + 0.5j, 1e-9)
        assert not region_contains(region, 1.2, 1e-9)

    def test_monotone_in_radius(self):
        z = 1.3 + 0.4j
        inside = [r for r in np.linspace(0.1, 3.0, 30) if region_contains(Disc(0j, r), z)]
        assert inside == sorted(inside)
        assert inside and abs(inside[0] - abs(z)) < 0.11

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            region_contains(Disc(0j, 1.0), 0j, -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.3e308, 1.3e308)],
                             ids=["first-quadrant", "second-quadrant"])
    def test_finite_value_whose_modulus_overflows(self, z):
        # abs(z - c) raised OverflowError for every bounded kind
        bounded = [Point(0j), Segment(-1 + 0j, 1j), Disc(0j, 1e308), Circle(1 + 0j, 1.0),
                   Annulus(0j, 1.0, 2.0), Ellipse(-1 + 0j, 1 + 0j, 3.0),
                   ConvexBoundary(disc_curve(0j, 1e308, 64))]
        for region in bounded:
            assert not region_contains(region, z, 1e-12), region
        assert region_contains(Disc(0j, np.inf), z)


class TestNormalization:
    def test_disc_radius_zero(self):
        assert normalize_region(Disc(2j, 0.0)) == Point(2j)

    def test_annulus_collapses(self):
        assert normalize_region(Annulus(0j, 1.0, 1.0)) == Circle(0j, 1.0)
        assert normalize_region(Annulus(0j, 0.0, 2.0)) == Disc(0j, 2.0)
        assert normalize_region(Annulus(0j, 0.0, 0.0)) == Point(0j)

    def test_ellipse_degenerates(self):
        assert normalize_region(Ellipse(0j, 0j, 3.0)) == Disc(0j, 1.5)
        assert normalize_region(Ellipse(0j, 2 + 0j, 2.0)) == Segment(0j, 2 + 0j)


class TestCurves:
    def test_support_gap_identical_is_zero(self):
        curve = disc_curve(0.3 + 0.1j, 1.5)
        assert support_gap(curve, curve) == 0.0

    def test_support_gap_nested_discs(self):
        inner = disc_curve(0j, 1.0)
        outer = disc_curve(0j, 2.0)
        assert support_gap(inner, outer) == pytest.approx(-1.0, abs=1e-12)
        assert support_gap(outer, inner) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            support_gap(disc_curve(0j, 1.0, 32), disc_curve(0j, 1.0, 64))

    def test_rebuild_support_consistency(self):
        curve = disc_curve(0.5j, 2.0, 180)
        assert np.max(np.abs(rebuild_support(curve) - curve.support)) <= 1e-9
        assert convexity_defect(curve) <= 1e-9

    def test_curve_from_points_hull(self):
        pts = [0j, 1 + 0j, 1j]
        curve = curve_from_points(pts, default_angles(360))
        assert curve.support[0] == pytest.approx(1.0)  # direction of +Re
        assert convexity_defect(curve) <= 1e-12

    def test_requires_ascending_angles(self):
        with pytest.raises(ValueError, match="ascending"):
            BoundaryCurve(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2, dtype=complex))
        # NaN differences compare False to 0, so a NaN angle passed the test
        with pytest.raises(ValueError, match="ascending"):
            BoundaryCurve(np.array([0.0, np.nan, 1.0]), np.ones(3), np.ones(3, dtype=complex))

    @pytest.mark.parametrize("support, point", [(np.inf, 0j), (0.0, complex(0.0, np.nan))])
    def test_requires_finite_values(self, support, point):
        with pytest.raises(ValueError, match="not finite"):
            BoundaryCurve(np.array([0.0, 1.0]), np.array([0.0, support]), np.array([0j, point]))

    def test_axis_intervals_of_disc(self):
        curve = disc_curve(1 + 2j, 0.5, 64)
        (re_lo, re_hi), (im_lo, im_hi) = axis_intervals(curve)
        assert (re_lo, re_hi) == pytest.approx((0.5, 1.5))
        assert (im_lo, im_hi) == pytest.approx((1.5, 2.5))


class TestEllipseSupport:
    def test_matches_sampled_boundary_hull(self):
        ell = Ellipse(0j, 3 + 0j, 5.0)
        grid = default_angles(720)
        analytic = region_support_curve(ell, grid)
        # independent oracle: dense parametric sampling of the boundary
        t = np.linspace(0, 2 * np.pi, 20_000, endpoint=False)
        centre, c = 1.5, 1.5
        a_half = 2.5
        b_half = np.sqrt(a_half**2 - c**2)
        boundary = centre + a_half * np.cos(t) + 1j * b_half * np.sin(t)
        sampled = curve_from_points(boundary, grid)
        assert np.max(np.abs(analytic.support - sampled.support)) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="focal"):
            Ellipse(0j, 2 + 0j, 1.0)

    def test_focal_slack_is_relative(self):
        # under a slack floored at 1e-12 this ellipse, whose major axis is
        # shorter than its focal distance, was accepted
        with pytest.raises(ValueError, match="focal"):
            Ellipse(0j, 1e-13 + 0j, 0.0)
        # one rounding short of the focal distance is still an ellipse
        assert Ellipse(0j, 1e-300 + 0j, np.nextafter(1e-300, 0.0)).major_axis_length < 1e-300

    def test_axes(self):
        # foci 1 and 1 + 2i, focal sum 4: centre 1 + i, half axes 2 and sqrt(3)
        centre, half_major, half_minor, axis = Ellipse(1 + 0j, 1 + 2j, 4.0).axes()
        assert centre == 1 + 1j
        assert (half_major, half_minor) == pytest.approx((2.0, np.sqrt(3.0)))
        assert axis == pytest.approx(np.pi / 2)
        assert Ellipse(2j, 2j, 3.0).axes() == (2j, 1.5, 1.5, 0.0)


class TestRadialInterval:
    @pytest.mark.parametrize(
        "region,expected",
        [
            (Empty(), None),
            (Point(3 - 4j), (5.0, 5.0)),
            (Disc(0j, 1 / 3), (0.0, 1 / 3)),
            (Disc(3 + 4j, 2.0), (3.0, 7.0)),
            (Disc(3j, 4.0), (0.0, 7.0)),
            (Circle(0j, 1 / 3), (1 / 3, 1 / 3)),
            (Circle(3 + 4j, 2.0), (3.0, 7.0)),
            (Circle(1j, 3.0), (2.0, 4.0)),
            (Annulus(0j, 0.1, 1 / 3), (0.1, 1 / 3)),
            (Annulus(0.5j, 1.0, 2.0), (0.5, 2.5)),
            (Annulus(1.5j, 1.0, 2.0), (0.0, 3.5)),
            (Annulus(-3j, 1.0, 2.0), (1.0, 5.0)),
        ],
        ids=lambda v: repr(v),
    )
    def test_nearest_and_farthest_distance(self, region, expected):
        # exact: an origin-centred shape gives back its own radii
        assert radial_interval(region) == expected

    @pytest.mark.parametrize(
        "region",
        [
            Segment(-1 + 0j, 1 + 0j),
            Ellipse(0j, 1 + 0j, 2.0),
            ConvexBoundary(region_support_curve(Disc(0j, 1.0), default_angles(8))),
            1.0,
        ],
        ids=["Segment", "Ellipse", "ConvexBoundary", "float"],
    )
    def test_other_kinds_raise_type_error(self, region):
        with pytest.raises(TypeError, match="radial interval"):
            radial_interval(region)
