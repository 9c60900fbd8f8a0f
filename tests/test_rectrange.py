import numpy as np
import pytest

from conftest import rand_complex, rand_unit
from nrange.geometry import Circle, Disc, Point, default_angles, normalize_region
from nrange.linalg import random_isometry, sigma_max, svd
from nrange.oracles import mc_rect_sup
from nrange.rankk import find_witness, rank_k_region
from nrange.rectrange import (
    NormHypothesisError,
    _norm_discs,
    boundary_witness,
    center_bound_check,
    compression_radius,
    interior_witness,
    norm_range_disc,
    norm_range_union,
    range_disc,
    range_value,
    rank_one_value,
)
from nrange.reference import WIDE_EXAMPLE

SIGMA1 = float(svd(WIDE_EXAMPLE).sigma[0])


class TestRangeDisc:
    def test_column_vector(self):
        assert range_disc(np.array([3.0, 4.0])) == Disc(0j, 5.0)

    def test_zero_matrix_degrades_to_point(self):
        assert range_disc(np.zeros((3, 2))) == Point(0j)

    def test_reference_radius_against_sampling(self):
        region = range_disc(WIDE_EXAMPLE)
        assert isinstance(region, Disc)
        report = mc_rect_sup(WIDE_EXAMPLE, 100_000, 4242)
        assert 0.97 * SIGMA1 <= report.sup_abs <= region.radius + 1e-12

    def test_scalar_returns_circle_with_warning(self):
        with pytest.warns(UserWarning, match="circle"):
            region = range_disc(np.array([[3 + 4j]]))
        assert region == Circle(0j, 5.0)

    def test_scaling(self, rng):
        a = rand_complex(rng, 3, 4)
        r = range_disc(a).radius
        assert range_disc(2.5j * a).radius == pytest.approx(2.5 * r, rel=1e-12)

    def test_adjoint_same_disc(self, rng):
        a = rand_complex(rng, 3, 5)
        assert range_disc(a.conj().T).radius == pytest.approx(range_disc(a).radius, abs=1e-10)

    def test_submatrix_radius_never_larger(self, rng):
        a = rand_complex(rng, 4, 5)
        r = range_disc(a).radius
        for rows in ([0, 1], [1, 3], [0, 2, 3]):
            for cols in ([0, 1], [2, 4], [0, 1, 3]):
                sub = a[np.ix_(rows, cols)]
                assert range_disc(sub).radius <= r + 1e-10

    def test_block_diagonal_radius_is_max(self, rng):
        a, b = rand_complex(rng, 3, 2), rand_complex(rng, 2, 3)
        blk = np.zeros((5, 5), dtype=complex)
        blk[:3, :2] = a
        blk[3:, 2:] = b
        expected = max(range_disc(a).radius, range_disc(b).radius)
        assert range_disc(blk).radius == pytest.approx(expected, rel=1e-12)

    def test_sum_radius_subadditive(self, rng):
        a, b = rand_complex(rng, 3, 4), rand_complex(rng, 3, 4)
        assert range_disc(a + b).radius <= range_disc(a).radius + range_disc(b).radius + 1e-10

    def test_unitary_invariance(self, rng):
        a = rand_complex(rng, 4, 3)
        u = random_isometry(4, 4, seed=5)
        v = random_isometry(3, 3, seed=6)
        assert range_disc(u.conj().T @ a @ v).radius == pytest.approx(
            range_disc(a).radius, abs=1e-10
        )

    def test_halfplane_support_constant(self):
        # rotating the matrix never changes the supporting half-plane distance
        tops = [sigma_max(np.exp(-1j * t) * WIDE_EXAMPLE) for t in np.linspace(0, 2 * np.pi, 720)]
        assert np.max(np.abs(np.array(tops) - SIGMA1)) <= 1e-8


class TestRangeValue:
    def test_top_singular_pair_attains_radius(self):
        dec = svd(WIDE_EXAMPLE)
        val = range_value(WIDE_EXAMPLE, dec.right[:, 0], dec.left[:, 0])
        assert abs(val) == pytest.approx(SIGMA1, abs=1e-10)

    def test_orthogonal_image_gives_zero(self, rng):
        a = rand_complex(rng, 4, 2)
        x = rand_unit(rng, 2)
        img = a @ x
        y = rand_unit(rng, 4)
        y = y - img * (img.conj() @ y) / (np.linalg.norm(img) ** 2)
        y /= np.linalg.norm(y)
        assert abs(range_value(a, x, y)) <= 1e-10

    def test_entry_read(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([1.0, 0.0])
        assert range_value(WIDE_EXAMPLE, x, y) == pytest.approx(6 + 1j)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            range_value(WIDE_EXAMPLE, np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0]))

    def test_embedding_into_doubled_quadratic_form(self, rng):
        # every witness value is a quadratic-form value of [[0, 2A], [0, 0]]
        a = rand_complex(rng, 3, 2)
        big = np.zeros((5, 5), dtype=complex)
        big[:3, 3:] = 2.0 * a
        for _ in range(20):
            x, y = rand_unit(rng, 2), rand_unit(rng, 3)
            omega = np.concatenate([y, x]) / np.sqrt(2.0)
            z = range_value(a, x, y)
            assert abs(omega.conj() @ big @ omega - z) <= 1e-10


class TestWitnesses:
    def test_boundary_witness_around_circle(self):
        for j in range(8):
            theta = j * np.pi / 4
            wit = boundary_witness(WIDE_EXAMPLE, theta)
            assert abs(wit.value - SIGMA1 * np.exp(1j * theta)) <= 1e-9
            assert abs(np.linalg.norm(wit.x) - 1) <= 1e-10
            assert abs(np.linalg.norm(wit.y) - 1) <= 1e-10

    def test_boundary_witness_diagonal(self):
        a = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert boundary_witness(a, 0.0).value == pytest.approx(3.0, abs=1e-12)
        assert boundary_witness(a, np.pi / 2).value == pytest.approx(3j, abs=1e-12)

    def test_zero_matrix_has_no_boundary_witness(self):
        with pytest.raises(ValueError, match="witness"):
            boundary_witness(np.zeros((2, 2)), 0.0)

    def test_interior_witness_zero(self):
        wit = interior_witness(WIDE_EXAMPLE, 0j)
        assert abs(wit.value) <= 1e-12

    def test_interior_witness_boundary_case(self):
        wit = interior_witness(WIDE_EXAMPLE, SIGMA1 + 0j)
        assert wit.value == pytest.approx(SIGMA1, abs=1e-9)

    def test_interior_witness_generic(self):
        z = SIGMA1 / 2 * np.exp(1j * np.pi / 3)
        wit = interior_witness(WIDE_EXAMPLE, z)
        assert abs(wit.value - z) <= 1e-9
        assert abs(np.linalg.norm(wit.y) - 1) <= 1e-10

    def test_interior_witness_single_row_swaps_roles(self):
        a = np.array([[2.0, 1j, 0.5]])
        z = 0.7 * np.exp(0.4j) * sigma_max(a)
        wit = interior_witness(a, z)
        assert abs(wit.value - z) <= 1e-9
        assert wit.x.shape == (3,) and wit.y.shape == (1,)

    def test_interior_witness_rejects_outside(self):
        with pytest.raises(ValueError, match="exceeds"):
            interior_witness(WIDE_EXAMPLE, 2 * SIGMA1)


SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (5, 5), (6, 3)]


class TestRankOneCertificate:
    """The bilinear range is the rank-1 range, and its witnesses the rank-1 certificate."""

    @pytest.mark.filterwarnings("ignore:1x1 input")
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_range_disc_is_rank_k_region_at_k1(self, rng, shape, scale):
        a = rand_complex(rng, *shape) * scale
        for arr in (a, np.zeros(shape), a.conj().T):
            assert repr(range_disc(arr)) == repr(rank_k_region(arr, 1).region)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_interior_witness_is_find_witness_pair(self, rng, shape):
        a = rand_complex(rng, *shape)
        top = sigma_max(a)
        phase = np.exp(0.7j)
        values = [top * phase] if shape == (1, 1) else [0j, 0.4 * top * phase, top * phase,
                                                        top * (1 - 1e-13) * phase]
        for z in values:
            wit = interior_witness(a, z)
            pair = find_witness(a, 1, z)
            assert pair.residual <= 1e-8 and pair.iterations == 1
            assert np.array_equal(wit.x, pair.right[:, 0]) and np.array_equal(wit.y, pair.left[:, 0])
            assert abs(wit.value - z) <= 1e-12 * top

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_boundary_witness_attains_sigma1(self, rng, shape):
        a = rand_complex(rng, *shape)
        top = sigma_max(a)
        for theta in default_angles(12):
            wit = boundary_witness(a, theta)
            assert abs(np.linalg.norm(wit.x) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(wit.y) - 1.0) <= 1e-12
            assert abs(abs(wit.value) - top) <= 1e-12 * top
            assert abs(wit.value - top * np.exp(1j * theta)) <= 1e-12 * top

    @pytest.mark.parametrize(
        "a, z, message",
        [
            (WIDE_EXAMPLE, SIGMA1 * (1 + 1e-9), "exceeds"),
            (np.eye(2), complex(1.7e308, 1.7e308), "modulus"),
            (np.eye(2), complex(np.nan, 0.0), "finite"),
            (np.array([[3 + 4j]]), 4.0, "circle"),
            (np.array([[3 + 4j]]), 0j, "circle"),
        ],
        ids=["past-the-band", "modulus-overflows", "nan", "1x1-inside", "1x1-origin"],
    )
    def test_no_pair_is_value_error(self, a, z, message):
        # interior_witness(np.eye(2), complex(1.7e308, 1.7e308)) raised OverflowError
        with pytest.raises(ValueError, match=message):
            interior_witness(a, z)

    def test_band_is_relative(self):
        for scale in (1e-300, 1.0, 1e300):
            a = WIDE_EXAMPLE * scale
            top = sigma_max(a)
            assert interior_witness(a, top * (1 + 1e-11)).value == pytest.approx(top, rel=1e-10)
            with pytest.raises(ValueError, match="exceeds"):
                interior_witness(a, top * (1 + 1e-9))

    def test_scalar_witness_on_its_circle(self):
        wit = interior_witness(np.array([[3 + 4j]]), -5j)
        assert wit.value == pytest.approx(-5j, abs=1e-15)
        assert wit.x.shape == wit.y.shape == (1,)


class TestCompression:
    def test_top_pair_attains(self):
        dec = svd(WIDE_EXAMPLE)
        val = compression_radius(WIDE_EXAMPLE, dec.left[:, :1], dec.right[:, :1])
        assert val == pytest.approx(SIGMA1, abs=1e-10)

    def test_full_bases_unitary_invariance(self):
        u = random_isometry(2, 2, seed=3)
        v = random_isometry(3, 3, seed=4)
        assert compression_radius(WIDE_EXAMPLE, u, v) == pytest.approx(SIGMA1, abs=1e-10)

    def test_random_frames_never_exceed(self):
        best = 0.0
        for i in range(200):
            lf = random_isometry(2, 1 + i % 2, seed=(9, i))
            rf = random_isometry(3, 1 + (i // 2) % 3, seed=(10, i))
            val = compression_radius(WIDE_EXAMPLE, lf, rf)
            assert val <= SIGMA1 + 1e-10
            best = max(best, val)
        assert best <= SIGMA1 + 1e-10

    def test_identity_right_basis_attains_with_left_frames(self):
        # full right basis: maximizing over left frames recovers the radius
        dec = svd(WIDE_EXAMPLE)
        lf = dec.left[:, :1]
        val = compression_radius(WIDE_EXAMPLE, lf, np.eye(3, dtype=complex))
        assert val == pytest.approx(SIGMA1, abs=1e-10)

    def test_rejects_bad_frame(self, rng):
        with pytest.raises(ValueError):
            compression_radius(WIDE_EXAMPLE, rand_complex(rng, 2, 2), np.eye(3))


class TestNormRange:
    def test_rotated_copy_gives_boundary_point(self):
        frob = float(np.linalg.norm(WIDE_EXAMPLE))
        for theta in (0.0, 1.1, np.pi):
            b0 = np.exp(-1j * theta) * WIDE_EXAMPLE / frob
            region = norm_range_disc(WIDE_EXAMPLE, b0)
            assert region == Point(pytest.approx(frob * np.exp(1j * theta), abs=1e-9))

    def test_unit_norm_comparison_gives_point(self, rng):
        g = rand_complex(rng, 2, 3)
        b = g / np.linalg.norm(g)
        region = norm_range_disc(WIDE_EXAMPLE, b)
        assert isinstance(region, Point)

    def test_random_discs_inside_frobenius_disc(self, rng):
        frob = float(np.linalg.norm(WIDE_EXAMPLE))
        for _ in range(50):
            g = rand_complex(rng, 2, 3)
            b = g / np.linalg.norm(g) * rng.uniform(1.0, 3.0)
            region = norm_range_disc(WIDE_EXAMPLE, b)
            assert isinstance(region, Disc)
            assert abs(region.center) + region.radius <= frob + 1e-9

    def test_rejects_small_comparison(self, rng):
        g = rand_complex(rng, 2, 3)
        with pytest.raises(NormHypothesisError, match="1"):
            norm_range_disc(WIDE_EXAMPLE, 0.5 * g / np.linalg.norm(g))

    def test_union_report(self):
        report = norm_range_union(WIDE_EXAMPLE, 2000, 77)
        assert report.containment_violations == 0
        assert report.sup_abs == pytest.approx(report.frobenius_radius, abs=1e-9)
        assert report.frobenius_radius**2 == pytest.approx(98.25, abs=1e-9)

    def test_union_zero_matrix(self):
        report = norm_range_union(np.zeros((2, 2)), 50, 0)
        assert report.sup_abs == 0.0
        assert report.containment_violations == 0

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (4, 1), (2, 3), (3, 3), (8, 7)])
    def test_union_matches_per_comparison_discs(self, rng, m, n):
        a = rand_complex(rng, m, n)
        frob = float(np.linalg.norm(a))
        for seed in (0, 3, 11):
            draws = np.random.default_rng(seed)
            shape = (50, m, n)
            g = draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
            scales = draws.uniform(1.0, 3.0, 50)
            comparisons = [gi / np.linalg.norm(gi) * s for gi, s in zip(g, scales)]
            comparisons += [np.exp(-1j * theta) / frob * a for theta in default_angles(32)]
            reach = []
            for b in comparisons:
                match norm_range_disc(a, b):
                    case Disc(c, r):
                        reach.append(abs(c) + r)
                    case Point(z):
                        reach.append(abs(z))
            report = norm_range_union(a, 50, seed)
            assert report.n_samples == 50 and report.seed == seed
            assert report.n_discs == len(comparisons)
            assert report.containment_violations == sum(r > frob + 1e-9 for r in reach)
            assert report.frobenius_radius == frob
            assert abs(report.sup_abs - max(reach)) <= 1e-15 * max(reach)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (4, 1), (2, 3), (3, 3), (8, 7)])
    def test_disc_is_bit_identical_to_the_union_disc(self, rng, m, n):
        # the comparisons in norm_range_union's documented draw order
        a = rand_complex(rng, m, n)
        frob = float(np.linalg.norm(a))
        for seed in (0, 3, 11):
            draws = np.random.default_rng(seed)
            shape = (200, m, n)
            g = draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
            scale = draws.uniform(1.0, 3.0, 200)
            b = g / np.linalg.norm(g, axis=(1, 2))[:, None, None] * scale[:, None, None]
            phases = np.exp(-1j * default_angles(32)) / frob
            b = np.concatenate([b, phases[:, None, None] * a])
            discs = [norm_range_disc(a, bi) for bi in b]
            centres, radii = _norm_discs(a, b)
            for disc, c, r in zip(discs, centres, radii):
                assert disc == normalize_region(Disc(complex(c), float(r)))
            # |centre| + radius as one array pass, the way the union forms it
            parts = [(d.center, d.radius) if isinstance(d, Disc) else (d.z, 0.0) for d in discs]
            reach = np.abs([c for c, _ in parts]) + [r for _, r in parts]
            report = norm_range_union(a, 200, seed)
            assert report.sup_abs == reach.max()
            assert report.containment_violations == np.count_nonzero(reach > frob + 1e-9)

    def test_union_containment_across_random_matrices(self, rng):
        for trial in range(20):
            a = rand_complex(rng, 2 + trial % 3, 2 + (trial // 2) % 3)
            report = norm_range_union(a, 100, seed=trial)
            assert report.containment_violations == 0


class TestCenterBound:
    def test_embedded_unitary_hypothesis_holds(self, rng):
        u = random_isometry(3, 3, seed=11)
        b = np.vstack([u, np.zeros((2, 3))])
        a = rand_complex(rng, 5, 3)
        flags = center_bound_check(a, b)
        assert flags.hypothesis_held and flags.bound_holds

    def test_zero_matrix_bound_trivial(self, rng):
        b = rand_complex(rng, 2, 2)
        flags = center_bound_check(np.zeros((2, 2)), b)
        assert flags.bound_holds

    def test_500_random_comparisons(self, rng):
        a = WIDE_EXAMPLE
        held = 0
        for _ in range(500):
            b = rand_complex(rng, 2, 3)
            if rng.uniform() < 0.5:
                b = b / np.linalg.norm(b) * rng.uniform(0.2, 4.0)
            flags = center_bound_check(a, b)
            if flags.hypothesis_held:
                held += 1
                assert flags.bound_holds
        assert held > 0

    def test_rejects_zero_comparison(self):
        with pytest.raises(ValueError, match="nonzero"):
            center_bound_check(WIDE_EXAMPLE, np.zeros((2, 3)))


class TestRankOneValue:
    def test_entry_read(self):
        y = np.array([1.0, 0.0])
        x = np.array([1.0, 0.0, 0.0])
        assert rank_one_value(WIDE_EXAMPLE, y, x) == pytest.approx(6 + 1j)

    def test_singular_pair(self):
        dec = svd(WIDE_EXAMPLE)
        val = rank_one_value(WIDE_EXAMPLE, dec.left[:, 0], dec.right[:, 0])
        assert val == pytest.approx(SIGMA1, abs=1e-10)

    def test_equals_range_value_everywhere(self, rng):
        for _ in range(1000):
            y, x = rand_unit(rng, 2), rand_unit(rng, 3)
            lhs = rank_one_value(WIDE_EXAMPLE, y, x)
            rhs = range_value(WIDE_EXAMPLE, x, y)
            assert abs(lhs - rhs) <= 1e-12

    def test_rank_one_decomposition_of_unit_comparison(self, rng):
        # any unit-Frobenius rank-one comparison produces an in-range value
        for _ in range(50):
            b = np.outer(rand_unit(rng, 2), rand_unit(rng, 3).conj())
            val = np.vdot(b, WIDE_EXAMPLE)
            assert abs(val) <= SIGMA1 + 1e-10
