import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import rand_complex, rand_unit
from nrange.geometry import Circle, Disc, Point, default_angles, normalize_region
from nrange.linalg import random_isometry, sigma_max, svd
from nrange.oracles import mc_rect_sup
from nrange import rectrange
from nrange.rankk import find_witness, rank_k_region
from nrange.rectrange import (
    _CHUNK_BYTES,
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

    def test_zero_scalar_has_its_origin_witness(self):
        # the 1x1 zero matrix's range is its circle |z| = 0, yet z = 0 raised
        # "off the 1x1 range": the zero image asked for a complement direction
        wit = interior_witness(np.zeros((1, 1)), 0)
        assert wit.value == 0
        assert abs(wit.x[0]) == abs(wit.y[0]) == 1.0
        with pytest.raises(ValueError, match="circle"):
            interior_witness(np.zeros((1, 1)), 1e-300)


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

    def test_disc_is_exact_at_extreme_scales(self):
        # ||B||_F**2 overflowed: against B * 1e300 the radius read 2.4405, not
        # the 2.3894 that the direction of B fixes; A * 2**900 read an
        # infinite radius and A * 2**-900 a point
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        b = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        assert norm_range_disc(a, 1e300 * b).radius == pytest.approx(2.3893868787593076, rel=1e-14)
        # past B * 2**60 the slack 1 - ||B||_F**-2 rounds to 1, so the disc
        # only scales from there
        ref = norm_range_disc(a, 2.0 ** 60 * b)
        for ea in (-900, 0, 900):
            for eb in (60, 300, 900):
                disc = norm_range_disc(2.0 ** ea * a, 2.0 ** eb * b)
                shift = ea - eb + 60
                assert disc.center.real == np.ldexp(ref.center.real, shift)
                assert disc.center.imag == np.ldexp(ref.center.imag, shift)
                assert disc.radius == np.ldexp(ref.radius, ea)
        with pytest.raises(NormHypothesisError, match="got 4.03705e-271"):
            norm_range_disc(a, 2.0 ** -900 * b)
        # ||B||_F past the float range leaves the slack at 1, as at 2**60
        ones = np.ones((2, 3))
        assert norm_range_disc(a, 1.5e308 * ones).radius == pytest.approx(
            norm_range_disc(a, 2.0 ** 60 * ones).radius, rel=1e-15)

    def test_subnormal_matrices_keep_their_disc_and_refusal(self):
        # the squares of subnormal parts underflow: such an A read a point,
        # and such a B was refused with its norm read as 0; rescaling them
        # takes a power of two past 2**1023, which must not overflow
        draws = np.random.default_rng(0)
        b = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        ones = np.ones((2, 3))
        ref = norm_range_disc(ones, b)
        for tiny in (1e-310, 1e-320):
            disc = norm_range_disc(tiny * ones, b)
            # within one rounding of a subnormal product
            assert isinstance(disc, Disc)
            assert disc.radius == pytest.approx(tiny * ref.radius, rel=1e-14, abs=1e-323)
            assert disc.center.real == pytest.approx(tiny * ref.center.real, rel=1e-14, abs=1e-323)
            assert disc.center.imag == pytest.approx(tiny * ref.center.imag, rel=1e-14, abs=1e-323)
            with pytest.raises(NormHypothesisError, match="got 2.449"):
                norm_range_disc(b, tiny * ones)

    def test_small_parts_survive_a_large_neighbour(self):
        # the square of 1e300 overflowed, so the radius read nan; rescaling
        # stops at 2**±500, where 1e-30 keeps every bit (dividing by the
        # power of two at 1e300 itself would flush it to 0)
        assert norm_range_disc([[1e300, 1e-30]], [[0, 1]]) == Point(1e-30 + 0j)

    def test_one_entry_discs_are_points(self):
        # a 1x1 B is parallel to A, so the set is the point A / B: the radius
        # is 0, where rounding gave 1,511 of these 1,910 pairs a Disc of
        # radius about 1e-16
        draws = np.random.default_rng(0)
        a = rand_complex(draws, 1910, 1)[:, :, None]
        b = rand_complex(draws, 1910, 1)[:, :, None]
        b *= draws.uniform(1.0, 3.0, (1910, 1, 1)) / np.abs(b)
        for ai, bi in zip(a, b):
            assert norm_range_disc(ai, bi) == Point(pytest.approx(complex(ai[0, 0] / bi[0, 0]),
                                                                  rel=1e-15))
        assert np.array_equal(_norm_discs(a[0], b)[1], np.zeros(1910))

    def test_one_entry_union_is_points(self):
        # every disc of a 1x1 union, the 32 rotated copies included, is a
        # point, so sup_abs is the largest |centre| and carries no radius
        (n_discs, sup_abs, violations, frob), centre, radius = _one_stack_union(
            np.array([[1.1 + 0.9j]]), 200, 0)
        report = norm_range_union([[1.1 + 0.9j]], 200, 0)
        assert (report.n_discs, report.sup_abs) == (n_discs, sup_abs) == (232, np.abs(centre).max())
        assert report.containment_violations == violations == 0
        assert not radius.any()

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
        # the comparisons in norm_range_union's documented draw order, at A
        # and, on and beside the kernel's scaled branch, at A 2**-300 and 2**300
        a0 = rand_complex(rng, m, n)
        for a, seed in [(p * a0, seed) for p in (1.0, 2.0**-300, 2.0**300) for seed in (0, 3, 11)]:
            frob = float(np.linalg.norm(a))
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
            assert report.containment_violations == np.count_nonzero(reach > frob + 1e-9 * frob)

    def test_union_scales_exactly_by_powers_of_two(self):
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        ref = norm_range_union(a, 200, 1)
        for j in (-600, -1, 1, 600):
            report = norm_range_union(np.ldexp(1.0, j) * a, 200, 1)
            assert report.sup_abs == np.ldexp(ref.sup_abs, j)
            assert report.frobenius_radius == np.ldexp(ref.frobenius_radius, j)
            assert report.n_discs == ref.n_discs
            assert report.containment_violations == ref.containment_violations

    def test_union_at_extreme_scales_of_a(self):
        # ||A||_F underflowed to 0 at 2**-900, dropping the rotated copies, and
        # overflowed at 2**900; 1/||A||_F overflowed at 1e-310
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        ref = norm_range_union(a, 50, 1)
        for scale in (2.0**-900, 1e-310, 2.0**900):
            report = norm_range_union(scale * a, 50, 1)
            assert report.n_discs == ref.n_discs == 82
            assert report.frobenius_radius == pytest.approx(scale * ref.frobenius_radius, rel=1e-14)
            assert report.sup_abs == pytest.approx(scale * ref.sup_abs, rel=1e-14)

    def test_sup_abs_within_the_frobenius_radius_at_subnormal_scale(self):
        # read from discs scaled back into the subnormal range, sup_abs was
        # 1.026 times frobenius_radius here
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        # the power of two that puts the largest part in [2**-1070, 2**-1069)
        power = -1069 - np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1]
        a = np.ldexp(a.real, power) + 1j * np.ldexp(a.imag, power)
        report = norm_range_union(a, 50, 1)
        assert report.frobenius_radius > 0.0
        assert report.sup_abs <= report.frobenius_radius

    def test_union_containment_across_random_matrices(self, rng):
        for trial in range(20):
            a = rand_complex(rng, 2 + trial % 3, 2 + (trial // 2) % 3)
            report = norm_range_union(a, 100, seed=trial)
            assert report.containment_violations == 0


def _one_stack_union(a, n_samples, seed):
    """The union's report fields, and the centres and radii of all its
    discs, from every comparison in one stack and one ``_norm_discs`` call.

    The random comparisons are built as ``_comparisons`` builds a block:
    squared norms as sums of squares over the float view, then one in-place
    multiply by s / ||G||_F.
    """
    draws = np.random.default_rng(seed)
    shape = (n_samples, *a.shape)
    g = np.empty(shape, complex)
    g.real, g.imag = draws.standard_normal(shape), draws.standard_normal(shape)
    scale = draws.uniform(1.0, 3.0, n_samples)
    parts = g.view(float)
    ng = np.sqrt(np.einsum("ijk,ijk->i", parts, parts))
    keep = ng != 0.0
    g, ng, scale = g[keep], ng[keep], scale[keep]
    np.multiply(g.view(float), (scale / ng)[:, None, None], out=g.view(float))
    frob = float(np.linalg.norm(a))
    phases = np.exp(-1j * default_angles(32)) / frob
    b = np.concatenate([g, phases[:, None, None] * a])
    centre, radius = _norm_discs(a, b)
    reach = np.abs(centre) + radius
    fields = len(b), float(reach.max()), int(np.count_nonzero(reach > frob + 1e-9 * frob)), frob
    return fields, centre, radius


class TestBlockedUnion:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (8, 7)])
    def test_blocks_match_one_stack_bit_for_bit(self, rng, monkeypatch, m, n):
        discs = []

        def recording(*args):
            discs.append(_norm_discs(*args))
            return discs[-1]

        monkeypatch.setattr(rectrange, "_norm_discs", recording)
        a = rand_complex(rng, m, n)
        block = _CHUNK_BYTES // (16 * m * n)
        for n_samples in (1, block - 1, block, block + 1, 2000):
            discs.clear()
            report = norm_range_union(a, n_samples, n_samples + 5)
            fields = (report.n_discs, report.sup_abs, report.containment_violations,
                      report.frobenius_radius)
            expected, centre, radius = _one_stack_union(a, n_samples, n_samples + 5)
            assert fields == expected
            # the random discs too, not only the rotated copies that set sup_abs
            assert np.array_equal(np.concatenate([c for c, _ in discs]), centre)
            assert np.array_equal(np.concatenate([r for _, r in discs]), radius)

    def test_zero_draws_are_dropped(self, rng, monkeypatch):
        real_rng = np.random.default_rng

        class ZeroEveryThird:
            """Gaussian draws with every third sample's G set to zero."""

            def __init__(self, seed):
                self.draws = real_rng(seed)

            def standard_normal(self, shape):
                parts = self.draws.standard_normal(shape)
                parts[::3] = 0.0
                return parts

            def uniform(self, low, high, size):
                return self.draws.uniform(low, high, size)

        monkeypatch.setattr(np.random, "default_rng", ZeroEveryThird)
        a = rand_complex(rng, 8, 7)
        report = norm_range_union(a, 2000, 4)
        # 667 of the 2000 G are zero, across more than one block
        assert report.n_discs == 1333 + 32
        assert report.containment_violations == 0
        assert report.sup_abs == pytest.approx(report.frobenius_radius, rel=1e-12)

    def test_peak_memory_is_below_two_comparison_stacks(self, rng):
        a = rand_complex(rng, 8, 7)
        stack_bytes = 2000 * a.size * 16
        norm_range_union(a, 2000, 0)
        tracemalloc.start()
        try:
            norm_range_union(a, 2000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-stack version peaked at 4.2 stacks
        assert peak < 2 * stack_bytes

    def test_violation_count_at_extreme_scales(self):
        # an absolute 1e-9 slack counted 29 of 82 discs outside at 2**900
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2, 3)) + 1j * draws.standard_normal((2, 3))
        a = a / np.abs(a).max()
        for power in (-900, 0, 900):
            report = norm_range_union(2.0**power * a, 50, 1)
            assert report.n_discs == 82
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

    def test_sharp_bound_at_extreme_scales(self, rng):
        # B = u1 v1* puts the centre on sigma_1; an absolute 1e-9 slack
        # failed about half of these at 2**600
        for _ in range(200):
            a = rand_complex(rng, 3, 3)
            u, _, vh = np.linalg.svd(a)
            b = np.outer(u[:, 0], vh[0])
            for power in (-600, 0, 600):
                assert center_bound_check(2.0**power * a, b).bound_holds

    def test_rejects_zero_comparison(self):
        with pytest.raises(ValueError, match="nonzero"):
            center_bound_check(WIDE_EXAMPLE, np.zeros((2, 3)))

    def test_flags_at_extreme_scales_of_b(self):
        # ||B||_F**2 underflowed to 0 at 2**-600 (ZeroDivisionError), and the
        # singular values' norm overflowed at 2**600 (RuntimeWarning)
        draws = np.random.default_rng(0)
        a, b = rand_complex(draws, 3, 3), 100 * rand_complex(draws, 3, 3)
        flags = center_bound_check(a, b)
        assert flags == (True, True)
        rank = np.linalg.matrix_rank(b)
        centre = abs(np.vdot(b, a)) / np.linalg.norm(b) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert center_bound_check(a, 2.0**600 * b) == flags
            # the true ||B||_F is 2**-600 of B's and the centre 2**600 times B's
            small = center_bound_check(a, 2.0**-600 * b)
            assert small.hypothesis_held == (np.ldexp(np.linalg.norm(b), -600) >= np.sqrt(rank))
            assert small.bound_holds == (np.ldexp(centre, 600) <= 1.000000001 * sigma_max(a))
            assert small == (False, False)
            # subnormal comparisons, the last with only a few nonzero parts
            for power in (-1060, -1070, -1080):
                tiny = np.ldexp(b.real, power) + 1j * np.ldexp(b.imag, power)
                assert np.count_nonzero(tiny) > 0
                assert center_bound_check(a, tiny) == (False, False)
        with pytest.raises(ValueError, match="b must be nonzero"):
            center_bound_check(a, np.ldexp(b.real, -1200) + 0j)


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
