import numpy as np
import pytest

from conftest import rand_complex
from nrange.fov import fov_boundary, sharp_points
from nrange.geometry import (
    ConvexBoundary,
    Disc,
    Ellipse,
    Point,
    Segment,
    axis_intervals,
    region_contains,
    region_support_curve,
    support_gap,
)
from nrange.linalg import random_isometry, svd, times_pow2
from nrange.projrange import (
    ProjectorSetting,
    default_frame,
    higher_range,
    lower_range,
    real_imag_blocks,
    sharp_transfer_report,
    vector_ellipse,
)
from nrange.reference import TALL_EXAMPLE, TALL_EXAMPLE_FRAME


def padded_column(vec):
    m = len(vec)
    block = np.zeros((m, m), dtype=complex)
    block[:, 0] = np.asarray(vec, dtype=complex)
    return block


class TestSetting:
    def test_default_frame_tall(self):
        s = ProjectorSetting(np.zeros((4, 2)))
        assert s.orientation == "tall"
        assert s.frame.shape == (4, 2)
        assert np.allclose(s.frame, default_frame(4, 2))

    def test_default_frame_wide(self):
        s = ProjectorSetting(np.zeros((2, 5)))
        assert s.orientation == "wide"
        assert s.frame.shape == (5, 2)

    def test_rejects_wrong_frame_shape(self, rng):
        with pytest.raises(ValueError, match="frame"):
            ProjectorSetting(rand_complex(rng, 4, 2), np.eye(4, 3))

    def test_rejects_non_isometry(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectorSetting(rand_complex(rng, 4, 2), rand_complex(rng, 4, 2))


class TestLowerHigher:
    def test_identity_frame_gives_top_block(self, rng):
        a = rand_complex(rng, 5, 3)
        curve = lower_range(ProjectorSetting(a), 120)
        direct = fov_boundary(a[:3, :], 120)
        assert np.array_equal(curve.support, direct.support)
        assert np.array_equal(curve.points, direct.points)

    def test_higher_is_zero_padded_matrix(self, rng):
        a = rand_complex(rng, 5, 3)
        curve = higher_range(ProjectorSetting(a), 120)
        padded = np.hstack([a, np.zeros((5, 2))])
        direct = fov_boundary(padded, 120)
        assert np.max(np.abs(curve.support - direct.support)) <= 1e-12

    @pytest.mark.parametrize("j", [-1070, -1040, 1000])
    def test_ranges_of_a_power_of_two_multiple_are_exact(self, j):
        # with a frame other than identity-over-zero, H* A was formed from
        # the subnormal entries of 2**-1040 A, and lost bits
        for seed in range(5):
            for shape in ((5, 3), (3, 5)):
                a = rand_complex(np.random.default_rng(seed), *shape)
                a = times_pow2(times_pow2(a, j), -j)
                frame = random_isometry(5, 3, seed)
                for sweep in (lower_range, higher_range):
                    unit = sweep(ProjectorSetting(a, frame), 32)
                    scaled = sweep(ProjectorSetting(times_pow2(a, j), frame), 32)
                    assert np.array_equal(scaled.support, times_pow2(unit.support, j))
                    assert np.array_equal(scaled.points, times_pow2(unit.points, j))

    def test_range_past_the_float_range_raises(self):
        # the matrix enters scaled, so only the curve scaled back can overflow
        with pytest.raises(ValueError, match="not finite"):
            higher_range(ProjectorSetting(np.full((4, 3), 1e308)), 32)

    def test_wide_orientation_compression(self, rng):
        a = rand_complex(rng, 3, 5)
        curve = lower_range(ProjectorSetting(a), 120)
        direct = fov_boundary(a[:, :3], 120)  # A @ [I; 0]
        assert np.max(np.abs(curve.support - direct.support)) <= 1e-12

    def test_orthonormal_matrix_with_self_frame(self):
        h = random_isometry(5, 2, seed=21)
        setting = ProjectorSetting(h, h)
        lo = lower_range(setting, 360)
        assert np.max(np.abs(lo.points - 1.0)) <= 1e-9  # compression is I
        hi = higher_range(setting, 360)
        expected = np.maximum(np.cos(hi.angles), 0.0)  # segment [0, 1]
        assert np.max(np.abs(hi.support - expected)) <= 1e-9

    def test_reference_frame_selects_lower_block(self):
        setting = ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME)
        curve = lower_range(setting, 120)
        direct = fov_boundary(TALL_EXAMPLE[1:, :], 120)
        assert np.array_equal(curve.support, direct.support)

    def test_lower_inside_higher_random(self, rng):
        for trial in range(10):
            m, n = (5, 3) if trial % 2 == 0 else (3, 5)
            a = rand_complex(rng, m, n)
            frame = random_isometry(max(m, n), min(m, n), seed=(31, trial))
            s = ProjectorSetting(a, frame)
            assert support_gap(lower_range(s, 90), higher_range(s, 90)) <= 1e-9

    def test_block_similarity_identity(self, rng):
        a = rand_complex(rng, 5, 3)
        frame = random_isometry(5, 3, seed=77)
        s = ProjectorSetting(a, frame)
        direct = higher_range(s, 90)
        comp = np.linalg.svd(frame, full_matrices=True)[0][:, 3:]
        unitary = np.hstack([frame, comp])
        block = unitary.conj().T @ (a @ frame.conj().T) @ unitary
        alt = fov_boundary(block, 90)
        assert max(support_gap(direct, alt), support_gap(alt, direct)) <= 1e-8

    def test_union_of_lower_ranges_attains_radius(self, rng):
        a = rand_complex(rng, 5, 3)
        top = float(svd(a).sigma[0])
        for trial in range(100):
            frame = random_isometry(5, 3, seed=(41, trial))
            curve = lower_range(ProjectorSetting(a, frame), 64)
            assert float(np.max(np.abs(curve.points))) <= top + 1e-9
        dec = np.linalg.svd(a, full_matrices=True)
        best = dec[0][:, :3] @ dec[2]
        curve = lower_range(ProjectorSetting(a, best), 64)
        assert float(curve.support[0]) == pytest.approx(top, abs=1e-9)

    def test_top_block_spectrum_inside_higher(self, rng):
        a = rand_complex(rng, 5, 3)
        region = ConvexBoundary(higher_range(ProjectorSetting(a), 240))
        for lam in np.linalg.eigvals(a[:3, :]):
            assert region_contains(region, complex(lam), 1e-8)


class TestVectorEllipse:
    def test_trailing_zero_gives_segment(self):
        region = vector_ellipse(np.array([2 + 1j, 0.0, 0.0]))
        assert region == Segment(0j, 2 + 1j)

    def test_leading_zero_gives_half_norm_disc(self):
        vec = np.array([0.0, 3.0, 4.0])
        region = vector_ellipse(vec)
        assert region == Disc(0j, 2.5)
        swept = fov_boundary(padded_column(vec), 720)
        closed = region_support_curve(region, swept.angles)
        assert max(support_gap(closed, swept), support_gap(swept, closed)) <= 1e-8

    def test_three_four_column(self):
        region = vector_ellipse(np.array([3.0, 4.0]))
        assert region.focus1 == 0j and region.focus2 == 3 + 0j
        assert region.major_axis_length == pytest.approx(5.0)
        swept = fov_boundary(padded_column([3.0, 4.0]), 720)
        closed = region_support_curve(region, swept.angles)
        assert max(support_gap(closed, swept), support_gap(swept, closed)) <= 1e-8

    def test_random_columns_match_sweep(self, rng):
        for trial in range(20):
            m = 2 + trial % 5
            vec = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            region = vector_ellipse(vec)
            swept = fov_boundary(padded_column(vec), 720)
            closed = region_support_curve(region, swept.angles)
            assert max(support_gap(closed, swept), support_gap(swept, closed)) <= 1e-8

    def test_zero_vector_is_origin(self):
        assert vector_ellipse(np.zeros(3)) == Point(0j)

    @pytest.mark.parametrize("j", [-1000, -565, 565, 1000])
    def test_ellipse_of_a_power_of_two_multiple_is_exact(self, j):
        # the norms under- or overflowed: at 2**-565 the trailing norm came
        # out 0 (a Segment), at 2**565 the major axis inf
        s = 2.0**j
        for vec in ([3 + 1j, 1, 2j], [0, 1, 2j], [1e-3, 2 - 1j, 0.5j, 7]):
            vec = np.array(vec, dtype=complex)
            unit = vector_ellipse(vec)
            expected = (Disc(0j, s * unit.radius) if isinstance(unit, Disc)
                        else Ellipse(0j, s * unit.focus2, s * unit.major_axis_length))
            assert vector_ellipse(s * vec) == expected

    def test_norms_do_not_underflow_or_overflow(self):
        small = vector_ellipse(1e-170 * np.array([3 + 1j, 1, 2j]))
        assert isinstance(small, Ellipse) and small.major_axis_length == pytest.approx(1e-170 * 15**0.5)
        assert vector_ellipse(1e-170 * np.array([0, 1, 2j])) == Disc(0j, 1e-170 * 5**0.5 / 2)
        assert vector_ellipse(1e170 * np.array([3 + 1j, 1, 2j])).major_axis_length == pytest.approx(
            1e170 * 15**0.5)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            vector_ellipse(np.array([1.0]))


class TestRealImagBlocks:
    def test_blocks_are_hermitian(self, rng):
        a = rand_complex(rng, 5, 3)
        re_block, im_block = real_imag_blocks(a)
        assert np.linalg.norm(re_block - re_block.conj().T) <= 1e-12
        assert np.linalg.norm(im_block - im_block.conj().T) <= 1e-12

    def test_hermitian_top_with_zero_rest(self, rng):
        g = rand_complex(rng, 3, 3)
        herm = (g + g.conj().T) / 2
        a = np.vstack([herm, np.zeros((2, 3))])
        re_block, _ = real_imag_blocks(a)
        assert np.allclose(re_block[:3, :3], herm)
        assert np.linalg.norm(re_block[3:, :3]) == 0.0

    def test_intervals_match_higher_range(self, rng):
        for trial in range(5):
            a = rand_complex(rng, 4 + trial % 2, 2)
            re_block, im_block = real_imag_blocks(a)
            curve = higher_range(ProjectorSetting(a), 360)
            (re_lo, re_hi), (im_lo, im_hi) = axis_intervals(curve)
            lam_re = np.linalg.eigvalsh(re_block)
            lam_im = np.linalg.eigvalsh(im_block)
            assert re_hi == pytest.approx(lam_re[-1], abs=1e-8)
            assert re_lo == pytest.approx(lam_re[0], abs=1e-8)
            assert im_hi == pytest.approx(lam_im[-1], abs=1e-8)
            assert im_lo == pytest.approx(lam_im[0], abs=1e-8)

    def test_reference_matrix_intervals(self):
        re_block, im_block = real_imag_blocks(TALL_EXAMPLE)
        curve = higher_range(ProjectorSetting(TALL_EXAMPLE), 720)
        (re_lo, re_hi), (im_lo, im_hi) = axis_intervals(curve)
        assert re_hi == pytest.approx(np.linalg.eigvalsh(re_block)[-1], abs=1e-8)
        assert im_lo == pytest.approx(np.linalg.eigvalsh(im_block)[0], abs=1e-8)

    def test_rejects_wide(self, rng):
        with pytest.raises(ValueError, match="tall"):
            real_imag_blocks(rand_complex(rng, 2, 3))


class TestSharpTransfer:
    def test_diagonal_extremes_transfer(self):
        diag = np.array([3.0, -2.0, 1j])
        a = np.zeros((5, 3), dtype=complex)
        a[:3, :3] = np.diag(diag)
        report = sharp_transfer_report(ProjectorSetting(a), 720)
        assert report, "expected corners in the higher range"
        for entry in report:
            assert entry.in_spectrum and entry.sharp_in_lower

    def test_reference_converse_failure(self):
        setting = ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME)
        hi_corners = sharp_points(higher_range(setting, 720))
        assert all(abs(s.location - 5j) > 1e-3 for s in hi_corners)
        lo_corners = sharp_points(lower_range(setting, 720))
        assert min(abs(s.location - 5j) for s in lo_corners) <= 5e-5

    def test_reference_padded_spectrum(self):
        padded = TALL_EXAMPLE @ TALL_EXAMPLE_FRAME.conj().T
        eigs = np.sort_complex(np.linalg.eigvals(padded))
        expected = np.sort_complex(np.array([0.0, 0.0, 0.0, 5j]))
        assert np.max(np.abs(eigs - expected)) <= 1e-10

    def test_rejects_wide_orientation(self, rng):
        with pytest.raises(ValueError, match="tall"):
            sharp_transfer_report(ProjectorSetting(rand_complex(rng, 2, 4)))
