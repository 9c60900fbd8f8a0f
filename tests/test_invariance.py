"""Scale invariance: every closed form and sweep of 2**j A is 2**j times A's, bit for bit.

Multiplying by a power of two is exact, and the library's one scaling rule
(``linalg.pow2_scaled``) moves only matrices whose largest part lies outside
2**±400, by a power of two.  So for an A whose scaled copy keeps every bit,
regions, curves and residuals of 2**j A equal those of A times 2**j, and
frames are equal, far past the range where squares of the entries fit.
Non-power-of-two factors need computed tolerances and are not covered here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from nrange.fov import fov_boundary
from nrange.geometry import ConvexBoundary, scale_region
from nrange.linalg import svd, times_pow2
from nrange.projrange import ProjectorSetting, higher_range, lower_range, vector_ellipse
from nrange.rankk import (find_witness, projector_intersection_check, rank_k_region,
                          separating_frame)
from nrange.rectrange import norm_range_disc, range_disc

EXPONENTS = [-1000, -600, -401, 0, 401, 600, 1000]


@st.composite
def scaled_pairs(draw):
    """(A, j): a random m x n A whose copy 2**j A keeps every bit, mn > 1."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if m * n == 1:
        n = 2
    j = draw(st.sampled_from(EXPONENTS))
    a = rand_complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n)
    return times_pow2(times_pow2(a, j), -j), j


def same_curve(scaled, unit, j):
    return (np.array_equal(scaled.support, times_pow2(unit.support, j))
            and np.array_equal(scaled.points, times_pow2(unit.points, j)))


@settings(max_examples=100)
@given(scaled_pairs())
def test_sweeps_scale_exactly(pair):
    a, j = pair
    big = times_pow2(a, j)
    k = min(a.shape)
    assert same_curve(fov_boundary(big[:k, :k], 32), fov_boundary(a[:k, :k], 32), j)
    setting, scaled_setting = ProjectorSetting(a), ProjectorSetting(big)
    assert same_curve(lower_range(scaled_setting, 32), lower_range(setting, 32), j)
    assert same_curve(higher_range(scaled_setting, 32), higher_range(setting, 32), j)
    if a.shape[0] > 1:
        assert vector_ellipse(big[:, 0]) == scale_region(vector_ellipse(a[:, 0]), j)


@settings(max_examples=100)
@given(scaled_pairs(), st.integers(0, 2**32 - 1))
def test_closed_forms_scale_exactly(pair, seed):
    a, j = pair
    big = times_pow2(a, j)
    assert range_disc(big) == scale_region(range_disc(a), j)
    g = rand_complex(np.random.default_rng(seed), *a.shape)
    b = 1.5 * g / np.linalg.norm(g)
    assert norm_range_disc(big, b) == scale_region(norm_range_disc(a, b), j)
    sigma = svd(a).sigma
    for k in range(1, min(a.shape) + 1):
        region, scaled = rank_k_region(a, k), rank_k_region(big, k)
        assert scaled.regime == region.regime
        assert scaled.region == scale_region(region.region, j)
        for z in (0.6 * sigma[k - 1] * np.exp(0.7j), 1.3 * sigma[0] * np.exp(2.1j)):
            big_z = complex(times_pow2(z, j))
            # tol is absolute, so it scales with the problem
            wit = find_witness(a, k, z)
            scaled_wit = find_witness(big, k, big_z, tol=float(times_pow2(1e-8, j)))
            assert scaled_wit.residual == float(times_pow2(wit.residual, j))
            assert np.array_equal(scaled_wit.left, wit.left)
            assert np.array_equal(scaled_wit.right, wit.right)
            frame, scaled_frame = separating_frame(a, k, z), separating_frame(big, k, big_z)
            assert (frame is None and scaled_frame is None) or np.array_equal(scaled_frame, frame)


@settings(max_examples=100)
@given(scaled_pairs())
def test_projector_check_values_scale_exactly(pair):
    # the flags compare against an absolute 1e-9 slack, so only the values scale
    a, j = pair
    big = times_pow2(a, j)
    for k in range(1, min(a.shape) + 1):
        report = projector_intersection_check(a, k, 10, 3)
        scaled = projector_intersection_check(big, k, 10, 3)
        for field in ("sigma_k", "min_right_sampled", "min_left_sampled", "right_star_value",
                      "left_star_value"):
            assert getattr(scaled, field) == float(times_pow2(getattr(report, field), j)), (field, k)


def test_scale_region_of_a_curve_is_the_scaled_curve():
    curve = fov_boundary(np.diag([1.0, 2j]), 16)
    scaled = scale_region(ConvexBoundary(curve), -3).curve
    assert np.array_equal(scaled.points, curve.points / 8)
    assert np.array_equal(scaled.angles, curve.angles)
