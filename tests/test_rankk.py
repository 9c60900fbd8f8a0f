import itertools
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from nrange.geometry import (
    Annulus, Circle, Disc, Empty, Point, Segment, radial_interval, region_contains,
)
from nrange.linalg import (isometry_defect, pow2_shift, random_isometries, random_isometry, svd,
                           times_pow2)
from nrange import rankk
from nrange.verify import _separates
from nrange.rectrange import boundary_witness, range_disc
from nrange.rankk import (
    ProjectorBoundReport,
    _decomposed,
    _start_frames,
    find_witness,
    hermitian_rank_interval,
    projector_intersection_check,
    rank_k_contains,
    rank_k_region,
    separating_frame,
)


def svd_factors(a):
    """Full SVD of a as (u, sigma, v)."""
    u, sig, vh = np.linalg.svd(a, full_matrices=True)
    return u, sig, vh.conj().T


def adjoint_factors(a):
    """(u, sigma, v) of a's adjoint from a's own full SVD: a = U S V*, a* = V S U*."""
    u, sig, v = svd_factors(a)
    return v, sig, u


def block_hermitian(a):
    m, n = a.shape
    return np.block([[np.zeros((m, m)), a], [a.conj().T, np.zeros((n, n))]])


class TestRankKRegion:
    def test_low_regime_disc(self, rng):
        a = rand_complex(rng, 6, 4)
        region = rank_k_region(a, 2)
        assert region.regime == "low"
        assert isinstance(region.region, Disc)
        assert region.region.radius == pytest.approx(float(svd(a).sigma[1]))

    def test_three_by_two_circle(self, rng):
        a = rand_complex(rng, 3, 2)
        region = rank_k_region(a, 2)
        assert region.regime == "ring"
        assert isinstance(region.region, Circle)
        assert region.region.radius == pytest.approx(float(svd(a).sigma[1]))

    def test_two_by_two_k2_empty(self, rng):
        region = rank_k_region(rand_complex(rng, 2, 2), 2)
        assert region.regime == "empty"
        assert region.region == Empty()

    def test_k1_is_full_range_disc(self, rng):
        a = rand_complex(rng, 4, 3)
        region = rank_k_region(a, 1)
        assert isinstance(region.region, Disc)
        assert region.region.radius == pytest.approx(float(svd(a).sigma[0]))

    def test_genuine_annulus_for_square(self, rng):
        a = rand_complex(rng, 3, 3)
        region = rank_k_region(a, 2)
        sig = svd(a).sigma
        assert region.regime == "ring"
        assert isinstance(region.region, Annulus)
        assert region.region.inner == pytest.approx(float(sig[2]))
        assert region.region.outer == pytest.approx(float(sig[1]))

    def test_k_beyond_min_dimension_empty(self, rng):
        assert rank_k_region(rand_complex(rng, 8, 2), 3).region == Empty()

    def test_rank_deficient_collapses_to_point(self):
        a = np.zeros((3, 2), dtype=complex)
        a[0, 0] = 2.0
        assert rank_k_region(a, 2).region == Point(0j)

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            rank_k_region(rand_complex(rng, 2, 2), 0)

    def test_scalar_matrix_circle(self):
        with np.errstate(all="ignore"):
            region = rank_k_region(np.array([[3 + 4j]]), 1)
        assert region.regime == "ring"
        assert isinstance(region.region, Circle)
        assert region.region.radius == pytest.approx(5.0)

    def test_nesting(self, rng):
        for trial in range(10):
            m, n = 2 + trial % 4, 2 + (trial // 2) % 3
            a = rand_complex(rng, m, n)
            prev = None
            for k in range(1, min(m, n) + 1):
                region = rank_k_region(a, k).region
                if isinstance(region, Empty):
                    cur = None
                else:
                    cur = {
                        Disc: lambda r: (0.0, r.radius),
                        Circle: lambda r: (r.radius, r.radius),
                        Annulus: lambda r: (r.inner, r.outer),
                        Point: lambda r: (abs(r.z), abs(r.z)),
                    }[type(region)](region)
                if prev is not None and cur is not None:
                    assert cur[0] >= prev[0] - 1e-12
                    assert cur[1] <= prev[1] + 1e-12
                prev = cur

    def test_conjugation_and_scaling_symmetry(self, rng):
        a = rand_complex(rng, 4, 3)
        for k in (1, 2, 3):
            base = rank_k_region(a, k).region
            adj = rank_k_region(a.conj().T, k).region
            assert type(base) is type(adj)
            scaled = rank_k_region(2.0 * a, k).region
            if isinstance(base, Annulus):
                assert adj.outer == pytest.approx(base.outer, abs=1e-10)
                assert scaled.outer == pytest.approx(2 * base.outer, rel=1e-12)
            elif isinstance(base, (Disc, Circle)):
                assert adj.radius == pytest.approx(base.radius, abs=1e-10)
                assert scaled.radius == pytest.approx(2 * base.radius, rel=1e-12)


class TestRankKContains:
    def test_boundary_value(self, rng):
        a = rand_complex(rng, 5, 3)
        sig = svd(a).sigma
        assert rank_k_contains(a, 2, float(sig[1]))
        assert not rank_k_contains(a, 2, float(sig[1]) + 1e-6)

    def test_two_by_two_k2_never(self, rng):
        a = rand_complex(rng, 2, 2)
        for z in (0j, 0.5, 1j, float(svd(a).sigma[0])):
            assert not rank_k_contains(a, 2, z)

    def test_matches_region_on_grid(self, rng):
        for trial in range(10):
            m, n = 2 + trial % 4, 2 + (trial // 2) % 3
            a = rand_complex(rng, m, n)
            top = float(svd(a).sigma[0])
            for k in range(1, min(m, n) + 2):
                region = rank_k_region(a, k).region
                for radius in np.linspace(0, 1.3 * top, 7):
                    for angle in (0.2, 2.2):
                        z = radius * np.exp(1j * angle)
                        assert rank_k_contains(a, k, z) == region_contains(region, z, 1e-12)


class TestHermitianInterval:
    def test_block_diag_two_one(self):
        block = block_hermitian(np.diag([2.0, 1.0]))
        assert hermitian_rank_interval(block, 1) == Segment(-2 + 0j, 2 + 0j)
        assert hermitian_rank_interval(block, 2) == Segment(-1 + 0j, 1 + 0j)

    def test_diag_point_and_empty(self):
        hm = np.diag([3.0, 2.0, 1.0])
        assert hermitian_rank_interval(hm, 2) == Point(2 + 0j)
        assert hermitian_rank_interval(hm, 3) == Empty()

    def test_point_case_against_sampled_compressions(self, rng):
        # brute-force oracle: max over frames of the smallest compressed
        # eigenvalue approaches the interval's endpoint from below
        hm = np.diag([3.0, 2.0, 1.0])
        max_min = -np.inf
        min_max = np.inf
        for i in range(3000):
            frame = random_isometry(3, 2, seed=(55, i))
            comp = np.linalg.eigvalsh(frame.conj().T @ hm @ frame)
            max_min = max(max_min, comp[0])
            min_max = min(min_max, comp[-1])
        assert max_min <= 2.0 + 1e-9 and min_max >= 2.0 - 1e-9
        assert max_min >= 2.0 - 0.05 and min_max <= 2.0 + 0.05

    def test_block_identity_random(self, rng):
        a = rand_complex(rng, 4, 2)
        sig = svd(a).sigma
        block = block_hermitian(a)
        for k in (1, 2):
            seg = hermitian_rank_interval(block, k)
            assert seg.start == pytest.approx(-sig[k - 1], abs=1e-9)
            assert seg.end == pytest.approx(sig[k - 1], abs=1e-9)

    def test_k_beyond_dimension(self):
        assert hermitian_rank_interval(np.diag([1.0, 2.0]), 3) == Empty()

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_rank_interval(rand_complex(rng, 3, 3), 1)


@pytest.fixture
def generator_seeds(monkeypatch):
    """Seed of every np.random.default_rng constructed after this fixture."""
    seeds = []
    real_rng = np.random.default_rng

    def recording_rng(seed=None):
        seeds.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    return seeds


class TestFindWitness:
    def test_k1_boundary_phases(self, rng):
        a = rand_complex(rng, 4, 3)
        top = float(svd(a).sigma[0])
        for theta in (0.0, 1.2, 3.9):
            wit = find_witness(a, 1, top * np.exp(1j * theta), seed=1)
            assert wit.residual <= 1e-10
            assert wit.restarts_used == 1

    def test_witness_consistency_invariants(self, rng):
        a = rand_complex(rng, 4, 3)
        z = 0.4 * float(svd(a).sigma[0]) * np.exp(0.9j)
        wit = find_witness(a, 2, z, seed=3)
        assert wit.residual <= 1e-8
        assert isometry_defect(wit.left) <= 1e-10
        assert isometry_defect(wit.right) <= 1e-10
        recomputed = np.linalg.norm(wit.left.conj().T @ a @ wit.right - wit.value * np.eye(2))
        assert abs(recomputed - wit.residual) <= 1e-12

    def test_outside_never_succeeds(self, rng):
        a = rand_complex(rng, 3, 2)
        top = float(svd(a).sigma[0])
        z = 1.5 * top
        for k in (1, 2):
            wit = find_witness(a, k, z, seed=2, restarts=5)
            assert wit.residual >= (abs(z) - top) * np.sqrt(k) - 1e-8

    def test_ring_boundary_circle(self, rng):
        a = rand_complex(rng, 3, 2)
        sig = svd(a).sigma
        wit = find_witness(a, 2, float(sig[1]) * np.exp(1j * np.pi / 4), seed=4)
        assert wit.residual <= 1e-8
        assert wit.restarts_used <= 20

    def test_annulus_interior(self, rng):
        a = rand_complex(rng, 3, 3)
        sig = svd(a).sigma
        z = 0.5 * (sig[1] + sig[2]) * np.exp(1.7j)
        wit = find_witness(a, 2, z, seed=5)
        assert wit.residual <= 1e-8

    def test_wide_matrix_flips_internally(self, rng):
        a = rand_complex(rng, 2, 5)
        sig = svd(a).sigma
        wit = find_witness(a, 2, 0.7 * float(sig[1]), seed=6)
        assert wit.residual <= 1e-8
        assert wit.left.shape == (2, 2) and wit.right.shape == (5, 2)

    def test_zero_value_witness(self, rng):
        a = rand_complex(rng, 4, 2)
        wit = find_witness(a, 2, 0j, seed=7)
        assert wit.residual <= 1e-10

    def test_rotated_witness_same_residual(self, rng):
        a = rand_complex(rng, 3, 3)
        sig = svd(a).sigma
        z = float(sig[1]) * np.exp(0.3j)
        wit = find_witness(a, 2, z, seed=8)
        phi = 1.1
        rotated = np.linalg.norm(
            (wit.left * np.exp(-1j * phi)).conj().T @ a @ wit.right
            - np.exp(1j * phi) * z * np.eye(2)
        )
        assert abs(rotated - wit.residual) <= 1e-12

    @pytest.mark.parametrize("shape,k", [((4, 4), 3), ((5, 4), 3), ((6, 6), 4)])
    def test_ring_regimes_certify_at_first_restart(self, rng, shape, k):
        a = rand_complex(rng, *shape)
        region = rank_k_region(a, k).region
        lo, hi = (
            (region.radius, region.radius)
            if isinstance(region, Circle)
            else (region.inner, region.outer)
        )
        for z in (hi * np.exp(0.3j), 0.5 * (lo + hi) * np.exp(-1.1j)):
            wit = find_witness(a, k, z, seed=2)
            assert wit.residual <= 1e-10
            assert wit.restarts_used == 1

    def test_rejects_k_out_of_range(self, rng):
        with pytest.raises(ValueError):
            find_witness(rand_complex(rng, 3, 2), 3, 0j, seed=0)

    @pytest.mark.parametrize("z", [0.5, 5.0], ids=["member", "non-member"])
    def test_rejects_negative_seed_before_searching(self, z):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            find_witness(np.eye(3), 1, z, seed=-1)

    @pytest.mark.parametrize("argument, value, kind", [
        ("restarts", True, "bool"), ("restarts", 2.0, "float"), ("max_iter", np.True_, "bool"),
        ("max_iter", 5.0, "float"), ("seed", True, "bool"), ("seed", 1.5, "float"),
        ("k", True, "bool"), ("k", 2.0, "float")])
    def test_rejects_bool_and_non_integer_counts(self, argument, value, kind):
        # restarts=True used to run one restart and k=True ran as k = 1;
        # k=2.0 failed on an index or a slice
        message = f"{argument} must be an integer, got {kind}"
        with pytest.raises(TypeError, match=message):
            find_witness(np.eye(3), **{"k": 1, "z": 0.1, argument: value})
        if argument == "k":
            for call in (lambda: rank_k_region(np.eye(3), value),
                         lambda: rank_k_contains(np.eye(3), value, 0.1),
                         lambda: hermitian_rank_interval(np.eye(3), value),
                         lambda: projector_intersection_check(np.eye(3), value, 3, 0)):
                with pytest.raises(TypeError, match=message):
                    call()

    def test_seed_determinism(self, rng):
        a = rand_complex(rng, 3, 3)
        w1 = find_witness(a, 2, 10.0, seed=9, restarts=3)
        w2 = find_witness(a, 2, 10.0, seed=9, restarts=3)
        assert w1.residual == w2.residual
        assert np.array_equal(w1.left, w2.left)


class TestSeparatingFrame:
    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_outside_takes_the_trailing_right_singular_vectors(self, rng, shape):
        a = rand_complex(rng, *shape)
        _, sig, vh = np.linalg.svd(a)
        for k in range(1, min(shape) + 1):
            z = 1.1 * sig[k - 1] * np.exp(0.4j)
            frame = separating_frame(a, k, z)
            assert np.array_equal(frame, vh[k - 1:].conj().T)
            assert frame.shape == (shape[1], shape[1] - k + 1)
            assert np.linalg.norm(a @ frame, 2) < abs(z) and _separates(a, k, z, frame)

    @pytest.mark.parametrize("shape,k", [((3, 3), 2), ((4, 4), 3), ((5, 4), 3), ((4, 5), 3),
                                         ((3, 3), 3)])
    def test_hole_takes_the_top_right_singular_vectors(self, rng, shape, k):
        # rings and, at 3 x 3 k = 3, an empty region, where both frames exist
        a = rand_complex(rng, *shape)
        _, sig, vh = np.linalg.svd(a)
        j = sum(shape) - 2 * k + 1
        z = 0.5 * min(sig[j - 1], sig[k - 1]) * np.exp(2.1j)
        frame = separating_frame(a, k, z)
        assert np.array_equal(frame, vh[:j].conj().T)
        assert np.linalg.svd(a @ frame, compute_uv=False)[-1] > abs(z)
        assert _separates(a, k, z, frame)

    def test_none_for_members_and_within_the_band(self, rng):
        a = rand_complex(rng, 3, 3)
        sig = svd(a).sigma
        for z in (0.5 * (sig[1] + sig[2]), sig[1] * 1j, sig[2], 0.0):
            assert separating_frame(a, 1, z) is None
        assert separating_frame(a, 2, sig[1] + 0.5e-12 * sig[0]) is None
        assert separating_frame(a, 2, sig[2] - 0.5e-12 * sig[0]) is None
        assert separating_frame(a, 2, sig[1] + 2e-12 * sig[0]).shape == (3, 2)
        assert separating_frame(a, 2, sig[2] - 2e-12 * sig[0]).shape == (3, 3)

    def test_a_frame_of_the_wrong_size_proves_nothing(self, rng):
        # one column fewer keeps ||A G|| below |z|, but the range of N can
        # miss it, so the check asks for the full dimension
        a = rand_complex(rng, 4, 3)
        z = 1.1 * svd(a).sigma[1]
        frame = separating_frame(a, 2, z)
        assert _separates(a, 2, z, frame) and not _separates(a, 2, z, frame[:, 1:])

    def test_rejects_k_past_the_smaller_dimension(self, rng):
        with pytest.raises(ValueError, match="need 1 <= k"):
            separating_frame(rand_complex(rng, 3, 2), 3, 5.0)

    @pytest.mark.parametrize("s", [2.0**-600, 1e-300, 1e-170, 1.0, 1e160, 1e200])
    def test_separates_at_extreme_scales(self, s):
        # |z|**2 and the Gram matrix underflowed to 0 below 1e-170, which
        # rejected this valid proof; past 1e160 they overflowed, and the NaN
        # Cholesky factor "proved" the member 0.5 sigma_2 outside
        draws = np.random.default_rng(0)
        a = draws.standard_normal((4, 3)) + 1j * draws.standard_normal((4, 3))
        _, sig, vh = np.linalg.svd(a)
        frame = vh[1:].conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _separates(s * a, 2, 1.5 * sig[0] * s, frame)
            assert not _separates(s * a, 2, 0.5 * sig[1] * s, frame)


class TestProjectorIntersection:
    def test_k1_full_projector(self, rng):
        a = rand_complex(rng, 4, 3)
        report = projector_intersection_check(a, 1, 10, seed=1)
        top = float(svd(a).sigma[0])
        assert report.right_star_value == pytest.approx(top, abs=1e-9)
        assert report.sampled_bounds_hold and report.star_attains

    def test_trailing_frames_attain_sigma_k(self, rng):
        a = rand_complex(rng, 5, 4)
        for k in (1, 2, 3, 4):
            report = projector_intersection_check(a, k, 5, seed=2)
            assert report.star_attains, report

    def test_hundred_random_subspaces(self, rng):
        a = rand_complex(rng, 5, 4)
        report = projector_intersection_check(a, 2, 100, seed=3)
        assert report.sampled_bounds_hold
        assert report.outer_within_sampled

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            projector_intersection_check(rand_complex(rng, 3, 2), 3, 10, seed=0)

    @staticmethod
    def per_trial_reference(a, k, n_trials, seed):
        """The check as one thin product, Gram matrix and eigvalsh per frame,
        on A scaled to parts in [0.5, 1) and frames sliced from the two stacks."""
        m, n = a.shape
        u_full, sig, vh_full = np.linalg.svd(a, full_matrices=True)
        sigma_k = float(sig[k - 1])
        e = math.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1]
        unit = times_pow2(a, -e)

        def norm(p):
            gram = p.conj().T @ p if p.shape[1] <= p.shape[0] else p @ p.conj().T
            return float(times_pow2(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)), e))

        rights = list(random_isometries(n, n - k + 1, n_trials, (seed, 0)))
        lefts = list(random_isometries(m, m - k + 1, n_trials, (seed, 1)))
        *right, right_star = [norm(unit @ g) for g in rights + [vh_full.conj().T[:, k - 1:]]]
        *left, left_star = [norm(l.conj().T @ unit) for l in lefts + [u_full[:, k - 1:]]]
        min_right, min_left = min(right), min(left)
        return ProjectorBoundReport(
            k=k,
            n_trials=n_trials,
            sigma_k=sigma_k,
            min_right_sampled=min_right,
            right_star_value=right_star,
            min_left_sampled=min_left,
            left_star_value=left_star,
            outer_radius=sigma_k,
            sampled_bounds_hold=bool(min_right >= sigma_k - 1e-9 and min_left >= sigma_k - 1e-9),
            star_attains=bool(abs(right_star - sigma_k) <= 1e-9 and abs(left_star - sigma_k) <= 1e-9),
            outer_within_sampled=bool(sigma_k <= min(min_right, min_left) + 1e-9),
        )

    @pytest.mark.parametrize("m, n", [(1, 4), (4, 1), (2, 3), (5, 4), (7, 8)])
    def test_equals_per_trial_loop(self, rng, m, n):
        a = rand_complex(rng, m, n)
        for k in range(1, min(m, n) + 1):
            for seed in (0, 7):
                expected = self.per_trial_reference(a, k, 23, seed)
                assert projector_intersection_check(a, k, 23, seed) == expected

    @pytest.mark.parametrize("m, n", [(1, 4), (4, 1), (2, 3), (5, 4), (7, 8)])
    def test_values_match_the_projected_matrices(self, rng, m, n):
        # the thin products' Gram eigenvalues against the definition: the
        # 2-norm of A G G* and of L L* A
        a = rand_complex(rng, m, n)
        u_full, sig, vh_full = np.linalg.svd(a, full_matrices=True)
        for k in range(1, min(m, n) + 1):
            for seed in (0, 7):
                report = projector_intersection_check(a, k, 23, seed)
                rights = random_isometries(n, n - k + 1, 23, (seed, 0))
                lefts = random_isometries(m, m - k + 1, 23, (seed, 1))
                g_star, l_star = vh_full.conj().T[:, k - 1:], u_full[:, k - 1:]
                expected = {
                    "min_right_sampled": min(np.linalg.norm(a @ (g @ g.conj().T), 2) for g in rights),
                    "min_left_sampled": min(np.linalg.norm((l @ l.conj().T) @ a, 2) for l in lefts),
                    "right_star_value": np.linalg.norm(a @ (g_star @ g_star.conj().T), 2),
                    "left_star_value": np.linalg.norm((l_star @ l_star.conj().T) @ a, 2),
                }
                for field, value in expected.items():
                    assert abs(getattr(report, field) - value) <= 1e-14 * sig[0], (field, k, seed)

    def test_stacked_kernel_calls(self, rng, monkeypatch):
        calls = {"qr": 0, "svd": 0, "eigvalsh": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        report = projector_intersection_check(rand_complex(rng, 5, 4), 2, 100, seed=3)
        assert report.n_trials == 100
        assert calls["qr"] <= 2
        # one SVD of A, unless its slot holds it; one Gram stack per side
        assert calls["svd"] <= 1
        assert calls["eigvalsh"] <= 2

    def test_one_generator_per_frame_stack(self, rng, generator_seeds):
        # the right and left frames are one stack each; one generator per
        # frame made 2 x n_trials of them
        projector_intersection_check(rand_complex(rng, 5, 4), 2, 100, seed=3)
        assert generator_seeds == [(3, 0), (3, 1)]


def assert_consistent_pair(a, k, wit):
    """Both frames are isometries and the reported residual is the real one."""
    assert isometry_defect(wit.left) <= 1e-10
    assert isometry_defect(wit.right) <= 1e-10
    recomputed = np.linalg.norm(wit.left.conj().T @ a @ wit.right - wit.value * np.eye(k))
    assert abs(recomputed - wit.residual) <= 1e-12


def distance_from_region(a, k, z):
    """Distance from z to the rank-k region of a, None when the region is empty."""
    interval = radial_interval(rank_k_region(a, k).region)
    if interval is None:
        return None
    lo, hi = interval
    return max(lo - abs(z), abs(z) - hi, 0.0)


class TestStackedWitnessSearch:
    """Values the closed-form pair at z does not certify get the closed-form
    pair at their nearest region point, from the same SVD; ``seed``,
    ``restarts`` and ``max_iter`` of the retired multi-start search are
    still validated and have no effect."""

    def test_residual_monotone_in_restarts(self, rng):
        a = rand_complex(rng, 4, 3)
        z = 1.3 * float(svd(a).sigma[1]) * np.exp(0.4j)
        assert not rank_k_contains(a, 2, z)
        res = [find_witness(a, 2, z, seed=11, restarts=r).residual for r in (1, 5, 20)]
        assert res[2] == res[1] == res[0]

    @pytest.mark.parametrize("shape,k,index,factor", [
        ((5, 3), 2, 1, 1.2), ((4, 3), 1, 0, 1.3), ((3, 3), 2, 2, 0.5), ((3, 3), 2, 1, 0.0),
        ((4, 4), 3, 2, 0.5), ((2, 5), 2, 1, 1.4), ((5, 4), 3, 3, 0.5), ((8, 6), 5, 4, 0.97)])
    def test_nonmember_residual_is_sqrt_k_times_the_distance(self, shape, k, index, factor):
        # the pair at the nearest region point p solves M* A N = p I, so the
        # residual at z is sqrt(k) |z - p|
        a = rand_complex(np.random.default_rng(13), *shape)
        sig = svd(a).sigma
        z = factor * float(sig[index]) * np.exp(0.7j)
        assert not rank_k_contains(a, k, z)
        wit = find_witness(a, k, z)
        assert_consistent_pair(a, k, wit)
        assert abs(wit.residual - np.sqrt(k) * distance_from_region(a, k, z)) <= 1e-12 * sig[0]
        # with that residual as tolerance the same pair certifies
        at_tol = find_witness(a, k, z, tol=wit.residual)
        assert at_tol.residual == wit.residual
        assert np.array_equal(at_tol.left, wit.left) and np.array_equal(at_tol.right, wit.right)

    @pytest.mark.parametrize("k,z,member", [(1, 0j, True), (2, 0j, True),
                                            (2, 1e-20, True), (2, 0.5, False)])
    def test_rank_one_matrix(self, rng, k, z, member):
        # every image A N has rank one; 0.5 sigma_1 lies outside the disc of
        # radius sigma_2, which is 0 to rounding
        a = rand_complex(rng, 4, 1) @ rand_complex(rng, 1, 3)
        wit = find_witness(a, k, z * float(svd(a).sigma[0]), seed=4, restarts=5)
        assert_consistent_pair(a, k, wit)
        assert (wit.residual <= 1e-10) == member
        assert wit.restarts_used == 1

    def test_origin_in_the_hole_takes_the_inner_circle_pair(self, rng):
        # 0 lies in the hole of a 3x3 ring at k = 2; the pair is the one at
        # sigma_3 on the positive axis, and the top-3 frame proves 0 outside
        a = rand_complex(rng, 3, 3)
        sig = svd(a).sigma
        assert not rank_k_contains(a, 2, 0j)
        wit = find_witness(a, 2, 0j, seed=5, restarts=4)
        assert_consistent_pair(a, 2, wit)
        assert abs(wit.residual - np.sqrt(2) * sig[2]) <= 1e-12 * sig[0]
        frame = wit.left.conj().T @ a @ wit.right
        assert np.linalg.norm(frame - sig[2] * np.eye(2)) <= 1e-12 * sig[0]
        assert separating_frame(a, 2, 0j).shape == (3, 3)

    def test_wide_nonmember_runs_the_stack_on_the_adjoint(self, rng):
        # a wide A works on its adjoint with A's own factors swapped: the
        # pair at the nearest point, sigma_2 at the phase of conj(z), swapped
        a = rand_complex(rng, 2, 5)
        u, sig, v = adjoint_factors(a)
        top = float(sig[0])
        z = 1.4 * top * np.exp(0.5j)
        wit = find_witness(a, 2, z, seed=6, restarts=6)
        assert wit.left.shape == (2, 2) and wit.right.shape == (5, 2)
        assert wit.restarts_used == 1
        assert wit.residual >= (abs(z) - top) * np.sqrt(2) - 1e-8
        assert_consistent_pair(a, 2, wit)
        zt = complex(z).conjugate()
        right, left = _start_frames(sig, u, v, 5, 2, 2, float(sig[1]) * (zt / abs(zt)))
        assert np.array_equal(wit.left, right) and np.array_equal(wit.right, left)
        # the adjoint decomposed on its own has other singular vectors, up to
        # a phase each, and singular values a few ulps away: the same
        # compression and residual to rounding, within 64 eps sigma_1 (here
        # 1 and 3.3 of them, at most 28 over 300 random wide matrices)
        adj = find_witness(a.conj().T, 2, zt, seed=6, restarts=6)
        bound = 64 * np.finfo(float).eps * top
        assert adj.iterations == wit.iterations
        assert abs(adj.residual - wit.residual) <= bound
        assert np.linalg.norm(adj.right.conj().T @ a @ adj.left
                              - wit.left.conj().T @ a @ wit.right) <= bound

    def test_rejects_nonpositive_max_iter(self, rng):
        with pytest.raises(ValueError, match="max_iter"):
            find_witness(rand_complex(rng, 3, 2), 1, 0.5, max_iter=0)

    def test_iterations_of_the_returned_restart(self, rng):
        # one closed-form pass, whatever max_iter allows
        a = rand_complex(rng, 4, 3)
        z = 1.3 * float(svd(a).sigma[0])
        for wit in (find_witness(a, 2, z, seed=1, restarts=4, max_iter=1),
                    find_witness(a, 2, z, seed=1, restarts=4),
                    find_witness(a, 2, 0.5 * float(svd(a).sigma[1]), seed=1)):
            assert (wit.iterations, wit.restarts_used) == (1, 1)

    def test_no_random_draws(self, rng, generator_seeds):
        a = rand_complex(rng, 5, 3)
        for k, z in ((2, 1.2 * float(svd(a).sigma[0]) * np.exp(0.7j)), (3, 0.1)):
            find_witness(a, k, z, seed=5, restarts=20)
        assert generator_seeds == []

    @pytest.mark.parametrize("shape,k,scale", [((4, 3), 1, 1.3), ((5, 3), 2, 1.2),
                                               ((3, 3), 2, 1.1), ((2, 5), 2, 1.4)])
    def test_fewer_restarts_run_a_prefix_of_the_frames(self, rng, shape, k, scale):
        # no restart runs any more, so every seed, restart count and pass
        # limit returns the same pair
        a = rand_complex(rng, *shape)
        z = scale * float(svd(a).sigma[k - 1]) * np.exp(0.4j)
        assert not rank_k_contains(a, k, z)
        base = find_witness(a, k, z)
        for seed, restarts, max_iter in ((12, 5, 500), (12, 20, 500), (0, 1, 1), (3, 20, 3)):
            wit = find_witness(a, k, z, seed=seed, restarts=restarts, max_iter=max_iter)
            assert wit.residual == base.residual
            assert np.array_equal(wit.left, base.left) and np.array_equal(wit.right, base.right)

    def test_svd_calls_do_not_grow_with_restarts(self, rng, forget_svds, svd_calls):
        # the one SVD of A gives the pair at the nearest point, and a repeat
        # on the same bytes reads it from the slot
        a = rand_complex(rng, 5, 3)
        z = 1.2 * float(svd(a).sigma[0]) * np.exp(0.7j)
        for restarts in (2, 20):
            forget_svds()
            svd_calls.clear()
            first = find_witness(a, 2, z, seed=5, restarts=restarts)
            assert svd_calls == [((5, 3), True)]
            repeat = find_witness(a, 2, z, seed=5, restarts=restarts)
            assert svd_calls == [((5, 3), True)]
            assert repeat.residual == first.residual

    @pytest.mark.parametrize("j", [-60, -20, 40, 300])
    def test_power_of_two_scaling_leaves_the_search_unchanged(self, j):
        # scaling A, z and tol by 2**j scales the residual exactly and leaves
        # the frames as they are; under an absolute 1e-15 stall floor, and
        # later under unit floors in a test for a negligible z, the retired
        # descent stopped at other passes or took other frames
        c = 2.0 ** j
        for shape, k, index, factor in SCALING_CASES:
            a = rand_complex(np.random.default_rng(12345), *shape)
            z = factor * float(svd(a).sigma[index]) * np.exp(0.7j)
            base = find_witness(a, k, z, seed=3)
            wit = find_witness(c * a, k, c * z, seed=3, tol=c * 1e-8)
            assert wit.residual == c * base.residual
            assert (wit.iterations, wit.restarts_used) == (base.iterations, base.restarts_used)
            assert np.array_equal(wit.left, base.left) and np.array_equal(wit.right, base.right)

    def test_huge_entries_do_not_raise(self):
        # squares of singular values near 1e160 overflowed, and inf / inf
        # made the mixed start frame NaN; later the residual overflowed to
        # inf.  The value lies outside an empty region, so its finite
        # residual stays above tol
        a = rand_complex(np.random.default_rng(0), 4, 3)
        for scale in (1e160, 1e200, 1e300):
            wit = find_witness(scale * a, 3, 0.5 * scale * float(svd(a).sigma[1]))
            assert 1e-8 * scale < wit.residual < np.inf
            assert isometry_defect(wit.left) <= 1e-10 and isometry_defect(wit.right) <= 1e-10
        # sigma_1 = 3e308 is past the float range, so A is decomposed again
        # over 2**1024; the member's pair is exact to a relative 1e-15
        wit = find_witness(np.full((3, 3), 1e308), 1, 1e308)
        assert wit.residual <= 1e-15 * 3e308
        assert isometry_defect(wit.left) <= 1e-10 and isometry_defect(wit.right) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e160, 1e300])
    def test_residuals_at_extreme_scales(self, scale):
        # A and z go in over the power of two at their largest part: at
        # 1e-300 the residual of a value outside was 0.0, at 1e160 and 1e300
        # inf or nan.  Every value is checked at scale 1 too
        a = rand_complex(np.random.default_rng(4), 4, 3)
        sig = svd(a).sigma
        for k in (1, 2, 3):
            for z in (0.5 * sig[k - 1], 1.3 * sig[0] * np.exp(0.4j), 0j):
                base = find_witness(a, k, z)
                wit = find_witness(scale * a, k, scale * z)
                assert np.isfinite(wit.residual)
                assert (wit.residual <= 1e-8 * scale) == (base.residual <= 1e-8)
                if base.residual > 1e-8:
                    assert wit.residual > 0
                    assert abs(wit.residual / scale - base.residual) <= 1e-12 * sig[0]

    def test_value_far_outside_a_subnormal_matrix(self):
        # c^2 of a mixed column was taken over the power of two at sigma_hi,
        # which raised OverflowError for |z| = 1 and sigma_hi near 2**-1070
        a = times_pow2(rand_complex(np.random.default_rng(1), 3, 3), -1070)
        wit = find_witness(a, 2, 1.0)
        # sqrt(2) times the distance 1 - sigma_2 from the ring
        assert wit.residual == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_hole_residual_has_no_jump_near_the_origin(self):
        # a 4x5 A with a zero column at k = 3 has the hole |z| < sigma_4; the
        # descent's residual jumped at the 1e-14 sigma_1 line, where its
        # frames switched from least-aligned to polar
        a = rand_complex(np.random.default_rng(12345), 4, 5)
        a[:, 2] = 0.0
        sig = svd(a).sigma
        for factor in (0.0, 1e-16, 1e-14, 3e-14):
            z = factor * sig[0] * np.exp(0.7j)
            wit = find_witness(a, 3, z)
            assert abs(wit.residual - np.sqrt(3) * (sig[3] - abs(z))) <= 1e-12 * sig[0]


# (shape, k, singular-value index, |z| as a multiple of it): members, values
# outside the region or in a ring's hole, a wide matrix, and z = 0 and a
# negligible z in the hole of a ring
SCALING_CASES = [((5, 3), 2, 0, 1.2), ((5, 3), 2, 1, 1.2), ((4, 3), 1, 0, 1.3),
                 ((4, 3), 2, 1, 0.5), ((2, 5), 2, 1, 1.4), ((4, 4), 3, 2, 0.5),
                 ((3, 2), 2, 0, 1.5), ((3, 3), 2, 1, 0.0), ((3, 3), 2, 2, 1e-15)]


def ring_cases():
    """Every proper ring (inner radius > 0) of 60 random matrices, seed 11."""
    shapes = [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]
    rng = np.random.default_rng(11)
    cases = []
    for i in range(60):
        a = rand_complex(rng, *shapes[i % len(shapes)])
        for k in range(1, min(a.shape) + 1):
            region = rank_k_region(a, k).region
            if isinstance(region, Annulus):
                cases.append((a, k, region))
    return cases


class TestRingInnerEdge:
    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_thin_band_inside_the_inner_edge_certifies(self, eps):
        # the start frame mixes the bracketing singular vectors to norm |z|
        # exactly; snapping to a singular value within 1e-9 of |z| left most
        # of these uncertified
        cases = ring_cases()
        assert len(cases) == 36
        failed = []
        for idx, (a, k, ring) in enumerate(cases):
            z = (ring.inner + eps * (ring.outer - ring.inner)) * np.exp(1j * (0.3 + idx))
            assert rank_k_contains(a, k, z)
            wit = find_witness(a, k, z)
            if wit.residual > 1e-8:
                failed.append((idx, k, wit.residual))
        assert not failed


# verify's prop14 shapes, the witness benchmark's wide and larger shapes, and 1x1
CERTIFICATE_SHAPES = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (2, 3), (3, 5),
                      (4, 6), (6, 4), (7, 5), (8, 6), (1, 1)]


def member_cases():
    """(a, k, z) for three matrices of every shape and every k with a nonempty
    region: z on the inner edge (0 in a disc), on the outer edge and midway,
    at a random phase."""
    rng = np.random.default_rng(16)
    cases = []
    for shape in CERTIFICATE_SHAPES:
        for _ in range(3):
            a = rand_complex(rng, *shape)
            for k in range(1, min(shape) + 1):
                interval = radial_interval(rank_k_region(a, k).region)
                if interval is not None:
                    lo, hi = interval
                    for radius in sorted({lo, (lo + hi) / 2, hi}):
                        cases.append((a, k, complex(radius * np.exp(1j * rng.uniform(0, 2 * np.pi)))))
    return cases


class TestClosedFormCertificate:
    def test_closed_form_certifies_every_member(self):
        cases = member_cases()
        assert len(cases) == 261
        assert sum(z == 0 for _, _, z in cases) == 75
        assert sum(rank_k_region(a, k).regime == "ring" for a, k, _ in cases) == 36
        for a, k, z in cases:
            assert rank_k_contains(a, k, z)
            assert separating_frame(a, k, z) is None
            wide = a.shape[0] < a.shape[1]
            arr, zt = (a.conj().T, z.conjugate()) if wide else (a, z)
            m, n = arr.shape
            u, sig, v = adjoint_factors(a) if wide else svd_factors(a)
            right, left = _start_frames(sig, u, v, m, n, k, zt)
            assert left is not None
            assert isometry_defect(left) <= 1e-12 and isometry_defect(right) <= 1e-12
            assert np.linalg.norm(left.conj().T @ arr @ right - zt * np.eye(k)) <= 1e-12 * sig[0]
            wit = find_witness(a, k, z)
            assert (wit.restarts_used, wit.iterations) == (1, 1)
            pair = (right, left) if wide else (left, right)
            assert np.array_equal(wit.left, pair[0]) and np.array_equal(wit.right, pair[1])

    def test_a_member_costs_one_svd(self, svd_calls):
        # the first call on a matrix decomposes it as given, in full, wide or
        # not, and every later call on the same bytes reads that from the slot
        seen = set()
        for a, k, z in member_cases():
            svd_calls.clear()
            assert find_witness(a, k, z).residual <= 1e-8
            first = a.tobytes() not in seen
            seen.add(a.tobytes())
            assert svd_calls == ([(a.shape, True)] if first else [])
        assert len(seen) == 3 * len(CERTIFICATE_SHAPES)

    @pytest.mark.parametrize("shape,k", [((1, 1), 1), ((2, 2), 2), ((3, 2), 2), ((3, 3), 3)])
    def test_zero_images_take_their_own_direction(self, svd_calls, shape, k):
        # an image of norm 0 asked for a complement direction, so where none
        # was left the closed form failed and the descent certified z = 0
        wit = find_witness(np.zeros(shape), k, 0)
        assert svd_calls == [(shape, True)]
        assert (wit.residual, wit.restarts_used, wit.iterations) == (0.0, 1, 1)
        assert isometry_defect(wit.left) <= 1e-15 and isometry_defect(wit.right) <= 1e-15


def rank_k_outputs(a, k, z, before_each=lambda: None):
    """Every rank-k output for (a, k, z), called in a request's order: region,
    verdict, pair, residual and separating frame; ``before_each`` runs before
    each call."""
    calls = (lambda: repr(rank_k_region(a, k)), lambda: rank_k_contains(a, k, z),
             lambda: find_witness(a, k, z), lambda: separating_frame(a, k, z))
    region, verdict, wit, frame = [before_each() or call() for call in calls]
    return [region, verdict, wit.left, wit.right, wit.residual.hex(), frame]


def assert_same_outputs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert g is None or np.array_equal(g, w)


class TestSharedDecomposition:
    """Every rank-k entry point reads one full SVD per matrix from one slot."""

    @pytest.mark.parametrize("shape,calls", [((5, 3), [((5, 3), True)]),
                                             ((4, 4), [((4, 4), True)]),
                                             ((3, 5), [((3, 5), True)])])
    def test_a_request_decomposes_each_side_once(self, forget_svds, svd_calls, shape, calls):
        a, b = (rand_complex(np.random.default_rng(seed), *shape) for seed in (22, 23))
        sig = np.linalg.svd(a, compute_uv=False)
        values = (0.5 * sig[1] * np.exp(0.3j), 1.2 * sig[0] * np.exp(0.7j))
        svd_calls.clear()
        warm = [rank_k_outputs(a, 2, z) for z in values]
        assert svd_calls == calls
        # a bilinear radius request: the disc and its boundary witnesses
        svd_calls.clear()
        range_disc(b)
        for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            boundary_witness(b, theta)
        assert svd_calls == calls
        for z, got in zip(values, warm):
            assert_same_outputs(got, rank_k_outputs(a, 2, z, before_each=forget_svds))

    def test_a_one_ulp_change_in_place_misses_the_slot(self, forget_svds, svd_calls):
        a = rand_complex(np.random.default_rng(25), 4, 3)
        z = 1.2 * float(np.linalg.svd(a, compute_uv=False)[0]) * np.exp(0.7j)
        before = rank_k_outputs(a, 2, z)
        a[1, 2] = complex(np.nextafter(a[1, 2].real, np.inf), a[1, 2].imag)
        svd_calls.clear()
        warm = rank_k_outputs(a, 2, z)
        assert svd_calls == [((4, 3), True)]
        forget_svds()
        assert_same_outputs(warm, rank_k_outputs(a, 2, z))
        # on this matrix the ulp moves every output but the verdict, so a
        # stale entry would show
        assert [bool(np.array_equal(w, b)) for w, b in zip(warm, before)] == [
            False, True, False, False, False, False]

    def test_kept_factors_are_read_only_and_outputs_belong_to_the_caller(self, svd_calls):
        a = rand_complex(np.random.default_rng(27), 5, 3)
        for part in _decomposed(a, True):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
        sig = _decomposed(a, True)[1]
        values = (0.5 * sig[1] * np.exp(0.3j), 1.2 * sig[0] * np.exp(0.7j))
        first = [rank_k_outputs(a, 2, z) for z in values]
        want = [[x.copy() if isinstance(x, np.ndarray) else x for x in out] for out in first]
        for out in first:
            for x in out:
                if isinstance(x, np.ndarray):
                    x[...] = 0.0
        for z, expected in zip(values, want):
            assert_same_outputs(rank_k_outputs(a, 2, z), expected)
        assert svd_calls == [((5, 3), True)]

    def test_concurrent_requests_match_sequential_ones(self):
        # four callers on different matrices, wide ones among them, on a
        # shortened switch interval and yielding the interpreter lock before
        # every call, so that they interleave call by call: factors read for
        # another matrix change the bits
        shapes = [(5, 3), (3, 5), (4, 4), (2, 4)]
        matrices = [rand_complex(np.random.default_rng(30 + i), *shape)
                    for i, shape in enumerate(shapes)]

        def requests(a):
            sig = np.linalg.svd(a, compute_uv=False)
            return [rank_k_outputs(a, k, z, before_each=lambda: time.sleep(0))
                    for _ in range(3)
                    for k in range(1, min(a.shape) + 1)
                    for z in (0.5 * sig[k - 1] * np.exp(0.3j), 1.2 * sig[0] * np.exp(1.1j))]

        expected = {i: requests(a) for i, a in enumerate(matrices)}
        start, got = threading.Barrier(len(matrices)), {}

        def run(i):
            start.wait(timeout=60)
            got[i] = requests(matrices[i])

        callers = [threading.Thread(target=run, args=(i,)) for i in expected]
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
        for i, outputs in expected.items():
            assert len(got[i]) == len(outputs)
            for out, want in zip(got[i], outputs):
                assert_same_outputs(out, want)

    @pytest.mark.parametrize("shape", [(2000, 3), (3, 2000), (80, 80)])
    def test_long_or_large_matrices_bypass_the_slot(self, svd_calls, shape):
        # the full SVD of a 2000 x 3 matrix costs about a thousand times its
        # thin one, and the factors of either would outlive the call
        a = rand_complex(np.random.default_rng(26), *shape)
        for _ in range(2):
            rank_k_region(a, 1)
        assert svd_calls == [(shape, False)] * 2
        assert getattr(rankk._recent, "entries", ()) == ()


# (shape, k, singular-value index, |z| as a multiple of it, restarts, max_iter,
# residual as float.hex, iterations, restarts_used), for the matrix
# rand_complex(default_rng(100 + row)), z at phase 0.7 and seed 4: members,
# non-members, wide shapes, z = 0 and the arguments of the retired search.
# Member rows were recorded when the closed-form pair replaced the descent's
# first pass, and non-member rows when the pair at the nearest region point
# replaced the descent; the last two are non-members of empty regions.  The
# wide rows were recorded again when a wide A's pair came to be built from
# A's own factors, swapped, instead of a second SVD of its adjoint.
WITNESS_RESULTS = [
    ((5, 3), 2, 1, 0.6, 20, 500, '0x1.326fc2ba228fdp-49', 1, 1),
    ((5, 3), 2, 1, 1.2, 20, 500, '0x1.7f89ce180881bp-1', 1, 1),
    ((4, 3), 1, 0, 1.3, 20, 500, '0x1.7510ed2934571p+0', 1, 1),
    ((3, 3), 2, 1, 0.0, 20, 500, '0x1.22aeb03fcd57bp+0', 1, 1),
    ((3, 3), 2, 2, 1.5, 20, 500, '0x1.1a820373623dcp-3', 1, 1),
    ((4, 4), 3, 2, 0.5, 20, 500, '0x1.c42f2a9c7f4f8p+0', 1, 1),
    ((5, 4), 3, 3, 1.1, 20, 500, '0x1.76c583b50bf72p-50', 1, 1),
    ((2, 5), 2, 1, 0.7, 20, 500, '0x1.552e84f9f97b4p-49', 1, 1),
    ((2, 5), 2, 1, 1.4, 6, 500, '0x1.40da841dd9ca1p+1', 1, 1),
    ((4, 2), 2, 0, 0.0, 20, 500, '0x1.26df3a27f2356p-52', 1, 1),
    ((5, 3), 2, 0, 1.2, 5, 3, '0x1.42ffcca6bfd4cp+2', 1, 1),
    ((4, 3), 2, 1, 1.3, 3, 1, '0x1.09e8b38b06de3p+0', 1, 1),
    ((1, 1), 1, 0, 1.0, 20, 500, '0x1.0000000000000p-52', 1, 1),
    ((3, 6), 3, 2, 1.2, 20, 500, '0x1.13cb3ba915d4bp+0', 1, 1),
    ((8, 6), 1, 0, 1.2, 20, 500, '0x1.34388ffeb2e57p+0', 1, 1),
    ((8, 6), 5, 4, 0.97, 20, 500, '0x1.100e07040f366p-3', 1, 1),
    ((3, 3), 3, 1, 0.5, 20, 500, '0x1.1f00adbeec855p+1', 1, 1),
    ((4, 5), 4, 3, 1.0, 20, 500, '0x1.3255ccacbee35p+1', 1, 1),
]


def test_find_witness_matches_recorded_results():
    for row, (shape, k, index, factor, restarts, max_iter, residual, iterations,
              used) in enumerate(WITNESS_RESULTS):
        a = rand_complex(np.random.default_rng(100 + row), *shape)
        z = factor * float(svd(a).sigma[index]) * np.exp(0.7j)
        wit = find_witness(a, k, z, seed=4, restarts=restarts, max_iter=max_iter)
        assert (wit.residual.hex(), wit.iterations, wit.restarts_used) == (residual, iterations, used)


# (WITNESS_RESULTS row, np.linalg.svd calls of its find_witness call): the one
# SVD of A, and where the region is empty one more of the m x k image A N.
NONMEMBER_SVD_CALLS = [(1, 1), (3, 1), (5, 1), (8, 1), (13, 1), (14, 1), (15, 1), (16, 2), (17, 2)]


def test_non_member_searches_make_recorded_svd_calls(svd_calls):
    for row, count in NONMEMBER_SVD_CALLS:
        shape, k, index, factor, restarts, max_iter = WITNESS_RESULTS[row][:6]
        a = rand_complex(np.random.default_rng(100 + row), *shape)
        z = factor * float(svd(a).sigma[index]) * np.exp(0.7j)
        svd_calls.clear()
        assert find_witness(a, k, z, seed=4, restarts=restarts, max_iter=max_iter).residual > 1e-8
        assert len(svd_calls) == count, row


def two_step_pair(a, k, z, tol=1e-8):
    """(left, right, residual, pairs built) of the closed-form pair at z and,
    where that does not certify, the one at the nearest region point, for a
    tall or square a; the residual is inf where no pair was found."""
    u, sig, vh = _decomposed(a, True)
    m, n = a.shape
    e = pow2_shift(max(sig[0], abs(z.real), abs(z.imag)))
    arr, sig, z = times_pow2(a, -e), times_pow2(sig, -e), complex(times_pow2(z, -e))
    v = vh.conj().T
    right, left = _start_frames(sig, u, v, m, n, k, z)
    res, built = float(times_pow2(rankk._pair_residual(arr, left, right, z), e)), 1
    outer = float(sig[k - 1])
    inner = float(sig[m + n - 2 * k]) if 2 * k > m else 0.0
    if not res <= tol and inner <= outer:
        r = math.hypot(z.real, z.imag)
        nearest = min(max(r, inner), outer) * (z / r if r else 1 + 0j)
        right, left = _start_frames(sig, u, v, m, n, k, nearest)
        res, built = float(times_pow2(rankk._pair_residual(arr, left, right, z), e)), 2
    return left, right, res, built


# relative offsets from each binding radius: on it, inside _start_frames'
# 1e-10 band and past it
BAND_OFFSETS = (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9, 0.3, -0.3)


def one_pair_cases():
    """(a, k, z, offset) for the tall rows of WITNESS_RESULTS (offset None) and
    for values at BAND_OFFSETS from the outer and any nonzero inner radius of
    twelve matrices of every tall or square shape, at random phases."""
    cases = []
    for row, (shape, k, index, factor) in enumerate(r[:4] for r in WITNESS_RESULTS):
        if shape[0] >= shape[1]:
            a = rand_complex(np.random.default_rng(100 + row), *shape)
            cases.append((a, k, complex(factor * float(svd(a).sigma[index]) * np.exp(0.7j)), None))
    rng = np.random.default_rng(28)
    for shape in [s for s in CERTIFICATE_SHAPES if s[0] >= s[1]]:
        for _ in range(12):
            a = rand_complex(rng, *shape)
            for k in range(1, shape[1] + 1):
                interval = radial_interval(rank_k_region(a, k).region)
                for radius in sorted(set(interval or ())):
                    for offset in BAND_OFFSETS if radius else (0.0,):
                        z = radius * (1.0 + offset) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                        cases.append((a, k, complex(z), offset))
    return cases


def test_a_value_builds_one_pair(monkeypatch):
    # an outside or hole value past the band gets the pair at its nearest
    # point with no attempt at z first; every pair is the two-step one bit
    # for bit, and an in-band value still builds the second only when the
    # first does not certify
    built = []
    real_start_frames = _start_frames

    def counting(*args):
        built.append(args[-1])
        return real_start_frames(*args)

    cases = one_pair_cases()
    assert len(cases) == 3158
    far, second = 0, 0
    # at tol 1e-13 an in-band value 1e-11 outside does not certify at z
    for (a, k, z, offset), tol in itertools.product(cases, (1e-8, 1e-13)):
        left, right, res, steps = two_step_pair(a, k, z, tol)
        built.clear()
        monkeypatch.setattr(rankk, "_start_frames", counting)
        wit = find_witness(a, k, z, tol=tol)
        monkeypatch.undo()
        if offset is None or abs(offset) >= 1e-9:
            assert len(built) == 1
            far += not rank_k_contains(a, k, z)
        else:
            assert len(built) == steps
            second += steps == 2
        assert wit.residual.hex() == res.hex() or res == math.inf
        assert np.array_equal(wit.right, right)
        if res < math.inf:
            assert np.array_equal(wit.left, left)
    assert (far, second) == (1512, 1011)


@settings(max_examples=300)
@given(n=st.integers(2, 6), extra=st.integers(0, 4), wide=st.booleans(),
       zero_columns=st.integers(0, 6), low_rank=st.booleans(), exponent=st.integers(-500, 500),
       ratio=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_fallback_pairs_are_isometries(n, extra, wide, zero_columns, low_rank, exponent, ratio,
                                       seed):
    # past the ring regime, at k = n, the region is empty and the left frame
    # is the polar factor of A N with columns moved to unused directions:
    # products of LAPACK's orthonormal factors, isometries far inside 1e-12
    # at any scale and rank, and never farther from z I than the plain polar
    # factor
    rng = np.random.default_rng(seed)
    m = n + extra % (n - 1)  # 3n > m + n + 1
    a = rand_complex(rng, m, n)
    if low_rank:
        a = a[:, :1] @ rand_complex(rng, 1, n)
    a[:, :min(zero_columns, n - 1)] = 0.0
    a *= 2.0 ** exponent
    assume(rank_k_region(a, n).regime == "empty")
    a, z = (a.T, 1j) if wide else (a, 1.0)
    z *= ratio * float(svd(a).sigma[0])
    wit = find_witness(a, n, z)
    assert isometry_defect(wit.left) <= 1e-13 and isometry_defect(wit.right) <= 1e-13
    assert 0 < wit.residual < np.inf
    tall, right = (a.conj().T, wit.left) if wide else (a, wit.right)
    s = np.linalg.svd(tall @ right, compute_uv=False)
    polar = np.sqrt(np.sum((s - abs(z)) ** 2))
    assert wit.residual <= polar * (1 + 1e-12)


@settings(max_examples=200)
@given(m=st.integers(1, 6), n=st.integers(1, 6), k=st.integers(1, 6), ratio=st.floats(0.0, 1.6),
       phase=st.floats(0.0, 2 * np.pi), rank_one=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_verdicts_agree_and_every_non_member_is_separated(m, n, k, ratio, phase, rank_one, seed):
    # certification agrees with the interlacing inequalities, and every
    # non-member outside the 1e-12 sigma_1 band has a frame that proves it
    # from A alone
    assume(k <= min(m, n))
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, m, n)
    if rank_one:
        a = a[:, :1] @ a[:1, :]
    sig = svd(a).sigma
    z = ratio * float(sig[0]) * np.exp(1j * phase)
    radii = [sig[k - 1]] + ([sig[m + n - 2 * k]] if 2 * k > max(m, n) else [])
    # tol's 1e-8 certifies anything within about 1e-8 of the region
    assume(all(abs(abs(z) - radius) > 1e-6 * sig[0] for radius in radii))
    member = rank_k_contains(a, k, z)
    assert (find_witness(a, k, z).residual <= 1e-8) == member
    frame = separating_frame(a, k, z)
    assert (frame is None) == member
    if frame is not None:
        assert _separates(a, k, z, frame)


def padded(*diagonal, rows):
    """diag(diagonal) with zero rows appended up to ``rows``."""
    return np.vstack([np.diag(diagonal), np.zeros((rows - len(diagonal), len(diagonal)))])


class TestRepeatedSingularValues:
    @pytest.mark.parametrize("a,k", [(np.eye(3), 3), (padded(1.0, 1.0, 1.0, rows=4), 3),
                                     (padded(5.0, 1.0, 1.0, 1.0, rows=5), 4)],
                             ids=["I3", "I3-over-zero-row", "diag-5-1-1-1-padded"])
    def test_circle_past_the_ring_regime(self, a, k):
        # 3k > m + n + 1, yet sigma_{m+n-2k+1} = sigma_k = 1: the region was
        # declared empty while the witness certified |z| = 1 exactly
        m, n = a.shape
        assert 3 * k > m + n + 1
        region = rank_k_region(a, k).region
        assert region == Circle(0j, 1.0)
        for radius in (0.0, 0.5, 1.0, 1.5):
            z = radius * np.exp(0.7j)
            member = rank_k_contains(a, k, z)
            assert member == region_contains(region, z, 1e-12) == (radius == 1.0)
            assert (find_witness(a, k, z, restarts=4).residual <= 1e-8) == member


# (shape, k, singular-value index, |z| relative to that value, verdict) for
# rand_complex(default_rng(200 + row)) at phase 1, 1j, -1, -1j by row: every
# radius exactly at, within and one ulp past its 1e-12 slack, on tall, square
# and wide shapes, rings, circles, empty sets and k past min(m, n).  Recorded
# while rank_k_contains still walked every interlacing inequality.
CONTAINS_OFFSETS = {"at": lambda s: s, "+slack": lambda s: s + 1e-12, "-slack": lambda s: s - 1e-12,
                    "past+slack": lambda s: np.nextafter(s + 1e-12, np.inf),
                    "past-slack": lambda s: np.nextafter(s - 1e-12, -np.inf)}
CONTAINS_VERDICTS = [
    ((4, 3), 1, 0, 'at', True),
    ((4, 3), 1, 0, '+slack', True),
    ((4, 3), 1, 0, 'past+slack', False),
    ((3, 3), 2, 1, '+slack', True),
    ((3, 3), 2, 1, 'past+slack', False),
    ((3, 3), 2, 2, '-slack', True),
    ((3, 3), 2, 2, 'past-slack', False),
    ((3, 3), 2, 2, 'at', True),
    ((5, 4), 3, 3, '-slack', True),
    ((5, 4), 3, 3, 'past-slack', False),
    ((5, 4), 3, 2, '+slack', True),
    ((5, 4), 3, 2, 'past+slack', False),
    ((2, 5), 2, 1, '+slack', True),
    ((2, 5), 2, 1, 'past+slack', False),
    ((2, 5), 1, 0, 'at', True),
    ((3, 4), 3, 1, 'at', False),
    ((3, 4), 3, 2, 'at', False),
    ((4, 5), 3, 3, '-slack', True),
    ((4, 5), 3, 3, 'past-slack', False),
    ((3, 5), 3, 2, 'at', True),
    ((3, 5), 3, 2, 'past+slack', False),
    ((3, 4), 2, 1, 'past+slack', False),
    ((3, 2), 3, 1, 'at', False),
    ((2, 3), 3, 0, '-slack', False),
]


def test_rank_k_contains_matches_recorded_verdicts():
    for row, (shape, k, index, offset, verdict) in enumerate(CONTAINS_VERDICTS):
        a = rand_complex(np.random.default_rng(200 + row), *shape)
        r = CONTAINS_OFFSETS[offset](float(svd(a).sigma[index]))
        assert rank_k_contains(a, k, r * (1, 1j, -1, -1j)[row % 4]) == verdict, row


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 0.5)],
                         ids=["nan", "inf", "nan-imag", "-inf-real"])
def test_non_finite_values_agree_on_every_route(monkeypatch, forget_svds, z):
    # rank_k_contains(a, 1, nan) used to be True, and find_witness died in
    # numpy's SVD with "did not converge"
    a = rand_complex(np.random.default_rng(5), 4, 3)
    for k in (1, 2, 3):
        assert not rank_k_contains(a, k, z)
        assert not region_contains(rank_k_region(a, k).region, z, 1e-12)

    def never(*args, **kwargs):
        raise AssertionError("decomposed a matrix for a value that is not finite")

    monkeypatch.setattr(np.linalg, "svd", never)
    forget_svds()
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="z must be finite"):
            find_witness(a, k, z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.3e308, 1.3e308)],
                         ids=["first-quadrant", "second-quadrant"])
def test_finite_value_whose_modulus_overflows(monkeypatch, forget_svds, z):
    # abs(z) raised OverflowError out of all three routes
    a = rand_complex(np.random.default_rng(5), 4, 3)
    for k in (1, 2, 3):
        assert not rank_k_contains(a, k, z)
        assert not region_contains(rank_k_region(a, k).region, z, 1e-12)

    def never(*args, **kwargs):
        raise AssertionError("decomposed a matrix for a value beyond the float range")

    monkeypatch.setattr(np.linalg, "svd", never)
    forget_svds()
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="z must be finite, and so must its modulus"):
            find_witness(a, k, z)
    with pytest.raises(ValueError, match="modulus"):
        find_witness(np.eye(3), 1, z)
