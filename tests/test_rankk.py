import numpy as np
import pytest

from conftest import rand_complex
from nrange.geometry import (
    Annulus, Circle, Disc, Empty, Point, Segment, radial_interval, region_contains,
)
from nrange.linalg import isometry_defect, random_isometries, random_isometry, svd
from nrange.rankk import (
    ProjectorBoundReport,
    _descend,
    _start_frames,
    find_witness,
    hermitian_rank_interval,
    projector_intersection_check,
    rank_k_contains,
    rank_k_region,
)


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
        """The check as one 2-norm per trial, on frames sliced from the two stacks."""
        m, n = a.shape
        u_full, sig, vh_full = np.linalg.svd(a, full_matrices=True)
        sigma_k = float(sig[k - 1])
        rights = random_isometries(n, n - k + 1, n_trials, (seed, 0))
        lefts = random_isometries(m, m - k + 1, n_trials, (seed, 1))
        min_right = min_left = np.inf
        for g, l in zip(rights, lefts):
            min_right = min(min_right, float(np.linalg.norm(a @ (g @ g.conj().T), 2)))
            min_left = min(min_left, float(np.linalg.norm((l @ l.conj().T) @ a, 2)))
        g_star = vh_full.conj().T[:, k - 1:]
        right_star = float(np.linalg.norm(a @ (g_star @ g_star.conj().T), 2))
        l_star = u_full[:, k - 1:]
        left_star = float(np.linalg.norm((l_star @ l_star.conj().T) @ a, 2))
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

    def test_stacked_kernel_calls(self, rng, monkeypatch):
        calls = {"qr": 0, "svd": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        report = projector_intersection_check(rand_complex(rng, 5, 4), 2, 100, seed=3)
        assert report.n_trials == 100
        assert calls["qr"] <= 2
        assert calls["svd"] <= 6

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


class TestStackedWitnessSearch:
    """Unless the closed-form pair certifies, every restart, restart 0
    included, runs in one stack from pass 1."""

    def test_residual_monotone_in_restarts(self, rng):
        a = rand_complex(rng, 4, 3)
        z = 1.3 * float(svd(a).sigma[1]) * np.exp(0.4j)
        assert not rank_k_contains(a, 2, z)
        res = [find_witness(a, 2, z, seed=11, restarts=r).residual for r in (1, 5, 20)]
        assert res[2] <= res[1] <= res[0]

    def test_first_certifying_restart_is_a_prefix_property(self, rng):
        # A non-member's best residual, used as the tolerance, is reached
        # first by a later restart; every shorter prefix of the restarts
        # misses it and that prefix length reproduces it exactly.  Here
        # restart 0 ends at 0.80854 and restart 11 reaches 0.80825.
        a = rand_complex(rng, 5, 3)
        z = 1.2 * float(svd(a).sigma[1]) * np.exp(0.7j)
        tol = find_witness(a, 2, z, seed=3, restarts=20).residual
        wit = find_witness(a, 2, z, seed=3, restarts=20, tol=tol)
        assert wit.restarts_used > 1
        assert wit.residual == tol
        for j in range(1, wit.restarts_used):
            assert find_witness(a, 2, z, seed=3, restarts=j, tol=tol).residual > tol
        again = find_witness(a, 2, z, seed=3, restarts=wit.restarts_used, tol=tol)
        assert again.restarts_used == wit.restarts_used
        assert again.residual == wit.residual
        assert np.array_equal(again.left, wit.left) and np.array_equal(again.right, wit.right)

    @pytest.mark.parametrize("k,z,member", [(1, 0j, True), (2, 0j, True),
                                            (2, 1e-20, True), (2, 0.5, False)])
    def test_rank_one_matrix(self, rng, k, z, member):
        # every image A N has rank one: the null-direction frame at the
        # origin, the polar fallback of a rank-deficient image away from it
        a = rand_complex(rng, 4, 1) @ rand_complex(rng, 1, 3)
        wit = find_witness(a, k, z * float(svd(a).sigma[0]), seed=4, restarts=5)
        assert_consistent_pair(a, k, wit)
        assert (wit.residual <= 1e-10) == member
        assert wit.restarts_used == (1 if member else 5)

    def test_origin_without_room_uses_least_aligned_frames(self, rng):
        # a 3x3 image of rank 2 leaves one left null direction for k = 2,
        # so every step at z = 0 takes the least-aligned directions; 0 lies
        # in the hole of the ring
        a = rand_complex(rng, 3, 3)
        assert not rank_k_contains(a, 2, 0j)
        wit = find_witness(a, 2, 0j, seed=5, restarts=4)
        assert_consistent_pair(a, 2, wit)
        assert wit.restarts_used == 4
        assert wit.residual > 1e-8

    def test_wide_nonmember_runs_the_stack_on_the_adjoint(self, rng):
        a = rand_complex(rng, 2, 5)
        top = float(svd(a).sigma[0])
        z = 1.4 * top * np.exp(0.5j)
        wit = find_witness(a, 2, z, seed=6, restarts=6)
        assert wit.left.shape == (2, 2) and wit.right.shape == (5, 2)
        assert wit.restarts_used == 6
        assert wit.residual >= (abs(z) - top) * np.sqrt(2) - 1e-8
        assert_consistent_pair(a, 2, wit)
        adj = find_witness(a.conj().T, 2, np.conj(z), seed=6, restarts=6)
        assert adj.residual == wit.residual and adj.iterations == wit.iterations
        assert np.array_equal(adj.left, wit.right) and np.array_equal(adj.right, wit.left)

    def test_rejects_nonpositive_max_iter(self, rng):
        with pytest.raises(ValueError, match="max_iter"):
            find_witness(rand_complex(rng, 3, 2), 1, 0.5, max_iter=0)

    def test_iterations_of_the_returned_restart(self, rng):
        a = rand_complex(rng, 4, 3)
        z = 1.3 * float(svd(a).sigma[0])
        assert find_witness(a, 2, z, seed=1, restarts=4, max_iter=1).iterations == 1
        assert 1 < find_witness(a, 2, z, seed=1, restarts=4).iterations <= 500
        member = find_witness(a, 2, 0.5 * float(svd(a).sigma[1]), seed=1)
        assert member.iterations == 1

    def test_one_generator_for_the_restarts(self, rng, generator_seeds):
        a = rand_complex(rng, 5, 3)
        z = 1.2 * float(svd(a).sigma[0]) * np.exp(0.7j)
        assert find_witness(a, 2, z, seed=5, restarts=20).restarts_used == 20
        assert generator_seeds == [(5, 1)]

    @pytest.mark.parametrize("shape,k,scale", [((4, 3), 1, 1.3), ((5, 3), 2, 1.2),
                                               ((3, 3), 2, 1.1), ((2, 5), 2, 1.4)])
    def test_fewer_restarts_run_a_prefix_of_the_frames(self, rng, shape, k, scale):
        # restarts 1..4 of a 5-restart search are restarts 1..4 of a
        # 20-restart one, so the longer search can only do better and, with
        # the shorter one's residual as tolerance, returns the same pair
        a = rand_complex(rng, *shape)
        z = scale * float(svd(a).sigma[k - 1]) * np.exp(0.4j)
        assert not rank_k_contains(a, k, z)
        short = find_witness(a, k, z, seed=12, restarts=5)
        assert find_witness(a, k, z, seed=12, restarts=20).residual <= short.residual
        at_short = find_witness(a, k, z, seed=12, restarts=5, tol=short.residual)
        at_long = find_witness(a, k, z, seed=12, restarts=20, tol=short.residual)
        assert at_long.restarts_used == at_short.restarts_used <= 5
        assert at_long.residual == at_short.residual == short.residual
        assert np.array_equal(at_long.left, at_short.left)
        assert np.array_equal(at_long.right, at_short.right)

    def test_svd_calls_do_not_grow_with_restarts(self, rng, monkeypatch):
        # one SVD of A, which also gives the closed-form pair, then one per
        # half-step for the stack of all 20 restarts, restart 0 included.
        # That makes 18 calls here, as with 2 restarts; running restart 0's
        # first pass alone ahead of the stack took 19, running it one pass
        # ahead of the stack 20, running it to its stall first 39, and one
        # SVD per half-step per restart over 800.
        a = rand_complex(rng, 5, 3)
        z = 1.2 * float(svd(a).sigma[0]) * np.exp(0.7j)
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(x, *args, **kwargs):
            calls.append(np.shape(x))
            return real_svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        find_witness(a, 2, z, seed=5, restarts=2)
        two = len(calls)
        calls.clear()
        wit = find_witness(a, 2, z, seed=5, restarts=20)
        assert wit.restarts_used == 20
        assert [shape[0] for shape in calls[1:3]] == [20, 20]
        assert len(calls) <= 18
        assert len(calls) <= two

    def test_restart_zero_in_the_stack_matches_restart_zero_alone(self, rng):
        # every restart ties here, so the 20-restart search returns restart
        # 0, which ran all of its passes again inside the stack
        a = rand_complex(rng, 5, 3)
        z = 1.2 * float(svd(a).sigma[0]) * np.exp(0.7j)
        alone = find_witness(a, 2, z, seed=3, restarts=1, max_iter=500)
        joint = find_witness(a, 2, z, seed=3, restarts=20, max_iter=500)
        assert joint.restarts_used == 20 and alone.iterations > 1
        assert joint.residual == alone.residual
        assert joint.iterations == alone.iterations
        assert np.array_equal(joint.left, alone.left) and np.array_equal(joint.right, alone.right)
        # with that residual as tol, restart 0 certifies on its first pass
        at_tol = find_witness(a, 2, z, seed=3, restarts=20, max_iter=500, tol=alone.residual)
        assert (at_tol.restarts_used, at_tol.iterations, at_tol.residual) == (1, 1, alone.residual)
        assert np.array_equal(at_tol.left, alone.left) and np.array_equal(at_tol.right, alone.right)

    @pytest.mark.parametrize("j", [-20, 40, 300])
    def test_power_of_two_scaling_leaves_the_search_unchanged(self, j):
        # the stall rule is relative, so scaling A, z and tol by 2**j scales
        # every residual exactly; under an absolute 1e-15 floor, 8 of these
        # 21 rescalings stopped at another pass
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
        # made the mixed start frame NaN; now the search runs and, with
        # residuals that overflow, stays inconclusive
        a = rand_complex(np.random.default_rng(0), 4, 3)
        for scale in (1e160, 1e200, 1e300):
            with np.errstate(over="ignore"):
                wit = find_witness(scale * a, 3, 0.5 * scale * float(svd(a).sigma[1]))
            assert not wit.residual <= 1e-8 * scale
            assert isometry_defect(wit.left) <= 1e-10 and isometry_defect(wit.right) <= 1e-10


# (shape, k, singular-value index, |z| as a multiple of it): members, values
# outside the region or in a ring's hole, and a wide matrix
SCALING_CASES = [((5, 3), 2, 0, 1.2), ((5, 3), 2, 1, 1.2), ((4, 3), 1, 0, 1.3),
                 ((4, 3), 2, 1, 0.5), ((2, 5), 2, 1, 1.4), ((4, 4), 3, 2, 0.5),
                 ((3, 2), 2, 0, 1.5)]


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


def start_stack(a, k, z, count, seed):
    """The singular-vector start frame of a tall a, then count - 1 random frames."""
    m, n = a.shape
    u, sig, vh = np.linalg.svd(a, full_matrices=True)
    first = _start_frames(sig, u, vh.conj().T, m, n, k, z)[0]
    return np.concatenate([first[None], random_isometries(n, k, count - 1, (seed, 1))])


class TestDescendStack:
    @pytest.mark.parametrize("shape,k,index,factor,max_iter,member", [
        ((5, 3), 2, 1, 0.6, 500, True),    # every row certifies on its first pass
        ((4, 3), 1, 0, 1.0, 500, True),    # on the edge: random rows certify later
        ((5, 3), 2, 1, 1.2, 500, False),   # every row runs to its stall
        ((4, 4), 3, 2, 0.5, 500, False),   # inside the hole of a circle
        ((3, 3), 2, 1, 0.0, 500, False),   # the origin, in the hole of a ring
        ((5, 3), 2, 0, 1.2, 3, False),     # max_iter cuts every row off
    ])
    def test_rows_match_each_frame_alone(self, shape, k, index, factor, max_iter, member):
        a = rand_complex(np.random.default_rng(7), *shape)
        sig = svd(a).sigma
        z = complex(factor * float(sig[index]) * np.exp(0.7j))
        near_origin = abs(z) <= 2e-14 * max(1.0, k ** 0.5 * float(sig[0]))
        frames = start_stack(a, k, z, 8, seed=2)
        stacked = _descend(a, z, frames, near_origin, max_iter, 1e-8)
        for i, frame in enumerate(frames):
            alone = _descend(a, z, frame[None], near_origin, max_iter, 1e-8)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[i], want[0])
        residual, iterations = stacked[2:]
        assert (residual <= 1e-8).all() == member
        assert iterations.max() <= max_iter
        if member:
            assert iterations[0] == 1
        if factor == 1.0:
            assert iterations.max() > 1  # rows leave the stack at different passes
        if max_iter == 3:
            assert (iterations == 3).all()


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
    def test_closed_form_and_descent_both_certify_every_member(self):
        cases = member_cases()
        assert len(cases) == 261
        assert sum(z == 0 for _, _, z in cases) == 75
        assert sum(rank_k_region(a, k).regime == "ring" for a, k, _ in cases) == 36
        for a, k, z in cases:
            assert rank_k_contains(a, k, z)
            wide = a.shape[0] < a.shape[1]
            arr, zt = (a.conj().T, z.conjugate()) if wide else (a, z)
            m, n = arr.shape
            u, sig, vh = np.linalg.svd(arr, full_matrices=True)
            right, left = _start_frames(sig, u, vh.conj().T, m, n, k, zt)
            assert left is not None
            assert isometry_defect(left) <= 1e-12 and isometry_defect(right) <= 1e-12
            assert np.linalg.norm(left.conj().T @ arr @ right - zt * np.eye(k)) <= 1e-12 * sig[0]
            # the descent from the same start frame is the independent route
            near_origin = abs(zt) <= 2e-14 * max(1.0, k ** 0.5 * float(sig[0]))
            assert _descend(arr, zt, right[None], near_origin, 500, 1e-8)[2][0] <= 1e-8
            wit = find_witness(a, k, z)
            assert (wit.restarts_used, wit.iterations) == (1, 1)
            pair = (right, left) if wide else (left, right)
            assert np.array_equal(wit.left, pair[0]) and np.array_equal(wit.right, pair[1])

    def test_a_member_costs_one_svd(self, monkeypatch):
        cases = member_cases()
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(x, *args, **kwargs):
            calls.append(np.shape(x))
            return real_svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for a, k, z in cases:
            calls.clear()
            assert find_witness(a, k, z).residual <= 1e-8
            assert calls == [tuple(sorted(a.shape, reverse=True))]


# (shape, k, singular-value index, |z| as a multiple of it, restarts, max_iter,
# residual as float.hex, iterations, restarts_used), for the matrix
# rand_complex(default_rng(100 + row)), z at phase 0.7 and seed 4: members,
# non-members, wide shapes, z = 0 and max_iter cut-offs.  Non-member rows were
# recorded before the search ran every restart, restart 0 included, from pass
# 1 of one stack; member rows when the closed-form pair replaced the descent's
# first pass.
WITNESS_RESULTS = [
    ((5, 3), 2, 1, 0.6, 20, 500, '0x1.326fc2ba228fdp-49', 1, 1),
    ((5, 3), 2, 1, 1.2, 20, 500, '0x1.1194a0d6fa472p+0', 4, 20),
    ((4, 3), 1, 0, 1.3, 20, 500, '0x1.7510ed293457ap+0', 4, 20),
    ((3, 3), 2, 1, 0.0, 20, 500, '0x1.9b1642fd66009p-1', 7, 20),
    ((3, 3), 2, 2, 1.5, 20, 500, '0x1.c21e321766661p-1', 4, 20),
    ((4, 4), 3, 2, 0.5, 20, 500, '0x1.3fe3e885262a7p+1', 4, 20),
    ((5, 4), 3, 3, 1.1, 20, 500, '0x1.76c583b50bf72p-50', 1, 1),
    ((2, 5), 2, 1, 0.7, 20, 500, '0x1.65edbcb4c09cfp-50', 1, 1),
    ((2, 5), 2, 1, 1.4, 6, 500, '0x1.19bcc386f4d06p+1', 4, 6),
    ((4, 2), 2, 0, 0.0, 20, 500, '0x1.26df3a27f2356p-52', 1, 1),
    ((5, 3), 2, 0, 1.2, 5, 3, '0x1.d85ced11d1c19p+1', 3, 5),
    ((4, 3), 2, 1, 1.3, 3, 1, '0x1.221adb2273b99p+0', 1, 3),
    ((1, 1), 1, 0, 1.0, 20, 500, '0x1.0000000000000p-52', 1, 1),
]


def test_find_witness_matches_recorded_results():
    for row, (shape, k, index, factor, restarts, max_iter, residual, iterations,
              used) in enumerate(WITNESS_RESULTS):
        a = rand_complex(np.random.default_rng(100 + row), *shape)
        z = factor * float(svd(a).sigma[index]) * np.exp(0.7j)
        wit = find_witness(a, k, z, seed=4, restarts=restarts, max_iter=max_iter)
        assert (wit.residual.hex(), wit.iterations, wit.restarts_used) == (residual, iterations, used)


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
def test_non_finite_values_agree_on_every_route(monkeypatch, z):
    # rank_k_contains(a, 1, nan) used to be True, and find_witness died in
    # numpy's SVD with "did not converge"
    a = rand_complex(np.random.default_rng(5), 4, 3)
    for k in (1, 2, 3):
        assert not rank_k_contains(a, k, z)
        assert not region_contains(rank_k_region(a, k).region, z, 1e-12)

    def never(*args, **kwargs):
        raise AssertionError("decomposed a matrix for a value that is not finite")

    monkeypatch.setattr(np.linalg, "svd", never)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="z must be finite"):
            find_witness(a, k, z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.3e308, 1.3e308)],
                         ids=["first-quadrant", "second-quadrant"])
def test_finite_value_whose_modulus_overflows(monkeypatch, z):
    # abs(z) raised OverflowError out of all three routes
    a = rand_complex(np.random.default_rng(5), 4, 3)
    for k in (1, 2, 3):
        assert not rank_k_contains(a, k, z)
        assert not region_contains(rank_k_region(a, k).region, z, 1e-12)

    def never(*args, **kwargs):
        raise AssertionError("decomposed a matrix for a value beyond the float range")

    monkeypatch.setattr(np.linalg, "svd", never)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="z must be finite, and so must its modulus"):
            find_witness(a, k, z)
    with pytest.raises(ValueError, match="modulus"):
        find_witness(np.eye(3), 1, z)
