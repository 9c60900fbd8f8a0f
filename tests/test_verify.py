"""Suite-level behaviour: known baseline plus mutation sensitivity."""

import dataclasses

import numpy as np
import pytest

from nrange import geometry, oracles, projrange, rankk, rectrange
from nrange.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from nrange.verify import SUITE_NAMES, run_suite, run_suites

# The one check expected to fail on a correct build: the reference corner is
# a non-reducing eigenvalue, so the boundary bend sits 3.17e-5 from exactly
# 5i while the check demands 1e-6 (see the acceptance notes in the README).
KNOWN_RED = {("prop9", "reference-corner-sharp-in-lower")}


def failing_set(results):
    return {(r.suite, r.name) for r in results if not r.passed}


class TestBaseline:
    def test_all_suites_match_known_baseline(self):
        results = run_suites(list(SUITE_NAMES), seed=1)
        assert failing_set(results) == KNOWN_RED

    @pytest.mark.parametrize("name", sorted(set(SUITE_NAMES) - {"prop9"}))
    def test_individual_suites_green(self, name):
        results = run_suite(name, seed=3)
        assert failing_set(results) == set()

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            run_suite("prop2", seed=0)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_suites(list(SUITE_NAMES), seed=-1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
    def test_hostile_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            run_suites(list(SUITE_NAMES), seed=1, tol=tol)

    def test_cli_exit_codes(self):
        assert main(["verify", "--suite", "prop12", "--seed", "1"]) == EXIT_OK
        assert main(["verify", "--suite", "prop9", "--seed", "1"]) == EXIT_CHECK_FAILED


# every check of run_suites(all), in order; a suite labels its own checks
ALL_CHECKS = [
    ("prop1", "radius-matches-power-iteration"),
    ("prop1", "boundary-witness-attains-radius"),
    ("prop1", "sampling-never-exceeds-radius"),
    ("prop1", "sampling-sup-reaches-0.97-radius"),
    ("prop5", "frobenius-radius-from-entries"),
    ("prop5", "disc-union-stays-inside"),
    ("prop5", "sup-attains-frobenius-radius"),
    ("prop5", "centre-bound-under-hypothesis"),
    ("prop7", "ellipse-matches-sweep"),
    ("prop7", "leading-zero-convention"),
    ("prop7", "two-by-two-reduction"),
    ("prop8", "lower-inside-higher"),
    ("prop8", "top-block-spectrum-inside-higher"),
    ("prop8", "union-of-lower-ranges-fills-disc"),
    ("prop8", "axis-projections-match-blocks"),
    ("prop8", "block-similarity-consistency"),
    ("prop9", "corners-transfer-to-lower-range"),
    ("prop9", "reference-corner-sharp-in-lower"),
    ("prop9", "reference-corner-absent-in-higher"),
    ("prop9", "reference-compression-spectrum"),
    ("prop12", "regions-nest-downward"),
    ("prop13", "block-eigenvalues-are-plus-minus-sigma"),
    ("prop13", "hermitian-interval-is-sigma-k"),
    ("prop13", "unitary-invariance-of-regions"),
    ("prop13", "rotated-witness-same-residual"),
    ("prop13", "certified-values-obey-axis-bounds"),
    ("prop14", "regime-trichotomy"),
    ("prop14", "region-matches-inequalities"),
    ("prop14", "witness-agrees-with-formula"),
    ("prop14", "certified-grid-obeys-axis-bounds"),
    ("prop14", "non-members-separated"),
    ("prop16", "projector-bounds-hold"),
]


@pytest.fixture(scope="module")
def all_results_seed2():
    return run_suites(list(SUITE_NAMES), seed=2)


class TestResultRows:
    def test_checks_are_the_frozen_list(self, all_results_seed2):
        assert [(r.suite, r.name) for r in all_results_seed2] == ALL_CHECKS

    def test_passing_checks_carry_no_detail(self, all_results_seed2):
        assert [r for r in all_results_seed2 if r.passed and r.detail] == []

    def test_suites_return_failure_lists_by_check_name(self):
        checks = SUITE_NAMES["prop12"](1)
        assert checks == {"regions-nest-downward": []}

    def test_cli_reports_the_one_red_check_on_stderr(self, capsys):
        assert main(["verify", "--suite", "prop9", "--seed", "1"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("failed: prop9/reference-corner-sharp-in-lower: distance=3.17")


def perturb_range_disc(monkeypatch):
    original = rectrange.range_disc

    def mutated(a):
        region = original(a)
        if isinstance(region, geometry.Disc):
            return geometry.Disc(region.center, region.radius * (1 + 1e-3))
        return region

    monkeypatch.setattr(rectrange, "range_disc", mutated)
    return "prop1"


def perturb_norm_range_disc(monkeypatch):
    original = rectrange.norm_range_disc

    def mutated(a, b):
        region = original(a, b)
        if isinstance(region, geometry.Disc):
            return geometry.Disc(region.center, region.radius * (1 + 1e-3) + 1e-3)
        return region

    monkeypatch.setattr(rectrange, "norm_range_disc", mutated)
    return "prop5"


def perturb_vector_ellipse(monkeypatch):
    original = projrange.vector_ellipse

    def mutated(a):
        region = original(a)
        if isinstance(region, geometry.Ellipse):
            return geometry.Ellipse(
                region.focus1, region.focus2, region.major_axis_length + 1e-3
            )
        return region

    monkeypatch.setattr(projrange, "vector_ellipse", mutated)
    return "prop7"


def perturb_rank_k_region(monkeypatch):
    original = rankk.rank_k_region

    def mutated(a, k):
        rk = original(a, k)
        region = rk.region
        match region:
            case geometry.Disc(c, r):
                region = geometry.Disc(c, r * (1 + 1e-3))
            case geometry.Circle(c, r):
                region = geometry.Circle(c, r * (1 + 1e-3))
            case geometry.Annulus(c, lo, hi):
                region = geometry.Annulus(c, lo, hi * (1 + 1e-3))
            case _:
                pass
        return rankk.RankKRegion(rk.k, rk.regime, region)

    monkeypatch.setattr(rankk, "rank_k_region", mutated)
    return "prop14"


def perturb_separating_frame(monkeypatch):
    original = rankk.separating_frame

    def mutated(a, k, z):
        # drop the frame's first column: the outside frame then misses the
        # dimension the proof needs, and the hole frame loses sigma_1
        frame = original(a, k, z)
        return None if frame is None else frame[:, 1:]

    monkeypatch.setattr(rankk, "separating_frame", mutated)
    return "prop14"


def perturb_mc_rect_sup(monkeypatch, factor=1.05):
    original = oracles.mc_rect_sup

    def mutated(a, n_samples, seed, keep_points=False):
        report = original(a, n_samples, seed, keep_points)
        return dataclasses.replace(report, sup_abs=report.sup_abs * factor)

    monkeypatch.setattr(oracles, "mc_rect_sup", mutated)
    return "prop1"


MUTATIONS = [
    perturb_range_disc,
    perturb_norm_range_disc,
    perturb_vector_ellipse,
    perturb_rank_k_region,
    perturb_mc_rect_sup,
    perturb_separating_frame,
]


class TestMutationSmoke:
    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
    def test_radius_perturbation_trips_matching_suite(self, monkeypatch, mutate):
        suite = mutate(monkeypatch)
        results = run_suite(suite, seed=1)
        extra = failing_set(results) - KNOWN_RED
        assert extra, f"perturbation was not caught by {suite}"

    @pytest.mark.parametrize("mutate", MUTATIONS[:2], ids=lambda f: f.__name__)
    def test_cli_verify_all_exits_one_under_mutation(self, monkeypatch, mutate):
        mutate(monkeypatch)
        assert main(["verify", "--suite", "all", "--seed", "1"]) == EXIT_CHECK_FAILED

    # every primary prop1 case samples past 0.97 of the radius, so a 5% rise
    # crosses the radius and a 10% drop falls below the window
    @pytest.mark.parametrize("factor, check", [
        (1.05, "sampling-never-exceeds-radius"),
        (0.90, "sampling-sup-reaches-0.97-radius"),
    ])
    def test_sampler_perturbation_trips_its_check(self, monkeypatch, factor, check):
        suite = perturb_mc_rect_sup(monkeypatch, factor)
        results = run_suite(suite, seed=1)
        assert failing_set(results) - KNOWN_RED == {("prop1", check)}

    def test_frame_perturbation_trips_only_the_separation_check(self, monkeypatch):
        # the region mutation moves the grid and leaves every non-member
        # proven; only a wrong frame trips the check
        perturb_rank_k_region(monkeypatch)
        assert ("prop14", "non-members-separated") not in failing_set(run_suite("prop14", seed=1))
        monkeypatch.undo()
        suite = perturb_separating_frame(monkeypatch)
        assert failing_set(run_suite(suite, seed=1)) == {("prop14", "non-members-separated")}


def test_prop14_grid_margins_are_wide(rng):
    # the membership grids must stay far from regime thresholds relative to
    # the residual cutoffs; spot-check the fixture generator
    from nrange.linalg import svd
    from nrange.verify import _separated_matrix

    for _ in range(10):
        a = _separated_matrix(rng, 3, 3)
        sig = svd(a).sigma
        assert np.min(-np.diff(sig)) >= 0.05 * sig[0]
        assert sig[-1] >= 0.05 * sig[0]


# np.linalg.svd calls of each suite at seed 1.  prop14: for each of its 30
# matrices, two thin SVDs of its own (drawing it, and its singular values)
# and one full SVD shared by every region, verdict, witness and separating
# frame, plus 180 SVDs of the images A N of witnesses in empty regions.
# prop16: one full SVD of each of its 8 matrices at most twice as long as
# wide and one per k of the 5 x 2 and 6 x 2 ones, which bypass the slot; its
# projected norms take no SVD.  prop1: for each of its 41 matrices, two thin
# SVDs of its own (drawing it, and its top singular value) and one SVD for
# its disc that its eight boundary witnesses share, wide ones included, since
# they read the adjoint's factors from A's; the two 3 x 7 box cases bypass
# the slot, so their disc is a thin SVD and each witness one full SVD.  A
# count that grows means a route stopped sharing.
SUITE_SVD_CALLS = {"prop1": 139, "prop14": 270, "prop16": 12}
# prop16's projected norms: one eigvalsh of a Gram stack per side for each
# of its 28 (matrix, k) pairs, the star frames' norms included.
PROP16_EIGVALSH_CALLS = 56


@pytest.mark.parametrize("name", sorted(SUITE_SVD_CALLS))
def test_suites_make_recorded_svd_calls(svd_calls, name):
    assert failing_set(run_suite(name, seed=1)) == set()
    assert len(svd_calls) == SUITE_SVD_CALLS[name]


def test_prop16_makes_recorded_eigvalsh_calls(monkeypatch):
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(x, *args, **kwargs):
        calls.append(np.shape(x))
        return real_eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert failing_set(run_suite("prop16", seed=1)) == set()
    assert len(calls) == PROP16_EIGVALSH_CALLS
