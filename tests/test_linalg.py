import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest

import nrange
from conftest import rand_complex
from nrange.geometry import default_angles
from nrange.linalg import (
    as_matrix,
    frobenius_inner,
    hermitian_eigen,
    frobenius,
    isometry_defect,
    pow2_scaled,
    random_isometries,
    random_isometry,
    require_ints,
    require_isometry,
    sigma_max,
    svd,
    times_pow2,
)
from nrange.oracles import power_sigma_max
from nrange.projrange import ProjectorSetting
from nrange.reference import TALL_EXAMPLE, TALL_EXAMPLE_FRAME, WIDE_EXAMPLE
from nrange.verify import run_suite, run_suites


class TestSvd:
    def test_identity(self):
        assert np.allclose(svd(np.eye(2)).sigma, [1.0, 1.0])

    def test_tall_diagonal(self):
        a = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert np.allclose(svd(a).sigma, [3.0, 0.0])

    def test_reference_sigma_against_power_iteration(self):
        top = float(svd(WIDE_EXAMPLE).sigma[0])
        est = power_sigma_max(WIDE_EXAMPLE, 200, 0)
        assert abs(top - est) <= 1e-8 * top

    def test_reconstruction_and_ordering(self, rng):
        for _ in range(5):
            a = rand_complex(rng, 5, 3)
            dec = svd(a)
            assert np.all(np.diff(dec.sigma) <= 0)
            assert np.all(dec.sigma >= 0)
            err = np.linalg.norm(a - dec.reconstruct())
            assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
            assert isometry_defect(dec.left) <= 1e-10
            assert isometry_defect(dec.right) <= 1e-10

    def test_sigma_invariant_under_adjoint_and_phase(self, rng):
        a = rand_complex(rng, 4, 6)
        s = svd(a).sigma
        assert np.allclose(svd(a.conj().T).sigma, s, atol=1e-10)
        for theta in (0.3, 1.7, 4.1):
            assert np.allclose(svd(np.exp(1j * theta) * a).sigma, s, atol=1e-10)

    def test_spectral_norm_unitarily_invariant(self, rng):
        a = rand_complex(rng, 4, 3)
        u = random_isometry(4, 4, seed=1)
        v = random_isometry(3, 3, seed=2)
        assert abs(sigma_max(u.conj().T @ a @ v) - sigma_max(a)) <= 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestHermitianEigen:
    def test_diagonal(self):
        eig = hermitian_eigen(np.diag([5.0, 1.0]))
        assert np.allclose(eig.lam, [5.0, 1.0])

    def test_two_by_two_offdiagonal(self):
        c = 1.5 - 2.0j
        eig = hermitian_eigen(np.array([[0.0, c], [np.conj(c), 0.0]]))
        assert np.allclose(eig.lam, [abs(c), -abs(c)], atol=1e-12)

    def test_random_reconstruction(self, rng):
        g = rand_complex(rng, 6, 6)
        hm = (g + g.conj().T) / 2
        eig = hermitian_eigen(hm)
        assert np.linalg.norm(hm - eig.reconstruct()) <= 1e-10 * max(1.0, np.linalg.norm(hm))
        assert isometry_defect(eig.frame) <= 1e-10

    def test_block_matrix_spectrum_is_plus_minus_sigma(self, rng):
        a = rand_complex(rng, 4, 3)
        sig = svd(a).sigma
        block = np.block([[np.zeros((4, 4)), a], [a.conj().T, np.zeros((3, 3))]])
        lam = hermitian_eigen(block).lam
        expected = np.sort(np.concatenate([sig, -sig, np.zeros(1)]))[::-1]
        assert np.allclose(lam, expected, atol=1e-10)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(rand_complex(rng, 3, 3))

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-300])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        # with the symmetry tolerance floored at 1e-10, every matrix below
        # that norm passed, and its eigenvalues were taken as real; below
        # about 1e-154 both Frobenius norms underflowed to 0 until the test
        # ran on the input over the power of two at its largest entry
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigen(scale * np.array([[1, 1j], [0, 2]]))


def _peak(x):
    return max(np.abs(np.real(x)).max(), np.abs(np.imag(x)).max())


class TestPow2Exponent:
    """The exponent of ``pow2_scaled``, the library's one scaling rule."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 3.0, 1e160, 1e300])
    def test_puts_the_largest_part_in_the_band(self, rng, scale):
        values = scale * rand_complex(rng, 4, 3)
        scaled, e = pow2_scaled(values)
        inside = 0.5 <= _peak(values) < 2.0**400
        assert (e == 0) == inside
        # outside the band the part lands at the nearer end
        assert inside or 0.5 <= _peak(scaled) < 1.0 or 2.0**399 <= _peak(scaled) < 2.0**400
        assert np.array_equal(scaled, times_pow2(values, -e))
        assert np.array_equal(times_pow2(scaled, e), values)

    def test_edges(self):
        assert pow2_scaled(np.array([0.0, 0j]))[1] == 0
        assert pow2_scaled(0.5) == (0.5, 0) and pow2_scaled(np.nextafter(0.5, 0.0))[1] == -1
        top = 2.0**400
        assert pow2_scaled(np.nextafter(top, 0.0))[1] == 0 and pow2_scaled(top) == (top / 2, 1)
        # a subnormal part comes up to the band; 2**1074 is not a float
        assert pow2_scaled(5e-324) == (0.5, -1073)
        # an infinite part counts as the largest float
        assert pow2_scaled(np.float64(np.inf))[1] == pow2_scaled(1.7e308)[1] == 624
        # parts, not moduli: this modulus is past the float range
        part = math.ldexp(1e308, -624)
        assert pow2_scaled(1e308 + 1e308j) == (complex(part, part), 624)

    def test_scaling_back_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = times_pow2(np.array([complex(1e308, -1e308), complex(-0.0, 1.0)]), 1)
        assert back[0] == complex(np.inf, -np.inf)
        # part by part: a zero keeps its sign
        assert math.copysign(1.0, back[1].real) == -1.0


class TestFrobenius:
    @pytest.mark.parametrize("j", [-1070, -600, -401, 0, 401, 600, 1000])
    def test_scales_exactly(self, rng, j):
        # x holds only the bits 2**j x keeps, so 2**j x is exact
        x = times_pow2(times_pow2(rand_complex(rng, 3, 4), j), -j)
        expected = math.ldexp(float(np.linalg.norm(x)), j)
        assert frobenius(times_pow2(x, j)) == expected

    def test_past_the_float_range_is_inf(self):
        assert frobenius(np.array([1.7e308, 1.7e308])) == np.inf
        assert frobenius(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


class TestRandomIsometry:
    def test_defect(self):
        h = random_isometry(4, 2, seed=7)
        assert isometry_defect(h) <= 1e-12

    def test_square_is_unitary(self):
        u = random_isometry(3, 3, seed=1)
        assert isometry_defect(u) <= 1e-12
        assert np.linalg.norm(u @ u.conj().T - np.eye(3)) <= 1e-12

    def test_seed_determinism_bitwise(self):
        a = random_isometry(5, 3, seed=99)
        b = random_isometry(5, 3, seed=99)
        assert np.array_equal(a, b)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_isometry(2, 3, seed=0)

    @staticmethod
    def stack_reference(m, k, count, seed):
        """One generator, one (count, 2, m, k) draw, QR and phase fix per frame."""
        draw = np.random.default_rng(seed).standard_normal((count, 2, m, k))
        frames = []
        for real, imag in draw:
            q, r = np.linalg.qr(real + 1j * imag)
            d = np.diagonal(r).copy()
            d[d == 0] = 1.0
            frames.append(q * (d / np.abs(d)))
        return np.array(frames)

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 1), (4, 4), (7, 3), (12, 5), (20, 20)])
    def test_stack_rows_match_single_seed(self, m, k):
        for seed in (0, 17, (3, 1), (9, 4, 1)):
            stack = random_isometries(m, k, 5, seed)
            assert stack.shape == (5, m, k)
            assert np.array_equal(stack, self.stack_reference(m, k, 5, seed))
            assert np.array_equal(random_isometries(m, k, 2, seed), stack[:2])
            assert np.array_equal(stack[0], random_isometry(m, k, seed))

    def test_stack_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_isometries(2, 3, 2, 0)
        for count in (0, -1):
            with pytest.raises(ValueError, match="count"):
                random_isometries(3, 2, count, 0)

    def test_require_isometry_rejects_skewed(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            require_isometry(rand_complex(rng, 4, 2))


class TestFrobeniusInner:
    def test_self_inner_is_squared_norm(self, rng):
        a = rand_complex(rng, 3, 4)
        val = frobenius_inner(a, a)
        assert abs(val.imag) <= 1e-12
        assert abs(val.real - np.linalg.norm(a) ** 2) <= 1e-10

    def test_rank_one_inner_is_bilinear_value(self, rng):
        a = rand_complex(rng, 3, 4)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        assert abs(frobenius_inner(a, np.outer(y, x.conj())) - y.conj() @ a @ x) <= 1e-12

    def test_entry_read(self):
        e11 = np.zeros((2, 3))
        e11[0, 0] = 1.0
        assert frobenius_inner(WIDE_EXAMPLE, e11) == pytest.approx(6 + 1j)

    def test_conjugate_symmetry(self, rng):
        a, b = rand_complex(rng, 2, 5), rand_complex(rng, 2, 5)
        assert frobenius_inner(a, b) == pytest.approx(np.conj(frobenius_inner(b, a)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            frobenius_inner(rand_complex(rng, 2, 2), rand_complex(rng, 2, 3))


def test_as_matrix_promotes_vectors():
    assert as_matrix([3.0, 4.0]).shape == (2, 1)


# the counts, indices and seeds of the helpers and the suite runner, as
# (call, error, message); TestIntegerContract passes True to every count,
# index and seed of a public function
HOSTILE_HELPER_ARGUMENTS = {
    "random_isometries-count=np.True_": (lambda: random_isometries(3, 2, np.True_, 0), TypeError,
                                         "count must be an integer, got bool"),
    "random_isometries-count=2.0": (lambda: random_isometries(3, 2, 2.0, 0), TypeError,
                                    "count must be an integer, got float"),
    "random_isometries-count=0": (lambda: random_isometries(3, 2, 0, 0), ValueError,
                                  "count must be >= 1, got 0"),
    "random_isometry-m=3.0": (lambda: random_isometry(3.0, 2, 0), TypeError,
                              "m must be an integer, got float"),
    "random_isometry-k=0": (lambda: random_isometry(3, 0, 0), ValueError, "k must be >= 1, got 0"),
    "random_isometry-k=4": (lambda: random_isometry(3, 4, 0), ValueError, "need 1 <= k <= m, got k=4, m=3"),
    "random_isometry-seed=2.0": (lambda: random_isometry(3, 2, 2.0), TypeError,
                                 "seed must be an integer, got float"),
    "random_isometry-seed=-1": (lambda: random_isometry(3, 2, -1), ValueError,
                                "seed must be non-negative, got -1"),
    "random_isometries-seed=(3, True)": (lambda: random_isometries(3, 2, 2, (3, True)), TypeError,
                                         "seed must be an integer, got bool"),
    "random_isometries-seed=(3, -1)": (lambda: random_isometries(3, 2, 2, (3, -1)), ValueError,
                                       "seed must be non-negative, got -1"),
    "random_isometries-seed=[3, 1]": (lambda: random_isometries(3, 2, 2, [3, 1]), TypeError,
                                      "seed must be an integer, got list"),
    "default_angles-n=8.0": (lambda: default_angles(8.0), TypeError, "n must be an integer, got float"),
    "default_angles-n=True": (lambda: default_angles(True), TypeError, "n must be an integer, got bool"),
    "default_angles-n=1": (lambda: default_angles(1), ValueError, "n must be >= 2, got 1"),
    "run_suite-seed=np.True_": (lambda: run_suite("prop12", np.True_), TypeError,
                                "seed must be an integer, got bool"),
    "run_suite-seed=1.5": (lambda: run_suite("prop12", 1.5), TypeError,
                           "seed must be an integer, got float"),
    "run_suites-seed=2.0": (lambda: run_suites(["prop12"], 2.0), TypeError,
                            "seed must be an integer, got float"),
}


@pytest.mark.parametrize("case", HOSTILE_HELPER_ARGUMENTS)
def test_hostile_helper_count_or_seed_raises(case):
    # run_suite(..., 1.5) failed inside numpy's seeding, and numpy raised its
    # own bare TypeErrors for the other non-integers
    call, error, message = HOSTILE_HELPER_ARGUMENTS[case]
    with pytest.raises(error, match=message):
        call()


def test_require_ints_reports_the_first_bad_keyword():
    require_ints(8, n_angles=np.int64(8), k=9)
    with pytest.raises(ValueError, match="^k must be >= 8, got 7$"):
        require_ints(8, n_angles=8, k=np.int32(7), seed=True)
    with pytest.raises(ValueError, match="^count must be non-negative, got -1$"):
        require_ints(0, count=-1)


# every public function with one of these parameters must accept only an
# integer there, and refuse a bool with the contract's TypeError before any
# decomposition or random draw
CONTRACT_PARAMETERS = {"k", "seed", "restarts", "max_iter", "n_trials", "n_samples", "n_iters",
                       "count", "n_angles"}
_SETTING = ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME)
# valid keyword arguments of each entry point, by module.function
ENTRY_POINTS = {
    "fov.fov_boundary": dict(a=np.eye(3), n_angles=16),
    "linalg.random_isometries": dict(m=3, k=2, count=2, seed=0),
    "linalg.random_isometry": dict(m=3, k=2, seed=0),
    "oracles.mc_fov_samples": dict(a=np.eye(3), n_samples=10, seed=0),
    "oracles.mc_rect_sup": dict(a=np.eye(3), n_samples=10, seed=0),
    "oracles.power_sigma_max": dict(a=np.eye(3), n_iters=10, seed=0),
    "projrange.higher_range": dict(setting=_SETTING, n_angles=16),
    "projrange.lower_range": dict(setting=_SETTING, n_angles=16),
    "projrange.sharp_transfer_report": dict(setting=_SETTING, n_angles=16),
    "rankk.find_witness": dict(a=np.eye(3), k=1, z=0.5, seed=0, restarts=2, max_iter=5),
    "rankk.hermitian_rank_interval": dict(hm=np.eye(3), k=1),
    "rankk.projector_intersection_check": dict(a=np.eye(3), k=1, n_trials=3, seed=0),
    "rankk.rank_k_contains": dict(a=np.eye(3), k=1, z=0.5),
    "rankk.rank_k_region": dict(a=np.eye(3), k=1),
    "rankk.separating_frame": dict(a=np.eye(3), k=1, z=2.0),
    "rectrange.norm_range_union": dict(a=np.eye(3), n_samples=10, seed=0),
    "verify.run_suite": dict(name="prop12", seed=0),
    "verify.run_suites": dict(names=["prop12"], seed=0),
}

def public_functions():
    """Every public function of nrange and its modules, as {module.function: function}."""
    found = {}
    for info in pkgutil.iter_modules(nrange.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"nrange.{info.name}")
        for name in getattr(module, "__all__", ()):
            func = getattr(module, name)
            if inspect.isfunction(func):
                found[f"{func.__module__.removeprefix('nrange.')}.{func.__name__}"] = func
    return found


def checked_parameters():
    return [(name, param) for name, func in sorted(public_functions().items())
            for param in inspect.signature(func).parameters
            if param in CONTRACT_PARAMETERS]


class TestIntegerContract:
    def test_every_entry_point_is_in_the_table(self):
        functions = public_functions()
        exported = [getattr(nrange, name) for name in nrange.__all__]
        assert {f for f in exported if inspect.isfunction(f)} <= set(functions.values())
        listed = {name for name, _ in checked_parameters()}
        assert listed == set(ENTRY_POINTS), "add the new entry point to ENTRY_POINTS"
        for name, kwargs in ENTRY_POINTS.items():
            inspect.signature(functions[name]).bind(**kwargs)

    @pytest.mark.parametrize("name, param", checked_parameters(),
                             ids=[f"{name}-{param}" for name, param in checked_parameters()])
    def test_bool_is_refused_before_any_work(self, monkeypatch, name, param):
        def never(*args, **kwargs):
            raise AssertionError(f"{name} worked before checking {param}")

        for attr in ("svd", "eigh", "eigvals", "qr", "norm"):
            monkeypatch.setattr(np.linalg, attr, never)
        monkeypatch.setattr(np.random, "default_rng", never)
        func = public_functions()[name]
        with pytest.raises(TypeError, match=f"^{param} must be an integer, got bool$"):
            func(**{**ENTRY_POINTS[name], param: True})
