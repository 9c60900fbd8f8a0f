import numpy as np
import pytest

from conftest import rand_complex
from nrange.linalg import (
    as_matrix,
    frobenius_inner,
    hermitian_eigen,
    isometry_defect,
    random_isometries,
    random_isometry,
    require_isometry,
    sigma_max,
    svd,
)
from nrange.oracles import power_sigma_max
from nrange.reference import WIDE_EXAMPLE


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

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 1), (4, 4), (7, 3), (12, 5), (20, 20)])
    def test_stack_rows_match_single_seed(self, m, k):
        seeds = [0, 17, (3, 1), (3, 2), (9, 4, 1)]
        stack = random_isometries(m, k, seeds)
        assert stack.shape == (len(seeds), m, k)
        for row, seed in zip(stack, seeds):
            assert np.array_equal(row, random_isometry(m, k, seed))

    def test_stack_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_isometries(2, 3, [0, 1])

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
