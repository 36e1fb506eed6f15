import lasso_reference as ref
import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from voxalign.errors import DegenerateInput, NumericalFailure, ShapeMismatch
from voxalign.linalg import (
    apply_centering,
    cosine,
    fractional_ranks,
    gram_linear,
    pearson,
    ridge_solve,
    spearman,
)
from voxalign.rng import Rng


class TestGramLinear:
    def test_identity_rows(self):
        np.testing.assert_array_equal(gram_linear(np.eye(2)), np.eye(2))

    def test_hand_values(self):
        k = gram_linear([[1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(k, [[2.0, 4.0], [4.0, 8.0]])

    def test_symmetric_psd_random(self):
        # PSD verified through quadratic forms: v^T K v >= -1e-8.
        for s in range(100):
            r = Rng(s, "gram")
            m, d = 2 + s % 7, 1 + s % 8
            k = gram_linear(r.child("a").normal(m, d))
            np.testing.assert_allclose(k, k.T, atol=0)
            v = r.child("v").normal(50, m)
            quad = np.einsum("ij,jk,ik->i", v, k, v)
            assert quad.min() >= -1e-8
            assert np.diagonal(k).min() >= 0.0

    def test_rejects_vector(self):
        with pytest.raises(ShapeMismatch):
            gram_linear([1.0, 2.0])


class TestCentering:
    def test_ones_center_to_zero(self):
        np.testing.assert_allclose(apply_centering(np.ones((3, 3))), 0.0, atol=1e-15)

    def test_identity_hand_values(self):
        expected = np.full((3, 3), -1.0 / 3.0)
        np.fill_diagonal(expected, 2.0 / 3.0)
        np.testing.assert_allclose(apply_centering(np.eye(3)), expected, atol=1e-15)

    def test_matches_explicit_h(self):
        for s in range(20):
            r = Rng(s, "centering")
            m = 2 + s % 7
            k = gram_linear(r.child("a").normal(m, 3))
            h = np.eye(m) - np.ones((m, m)) / m
            np.testing.assert_allclose(apply_centering(k), h @ k @ h, atol=1e-9)

    def test_row_col_sums_vanish_and_idempotent(self):
        r = Rng(0, "centering-sums")
        k = gram_linear(r.normal(6, 4))
        centered = apply_centering(k)
        assert np.abs(centered.sum(axis=0)).max() < 1e-9
        assert np.abs(centered.sum(axis=1)).max() < 1e-9
        np.testing.assert_allclose(apply_centering(centered), centered, atol=1e-9)
        np.testing.assert_allclose(centered, centered.T, atol=0)

    def test_errors(self):
        with pytest.raises(DegenerateInput):
            apply_centering([[1.0]])
        with pytest.raises(ShapeMismatch):
            apply_centering(np.ones((2, 3)))


class TestPearson:
    def test_affine_increasing(self):
        x = np.array([0.0, 1.0, 4.0, 9.0])
        assert pearson(x, 2 * x + 3) == 1.0

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, -x) == -1.0

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        r = Rng(1, "pearson")
        x = r.child("x").normal(20)
        y = r.child("y").normal(20)
        base = pearson(x, y)
        assert abs(pearson(y, x) - base) < 1e-12
        assert abs(pearson(3.0 * x + 1.0, y) - base) < 1e-12
        assert abs(pearson(x, 0.5 * y - 7.0) - base) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, np.exp(x)) == 1.0
        assert spearman(x, -(x**3)) == -1.0

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_ties_average_rank(self):
        np.testing.assert_allclose(
            fractional_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )

    @pytest.mark.parametrize("n,levels", [(1, 1), (2, 1), (9, 2), (500, 3), (5000, 40), (4000, 10**9)])
    def test_ranks_match_loop_ranker_on_heavy_ties(self, n, levels):
        x = Rng(n, "ranks").integers(0, levels, n) / 7.0
        ranks = fractional_ranks(x)
        assert ranks.tobytes() == ref.fractional_ranks(x).tobytes()
        assert ranks.tobytes() == scipy.stats.rankdata(x, method="average").tobytes()

    def test_matches_scipy_with_ties(self):
        for s in range(20):
            r = Rng(s, "spearman")
            x = np.round(r.child("x").normal(15), 1)  # rounding forces ties
            y = np.round(r.child("y").normal(15), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        r = Rng(21, "spearman-inv")
        x = r.child("x").normal(18)
        y = r.child("y").normal(18)
        base = spearman(x, y)
        assert abs(spearman(y, x) - base) < 1e-12
        assert abs(spearman(4.0 * x + 2.0, y) - base) < 1e-12
        assert abs(spearman(x, 0.25 * y - 3.0) - base) < 1e-12

    def test_all_equal(self):
        with pytest.raises(DegenerateInput):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestCosine:
    def test_self(self):
        assert cosine([3.0, 4.0], [3.0, 4.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInput):
            cosine([0.0, 0.0], [1.0, 0.0])


class TestRidgeSolve:
    def test_orthonormal_columns_lambda_zero(self):
        q, _ = np.linalg.qr(Rng(0, "ridge").normal(8, 3))
        y = Rng(1, "ridge").normal(8, 2)
        np.testing.assert_allclose(ridge_solve(q, y, 0.0), q.T @ y, atol=1e-10)

    def test_shrinkage_monotone(self):
        r = Rng(2, "ridge")
        x = r.child("x").normal(10, 4)
        y = r.child("y").normal(10, 2)
        norms = [np.linalg.norm(ridge_solve(x, y, lam)) for lam in (0.0, 1e2, 1e4)]
        assert norms[0] > norms[1] > norms[2]

    def test_scalar_least_squares(self):
        w = ridge_solve([[1.0], [2.0]], [[2.0], [4.0]], 0.0)
        np.testing.assert_allclose(w, [[2.0]], atol=1e-12)

    def test_matches_qr_oracle(self):
        # Independent oracle: augmented least squares solved by SVD (lstsq).
        for s in range(20):
            r = Rng(s, "ridge-oracle")
            n, p, q = 12, 4, 3
            x = r.child("x").normal(n, p)
            y = r.child("y").normal(n, q)
            expected = np.linalg.lstsq(x, y, rcond=None)[0]
            got = ridge_solve(x, y, 0.0)
            assert np.linalg.norm(got - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))

    def test_matches_augmented_oracle_with_lambda(self):
        r = Rng(99, "ridge-aug")
        n, p, q, lam = 10, 5, 2, 0.7
        x = r.child("x").normal(n, p)
        y = r.child("y").normal(n, q)
        x_aug = np.vstack([x, np.sqrt(lam) * np.eye(p)])
        y_aug = np.vstack([y, np.zeros((p, q))])
        expected = np.linalg.lstsq(x_aug, y_aug, rcond=None)[0]
        np.testing.assert_allclose(ridge_solve(x, y, lam), expected, atol=1e-8)

    def test_singular_without_regularization(self):
        x = np.ones((4, 3))  # rank 1
        y = np.ones((4, 1))
        with pytest.raises(NumericalFailure):
            ridge_solve(x, y, 0.0)
        ridge_solve(x, y, 1e-6)  # regularized succeeds

    def test_refuses_the_gram_matrices_scipy_cholesky_refused(self):
        """Rank 3 of 4 columns: whether rounding leaves the Gram matrix
        positive definite varies by seed. ridge_solve fails exactly where
        scipy's cho_factor did, including where an LU solve would not."""
        for s in range(20):
            x = Rng(s, "ridge-rank").normal(6, 3)
            x = np.hstack([x, 3.0 * x[:, :1] + x[:, 1:2]])
            try:
                scipy.linalg.cho_factor(x.T @ x, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                with pytest.raises(NumericalFailure, match="Cholesky factorization failed"):
                    ridge_solve(x, x[:, :2], 0.0)
            else:
                assert np.isfinite(ridge_solve(x, x[:, :2], 0.0)).all()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.eye(2), -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and non-negative"):
            ridge_solve(np.eye(2), np.eye(2), lam)
