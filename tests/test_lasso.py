import dataclasses

import lasso_reference as ref
import numpy as np
import pytest
from lasso_reference import soft_threshold

from voxalign import lasso
from voxalign.data import RegionMask
from voxalign.errors import DegenerateInput, ShapeMismatch
from voxalign.lasso import backproject, kkt_violation, lasso_fit
from voxalign.linalg import ridge_solve
from voxalign.rng import Rng


def standardized_design(seed, n, p):
    """Columns with exactly zero mean and unit population variance."""
    x = Rng(seed, "lasso").normal(n, p)
    x -= x.mean(axis=0)
    x /= np.sqrt((x * x).mean(axis=0))
    return x


class TestSoftThreshold:
    def test_regions(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0


class TestLassoFit:
    def test_large_lambda_kills_everything(self):
        x = standardized_design(0, 30, 5)
        y = Rng(1, "lasso").normal(30)
        lam_max = np.abs(x.T @ (y - y.mean()) / 30).max()
        result = lasso_fit(x, y, lam_max * 1.0001)
        np.testing.assert_array_equal(result.beta, np.zeros(5))
        assert result.converged

    def test_orthonormal_design_soft_threshold_closed_form(self):
        # Hand 4x2 instance: orthogonal columns, zero mean, unit 1/n variance.
        x = np.array(
            [
                [1.0, 1.0],
                [1.0, -1.0],
                [-1.0, 1.0],
                [-1.0, -1.0],
            ]
        )
        y = np.array([3.0, 1.0, -1.0, 0.5])
        lam = 0.4
        ols = x.T @ (y - y.mean()) / 4.0
        expected = np.array([soft_threshold(v, lam) for v in ols])
        result = lasso_fit(x, y, lam)
        np.testing.assert_allclose(result.beta, expected, atol=1e-10)
        np.testing.assert_allclose(result.beta_std, expected, atol=1e-10)

    def test_small_lambda_approaches_ridge(self):
        r = Rng(2, "lasso-ridge")
        x = r.child("x").normal(40, 4)
        true_beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ true_beta + 0.01 * r.child("e").normal(40)
        lasso = lasso_fit(x, y, 1e-7)
        ridge = ridge_solve(
            np.hstack([x, np.ones((40, 1))]), y[:, None], 1e-10
        )[:4, 0]
        np.testing.assert_allclose(lasso.beta, ridge, atol=1e-4)

    def test_kkt_on_random_problems(self):
        for s in range(20):
            r = Rng(s, "lasso-kkt")
            n, p = 25, 8
            x = r.child("x").normal(n, p)
            y = r.child("y").normal(n)
            lam = 0.05 + 0.1 * (s % 3)
            result = lasso_fit(x, y, lam)
            assert result.converged
            assert kkt_violation(x, y, result) < 1e-6

    def test_intercept_recovers_shifted_data(self):
        r = Rng(3, "lasso-int")
        x = r.child("x").normal(50, 3) + 4.0
        beta = np.array([2.0, 0.0, -1.0])
        y = x @ beta + 7.0 + 0.001 * r.child("e").normal(50)
        result = lasso_fit(x, y, 1e-6)
        prediction = x @ result.beta + result.intercept
        assert np.abs(prediction - y).max() < 0.01

    def test_constant_column_rejected(self):
        x = Rng(4, "lasso-c").normal(10, 3)
        x[:, 1] = 2.0
        with pytest.raises(DegenerateInput, match="column 1"):
            lasso_fit(x, Rng(5, "lasso-c").normal(10), 0.1)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            lasso_fit(np.eye(3), np.ones(3), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            lasso_fit(np.ones((4, 2)), np.ones(5), 0.1)


def column_problem(seed, n, p, k):
    """Responses whose signal strength grows across columns, so that the
    columns need different numbers of sweeps."""
    r = Rng(seed, "lasso-cols")
    x = r.child("x").normal(n, p)
    signal = (x @ r.child("w").normal(p, k)) * np.linspace(0.0, 2.0, k)
    return x, signal + r.child("e").normal(n, k)


def lambda_max(x, y):
    x_std = (x - x.mean(axis=0)) / x.std(axis=0)
    return np.abs(x_std.T @ (y - y.mean(axis=0)) / x.shape[0]).max()


def assert_matches_reference(x, y, lam):
    """Every column of one solver call equals its own scalar reference fit."""
    fits = lasso_fit(x, y, lam)
    for col in range(y.shape[1]):
        want = ref.lasso_fit(x, y[:, col], lam)
        assert fits.beta[:, col].tobytes() == want.beta.tobytes(), col
        assert fits.beta_std[:, col].tobytes() == want.beta_std.tobytes(), col
        assert fits.intercept[col] == want.intercept, col
        assert fits.column_sweeps[col] == want.sweeps, col
        assert fits.column_converged[col] == want.converged, col
        got = lasso_fit(x, y[:, col], lam)
        assert got.beta.tobytes() == want.beta.tobytes(), col
        assert got.beta_std.tobytes() == want.beta_std.tobytes(), col
        assert got.intercept == want.intercept, col
        assert (got.sweeps, got.converged, got.lam) == (want.sweeps, want.converged, want.lam)
    assert fits.sweeps == fits.column_sweeps.sum()
    assert fits.converged == fits.column_converged.all()
    return fits


class TestColumnSolver:
    @pytest.mark.parametrize("k,p,lam", [
        (1, 1, 1e-7),
        (1, 30, 0.01),
        (3, 1, 0.2),
        (7, 5, 1e-7),
        (13, 30, 1e-3),
        (24, 9, 0.05),
        (50, 12, 0.01),
        (50, 30, 0.3),
    ])
    def test_bit_identical_to_scalar_reference(self, k, p, lam):
        x, y = column_problem(k * 100 + p, 40 + p, p, k)
        assert_matches_reference(x, y, lam)

    def test_columns_freeze_in_different_sweeps(self):
        x, y = column_problem(8, 60, 10, 30)
        fits = assert_matches_reference(x, y, 0.02)
        assert fits.converged
        assert len(set(fits.column_sweeps.tolist())) > 3

    def test_above_lambda_max_all_zero_in_one_sweep(self):
        x, y = column_problem(9, 35, 6, 11)
        fits = assert_matches_reference(x, y, 1.01 * lambda_max(x, y))
        np.testing.assert_array_equal(fits.beta_std, np.zeros((6, 11)))
        assert (fits.column_sweeps == 1).all() and fits.converged

    def test_sweep_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(lasso, "MAX_SWEEPS", 3)
        x, y = column_problem(10, 30, 8, 20)
        y[:, 0] = 1e-3 * Rng(10, "flat").normal(30)  # below lambda: zero in one sweep
        fits = assert_matches_reference(x, y, 0.05)
        assert fits.column_converged.any() and not fits.converged
        assert (fits.column_sweeps[~fits.column_converged] == 3).all()

    def test_response_of_rank_three_rejected(self):
        with pytest.raises(ShapeMismatch, match="1-D or 2-D"):
            lasso_fit(np.eye(3), np.ones((3, 2, 2)), 0.1)

    def test_kkt_violation_matches_coordinate_loop(self):
        x, y = column_problem(11, 40, 7, 5)
        for col in range(5):
            result = lasso_fit(x, y[:, col], 0.05)
            off = dataclasses.replace(result, beta_std=result.beta_std + 0.01 * (col + 1))
            for fit in (result, off):
                assert kkt_violation(x, y[:, col], fit) == ref.kkt_violation(x, y[:, col], fit)
            assert kkt_violation(x, y[:, col], off) > 1e-3


def backproject_one(features, voxels, mask, lam):
    """The result of back-projecting one feature set on its own."""
    return backproject({"f": features}, voxels, mask, lam)["f"]


class TestBackproject:
    def test_zero_features_zero_betas(self):
        mask = RegionMask.blocks(3, 2)
        voxels = Rng(6, "bp").normal(20, 5)
        features = np.zeros((20, 4))
        result = backproject_one(features, voxels, mask, 0.1)
        np.testing.assert_array_equal(result.per_voxel_mean_abs_beta, np.zeros(5))
        assert result.region_means == {"low_level": 0.0, "high_level": 0.0}

    def test_single_voxel_feature_dominates_its_region(self):
        # Feature equals one low-level voxel: that region's mean weight wins.
        mask = RegionMask.blocks(4, 3)
        voxels = Rng(7, "bp").normal(60, 7)
        features = voxels[:, [1]]  # a low-level voxel
        result = backproject_one(features, voxels, mask, 0.001)
        assert result.region_means["low_level"] >= 10 * result.region_means["high_level"]

    @pytest.mark.parametrize("lam", [1e-4, 0.01, 0.2])
    def test_per_voxel_means_match_per_column_fits(self, lam):
        mask = RegionMask.blocks(6, 5)
        voxels, _ = column_problem(12, 48, 11, 1)
        features = np.tanh(voxels @ Rng(12, "bp-w").normal(11, 9)) + Rng(12, "bp-e").normal(48, 9)
        result = backproject_one(features, voxels, mask, lam)
        per_voxel, n_unconverged = ref.per_voxel_mean_abs_beta(features, voxels, lam)
        assert result.per_voxel_mean_abs_beta.tobytes() == per_voxel.tobytes()
        assert result.n_unconverged == n_unconverged
        assert result.region_means["low_level"] == float(per_voxel[:6].mean())

    @pytest.mark.parametrize("max_sweeps,any_unconverged", [(lasso.MAX_SWEEPS, False), (4, True)])
    def test_each_set_matches_a_call_of_its_own(self, monkeypatch, max_sweeps, any_unconverged):
        # A small sweep budget leaves some columns unconverged.
        monkeypatch.setattr(lasso, "MAX_SWEEPS", max_sweeps)
        mask = RegionMask.blocks(6, 5)
        voxels, _ = column_problem(21, 48, 11, 1)
        sets = {
            name: np.tanh(voxels @ Rng(21, f"{name}-w").normal(11, width)) + Rng(21, f"{name}-e").normal(48, width)
            for name, width in (("b", 5), ("a", 3), ("c", 7))
        }
        results = backproject(sets, voxels, mask, 0.01)
        assert list(results) == list(sets)
        unconverged = 0
        for name, features in sets.items():
            alone = backproject_one(features, voxels, mask, 0.01)
            got = results[name]
            assert got.per_voxel_mean_abs_beta.tobytes() == alone.per_voxel_mean_abs_beta.tobytes(), name
            assert got.region_means == alone.region_means, name
            assert got.n_unconverged == alone.n_unconverged, name
            unconverged += got.n_unconverged
        assert (unconverged > 0) == any_unconverged

    @pytest.mark.parametrize("col,values", [
        (3, {row: 0.7 for row in range(20)}),  # the mean rounds off 0.7
        (2, {7: 1e-200}),  # not constant, but its squared deviations underflow
    ])
    def test_constant_voxel_column_named(self, col, values):
        mask = RegionMask.blocks(3, 2)
        voxels = Rng(13, "bp").normal(20, 5)
        voxels[:, col] = 0.0
        for row, value in values.items():
            voxels[row, col] = value
        with pytest.raises(DegenerateInput, match=f"predictor column {col} is constant"):
            backproject_one(Rng(14, "bp").normal(20, 4), voxels, mask, 0.1)

    def test_one_lasso_fit_call_for_all_feature_sets(self, monkeypatch):
        # Fits go through the module's lasso_fit, where a tracer can count them.
        calls = []

        def counted(x, y, lam):
            calls.append(np.shape(y))
            return lasso_fit(x, y, lam)

        monkeypatch.setattr(lasso, "lasso_fit", counted)
        mask = RegionMask.blocks(3, 2)
        sets = {"a": Rng(17, "bp").normal(20, 4), "b": Rng(19, "bp").normal(20, 3)}
        backproject(sets, Rng(18, "bp").normal(20, 5), mask, 0.1)
        assert calls == [(20, 7)]

    def test_feature_row_mismatch_names_the_set(self):
        mask = RegionMask.blocks(2, 2)
        with pytest.raises(ShapeMismatch, match="^b: features have 5 rows, voxels 6$"):
            backproject({"a": np.ones((6, 2)), "b": np.ones((5, 2))}, np.ones((6, 4)), mask, 0.1)
