"""Scalar reference implementations of the lasso and the rank transform.

These are the one-column coordinate-descent loop and the tie-walking
ranker that ``voxalign.lasso`` and ``voxalign.linalg`` replaced. They keep
the original operation order, so the tests can require the fast paths to
reproduce them bit for bit. Nothing in the library imports this module.
"""

import numpy as np

from voxalign import lasso
from voxalign.errors import DegenerateInput
from voxalign.lasso import LassoResult


def soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _standardize(x):
    means = x.mean(axis=0)
    centered = x - means
    scales = np.sqrt((centered * centered).mean(axis=0))
    flat = np.where(scales == 0.0)[0]
    if flat.size:
        raise DegenerateInput(f"predictor column {int(flat[0])} is constant")
    return centered / scales, means, scales


def lasso_fit(x, y, lam):
    """One lasso problem by scalar cyclic coordinate descent.

    Reads ``lasso.MAX_SWEEPS`` and ``lasso.TOLERANCE`` at call time, so a
    test that patches the sweep budget patches both solvers.
    """
    xm = np.ascontiguousarray(x, dtype=np.float64)
    yv = np.ascontiguousarray(y, dtype=np.float64)
    n, p = xm.shape
    lam = float(lam)
    x_std, means, scales = _standardize(xm)
    y_mean = yv.mean()
    y_centered = yv - y_mean
    c = x_std.T @ y_centered / n
    gram = x_std.T @ x_std / n
    beta = np.zeros(p)
    gram_beta = np.zeros(p)

    sweeps = 0
    converged = False
    while sweeps < lasso.MAX_SWEEPS:
        sweeps += 1
        max_change = 0.0
        for j in range(p):
            old = beta[j]
            rho = c[j] - gram_beta[j] + gram[j, j] * old
            new = soft_threshold(rho, lam) / gram[j, j]
            if new != old:
                beta[j] = new
                gram_beta += (new - old) * gram[:, j]
                max_change = max(max_change, abs(new - old))
        if max_change < lasso.TOLERANCE:
            converged = True
            break

    beta_original = beta / scales
    intercept = float(y_mean - means @ beta_original)
    return LassoResult(
        beta=beta_original,
        beta_std=beta.copy(),
        intercept=intercept,
        converged=converged,
        sweeps=sweeps,
        lam=lam,
        column_sweeps=np.array([sweeps]),
        column_converged=np.array([converged]),
    )


def per_voxel_mean_abs_beta(features, voxels, lam):
    """Back-projection's per-voxel means from one scalar fit per feature column."""
    f = np.asarray(features, dtype=np.float64)
    abs_sum = np.zeros(voxels.shape[1])
    n_unconverged = 0
    for k in range(f.shape[1]):
        result = lasso_fit(voxels, f[:, k], lam)
        abs_sum += np.abs(result.beta)
        if not result.converged:
            n_unconverged += 1
    return abs_sum / f.shape[1], n_unconverged


def fractional_ranks(x):
    """Ranks starting at 1; tied values receive the average of their ranks."""
    xv = np.asarray(x, dtype=np.float64)
    n = xv.shape[0]
    order = np.argsort(xv, kind="stable")
    sorted_x = xv[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def kkt_violation(x, y, result):
    """Largest KKT residual, one coordinate at a time."""
    xm = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    x_std, _, _ = _standardize(xm)
    y_centered = yv - yv.mean()
    residual = y_centered - x_std @ result.beta_std
    grad = x_std.T @ residual / xm.shape[0]
    worst = 0.0
    for j in range(xm.shape[1]):
        if result.beta_std[j] != 0.0:
            worst = max(worst, abs(grad[j] - result.lam * np.sign(result.beta_std[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - result.lam))
    return float(worst)
