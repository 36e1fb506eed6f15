"""L1-penalized regression by cyclic coordinate descent, and the
feature-to-voxel back-projection built on it.

The solver minimizes ``(1/2n) ||y - X b||^2 + lam ||b||_1`` on internally
standardized columns (zero mean, unit population variance), where each
coordinate update is an exact soft-threshold step. One solver fits every
column of a response matrix against a shared design, all columns swept
together; each column stops when its own largest coordinate change in a
sweep falls below 1e-8 or after 10000 sweeps. Non-convergence is
reported in the result, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import as_array, as_matrix, as_vector
from .data import RegionMask
from .errors import DegenerateInput, ShapeMismatch

MAX_SWEEPS = 10_000
TOLERANCE = 1e-8


@dataclass(frozen=True)
class LassoResult:
    """Coordinate-descent solution of a response vector or matrix.

    ``beta`` is expressed against the original columns; ``beta_std``
    against the standardized ones (the scale in which the KKT conditions
    hold). For a response matrix, ``beta``, ``beta_std`` and ``intercept``
    have one column (entry) per response column. ``column_sweeps`` and
    ``column_converged`` give each response column's sweep count and
    whether it converged before the sweep budget ran out; ``sweeps`` is
    their sum and ``converged`` is True when every column converged, so
    for a response vector they are that fit's own.
    """

    beta: np.ndarray
    beta_std: np.ndarray
    intercept: float | np.ndarray
    converged: bool
    sweeps: int
    lam: float
    column_sweeps: np.ndarray
    column_converged: np.ndarray


def _standardize(x: np.ndarray):
    means = x.mean(axis=0)
    centered = x - means
    scales = np.sqrt((centered * centered).mean(axis=0))
    # A constant column's mean can round off its value, leaving a tiny
    # nonzero scale, so constancy is also tested on the column itself; a
    # varying column whose squared deviations underflow has a zero scale.
    flat = np.flatnonzero((x == x[0]).all(axis=0) | (scales == 0.0))
    if flat.size:
        raise DegenerateInput(f"predictor column {int(flat[0])} is constant")
    return centered / scales, means, scales


def _sweep_columns(x_std: np.ndarray, c: np.ndarray, lam: float):
    """Coordinate descent for every column of ``c = X_std^T y / n`` at once.

    Each coordinate update runs over all still-active columns as array
    operations; a column freezes in the sweep where its own largest
    change falls below ``TOLERANCE``, so it ends with exactly the sweep
    count and the coefficients of a fit on its own. Returns
    ``(beta_std, sweeps, converged)`` with one column (entry) per column.
    """
    n, p = x_std.shape
    k = c.shape[1]
    # Covariance-form updates: with unit-variance columns the coordinate
    # update is beta_j <- soft(c_j - (G beta)_j + beta_j, lam).
    gram = x_std.T @ x_std / n
    diag = gram.diagonal().copy()
    gram_cols = np.ascontiguousarray(gram.T)  # row j is gram[:, j]

    beta_out = np.zeros((p, k))
    sweeps = np.full(k, MAX_SWEEPS)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    beta = np.zeros((p, k))
    # Row a holds (G beta) of active column a, so that a coordinate update
    # can touch only the rows of the columns whose coefficient changed.
    gram_beta = np.zeros((k, p))
    for sweep in range(1, MAX_SWEEPS + 1):
        start = beta.copy()
        for j in range(p):
            old = beta[j]
            rho = c[j] - gram_beta[:, j] + diag[j] * old
            # soft(rho, lam) exactly: rho - lam, rho + lam, or +0.0 between.
            new = (rho - np.minimum(np.maximum(rho, -lam), lam)) / diag[j]
            delta = new - old
            changed = delta.nonzero()[0]
            if changed.size:
                beta[j] = new
                # A zero delta adds exactly nothing, so both updates give the
                # same bits. The dense one is 10-15 % faster on 128-column
                # fits where about half the columns change, the gathered one
                # twice as fast on 1,024-column fits where under 5 % do; any
                # cut-off from 1/8 to 1/2 times the same.
                if 4 * changed.size > delta.size:
                    gram_beta += np.multiply.outer(delta, gram_cols[j])
                else:
                    gram_beta[changed] += np.multiply.outer(delta[changed], gram_cols[j])
        # Each coordinate moves once per sweep, so this is each column's
        # largest coordinate change.
        done = np.abs(beta - start).max(axis=0) < TOLERANCE
        if done.any():
            finished = active[done]
            beta_out[:, finished] = beta[:, done]
            sweeps[finished] = sweep
            converged[finished] = True
            keep = ~done
            active, beta, gram_beta, c = (
                active[keep], beta[:, keep], gram_beta[keep], c[:, keep],
            )
            if not active.size:
                break
    beta_out[:, active] = beta
    return beta_out, sweeps, converged


def lasso_fit(x, y, lam: float) -> LassoResult:
    """Fit the lasso of a response vector, or of every column of a response
    matrix, on the predictors ``x``; see the module docstring for the
    objective.

    The columns of a matrix share one standardization and one Gram matrix
    and are swept together; each ends with the coefficients, sweep count
    and convergence flag of a fit of that column on its own, bit for bit.
    """
    xm = as_matrix(x, "X")
    ya = as_array(y, "y")
    if ya.ndim > 2:
        raise ShapeMismatch(f"y: expected 1-D or 2-D, got shape {ya.shape}")
    n, p = xm.shape
    if ya.shape[0] != n:
        raise ShapeMismatch(f"X has {n} rows, y has {ya.shape[0]}")
    if n < 2:
        raise DegenerateInput("lasso_fit requires at least 2 samples")
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam!r}")

    x_std, means, scales = _standardize(xm)
    ym = ya.reshape(n, -1)
    k = ym.shape[1]
    # Each column is centered and projected on its own: a column-wise mean
    # or one X^T Y product would round differently from a single fit.
    y_means = np.empty(k)
    c = np.empty((p, k))
    for col in range(k):
        yc = np.ascontiguousarray(ym[:, col])
        y_means[col] = yc.mean()
        c[:, col] = x_std.T @ (yc - y_means[col]) / n
    beta_std, sweeps, converged = _sweep_columns(x_std, c, lam)
    beta = beta_std / scales[:, None]
    intercept = np.array([
        y_means[col] - means @ np.ascontiguousarray(beta[:, col]) for col in range(k)
    ])
    if ya.ndim == 1:
        beta, beta_std, intercept = beta[:, 0].copy(), beta_std[:, 0].copy(), float(intercept[0])
    return LassoResult(
        beta=beta,
        beta_std=beta_std,
        intercept=intercept,
        converged=bool(converged.all()),
        sweeps=int(sweeps.sum()),
        lam=lam,
        column_sweeps=sweeps,
        column_converged=converged,
    )


def kkt_violation(x, y, result: LassoResult) -> float:
    """Largest KKT residual of a solution, in the standardized problem.

    Active coordinates must satisfy ``x_j^T r / n = lam * sign(beta_j)``;
    inactive ones ``|x_j^T r / n| <= lam``. Returns the worst violation.
    """
    xm = as_matrix(x, "X")
    yv = as_vector(y, "y")
    x_std, _, _ = _standardize(xm)
    y_centered = yv - yv.mean()
    residual = y_centered - x_std @ result.beta_std
    grad = x_std.T @ residual / xm.shape[0]
    beta = result.beta_std
    violation = np.where(
        beta != 0.0,
        np.abs(grad - result.lam * np.sign(beta)),
        np.maximum(np.abs(grad) - result.lam, 0.0),
    )
    worst = max(0.0, violation.max())
    return float(worst)


@dataclass(frozen=True)
class BackprojectResult:
    """Per-voxel predictive weight of a feature set, aggregated by region."""

    per_voxel_mean_abs_beta: np.ndarray
    region_means: dict
    n_unconverged: int


def backproject(feature_sets: dict, voxels, mask: RegionMask, lam: float) -> dict:
    """Map named branch feature sets back to voxel space with one lasso per feature dim.

    Every feature dimension is regressed on the voxels (features as
    responses, voxels as predictors); the absolute coefficients are
    averaged over a set's dimensions per voxel and then within the
    low-level and high-level regions. All sets share one :func:`lasso_fit`
    call, whose columns keep the bits of fits on their own, so each set's
    result (keyed like ``feature_sets``) is that of a call with it alone.
    """
    v = as_matrix(voxels, "voxels")
    sets = {name: as_matrix(f, name) for name, f in feature_sets.items()}
    for name, f in sets.items():
        if f.shape[0] != v.shape[0]:
            raise ShapeMismatch(f"{name}: features have {f.shape[0]} rows, voxels {v.shape[0]}")
    if v.shape[1] != mask.n_detail:
        raise ShapeMismatch(
            f"voxels have {v.shape[1]} columns, mask lists {mask.n_detail}"
        )
    try:
        # Looked up on the module, where the benchmark's tracer counts fits
        # and sweeps.
        fit = lasso_fit(v, np.concatenate(list(sets.values()), axis=1), lam)
    except DegenerateInput as exc:
        raise DegenerateInput(f"voxels: {exc}") from exc
    bounds = np.cumsum([f.shape[1] for f in sets.values()])[:-1]
    parts = zip(sets.items(), np.split(np.abs(fit.beta), bounds, axis=1), np.split(fit.column_converged, bounds))
    results = {}
    for (name, f), abs_beta, converged in parts:
        # Summed column by column in feature order, as one fit per column would.
        abs_sum = np.zeros(v.shape[1])
        for k in range(f.shape[1]):
            abs_sum += abs_beta[:, k]
        per_voxel = abs_sum / f.shape[1]
        region_means = {
            "low_level": float(per_voxel[mask.low_indices].mean()) if mask.n_low else 0.0,
            "high_level": float(per_voxel[mask.high_indices].mean()),
        }
        results[name] = BackprojectResult(per_voxel, region_means, int((~converged).sum()))
    return results
