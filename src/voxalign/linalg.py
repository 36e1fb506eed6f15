"""Dense numeric kernels every other module builds on.

All operations are pure functions over float64 arrays; inputs are
validated and never mutated.
"""

from __future__ import annotations

import numpy as np

from ._arrays import as_array, as_matrix, as_vector
from .errors import DegenerateInput, NumericalFailure, ShapeMismatch


def gram_linear(features) -> np.ndarray:
    """Linear-kernel Gram matrix ``K = F F^T`` with samples as rows.

    The result is symmetric positive semidefinite by construction.
    """
    f = as_matrix(features, "features")
    return f @ f.T


def apply_centering(kernel) -> np.ndarray:
    """Double-center a square kernel: ``H K H`` with ``H = I - (1/m) 11^T``.

    Computed by subtracting row means and column means and adding back the
    grand mean, which is O(m^2) and never materializes H. Row and column
    sums of the result vanish, and the map is idempotent. A stack of
    kernels, shape ``(..., m, m)``, is centered kernel by kernel.
    """
    k = as_array(kernel, "kernel")
    if k.ndim < 2:
        raise ShapeMismatch(f"kernel: expected at least 2-D, got shape {k.shape}")
    m = k.shape[-1]
    if k.shape[-2] != m:
        raise ShapeMismatch(f"kernel must be square, got shape {k.shape}")
    if m < 2:
        raise DegenerateInput("centering requires at least a 2x2 kernel")
    # Sums over counts are what ``mean`` computes, without its per-call overhead.
    row_means = k.sum(axis=-1, keepdims=True) / m
    col_means = k.sum(axis=-2, keepdims=True) / m
    grand_mean = k.sum(axis=(-2, -1), keepdims=True) / (m * m)
    return k - row_means - col_means + grand_mean


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors, clipped to [-1, 1]."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatch(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < 2:
        raise DegenerateInput("pearson requires at least 2 samples")
    if np.all(xv == xv[0]):
        raise DegenerateInput("x has zero variance")
    if np.all(yv == yv[0]):
        raise DegenerateInput("y has zero variance")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    ssx = float(xc @ xc)
    ssy = float(yc @ yc)
    if ssx <= 0.0 or ssy <= 0.0:
        raise DegenerateInput("zero variance after centering")
    r = float(xc @ yc) / np.sqrt(ssx * ssy)
    return float(np.clip(r, -1.0, 1.0))


def fractional_ranks(x) -> np.ndarray:
    """Ranks starting at 1; tied values receive the average of their ranks.

    The same values as ``scipy.stats.rankdata(x, method="average")``.
    """
    xv = as_vector(x, "x")
    order = np.argsort(xv)
    sorted_x = xv[order]
    # Sorted positions where a run of equal values starts, then the end.
    bounds = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1], True])
    # A run over sorted positions i..j shares the rank (i + j) / 2 + 1.
    run_ranks = 0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0
    ranks = np.empty(xv.shape[0])
    ranks[order] = np.repeat(run_ranks, np.diff(bounds))
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over fractional ranks."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatch(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < 2:
        raise DegenerateInput("spearman requires at least 2 samples")
    if np.all(xv == xv[0]) or np.all(yv == yv[0]):
        raise DegenerateInput("all-equal input has no rank ordering")
    return pearson(fractional_ranks(xv), fractional_ranks(yv))


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, clipped to [-1, 1]."""
    uv = as_vector(u, "u")
    vv = as_vector(v, "v")
    if uv.shape[0] != vv.shape[0]:
        raise ShapeMismatch(f"length mismatch: {uv.shape[0]} vs {vv.shape[0]}")
    nu = float(np.linalg.norm(uv))
    nv = float(np.linalg.norm(vv))
    if nu == 0.0:
        raise DegenerateInput("u is a zero vector")
    if nv == 0.0:
        raise DegenerateInput("v is a zero vector")
    return float(np.clip(float(uv @ vv) / (nu * nv), -1.0, 1.0))


def ridge_solve(x, y, lam: float) -> np.ndarray:
    """Ridge regression weights minimizing ``||XW - Y||^2 + lam ||W||^2``.

    ``X^T X + lam I`` must have a Cholesky factorization: a matrix that is
    not positive definite after regularization raises
    :class:`NumericalFailure`. The weights are then one solve of that
    matrix (numpy has no triangular solve, and two general solves on the
    factor cost twice as much). A negative or non-finite ``lam`` raises
    ``ValueError``.
    """
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    if xm.shape[0] != ym.shape[0]:
        raise ShapeMismatch(f"row mismatch: X has {xm.shape[0]}, Y has {ym.shape[0]}")
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and non-negative, got {lam!r}")
    p = xm.shape[1]
    gram = xm.T @ xm
    if lam > 0.0:
        gram = gram + lam * np.eye(p)
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, xm.T @ ym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Cholesky factorization failed: {exc}") from exc
