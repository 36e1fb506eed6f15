"""Evaluation metrics: pixel correlation, SSIM, two-way identification."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._arrays import as_matrix
from .errors import DegenerateInput, ShapeMismatch
from .linalg import pearson

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SIMILARITIES = ("pearson", "cosine")


def pixcorr(a, b) -> float:
    """Pearson correlation over flattened values."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    return pearson(av, bv)


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * SSIM_SIGMA**2))
    window = np.outer(g, g)
    return window / window.sum()


_WINDOW = _gaussian_window()


def ssim(a, b, value_range: float) -> float:
    """Mean local structural similarity (Wang et al. 2004).

    Gaussian-weighted 11x11 windows with sigma 1.5, stability constants
    ``C1 = (0.01 L)^2`` and ``C2 = (0.03 L)^2`` where L is `value_range`,
    evaluated at every fully interior window position.
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ShapeMismatch(f"ssim: shapes {am.shape} and {bm.shape} differ")
    h, w = am.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise DegenerateInput(
            f"ssim needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {h}x{w}"
        )
    value_range = float(value_range)
    if value_range <= 0.0:
        raise DegenerateInput("value_range must be positive")
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2

    def local_stats(x):
        windows = sliding_window_view(x, (SSIM_WINDOW, SSIM_WINDOW))
        return np.tensordot(windows, _WINDOW, axes=([2, 3], [0, 1]))

    mu_a = local_stats(am)
    mu_b = local_stats(bm)
    ev_aa = local_stats(am * am)
    ev_bb = local_stats(bm * bm)
    ev_ab = local_stats(am * bm)
    var_a = ev_aa - mu_a * mu_a
    var_b = ev_bb - mu_b * mu_b
    cov_ab = ev_ab - mu_a * mu_b
    numerator = (2.0 * mu_a * mu_b + c1) * (2.0 * cov_ab + c2)
    denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float((numerator / denominator).mean())


def _standardized_rows(m: np.ndarray, name: str, similarity: str) -> np.ndarray:
    if similarity == "pearson":
        centered = m - m.mean(axis=1, keepdims=True)
    else:
        centered = m
    norms = np.linalg.norm(centered, axis=1)
    bad = np.where(norms == 0.0)[0]
    if bad.size:
        kind = "zero variance" if similarity == "pearson" else "zero norm"
        raise DegenerateInput(f"{name} row {int(bad[0])} has {kind}")
    return centered / norms[:, None]


def two_way_identification(preds, truths, similarity: str = "pearson") -> float:
    """Percentage of ordered pairs where a prediction matches its own truth.

    For every ordered pair (i, j) with i != j, a win is counted when
    ``sim(pred_i, truth_i) > sim(pred_i, truth_j)``; exact ties count one
    half. Chance level is 50.
    """
    if similarity not in SIMILARITIES:
        raise ValueError(f"similarity must be one of {SIMILARITIES}, got {similarity!r}")
    p = as_matrix(preds, "preds")
    t = as_matrix(truths, "truths")
    if p.shape != t.shape:
        raise ShapeMismatch(f"preds {p.shape} vs truths {t.shape}")
    n = p.shape[0]
    if n < 2:
        raise DegenerateInput("two_way_identification requires at least 2 samples")
    zp = _standardized_rows(p, "preds", similarity)
    zt = _standardized_rows(t, "truths", similarity)
    sims = zp @ zt.T
    own = np.diagonal(sims)
    wins = (own[:, None] > sims).sum()
    ties = (own[:, None] == sims).sum() - n  # the diagonal always ties itself
    return float((wins + 0.5 * ties) / (n * (n - 1)) * 100.0)
