"""Evaluation metrics: pixel correlation, SSIM, two-way identification.

Pixel correlation and SSIM are computed over a leading sample axis by
:func:`pixcorr_batch` and :func:`ssim_batch`; :func:`pixcorr` and
:func:`ssim` are their one-sample case, with the same bits. A batched
value never depends on the other samples of the batch.
"""

from __future__ import annotations

import numpy as np

from ._arrays import as_array, as_matrix, first_constant_row
from .errors import DegenerateInput, ShapeMismatch

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SIMILARITIES = ("pearson", "cosine")


def pixcorr_batch(a, b) -> np.ndarray:
    """Pearson correlation of each sample pair, over its flattened values.

    `a` and `b` hold one sample per leading index; entry ``s`` of the
    result is the correlation of ``a[s]`` and ``b[s]``, clipped to
    [-1, 1], with the same bits as :func:`linalg.pearson` on the pair. A
    constant sample raises :class:`DegenerateInput` naming it.
    """
    am = as_array(a, "a")
    bm = as_array(b, "b")
    if am.shape[0] != bm.shape[0] or am.size != bm.size:
        raise ShapeMismatch(f"pixcorr: shapes {am.shape} and {bm.shape} differ")
    am = am.reshape(am.shape[0], -1)
    bm = bm.reshape(bm.shape[0], -1)
    if am.shape[1] < 2:
        raise DegenerateInput("pixcorr requires at least 2 values per sample")
    centered = []
    for name, m in (("a", am), ("b", bm)):
        constant = first_constant_row(m)
        if constant is not None:
            raise DegenerateInput(f"sample {constant}: {name} has zero variance")
        centered.append(m - m.mean(axis=1, keepdims=True))
    ac, bc = centered
    ssa = np.vecdot(ac, ac)
    ssb = np.vecdot(bc, bc)
    flat = np.flatnonzero((ssa <= 0.0) | (ssb <= 0.0))
    if flat.size:
        raise DegenerateInput(f"sample {int(flat[0])}: zero variance after centering")
    return np.clip(np.vecdot(ac, bc) / np.sqrt(ssa * ssb), -1.0, 1.0)


def pixcorr(a, b) -> float:
    """Pearson correlation over flattened values: one pair of :func:`pixcorr_batch`."""
    av = np.asarray(a, dtype=np.float64).reshape(1, -1)
    bv = np.asarray(b, dtype=np.float64).reshape(1, -1)
    return float(pixcorr_batch(av, bv)[0])


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * SSIM_SIGMA**2))
    window = np.outer(g, g)
    return window / window.sum()


_WINDOW = _gaussian_window()
# Pixels of one image plane per chunk of samples (64 images of 12x16), so
# that the temporaries of ssim_batch do not grow with the number of samples.
_SSIM_CHUNK_PIXELS = 12_288


def _local_stats(stack: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Gaussian-weighted window sums over axes 1 and 2 of `stack`.

    The 121 offsets are added in one fixed order, element by element, so
    a value has the same bits whatever the shape of the stack around it.
    """
    acc = np.zeros((stack.shape[0], out_h, out_w) + stack.shape[3:])
    term = np.empty_like(acc)
    for i in range(SSIM_WINDOW):
        for j in range(SSIM_WINDOW):
            np.multiply(stack[:, i : i + out_h, j : j + out_w], _WINDOW[i, j], out=term)
            acc += term
    return acc


def _ssim_chunk(a: np.ndarray, b: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """SSIM of each image pair of one chunk; its temporaries end with the call."""
    # Samples on the last axis: each offset's multiply and add then runs
    # over contiguous rows of samples.
    xa = a.transpose(1, 2, 0)
    xb = b.transpose(1, 2, 0)
    stack = np.empty((5,) + xa.shape)
    stack[0] = xa
    stack[1] = xb
    np.multiply(xa, xa, out=stack[2])
    np.multiply(xb, xb, out=stack[3])
    np.multiply(xa, xb, out=stack[4])
    out_h, out_w = xa.shape[0] - SSIM_WINDOW + 1, xa.shape[1] - SSIM_WINDOW + 1
    mu_a, mu_b, ev_aa, ev_bb, ev_ab = _local_stats(stack, out_h, out_w)
    var_a = ev_aa - mu_a * mu_a
    var_b = ev_bb - mu_b * mu_b
    cov_ab = ev_ab - mu_a * mu_b
    numerator = (2.0 * mu_a * mu_b + c1) * (2.0 * cov_ab + c2)
    denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    ratio = numerator / denominator
    # One contiguous row per sample, so each mean sums in the same order.
    return np.ascontiguousarray(ratio.reshape(-1, len(a)).T).mean(axis=1)


def _image_stack(x, name: str) -> np.ndarray:
    """A C-contiguous float64 ``(n, h, w)`` stack, checked finite by two
    reductions rather than a mask as large as the stack."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 3 or a.size == 0:
        raise ShapeMismatch(f"{name}: expected a non-empty stack of images (n, h, w), got shape {a.shape}")
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise DegenerateInput(f"{name}: contains non-finite entries")
    return a


def ssim_batch(a, b, value_ranges) -> np.ndarray:
    """Mean local structural similarity (Wang et al. 2004) of each image pair.

    `a` and `b` are stacks of images, shape ``(n, h, w)``; entry ``s`` of
    the result compares ``a[s]`` with ``b[s]`` under ``value_ranges[s]``.
    Gaussian-weighted 11x11 windows with sigma 1.5, stability constants
    ``C1 = (0.01 L)^2`` and ``C2 = (0.03 L)^2`` where L is the value range,
    evaluated at every fully interior window position. Samples are scored
    in chunks of a fixed pixel budget, and each value has the same bits
    whatever the number of samples.
    """
    am = _image_stack(a, "a")
    bm = _image_stack(b, "b")
    if am.shape != bm.shape:
        raise ShapeMismatch(f"ssim: shapes {am.shape} and {bm.shape} differ")
    n, h, w = am.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise DegenerateInput(
            f"ssim needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {h}x{w}"
        )
    ranges = np.asarray(value_ranges, dtype=np.float64)
    if ranges.shape != (n,):
        raise ShapeMismatch(f"value_ranges: expected shape ({n},), got {ranges.shape}")
    bad = np.flatnonzero(~((ranges > 0.0) & np.isfinite(ranges)))
    if bad.size:
        raise DegenerateInput(f"sample {int(bad[0])}: value_range must be positive and finite")
    c1 = (0.01 * ranges) ** 2
    c2 = (0.03 * ranges) ** 2
    chunk = max(1, _SSIM_CHUNK_PIXELS // (h * w))
    values = np.empty(n)
    for lo in range(0, n, chunk):
        part = slice(lo, min(lo + chunk, n))
        values[part] = _ssim_chunk(am[part], bm[part], c1[part], c2[part])
    return values


def ssim(a, b, value_range: float) -> float:
    """Mean local structural similarity of one image pair: :func:`ssim_batch` for one sample."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    return float(ssim_batch(am[None], bm[None], [float(value_range)])[0])


def _standardized_rows(m: np.ndarray, name: str, similarity: str) -> np.ndarray:
    if similarity == "pearson":
        # Tested before centring, which leaves an inexact mean's rounding residue.
        constant = first_constant_row(m)
        if constant is not None:
            raise DegenerateInput(f"{name} row {constant} has zero variance")
        m = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(m, axis=1)
    bad = np.where(norms == 0.0)[0]
    if bad.size:
        kind = "zero variance" if similarity == "pearson" else "zero norm"
        raise DegenerateInput(f"{name} row {int(bad[0])} has {kind}")
    return m / norms[:, None]


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
