"""Per-image metric loops of voxalign 0.1.0, kept as oracles for the batched metrics.

``ssim`` is the 0.1.0 one-image SSIM: five ``tensordot`` window products
over a ``sliding_window_view``. ``evaluate_pixcorr`` and ``evaluate_ssim``
are the per-sample loops that ``training.evaluate`` ran before it scored
the test split in one batched call each.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from voxalign.linalg import pearson
from voxalign.metrics import _WINDOW, SSIM_WINDOW


def pixcorr(a, b) -> float:
    return pearson(np.asarray(a, dtype=np.float64).ravel(), np.asarray(b, dtype=np.float64).ravel())


def pixcorr_loop(a, b) -> np.ndarray:
    return np.array([pixcorr(a[s], b[s]) for s in range(len(a))])


def ssim(a, b, value_range: float) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2

    def local_stats(x):
        windows = sliding_window_view(x, (SSIM_WINDOW, SSIM_WINDOW))
        return np.tensordot(windows, _WINDOW, axes=([2, 3], [0, 1]))

    mu_a = local_stats(a)
    mu_b = local_stats(b)
    ev_aa = local_stats(a * a)
    ev_bb = local_stats(b * b)
    ev_ab = local_stats(a * b)
    var_a = ev_aa - mu_a * mu_a
    var_b = ev_bb - mu_b * mu_b
    cov_ab = ev_ab - mu_a * mu_b
    numerator = (2.0 * mu_a * mu_b + c1) * (2.0 * cov_ab + c2)
    denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float((numerator / denominator).mean())


def evaluate_pixcorr(pred, target) -> float:
    return float(np.mean([pixcorr(pred[s], target[s]) for s in range(len(pred))]))


def evaluate_ssim(pred, target) -> float:
    values = []
    for s in range(len(pred)):
        value_range = float(target[s].max() - target[s].min())
        values.append(ssim(target[s], pred[s], value_range))
    return float(np.mean(values))
