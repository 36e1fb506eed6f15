import tracemalloc

import metrics_reference as ref
import numpy as np
import pytest

from voxalign.errors import DegenerateInput, ShapeMismatch
from voxalign.metrics import pixcorr, pixcorr_batch, ssim, ssim_batch, two_way_identification
from voxalign.rng import Rng

BATCH_SIZES = (1, 2, 3, 7, 64, 128, 257)
SSIM_SHAPES = ((11, 11), (12, 16), (20, 11), (11, 30), (13, 29))


class TestPixcorr:
    def test_identity(self):
        a = Rng(0, "px").normal(16)
        assert pixcorr(a, a) == 1.0

    def test_negation(self):
        a = Rng(1, "px").normal(16)
        assert pixcorr(a, -a) == -1.0

    def test_hand_vectors(self):
        # pearson([1,2,3,4],[2,3,1,5]) longhand: cov=0.875, vars 1.25 and 2.1875
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 3.0, 1.0, 5.0]
        expected = 0.875 / np.sqrt(1.25 * 2.1875)
        assert pixcorr(a, b) == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance(self):
        r = Rng(2, "px")
        a = r.child("a").normal(30)
        b = r.child("b").normal(30)
        base = pixcorr(a, b)
        assert abs(pixcorr(2.5 * a + 1.0, b) - base) < 1e-12
        assert abs(pixcorr(a, 0.3 * b - 9.0) - base) < 1e-12

    def test_flattens_matrices(self):
        m = Rng(3, "px").normal(4, 5)
        assert pixcorr(m, m) == 1.0

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            pixcorr(np.ones(5), np.arange(5.0))


def ssim_loop_oracle(a, b, value_range):
    """Independent sliding-window oracle with explicit Python loops."""
    window = 11
    sigma = 1.5
    offsets = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(offsets**2) / (2 * sigma**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2
    h, w = a.shape
    values = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            pa = a[i : i + window, j : j + window]
            pb = b[i : i + window, j : j + window]
            mu_a = (kernel * pa).sum()
            mu_b = (kernel * pb).sum()
            var_a = (kernel * pa * pa).sum() - mu_a**2
            var_b = (kernel * pb * pb).sum() - mu_b**2
            cov = (kernel * pa * pb).sum() - mu_a * mu_b
            values.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(values))


class TestSsim:
    def test_self_similarity(self):
        a = Rng(4, "ssim").normal(16, 16)
        assert ssim(a, a, value_range=4.0) == pytest.approx(1.0, abs=1e-12)

    def test_luminance_shift_penalized(self):
        a = Rng(5, "ssim").normal(16, 16)
        value_range = float(a.max() - a.min())
        assert ssim(a, a + 0.5 * value_range, value_range) < 1.0

    def test_matches_loop_oracle(self):
        r = Rng(6, "ssim")
        a = r.child("a").normal(16, 16)
        b = a + 0.4 * r.child("b").normal(16, 16)
        expected = ssim_loop_oracle(a, b, 5.0)
        assert ssim(a, b, 5.0) == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        r = Rng(7, "ssim")
        a = r.child("a").normal(12, 14)
        b = r.child("b").normal(12, 14)
        assert abs(ssim(a, b, 6.0) - ssim(b, a, 6.0)) < 1e-12

    def test_window_too_large(self):
        with pytest.raises(DegenerateInput):
            ssim(np.ones((10, 16)), np.ones((10, 16)), 1.0)

    def test_bad_value_range(self):
        a = np.ones((11, 11))
        with pytest.raises(DegenerateInput):
            ssim(a, a, 0.0)


def image_pairs(n, h, w, seed=0):
    """Images with a noisy copy of each, and each first image's value range."""
    r = Rng(seed, "batched-metrics")
    a = r.child("a").normal(n, h, w)
    b = a + 0.4 * r.child("b").normal(n, h, w)
    return a, b, a.max(axis=(1, 2)) - a.min(axis=(1, 2))


class TestBatchedMetrics:
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_pixcorr_batch_matches_per_sample_loop(self, n):
        for h, w in ((1, 7), (12, 16)):
            a, b, _ = image_pairs(n, h, w, seed=n)
            assert pixcorr_batch(a, b).tobytes() == ref.pixcorr_loop(a, b).tobytes()

    @pytest.mark.parametrize("shape", SSIM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_ssim_batch_matches_one_image_calls(self, n, shape):
        a, b, ranges = image_pairs(n, *shape, seed=n)
        one_by_one = np.array([ssim(a[s], b[s], ranges[s]) for s in range(n)])
        assert ssim_batch(a, b, ranges).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("shape", SSIM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_ssim_batch_near_loop_oracle_and_0_1_0(self, shape):
        a, b, ranges = image_pairs(7, *shape, seed=11)
        values = ssim_batch(a, b, ranges)
        for s in range(7):
            assert values[s] == pytest.approx(ssim_loop_oracle(a[s], b[s], ranges[s]), abs=1e-10)
            # 0.1.0 summed each window in BLAS order; only the last bits differ.
            assert values[s] == pytest.approx(ref.ssim(a[s], b[s], ranges[s]), abs=1e-12)

    def test_pixcorr_batch_names_a_constant_sample(self):
        a, b, _ = image_pairs(5, 3, 4)
        b[2] = 0.25
        with pytest.raises(DegenerateInput, match="^sample 2: b has zero variance$"):
            pixcorr_batch(a, b)
        with pytest.raises(DegenerateInput, match="^sample 2: a has zero variance$"):
            pixcorr_batch(b, a)

    def test_ssim_batch_names_a_bad_value_range(self):
        a, b, ranges = image_pairs(4, 12, 16)
        for bad in (0.0, -1.0, np.nan, np.inf):
            ranges[3] = bad
            with pytest.raises(DegenerateInput, match="^sample 3: value_range must be positive"):
                ssim_batch(a, b, ranges)

    def test_ssim_batch_rejects_mismatched_inputs(self):
        a, b, ranges = image_pairs(4, 12, 16)
        with pytest.raises(ShapeMismatch):
            ssim_batch(a, b[:3], ranges)
        with pytest.raises(ShapeMismatch):
            ssim_batch(a, b, ranges[:3])
        with pytest.raises(ShapeMismatch):
            ssim_batch(a[0], b[0], ranges[:1])
        a[1, 2, 3] = np.nan
        with pytest.raises(DegenerateInput, match="^a: contains non-finite entries$"):
            ssim_batch(a, b, ranges)

    def test_ssim_batch_peak_memory_does_not_grow_with_samples(self):
        def peak(n):
            a, b, ranges = image_pairs(n, 12, 16)
            tracemalloc.start()
            try:
                ssim_batch(a, b, ranges)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(64), peak(512)
        # Only the per-sample vectors may grow (the result, C1, C2 and the
        # range check, about 28 bytes a sample); one chunk is about 440 kB.
        assert large <= small + 32 * (512 - 64), (small, large)


class TestTwoWayIdentification:
    def test_perfect_predictions(self):
        t = Rng(8, "tw").normal(10, 6)
        assert two_way_identification(t, t) == 100.0

    def test_null_mean_near_chance(self):
        values = []
        for s in range(20):
            r = Rng(s, "tw-null")
            values.append(
                two_way_identification(r.child("p").normal(50, 24), r.child("t").normal(50, 24))
            )
        assert abs(np.mean(values) - 50.0) < 5.0

    def test_single_matched_pair_wins_all(self):
        # Orthonormal truths in a 6-dim space; prediction 0 equals truth 0
        # exactly, the other predictions live in the orthogonal complement.
        truths = np.eye(6)[:4]
        preds = np.zeros((4, 6))
        preds[0] = truths[0]
        preds[1:, 4:] = Rng(9, "tw").normal(3, 2) + 3.0  # nonzero, spans e4/e5
        result = two_way_identification(preds, truths, similarity="cosine")
        # sample 0 wins its 3 comparisons; the other 9 comparisons all tie at 0
        expected = (3 + 0.5 * 9) / 12 * 100
        assert result == pytest.approx(expected, abs=1e-9)

    def test_row_permutation_invariance(self):
        r = Rng(10, "tw")
        preds = r.child("p").normal(12, 5)
        truths = r.child("t").normal(12, 5)
        base = two_way_identification(preds, truths)
        perm = Rng(11, "tw").permutation(12)
        assert two_way_identification(preds[perm], truths[perm]) == pytest.approx(base, abs=1e-12)

    def test_similarity_choices(self):
        r = Rng(12, "tw")
        preds = r.child("p").normal(8, 5)
        truths = r.child("t").normal(8, 5)
        a = two_way_identification(preds, truths, similarity="pearson")
        b = two_way_identification(preds, truths, similarity="cosine")
        assert 0.0 <= a <= 100.0 and 0.0 <= b <= 100.0
        with pytest.raises(ValueError):
            two_way_identification(preds, truths, similarity="euclid")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            two_way_identification(np.ones((3, 2)), np.ones((4, 2)))
