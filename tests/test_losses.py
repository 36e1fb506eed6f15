import warnings

import numpy as np
import pytest

import loss_reference as ref
from voxalign import losses
from voxalign.errors import DegenerateInput, NumericalFailure, ShapeMismatch
from voxalign.linalg import cosine
from voxalign.losses import (
    LossValueGrad,
    cka_loss,
    crec_loss,
    grad_check,
    image_total_loss,
    mg_loss,
    mse_loss,
    sims_loss,
    sims_vector,
    text_total_loss,
)
from voxalign.rng import Rng


class TestMseLoss:
    def test_perfect_prediction(self):
        t = Rng(0, "mse").normal(3, 4)
        out = mse_loss(t, t)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, np.zeros((3, 4)))

    def test_scalar_case(self):
        out = mse_loss([[0.0]], [[3.0]])
        assert out.value == 9.0
        np.testing.assert_array_equal(out.grad, [[6.0]])

    def test_gradient_matches_finite_differences(self):
        r = Rng(1, "mse-fd")
        t = r.child("t").normal(4, 3)
        p = r.child("p").normal(4, 3)
        assert grad_check(lambda x: mse_loss(t, x), p, 1e-5) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestSimsVector:
    def test_exact_cosines(self):
        np.testing.assert_allclose(
            sims_vector([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0], atol=0
        )

    def test_all_equal_rows(self):
        np.testing.assert_allclose(sims_vector(np.tile([2.0, 1.0], (4, 1))), 1.0)

    def test_matches_pairwise_cosine_oracle(self):
        m = Rng(2, "sims").normal(5, 4)
        got = sims_vector(m)
        for k in range(4):
            assert got[k] == pytest.approx(cosine(m[0], m[k + 1]), abs=1e-12)

    def test_zero_token_reports_index(self):
        m = Rng(3, "sims-z").normal(4, 3)
        m[2] = 0.0
        with pytest.raises(DegenerateInput, match="token 2"):
            sims_vector(m)


class TestSimsLoss:
    def test_perfect_prediction_both_modes(self):
        a = Rng(4, "sl").normal(4, 3)
        assert sims_loss(a, a, "own_first_token").value == 0.0
        assert sims_loss(a, a, "target_first_token").value == 0.0

    def test_positive_scaling_invariance_own_mode(self):
        a = Rng(5, "sl-c").normal(4, 3)
        assert sims_loss(a, 3.5 * a, "own_first_token").value == pytest.approx(0.0, abs=1e-15)

    def test_gradients_match_finite_differences(self):
        for s in range(5):
            r = Rng(s, "sl-fd")
            a = r.child("a").normal(4, 3)
            b = r.child("b").normal(4, 3)
            for mode in ("own_first_token", "target_first_token"):
                assert grad_check(lambda p, m=mode: sims_loss(a, p, m), b, 1e-5) < 1e-5

    def test_target_mode_has_no_first_token_gradient(self):
        r = Rng(6, "sl-t")
        a = r.child("a").normal(4, 3)
        b = r.child("b").normal(4, 3)
        grad = sims_loss(a, b, "target_first_token").grad
        np.testing.assert_array_equal(grad[0], np.zeros(3))
        assert np.abs(sims_loss(a, b, "own_first_token").grad[0]).max() > 0

    def test_unknown_anchor(self):
        with pytest.raises(ValueError):
            sims_loss(np.ones((2, 2)), np.ones((2, 2)), "middle_token")


class TestCkaLoss:
    def test_perfect_prediction(self):
        a = Rng(7, "ckal").normal(5, 3)
        assert cka_loss(a, a).value == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_transform_is_stationary(self):
        r = Rng(8, "ckal-q")
        a = r.child("a").normal(5, 3)
        q, _ = np.linalg.qr(r.child("q").normal(3, 3))
        out = cka_loss(a, a @ q)
        assert out.value < 1e-9
        assert np.abs(out.grad).max() < 1e-6

    def test_gradient_matches_finite_differences(self):
        for s in range(5):
            r = Rng(s, "ckal-fd")
            a = r.child("a").normal(5, 3)
            b = r.child("b").normal(5, 4)
            assert grad_check(lambda p: cka_loss(a, p), b, 1e-5) < 1e-4

    def test_value_range(self):
        for s in range(20):
            r = Rng(s, "ckal-r")
            v = cka_loss(r.child("a").normal(6, 3), r.child("b").normal(6, 5)).value
            assert -1e-9 <= v <= 1.0 + 1e-9


class TestMgLoss:
    def test_perfect_prediction(self):
        a = Rng(9, "mg").normal(4, 3)
        assert mg_loss(a, a).value == pytest.approx(0.0, abs=1e-9)

    def test_decomposition_identity(self):
        for s in range(20):
            r = Rng(s, "mg-d")
            a = r.child("a").normal(4, 3)
            b = r.child("b").normal(4, 3)
            out = mg_loss(a, b)
            assert out.value == out.cka_value + out.sims_value  # exact by construction

    def test_orthogonal_argmin_own_mode(self):
        r = Rng(10, "mg-q")
        a = r.child("a").normal(5, 4)
        q, _ = np.linalg.qr(r.child("q").normal(4, 4))
        assert mg_loss(a, a @ q, "own_first_token").value < 1e-9

    def test_gradient_matches_finite_differences(self):
        r = Rng(11, "mg-fd")
        a = r.child("a").normal(4, 3)
        b = r.child("b").normal(4, 3)
        assert grad_check(lambda p: mg_loss(a, p), b, 1e-5) < 1e-4

    def test_weights_scale_components(self):
        r = Rng(12, "mg-w")
        a = r.child("a").normal(4, 3)
        b = r.child("b").normal(4, 3)
        base = mg_loss(a, b)
        weighted = mg_loss(a, b, weight_cka=2.0, weight_sims=0.5)
        assert weighted.value == pytest.approx(
            2.0 * base.cka_value + 0.5 * base.sims_value, rel=1e-15
        )


class TestCrecLoss:
    def _random_instance(self, seed):
        r = Rng(seed, "crec")
        f_s = r.child("fs").normal(3)
        f_d = r.child("fd").normal(5)
        recons = (
            r.child("r0").normal(3),
            r.child("r1").normal(5),
            r.child("r2").normal(5),
            r.child("r3").normal(3),
        )
        return f_s, f_d, recons

    def test_perfect_reconstructions(self):
        f_s, f_d, _ = self._random_instance(0)
        assert crec_loss(f_s, f_d, f_s, f_d, f_d, f_s).value == 0.0

    def test_zero_signals_zero_reconstructions(self):
        z3, z5 = np.zeros(3), np.zeros(5)
        assert crec_loss(z3, z5, z3, z5, z5, z3).value == 0.0

    def test_equals_sum_of_four_mse_terms(self):
        f_s, f_d, recons = self._random_instance(1)
        out = crec_loss(f_s, f_d, *recons)
        expected = (
            mse_loss(f_s, recons[0]).value
            + mse_loss(f_d, recons[1]).value
            + mse_loss(f_d, recons[2]).value
            + mse_loss(f_s, recons[3]).value
        )
        assert out.value == expected  # literal sum, bitwise
        assert out.terms == (
            mse_loss(f_s, recons[0]).value,
            mse_loss(f_d, recons[1]).value,
            mse_loss(f_d, recons[2]).value,
            mse_loss(f_s, recons[3]).value,
        )

    def test_shape_mismatch_names_term(self):
        f_s, f_d, recons = self._random_instance(2)
        bad = (recons[0], recons[1], np.zeros(7), recons[3])
        with pytest.raises(ShapeMismatch, match="direct detail reconstruction"):
            crec_loss(f_s, f_d, *bad)

    def test_gradients_match_finite_differences(self):
        f_s, f_d, recons = self._random_instance(3)
        fields = (
            "grad_recon_sem_direct",
            "grad_recon_det_cross",
            "grad_recon_det_direct",
            "grad_recon_sem_cross",
        )
        for pos, field in enumerate(fields):
            def f(x, pos=pos, field=field):
                args = list(recons)
                args[pos] = x
                out = crec_loss(f_s, f_d, *args)
                return LossValueGrad(out.value, getattr(out, field))

            assert grad_check(f, recons[pos], 1e-5) < 1e-6


class TestTextTotalLoss:
    def test_perfect_prediction(self):
        r = Rng(13, "tt")
        target = r.child("t").normal(4, 3)
        f_s = r.child("f").normal(6)
        out = text_total_loss(target, target, f_s, f_s)
        assert out.value == pytest.approx(0.0, abs=1e-9)

    def test_decomposition(self):
        r = Rng(14, "tt-d")
        target = r.child("t").normal(4, 3)
        pred = r.child("p").normal(4, 3)
        f_s = r.child("f").normal(6)
        recon = r.child("r").normal(6)
        out = text_total_loss(target, pred, f_s, recon)
        assert out.value == pytest.approx(out.mg_value + out.recon_value, abs=1e-12)
        assert out.mg_value == pytest.approx(out.cka_value + out.sims_value, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        r = Rng(15, "tt-fd")
        target = r.child("t").normal(4, 3)
        pred = r.child("p").normal(4, 3)
        f_s = r.child("f").normal(6)
        recon = r.child("r").normal(6)
        err_emb = grad_check(
            lambda p: LossValueGrad(
                text_total_loss(target, p, f_s, recon).value,
                text_total_loss(target, p, f_s, recon).grad_pred_emb,
            ),
            pred, 1e-5,
        )
        err_rec = grad_check(
            lambda x: LossValueGrad(
                text_total_loss(target, pred, f_s, x).value,
                text_total_loss(target, pred, f_s, x).grad_recon_sem,
            ),
            recon, 1e-5,
        )
        assert err_emb < 1e-4
        assert err_rec < 1e-4


class TestImageTotalLoss:
    def _instance(self, seed):
        r = Rng(seed, "it")
        sem_t = r.child("st").normal(4, 3)
        det_t = r.child("dt").normal(4, 3)
        fused_t = 0.5 * (sem_t + det_t)
        pred_sem = r.child("ps").normal(4, 3)
        pred_det = r.child("pd").normal(4, 3)
        f_s = r.child("fs").normal(3)
        f_d = r.child("fd").normal(5)
        recons = (
            r.child("r0").normal(3),
            r.child("r1").normal(5),
            r.child("r2").normal(5),
            r.child("r3").normal(3),
        )
        return fused_t, pred_sem, pred_det, sem_t, det_t, f_s, f_d, recons

    def test_perfect_everything(self):
        fused_t, _, _, sem_t, det_t, f_s, f_d, _ = self._instance(0)
        out = image_total_loss(
            0.5 * (sem_t + det_t), sem_t, det_t, sem_t, det_t, f_s, f_d, f_s, f_d, f_d, f_s
        )
        assert out.value == pytest.approx(0.0, abs=1e-9)

    def test_five_term_decomposition(self):
        fused_t, ps, pd, sem_t, det_t, f_s, f_d, recons = self._instance(1)
        out = image_total_loss(fused_t, ps, pd, sem_t, det_t, f_s, f_d, *recons)
        total = (
            out.cka_value + out.sims_value + out.crec_value
            + out.sem_mse_value + out.det_mse_value
        )
        assert out.value == pytest.approx(total, abs=1e-12)

    def test_fusion_splits_gradient_in_half(self):
        fused_t, ps, pd, sem_t, det_t, f_s, f_d, recons = self._instance(2)
        out = image_total_loss(fused_t, ps, pd, sem_t, det_t, f_s, f_d, *recons)
        fused_pred = 0.5 * (ps + pd)
        mg = mg_loss(fused_t, fused_pred)
        np.testing.assert_allclose(
            out.grad_pred_sem_emb - mse_loss(sem_t, ps).grad, 0.5 * mg.grad, atol=1e-15
        )
        np.testing.assert_allclose(
            out.grad_pred_det_emb - mse_loss(det_t, pd).grad, 0.5 * mg.grad, atol=1e-15
        )

    def test_end_to_end_gradients(self):
        fused_t, ps, pd, sem_t, det_t, f_s, f_d, recons = self._instance(3)

        def wrt_sem(x):
            out = image_total_loss(fused_t, x, pd, sem_t, det_t, f_s, f_d, *recons)
            return LossValueGrad(out.value, out.grad_pred_sem_emb)

        def wrt_det(x):
            out = image_total_loss(fused_t, ps, x, sem_t, det_t, f_s, f_d, *recons)
            return LossValueGrad(out.value, out.grad_pred_det_emb)

        assert grad_check(wrt_sem, ps, 1e-5) < 1e-4
        assert grad_check(wrt_det, pd, 1e-5) < 1e-4

    def test_crec_weight_scales_reconstruction_grads(self):
        fused_t, ps, pd, sem_t, det_t, f_s, f_d, recons = self._instance(4)
        out0 = image_total_loss(
            fused_t, ps, pd, sem_t, det_t, f_s, f_d, *recons, weight_crec=0.0
        )
        assert np.all(out0.grad_recon_sem_direct == 0.0)
        assert out0.value == pytest.approx(
            out0.cka_value + out0.sims_value + out0.sem_mse_value + out0.det_mse_value,
            abs=1e-12,
        )

    @pytest.mark.parametrize("path", ["sem", "det"])
    def test_single_path_matches_reference_formula(self, path):
        # Reference: the per-sample single-path loss written out term by term.
        r = Rng(5, f"single-{path}")
        target = r.child("t").normal(4, 3)
        pred = r.child("p").normal(4, 3)
        voxels = r.child("v").normal(5)
        recon = r.child("r").normal(5)
        anchor, w_cka, w_sims, w_crec = "target_first_token", 0.7, 1.3, 0.4
        mg = mg_loss(target, pred, anchor, w_cka, w_sims)
        crec = mse_loss(voxels, recon)
        path_mse = mse_loss(target, pred)

        args = dict.fromkeys(
            ("pred_sem_emb", "pred_det_emb", "sem_emb_target", "det_emb_target",
             "voxels_sem", "voxels_det", "recon_sem_direct", "recon_det_cross",
             "recon_det_direct", "recon_sem_cross"),
        )
        args.update({
            f"pred_{path}_emb": pred, f"{path}_emb_target": target,
            f"voxels_{path}": voxels, f"recon_{path}_direct": recon,
        })
        out = image_total_loss(
            target, **args, anchor=anchor, weight_cka=w_cka, weight_sims=w_sims, weight_crec=w_crec
        )
        assert out.value == mg.value + w_crec * crec.value + path_mse.value
        np.testing.assert_array_equal(getattr(out, f"grad_pred_{path}_emb"), mg.grad + path_mse.grad)
        np.testing.assert_array_equal(getattr(out, f"grad_recon_{path}_direct"), w_crec * crec.grad)
        other = "det" if path == "sem" else "sem"
        assert getattr(out, f"grad_pred_{other}_emb") is None
        assert getattr(out, f"{other}_mse_value") is None
        assert out.grad_recon_det_cross is None and out.grad_recon_sem_cross is None


class TestGradCheckHarness:
    def test_deterministic_loss_evaluation(self):
        r = Rng(16, "det")
        a = r.child("a").normal(5, 4)
        b = r.child("b").normal(5, 4)
        first = mg_loss(a, b)
        second = mg_loss(a, b)
        assert first.value == second.value
        assert first.grad.tobytes() == second.grad.tobytes()

    def test_rejects_wrong_gradient(self):
        t = Rng(17, "bad").normal(3, 3)
        p = Rng(18, "bad").normal(3, 3)

        def broken(x):
            out = mse_loss(t, x)
            return LossValueGrad(out.value, 2.0 * out.grad)

        assert grad_check(broken, p, 1e-5) > 0.1


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _batch(seed, n, m, d):
    r = Rng(seed, f"batch-{n}-{m}-{d}")
    return r.child("a").normal(n, m, d), r.child("b").normal(n, m, d)


# (n, m, d): a batch of one, the 12x16 image shape, and edge token/width counts.
BATCH_SHAPES = [(1, 4, 3), (32, 12, 16), (5, 2, 1), (7, 2, 9), (6, 13, 1), (3, 9, 19), (4, 3, 2)]
ANCHORS = ["own_first_token", "target_first_token"]


class TestBatchedKernelsMatchReference:
    """Every batched kernel reproduces the per-sample reference bit for bit."""

    @pytest.mark.parametrize("n,m,d", BATCH_SHAPES)
    def test_mse(self, n, m, d):
        a, b = _batch(0, n, m, d)
        values, grads = losses._mse(a, b)
        for s in range(n):
            value, grad = ref.mse_loss(a[s], b[s])
            assert values[s] == value and _same_bits(grads[s], grad)

    @pytest.mark.parametrize("n,m,d", BATCH_SHAPES)
    def test_cka(self, n, m, d):
        a, b = _batch(1, n, m, d)
        values, grads = losses._cka(a, b, batched=True)
        for s in range(n):
            value, grad = ref.cka_loss(a[s], b[s])
            assert values[s] == value and _same_bits(grads[s], grad)

    @pytest.mark.parametrize("anchor", ANCHORS)
    @pytest.mark.parametrize("n,m,d", BATCH_SHAPES)
    def test_sims(self, n, m, d, anchor):
        a, b = _batch(2, n, m, d)
        values, grads = losses._sims(a, b, anchor, batched=True)
        for s in range(n):
            value, grad = ref.sims_loss(a[s], b[s], anchor)
            assert values[s] == value and _same_bits(grads[s], grad)

    def test_sims_anchor_square_rounding(self):
        # The reference squares |b_0| as a Python float (libm pow), which
        # differs from x * x in the last bit for about one norm in a
        # thousand. Keep only such samples; the kernel must match them too.
        r = Rng(3, "pow")
        a, b = r.child("a").normal(20000, 3, 2), r.child("b").normal(20000, 3, 2)
        norms = [float(np.linalg.norm(anchor)) for anchor in b[:, 0]]
        picked = [s for s, x in enumerate(norms) if x**2 != x * x]
        assert len(picked) >= 5
        values, grads = losses._sims(a[picked], b[picked], "own_first_token", batched=True)
        for i, s in enumerate(picked):
            value, grad = ref.sims_loss(a[s], b[s], "own_first_token")
            assert values[i] == value and _same_bits(grads[i], grad)

    @pytest.mark.parametrize("m,d", [(2, 1), (4, 3), (12, 16), (13, 19)])
    def test_single_sample_api(self, m, d):
        a, b = _batch(4, 1, m, d)
        a, b = a[0], b[0]
        for got, want in (
            (mse_loss(a, b), ref.mse_loss(a, b)),
            (cka_loss(a, b), ref.cka_loss(a, b)),
            (sims_loss(a, b, "own_first_token"), ref.sims_loss(a, b, "own_first_token")),
            (sims_loss(a, b, "target_first_token"), ref.sims_loss(a, b, "target_first_token")),
        ):
            assert type(got.value) is float
            assert got.value == want[0] and _same_bits(got.grad, want[1])
        got = mg_loss(a, b, "target_first_token", 0.5, 2.0)
        want = ref.mg_loss(a, b, "target_first_token", 0.5, 2.0)
        assert (got.value, got.cka_value, got.sims_value) == (want[0], want[2], want[3])
        assert _same_bits(got.grad, want[1])


def _image_args(seed, n, paths):
    r = Rng(seed, "image-batch")
    m, d, n_s, n_d = 5, 4, 6, 7
    args = dict.fromkeys(
        ("pred_sem_emb", "pred_det_emb", "sem_emb_target", "det_emb_target",
         "recon_sem_direct", "recon_det_cross", "recon_det_direct", "recon_sem_cross"),
    )
    args["voxels_sem"] = r.child("vs").normal(n, n_s)
    args["voxels_det"] = r.child("vd").normal(n, n_d)
    for path in paths:
        args[f"pred_{path}_emb"] = r.child(f"p{path}").normal(n, m, d)
        args[f"{path}_emb_target"] = r.child(f"t{path}").normal(n, m, d)
        args[f"recon_{path}_direct"] = r.child(f"rd{path}").normal(n, n_s if path == "sem" else n_d)
    if len(paths) == 2:
        args["recon_det_cross"] = r.child("rdc").normal(n, n_d)
        args["recon_sem_cross"] = r.child("rsc").normal(n, n_s)
    targets = [args[f"{path}_emb_target"] for path in paths]
    args["fused_target"] = targets[0] if len(targets) == 1 else 0.5 * (targets[0] + targets[1])
    return args


WEIGHTS = [("own_first_token", 1.0, 1.0, 1.0), ("target_first_token", 0.5, 2.0, 0.3)]


class TestBatchedTotalsMatchReference:
    @pytest.mark.parametrize("anchor,w_cka,w_sims,w_crec", WEIGHTS)
    @pytest.mark.parametrize("n", [1, 9])
    def test_text_total(self, n, anchor, w_cka, w_sims, w_crec):
        a, b = _batch(5, n, 6, 5)
        r = Rng(6, "text-batch")
        vox, recon = r.child("v").normal(n, 8), r.child("r").normal(n, 8)
        out = text_total_loss(a, b, vox, recon, anchor, w_cka, w_sims)
        assert out.value.shape == (n,) and out.grad_pred_emb.shape == (n, 6, 5)
        for s in range(n):
            want = ref.text_total_loss(a[s], b[s], vox[s], recon[s], anchor, w_cka, w_sims)
            for name, value in want.items():
                assert _same_bits(getattr(out, name)[s], value), name

    @pytest.mark.parametrize("anchor,w_cka,w_sims,w_crec", WEIGHTS)
    @pytest.mark.parametrize("paths", [("sem", "det"), ("sem",), ("det",)])
    def test_image_total(self, paths, anchor, w_cka, w_sims, w_crec):
        n = 7
        args = _image_args(7, n, paths)
        out = image_total_loss(
            **args, anchor=anchor, weight_cka=w_cka, weight_sims=w_sims, weight_crec=w_crec
        )
        for s in range(n):
            want = ref.image_total_loss(
                {k: None if v is None else v[s] for k, v in args.items()},
                anchor, w_cka, w_sims, w_crec,
            )
            for name, value in want.items():
                got = getattr(out, name)
                if value is None:
                    assert got is None, name
                else:
                    assert _same_bits(got[s], value), name

    def test_single_sample_total_is_batch_of_one(self):
        args = _image_args(8, 1, ("sem", "det"))
        batched = image_total_loss(**args)
        single = image_total_loss(**{k: v[0] for k, v in args.items()})
        assert type(single.value) is float and single.value == batched.value[0]
        assert _same_bits(single.grad_pred_sem_emb, batched.grad_pred_sem_emb[0])

    def test_sample_counts_must_agree(self):
        a, b = _batch(9, 4, 3, 2)
        with pytest.raises(ShapeMismatch, match="sample counts"):
            text_total_loss(a, b, np.ones((3, 5)), np.ones((3, 5)))


class TestBatchedErrors:
    def test_zero_token_names_sample(self):
        a, b = _batch(10, 8, 5, 3)
        b[5, 3] = 0.0
        with pytest.raises(DegenerateInput, match="^sample 5: pred token 3 is a zero vector$"):
            text_total_loss(a, b, np.ones((8, 4)), np.zeros((8, 4)))

    def test_constant_representation_names_sample(self):
        a, b = _batch(11, 6, 4, 3)
        b[2] = b[2, 0]
        with pytest.raises(DegenerateInput, match="^sample 2: prediction is a constant representation$"):
            text_total_loss(a, b, np.ones((6, 4)), np.zeros((6, 4)))

    def test_single_sample_messages_unchanged(self):
        a, b = _batch(12, 1, 4, 3)
        b[0, 2] = 0.0
        with pytest.raises(DegenerateInput, match="^pred: token 2 is a zero vector$"):
            sims_loss(a[0], b[0])
        with pytest.raises(DegenerateInput, match="^prediction is a constant representation$"):
            cka_loss(a[0], np.ones((4, 3)))

    def test_non_finite_input_is_degenerate(self):
        a, b = _batch(13, 3, 4, 3)
        b[1, 0, 0] = np.nan
        with pytest.raises(DegenerateInput, match="non-finite"):
            text_total_loss(a, b, np.ones((3, 4)), np.zeros((3, 4)))
        with pytest.raises(DegenerateInput, match="non-finite"):
            mse_loss(a[1], b[1])


class TestOverflowOnFiniteInputs:
    """A term that overflows on finite inputs raises NumericalFailure, without warnings."""

    def test_cka_names_sample_and_term(self):
        a, b = _batch(14, 5, 4, 3)
        b[3] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^sample 3: CKA term overflows on finite inputs$"):
                text_total_loss(a, b, np.ones((5, 4)), np.zeros((5, 4)))

    def test_sims_names_term(self):
        a, b = _batch(15, 1, 4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^sims term overflows on finite inputs$"):
                sims_loss(a[0], 1e200 * b[0])
            with pytest.raises(NumericalFailure, match="^CKA term overflows on finite inputs$"):
                cka_loss(a[0], 1e200 * b[0])

    @pytest.mark.parametrize("scale", [1e80, 1e150])
    def test_cka_denominator_overflow(self, scale):
        # Unchecked, the overflowing denominator gives CKA loss 1.0 for any prediction.
        a, b = _batch(17, 1, 4, 3)
        with pytest.raises(NumericalFailure, match="^CKA term overflows"):
            cka_loss(a[0], scale * b[0])

    @pytest.mark.parametrize("anchor", ANCHORS)
    def test_sims_norm_overflow(self, anchor):
        # Unchecked, the overflowing token norm gives that token a cosine of 0.
        a, b = _batch(18, 1, 4, 3)
        b[0, 2] *= 1e160
        with pytest.raises(NumericalFailure, match="^sims term overflows"):
            sims_loss(a[0], b[0], anchor)

    def test_mse_names_term(self):
        # Unchecked, this returned inf with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^MSE term overflows on finite inputs$"):
                mse_loss(np.zeros((2, 2)), np.full((2, 2), 1e200))

    def test_batched_mse_names_sample_and_term(self):
        a, b = _batch(19, 4, 4, 3)
        recon = np.zeros((4, 4))
        recon[2, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalFailure, match="^sample 2: semantic reconstruction term overflows on finite inputs$"
            ):
                text_total_loss(a, b, np.ones((4, 4)), recon)
            images = _image_args(20, 4, ("sem", "det"))
            images["det_emb_target"][1] *= 1e200
            with pytest.raises(NumericalFailure, match="^sample 1: det path MSE term overflows"):
                image_total_loss(**images)

    def test_crec_names_term(self):
        # The cross detail reconstruction matches its target; the direct one is 2e300 off.
        recons = [np.zeros(3), np.full(5, 1e300), np.full(5, -1e300), np.zeros(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalFailure, match="^direct detail reconstruction term overflows on finite inputs$"
            ):
                crec_loss(np.ones(3), np.full(5, 1e300), *recons)

    def test_large_finite_terms_pass(self):
        a, b = _batch(16, 3, 4, 3)
        np.testing.assert_allclose(cka_loss(a[0], 1e50 * b[0]).value, cka_loss(a[0], b[0]).value)
