import re

import numpy as np
import pytest

import model_reference
from voxalign.errors import DegenerateInput, FormatError, InvalidState, ShapeMismatch
from voxalign.losses import image_total_loss
from voxalign.model import (
    ModelConfig,
    VARIANTS,
    ModelParams,
    _apply_layer,
    collect_masks,
    desk_config,
    expected_tensors,
    image_branch_backward,
    image_branch_forward,
    init_params,
    load_params,
    param_count,
    save_params,
    text_branch_backward,
    text_branch_forward,
)
from voxalign.rng import Rng

TINY = ModelConfig(
    n_semantic_voxels=2,
    n_detail_voxels=4,
    latent_dim=2,
    text_tokens=2,
    text_dim=2,
    image_tokens=2,
    image_dim=2,
)


def zero_params(cfg, variant="full"):
    tensors = {name: np.zeros(shape) for name, shape in expected_tensors(cfg, variant).items()}
    return ModelParams(cfg, variant, tensors)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        cfg = desk_config()
        a = init_params(cfg, Rng(5, "i").child("init"))
        b = init_params(cfg, Rng(5, "i").child("init"))
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_biases_zero(self):
        params = init_params(desk_config(), Rng(6, "i"))
        for name, tensor in params.tensors.items():
            if name.endswith(".b"):
                assert np.all(tensor == 0.0)

    def test_uniform_moment(self):
        cfg = ModelConfig(256, 300, 256, 2, 2, 2, 2)
        params = init_params(cfg, Rng(7, "i"))
        w = params.tensors["text.backbone1.W"]  # 256 x 256
        bound = np.sqrt(6.0 / (256 + 256))
        expected_std = bound / np.sqrt(3.0)
        assert abs(w.std() - expected_std) / expected_std < 0.15
        assert np.abs(w).max() <= bound


def block(x, w, rate, rng=None, mask=None):
    """One zero-bias block through ``_apply_layer``: residual when `w` is
    square, training mode given an `rng` (fresh mask) or a `mask` (replay).
    Returns the output and the mask used."""
    caches = {}
    train = rng is not None or mask is not None
    masks = None if mask is None else {"block": mask}
    residual = w.shape[0] == w.shape[1]
    y = _apply_layer(x, w, np.zeros(w.shape[1]), rate, rng, masks, "block", caches, residual, train)
    return y, caches["block"]["mask"]


class TestApplyLayer:
    def test_residual_identity_with_zero_weights(self):
        x = Rng(8, "blk").normal(3, 4)
        y, mask = block(x, np.zeros((4, 4)), 0.0)
        np.testing.assert_array_equal(y, x)
        assert mask is None

    def test_relu_kills_negative_preactivations(self):
        x = np.array([[1.0, 2.0]])
        w = -np.eye(2)
        y, _ = block(x, np.hstack([w, w]), 0.0)  # 2->4, no residual
        np.testing.assert_array_equal(y, np.zeros((1, 4)))

    def test_seeded_mask_positions(self):
        x = np.abs(Rng(9, "blk").normal(2, 6)) + 1.0
        w = np.eye(6)
        y1, m1 = block(x, w, 0.5, rng=Rng(3, "mask"))
        y2, m2 = block(x, w, 0.5, rng=Rng(3, "mask"))
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(y1, y2)
        assert set(np.unique(m1)).issubset({0.0, 2.0})

    def test_train_expectation_matches_inference(self):
        # Monte Carlo over masks: inverted dropout is unbiased within 5%.
        x = np.abs(Rng(10, "blk").normal(1, 8)) + 0.5
        w = np.eye(8)
        inference, _ = block(x, w, 0.5)
        rng = Rng(11, "mc")
        draws = 10_000
        training = np.concatenate([block(x, w, 0.5, rng=rng)[0] for _ in range(draws)])
        np.testing.assert_allclose(training.mean(axis=0), inference[0], rtol=0.05)

    def test_mask_replay(self):
        x = Rng(12, "blk").normal(2, 3)
        w = Rng(13, "blk").normal(3, 3)
        y1, m1 = block(x, w, 0.5, rng=Rng(1, "m"))
        y2, m2 = block(x, w, 0.5, mask=m1)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(m1, m2)


class TestApplyLayerMatchesReference:
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("mode", ["infer", "draw", "replay"])
    def test_bit_identical(self, residual, mode):
        rng = Rng(17, f"layer-{residual}-{mode}")
        n, a = 5, 7
        b = a if residual else 4
        x, w, bias = rng.child("x").normal(n, a), rng.child("w").normal(a, b), rng.child("b").normal(b)
        mask = (rng.child("keep").random(n, b) >= 0.3) / 0.7 if mode == "replay" else None
        train = mode != "infer"
        caches = {}
        y = _apply_layer(
            x, w, bias, 0.3, Rng(1, "draw"), None if mask is None else {"k": mask}, "k", caches,
            residual, train,
        )
        want_y, want_z, want_mask = model_reference.apply_layer(
            x, w, bias, 0.3, Rng(1, "draw"), mask, residual, train
        )
        assert y.tobytes() == want_y.tobytes()
        assert caches["k"]["z"].tobytes() == want_z.tobytes()
        assert caches["k"]["x"] is x
        if train:
            assert caches["k"]["mask"].tobytes() == want_mask.tobytes()
        else:
            assert caches["k"]["mask"] is None


class TestReplayMaskMustMatch:
    """A replay mask must have the activations' exact shape; one that only broadcasts is rejected."""

    @pytest.mark.parametrize("bad", [lambda m: m[:1], lambda m: m[None]], ids=["one-row", "stack-axis"])
    def test_apply_layer(self, bad):
        x = Rng(18, "blk").normal(2, 3)
        w = Rng(19, "blk").normal(3, 3)
        _, mask = block(x, w, 0.5, rng=Rng(2, "m"))
        with pytest.raises(ShapeMismatch, match="mask for 'block'"):
            block(x, w, 0.5, mask=bad(mask))

    @pytest.mark.parametrize("bad", [lambda m: m[:1], lambda m: m[None]], ids=["one-row", "stack-axis"])
    @pytest.mark.parametrize("branch", ["text", "image"])
    def test_branch_forward(self, branch, bad):
        params = init_params(TINY, Rng(20, "p"))
        x_s, x_d = Rng(21, "x").normal(2, 2), Rng(22, "x").normal(2, 4)

        def forward(**replay):
            if branch == "text":
                return text_branch_forward(x_s, params, **replay)
            return image_branch_forward(x_s, x_d, params, **replay)

        masks = collect_masks(forward(rng=Rng(23, "m")).caches)
        for key in masks:
            with pytest.raises(ShapeMismatch, match=re.escape(f"mask for {key!r}")):
                forward(masks={**masks, key: bad(masks[key])})


class TestTextBranchForward:
    def test_zero_params_give_zero_outputs(self):
        params = zero_params(TINY)
        fwd = text_branch_forward(np.ones((3, 2)), params)
        assert np.all(fwd.pred_emb == 0.0)
        assert np.all(fwd.recon_sem == 0.0)

    def test_inference_deterministic(self):
        params = init_params(TINY, Rng(14, "i"))
        x = Rng(15, "x").normal(4, 2)
        a = text_branch_forward(x, params)
        b = text_branch_forward(x, params)
        assert a.pred_emb.tobytes() == b.pred_emb.tobytes()

    def test_hand_trace(self):
        # N_S=2, latent=2, 2x2 text embedding; every weight chosen by hand.
        params = zero_params(TINY)
        t = params.tensors
        t["text.encoder.W"] = np.array([[1.0, 0.0], [0.0, -1.0]])
        t["text.encoder.b"] = np.array([0.5, 0.0])
        t["text.backbone1.W"] = np.array([[0.0, 1.0], [1.0, 0.0]])
        t["text.backbone2.W"] = np.zeros((2, 2))
        t["text.output.W"] = np.array(
            [[1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5, 0.5]]
        )
        t["text.output.b"] = np.array([0.1, 0.2, 0.3, 0.4])
        t["text.decoder.W"] = np.array([[2.0, 0.0], [0.0, 2.0]])

        x = np.array([[1.0, 2.0]])
        fwd = text_branch_forward(x, params)
        # encoder: relu([1*1 + 0.5, -2]) = [1.5, 0]
        np.testing.assert_allclose(fwd.code, [[1.5, 0.0]])
        # decoder: relu([3.0, 0.0]) = [3, 0]
        np.testing.assert_allclose(fwd.recon_sem, [[3.0, 0.0]])
        # backbone1: [1.5,0] + relu([0, 1.5]) = [1.5, 1.5]; backbone2 adds zero
        # output: [1.5,1.5] @ W + b = [2.25+0.1, 3.75+0.2, 5.25+0.3, 6.75+0.4]
        np.testing.assert_allclose(
            fwd.pred_emb, [[[2.35, 3.95], [5.55, 7.15]]], atol=1e-15
        )


class TestImageBranchForward:
    def test_fusion_of_equal_paths(self):
        params = init_params(TINY, Rng(16, "i"))
        # feed identical voxels through both encoders by syncing their weights
        t = params.tensors
        t["image.encoder_det.W"] = np.vstack([t["image.encoder_sem.W"], np.zeros((2, 2))])
        t["image.encoder_det.b"] = t["image.encoder_sem.b"].copy()
        x_s = Rng(17, "x").normal(3, 2)
        x_d = np.hstack([x_s, np.zeros((3, 2))])
        fwd = image_branch_forward(x_s, x_d, params)
        np.testing.assert_array_equal(fwd.pred_sem_emb, fwd.pred_det_emb)
        np.testing.assert_array_equal(fwd.pred_fused_emb, fwd.pred_sem_emb)

    def test_zero_params(self):
        fwd = image_branch_forward(np.ones((2, 2)), np.ones((2, 4)), zero_params(TINY))
        for field in ("recon_sem_direct", "recon_det_cross", "recon_det_direct",
                      "recon_sem_cross", "pred_fused_emb"):
            assert np.all(getattr(fwd, field) == 0.0)

    def test_fusion_identity_exact(self):
        params = init_params(TINY, Rng(18, "i"))
        fwd = image_branch_forward(
            Rng(19, "x").normal(5, 2), Rng(20, "x").normal(5, 4), params
        )
        exact = 0.5 * (fwd.pred_sem_emb + fwd.pred_det_emb)
        assert np.max(np.abs(fwd.pred_fused_emb - exact)) == 0.0

    def test_hand_trace_cross_paths(self):
        params = zero_params(TINY)
        t = params.tensors
        t["image.encoder_sem.W"] = np.array([[1.0, 0.0], [0.0, 1.0]])
        t["image.encoder_det.W"] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )
        t["image.decoder_sem.W"] = np.array([[1.0, 2.0], [3.0, 4.0]])
        t["image.decoder_det.W"] = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        x_s = np.array([[1.0, 2.0]])
        x_d = np.array([[3.0, 4.0, 5.0, 6.0]])
        fwd = image_branch_forward(x_s, x_d, params)
        np.testing.assert_allclose(fwd.code_sem, [[1.0, 2.0]])
        np.testing.assert_allclose(fwd.code_det, [[8.0, 10.0]])
        # direct sem: relu([1*1+2*3, 1*2+2*4]) = [7, 10]
        np.testing.assert_allclose(fwd.recon_sem_direct, [[7.0, 10.0]])
        # cross detail: code_sem through detail decoder = [1, 2, 1, 2]
        np.testing.assert_allclose(fwd.recon_det_cross, [[1.0, 2.0, 1.0, 2.0]])
        # direct detail: [8, 10, 8, 10]
        np.testing.assert_allclose(fwd.recon_det_direct, [[8.0, 10.0, 8.0, 10.0]])
        # cross sem: code_det through sem decoder = [8+30, 16+40] = [38, 56]
        np.testing.assert_allclose(fwd.recon_sem_cross, [[38.0, 56.0]])

    def test_variant_paths(self):
        params = init_params(TINY, Rng(21, "i"), variant="text_semantic")
        fwd = image_branch_forward(np.ones((2, 2)), np.ones((2, 4)), params)
        assert fwd.code_det is None
        assert fwd.recon_det_cross is None
        np.testing.assert_array_equal(fwd.pred_fused_emb, fwd.pred_sem_emb)


class TestModelBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(TINY, Rng(22, "i"))
        x = Rng(23, "x").normal(2, 2)
        fwd = text_branch_forward(x, params)
        grads = text_branch_backward(
            params, fwd, np.zeros_like(fwd.pred_emb), np.zeros_like(fwd.recon_sem)
        )
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_upstream_linearity(self):
        params = init_params(TINY, Rng(24, "i"))
        x = Rng(25, "x").normal(2, 2)
        fwd = text_branch_forward(x, params)
        g_emb = Rng(26, "g").normal(*fwd.pred_emb.shape)
        g_rec = Rng(27, "g").normal(*fwd.recon_sem.shape)
        once = text_branch_backward(params, fwd, g_emb, g_rec)
        twice = text_branch_backward(params, fwd, 2.0 * g_emb, 2.0 * g_rec)
        for name in once:
            np.testing.assert_allclose(twice[name], 2.0 * once[name], atol=1e-12)

    def test_missing_masks_rejected(self):
        params = init_params(TINY, Rng(28, "i"))
        x = Rng(29, "x").normal(2, 2)
        fwd = text_branch_forward(x, params, rng=Rng(30, "m"))
        fwd.caches["text.encoder"]["mask"] = None
        with pytest.raises(InvalidState):
            text_branch_backward(
                params, fwd, np.ones_like(fwd.pred_emb), np.ones_like(fwd.recon_sem)
            )

    def test_full_image_loss_finite_differences(self):
        # Every image-branch parameter of a tiny model against central FD.
        # Seed picked so no pre-activation sits on a ReLU kink (guarded below).
        cfg = TINY
        rng = Rng(3, "fd")
        params = init_params(cfg, rng.child("init"))
        x_s = rng.child("xs").normal(1, 2) + 2.0  # keep activations alive
        x_d = rng.child("xd").normal(1, 4) + 2.0
        sem_t = rng.child("st").normal(2, 2)
        det_t = rng.child("dt").normal(2, 2)
        fused_t = 0.5 * (sem_t + det_t)

        def loss_value(tensors):
            p = ModelParams(cfg, "full", dict(tensors))
            f = image_branch_forward(x_s, x_d, p)
            return image_total_loss(
                fused_t, f.pred_sem_emb[0], f.pred_det_emb[0], sem_t, det_t,
                x_s[0], x_d[0], f.recon_sem_direct[0], f.recon_det_cross[0],
                f.recon_det_direct[0], f.recon_sem_cross[0],
            ).value

        fwd = image_branch_forward(x_s, x_d, params)
        for key, entry in fwd.caches.items():
            if key != "mode" and "z" in entry:
                assert np.abs(entry["z"]).min() > 1e-2  # away from ReLU kinks
        il = image_total_loss(
            fused_t, fwd.pred_sem_emb[0], fwd.pred_det_emb[0], sem_t, det_t,
            x_s[0], x_d[0], fwd.recon_sem_direct[0], fwd.recon_det_cross[0],
            fwd.recon_det_direct[0], fwd.recon_sem_cross[0],
        )
        grads = image_branch_backward(
            params, fwd,
            grad_pred_sem_emb=il.grad_pred_sem_emb[None],
            grad_pred_det_emb=il.grad_pred_det_emb[None],
            grad_recon_sem_direct=il.grad_recon_sem_direct[None],
            grad_recon_det_cross=il.grad_recon_det_cross[None],
            grad_recon_det_direct=il.grad_recon_det_direct[None],
            grad_recon_sem_cross=il.grad_recon_sem_cross[None],
        )
        h = 1e-5
        for name in sorted(grads):
            tensor = params.tensors[name]
            it = np.nditer(tensor, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                up = {k: v.copy() for k, v in params.tensors.items()}
                up[name][idx] += h
                down = {k: v.copy() for k, v in params.tensors.items()}
                down[name][idx] -= h
                numeric = (loss_value(up) - loss_value(down)) / (2 * h)
                analytic = float(grads[name][idx])
                denom = max(abs(analytic), abs(numeric), 1e-8)
                assert abs(analytic - numeric) / denom < 1e-4, (name, idx)
                it.iternext()


class TestBackwardIntoBuffer:
    # Batches of one row as well as several: a one-row product may take
    # another BLAS path than a matrix one.
    CFG = ModelConfig(6, 9, 5, 2, 3, 2, 3, dropout_codec=0.3, dropout_backbone=0.5)

    def _case(self, variant, seed, train):
        rng = Rng(seed, "buffer")
        params = init_params(self.CFG, rng.child("init"), variant)
        n = (1, 4, 1, 2)[seed % 4]
        x_s = rng.child("xs").normal(n, 6)
        x_d = rng.child("xd").normal(n, 9)
        masks_rng = rng.child("masks") if train else None
        cases = [("text", text_branch_forward(x_s, params, rng=masks_rng))]
        if variant != "text_only":
            cases.append(("image", image_branch_forward(x_s, x_d, params, rng=masks_rng)))
        return rng, params, cases

    @staticmethod
    def _upstream(rng, branch, fwd, partial):
        names = ("pred_emb", "recon_sem") if branch == "text" else (
            "pred_sem_emb", "pred_det_emb", "recon_sem_direct", "recon_det_cross",
            "recon_det_direct", "recon_sem_cross",
        )
        upstream = {}
        for name in names:
            out = getattr(fwd, name)
            skip = out is None or (partial and name.startswith("recon"))
            upstream[name] = None if skip else rng.child(f"g/{name}").normal(*out.shape)
        return upstream

    @staticmethod
    def _call(branch, params, fwd, upstream, out=None):
        if branch == "text":
            return text_branch_backward(params, fwd, upstream["pred_emb"], upstream["recon_sem"], out=out)
        return image_branch_backward(params, fwd, **{f"grad_{k}": v for k, v in upstream.items()}, out=out)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("partial", [False, True])
    def test_nan_filled_buffer_matches_accumulating_reference(self, variant, train, partial):
        for seed in range(4):
            rng, params, cases = self._case(variant, seed, train)
            for branch, fwd in cases:
                upstream = self._upstream(rng, branch, fwd, partial)
                buffer = {name: np.full(t.shape, np.nan) for name, t in params.tensors.items()}
                got = self._call(branch, params, fwd, upstream, out=buffer)
                expected = model_reference.backward(branch, params, fwd, upstream)
                assert list(got) == list(expected)
                for name, g in expected.items():
                    assert got[name] is buffer[name]
                    assert g.tobytes() == buffer[name].tobytes(), (variant, seed, branch, name)
                for name, b in buffer.items():
                    if name not in expected:
                        assert np.isnan(b).all()  # the other branch is left alone

    @pytest.mark.parametrize("variant", ["full", "text_only"])
    def test_without_buffer_returns_fresh_arrays(self, variant):
        rng, params, cases = self._case(variant, 0, True)
        for branch, fwd in cases:
            upstream = self._upstream(rng, branch, fwd, False)
            first = self._call(branch, params, fwd, upstream)
            second = self._call(branch, params, fwd, upstream)
            expected = model_reference.backward(branch, params, fwd, upstream)
            assert list(first) == list(expected)
            for name, g in expected.items():
                assert first[name].shape == params.tensors[name].shape
                assert first[name].tobytes() == g.tobytes()
                assert not np.shares_memory(first[name], second[name])
                assert not np.shares_memory(first[name], params.tensors[name])


class TestParamCount:
    def test_single_layer_count(self):
        # a 2x3 weight plus its bias holds 9 scalars
        cfg = ModelConfig(2, 3, 2, 1, 2, 1, 2)
        shapes = expected_tensors(cfg, "full")
        assert shapes["image.decoder_det.W"] == (2, 3)
        n = int(np.prod(shapes["image.decoder_det.W"])) + shapes["image.decoder_det.b"][0]
        assert n == 9

    def test_hand_count(self):
        cfg = ModelConfig(2, 3, 2, 1, 2, 1, 2)
        # text: enc 6, dec 6, backbones 12, out 6 -> 30
        # image: enc_s 6, enc_d 8, dec_s 6, dec_d 9, backbones 12, out 6 -> 47
        assert param_count(cfg) == 30 + 47

    def test_matches_shape_walk_oracle(self):
        cfg = desk_config()
        params = init_params(cfg, Rng(32, "i"))
        walked = sum(t.size for t in params.tensors.values())
        assert param_count(cfg) == walked

    def test_monotone_in_latent_dim(self):
        base = desk_config()
        bigger = ModelConfig(
            base.n_semantic_voxels, base.n_detail_voxels, 2 * base.latent_dim,
            base.text_tokens, base.text_dim, base.image_tokens, base.image_dim,
        )
        assert param_count(bigger) > param_count(base)

    def test_variant_counts(self):
        cfg = desk_config()
        assert param_count(cfg, "text_only") < param_count(cfg, "text_semantic")
        assert param_count(cfg, "text_semantic") < param_count(cfg, "full")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(TINY, Rng(33, "i"))
        save_params(params, tmp_path / "ckpt")
        loaded = load_params(tmp_path / "ckpt")
        assert loaded.variant == "full"
        assert loaded.cfg == TINY
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()

    def test_inference_reproduced_after_reload(self, tmp_path):
        params = init_params(TINY, Rng(34, "i"))
        x = Rng(35, "x").normal(3, 2)
        before = text_branch_forward(x, params).pred_emb
        save_params(params, tmp_path / "ckpt")
        after = text_branch_forward(x, load_params(tmp_path / "ckpt")).pred_emb
        assert before.tobytes() == after.tobytes()

    def test_manifest_sorted(self, tmp_path):
        params = init_params(TINY, Rng(36, "i"))
        save_params(params, tmp_path / "ckpt")
        lines = (tmp_path / "ckpt" / "manifest.txt").read_text().splitlines()
        names = [l.split("=")[0] for l in lines]
        assert names == sorted(names)

    def test_text_only_checkpoint_lacks_image_tensors(self, tmp_path):
        params = init_params(TINY, Rng(37, "i"), variant="text_only")
        save_params(params, tmp_path / "ckpt")
        loaded = load_params(tmp_path / "ckpt")
        assert loaded.variant == "text_only"
        assert not any(n.startswith("image.") for n in loaded.tensors)

    @pytest.mark.parametrize("line, bad", [
        ("latent_dim=2", "latent_dim=two"), ("variant=full", "variant=bogus"), ("latent_dim=2", ""),
    ])
    def test_malformed_model_cfg_rejected(self, tmp_path, line, bad):
        save_params(init_params(TINY, Rng(39, "i")), tmp_path / "ckpt")
        cfg = tmp_path / "ckpt" / "model.cfg"
        text = cfg.read_text()
        assert line in text
        cfg.write_text(text.replace(line, bad))
        with pytest.raises(FormatError, match="model.cfg"):
            load_params(tmp_path / "ckpt")

    def test_masks_collected_only_in_train_mode(self):
        params = init_params(TINY, Rng(38, "i"))
        fwd = text_branch_forward(np.ones((1, 2)), params)
        with pytest.raises(InvalidState):
            collect_masks(fwd.caches)


class TestModelParamsValidation:
    def test_shape_mismatch_detected(self):
        tensors = {n: np.zeros(s) for n, s in expected_tensors(TINY, "full").items()}
        tensors["text.encoder.W"] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            ModelParams(TINY, "full", tensors)

    def test_missing_tensor_detected(self):
        tensors = {n: np.zeros(s) for n, s in expected_tensors(TINY, "full").items()}
        del tensors["image.output.b"]
        with pytest.raises(ShapeMismatch):
            ModelParams(TINY, "full", tensors)

    def test_nonfinite_rejected(self):
        tensors = {n: np.zeros(s) for n, s in expected_tensors(TINY, "full").items()}
        tensors["text.output.W"][0, 0] = np.nan
        with pytest.raises(DegenerateInput):
            ModelParams(TINY, "full", tensors)

    def test_dropout_range_validated(self):
        with pytest.raises(DegenerateInput):
            ModelConfig(2, 4, 2, 2, 2, 2, 2, dropout_codec=1.0)
