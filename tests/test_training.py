import json
from dataclasses import replace

import numpy as np
import pytest

import loss_reference as ref
import metrics_reference
import training_reference
from voxalign import cli, training
from voxalign.data import SynthConfig, fuse_targets, save_dataset, split_regions, synth_generate
from voxalign.errors import DegenerateInput, NumericalFailure, RangeError, ShapeMismatch
from voxalign.model import (
    SCORED_OUTPUTS,
    ModelConfig,
    image_branch_forward,
    image_paths,
    init_params,
    text_branch_forward,
)
from voxalign.rng import Rng
from voxalign.training import (
    TrainConfig,
    evaluate,
    layer_range_scan,
    parse_scan_ranges,
    resolve_layer_range,
    run_ablation,
    train,
)

SMALL_SYNTH = dict(
    n_train=48, n_test=16, n_low_voxels=14, n_high_voxels=10,
    k_semantic=4, k_detail=5, text_tokens=4, text_dim=5,
    image_tokens=4, image_dim=6,
)


def small_dataset(seed=0):
    return synth_generate(SynthConfig(seed=seed, **SMALL_SYNTH))


def small_model():
    return ModelConfig(
        n_semantic_voxels=10, n_detail_voxels=24, latent_dim=24,
        text_tokens=4, text_dim=5, image_tokens=4, image_dim=6,
    )


def small_train(**overrides):
    defaults = dict(epochs=3, batch_size=16, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def report_fingerprint(report):
    return json.dumps(report.history, sort_keys=True)


class TestTrainBasics:
    def test_zero_learning_rate_keeps_init_bits(self):
        ds = small_dataset()
        cfg = small_model()
        params, _ = train(ds, cfg, small_train(learning_rate=0.0, epochs=2))
        reference = init_params(cfg, Rng(0, "train").child("init"))
        for name, tensor in params.tensors.items():
            assert tensor.tobytes() == reference.tensors[name].tobytes()

    def test_same_seed_identical_report(self):
        ds = small_dataset()
        cfg = small_model()
        _, a = train(ds, cfg, small_train())
        _, b = train(ds, cfg, small_train())
        assert report_fingerprint(a) == report_fingerprint(b)
        assert a.best_epoch == b.best_epoch

    def test_different_seed_differs(self):
        ds = small_dataset()
        cfg = small_model()
        _, a = train(ds, cfg, small_train())
        _, b = train(ds, cfg, small_train(seed=1))
        assert report_fingerprint(a) != report_fingerprint(b)

    def test_loss_decreases_on_small_run(self):
        ds = small_dataset()
        _, report = train(ds, small_model(), small_train(epochs=12))
        first = report.history[0]["val"]["image_total"]
        assert report.best_val_total < first

    def test_component_sums_match_totals(self):
        ds = small_dataset()
        _, report = train(ds, small_model(), small_train(epochs=2))
        for record in report.history:
            for split in ("train", "val"):
                c = record[split]
                assert c["text_total"] == pytest.approx(
                    c["text_mg"] + c["text_recon"], abs=1e-9
                )
                assert c["text_mg"] == pytest.approx(
                    c["text_cka"] + c["text_sims"], abs=1e-9
                )
                assert c["image_total"] == pytest.approx(
                    c["image_mg"] + c["image_crec"] + c["image_sem_mse"] + c["image_det_mse"],
                    abs=1e-9,
                )

    def test_dimension_mismatch_rejected(self):
        ds = small_dataset()
        bad = ModelConfig(
            n_semantic_voxels=11, n_detail_voxels=24, latent_dim=8,
            text_tokens=4, text_dim=5, image_tokens=4, image_dim=6,
        )
        with pytest.raises(ShapeMismatch):
            train(ds, bad, small_train())

    def test_bad_layer_range_rejected(self):
        ds = small_dataset()
        with pytest.raises(RangeError):
            train(ds, small_model(), small_train(detail_layer_lo=1, detail_layer_hi=99))

    def test_separate_branches_runs_and_is_deterministic(self):
        ds = small_dataset()
        cfg = small_model()
        tc = small_train(separate_branches=True, text_batch_size=24, image_batch_size=12)
        _, a = train(ds, cfg, tc)
        _, b = train(ds, cfg, tc)
        assert report_fingerprint(a) == report_fingerprint(b)


class TestScheduleMatchesReference:
    """One loop over update groups reproduces the two-loop schedule bit for bit."""

    @pytest.mark.parametrize("variant,overrides", [
        ("full", {}),
        ("text_only", {}),
        ("text_detail", dict(separate_branches=True, text_batch_size=16, image_batch_size=20)),
        ("full", dict(separate_branches=True, text_batch_size=20, image_batch_size=12)),
    ])
    def test_parameters_and_history(self, variant, overrides):
        ds, cfg, tc = small_dataset(), small_model(), small_train(**overrides)
        params, report = train(ds, cfg, tc, variant=variant)
        want_params, want_history = training_reference.train(ds, cfg, tc, variant=variant)
        assert params.tensors.keys() == want_params.tensors.keys()
        for name, tensor in want_params.tensors.items():
            assert params.tensors[name].tobytes() == tensor.tobytes(), name
        assert json.dumps(report.history) == json.dumps(want_history)


class TestTracedCalls:
    """Training looks ``adam_step`` and the branch backwards up in its own
    module globals, once per optimiser step and once per branch batch; the
    benchmark's tracer counts steps and backward time there."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"adam_step": 0, "text_branch_backward": 0, "image_branch_backward": 0}
        for name in calls:
            original = getattr(training, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        return calls

    def test_separate_branch_text_detail(self, monkeypatch):
        calls = self._count(monkeypatch)
        tc = small_train(epochs=2, separate_branches=True, text_batch_size=16, image_batch_size=20)
        train(small_dataset(), small_model(), tc, variant="text_detail")
        text_batches, image_batches = 2 * 3, 2 * 3  # 48 samples: 16+16+16 and 20+20+8
        assert calls == {
            "adam_step": text_batches + image_batches,
            "text_branch_backward": text_batches,
            "image_branch_backward": image_batches,
        }

    def test_joint_full(self, monkeypatch):
        calls = self._count(monkeypatch)
        train(small_dataset(), small_model(), small_train(epochs=2), variant="full")
        steps = 2 * 3  # 48 samples in batches of 16
        assert calls == {"adam_step": steps, "text_branch_backward": steps, "image_branch_backward": steps}


class TestAdamFailure:
    """A non-finite gradient stops training naming the epoch, batch and tensor."""

    @staticmethod
    def _poison(monkeypatch, names):
        backward = training.image_branch_backward

        def poisoned(*args, out=None, **kwargs):
            grads = backward(*args, out=out, **kwargs)
            for name in names:
                out[name].flat[-1] = np.nan
            return grads

        monkeypatch.setattr(training, "image_branch_backward", poisoned)

    def test_nan_gradient_names_tensor(self, monkeypatch):
        self._poison(monkeypatch, ["image.decoder_det.W"])
        with pytest.raises(NumericalFailure, match=r"^epoch 1, batch 0: non-finite gradient for tensor 'image.decoder_det.W'$"):
            train(small_dataset(), small_model(), small_train(), variant="text_detail")

    def test_first_failing_tensor_in_buffer_order_is_named(self, monkeypatch):
        # The flat buffer holds image.* before text.*, in sorted-name order.
        self._poison(monkeypatch, ["text.output.W", "image.output.b", "image.backbone1.W"])
        with pytest.raises(NumericalFailure, match=r"tensor 'image.backbone1.W'$"):
            train(small_dataset(), small_model(), small_train(), variant="full")


class TestBatchedLossMatchesReference:
    """One batched loss call per batch equals scoring each sample on its own."""

    @staticmethod
    def _setup(variant, **train_overrides):
        ds = small_dataset()
        cfg = small_train(**train_overrides)
        params = init_params(small_model(), Rng(2, "train").child("init"), variant)
        voxels_sem, voxels_det = split_regions(ds.voxels, ds.mask)
        rows = np.arange(32)
        return ds, cfg, params, voxels_sem[rows], voxels_det[rows], rows

    @staticmethod
    def _same(got, want):
        assert got.keys() == want.keys()
        for key in want:
            assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key

    @pytest.mark.parametrize("overrides", [{}, dict(anchor_mode="target_first_token", weight_cka=0.5, weight_sims=2.0)])
    def test_text_batch(self, overrides):
        ds, cfg, params, vox_sem, vox_det, rows = self._setup("full", **overrides)
        fwd = text_branch_forward(vox_sem, params, rng=Rng(3, "masks"))
        targets = ds.text_targets()[rows]
        means, grads = training._batch_loss("text", (targets,), fwd, (vox_sem, vox_det), cfg, True, "test")
        want_means, (want_pred, want_recon) = ref.text_batch_loss(
            targets, fwd.pred_emb, fwd.recon_sem, vox_sem, cfg
        )
        self._same(means, want_means)
        self._same(grads, {"grad_pred_emb": want_pred, "grad_recon_sem": want_recon})

    @pytest.mark.parametrize("variant", ["full", "text_semantic", "text_detail"])
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(anchor_mode="target_first_token", weight_cka=0.5, weight_sims=2.0, weight_crec=0.3)],
    )
    def test_image_batch(self, variant, overrides):
        ds, cfg, params, vox_sem, vox_det, rows = self._setup(variant, **overrides)
        by_path = ds.image_targets(2, 5, True)
        paths = image_paths(variant)
        targets = (
            fuse_targets(*(by_path[path] for path in paths))[rows],
            by_path["sem"][rows] if "sem" in paths else None,
            by_path["det"][rows] if "det" in paths else None,
        )
        fwd = image_branch_forward(vox_sem, vox_det, params, rng=Rng(4, "masks"))
        means, grads = training._batch_loss("image", targets, fwd, (vox_sem, vox_det), cfg, True, "test")
        args = {name: getattr(fwd, name) for name in SCORED_OUTPUTS["image"]}
        args.update(
            fused_target=targets[0], sem_emb_target=targets[1], det_emb_target=targets[2],
            voxels_sem=vox_sem, voxels_det=vox_det,
        )
        want_means, want_grads = ref.image_batch_loss(args, cfg)
        self._same(means, want_means)
        self._same(grads, want_grads)

    def test_ordered_sum_is_the_loop_order(self):
        values = Rng(5, "sum").normal(64) * 10.0 ** np.arange(-32, 32)
        total = 0.0
        for value in values:
            total += float(value)
        assert training._ordered_sum(values) == total


class TestLayerRange:
    def test_auto_derivation(self):
        ds = small_dataset()
        lo, hi = resolve_layer_range(TrainConfig(), ds.layers)
        assert (lo, hi) == (2, 5)

    def test_explicit_range_validated(self):
        ds = small_dataset()
        assert resolve_layer_range(
            TrainConfig(detail_layer_lo=1, detail_layer_hi=3), ds.layers
        ) == (1, 3)
        with pytest.raises(RangeError):
            resolve_layer_range(
                TrainConfig(detail_layer_lo=3, detail_layer_hi=1), ds.layers
            )

    def test_partial_specification_rejected(self):
        with pytest.raises(DegenerateInput):
            TrainConfig(detail_layer_lo=2)


class TestVariants:
    def test_text_only_has_no_image_tensors_or_metrics(self):
        ds = small_dataset()
        params, report, metrics = run_ablation("text_only", ds, small_model(), small_train())
        assert not any(k.startswith("image.") for k in params.tensors)
        assert metrics["two_way_image"] is None
        assert metrics["pixcorr"] is None
        assert metrics["ssim"] is None
        assert metrics["two_way_text"] is not None
        assert all("image_total" not in rec["val"] for rec in report.history)

    def test_single_path_variants_run(self):
        ds = small_dataset()
        for variant in ("text_semantic", "text_detail"):
            params, report, metrics = run_ablation(variant, ds, small_model(), small_train())
            assert image_paths(variant) == tuple(
                p for p in ("sem", "det") if f"image.encoder_{p}" in str(sorted(params.tensors))
            )
            assert metrics["two_way_image"] is not None
            rec = report.history[-1]["val"]
            assert rec["image_total"] == pytest.approx(
                rec["image_mg"] + rec["image_crec"]
                + rec.get("image_sem_mse", 0.0) + rec.get("image_det_mse", 0.0),
                abs=1e-9,
            )

    def test_full_ablation_equals_plain_train(self):
        ds = small_dataset()
        cfg = small_model()
        params_a, report_a, _ = run_ablation("full", ds, cfg, small_train())
        params_b, report_b = train(ds, cfg, small_train(), variant="full")
        assert report_fingerprint(report_a) == report_fingerprint(report_b)
        for name in params_a.tensors:
            assert params_a.tensors[name].tobytes() == params_b.tensors[name].tobytes()

    def test_full_no_crec_equals_zero_weight_run(self):
        ds = small_dataset()
        cfg = small_model()
        _, report_a, metrics_a = run_ablation("full_no_crec", ds, cfg, small_train())
        params_b, report_b = train(ds, cfg, small_train(weight_crec=0.0), variant="full_no_crec")
        metrics_b = evaluate(params_b, ds, small_train(weight_crec=0.0))
        assert report_fingerprint(report_a) == report_fingerprint(report_b)
        assert metrics_a == metrics_b

    def test_train_zeroes_the_crec_weight_of_full_no_crec(self):
        # A caller of train gets the model run_ablation trains, not one with cross-reconstruction.
        ds = small_dataset()
        cfg = small_model()
        params_a, report_a, _ = run_ablation("full_no_crec", ds, cfg, small_train())
        params_b, report_b = train(ds, cfg, small_train(), variant="full_no_crec")
        assert report_fingerprint(report_a) == report_fingerprint(report_b)
        for name in params_a.tensors:
            assert params_a.tensors[name].tobytes() == params_b.tensors[name].tobytes()
        crec = [record[split]["image_crec"] for record in report_b.history for split in ("train", "val")]
        assert len(crec) == 6 and all(value == 0.0 for value in crec)

    def test_full_no_crec_leaves_decoders_untrained(self):
        ds = small_dataset()
        cfg = small_model()
        params, _, _ = run_ablation("full_no_crec", ds, cfg, small_train())
        reference = init_params(cfg, Rng(0, "train").child("init"), "full_no_crec")
        assert (
            params.tensors["image.decoder_sem.W"].tobytes()
            == reference.tensors["image.decoder_sem.W"].tobytes()
        )
        # the embedding path, by contrast, did move
        assert (
            params.tensors["image.output.W"].tobytes()
            != reference.tensors["image.output.W"].tobytes()
        )


class TestEvaluate:
    def test_untrained_model_near_chance(self):
        ds = synth_generate(SynthConfig(seed=3, **SMALL_SYNTH))
        params = init_params(small_model(), Rng(77, "null").child("init"))
        metrics = evaluate(params, ds, small_train())
        assert 25.0 <= metrics["two_way_image"] <= 75.0  # loose near-chance sanity

    def test_ssim_absent_for_small_embeddings(self):
        # image tokens 4 < 11-tap window, so SSIM does not apply
        ds = small_dataset()
        params = init_params(small_model(), Rng(5, "e").child("init"))
        metrics = evaluate(params, ds, small_train())
        assert metrics["ssim"] is None
        assert metrics["pixcorr"] is not None

    def test_scores_the_test_split_in_one_batched_call_each(self, monkeypatch):
        shape = dict(image_tokens=12, image_dim=16)
        ds = synth_generate(SynthConfig(seed=6, **{**SMALL_SYNTH, **shape}))
        model_cfg = replace(small_model(), **shape)
        params = init_params(model_cfg, Rng(6, "e").child("init"))
        cfg = small_train()
        calls = []
        for name in ("pixcorr_batch", "ssim_batch"):
            batched = getattr(training, name)
            monkeypatch.setattr(
                training, name, lambda *args, _f=batched, _n=name: calls.append(_n) or _f(*args)
            )
        for name in ("pixcorr", "ssim"):
            monkeypatch.setattr(training, name, None)
        metrics = evaluate(params, ds, cfg)
        assert sorted(calls) == ["pixcorr_batch", "ssim_batch"]
        te = ds.test_slice
        lo, hi = resolve_layer_range(cfg, ds.layers)
        target = fuse_targets(*ds.image_targets(lo, hi, True).values())[te]
        voxels_sem, voxels_det = split_regions(ds.voxels, ds.mask)
        pred = image_branch_forward(voxels_sem[te], voxels_det[te], params).pred_fused_emb
        assert metrics["pixcorr"] == metrics_reference.evaluate_pixcorr(pred, target)
        assert metrics["ssim"] == pytest.approx(metrics_reference.evaluate_ssim(pred, target), abs=1e-12)


class TestLayerScan:
    def test_parse_ranges(self):
        assert parse_scan_ranges("2-5,2-5+final,1-4") == [
            (2, 5, False),
            (2, 5, True),
            (1, 4, False),
        ]

    def test_parse_rejects_garbage(self):
        from voxalign.errors import UsageError

        with pytest.raises(UsageError):
            parse_scan_ranges("nope")
        with pytest.raises(UsageError):
            parse_scan_ranges("")

    def test_scan_rows_sorted_and_labeled(self):
        ds = small_dataset()
        rows = layer_range_scan(
            ds, [(2, 4, True), (2, 4, False)], small_model(), small_train(epochs=2)
        )
        labels = {label for label, _ in rows}
        assert labels == {"2-4+final", "2-4"}
        values = [v for _, v in rows]
        assert values == sorted(values, reverse=True)


class TestReports:
    """The reports the CLI writes for a training run."""

    def test_loss_history_csv_format(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, tmp_path / "data")
        (tmp_path / "train.cfg").write_text("epochs=2\nbatch_size=16\nlatent_dim=24\n")
        assert cli.main(["train", "--config", str(tmp_path / "train.cfg"), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "run"), "--quiet"]) == 0
        text = (tmp_path / "run" / "loss_history.csv").read_text()
        _, report = train(ds, small_model(), small_train(epochs=2))
        expected = ["epoch,split,component,value"] + [
            f"{record['epoch']},{split},{component},{format(value, '.9g')}"
            for record in report.history
            for split in ("train", "val")
            for component, value in sorted(record[split].items())
        ]
        assert text == "\n".join(expected) + "\n"
        lines = text.splitlines()
        assert all(len(l.split(",")) == 4 for l in lines[1:])
        epochs = {l.split(",")[0] for l in lines[1:]}
        assert epochs == {"1", "2"}

    def test_metrics_report_schema(self, tmp_path):
        path = tmp_path / "metrics.json"
        cli._write_metrics(path, "full", 3, {"two_way_text": 51.0}, "loss.csv")
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert set(payload) == {
            "variant", "seed", "pixcorr", "ssim",
            "two_way_image", "two_way_text", "loss_history_file",
        }
        assert payload["pixcorr"] is None
        assert payload["variant"] == "full"
        assert payload["loss_history_file"] == "loss.csv"
