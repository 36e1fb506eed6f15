import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from voxalign.alignment import layer_cka_heatmap
from voxalign.cli import _write_table, main
from voxalign.data import load_dataset
from voxalign.matio import load_matrix, save_matrix

SMALL_GEN = """
n_train=48
n_test=16
n_low_voxels=14
n_high_voxels=10
k_semantic=4
k_detail=5
text_tokens=4
text_dim=5
image_tokens=4
image_dim=6
"""

SMALL_TRAIN = """
epochs=3
batch_size=16
latent_dim=24
"""


def tree_digest(root: Path) -> str:
    """Content hash of every file under a directory, path-ordered."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.cfg").write_text(SMALL_GEN)
    (root / "train.cfg").write_text(SMALL_TRAIN)
    assert main(["gen-data", "--config", str(root / "gen.cfg"),
                 "--out", str(root / "data"), "--quiet"]) == 0
    assert main(["train", "--config", str(root / "train.cfg"),
                 "--data", str(root / "data"), "--out", str(root / "run"),
                 "--quiet"]) == 0
    return root


class TestGenData:
    def test_byte_identical_trees(self, workspace):
        out2 = workspace / "data2"
        assert main(["gen-data", "--config", str(workspace / "gen.cfg"),
                     "--out", str(out2), "--quiet"]) == 0
        assert tree_digest(workspace / "data") == tree_digest(out2)

    def test_defaults_recorded_in_resolved_config(self, workspace):
        resolved = (workspace / "data" / "resolved.cfg").read_text()
        assert "noise_layer=0.1" in resolved  # default, not in the file
        assert "n_train=48" in resolved

    def test_invalid_alpha_schedule_exit_2(self, workspace, capsys):
        cfg = workspace / "bad.cfg"
        cfg.write_text("n_layers=3\nalpha_schedule=0.1,0.5,0.0\n")
        code = main(["gen-data", "--config", str(cfg),
                     "--out", str(workspace / "bad_out"), "--quiet"])
        assert code == 2
        assert "alpha_schedule" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, workspace, capsys):
        cfg = workspace / "typo.cfg"
        cfg.write_text("n_trian=10\n")
        code = main(["gen-data", "--config", str(cfg),
                     "--out", str(workspace / "typo_out"), "--quiet"])
        assert code == 2
        assert "n_trian" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("noise_voxel_low=nan", "noise_voxel_low"),
        ("noise_layer=inf", "noise_layer"),
        ("n_layers=3\nalpha_schedule=0.5,-inf,0.0", "alpha_schedule"),
    ])
    def test_non_finite_value_exit_2(self, workspace, tmp_path, capsys, line, key):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(SMALL_GEN + line + "\n")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert f"error: config key '{key}': expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage,detail", [
        ("not_utf8", "not UTF-8 text"),
        ("directory", "cannot read (Is a directory)"),
    ])
    def test_unreadable_config_file_named_exit_2(self, tmp_path, capsys, damage, detail):
        cfg = tmp_path / "gen.cfg"
        if damage == "not_utf8":
            cfg.write_bytes(b"\xff\xfe" + SMALL_GEN.encode())
        else:
            cfg.mkdir()
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert f"error: {cfg}: {detail}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonempty_out_requires_force(self, workspace):
        code = main(["gen-data", "--config", str(workspace / "gen.cfg"),
                     "--out", str(workspace / "data"), "--quiet"])
        assert code == 2
        code = main(["gen-data", "--config", str(workspace / "gen.cfg"),
                     "--out", str(workspace / "data"), "--quiet", "--force"])
        assert code == 0


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint" / "manifest.txt").exists()
        assert (run / "checkpoint" / "targets.cfg").exists()
        assert (run / "metrics.json").exists()
        assert (run / "loss_history.csv").exists()
        assert (run / "resolved.cfg").exists()

    def test_rerun_identical(self, workspace):
        out2 = workspace / "run2"
        assert main(["train", "--config", str(workspace / "train.cfg"),
                     "--data", str(workspace / "data"), "--out", str(out2),
                     "--quiet"]) == 0
        assert tree_digest(workspace / "run") == tree_digest(out2)

    def test_metrics_schema(self, workspace):
        payload = json.loads((workspace / "run" / "metrics.json").read_text())
        assert payload["variant"] == "full"
        assert payload["loss_history_file"] == "loss_history.csv"
        assert isinstance(payload["two_way_image"], float)

    def test_text_only_variant_checkpoint(self, workspace):
        out = workspace / "run_text"
        assert main(["train", "--config", str(workspace / "train.cfg"),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--variant", "text_only", "--quiet"]) == 0
        manifest = (out / "checkpoint" / "manifest.txt").read_text()
        assert "image." not in manifest
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["two_way_image"] is None

    def test_dims_mismatch_exit_2(self, workspace, tmp_path):
        other = tmp_path / "other_data"
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(SMALL_GEN.replace("n_high_voxels=10", "n_high_voxels=11"))
        assert main(["gen-data", "--config", str(cfg), "--out", str(other), "--quiet"]) == 0
        ckpt = workspace / "run" / "checkpoint"
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(other),
                     "--out", str(tmp_path / "eval_out"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("extra,message", [
        # the forward output overflows first
        ("learning_rate=1e200\n", r"epoch \d+, batch \d+: pred_emb has non-finite entries"),
        ("learning_rate=1e200\nseparate_branches=true\n",
         r"epoch \d+, text loop batch \d+: pred_emb has non-finite entries"),
        # the CKA term overflows on finite predictions before any forward output does
        ("learning_rate=1e30\n",
         r"epoch \d+, batch \d+: sample \d+: CKA term overflows on finite inputs"),
        # finite gradients whose squares overflow Adam's second moment
        ("weight_crec=1e306\n",
         r"epoch \d+, batch \d+: second moment of the gradient overflows for tensor '[\w.]+'"),
    ])
    def test_numerical_blow_up_exit_3(self, workspace, tmp_path, capsys, extra, message):
        cfg = tmp_path / "blow_up.cfg"
        cfg.write_text(SMALL_TRAIN + extra)
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                         "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 3
        assert re.search("numerical failure: " + message, capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_loss_overflow_prints_no_warning(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "blow_up.cfg"
        cfg.write_text(SMALL_TRAIN + "learning_rate=1e30\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                         "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert "CKA term" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("learning_rate=nan", "config key 'learning_rate': expected a finite number, got 'nan'"),
        ("weight_cka=-inf", "config key 'weight_cka': expected a finite number, got '-inf'"),
        ("text_batch_size=-5", "text_batch_size must be >= 1, got -5"),
        ("image_batch_size=0", "image_batch_size must be >= 1, got 0"),
        ("beta1=1.0", "beta1 must lie in [0, 1), got 1.0"),
        ("beta2=-0.1", "beta2 must lie in [0, 1), got -0.1"),
        ("epsilon=0", "epsilon must be > 0, got 0.0"),
        ("weight_cka=-3", "weight_cka must be >= 0, got -3.0"),
        ("weight_crec=-1", "weight_crec must be >= 0, got -1.0"),
        ("dropout_codec=1.0", "dropout_codec must lie in [0, 1), got 1.0"),
        ("latent_dim=0", "latent_dim must be >= 1, got 0"),
    ])
    def test_out_of_domain_setting_named_exit_2(self, workspace, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        key = line.split("=")[0]  # the case's line replaces a SMALL_TRAIN line of the same key
        kept = [l for l in SMALL_TRAIN.splitlines() if not l.startswith(f"{key}=")]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        code = main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def _load_fails(self, workspace, data, tmp_path, capsys, message):
        """``train`` and ``analyze --mode cka-heatmap`` on `data` each exit 2 with `message`."""
        for command in (["train", "--config", str(workspace / "train.cfg")], ["analyze", "--mode", "cka-heatmap"]):
            code = main(command + ["--data", str(data), "--out", str(tmp_path / "run"), "--quiet"])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage,named", [
        ("truncate", "layers/layer_2.mat1"),
        ("truncate", "captions/3/0.mat1"),
        ("delete", "voxels.mat1"),
        ("delete", "mask.txt"),
        ("bad_label", "mask.txt"),
        ("not_utf8", "mask.txt"),
        ("row_short", "layers/layer_1.mat1"),
        ("column_short", "layers/layer_1.mat1"),
    ])
    def test_bad_dataset_file_named_exit_2(self, workspace, tmp_path, capsys, damage, named):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / named
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:100])
        elif damage == "delete":
            path.unlink()
        elif damage == "bad_label":
            path.write_text(path.read_text() + "cortex\n")
        elif damage == "not_utf8":
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        else:  # every layer file one row or one column short
            for layer in (data / "layers").iterdir():
                m = load_matrix(layer)
                save_matrix(m[:-1] if damage == "row_short" else m[:, :-1], layer)
        self._load_fails(workspace, data, tmp_path, capsys, f"error: {path}: ")

    @pytest.mark.parametrize("damage,named,detail", [
        ("not_utf8", "meta.txt", "not UTF-8 text"),
        ("no_image_dim", "meta.txt", "missing key 'image_dim'"),
        ("bad_n_train", "meta.txt", "n_train='x' is not an integer"),
        ("dup_n_train", "meta.txt", "line {last}: duplicate key 'n_train'"),
        ("no_equals", "meta.txt", "line {last}: expected key=value, got 'garbage line'"),
        ("extra_caption", "captions/3/extra.mat1", "expected a file named <number>.mat1"),
        ("n_test=17", "meta.txt", "n_train + n_test = 48 + 17, but {data}/voxels.mat1 has 64 rows"),
        ("image_dim=5", "layers/layer_1.mat1",
         "shape (64, 24), expected (64, 20) (stimuli x image_tokens * image_dim of {data}/meta.txt)"),
        ("text_dim=6", "captions/0/0.mat1",
         "shape (4, 5), expected (4, 6) (text_tokens x text_dim of {data}/meta.txt)"),
        ("one_caption_4x4", "captions/3/3.mat1", "shape (4, 4), expected (4, 5)"),
        ("stimulus_captions_4x4", "captions/3/0.mat1", "shape (4, 4), expected (4, 5)"),
        ("every_caption_4x4", "captions/0/0.mat1", "shape (4, 4), expected (4, 5)"),
    ])
    def test_malformed_meta_or_caption_named_exit_2(self, workspace, tmp_path, capsys, damage, named, detail):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        path = data / named
        if damage == "not_utf8":
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        elif damage == "no_image_dim":
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(l for l in lines if not l.startswith("image_dim=")))
        elif damage == "bad_n_train":
            path.write_text(re.sub(r"(?m)^n_train=.*$", "n_train=x", path.read_text()))
        elif damage in ("dup_n_train", "no_equals"):
            path.write_text(path.read_text() + ("n_train=7\n" if damage == "dup_n_train" else "garbage line\n"))
            detail = detail.format(last=len(path.read_text().splitlines()))
        elif damage == "extra_caption":
            shutil.copy(data / "captions" / "3" / "0.mat1", path)
        elif "=" in damage:  # one meta.txt value changed; the file it no longer fits is named
            key, meta = damage.split("=")[0], data / "meta.txt"
            meta.write_text(re.sub(rf"(?m)^{key}=.*$", damage, meta.read_text()))
            detail = detail.format(data=data)
        else:  # captions rewritten as valid MAT1 files of another shape
            captions = {"one_caption_4x4": [path], "stimulus_captions_4x4": (data / "captions" / "3").iterdir(),
                        "every_caption_4x4": (data / "captions").rglob("*.mat1")}[damage]
            for caption in list(captions):
                save_matrix(np.ones((4, 4)), caption)
        self._load_fails(workspace, data, tmp_path, capsys, f"error: {path}: {detail}")


class TestEval:
    def test_eval_writes_metrics(self, workspace):
        out = workspace / "eval_out"
        assert main(["eval", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--quiet"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["loss_history_file"] is None
        assert payload["two_way_image"] is not None

    def test_eval_rerun_identical(self, workspace):
        out2 = workspace / "eval_out2"
        assert main(["eval", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--out", str(out2),
                     "--quiet"]) == 0
        a = json.loads((workspace / "eval_out" / "metrics.json").read_text())
        b = json.loads((out2 / "metrics.json").read_text())
        assert a == b

    @pytest.mark.parametrize("similarity", ["pearson", "cosine"])
    def test_eval_reproduces_train_metrics(self, workspace, tmp_path, similarity):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(SMALL_TRAIN + f"eval_similarity={similarity}\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                     "--out", str(run), "--quiet"]) == 0
        assert main(["eval", "--ckpt", str(run / "checkpoint"), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "eval"), "--quiet"]) == 0
        trained = json.loads((run / "metrics.json").read_text())
        evaluated = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        for key in ("two_way_image", "two_way_text", "pixcorr", "ssim"):
            assert evaluated[key] == trained[key], key

    def test_eval_reproduces_train_ssim(self, tmp_path):
        # 13x11 images, not the default shape, are large enough for the
        # 11x11 SSIM window, so ssim is scored on both sides.
        gen = tmp_path / "gen.cfg"
        gen.write_text(SMALL_GEN.replace("image_tokens=4\nimage_dim=6", "image_tokens=13\nimage_dim=11"))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(SMALL_TRAIN)
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--config", str(gen), "--out", str(data), "--quiet"]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run), "--quiet"]) == 0
        assert main(["eval", "--ckpt", str(run / "checkpoint"), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--quiet"]) == 0
        trained = json.loads((run / "metrics.json").read_text())
        evaluated = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert trained["ssim"] is not None
        for key in ("two_way_image", "two_way_text", "pixcorr", "ssim"):
            assert evaluated[key] == trained[key], key

    def test_manifest_file_outside_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        (ckpt / "text.encoder.b.mat1").rename(tmp_path / "outside.mat1")
        manifest = ckpt / "manifest.txt"
        line = "text.encoder.b=../outside.mat1 1 24"
        text = manifest.read_text().replace("text.encoder.b=text.encoder.b.mat1 1 24", line)
        assert line in text
        manifest.write_text(text)
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "ev"), "--quiet"])
        assert code == 2
        assert line in capsys.readouterr().err

    @pytest.mark.parametrize("line,detail", [
        ("image.backbone1.W=image.backbone2.W.mat1 24 24",
         "manifest line 'image.backbone1.W=image.backbone2.W.mat1 24 24' repeats tensor 'image.backbone1.W'"),
        ("garbage", "malformed manifest line 'garbage'"),
        ("extra.W=. 1 1", "manifest line 'extra.W=. 1 1' does not name a file in"),
        ("extra.W=a\x00b 1 1", "malformed manifest line 'extra.W=a\\x00b 1 1'"),
    ])
    def test_bad_manifest_line_named_exit_2(self, workspace, tmp_path, capsys, line, detail):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        manifest = ckpt / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "ev"), "--quiet"])
        assert code == 2
        assert f"error: {manifest}: {detail}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_missing_tensor_file_named_exit_2(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        (ckpt / "text.encoder.W.mat1").unlink()
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "ev"), "--quiet"])
        assert code == 2
        assert f"error: {ckpt / 'text.encoder.W.mat1'}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("name,line,bad,message", [
        ("model.cfg", "dropout_codec=0.15", "dropout_codec=nan",
         "config key 'dropout_codec': expected a finite number, got 'nan'"),
        ("model.cfg", "latent_dim=24", "latent_dim=0", "latent_dim must be >= 1, got 0"),
        ("targets.cfg", "eval_similarity=pearson", "eval_similarity=spearman",
         "eval_similarity must be one of ('pearson', 'cosine'), got 'spearman'"),
    ])
    def test_bad_checkpoint_setting_named_exit_2(self, workspace, tmp_path, capsys, name, line, bad, message):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        path = ckpt / name
        text = path.read_text()
        assert line in text.splitlines()
        path.write_text(text.replace(line, bad))
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "ev"), "--quiet"])
        assert code == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_non_utf8_manifest_named_exit_2(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace / "run" / "checkpoint", ckpt)
        manifest = ckpt / "manifest.txt"
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "ev"), "--quiet"])
        assert code == 2
        assert f"error: {manifest}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, workspace):
        code = main(["eval", "--ckpt", str(workspace / "nonexistent"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "ev_missing"), "--quiet"])
        assert code == 2


class TestAnalyze:
    def test_cka_heatmap_unit_diagonal(self, workspace):
        out = workspace / "heatmap"
        assert main(["analyze", "--mode", "cka-heatmap",
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "cka_heatmap.csv").read_text().splitlines()
        assert lines[0] == "i,j,value"
        diag = [l for l in lines[1:] if l.split(",")[0] == l.split(",")[1]]
        assert all(l.split(",")[2] == "1" for l in diag)
        heatmap = layer_cka_heatmap(load_dataset(workspace / "data").layers)
        n = heatmap.shape[0]
        assert lines[1:] == [f"{i},{j},{format(float(heatmap[i, j]), '.9g')}" for i in range(n) for j in range(n)]

    def test_rsa_table(self, workspace):
        out = workspace / "rsa"
        assert main(["analyze", "--mode", "rsa",
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "rsa.csv").read_text().splitlines()
        assert lines[0] == "region,layer,similarity"
        regions = {l.split(",")[0] for l in lines[1:]}
        assert regions == {"low_level", "high_level"}
        # 2 regions x 6 layers
        assert len(lines) == 1 + 12
        # planted hierarchy: the low-level curve peaks strictly before the
        # high-level curve, which peaks on the final layer
        curves = {"low_level": {}, "high_level": {}}
        for line in lines[1:]:
            region, layer, value = line.split(",")
            curves[region][int(layer)] = float(value)
        low_peak = max(curves["low_level"], key=curves["low_level"].get)
        high_peak = max(curves["high_level"], key=curves["high_level"].get)
        assert low_peak < high_peak
        assert high_peak == 6

    def test_layer_scan_table(self, workspace):
        out = workspace / "scan"
        cfg = workspace / "scan.cfg"
        cfg.write_text(SMALL_TRAIN + "scan_ranges=2-4,2-4+final\nscan_epochs=2\n")
        assert main(["analyze", "--mode", "layer-scan", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "layer_scan.csv").read_text().splitlines()
        assert lines[0] == "range,two_way_image"
        assert len(lines) == 3

    @pytest.mark.parametrize("lines,message", [
        ("rsa_mode=ridge\nridge_lambda=-1", "ridge_lambda must be >= 0, got -1.0"),
        ("rsa_mode=ridge\nridge_lambda=nan", "config key 'ridge_lambda': expected a finite number"),
        ("rsa_mode=ridge\nridge_lambda=inf", "config key 'ridge_lambda': expected a finite number"),
        ("rsa_mode=lasso", "rsa_mode must be one of ('raw', 'ridge'), got 'lasso'"),
        ("scan_epochs=0", "scan_epochs must be >= 1, got 0"),
    ])
    def test_bad_rsa_setting_named_exit_2(self, workspace, tmp_path, capsys, lines, message):
        cfg = tmp_path / "rsa.cfg"
        cfg.write_text(lines + "\n")
        code = main(["analyze", "--mode", "rsa", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_force_run_keeps_old_output(self, workspace, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier output\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scan_ranges=garbage\n")
        code = main(["analyze", "--mode", "layer-scan", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(out), "--force", "--quiet"])
        assert code == 2
        assert (out / "keep.txt").read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "out"]
        # a successful --force run replaces the old output
        assert main(["analyze", "--mode", "cka-heatmap", "--data", str(workspace / "data"),
                     "--out", str(out), "--force", "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["cka_heatmap.csv", "resolved.cfg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "out"]


class TestBackproject:
    def test_region_rows(self, workspace):
        out = workspace / "bp"
        assert main(["backproject", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--lambda", "0.05",
                     "--out", str(out), "--quiet"]) == 0
        for name in ("image_detail", "image_semantic", "text_semantic"):
            lines = (out / f"backproject_{name}.csv").read_text().splitlines()
            assert lines[0] == "region,mean_abs_beta"
            assert len(lines) == 3
            assert lines[1].startswith("low_level,")
            assert lines[2].startswith("high_level,")

    def test_constant_voxel_column_exit_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        voxels = load_matrix(data / "voxels.mat1")
        voxels[:, 5] = 0.7
        save_matrix(voxels, data / "voxels.mat1")
        code = main(["backproject", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(data), "--out", str(tmp_path / "bp"), "--quiet"])
        assert code == 2
        assert "predictor column 5 is constant" in capsys.readouterr().err
        assert not (tmp_path / "bp").exists()

    def test_bad_lambda_exit_2(self, workspace):
        code = main(["backproject", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--lambda", "-1",
                     "--out", str(workspace / "bp_bad"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_out_of_domain_lambda_named_exit_2(self, workspace, tmp_path, capsys, value):
        code = main(["backproject", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--lambda", value,
                     "--out", str(tmp_path / "bp"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lambda") and err.endswith(f", got {float(value)!r}\n")
        assert not (tmp_path / "bp").exists()


def test_write_table_formats_floats_to_nine_digits(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(7, "low_level", 0.123456789123, np.float64(0.123456789123)), (10**12, "x", 1e-20, np.float64(2.0))]
    _write_table(path, "a,b,c,d", rows)
    assert path.read_bytes() == b"a,b,c,d\n7,low_level,0.123456789,0.123456789\n1000000000000,x,1e-20,2\n"


def test_gradcheck_exit_zero(capsys):
    assert main(["gradcheck", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


_RUN_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from voxalign.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv + ["--quiet"]) == 0, argv
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: all six commands, ridge RSA included."""
    (tmp_path / "gen.cfg").write_text(SMALL_GEN)
    (tmp_path / "train.cfg").write_text(SMALL_TRAIN.replace("epochs=3", "epochs=1"))
    (tmp_path / "scan.cfg").write_text("scan_ranges=2-4\nscan_epochs=1\nlatent_dim=8\n")
    for mode in ("raw", "ridge"):
        (tmp_path / f"{mode}.cfg").write_text(f"rsa_mode={mode}\n")
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "run" / "checkpoint")
    commands = [
        ["gen-data", "--config", str(tmp_path / "gen.cfg"), "--out", data],
        ["train", "--config", str(tmp_path / "train.cfg"), "--data", data, "--out", str(tmp_path / "run")],
        ["eval", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "eval")],
        ["backproject", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "bp")],
        *(["analyze", "--mode", "rsa", "--config", str(tmp_path / f"{mode}.cfg"), "--data", data,
           "--out", str(tmp_path / f"rsa-{mode}")] for mode in ("raw", "ridge")),
        ["analyze", "--mode", "cka-heatmap", "--data", data, "--out", str(tmp_path / "cka")],
        ["analyze", "--mode", "layer-scan", "--config", str(tmp_path / "scan.cfg"), "--data", data,
         "--out", str(tmp_path / "scan")],
        ["gradcheck"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
