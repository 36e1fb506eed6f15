import hashlib
import json
import shutil
from pathlib import Path

import pytest

from voxalign.cli import main

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

    def test_bad_lambda_exit_2(self, workspace):
        code = main(["backproject", "--ckpt", str(workspace / "run" / "checkpoint"),
                     "--data", str(workspace / "data"), "--lambda", "-1",
                     "--out", str(workspace / "bp_bad"), "--quiet"])
        assert code == 2


def test_gradcheck_exit_zero(capsys):
    assert main(["gradcheck", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
