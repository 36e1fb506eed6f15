"""Tests of the benchmark itself: every workload runs at a tiny size, and
every output check rejects a corrupted output.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from voxalign import cli  # noqa: E402
from voxalign.lasso import lasso_fit  # noqa: E402

SEED = 3


def tiny(workload):
    return dataclasses.replace(
        workload,
        synth={**workload.synth, "n_train": 64, "n_test": 32, "n_low_voxels": 20, "n_high_voxels": 15},
        train={**workload.train, "latent_dim": 16, "epochs": 3},
    )


def run_tiny(workload, work, tracer=None):
    runner = workloads.Runner(cli.main, tracer)
    data_dir, _, _ = workloads.set_up(runner, workload, SEED, work, 0)
    data = checks.check_dataset(data_dir, workload.synth)
    setup_spans = len(tracer.names) if tracer else 0
    workloads.run_round(runner, workload, SEED, data_dir, data, work / "round", lasso_fit)
    return runner, data, setup_spans


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name])
    tracer = Tracer()
    tracer.install()
    try:
        runner, _, setup_spans = run_tiny(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert runner.errors == []
    assert runner.failed == (1 if workload.round_trip else 0)
    assert runner.attempted == 14 + workload.round_trip
    layers = run.per_layer(run.layer_values(tracer, setup_spans, 1))
    assert set(layers) == set(run.metric_units("per_layer"))
    for key in ("losses.calls", "optim.adam_calls", "lasso.fit_calls", "linalg.rank_calls",
                "verification.fd_evals", "matio.files_written", "rng.streams", "training.steps"):
        assert layers[key]["value"] > 0, key
    assert layers["training.samples"]["value"] >= workload.samples_per_train
    assert 50.0 < layers["training.coverage_pct"]["value"] <= 100.0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny train-desk round whose outputs the corruption tests alter."""
    work = tmp_path_factory.mktemp("outputs")
    workload = tiny(workloads.WORKLOADS["train-desk"])
    runner, data, _ = run_tiny(workload, work)
    assert runner.errors == []
    return work / "round", data, workload


@pytest.fixture
def copy(outputs, tmp_path):
    round_dir, data, workload = outputs

    def _copy(name):
        target = tmp_path / name
        shutil.copytree(round_dir / name, target)
        return target

    return _copy, round_dir, data, workload


def _rewrite_csv_value(path, row_index, column, transform):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[1 + row_index].split(",")
    position = header.index(column)
    fields[position] = repr(transform(float(fields[position])))
    lines[1 + row_index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_checks_accept_the_untouched_outputs(copy):
    _copy, round_dir, data, workload = copy
    checks.check_train(round_dir / "train", data)
    checks.check_eval(round_dir / "eval-0", round_dir / "train", data)
    checks.check_backproject(round_dir / "backproject", round_dir / "train" / "checkpoint", data,
                             workload.lam, lasso_fit)
    checks.check_rsa_raw(round_dir / "rsa-raw", data)
    checks.check_rsa_ridge(round_dir / "rsa-ridge-0", data)
    checks.check_heatmap(round_dir / "heatmap-0", data)


def test_perturbed_rsa_row_is_rejected(copy):
    _copy, _, data, _ = copy
    out = _copy("rsa-raw")
    _rewrite_csv_value(out / "rsa.csv", 2, "similarity", lambda v: v + 1e-6)
    with pytest.raises(checks.CheckFailed, match="spearmanr"):
        checks.check_rsa_raw(out, data)


def test_perturbed_ridge_rsa_row_is_rejected(copy):
    _copy, _, data, _ = copy
    out = _copy("rsa-ridge-0")
    _rewrite_csv_value(out / "rsa.csv", 7, "similarity", lambda v: v * 0.999)
    with pytest.raises(checks.CheckFailed, match="refit"):
        checks.check_rsa_ridge(out, data)


def test_swapped_heatmap_entries_are_rejected(copy):
    _copy, _, data, _ = copy
    out = _copy("heatmap-0")
    path = out / "cka_heatmap.csv"
    lines = path.read_text().splitlines()
    n = 6
    a, b = 1 + 0 * n + 1, 1 + 0 * n + 5  # entries (0, 1) and (0, 5)
    value_a, value_b = lines[a].rsplit(",", 1)[1], lines[b].rsplit(",", 1)[1]
    lines[a] = lines[a].rsplit(",", 1)[0] + "," + value_b
    lines[b] = lines[b].rsplit(",", 1)[0] + "," + value_a
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        checks.check_heatmap(out, data)
    # Swapping both triangles keeps symmetry; the explicit formula still sees it.
    for i, j, value in ((1, 0, value_b), (5, 0, value_a)):
        row = 1 + i * n + j
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="KHLH"):
        checks.check_heatmap(out, data)


def test_swapped_backprojection_means_are_rejected(copy):
    _copy, round_dir, data, workload = copy
    out = _copy("backproject")
    path = out / "backproject_text_semantic.csv"
    lines = path.read_text().splitlines()
    low, high = lines[1].split(",")[1], lines[2].split(",")[1]
    path.write_text(f"{lines[0]}\nlow_level,{high}\nhigh_level,{low}\n")
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_backproject(out, round_dir / "train" / "checkpoint", data, workload.lam, lasso_fit)


def test_loose_lasso_solution_fails_kkt(copy):
    _, round_dir, data, workload = copy

    def shrunk_fit(x, y, lam):
        result = lasso_fit(x, y, lam)
        return dataclasses.replace(result, beta_std=result.beta_std * 0.9)

    with pytest.raises(checks.CheckFailed, match="KKT"):
        checks.check_backproject(round_dir / "backproject", round_dir / "train" / "checkpoint", data,
                                 workload.lam, shrunk_fit)


def test_wrong_identification_is_rejected(copy):
    _copy, _, data, _ = copy
    out = _copy("train")
    metrics = json.loads((out / "metrics.json").read_text())
    metrics["two_way_image"] += 1e-6
    (out / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckFailed, match="two_way_image"):
        checks.check_train(out, data)


def test_non_finite_loss_history_is_rejected(copy):
    _copy, _, data, _ = copy
    out = _copy("train")
    _rewrite_csv_value(out / "loss_history.csv", 3, "value", lambda v: float("nan"))
    with pytest.raises(checks.CheckFailed, match="finite"):
        checks.check_train(out, data)


def test_eval_that_disagrees_with_train_is_rejected(copy):
    _copy, round_dir, data, _ = copy
    out = _copy("eval-0")
    metrics = json.loads((out / "metrics.json").read_text())
    metrics["two_way_text"] += 1.0
    (out / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckFailed, match="two_way_text"):
        checks.check_eval(out, round_dir / "train", data)


def test_failing_gradcheck_line_is_rejected():
    lines = [f"PASS check{i}: max_rel_err=1e-09 threshold=1e-06" for i in range(12)]
    checks.check_gradcheck("\n".join(lines + ["PASS last: max_rel_err=1e-09 threshold=1e-06"]))
    with pytest.raises(checks.CheckFailed, match="FAIL"):
        checks.check_gradcheck("\n".join(lines + ["FAIL last: max_rel_err=1e-03 threshold=1e-06"]))


def test_run_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE.parent, bench, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
