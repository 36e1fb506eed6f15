"""The benchmark's workloads and the operations of one round.

Every workload runs the whole six-subcommand CLI in process through
``voxalign.cli.main(argv)``: ``gen-data`` in set-up, then rounds of
``train``, ``eval``, ``backproject``, ``analyze`` (raw RSA, ridge RSA, CKA
heatmap) and ``gradcheck``. Each workload reports every end-to-end metric,
so each runs every command; the workloads differ in their inputs, which
moves the cost between layers (see README.md). An operation is one CLI
command together with the check on its output.
"""

from __future__ import annotations

import contextlib
import io
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from voxalign import data as voxalign_data


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict          # gen-data config
    variant: str
    train: dict          # train config, model width included
    lam: float           # backproject --lambda
    round_trip: bool = False

    @property
    def samples_per_train(self) -> int:
        return self.synth["n_train"] * self.train["epochs"]


def _voxels(n_low, n_high, noise):
    return {"n_low_voxels": n_low, "n_high_voxels": n_high,
            "noise_voxel_low": noise, "noise_voxel_high": noise}


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's full model at desk shape: per-sample losses dominate
        # training and the lasso's sweep loops dominate back-projection.
        Workload(
            name="train-desk",
            synth={"n_train": 256, "n_test": 128, **_voxels(40, 30, 0.5)},
            variant="full",
            train={"latent_dim": 128, "epochs": 24},
            lam=0.01,
        ),
        # A wide single-path model trained branch by branch: Adam and the
        # MLP matmuls dominate training; back-projection fits 2 x 1024 short
        # lassos, so per-fit set-up dominates there, not the sweep loop.
        Workload(
            name="train-wide",
            synth={"n_train": 256, "n_test": 128, **_voxels(80, 60, 0.1)},
            variant="text_detail",
            train={"latent_dim": 1024, "epochs": 3, "separate_branches": "true",
                   "text_batch_size": 16, "image_batch_size": 48, "eval_similarity": "cosine"},
            lam=0.1,
            round_trip=True,
        ),
    )
}

# The cosine round trip runs on fixed inputs, independent of the seed.
ROUND_TRIP_SYNTH = {"n_train": 48, "n_test": 16, **_voxels(20, 15, 0.1)}
ROUND_TRIP_TRAIN = {"latent_dim": 16, "epochs": 2, "separate_branches": "true",
                    "text_batch_size": 8, "image_batch_size": 16, "eval_similarity": "cosine"}


def write_cfg(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


class Runner:
    """Runs CLI commands in process and keeps the tally of operations."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []     # failed checks: the run is not correct
        self.failures = []   # commands that exited non-zero: counted as failed
        self.times = {}
        self.quality = {}

    def command(self, argv):
        """Run one CLI command; returns (exit code, wall seconds, stdout)."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            code = self.cli_main([str(a) for a in argv])
            elapsed = time.perf_counter() - start
        return code, elapsed, captured.getvalue()

    def check(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        with self.tracer.pause():
            return fn(*args)

    def operation(self, metric, argv, check=None):
        """One timed command plus its check; a failed check marks the run incorrect."""
        self.attempted += 1
        code, elapsed, stdout = self.command(argv)
        if code != 0:
            self.failed += 1
            self.failures.append(f"{argv[0]} exited with {code}")
            return
        self.times.setdefault(metric, []).append(elapsed)
        if check is not None:
            try:
                self.check(check, stdout)
            except Exception as exc:  # a missing or malformed output fails the check too
                self.errors.append(f"{metric}: {type(exc).__name__}: {exc}")


def user_cpu_s() -> float:
    """User-mode CPU seconds this process has used."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def set_up(runner, workload, seed, work: Path, index: int):
    """gen-data into a fresh directory and reload it.

    Returns (dir, wall seconds, user-mode CPU seconds of this process).
    """
    out = work / f"setup-{index}"
    out.mkdir(parents=True)
    cfg = write_cfg(out / "synth.cfg", workload.synth)
    start, user = time.perf_counter(), user_cpu_s()
    code, _, _ = runner.command(["gen-data", "--config", cfg, "--out", out / "data", "--seed", seed, "--quiet"])
    if code != 0:
        raise RuntimeError(f"gen-data exited with {code}")
    voxalign_data.load_dataset(out / "data")  # looked up at call time, so a traced run sees it
    return out / "data", time.perf_counter() - start, user_cpu_s() - user


def run_round(runner, workload, seed, data_dir: Path, data: dict, work: Path, program_lasso_fit):
    """One round, each command into a fresh directory.

    The short commands (eval, cka-heatmap, ridge RSA) run between the long
    ones, so their repeated samples spread over the round rather than
    sharing one stretch of the machine's fluctuating speed.
    """
    work.mkdir(parents=True)
    common = ["--data", data_dir, "--seed", seed, "--quiet"]
    train_dir = work / "train"
    ckpt = train_dir / "checkpoint"
    runner.operation(
        "train",
        ["train", "--config", write_cfg(work / "train.cfg", workload.train),
         "--variant", workload.variant, "--out", train_dir, *common],
        lambda _: checks.check_train(train_dir, data),
    )
    if not runner.quality and (train_dir / "metrics.json").exists():
        runner.quality = checks.read_metrics(train_dir / "metrics.json")
    rsa_cfg = {mode: write_cfg(work / f"rsa-{mode}.cfg", {"rsa_mode": mode}) for mode in ("raw", "ridge")}

    def short_commands(i):
        out = work / f"eval-{i}"
        runner.operation("eval", ["eval", "--ckpt", ckpt, "--out", out, *common],
                         lambda _: checks.check_eval(out, train_dir, data))
        heatmap = work / f"heatmap-{i}"
        runner.operation("cka_heatmap", ["analyze", "--mode", "cka-heatmap", "--out", heatmap, *common],
                         lambda _: checks.check_heatmap(heatmap, data))
        if i % 2 == 0:
            ridge = work / f"rsa-ridge-{i}"
            runner.operation(
                "rsa_ridge", ["analyze", "--mode", "rsa", "--config", rsa_cfg["ridge"], "--out", ridge, *common],
                lambda _: checks.check_rsa_ridge(ridge, data),
            )

    bp, raw = work / "backproject", work / "rsa-raw"
    long_commands = (
        ("backproject", ["backproject", "--ckpt", ckpt, "--lambda", workload.lam, "--out", bp, *common],
         lambda _: checks.check_backproject(bp, ckpt, data, workload.lam, program_lasso_fit)),
        ("rsa_raw", ["analyze", "--mode", "rsa", "--config", rsa_cfg["raw"], "--out", raw, *common],
         lambda _: checks.check_rsa_raw(raw, data)),
        ("gradcheck", ["gradcheck"], checks.check_gradcheck),
    )
    for i, (metric, argv, check) in enumerate(long_commands):
        short_commands(i)
        runner.operation(metric, argv, check)
    short_commands(len(long_commands))
    if workload.round_trip:
        cosine_round_trip(runner, work / "round-trip")


def cosine_round_trip(runner, work: Path):
    """Train with eval_similarity=cosine, eval the checkpoint, compare metrics.

    ``eval`` rebuilds its config from targets.cfg, which does not carry
    eval_similarity, so it re-scores with Pearson: this operation fails on
    every run until the program persists the setting.
    """
    work.mkdir(parents=True)
    common = ["--seed", 0, "--quiet"]
    runner.attempted += 1
    codes = [
        runner.command(["gen-data", "--config", write_cfg(work / "synth.cfg", ROUND_TRIP_SYNTH),
                        "--out", work / "data", *common])[0],
        runner.command(["train", "--config", write_cfg(work / "train.cfg", ROUND_TRIP_TRAIN),
                        "--variant", "text_detail", "--data", work / "data", "--out", work / "train", *common])[0],
        runner.command(["eval", "--ckpt", work / "train" / "checkpoint", "--data", work / "data",
                        "--out", work / "eval", *common])[0],
    ]
    if any(codes) or not runner.check(checks.round_trip_agrees, work / "eval", work / "train"):
        runner.failed += 1
