"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``eval``, ``analyze``,
``backproject``, ``gradcheck``. Every command is deterministic given its
inputs and ``--seed``; outputs carry no timestamps, so reruns into a fresh
(or ``--force``-replaced) directory are byte-identical. A command writes
into a sibling staging directory that replaces ``--out`` only on success.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import config as cfgmod
from .alignment import layer_cka_heatmap, region_layer_rsa
from .data import Dataset, SynthConfig, load_dataset, save_dataset, split_regions, synth_generate
from .errors import (
    DegenerateInput,
    FormatError,
    InvalidState,
    NumericalFailure,
    RangeError,
    ShapeMismatch,
    UsageError,
    VoxalignError,
)
from .lasso import backproject
from .model import (
    VARIANTS,
    ModelConfig,
    desk_config,
    image_branch_forward,
    image_paths,
    load_params,
    save_params,
    text_branch_forward,
)
from .training import (
    EVAL_FIELDS,
    TrainConfig,
    evaluate,
    layer_range_scan,
    parse_scan_ranges,
    resolve_layer_range,
    run_ablation,
)
from .verification import run_all

_USAGE_ERRORS = (UsageError, FormatError, ShapeMismatch, DegenerateInput, RangeError)
_NUMERICAL_ERRORS = (NumericalFailure, InvalidState)

SYNTH_SCHEMA = cfgmod.schema(SynthConfig())
TRAIN_SCHEMA = cfgmod.schema(TrainConfig())
# The other model fields come from the dataset.
MODEL_SCHEMA = cfgmod.schema(desk_config(), ("latent_dim", "dropout_codec", "dropout_backbone"))


@dataclass(frozen=True)
class AnalyzeConfig:
    """The settings only ``analyze`` reads; ``layer-scan`` trains with
    ``scan_epochs`` in place of ``epochs``."""

    rsa_mode: str = cfgmod.setting("raw", choices=("raw", "ridge"))
    ridge_lambda: float = cfgmod.setting(1.0, low=0.0)
    scan_ranges: str = "2-5,2-5+final,1-4,1-4+final"
    scan_epochs: int = cfgmod.setting(60, low=1)

    def __post_init__(self):
        cfgmod.check_fields(self)


ANALYZE_SCHEMA = cfgmod.schema(AnalyzeConfig())


@contextlib.contextmanager
def _output_dir(path: str, force: bool):
    """Yield a fresh sibling directory that replaces ``path`` only when the
    block succeeds, so a failed command leaves earlier output intact."""
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise UsageError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise UsageError(f"output directory {out} is not empty (use --force)")
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = out.parent / f".{out.name}.partial-{os.getpid()}"
    retired = out.parent / f".{out.name}.old-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        yield staging
        if out.exists():
            out.rename(retired)
        staging.rename(out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(retired, ignore_errors=True)


def _write_table(path: Path, header: str, rows) -> None:
    """Write a CSV report: floats (numpy's too) to nine significant digits, anything else with ``str``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(v, ".9g") if isinstance(v, float) else str(v) for v in row))
    cfgmod.write_lines(path, lines)


_METRICS_KEYS = ("variant", "seed", "pixcorr", "ssim", "two_way_image", "two_way_text", "loss_history_file")


def _write_metrics(path: Path, variant: str, seed: int, metrics: dict, loss_history_file) -> None:
    """Write ``metrics.json`` with its fixed key set, None for a metric that does not apply."""
    given = {**metrics, "variant": variant, "seed": seed, "loss_history_file": loss_history_file}
    cfgmod.write_lines(path, [json.dumps({key: given.get(key) for key in _METRICS_KEYS}, sort_keys=True, indent=2)])


def _load_dataset_arg(path: str) -> Dataset:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"dataset directory {p} does not exist")
    return load_dataset(p)


def _read_config(path) -> dict:
    return cfgmod.read_config_file(path) if path else {}


def _pick(resolved: dict, schema: dict) -> dict:
    return {key: resolved[key] for key in schema}


def _model_config(resolved: dict, dataset: Dataset) -> ModelConfig:
    return ModelConfig(
        n_semantic_voxels=dataset.mask.n_semantic,
        n_detail_voxels=dataset.mask.n_detail,
        text_tokens=int(dataset.meta["text_tokens"]),
        text_dim=int(dataset.meta["text_dim"]),
        image_tokens=int(dataset.meta["image_tokens"]),
        image_dim=int(dataset.meta["image_dim"]),
        **_pick(resolved, MODEL_SCHEMA),
    )


def cmd_gen_data(args, out: Path) -> int:
    resolved = cfgmod.resolve(_read_config(args.config), SYNTH_SCHEMA)
    dataset = synth_generate(SynthConfig(**resolved, seed=args.seed))
    save_dataset(dataset, out)
    cfgmod.write_resolved({**resolved, "seed": args.seed}, out / "resolved.cfg")
    if not args.quiet:
        print(f"generated {dataset.n} stimuli ({dataset.n_train} train / {dataset.n_test} test) in {Path(args.out)}")
    return 0


def _eval_settings(train_cfg: TrainConfig, dataset: Dataset) -> dict:
    """The settings ``evaluate`` reads, with the detail layer range made concrete."""
    lo, hi = resolve_layer_range(train_cfg, dataset.layers)
    resolved = replace(train_cfg, detail_layer_lo=lo, detail_layer_hi=hi)
    return {key: getattr(resolved, key) for key in EVAL_FIELDS}


def cmd_train(args, out: Path) -> int:
    dataset = _load_dataset_arg(args.data)
    resolved = cfgmod.resolve(_read_config(args.config), {**MODEL_SCHEMA, **TRAIN_SCHEMA})
    model_cfg = _model_config(resolved, dataset)
    train_cfg = TrainConfig(**_pick(resolved, TRAIN_SCHEMA), seed=args.seed)

    params, report, metrics = run_ablation(args.variant, dataset, model_cfg, train_cfg)
    ckpt_dir = out / "checkpoint"
    save_params(params, ckpt_dir)
    targets = _eval_settings(train_cfg, dataset)
    cfgmod.write_resolved(targets, ckpt_dir / "targets.cfg")
    history = [
        (record["epoch"], split, component, record[split][component])
        for record in report.history
        for split in ("train", "val")
        for component in sorted(record[split])
    ]
    _write_table(out / "loss_history.csv", "epoch,split,component,value", history)
    _write_metrics(out / "metrics.json", args.variant, args.seed, metrics, "loss_history.csv")
    cfgmod.write_resolved(
        {
            **resolved,
            **targets,
            "seed": args.seed,
            "variant": args.variant,
            "data": args.data,
        },
        out / "resolved.cfg",
    )
    if not args.quiet:
        two_way = metrics.get("two_way_image")
        shown = metrics["two_way_text"] if two_way is None else two_way
        print(
            f"trained variant={args.variant} seed={args.seed} "
            f"best_epoch={report.best_epoch} identification={shown:.1f}% "
            f"({report.wall_seconds:.1f}s)"
        )
    return 0


def _checkpoint_train_cfg(ckpt_dir: Path, seed: int) -> TrainConfig:
    targets_path = ckpt_dir / "targets.cfg"
    raw = cfgmod.read_config_file(targets_path)  # its errors name the file and line
    try:
        return TrainConfig(**cfgmod.resolve(raw, TRAIN_SCHEMA), seed=seed)
    except (UsageError, DegenerateInput) as exc:
        raise UsageError(f"{targets_path}: {exc}") from None


def cmd_eval(args, out: Path) -> int:
    ckpt_dir = Path(args.ckpt)
    if not ckpt_dir.is_dir():
        raise UsageError(f"checkpoint directory {ckpt_dir} does not exist")
    params = load_params(ckpt_dir)
    dataset = _load_dataset_arg(args.data)
    train_cfg = _checkpoint_train_cfg(ckpt_dir, args.seed)
    metrics = evaluate(params, dataset, train_cfg)
    _write_metrics(out / "metrics.json", params.variant, args.seed, metrics, None)
    cfgmod.write_resolved(
        {
            "ckpt": args.ckpt,
            "data": args.data,
            "seed": args.seed,
            **{key: getattr(train_cfg, key) for key in EVAL_FIELDS},
        },
        out / "resolved.cfg",
    )
    if not args.quiet:
        print(f"wrote metrics for variant={params.variant} to {Path(args.out) / 'metrics.json'}")
    return 0


def cmd_analyze(args, out: Path) -> int:
    dataset = _load_dataset_arg(args.data)
    resolved = cfgmod.resolve(
        _read_config(args.config), {**ANALYZE_SCHEMA, **MODEL_SCHEMA, **TRAIN_SCHEMA}
    )
    settings = AnalyzeConfig(**_pick(resolved, ANALYZE_SCHEMA))
    model_cfg = _model_config(resolved, dataset)
    train_cfg = TrainConfig(**_pick(resolved, TRAIN_SCHEMA), seed=args.seed)

    if args.mode == "rsa":
        voxels_sem, _ = split_regions(dataset.voxels, dataset.mask)
        low = dataset.voxels[:, dataset.mask.low_indices]
        regions = []
        if dataset.mask.n_low:
            regions.append(("low_level", low))
        regions.append(("high_level", voxels_sem))
        rows = region_layer_rsa(
            regions, dataset.layers, mode=settings.rsa_mode, ridge_lambda=settings.ridge_lambda,
        )
        written = "rsa.csv"
        _write_table(out / written, "region,layer,similarity", rows)
    elif args.mode == "cka-heatmap":
        heatmap = layer_cka_heatmap(dataset.layers)
        written = "cka_heatmap.csv"
        cells = ((i, j, value) for i, row in enumerate(heatmap) for j, value in enumerate(row))
        _write_table(out / written, "i,j,value", cells)
    else:  # layer-scan
        ranges = parse_scan_ranges(settings.scan_ranges)
        rows = layer_range_scan(
            dataset, ranges, model_cfg, replace(train_cfg, epochs=settings.scan_epochs)
        )
        written = "layer_scan.csv"
        _write_table(out / written, "range,two_way_image", rows)

    cfgmod.write_resolved(
        {**resolved, "seed": args.seed, "mode": args.mode, "data": args.data},
        out / "resolved.cfg",
    )
    if not args.quiet:
        print(f"wrote {Path(args.out) / written}")
    return 0


def cmd_backproject(args, out: Path) -> int:
    ckpt_dir = Path(args.ckpt)
    if not ckpt_dir.is_dir():
        raise UsageError(f"checkpoint directory {ckpt_dir} does not exist")
    cfgmod.check("--lambda", args.lasso_lambda, above=0.0)
    params = load_params(ckpt_dir)
    dataset = _load_dataset_arg(args.data)

    tr = dataset.train_slice
    voxels_sem, voxels_det = split_regions(dataset.voxels, dataset.mask)
    voxels_train = dataset.voxels[tr]

    feature_sets = {"text_semantic": text_branch_forward(voxels_sem[tr], params).code}
    paths = image_paths(params.variant)
    if paths:
        image_fwd = image_branch_forward(voxels_sem[tr], voxels_det[tr], params)
        if "sem" in paths:
            feature_sets["image_semantic"] = image_fwd.code_sem
        if "det" in paths:
            feature_sets["image_detail"] = image_fwd.code_det

    results = backproject(feature_sets, voxels_train, dataset.mask, args.lasso_lambda)
    for name, result in sorted(results.items()):
        _write_table(
            out / f"backproject_{name}.csv",
            "region,mean_abs_beta",
            ((region, result.region_means[region]) for region in ("low_level", "high_level")),
        )
    cfgmod.write_resolved(
        {
            "ckpt": args.ckpt,
            "data": args.data,
            "lasso_lambda": args.lasso_lambda,
            "seed": args.seed,
        },
        out / "resolved.cfg",
    )
    if not args.quiet:
        print(f"wrote {len(feature_sets)} back-projection tables to {Path(args.out)}")
    return 0


def cmd_gradcheck(args, out: Path) -> int:
    results = run_all()
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed = failed or not result.passed
        print(f"{status} {result.name}: max_rel_err={result.max_error:.3e} threshold={result.threshold:.0e}")
    if failed:
        raise NumericalFailure("gradient verification failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("gen-data", help="generate a planted-structure dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model variant")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", default="full", choices=VARIANTS)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="alignment analyses over a dataset")
    p.add_argument("--mode", required=True, choices=("rsa", "cka-heatmap", "layer-scan"))
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("backproject", help="lasso back-projection of branch codes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lasso_lambda", type=float, default=0.01)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_backproject)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO)
    try:
        if getattr(args, "out", None) is None:
            return args.func(args, None)
        with _output_dir(args.out, args.force) as out:
            return args.func(args, out)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except VoxalignError as exc:  # any future library error defaults to usage
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
