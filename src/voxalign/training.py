"""Deterministic training loop, evaluation, ablations, and the layer scan.

Training is single-threaded and bit-reproducible: shuffling, dropout and
initialization all derive from the seed through labelled child streams.
Both branches are updated jointly per step by default (their parameter
sets are disjoint); ``separate_branches`` runs one loop per branch with
its own batch size instead.

Per-sample token-level granularity: each sample's predicted embedding
matrix is compared against its own target, and the batch loss is the mean
over samples. Recorded loss components are the weighted contributions, so
component sums always reproduce the totals.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .alignment import LayerStack
from .config import check_fields, setting
from .data import Dataset, fuse_targets, split_regions
from .errors import DegenerateInput, NumericalFailure, RangeError, ShapeMismatch, UsageError
# mg_loss and mse_loss are not called here; perfbench/spans.py traces them in this module.
from .losses import ANCHOR_MODES, image_total_loss, mg_loss, mse_loss, text_total_loss
from .metrics import pixcorr, ssim, two_way_identification, SSIM_WINDOW
from .model import (
    ModelConfig,
    ModelParams,
    image_branch_backward,
    image_branch_forward,
    image_paths,
    init_params,
    text_branch_backward,
    text_branch_forward,
)
from .optim import adam_step
from .rng import Rng

# TrainConfig fields that evaluate() reads; a checkpoint's targets.cfg keeps them.
EVAL_FIELDS = ("detail_layer_lo", "detail_layer_hi", "semantic_target_from_final", "eval_similarity")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; desk-scale defaults.

    ``detail_layer_lo``/``hi`` select the planted layers averaged into the
    detail target; None derives "second layer through second-to-last".
    ``semantic_target_from_final`` switches the semantic-path target
    between the final layer (normal operation) and the same averaged range
    (used by the layer scan to remove all final-layer information).
    """

    epochs: int = setting(200, low=1)
    batch_size: int = setting(32, low=1)
    learning_rate: float = setting(3e-4, low=0.0)
    beta1: float = setting(0.9, low=0.0, below=1.0)
    beta2: float = setting(0.999, low=0.0, below=1.0)
    epsilon: float = setting(1e-8, above=0.0)
    seed: int = 0
    weight_cka: float = setting(1.0, low=0.0)
    weight_sims: float = setting(1.0, low=0.0)
    weight_crec: float = setting(1.0, low=0.0)
    anchor_mode: str = setting("own_first_token", choices=ANCHOR_MODES)
    detail_layer_lo: int = None
    detail_layer_hi: int = None
    semantic_target_from_final: bool = True
    separate_branches: bool = False
    text_batch_size: int = setting(None, low=1)
    image_batch_size: int = setting(None, low=1)
    eval_similarity: str = setting("pearson", choices=("pearson", "cosine"))

    def __post_init__(self):
        check_fields(self)
        if (self.detail_layer_lo is None) != (self.detail_layer_hi is None):
            raise DegenerateInput(
                "detail_layer_lo and detail_layer_hi must be set together"
            )


@dataclass
class TrainReport:
    """Per-epoch loss components plus the best validation epoch."""

    variant: str
    seed: int
    history: list
    best_epoch: int
    best_val_total: float
    wall_seconds: float = field(compare=False)

    def component(self, epoch: int, split: str, name: str) -> float:
        return self.history[epoch - 1][split][name]


def resolve_layer_range(cfg: TrainConfig, stack: LayerStack):
    """Concrete (lo, hi) detail range for a stack, deriving defaults."""
    ids = stack.layer_ids
    if cfg.detail_layer_lo is None:
        if len(ids) >= 3:
            return ids[1], ids[-2]
        return ids[0], ids[0]
    lo, hi = int(cfg.detail_layer_lo), int(cfg.detail_layer_hi)
    if lo > hi:
        raise RangeError(f"detail layer range [{lo}, {hi}] is empty")
    if lo not in ids or hi not in ids:
        raise RangeError(f"detail layer range [{lo}, {hi}] not in stack ids {ids}")
    return lo, hi


def effective_image_target(variant: str, targets: dict):
    """The target the variant's fused prediction is trained against: the
    mean of its path targets (see :meth:`Dataset.image_targets`)."""
    return fuse_targets(*(targets[path] for path in image_paths(variant)))


def _check_dims(dataset: Dataset, model_cfg: ModelConfig):
    if dataset.mask.n_semantic != model_cfg.n_semantic_voxels:
        raise ShapeMismatch(
            f"dataset has {dataset.mask.n_semantic} semantic voxels, "
            f"model expects {model_cfg.n_semantic_voxels}"
        )
    if dataset.mask.n_detail != model_cfg.n_detail_voxels:
        raise ShapeMismatch(
            f"dataset has {dataset.mask.n_detail} detail voxels, "
            f"model expects {model_cfg.n_detail_voxels}"
        )
    tokens, dim = dataset.image_token_shape
    if (tokens, dim) != (model_cfg.image_tokens, model_cfg.image_dim):
        raise ShapeMismatch(
            f"dataset image embeddings are {tokens}x{dim}, model expects "
            f"{model_cfg.image_tokens}x{model_cfg.image_dim}"
        )
    text_tokens = int(dataset.meta["text_tokens"])
    text_dim = int(dataset.meta["text_dim"])
    if (text_tokens, text_dim) != (model_cfg.text_tokens, model_cfg.text_dim):
        raise ShapeMismatch(
            f"dataset text embeddings are {text_tokens}x{text_dim}, model expects "
            f"{model_cfg.text_tokens}x{model_cfg.text_dim}"
        )


def _ordered_sum(values: np.ndarray) -> float:
    """Sum per-sample values in sample order, starting from 0.0.

    This is the order a per-sample loop adds in; ``np.sum`` adds pairwise
    and can differ in the last bit.
    """
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _require_finite(outputs: dict, where: str):
    """Raise NumericalFailure naming the first forward output with a non-finite entry."""
    for name, out in outputs.items():
        if out is not None and not np.all(np.isfinite(out)):
            raise NumericalFailure(f"{where}: {name} has non-finite entries")


@contextlib.contextmanager
def _labelled(where: str):
    """Prefix a NumericalFailure raised inside with ``where`` (epoch, loop and batch)."""
    try:
        yield
    except NumericalFailure as exc:
        raise NumericalFailure(f"{where}: {exc}") from exc


def _text_batch_loss(text_targets, fwd, voxels_sem, cfg: TrainConfig, want_grads: bool, where: str):
    """Mean text loss of a batch, scored by one batched loss call.

    ``where`` (epoch, loop and batch) labels a numerical failure.
    """
    _require_finite({"pred_emb": fwd.pred_emb, "recon_sem": fwd.recon_sem}, where)
    with _labelled(where):
        tl = text_total_loss(
            text_targets,
            fwd.pred_emb,
            voxels_sem,
            fwd.recon_sem,
            anchor=cfg.anchor_mode,
            weight_cka=cfg.weight_cka,
            weight_sims=cfg.weight_sims,
        )
    n = fwd.pred_emb.shape[0]
    values = {
        "text_total": tl.value,
        "text_mg": tl.mg_value,
        "text_cka": cfg.weight_cka * tl.cka_value,
        "text_sims": cfg.weight_sims * tl.sims_value,
        "text_recon": tl.recon_value,
    }
    means = {k: _ordered_sum(v) / n for k, v in values.items()}
    grads = (tl.grad_pred_emb / n, tl.grad_recon_sem / n) if want_grads else (None, None)
    return means, grads


_IMAGE_OUTPUTS = (
    "pred_sem_emb", "pred_det_emb", "recon_sem_direct",
    "recon_det_cross", "recon_det_direct", "recon_sem_cross",
)


def _image_batch_loss(targets, fwd, voxels_sem, voxels_det, cfg: TrainConfig, want_grads: bool, where: str):
    """Mean image loss of a batch; ``targets`` is (fused, sem, det), None for an absent path.

    Gradients are keyed like the ``image_branch_backward`` keywords.
    """
    fused_t, sem_t, det_t = targets
    outputs = {name: getattr(fwd, name) for name in _IMAGE_OUTPUTS}
    _require_finite(outputs, where)
    with _labelled(where):
        il = image_total_loss(
            fused_t,
            sem_emb_target=sem_t,
            det_emb_target=det_t,
            voxels_sem=voxels_sem,
            voxels_det=voxels_det,
            **outputs,
            anchor=cfg.anchor_mode,
            weight_cka=cfg.weight_cka,
            weight_sims=cfg.weight_sims,
            weight_crec=cfg.weight_crec,
        )
    n = fwd.pred_fused_emb.shape[0]
    values = {
        "image_total": il.value,
        "image_mg": il.mg_value,
        "image_cka": cfg.weight_cka * il.cka_value,
        "image_sims": cfg.weight_sims * il.sims_value,
        "image_crec": cfg.weight_crec * il.crec_value,
        "image_sem_mse": il.sem_mse_value,
        "image_det_mse": il.det_mse_value,
    }
    means = {k: _ordered_sum(v) / n for k, v in values.items() if v is not None}
    grads = {}
    if want_grads:
        grads = {f"grad_{name}": getattr(il, f"grad_{name}") / n for name, out in outputs.items() if out is not None}
    return means, grads


def _rows(targets, rows):
    return tuple(None if t is None else t[rows] for t in targets)


def _val_components(params, cfg, text_targets, image_targets, voxels_sem, voxels_det, epoch):
    components = {}
    where = f"epoch {epoch}, validation"
    tf = text_branch_forward(voxels_sem, params)
    text_means, _ = _text_batch_loss(text_targets, tf, voxels_sem, cfg, False, where)
    components.update(text_means)
    if image_targets:
        ifwd = image_branch_forward(voxels_sem, voxels_det, params)
        image_means, _ = _image_batch_loss(
            image_targets, ifwd, voxels_sem, voxels_det, cfg, False, where
        )
        components.update(image_means)
    return components


def _flat_training_state(params: ModelParams):
    """Move the parameters into one flat vector, their tensors becoming views.

    The gradient and Adam's two moments are flat vectors of the same
    layout, tensors in sorted-name order, so each branch (``image.*``, then
    ``text.*``) is one slice. Returns the gradient views, keyed like
    ``params.tensors``, and for each update (``joint``, ``text`` and
    ``image``) its ``adam_step`` arguments: the four slices and their
    ``(name, start, stop)`` layout.
    """
    layout, size = [], 0
    for name in sorted(params.tensors):
        start, size = size, size + params.tensors[name].size
        layout.append((name, start, size))
    flat_params = np.concatenate([params.tensors[name].ravel() for name, _, _ in layout])
    flat_grads, m, v = np.empty(size), np.zeros(size), np.zeros(size)
    spans = {name: slice(start, stop) for name, start, stop in layout}
    shapes = {name: t.shape for name, t in params.tensors.items()}
    params.tensors = {name: flat_params[spans[name]].reshape(shape) for name, shape in shapes.items()}
    grads = {name: flat_grads[spans[name]].reshape(shape) for name, shape in shapes.items()}
    updates = {}
    for key in ("joint", "text", "image"):
        entries = [entry for entry in layout if key == "joint" or entry[0].startswith(key + ".")]
        if entries:
            lo, hi = entries[0][1], entries[-1][2]
            relative = tuple((name, start - lo, stop - lo) for name, start, stop in entries)
            updates[key] = (*(a[lo:hi] for a in (flat_params, flat_grads, m, v)), relative)
    return grads, updates


def train(dataset: Dataset, model_cfg: ModelConfig, cfg: TrainConfig, variant: str = "full"):
    """Fit a model variant; returns final parameters and the epoch report."""
    start = time.perf_counter()
    _check_dims(dataset, model_cfg)
    paths = image_paths(variant)
    lo, hi = resolve_layer_range(cfg, dataset.layers)

    voxels_sem, voxels_det = split_regions(dataset.voxels, dataset.mask)
    text_targets = dataset.text_targets()
    image_targets = None
    if paths:
        by_path = dataset.image_targets(lo, hi, cfg.semantic_target_from_final)
        active = {path: by_path[path] for path in paths}
        image_targets = (effective_image_target(variant, by_path), active.get("sem"), active.get("det"))

    tr = dataset.train_slice
    te = dataset.test_slice
    n_train = dataset.n_train

    rng = Rng(cfg.seed, "train")
    params = init_params(model_cfg, rng.child("init"), variant)
    grads, updates = _flat_training_state(params)
    step_counts = {}
    history = []

    def _train_text(batch_idx, batch_rng, where):
        fwd = text_branch_forward(voxels_sem[tr][batch_idx], params, rng=batch_rng)
        means, (g_pred, g_recon) = _text_batch_loss(
            text_targets[tr][batch_idx], fwd, voxels_sem[tr][batch_idx], cfg, True, where
        )
        text_branch_backward(params, fwd, g_pred, g_recon, out=grads)
        return means

    def _train_image(batch_idx, batch_rng, where):
        fwd = image_branch_forward(
            voxels_sem[tr][batch_idx], voxels_det[tr][batch_idx], params, rng=batch_rng
        )
        batch_targets = _rows(_rows(image_targets, tr), batch_idx)
        means, out_grads = _image_batch_loss(
            batch_targets, fwd, voxels_sem[tr][batch_idx], voxels_det[tr][batch_idx], cfg, True, where
        )
        image_branch_backward(params, fwd, **out_grads, out=grads)
        return means

    def _apply(key: str, where: str):
        # Joint training updates both branches with one step count;
        # separate-branch loops keep their own so Adam's bias correction
        # matches each loop's history.
        step_counts[key] = step_counts.get(key, 0) + 1
        with _labelled(where):
            adam_step(
                *updates[key], step_counts[key],
                cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon,
            )

    for epoch in range(1, cfg.epochs + 1):
        epoch_sums = {}
        epoch_counts = {}

        def _accumulate(means, count):
            for key, value in means.items():
                epoch_sums[key] = epoch_sums.get(key, 0.0) + value * count
                epoch_counts[key] = epoch_counts.get(key, 0) + count

        if not cfg.separate_branches:
            perm = rng.child(f"shuffle/{epoch}").permutation(n_train)
            for b, lo_i in enumerate(range(0, n_train, cfg.batch_size)):
                idx = perm[lo_i : lo_i + cfg.batch_size]
                batch_rng = rng.child(f"masks/{epoch}/{b}")
                where = f"epoch {epoch}, batch {b}"
                text_means = _train_text(idx, batch_rng.child("text"), where)
                if paths:
                    _accumulate(_train_image(idx, batch_rng.child("image"), where), len(idx))
                _accumulate(text_means, len(idx))
                _apply("joint", where)
        else:
            text_bs = cfg.text_batch_size or cfg.batch_size
            perm = rng.child(f"shuffle-text/{epoch}").permutation(n_train)
            for b, lo_i in enumerate(range(0, n_train, text_bs)):
                idx = perm[lo_i : lo_i + text_bs]
                where = f"epoch {epoch}, text loop batch {b}"
                _accumulate(_train_text(idx, rng.child(f"masks-text/{epoch}/{b}"), where), len(idx))
                _apply("text", where)
            if paths:
                image_bs = cfg.image_batch_size or cfg.batch_size
                perm = rng.child(f"shuffle-image/{epoch}").permutation(n_train)
                for b, lo_i in enumerate(range(0, n_train, image_bs)):
                    idx = perm[lo_i : lo_i + image_bs]
                    where = f"epoch {epoch}, image loop batch {b}"
                    _accumulate(_train_image(idx, rng.child(f"masks-image/{epoch}/{b}"), where), len(idx))
                    _apply("image", where)

        train_components = {k: epoch_sums[k] / epoch_counts[k] for k in sorted(epoch_sums)}
        val_components = _val_components(
            params, cfg, text_targets[te], image_targets and _rows(image_targets, te),
            voxels_sem[te], voxels_det[te], epoch,
        )
        history.append({"epoch": epoch, "train": train_components, "val": val_components})

    total_key = "image_total" if paths else "text_total"
    best_epoch = 1 + int(np.argmin([h["val"][total_key] for h in history]))
    report = TrainReport(
        variant=variant,
        seed=cfg.seed,
        history=history,
        best_epoch=best_epoch,
        best_val_total=history[best_epoch - 1]["val"][total_key],
        wall_seconds=time.perf_counter() - start,
    )
    return params, report


def evaluate(params: ModelParams, dataset: Dataset, cfg: TrainConfig) -> dict:
    """Test-split metrics for a trained (or raw) model.

    Returns two-way identification for both branches plus per-sample mean
    pixel correlation and SSIM for the fused image prediction; metrics that
    do not apply to the variant (or to the embedding size, for SSIM) are
    None.
    """
    _check_dims(dataset, params.cfg)
    lo, hi = resolve_layer_range(cfg, dataset.layers)
    te = dataset.test_slice
    voxels_sem, voxels_det = split_regions(dataset.voxels, dataset.mask)
    n_test = dataset.n_test
    if n_test < 2:
        raise DegenerateInput("evaluation needs at least 2 test stimuli")

    text_targets = dataset.text_targets()[te]
    tf = text_branch_forward(voxels_sem[te], params)
    metrics = {
        "two_way_text": two_way_identification(
            tf.pred_emb.reshape(n_test, -1),
            text_targets.reshape(n_test, -1),
            similarity=cfg.eval_similarity,
        ),
        "two_way_image": None,
        "pixcorr": None,
        "ssim": None,
    }
    if image_paths(params.variant):
        by_path = dataset.image_targets(lo, hi, cfg.semantic_target_from_final)
        target = effective_image_target(params.variant, by_path)[te]
        ifwd = image_branch_forward(voxels_sem[te], voxels_det[te], params)
        pred = ifwd.pred_fused_emb
        metrics["two_way_image"] = two_way_identification(
            pred.reshape(n_test, -1), target.reshape(n_test, -1),
            similarity=cfg.eval_similarity,
        )
        metrics["pixcorr"] = float(
            np.mean([pixcorr(pred[s], target[s]) for s in range(n_test)])
        )
        tokens, dim = dataset.image_token_shape
        if tokens >= SSIM_WINDOW and dim >= SSIM_WINDOW:
            values = []
            for s in range(n_test):
                value_range = float(target[s].max() - target[s].min())
                values.append(ssim(target[s], pred[s], value_range))
            metrics["ssim"] = float(np.mean(values))
    return metrics


def run_ablation(variant: str, dataset: Dataset, model_cfg: ModelConfig, cfg: TrainConfig):
    """Train one structural variant and evaluate it.

    ``full_no_crec`` is exactly ``full`` with the reconstruction weight
    forced to zero; other variants drop network paths entirely.
    """
    if variant == "full_no_crec":
        cfg = replace(cfg, weight_crec=0.0)
    params, report = train(dataset, model_cfg, cfg, variant=variant)
    metrics = evaluate(params, dataset, cfg)
    return params, report, metrics


def parse_scan_ranges(spec: str) -> list:
    """Parse a scan specification like ``"2-5,2-5+final,1-4"``.

    Each entry is ``lo-hi`` optionally followed by ``+final``; the flag
    keeps the final layer as the semantic-path target, its absence retrains
    with the averaged range on both paths.
    """
    ranges = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        include_final = token.endswith("+final")
        core = token[: -len("+final")] if include_final else token
        lo_str, sep, hi_str = core.partition("-")
        try:
            lo, hi = int(lo_str), int(hi_str)
        except ValueError:
            raise UsageError(f"bad scan range {token!r}; expected 'lo-hi[+final]'") from None
        if not sep:
            raise UsageError(f"bad scan range {token!r}; expected 'lo-hi[+final]'")
        ranges.append((lo, hi, include_final))
    if not ranges:
        raise UsageError("scan range list is empty")
    return ranges


def layer_range_scan(dataset: Dataset, ranges, model_cfg: ModelConfig, cfg: TrainConfig):
    """Retrain a short full model per target range and rank by identification.

    Returns (label, two_way_image) rows sorted best-first; the label of a
    range that keeps the final layer as semantic target carries a
    ``+final`` suffix.
    """
    rows = []
    for lo, hi, include_final in ranges:
        label = f"{lo}-{hi}+final" if include_final else f"{lo}-{hi}"
        scan_cfg = replace(
            cfg,
            detail_layer_lo=lo,
            detail_layer_hi=hi,
            semantic_target_from_final=include_final,
        )
        params, _ = train(dataset, model_cfg, scan_cfg, variant="full")
        metrics = evaluate(params, dataset, scan_cfg)
        rows.append((label, metrics["two_way_image"]))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


_JSON_KEYS = ("variant", "seed", "pixcorr", "ssim", "two_way_image", "two_way_text", "loss_history_file")


def metrics_report_json(variant, seed, metrics, loss_history_file) -> str:
    """Serialize the metrics report with a fixed key set, byte-stable."""
    payload = {
        "variant": variant,
        "seed": seed,
        "pixcorr": metrics.get("pixcorr"),
        "ssim": metrics.get("ssim"),
        "two_way_image": metrics.get("two_way_image"),
        "two_way_text": metrics.get("two_way_text"),
        "loss_history_file": loss_history_file,
    }
    assert set(payload) == set(_JSON_KEYS)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_loss_history_csv(report: TrainReport, path) -> None:
    """Write ``epoch,split,component,value`` rows for every recorded value."""
    lines = ["epoch,split,component,value"]
    for record in report.history:
        for split in ("train", "val"):
            for component in sorted(record[split]):
                value = record[split][component]
                lines.append(f"{record['epoch']},{split},{component},{format(value, '.9g')}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
