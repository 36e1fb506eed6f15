"""Deterministic training loop, evaluation, ablations, and the layer scan.

Training is single-threaded and bit-reproducible: shuffling, dropout and
initialization all derive from the seed through labelled child streams.
Each epoch is one loop over update groups. By default one group steps
both branches jointly (their parameter sets are disjoint);
``separate_branches`` makes one group per branch, each with its own batch
size, shuffle and Adam step count. Every batch of a group runs the same
branch step for each of its branches (forward, one batched loss call,
backward into the shared gradient buffer), then one Adam step.

Per-sample token-level granularity: each sample's predicted embedding
matrix is compared against its own target, and the batch loss is the mean
over samples. Recorded loss components are the weighted contributions, so
component sums always reproduce the totals.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._arrays import first_constant_row
from .alignment import LayerStack
from .config import check_fields, setting
from .data import Dataset, fuse_targets, split_regions
from .errors import DegenerateInput, NumericalFailure, RangeError, ShapeMismatch, UsageError
# mg_loss and mse_loss are not called here; perfbench/spans.py traces them in this module.
from .losses import ANCHOR_MODES, image_total_loss, mg_loss, mse_loss, text_total_loss
# pixcorr and ssim are not called here; perfbench/spans.py traces them in this module.
from .metrics import (
    SIMILARITIES,
    SSIM_WINDOW,
    pixcorr,
    pixcorr_batch,
    ssim,
    ssim_batch,
    two_way_identification,
)
from .model import (
    SCORED_OUTPUTS,
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
    eval_similarity: str = setting("pearson", choices=SIMILARITIES)

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


def _targets(dataset: Dataset, cfg: TrainConfig, variant: str) -> dict:
    """Every stimulus's targets per branch, as _batch_loss takes them: ``{"text":
    (text,), "image": (fused, sem, det)}``, None for an absent path; the fused
    target is the mean of the variant's path targets (no "image" without one)."""
    paths = image_paths(variant)
    lo, hi = resolve_layer_range(cfg, dataset.layers)
    targets = {"text": (dataset.text_targets(),)}
    if paths:
        by_path = dataset.image_targets(lo, hi, cfg.semantic_target_from_final)
        active = {path: by_path[path] for path in paths}
        targets["image"] = (fuse_targets(*active.values()), active.get("sem"), active.get("det"))
    return targets


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


def _batch_loss(branch: str, targets: tuple, fwd, voxels: tuple, cfg: TrainConfig, want_grads: bool, where: str):
    """Mean loss components of one branch's batch, scored by one batched loss call.

    ``targets`` is ``(text,)`` for the text branch and ``(fused, sem, det)``
    for the image branch, None for an absent path; ``voxels`` is
    ``(sem, det)``. Each ``*value`` field of the loss result that is not
    None becomes the component ``<branch>_<term>`` (``value`` is the
    total), weighted by the ``weight_<term>`` setting where there is one.
    With ``want_grads`` the gradients are keyed like the branch backward's
    keywords. ``where`` (epoch, loop and batch) labels a numerical failure.
    """
    outputs = {name: getattr(fwd, name) for name in SCORED_OUTPUTS[branch]}
    _require_finite(outputs, where)
    weights = dict(anchor=cfg.anchor_mode, weight_cka=cfg.weight_cka, weight_sims=cfg.weight_sims)
    with _labelled(where):
        if branch == "text":
            loss = text_total_loss(*targets, outputs["pred_emb"], voxels[0], outputs["recon_sem"], **weights)
        else:
            fused, sem, det = targets
            loss = image_total_loss(
                fused, sem_emb_target=sem, det_emb_target=det, voxels_sem=voxels[0], voxels_det=voxels[1],
                **outputs, **weights, weight_crec=cfg.weight_crec,
            )
    n = len(voxels[0])
    means = {}
    for name, value in vars(loss).items():
        if name.endswith("value") and value is not None:
            term = "total" if name == "value" else name.removesuffix("_value")
            means[f"{branch}_{term}"] = _ordered_sum(getattr(cfg, f"weight_{term}", 1.0) * value) / n
    grads = {}
    if want_grads:
        grads = {f"grad_{name}": getattr(loss, f"grad_{name}") / n for name, out in outputs.items() if out is not None}
    return means, grads


def _rows(arrays: tuple, rows):
    return tuple(None if a is None else a[rows] for a in arrays)


def _forward(branch: str, voxels: tuple, params: ModelParams, rng: Rng = None):
    """Run one branch on the (semantic, detail) voxels; an `rng` selects training mode."""
    if branch == "text":
        return text_branch_forward(voxels[0], params, rng=rng)
    return image_branch_forward(*voxels, params, rng=rng)


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
    """Fit a model variant; returns final parameters and the epoch report.

    ``full_no_crec`` trains ``full``'s network with ``weight_crec`` forced to zero.
    """
    start = time.perf_counter()
    if variant == "full_no_crec":
        cfg = replace(cfg, weight_crec=0.0)
    _check_dims(dataset, model_cfg)
    targets = _targets(dataset, cfg, variant)
    branches = tuple(targets)
    voxels = split_regions(dataset.voxels, dataset.mask)
    tr, te = dataset.train_slice, dataset.test_slice
    train_voxels, val_voxels = _rows(voxels, tr), _rows(voxels, te)
    train_targets = {branch: _rows(t, tr) for branch, t in targets.items()}
    val_targets = {branch: _rows(t, te) for branch, t in targets.items()}
    n_train = dataset.n_train

    rng = Rng(cfg.seed, "train")
    params = init_params(model_cfg, rng.child("init"), variant)
    grads, updates = _flat_training_state(params)
    # One update group steps both branches jointly, or each branch with its
    # own batch size; each group keeps its own Adam step count, so the bias
    # correction matches that group's history.
    if cfg.separate_branches:
        sizes = {"text": cfg.text_batch_size, "image": cfg.image_batch_size}
        loops = [(branch, sizes[branch] or cfg.batch_size, (branch,)) for branch in branches]
    else:
        loops = [("joint", cfg.batch_size, branches)]
    step_counts = dict.fromkeys(updates, 0)
    history = []

    for epoch in range(1, cfg.epochs + 1):
        epoch_sums = {}  # each group visits every training sample once per epoch
        for key, batch_size, group in loops:
            joint = key == "joint"
            perm = rng.child(f"shuffle/{epoch}" if joint else f"shuffle-{key}/{epoch}").permutation(n_train)
            for b, first in enumerate(range(0, n_train, batch_size)):
                idx = perm[first : first + batch_size]
                where = f"epoch {epoch}, batch {b}" if joint else f"epoch {epoch}, {key} loop batch {b}"
                batch_voxels = _rows(train_voxels, idx)
                for branch in group:
                    masks = f"masks/{epoch}/{b}/{branch}" if joint else f"masks-{key}/{epoch}/{b}"
                    fwd = _forward(branch, batch_voxels, params, rng=rng.child(masks))
                    means, out_grads = _batch_loss(
                        branch, _rows(train_targets[branch], idx), fwd, batch_voxels, cfg, True, where
                    )
                    backward = text_branch_backward if branch == "text" else image_branch_backward
                    backward(params, fwd, **out_grads, out=grads)
                    for name, value in means.items():
                        epoch_sums[name] = epoch_sums.get(name, 0.0) + value * len(idx)
                step_counts[key] += 1
                with _labelled(where):
                    adam_step(
                        *updates[key], step_counts[key],
                        cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon,
                    )

        train_components = {k: epoch_sums[k] / n_train for k in sorted(epoch_sums)}
        val_components = {}
        for branch in branches:
            fwd = _forward(branch, val_voxels, params)
            means, _ = _batch_loss(
                branch, val_targets[branch], fwd, val_voxels, cfg, False, f"epoch {epoch}, validation"
            )
            val_components.update(means)
        history.append({"epoch": epoch, "train": train_components, "val": val_components})

    total_key = "image_total" if "image" in targets else "text_total"
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


def _check_test_images(pred: np.ndarray, target: np.ndarray, first_stimulus: int) -> None:
    """Reject a constant predicted or target image, naming its test sample:
    pixel correlation and SSIM are undefined for it."""
    for name, images in (("predicted", pred), ("target", target)):
        s = first_constant_row(images.reshape(images.shape[0], -1))
        if s is not None:
            raise DegenerateInput(
                f"test sample {s} (stimulus {first_stimulus + s}): the {name} image is "
                "constant, so its pixel correlation and SSIM are undefined"
            )


def evaluate(params: ModelParams, dataset: Dataset, cfg: TrainConfig) -> dict:
    """Test-split metrics for a trained (or raw) model.

    Returns two-way identification for both branches plus per-sample mean
    pixel correlation and SSIM for the fused image prediction; metrics that
    do not apply to the variant (or to the embedding size, for SSIM) are
    None. Pixel correlation and SSIM score the whole test split in one
    :func:`metrics.pixcorr_batch` and one :func:`metrics.ssim_batch` call;
    SSIM compares each target with its prediction under the target's own
    value range. A constant predicted or target image raises
    :class:`DegenerateInput` naming its test sample.
    """
    _check_dims(dataset, params.cfg)
    te = dataset.test_slice
    targets = {branch: _rows(t, te) for branch, t in _targets(dataset, cfg, params.variant).items()}
    voxels_sem, voxels_det = split_regions(dataset.voxels, dataset.mask)
    n_test = dataset.n_test
    if n_test < 2:
        raise DegenerateInput("evaluation needs at least 2 test stimuli")

    tf = text_branch_forward(voxels_sem[te], params)
    metrics = {
        "two_way_text": two_way_identification(
            tf.pred_emb.reshape(n_test, -1),
            targets["text"][0].reshape(n_test, -1),
            similarity=cfg.eval_similarity,
        ),
        "two_way_image": None,
        "pixcorr": None,
        "ssim": None,
    }
    if "image" in targets:
        target = targets["image"][0]
        ifwd = image_branch_forward(voxels_sem[te], voxels_det[te], params)
        pred = ifwd.pred_fused_emb
        _check_test_images(pred, target, te.start)
        metrics["two_way_image"] = two_way_identification(
            pred.reshape(n_test, -1), target.reshape(n_test, -1),
            similarity=cfg.eval_similarity,
        )
        metrics["pixcorr"] = float(np.mean(pixcorr_batch(pred, target)))
        tokens, dim = dataset.image_token_shape
        if tokens >= SSIM_WINDOW and dim >= SSIM_WINDOW:
            value_ranges = target.max(axis=(1, 2)) - target.min(axis=(1, 2))
            metrics["ssim"] = float(np.mean(ssim_batch(target, pred, value_ranges)))
    return metrics


def run_ablation(variant: str, dataset: Dataset, model_cfg: ModelConfig, cfg: TrainConfig):
    """Train one structural variant and evaluate it.

    ``full_no_crec`` is exactly ``full`` with the reconstruction weight
    forced to zero (see :func:`train`); other variants drop network paths
    entirely.
    """
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
