"""Gradient verification suites used by tests and the gradcheck command.

Every analytic gradient in the library is compared against central finite
differences (step 1e-5) across many seeded random instances. Pure-MSE
paths are held to 1e-6 relative error; paths through cosine
normalizations to 1e-5; paths through the CKA quotient to 1e-4.

Both suites share the stack builder and the error reduction of
:func:`~voxalign.losses.grad_check`, and score every stack that shares a
loss and its arguments in one batched loss call. A loss-suite group (the
checks of one loss and argument set) takes its analytic gradients from
one call of the public single-sample function. The model suite replays
each parameter tensor's stack of perturbed points in one forward, with
the stack as a leading axis of that tensor, and scores all of a branch's
replays in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import fuse_targets
# grad_check is not called here; perfbench/spans.py traces it in this module.
from .losses import (
    ANCHOR_MODES,
    _cka,
    _crec,
    _mg,
    _mse,
    _perturbed_stack,
    _sims,
    _worst_relative_error,
    cka_loss,
    crec_loss,
    grad_check,
    image_total_loss,
    mg_loss,
    mse_loss,
    sims_loss,
    text_total_loss,
)
from .model import (
    IMAGE_RECONS,
    SCORED_OUTPUTS,
    ModelConfig,
    _StackedParams,
    collect_masks,
    image_branch_backward,
    image_branch_forward,
    init_params,
    text_branch_backward,
    text_branch_forward,
)
from .rng import Rng

FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold


# Standalone MSE paths are exact quadratics and held to 1e-6; paths
# through composite totals inherit the 1e-4 budget of their CKA part.
_LOSS_THRESHOLDS = {
    "mse": 1e-6,
    "sims/own_first_token": 1e-5,
    "sims/target_first_token": 1e-5,
    "cka": 1e-4,
    "mg": 1e-4,
    "crec": 1e-6,
    "text_total/pred_emb": 1e-4,
    "text_total/recon": 1e-4,
    "image_total/pred_sem": 1e-4,
    "image_total/pred_det": 1e-4,
    "image_total/recons": 1e-4,
}


def _errors(values, stacks: list, analytics: list, h: float = FD_STEP) -> list:
    """The error of each stack's slice of `values`, the scores of the stacks' row-concatenation."""
    slices = np.split(np.asarray(values), np.cumsum([len(stack) for stack in stacks])[:-1])
    return [_worst_relative_error(v, a, h) for v, a in zip(slices, analytics)]


def _group_errors(loss, score, args: dict, checks: list) -> list:
    """The error of each of a group's `checks`, from one ``loss(**args)`` and one `score` call.

    Each array of the `score` call stacks, check by check, the check's perturbed
    points where it is the check's argument, or copies of it where it is not.
    """
    analytic = loss(**args)
    stacks = [_perturbed_stack(args[name], FD_STEP) for _, name, _ in checks]

    def column(key, value):
        return np.concatenate([
            stack if key == name else np.repeat(value[None], len(stack), axis=0)
            for (_, name, _), stack in zip(checks, stacks)
        ])

    values = score(**{k: column(k, v) if isinstance(v, np.ndarray) else v for k, v in args.items()})
    return _errors(values, stacks, [getattr(analytic, field) for _, _, field in checks])


def _crec_args(rng: Rng) -> dict:
    """Voxel signals and the four reconstructions, keyed like the loss arguments."""
    n_s, n_d = 3, 5
    return dict(
        voxels_sem=rng.child("f_s").normal(n_s),
        voxels_det=rng.child("f_d").normal(n_d),
        recon_sem_direct=rng.child("r0").normal(n_s),
        recon_det_cross=rng.child("r1").normal(n_d),
        recon_det_direct=rng.child("r2").normal(n_d),
        recon_sem_cross=rng.child("r3").normal(n_s),
    )


def _loss_groups(s: int) -> list:
    """Seed `s`'s loss-suite checks by group: (loss, batched scorer, args, [(check, argument, gradient field)])."""
    rng = Rng(1000 + s, "gradcheck")
    m = 3 + s % 5  # token counts 3..7
    d = 2 + s % 6  # widths 2..7
    target = rng.child("target").normal(m, d)
    pair = dict(target=target, pred=rng.child("pred").normal(m, d))
    crec = _crec_args(rng.child("crec"))
    text = dict(
        text_target=target,
        text_pred=pair["pred"],
        voxels_sem=rng.child("f_s").normal(4),
        recon_sem=rng.child("recon").normal(4),
    )
    image_rng = rng.child("image")
    image = dict(
        fused_target=image_rng.child("fused").normal(4, 3),
        pred_sem_emb=image_rng.child("pred_sem").normal(4, 3),
        pred_det_emb=image_rng.child("pred_det").normal(4, 3),
        sem_emb_target=image_rng.child("sem_t").normal(4, 3),
        det_emb_target=image_rng.child("det_t").normal(4, 3),
        **_crec_args(image_rng),
    )
    wide = dict(target=target, pred=rng.child("pred_wide").normal(m, d + 1))
    recons = [(r, f"grad_{r}") for r in IMAGE_RECONS]
    # A batched scorer takes the loss's arguments with a leading sample axis
    # and returns per-sample values, from the kernel that the public
    # single-sample function runs on a batch of one.
    return [
        (mse_loss, lambda target, pred: _mse(target, pred)[0], pair, [("mse", "pred", "grad")]),
        *[(sims_loss, lambda target, pred, anchor: _sims(target, pred, anchor, batched=True)[0],
           {**pair, "anchor": anchor}, [(f"sims/{anchor}", "pred", "grad")]) for anchor in ANCHOR_MODES],
        (cka_loss, lambda target, pred: _cka(target, pred, batched=True)[0], wide, [("cka", "pred", "grad")]),
        (mg_loss, lambda target, pred: _mg(target, pred, "own_first_token", 1.0, 1.0, batched=True).value,
         pair, [("mg", "pred", "grad")]),
        (crec_loss, lambda **a: _crec(a, len(a["voxels_sem"]), batched=True).value, crec,
         [("crec", *r) for r in recons]),
        (text_total_loss, lambda **a: text_total_loss(**a).value, text, [
            ("text_total/pred_emb", "text_pred", "grad_pred_emb"),
            ("text_total/recon", "recon_sem", "grad_recon_sem"),
        ]),
        (image_total_loss, lambda **a: image_total_loss(**a).value, image, [
            ("image_total/pred_sem", "pred_sem_emb", "grad_pred_sem_emb"),
            ("image_total/pred_det", "pred_det_emb", "grad_pred_det_emb"),
            *[("image_total/recons", *r) for r in recons],
        ]),
    ]


def _loss_errors(s: int) -> list:
    """Seed `s`'s loss-suite errors: (check, argument, error) per check, in group order."""
    return [
        (check, name, error)
        for loss, score, args, checks in _loss_groups(s)
        for (check, name, _), error in zip(checks, _group_errors(loss, score, args, checks))
    ]


def loss_gradient_suite(n_seeds: int = 20) -> list:
    """Finite-difference checks for every loss, maximized over seeds."""
    worst = dict.fromkeys(_LOSS_THRESHOLDS, 0.0)
    for s in range(n_seeds):
        for check, _, error in _loss_errors(s):
            worst[check] = max(worst[check], error)
    return [CheckResult(name, worst[name], threshold) for name, threshold in _LOSS_THRESHOLDS.items()]


def _tiny_config() -> ModelConfig:
    # 194 parameters; embeddings keep >= 3 tokens because linear CKA of a
    # 2-row representation is identically 1 and would not exercise its grad.
    return ModelConfig(
        n_semantic_voxels=3,
        n_detail_voxels=5,
        latent_dim=3,
        text_tokens=3,
        text_dim=3,
        image_tokens=3,
        image_dim=2,
    )


def _max_param_error(params, grads: dict, forward, score, h: float = FD_STEP) -> float:
    """Worst relative error of `grads` over every entry of the tensors it names.

    All perturbed copies of a tensor run in one forward: ``forward(stacked)``
    gets a :class:`~voxalign.model._StackedParams` whose tensor ``name`` is the
    whole ``(K, *shape)`` stack of perturbed points (a bias as ``(K, 1, b)``).
    One call ``score(fwds)``, a ``(forward, K)`` pair per tensor in name order,
    returns the forwards' values concatenated. ``params`` is never modified.
    """
    names = sorted(grads)
    stacks = [_perturbed_stack(params.tensors[name], h) for name in names]
    fwds = [(forward(_StackedParams.of(params, name, stack)), len(stack)) for name, stack in zip(names, stacks)]
    return max(_errors(score(fwds), stacks, [grads[name] for name in names], h), default=0.0)


def _fd_safe(caches, *outputs) -> bool:
    """Reject draws where finite differences cannot resolve the gradient.

    Three tiny-model pathologies are screened out deterministically:
    pre-activations sitting on a ReLU kink (one-sided differences),
    near-zero tokens (cosine gradients blow up), and encoder or backbone
    layers with fewer than two active units. The last case makes the
    network positively homogeneous in a single unit, so some parameters
    move the prediction only radially; the scale-invariant losses have a
    true gradient of exactly zero there, which finite differences see only
    as rounding noise above the 1e-8 denominator floor.
    """
    for key, entry in caches.items():
        if key == "mode" or "z" not in entry:
            continue
        z = entry["z"]
        if np.min(np.abs(z)) < 1e-3:
            return False
        if "encoder" in key:
            # Backbone blocks keep full-rank influence through their
            # residual path; only a collapsed code is pathological.
            mask = entry["mask"]
            alive = (z > 0) if mask is None else (z > 0) & (mask != 0)
            if np.any(alive.sum(axis=1) < 2):
                return False
    for out in outputs:
        norms = np.linalg.norm(out.reshape(-1, out.shape[-1]), axis=1)
        if norms.min() < 1e-2:
            return False
    return True


# The predictions of each branch that _fd_safe screens.
_PREDICTIONS = {"text": ("pred_emb",), "image": ("pred_sem_emb", "pred_det_emb")}


def _forward(branch: str, params, voxels: tuple, **replay):
    """Run one branch on the (semantic, detail) voxels; `replay` passes ``rng`` or ``masks``."""
    if branch == "text":
        return text_branch_forward(voxels[0], params, **replay)
    return image_branch_forward(*voxels, params, **replay)


def _branch_loss(branch: str, fwds: list, voxels: tuple, targets: dict):
    """One batched loss call scoring forwards of the batch of one sample, `k` samples each.

    ``fwds`` holds ``(forward, k)`` pairs. A stacked replay's outputs have one
    row per perturbed point; an output upstream of the perturbed tensor has
    one row and is repeated to its forward's `k`. The voxels and targets are
    repeated to the total of the `k`.
    """
    out = {f: np.concatenate([_rows(getattr(fwd, f), k) for fwd, k in fwds]) for f in SCORED_OUTPUTS[branch]}
    n = sum(k for _, k in fwds)
    vox = [_rows(v, n) for v in voxels]
    tgt = {key: _rows(t, n) for key, t in targets.items()}
    if branch == "text":
        return text_total_loss(tgt["text"], out["pred_emb"], vox[0], out["recon_sem"])
    return image_total_loss(
        tgt["fused"], out["pred_sem_emb"], out["pred_det_emb"], tgt["sem"], tgt["det"],
        *vox, *(out[r] for r in IMAGE_RECONS),
    )


def _rows(x, k: int):
    """`x` with `k` rows: as it is when it has them, its one row repeated otherwise."""
    return x if len(x) == k else np.repeat(x, k, axis=0)


def _safe_draw(cfg: ModelConfig, s: int) -> tuple:
    """Seed `s`'s first finite-difference-safe draw: (its rng, params, voxels, training forwards by branch).

    The image branch is run and screened only on a draw whose text branch is
    safe; labelled streams do not depend on creation order, so this skip
    changes no other draw.
    """
    base = Rng(2000 + s, "model-gradcheck")
    for attempt in range(300):
        rng = base.child(f"attempt-{attempt}")
        params = init_params(cfg, rng.child("init"))
        voxels = (
            rng.child("vox_sem").normal(1, cfg.n_semantic_voxels),
            rng.child("vox_det").normal(1, cfg.n_detail_voxels),
        )
        fwds = {}
        for b, preds in _PREDICTIONS.items():
            fwds[b] = _forward(b, params, voxels, rng=rng.child(f"{b}-masks"))
            if not _fd_safe(fwds[b].caches, *(getattr(fwds[b], p) for p in preds)):
                break
        else:
            return rng, params, voxels, fwds
    raise RuntimeError("no finite-difference-safe draw found")  # pragma: no cover


def _targets(cfg: ModelConfig, rng: Rng) -> dict:
    """A draw's embedding targets, each a batch of one sample."""
    sem, det = (rng.child(f"{path}_target").normal(cfg.image_tokens, cfg.image_dim) for path in ("sem", "det"))
    text = rng.child("text_target").normal(cfg.text_tokens, cfg.text_dim)
    return {"text": text[None], "fused": fuse_targets(sem, det)[None], "sem": sem[None], "det": det[None]}


def _branch_check(branch: str, params, fwd, voxels: tuple, targets: dict) -> tuple:
    """The arguments of :func:`_max_param_error` for one branch: analytic gradients
    from the backward of the training forward `fwd`, replays of its dropout masks."""
    masks = collect_masks(fwd.caches)
    loss = _branch_loss(branch, [(fwd, 1)], voxels, targets)
    backward = text_branch_backward if branch == "text" else image_branch_backward
    grads = backward(params, fwd, **{k: v for k, v in vars(loss).items() if k.startswith("grad_")})
    return (params, grads, lambda stacked: _forward(branch, stacked, voxels, masks=masks),
            lambda fwds: _branch_loss(branch, fwds, voxels, targets).value)


def model_gradient_suite(n_seeds: int = 20) -> list:
    """Per-parameter finite-difference check of the full backward pass.

    Runs a tiny model in training mode with recorded dropout masks, so the
    replayed forwards used for finite differences traverse exactly the
    same network as the analytic backward pass. Draws whose activations
    sit on a ReLU kink (where finite differences are one-sided) are
    redrawn deterministically.
    """
    cfg = _tiny_config()
    worst = dict.fromkeys(_PREDICTIONS, 0.0)
    for s in range(n_seeds):
        rng, params, voxels, fwds = _safe_draw(cfg, s)
        targets = _targets(cfg, rng)
        for branch, fwd in fwds.items():
            worst[branch] = max(worst[branch], _max_param_error(*_branch_check(branch, params, fwd, voxels, targets)))
    return [CheckResult(f"model/{branch}_branch", error, 1e-4) for branch, error in worst.items()]


def run_all(n_seeds: int = 20) -> list:
    return loss_gradient_suite(n_seeds) + model_gradient_suite(n_seeds)
