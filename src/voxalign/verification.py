"""Gradient verification suites used by tests and the gradcheck command.

Every analytic gradient in the library is compared against central finite
differences (step 1e-5) across many seeded random instances. Pure-MSE
paths are held to 1e-6 relative error; paths through cosine
normalizations to 1e-5; paths through the CKA quotient to 1e-4.

Both suites run the one central-difference loop behind
:func:`~voxalign.losses.grad_check`, which stacks the 2·size perturbed
points of a check and scores them in one call. A loss-suite check scores
its stack with one batched loss call and takes its analytic gradient from
the public single-sample function. The model suite replays each
parameter tensor's whole stack of perturbed points in one forward, with
the stack as a leading axis of that tensor, and scores the stacked
outputs with one batched loss call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import fuse_targets
# grad_check is not called here; perfbench/spans.py traces it in this module.
from .losses import (
    _central_differences,
    _cka,
    _crec,
    _mg,
    _mse,
    _sims,
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


def _arg_check(loss, score, args: dict, name: str, field: str) -> float:
    """Central differences of `score` in argument `name`, against the `field` of ``loss(**args)``.

    ``score`` takes the arguments of ``loss`` with a leading sample axis on
    every array and returns the per-sample values, so one call scores the
    whole stack of perturbed points; the other arrays are repeated along
    that axis.
    """
    analytic = getattr(loss(**args), field)

    def values_at(stack):
        n = len(stack)
        return score(**{k: stack if k == name else _repeat(v, n) for k, v in args.items()})

    return _central_differences(values_at, args[name], analytic, FD_STEP)


def _repeat(x, n: int):
    """`n` copies of array `x` stacked along a new leading axis; other values pass."""
    return np.repeat(x[None], n, axis=0) if isinstance(x, np.ndarray) else x


# Batched scorers of the loss-suite checks: the public function's arguments
# with a leading sample axis in, per-sample values out. Each runs the kernel
# that the public single-sample function runs on a batch of one.
def _mse_values(target, pred):
    return _mse(target, pred)[0]


def _sims_values(target, pred, anchor):
    return _sims(target, pred, anchor, batched=True)[0]


def _cka_values(target, pred):
    return _cka(target, pred, batched=True)[0]


def _mg_values(target, pred):
    return _mg(target, pred, "own_first_token", 1.0, 1.0, batched=True).value


def _crec_values(**arrays):
    return _crec(arrays, len(arrays["voxels_sem"]), batched=True).value


def _text_total_values(**args):
    return text_total_loss(**args).value


def _image_total_values(**args):
    return image_total_loss(**args).value


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


def _loss_checks(s: int) -> list:
    """Seed `s`'s loss-suite checks: (check, loss, batched scorer, args, argument, gradient field)."""
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
    return [
        ("mse", mse_loss, _mse_values, pair, "pred", "grad"),
        ("sims/own_first_token", sims_loss, _sims_values, {**pair, "anchor": "own_first_token"}, "pred", "grad"),
        ("sims/target_first_token", sims_loss, _sims_values, {**pair, "anchor": "target_first_token"}, "pred", "grad"),
        ("cka", cka_loss, _cka_values, wide, "pred", "grad"),
        ("mg", mg_loss, _mg_values, pair, "pred", "grad"),
        *[("crec", crec_loss, _crec_values, crec, r, f"grad_{r}") for r in IMAGE_RECONS],
        ("text_total/pred_emb", text_total_loss, _text_total_values, text, "text_pred", "grad_pred_emb"),
        ("text_total/recon", text_total_loss, _text_total_values, text, "recon_sem", "grad_recon_sem"),
        ("image_total/pred_sem", image_total_loss, _image_total_values, image, "pred_sem_emb", "grad_pred_sem_emb"),
        ("image_total/pred_det", image_total_loss, _image_total_values, image, "pred_det_emb", "grad_pred_det_emb"),
        *[("image_total/recons", image_total_loss, _image_total_values, image, r, f"grad_{r}") for r in IMAGE_RECONS],
    ]


def loss_gradient_suite(n_seeds: int = 20) -> list:
    """Finite-difference checks for every loss, maximized over seeds."""
    worst = dict.fromkeys(_LOSS_THRESHOLDS, 0.0)
    for s in range(n_seeds):
        for check, *row in _loss_checks(s):
            worst[check] = max(worst[check], _arg_check(*row))
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
    whole ``(K, *shape)`` stack of perturbed points (a bias as ``(K, 1, b)``),
    and ``score(fwd, K)`` returns the K values of that forward. ``params`` is
    never modified.
    """
    worst = 0.0
    for name in sorted(grads):

        def values_at(stack):
            return score(forward(_StackedParams.of(params, name, stack)), len(stack))

        worst = max(worst, _central_differences(values_at, params.tensors[name], grads[name], h))
    return worst


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


def _branch_loss(branch: str, fwd, k: int, voxels: tuple, targets: dict):
    """One batched loss call scoring a forward of the batch of one sample as `k` samples.

    A stacked replay's outputs have one row per perturbed point; an output
    upstream of the perturbed tensor has one row and is repeated to `k`, as
    are the voxels and targets.
    """
    out = {f: _rows(getattr(fwd, f), k) for f in SCORED_OUTPUTS[branch]}
    vox = [_rows(v, k) for v in voxels]
    tgt = {key: _rows(t, k) for key, t in targets.items()}
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
    """Seed `s`'s first finite-difference-safe draw: (its rng, params, voxels, training forwards by branch)."""
    base = Rng(2000 + s, "model-gradcheck")
    for attempt in range(300):
        rng = base.child(f"attempt-{attempt}")
        params = init_params(cfg, rng.child("init"))
        voxels = (
            rng.child("vox_sem").normal(1, cfg.n_semantic_voxels),
            rng.child("vox_det").normal(1, cfg.n_detail_voxels),
        )
        fwds = {b: _forward(b, params, voxels, rng=rng.child(f"{b}-masks")) for b in _PREDICTIONS}
        if all(
            _fd_safe(fwds[b].caches, *(getattr(fwds[b], p) for p in preds))
            for b, preds in _PREDICTIONS.items()
        ):
            return rng, params, voxels, fwds
    raise RuntimeError("no finite-difference-safe draw found")  # pragma: no cover


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
        sem_target = rng.child("sem_target").normal(cfg.image_tokens, cfg.image_dim)
        det_target = rng.child("det_target").normal(cfg.image_tokens, cfg.image_dim)
        targets = {
            "text": rng.child("text_target").normal(cfg.text_tokens, cfg.text_dim)[None],
            "fused": fuse_targets(sem_target, det_target)[None],
            "sem": sem_target[None],
            "det": det_target[None],
        }
        for branch, fwd in fwds.items():
            masks = collect_masks(fwd.caches)
            loss = _branch_loss(branch, fwd, 1, voxels, targets)
            backward = text_branch_backward if branch == "text" else image_branch_backward
            grads = backward(params, fwd, **{k: v for k, v in vars(loss).items() if k.startswith("grad_")})
            error = _max_param_error(
                params,
                grads,
                lambda stacked: _forward(branch, stacked, voxels, masks=masks),
                lambda stacked_fwd, k: _branch_loss(branch, stacked_fwd, k, voxels, targets).value,
            )
            worst[branch] = max(worst[branch], error)
    return [CheckResult(f"model/{branch}_branch", error, 1e-4) for branch, error in worst.items()]


def run_all(n_seeds: int = 20) -> list:
    return loss_gradient_suite(n_seeds) + model_gradient_suite(n_seeds)
