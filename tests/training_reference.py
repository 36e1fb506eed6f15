"""Two-loop reference of the training schedule.

This is the form that ``voxalign.training.train`` replaced: the text and
image batch steps are written out per branch, joint training draws each
branch's dropout stream as a child of one batch stream, and
``separate_branches`` runs a second, separate epoch loop. It scores
batches with the library's ``_batch_loss`` and keeps parameters in its
``_flat_training_state`` buffer. The tests require ``train`` to reproduce
its parameter bytes and its history. Nothing in the library imports this
module.
"""

from voxalign.data import fuse_targets, split_regions
from voxalign.model import (
    image_branch_backward,
    image_branch_forward,
    image_paths,
    init_params,
    text_branch_backward,
    text_branch_forward,
)
from voxalign.optim import adam_step
from voxalign.rng import Rng
from voxalign.training import (
    _batch_loss,
    _flat_training_state,
    resolve_layer_range,
)


def _rows(targets, rows):
    return tuple(None if t is None else t[rows] for t in targets)


def _val_components(params, cfg, text_targets, image_targets, voxels_sem, voxels_det, epoch):
    components = {}
    where = f"epoch {epoch}, validation"
    tf = text_branch_forward(voxels_sem, params)
    text_means, _ = _batch_loss("text", (text_targets,), tf, (voxels_sem, voxels_det), cfg, False, where)
    components.update(text_means)
    if image_targets:
        ifwd = image_branch_forward(voxels_sem, voxels_det, params)
        image_means, _ = _batch_loss("image", image_targets, ifwd, (voxels_sem, voxels_det), cfg, False, where)
        components.update(image_means)
    return components


def train(dataset, model_cfg, cfg, variant="full"):
    """Fit a model variant; returns the final parameters and the epoch history."""
    paths = image_paths(variant)
    lo, hi = resolve_layer_range(cfg, dataset.layers)

    voxels_sem, voxels_det = split_regions(dataset.voxels, dataset.mask)
    text_targets = dataset.text_targets()
    image_targets = None
    if paths:
        by_path = dataset.image_targets(lo, hi, cfg.semantic_target_from_final)
        active = {path: by_path[path] for path in paths}
        image_targets = (fuse_targets(*active.values()), active.get("sem"), active.get("det"))

    tr = dataset.train_slice
    te = dataset.test_slice
    n_train = dataset.n_train

    rng = Rng(cfg.seed, "train")
    params = init_params(model_cfg, rng.child("init"), variant)
    grads, updates = _flat_training_state(params)
    step_counts = {}
    history = []

    def _train_text(batch_idx, batch_rng, where):
        vox = (voxels_sem[tr][batch_idx], voxels_det[tr][batch_idx])
        fwd = text_branch_forward(vox[0], params, rng=batch_rng)
        means, out_grads = _batch_loss("text", (text_targets[tr][batch_idx],), fwd, vox, cfg, True, where)
        text_branch_backward(params, fwd, out_grads["grad_pred_emb"], out_grads["grad_recon_sem"], out=grads)
        return means

    def _train_image(batch_idx, batch_rng, where):
        vox = (voxels_sem[tr][batch_idx], voxels_det[tr][batch_idx])
        fwd = image_branch_forward(*vox, params, rng=batch_rng)
        batch_targets = _rows(_rows(image_targets, tr), batch_idx)
        means, out_grads = _batch_loss("image", batch_targets, fwd, vox, cfg, True, where)
        image_branch_backward(params, fwd, **out_grads, out=grads)
        return means

    def _apply(key):
        step_counts[key] = step_counts.get(key, 0) + 1
        adam_step(*updates[key], step_counts[key], cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)

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
                _apply("joint")
        else:
            text_bs = cfg.text_batch_size or cfg.batch_size
            perm = rng.child(f"shuffle-text/{epoch}").permutation(n_train)
            for b, lo_i in enumerate(range(0, n_train, text_bs)):
                idx = perm[lo_i : lo_i + text_bs]
                where = f"epoch {epoch}, text loop batch {b}"
                _accumulate(_train_text(idx, rng.child(f"masks-text/{epoch}/{b}"), where), len(idx))
                _apply("text")
            if paths:
                image_bs = cfg.image_batch_size or cfg.batch_size
                perm = rng.child(f"shuffle-image/{epoch}").permutation(n_train)
                for b, lo_i in enumerate(range(0, n_train, image_bs)):
                    idx = perm[lo_i : lo_i + image_bs]
                    where = f"epoch {epoch}, image loop batch {b}"
                    _accumulate(_train_image(idx, rng.child(f"masks-image/{epoch}/{b}"), where), len(idx))
                    _apply("image")

        train_components = {k: epoch_sums[k] / epoch_counts[k] for k in sorted(epoch_sums)}
        val_components = _val_components(
            params, cfg, text_targets[te], image_targets and _rows(image_targets, te),
            voxels_sem[te], voxels_det[te], epoch,
        )
        history.append({"epoch": epoch, "train": train_components, "val": val_components})
    return params, history
