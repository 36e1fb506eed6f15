"""Per-sample reference implementations of the training losses.

These are the loop-over-samples forms the batched kernels in
``voxalign.losses`` replaced. They score one sample at a time with the
original operation order, so the tests can require the fast paths to
reproduce them bit for bit, values and gradients alike. Nothing in the
library imports this module.
"""

import numpy as np

from voxalign.errors import DegenerateInput


def center(k):
    """Double centering of one square kernel, in the library's operation order."""
    row_means = k.mean(axis=1, keepdims=True)
    col_means = k.mean(axis=0, keepdims=True)
    grand_mean = k.mean()
    return k - row_means - col_means + grand_mean


def mse_loss(target, pred):
    diff = pred - target
    value = float((diff * diff).mean())
    return value, (2.0 / diff.size) * diff


def _anchor_cosines(anchor, rest, label):
    anchor_norm = float(np.linalg.norm(anchor))
    if anchor_norm == 0.0:
        raise DegenerateInput(f"{label}: token 0 is a zero vector")
    rest_norms = np.linalg.norm(rest, axis=1)
    zero = np.where(rest_norms == 0.0)[0]
    if zero.size:
        raise DegenerateInput(f"{label}: token {int(zero[0]) + 1} is a zero vector")
    sims = (rest @ anchor) / (rest_norms * anchor_norm)
    return sims, anchor_norm, rest_norms


def sims_loss(a, b, anchor="own_first_token"):
    m = a.shape[0]
    s_target, _, _ = _anchor_cosines(a[0], a[1:], "target")
    rest = b[1:]
    anchor_vec = b[0] if anchor == "own_first_token" else a[0]
    s_pred, anchor_norm, rest_norms = _anchor_cosines(anchor_vec, rest, "pred")

    diff = s_pred - s_target
    count = m - 1
    value = float((diff * diff).mean())
    g = (2.0 / count) * diff

    grad = np.zeros_like(b)
    inv = 1.0 / (rest_norms * anchor_norm)
    grad[1:] = (
        g[:, None] * inv[:, None] * anchor_vec[None, :]
        - (g * s_pred / rest_norms**2)[:, None] * rest
    )
    if anchor == "own_first_token":
        grad[0] = (g * inv) @ rest - float(g @ s_pred) / anchor_norm**2 * anchor_vec
    return value, grad


def cka_loss(a, b):
    k = a @ a.T
    l = b @ b.T
    k_c = center(k)
    l_c = center(l)
    p = float((k_c * l).sum())
    q = float((k_c * k).sum())
    r = float((l_c * l).sum())
    if q <= 0.0:
        raise DegenerateInput("target is a constant representation")
    if r <= 0.0:
        raise DegenerateInput("prediction is a constant representation")
    denom = np.sqrt(q * r)
    value = 1.0 - p / denom
    grad_l = k_c / denom - (p / (r * denom)) * l_c
    return float(value), -2.0 * (grad_l @ b)


def mg_loss(a, b, anchor="own_first_token", weight_cka=1.0, weight_sims=1.0):
    """(value, grad, cka value, sims value) of one sample."""
    c_value, c_grad = cka_loss(a, b)
    s_value, s_grad = sims_loss(a, b, anchor)
    value = weight_cka * c_value + weight_sims * s_value
    return float(value), weight_cka * c_grad + weight_sims * s_grad, c_value, s_value


def text_total_loss(target, pred, voxels_sem, recon_sem, anchor, weight_cka, weight_sims):
    """One sample's text objective as a dict of the ``TextLoss`` fields."""
    mg_value, mg_grad, cka, sims = mg_loss(target, pred, anchor, weight_cka, weight_sims)
    recon_value, recon_grad = mse_loss(voxels_sem, recon_sem)
    return {
        "value": mg_value + recon_value,
        "grad_pred_emb": mg_grad,
        "grad_recon_sem": recon_grad,
        "mg_value": mg_value,
        "cka_value": cka,
        "sims_value": sims,
        "recon_value": recon_value,
    }


_CREC = (
    ("voxels_sem", "recon_sem_direct"),
    ("voxels_det", "recon_det_cross"),
    ("voxels_det", "recon_det_direct"),
    ("voxels_sem", "recon_sem_cross"),
)


def image_total_loss(args, anchor, weight_cka, weight_sims, weight_crec):
    """One sample's image objective as a dict of the ``ImageLoss`` fields.

    ``args`` maps the ``image_total_loss`` argument names to one sample's
    arrays, None for an absent path.
    """
    preds = {p: args[f"pred_{p}_emb"] for p in ("sem", "det") if args[f"pred_{p}_emb"] is not None}
    parts = list(preds.values())
    fused = parts[0]
    for part in parts[1:]:
        fused = fused + part
    fused = fused / len(parts)
    mg_value, mg_grad, cka, sims = mg_loss(args["fused_target"], fused, anchor, weight_cka, weight_sims)
    crec_value = 0.0
    out = {}
    for signal, name in _CREC:
        out[f"grad_{name}"] = None
        if args[name] is not None:
            term, grad = mse_loss(args[signal], args[name])
            crec_value += term
            out[f"grad_{name}"] = weight_crec * grad
    value = mg_value + weight_crec * crec_value
    for path in ("sem", "det"):
        out[f"grad_pred_{path}_emb"] = None
        out[f"{path}_mse_value"] = None
        if path in preds:
            mse_value, mse_grad = mse_loss(args[f"{path}_emb_target"], preds[path])
            value += mse_value
            out[f"grad_pred_{path}_emb"] = mg_grad / len(preds) + mse_grad
            out[f"{path}_mse_value"] = mse_value
    out.update(value=float(value), mg_value=mg_value, cka_value=cka, sims_value=sims, crec_value=crec_value)
    return out


def text_batch_loss(text_targets, pred_emb, recon_sem, voxels_sem, cfg):
    """Batch means and gradients by scoring each sample on its own, in order."""
    n = pred_emb.shape[0]
    sums = dict.fromkeys(("text_total", "text_mg", "text_cka", "text_sims", "text_recon"), 0.0)
    g_pred = np.zeros_like(pred_emb)
    g_recon = np.zeros_like(recon_sem)
    for s in range(n):
        tl = text_total_loss(
            text_targets[s], pred_emb[s], voxels_sem[s], recon_sem[s],
            cfg.anchor_mode, cfg.weight_cka, cfg.weight_sims,
        )
        sums["text_total"] += tl["value"]
        sums["text_mg"] += tl["mg_value"]
        sums["text_cka"] += cfg.weight_cka * tl["cka_value"]
        sums["text_sims"] += cfg.weight_sims * tl["sims_value"]
        sums["text_recon"] += tl["recon_value"]
        g_pred[s] = tl["grad_pred_emb"] / n
        g_recon[s] = tl["grad_recon_sem"] / n
    return {k: v / n for k, v in sums.items()}, (g_pred, g_recon)


def image_batch_loss(batch_args, cfg):
    """Batch means and gradients keyed like ``image_branch_backward``'s keywords.

    ``batch_args`` maps the ``image_total_loss`` argument names to batch
    arrays, None for an absent path.
    """
    n = batch_args["fused_target"].shape[0]
    sums = dict.fromkeys(("image_total", "image_mg", "image_cka", "image_sims", "image_crec"), 0.0)
    grads = {}
    for s in range(n):
        il = image_total_loss(
            {k: None if v is None else v[s] for k, v in batch_args.items()},
            cfg.anchor_mode, cfg.weight_cka, cfg.weight_sims, cfg.weight_crec,
        )
        sums["image_total"] += il["value"]
        sums["image_mg"] += il["mg_value"]
        sums["image_cka"] += cfg.weight_cka * il["cka_value"]
        sums["image_sims"] += cfg.weight_sims * il["sims_value"]
        sums["image_crec"] += cfg.weight_crec * il["crec_value"]
        for key in ("sem_mse_value", "det_mse_value"):
            if il[key] is not None:
                name = f"image_{key[:-len('_value')]}"
                sums[name] = sums.get(name, 0.0) + il[key]
        for key, grad in il.items():
            if key.startswith("grad_") and grad is not None:
                grads.setdefault(key, np.zeros((n,) + grad.shape))[s] = grad / n
    return {k: v / n for k, v in sums.items()}, grads
