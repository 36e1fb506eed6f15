"""Training objectives with analytic gradients.

Each loss returns its scalar value together with the exact gradient with
respect to the predicted argument(s); targets are treated as constants.
A finite-difference verifier (:func:`grad_check`) backs every gradient.

The multi-granularity loss combines a global alignment term (one minus
CKA between target and prediction) with a fine-grained term that matches
the pattern of cosine similarities between the first token and the
remaining tokens of each embedding matrix. The two readings of the
fine-grained term differ in which matrix supplies the anchor token for
the prediction side, so both are implemented behind ``anchor``:

* ``own_first_token``: the prediction is anchored at its own first token,
  making the term invariant to positive rescaling of the prediction.
* ``target_first_token``: the target's first token is the anchor for the
  prediction's remaining tokens as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import as_array, as_matrix, require_same_shape
from .data import fuse_targets
from .errors import DegenerateInput, NumericalFailure, ShapeMismatch
from .linalg import apply_centering

ANCHOR_MODES = ("own_first_token", "target_first_token")


@dataclass(frozen=True)
class LossValueGrad:
    """Scalar loss value plus gradient w.r.t. the differentiated argument."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class MgLoss:
    """Multi-granularity loss with its two components broken out."""

    value: float
    grad: np.ndarray
    cka_value: float
    sims_value: float


@dataclass(frozen=True)
class CrecLoss:
    """Reconstruction loss over the direct and cross decoder paths."""

    value: float
    grad_recon_sem_direct: np.ndarray
    grad_recon_det_cross: np.ndarray
    grad_recon_det_direct: np.ndarray
    grad_recon_sem_cross: np.ndarray
    terms: tuple


@dataclass(frozen=True)
class TextLoss:
    value: float
    grad_pred_emb: np.ndarray
    grad_recon_sem: np.ndarray
    mg_value: float
    cka_value: float
    sims_value: float
    recon_value: float


@dataclass(frozen=True)
class ImageLoss:
    value: float
    grad_pred_sem_emb: np.ndarray
    grad_pred_det_emb: np.ndarray
    grad_recon_sem_direct: np.ndarray
    grad_recon_det_cross: np.ndarray
    grad_recon_det_direct: np.ndarray
    grad_recon_sem_cross: np.ndarray
    mg_value: float
    cka_value: float
    sims_value: float
    crec_value: float
    sem_mse_value: float
    det_mse_value: float


def mse_loss(target, pred) -> LossValueGrad:
    """Mean squared error over all entries; gradient is ``2 (pred - target) / count``."""
    t = as_array(target, "target")
    p = as_array(pred, "pred")
    require_same_shape(t, p, "mse_loss")
    diff = p - t
    value = float((diff * diff).mean())
    return LossValueGrad(value, (2.0 / diff.size) * diff)


def _anchor_cosines(anchor: np.ndarray, rest: np.ndarray, label: str):
    """Cosines between an anchor token and each row of `rest`, plus norms."""
    anchor_norm = float(np.linalg.norm(anchor))
    if anchor_norm == 0.0:
        raise DegenerateInput(f"{label}: token 0 is a zero vector")
    rest_norms = np.linalg.norm(rest, axis=1)
    zero = np.where(rest_norms == 0.0)[0]
    if zero.size:
        raise DegenerateInput(f"{label}: token {int(zero[0]) + 1} is a zero vector")
    sims = (rest @ anchor) / (rest_norms * anchor_norm)
    return sims, anchor_norm, rest_norms


def sims_vector(tokens) -> np.ndarray:
    """Cosine of the first token against each remaining token, in order."""
    m = as_matrix(tokens, "tokens")
    if m.shape[0] < 2:
        raise DegenerateInput("sims_vector requires at least 2 tokens")
    sims, _, _ = _anchor_cosines(m[0], m[1:], "tokens")
    return np.clip(sims, -1.0, 1.0)


def sims_loss(target, pred, anchor: str = "own_first_token") -> LossValueGrad:
    """MSE between the token-similarity patterns of target and prediction.

    The gradient is taken with respect to every entry of `pred`; in
    ``own_first_token`` mode that includes the path through the
    prediction's first token.
    """
    if anchor not in ANCHOR_MODES:
        raise ValueError(f"anchor must be one of {ANCHOR_MODES}, got {anchor!r}")
    a = as_matrix(target, "target")
    b = as_matrix(pred, "pred")
    require_same_shape(a, b, "sims_loss")
    m = a.shape[0]
    if m < 2:
        raise DegenerateInput("sims_loss requires at least 2 tokens")

    s_target, _, _ = _anchor_cosines(a[0], a[1:], "target")
    rest = b[1:]
    if anchor == "own_first_token":
        anchor_vec = b[0]
        s_pred, anchor_norm, rest_norms = _anchor_cosines(anchor_vec, rest, "pred")
    else:
        anchor_vec = a[0]
        s_pred, anchor_norm, rest_norms = _anchor_cosines(anchor_vec, rest, "pred")

    diff = s_pred - s_target
    count = m - 1
    value = float((diff * diff).mean())
    g = (2.0 / count) * diff  # d value / d s_pred[k]

    grad = np.zeros_like(b)
    # d cos(u, v_k) / d v_k = u / (|u||v_k|) - cos * v_k / |v_k|^2
    inv = 1.0 / (rest_norms * anchor_norm)
    grad[1:] = (
        g[:, None] * inv[:, None] * anchor_vec[None, :]
        - (g * s_pred / rest_norms**2)[:, None] * rest
    )
    if anchor == "own_first_token":
        # d cos(b_0, b_k) / d b_0 = b_k / (|b_0||b_k|) - cos * b_0 / |b_0|^2
        grad[0] = (g * inv) @ rest - float(g @ s_pred) / anchor_norm**2 * anchor_vec
    return LossValueGrad(value, grad)


def cka_loss(target, pred) -> LossValueGrad:
    """One minus CKA between target and prediction, differentiated in `pred`.

    With ``P = <Kc, L>``, ``Q = <Kc, K>`` and ``R = <Lc, L>`` (K, L the Gram
    matrices, c marking double centering), the value is ``1 - P / sqrt(QR)``
    and the gradient flows through ``L = B B^T``:

        dCKA/dL = Kc / sqrt(QR) - P Lc / (R sqrt(QR))
        grad B  = -2 (dCKA/dL) B
    """
    a = as_matrix(target, "target")
    b = as_matrix(pred, "pred")
    m = a.shape[0]
    if b.shape[0] != m:
        raise ShapeMismatch(f"row count mismatch: {m} vs {b.shape[0]}")
    if m < 2:
        raise DegenerateInput("cka_loss requires at least 2 rows")
    k = a @ a.T
    l = b @ b.T
    k_c = apply_centering(k)
    l_c = apply_centering(l)
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
    return LossValueGrad(float(value), -2.0 * (grad_l @ b))


def mg_loss(
    target,
    pred,
    anchor: str = "own_first_token",
    weight_cka: float = 1.0,
    weight_sims: float = 1.0,
) -> MgLoss:
    """Weighted sum of the global CKA loss and the fine-grained sims loss.

    Both weights default to 1, matching the unweighted combined objective;
    with unit weights the value decomposes exactly into its components.
    """
    c = cka_loss(target, pred)
    s = sims_loss(target, pred, anchor=anchor)
    value = weight_cka * c.value + weight_sims * s.value
    grad = weight_cka * c.grad + weight_sims * s.grad
    return MgLoss(float(value), grad, c.value, s.value)


def crec_loss(
    voxels_sem,
    voxels_det,
    recon_sem_direct,
    recon_det_cross,
    recon_det_direct,
    recon_sem_cross,
) -> CrecLoss:
    """Sum of the reconstruction MSE terms over direct and cross paths.

    Each term compares a decoder output against the signal living in that
    decoder's output space: the semantic decoder reconstructs the semantic
    voxels (from either latent code) and the detail decoder reconstructs
    the detail voxels (from either latent code). A term whose
    reconstruction is None (its path is absent) is left out; its gradient
    and its entry in ``terms`` are None.
    """
    signals = {"voxels_sem": voxels_sem, "voxels_det": voxels_det}
    converted = {}
    pieces = (
        ("direct semantic reconstruction", "voxels_sem", "recon_sem_direct", recon_sem_direct),
        ("cross detail reconstruction", "voxels_det", "recon_det_cross", recon_det_cross),
        ("direct detail reconstruction", "voxels_det", "recon_det_direct", recon_det_direct),
        ("cross semantic reconstruction", "voxels_sem", "recon_sem_cross", recon_sem_cross),
    )
    value = 0.0
    grads = []
    terms = []
    for label, signal, name, recon in pieces:
        if recon is None:
            grads.append(None)
            terms.append(None)
            continue
        if signal not in converted:
            converted[signal] = as_array(signals[signal], signal)
        tgt = converted[signal]
        rec = as_array(recon, name)
        if tgt.shape != rec.shape:
            raise ShapeMismatch(
                f"{label}: target shape {tgt.shape} vs reconstruction {rec.shape}"
            )
        loss = mse_loss(tgt, rec)
        value += loss.value
        grads.append(loss.grad)
        terms.append(loss.value)
    return CrecLoss(value, *grads, terms=tuple(terms))


def text_total_loss(
    text_target,
    text_pred,
    voxels_sem,
    recon_sem,
    anchor: str = "own_first_token",
    weight_cka: float = 1.0,
    weight_sims: float = 1.0,
) -> TextLoss:
    """Text-branch objective: multi-granularity embedding loss plus voxel MSE."""
    mg = mg_loss(text_target, text_pred, anchor, weight_cka, weight_sims)
    recon = mse_loss(voxels_sem, recon_sem)
    return TextLoss(
        value=mg.value + recon.value,
        grad_pred_emb=mg.grad,
        grad_recon_sem=recon.grad,
        mg_value=mg.value,
        cka_value=mg.cka_value,
        sims_value=mg.sims_value,
        recon_value=recon.value,
    )


def image_total_loss(
    fused_target,
    pred_sem_emb,
    pred_det_emb,
    sem_emb_target,
    det_emb_target,
    voxels_sem,
    voxels_det,
    recon_sem_direct,
    recon_det_cross,
    recon_det_direct,
    recon_sem_cross,
    anchor: str = "own_first_token",
    weight_cka: float = 1.0,
    weight_sims: float = 1.0,
    weight_crec: float = 1.0,
) -> ImageLoss:
    """Image-branch objective over the fused prediction.

    An absent path passes None for its prediction, target and
    reconstructions, and gets None gradients and MSE value. The fused
    prediction is the mean of the present path predictions (the identity
    with one path), so the multi-granularity gradient splits evenly between
    them; the per-path MSE terms add their own gradients on top. The fused
    target is the caller's; training passes the mean of the path targets.
    """
    preds = {
        path: as_matrix(pred, name)
        for path, name, pred in (("sem", "pred_sem_emb", pred_sem_emb), ("det", "pred_det_emb", pred_det_emb))
        if pred is not None
    }
    fused_pred = fuse_targets(*preds.values())
    mg = mg_loss(fused_target, fused_pred, anchor, weight_cka, weight_sims)
    crec = crec_loss(
        voxels_sem,
        voxels_det,
        recon_sem_direct,
        recon_det_cross,
        recon_det_direct,
        recon_sem_cross,
    )
    targets = {"sem": sem_emb_target, "det": det_emb_target}
    mses = {path: mse_loss(targets[path], pred) for path, pred in preds.items()}
    value = mg.value + weight_crec * crec.value
    for mse in mses.values():
        value += mse.value
    share = mg.grad / len(preds)
    grads = {path: share + mse.grad for path, mse in mses.items()}

    def scaled(grad):
        return None if grad is None else weight_crec * grad

    return ImageLoss(
        value=float(value),
        grad_pred_sem_emb=grads.get("sem"),
        grad_pred_det_emb=grads.get("det"),
        grad_recon_sem_direct=scaled(crec.grad_recon_sem_direct),
        grad_recon_det_cross=scaled(crec.grad_recon_det_cross),
        grad_recon_det_direct=scaled(crec.grad_recon_det_direct),
        grad_recon_sem_cross=scaled(crec.grad_recon_sem_cross),
        mg_value=mg.value,
        cka_value=mg.cka_value,
        sims_value=mg.sims_value,
        crec_value=crec.value,
        sem_mse_value=mses["sem"].value if "sem" in mses else None,
        det_mse_value=mses["det"].value if "det" in mses else None,
    )


def grad_check(f, point, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps an array to an object with ``value`` and ``grad`` attributes,
    where ``grad`` has the shape of the argument. The relative error per
    coordinate uses ``max(|analytic|, |numeric|, 1e-8)`` as denominator.
    """
    x = as_array(point, "point")
    analytic = f(x).grad
    if analytic.shape != x.shape:
        raise ShapeMismatch(
            f"analytic gradient shape {analytic.shape} does not match point {x.shape}"
        )
    worst = 0.0
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += h
        minus = x.copy()
        minus[idx] -= h
        f_plus = f(plus).value
        f_minus = f(minus).value
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalFailure(f"non-finite evaluation at index {idx}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(float(analytic[idx])), abs(numeric), 1e-8)
        worst = max(worst, abs(float(analytic[idx]) - numeric) / denom)
        it.iternext()
    return worst
