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

Every term is computed over a leading sample axis, so a training batch
costs one call. The branch totals (:func:`text_total_loss`,
:func:`image_total_loss`) take either one sample or a batch, selected by
the rank of the prediction: a batch has rank-3 predictions, gives ``(n,)``
per-sample values and keeps the sample axis on its gradients. The
single-sample losses run the same code on a batch of one. Each sample's
value and gradient are bit-identical to scoring that sample on its own.
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
    """Text-branch total and its components; for a batch, each value is an (n,) array."""

    value: float
    grad_pred_emb: np.ndarray
    grad_recon_sem: np.ndarray
    mg_value: float
    cka_value: float
    sims_value: float
    recon_value: float


@dataclass(frozen=True)
class ImageLoss:
    """Image-branch total and its components; for a batch, each value is an (n,) array."""

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


def _single(result):
    """A batch-of-one result as a single-sample one: float values, unbatched gradients."""

    def first(x):
        if x is None:
            return None
        if isinstance(x, tuple):
            return tuple(first(v) for v in x)
        return float(x[0]) if x.ndim == 1 else x[0]

    return type(result)(*map(first, vars(result).values()))


def _batch(arrays: dict, batched: bool) -> dict:
    """Validate each named array (None passes) and give it a leading sample axis.

    A single sample gains the axis; in a batch every array already has it,
    and all of them share one sample count.
    """
    out = {}
    for name, x in arrays.items():
        if x is None:
            out[name] = None
            continue
        a = as_array(x, name)
        if not batched:
            a = a[None]
        elif a.ndim < 2:
            raise ShapeMismatch(f"{name}: expected a leading sample axis, got shape {a.shape}")
        out[name] = a
    counts = sorted({a.shape[0] for a in out.values() if a is not None})
    if len(counts) > 1:
        raise ShapeMismatch(f"sample counts differ within the batch: {counts}")
    return out


def _token_pair(target: np.ndarray, pred: np.ndarray, context: str):
    """Check a stacked target/prediction pair: one (n, m, d) shape with m >= 2."""
    for name, a in (("target", target), ("pred", pred)):
        if a.ndim != 3:
            raise ShapeMismatch(f"{name}: expected token matrices, got shape {a.shape[1:]} per sample")
    require_same_shape(target[0], pred[0], context)
    if target.shape[1] < 2:
        raise DegenerateInput(f"{context} requires at least 2 tokens")
    return target, pred


def _mse(target: np.ndarray, pred: np.ndarray, term: str = "MSE", batched: bool = True):
    """Per-sample MSE over a leading sample axis, and its gradient in `pred`.

    `term` names the MSE in the error raised when it overflows.
    """
    with np.errstate(all="ignore"):
        diff = pred - target
        n = diff.shape[0]
        value = (diff * diff).reshape(n, -1).mean(axis=1)
        grad = (2.0 / (diff.size // n)) * diff
    _check_overflow(term, batched, value, grad)
    return value, grad


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows, through the same BLAS dot as ``x @ y`` on one row."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _anchor_cosines(anchor: np.ndarray, rest: np.ndarray, label: str, batched: bool):
    """Cosines between each sample's anchor token and its other tokens, plus norms.

    ``anchor`` is (n, d) and ``rest`` (n, k, d). The norms are computed as
    ``np.linalg.norm`` computes them for one vector (a dot product) and for
    rows (a sum of squares along each row).
    """
    anchor_norm = np.sqrt(_rowdot(anchor, anchor))
    rest_norms = np.linalg.norm(rest, axis=2)
    if not (anchor_norm.all() and rest_norms.all()):
        sample, token = (int(i) for i in np.argwhere(np.column_stack([anchor_norm, rest_norms]) == 0.0)[0])
        where = f"sample {sample}: {label}" if batched else f"{label}:"
        raise DegenerateInput(f"{where} token {token} is a zero vector")
    sims = np.matmul(rest, anchor[:, :, None])[:, :, 0] / (rest_norms * anchor_norm[:, None])
    return sims, anchor_norm, rest_norms


def _check_overflow(term: str, batched: bool, *arrays: np.ndarray) -> None:
    """Raise NumericalFailure for the first sample with a non-finite entry in `arrays`.

    Each array has a leading sample axis. The loss inputs are finite, so a
    non-finite entry is an overflow inside `term`, whose kernel runs with
    floating-point warnings off.
    """
    if np.isfinite(np.concatenate(arrays, axis=None)).all():
        return
    n = arrays[0].shape[0]
    finite = np.isfinite(np.concatenate([x.reshape(n, -1) for x in arrays], axis=1)).all(axis=1)
    where = f"sample {int(np.flatnonzero(~finite)[0])}: " if batched else ""
    raise NumericalFailure(f"{where}{term} term overflows on finite inputs")


def _sims(a: np.ndarray, b: np.ndarray, anchor: str, batched: bool):
    """Per-sample sims loss over a leading sample axis, and its gradient in `b`."""
    if anchor not in ANCHOR_MODES:
        raise ValueError(f"anchor must be one of {ANCHOR_MODES}, got {anchor!r}")
    with np.errstate(all="ignore"):
        s_target, *target_norms = _anchor_cosines(a[:, 0], a[:, 1:], "target", batched)
        anchor_vec = b[:, 0] if anchor == "own_first_token" else a[:, 0]
        rest = b[:, 1:]
        s_pred, anchor_norm, rest_norms = _anchor_cosines(anchor_vec, rest, "pred", batched)

        diff = s_pred - s_target
        value = (diff * diff).mean(axis=1)
        g = (2.0 / diff.shape[1]) * diff  # d value / d s_pred[k]

        grad = np.zeros_like(b)
        # d cos(u, v_k) / d v_k = u / (|u||v_k|) - cos * v_k / |v_k|^2
        inv = 1.0 / (rest_norms * anchor_norm[:, None])
        grad[:, 1:] = (
            g[:, :, None] * inv[:, :, None] * anchor_vec[:, None, :]
            - (g * s_pred / rest_norms**2)[:, :, None] * rest
        )
        if anchor == "own_first_token":
            # d cos(b_0, b_k) / d b_0 = b_k / (|b_0||b_k|) - cos * b_0 / |b_0|^2
            # |b_0|^2 is squared as a Python float (libm pow), which differs from
            # an array's x * x in the last bit on some inputs.
            anchor_sq = np.array([x**2 for x in anchor_norm.tolist()])
            grad[:, 0] = (
                np.matmul((g * inv)[:, None, :], rest)[:, 0]
                - (_rowdot(g, s_pred) / anchor_sq)[:, None] * anchor_vec
            )
    # An overflowing norm gives finite but wrong cosines, so the norms are checked too.
    _check_overflow("sims", batched, *target_norms, anchor_norm, rest_norms, value, grad)
    return value, grad


def _cka(a: np.ndarray, b: np.ndarray, batched: bool):
    """Per-sample CKA loss over a leading sample axis, and its gradient in `b`."""
    with np.errstate(all="ignore"):
        k = a @ a.transpose(0, 2, 1)
        l = b @ b.transpose(0, 2, 1)
        _check_overflow("CKA", batched, k, l)
        k_c = apply_centering(k)
        l_c = apply_centering(l)
        p = (k_c * l).sum(axis=(1, 2))
        q = (k_c * k).sum(axis=(1, 2))
        r = (l_c * l).sum(axis=(1, 2))
        for values, what in ((q, "target"), (r, "prediction")):
            bad = np.flatnonzero(values <= 0.0)
            if bad.size:
                where = f"sample {int(bad[0])}: " if batched else ""
                raise DegenerateInput(f"{where}{what} is a constant representation")
        denom = np.sqrt(q * r)
        value = 1.0 - p / denom
        grad_l = k_c / denom[:, None, None] - (p / (r * denom))[:, None, None] * l_c
        grad = -2.0 * (grad_l @ b)
    # An overflowing denominator gives a finite but wrong value, so it is checked too.
    _check_overflow("CKA", batched, denom, value, grad)
    return value, grad


def _mg(a, b, anchor, weight_cka, weight_sims, batched) -> MgLoss:
    """Per-sample multi-granularity loss over a leading sample axis, components included."""
    cka, grad_cka = _cka(a, b, batched)
    sims, grad_sims = _sims(a, b, anchor, batched)
    return MgLoss(
        weight_cka * cka + weight_sims * sims,
        weight_cka * grad_cka + weight_sims * grad_sims,
        cka,
        sims,
    )


_CREC_TERMS = (
    ("direct semantic reconstruction", "voxels_sem", "recon_sem_direct"),
    ("cross detail reconstruction", "voxels_det", "recon_det_cross"),
    ("direct detail reconstruction", "voxels_det", "recon_det_direct"),
    ("cross semantic reconstruction", "voxels_sem", "recon_sem_cross"),
)


def _crec(arrays: dict, n: int, batched: bool) -> CrecLoss:
    """Reconstruction terms of `n` samples from :func:`_batch` arrays keyed by argument name."""
    value = np.zeros(n)
    grads = []
    terms = []
    for label, signal, name in _CREC_TERMS:
        recon = arrays[name]
        if recon is None:
            grads.append(None)
            terms.append(None)
            continue
        target = arrays[signal]
        if target is None or target.shape != recon.shape:
            shape = None if target is None else target.shape[1:]
            raise ShapeMismatch(f"{label}: target shape {shape} vs reconstruction {recon.shape[1:]}")
        term, grad = _mse(target, recon, label, batched)
        value = value + term
        grads.append(grad)
        terms.append(term)
    return CrecLoss(value, *grads, terms=tuple(terms))


def mse_loss(target, pred) -> LossValueGrad:
    """Mean squared error over all entries; gradient is ``2 (pred - target) / count``."""
    t = as_array(target, "target")
    p = as_array(pred, "pred")
    require_same_shape(t, p, "mse_loss")
    return _single(LossValueGrad(*_mse(t[None], p[None], batched=False)))


def sims_vector(tokens) -> np.ndarray:
    """Cosine of the first token against each remaining token, in order."""
    m = as_matrix(tokens, "tokens")
    if m.shape[0] < 2:
        raise DegenerateInput("sims_vector requires at least 2 tokens")
    sims, _, _ = _anchor_cosines(m[None, 0], m[None, 1:], "tokens", batched=False)
    return np.clip(sims[0], -1.0, 1.0)


def sims_loss(target, pred, anchor: str = "own_first_token") -> LossValueGrad:
    """MSE between the token-similarity patterns of target and prediction.

    The gradient is taken with respect to every entry of `pred`; in
    ``own_first_token`` mode that includes the path through the
    prediction's first token.
    """
    a, b = _token_pair(as_matrix(target, "target")[None], as_matrix(pred, "pred")[None], "sims_loss")
    return _single(LossValueGrad(*_sims(a, b, anchor, batched=False)))


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
    return _single(LossValueGrad(*_cka(a[None], b[None], batched=False)))


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
    a, b = _token_pair(as_matrix(target, "target")[None], as_matrix(pred, "pred")[None], "mg_loss")
    return _single(_mg(a, b, anchor, weight_cka, weight_sims, batched=False))


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
    arrays = _batch(
        dict(
            voxels_sem=voxels_sem,
            voxels_det=voxels_det,
            recon_sem_direct=recon_sem_direct,
            recon_det_cross=recon_det_cross,
            recon_det_direct=recon_det_direct,
            recon_sem_cross=recon_sem_cross,
        ),
        batched=False,
    )
    return _single(_crec(arrays, 1, batched=False))


def text_total_loss(
    text_target,
    text_pred,
    voxels_sem,
    recon_sem,
    anchor: str = "own_first_token",
    weight_cka: float = 1.0,
    weight_sims: float = 1.0,
) -> TextLoss:
    """Text-branch objective: multi-granularity embedding loss plus voxel MSE.

    A rank-3 ``text_pred`` is a batch: every argument then has a leading
    sample axis, the values are ``(n,)`` per-sample losses and the
    gradients keep the sample axis.
    """
    batched = np.ndim(text_pred) == 3
    x = _batch(
        dict(text_target=text_target, text_pred=text_pred, voxels_sem=voxels_sem, recon_sem=recon_sem),
        batched,
    )
    target, pred = _token_pair(x["text_target"], x["text_pred"], "text_total_loss")
    require_same_shape(x["voxels_sem"], x["recon_sem"], "text_total_loss")
    mg = _mg(target, pred, anchor, weight_cka, weight_sims, batched)
    recon, grad_recon = _mse(x["voxels_sem"], x["recon_sem"], "semantic reconstruction", batched)
    loss = TextLoss(
        value=mg.value + recon,
        grad_pred_emb=mg.grad,
        grad_recon_sem=grad_recon,
        mg_value=mg.value,
        cka_value=mg.cka_value,
        sims_value=mg.sims_value,
        recon_value=recon,
    )
    return loss if batched else _single(loss)


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

    Rank-3 path predictions are a batch, as in :func:`text_total_loss`.
    """
    batched = np.ndim(pred_det_emb if pred_sem_emb is None else pred_sem_emb) == 3
    x = _batch(
        dict(
            fused_target=fused_target,
            pred_sem_emb=pred_sem_emb,
            pred_det_emb=pred_det_emb,
            sem_emb_target=sem_emb_target,
            det_emb_target=det_emb_target,
            voxels_sem=voxels_sem,
            voxels_det=voxels_det,
            recon_sem_direct=recon_sem_direct,
            recon_det_cross=recon_det_cross,
            recon_det_direct=recon_det_direct,
            recon_sem_cross=recon_sem_cross,
        ),
        batched,
    )
    preds = {path: x[f"pred_{path}_emb"] for path in ("sem", "det") if x[f"pred_{path}_emb"] is not None}
    target, fused_pred = _token_pair(x["fused_target"], fuse_targets(*preds.values()), "image_total_loss")
    mg = _mg(target, fused_pred, anchor, weight_cka, weight_sims, batched)
    crec = _crec(x, target.shape[0], batched)
    mses = {}
    for path, pred in preds.items():
        path_target = x[f"{path}_emb_target"]
        if path_target is None:
            raise ShapeMismatch(f"{path}_emb_target: required when pred_{path}_emb is given")
        require_same_shape(path_target, pred, f"{path} path MSE")
        mses[path] = _mse(path_target, pred, f"{path} path MSE", batched)
    value = mg.value + weight_crec * crec.value
    for mse_value, _ in mses.values():
        value = value + mse_value
    share = mg.grad / len(preds)
    grads = {path: share + mse_grad for path, (_, mse_grad) in mses.items()}

    def scaled(grad):
        return None if grad is None else weight_crec * grad

    loss = ImageLoss(
        value=value,
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
        sem_mse_value=mses["sem"][0] if "sem" in mses else None,
        det_mse_value=mses["det"][0] if "det" in mses else None,
    )
    return loss if batched else _single(loss)


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
    return _central_differences(lambda stack: [f(p).value for p in stack], x, analytic, h)


def _central_differences(values_at, point: np.ndarray, analytic: np.ndarray, h: float) -> float:
    """The loop behind :func:`grad_check`: one ``values_at`` call scores the whole :func:`_perturbed_stack`."""
    return _worst_relative_error(values_at(_perturbed_stack(point, h)), analytic, h)


def _perturbed_stack(point: np.ndarray, h: float) -> np.ndarray:
    """For each coordinate of `point` in ``np.ndindex`` order, a copy moved by +h, then one moved by -h."""
    stack = np.repeat(point[None], 2 * point.size, axis=0)
    rows, view = np.arange(point.size), stack.reshape(point.size, 2, point.size)
    view[rows, 0, rows] += h
    view[rows, 1, rows] -= h
    return stack


def _worst_relative_error(values, analytic: np.ndarray, h: float) -> float:
    """:func:`grad_check`'s error from the values of a :func:`_perturbed_stack`, one per row.

    A non-finite value raises :class:`NumericalFailure` naming the coordinate it moved.
    """
    pairs = np.asarray(values, dtype=np.float64).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if bad.size:
        idx = tuple(int(i) for i in np.unravel_index(bad[0], np.shape(analytic)))
        raise NumericalFailure(f"non-finite evaluation at index {idx}")
    numeric = (pairs[:, 0] - pairs[:, 1]) / (2.0 * h)
    a = np.asarray(analytic, dtype=np.float64).ravel()
    errors = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(errors.max(initial=0.0))
