"""Dual-branch voxel-to-embedding network with explicit forward and backward.

The text branch maps semantic-region voxels to a text-embedding matrix;
the image branch maps semantic-region and full detail voxels through two
encoders to a shared backbone and output decoder, producing two
image-embedding predictions whose mean is the fused prediction. Each
encoder has a paired voxel decoder used for direct and cross
reconstruction.

Blocks are single affine layers with ReLU and inverted dropout; the two
backbone blocks are dimension-preserving and carry a residual connection,
while encoders and decoders change width and do not. Output decoders are
plain affine maps (signed targets). Dropout masks are recorded during
training forwards so the backward pass and finite-difference replays see
exactly the same network.

Each branch is an ordered block list derived from its active paths (see
:func:`_plan`); one forward and one backward walker run every variant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._arrays import as_matrix
from .config import PARSERS, format_value
from .data import SynthConfig, fuse_targets
from .errors import (
    DegenerateInput,
    FormatError,
    InvalidState,
    ShapeMismatch,
)
from .matio import load_matrix, save_matrix
from .rng import Rng

# Structural variant -> active image-branch paths, in block order.
_VARIANT_PATHS = {
    "full": ("sem", "det"),
    "full_no_crec": ("sem", "det"),
    "text_semantic": ("sem",),
    "text_detail": ("det",),
    "text_only": (),
}
VARIANTS = tuple(_VARIANT_PATHS)


@dataclass(frozen=True)
class ModelConfig:
    """Network dimensions and dropout rates.

    Desk-scale defaults live in :func:`desk_config`. At full scale the
    embedding targets would be CLIP ViT-L/14 shaped (77x768 text tokens,
    257x768 image tokens); nothing in the network depends on that choice.
    """

    n_semantic_voxels: int
    n_detail_voxels: int
    latent_dim: int
    text_tokens: int
    text_dim: int
    image_tokens: int
    image_dim: int
    dropout_codec: float = 0.15
    dropout_backbone: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and int(value) < 1:
                raise DegenerateInput(f"{f.name} must be >= 1")
            if f.type == "float" and not 0.0 <= float(value) < 1.0:
                raise DegenerateInput(f"{f.name} must lie in [0, 1), got {float(value)}")


def desk_config() -> ModelConfig:
    """Desk-scale model for a dataset of default :class:`SynthConfig` shape."""
    synth = SynthConfig()
    return ModelConfig(
        n_semantic_voxels=synth.n_high_voxels,
        n_detail_voxels=synth.n_detail_voxels,
        latent_dim=128,
        text_tokens=synth.text_tokens,
        text_dim=synth.text_dim,
        image_tokens=synth.image_tokens,
        image_dim=synth.image_dim,
    )


def image_paths(variant: str) -> tuple:
    """Image-branch paths present under a structural variant."""
    if variant not in _VARIANT_PATHS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return _VARIANT_PATHS[variant]


class _Block(NamedTuple):
    """One block application: reads activation ``src``, writes ``dst``."""

    weight: str
    bias: str
    key: str  # cache entry and dropout-mask name
    src: str
    dst: str
    kind: str  # "encoder", "decoder", "backbone" or "output"
    n_in: str  # width names, see _widths
    n_out: str


def _block(tensor, key, src, dst, kind, n_in, n_out) -> _Block:
    return _Block(f"{tensor}.W", f"{tensor}.b", key, src, dst, kind, n_in, n_out)


# Per-branch names; the text branch has one path and no per-path suffixes.
_NAMES = {
    "text": dict(
        encoder="text.encoder", decoder="text.decoder", decoder_key="text.decoder",
        trunk_key="text.{block}", code="code", recon="recon_sem", pred="pred_emb",
    ),
    "image": dict(
        encoder="image.encoder_{p}", decoder="image.decoder_{q}",
        decoder_key="image.decoder_{q}@{how}", trunk_key="image.{block}@{p}",
        code="code_{p}", recon="recon_{q}_{how}", pred="pred_{p}_emb",
    ),
}


@functools.lru_cache(maxsize=None)
def _plan(branch: str, paths: tuple) -> tuple:
    """(forward, backward) block orders of a branch with the given paths.

    The blocks form three stages: an encoder per path; the decoders of each
    source path, direct then cross; and the shared trunk
    ``backbone1 -> backbone2 -> output`` per path. Forward runs everything
    in order, which is also the order of the dropout draws. Backward runs
    the stages in reverse, each stage's chains in forward order and each
    chain's blocks in reverse, so every code gradient sums its trunk term
    first and then its decoder terms in forward order.
    """
    names = _NAMES[branch]
    encoders, decoders, trunks = [], [], []
    for p in paths:
        code = names["code"].format(p=p)
        encoder = names["encoder"].format(p=p)
        encoders.append([_block(encoder, encoder, f"voxels_{p}", code, "encoder", p, "latent")])
        for q in (p,) + tuple(other for other in paths if other != p):
            how = "direct" if q == p else "cross"
            decoders.append([_block(
                names["decoder"].format(q=q), names["decoder_key"].format(q=q, how=how),
                code, names["recon"].format(q=q, how=how), "decoder", "latent", q,
            )])
        h1, h2, out = (names["trunk_key"].format(block=b, p=p) for b in ("backbone1", "backbone2", "output"))
        trunks.append([
            _block(f"{branch}.backbone1", h1, code, h1, "backbone", "latent", "latent"),
            _block(f"{branch}.backbone2", h2, h1, h2, "backbone", "latent", "latent"),
            _block(f"{branch}.output", out, h2, names["pred"].format(p=p), "output", "latent", branch),
        ])
    stages = (encoders, decoders, trunks)
    forward = tuple(b for stage in stages for chain in stage for b in chain)
    backward = tuple(b for stage in reversed(stages) for chain in stage for b in reversed(chain))
    return forward, backward


def _widths(cfg: ModelConfig) -> dict:
    return {
        "sem": cfg.n_semantic_voxels,
        "det": cfg.n_detail_voxels,
        "latent": cfg.latent_dim,
        "text": cfg.text_tokens * cfg.text_dim,
        "image": cfg.image_tokens * cfg.image_dim,
    }


def expected_tensors(cfg: ModelConfig, variant: str = "full") -> dict:
    """Tensor name -> shape map for a variant; biases are 1-D."""
    return dict(_tensor_shapes(cfg, variant))


@functools.lru_cache(maxsize=64)
def _tensor_shapes(cfg: ModelConfig, variant: str) -> tuple:
    widths = _widths(cfg)
    shapes = {}
    for blk in _plan("text", ("sem",))[0] + _plan("image", image_paths(variant))[0]:
        shapes[blk.weight] = (widths[blk.n_in], widths[blk.n_out])
        shapes[blk.bias] = (widths[blk.n_out],)
    return tuple(shapes.items())


@dataclass
class ModelParams:
    """All network weights for one variant, keyed by tensor name."""

    cfg: ModelConfig
    variant: str
    tensors: dict = field(repr=False)

    def __post_init__(self):
        expected = expected_tensors(self.cfg, self.variant)
        missing = sorted(set(expected) - set(self.tensors))
        extra = sorted(set(self.tensors) - set(expected))
        if missing or extra:
            raise ShapeMismatch(
                f"tensor set mismatch for variant {self.variant!r}: "
                f"missing {missing}, unexpected {extra}"
            )
        for name, shape in expected.items():
            t = np.asarray(self.tensors[name], dtype=np.float64)
            if t.shape != shape:
                raise ShapeMismatch(f"{name}: shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise DegenerateInput(f"{name}: contains non-finite entries")
            self.tensors[name] = t

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.cfg, self.variant, {k: v.copy() for k, v in self.tensors.items()}
        )


def init_params(cfg: ModelConfig, rng: Rng, variant: str = "full") -> ModelParams:
    """Glorot-uniform weights, zero biases; one child stream per tensor."""
    tensors = {}
    for name, shape in expected_tensors(cfg, variant).items():
        if len(shape) == 1:
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in, fan_out = shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.child(f"init/{name}").uniform(-bound, bound, *shape)
    return ModelParams(cfg, variant, tensors)


def param_count(cfg: ModelConfig, variant: str = "full") -> int:
    """Exact number of scalar parameters in a variant."""
    return int(sum(int(np.prod(s)) for s in expected_tensors(cfg, variant).values()))


def _apply_layer(x, weight, bias, rate, rng, masks, key, caches, residual, train):
    z = x @ weight + bias
    activated = np.maximum(z, 0.0)
    mask = None
    if train:
        if masks is not None:
            if key not in masks:
                raise InvalidState(f"missing dropout mask for {key!r}")
            mask = masks[key]
            if mask.shape != activated.shape:
                raise ShapeMismatch(
                    f"mask for {key!r} has shape {mask.shape}, expected {activated.shape}"
                )
        else:
            keep = rng.random(*activated.shape) >= rate
            mask = keep.astype(np.float64) / (1.0 - rate)
        dropped = activated * mask
    else:
        dropped = activated
    y = x + dropped if residual else dropped
    caches[key] = {"x": x, "z": z, "mask": mask}
    return y


def mlp_block_forward(x, weight, bias, dropout_rate, rng: Rng = None, mask=None):
    """Single network block: ``dropout(relu(x W + b))`` plus a residual path
    when the block preserves width.

    Training mode is selected by passing `rng` (a fresh mask is drawn) or
    `mask` (an inverted-dropout mask is replayed); with neither, the block
    runs in inference mode, which applies no mask and no rescaling. Returns
    the output and the mask used (None in inference).
    """
    xm = as_matrix(x, "x")
    w = as_matrix(weight, "weight")
    b = np.asarray(bias, dtype=np.float64)
    if xm.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"x has {xm.shape[1]} columns, weight expects {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch(f"bias shape {b.shape}, expected ({w.shape[1]},)")
    rate = float(dropout_rate)
    if not 0.0 <= rate < 1.0:
        raise DegenerateInput(f"dropout_rate must lie in [0, 1), got {rate}")
    train = rng is not None or mask is not None
    masks = None if mask is None else {"block": np.asarray(mask, dtype=np.float64)}
    caches = {}
    y = _apply_layer(
        xm,
        w,
        b,
        rate,
        rng,
        masks,
        "block",
        caches,
        residual=w.shape[0] == w.shape[1],
        train=train,
    )
    return y, caches["block"]["mask"]


@dataclass
class TextForward:
    """Text-branch activations for one batch (first axis is the sample)."""

    code: np.ndarray
    recon_sem: np.ndarray
    pred_emb: np.ndarray
    caches: dict = field(repr=False)


@dataclass
class ImageForward:
    """Image-branch activations; absent paths hold None."""

    code_sem: np.ndarray
    code_det: np.ndarray
    recon_sem_direct: np.ndarray
    recon_det_cross: np.ndarray
    recon_det_direct: np.ndarray
    recon_sem_cross: np.ndarray
    pred_sem_emb: np.ndarray
    pred_det_emb: np.ndarray
    pred_fused_emb: np.ndarray
    caches: dict = field(repr=False)


def _as_batch(x, width, name):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != width:
        raise ShapeMismatch(f"{name}: expected (n, {width}), got {np.asarray(x).shape}")
    if not np.all(np.isfinite(a)):
        raise DegenerateInput(f"{name}: contains non-finite entries")
    return a


def _forward(branch, paths, params: ModelParams, voxels: dict, rng, masks):
    """Run a branch's blocks; returns (activations by name, caches)."""
    cfg = params.cfg
    t = params.tensors
    widths = _widths(cfg)
    rates = {"encoder": cfg.dropout_codec, "decoder": cfg.dropout_codec, "backbone": cfg.dropout_backbone}
    train = rng is not None or masks is not None
    caches = {"mode": "train" if train else "infer"}
    acts = {}
    for weight, bias, key, src, dst, kind, n_in, _ in _plan(branch, paths)[0]:
        if kind == "encoder":
            acts[src] = _as_batch(voxels[src], widths[n_in], src)
        x = acts[src]
        if kind == "output":
            caches[key] = {"x": x}
            acts[dst] = x @ t[weight] + t[bias]
        else:
            acts[dst] = _apply_layer(
                x, t[weight], t[bias], rates[kind], rng, masks, key, caches,
                residual=kind == "backbone", train=train,
            )
    return acts, caches


def text_branch_forward(
    voxels_sem, params: ModelParams, rng: Rng = None, masks: dict = None
) -> TextForward:
    """Run the text branch on a batch (or single vector) of semantic voxels."""
    cfg = params.cfg
    acts, caches = _forward("text", ("sem",), params, {"voxels_sem": voxels_sem}, rng, masks)
    pred = acts["pred_emb"].reshape(-1, cfg.text_tokens, cfg.text_dim)
    return TextForward(code=acts["code"], recon_sem=acts["recon_sem"], pred_emb=pred, caches=caches)


_IMAGE_CODES_AND_RECONS = (
    "code_sem", "code_det", "recon_sem_direct", "recon_det_cross", "recon_det_direct", "recon_sem_cross",
)
_IMAGE_PREDS = ("pred_sem_emb", "pred_det_emb")


def image_branch_forward(
    voxels_sem, voxels_det, params: ModelParams, rng: Rng = None, masks: dict = None
) -> ImageForward:
    """Run the image branch; backbone and output decoder are shared across paths.

    The fused prediction is the elementwise mean of the active path
    predictions; with a single active path the fusion is the identity.
    """
    cfg = params.cfg
    paths = image_paths(params.variant)
    if not paths:
        raise InvalidState(f"variant {params.variant!r} has no image branch")
    voxels = {"voxels_sem": voxels_sem, "voxels_det": voxels_det}
    acts, caches = _forward("image", paths, params, voxels, rng, masks)
    preds = {
        name: acts[name].reshape(-1, cfg.image_tokens, cfg.image_dim)
        for name in _IMAGE_PREDS
        if name in acts
    }
    return ImageForward(
        **{name: acts.get(name) for name in _IMAGE_CODES_AND_RECONS},
        pred_sem_emb=preds.get("pred_sem_emb"),
        pred_det_emb=preds.get("pred_det_emb"),
        pred_fused_emb=fuse_targets(*preds.values()),
        caches=caches,
    )


def _layer_backward(caches, key, g_y, train):
    """Weight, bias and pre-activation gradients of one dropout-ReLU block."""
    cache = caches[key]
    if train:
        mask = cache["mask"]
        if mask is None:
            raise InvalidState(f"train-mode backward without recorded mask for {key!r}")
        g_dropped = g_y * mask
    else:
        g_dropped = g_y
    g_z = g_dropped * (cache["z"] > 0.0)
    return cache["x"].T @ g_z, g_z.sum(axis=0), g_z


def _backward(branch, paths, params: ModelParams, fwd, upstream: dict) -> dict:
    """Accumulate a branch's parameter gradients from upstream output grads.

    ``upstream`` maps forward-result field names to gradients; None
    contributes nothing, and a gradient for an absent output is an error.
    """
    t = params.tensors
    caches = fwd.caches
    train = caches["mode"] == "train"
    grads = {k: np.zeros_like(v) for k, v in t.items() if k.startswith(branch + ".")}
    g_acts = {}
    for name, g in upstream.items():
        if g is None:
            continue
        out = getattr(fwd, name)
        if out is None:
            raise InvalidState(f"gradient supplied for absent output {name!r}")
        g_acts[name] = np.asarray(g, dtype=np.float64).reshape(out.shape[0], -1)
    for weight, bias, key, src, dst, kind, _, _ in _plan(branch, paths)[1]:
        g_y = g_acts.get(dst)
        if g_y is None:
            continue
        if kind == "output":
            g_w, g_b, g_z = caches[key]["x"].T @ g_y, g_y.sum(axis=0), g_y
        else:
            g_w, g_b, g_z = _layer_backward(caches, key, g_y, train)
        grads[weight] += g_w
        grads[bias] += g_b
        if kind == "encoder":
            continue  # voxel inputs need no gradient
        g_x = g_z @ t[weight].T
        if kind == "backbone":
            g_x = g_x + g_y
        prev = g_acts.get(src)
        g_acts[src] = g_x if prev is None else prev + g_x
    return grads


def text_branch_backward(
    params: ModelParams, fwd: TextForward, grad_pred_emb, grad_recon_sem
) -> dict:
    """Accumulate text-branch parameter gradients for the given upstream grads."""
    upstream = {"pred_emb": grad_pred_emb, "recon_sem": grad_recon_sem}
    return _backward("text", ("sem",), params, fwd, upstream)


def image_branch_backward(
    params: ModelParams,
    fwd: ImageForward,
    grad_pred_sem_emb=None,
    grad_pred_det_emb=None,
    grad_recon_sem_direct=None,
    grad_recon_det_cross=None,
    grad_recon_det_direct=None,
    grad_recon_sem_cross=None,
) -> dict:
    """Accumulate image-branch parameter gradients.

    Upstream gradients for absent outputs must be None; present outputs with
    a None upstream contribute nothing.
    """
    upstream = {
        "pred_sem_emb": grad_pred_sem_emb,
        "pred_det_emb": grad_pred_det_emb,
        "recon_sem_direct": grad_recon_sem_direct,
        "recon_det_cross": grad_recon_det_cross,
        "recon_det_direct": grad_recon_det_direct,
        "recon_sem_cross": grad_recon_sem_cross,
    }
    return _backward("image", image_paths(params.variant), params, fwd, upstream)


def collect_masks(caches: dict) -> dict:
    """Extract the dropout masks recorded by a training forward, for replay."""
    if caches.get("mode") != "train":
        raise InvalidState("masks are only recorded by training-mode forwards")
    masks = {}
    for key, entry in caches.items():
        if key == "mode" or entry.get("mask") is None:
            continue
        masks[key] = entry["mask"]
    return masks


def save_params(params: ModelParams, directory) -> None:
    """Write a checkpoint: one MAT1 file per tensor plus manifest and config."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for name in sorted(params.tensors):
        tensor = params.tensors[name]
        matrix = tensor[None, :] if tensor.ndim == 1 else tensor
        filename = f"{name}.mat1"
        save_matrix(matrix, out / filename)
        manifest_lines.append(f"{name}={filename} {matrix.shape[0]} {matrix.shape[1]}")
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    cfg_lines = [f"variant={params.variant}"] + [
        f"{f.name}={format_value(getattr(params.cfg, f.name))}" for f in fields(ModelConfig)
    ]
    (out / "model.cfg").write_text("\n".join(sorted(cfg_lines)) + "\n", encoding="utf-8")


def load_params(directory) -> ModelParams:
    """Load a checkpoint written by :func:`save_params`; bit-exact round trip."""
    root = Path(directory)
    cfg_path = root / "model.cfg"
    if not cfg_path.exists():
        raise FormatError(f"missing model.cfg in {root}", offset=0)
    entries = {}
    for line in cfg_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key] = value
    try:
        variant = entries["variant"]
        cfg = ModelConfig(**{f.name: PARSERS[f.type](entries[f.name]) for f in fields(ModelConfig)})
    except KeyError as exc:
        raise FormatError(f"model.cfg missing key {exc}", offset=0) from exc
    except ValueError as exc:
        raise FormatError(f"model.cfg: {exc}", offset=0) from exc
    if variant not in VARIANTS:
        raise FormatError(f"model.cfg: unknown variant {variant!r}", offset=0)

    manifest_path = root / "manifest.txt"
    if not manifest_path.exists():
        raise FormatError(f"missing manifest.txt in {root}", offset=0)
    expected = expected_tensors(cfg, variant)
    tensors = {}
    text = manifest_path.read_text(encoding="utf-8")
    resolved_root = root.resolve()
    offset = 0
    for line in text.splitlines():
        if line.strip():
            try:
                name, rest = line.split("=", 1)
                filename, rows, cols = rest.split(" ")
                rows, cols = int(rows), int(cols)
            except ValueError:
                raise FormatError(f"malformed manifest line {line!r}", offset=offset) from None
            if not (root / filename).resolve().is_relative_to(resolved_root):
                raise FormatError(
                    f"manifest line {line!r} names a file outside {root}", offset=offset
                )
            matrix = load_matrix(root / filename)
            if matrix.shape != (rows, cols):
                raise FormatError(
                    f"{filename}: stored shape {matrix.shape} disagrees with manifest "
                    f"({rows}, {cols})",
                    offset=offset,
                )
            if name in expected and len(expected[name]) == 1:
                if rows != 1:
                    raise FormatError(f"{name}: bias must be stored 1 x n", offset=offset)
                tensors[name] = matrix[0]
            else:
                tensors[name] = matrix
        offset += len(line) + 1
    return ModelParams(cfg, variant, tensors)
