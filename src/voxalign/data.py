"""Planted-structure synthetic data and dataset serialization.

The generator draws two latent factor vectors per stimulus: a detail
factor and a semantic factor. Low-level voxels mix the detail factor,
high-level voxels mix the semantic factor, and each planted embedding
layer mixes the two with a layer-specific weight ``alpha`` that decreases
with depth and reaches exactly zero at the final layer. Caption
embeddings are noisy views of the semantic factor. This reproduces the
structural assumptions the decoder exploits (detail signal lives early
and in low-level voxels, semantic signal lives late and in high-level
voxels) without any external data.

Region convention: the detail voxel vector is the full recording and the
semantic vector is its high-level slice, so semantic voxels are a subset
of detail voxels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._arrays import as_matrix
from .alignment import LayerStack
from .config import format_value
from .errors import DegenerateInput, FormatError, RangeError, ShapeMismatch
from .matio import load_matrix, save_matrix
from .rng import Rng

MAX_CAPTIONS = 5


@dataclass(frozen=True)
class RegionMask:
    """Per-voxel region labels; semantic voxels are the high-level ones."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        if not labels:
            raise DegenerateInput("mask has no voxels")
        bad = sorted({l for l in labels} - {"low", "high"})
        if bad:
            raise DegenerateInput(f"unknown region labels {bad}; use 'low' or 'high'")
        if "high" not in labels:
            raise DegenerateInput("mask needs at least one high-level voxel")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def blocks(cls, n_low: int, n_high: int) -> "RegionMask":
        """Contiguous layout: low-level voxels first, high-level after."""
        return cls(("low",) * n_low + ("high",) * n_high)

    @property
    def n_detail(self) -> int:
        return len(self.labels)

    @property
    def n_low(self) -> int:
        return self.n_detail - self.n_semantic

    @property
    def n_semantic(self) -> int:
        return sum(1 for l in self.labels if l == "high")

    @property
    def high_indices(self) -> np.ndarray:
        return np.array([i for i, l in enumerate(self.labels) if l == "high"], dtype=int)

    @property
    def low_indices(self) -> np.ndarray:
        return np.array([i for i, l in enumerate(self.labels) if l == "low"], dtype=int)


def split_regions(voxels, mask: RegionMask):
    """Return ``(semantic, detail)`` views of a voxel vector or batch.

    The detail part is the input unchanged; the semantic part is the
    high-level slice in stored voxel order. Works on a single vector or on
    a (stimuli, voxels) matrix.
    """
    v = np.asarray(voxels, dtype=np.float64)
    axis = v.ndim - 1
    if v.ndim not in (1, 2) or v.shape[axis] != mask.n_detail:
        raise ShapeMismatch(
            f"voxels have shape {v.shape}, mask expects {mask.n_detail} voxels"
        )
    semantic = np.take(v, mask.high_indices, axis=axis)
    return semantic, v


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; all structure is a pure function of these."""

    n_train: int = 512
    n_test: int = 64
    n_low_voxels: int = 80
    n_high_voxels: int = 60
    k_semantic: int = 12
    k_detail: int = 16
    n_layers: int = 6
    alpha_schedule: tuple = (0.9, 0.72, 0.54, 0.36, 0.18, 0.0)
    noise_voxel_low: float = 0.1
    noise_voxel_high: float = 0.1
    noise_layer: float = 0.1
    noise_caption: float = 0.25
    text_tokens: int = 8
    text_dim: int = 16
    image_tokens: int = 12
    image_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in (
            "n_train", "n_test", "n_low_voxels", "n_high_voxels",
            "k_semantic", "k_detail", "n_layers",
            "text_tokens", "text_dim", "image_tokens", "image_dim",
        ):
            if int(getattr(self, name)) < 1:
                raise DegenerateInput(f"{name} must be >= 1")
        alphas = tuple(float(a) for a in self.alpha_schedule)
        if len(alphas) != self.n_layers:
            raise DegenerateInput(
                f"alpha_schedule has {len(alphas)} entries for {self.n_layers} layers"
            )
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise DegenerateInput("alpha_schedule must be strictly decreasing")
        if alphas[-1] != 0.0:
            raise DegenerateInput("alpha_schedule must end at exactly 0.0")
        if any(a < 0.0 or a > 1.0 for a in alphas):
            raise DegenerateInput("alpha_schedule entries must lie in [0, 1]")
        for name in ("noise_voxel_low", "noise_voxel_high", "noise_layer", "noise_caption"):
            if float(getattr(self, name)) < 0.0:
                raise DegenerateInput(f"{name} must be >= 0")
        object.__setattr__(self, "alpha_schedule", alphas)

    @property
    def n_stimuli(self) -> int:
        return self.n_train + self.n_test

    @property
    def n_detail_voxels(self) -> int:
        return self.n_low_voxels + self.n_high_voxels


@dataclass
class Dataset:
    """Voxel recordings plus embedding targets for every stimulus."""

    voxels: np.ndarray  # (n, n_detail_voxels)
    mask: RegionMask
    layers: LayerStack  # each (n, image_tokens * image_dim)
    captions: list  # per stimulus: list of (text_tokens, text_dim) matrices
    meta: dict = field(repr=False)

    @property
    def n(self) -> int:
        return self.voxels.shape[0]

    @property
    def n_train(self) -> int:
        return int(self.meta["n_train"])

    @property
    def n_test(self) -> int:
        return int(self.meta["n_test"])

    @property
    def train_slice(self) -> slice:
        return slice(0, self.n_train)

    @property
    def test_slice(self) -> slice:
        return slice(self.n_train, self.n)

    @property
    def image_token_shape(self) -> tuple:
        return int(self.meta["image_tokens"]), int(self.meta["image_dim"])

    def text_targets(self) -> np.ndarray:
        """Per-stimulus caption average, shape (n, text_tokens, text_dim)."""
        return np.stack([average_captions(c) for c in self.captions])

    def image_targets(self, layer_lo: int, layer_hi: int, semantic_from_final: bool) -> dict:
        """Per-path image targets ``{"sem": ..., "det": ...}``, each (n, image_tokens, image_dim).

        The detail target averages the planted layers in [layer_lo, layer_hi];
        the semantic target is the final layer, or the same average when
        ``semantic_from_final`` is false (the layer scan's setting).
        """
        tokens, dim = self.image_token_shape
        det = average_layers(self.layers, layer_lo, layer_hi).reshape(self.n, tokens, dim)
        if semantic_from_final:
            sem = self.layers.layer(self.layers.final_id).reshape(self.n, tokens, dim)
        else:
            sem = det
        return {"sem": sem, "det": det}


def average_captions(embeddings) -> np.ndarray:
    """Elementwise mean of a nonempty list of equal-shape caption embeddings."""
    if len(embeddings) == 0:
        raise DegenerateInput("caption list is empty")
    mats = [as_matrix(e, f"caption {i}") for i, e in enumerate(embeddings)]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatch(f"caption {i} has shape {m.shape}, expected {shape}")
    return np.mean(mats, axis=0)


def average_layers(stack: LayerStack, lo: int, hi: int) -> np.ndarray:
    """Elementwise mean of the stack's layers with ids in [lo, hi]."""
    if lo > hi:
        raise RangeError(f"empty layer range [{lo}, {hi}]")
    if lo not in stack.layer_ids or hi not in stack.layer_ids:
        raise RangeError(
            f"range [{lo}, {hi}] not covered by layer ids {stack.layer_ids}"
        )
    selected = [f for i, f in zip(stack.layer_ids, stack.features) if lo <= i <= hi]
    return np.mean(selected, axis=0)


def fuse_targets(*arrays) -> np.ndarray:
    """Elementwise mean of equal-shape per-path arrays (targets or predictions).

    This is the image branch's fusion rule; with one path it is the identity.
    """
    if not arrays:
        raise DegenerateInput("fuse_targets needs at least one array")
    arrs = [np.asarray(a, dtype=np.float64) for a in arrays]
    for a in arrs[1:]:
        if a.shape != arrs[0].shape:
            raise ShapeMismatch(f"fuse_targets: shapes {arrs[0].shape} and {a.shape} differ")
    total = arrs[0]
    for a in arrs[1:]:
        total = total + a
    return total / len(arrs)


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Generate a planted-structure dataset; bit-reproducible from the config."""
    rng = Rng(cfg.seed, "synth")
    n = cfg.n_stimuli
    image_width = cfg.image_tokens * cfg.image_dim
    text_width = cfg.text_tokens * cfg.text_dim

    # Fixed per-dataset mixing matrices, scaled for unit signal variance.
    mix_low = rng.child("mix/voxels_low").normal(cfg.k_detail, cfg.n_low_voxels)
    mix_low /= np.sqrt(cfg.k_detail)
    mix_high = rng.child("mix/voxels_high").normal(cfg.k_semantic, cfg.n_high_voxels)
    mix_high /= np.sqrt(cfg.k_semantic)
    mix_layer_det = rng.child("mix/layer_detail").normal(cfg.k_detail, image_width)
    mix_layer_det /= np.sqrt(cfg.k_detail)
    mix_layer_sem = rng.child("mix/layer_semantic").normal(cfg.k_semantic, image_width)
    mix_layer_sem /= np.sqrt(cfg.k_semantic)
    mix_text = rng.child("mix/text").normal(cfg.k_semantic, text_width)
    mix_text /= np.sqrt(cfg.k_semantic)

    z_det = rng.child("factors/detail").normal(n, cfg.k_detail)
    z_sem = rng.child("factors/semantic").normal(n, cfg.k_semantic)

    voxels_low = z_det @ mix_low
    voxels_low += cfg.noise_voxel_low * rng.child("noise/voxels_low").normal(n, cfg.n_low_voxels)
    voxels_high = z_sem @ mix_high
    voxels_high += cfg.noise_voxel_high * rng.child("noise/voxels_high").normal(n, cfg.n_high_voxels)
    voxels = np.hstack([voxels_low, voxels_high])
    mask = RegionMask.blocks(cfg.n_low_voxels, cfg.n_high_voxels)

    detail_part = z_det @ mix_layer_det
    semantic_part = z_sem @ mix_layer_sem
    features = []
    for index, alpha in enumerate(cfg.alpha_schedule):
        layer = alpha * detail_part + (1.0 - alpha) * semantic_part
        layer = layer + cfg.noise_layer * rng.child(f"noise/layer_{index + 1}").normal(n, image_width)
        features.append(layer)
    layers = LayerStack(tuple(range(1, cfg.n_layers + 1)), tuple(features))

    caption_counts = rng.child("caption_counts").integers(1, MAX_CAPTIONS + 1, n)
    caption_noise = rng.child("noise/captions")
    text_base = z_sem @ mix_text
    captions = []
    for i in range(n):
        base = text_base[i].reshape(cfg.text_tokens, cfg.text_dim)
        captions.append(
            [
                base + cfg.noise_caption * caption_noise.normal(cfg.text_tokens, cfg.text_dim)
                for _ in range(int(caption_counts[i]))
            ]
        )

    meta = {f.name: format_value(getattr(cfg, f.name)) for f in fields(cfg)}
    return Dataset(voxels=voxels, mask=mask, layers=layers, captions=captions, meta=meta)


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset directory: voxels, mask, layers, captions, meta."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    save_matrix(dataset.voxels, root / "voxels.mat1")
    (root / "mask.txt").write_text("\n".join(dataset.mask.labels) + "\n", encoding="utf-8")
    layer_dir = root / "layers"
    layer_dir.mkdir(exist_ok=True)
    for layer_id, features in zip(dataset.layers.layer_ids, dataset.layers.features):
        save_matrix(features, layer_dir / f"layer_{layer_id}.mat1")
    caption_root = root / "captions"
    caption_root.mkdir(exist_ok=True)
    for i, caption_list in enumerate(dataset.captions):
        stim_dir = caption_root / str(i)
        stim_dir.mkdir(exist_ok=True)
        for j, emb in enumerate(caption_list):
            save_matrix(emb, stim_dir / f"{j}.mat1")
    meta_lines = [f"{k}={dataset.meta[k]}" for k in sorted(dataset.meta)]
    (root / "meta.txt").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")


def _project_layer(flat: np.ndarray, projection: np.ndarray, tokens: int) -> np.ndarray:
    n, width = flat.shape
    d_in = projection.shape[0]
    if width != tokens * d_in:
        raise ShapeMismatch(
            f"layer width {width} is not {tokens} tokens x {d_in} projection rows"
        )
    projected = flat.reshape(n, tokens, d_in) @ projection
    return projected.reshape(n, tokens * projection.shape[1])


def load_dataset(directory) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`.

    If a ``projection.mat1`` file is present, every layer's token
    embeddings are right-multiplied by it at ingestion; this maps wider
    per-token features (as an external backbone would emit before its
    final projection) down to the dataset's common width.
    """
    root = Path(directory)
    meta_path = root / "meta.txt"
    if not meta_path.exists():
        raise FormatError(f"missing meta.txt in {root}", offset=0)
    meta = {}
    for line in meta_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            meta[key] = value

    voxels = load_matrix(root / "voxels.mat1")
    labels = tuple(
        l for l in (root / "mask.txt").read_text(encoding="utf-8").splitlines() if l
    )
    mask = RegionMask(labels)
    if voxels.shape[1] != mask.n_detail:
        raise ShapeMismatch(
            f"voxels have {voxels.shape[1]} columns, mask lists {mask.n_detail} voxels"
        )

    projection = None
    projection_path = root / "projection.mat1"
    if projection_path.exists():
        projection = load_matrix(projection_path)
        if projection.shape[1] != int(meta["image_dim"]):
            raise ShapeMismatch(
                f"projection maps to width {projection.shape[1]}, dataset "
                f"expects {meta['image_dim']}"
            )

    layer_dir = root / "layers"
    layer_ids = sorted(
        int(p.stem.split("_", 1)[1]) for p in layer_dir.glob("layer_*.mat1")
    )
    if not layer_ids:
        raise FormatError(f"no layer files in {layer_dir}", offset=0)
    features = []
    for i in layer_ids:
        flat = load_matrix(layer_dir / f"layer_{i}.mat1")
        if projection is not None:
            flat = _project_layer(flat, projection, int(meta["image_tokens"]))
        features.append(flat)
    layers = LayerStack(tuple(layer_ids), tuple(features))

    caption_root = root / "captions"
    captions = []
    for i in range(voxels.shape[0]):
        stim_dir = caption_root / str(i)
        files = sorted(stim_dir.glob("*.mat1"), key=lambda p: int(p.stem))
        if not files:
            raise FormatError(f"stimulus {i} has no caption files", offset=0)
        captions.append([load_matrix(f) for f in files])
    return Dataset(voxels=voxels, mask=mask, layers=layers, captions=captions, meta=meta)
