"""Planted-structure synthetic data and dataset serialization.

The generator draws two latent factor vectors per stimulus: a detail
factor and a semantic factor. Low-level voxels mix the detail factor,
high-level voxels mix the semantic factor, and each planted embedding
layer mixes the two with a layer-specific weight ``alpha`` that decreases
with depth and reaches exactly zero at the final layer. Caption
embeddings are noisy views of the semantic factor. This reproduces the
structural assumptions the decoder exploits (detail signal lives early
and in low-level voxels, semantic signal lives late and in high-level
voxels) without any external data. A :class:`Dataset` holds all its
captions in one array with a count per stimulus; on disk each caption is
its own ``captions/<stimulus>/<j>.mat1`` file.

Region convention: the detail voxel vector is the full recording and the
semantic vector is its high-level slice, so semantic voxels are a subset
of detail voxels.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .alignment import LayerStack
from .config import check_fields, format_value, read_config_file, read_text, setting, write_lines, write_resolved
from .errors import DegenerateInput, FormatError, RangeError, ShapeMismatch, UsageError
from .matio import load_matrices, load_matrix, save_matrices, save_matrix
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

    n_train: int = setting(512, low=1)
    n_test: int = setting(64, low=1)
    n_low_voxels: int = setting(80, low=1)
    n_high_voxels: int = setting(60, low=1)
    k_semantic: int = setting(12, low=1)
    k_detail: int = setting(16, low=1)
    n_layers: int = setting(6, low=1)
    alpha_schedule: tuple = setting((0.9, 0.72, 0.54, 0.36, 0.18, 0.0), low=0.0, high=1.0)
    noise_voxel_low: float = setting(0.1, low=0.0)
    noise_voxel_high: float = setting(0.1, low=0.0)
    noise_layer: float = setting(0.1, low=0.0)
    noise_caption: float = setting(0.25, low=0.0)
    text_tokens: int = setting(8, low=1)
    text_dim: int = setting(16, low=1)
    image_tokens: int = setting(12, low=1)
    image_dim: int = setting(16, low=1)
    seed: int = 0

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alpha_schedule)
        object.__setattr__(self, "alpha_schedule", alphas)
        check_fields(self)
        if len(alphas) != self.n_layers:
            raise DegenerateInput(
                f"alpha_schedule has {len(alphas)} entries for {self.n_layers} layers"
            )
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise DegenerateInput("alpha_schedule must be strictly decreasing")
        if alphas[-1] != 0.0:
            raise DegenerateInput("alpha_schedule must end at exactly 0.0")

    @property
    def n_stimuli(self) -> int:
        return self.n_train + self.n_test

    @property
    def n_detail_voxels(self) -> int:
        return self.n_low_voxels + self.n_high_voxels


@dataclass
class Dataset:
    """Voxel recordings plus embedding targets for every stimulus.

    Stimulus ``i`` owns the next ``caption_counts[i]`` rows of ``captions``.
    Both are checked here, once: a stimulus without captions or with a
    non-finite one raises :class:`DegenerateInput` naming it; other faults
    raise :class:`ShapeMismatch`.
    """

    voxels: np.ndarray  # (n, n_detail_voxels)
    mask: RegionMask
    layers: LayerStack  # each (n, image_tokens * image_dim)
    captions: np.ndarray  # (total_captions, text_tokens, text_dim)
    caption_counts: np.ndarray  # (n,), each at least 1
    meta: dict = field(repr=False)

    def __post_init__(self):
        captions = np.asarray(self.captions, dtype=np.float64)
        counts = np.asarray(self.caption_counts, dtype=np.intp)
        if captions.ndim != 3:
            raise ShapeMismatch(f"captions: expected a 3-D array (captions, tokens, dim), got shape {captions.shape}")
        if counts.shape != (self.n,):
            raise ShapeMismatch(f"caption_counts: expected shape ({self.n},), got {counts.shape}")
        empty = np.flatnonzero(counts < 1)
        if empty.size:
            raise DegenerateInput(f"stimulus {int(empty[0])}: caption list is empty")
        total = int(counts.sum())
        if total != len(captions):
            raise ShapeMismatch(f"caption_counts sum to {total}, but captions has {len(captions)} rows")
        bad = np.flatnonzero(~np.isfinite(captions).all(axis=(1, 2)))
        if bad.size:
            starts = np.cumsum(counts) - counts
            i = int(np.searchsorted(starts, bad[0], side="right")) - 1
            raise DegenerateInput(f"stimulus {i}: caption {bad[0] - starts[i]}: contains non-finite entries")
        self.captions = captions
        self.caption_counts = counts

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
        """Per-stimulus caption mean, shape (n, text_tokens, text_dim).

        Stimuli with the same caption count are averaged in one ``np.mean``,
        which gives the bits of the mean of each stimulus's captions alone.
        """
        counts = self.caption_counts
        starts = np.cumsum(counts) - counts
        out = np.empty((self.n,) + self.captions.shape[1:])
        for count in np.unique(counts):
            rows = np.flatnonzero(counts == count)
            out[rows] = np.mean(self.captions[starts[rows, None] + np.arange(count)], axis=1)
        return out

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
    text_base = (z_sem @ mix_text).reshape(n, cfg.text_tokens, cfg.text_dim)
    noise = rng.child("noise/captions").normal(int(caption_counts.sum()), cfg.text_tokens, cfg.text_dim)
    captions = np.repeat(text_base, caption_counts, axis=0) + cfg.noise_caption * noise

    meta = {f.name: format_value(getattr(cfg, f.name)) for f in fields(cfg)}
    return Dataset(voxels, mask, layers, captions, caption_counts, meta)


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset directory: voxels, mask, layers, captions, meta."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    save_matrix(dataset.voxels, root / "voxels.mat1")
    write_lines(root / "mask.txt", dataset.mask.labels)
    layer_dir = root / "layers"
    layer_dir.mkdir(exist_ok=True)
    save_matrices(
        (features, os.path.join(layer_dir, f"layer_{layer_id}.mat1"))
        for layer_id, features in zip(dataset.layers.layer_ids, dataset.layers.features)
    )
    caption_root = root / "captions"
    caption_root.mkdir(exist_ok=True)
    stim_dirs = [os.path.join(caption_root, str(i)) for i in range(dataset.n)]
    for stim_dir in stim_dirs:
        os.makedirs(stim_dir, exist_ok=True)
    caption_paths = (
        os.path.join(stim_dir, f"{j}.mat1")
        for stim_dir, count in zip(stim_dirs, dataset.caption_counts.tolist())
        for j in range(count)
    )
    save_matrices(zip(dataset.captions, caption_paths))
    write_resolved(dataset.meta, root / "meta.txt")


def _project_layer(flat: np.ndarray, projection: np.ndarray, tokens: int) -> np.ndarray:
    n = flat.shape[0]
    projected = flat.reshape(n, tokens, projection.shape[0]) @ projection
    return projected.reshape(n, tokens * projection.shape[1])


# The meta.txt keys the library reads, all integers.
_META_INTEGERS = ("n_train", "n_test", "text_tokens", "text_dim", "image_tokens", "image_dim")


def _read_meta(path: Path) -> dict:
    """The ``key=value`` lines of a meta.txt, which must give every key the library reads."""
    try:
        meta = read_config_file(path)  # its errors name the file and line
    except UsageError as exc:
        raise FormatError(str(exc), offset=0) from None
    for key in _META_INTEGERS:
        if key not in meta:
            raise FormatError(f"{path}: missing key {key!r}", offset=0)
        try:
            int(meta[key])
        except ValueError:
            raise FormatError(f"{path}: {key}={meta[key]!r} is not an integer", offset=0) from None
    return meta


# The listing errors that Path.glob reads as a directory with no entries.
_UNLISTED = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP, errno.EACCES, errno.EPERM)


def _numbered_files(directory, prefix: str) -> list:
    """The ``<prefix><number>.mat1`` files in `directory` as (number, path), in number order.

    Every entry named ``<prefix>*.mat1`` counts, hidden names and
    directories included, so an entry whose middle is not a number is an
    error. As for ``Path.glob``, a missing directory, a file, a symlink loop
    or a directory this process may not read has no files; any other
    listing error propagates.
    """
    try:
        names = os.listdir(directory)
    except OSError as exc:
        if exc.errno not in _UNLISTED:
            raise
        return []
    found = []
    base = os.path.join(directory, "")
    for name in names:
        if name.startswith(prefix) and name.endswith(".mat1") and len(name) >= len(prefix) + 5:
            path = base + name
            try:
                found.append((int(name[len(prefix):-5]), path))
            except ValueError:
                raise FormatError(f"{path}: expected a file named {prefix}<number>.mat1", offset=0) from None
    return sorted(found, key=lambda item: item[0])


def _check_shapes(files, shape: tuple, source: str) -> None:
    """Raise :class:`ShapeMismatch` naming the first (path, matrix) in `files` not of `shape`."""
    for path, matrix in files:
        if matrix.shape != shape:
            raise ShapeMismatch(f"{path}: shape {matrix.shape}, expected {shape} ({source})")


def load_dataset(directory) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`.

    If a ``projection.mat1`` file is present, every layer's token
    embeddings are right-multiplied by it at ingestion; this maps wider
    per-token features (as an external backbone would emit before its
    final projection) down to the dataset's common width.

    ``meta.txt`` fixes every shape: ``voxels.mat1`` has ``n_train +
    n_test`` rows, each layer file as many rows and ``image_tokens *
    image_dim`` columns (``image_tokens`` times the projection's rows when
    there is one), and each caption is ``text_tokens x text_dim``. A file
    of another shape raises :class:`ShapeMismatch` naming it.
    """
    root = Path(directory)
    meta_path = root / "meta.txt"
    if not meta_path.exists():
        raise FormatError(f"missing meta.txt in {root}", offset=0)
    meta = _read_meta(meta_path)

    voxels_path = root / "voxels.mat1"
    voxels = load_matrix(voxels_path)
    n_train, n_test = int(meta["n_train"]), int(meta["n_test"])
    n = voxels.shape[0]
    if n_train + n_test != n:
        raise ShapeMismatch(
            f"{meta_path}: n_train + n_test = {n_train} + {n_test}, but {voxels_path} has {n} rows"
        )
    mask_path = root / "mask.txt"
    try:
        mask = RegionMask(tuple(l for l in read_text(mask_path).splitlines() if l))
    except DegenerateInput as exc:
        raise DegenerateInput(f"{mask_path}: {exc}") from None
    if voxels.shape[1] != mask.n_detail:
        raise ShapeMismatch(
            f"{voxels_path}: {voxels.shape[1]} columns, but {mask_path} lists {mask.n_detail} voxels"
        )

    projection = None
    projection_path = root / "projection.mat1"
    if projection_path.exists():
        projection = load_matrix(projection_path)
        if projection.shape[1] != int(meta["image_dim"]):
            raise ShapeMismatch(
                f"{projection_path}: maps to width {projection.shape[1]}, but "
                f"{meta_path} gives image_dim={meta['image_dim']}"
            )

    layer_dir = root / "layers"
    layer_files = _numbered_files(layer_dir, "layer_")
    if not layer_files:
        raise FormatError(f"no layer files in {layer_dir}", offset=0)
    layer_ids = [i for i, _ in layer_files]
    features = load_matrices(path for _, path in layer_files)
    tokens = int(meta["image_tokens"])
    if projection is None:
        width, per_token = tokens * int(meta["image_dim"]), "image_dim"
    else:
        width, per_token = tokens * projection.shape[0], f"{projection_path} rows"
    _check_shapes(
        ((path, flat) for (_, path), flat in zip(layer_files, features)), (n, width),
        f"stimuli x image_tokens * {per_token} of {meta_path}",
    )
    if projection is not None:
        features = [_project_layer(flat, projection, tokens) for flat in features]
    layers = LayerStack(tuple(layer_ids), tuple(features))

    caption_root = root / "captions"
    listings = []
    for i in range(n):
        try:
            files = _numbered_files(os.path.join(caption_root, str(i)), "")
            if not files:
                raise FormatError(f"stimulus {i} has no caption files", offset=0)
        except FormatError:
            # A bad caption file of an earlier stimulus is named first, as
            # when each stimulus was listed and read in turn.
            load_matrices(path for paths in listings for path in paths)
            raise
        listings.append([path for _, path in files])
    paths = [path for stim_paths in listings for path in stim_paths]
    matrices = load_matrices(paths)
    _check_shapes(
        zip(paths, matrices), (int(meta["text_tokens"]), int(meta["text_dim"])),
        f"text_tokens x text_dim of {meta_path}",
    )
    return Dataset(
        voxels=voxels, mask=mask, layers=layers, captions=np.stack(matrices),
        caption_counts=[len(stim_paths) for stim_paths in listings], meta=meta,
    )
