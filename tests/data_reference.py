"""Per-file reference implementations of MAT1 and dataset I/O.

These are the single-file reader and writer and the globbing dataset
loader that ``voxalign.matio.load_matrices``/``save_matrices`` and the
batched ``voxalign.data.load_dataset``/``save_dataset`` replaced: one
``Path.read_bytes`` or ``Path.write_bytes`` and one numpy decode per file,
and ``Path.glob`` for the numbered files. The tests require the batched
paths to reproduce their arrays bit for bit, their files byte for byte and
their errors message for message. Nothing in the library imports this
module.
"""

from pathlib import Path

import numpy as np

from voxalign.alignment import LayerStack
from voxalign.config import read_text
from voxalign.data import Dataset, RegionMask, _project_layer, _read_meta
from voxalign.errors import DegenerateInput, FormatError, NumericalFailure, ShapeMismatch
from voxalign.matio import _HEADER, HEADER_SIZE, MAGIC


def save_matrix(matrix, path) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"save_matrix expects a 2-D array, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"save_matrix expects non-empty dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        bad = np.flatnonzero(~np.isfinite(m))[0]
        raise NumericalFailure(f"{path}: non-finite value at element {bad}, not written")
    header = _HEADER.pack(MAGIC, 1, 1, 0, m.shape[0], m.shape[1])
    payload = np.ascontiguousarray(m, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def load_matrix(path) -> np.ndarray:
    def fail(message: str, offset: int) -> FormatError:
        return FormatError(f"{path}: {message}", offset=offset)

    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise fail(f"cannot read ({exc.strerror or exc})", 0) from None
    if len(raw) < HEADER_SIZE:
        raise fail("file shorter than the 24-byte header", len(raw))
    magic, version, dtype, padding, rows, cols = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise fail(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    if version != 1:
        raise fail(f"unsupported version {version}", 4)
    if dtype != 1:
        raise fail(f"unsupported dtype code {dtype} (only 1 = float64)", 5)
    if padding != 0:
        raise fail("padding bytes 6-7 must be zero", 6)
    if rows < 1:
        raise fail(f"rows must be >= 1, got {rows}", 8)
    if cols < 1:
        raise fail(f"cols must be >= 1, got {cols}", 16)
    expected = HEADER_SIZE + 8 * rows * cols
    if len(raw) < expected:
        raise fail(f"truncated payload: expected {expected} bytes, file has {len(raw)}", len(raw))
    if len(raw) > expected:
        raise fail(f"{len(raw) - expected} trailing bytes", expected)
    flat = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=HEADER_SIZE)
    bad = np.where(~np.isfinite(flat))[0]
    if bad.size:
        raise fail(f"non-finite value at element {bad[0]}", HEADER_SIZE + 8 * int(bad[0]))
    return flat.astype(np.float64).reshape(rows, cols)


def save_dataset(dataset: Dataset, directory) -> None:
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


def numbered_files(directory: Path, prefix: str) -> list:
    found = []
    for path in directory.glob(f"{prefix}*.mat1"):
        try:
            found.append((int(path.stem[len(prefix):]), path))
        except ValueError:
            raise FormatError(f"{path}: expected a file named {prefix}<number>.mat1", offset=0) from None
    return sorted(found, key=lambda item: item[0])


def load_dataset(directory) -> Dataset:
    root = Path(directory)
    meta_path = root / "meta.txt"
    if not meta_path.exists():
        raise FormatError(f"missing meta.txt in {root}", offset=0)
    meta = _read_meta(meta_path)

    voxels = load_matrix(root / "voxels.mat1")
    mask_path = root / "mask.txt"
    try:
        mask = RegionMask(tuple(l for l in read_text(mask_path).splitlines() if l))
    except DegenerateInput as exc:
        raise DegenerateInput(f"{mask_path}: {exc}") from None
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
    layer_files = numbered_files(layer_dir, "layer_")
    if not layer_files:
        raise FormatError(f"no layer files in {layer_dir}", offset=0)
    layer_ids = [i for i, _ in layer_files]
    features = []
    for _, path in layer_files:
        flat = load_matrix(path)
        if projection is not None:
            flat = _project_layer(flat, projection, int(meta["image_tokens"]))
        features.append(flat)
    layers = LayerStack(tuple(layer_ids), tuple(features))

    caption_root = root / "captions"
    captions = []
    for i in range(voxels.shape[0]):
        stim_dir = caption_root / str(i)
        files = numbered_files(stim_dir, "")
        if not files:
            raise FormatError(f"stimulus {i} has no caption files", offset=0)
        captions.append([load_matrix(f) for _, f in files])
    return Dataset(voxels=voxels, mask=mask, layers=layers, captions=captions, meta=meta)
