"""Bit-exact binary matrix serialization (MAT1 format).

Layout, all little-endian:

====== ======= =====================================
bytes  content
====== ======= =====================================
0-3    magic   ``BMC1``
4      version ``1``
5      dtype   ``1`` (float64; the only value accepted)
6-7    padding zero
8-15   rows    unsigned 64-bit
16-23  cols    unsigned 64-bit
24-    data    rows*cols float64 values, row-major
====== ======= =====================================

``load_matrix(save_matrix(M))`` reproduces ``M`` bit for bit, including
the sign of zero. Saves and loads reject NaN/Inf payloads, naming the
file, so every matrix on disk satisfies the finiteness invariant, and
every load error names the file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericalFailure, ShapeMismatch

MAGIC = b"BMC1"
_HEADER = struct.Struct("<4sBBHQQ")
HEADER_SIZE = _HEADER.size  # 24


def save_matrix(matrix, path) -> None:
    """Write a 2-D float64 matrix to `path` in MAT1 format.

    A non-finite entry raises :class:`NumericalFailure` naming the path, and
    nothing is written.
    """
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
    """Read a MAT1 file; unreadable or malformed input raises FormatError naming it.

    The error carries the byte offset at which parsing failed (0 when the
    file cannot be read at all).
    """

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
