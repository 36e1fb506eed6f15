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

The batch reader and writer are the only code path; the single-file
functions are their one-item case. :func:`load_matrices` reads each file
with one open and one read, checks its header, and makes one finiteness
pass over every payload; the arrays it returns are views of one float64
buffer. :func:`save_matrices` checks every shape and every value before it
writes any file, then writes each file with one open and one write. Both
raise exactly the error that the first failing file would raise on its
own, so a batch of one file and a loop over single files fail alike.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_right

import numpy as np

from .errors import FormatError, NumericalFailure, ShapeMismatch

MAGIC = b"BMC1"
_HEADER = struct.Struct("<4sBBHQQ")
HEADER_SIZE = _HEADER.size  # 24


def _first_non_finite(flat: np.ndarray, starts: list):
    """``(item, element)`` of the first non-finite value of `flat`, or None.

    Item ``k`` owns ``flat[starts[k]:starts[k + 1]]``.
    """
    finite = np.isfinite(flat)
    if finite.all():
        return None
    bad = int(np.flatnonzero(~finite)[0])
    item = bisect_right(starts, bad) - 1
    return item, bad - starts[item]


def _checked(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"save_matrix expects a 2-D array, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"save_matrix expects non-empty dimensions, got {m.shape}")
    return m


def save_matrices(items) -> None:
    """Write ``(matrix, path)`` pairs, each a 2-D float64 matrix in MAT1 format.

    Every shape and every value is checked before any file is written: a
    non-finite entry raises :class:`NumericalFailure` naming its path, and
    nothing of the batch is written.
    """
    matrices, paths, failure = [], [], None
    for matrix, path in items:
        try:
            matrices.append(_checked(matrix))
        except (ShapeMismatch, TypeError, ValueError) as exc:  # after any earlier item's non-finite value
            failure = exc
            break
        paths.append(path)
    starts = np.cumsum([0] + [m.size for m in matrices]).tolist()
    flat = np.concatenate([np.empty(0)] + matrices, axis=None)
    bad = _first_non_finite(flat, starts)
    if bad is not None:
        item, element = bad
        raise NumericalFailure(f"{paths[item]}: non-finite value at element {element}, not written")
    if failure is not None:
        raise failure
    payload = memoryview(flat.astype("<f8", copy=False)).cast("B")
    for m, path, start, stop in zip(matrices, paths, starts, starts[1:]):
        header = _HEADER.pack(MAGIC, 1, 1, 0, m.shape[0], m.shape[1])
        data = memoryview(header + payload[8 * start:8 * stop])
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def save_matrix(matrix, path) -> None:
    """Write a 2-D float64 matrix to `path` in MAT1 format.

    A non-finite entry raises :class:`NumericalFailure` naming the path, and
    nothing is written.
    """
    save_matrices([(matrix, path)])


def _fail(path, message: str, offset: int) -> FormatError:
    return FormatError(f"{path}: {message}", offset=offset)


def _read(path) -> bytes:
    """The whole file: one open and, for a regular file, one read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            raw = os.read(fd, size + 1)
            if len(raw) != size:  # a short read or a size that fstat does not know
                chunks = [raw]
                while chunks[-1]:
                    chunks.append(os.read(fd, 1 << 20))
                raw = b"".join(chunks)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _fail(path, f"cannot read ({exc.strerror or exc})", 0) from None
    return raw


def _shape(path, raw: bytes) -> tuple:
    """``(rows, cols)`` of a MAT1 file's bytes, after every header and size check."""
    if len(raw) < HEADER_SIZE:
        raise _fail(path, "file shorter than the 24-byte header", len(raw))
    magic, version, dtype, padding, rows, cols = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise _fail(path, f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    if version != 1:
        raise _fail(path, f"unsupported version {version}", 4)
    if dtype != 1:
        raise _fail(path, f"unsupported dtype code {dtype} (only 1 = float64)", 5)
    if padding != 0:
        raise _fail(path, "padding bytes 6-7 must be zero", 6)
    if rows < 1:
        raise _fail(path, f"rows must be >= 1, got {rows}", 8)
    if cols < 1:
        raise _fail(path, f"cols must be >= 1, got {cols}", 16)
    expected = HEADER_SIZE + 8 * rows * cols
    if len(raw) < expected:
        raise _fail(path, f"truncated payload: expected {expected} bytes, file has {len(raw)}", len(raw))
    if len(raw) > expected:
        raise _fail(path, f"{len(raw) - expected} trailing bytes", expected)
    return rows, cols


def load_matrices(paths) -> list:
    """Read MAT1 files, one array per path, in order.

    Unreadable or malformed input raises :class:`FormatError` naming the
    first failing file, with the byte offset at which parsing failed (0
    when the file cannot be read at all).
    """
    paths = list(paths)
    raws, shapes, failure = [], [], None
    for path in paths:
        try:
            raw = _read(path)
            shapes.append(_shape(path, raw))
        except FormatError as exc:
            failure = exc
            break
        raws.append(memoryview(raw)[HEADER_SIZE:])
    starts = np.cumsum([0] + [rows * cols for rows, cols in shapes]).tolist()
    flat = np.frombuffer(bytearray().join(raws), dtype="<f8").astype(np.float64, copy=False)
    bad = _first_non_finite(flat, starts)
    if bad is not None:
        item, element = bad
        raise _fail(paths[item], f"non-finite value at element {element}", HEADER_SIZE + 8 * element)
    if failure is not None:
        raise failure
    return [flat[a:b].reshape(shape) for a, b, shape in zip(starts, starts[1:], shapes)]


def load_matrix(path) -> np.ndarray:
    """Read a MAT1 file; unreadable or malformed input raises FormatError naming it.

    The error carries the byte offset at which parsing failed (0 when the
    file cannot be read at all).
    """
    return load_matrices([path])[0]
