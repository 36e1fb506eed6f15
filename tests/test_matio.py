import re
import struct

import data_reference as ref
import numpy as np
import pytest

from voxalign.errors import FormatError, NumericalFailure, ShapeMismatch
from voxalign.matio import HEADER_SIZE, load_matrices, load_matrix, save_matrices, save_matrix
from voxalign.rng import Rng


def test_round_trip_bit_exact(tmp_path):
    m = Rng(0, "matio").normal(7, 3)
    path = tmp_path / "m.mat1"
    save_matrix(m, path)
    loaded = load_matrix(path)
    assert loaded.tobytes() == m.tobytes()
    assert loaded.shape == (7, 3)


def test_negative_zero_sign_preserved(tmp_path):
    path = tmp_path / "z.mat1"
    save_matrix(np.array([[-0.0]]), path)
    loaded = load_matrix(path)
    assert np.signbit(loaded[0, 0])


def test_corrupted_magic(tmp_path):
    path = tmp_path / "m.mat1"
    save_matrix(np.ones((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == 0


def test_bad_version_and_dtype_offsets(tmp_path):
    path = tmp_path / "m.mat1"
    save_matrix(np.ones((1, 1)), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == 4

    raw = bytearray(save_and_read(path))
    raw[5] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == 5


def save_and_read(path):
    save_matrix(np.ones((1, 1)), path)
    return path.read_bytes()


def test_truncation_reports_length(tmp_path):
    path = tmp_path / "m.mat1"
    save_matrix(np.ones((2, 3)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == len(raw) - 5


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.mat1"
    save_matrix(np.ones((2, 2)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == HEADER_SIZE + 4 * 8


def test_nan_rejected_with_position(tmp_path):
    path = tmp_path / "m.mat1"
    save_matrix(np.ones((2, 2)), path)
    raw = bytearray(path.read_bytes())
    nan_bytes = struct.pack("<d", float("nan"))
    offset = HEADER_SIZE + 8 * 3  # last element
    raw[offset : offset + 8] = nan_bytes
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == offset


def test_zero_rows_rejected(tmp_path):
    path = tmp_path / "m.mat1"
    header = struct.pack("<4sBBHQQ", b"BMC1", 1, 1, 0, 0, 3)
    path.write_bytes(header)
    with pytest.raises(FormatError) as exc:
        load_matrix(path)
    assert exc.value.offset == 8


def test_save_rejects_non_matrix(tmp_path):
    with pytest.raises(ShapeMismatch):
        save_matrix(np.ones(3), tmp_path / "v.mat1")


def test_errors_name_the_file(tmp_path):
    path = tmp_path / "m.mat1"
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: cannot read") as exc:
        load_matrix(path)
    assert exc.value.offset == 0
    save_matrix(np.ones((2, 3)), path)
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated payload") as exc:
        load_matrix(path)
    assert exc.value.offset == 30


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_rejects_non_finite_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "m.mat1"
    m = np.ones((2, 3))
    m[1, 0] = bad
    with pytest.raises(NumericalFailure, match=f"^{re.escape(str(path))}: non-finite value at element 3"):
        save_matrix(m, path)
    assert not path.exists()
    # an earlier file at the path is left as it was
    save_matrix(np.ones((1, 1)), path)
    before = path.read_bytes()
    with pytest.raises(NumericalFailure):
        save_matrix(m, path)
    assert path.read_bytes() == before


def _batch(tmp_path, n=4):
    rng = Rng(1, "batch")
    return [(rng.child(str(k)).normal(k + 1, 3), tmp_path / f"m{k}.mat1") for k in range(n)]


def test_batch_files_match_the_file_writer(tmp_path):
    items = _batch(tmp_path)
    save_matrices(items)
    for k, (m, path) in enumerate(items):
        reference = tmp_path / f"ref{k}.mat1"
        ref.save_matrix(m, reference)
        assert path.read_bytes() == reference.read_bytes()


def test_batch_reads_are_bit_equal_views_of_one_buffer(tmp_path):
    items = _batch(tmp_path)
    save_matrices(items)
    loaded = load_matrices(path for _, path in items)
    for (m, path), got in zip(items, loaded):
        expected = ref.load_matrix(path)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes() == m.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
    assert len({id(np.asarray(a).base) for a in loaded}) == 1
    loaded[0][0, 0] = 7.0  # a view writes only its own file's values
    assert loaded[1].tobytes() == items[1][0].tobytes()
    assert load_matrices([]) == []
    save_matrices([])


def test_batch_reader_names_the_first_bad_file_in_order(tmp_path):
    items = _batch(tmp_path)
    save_matrices(items)
    paths = [path for _, path in items]
    raw = bytearray(paths[3].read_bytes())
    raw[HEADER_SIZE:HEADER_SIZE + 8] = struct.pack("<d", float("inf"))
    paths[3].write_bytes(bytes(raw))
    paths[1].write_bytes(paths[1].read_bytes()[:-3])
    # Every header comes before the finiteness pass, yet a non-finite
    # value in an earlier file still wins over a later bad header.
    for order in (paths, paths[::-1], [paths[0], paths[3], paths[2]]):
        with pytest.raises(FormatError) as exc:
            load_matrices(order)
        first = next(p for p in order if p in (paths[1], paths[3]))
        with pytest.raises(FormatError) as expected:
            ref.load_matrix(first)
        assert (str(exc.value), exc.value.offset) == (str(expected.value), expected.value.offset)


def test_batch_reader_reads_a_directory_as_unreadable(tmp_path):
    (tmp_path / "d.mat1").mkdir()
    with pytest.raises(FormatError, match=r"d\.mat1: cannot read \(Is a directory\)") as exc:
        load_matrices([tmp_path / "d.mat1"])
    assert exc.value.offset == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_matrix_in_a_batch_writes_nothing(tmp_path, bad):
    items = _batch(tmp_path)
    items[2][0][1, 2] = bad
    with pytest.raises(NumericalFailure, match=f"^{re.escape(str(items[2][1]))}: non-finite value at element 5, not written"):
        save_matrices(items)
    assert not any(path.exists() for _, path in items)


def test_batch_writer_raises_what_the_file_writer_raises_first(tmp_path):
    items = _batch(tmp_path)
    items[1][0][0, 0] = float("nan")
    items[3] = (np.ones(3), items[3][1])
    with pytest.raises(NumericalFailure, match="m1.mat1: non-finite value at element 0"):
        save_matrices(items)
    with pytest.raises(ShapeMismatch, match=r"2-D array, got shape \(3,\)"):
        save_matrices([items[0], items[3], items[1]])
    with pytest.raises(ShapeMismatch, match=r"non-empty dimensions, got \(0, 2\)"):
        save_matrices([items[0], (np.ones((0, 2)), tmp_path / "e.mat1")])
    with pytest.raises(NumericalFailure, match="m1.mat1: non-finite value at element 0"):
        save_matrices([items[1], ([["x"]], tmp_path / "s.mat1")])
    with pytest.raises(ValueError, match="could not convert"):
        save_matrices([items[0], ([["x"]], tmp_path / "s.mat1")])
    assert not any(path.exists() for _, path in items)
