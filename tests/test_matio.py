import re
import struct

import numpy as np
import pytest

from voxalign.errors import FormatError, NumericalFailure, ShapeMismatch
from voxalign.matio import HEADER_SIZE, load_matrix, save_matrix
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
