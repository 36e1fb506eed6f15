"""Property tests: a damaged input file makes the CLI exit 2 naming it.

A tiny dataset and a one-epoch checkpoint are written once. Each example
damages one file in place (a MAT1 matrix, a checkpoint manifest line or a
``meta.txt`` line), runs ``eval`` in-process through ``cli.main`` and puts
the original bytes back. Every damage must give exit status 2, an
``error:`` line that names the file (and the key or line where there is
one), no traceback and no output directory.

A layer or caption file rewritten as a valid MAT1 of another shape must
fail the same way, and every valid dataset must still load.

The same damages check the batched MAT1 reader against the per-file
reference reader of ``data_reference``: both must raise the same message
and offset, and a dataset with a damaged caption file or directory must
fail as it did under the per-file loader.
"""

import contextlib
import io
import math
import shutil
import struct
from pathlib import Path

import data_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxalign.cli import main
from voxalign.data import SynthConfig, load_dataset, save_dataset, synth_generate
from voxalign.errors import FormatError
from voxalign.matio import _HEADER, HEADER_SIZE, load_matrices, load_matrix, save_matrix
from voxalign.rng import Rng

TINY_GEN = """
n_train=8
n_test=4
n_low_voxels=6
n_high_voxels=4
k_semantic=2
k_detail=3
n_layers=3
alpha_schedule=0.9,0.45,0.0
text_tokens=3
text_dim=3
image_tokens=3
image_dim=4
"""

TINY_TRAIN = """
epochs=1
batch_size=4
latent_dim=6
"""

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)

# Characters that end a line for str.splitlines, kept out of generated lines.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS), max_size=40
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    (root / "gen.cfg").write_text(TINY_GEN)
    (root / "train.cfg").write_text(TINY_TRAIN)
    assert main(["gen-data", "--config", str(root / "gen.cfg"), "--out", str(root / "data"), "--quiet"]) == 0
    assert main(["train", "--config", str(root / "train.cfg"), "--data", str(root / "data"),
                 "--out", str(root / "run"), "--quiet"]) == 0
    return root


def _mat1_files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.mat1"))


@contextlib.contextmanager
def _damaged(path: Path, content: bytes):
    original = path.read_bytes()
    path.write_bytes(content)
    try:
        yield
    finally:
        path.write_bytes(original)


def _eval_fails(tiny: Path, *named: str) -> None:
    """Run ``eval`` on the tiny workspace; it must exit 2 naming every string in `named`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--ckpt", str(tiny / "run" / "checkpoint"), "--data", str(tiny / "data"),
                     "--out", str(tiny / "ev"), "--quiet"])
    message = err.getvalue()
    assert code == 2, message
    assert message.startswith("error: "), message
    assert "Traceback" not in message + out.getvalue()
    for text in named:
        assert text in message, (text, message)
    assert not (tiny / "ev").exists()


def test_undamaged_workspace_evaluates(tiny):
    assert main(["eval", "--ckpt", str(tiny / "run" / "checkpoint"), "--data", str(tiny / "data"),
                 "--out", str(tiny / "ev_ok"), "--quiet"]) == 0


@st.composite
def mat1_damage(draw, raw: bytes):
    """New bytes for a MAT1 file: a changed header byte, a cut, trailing bytes or a non-finite value."""
    kind = draw(st.sampled_from(("header", "truncate", "trailing", "non_finite")))
    if kind == "header":
        at = draw(st.integers(0, HEADER_SIZE - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "trailing":
        return raw + draw(st.binary(min_size=1, max_size=16))
    element = draw(st.integers(0, (len(raw) - HEADER_SIZE) // 8 - 1))
    value = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    at = HEADER_SIZE + 8 * element
    return raw[:at] + struct.pack("<d", value) + raw[at + 8:]


@EXAMPLES
@given(data=st.data())
def test_damaged_mat1_file_named(tiny, data):
    path = tiny / data.draw(st.sampled_from(_mat1_files(tiny)), label="file")
    content = data.draw(mat1_damage(path.read_bytes()), label="content")
    with _damaged(path, content):
        _eval_fails(tiny, f"error: {path}: ")


@st.composite
def reshaped_mat1(draw, raw: bytes):
    """New bytes for a MAT1 file: a valid matrix of another shape."""
    *header, rows, cols = _HEADER.unpack(raw[:HEADER_SIZE])
    shape = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)).filter(lambda s: s != (rows, cols)))
    value = draw(st.floats(-1e6, 1e6))
    return _HEADER.pack(*header, *shape) + np.full(shape, value, "<f8").tobytes()


@EXAMPLES
@given(data=st.data())
def test_reshaped_layer_or_caption_named(tiny, data):
    """A layer or caption file of another shape than meta.txt gives is named."""
    files = [f for f in _mat1_files(tiny) if f.startswith(("data/layers/", "data/captions/"))]
    path = tiny / data.draw(st.sampled_from(files), label="file")
    with _damaged(path, data.draw(reshaped_mat1(path.read_bytes()), label="content")):
        _eval_fails(tiny, f"error: {path}: shape ")


@EXAMPLES
@given(
    n_train=st.integers(1, 6), n_test=st.integers(1, 4),
    text=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    image=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    projected_from=st.integers(0, 3),
)
def test_every_valid_dataset_loads(tmp_path_factory, n_train, n_test, text, image, projected_from):
    """The shape checks reject no valid dataset, one with ``projection.mat1``
    (from `projected_from` features per token, 0 for none) included; the
    arrays are the per-file loader's."""
    ds = synth_generate(SynthConfig(
        n_train=n_train, n_test=n_test, n_low_voxels=3, n_high_voxels=2, k_semantic=2, k_detail=2,
        text_tokens=text[0], text_dim=text[1], image_tokens=image[0], image_dim=image[1],
    ))
    root = tmp_path_factory.mktemp("valid")
    save_dataset(ds, root)
    if projected_from:
        rng = Rng(projected_from, "wide")
        for layer_id in ds.layers.layer_ids:
            save_matrix(rng.child(str(layer_id)).normal(ds.n, image[0] * projected_from),
                        root / "layers" / f"layer_{layer_id}.mat1")
        save_matrix(rng.child("p").normal(projected_from, image[1]), root / "projection.mat1")
    got, expected = load_dataset(root), ref.load_dataset(root)
    for a, b in zip(got.layers.features + (got.voxels,), expected.layers.features + (expected.voxels,)):
        assert a.tobytes() == b.tobytes()
    assert got.text_targets().tobytes() == expected.text_targets().tobytes()


@EXAMPLES
@given(data=st.data())
def test_damaged_manifest_line_named(tiny, data):
    """Replacing, inserting or dropping a manifest line names the manifest,
    or the tensor file in the checkpoint that a changed line points to."""
    ckpt = tiny / "run" / "checkpoint"
    manifest = ckpt / "manifest.txt"
    lines = manifest.read_text().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(("replace", "insert", "drop")), label="kind")
    if kind == "drop":
        damaged = lines[:at] + lines[at + 1:]
    else:
        # An inserted blank line is skipped, so it damages nothing.
        text = data.draw(_LINE_TEXT.filter(lambda t: t != lines[at] and (kind == "replace" or t.strip())), label="text")
        damaged = lines[:at] + [text] + lines[at + (kind == "replace"):]
    with _damaged(manifest, ("\n".join(damaged) + "\n").encode()):
        _eval_fails(tiny, f"error: {ckpt}/")


_META_KEYS = ("n_train", "n_test", "text_tokens", "text_dim", "image_tokens", "image_dim")


def _not_an_integer(text: str) -> bool:
    try:
        int(text.split("#", 1)[0])
    except ValueError:
        return True
    return False


@EXAMPLES
@given(data=st.data())
def test_damaged_meta_line_named(tiny, data):
    """A line that is not key=value, a repeated key, a dropped or
    non-integer required key: the error names meta.txt and the line or key."""
    meta = tiny / "data" / "meta.txt"
    lines = meta.read_text().splitlines()
    kind = data.draw(st.sampled_from(("no_equals", "duplicate", "dropped", "not_integer")), label="kind")
    if kind == "no_equals":
        at = data.draw(st.integers(0, len(lines)), label="line")
        text = data.draw(_LINE_TEXT.filter(lambda t: t.split("#", 1)[0].strip() and "=" not in t.split("#", 1)[0]))
        damaged, named = lines[:at] + [text] + lines[at:], f"line {at + 1}: expected key=value"
    elif kind == "duplicate":
        key = data.draw(st.sampled_from([line.split("=", 1)[0] for line in lines]), label="key")
        value = data.draw(_LINE_TEXT, label="value")
        damaged, named = lines + [f"{key}={value}"], f"line {len(lines) + 1}: duplicate key {key!r}"
    else:
        key = data.draw(st.sampled_from(_META_KEYS), label="key")
        damaged = [line for line in lines if line.split("=", 1)[0] != key]
        named = f"missing key {key!r}"
        if kind == "not_integer":
            value = data.draw(_LINE_TEXT.filter(_not_an_integer), label="value")
            damaged, named = damaged + [f"{key}={value}"], f"{key}="
    with _damaged(meta, ("\n".join(damaged) + "\n").encode()):
        _eval_fails(tiny, f"error: {meta}: ", named)


def _raised(load, *args) -> tuple:
    """The type, message and offset that ``load(*args)`` raises."""
    with pytest.raises(FormatError) as exc:
        load(*args)
    return type(exc.value), str(exc.value), exc.value.offset


@EXAMPLES
@given(data=st.data())
def test_batch_reader_raises_what_the_file_reader_raised(tiny, data):
    """``load_matrices([p])`` and ``load_matrix(p)`` fail as the per-file reader did."""
    path = tiny / data.draw(st.sampled_from(_mat1_files(tiny)), label="file")
    content = data.draw(mat1_damage(path.read_bytes()), label="content")
    with _damaged(path, content):
        expected = _raised(ref.load_matrix, path)
        assert _raised(load_matrices, [path]) == expected
        assert _raised(load_matrix, path) == expected


@EXAMPLES
@given(data=st.data())
def test_batch_reader_names_the_first_damaged_file(tiny, data):
    """A batch with two damaged files fails as a loop over the per-file reader does."""
    files = data.draw(st.lists(st.sampled_from(_mat1_files(tiny)), min_size=2, max_size=6, unique=True))
    first, second = (tiny / f for f in data.draw(st.permutations(files), label="damaged")[:2])
    with _damaged(first, data.draw(mat1_damage(first.read_bytes()), label="first")), \
            _damaged(second, data.draw(mat1_damage(second.read_bytes()), label="second")):
        paths = [tiny / f for f in files]
        expected = next(_raised(ref.load_matrix, p) for p in paths if p in (first, second))
        assert _raised(load_matrices, paths) == expected


def _dataset_copy(tiny, tmp_path) -> Path:
    data = tmp_path / "data"
    shutil.copytree(tiny / "data", data)
    return data


def test_nan_in_a_middle_caption_names_that_file(tiny, tmp_path):
    data = _dataset_copy(tiny, tmp_path)
    path = data / "captions" / "5" / "0.mat1"
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 8 * 4:HEADER_SIZE + 8 * 5] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(raw))
    error = _raised(load_dataset, data)
    assert error == _raised(ref.load_dataset, data)
    assert error[1] == f"{path}: non-finite value at element 4 (byte offset {HEADER_SIZE + 32})"


@pytest.mark.parametrize("fault,message", [
    ("directory", "{data}/captions/3/7.mat1: cannot read (Is a directory) (byte offset 0)"),
    ("hidden", "{data}/captions/3/.5.mat1: expected a file named <number>.mat1 (byte offset 0)"),
    ("missing", "stimulus 3 has no caption files (byte offset 0)"),
    ("not_a_directory", "stimulus 3 has no caption files (byte offset 0)"),
    ("symlink_loop", "stimulus 3 has no caption files (byte offset 0)"),
])
def test_caption_listing_faults_fail_as_before(tiny, tmp_path, fault, message):
    data = _dataset_copy(tiny, tmp_path)
    stim_dir = data / "captions" / "3"
    if fault == "directory":
        (stim_dir / "7.mat1").mkdir()
    elif fault == "hidden":
        shutil.copy(stim_dir / "0.mat1", stim_dir / ".5.mat1")
    else:
        shutil.rmtree(stim_dir)
        if fault == "not_a_directory":
            stim_dir.write_bytes(b"")
        elif fault == "symlink_loop":
            stim_dir.symlink_to(stim_dir.name)
    error = _raised(load_dataset, data)
    assert error == _raised(ref.load_dataset, data)
    assert error[1] == message.format(data=data)


def test_a_bad_caption_file_is_named_before_a_later_missing_stimulus(tiny, tmp_path):
    data = _dataset_copy(tiny, tmp_path)
    path = data / "captions" / "2" / "0.mat1"
    path.write_bytes(path.read_bytes()[:-8])
    shutil.rmtree(data / "captions" / "3")
    error = _raised(load_dataset, data)
    assert error == _raised(ref.load_dataset, data)
    assert error[1].startswith(f"{path}: truncated payload")
