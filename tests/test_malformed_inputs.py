"""Property tests: a damaged input file makes the CLI exit 2 naming it.

A tiny dataset and a one-epoch checkpoint are written once. Each example
damages one file in place (a MAT1 matrix, a checkpoint manifest line or a
``meta.txt`` line), runs ``eval`` in-process through ``cli.main`` and puts
the original bytes back. Every damage must give exit status 2, an
``error:`` line that names the file (and the key or line where there is
one), no traceback and no output directory.
"""

import contextlib
import io
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxalign.cli import main
from voxalign.matio import HEADER_SIZE

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
