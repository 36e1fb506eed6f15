"""Write the byte-check recipe's output tree and print one ``sha256  path`` line per file.

Usage: ``python3 tests/byte_tree.py OUT > hashes.txt``

The recipe runs every CLI command through ``voxalign.cli.main`` in process,
with paths relative to OUT (which must not exist yet), so two checkouts give
the same lines when their outputs agree byte for byte. It imports the
``voxalign`` of the checkout this file is in. Comparing two commits is then
one ``diff`` of their hash lists. The recipe:

- ``gen-data`` with n_train=96, n_test=32, seed 7;
- the five variants with epochs=3, latent_dim=32, seed 3, each trained
  jointly and with ``separate_branches`` (text/image batch 16/40,
  ``eval_similarity=cosine``), each with its ``eval``;
- a ``full`` run with ``anchor_mode=target_first_token`` and loss weights
  0.5/2.0/0.3, with its ``eval``;
- a 512-wide separate-branch ``text_detail`` run, epochs=2, seed 401, with
  its ``eval``;
- ``backproject`` of the joint ``full`` and ``text_detail`` checkpoints;
- ``analyze``: ``cka-heatmap``, raw and ridge RSA, and ``layer-scan`` over
  ``2-4,2-4+final`` with scan_epochs=2;
- the ``gradcheck`` stdout, kept as ``gradcheck.txt``.

Pytest does not collect this file.
"""

import os

# Pin BLAS to one thread before numpy is imported, as tests/conftest.py does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voxalign.cli import main  # noqa: E402
from voxalign.model import VARIANTS  # noqa: E402

SMALL = {"epochs": 3, "latent_dim": 32}
SEPARATE = {"separate_branches": "true", "text_batch_size": 16, "image_batch_size": 40,
            "eval_similarity": "cosine"}
ANCHOR = {"anchor_mode": "target_first_token", "weight_cka": 0.5, "weight_sims": 2.0, "weight_crec": 0.3}
WIDE = {"epochs": 2, "latent_dim": 512, "separate_branches": "true"}


def config(name: str, values: dict) -> str:
    path = Path("configs") / f"{name}.cfg"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"voxalign {' '.join(map(str, argv))} exited with {code}")


def train_and_eval(name: str, variant: str, cfg: str, seed: int) -> None:
    run("train", "--config", cfg, "--data", "data", "--variant", variant,
        "--out", f"train/{name}", "--seed", seed, "--quiet")
    run("eval", "--ckpt", f"train/{name}/checkpoint", "--data", "data", "--out", f"eval/{name}",
        "--seed", seed, "--quiet")


def recipe() -> None:
    run("gen-data", "--config", config("gen", {"n_train": 96, "n_test": 32}), "--out", "data",
        "--seed", 7, "--quiet")
    small = config("small", SMALL)
    separate = config("separate", {**SMALL, **SEPARATE})
    for variant in VARIANTS:
        train_and_eval(variant, variant, small, 3)
        train_and_eval(f"{variant}-separate", variant, separate, 3)
    train_and_eval("full-target-anchor", "full", config("target-anchor", {**SMALL, **ANCHOR}), 3)
    train_and_eval("text_detail-wide", "text_detail", config("wide", WIDE), 401)
    for variant in ("full", "text_detail"):
        run("backproject", "--ckpt", f"train/{variant}/checkpoint", "--data", "data",
            "--out", f"backproject/{variant}", "--seed", 3, "--quiet")
    run("analyze", "--mode", "cka-heatmap", "--data", "data", "--out", "analyze/cka-heatmap", "--quiet")
    run("analyze", "--mode", "rsa", "--data", "data", "--out", "analyze/rsa-raw", "--quiet")
    run("analyze", "--mode", "rsa", "--config", config("rsa-ridge", {"rsa_mode": "ridge"}),
        "--data", "data", "--out", "analyze/rsa-ridge", "--quiet")
    scan = config("layer-scan", {**SMALL, "scan_ranges": "2-4,2-4+final", "scan_epochs": 2})
    run("analyze", "--mode", "layer-scan", "--config", scan, "--data", "data",
        "--out", "analyze/layer-scan", "--seed", 3, "--quiet")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run("gradcheck")
    Path("gradcheck.txt").write_text(stdout.getvalue(), encoding="utf-8")


def hash_lines() -> list:
    files = sorted(str(p) for p in Path(".").rglob("*") if p.is_file())
    return [f"{hashlib.sha256(Path(f).read_bytes()).hexdigest()}  {f}" for f in files]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2])
    out = Path(sys.argv[1])
    out.mkdir(parents=True)
    os.chdir(out)
    recipe()
    lines = hash_lines()
    print("\n".join(lines))
    print(f"{len(lines)} files", file=sys.stderr)
