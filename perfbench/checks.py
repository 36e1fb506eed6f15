"""Output checks, computed apart from the program.

Every check reads the files a command wrote and recomputes what they
should hold with this module's own numpy: its own MAT1 reader, its own
inference forward pass, its own identification and correlation loops, its
own lasso solver, RSA with ``scipy.stats.spearmanr`` and CKA with an
explicit centering matrix. None compares against stored output. A failed
check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

_HEADER = struct.Struct("<4sBBHQQ")


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(written, exact, tol):
    # CSV values carry 9 significant digits; allow their rounding on top of tol.
    return abs(written - exact) <= tol + 5e-9 * abs(exact)


# ----------------------------------------------------------------- readers


def read_mat1(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, version, dtype, _, rows, cols = _HEADER.unpack_from(raw, 0)
    require(magic == b"BMC1" and version == 1 and dtype == 1, f"{path}: not a MAT1 float64 file")
    require(len(raw) == _HEADER.size + 8 * rows * cols, f"{path}: payload size mismatch")
    return np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols).astype(float)


def read_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_dataset(directory) -> dict:
    root = Path(directory)
    meta = read_kv(root / "meta.txt")
    labels = [l for l in (root / "mask.txt").read_text(encoding="utf-8").splitlines() if l]
    layer_files = sorted(
        (root / "layers").glob("layer_*.mat1"), key=lambda p: int(p.stem.split("_")[1])
    )
    voxels = read_mat1(root / "voxels.mat1")
    captions = []
    for i in range(voxels.shape[0]):
        files = sorted((root / "captions" / str(i)).glob("*.mat1"), key=lambda p: int(p.stem))
        captions.append(np.mean([read_mat1(f) for f in files], axis=0))
    return {
        "meta": meta,
        "n_train": int(meta["n_train"]),
        "voxels": voxels,
        "high": np.array([i for i, l in enumerate(labels) if l == "high"]),
        "low": np.array([i for i, l in enumerate(labels) if l == "low"]),
        "layer_ids": [int(p.stem.split("_")[1]) for p in layer_files],
        "layers": [read_mat1(p) for p in layer_files],
        "text_targets": np.stack(captions),
    }


def read_checkpoint(directory) -> tuple:
    root = Path(directory)
    tensors = {}
    for line in (root / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.strip():
            name, rest = line.split("=", 1)
            filename, rows, cols = rest.split(" ")
            matrix = read_mat1(root / filename)
            require(matrix.shape == (int(rows), int(cols)), f"{filename}: shape disagrees with manifest")
            tensors[name] = matrix[0] if name.endswith(".b") else matrix
    return tensors, read_kv(root / "model.cfg"), read_kv(root / "targets.cfg")


def read_metrics(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ------------------------------------------------------- model and metrics


def image_paths(variant):
    return {"full": ("sem", "det"), "full_no_crec": ("sem", "det"),
            "text_semantic": ("sem",), "text_detail": ("det",)}.get(variant, ())


def _relu(x):
    return np.maximum(x, 0.0)


def _trunk(code, t, prefix):
    h = code + _relu(code @ t[f"{prefix}.backbone1.W"] + t[f"{prefix}.backbone1.b"])
    h = h + _relu(h @ t[f"{prefix}.backbone2.W"] + t[f"{prefix}.backbone2.b"])
    return h @ t[f"{prefix}.output.W"] + t[f"{prefix}.output.b"]


def forward(tensors, variant, data, rows):
    """Inference-mode predictions and codes for the stimuli ``rows``."""
    t = tensors
    x = {"sem": data["voxels"][rows][:, data["high"]], "det": data["voxels"][rows]}
    codes = {"text_semantic": _relu(x["sem"] @ t["text.encoder.W"] + t["text.encoder.b"])}
    out = {"text": _trunk(codes["text_semantic"], t, "text")}
    preds = []
    for path in image_paths(variant):
        name = "image_semantic" if path == "sem" else "image_detail"
        codes[name] = _relu(x[path] @ t[f"image.encoder_{path}.W"] + t[f"image.encoder_{path}.b"])
        preds.append(_trunk(codes[name], t, "image"))
    if preds:
        out["image"] = np.mean(preds, axis=0)
    out["codes"] = codes
    return out


def image_target(data, variant, targets_cfg, rows):
    lo, hi = int(targets_cfg["detail_layer_lo"]), int(targets_cfg["detail_layer_hi"])
    det = np.mean([f for i, f in zip(data["layer_ids"], data["layers"]) if lo <= i <= hi], axis=0)
    sem = data["layers"][-1] if targets_cfg["semantic_target_from_final"] == "true" else det
    paths = image_paths(variant)
    target = sem if paths == ("sem",) else det if paths == ("det",) else 0.5 * (det + sem)
    return target[rows]


def two_way_loop(preds, truths, similarity):
    """Two-way identification (%) as an explicit loop over ordered pairs."""
    n = preds.shape[0]
    if similarity == "pearson":
        sims = np.corrcoef(preds, truths)[:n, n:]
    else:
        pn = preds / np.linalg.norm(preds, axis=1, keepdims=True)
        tn = truths / np.linalg.norm(truths, axis=1, keepdims=True)
        sims = pn @ tn.T
    score = 0.0
    for i in range(n):
        own = sims[i, i]
        for j in range(n):
            if j != i:
                score += 1.0 if own > sims[i, j] else 0.5 if own == sims[i, j] else 0.0
    return 100.0 * score / (n * (n - 1))


def pixcorr_mean(preds, truths):
    return float(np.mean([np.corrcoef(p, t)[0, 1] for p, t in zip(preds, truths)]))


def recomputed_metrics(ckpt_dir, data, similarity) -> dict:
    """two_way_image and pixcorr on the test split from a reloaded checkpoint."""
    tensors, model_cfg, targets_cfg = read_checkpoint(ckpt_dir)
    variant = model_cfg["variant"]
    rows = slice(data["n_train"], data["voxels"].shape[0])
    pred = forward(tensors, variant, data, rows)["image"]
    target = image_target(data, variant, targets_cfg, rows)
    return {"two_way_image": two_way_loop(pred, target, similarity),
            "pixcorr": pixcorr_mean(pred, target)}


# -------------------------------------------------------------- commands


def check_dataset(data_dir, synth):
    data = read_dataset(data_dir)
    n = synth["n_train"] + synth["n_test"]
    require(data["voxels"].shape == (n, synth["n_low_voxels"] + synth["n_high_voxels"]),
            f"voxels shape {data['voxels'].shape}")
    require(len(data["high"]) == synth["n_high_voxels"], "mask has the wrong high-level count")
    require(len(data["layers"]) == 6 and all(f.shape[0] == n for f in data["layers"]), "layer stack shape")
    require(data["text_targets"].shape[0] == n, "caption count")
    return data


def _resolved_similarity(out_dir):
    return read_kv(Path(out_dir) / "resolved.cfg")["eval_similarity"]


def check_metrics_file(out_dir, ckpt_dir, data):
    written = read_metrics(Path(out_dir) / "metrics.json")
    exact = recomputed_metrics(ckpt_dir, data, _resolved_similarity(out_dir))
    for key, value in exact.items():
        require(abs(written[key] - value) <= 1e-9, f"{key}: wrote {written[key]!r}, recomputed {value!r}")
    return written


def check_train(out_dir, data):
    rows = read_csv_rows(Path(out_dir) / "loss_history.csv")
    require(rows and all(math.isfinite(float(r["value"])) for r in rows), "loss history is not finite")
    variant = read_metrics(Path(out_dir) / "metrics.json")["variant"]
    total = "image_total" if image_paths(variant) else "text_total"
    val = {int(r["epoch"]): float(r["value"]) for r in rows
           if r["split"] == "val" and r["component"] == total}
    require(min(val.values()) < val[1], f"best validation {total} is not below epoch 1's")
    return check_metrics_file(out_dir, Path(out_dir) / "checkpoint", data)


def check_eval(out_dir, train_dir, data):
    written = check_metrics_file(out_dir, Path(train_dir) / "checkpoint", data)
    if _resolved_similarity(out_dir) == _resolved_similarity(train_dir):
        trained = read_metrics(Path(train_dir) / "metrics.json")
        for key in ("two_way_image", "two_way_text", "pixcorr", "ssim"):
            require(written[key] == trained[key], f"eval {key} {written[key]!r} != train {trained[key]!r}")


def round_trip_agrees(eval_dir, train_dir):
    """Whether eval re-scores a checkpoint exactly as its training did."""
    written = read_metrics(Path(eval_dir) / "metrics.json")
    trained = read_metrics(Path(train_dir) / "metrics.json")
    return all(written[k] == trained[k] for k in ("two_way_image", "two_way_text", "pixcorr", "ssim"))


def _standardize(x):
    centered = x - x.mean(axis=0)
    return centered / np.sqrt((centered ** 2).mean(axis=0))


def lasso_all(x, y, lam, max_sweeps=100_000):
    """Exact lasso solutions for every column of ``y`` at once.

    Same objective as the program, ``(1/2n)||y - Xb||^2 + lam ||b||_1`` on
    standardized columns. Coordinate descent over all columns finds each
    column's active set and signs; a linear solve on that set then gives
    the exact solution, accepted once it satisfies the KKT conditions.
    Returns coefficients on the original scale.
    """
    n, p = x.shape
    xs = _standardize(x)
    scales = np.sqrt(((x - x.mean(axis=0)) ** 2).mean(axis=0))
    gram = xs.T @ xs / n
    corr = xs.T @ (y - y.mean(axis=0)) / n
    beta = np.zeros((p, y.shape[1]))
    gram_beta = np.zeros_like(beta)
    exact = np.zeros_like(beta)
    tol = 1e-6
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(p):
            rho = corr[j] - gram_beta[j] + gram[j, j] * beta[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0) / gram[j, j]
            step = new - beta[j]
            if np.any(step):
                gram_beta += np.outer(gram[:, j], step)
                beta[j] = new
                biggest = max(biggest, float(np.abs(step).max()))
        if biggest >= tol:
            continue
        solved = True
        for k in range(y.shape[1]):
            active = np.flatnonzero(beta[:, k])
            signs = np.sign(beta[active, k])
            coef = np.linalg.solve(gram[np.ix_(active, active)], corr[active, k] - lam * signs)
            slack = np.abs(corr[:, k] - gram[:, active] @ coef)
            slack[active] = 0.0
            if np.any(np.sign(coef) != signs) or np.any(slack > lam * (1 + 1e-9)):
                solved = False
                break
            exact[:, k] = 0.0
            exact[active, k] = coef
        if solved:
            return exact / scales[:, None]
        tol /= 10.0
        if tol < 1e-14:
            break
    raise CheckFailed("reference lasso did not converge")


def kkt_violation(x, y, beta_std, lam):
    xs = _standardize(x)
    grad = xs.T @ ((y - y.mean()) - xs @ beta_std) / x.shape[0]
    active = beta_std != 0.0
    return float(max(
        np.max(np.abs(grad[active] - lam * np.sign(beta_std[active])), initial=0.0),
        np.max(np.abs(grad[~active]) - lam, initial=0.0),
    ))


def check_backproject(out_dir, ckpt_dir, data, lam, program_lasso_fit, kkt_columns=3):
    """Region means against a reference lasso; KKT on program fits; text code
    projects onto high-level voxels."""
    tensors, model_cfg, _ = read_checkpoint(ckpt_dir)
    rows = slice(0, data["n_train"])
    voxels = data["voxels"][rows]
    codes = forward(tensors, model_cfg["variant"], data, rows)["codes"]
    require(sorted(p.name for p in Path(out_dir).glob("backproject_*.csv"))
            == sorted(f"backproject_{name}.csv" for name in codes), "wrong set of tables")
    for name, code in codes.items():
        table = {r["region"]: float(r["mean_abs_beta"])
                 for r in read_csv_rows(Path(out_dir) / f"backproject_{name}.csv")}
        per_voxel = np.abs(lasso_all(voxels, code, lam)).mean(axis=1)
        for region in ("low_level", "high_level"):
            exact = float(per_voxel[data["low" if region == "low_level" else "high"]].mean())
            require(abs(table[region] - exact) <= 1e-7 + 1e-4 * exact,
                    f"{name} {region}: wrote {table[region]!r}, reference {exact!r}")
        for k in np.linspace(0, code.shape[1] - 1, kkt_columns).astype(int):
            fit = program_lasso_fit(voxels, code[:, k], lam)
            worst = kkt_violation(voxels, code[:, k], fit.beta_std, lam)
            require(worst < 1e-6, f"{name} column {k}: KKT violated by {worst:.2e}")
        if name == "text_semantic":
            require(table["high_level"] > table["low_level"],
                    "text code does not project onto high-level voxels")


def _rdm_upper(features):
    rdm = 1.0 - np.corrcoef(features)
    return rdm[np.triu_indices(rdm.shape[0], k=1)]


def _regions(data):
    return {"low_level": data["voxels"][:, data["low"]], "high_level": data["voxels"][:, data["high"]]}


def _cached(data, key, compute):
    """Reference results depend on the dataset only; compute them once per run."""
    cache = data.setdefault("references", {})
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _rsa_table(out_dir):
    return {(r["region"], int(r["layer"])): float(r["similarity"])
            for r in read_csv_rows(Path(out_dir) / "rsa.csv")}


def _raw_rsa_reference(data):
    layer_rdms = {i: _rdm_upper(f) for i, f in zip(data["layer_ids"], data["layers"])}
    return {(name, layer_id): spearmanr(_rdm_upper(voxels), layer_rdm)[0]
            for name, voxels in _regions(data).items() for layer_id, layer_rdm in layer_rdms.items()}


def _ridge_rsa_reference(data, ridge_lambda):
    n = data["voxels"].shape[0]
    fit, held = np.arange(0, n, 2), np.arange(1, n, 2)
    out = {}
    for name, voxels in _regions(data).items():
        x = voxels[fit]
        for layer_id, layer in zip(data["layer_ids"], data["layers"]):
            weights = np.linalg.solve(x.T @ x + ridge_lambda * np.eye(x.shape[1]), x.T @ layer[fit])
            out[(name, layer_id)] = spearmanr(_rdm_upper(voxels[held] @ weights), _rdm_upper(layer[held]))[0]
    return out


def check_rsa_raw(out_dir, data):
    table = _rsa_table(out_dir)
    reference = _cached(data, "rsa_raw", lambda: _raw_rsa_reference(data))
    require(table.keys() == reference.keys(), "rsa table has the wrong rows")
    for key, exact in reference.items():
        require(_close(table[key], exact, 1e-9), f"rsa {key}: wrote {table[key]!r}, spearmanr {exact!r}")
    first, last = data["layer_ids"][0], data["layer_ids"][-1]
    require(table[("low_level", first)] > table[("low_level", last)], "low-level RSA does not fall with depth")
    require(table[("high_level", first)] < table[("high_level", last)], "high-level RSA does not rise with depth")


def check_rsa_ridge(out_dir, data):
    table = _rsa_table(out_dir)
    ridge_lambda = float(read_kv(Path(out_dir) / "resolved.cfg")["ridge_lambda"])
    reference = _cached(data, ("rsa_ridge", ridge_lambda), lambda: _ridge_rsa_reference(data, ridge_lambda))
    require(table.keys() == reference.keys(), "ridge rsa table has the wrong rows")
    for key, exact in reference.items():
        require(_close(table[key], exact, 1e-8), f"ridge rsa {key}: wrote {table[key]!r}, refit {exact!r}")


def _heatmap_reference(data):
    m = data["voxels"].shape[0]
    h = np.eye(m) - np.full((m, m), 1.0 / m)
    grams = [f @ f.T for f in data["layers"]]
    centered = [h @ k @ h for k in grams]
    hsic = np.array([[np.sum(a * b.T) for b in grams] for a in centered])
    return hsic / np.sqrt(np.outer(np.diag(hsic), np.diag(hsic)))


def check_heatmap(out_dir, data):
    reference = _cached(data, "heatmap", lambda: _heatmap_reference(data))
    n = reference.shape[0]
    written = np.full((n, n), np.nan)
    for r in read_csv_rows(Path(out_dir) / "cka_heatmap.csv"):
        written[int(r["i"]), int(r["j"])] = float(r["value"])
    require(not np.isnan(written).any(), "heatmap is incomplete")
    require(np.array_equal(written, written.T), "heatmap is not symmetric")
    require(np.all(np.diag(written) == 1.0), "heatmap diagonal is not 1")
    for i in range(n):
        for j in range(i + 1, n):
            require(_close(written[i, j], reference[i, j], 1e-10),
                    f"cka ({i}, {j}): wrote {written[i, j]!r}, tr(KHLH) gives {reference[i, j]!r}")


def check_gradcheck(stdout_text):
    lines = [l for l in stdout_text.splitlines() if l.strip()]
    require(len(lines) == 13, f"gradcheck printed {len(lines)} lines, expected 13")
    failing = [l for l in lines if not l.startswith("PASS ")]
    require(not failing, f"gradcheck reported {failing[0]!r}" if failing else "")
