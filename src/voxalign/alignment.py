"""Representational alignment measures.

HSIC and CKA compare two sets of observations through their linear-kernel
Gram matrices; RDMs and RSA compare stimulus-by-stimulus dissimilarity
structure. Layer-level helpers reproduce the two standard analyses for a
stack of per-layer embeddings: an inter-layer CKA heatmap and
region-by-layer RSA curves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ._arrays import as_matrix, first_constant_row
from .errors import DegenerateInput, RangeError, ShapeMismatch
from . import linalg
from .linalg import apply_centering, gram_linear, pearson, ridge_solve, spearman

log = logging.getLogger("voxalign")


def hsic(a, b) -> float:
    """Biased HSIC estimate ``tr(K H L H) / (m - 1)^2`` under linear kernels.

    K and L are the Gram matrices of the two inputs and H is the centering
    projector; the trace is evaluated as an inner product with the centered
    K, which is algebraically identical and O(m^2 + m^2 d).
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    m = am.shape[0]
    if bm.shape[0] != m:
        raise ShapeMismatch(f"row count mismatch: {m} vs {bm.shape[0]}")
    if m < 2:
        raise DegenerateInput("hsic requires at least 2 rows")
    return _hsic(apply_centering(gram_linear(am)), gram_linear(bm))


def _hsic(k_centered: np.ndarray, l_kernel: np.ndarray) -> float:
    m = k_centered.shape[0]
    return float((k_centered * l_kernel).sum() / (m - 1) ** 2)


def cka(a, b) -> float:
    """Centered kernel alignment ``HSIC(a,b) / sqrt(HSIC(a,a) HSIC(b,b))``.

    The result lies in [0, 1] up to floating-point noise; values outside
    the interval are clipped and the raw value is logged at DEBUG level.
    Constant representations (zero self-HSIC) are rejected.
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    return _cka(hsic(am, bm), hsic(am, am), hsic(bm, bm))


def _cka(cross: float, self_a: float, self_b: float) -> float:
    if self_a <= 0.0:
        raise DegenerateInput("first argument is a constant representation")
    if self_b <= 0.0:
        raise DegenerateInput("second argument is a constant representation")
    raw = cross / np.sqrt(self_a * self_b)
    if raw < 0.0 or raw > 1.0:
        log.debug("cka value %r outside [0, 1]; clamping", raw)
    return float(np.clip(raw, 0.0, 1.0))


@dataclass(frozen=True)
class Rdm:
    """Representational dissimilarity matrix: symmetric, zero diagonal, [0, 2]."""

    values: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.values, "rdm values")
        n = v.shape[0]
        if v.shape[1] != n:
            raise ShapeMismatch(f"rdm must be square, got {v.shape}")
        if n < 2:
            raise DegenerateInput("rdm requires at least 2 stimuli")
        if np.any(np.diagonal(v) != 0.0):
            raise DegenerateInput("rdm diagonal must be exactly zero")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise DegenerateInput("rdm must be symmetric within 1e-12")
        if v.min() < 0.0 or v.max() > 2.0:
            raise DegenerateInput("rdm entries must lie in [0, 2]")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def upper_triangle(self) -> np.ndarray:
        iu = np.triu_indices(self.n, k=1)
        return self.values[iu]


def rdm_from_features(features) -> Rdm:
    """Correlation-distance RDM: entry (i, j) is 1 - pearson(row_i, row_j)."""
    f = as_matrix(features, "features")
    n = f.shape[0]
    if n < 2:
        raise DegenerateInput("rdm needs at least 2 stimuli")
    if f.shape[1] < 2:
        raise DegenerateInput("rdm needs at least 2 features per stimulus")
    constant = first_constant_row(f)
    if constant is not None:
        raise DegenerateInput(f"stimulus {constant} has a constant pattern")
    corr = np.corrcoef(f)
    corr = np.clip(corr, -1.0, 1.0)
    values = 1.0 - corr
    # Symmetrize away division-order noise and pin the self-distance.
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 0.0)
    return Rdm(values)


def rsa(rdm_a: Rdm, rdm_b: Rdm) -> float:
    """Spearman correlation of the strict upper triangles of two RDMs."""
    if rdm_a.n != rdm_b.n:
        raise ShapeMismatch(f"rdm size mismatch: {rdm_a.n} vs {rdm_b.n}")
    if rdm_a.n < 3:
        raise DegenerateInput("rsa requires at least 3 stimuli")
    return spearman(rdm_a.upper_triangle(), rdm_b.upper_triangle())


@dataclass(frozen=True)
class LayerStack:
    """Ordered per-layer embeddings: one (n_stimuli, n_features) matrix per id."""

    layer_ids: tuple
    features: tuple = field(repr=False)

    def __post_init__(self):
        ids = tuple(int(i) for i in self.layer_ids)
        mats = tuple(as_matrix(f, f"layer {i}") for i, f in zip(ids, self.features))
        if len(ids) != len(mats):
            raise ShapeMismatch("layer_ids and features must have equal length")
        if len(ids) == 0:
            raise DegenerateInput("layer stack is empty")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise DegenerateInput(f"layer ids must be strictly increasing, got {ids}")
        shape = mats[0].shape
        for i, m in zip(ids, mats):
            if m.shape != shape:
                raise ShapeMismatch(
                    f"layer {i} has shape {m.shape}, expected {shape}"
                )
        object.__setattr__(self, "layer_ids", ids)
        object.__setattr__(self, "features", mats)

    @property
    def n_layers(self) -> int:
        return len(self.layer_ids)

    @property
    def n_stimuli(self) -> int:
        return self.features[0].shape[0]

    @property
    def final_id(self) -> int:
        return self.layer_ids[-1]

    def layer(self, layer_id: int) -> np.ndarray:
        try:
            idx = self.layer_ids.index(layer_id)
        except ValueError:
            raise RangeError(
                f"layer id {layer_id} not in stack (ids {self.layer_ids})"
            ) from None
        return self.features[idx]


def layer_cka_heatmap(stack: LayerStack) -> np.ndarray:
    """Symmetric layer-by-layer CKA matrix with a diagonal pinned to 1.

    The diagonal is defined as exactly 1.0 rather than computed, so exported
    tables carry no 1 +/- 1e-10 noise.
    """
    n = stack.n_layers
    if n < 2:
        raise DegenerateInput("heatmap requires at least 2 layers")
    if stack.n_stimuli < 2:
        raise DegenerateInput("heatmap requires at least 2 stimuli")
    # Each layer's Gram matrix once; each centered Gram once, while its row
    # of cross terms and its self-HSIC are taken from it.
    grams = [gram_linear(f) for f in stack.features]
    self_hsic = np.empty(n)
    cross = np.empty((n, n))
    for i in range(n):
        k_centered = apply_centering(grams[i])
        self_hsic[i] = _hsic(k_centered, grams[i])
        for j in range(i + 1, n):
            cross[i, j] = _hsic(k_centered, grams[j])
    out = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                value = _cka(cross[i, j], self_hsic[i], self_hsic[j])
            except DegenerateInput as exc:
                raise DegenerateInput(
                    f"layers ({stack.layer_ids[i]}, {stack.layer_ids[j]}): {exc}"
                ) from exc
            out[i, j] = value
            out[j, i] = value
    return out


class RsaTableRow(NamedTuple):
    region: str
    layer: int
    similarity: float


def region_layer_rsa(
    regions: Sequence[tuple],
    stack: LayerStack,
    mode: str = "raw",
    ridge_lambda: float = 1.0,
) -> list[RsaTableRow]:
    """RSA between region voxel patterns and each layer's embeddings.

    In ``raw`` mode the region RDM is compared directly with each layer RDM.
    In ``ridge`` mode the stimuli are split by index parity (even = fit,
    odd = evaluate), region features are replaced by ridge-predicted layer
    features on the evaluation half, and the RSA is computed there; this
    mirrors the usual encoding-model protocol while staying deterministic.
    """
    if mode not in ("raw", "ridge"):
        raise ValueError(f"mode must be 'raw' or 'ridge', got {mode!r}")
    n = stack.n_stimuli
    region_mats = []
    for name, mat in regions:
        m = as_matrix(mat, f"region {name}")
        if m.shape[0] != n:
            raise ShapeMismatch(
                f"region {name} has {m.shape[0]} stimuli, stack has {n}"
            )
        region_mats.append((str(name), m))
    if n < 3:
        raise DegenerateInput("region_layer_rsa requires at least 3 stimuli")

    # Each distinct RDM is ranked once; RSA is then Pearson over the ranks,
    # exactly what ``rsa`` computes pair by pair.
    rows: list[RsaTableRow] = []
    if mode == "raw":
        layer_ranks = [
            _upper_ranks(rdm_from_features(f), f"layer {i}")
            for i, f in zip(stack.layer_ids, stack.features)
        ]
        for name, mat in region_mats:
            region_ranks = _upper_ranks(rdm_from_features(mat), f"region {name}")
            for layer_id, ranks in zip(stack.layer_ids, layer_ranks):
                rows.append(RsaTableRow(name, layer_id, pearson(region_ranks, ranks)))
        return rows

    fit_idx = np.arange(0, n, 2)
    eval_idx = np.arange(1, n, 2)
    if eval_idx.size < 3:
        raise DegenerateInput(
            f"ridge mode needs >= 3 evaluation stimuli, got {eval_idx.size}"
        )
    layer_ranks = [
        _upper_ranks(rdm_from_features(f[eval_idx]), f"layer {i}")
        for i, f in zip(stack.layer_ids, stack.features)
    ]
    for name, mat in region_mats:
        for layer_id, layer_feat, ranks in zip(stack.layer_ids, stack.features, layer_ranks):
            weights = ridge_solve(mat[fit_idx], layer_feat[fit_idx], ridge_lambda)
            predicted = mat[eval_idx] @ weights
            predicted_ranks = _upper_ranks(
                rdm_from_features(predicted), f"region {name} predicting layer {layer_id}"
            )
            rows.append(RsaTableRow(name, layer_id, pearson(predicted_ranks, ranks)))
    return rows


def _upper_ranks(rdm: Rdm, label: str) -> np.ndarray:
    """Fractional ranks of an RDM's strict upper triangle, as ``rsa`` ranks it."""
    upper = rdm.upper_triangle()
    if np.all(upper == upper[0]):
        raise DegenerateInput(f"{label}: all-equal RDM has no rank ordering")
    # Looked up on the module, where the benchmark's tracer counts rankings.
    return linalg.fractional_ranks(upper)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def write_square_csv(matrix, path) -> None:
    """Write a square matrix (RDM or heatmap) as ``i,j,value`` rows."""
    m = as_matrix(matrix, "matrix")
    lines = ["i,j,value"]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            lines.append(f"{i},{j},{_fmt(m[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rsa_table_csv(rows: Sequence[RsaTableRow], path) -> None:
    lines = ["region,layer,similarity"]
    for row in rows:
        lines.append(f"{row.region},{row.layer},{_fmt(row.similarity)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
