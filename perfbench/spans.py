"""Span tracer for the benchmark's traced runs.

Library functions are wrapped where their callers look them up (for
example ``voxalign.training.mg_loss`` or ``voxalign.linalg.fractional_ranks``),
and every call records one span: name, start, end and parent. Spans stay
in memory and are reduced to per-layer metrics when the run ends. The
first part of a span name is its layer (``losses``, ``model`` ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

from voxalign.rng import Rng


def _forward_mode(args, kwargs):
    # Both branch forwards take (..., params, rng=None, masks=None); passing
    # an rng or replay masks selects training mode.
    at = next(i for i, a in enumerate(args) if hasattr(a, "tensors"))
    extra = list(args[at + 1:]) + [kwargs.get("rng"), kwargs.get("masks")]
    return "model.forward_train" if any(a is not None for a in extra) else "model.forward_infer"


def _text_rows(args, kwargs, result):
    # Samples are counted once, through the text branch every variant has.
    return int(result.pred_emb.shape[0]) if hasattr(result, "pred_emb") else 0


def _saved_bytes(args, kwargs, result):
    return 24 + 8 * int(args[0].size)


def _loaded_bytes(args, kwargs, result):
    return 24 + 8 * int(result.size)


def _lasso_outcome(args, kwargs, result):
    return (int(result.sweeps), bool(result.converged))


_LOSSES = (
    "text_total_loss", "image_total_loss", "mg_loss", "mse_loss",
    "cka_loss", "sims_loss", "crec_loss",
)
_FORWARDS = ("text_branch_forward", "image_branch_forward")
_BACKWARDS = ("text_branch_backward", "image_branch_backward")

# (module whose globals the caller reads, attribute, span name or namer, amount)
PATCHES = (
    [("training", fn, f"losses.{fn}", None)
     for fn in ("text_total_loss", "image_total_loss", "mg_loss", "mse_loss")]
    + [("verification", fn, f"losses.{fn}", None) for fn in _LOSSES + ("grad_check",)]
    + [(mod, fn, _forward_mode, _text_rows) for mod in ("training", "verification", "cli") for fn in _FORWARDS]
    + [(mod, fn, "model.backward", None) for mod in ("training", "verification") for fn in _BACKWARDS]
    + [
        ("training", "init_params", "model.init_params", None),
        ("verification", "init_params", "model.init_params", None),
        ("verification", "_max_param_error", "verification.max_param_error", None),
        ("cli", "run_all", "verification.run_all", None),
        ("training", "adam_step", "optim.adam_step", None),
        ("training", "train", "training.train", None),
        ("training", "evaluate", "training.evaluate", None),
        ("cli", "run_ablation", "training.run_ablation", None),
        ("cli", "evaluate", "training.evaluate", None),
        ("training", "two_way_identification", "metrics.two_way_identification", None),
        ("training", "pixcorr", "metrics.pixcorr", None),
        ("training", "ssim", "metrics.ssim", None),
        ("cli", "backproject", "lasso.backproject", None),
        ("lasso", "lasso_fit", "lasso.lasso_fit", _lasso_outcome),
        ("cli", "region_layer_rsa", "alignment.region_layer_rsa", None),
        ("cli", "layer_cka_heatmap", "alignment.layer_cka_heatmap", None),
        ("alignment", "rdm_from_features", "alignment.rdm_from_features", None),
        ("alignment", "rsa", "alignment.rsa", None),
        ("alignment", "cka", "alignment.cka", None),
        ("alignment", "hsic", "alignment.hsic", None),
        ("linalg", "fractional_ranks", "linalg.fractional_ranks", None),
        ("alignment", "ridge_solve", "linalg.ridge_solve", None),
        ("alignment", "gram_linear", "linalg.gram_linear", None),
        ("alignment", "apply_centering", "linalg.apply_centering", None),
        ("losses", "apply_centering", "linalg.apply_centering", None),
        ("cli", "synth_generate", "data.synth_generate", None),
        ("cli", "save_dataset", "data.save_dataset", None),
        ("cli", "load_dataset", "data.load_dataset", None),
        ("data", "load_dataset", "data.load_dataset", None),
        ("cli", "save_params", "model.save_params", None),
        ("cli", "load_params", "model.load_params", None),
        ("data", "save_matrix", "matio.save_matrix", _saved_bytes),
        ("model", "save_matrix", "matio.save_matrix", _saved_bytes),
        ("data", "load_matrix", "matio.load_matrix", _loaded_bytes),
        ("model", "load_matrix", "matio.load_matrix", _loaded_bytes),
    ]
    + [("cli", f"cmd_{c}", f"cli.{c}", None) for c in (
        "gen_data", "train", "eval", "analyze", "backproject", "gradcheck")]
)

# Rng is patched on the class, so every caller sees the wrapper.
RNG_METHODS = ("__init__", "normal", "uniform", "random", "integers", "permutation")


class Tracer:
    """Records spans while installed; :meth:`pause` hides calls made by checks."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.amounts = {}
        self._stack = []
        self._paused = 0
        self._undo = []

    def wrap(self, fn, name, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = len(tracer.names)
            tracer.names.append(name(args, kwargs) if callable(name) else name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._stack.pop()
            if amount is not None:
                tracer.amounts[index] = amount(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, amount in PATCHES:
            module = importlib.import_module(f"voxalign.{module_name}")
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, amount))
        for method in RNG_METHODS:
            original = getattr(Rng, method)
            self._undo.append((Rng, method, original))
            name = "rng.stream" if method == "__init__" else f"rng.{method}"
            setattr(Rng, method, self.wrap(original, name))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1


def _layer(name):
    return name.split(".", 1)[0]


# Span name -> (metric summing its duration, metric counting its calls).
_SPAN_METRICS = {
    "optim.adam_step": ("optim.adam_s", "optim.adam_calls"),
    "model.forward_train": ("model.forward_train_s", "model.forward_calls"),
    "model.forward_infer": ("model.forward_infer_s", "model.forward_calls"),
    "model.backward": ("model.backward_s", None),
    "model.save_params": ("model.save_params_s", None),
    "model.load_params": ("model.load_params_s", None),
    "lasso.lasso_fit": ("lasso.fit_s", "lasso.fit_calls"),
    "alignment.rdm_from_features": ("alignment.rdm_s", "alignment.rdm_calls"),
    "alignment.cka": ("alignment.cka_s", None),
    "linalg.fractional_ranks": ("linalg.rank_s", "linalg.rank_calls"),
    "linalg.ridge_solve": ("linalg.ridge_s", None),
    "linalg.gram_linear": (None, "linalg.gram_calls"),
    "linalg.apply_centering": (None, "linalg.centering_calls"),
    "data.synth_generate": ("data.synth_s", None),
    "data.save_dataset": ("data.save_s", None),
    "data.load_dataset": ("data.load_s", None),
    "matio.save_matrix": (None, "matio.files_written"),
    "matio.load_matrix": (None, "matio.files_read"),
    "rng.stream": (None, "rng.streams"),
}
# Layers whose outermost spans (not nested in a span of the same layer)
# give <layer>.busy_s, and for some <layer>.calls.
_BUSY = {"losses": True, "metrics": True, "rng": False}
_FD_LOOPS = ("losses.grad_check", "verification.max_param_error")


def reduce_spans(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer totals over spans ``lo <= index < hi`` (one phase of a run)."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        if parents[i] >= lo:
            child_time[parents[i] - lo] += ends[i] - starts[i]

    def ancestors(i):
        p = parents[i]
        while p >= lo:
            yield names[p]
            p = parents[p]

    out = {}

    def add(key, value):
        if key is not None:
            out[key] = out.get(key, 0) + value

    for i in range(lo, hi):
        name, duration = names[i], ends[i] - starts[i]
        layer = _layer(name)
        above = list(ancestors(i))
        time_metric, count_metric = _SPAN_METRICS.get(name, (None, None))
        add(time_metric, duration)
        add(count_metric, 1)
        if layer in _BUSY and not any(_layer(a) == layer for a in above):
            add(f"{layer}.busy_s", duration)
            if _BUSY[layer]:
                add(f"{layer}.calls", 1)
        if layer == "losses" and name not in _FD_LOOPS and any(a in _FD_LOOPS for a in above):
            add("verification.fd_evals", 1)
        if layer == "training":
            add("training.self_s", duration - child_time[i - lo])
        if "training.train" in above:
            if name == "optim.adam_step":
                add("training.steps", 1)
            if name == "model.forward_train":
                add("training.samples", tracer.amounts[i])
        if name == "training.train":
            add("_train_s", duration)
            add("_train_covered_s", child_time[i - lo])
        if above and above[0] == "training.train":
            add(f"_train.{layer}_s", duration)
        if name == "lasso.lasso_fit":
            sweeps, converged = tracer.amounts[i]
            add("lasso.sweeps", sweeps)
            add("lasso.unconverged", 0 if converged else 1)
        if name in ("matio.save_matrix", "matio.load_matrix"):
            add("matio.bytes_written" if name == "matio.save_matrix" else "matio.bytes_read", tracer.amounts[i])
    return out
