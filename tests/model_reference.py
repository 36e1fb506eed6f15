"""Reference forms of one block's forward and of the branch backward.

``apply_layer`` is the block forward that ``voxalign.model._apply_layer``
replaced: every step (mask scaling, dropout, residual) makes a fresh
array. ``backward`` is the accumulating form that
``voxalign.model._backward`` replaced: every gradient starts as a fresh
zeroed array and each contribution is computed into a temporary and then
added. The tests require the library's forms to reproduce them bit for
bit. Nothing in the library imports this module.
"""

import numpy as np

from voxalign.model import _plan, image_paths


def apply_layer(x, weight, bias, rate, rng, mask, residual, train):
    """(output, z, mask) of one block; `mask` is replayed when given, drawn from `rng` otherwise."""
    z = x @ weight + bias
    activated = np.maximum(z, 0.0)
    if train:
        if mask is None:
            keep = rng.random(*activated.shape) >= rate
            mask = keep.astype(np.float64) / (1.0 - rate)
        dropped = activated * mask
    else:
        mask = None
        dropped = activated
    return (x + dropped if residual else dropped), z, mask


def _layer_backward(cache, g_y, train):
    g_dropped = g_y * cache["mask"] if train else g_y
    g_z = g_dropped * (cache["z"] > 0.0)
    return cache["x"].T @ g_z, g_z.sum(axis=0), g_z


def backward(branch, params, fwd, upstream: dict) -> dict:
    """A branch's parameter gradients; ``upstream`` is keyed like the forward result."""
    paths = ("sem",) if branch == "text" else image_paths(params.variant)
    t = params.tensors
    caches = fwd.caches
    train = caches["mode"] == "train"
    grads = {k: np.zeros_like(v) for k, v in t.items() if k.startswith(branch + ".")}
    g_acts = {
        name: np.asarray(g, dtype=np.float64).reshape(getattr(fwd, name).shape[0], -1)
        for name, g in upstream.items()
        if g is not None
    }
    for weight, bias, key, src, dst, kind, _, _ in _plan(branch, paths)[1]:
        g_y = g_acts.get(dst)
        if g_y is None:
            continue
        if kind == "output":
            g_w, g_b, g_z = caches[key]["x"].T @ g_y, g_y.sum(axis=0), g_y
        else:
            g_w, g_b, g_z = _layer_backward(caches[key], g_y, train)
        grads[weight] += g_w
        grads[bias] += g_b
        if kind == "encoder":
            continue
        g_x = g_z @ t[weight].T
        if kind == "backbone":
            g_x = g_x + g_y
        prev = g_acts.get(src)
        g_acts[src] = g_x if prev is None else prev + g_x
    return grads
