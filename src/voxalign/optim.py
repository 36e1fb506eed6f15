"""In-place Adam over flat parameter, gradient and moment vectors."""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure, ShapeMismatch

# Elements per pass of the update: the block's slices of the four vectors
# and the two scratch arrays (6 x 128 KiB) stay in a core's L2 cache.
BLOCK = 16384


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    layout,
    t: int,
    learning_rate: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of `params`, `m` and `v` in place.

    The four arguments are 1-D float64 vectors of one length; `layout`
    lists ``(name, start, stop)`` for the tensors they hold, contiguous and
    in order, and serves to name a failing tensor. `t` is the 1-based step
    count including this update.

    The update runs block by block. Per element it is the textbook
    recursion ``v = b2 v + (1 - b2) g g``, ``m = b1 m + (1 - b1) g`` and
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, with ``c = 1 - b**t``. A
    non-finite gradient, or a finite one whose second moment overflows,
    aborts with the first such tensor in buffer order named. Blocks before
    the failing one have been updated by then, and the failing block's
    `v` too.
    """
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    if params.ndim != 1:
        raise ShapeMismatch(f"parameter vector must be 1-D, got shape {params.shape}")
    n = params.shape[0]
    for name, array in (("gradient", grads), ("first moment", m), ("second moment", v)):
        if array.shape != params.shape:
            raise ShapeMismatch(f"{name} vector has shape {array.shape}, expected {params.shape}")
    edge = 0
    for _, start, stop in layout:
        if start != edge or stop < start:
            raise ShapeMismatch(f"layout is not contiguous at element {edge}")
        edge = stop
    if edge != n:
        raise ShapeMismatch(f"layout covers {edge} elements, vectors hold {n}")

    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    scratch_a = np.empty(min(BLOCK, n))
    scratch_b = np.empty(min(BLOCK, n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, BLOCK):
            hi = min(lo + BLOCK, n)
            p, g, mb, vb = params[lo:hi], grads[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - beta2, out=a)
            np.multiply(vb, beta2, out=vb)
            np.add(vb, a, out=vb)
            if not np.isfinite(vb).all():
                _raise_failure(grads, vb, lo, layout)
            np.multiply(mb, beta1, out=mb)
            np.multiply(g, 1.0 - beta1, out=a)
            np.add(mb, a, out=mb)
            np.divide(mb, c1, out=a)
            np.multiply(a, learning_rate, out=a)
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, epsilon, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)


def _raise_failure(grads, v_block, lo, layout):
    """Name the tensor holding the block's first non-finite second moment.

    A non-finite gradient makes its second moment non-finite too, so the
    tensor's whole gradient decides between the two messages.
    """
    bad = lo + int(np.argmin(np.isfinite(v_block)))
    name, start, stop = next(entry for entry in layout if entry[1] <= bad < entry[2])
    if not np.isfinite(grads[start:stop]).all():
        raise NumericalFailure(f"non-finite gradient for tensor {name!r}")
    raise NumericalFailure(f"second moment of the gradient overflows for tensor {name!r}")
