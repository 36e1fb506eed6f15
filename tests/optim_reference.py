"""Dict-form reference of the Adam step.

This is the per-tensor form that ``voxalign.optim.adam_step`` replaced:
it builds new tensors and moments for every name and checks each tensor
before updating it. The tests require the flat in-place kernel to
reproduce it bit for bit. Nothing in the library imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from voxalign.errors import NumericalFailure, ShapeMismatch


@dataclass
class AdamState:
    """First and second moment estimates, keyed like the parameter dict."""

    m: dict = field(repr=False)
    v: dict = field(repr=False)

    @classmethod
    def zeros(cls, tensors: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t) for k, t in tensors.items()},
            v={k: np.zeros_like(t) for k, t in tensors.items()},
        )


def adam_step(
    tensors: dict,
    grads: dict,
    state: AdamState,
    t: int,
    learning_rate: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
):
    """One bias-corrected Adam update; returns new tensors and new state.

    `t` is the 1-based step count including this update. A non-finite
    gradient, or a finite one whose second moment overflows, aborts with
    the offending tensor named.
    """
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    new_tensors = {}
    new_m = {}
    new_v = {}
    for name, param in tensors.items():
        if name not in grads:
            raise ShapeMismatch(f"missing gradient for tensor {name!r}")
        g = grads[name]
        if g.shape != param.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape {g.shape}, expected {param.shape}"
            )
        with np.errstate(over="ignore"):
            v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        # A non-finite gradient makes v non-finite too, so one check covers
        # both it and a finite gradient whose square overflows.
        if not np.isfinite(v).all():
            if not np.isfinite(g).all():
                raise NumericalFailure(f"non-finite gradient for tensor {name!r}")
            raise NumericalFailure(
                f"second moment of the gradient overflows for tensor {name!r}"
            )
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_tensors[name] = param - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
        new_m[name] = m
        new_v[name] = v
    return new_tensors, AdamState(m=new_m, v=new_v)
