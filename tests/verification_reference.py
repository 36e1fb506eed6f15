"""Per-check and per-tensor reference forms of the gradient verification suites.

These are the forms that the grouped scoring in ``voxalign.verification``
replaced: a loss-suite check scores its own stack of perturbed points in a
call of its own, the model suite scores each parameter tensor's stacked
replay in a call of its own, and the central-difference errors are
reduced coordinate by coordinate in Python floats. The tests require the
grouped suites to reproduce them bit for bit. Nothing in the library
imports this module.
"""

import numpy as np

from voxalign.errors import NumericalFailure
from voxalign.model import _StackedParams

FD_STEP = 1e-5


def central_differences(values_at, point, analytic, h):
    """Worst relative error of `analytic` at `point`; one `values_at` call on the +h/-h stack."""
    indices = list(np.ndindex(point.shape))
    stack = np.repeat(point[None], 2 * len(indices), axis=0)
    for k, idx in enumerate(indices):
        stack[(2 * k, *idx)] += h
        stack[(2 * k + 1, *idx)] -= h
    values = [float(v) for v in values_at(stack)]
    worst = 0.0
    for k, idx in enumerate(indices):
        f_plus, f_minus = values[2 * k], values[2 * k + 1]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalFailure(f"non-finite evaluation at index {idx}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[idx])
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def arg_check(loss, score, args, name, field):
    """One loss-suite check: its analytic call, and one `score` call on its own stack."""
    analytic = getattr(loss(**args), field)

    def values_at(stack):
        n = len(stack)
        return score(**{
            k: stack if k == name else np.repeat(v[None], n, axis=0) if isinstance(v, np.ndarray) else v
            for k, v in args.items()
        })

    return central_differences(values_at, args[name], analytic, FD_STEP)


def max_param_error(params, grads, forward, score, h=FD_STEP):
    """The model-suite error of one branch, with one ``score(fwd, K)`` call per parameter tensor."""
    worst = 0.0
    for name in sorted(grads):

        def values_at(stack):
            return score(forward(_StackedParams.of(params, name, stack)), len(stack))

        worst = max(worst, central_differences(values_at, params.tensors[name], grads[name], h))
    return worst
