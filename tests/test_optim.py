import warnings

import numpy as np
import pytest

from voxalign.errors import NumericalFailure, ShapeMismatch
from voxalign.optim import AdamState, adam_step
from voxalign.rng import Rng


def test_zero_gradients_leave_params_unchanged():
    tensors = {"w": Rng(0, "adam").normal(3, 3), "b": np.zeros(3)}
    state = AdamState.zeros(tensors)
    grads = {"w": np.zeros((3, 3)), "b": np.zeros(3)}
    new, _ = adam_step(tensors, grads, state, t=1, learning_rate=0.1)
    for name in tensors:
        assert new[name].tobytes() == tensors[name].tobytes()


def test_first_step_closed_form():
    # theta = 0, g = 1, lr = 0.1: bias-corrected first step lands at -0.1.
    tensors = {"theta": np.array([0.0])}
    grads = {"theta": np.array([1.0])}
    new, state = adam_step(tensors, grads, AdamState.zeros(tensors), t=1, learning_rate=0.1)
    assert abs(new["theta"][0] + 0.1) < 1e-6
    assert state.m["theta"][0] == pytest.approx(0.1)
    assert state.v["theta"][0] == pytest.approx(0.001)


def test_identical_gradients_update_identically():
    tensors = {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 1.0])}
    grads = {"a": np.array([0.3, 0.3]), "b": np.array([0.3, 0.3])}
    new, _ = adam_step(tensors, grads, AdamState.zeros(tensors), t=1)
    assert new["a"].tobytes() == new["b"].tobytes()
    assert new["a"][0] == new["a"][1]


def test_zero_learning_rate_is_bitwise_identity():
    tensors = {"w": Rng(1, "adam").normal(4, 4)}
    state = AdamState.zeros(tensors)
    current = tensors
    for t in range(1, 6):
        grads = {"w": Rng(t, "adam-g").normal(4, 4)}
        current, state = adam_step(current, grads, state, t=t, learning_rate=0.0)
    assert current["w"].tobytes() == tensors["w"].tobytes()


def test_nonfinite_gradient_names_tensor():
    tensors = {"w": np.ones((2, 2)), "bad_tensor": np.ones(2)}
    grads = {"w": np.zeros((2, 2)), "bad_tensor": np.array([1.0, np.inf])}
    with pytest.raises(NumericalFailure, match="bad_tensor"):
        adam_step(tensors, grads, AdamState.zeros(tensors), t=1)


def test_second_moment_overflow_names_tensor():
    # g is finite but g * g is not: v would turn inf and freeze the entry.
    tensors = {"w": np.ones(2), "huge": np.ones(2)}
    grads = {"w": np.zeros(2), "huge": np.array([1.0, 1e160])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="second moment .* tensor 'huge'"):
            adam_step(tensors, grads, AdamState.zeros(tensors), t=1)


def test_nan_gradient_keeps_non_finite_message():
    tensors = {"w": np.ones(2)}
    with pytest.raises(NumericalFailure, match="non-finite gradient for tensor 'w'"):
        adam_step(tensors, {"w": np.array([np.nan, 1.0])}, AdamState.zeros(tensors), t=1)


def test_missing_or_misshapen_gradients():
    tensors = {"w": np.ones((2, 2))}
    with pytest.raises(ShapeMismatch):
        adam_step(tensors, {}, AdamState.zeros(tensors), t=1)
    with pytest.raises(ShapeMismatch):
        adam_step(tensors, {"w": np.ones(3)}, AdamState.zeros(tensors), t=1)
    with pytest.raises(ValueError):
        adam_step(tensors, {"w": np.ones((2, 2))}, AdamState.zeros(tensors), t=0)


def test_matches_reference_trajectory():
    # Independent oracle: textbook Adam recursion written out longhand.
    rng = Rng(2, "adam-ref")
    theta = rng.child("theta").normal(5)
    grads_seq = [rng.child(f"g{t}").normal(5) for t in range(1, 8)]
    lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8

    ref_theta = theta.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        ref_theta = ref_theta - lr * m_hat / (np.sqrt(v_hat) + eps)

    tensors = {"theta": theta}
    state = AdamState.zeros(tensors)
    for t, g in enumerate(grads_seq, start=1):
        tensors, state = adam_step(tensors, {"theta": g}, state, t=t, learning_rate=lr)
    np.testing.assert_allclose(tensors["theta"], ref_theta, atol=0)
