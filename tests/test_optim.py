import warnings

import numpy as np
import pytest

from optim_reference import AdamState, adam_step as reference_step
from voxalign import optim
from voxalign.errors import NumericalFailure, ShapeMismatch
from voxalign.optim import adam_step
from voxalign.rng import Rng


def flatten(tensors: dict):
    """One vector holding the tensors in key order, and its layout."""
    layout, stop = [], 0
    for name, tensor in tensors.items():
        start, stop = stop, stop + np.size(tensor)
        layout.append((name, start, stop))
    vector = np.concatenate([np.ravel(t).astype(np.float64) for t in tensors.values()])
    return vector, tuple(layout)


class Flat:
    """Parameters, gradient and moments of a tensor dict as flat vectors."""

    def __init__(self, tensors: dict):
        self.like = tensors
        self.params, self.layout = flatten(tensors)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)

    def step(self, grads: dict, t: int, **kwargs):
        g, _ = flatten({name: grads[name] for name in self.like})
        adam_step(self.params, g, self.m, self.v, self.layout, t, **kwargs)

    def tensors(self, vector=None) -> dict:
        """The tensors of `vector` (the parameters by default), shaped like the input."""
        vector = self.params if vector is None else vector
        return {name: vector[start:stop].reshape(np.shape(self.like[name])) for name, start, stop in self.layout}


def test_zero_gradients_leave_params_unchanged():
    tensors = {"w": Rng(0, "adam").normal(3, 3), "b": np.zeros(3)}
    flat = Flat(tensors)
    flat.step({"w": np.zeros((3, 3)), "b": np.zeros(3)}, t=1, learning_rate=0.1)
    new = flat.tensors()
    for name in tensors:
        assert new[name].tobytes() == tensors[name].tobytes()


def test_first_step_closed_form():
    # theta = 0, g = 1, lr = 0.1: bias-corrected first step lands at -0.1.
    flat = Flat({"theta": np.array([0.0])})
    flat.step({"theta": np.array([1.0])}, t=1, learning_rate=0.1)
    assert abs(flat.params[0] + 0.1) < 1e-6
    assert flat.m[0] == pytest.approx(0.1)
    assert flat.v[0] == pytest.approx(0.001)


def test_identical_gradients_update_identically():
    flat = Flat({"a": np.array([1.0, 1.0]), "b": np.array([1.0, 1.0])})
    flat.step({"a": np.array([0.3, 0.3]), "b": np.array([0.3, 0.3])}, t=1)
    new = flat.tensors()
    assert new["a"].tobytes() == new["b"].tobytes()
    assert new["a"][0] == new["a"][1]


def test_zero_learning_rate_is_bitwise_identity():
    tensors = {"w": Rng(1, "adam").normal(4, 4)}
    flat = Flat(tensors)
    for t in range(1, 6):
        flat.step({"w": Rng(t, "adam-g").normal(4, 4)}, t=t, learning_rate=0.0)
    assert flat.tensors()["w"].tobytes() == tensors["w"].tobytes()


def test_nonfinite_gradient_names_tensor():
    flat = Flat({"w": np.ones((2, 2)), "bad_tensor": np.ones(2)})
    with pytest.raises(NumericalFailure, match="bad_tensor"):
        flat.step({"w": np.zeros((2, 2)), "bad_tensor": np.array([1.0, np.inf])}, t=1)


def test_second_moment_overflow_names_tensor():
    # g is finite but g * g is not: v would turn inf and freeze the entry.
    flat = Flat({"w": np.ones(2), "huge": np.ones(2)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="second moment .* tensor 'huge'"):
            flat.step({"w": np.zeros(2), "huge": np.array([1.0, 1e160])}, t=1)


def test_nan_gradient_keeps_non_finite_message():
    flat = Flat({"w": np.ones(2)})
    with pytest.raises(NumericalFailure, match="non-finite gradient for tensor 'w'"):
        flat.step({"w": np.array([np.nan, 1.0])}, t=1)


def test_missing_or_misshapen_gradients():
    flat = Flat({"w": np.ones((2, 2))})
    p, m, v, layout = flat.params, flat.m, flat.v, flat.layout
    with pytest.raises(ShapeMismatch):
        adam_step(p, np.ones(3), m, v, layout, t=1)
    with pytest.raises(ShapeMismatch):
        adam_step(p.reshape(2, 2), np.ones((2, 2)), m.reshape(2, 2), v.reshape(2, 2), layout, t=1)
    with pytest.raises(ShapeMismatch):
        adam_step(p, np.ones(4), m[:3], v, layout, t=1)
    with pytest.raises(ShapeMismatch):
        adam_step(p, np.ones(4), m, v, (("w", 0, 3),), t=1)
    with pytest.raises(ShapeMismatch):
        adam_step(p, np.ones(4), m, v, (("w", 0, 2), ("u", 3, 4)), t=1)
    with pytest.raises(ValueError):
        adam_step(p, np.ones(4), m, v, layout, t=0)


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

    flat = Flat({"theta": theta})
    for t, g in enumerate(grads_seq, start=1):
        flat.step({"theta": g}, t=t, learning_rate=lr)
    np.testing.assert_allclose(flat.params, ref_theta, atol=0)


def _awkward(rng, shape):
    """Gradients with -0.0, subnormals, huge and tiny normal values mixed in."""
    g = rng.normal(*shape).ravel()
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e-300])
    g[:: 7] = np.resize(specials, g[:: 7].shape)
    return g.reshape(shape)


@pytest.mark.parametrize("block", [None, 7])
def test_matches_dict_reference_bit_for_bit(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(optim, "BLOCK", block)
    rng = Rng(3, "adam-oracle")
    shapes = {"a.W": (150, 130), "a.b": (130,), "b.W": (3, 5), "b.b": (5,), "c.W": (9, 4)}
    assert sum(int(np.prod(s)) for s in shapes.values()) > optim.BLOCK
    tensors = {name: rng.child(f"init/{name}").normal(*shape) for name, shape in shapes.items()}
    settings = dict(learning_rate=1e-2, beta1=0.8, beta2=0.99, epsilon=1e-7)
    flat = Flat(tensors)
    ref, state = dict(tensors), AdamState.zeros(tensors)
    for t in range(1, 5):
        grads = {name: _awkward(rng.child(f"g{t}/{name}"), shape) for name, shape in shapes.items()}
        ref, state = reference_step(ref, grads, state, t, **settings)
        flat.step(grads, t, **settings)
        for vector, expected in ((None, ref), (flat.m, state.m), (flat.v, state.v)):
            got = flat.tensors(vector)
            for name in shapes:
                assert got[name].tobytes() == expected[name].tobytes(), (t, name)


def test_step_on_one_slice_leaves_the_other_untouched():
    rng = Rng(4, "adam-slices")
    tensors = {"image.W": rng.child("i").normal(6, 5), "text.W": rng.child("t").normal(4, 3)}
    flat = Flat(tensors)
    g, _ = flatten({name: rng.child(f"g/{name}").normal(*t.shape) for name, t in tensors.items()})
    adam_step(flat.params, g, flat.m, flat.v, flat.layout, t=1)  # every moment non-zero
    before = [a.copy() for a in (flat.params, flat.m, flat.v)]
    split = flat.layout[1][1]
    adam_step(flat.params[split:], g[split:], flat.m[split:], flat.v[split:], (("text.W", 0, 12),), t=1)
    for now, then in zip((flat.params, flat.m, flat.v), before):
        assert now[:split].tobytes() == then[:split].tobytes()
        assert now[split:].tobytes() != then[split:].tobytes()


@pytest.mark.parametrize("bad_index,message", [
    (3, "non-finite gradient for tensor 'mid'"),  # element 8: third block, mid-buffer
    (9, "second moment .* tensor 'mid'"),  # element 14: the block shared with 'tail'
])
def test_failure_in_a_later_block_names_tensor(monkeypatch, bad_index, message):
    monkeypatch.setattr(optim, "BLOCK", 4)
    tensors = {"head": np.ones(5), "mid": np.ones(10), "tail": np.ones(6)}
    grads = {name: np.full(t.shape, 0.5) for name, t in tensors.items()}
    grads["mid"][bad_index] = np.nan if "non-finite" in message else 1e160
    flat = Flat(tensors)
    with pytest.raises(NumericalFailure, match=message):
        flat.step(grads, t=1)
    # Blocks before the failing one have been updated in place.
    assert np.all(flat.params[:4] < 1.0)
    assert np.all(flat.params[12:] == 1.0)


def test_first_failing_tensor_in_buffer_order_is_named():
    tensors = {"a": np.ones(3), "b": np.ones(3), "c": np.ones(3)}
    grads = {"a": np.zeros(3), "b": np.array([0.0, 1e160, 0.0]), "c": np.array([np.nan, 0.0, 0.0])}
    with pytest.raises(NumericalFailure, match="overflows for tensor 'b'"):
        Flat(tensors).step(grads, t=1)
    # A non-finite entry anywhere in the tensor decides the message.
    grads["b"][2] = np.inf
    with pytest.raises(NumericalFailure, match="non-finite gradient for tensor 'b'"):
        Flat(tensors).step(grads, t=1)
