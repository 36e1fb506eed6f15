"""Tests of the gradient verification suites themselves."""

import dataclasses
import re

import numpy as np
import pytest
import verification_reference as ref

from voxalign import verification
from voxalign.cli import main
from voxalign.errors import NumericalFailure
from voxalign.losses import LossValueGrad, _central_differences, _perturbed_stack
from voxalign.model import IMAGE_RECONS, SCORED_OUTPUTS, _StackedParams, collect_masks, expected_tensors, init_params
from voxalign.rng import Rng

# run_all(n_seeds=2), exactly. The model suite's minus point is x - h, as in
# grad_check; computing it as (x + h) - 2h instead gives
# 0x1.f0bf31ed737a6p-28 for model/text_branch and the same bits elsewhere.
TWO_SEED_ERRORS = {
    "mse": "0x1.0c1bfd9c5685dp-32",
    "sims/own_first_token": "0x1.301df181bca74p-28",
    "sims/target_first_token": "0x1.938e3cc0420f5p-27",
    "cka": "0x1.9cb3d553dc718p-32",
    "mg": "0x1.1f9c729a2e60bp-30",
    "crec": "0x1.e2ed79214926ep-31",
    "text_total/pred_emb": "0x1.22b21511f311cp-30",
    "text_total/recon": "0x1.86d9db57d85ecp-32",
    "image_total/pred_sem": "0x1.606cd92af2ac3p-25",
    "image_total/pred_det": "0x1.92dd5ce5e7dcap-25",
    "image_total/recons": "0x1.a3a90d13626f4p-29",
    "model/text_branch": "0x1.009e6d2e6e12dp-27",
    "model/image_branch": "0x1.d241dc0b38179p-24",
}

# run_all(n_seeds=20), the gradcheck command's suites, exactly.
TWENTY_SEED_ERRORS = {
    "mse": "0x1.1c2624816b05ap-23",
    "sims/own_first_token": "0x1.47b058e678accp-25",
    "sims/target_first_token": "0x1.30a7d9d369720p-26",
    "cka": "0x1.bc507fc55a078p-24",
    "mg": "0x1.1e9f28b1a3f67p-22",
    "crec": "0x1.7304a009569e2p-29",
    "text_total/pred_emb": "0x1.0fb4a0702fba0p-21",
    "text_total/recon": "0x1.8340ff392141ep-28",
    "image_total/pred_sem": "0x1.606cd92af2ac3p-25",
    "image_total/pred_det": "0x1.dbce52c8e3f9fp-24",
    "image_total/recons": "0x1.27c6a39c3385ap-21",
    "model/text_branch": "0x1.c3c1167c50681p-24",
    "model/image_branch": "0x1.557d370044e9fp-23",
}

GRADCHECK_STDOUT = """\
PASS mse: max_rel_err=1.323e-07 threshold=1e-06
PASS sims/own_first_token: max_rel_err=3.815e-08 threshold=1e-05
PASS sims/target_first_token: max_rel_err=1.773e-08 threshold=1e-05
PASS cka: max_rel_err=1.035e-07 threshold=1e-04
PASS mg: max_rel_err=2.669e-07 threshold=1e-04
PASS crec: max_rel_err=2.700e-09 threshold=1e-06
PASS text_total/pred_emb: max_rel_err=5.061e-07 threshold=1e-04
PASS text_total/recon: max_rel_err=5.635e-09 threshold=1e-04
PASS image_total/pred_sem: max_rel_err=4.103e-08 threshold=1e-04
PASS image_total/pred_det: max_rel_err=1.108e-07 threshold=1e-04
PASS image_total/recons: max_rel_err=5.509e-07 threshold=1e-04
PASS model/text_branch: max_rel_err=1.052e-07 threshold=1e-04
PASS model/image_branch: max_rel_err=1.590e-07 threshold=1e-04
"""


def _assert_pinned(n_seeds, pinned):
    results = verification.run_all(n_seeds=n_seeds)
    assert [r.name for r in results] == list(pinned)
    for r in results:
        assert type(r.max_error) is float, r.name
        assert r.max_error == float.fromhex(pinned[r.name]), r.name
        assert r.passed, r.name


def test_two_seed_errors_are_pinned():
    _assert_pinned(2, TWO_SEED_ERRORS)


def test_twenty_seed_errors_are_pinned():
    _assert_pinned(20, TWENTY_SEED_ERRORS)


def test_gradcheck_stdout_is_pinned(capsys):
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out == GRADCHECK_STDOUT


def test_wrong_loss_gradient_fails(monkeypatch):
    sims_loss = verification.sims_loss

    def skewed(*args, **kwargs):
        out = sims_loss(*args, **kwargs)
        return LossValueGrad(out.value, 1.001 * out.grad)

    monkeypatch.setattr(verification, "sims_loss", skewed)
    failed = {r.name for r in verification.loss_gradient_suite(n_seeds=1) if not r.passed}
    assert failed == {"sims/own_first_token", "sims/target_first_token"}


def test_wrong_model_gradient_fails(monkeypatch):
    backward = verification.text_branch_backward

    def dropped(*args, **kwargs):
        grads = backward(*args, **kwargs)
        grads["text.output.W"] = np.zeros_like(grads["text.output.W"])
        return grads

    monkeypatch.setattr(verification, "text_branch_backward", dropped)
    results = {r.name: r for r in verification.model_gradient_suite(n_seeds=1)}
    assert not results["model/text_branch"].passed
    assert results["model/image_branch"].passed


def _fail_forward_at(k):
    """A forward that raises on its k-th call (the k-th tensor's stack), and a scorer of zeros."""
    calls = []

    def forward(stacked):
        calls.append(1)
        if len(calls) == k:
            raise RuntimeError("scoring failed")

    return forward, lambda fwds: np.zeros(sum(k for _, k in fwds))


def _failing_score(fwds):
    """A scorer that raises on its one call, after every tensor's stacked forward has run."""
    raise RuntimeError("scoring failed")


def _assert_failure_restores(forward, score):
    params = init_params(verification._tiny_config(), Rng(3, "restore"))
    before = dict(params.tensors)
    values = {name: t.copy() for name, t in before.items()}
    grads = {name: np.zeros_like(t) for name, t in before.items() if name.startswith("text.")}

    with pytest.raises(RuntimeError, match="scoring failed"):
        verification._max_param_error(params, grads, forward, score)
    assert params.tensors.keys() == before.keys()
    for name, tensor in before.items():
        assert params.tensors[name] is tensor, name
        np.testing.assert_array_equal(tensor, values[name])


def test_tensors_restored_after_failed_evaluation():
    # The third tensor's stacked forward, after two tensors were scored.
    _assert_failure_restores(*_fail_forward_at(3))


def test_tensors_restored_after_failed_scoring():
    _assert_failure_restores(lambda stacked: None, _failing_score)


def _copy_per_point(point, h):
    """The perturbed points as a copy-per-point loop makes them: +h then -h per index."""
    points = []
    for idx in np.ndindex(point.shape):
        plus = point.copy()
        plus[idx] += h
        minus = point.copy()
        minus[idx] -= h
        points += [plus, minus]
    return points


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 2)])
def test_stack_matches_copy_per_point(shape):
    point = Rng(5, f"stack-{shape}").normal(*shape) * 10.0 ** np.arange(shape[-1])
    seen = []

    def values_at(stack):
        seen.append(stack.copy())
        return np.zeros(len(stack))

    assert _central_differences(values_at, point, np.zeros(shape), verification.FD_STEP) == 0.0
    [stack] = seen
    want = _copy_per_point(point, verification.FD_STEP)
    assert stack.shape == (len(want), *shape)
    for got, expected in zip(stack, want):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_names_its_index(bad):
    point = np.zeros((2, 3))
    indices = list(np.ndindex(point.shape))
    for position in range(2 * point.size):
        values = np.ones(2 * point.size)
        values[position] = bad
        message = re.escape(f"non-finite evaluation at index {indices[position // 2]}")
        with pytest.raises(NumericalFailure, match=message):
            _central_differences(lambda stack: values, point, np.zeros(point.shape), 1e-5)


@pytest.mark.parametrize("seed", range(6))
def test_batched_scorers_match_public_values(seed):
    """Each check's slice of its group's call scores its own stack, point by point as the public function does."""
    for loss, score, args, checks in verification._loss_groups(seed):
        scored = []

        def spy(**batch):
            values = score(**batch)
            scored.append((batch, values))
            return values

        verification._group_errors(loss, spy, args, checks)
        [(batch, values)] = scored
        start = 0
        for check, name, _ in checks:
            stack = _perturbed_stack(args[name], verification.FD_STEP)
            rows = slice(start, start + len(stack))
            assert batch[name][rows].tobytes() == stack.tobytes(), (check, name)
            for point, value in zip(stack, values[rows]):
                assert value == loss(**{**args, name: point}).value, (check, name)
            start += len(stack)
        assert len(values) == start


@pytest.mark.parametrize("seed", range(20))
def test_loss_errors_match_per_check_reference(seed):
    want = [
        (check, name, ref.arg_check(loss, score, args, name, field))
        for loss, score, args, checks in verification._loss_groups(seed)
        for check, name, field in checks
    ]
    assert len(want) == 17
    got = verification._loss_errors(seed)
    assert [(c, n, e.hex()) for c, n, e in got] == [(c, n, e.hex()) for c, n, e in want]


@pytest.mark.parametrize("seed", range(20))
def test_model_errors_match_per_tensor_reference(seed):
    cfg = verification._tiny_config()
    rng, params, voxels, fwds = verification._safe_draw(cfg, seed)
    targets = verification._targets(cfg, rng)
    for branch, fwd in fwds.items():
        params, grads, forward, score = verification._branch_check(branch, params, fwd, voxels, targets)
        got = verification._max_param_error(params, grads, forward, score)
        want = ref.max_param_error(params, grads, forward, lambda f, k: score([(f, k)]))
        assert got.hex() == want.hex(), branch


def test_skewed_crec_field_fails_only_its_check(monkeypatch):
    crec_loss = verification.crec_loss

    def skewed(*args, **kwargs):
        out = crec_loss(*args, **kwargs)
        return dataclasses.replace(out, grad_recon_det_cross=1.001 * out.grad_recon_det_cross)

    monkeypatch.setattr(verification, "crec_loss", skewed)
    crec = [(name, error) for check, name, error in verification._loss_errors(0) if check == "crec"]
    assert [name for name, _ in crec] == list(IMAGE_RECONS)
    threshold = verification._LOSS_THRESHOLDS["crec"]
    assert [name for name, error in crec if error >= threshold] == ["recon_det_cross"]


def test_model_suite_scores_each_branch_in_one_call(monkeypatch):
    calls = {"text": 0, "image": 0}
    for branch in calls:
        loss = getattr(verification, f"{branch}_total_loss")

        def counted(*args, _loss=loss, _branch=branch, **kwargs):
            calls[_branch] += 1
            return _loss(*args, **kwargs)

        monkeypatch.setattr(verification, f"{branch}_total_loss", counted)
    forwards = dict.fromkeys([(b, m) for b in ("text", "image") for m in ("rng", "masks")], 0)
    for branch in ("text", "image"):
        forward = getattr(verification, f"{branch}_branch_forward")

        def counted_forward(*args, _forward=forward, _branch=branch, **kwargs):
            [mode] = kwargs  # a screening forward draws masks (rng), a replay reads them (masks)
            forwards[_branch, mode] += 1
            return _forward(*args, **kwargs)

        monkeypatch.setattr(verification, f"{branch}_branch_forward", counted_forward)
    attempts = []
    init = verification.init_params
    monkeypatch.setattr(verification, "init_params", lambda *a, **k: attempts.append(1) or init(*a, **k))
    screens = []
    fd_safe = verification._fd_safe
    monkeypatch.setattr(verification, "_fd_safe", lambda *a: screens.append(fd_safe(*a)) or screens[-1])

    n_seeds = 2
    assert all(r.passed for r in verification.model_gradient_suite(n_seeds=n_seeds))
    names = init_params(verification._tiny_config(), Rng(0, "names")).tensors
    assert len(names) == 24
    # Per draw and branch: one analytic call, then one scoring call for every parameter tensor.
    assert calls == {"text": 2 * n_seeds, "image": 2 * n_seeds}
    # Each attempt screens its text forward, and its image forward only when the text one is safe.
    results = iter(screens)
    image_screens = 0
    for _ in attempts:
        if next(results):  # a safe text draw goes on to screen its image forward
            next(results)
            image_screens += 1
    assert next(results, None) is None
    assert n_seeds <= image_screens < len(attempts)
    # One replayed forward per parameter tensor per draw.
    assert forwards == {
        ("text", "rng"): len(attempts),
        ("image", "rng"): image_screens,
        **{(b, "masks"): n_seeds * sum(n.startswith(f"{b}.") for n in names) for b in ("text", "image")},
    }


def _fd_stack(point):
    """The stack of perturbed points that the central-difference loop builds for `point`."""
    seen = []
    record = lambda stack: seen.append(stack) or np.zeros(len(stack))  # noqa: E731
    _central_differences(record, point, np.zeros(point.shape), verification.FD_STEP)
    return seen[0]


@pytest.mark.parametrize("seed", range(3))
def test_stacked_replay_matches_per_point_replay(seed):
    """The per-point replay is the oracle: one public forward per perturbed copy of a tensor."""
    cfg = verification._tiny_config()
    _, params, voxels, fwds = verification._safe_draw(cfg, seed)
    for branch, fwd in fwds.items():
        masks = collect_masks(fwd.caches)
        for name in sorted(n for n in params.tensors if n.startswith(f"{branch}.")):
            stack = _fd_stack(params.tensors[name])
            stacked = verification._forward(branch, _StackedParams.of(params, name, stack), voxels, masks=masks)
            for i, point in enumerate(stack):
                swapped = dataclasses.replace(params, tensors={**params.tensors, name: point})
                single = verification._forward(branch, swapped, voxels, masks=masks)
                for field in SCORED_OUTPUTS[branch]:
                    got = verification._rows(getattr(stacked, field), len(stack))[i]
                    assert got.tobytes() == getattr(single, field)[0].tobytes(), (name, i, field)


TINY_WEIGHT_SHAPES = sorted({s for s in expected_tensors(verification._tiny_config()).values() if len(s) == 2})


@pytest.mark.parametrize("shape", TINY_WEIGHT_SHAPES)
def test_stacked_matmul_slices_match_2d_products(shape):
    """The stacked replay's premise: numpy/BLAS gives each slice of a stacked product the 2-D product's bits."""
    a, b = shape
    rng = Rng(7, f"stacked-matmul-{shape}")
    for k in (2 * b, 2 * a * b):
        x, w = rng.child(f"x{k}").normal(k, 1, a), rng.child(f"w{k}").normal(k, a, b)
        cases = {
            "(K,1,a)@(K,a,b)": (x @ w, [x[i] @ w[i] for i in range(k)]),
            "(K,1,a)@(a,b)": (x @ w[0], [x[i] @ w[0] for i in range(k)]),
            "(1,a)@(K,a,b)": (x[0] @ w, [x[0] @ w[i] for i in range(k)]),
        }
        for form, (stacked, slices) in cases.items():
            for i, want in enumerate(slices):
                assert stacked[i].tobytes() == want.tobytes(), (form, k, i)
