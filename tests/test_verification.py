"""Tests of the gradient verification suites themselves."""

import numpy as np
import pytest

from voxalign import verification
from voxalign.cli import main
from voxalign.losses import LossValueGrad
from voxalign.model import init_params
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


def test_two_seed_errors_are_pinned():
    results = verification.run_all(n_seeds=2)
    assert [r.name for r in results] == list(TWO_SEED_ERRORS)
    for r in results:
        assert type(r.max_error) is float, r.name
        assert r.max_error == float.fromhex(TWO_SEED_ERRORS[r.name]), r.name
        assert r.passed, r.name


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


def test_tensors_restored_after_failed_evaluation():
    params = init_params(verification._tiny_config(), Rng(3, "restore"))
    before = dict(params.tensors)
    values = {name: t.copy() for name, t in before.items()}
    grads = {name: np.zeros_like(t) for name, t in before.items() if name.startswith("text.")}
    calls = []

    def loss_at():
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("scoring failed")
        return 0.0

    with pytest.raises(RuntimeError, match="scoring failed"):
        verification._max_param_error(params, grads, loss_at)
    assert params.tensors.keys() == before.keys()
    for name, tensor in before.items():
        assert params.tensors[name] is tensor, name
        np.testing.assert_array_equal(tensor, values[name])
