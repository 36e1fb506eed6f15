"""Acceptance criteria, one test per criterion.

Every tolerance is pinned here; nothing is deferred to calibration. The
heavyweight trained models (criterion 5) are shared with criteria 6 and 8
through module-scoped fixtures, which train them and criterion 6's
ablations on two worker processes. Run with
``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from lasso_reference import soft_threshold

from voxalign.alignment import cka, hsic, rdm_from_features, rsa
from voxalign.data import SynthConfig, synth_generate, split_regions
from voxalign.errors import FormatError
from voxalign.lasso import backproject, kkt_violation, lasso_fit
from voxalign.losses import (
    crec_loss,
    image_total_loss,
    mg_loss,
    text_total_loss,
)
from voxalign.matio import load_matrix, save_matrix
from voxalign.metrics import pixcorr, ssim, two_way_identification
from voxalign.model import desk_config, image_branch_forward, init_params
from voxalign.rng import Rng
from voxalign.training import TrainConfig, evaluate, layer_range_scan, run_ablation, train
from voxalign.verification import loss_gradient_suite, model_gradient_suite

from test_metrics import ssim_loop_oracle

TRAIN_SEEDS = (0, 1, 2)


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def desk_datasets():
    return {seed: synth_generate(SynthConfig(seed=seed)) for seed in TRAIN_SEEDS}


def _train_full(dataset, seed):
    """One criterion-5 model: 200 epochs of ``full``, timed in the worker that trains it."""
    t0 = time.perf_counter()
    cfg = TrainConfig(seed=seed)
    params, report = train(dataset, desk_config(), cfg, variant="full")
    metrics = evaluate(params, dataset, cfg)
    return {"params": params, "report": report, "metrics": metrics, "seconds": time.perf_counter() - t0}


def _ablation_metrics(variant, dataset, seed):
    return run_ablation(variant, dataset, desk_config(), TrainConfig(seed=seed))[2]


@pytest.fixture(scope="module")
def trainings(desk_datasets):
    """The nine acceptance trainings on two forked workers, one per core.

    The trainings are independent and seeded, and each worker inherits
    the one-thread BLAS pin, so every result is the one a serial loop
    gives. Returns ``({seed: full model}, {(variant, seed): ablation metrics})``.
    """
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        # The longer full trainings go first, so the two workers finish together.
        full = {seed: pool.submit(_train_full, desk_datasets[seed], seed) for seed in TRAIN_SEEDS}
        ablations = {
            (variant, seed): pool.submit(_ablation_metrics, variant, desk_datasets[seed], seed)
            for seed in TRAIN_SEEDS
            for variant in ("full_no_crec", "text_only")
        }
        return (
            {seed: future.result() for seed, future in full.items()},
            {key: future.result() for key, future in ablations.items()},
        )


@pytest.fixture(scope="module")
def trained_full(trainings):
    """Full-variant models at the default desk config, 200 epochs, 3 seeds."""
    return trainings[0]


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = loss_gradient_suite(20) + model_gradient_suite(20)
    elapsed = time.perf_counter() - t0
    failures = [r for r in results if not r.passed]
    detail = (
        f"{len(results)} gradient checks, worst headroom "
        f"{max(r.max_error / r.threshold for r in results):.2e} of budget, "
        f"{elapsed:.1f} s (< 60 s)"
    )
    _report(1, not failures and elapsed < 60.0, detail)


def test_criterion_2_cka_oracle_equivalence():
    def hsic_oracle(a, b):
        m = a.shape[0]
        k = a @ a.T
        l = b @ b.T
        h = np.eye(m) - np.ones((m, m)) / m
        return float(np.trace(k @ h @ l @ h) / (m - 1) ** 2)

    worst_match = 0.0
    for s in range(50):
        r = Rng(s, "accept-cka")
        m = 2 + s % 15  # m <= 16
        a = r.child("a").normal(m, 1 + s % 5)
        b = r.child("b").normal(m, 1 + (s + 3) % 5)
        worst_match = max(worst_match, abs(hsic(a, b) - hsic_oracle(a, b)))
        if m >= 3:
            expected_cka = hsic_oracle(a, b) / np.sqrt(
                hsic_oracle(a, a) * hsic_oracle(b, b)
            )
            worst_match = max(worst_match, abs(cka(a, b) - np.clip(expected_cka, 0, 1)))

    worst_self = 0.0
    worst_invariance = 0.0
    for s in range(10):
        r = Rng(s, "accept-cka-inv")
        a = r.child("a").normal(6, 4)
        worst_self = max(worst_self, abs(cka(a, a) - 1.0))
        q, _ = np.linalg.qr(r.child("q").normal(4, 4))
        worst_invariance = max(worst_invariance, abs(cka(a, a @ q) - 1.0))
        worst_invariance = max(worst_invariance, abs(cka(a, -3.0 * a) - 1.0))

    passed = worst_match < 1e-12 and worst_self < 1e-9 and worst_invariance < 1e-9
    _report(
        2,
        passed,
        f"oracle match {worst_match:.2e} (< 1e-12), self-CKA off by "
        f"{worst_self:.2e}, invariance off by {worst_invariance:.2e} (< 1e-9)",
    )


def test_criterion_3_loss_decomposition():
    worst = 0.0
    for s in range(20):
        r = Rng(s, "accept-decomp")
        a = r.child("a").normal(5, 4)
        b = r.child("b").normal(5, 4)
        mg = mg_loss(a, b)
        worst = max(worst, abs(mg.value - (mg.cka_value + mg.sims_value)))

        f_s = r.child("fs").normal(4)
        recon = r.child("rec").normal(4)
        tl = text_total_loss(a, b, f_s, recon)
        worst = max(worst, abs(tl.value - (tl.mg_value + tl.recon_value)))

        f_d = r.child("fd").normal(6)
        recons = (
            r.child("r0").normal(4), r.child("r1").normal(6),
            r.child("r2").normal(6), r.child("r3").normal(4),
        )
        cl = crec_loss(f_s, f_d, *recons)
        worst = max(
            worst,
            abs(cl.value - (cl.terms[0] + cl.terms[1] + cl.terms[2] + cl.terms[3])),
        )
        sem_t = r.child("st").normal(5, 4)
        det_t = r.child("dt").normal(5, 4)
        il = image_total_loss(
            0.5 * (sem_t + det_t), a, b, sem_t, det_t, f_s, f_d, *recons
        )
        five_terms = (
            il.cka_value + il.sims_value + il.crec_value
            + il.sem_mse_value + il.det_mse_value
        )
        worst = max(worst, abs(il.value - five_terms))
    _report(3, worst < 1e-12, f"worst decomposition residual {worst:.2e} (< 1e-12)")


def test_criterion_4_planted_hierarchy_rsa():
    t0 = time.perf_counter()
    strictly_earlier = 0
    final_is_argmax = 0
    n_seeds = 5
    for seed in range(n_seeds):
        ds = synth_generate(SynthConfig(n_train=96, n_test=32, seed=seed))  # n = 128
        low_rdm = rdm_from_features(ds.voxels[:, ds.mask.low_indices])
        high_rdm = rdm_from_features(ds.voxels[:, ds.mask.high_indices])
        low_curve = [rsa(low_rdm, rdm_from_features(f)) for f in ds.layers.features]
        high_curve = [rsa(high_rdm, rdm_from_features(f)) for f in ds.layers.features]
        if int(np.argmax(low_curve)) < int(np.argmax(high_curve)):
            strictly_earlier += 1
        if int(np.argmax(high_curve)) == len(high_curve) - 1:
            final_is_argmax += 1
    elapsed = time.perf_counter() - t0
    passed = strictly_earlier == n_seeds and final_is_argmax >= 4 and elapsed < 120.0
    _report(
        4,
        passed,
        f"low peak earlier in {strictly_earlier}/5 seeds, final-layer argmax for "
        f"high regions in {final_is_argmax}/5 (need >= 4), {elapsed:.1f} s (< 2 min)",
    )


def test_criterion_5_training_efficacy(desk_datasets, trained_full):
    identifications = []
    decreases = []
    nulls = []
    runtimes = []
    for seed in TRAIN_SEEDS:
        entry = trained_full[seed]
        identifications.append(entry["metrics"]["two_way_image"])
        history = entry["report"].history
        first = history[0]["val"]["image_total"]
        best = entry["report"].best_val_total
        decreases.append(1.0 - best / first)
        runtimes.append(entry["seconds"])
        null_params = init_params(desk_config(), Rng(900 + seed, "null").child("init"))
        nulls.append(
            evaluate(null_params, desk_datasets[seed], TrainConfig(seed=seed))["two_way_image"]
        )
    passed = (
        all(v >= 80.0 for v in identifications)
        and all(42.0 <= v <= 58.0 for v in nulls)
        and all(d >= 0.5 for d in decreases)
        and all(t < 600.0 for t in runtimes)
    )
    _report(
        5,
        passed,
        f"identification {[f'{v:.1f}' for v in identifications]}% (>= 80), "
        f"untrained null {[f'{v:.1f}' for v in nulls]}% (50 +/- 8), "
        f"val loss decrease {[f'{100 * d:.0f}' for d in decreases]}% (>= 50), "
        f"runtime {[f'{t:.0f}' for t in runtimes]} s (< 600 per seed)",
    )


def test_criterion_6_ablation_ordering(trainings):
    trained_full, ablations = trainings
    crec_wins = 0
    text_wins = 0
    for seed in TRAIN_SEEDS:
        full_score = trained_full[seed]["metrics"]["two_way_image"]
        no_crec = ablations["full_no_crec", seed]
        text_only = ablations["text_only", seed]
        if full_score >= no_crec["two_way_image"]:
            crec_wins += 1
        if full_score > text_only["two_way_text"]:
            text_wins += 1
    passed = crec_wins >= 2 and text_wins == 3
    _report(
        6,
        passed,
        f"full >= full_no_crec in {crec_wins}/3 seeds (need >= 2), "
        f"full > text_only in {text_wins}/3 (need 3/3)",
    )


def test_criterion_7_layer_scan_ordering():
    # Harder data and a short budget keep identification off its ceiling so
    # the with-final / without-final orderings can express.
    scan_synth = dict(
        n_train=192, n_test=48, noise_voxel_low=0.6, noise_voxel_high=0.3,
        noise_layer=0.25,
    )
    ranges = [(2, 5, True), (2, 5, False), (1, 4, True), (1, 4, False)]
    seed_wins = 0
    details = []
    for seed in range(3):
        ds = synth_generate(SynthConfig(seed=seed, **scan_synth))
        rows = dict(
            layer_range_scan(ds, ranges, desk_config(), TrainConfig(epochs=30, seed=seed))
        )
        pairs_won = sum(
            rows[f"{lo}-{hi}+final"] > rows[f"{lo}-{hi}"] for lo, hi in ((2, 5), (1, 4))
        )
        details.append(f"seed {seed}: {pairs_won}/2 pairs")
        if pairs_won == 2:
            seed_wins += 1
    _report(
        7,
        seed_wins >= 2,
        f"final-layer inclusion wins both range pairs in {seed_wins}/3 seeds "
        f"(need >= 2): {'; '.join(details)}",
    )


def test_criterion_8_lasso_correctness(desk_datasets, trained_full):
    worst_kkt = 0.0
    for s in range(20):
        r = Rng(s, "accept-kkt")
        x = r.child("x").normal(25, 8)
        y = r.child("y").normal(25)
        result = lasso_fit(x, y, 0.05 + 0.05 * (s % 4))
        worst_kkt = max(worst_kkt, kkt_violation(x, y, result))

    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([3.0, 1.0, -1.0, 0.5])
    ols = x.T @ (y - y.mean()) / 4.0
    closed_form = np.array([soft_threshold(v, 0.4) for v in ols])
    ortho_err = np.abs(lasso_fit(x, y, 0.4).beta - closed_form).max()

    directional_wins = 0
    for seed in TRAIN_SEEDS:
        ds = desk_datasets[seed]
        params = trained_full[seed]["params"]
        tr = ds.train_slice
        vox_sem, vox_det = split_regions(ds.voxels, ds.mask)
        fwd = image_branch_forward(vox_sem[tr], vox_det[tr], params)
        results = backproject({"det": fwd.code_det, "sem": fwd.code_sem}, ds.voxels[tr], ds.mask, 0.01)
        det, sem = results["det"].region_means, results["sem"].region_means
        det_ratio = det["low_level"] / det["high_level"]
        sem_ratio = sem["low_level"] / sem["high_level"]
        if det_ratio > sem_ratio:
            directional_wins += 1

    passed = worst_kkt < 1e-6 and ortho_err < 1e-10 and directional_wins >= 2
    _report(
        8,
        passed,
        f"KKT worst violation {worst_kkt:.2e} (< 1e-6), orthonormal closed-form "
        f"error {ortho_err:.2e} (< 1e-10), detail-vs-semantic low/high ratio "
        f"ordering holds in {directional_wins}/3 seeds (need >= 2)",
    )


def test_criterion_9_determinism_and_io(tmp_path):
    from test_cli import SMALL_GEN, SMALL_TRAIN, tree_digest
    from voxalign.cli import main

    (tmp_path / "gen.cfg").write_text(SMALL_GEN)
    (tmp_path / "train.cfg").write_text(SMALL_TRAIN)
    gen_args = ["gen-data", "--config", str(tmp_path / "gen.cfg"), "--quiet"]
    assert main(gen_args + ["--out", str(tmp_path / "d1")]) == 0
    assert main(gen_args + ["--out", str(tmp_path / "d2")]) == 0
    gen_identical = tree_digest(tmp_path / "d1") == tree_digest(tmp_path / "d2")

    train_args = [
        "train", "--config", str(tmp_path / "train.cfg"),
        "--data", str(tmp_path / "d1"), "--quiet",
    ]
    assert main(train_args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(train_args + ["--out", str(tmp_path / "r2")]) == 0
    train_identical = tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")

    eval_args = [
        "eval", "--ckpt", str(tmp_path / "r1" / "checkpoint"),
        "--data", str(tmp_path / "d1"), "--quiet",
    ]
    assert main(eval_args + ["--out", str(tmp_path / "e1")]) == 0
    assert main(eval_args + ["--out", str(tmp_path / "e2")]) == 0
    eval_identical = tree_digest(tmp_path / "e1") == tree_digest(tmp_path / "e2")

    m = Rng(0, "accept-io").normal(7, 3)
    m[0, 0] = -0.0
    save_matrix(m, tmp_path / "m.mat1")
    round_trip = load_matrix(tmp_path / "m.mat1")
    bit_exact = round_trip.tobytes() == m.tobytes() and np.signbit(round_trip[0, 0])

    raw = bytearray((tmp_path / "m.mat1").read_bytes())
    raw[1] = 0xFF
    (tmp_path / "bad.mat1").write_bytes(bytes(raw))
    try:
        load_matrix(tmp_path / "bad.mat1")
        positioned = False
    except FormatError as exc:
        positioned = exc.offset == 0

    passed = gen_identical and train_identical and eval_identical and bit_exact and positioned
    _report(
        9,
        passed,
        f"gen-data identical={gen_identical}, train identical={train_identical}, "
        f"eval identical={eval_identical}, MAT1 bit-exact={bit_exact}, "
        f"positioned error={positioned}",
    )


def test_criterion_10_metric_sanity():
    r = Rng(0, "accept-metrics")
    a = r.child("a").normal(16, 16)
    b = a + 0.4 * r.child("b").normal(16, 16)
    self_err = abs(ssim(a, a, 4.0) - 1.0)
    oracle_err = abs(ssim(a, b, 5.0) - ssim_loop_oracle(a, b, 5.0))

    x = r.child("x").normal(40)
    y = r.child("y").normal(40)
    affine_err = max(
        abs(pixcorr(2.0 * x + 3.0, y) - pixcorr(x, y)),
        abs(pixcorr(x, 0.1 * y - 9.0) - pixcorr(x, y)),
    )

    null_values = [
        two_way_identification(
            Rng(s, "tw-null").child("p").normal(50, 24),
            Rng(s, "tw-null").child("t").normal(50, 24),
        )
        for s in range(20)
    ]
    null_err = abs(float(np.mean(null_values)) - 50.0)

    passed = (
        self_err < 1e-12 and oracle_err < 1e-10
        and affine_err < 1e-12 and null_err < 5.0
    )
    _report(
        10,
        passed,
        f"ssim self off by {self_err:.2e} (< 1e-12), loop-oracle off by "
        f"{oracle_err:.2e} (< 1e-10), pixcorr affine residual {affine_err:.2e}, "
        f"two-way null mean off chance by {null_err:.2f}% (< 5)",
    )
