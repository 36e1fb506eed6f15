import numpy as np
import pytest
import scipy.linalg

from voxalign import alignment, linalg
from voxalign.alignment import (
    LayerStack,
    Rdm,
    cka,
    hsic,
    layer_cka_heatmap,
    rdm_from_features,
    region_layer_rsa,
    rsa,
)
from voxalign.cli import _write_table
from voxalign.data import SynthConfig, synth_generate
from voxalign.errors import DegenerateInput, RangeError, ShapeMismatch
from voxalign.linalg import pearson, ridge_solve
from voxalign.rng import Rng


RSA_HEADER = "region,layer,similarity"


def hsic_explicit_h(a, b):
    """Independent oracle: materialize H and multiply four matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.shape[0]
    k = a @ a.T
    l = b @ b.T
    h = np.eye(m) - np.ones((m, m)) / m
    return float(np.trace(k @ h @ l @ h) / (m - 1) ** 2)


HAND_A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
HAND_B = np.array([[2.0, 1.0], [0.0, 0.0], [1.0, 2.0]])


class TestHsic:
    def test_identical_rows_vanish(self):
        a = np.tile([1.5, -2.0, 3.0], (4, 1))
        b = Rng(0, "hsic").normal(4, 3)
        assert abs(hsic(a, b)) < 1e-12

    def test_self_nonnegative(self):
        for s in range(50):
            a = Rng(s, "hsic-self").normal(3 + s % 6, 2 + s % 4)
            assert hsic(a, a) >= -1e-10

    def test_matches_explicit_h_oracle_hand_instance(self):
        assert hsic(HAND_A, HAND_B) == pytest.approx(
            hsic_explicit_h(HAND_A, HAND_B), abs=1e-12
        )

    def test_matches_explicit_h_oracle_random(self):
        for s in range(50):
            r = Rng(s, "hsic-oracle")
            m = 2 + s % 15  # m <= 16
            a = r.child("a").normal(m, 1 + s % 5)
            b = r.child("b").normal(m, 1 + (s + 2) % 5)
            expected = hsic_explicit_h(a, b)
            assert abs(hsic(a, b) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_errors(self):
        with pytest.raises(ShapeMismatch):
            hsic(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(DegenerateInput):
            hsic(np.ones((1, 2)), np.ones((1, 2)))


class TestCka:
    def test_self_similarity(self):
        for s in range(50):
            a = Rng(s, "cka-self").normal(3 + s % 6, 2 + s % 4)
            assert cka(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_scale_and_rotation_invariance(self):
        r = Rng(3, "cka-inv")
        a = r.child("a").normal(6, 4)
        for c in (0.1, -2.0, 7.0):
            assert cka(a, c * a) == pytest.approx(1.0, abs=1e-9)
        q, _ = np.linalg.qr(r.child("q").normal(4, 4))
        assert cka(a, a @ q) == pytest.approx(1.0, abs=1e-9)

    def test_hand_instance_matches_oracle_ratio(self):
        expected = hsic_explicit_h(HAND_A, HAND_B) / np.sqrt(
            hsic_explicit_h(HAND_A, HAND_A) * hsic_explicit_h(HAND_B, HAND_B)
        )
        assert cka(HAND_A, HAND_B) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_range(self):
        for s in range(20):
            r = Rng(s, "cka-sym")
            a = r.child("a").normal(5, 3)
            b = r.child("b").normal(5, 4)
            v = cka(a, b)
            assert abs(v - cka(b, a)) < 1e-12
            assert 0.0 <= v <= 1.0

    def test_constant_representation_rejected(self):
        with pytest.raises(DegenerateInput):
            cka(np.ones((4, 3)), Rng(0, "cka-c").normal(4, 3))


class TestRdm:
    def test_identical_rows_give_zero(self):
        f = np.vstack([[1.0, 2.0, 3.0, 4.0]] * 2 + [[4.0, 1.0, 2.0, 2.0]])
        values = rdm_from_features(f).values
        assert values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_rows_give_two(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        f = np.vstack([row, -row + 10.0])
        assert rdm_from_features(f).values[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        f = Rng(5, "rdm").normal(3, 4)
        got = rdm_from_features(f).values
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else 1.0 - pearson(f[i], f[j])
                assert got[i, j] == pytest.approx(expected, abs=1e-12)

    def test_invariants_on_random_instances(self):
        for s in range(10):
            values = rdm_from_features(Rng(s, "rdm-inv").normal(6, 5)).values
            assert np.all(np.diagonal(values) == 0.0)
            assert np.abs(values - values.T).max() < 1e-12
            assert values.min() >= 0.0 and values.max() <= 2.0

    def test_constant_row_reports_index(self):
        f = Rng(0, "rdm-c").normal(4, 5)
        f[2] = 3.3
        with pytest.raises(DegenerateInput, match="stimulus 2"):
            rdm_from_features(f)

    def test_direct_construction_validates(self):
        with pytest.raises(DegenerateInput):
            Rdm(np.array([[0.0, 3.0], [3.0, 0.0]]))  # out of [0, 2]


class TestRsa:
    def test_self_is_one(self):
        r = rdm_from_features(Rng(0, "rsa").normal(5, 6))
        assert rsa(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        r1 = rdm_from_features(Rng(1, "rsa-mono").normal(6, 5))
        transformed = (r1.values**2) / 2.0  # increasing map, keeps [0, 2]
        np.fill_diagonal(transformed, 0.0)
        r2 = Rdm(transformed)
        assert rsa(r1, r2) == pytest.approx(1.0, abs=1e-12)

    def test_null_distribution_bounded(self):
        # Independent random features: frozen simulation bound |rsa| < 0.35.
        for s in range(20):
            r = Rng(s, "rsa-null")
            a = rdm_from_features(r.child("a").normal(20, 12))
            b = rdm_from_features(r.child("b").normal(20, 12))
            assert abs(rsa(a, b)) < 0.35

    def test_size_mismatch(self):
        a = rdm_from_features(Rng(0, "rsa-m").normal(4, 5))
        b = rdm_from_features(Rng(1, "rsa-m").normal(5, 5))
        with pytest.raises(ShapeMismatch):
            rsa(a, b)


def make_stack(seed=0, n=12, width=6):
    r = Rng(seed, "stack")
    base = r.child("base").normal(n, width)
    layers = (
        base,
        3.0 * base,
        r.child("other").normal(n, width),
    )
    return LayerStack((1, 2, 3), layers)


class TestLayerStack:
    def test_validation(self):
        with pytest.raises(DegenerateInput):
            LayerStack((2, 1), (np.ones((2, 2)), np.ones((2, 2))))
        with pytest.raises(ShapeMismatch):
            LayerStack((1, 2), (np.ones((2, 2)), np.ones((3, 2))))

    def test_layer_lookup(self):
        stack = make_stack()
        np.testing.assert_array_equal(stack.layer(2), stack.features[1])
        with pytest.raises(RangeError):
            stack.layer(9)


class TestLayerCkaHeatmap:
    def test_scaled_layer_fully_aligned(self):
        heatmap = layer_cka_heatmap(make_stack())
        assert heatmap[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_unit_diagonal(self):
        heatmap = layer_cka_heatmap(make_stack(seed=4))
        np.testing.assert_array_equal(heatmap, heatmap.T)
        assert np.all(np.diagonal(heatmap) == 1.0)

    def test_block_structure_recovered(self):
        r = Rng(7, "blocks")
        block_a = r.child("a").normal(14, 5)
        block_b = r.child("b").normal(14, 5)
        noise = lambda tag: 0.05 * r.child(tag).normal(14, 5)
        stack = LayerStack(
            (1, 2, 3, 4),
            (
                block_a + noise("a1"),
                block_a + noise("a2"),
                block_b + noise("b1"),
                block_b + noise("b2"),
            ),
        )
        h = layer_cka_heatmap(stack)
        within = np.mean([h[0, 1], h[2, 3]])
        across = np.mean([h[0, 2], h[0, 3], h[1, 2], h[1, 3]])
        assert within > across

    def test_matches_pairwise_cka_bit_for_bit(self, monkeypatch):
        r = Rng(8, "heat")
        stack = LayerStack(
            (2, 4, 6, 8), tuple(r.child(str(i)).normal(15, 6) for i in range(4))
        )
        expected = np.eye(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    expected[i, j] = cka(stack.features[min(i, j)], stack.features[max(i, j)])
        calls = []
        monkeypatch.setattr(alignment, "gram_linear", counted(alignment.gram_linear, calls))
        assert layer_cka_heatmap(stack).tobytes() == expected.tobytes()
        assert len(calls) == 4

    def test_error_names_layers(self):
        stack = LayerStack((1, 5), (np.ones((4, 3)), Rng(0, "h").normal(4, 3)))
        with pytest.raises(DegenerateInput, match=r"layers \(1, 5\)"):
            layer_cka_heatmap(stack)


def counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapper


def rsa_problem(seed):
    stack = make_stack(seed=seed, n=17, width=7)
    r = Rng(seed, "rsa-regions")
    regions = [("low", r.child("low").normal(17, 5)), ("high", r.child("high").normal(17, 9))]
    return regions, stack


class TestRegionLayerRsa:
    def test_raw_matches_pairwise_rsa_ranking_each_rdm_once(self, monkeypatch):
        regions, stack = rsa_problem(14)
        expected = [
            (name, layer_id, rsa(rdm_from_features(mat), rdm_from_features(stack.layer(layer_id))))
            for name, mat in regions for layer_id in stack.layer_ids
        ]
        calls = []
        monkeypatch.setattr(linalg, "fractional_ranks", counted(linalg.fractional_ranks, calls))
        rows = region_layer_rsa(regions, stack, mode="raw")
        assert [tuple(row) for row in rows] == expected
        assert len(calls) == len(regions) + stack.n_layers

    def test_ridge_matches_pairwise_rsa_ranking_each_rdm_once(self, monkeypatch):
        regions, stack = rsa_problem(15)
        fit, held = np.arange(0, 17, 2), np.arange(1, 17, 2)
        expected = []
        for name, mat in regions:
            for layer_id in stack.layer_ids:
                layer = stack.layer(layer_id)
                predicted = mat[held] @ ridge_solve(mat[fit], layer[fit], 0.5)
                similarity = rsa(rdm_from_features(predicted), rdm_from_features(layer[held]))
                expected.append((name, layer_id, similarity))
        calls = []
        monkeypatch.setattr(linalg, "fractional_ranks", counted(linalg.fractional_ranks, calls))
        rows = region_layer_rsa(regions, stack, mode="ridge", ridge_lambda=0.5)
        assert [tuple(row) for row in rows] == expected
        assert len(calls) == len(regions) * stack.n_layers + stack.n_layers

    @pytest.mark.parametrize("n_train,n_test,seed", [(96, 32, 7), (288, 96, 1), (512, 64, 2)])
    def test_ridge_table_matches_scipy_cholesky_solve(self, monkeypatch, tmp_path, n_train, n_test, seed):
        """The numpy solve gives the rsa.csv that scipy's cho_factor/cho_solve gave."""
        def scipy_ridge(x, y, lam):
            gram = x.T @ x + lam * np.eye(x.shape[1])
            factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
            return scipy.linalg.cho_solve(factor, x.T @ y, check_finite=False)

        ds = synth_generate(SynthConfig(n_train=n_train, n_test=n_test, seed=seed))
        regions = [("low_level", ds.voxels[:, ds.mask.low_indices]),
                   ("high_level", ds.voxels[:, ds.mask.high_indices])]
        for lam in (0.01, 1.0, 100.0):
            _write_table(tmp_path / "numpy.csv", RSA_HEADER, region_layer_rsa(regions, ds.layers, "ridge", lam))
            with monkeypatch.context() as patched:
                patched.setattr(alignment, "ridge_solve", scipy_ridge)
                _write_table(tmp_path / "scipy.csv", RSA_HEADER, region_layer_rsa(regions, ds.layers, "ridge", lam))
            assert (tmp_path / "numpy.csv").read_text() == (tmp_path / "scipy.csv").read_text(), lam

    def test_all_equal_rdm_names_region(self):
        # One-hot rows are pairwise equally correlated: every distance is 1.5.
        stack = LayerStack((1,), (Rng(16, "eq").normal(3, 4),))
        with pytest.raises(DegenerateInput, match="region eq: all-equal RDM"):
            region_layer_rsa([("eq", np.eye(3))], stack, mode="raw")

    def test_identical_region_scores_one_raw(self):
        stack = make_stack(seed=9)
        rows = region_layer_rsa([("mirror", stack.features[2])], stack, mode="raw")
        by_layer = {row.layer: row.similarity for row in rows}
        assert by_layer[3] == pytest.approx(1.0, abs=1e-12)

    def test_mean_shift_invariance_raw(self):
        stack = make_stack(seed=10)
        region = Rng(11, "region").normal(stack.n_stimuli, 7)
        base = region_layer_rsa([("r", region)], stack, mode="raw")
        shifted = region_layer_rsa(
            [("r", region + 5.0 * np.ones((stack.n_stimuli, 1)))], stack, mode="raw"
        )
        for a, b in zip(base, shifted):
            assert abs(a.similarity - b.similarity) < 1e-9

    def test_permutation_null_bounded(self):
        # Shuffled stimulus labels kill the correspondence: |rsa| stays small.
        n = 20
        for s in range(20):
            r = Rng(s, "perm-null")
            region = r.child("region").normal(n, 8)
            stack = LayerStack((1,), (r.child("layer").normal(n, 8),))
            perm = r.child("perm").permutation(n)
            rows = region_layer_rsa([("r", region[perm])], stack, mode="raw")
            assert abs(rows[0].similarity) < 0.35

    def test_ridge_mode_small_split_rejected(self):
        stack = LayerStack((1,), (Rng(0, "small").normal(5, 4),))
        with pytest.raises(DegenerateInput):
            region_layer_rsa(
                [("r", Rng(1, "small").normal(5, 3))], stack, mode="ridge"
            )

    def test_ridge_mode_runs_deterministically(self):
        stack = make_stack(seed=12, n=16)
        region = Rng(13, "ridge-region").normal(16, 5)
        rows_a = region_layer_rsa([("r", region)], stack, mode="ridge", ridge_lambda=1.0)
        rows_b = region_layer_rsa([("r", region)], stack, mode="ridge", ridge_lambda=1.0)
        assert rows_a == rows_b


class TestCsvExports:
    """The CLI's table writer on the rows of the alignment analyses."""

    def test_square_csv_format(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array([[1.0, 0.123456789123], [0.5, 1.0]])
        _write_table(path, "i,j,value", ((i, j, m[i, j]) for i in range(2) for j in range(2)))
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,value"
        assert lines[1] == "0,0,1"
        assert lines[2] == "0,1,0.123456789"
        assert len(lines) == 5

    def test_rsa_table_csv(self, tmp_path):
        stack = make_stack(seed=14)
        rows = region_layer_rsa([("high", stack.features[0])], stack, mode="raw")
        path = tmp_path / "rsa.csv"
        _write_table(path, RSA_HEADER, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "region,layer,similarity"
        assert len(lines) == 1 + len(rows)
        assert lines[1].startswith("high,1,")
