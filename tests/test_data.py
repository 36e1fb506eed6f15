from pathlib import Path

import data_reference as ref
import numpy as np
import pytest

from voxalign.alignment import rdm_from_features, rsa
from voxalign.data import (
    RegionMask,
    Dataset,
    SynthConfig,
    average_layers,
    fuse_targets,
    load_dataset,
    save_dataset,
    split_regions,
    synth_generate,
)
from voxalign.errors import DegenerateInput, RangeError, ShapeMismatch
from voxalign.linalg import ridge_solve, spearman
from voxalign.matio import load_matrix, save_matrix
from voxalign.rng import Rng


def small_cfg(**overrides):
    defaults = dict(n_train=24, n_test=8, n_low_voxels=12, n_high_voxels=10,
                    k_semantic=4, k_detail=5, seed=0)
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestRegionMask:
    def test_blocks_layout(self):
        mask = RegionMask.blocks(3, 2)
        assert mask.labels == ("low", "low", "low", "high", "high")
        assert mask.n_low == 3 and mask.n_semantic == 2 and mask.n_detail == 5
        np.testing.assert_array_equal(mask.high_indices, [3, 4])

    def test_label_validation(self):
        with pytest.raises(DegenerateInput):
            RegionMask(("low", "middle"))
        with pytest.raises(DegenerateInput):
            RegionMask(("low", "low"))  # no high voxel


class TestSplitRegions:
    def test_all_high_mask(self):
        mask = RegionMask(("high",) * 4)
        sem, det = split_regions([1.0, 2.0, 3.0, 4.0], mask)
        np.testing.assert_array_equal(sem, det)

    def test_hand_vector(self):
        mask = RegionMask(("low", "low", "high", "high"))
        sem, det = split_regions([1.0, 2.0, 3.0, 4.0], mask)
        np.testing.assert_array_equal(sem, [3.0, 4.0])
        np.testing.assert_array_equal(det, [1.0, 2.0, 3.0, 4.0])

    def test_partition_round_trip(self):
        mask = RegionMask(("low", "high", "low", "high", "high"))
        v = Rng(0, "split").normal(5)
        sem, det = split_regions(v, mask)
        rebuilt = np.zeros(5)
        rebuilt[mask.high_indices] = sem
        rebuilt[mask.low_indices] = v[mask.low_indices]
        np.testing.assert_array_equal(rebuilt, det)

    def test_batch_version(self):
        mask = RegionMask(("low", "high", "high"))
        m = Rng(1, "split").normal(4, 3)
        sem, det = split_regions(m, mask)
        assert sem.shape == (4, 2)
        np.testing.assert_array_equal(det, m)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            split_regions([1.0, 2.0], RegionMask(("low", "high", "high")))


class TestAveraging:
    """The per-stimulus caption mean that the text-target tests use as their oracle."""

    def test_single_caption(self):
        m = Rng(2, "cap").normal(3, 2)
        np.testing.assert_array_equal(ref.average_captions([m]), m)

    def test_opposite_captions_cancel(self):
        m = Rng(3, "cap").normal(3, 2)
        np.testing.assert_allclose(ref.average_captions([m, -m]), 0.0, atol=1e-16)

    def test_three_hand_matrices(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[4.0, 5.0], [6.0, 7.0]])
        c = np.array([[1.0, 608.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            ref.average_captions([a, b, c]), [[2.0, 205.0], [3.0, 4.0]]
        )

    def test_empty_list(self):
        with pytest.raises(DegenerateInput):
            ref.average_captions([])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ref.average_captions([np.ones((2, 2)), np.ones((3, 2))])


def make_stack_dataset():
    return synth_generate(small_cfg())


class TestAverageLayers:
    def test_single_layer_range(self):
        ds = make_stack_dataset()
        got = average_layers(ds.layers, 3, 3)
        np.testing.assert_array_equal(got, ds.layers.layer(3))

    def test_two_layer_mean(self):
        from voxalign.alignment import LayerStack

        m = Rng(4, "avg").normal(5, 4)
        stack = LayerStack((1, 2), (m, 3.0 * m))
        np.testing.assert_allclose(average_layers(stack, 1, 2), 2.0 * m, atol=1e-15)

    def test_full_span_matches_loop_oracle(self):
        ds = make_stack_dataset()
        ids = ds.layers.layer_ids
        got = average_layers(ds.layers, ids[0], ids[-1])
        acc = np.zeros_like(got)
        for f in ds.layers.features:
            acc += f
        np.testing.assert_allclose(got, acc / len(ids), atol=1e-12)

    def test_range_errors(self):
        ds = make_stack_dataset()
        with pytest.raises(RangeError):
            average_layers(ds.layers, 4, 2)
        with pytest.raises(RangeError):
            average_layers(ds.layers, 1, 99)


class TestFuseTargets:
    def test_equal_inputs(self):
        m = Rng(5, "fuse").normal(3, 3)
        np.testing.assert_array_equal(fuse_targets(m, m), m)

    def test_opposite_inputs(self):
        m = Rng(6, "fuse").normal(3, 3)
        np.testing.assert_allclose(fuse_targets(m, -m), 0.0, atol=1e-16)

    def test_hand_pair(self):
        a = np.array([[2.0, 4.0], [6.0, 8.0]])
        b = np.array([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(fuse_targets(a, b), [[1.0, 3.0], [4.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse_targets(np.ones((2, 2)), np.ones((2, 3)))


class TestSynthGenerate:
    def test_bit_reproducible(self):
        a = synth_generate(small_cfg())
        b = synth_generate(small_cfg())
        assert a.voxels.tobytes() == b.voxels.tobytes()
        for fa, fb in zip(a.layers.features, b.layers.features):
            assert fa.tobytes() == fb.tobytes()
        assert a.caption_counts.tobytes() == b.caption_counts.tobytes()
        assert a.captions.tobytes() == b.captions.tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 7, 401])
    def test_captions_match_the_per_caption_draws(self, seed):
        cfg = small_cfg(seed=seed)
        ds = synth_generate(cfg)
        expected = ref.draw_captions(cfg)
        assert ds.caption_counts.tolist() == [len(c) for c in expected]
        flat = np.stack([e for c in expected for e in c])
        assert (ds.captions.shape, ds.captions.tobytes()) == (flat.shape, flat.tobytes())

    def test_seed_changes_data(self):
        a = synth_generate(small_cfg())
        b = synth_generate(small_cfg(seed=1))
        assert a.voxels.tobytes() != b.voxels.tobytes()

    def test_noise_free_final_layer_identifiable(self):
        # Without noise the final layer is an exact linear function of the
        # semantic factor, so high-level voxels predict it to machine noise.
        cfg = small_cfg(n_train=48, n_test=16, noise_voxel_low=0.0,
                        noise_voxel_high=0.0, noise_layer=0.0, noise_caption=0.0)
        ds = synth_generate(cfg)
        sem, _ = split_regions(ds.voxels, ds.mask)
        final = ds.layers.layer(ds.layers.final_id)
        w = ridge_solve(sem, final, 1e-12)
        residual = np.abs(sem @ w - final).max()
        assert residual < 1e-8

    def test_alpha_schedule_validation(self):
        with pytest.raises(DegenerateInput, match="alpha_schedule"):
            SynthConfig(n_layers=3, alpha_schedule=(0.5, 0.5, 0.0))
        with pytest.raises(DegenerateInput, match="alpha_schedule"):
            SynthConfig(n_layers=3, alpha_schedule=(0.9, 0.5, 0.1))
        with pytest.raises(DegenerateInput, match="alpha_schedule"):
            SynthConfig(n_layers=2, alpha_schedule=(0.9, 0.5, 0.0))

    def test_caption_counts_in_range(self):
        ds = synth_generate(small_cfg())
        assert set(ds.caption_counts.tolist()).issubset({1, 2, 3, 4, 5})

    def test_planted_hierarchy_recoverable(self):
        # Correlation between the per-layer detail weight and the low-level
        # region's RSA curve should be strongly positive.
        for seed in range(5):
            cfg = SynthConfig(n_train=96, n_test=32, seed=seed)
            ds = synth_generate(cfg)
            low = ds.voxels[:, ds.mask.low_indices]
            low_rdm = rdm_from_features(low)
            curve = [rsa(low_rdm, rdm_from_features(f)) for f in ds.layers.features]
            rho = spearman(np.array(cfg.alpha_schedule), np.array(curve))
            assert rho > 0.6


class TestDatasetRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = make_stack_dataset()
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded.voxels.tobytes() == ds.voxels.tobytes()
        assert loaded.mask.labels == ds.mask.labels
        assert loaded.layers.layer_ids == ds.layers.layer_ids
        for fa, fb in zip(loaded.layers.features, ds.layers.features):
            assert fa.tobytes() == fb.tobytes()
        assert loaded.caption_counts.tolist() == ds.caption_counts.tolist()
        assert loaded.captions.tobytes() == ds.captions.tobytes()
        assert loaded.meta == ds.meta

    def test_layout_files(self, tmp_path):
        ds = make_stack_dataset()
        root = tmp_path / "data"
        save_dataset(ds, root)
        assert (root / "voxels.mat1").exists()
        assert (root / "mask.txt").exists()
        assert (root / "meta.txt").exists()
        assert (root / "layers" / "layer_1.mat1").exists()
        assert (root / "captions" / "0" / "0.mat1").exists()
        labels = (root / "mask.txt").read_text().split()
        assert labels == list(ds.mask.labels)

    def test_targets_helpers(self):
        ds = make_stack_dataset()
        text = ds.text_targets()
        assert text.shape == (ds.n, int(ds.meta["text_tokens"]), int(ds.meta["text_dim"]))
        targets = ds.image_targets(2, 4, semantic_from_final=True)
        det, sem = targets["det"], targets["sem"]
        tokens, dim = ds.image_token_shape
        assert det.shape == (ds.n, tokens, dim)
        np.testing.assert_array_equal(det.reshape(ds.n, -1), average_layers(ds.layers, 2, 4))
        np.testing.assert_array_equal(sem.reshape(ds.n, -1), ds.layers.layer(ds.layers.final_id))
        scan = ds.image_targets(2, 4, semantic_from_final=False)
        np.testing.assert_array_equal(scan["sem"], det)

    def test_ingestion_projection_applied_to_layers(self, tmp_path):
        # Wide per-token features on disk, projected to the common width
        # at load time through projection.mat1.
        ds = make_stack_dataset()
        root = tmp_path / "data"
        save_dataset(ds, root)
        tokens, dim = ds.image_token_shape
        wide = dim + 3
        rng = Rng(9, "proj")
        projection = rng.child("p").normal(wide, dim)
        # overwrite each layer file with a wide version
        wide_layers = []
        for layer_id in ds.layers.layer_ids:
            w = rng.child(f"layer/{layer_id}").normal(ds.n, tokens * wide)
            save_matrix(w, root / "layers" / f"layer_{layer_id}.mat1")
            wide_layers.append(w)
        save_matrix(projection, root / "projection.mat1")
        loaded = load_dataset(root)
        for w, got in zip(wide_layers, loaded.layers.features):
            expected = (w.reshape(ds.n, tokens, wide) @ projection).reshape(ds.n, -1)
            np.testing.assert_allclose(got, expected, atol=0)

    def test_ingestion_projection_width_validated(self, tmp_path):
        ds = make_stack_dataset()
        root = tmp_path / "data"
        save_dataset(ds, root)
        save_matrix(np.ones((5, 3)), root / "projection.mat1")  # wrong output width
        with pytest.raises(ShapeMismatch, match=f"^{root}/projection.mat1: maps to width 3, "):
            load_dataset(root)

    def test_voxel_columns_must_match_the_mask(self, tmp_path):
        root = tmp_path / "data"
        save_dataset(make_stack_dataset(), root)
        voxels = load_matrix(root / "voxels.mat1")
        save_matrix(voxels[:, 1:], root / "voxels.mat1")
        with pytest.raises(ShapeMismatch, match=f"^{root}/voxels.mat1: {voxels.shape[1] - 1} columns, but "):
            load_dataset(root)


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_same_dataset(got, expected):
    def same(a, b):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())

    same(got.voxels, expected.voxels)
    assert got.mask == expected.mask
    assert got.meta == expected.meta
    assert got.layers.layer_ids == expected.layers.layer_ids
    for a, b in zip(got.layers.features, expected.layers.features, strict=True):
        same(a, b)
    assert got.caption_counts.tolist() == expected.caption_counts.tolist()
    same(got.captions, expected.captions)


def _caption_means(ds):
    return np.stack([ref.average_captions(c) for c in ref.caption_lists(ds)])


class TestBatchedIOOracle:
    """The batched dataset reader and writer against the per-file ones."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_files_and_arrays_match_the_per_file_io(self, tmp_path, seed):
        ds = synth_generate(small_cfg(n_train=40, n_test=12, seed=seed))
        assert set(ds.caption_counts.tolist()) == {1, 2, 3, 4, 5}
        save_dataset(ds, tmp_path / "batched")
        ref.save_dataset(ds, tmp_path / "per_file")
        assert _tree(tmp_path / "batched") == _tree(tmp_path / "per_file")
        loaded = load_dataset(tmp_path / "batched")
        _assert_same_dataset(loaded, ref.load_dataset(tmp_path / "batched"))
        for d in (ds, loaded):
            assert d.text_targets().tobytes() == _caption_means(d).tobytes()

    def test_projection_matches_the_per_file_loader(self, tmp_path):
        ds = make_stack_dataset()
        root = tmp_path / "data"
        save_dataset(ds, root)
        tokens, dim = ds.image_token_shape
        rng = Rng(5, "proj")
        for layer_id in ds.layers.layer_ids:
            save_matrix(rng.child(f"layer/{layer_id}").normal(ds.n, tokens * (dim + 2)),
                        root / "layers" / f"layer_{layer_id}.mat1")
        save_matrix(rng.child("p").normal(dim + 2, dim), root / "projection.mat1")
        _assert_same_dataset(load_dataset(root), ref.load_dataset(root))


def _rebuilt(ds, captions, counts):
    return Dataset(voxels=ds.voxels, mask=ds.mask, layers=ds.layers, captions=captions,
                   caption_counts=counts, meta=ds.meta)


class TestCaptionChecks:
    """Captions are checked once, when a Dataset is built; a fault names its stimulus."""

    @staticmethod
    def _dataset():
        ds = synth_generate(small_cfg(text_tokens=3, text_dim=3))
        starts = np.cumsum(ds.caption_counts) - ds.caption_counts
        return ds, starts

    def test_a_stimulus_without_captions(self):
        ds, starts = self._dataset()
        i = ds.caption_counts.tolist().index(2)
        counts = ds.caption_counts.copy()
        counts[i] = 0
        captions = np.delete(ds.captions, [starts[i], starts[i] + 1], axis=0)
        with pytest.raises(DegenerateInput) as expected:
            ref.average_captions([])
        with pytest.raises(DegenerateInput, match=rf"^stimulus {i}: {expected.value}$"):
            _rebuilt(ds, captions, counts)

    @pytest.mark.parametrize("where", ["first", "second_of_two", "last"])
    def test_a_non_finite_caption(self, where):
        ds, starts = self._dataset()
        two = ds.caption_counts.tolist().index(2)
        i, j = {"first": (0, 0), "second_of_two": (two, 1), "last": (ds.n - 1, ds.caption_counts[-1] - 1)}[where]
        captions = ds.captions.copy()
        captions[starts[i] + j, 1, 2] = np.inf
        lists = ref.caption_lists(ds)
        lists[i][j] = captions[starts[i] + j]
        with pytest.raises(DegenerateInput) as expected:
            ref.average_captions(lists[i])
        with pytest.raises(DegenerateInput) as got:
            _rebuilt(ds, captions, ds.caption_counts)
        assert str(got.value) == f"stimulus {i}: {expected.value}"
        assert str(got.value) == f"stimulus {i}: caption {j}: contains non-finite entries"

    @pytest.mark.parametrize("extra", [1, -1])
    def test_counts_that_do_not_add_up_to_the_rows(self, extra):
        ds, _ = self._dataset()
        counts = ds.caption_counts.copy()
        counts[5] += extra
        total = len(ds.captions) + extra
        with pytest.raises(ShapeMismatch, match=rf"^caption_counts sum to {total}, but captions has {len(ds.captions)} rows$"):
            _rebuilt(ds, ds.captions, counts)

    def test_counts_not_one_per_stimulus(self):
        ds, _ = self._dataset()
        with pytest.raises(ShapeMismatch, match=rf"^caption_counts: expected shape \({ds.n},\), got \({ds.n - 1},\)$"):
            _rebuilt(ds, ds.captions, ds.caption_counts[1:])

    def test_captions_not_3d(self):
        ds, _ = self._dataset()
        rows = len(ds.captions)
        with pytest.raises(ShapeMismatch, match=rf"^captions: expected a 3-D array .*, got shape \({rows}, 9\)$"):
            _rebuilt(ds, ds.captions.reshape(rows, 9), ds.caption_counts)

    def test_checked_arrays_are_float64_and_integer(self):
        ds, _ = self._dataset()
        lists = ref.caption_lists(ds)
        rebuilt = _rebuilt(ds, [e.tolist() for c in lists for e in c], [len(c) for c in lists])
        assert rebuilt.captions.dtype == np.float64 and rebuilt.caption_counts.dtype.kind == "i"
        assert rebuilt.text_targets().tobytes() == ds.text_targets().tobytes()
