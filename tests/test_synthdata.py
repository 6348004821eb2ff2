"""Synthetic corpus: determinism, ground-truth invariants, lesion effects,
split balance, and the on-disk format."""

import numpy as np
import pytest

from sevcon.config import DataSection
from sevcon.synthdata import (
    BIOMARKER_NAMES,
    Dataset,
    GroundTruth,
    Lesion,
    generate_healthy,
    generate_labeled_splits,
    generate_unlabeled,
    load_dataset,
    render_sample,
    save_dataset,
)

DATA = DataSection()
SEED = 42


def test_generation_is_deterministic():
    a = generate_healthy(DataSection(n_healthy=5), SEED)
    b = generate_healthy(DataSection(n_healthy=5), SEED)
    assert np.array_equal(a.images, b.images)
    c = generate_healthy(DataSection(n_healthy=5), 43)
    assert not np.array_equal(a.images, c.images)


def test_images_in_unit_range_and_shape():
    ds = generate_unlabeled(DataSection(n_unlabeled=10, severity_max=4), SEED)
    assert ds.images.shape == (10, 1, 32, 32)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_ground_truth_invariant():
    with pytest.raises(ValueError):
        GroundTruth(severity=0, biomarkers=np.array([1, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        GroundTruth(severity=2, biomarkers=np.zeros(5, dtype=np.int64))
    GroundTruth(severity=0, biomarkers=np.zeros(5, dtype=np.int64))
    GroundTruth(severity=3, biomarkers=np.array([1, 1, 0, 0, 0]))


def test_healthy_has_zero_severity():
    ds = generate_healthy(DataSection(n_healthy=4), SEED)
    assert np.array_equal(ds.severities(), np.zeros(4, dtype=np.int64))
    assert ds.multihot().sum() == 0


def test_unlabeled_severity_range_and_multihot_consistency():
    ds = generate_unlabeled(DataSection(n_unlabeled=50, severity_max=3), SEED)
    sev = ds.severities()
    assert sev.min() >= 0 and sev.max() <= 3
    multi = ds.multihot()
    for s, row in zip(sev, multi):
        assert (s == 0) == (row.sum() == 0)
        assert row.sum() <= s  # distinct types cannot exceed lesion count


def test_each_lesion_kind_changes_the_image():
    for kind in range(5):
        rng = np.random.default_rng(kind)
        from sevcon.synthdata import _draw_lesion
        lesion = _draw_lesion(kind, 32, rng)
        clean = render_sample(DATA, SEED, "t", 0, [])
        dirty = render_sample(DATA, SEED, "t", 0, [lesion])
        assert np.linalg.norm(dirty - clean) > 0.1, f"kind {kind} had no effect"


def test_lesion_free_render_shares_structure():
    """The same (namespace, index) renders identical structure regardless of
    the lesion list, so lesion effects are isolated."""
    from sevcon.synthdata import _draw_lesion
    lesion = _draw_lesion(1, 32, np.random.default_rng(0))
    clean = render_sample(DATA, SEED, "t", 3, [])
    dirty = render_sample(DATA, SEED, "t", 3, [lesion])
    changed = np.abs(dirty - clean) > 1e-12
    assert changed.any() and not changed.all()


def test_labeled_splits_balance_and_correctness():
    splits = generate_labeled_splits(
        DataSection(n_labeled_train=20, n_test_per_biomarker=10, n_multilabel_test=12), SEED)
    assert len(splits["labeled_train"]) == 20
    assert len(splits["test_multilabel"]) == 12
    for j, name in enumerate(BIOMARKER_NAMES):
        ds = splits[f"test_{name}"]
        assert len(ds) == 10
        col = ds.multihot()[:, j]
        assert col.sum() == 5  # exactly half positive
        assert np.array_equal(col[:5], np.ones(5))
        assert np.array_equal(col[5:], np.zeros(5))


def test_split_ids_are_disjoint():
    splits = generate_labeled_splits(
        DataSection(n_labeled_train=6, n_test_per_biomarker=4, n_multilabel_test=4), SEED)
    assert list(splits) == ["labeled_train", *(f"test_{name}" for name in BIOMARKER_NAMES),
                            "test_multilabel"]
    all_ids = [sid for ds in splits.values() for sid in ds.sample_ids]
    assert len(all_ids) == len(set(all_ids))


def test_training_view_hides_ground_truth():
    ds = generate_unlabeled(DataSection(n_unlabeled=3, severity_max=2), SEED)
    view = ds.training_view()
    assert view.ground_truth is None
    with pytest.raises(ValueError):
        view.multihot()


def test_dataset_round_trip(tmp_path):
    ds = generate_unlabeled(DataSection(n_unlabeled=4, severity_max=3), SEED)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.bin").write_bytes(b"SIMG")  # a file of the per-image layout
    save_dataset(tmp_path / "d", ds, {"config_hash": "abc", "seed": 42})
    back = load_dataset(tmp_path / "d")
    assert back.sample_ids == ds.sample_ids
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.multihot(), ds.multihot())
    assert np.array_equal(back.severities(), ds.severities())
    # ground truth lives in labels.csv, separate from the manifest; no .bin is left
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "images.npy", "labels.csv", "manifest.json"]
    assert "bio_a" not in (tmp_path / "d" / "manifest.json").read_text()
    images = tmp_path / "d" / "images.npy"
    images.write_bytes(b"XXXX" + images.read_bytes()[4:])
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "d")
    # a split of the older one-file-per-image layout is refused
    save_dataset(tmp_path / "d", ds, {})
    manifest = tmp_path / "d" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"format_version": 2', '"format_version": 1'))
    with pytest.raises(ValueError, match="format version 1"):
        load_dataset(tmp_path / "d")


def test_odd_binary_test_size_rejected():
    with pytest.raises(ValueError, match="even"):
        generate_labeled_splits(DataSection(n_test_per_biomarker=5), SEED)
