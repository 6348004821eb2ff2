"""Synthetic corpus: determinism, the chunked renderer against a per-image
oracle, pinned corpus bytes, ground-truth invariants, lesion effects, split
balance, and the on-disk format."""

import hashlib

import numpy as np
import pytest

from sevcon.config import DataSection
from sevcon.synthdata import (
    BIOMARKER_NAMES,
    Dataset,
    Lesion,
    generate_healthy,
    generate_labeled_splits,
    generate_unlabeled,
    load_dataset,
    _apply_lesion,
    _mixed_plan,
    _render,
    _sample_seed,
    render_sample,
    save_dataset,
)

DATA = DataSection()
SEED = 42


def _render_structure(data, rng):
    """One image's stripes and noise, drawn and summed one stripe at a time:
    the oracle of the chunked renderer."""
    side = data.image_side
    yy = np.arange(side)[:, None]
    xx = np.arange(side)[None, :]
    img = 0.05 + 0.10 * (yy / side) * np.ones((side, side))
    centers = np.linspace(side * 0.15, side * 0.85, data.n_stripes)
    tilt = rng.uniform(-1.0, 1.0)
    bow = rng.uniform(0.0, 1.5)
    for c in centers:
        offset = rng.uniform(-0.5, 0.5)
        width = rng.uniform(1.0, 1.3)
        gain = data.stripe_contrast * rng.uniform(0.85, 1.0)
        curve = (c + offset + tilt * (2 * xx / side - 1.0)
                 + bow * np.sin(np.pi * xx / side))
        img = img + gain * np.exp(-((yy - curve) ** 2) / (2 * width ** 2))
    img += rng.normal(0.0, data.noise_std, size=(side, side))
    return img


def _render_one(data, seed, namespace, index, lesions):
    img = _render_structure(data, np.random.default_rng(
        _sample_seed(seed, namespace, index, "structure")))
    for lesion in lesions:
        img = _apply_lesion(img, lesion)
    return np.clip(img, 0.0, 1.0)[None]


@pytest.mark.parametrize("side", [32, 64])
def test_chunked_render_matches_per_image_oracle(side):
    """Bitwise, at split sizes around the 64-image chunk, with and without
    lesions, and for a render that starts mid-split."""
    data = DataSection(image_side=side, n_stripes=4, noise_std=0.05)
    for n in (1, 63, 64, 65, 130):
        for lesion_lists in ([[] for _ in range(n)],
                             [_mixed_plan(data, SEED, "mix", i) for i in range(n)]):
            want = np.stack([_render_one(data, SEED, "mix", i, lesions)
                             for i, lesions in enumerate(lesion_lists)])
            got = _render(data, SEED, "mix", 0, lesion_lists)
            assert got.shape == (n, 1, side, side)
            assert np.array_equal(got, want), (n, side)
    assert any(lesion_lists)
    assert np.array_equal(render_sample(data, SEED, "mix", 70, lesion_lists[70]), want[70])
    assert np.array_equal(_render(data, SEED, "mix", 60, lesion_lists[60:70]), want[60:70])


# sha256 (first 16 hex digits) of each split's float64 image bytes, per image
# side, and of its int64 (multi-hot, severity) rows, for SMALL at seed 7. The
# oracle above shares _draw_lesion and _apply_lesion with the renderer; these
# catch a change of any byte of the corpus.
SMALL = dict(n_healthy=5, n_unlabeled=70, n_labeled_train=3, n_test_per_biomarker=4,
             n_multilabel_test=3)
IMAGE_SHA = {
    32: {"healthy": "bcb4ae37cd30f9bb", "unlabeled": "524a63c8f88fc144",
         "labeled_train": "1d23beb8e1d2117e", "test_bio_a": "038ba931b9f654d1",
         "test_bio_b": "8cc274247686d19c", "test_bio_c": "7217dd026c7b4dff",
         "test_bio_d": "271d6cbde0753351", "test_bio_e": "427bb1f4286c466c",
         "test_multilabel": "623473506f5c86ed"},
    64: {"healthy": "7777a3df429e0a8e", "unlabeled": "d47c1dbd6a0ded69",
         "labeled_train": "3334aa49b7678da6", "test_bio_a": "5e567462b1ae71de",
         "test_bio_b": "b9e0edca07bab355", "test_bio_c": "0de2baeb15982230",
         "test_bio_d": "6755c19e3b1ede7a", "test_bio_e": "fd3c69442386f262",
         "test_multilabel": "ecc45b2a8cec94d2"},
}
LABEL_SHA = {"healthy": "2dfba633817046c7", "unlabeled": "9c5aadcd4e0304ef",
             "labeled_train": "3fe121413336d0da", "test_bio_a": "881fd0c56ebef7f6",
             "test_bio_b": "fa10a513d881bc25", "test_bio_c": "cfe856f205674971",
             "test_bio_d": "7355de1b50999bee", "test_bio_e": "9ce8346bb65a4044",
             "test_multilabel": "4972ad854ff440a2"}


@pytest.mark.parametrize("side", [32, 64])
def test_corpus_bytes_are_pinned(side):
    data = DataSection(image_side=side, **SMALL)
    splits = {"healthy": generate_healthy(data, 7), "unlabeled": generate_unlabeled(data, 7),
              **generate_labeled_splits(data, 7)}
    assert list(splits) == list(LABEL_SHA)
    for name, ds in splits.items():
        images = np.ascontiguousarray(ds.images, dtype="<f8").tobytes()
        labels = np.column_stack([ds.multihot(), ds.severities()]).astype("<i8").tobytes()
        assert hashlib.sha256(images).hexdigest()[:16] == IMAGE_SHA[side][name], name
        assert hashlib.sha256(labels).hexdigest()[:16] == LABEL_SHA[name], name


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


def test_ground_truth_invariant(tmp_path):
    """The loader refuses ground truth that no image can have: a biomarker
    other than 0 or 1, a severity below the count of biomarkers present, or a
    severity other than 0 with none present. It accepts every other row."""
    ds = generate_unlabeled(DataSection(n_unlabeled=2, severity_max=3), SEED)
    for bio, severity, ok in [([0, 0, 0, 0, 0], 0, True), ([1, 1, 0, 0, 0], 3, True),
                              ([1, 1, 0, 0, 0], 2, True), ([0, 0, 0, 0, 1], 1, True),
                              ([1, 0, 0, 0, 0], 0, False), ([0, 0, 0, 0, 0], 2, False),
                              ([1, 1, 1, 0, 0], 2, False), ([0, 0, 0, 0, 0], -1, False),
                              ([1, 0, 0, 0, 0], -1, False), ([2, 0, 0, 0, 0], 2, False),
                              ([0, -1, 0, 0, 0], 0, False), ([1, 0, 0, 0, 0], 99, True)]:
        biomarkers = np.array([ds.biomarkers[0], bio], dtype=np.int64)
        severity = np.array([ds.severity[0], severity], dtype=np.int64)
        save_dataset(tmp_path, Dataset(ds.sample_ids, ds.images, biomarkers, severity), {})
        if ok:
            back = load_dataset(tmp_path)
            assert np.array_equal(back.biomarkers, biomarkers)
            assert np.array_equal(back.severity, severity)
        else:
            with pytest.raises(ValueError, match=f"{ds.sample_ids[1]} the impossible"):
                load_dataset(tmp_path)


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
    assert view.biomarkers is None and view.severity is None
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
    for got, want in ((back.biomarkers, ds.biomarkers), (back.severity, ds.severity)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    assert back.biomarkers.shape == (4, len(BIOMARKER_NAMES))
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
