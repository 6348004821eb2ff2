"""Rank-and-bin labeling: partition, balance, monotonicity, and
order-invariance properties, plus the extreme-bin report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevcon.labeling import (
    SeverityLabeling,
    assign_severity_labels,
    extreme_bin_report,
    write_pgm,
)


@st.composite
def scores_and_bins(draw):
    n = draw(st.integers(1, 60))
    scores = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    n_bins = draw(st.integers(1, n))
    return np.asarray(scores), n_bins


@settings(max_examples=200, deadline=None)
@given(scores_and_bins())
def test_partition_and_balance(case):
    scores, n_bins = case
    lab = assign_severity_labels(scores, n_bins)
    n = scores.size
    assert lab.labels.shape == (n,)
    assert lab.labels.min() >= 0 and lab.labels.max() < n_bins
    sizes = np.bincount(lab.labels, minlength=n_bins)
    assert np.array_equal(sizes, lab.bin_sizes)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1


@settings(max_examples=200, deadline=None)
@given(scores_and_bins())
def test_monotonicity(case):
    scores, n_bins = case
    lab = assign_severity_labels(scores, n_bins)
    order = np.argsort(scores, kind="stable")
    binned = lab.labels[order]
    assert np.all(np.diff(binned) >= 0)  # labels non-decreasing in rank
    # strictly smaller score can never land in a strictly higher bin
    by_label = [scores[lab.labels == b] for b in range(n_bins)]
    for b in range(n_bins - 1):
        if by_label[b].size and by_label[b + 1].size:
            assert by_label[b].max() <= by_label[b + 1].min()


@settings(max_examples=100, deadline=None)
@given(scores_and_bins(), st.randoms(use_true_random=False))
def test_order_invariance_for_distinct_scores(case, rand):
    scores, n_bins = case
    scores = np.unique(scores)  # distinct: bin depends only on rank
    if scores.size < n_bins:
        n_bins = scores.size
    perm = np.arange(scores.size)
    rand.shuffle(perm)
    base = assign_severity_labels(scores, n_bins)
    shuffled = assign_severity_labels(scores[perm], n_bins)
    assert np.array_equal(shuffled.labels, base.labels[perm])


def test_edge_cases_n1_and_n_equals_count():
    scores = np.array([3.0, 1.0, 2.0, 2.5])
    one = assign_severity_labels(scores, 1)
    assert np.array_equal(one.labels, np.zeros(4, dtype=np.int64))
    full = assign_severity_labels(scores, 4)
    assert np.array_equal(full.labels, np.array([3, 0, 1, 2]))


def test_ties_break_by_original_index():
    scores = np.array([5.0, 5.0, 5.0, 5.0])
    lab = assign_severity_labels(scores, 2)
    assert np.array_equal(lab.labels, np.array([0, 0, 1, 1]))


def test_remainder_goes_to_lowest_bins():
    lab = assign_severity_labels(np.arange(5, dtype=float), 2)
    assert np.array_equal(lab.bin_sizes, np.array([3, 2]))


def test_validation_errors():
    with pytest.raises(ValueError):
        assign_severity_labels(np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError):
        assign_severity_labels(np.arange(3.0), 0)
    with pytest.raises(ValueError):
        assign_severity_labels(np.arange(3.0), 4)


def test_extreme_bin_report():
    scores = np.arange(12, dtype=float)
    lab = assign_severity_labels(scores, 3)
    images = np.zeros((12, 1, 4, 4))
    for i in range(12):
        images[i] = i / 11.0
    rep = extreme_bin_report(lab, images, k=2, seed=0)
    assert set(rep["low_bin_ids"]) <= set(np.flatnonzero(lab.labels == 0).tolist())
    assert set(rep["high_bin_ids"]) <= set(np.flatnonzero(lab.labels == 2).tolist())
    assert rep["contact_sheet"].shape == (8, 8)
    rep2 = extreme_bin_report(lab, images, k=2, seed=0)
    assert rep["low_bin_ids"] == rep2["low_bin_ids"]
    with pytest.raises(ValueError):
        extreme_bin_report(lab, images, k=5)


def test_write_pgm(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 must clip to 255
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[-4:] == bytes([0, 128, 255, 255])


def test_severity_labeling_dataclass_fields():
    lab = assign_severity_labels(np.array([2.0, 1.0]), 2)
    assert isinstance(lab, SeverityLabeling)
    assert lab.n_bins == 2
    assert np.array_equal(lab.labels, np.array([1, 0]))
    assert np.array_equal(lab.bin_sizes, np.array([1, 1]))
