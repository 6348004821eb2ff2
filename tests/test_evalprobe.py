"""Metrics against brute-force oracles and linear-probe behavior."""

import numpy as np
import pytest

from sevcon.config import ProbeSection
from sevcon.evalprobe import (
    _embed_all,
    accuracy,
    evaluate,
    f1,
    predict_scores,
    roc_auc,
    train_probe,
)
from sevcon.models import build_backbone, build_classifier_head
from sevcon.numerics import SgdState, sgd_step


def brute_force_auc(scores, labels):
    """All-pairs Mann-Whitney statistic with ties counted 1/2."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_roc_auc_equals_brute_force_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force ties
        scores = np.round(rng.normal(size=n), 1)
        assert roc_auc(scores, labels) == brute_force_auc(scores, labels)


def test_roc_auc_hand_values():
    assert roc_auc([0.1, 0.9], [0, 1]) == 1.0
    assert roc_auc([0.9, 0.1], [0, 1]) == 0.0
    assert roc_auc([0.5, 0.5], [0, 1]) == 0.5
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


def test_accuracy_and_f1_hand_values():
    preds = np.array([1, 1, 0, 0])
    labels = np.array([1, 0, 1, 0])
    assert accuracy(preds, labels) == 0.5
    assert f1(preds, labels) == 0.5  # P = R = 0.5
    assert f1(np.zeros(4), np.zeros(4)) == 0.0  # no positives anywhere
    assert f1(np.zeros(4), np.ones(4)) == 0.0   # recall 0, precision undefined
    assert f1(np.ones(3), np.ones(3)) == 1.0


def test_probe_learns_linearly_separable_embeddings():
    """A probe on a frozen random backbone must separate images whose mean
    intensity determines the label (linearly decodable from any conv stack)."""
    rng = np.random.default_rng(0)
    n = 80
    labels = rng.integers(0, 2, size=n)
    images = rng.random(size=(n, 1, 32, 32)) * 0.2 + 0.55 * labels[:, None, None, None]
    backbone = build_backbone(32, 16, seed=1)
    head = build_classifier_head(16, 1, seed=2)
    p = ProbeSection(epochs=100, batch_size=16, learning_rate=0.1)
    train_probe(backbone, head, images, labels, p, 3)
    scores = predict_scores(backbone, head, images)[:, 0]
    assert roc_auc(scores, labels) > 0.95


def train_probe_oracle(backbone, head, images, labels, p, seed):
    """The probe loop with a fancy-indexed batch per step, the BCE gradient
    from the masked two-branch sigmoid, and a full backward."""
    feats = _embed_all(backbone, np.asarray(images, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    y = y[:, None] if y.ndim == 1 else y
    rng = np.random.default_rng(seed)
    opt = SgdState(p.learning_rate, p.momentum)
    params = head.param_dict()
    n = feats.shape[0]
    for _ in range(p.epochs):
        order = rng.permutation(n)
        for start in range(0, n, p.batch_size):
            idx = order[start:start + p.batch_size]
            logits = head.forward(feats[idx])
            prob = np.empty_like(logits)
            pos = logits >= 0
            prob[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
            ex = np.exp(logits[~pos])
            prob[~pos] = ex / (1.0 + ex)
            head.backward((prob - y[idx]) / logits.size)
            sgd_step(opt, params, head.grad_dict())
    return head


def test_train_probe_bitwise_equals_per_batch_gather_loop():
    """Binary and multi-label heads, with a ragged last batch, come out equal
    bit for bit to the per-batch loop's."""
    rng = np.random.default_rng(8)
    images = rng.random(size=(37, 1, 32, 32))
    backbone = build_backbone(32, 16, seed=1)
    p = ProbeSection(epochs=6, batch_size=8, learning_rate=0.1, momentum=0.9)
    for labels in (rng.integers(0, 2, size=37), rng.integers(0, 2, size=(37, 5))):
        width = 1 if labels.ndim == 1 else labels.shape[1]
        ours = train_probe(backbone, build_classifier_head(16, width, seed=2),
                           images, labels, p, 3)
        ref = train_probe_oracle(backbone, build_classifier_head(16, width, seed=2),
                                 images, labels, p, 3)
        for key, value in ref.param_dict().items():
            assert ours.param_dict()[key].tobytes() == value.tobytes(), key


def test_embed_all_normalization():
    backbone = build_backbone(32, 16, seed=1)
    images = np.random.default_rng(0).random(size=(4, 1, 32, 32))
    manual = backbone.forward((images - 0.5) / 0.5)
    auto = _embed_all(backbone, images, normalize=(0.5, 0.5))
    assert np.array_equal(manual, auto)
    raw = _embed_all(backbone, images)
    assert not np.array_equal(raw, auto)


def test_train_probe_rejects_label_width_mismatch():
    backbone = build_backbone(32, 16, seed=1)
    head = build_classifier_head(16, 1, seed=2)
    images = np.zeros((4, 1, 32, 32))
    with pytest.raises(ValueError, match="label width"):
        train_probe(backbone, head, images, np.zeros((4, 3)), ProbeSection(epochs=1), 0)


def test_evaluate_structure_and_warnings():
    rng = np.random.default_rng(6)
    backbone = build_backbone(32, 16, seed=1)
    bin_head = build_classifier_head(16, 1, seed=2)
    ml_head = build_classifier_head(16, 5, seed=3)
    x = rng.random(size=(10, 1, 32, 32))
    y_unbalanced = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    ml_y = rng.integers(0, 2, size=(10, 5))
    ml_y[0] = 1 - ml_y[1]  # ensure both classes per column is likely; fix below
    for j in range(5):
        col = ml_y[:, j]
        if col.sum() in (0, 10):
            ml_y[0, j] = 1 - ml_y[0, j]
    result = evaluate(backbone, {"bio_a": bin_head}, {"bio_a": (x, y_unbalanced)},
                      ml_head, (x, ml_y), provenance={"seed": 1})
    assert set(result.per_biomarker) == {"bio_a"}
    assert set(result.per_biomarker["bio_a"]) == {"accuracy", "f1"}
    assert set(result.per_label_auc) == {"bio_a", "bio_b", "bio_c", "bio_d", "bio_e"}
    assert result.mean_auc == pytest.approx(np.mean(list(result.per_label_auc.values())))
    assert "warnings" in result.provenance  # unbalanced binary set flagged
