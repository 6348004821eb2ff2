"""Frozen-encoder linear probing and the evaluation metrics:
accuracy, F1, per-label ROC-AUC, and mean AUC."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ProbeSection
from .models import TRUNK_BLOCK, map_blocks
from .numerics import (
    Array,
    Network,
    NumericalError,
    SgdState,
    as_f64,
    bce_with_logits,
    sgd_step,
)


@dataclass
class ProbeResult:
    per_biomarker: dict[str, dict[str, float]]  # name -> {accuracy, f1}
    per_label_auc: dict[str, float]
    mean_auc: float
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    return float(np.mean(preds == labels))


def f1(preds, labels) -> float:
    """2PR/(P+R); defined as 0 when P+R == 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    tp = np.sum((preds == 1) & (labels == 1))
    fp = np.sum((preds == 1) & (labels == 0))
    fn = np.sum((preds == 0) & (labels == 1))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


def _midranks(values: Array) -> Array:
    """1-based ranks, ties given the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: probability a random positive outscores a random
    negative, with ties counted 1/2."""
    scores = as_f64(scores).ravel()
    labels = np.asarray(labels).ravel()
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    ranks = _midranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Linear probe
# ---------------------------------------------------------------------------


def _embed_all(backbone: Network, images: Array,
               normalize: tuple[float, float] | None = None) -> Array:
    """Embed a corpus with the frozen backbone, one forward per block of
    TRUNK_BLOCK images, the blocks dealt to lanes (``models.map_blocks``).

    `normalize=(mean, std)` applies the same pixel normalization the backbone
    saw during pretraining; feeding un-normalized images to a backbone trained
    on normalized views shifts the input distribution and hurts the probe.
    """
    if normalize is not None:
        mean, std = normalize
        images = (images - mean) / std
    return np.concatenate(map_blocks([backbone], images, TRUNK_BLOCK,
                                     lambda nets, x: nets[0].forward(x)))


def train_head(head: Network, feats: Array, targets: Array, loss, p: ProbeSection,
               seed: int) -> Network:
    """SGD on `head` alone over fixed features, `p.epochs` shuffled passes of
    `p.batch_size` rows. `loss(logits, targets)` returns (loss, dlogits)."""
    rng = np.random.default_rng(seed)
    opt = SgdState(p.learning_rate, p.momentum)
    params = head.param_dict()
    n = feats.shape[0]
    for _ in range(p.epochs):
        order = rng.permutation(n)
        # one gather per epoch; each batch is then a slice of it
        feats_ep, y_ep = feats[order], targets[order]
        for start in range(0, n, p.batch_size):
            stop = start + p.batch_size
            value, dlogits = loss(head.forward(feats_ep[start:stop]), y_ep[start:stop])
            if not np.isfinite(value):
                raise NumericalError("non-finite head loss")
            head.backward(dlogits, input_grad=False)
            sgd_step(opt, params, head.grad_dict())
    return head


def train_probe(backbone: Network, head: Network, images: Array,
                labels: Array, p: ProbeSection, seed: int,
                normalize: tuple[float, float] | None = None) -> Network:
    """Train only the linear head on frozen-backbone embeddings.

    Binary task: labels (n,), head output width 1, sigmoid cross-entropy.
    Multi-label: labels (n, L), per-label sigmoid cross-entropy.
    """
    feats = _embed_all(backbone, as_f64(images), normalize)
    y = as_f64(labels)
    if y.ndim == 1:
        y = y[:, None]
    out_dim = head.layers[-1].n_out
    if y.shape[1] != out_dim:
        raise ValueError(f"label width {y.shape[1]} != head output width {out_dim}")
    return train_head(head, feats, y, bce_with_logits, p, seed)


def predict_scores(backbone: Network, head: Network, images: Array,
                   normalize: tuple[float, float] | None = None) -> Array:
    """Raw logits per label; monotone in the sigmoid probabilities."""
    return head.forward(_embed_all(backbone, as_f64(images), normalize))


def evaluate(backbone: Network, binary_heads: dict[str, Network],
             binary_tests: dict[str, tuple[Array, Array]],
             multilabel_head: Network | None,
             multilabel_test: tuple[Array, Array] | None,
             provenance: dict | None = None,
             normalize: tuple[float, float] | None = None) -> ProbeResult:
    """Compute per-biomarker accuracy/F1 on the balanced binary test sets and
    per-label + mean AUC on the multi-label test set."""
    prov = dict(provenance or {})
    warnings: list[str] = []
    per_biomarker: dict[str, dict[str, float]] = {}
    for name, head in sorted(binary_heads.items()):
        x, y = binary_tests[name]
        if int(np.sum(y == 1)) != int(np.sum(y == 0)):
            warnings.append(f"unbalanced binary test set for {name}")
        logits = predict_scores(backbone, head, x, normalize)[:, 0]
        preds = (logits > 0.0).astype(np.int64)  # sigmoid(logit) > 0.5
        per_biomarker[name] = {"accuracy": accuracy(preds, y), "f1": f1(preds, y)}

    per_label_auc: dict[str, float] = {}
    mean_auc = float("nan")
    if multilabel_head is not None and multilabel_test is not None:
        x, y = multilabel_test
        scores = predict_scores(backbone, multilabel_head, x, normalize)
        names = [f"bio_{chr(ord('a') + j)}" for j in range(scores.shape[1])]
        for j, name in enumerate(names):
            per_label_auc[name] = roc_auc(scores[:, j], y[:, j])
        mean_auc = float(np.mean(list(per_label_auc.values())))
    if warnings:
        prov["warnings"] = warnings
    return ProbeResult(per_biomarker, per_label_auc, mean_auc, prov)
