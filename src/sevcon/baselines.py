"""Alternative anomaly scorers for the ablation: MSP, ODIN, and Mahalanobis,
all derived from a supervised classifier trained on the labeled subset.

Every scorer returns anomaly scores oriented higher = more anomalous, so the
labeling stage consumes any of them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BaselinesSection, ContrastiveSection, ProbeSection
from .contrastive import pretrain
from .evalprobe import _embed_all, evaluate, train_head, train_probe
from .labeling import assign_severity_labels
from .models import (
    TRUNK_BLOCK,
    BlockedNetwork,
    build_backbone,
    build_classifier_head,
    build_projection_head,
    map_blocks,
)
from .numerics import (
    Array,
    Network,
    NumericalError,
    SgdState,
    as_f64,
    bce_with_logits,
    load_params,
    require_finite,
    sgd_step,
    softmax,
    softmax_ce_with_logits,
)


@dataclass
class SupervisedClassifier:
    backbone: Network
    combo_head: Network  # softmax over the K observed label combinations

    def param_dict(self) -> dict[str, Array]:
        """Each network's parameters, keyed b. (backbone) or c. (combo head)
        and then as in Network.param_dict."""
        parts = {"b": self.backbone, "c": self.combo_head}
        return {f"{p}.{k}": v for p, net in parts.items() for k, v in net.named_params()}

    def load_param_dict(self, params: dict[str, Array]):
        load_params(self.param_dict(), params)


@dataclass
class GaussianClassStats:
    means: Array       # (K, d)
    cov: Array         # (d, d), tied, diagonal-regularized
    cov_inv: Array
    epsilon: float


def label_combinations(multihot: Array) -> tuple[Array, Array]:
    """The distinct rows of a multi-hot label matrix, which are the classes of
    the classifier's combo head and of the Mahalanobis means, and each row's
    class index."""
    return np.unique(as_f64(multihot).astype(np.int64), axis=0, return_inverse=True)


def train_supervised_classifier(images: Array, multihot: Array, c: ContrastiveSection,
                                b: BaselinesSection, seed: int) -> SupervisedClassifier:
    """Backbone + multi-label head trained jointly with per-label BCE, then a
    frozen-feature softmax head over the observed label combinations, trained
    by the probe's head loop. Only the backbone and that combo head are kept.
    The backbone is ``c.embedding_dim`` wide, as a pretrained one is."""
    images = as_f64(images)
    y = as_f64(multihot)
    n, n_labels = y.shape
    backbone = build_backbone(images.shape[-1], c.embedding_dim, seed)
    head = build_classifier_head(c.embedding_dim, n_labels, seed + 1)
    net = BlockedNetwork(backbone.layers + head.layers, TRUNK_BLOCK)

    opt = SgdState(b.classifier_learning_rate, b.classifier_momentum)
    params = net.param_dict()
    shuffle = np.random.default_rng(seed + 2)
    for _ in range(b.classifier_epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, b.classifier_batch_size):
            idx = order[start:start + b.classifier_batch_size]
            logits = net.forward(images[idx])
            loss, dlogits = bce_with_logits(logits, y[idx])
            if not np.isfinite(loss):
                raise NumericalError("non-finite classifier loss")
            net.backward(dlogits)
            sgd_step(opt, params, net.grad_dict())

    combos, combo_idx = label_combinations(y)
    combo_head = build_classifier_head(c.embedding_dim, combos.shape[0], seed + 3)
    p = ProbeSection(b.classifier_epochs, b.classifier_batch_size,
                     b.classifier_learning_rate, b.classifier_momentum)
    train_head(combo_head, backbone.forward(images), combo_idx, softmax_ce_with_logits,
               p, seed + 4)
    return SupervisedClassifier(backbone, combo_head)


def msp_from_logits(logits: Array) -> Array:
    """Max softmax probability of a logit vector (a float), or of each row of
    an (N, K) logit matrix."""
    logits = as_f64(logits)
    if logits.shape[-1] < 2:
        raise ValueError("msp needs at least 2 logits")
    require_finite(logits, "msp logits")
    return softmax(logits).max(axis=-1)


def _one_image(x: Array) -> Array:
    return as_f64(x)[None] if x.ndim == 3 else as_f64(x)


def _msp_scores(clf: SupervisedClassifier, images: Array) -> Array:
    return -msp_from_logits(clf.combo_head.forward(_embed_all(clf.backbone, as_f64(images))))


def _odin_scores(clf: SupervisedClassifier, images: Array, T: float, eps: float) -> Array:
    """ODIN per image, in blocks of TRUNK_BLOCK images dealt to lanes
    (``models.map_blocks``): a forward, the backward of the summed (not mean)
    cross-entropy, which gives each row its own input gradient, and a forward
    of the perturbed images, whose logits are scored as _msp_scores scores
    logits, so at T=1 and eps=0 the two are bitwise equal."""
    if T <= 0:
        raise ValueError("T must be positive")
    if eps < 0:
        raise ValueError("eps must be non-negative")

    def block(nets, x):
        backbone, head = nets
        logits = head.forward(backbone.forward(x))
        _, dlogits = softmax_ce_with_logits(logits / T, np.argmax(logits, axis=1))
        dx = backbone.backward(head.backward(dlogits * len(x) / T))
        require_finite(dx, "odin input gradient")
        return head.forward(backbone.forward(x - eps * np.sign(dx)))

    blocks = map_blocks([clf.backbone, clf.combo_head], as_f64(images), TRUNK_BLOCK, block)
    return -msp_from_logits(np.concatenate(blocks) / T)


def msp_score(clf: SupervisedClassifier, x: Array) -> float:
    """Anomaly score: -max softmax probability (higher = more anomalous)."""
    return float(_msp_scores(clf, _one_image(x))[0])


def odin_score(clf: SupervisedClassifier, x: Array, T: float, eps: float) -> float:
    """Perturb the input against the temperature-scaled cross-entropy gradient
    at the predicted class, then score with the temperature-scaled MSP."""
    return float(_odin_scores(clf, _one_image(x), T, eps)[0])


def fit_gaussian_stats(features: Array, class_idx: Array,
                       epsilon: float) -> GaussianClassStats:
    """Per-class means and a tied covariance with diagonal regularization."""
    feats = as_f64(features)
    idx = np.asarray(class_idx)
    classes = np.unique(idx)
    means = np.stack([feats[idx == c].mean(axis=0) for c in classes])
    centered = feats - means[np.searchsorted(classes, idx)]
    cov = centered.T @ centered / feats.shape[0]
    cov += epsilon * np.eye(cov.shape[0])
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"covariance not positive-definite even with epsilon={epsilon}") from None
    return GaussianClassStats(means, cov, np.linalg.inv(cov), epsilon)


def _mahalanobis_scores(stats: GaussianClassStats, features: Array) -> Array:
    """Per row of (N, d) features: min over classes of (f - mu)^T Sigma^-1 (f - mu)."""
    if features.shape[1] != stats.means.shape[1]:
        raise ValueError(f"feature dim {features.shape[1]} != {stats.means.shape[1]}")
    diffs = stats.means - features[:, None, :]
    return np.einsum("nke,nke->nk", diffs @ stats.cov_inv, diffs).min(axis=1)


def mahalanobis_score(stats: GaussianClassStats, feature: Array) -> float:
    """min over classes of (f - mu)^T Sigma^-1 (f - mu); higher = more anomalous."""
    return float(_mahalanobis_scores(stats, as_f64(feature).reshape(1, -1))[0])


def score_corpus(clf: SupervisedClassifier, images: Array, scorer: str,
                 b: BaselinesSection, train_images: Array | None = None,
                 train_multihot: Array | None = None) -> Array:
    """Anomaly scores for a whole corpus with the named baseline scorer, each
    computed over blocks of TRUNK_BLOCK images dealt to lanes."""
    if scorer == "msp":
        return _msp_scores(clf, images)
    if scorer == "odin":
        return _odin_scores(clf, images, b.odin_temperature, b.odin_epsilon)
    if scorer == "mahalanobis":
        if train_images is None or train_multihot is None:
            raise ValueError("mahalanobis needs the labeled training data")
        feats = _embed_all(clf.backbone, as_f64(train_images))
        _, combo_idx = label_combinations(train_multihot)
        stats = fit_gaussian_stats(feats, combo_idx, b.mahalanobis_epsilon)
        return _mahalanobis_scores(stats, _embed_all(clf.backbone, as_f64(images)))
    raise ValueError(f"unknown scorer {scorer!r}")


def ablation_run(scores_by_scorer: dict[str, Array], corpus_images: Array,
                 labeled_train: tuple[Array, Array],
                 multilabel_test: tuple[Array, Array], n_bins: int,
                 c: ContrastiveSection, p: ProbeSection, seed: int) -> list[dict]:
    """One labeled-corpus -> pretrain -> probe -> mean-AUC row per scorer,
    all scorers sharing seeds, splits, and training config."""
    train_x, train_y = labeled_train
    norm = (c.normalize_mean, c.normalize_std)
    rows = []
    for scorer in scores_by_scorer:
        labeling = assign_severity_labels(scores_by_scorer[scorer], n_bins)
        backbone = build_backbone(corpus_images.shape[-1], c.embedding_dim, seed)
        head = build_projection_head(c.embedding_dim, c.projection_dim, seed + 1)
        pretrain(backbone, head, corpus_images, labeling.labels, c, seed)
        ml_head = build_classifier_head(c.embedding_dim, train_y.shape[1], seed + 2)
        train_probe(backbone, ml_head, train_x, train_y, p, seed, normalize=norm)
        result = evaluate(backbone, {}, {}, ml_head, multilabel_test, normalize=norm)
        rows.append({"scorer": scorer, "n_bins": n_bins, "mean_auc": result.mean_auc})
    return rows
