"""Baseline anomaly scorers: MSP, ODIN, Mahalanobis, their batched corpus
scoring against per-image oracles, and the shared-seed ablation machinery."""

import sys

import numpy as np
import pytest

from sevcon import models
from sevcon.baselines import (
    _odin_scores,
    ablation_run,
    fit_gaussian_stats,
    mahalanobis_score,
    msp_from_logits,
    msp_score,
    odin_score,
    score_corpus,
    train_supervised_classifier,
)
from sevcon.config import BaselinesSection, ContrastiveSection, ProbeSection
from sevcon.evalprobe import _embed_all
from sevcon.models import TRUNK_BLOCK
from sevcon.numerics import NumericalError, softmax, softmax_ce_with_logits

RNG = np.random.default_rng(13)


@pytest.fixture(scope="module")
def tiny_classifier():
    n = 24
    images = np.clip(RNG.random(size=(n, 1, 32, 32)), 0.0, 1.0)
    multihot = RNG.integers(0, 2, size=(n, 5)).astype(float)
    b = BaselinesSection(classifier_epochs=2, classifier_batch_size=8,
                         classifier_learning_rate=1e-3)
    clf = train_supervised_classifier(images, multihot, ContrastiveSection(embedding_dim=64),
                                      b, seed=0)
    return clf, images, multihot


def test_msp_from_logits_hand_value():
    logits = np.array([np.log(2.0), 0.0])  # softmax = [2/3, 1/3]
    assert msp_from_logits(logits) == pytest.approx(2.0 / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        msp_from_logits(np.array([1.0]))


def test_msp_score_orientation(tiny_classifier):
    clf, images, _ = tiny_classifier
    s = msp_score(clf, images[0])
    probs = softmax(clf.combo_head.forward(clf.backbone.forward(images[:1]))[0])
    assert s == -probs.max()
    assert -1.0 <= s <= -1.0 / clf.combo_head.layers[-1].n_out


def test_odin_at_t1_eps0_is_bitwise_msp(tiny_classifier):
    clf, images, _ = tiny_classifier
    for i in range(5):
        msp = msp_score(clf, images[i])
        odin = odin_score(clf, images[i], T=1.0, eps=0.0)
        assert odin == msp  # bitwise


def test_odin_validation(tiny_classifier):
    clf, images, _ = tiny_classifier
    with pytest.raises(ValueError):
        odin_score(clf, images[0], T=0.0, eps=0.0014)
    with pytest.raises(ValueError):
        odin_score(clf, images[0], T=1000.0, eps=-1.0)


def test_odin_perturbation_changes_score(tiny_classifier):
    clf, images, _ = tiny_classifier
    assert odin_score(clf, images[0], T=1000.0, eps=0.01) != msp_score(clf, images[0])


def test_fit_gaussian_stats_matches_manual():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(30, 4))
    idx = rng.integers(0, 3, size=30)
    stats = fit_gaussian_stats(feats, idx, epsilon=1e-3)
    for k, c in enumerate(np.unique(idx)):
        assert np.allclose(stats.means[k], feats[idx == c].mean(axis=0))
    centered = feats - stats.means[np.searchsorted(np.unique(idx), idx)]
    manual_cov = centered.T @ centered / feats.shape[0] + 1e-3 * np.eye(4)
    assert np.allclose(stats.cov, manual_cov)
    assert np.allclose(stats.cov_inv @ stats.cov, np.eye(4), atol=1e-10)


def test_mahalanobis_hand_value_and_min_over_classes():
    from sevcon.baselines import GaussianClassStats
    means = np.array([[0.0, 0.0], [10.0, 0.0]])
    stats = GaussianClassStats(means, np.eye(2), np.eye(2), 0.0)
    # distance^2 to nearest mean with identity covariance
    assert mahalanobis_score(stats, np.array([3.0, 4.0])) == pytest.approx(25.0)
    assert mahalanobis_score(stats, np.array([9.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mahalanobis_score(stats, np.zeros(3))


def test_degenerate_covariance_raises():
    feats = np.zeros((10, 3))  # zero variance; only epsilon keeps it PD
    stats = fit_gaussian_stats(feats, np.zeros(10, dtype=int), epsilon=1e-3)
    assert np.allclose(stats.cov, 1e-3 * np.eye(3))
    with pytest.raises(NumericalError, match="epsilon"):
        fit_gaussian_stats(feats, np.zeros(10, dtype=int), epsilon=0.0)


def test_score_corpus_dispatch(tiny_classifier):
    clf, images, multihot = tiny_classifier
    corpus = images[:4]
    b = BaselinesSection()
    msp = score_corpus(clf, corpus, "msp", b)
    assert msp.shape == (4,)
    odin = score_corpus(clf, corpus, "odin",
                        BaselinesSection(odin_temperature=1.0, odin_epsilon=0.0))
    assert np.array_equal(msp, odin)  # bitwise at T=1, eps=0
    maha = score_corpus(clf, corpus, "mahalanobis", b,
                        train_images=images, train_multihot=multihot)
    assert np.all(maha >= 0.0)
    with pytest.raises(ValueError, match="labeled training data"):
        score_corpus(clf, corpus, "mahalanobis", b)
    with pytest.raises(ValueError, match="unknown scorer"):
        score_corpus(clf, corpus, "nope", b)


def per_image_msp(clf, x, T=1.0):
    """Oracle: one batch-1 forward, then -max softmax of the logits / T."""
    logits = clf.combo_head.forward(clf.backbone.forward(x[None]))[0]
    return -float(softmax(logits / T).max())


def per_image_odin(clf, x, T, eps):
    """Oracle: one batch-1 forward and backward of the temperature-scaled
    cross-entropy at the predicted class, then the perturbed batch-1 MSP."""
    logits = clf.combo_head.forward(clf.backbone.forward(x[None]))
    _, dlogits = softmax_ce_with_logits(logits / T, np.array([int(np.argmax(logits[0]))]))
    dx = clf.backbone.backward(clf.combo_head.backward(dlogits / T))
    return per_image_msp(clf, (x[None] - eps * np.sign(dx))[0], T)


def per_image_mahalanobis(stats, f):
    """Oracle: the quadratic form against every class mean, for one feature."""
    diffs = stats.means - f
    return float(np.einsum("kd,de,ke->k", diffs, stats.cov_inv, diffs).min())


def assert_close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), np.max(np.abs(got - want))


def test_batched_scorers_match_per_image_oracles(tiny_classifier):
    """<= 1e-12 relative, over a corpus of eight TRUNK_BLOCK blocks and a
    ragged ninth."""
    clf, images, multihot = tiny_classifier
    corpus = np.clip(np.random.default_rng(5).random(size=(8 * TRUNK_BLOCK + 20, 1, 32, 32)),
                     0.0, 1.0)
    b = BaselinesSection()
    assert_close(score_corpus(clf, corpus, "msp", b), [per_image_msp(clf, x) for x in corpus])
    for T, eps in ((b.odin_temperature, b.odin_epsilon), (1000.0, 0.01)):
        odin = score_corpus(clf, corpus, "odin",
                            BaselinesSection(odin_temperature=T, odin_epsilon=eps))
        assert_close(odin, [per_image_odin(clf, x, T, eps) for x in corpus])
    feats = clf.backbone.forward(images)
    _, combo_idx = np.unique(multihot.astype(np.int64), axis=0, return_inverse=True)
    stats = fit_gaussian_stats(feats, combo_idx, b.mahalanobis_epsilon)
    maha = score_corpus(clf, corpus, "mahalanobis", b,
                        train_images=images, train_multihot=multihot)
    assert_close(maha, [per_image_mahalanobis(stats, f)
                        for f in clf.backbone.forward(corpus)])
    assert mahalanobis_score(stats, feats[0]) == pytest.approx(
        per_image_mahalanobis(stats, feats[0]), rel=1e-12)


def test_corpus_passes_equal_a_block_loop_at_any_lane_count(tiny_classifier, monkeypatch):
    """_embed_all and _odin_scores equal a plain loop of Network calls over
    TRUNK_BLOCK blocks bit for bit, the last block ragged, at 1, 2 and 4
    lanes (4 with the interpreter switching threads every microsecond)."""
    clf, _, _ = tiny_classifier
    corpus = np.clip(np.random.default_rng(6).random(size=(4 * TRUNK_BLOCK + 3, 1, 32, 32)),
                     0.0, 1.0)
    T, eps = 1000.0, 0.01
    feats, perturbed = [], []
    for start in range(0, len(corpus), TRUNK_BLOCK):
        x = corpus[start:start + TRUNK_BLOCK]
        feats.append(clf.backbone.forward(x))
        logits = clf.combo_head.forward(feats[-1])
        _, dlogits = softmax_ce_with_logits(logits / T, np.argmax(logits, axis=1))
        dx = clf.backbone.backward(clf.combo_head.backward(dlogits * len(x) / T))
        perturbed.append(clf.combo_head.forward(clf.backbone.forward(x - eps * np.sign(dx))))
    want_feats = np.concatenate(feats)
    want_odin = -softmax(np.concatenate(perturbed) / T).max(axis=1)
    switch = sys.getswitchinterval()
    for lanes in (1, 2, 4):
        monkeypatch.setattr(models, "LANES", lanes)
        if lanes == 4:
            sys.setswitchinterval(1e-6)
        try:
            got_feats = _embed_all(clf.backbone, corpus)
            got_odin = _odin_scores(clf, corpus, T, eps)
        finally:
            sys.setswitchinterval(switch)
        assert np.array_equal(got_feats, want_feats), lanes
        assert np.array_equal(got_odin, want_odin), lanes


def test_ablation_run_shared_seeds_identical_for_identical_scores():
    rng = np.random.default_rng(2)
    corpus = rng.random(size=(16, 1, 32, 32))
    scores = rng.normal(size=16)
    train = (rng.random(size=(10, 1, 32, 32)), rng.integers(0, 2, size=(10, 5)).astype(float))
    test_y = rng.integers(0, 2, size=(8, 5)).astype(float)
    for j in range(5):
        if test_y[:, j].sum() in (0, 8):
            test_y[0, j] = 1 - test_y[0, j]
    test = (rng.random(size=(8, 1, 32, 32)), test_y)
    rows = ablation_run(
        {"a": scores, "b": scores.copy(), "c": scores + 0.5},  # c: shifted, same ranks
        corpus, train, test, n_bins=4,
        c=ContrastiveSection(epochs=1, batch_size=8, learning_rate=1e-3,
                             embedding_dim=64, projection_dim=32),
        p=ProbeSection(epochs=2, batch_size=8), seed=3)
    assert [r["scorer"] for r in rows] == ["a", "b", "c"]
    assert all(r["n_bins"] == 4 for r in rows)
    # identical scores and rank-preserving shifts give bitwise-equal rows
    assert rows[0]["mean_auc"] == rows[1]["mean_auc"] == rows[2]["mean_auc"]
