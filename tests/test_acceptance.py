"""Acceptance suite: one test per promised behavior, each printing a single
PASS/FAIL line. The expensive pipeline checks drive the real CLI at the
shipped default configuration and fixed seed.
"""

import csv
import json
import time

import numpy as np
import pytest
import scipy.stats

from conftest import central_diff, rel_err
from sevcon import contrastive, gradcon, labeling, models, numerics
from sevcon.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from sevcon.cli import EXIT_OK, main
from sevcon.evalprobe import accuracy, f1, roc_auc

from test_contrastive import brute_force_supcon, paired_labels, random_unit_batch
from test_evalprobe import brute_force_auc


@pytest.fixture
def verdict(capsys):
    def check(n, desc, ok, detail=""):
        line = f"CRITERION {n} [{'PASS' if ok else 'FAIL'}] {desc}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return check


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients of every layer kind and both losses match
# central finite differences (rel err < 1e-4); the whole check runs in < 60 s.
# ---------------------------------------------------------------------------


def test_criterion_1_gradients(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0

    def readout(shape, seed):
        w = np.random.default_rng(seed).normal(size=shape)
        return (lambda y: float((y * w).sum())), w

    cases = [
        (numerics.Dense(5, 4, rng), rng.normal(size=(3, 5))),
        (numerics.Conv2d(2, 3, rng, stride=1), rng.normal(size=(2, 2, 8, 8))),
        (numerics.Conv2d(2, 3, rng, stride=2), rng.normal(size=(2, 2, 8, 8))),
        (numerics.UpsampleConv2d(2, 3, rng), rng.normal(size=(2, 2, 4, 4))),
        (numerics.Relu(), rng.normal(size=(3, 6)) + np.sign(rng.normal(size=(3, 6))) * 0.2),
        (numerics.Sigmoid(), rng.normal(size=(3, 6))),
        (numerics.Flatten(), rng.normal(size=(2, 2, 4, 4))),
        (numerics.Reshape((2, 4, 4)), rng.normal(size=(2, 32))),
    ]
    for k, (layer, x) in enumerate(cases):
        y = layer.forward(x)
        f, w = readout(y.shape, 100 + k)
        dx = layer.backward(w)
        num = central_diff(lambda xv: f(layer.forward(xv)), x.copy())
        worst = max(worst, rel_err(dx, num))
        for name, p in layer.params.items():
            analytic = layer.grads[name].copy()
            num = central_diff(lambda _: f(layer.forward(x)), p)
            worst = max(worst, rel_err(analytic, num))

    # reconstruction loss gradient
    x = rng.random(size=(2, 1, 4, 4))
    xh = rng.random(size=(2, 1, 4, 4))
    g = gradcon.reconstruction_loss_grad(x, xh)
    num = central_diff(lambda h: gradcon.reconstruction_loss(x, h), xh.copy())
    worst = max(worst, rel_err(g, num))

    # contrastive loss gradient, through the row normalization
    u = rng.normal(size=(8, 4))
    labels = paired_labels(rng, 8)

    def loss_of_u(uv):
        zv = uv / np.linalg.norm(uv, axis=1, keepdims=True)
        return contrastive.supcon_loss_and_grad(zv, labels, 0.2)[0]

    z = u / np.linalg.norm(u, axis=1, keepdims=True)
    _, dz = contrastive.supcon_loss_and_grad(z, labels, 0.2)
    du = models.normalize_rows_backward(u, z, dz)
    worst = max(worst, rel_err(du, central_diff(loss_of_u, u.copy())))

    elapsed = time.monotonic() - t0
    verdict(1, "analytic gradients match finite differences for all layer "
               "kinds and both losses",
            worst < 1e-4 and elapsed < 60.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: the contrastive loss equals a brute-force evaluation of its
# definition within 1e-9 on 50 random batches, plus an exact hand case.
# ---------------------------------------------------------------------------


def test_criterion_2_supcon_oracle(verdict):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n_src = int(rng.integers(1, 9))  # up to 16 anchors after pairing
        dim = int(rng.integers(2, 8))
        tau = float(rng.uniform(0.05, 2.0))
        z = random_unit_batch(rng, 2 * n_src, dim)
        labels = paired_labels(rng, 2 * n_src)
        worst = max(worst, abs(contrastive.supcon_loss_and_grad(z, labels, tau)[0]
                               - brute_force_supcon(z, labels, tau)))
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    hand = abs(contrastive.supcon_loss_and_grad(z, np.array([0, 0, 1, 1]), 1.0)[0]
               - (np.log(np.e + 2.0) - 1.0))
    verdict(2, "contrastive loss matches brute-force definition on 50 random "
               "batches and the orthogonal-pairs hand case",
            worst < 1e-9 and hand < 1e-12,
            f"worst batch dev {worst:.2e}, hand dev {hand:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: rank-and-bin labeling is a balanced, monotone partition that
# depends only on score ranks, on 1000 randomized instances incl. N=1, N=n.
# ---------------------------------------------------------------------------


def test_criterion_3_binning_properties(verdict):
    rng = np.random.default_rng(2)
    ok = True
    detail = ""
    for case in range(1000):
        n = int(rng.integers(1, 80))
        if case % 3 == 0:
            scores = np.round(rng.normal(size=n), 1)  # ties
        else:
            scores = rng.normal(size=n)
        if case % 5 == 0:
            n_bins = 1
        elif case % 5 == 1:
            n_bins = n
        else:
            n_bins = int(rng.integers(1, n + 1))
        lab = labeling.assign_severity_labels(scores, n_bins)
        sizes = np.bincount(lab.labels, minlength=n_bins)
        if not (lab.labels.min() >= 0 and lab.labels.max() < n_bins
                and sizes.sum() == n and sizes.max() - sizes.min() <= 1
                and np.all(np.diff(lab.labels[np.argsort(scores, kind="stable")]) >= 0)):
            ok = False
            detail = f"partition/balance/monotonicity broke at case {case}"
            break
        distinct = np.unique(scores)
        if distinct.size >= n_bins:
            perm = rng.permutation(distinct.size)
            base = labeling.assign_severity_labels(distinct, n_bins)
            shuf = labeling.assign_severity_labels(distinct[perm], n_bins)
            if not np.array_equal(shuf.labels, base.labels[perm]):
                ok = False
                detail = f"order invariance broke at case {case}"
                break
    verdict(3, "binning satisfies partition, balance, monotonicity, and "
               "order-invariance on 1000 randomized instances", ok, detail)


# ---------------------------------------------------------------------------
# Full pipeline at the shipped defaults (shared by criteria 4 and 5).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("accept") / "run"

    def cli(*args):
        assert main(["--run-dir", str(run), *args]) == EXIT_OK, args

    timings = {}
    cli("gen-data")
    t0 = time.monotonic()
    cli("train-gradcon")
    cli("score", "--scorer", "severity")
    timings["score_pipeline"] = time.monotonic() - t0

    t0 = time.monotonic()
    for bins in (250, 500, 1000):
        cli("make-labels", "--bins", str(bins))
        cli("pretrain", "--mode", "severity", "--bins", str(bins))
    cli("pretrain", "--mode", "simclr")
    cli("pretrain", "--mode", "random")
    for tag in ("severity_b250", "severity_b500", "severity_b1000",
                "simclr", "random"):
        cli("probe", "--task", "multilabel", "--tag", tag)
        cli("evaluate", "--tag", tag)
    cli("report")
    timings["pretrain_compare"] = time.monotonic() - t0
    return run, timings


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def test_criterion_4_severity_scores(verdict, full_run):
    run, timings = full_run
    rows = _read_rows(run / "scores" / "severity.csv")
    scores = {r["sample_id"]: float(r["severity"]) for r in rows}
    gt = {}
    with open(run / "data" / "unlabeled" / "labels.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            gt[r["sample_id"]] = int(r["severity"])
    ids = sorted(scores)
    s = np.array([scores[i] for i in ids])
    sev = np.array([gt[i] for i in ids])
    auroc = roc_auc(s, (sev > 0).astype(int))
    rho = scipy.stats.spearmanr(s, sev).statistic

    log = _read_rows(run / "gradcon" / "training_log.csv")
    held_first = float(log[0]["heldout_alignment"])
    held_last = float(log[-1]["heldout_alignment"])

    ok = (auroc >= 0.9 and rho >= 0.6 and held_last > held_first
          and timings["score_pipeline"] <= 300.0)
    verdict(4, "severity scores separate healthy from lesioned images and "
               "track ground-truth severity on the 2000-image corpus",
            ok, f"AUROC {auroc:.3f}, spearman {rho:.3f}, held-out alignment "
                f"{held_first:.3f}->{held_last:.3f}, "
                f"{timings['score_pipeline']:.0f}s")


def test_criterion_5_pretraining_comparison(verdict, full_run):
    run, timings = full_run

    def mean_auc(tag):
        data = json.loads((run / "probe" / f"result_{tag}.json").read_text())
        return data["mean_auc"]

    sev = mean_auc("severity_b250")
    sim = mean_auc("simclr")
    rnd = mean_auc("random")
    ok = (sev >= rnd + 0.05 and sev >= sim
          and timings["pretrain_compare"] <= 900.0)
    verdict(5, "severity-pseudo-label pretraining beats the frozen random "
               "baseline by >= 0.05 mean AUC and the instance-discrimination "
               "mode",
            ok, f"severity {sev:.4f}, simclr {sim:.4f}, random {rnd:.4f}, "
                f"{timings['pretrain_compare']:.0f}s")


# ---------------------------------------------------------------------------
# Reduced-size pipeline (shared by criteria 6 and 9): small corpus, few
# epochs, and ODIN pinned to T=1, eps=0 so its scores must equal MSP's.
# ---------------------------------------------------------------------------

SMALL_INI = """\
[experiment]
seed = 11

[data]
n_healthy = 24
n_unlabeled = 40
n_labeled_train = 20
n_test_per_biomarker = 8
n_multilabel_test = 16

[gradcon]
epochs = 1
heldout_count = 4

[labeling]
n_bins = 8
report_bins = 4,8,10
extreme_report_k = 2

[contrastive]
epochs = 1

[probe]
epochs = 5

[baselines]
classifier_epochs = 1
odin_temperature = 1.0
odin_epsilon = 0.0
"""


def _small_pipeline(run, cfg_path):
    def cli(*args):
        assert main(["--run-dir", str(run), *args]) == EXIT_OK, args

    cli("--config", str(cfg_path), "gen-data")
    cli("train-gradcon")
    for scorer in ("severity", "msp", "odin", "mahalanobis"):
        cli("score", "--scorer", scorer)
    for bins in (4, 8, 10):
        cli("make-labels", "--bins", str(bins))
        cli("pretrain", "--mode", "severity", "--bins", str(bins))
    cli("pretrain", "--mode", "simclr")
    cli("pretrain", "--mode", "random")
    for tag in ("severity_b4", "severity_b8", "severity_b10", "simclr", "random"):
        cli("probe", "--task", "bio_a", "--tag", tag)
        cli("probe", "--task", "multilabel", "--tag", tag)
        cli("evaluate", "--tag", tag)
    cli("ablate", "--bins", "8")
    cli("report")


@pytest.fixture(scope="session")
def small_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-small")
    cfg_path = root / "small.ini"
    cfg_path.write_text(SMALL_INI)
    runs = []
    for name in ("a", "b"):
        run = root / name
        _small_pipeline(run, cfg_path)
        runs.append(run)
    return runs


def test_criterion_6_ablation(verdict, small_runs):
    run_a, run_b = small_runs
    rows = _read_rows(run_a / "report" / "ablation.csv")
    one_per_scorer = [r["scorer"] for r in rows] == ["severity", "msp", "odin",
                                                     "mahalanobis"]
    by_scorer = {r["scorer"]: r["mean_auc"] for r in rows}
    odin_eq_msp = by_scorer["odin"] == by_scorer["msp"]  # textual repr, bitwise
    deterministic = ((run_a / "report" / "ablation.csv").read_bytes()
                     == (run_b / "report" / "ablation.csv").read_bytes())
    verdict(6, "ablation emits one row per scorer, deterministically, and the "
               "ODIN row at T=1, eps=0 equals the MSP row bitwise",
            one_per_scorer and odin_eq_msp and deterministic,
            f"rows {[r['scorer'] for r in rows]}")


def test_criterion_7_report_bin_counts(verdict, full_run):
    run, _ = full_run
    methods = [r["method"] for r in _read_rows(run / "report" / "table1.csv")]
    bin_tags = [m for m in methods if m.startswith("severity_b")]
    verdict(7, "the report covers at least three pseudo-label bin counts",
            len(bin_tags) >= 3, f"methods {methods}")


# ---------------------------------------------------------------------------
# Criterion 8: ROC-AUC exactly equals the all-pairs statistic on 200 random
# instances; accuracy and F1 reproduce hand-computed values.
# ---------------------------------------------------------------------------


def test_criterion_8_metric_oracles(verdict):
    rng = np.random.default_rng(8)
    exact = True
    for case in range(200):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = (np.round(rng.normal(size=n), 1) if case % 2
                  else rng.normal(size=n))
        if roc_auc(scores, labels) != brute_force_auc(scores, labels):
            exact = False
            break
    preds = np.array([1, 1, 0, 0])
    labels = np.array([1, 0, 1, 0])
    hand = (accuracy(preds, labels) == 0.5 and f1(preds, labels) == 0.5
            and f1(np.zeros(4), np.zeros(4)) == 0.0
            and f1(np.ones(3), np.ones(3)) == 1.0)
    verdict(8, "ROC-AUC equals the brute-force pairwise statistic on 200 "
               "random instances; accuracy/F1 match hand values",
            exact and hand)


# ---------------------------------------------------------------------------
# Criterion 9: identical seeds give bitwise-identical report CSVs, and
# checkpoints round-trip bitwise.
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(verdict, small_runs, tmp_path):
    run_a, run_b = small_runs
    same = all(
        (run_a / rel).read_bytes() == (run_b / rel).read_bytes()
        for rel in ("report/table1.csv", "report/ablation.csv",
                    "scores/severity.csv", "scores/msp.csv",
                    "gradcon/training_log.csv"))

    ckpt_path = run_a / "pretrain" / "backbone_simclr.npz"
    original = load_checkpoint(ckpt_path)
    copy_path = tmp_path / "copy.npz"
    save_checkpoint(copy_path, Checkpoint(
        original.kind, original.params,
        original.epoch, original.config_hash, original.seed, original.extra))
    reloaded = load_checkpoint(copy_path)
    round_trip = all(np.asarray(reloaded.params[k]).tobytes()
                     == np.asarray(original.params[k]).tobytes()
                     for k in original.params)

    verdict(9, "same-seed reruns produce bitwise-identical CSV artifacts and "
               "checkpoints round-trip bitwise", same and round_trip)
