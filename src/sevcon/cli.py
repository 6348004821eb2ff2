"""Pipeline CLI: every stage reads and writes artifacts under one run
directory, so each stage is independently re-runnable.

Exit codes: 0 success, 2 config error, 3 missing upstream artifact,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import baselines, contrastive, evalprobe, gradcon, labeling, models, synthdata
from .checkpoint import Checkpoint, atomic_open, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, load_config
from .numerics import NumericalError, require_finite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

SCORERS = ("severity", "msp", "odin", "mahalanobis")
PROBE_TASKS = tuple(synthdata.BIOMARKER_NAMES) + ("multilabel",)


class MissingArtifactError(RuntimeError):
    """An upstream stage has not produced a required artifact (exit code 3)."""


# ---------------------------------------------------------------------------
# Run-directory plumbing
# ---------------------------------------------------------------------------


def _run_config(run_dir: Path, config_path: str | None, force: bool) -> ExperimentConfig:
    stored = run_dir / "config.ini"
    if config_path is not None:
        cfg = load_config(Path(config_path))
        if stored.exists() and not force:
            if load_config(stored).config_hash() != cfg.config_hash():
                raise ConfigError(
                    "config hash differs from the run directory's config.ini; "
                    "rerun with --force to override")
        cfg.save(stored)
        return cfg
    if not stored.exists():
        cfg = ExperimentConfig()
        cfg.save(stored)
        return cfg
    return load_config(stored)


def _check_hash(artifact_hash: str, cfg: ExperimentConfig, what: str, force: bool):
    if artifact_hash != cfg.config_hash() and not force:
        raise ConfigError(
            f"{what} was produced under a different config "
            f"({artifact_hash} != {cfg.config_hash()}); use --force to proceed")


def _read_artifact(path: Path, produced_by: str, read):
    """`read(path)` of an artifact that `sevcon <produced_by>` writes; a
    missing or unreadable one is a missing artifact."""
    if not path.exists():
        raise MissingArtifactError(
            f"missing artifact {path}; run `sevcon {produced_by}` first")
    try:
        return read(path)
    except (OSError, EOFError, KeyError, TypeError, ValueError, csv.Error,
            zipfile.BadZipFile) as e:
        raise MissingArtifactError(
            f"cannot read artifact {path} ({type(e).__name__}: {e}); "
            f"remove it and rerun `sevcon {produced_by}`") from None


def _load_model(path: Path, produced_by: str, what: str, cfg: ExperimentConfig,
                force: bool, build):
    """The model that `build(ckpt)` makes for a checkpoint that `sevcon
    <produced_by>` writes, with the checkpoint's parameters loaded, once its
    config hash is checked. A checkpoint whose parameter keys, shapes or
    metadata do not fit the model is a missing artifact, as a missing or
    unreadable one is."""
    ckpt = _read_artifact(path, produced_by, load_checkpoint)
    _check_hash(ckpt.config_hash, cfg, what, force)

    def fit(_):
        model = build(ckpt)
        model.load_param_dict(ckpt.params)
        return model

    return _read_artifact(path, produced_by, fit)


def _write_csv(path: Path, header: list[str], rows: list[list],
               cfg: ExperimentConfig):
    with atomic_open(path, "w", newline="") as f:
        f.write(f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _read_csv(path: Path) -> list[dict]:
    """Rows as dicts; a field missing from a row cut short reads as ``""``."""
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines, restval=""))


def _read_checked(path: Path, produced_by: str, sample_ids: list[str],
                  columns: dict[str, type]) -> dict[str, np.ndarray]:
    """Each of `columns` of a per-sample CSV that `sevcon <produced_by>`
    writes, parsed by its type; a file that does not list `sample_ids` in
    order, or holds a value that does not parse, is a missing artifact."""
    def read(p: Path) -> dict[str, np.ndarray]:
        records = _read_csv(p)
        if [r["sample_id"] for r in records] != sample_ids:
            raise ValueError("the sample ids do not match the corpus")
        return {name: np.array([typ(r[name]) for r in records])
                for name, typ in columns.items()}
    return _read_artifact(path, produced_by, read)


def _load_dataset(run_dir: Path, name: str) -> synthdata.Dataset:
    """The one way stages read a data split; a split that is missing,
    unreadable or of an older layout is a missing artifact."""
    return _read_artifact(run_dir / "data" / name / "manifest.json", "gen-data",
                          lambda p: synthdata.load_dataset(p.parent))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen_data(run_dir: Path, cfg: ExperimentConfig, force: bool):
    d = cfg.data
    meta = {"config_hash": cfg.config_hash(), "seed": cfg.seed}
    splits = {"healthy": synthdata.generate_healthy(d, cfg.seed),
              "unlabeled": synthdata.generate_unlabeled(d, cfg.seed),
              **synthdata.generate_labeled_splits(d, cfg.seed)}
    for name, ds in splits.items():
        synthdata.save_dataset(run_dir / "data" / name, ds, {**meta, "split": name})
    print(f"gen-data: wrote {d.n_healthy} healthy, {d.n_unlabeled} unlabeled, "
          f"labeled splits under {run_dir / 'data'}")


def stage_train_gradcon(run_dir: Path, cfg: ExperimentConfig, force: bool):
    healthy = _load_dataset(run_dir, "healthy")
    g = cfg.gradcon
    n_held = min(g.heldout_count, len(healthy) // 4)
    train_imgs = healthy.images[:len(healthy) - n_held]
    held_imgs = healthy.images[len(healthy) - n_held:]
    model = models.build_autoencoder(cfg.data.image_side, g.latent_dim,
                                     cfg.derive_seed("gradcon-model"))
    seed = cfg.derive_seed("gradcon-train")
    model, ref, log = gradcon.train_gradcon(train_imgs, g, model, seed, heldout=held_imgs)

    out = run_dir / "gradcon"
    save_checkpoint(out / "autoencoder.npz", Checkpoint(
        "autoencoder", model.param_dict(), epoch=g.epochs,
        config_hash=cfg.config_hash(), seed=seed,
        extra={"image_side": cfg.data.image_side, "latent_dim": g.latent_dim,
               "model_seed": cfg.derive_seed("gradcon-model")}))
    save_checkpoint(out / "reference.npz", Checkpoint(
        "reference-gradients",
        {f"layer{i}": m for i, m in enumerate(ref.layer_means)},
        config_hash=cfg.config_hash(), seed=seed,
        extra={"count": ref.count}))
    _write_csv(out / "training_log.csv",
               ["epoch", "mean_recon", "mean_alignment", "heldout_alignment"],
               [[e["epoch"], e["mean_recon"], e["mean_alignment"],
                 e.get("heldout_alignment", float("nan"))] for e in log], cfg)
    print(f"train-gradcon: {g.epochs} epochs, final recon "
          f"{log[-1]['mean_recon']:.5f}, reference count {ref.count}")


def _load_gradcon(run_dir: Path, cfg: ExperimentConfig, force: bool):
    model = _load_model(run_dir / "gradcon" / "autoencoder.npz", "train-gradcon",
                        "gradcon autoencoder", cfg, force,
                        lambda c: models.build_autoencoder(
                            c.extra["image_side"], c.extra["latent_dim"], c.extra["model_seed"]))

    def reference(path: Path) -> gradcon.ReferenceGradients:
        rckpt = load_checkpoint(path)
        means = [rckpt.params[f"layer{i}"] for i in range(len(rckpt.params))]
        if [m.shape for m in means] != [(model.decoder.layers[i].params["w"].size,)
                                        for i in model.decoder_weight_layers()]:
            raise ValueError("the reference gradients do not fit the autoencoder")
        return gradcon.ReferenceGradients(means, rckpt.extra["count"])

    return model, _read_artifact(run_dir / "gradcon" / "reference.npz", "train-gradcon",
                                 reference)


def _train_or_load_classifier(run_dir: Path, cfg: ExperimentConfig, force: bool):
    """The classifier, the labeled_train split, and the checkpoint of a newly
    trained classifier (None for a loaded one), which the caller writes."""
    path = run_dir / "baselines" / "classifier.npz"
    train = _load_dataset(run_dir, "labeled_train")
    if len(np.unique(train.multihot(), axis=0)) < 2:
        raise ConfigError(
            "the labeled_train split holds one label combination, so the classifier "
            "has one class; raise [data] n_labeled_train and rerun `sevcon gen-data`")
    if path.exists():
        def build(ckpt: Checkpoint) -> baselines.SupervisedClassifier:
            # both widths come from the combo head's weights, shaped (embedding, classes)
            w = ckpt.params["c.0.w"]
            return baselines.SupervisedClassifier(
                models.build_backbone(cfg.data.image_side, w.shape[0], 0),
                models.build_classifier_head(*w.shape, 0))

        return _load_model(path, "score --scorer msp", "supervised classifier", cfg, force,
                           build), train, None
    clf = baselines.train_supervised_classifier(train.images, train.multihot(),
                                                cfg.contrastive, cfg.baselines,
                                                cfg.derive_seed("classifier"))
    return clf, train, Checkpoint("classifier", clf.param_dict(), config_hash=cfg.config_hash(),
                                  seed=cfg.derive_seed("classifier"))


def _score_corpus(run_dir: Path, cfg: ExperimentConfig, scorer: str, force: bool):
    """The score rows, and the checkpoint of a classifier trained for them
    (None if none was)."""
    unlabeled = _load_dataset(run_dir, "unlabeled").training_view()
    if scorer == "severity":
        model, ref = _load_gradcon(run_dir, cfg, force)
        scores = gradcon.score_dataset(model, ref, unlabeled.images, cfg.gradcon.alpha)
        rows = [[sid, s.l_recon, s.l_grad, s.value]
                for sid, s in zip(unlabeled.sample_ids, scores)]
        return rows, None
    clf, train, trained = _train_or_load_classifier(run_dir, cfg, force)
    values = baselines.score_corpus(
        clf, unlabeled.images, scorer, cfg.baselines,
        train_images=train.images, train_multihot=train.multihot())
    rows = [[sid, float("nan"), float("nan"), float(v)]
            for sid, v in zip(unlabeled.sample_ids, values)]
    return rows, trained


def stage_score(run_dir: Path, cfg: ExperimentConfig, scorer: str, force: bool):
    """Scores the corpus. Scores that are not all finite, or that all tie and
    so cannot rank the corpus, are refused before anything is written."""
    rows, trained = _score_corpus(run_dir, cfg, scorer, force)
    values = [r[3] for r in rows]
    require_finite(values, f"{scorer} scores")
    if len(values) > 1 and min(values) == max(values):
        raise NumericalError(f"every {scorer} score is {values[0]!r}, "
                             f"so the scores cannot rank the corpus")
    if trained is not None:
        save_checkpoint(run_dir / "baselines" / "classifier.npz", trained)
    _write_csv(run_dir / "scores" / f"{scorer}.csv",
               ["sample_id", "l_recon", "l_grad", "severity"], rows, cfg)
    print(f"score: wrote {len(rows)} {scorer} scores")


def _load_scores(run_dir: Path, scorer: str, sample_ids: list[str]) -> np.ndarray:
    cols = _read_checked(run_dir / "scores" / f"{scorer}.csv",
                         f"score --scorer {scorer}", sample_ids, {"severity": float})
    return cols["severity"]


def _severity_labels(scores: np.ndarray, n_bins: int) -> labeling.SeverityLabeling:
    """Rank-and-bin labels; a bin count the scores cannot fill is a config error."""
    try:
        return labeling.assign_severity_labels(scores, n_bins)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def stage_make_labels(run_dir: Path, cfg: ExperimentConfig, n_bins: int, force: bool):
    ids = _load_dataset(run_dir, "unlabeled").sample_ids
    scores = _load_scores(run_dir, "severity", ids)
    lab = _severity_labels(scores, n_bins)
    _write_csv(run_dir / "labels" / f"severity_bins{n_bins}.csv",
               ["sample_id", "severity", "bin_label"],
               [[sid, float(s), int(l)] for sid, s, l in zip(ids, scores, lab.labels)],
               cfg)
    print(f"make-labels: {len(ids)} samples into {n_bins} bins "
          f"(sizes {lab.bin_sizes.min()}..{lab.bin_sizes.max()})")


def _load_labels(run_dir: Path, n_bins: int,
                 sample_ids: list[str]) -> labeling.SeverityLabeling:
    """The rank-and-bin labels `make-labels` wrote, checked against the corpus."""
    bins = _read_checked(run_dir / "labels" / f"severity_bins{n_bins}.csv",
                         f"make-labels --bins {n_bins}", sample_ids,
                         {"bin_label": int})["bin_label"]
    return labeling.SeverityLabeling(n_bins, bins, np.bincount(bins, minlength=n_bins))


def stage_pretrain(run_dir: Path, cfg: ExperimentConfig, mode: str, n_bins: int | None,
                   force: bool):
    if n_bins is None:
        n_bins = cfg.labeling.n_bins
    unlabeled = _load_dataset(run_dir, "unlabeled").training_view()
    tag = f"severity_b{n_bins}" if mode == "severity" else mode
    c = cfg.contrastive
    backbone = models.build_backbone(cfg.data.image_side, c.embedding_dim,
                                     cfg.derive_seed("pretrain-backbone"))
    head = models.build_projection_head(c.embedding_dim, c.projection_dim,
                                        cfg.derive_seed("pretrain-head"))
    # the training seed is shared across modes so that severity, simclr, and
    # random runs are a paired comparison: same init, batches, augmentations
    seed = cfg.derive_seed("pretrain-train")
    if mode == "severity":
        if not 1 <= n_bins <= len(unlabeled):  # make-labels refuses it too
            raise ConfigError(f"n_bins must be in [1, {len(unlabeled)}], got {n_bins}")
        pseudo = _load_labels(run_dir, n_bins, unlabeled.sample_ids).labels
        curve = contrastive.pretrain(backbone, head, unlabeled.images, pseudo, c, seed)
    elif mode == "simclr":
        curve = contrastive.simclr_mode(backbone, head, unlabeled.images, c, seed)
    elif mode == "random":
        curve = []  # frozen random-init baseline: no training
    else:
        raise ConfigError(f"unknown pretrain mode {mode!r}")

    out = run_dir / "pretrain"
    save_checkpoint(out / f"backbone_{tag}.npz", Checkpoint(
        "backbone", backbone.param_dict(),
        epoch=len(curve), config_hash=cfg.config_hash(),
        seed=seed,
        extra={"image_side": cfg.data.image_side, "embedding_dim": c.embedding_dim,
               "model_seed": cfg.derive_seed("pretrain-backbone"), "tag": tag}))
    _write_csv(out / f"loss_{tag}.csv", ["epoch", "mean_loss"],
               [[i, v] for i, v in enumerate(curve)], cfg)
    last = f", final loss {curve[-1]:.4f}" if curve else ""
    print(f"pretrain[{tag}]: {len(curve)} epochs{last}")


def _load_backbone(run_dir: Path, cfg: ExperimentConfig, tag: str, force: bool):
    return _load_model(run_dir / "pretrain" / f"backbone_{tag}.npz", f"pretrain (tag {tag})",
                       f"backbone {tag}", cfg, force,
                       lambda c: models.build_backbone(
                           c.extra["image_side"], c.extra["embedding_dim"], c.extra["model_seed"]))


def stage_probe(run_dir: Path, cfg: ExperimentConfig, task: str, tag: str, force: bool):
    backbone = _load_backbone(run_dir, cfg, tag, force)
    train = _load_dataset(run_dir, "labeled_train")
    multihot = train.multihot()
    if task == "multilabel":
        y = multihot
        out_dim = synthdata.N_BIOMARKERS
    else:
        y = multihot[:, synthdata.BIOMARKER_NAMES.index(task)]
        out_dim = 1
    embedding_dim = backbone.layers[-1].n_out
    head = models.build_classifier_head(embedding_dim, out_dim,
                                        cfg.derive_seed(f"probe-head-{task}"))
    seed = cfg.derive_seed(f"probe-train-{task}")
    norm = (cfg.contrastive.normalize_mean, cfg.contrastive.normalize_std)
    evalprobe.train_probe(backbone, head, train.images, y, cfg.probe, seed, normalize=norm)
    save_checkpoint(run_dir / "probe" / f"head_{tag}_{task}.npz", Checkpoint(
        "classifier-head", head.param_dict(), epoch=cfg.probe.epochs,
        config_hash=cfg.config_hash(), seed=seed,
        extra={"tag": tag, "task": task, "output_dim": out_dim,
               "embedding_dim": embedding_dim}))
    print(f"probe[{tag}/{task}]: trained linear head")


def _load_head(run_dir: Path, cfg: ExperimentConfig, tag: str, task: str, force: bool):
    path = run_dir / "probe" / f"head_{tag}_{task}.npz"
    if not path.exists():
        return None
    return _load_model(path, f"probe --task {task} --tag {tag}",
                       f"probe head {tag}/{task}", cfg, force,
                       lambda c: models.build_classifier_head(
                           c.extra["embedding_dim"], c.extra["output_dim"], 0))


def _multilabel_test(run_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """The multi-label test split's images and multi-hot labels. A label
    column of one class has no AUC, so it is a config error."""
    ds = _load_dataset(run_dir, "test_multilabel")
    multihot = ds.multihot()
    for name, column in zip(synthdata.BIOMARKER_NAMES, multihot.T):
        if column.min() == column.max():
            raise ConfigError(
                f"the multi-label test set holds one class of {name} only; "
                f"raise [data] n_multilabel_test and rerun `sevcon gen-data`")
    return ds.images, multihot


def stage_evaluate(run_dir: Path, cfg: ExperimentConfig, tag: str, force: bool):
    backbone = _load_backbone(run_dir, cfg, tag, force)
    binary_heads, binary_tests = {}, {}
    for name in synthdata.BIOMARKER_NAMES:
        head = _load_head(run_dir, cfg, tag, name, force)
        if head is not None:
            ds = _load_dataset(run_dir, f"test_{name}")
            binary_heads[name] = head
            binary_tests[name] = (ds.images,
                                  ds.multihot()[:, synthdata.BIOMARKER_NAMES.index(name)])
    ml_head = _load_head(run_dir, cfg, tag, "multilabel", force)
    ml_test = _multilabel_test(run_dir) if ml_head is not None else None
    if not binary_heads and ml_head is None:
        raise MissingArtifactError(
            f"no trained probe heads for tag {tag}; run `sevcon probe` first")
    norm = (cfg.contrastive.normalize_mean, cfg.contrastive.normalize_std)
    result = evalprobe.evaluate(backbone, binary_heads, binary_tests, ml_head, ml_test,
                                provenance={"config_hash": cfg.config_hash(),
                                            "seed": cfg.seed, "tag": tag},
                                normalize=norm)
    with atomic_open(run_dir / "probe" / f"result_{tag}.json") as f:
        f.write(json.dumps(asdict(result), indent=2, sort_keys=True))
    ml = f", mean AUC {result.mean_auc:.4f}" if result.per_label_auc else ""
    print(f"evaluate[{tag}]: {len(binary_heads)} binary tasks{ml}")


def stage_ablate(run_dir: Path, cfg: ExperimentConfig, n_bins: int, force: bool):
    unlabeled = _load_dataset(run_dir, "unlabeled").training_view()
    scores_by_scorer = {s: _load_scores(run_dir, s, unlabeled.sample_ids) for s in SCORERS}
    for scores in scores_by_scorer.values():
        _severity_labels(scores, n_bins)  # a bad bin count fails before any training
    train = _load_dataset(run_dir, "labeled_train")
    rows = baselines.ablation_run(
        scores_by_scorer, unlabeled.images,
        (train.images, train.multihot()), _multilabel_test(run_dir),
        n_bins, cfg.contrastive, cfg.probe, cfg.derive_seed("ablate"))
    _write_csv(run_dir / "report" / "ablation.csv", ["scorer", "n_bins", "mean_auc"],
               [[r["scorer"], r["n_bins"], r["mean_auc"]] for r in rows], cfg)
    print(f"ablate: {len(rows)} scorers at N={n_bins}")


def stage_report(run_dir: Path, cfg: ExperimentConfig, force: bool):
    out = run_dir / "report"
    tags = [f"severity_b{n}" for n in cfg.labeling.report_bin_list()]
    tags += ["simclr", "random"]

    def table_cells(path: Path) -> list:
        # every field is read here, so a result that lacks one is unreadable
        result = json.loads(path.read_text())
        cells = []
        for name in synthdata.BIOMARKER_NAMES:
            if name in result["per_biomarker"]:
                m = result["per_biomarker"][name]
                cells.append(f"{m['accuracy']:.4f}/{m['f1']:.4f}")
            else:
                cells.append("")
        return cells + [result["mean_auc"]]

    rows = []
    included = []
    for tag in tags:
        path = run_dir / "probe" / f"result_{tag}.json"
        if not path.exists():
            continue
        rows.append([tag, *_read_artifact(path, f"evaluate --tag {tag}", table_cells)])
        included.append(tag)
    if not rows:
        raise MissingArtifactError(
            "no probe results found; run `sevcon evaluate` for at least one tag")
    # Fig. 5 analog: contact sheet of extreme severity bins with ground truth.
    # Built before any file is written, so a label file that fails its check
    # leaves the previous report as it was.
    extremes = sheet = None
    n_bins = cfg.labeling.n_bins
    if (run_dir / "labels" / f"severity_bins{n_bins}.csv").exists():
        unlabeled = _load_dataset(run_dir, "unlabeled")
        lab = _load_labels(run_dir, n_bins, unlabeled.sample_ids)
        k = min(cfg.labeling.extreme_report_k, int(lab.bin_sizes.min()))
        extremes = labeling.extreme_bin_report(lab, unlabeled.images, k,
                                               seed=cfg.derive_seed("report"))
        sheet = extremes.pop("contact_sheet")
        gt = unlabeled.severities()
        extremes["low_bin_mean_gt_severity"] = float(np.mean(gt[extremes["low_bin_ids"]]))
        extremes["high_bin_mean_gt_severity"] = float(np.mean(gt[extremes["high_bin_ids"]]))

    _write_csv(out / "table1.csv",
               ["method", *synthdata.BIOMARKER_NAMES, "multi_label"], rows, cfg)
    if extremes is not None:
        labeling.write_pgm(out / "extreme_bins.pgm", sheet)
        with atomic_open(out / "extremes.json") as f:
            f.write(json.dumps(extremes, indent=2, sort_keys=True))
    with atomic_open(out / "report.json") as f:
        f.write(json.dumps({
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "methods": included,
            "has_ablation": (out / "ablation.csv").exists(),
            "has_extremes": extremes is not None,
        }, indent=2, sort_keys=True))
    print(f"report: table1.csv with {len(rows)} methods"
          + (", extreme-bin sheet" if extremes else ""))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand sets `stage`, called with the run directory, the config,
    and the remaining parsed options as keyword arguments."""
    parser = argparse.ArgumentParser(
        prog="sevcon",
        description="Severity pseudo-labeling + supervised contrastive pipeline")
    parser.add_argument("--run-dir", required=True, help="run directory for artifacts")
    parser.add_argument("--config", help="INI config file (stored into the run dir)")
    parser.add_argument("--force", action="store_true",
                        help="proceed despite config-hash mismatches")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, stage):
        p = sub.add_parser(command)
        p.set_defaults(stage=stage)
        return p

    add("gen-data", stage_gen_data)
    add("train-gradcon", stage_train_gradcon)
    p = add("score", stage_score)
    p.add_argument("--scorer", choices=SCORERS, default="severity")
    p = add("make-labels", stage_make_labels)
    p.add_argument("--bins", dest="n_bins", type=int, required=True)
    p = add("pretrain", stage_pretrain)
    p.add_argument("--mode", choices=("severity", "simclr", "random"),
                   default="severity")
    p.add_argument("--bins", dest="n_bins", type=int, default=None)
    p = add("probe", stage_probe)
    p.add_argument("--task", choices=PROBE_TASKS, required=True)
    p.add_argument("--tag", required=True, help="backbone tag, e.g. severity_b250")
    p = add("evaluate", stage_evaluate)
    p.add_argument("--tag", required=True)
    p = add("ablate", stage_ablate)
    p.add_argument("--bins", dest="n_bins", type=int, required=True)
    add("report", stage_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    opts = vars(build_parser().parse_args(argv))
    run_dir = Path(opts.pop("run_dir"))
    config_path = opts.pop("config")
    stage = opts.pop("stage")
    del opts["command"]
    try:
        stage(run_dir, _run_config(run_dir, config_path, opts["force"]), **opts)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return EXIT_MISSING
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
