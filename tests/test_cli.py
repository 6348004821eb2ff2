"""End-to-end CLI pipeline on a miniature configuration, plus exit codes."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from sevcon import baselines, checkpoint
from sevcon.checkpoint import load_checkpoint, save_checkpoint
from sevcon.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_NUMERIC, EXIT_OK, main

SMALL_INI = """\
[experiment]
seed = 5

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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "small.ini"
    cfg_path.write_text(SMALL_INI)
    run = root / "run"

    def cli(*args):
        return main(["--run-dir", str(run), *args])

    assert cli("--config", str(cfg_path), "gen-data") == EXIT_OK
    assert cli("train-gradcon") == EXIT_OK
    for scorer in ("severity", "msp", "odin", "mahalanobis"):
        assert cli("score", "--scorer", scorer) == EXIT_OK
    for bins in (4, 8, 10):
        assert cli("make-labels", "--bins", str(bins)) == EXIT_OK
        assert cli("pretrain", "--mode", "severity", "--bins", str(bins)) == EXIT_OK
    assert cli("pretrain", "--mode", "simclr") == EXIT_OK
    assert cli("pretrain", "--mode", "random") == EXIT_OK
    for tag in ("severity_b8", "simclr", "random"):
        assert cli("probe", "--task", "bio_a", "--tag", tag) == EXIT_OK
        assert cli("probe", "--task", "multilabel", "--tag", tag) == EXIT_OK
        assert cli("evaluate", "--tag", tag) == EXIT_OK
    for tag in ("severity_b4", "severity_b10"):
        assert cli("probe", "--task", "multilabel", "--tag", tag) == EXIT_OK
        assert cli("evaluate", "--tag", tag) == EXIT_OK
    assert cli("ablate", "--bins", "8") == EXIT_OK
    assert cli("report") == EXIT_OK
    return run, cli


def test_artifacts_exist(small_run):
    run, _ = small_run
    for rel in ["config.ini", "data/healthy/manifest.json",
                "gradcon/autoencoder.npz", "gradcon/reference.npz",
                "gradcon/training_log.csv", "scores/severity.csv",
                "labels/severity_bins8.csv", "pretrain/backbone_severity_b8.npz",
                "pretrain/backbone_simclr.npz", "pretrain/backbone_random.npz",
                "probe/head_severity_b8_multilabel.npz",
                "probe/result_severity_b8.json", "report/ablation.csv",
                "report/table1.csv", "report/report.json",
                "report/extreme_bins.pgm", "report/extremes.json"]:
        assert (run / rel).exists(), rel


def test_result_json_structure(small_run):
    run, _ = small_run
    result = json.loads((run / "probe" / "result_severity_b8.json").read_text())
    assert "bio_a" in result["per_biomarker"]
    assert set(result["per_biomarker"]["bio_a"]) == {"accuracy", "f1"}
    assert len(result["per_label_auc"]) == 5
    assert np.isfinite(result["mean_auc"])


def test_score_csvs_have_provenance_and_odin_matches_msp(small_run):
    run, _ = small_run
    msp = (run / "scores" / "msp.csv").read_text().splitlines()
    odin = (run / "scores" / "odin.csv").read_text().splitlines()
    assert msp[0].startswith("# config_hash=")
    # at T=1, eps=0 the two scorers are the same function
    assert [l.split(",")[-1] for l in msp[2:]] == [l.split(",")[-1] for l in odin[2:]]


def test_ablation_has_one_row_per_scorer(small_run):
    run, _ = small_run
    lines = [l for l in (run / "report" / "ablation.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["severity", "msp", "odin", "mahalanobis"]
    by_scorer = {r[0]: r[2] for r in rows}
    assert by_scorer["odin"] == by_scorer["msp"]  # identical scores -> identical row


def test_report_covers_three_bin_counts(small_run):
    run, _ = small_run
    table = (run / "report" / "table1.csv").read_text()
    methods = [l.split(",")[0] for l in table.splitlines()
               if l and not l.startswith(("#", "method"))]
    assert {"severity_b4", "severity_b8", "severity_b10"} <= set(methods)
    assert {"simclr", "random"} <= set(methods)


def test_rerun_stage_is_deterministic(small_run):
    run, cli = small_run
    before = (run / "scores" / "severity.csv").read_bytes()
    assert cli("score", "--scorer", "severity") == EXIT_OK
    assert (run / "scores" / "severity.csv").read_bytes() == before


def pre_fusion_key(key):
    """An autoencoder parameter key as it was when each decoder stage was an
    upsample layer and a conv layer: decoder layers 3, 5, 7 were 4, 7, 9."""
    net, idx, name = key.split(".")
    if net == "decoder":
        idx = {"3": "4", "5": "7", "7": "9"}.get(idx, idx)
    return f"{net}.{idx}.{name}"


def test_exit_codes(small_run, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[gradcon]\nepochs = many\n")
    fresh = tmp_path / "fresh"
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    bad.write_text("[data]\nimage_side = 48\n")  # no architecture for this size
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    bad.write_text("[labeling]\nreport_bins = 4,x\n")
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    assert main(["--run-dir", str(fresh), "--config", str(tmp_path / "missing.ini"),
                 "gen-data"]) == EXIT_CONFIG
    bad.write_text("[data]\nn_test_per_biomarker = 5\n")  # binary test sets are half positive
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    bad.write_text("[contrastive]\nbatch_size = 1\n")  # a SupCon step pairs two sources
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    bad.write_text("[data]\nn_unlabeled = 1\n")  # nothing to pair for pretraining
    assert main(["--run-dir", str(fresh), "--config", str(bad), "gen-data"]) == EXIT_CONFIG
    # training settings no loop can run with
    for section, key, value in [("gradcon", "epochs", "0"), ("gradcon", "batch_size", "0"),
                                ("probe", "batch_size", "0"),
                                ("baselines", "classifier_batch_size", "0"),
                                ("gradcon", "learning_rate", "-1"),
                                ("contrastive", "learning_rate", "nan"),
                                ("gradcon", "momentum", "1.0"),
                                ("probe", "momentum", "-0.5"),
                                # values a stage would crash on or misuse
                                ("contrastive", "tau", "0"),
                                ("data", "n_healthy", "0"),
                                ("data", "n_labeled_train", "0"),
                                ("data", "n_multilabel_test", "0"),
                                ("data", "n_test_per_biomarker", "0"),
                                ("data", "severity_max", "-1"),
                                ("gradcon", "latent_dim", "2"),
                                ("gradcon", "heldout_count", "-1"),
                                ("contrastive", "embedding_dim", "0"),
                                ("contrastive", "crop_scale_min", "2"),
                                ("baselines", "odin_temperature", "0"),
                                ("baselines", "odin_epsilon", "-1"),
                                ("labeling", "extreme_report_k", "-1"),
                                ("labeling", "extreme_report_k", "0"),
                                ("data", "n_stripes", "-1"),
                                ("data", "noise_std", "-0.1"),
                                ("data", "noise_std", "nan"),
                                ("data", "stripe_contrast", "inf"),
                                ("contrastive", "brightness_jitter", "inf"),
                                ("contrastive", "brightness_jitter", "nan"),
                                ("contrastive", "brightness_jitter", "-0.1"),
                                ("contrastive", "contrast_jitter", "inf"),
                                ("contrastive", "contrast_jitter", "nan"),
                                ("contrastive", "flip_prob", "nan"),
                                ("contrastive", "flip_prob", "1.5"),
                                ("contrastive", "normalize_std", "0"),
                                ("contrastive", "normalize_std", "nan"),
                                ("contrastive", "normalize_std", "inf"),
                                ("contrastive", "normalize_mean", "inf"),
                                ("contrastive", "normalize_mean", "nan"),
                                ("gradcon", "alpha", "nan"),
                                ("gradcon", "alpha", "-0.1"),
                                ("gradcon", "alpha", "inf"),
                                # an infinite rate trains a non-finite model
                                ("gradcon", "learning_rate", "inf"),
                                ("gradcon", "warmup_learning_rate", "inf"),
                                ("contrastive", "learning_rate", "inf"),
                                ("probe", "learning_rate", "inf"),
                                ("baselines", "classifier_learning_rate", "inf"),
                                # an infinite temperature makes every logit 0:
                                # SupCon trains nothing, ODIN scores every image alike
                                ("contrastive", "tau", "inf"),
                                ("baselines", "odin_temperature", "inf"),
                                # a negative epoch count trains nothing
                                ("contrastive", "epochs", "-3"),
                                ("probe", "epochs", "-1"),
                                ("baselines", "classifier_epochs", "-1"),
                                # values that failed only after the classifier was written
                                ("baselines", "odin_epsilon", "inf"),
                                ("baselines", "mahalanobis_epsilon", "nan"),
                                ("baselines", "mahalanobis_epsilon", "-1"),
                                # no bins to label: only pretrain refused it
                                ("labeling", "n_bins", "0")]:
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["--run-dir", str(fresh), "--config", str(bad),
                     "gen-data"]) == EXIT_CONFIG, (section, key)
        assert f"{section}.{key}" in capsys.readouterr().err
    assert not (fresh / "data").exists()  # rejected before any split is written

    empty = tmp_path / "empty"
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL_INI)
    # upstream artifacts missing
    assert main(["--run-dir", str(empty), "--config", str(cfg),
                 "train-gradcon"]) == EXIT_MISSING
    assert main(["--run-dir", str(empty), "score"]) == EXIT_MISSING
    assert main(["--run-dir", str(empty), "probe", "--task", "bio_a",
                 "--tag", "simclr"]) == EXIT_MISSING
    assert main(["--run-dir", str(empty), "report"]) == EXIT_MISSING

    # upstream artifacts present but unusable
    run = tmp_path / "damaged"
    shutil.copytree(small_run[0], run)
    assert main(["--run-dir", str(run), "ablate", "--bins", "100000"]) == EXIT_CONFIG
    result = run / "probe" / "result_simclr.json"
    intact = result.read_bytes()
    result.write_bytes(intact[:50])
    assert main(["--run-dir", str(run), "report"]) == EXIT_MISSING
    fields = json.loads(intact)
    del fields["mean_auc"]  # parses, but lacks a field the table needs
    for text in (json.dumps(fields), "[]"):  # or is not a record at all
        result.write_text(text)
        capsys.readouterr()
        assert main(["--run-dir", str(run), "report"]) == EXIT_MISSING, text
        assert "rerun `sevcon evaluate --tag simclr`" in capsys.readouterr().err
    result.write_bytes(intact)
    # a multi-label test column of one class has no AUC: exit 2 before writing
    labels = run / "data" / "test_multilabel" / "labels.csv"
    kept = labels.read_text()
    header, *rows = kept.splitlines()
    fields = [row.split(",") for row in rows]  # sample_id, bio_a, ..., bio_e, severity
    labels.write_text("\n".join([header] + [",".join(f[:3] + ["0"] + f[4:]) for f in fields])
                      + "\n")  # no bio_c positives
    capsys.readouterr()
    assert main(["--run-dir", str(run), "evaluate", "--tag", "simclr"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bio_c" in err and "[data] n_multilabel_test" in err
    assert result.read_bytes() == intact
    labels.write_text(kept)
    # a rejected value exits 2 before the stage writes, also with --force
    odin = tmp_path / "odin.ini"
    odin.write_text(SMALL_INI.replace("odin_temperature = 1.0", "odin_temperature = 0"))
    stored = (run / "config.ini").read_bytes()
    assert main(["--run-dir", str(run), "--config", str(odin), "--force",
                 "score", "--scorer", "odin"]) == EXIT_CONFIG
    assert (run / "config.ini").read_bytes() == stored
    labels = run / "labels" / "severity_bins8.csv"
    labels.write_text("".join(labels.read_text().splitlines(keepends=True)[:-1]))
    assert main(["--run-dir", str(run), "pretrain", "--bins", "8"]) == EXIT_MISSING
    # a bin count make-labels refuses is a config error, not a missing label file
    for bins in ("0", "41"):
        capsys.readouterr()
        assert main(["--run-dir", str(run), "pretrain", "--mode", "severity",
                     "--bins", bins]) == EXIT_CONFIG, bins
        assert f"n_bins must be in [1, 40], got {bins}" in capsys.readouterr().err
    table = run / "report" / "table1.csv"
    earlier = table.read_bytes() + b"# from an earlier report\n"
    table.write_bytes(earlier)
    assert main(["--run-dir", str(run), "report"]) == EXIT_MISSING
    assert table.read_bytes() == earlier  # the label check comes before any write
    # checkpoints whose parameters do not fit the model: the whole key set and
    # every shape must match, and the damaged file names the stage to rerun
    ae = load_checkpoint(run / "gradcon" / "autoencoder.npz").params
    ref = load_checkpoint(run / "gradcon" / "reference.npz").params
    clf = load_checkpoint(run / "baselines" / "classifier.npz").params
    damaged = [
        # a NaN in a parameter or a reference mean
        ("gradcon/autoencoder.npz", "train-gradcon", ["score"],
         dict(ae, **{"decoder.7.b": np.full_like(ae["decoder.7.b"], np.nan)})),
        ("gradcon/reference.npz", "train-gradcon", ["score"],
         dict(ref, layer1=np.where(np.arange(ref["layer1"].size) == 3, np.inf,
                                   ref["layer1"]))),
        ("gradcon/autoencoder.npz", "train-gradcon", ["score"],
         {k: v for k, v in ae.items() if k != "decoder.7.w"}),
        ("gradcon/autoencoder.npz", "train-gradcon", ["score"],
         dict(ae, **{"decoder.3.w": ae["decoder.3.w"][:, :8]})),
        # the layout before each decoder upsample + conv pair was fused
        ("gradcon/autoencoder.npz", "train-gradcon", ["score"],
         {pre_fusion_key(k): v for k, v in ae.items()}),
        ("gradcon/reference.npz", "train-gradcon", ["score"], {"layer0": np.zeros(3)}),
        ("baselines/classifier.npz", "score --scorer msp", ["score", "--scorer", "msp"], None),
        # an older classifier, which also stored its multi-label head
        ("baselines/classifier.npz", "score --scorer msp", ["score", "--scorer", "msp"],
         dict(clf, **{"h.0.w": np.zeros((64, 5)), "h.0.b": np.zeros(5)})),
        ("pretrain/backbone_simclr.npz", "pretrain (tag simclr)",
         ["probe", "--task", "bio_a", "--tag", "simclr"], None),
        ("probe/head_simclr_bio_a.npz", "probe --task bio_a --tag simclr",
         ["evaluate", "--tag", "simclr"], None),
    ]
    for rel, produced_by, args, params in damaged:
        path = run / rel
        intact = path.read_bytes()
        ckpt = load_checkpoint(path)
        if params is None:  # drop the last parameter
            params = dict(list(ckpt.params.items())[:-1])
        save_checkpoint(path, replace(ckpt, params=params))
        capsys.readouterr()
        assert main(["--run-dir", str(run), *args]) == EXIT_MISSING, rel
        assert f"rerun `sevcon {produced_by}`" in capsys.readouterr().err, rel
        path.write_bytes(intact)
    # a non-finite pixel is a damaged split: every scorer exits 3, names
    # gen-data, and keeps its earlier scores
    images = run / "data" / "unlabeled" / "images.npy"
    intact = images.read_bytes()
    pixels = np.load(images)
    pixels[3, 0, 10, 10] = np.nan
    np.save(images, pixels)
    for scorer in ("severity", "msp", "odin", "mahalanobis"):
        scores = run / "scores" / f"{scorer}.csv"
        earlier = scores.read_bytes()
        capsys.readouterr()
        assert main(["--run-dir", str(run), "score", "--scorer", scorer]) == EXIT_MISSING
        assert "rerun `sevcon gen-data`" in capsys.readouterr().err, scorer
        assert scores.read_bytes() == earlier, scorer
    # a finite pixel too large for the autoencoder gives non-finite scores:
    # exit 4, earlier scores kept
    pixels[3, 0, 10, 10] = 1e300
    np.save(images, pixels)
    scores = run / "scores" / "severity.csv"
    earlier = scores.read_bytes()
    capsys.readouterr()
    assert main(["--run-dir", str(run), "score"]) == EXIT_NUMERIC
    assert "non-finite values in severity scores" in capsys.readouterr().err
    assert scores.read_bytes() == earlier
    images.write_bytes(intact)
    ckpt = run / "gradcon" / "autoencoder.npz"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    assert main(["--run-dir", str(run), "score"]) == EXIT_MISSING
    scores = run / "scores" / "severity.csv"
    text = scores.read_text()
    scores.write_text(text[:text.rindex(",")])  # the last row cut mid-row
    capsys.readouterr()
    assert main(["--run-dir", str(run), "make-labels", "--bins", "8"]) == EXIT_MISSING
    assert "rerun `sevcon score --scorer severity`" in capsys.readouterr().err
    labels = run / "labels" / "severity_bins4.csv"
    labels.write_text(labels.read_text().replace(",0\n", ",x\n", 1))  # a bin label
    assert main(["--run-dir", str(run), "pretrain", "--bins", "4"]) == EXIT_MISSING
    (run / "data" / "healthy" / "images.npy").unlink()
    assert main(["--run-dir", str(run), "train-gradcon"]) == EXIT_MISSING
    images = run / "data" / "labeled_train" / "images.npy"
    images.write_bytes(images.read_bytes()[:100])
    assert main(["--run-dir", str(run), "probe", "--task", "bio_a",
                 "--tag", "simclr"]) == EXIT_MISSING
    manifest = run / "data" / "unlabeled" / "manifest.json"
    listing = json.loads(manifest.read_text())
    listing["sample_ids"].append("unlabeled_99999")
    manifest.write_text(json.dumps(listing))
    assert main(["--run-dir", str(run), "pretrain", "--mode", "simclr"]) == EXIT_MISSING

    # settings the loader accepts but a stage cannot use soundly: the stage
    # exits before it writes anything, the classifier included
    def files(run):
        return {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}

    for old, new, stages, code, said in [
        ("n_multilabel_test = 16", "n_multilabel_test = 1", [["ablate", "--bins", "8"]],
         EXIT_CONFIG, "[data] n_multilabel_test"),
        # one label combination gives the classifier one class
        ("n_labeled_train = 20", "n_labeled_train = 1",
         [["score", "--scorer", s] for s in ("msp", "odin", "mahalanobis")],
         EXIT_CONFIG, "[data] n_labeled_train"),
        # the views overflow, so the projections are not finite
        ("[contrastive]\n", "[contrastive]\nbrightness_jitter = 1e300\n",
         [["pretrain", "--mode", "severity", "--bins", "8"], ["pretrain", "--mode", "simclr"]],
         EXIT_NUMERIC, "non-finite projection"),
        # every image gets the same ODIN score, which ranks nothing
        ("odin_epsilon = 0.0", "odin_epsilon = 1e300", [["score", "--scorer", "odin"]],
         EXIT_NUMERIC, "every odin score is"),
        ("odin_temperature = 1.0", "odin_temperature = 1e300", [["score", "--scorer", "odin"]],
         EXIT_NUMERIC, "every odin score is"),
    ]:
        refused = tmp_path / "refused"
        shutil.rmtree(refused, ignore_errors=True)
        shutil.copytree(small_run[0], refused)
        (refused / "baselines" / "classifier.npz").unlink()
        ini = tmp_path / "refused.ini"
        ini.write_text(SMALL_INI.replace(old, new))
        assert main(["--run-dir", str(refused), "--config", str(ini), "--force",
                     "gen-data"]) == EXIT_OK, new
        before = files(refused)
        for args in stages:
            capsys.readouterr()
            assert main(["--run-dir", str(refused), *args]) == code, (new, args)
            assert said in capsys.readouterr().err, (new, args)
            assert files(refused) == before, (new, args)

    # the balanced sampler: simclr's instance labels have no bins to balance,
    # so it trains on the epoch batches; a binning with one member per bin is
    # a config error, before any write
    sampled = tmp_path / "sampled"
    shutil.copytree(small_run[0], sampled)
    balanced = tmp_path / "balanced.ini"
    balanced.write_text(SMALL_INI.replace("[contrastive]\n",
                                          "[contrastive]\nbalanced_sampler = on\n"))
    assert main(["--run-dir", str(sampled), "--config", str(balanced), "--force",
                 "pretrain", "--mode", "simclr"]) == EXIT_OK
    assert main(["--run-dir", str(sampled), "make-labels", "--bins", "40"]) == EXIT_OK
    assert main(["--run-dir", str(sampled), "pretrain", "--bins", "40"]) == EXIT_CONFIG
    assert not (sampled / "pretrain" / "backbone_severity_b40.npz").exists()
    ablation = (sampled / "report" / "ablation.csv").read_bytes()
    assert main(["--run-dir", str(sampled), "ablate", "--bins", "40"]) == EXIT_CONFIG
    assert (sampled / "report" / "ablation.csv").read_bytes() == ablation


def test_interrupted_write_keeps_the_earlier_result(small_run, tmp_path, monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(small_run[0], run)
    result = run / "probe" / "result_simclr.json"
    earlier = result.read_bytes() + b"\n# from an earlier evaluate\n"
    result.write_bytes(earlier)

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(checkpoint.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        main(["--run-dir", str(run), "evaluate", "--tag", "simclr"])
    monkeypatch.undo()
    assert result.read_bytes() == earlier
    assert not result.with_name(result.name + ".tmp").exists()


def test_config_hash_mismatch_is_config_error(small_run, tmp_path):
    run, _ = small_run
    changed = tmp_path / "changed.ini"
    changed.write_text(SMALL_INI.replace("seed = 5", "seed = 6"))
    assert main(["--run-dir", str(run), "--config", str(changed),
                 "score"]) == EXIT_CONFIG


def test_make_labels_bad_bins_is_config_error(small_run):
    _, cli = small_run
    assert cli("make-labels", "--bins", "0") == EXIT_CONFIG
    assert cli("make-labels", "--bins", "100000") == EXIT_CONFIG


def test_bootstraps_default_config(tmp_path, capsys):
    run = tmp_path / "boot"
    # a fresh run dir with no --config gets the default config written
    rc = main(["--run-dir", str(run), "probe", "--task", "bio_a", "--tag", "x"])
    assert rc == EXIT_MISSING
    assert (run / "config.ini").exists()


def test_contrastive_dims_reach_classifier_and_ablation(tmp_path, monkeypatch):
    cfg = tmp_path / "dims.ini"
    cfg.write_text(SMALL_INI.replace(
        "[contrastive]\n", "[contrastive]\nembedding_dim = 16\nprojection_dim = 8\n"))
    run = tmp_path / "run"

    def cli(*args):
        return main(["--run-dir", str(run), *args])

    widths = []
    real_pretrain = baselines.pretrain

    def spy(backbone, head, *args):
        widths.append((backbone.layers[-1].n_out, head.layers[-1].n_out))
        return real_pretrain(backbone, head, *args)

    monkeypatch.setattr(baselines, "pretrain", spy)
    assert cli("--config", str(cfg), "gen-data") == EXIT_OK
    assert cli("train-gradcon") == EXIT_OK
    for scorer in ("severity", "msp", "odin", "mahalanobis"):
        assert cli("score", "--scorer", scorer) == EXIT_OK
    params = load_checkpoint(run / "baselines" / "classifier.npz").params
    assert params["c.0.w"].shape[0] == 16
    # the second msp run reloads the stored classifier at its stored widths
    trained = (run / "scores" / "msp.csv").read_bytes()
    assert cli("score", "--scorer", "msp") == EXIT_OK
    assert (run / "scores" / "msp.csv").read_bytes() == trained
    assert cli("ablate", "--bins", "8") == EXIT_OK
    assert widths == [(16, 8)] * 4
