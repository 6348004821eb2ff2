"""Self-tests of the benchmark: span arithmetic, wrapper install/removal,
seed plumbing, output checks, and one real traced run.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import metrics
import tracing
import worker
import workloads
from conftest import PERFBENCH, ROOT


def span(sid, name, start, end, parent=None, run="setup", attrs=None):
    return [sid, name, start, end, parent, run, attrs]


def test_self_time_arithmetic():
    spans = [
        span(0, "cli.stage.score", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "a.child", 1.5, 2.5, parent=1),
        span(3, "b", 4.0, 6.0, parent=0),
        span(4, "c", 9.0, 11.0, parent=0),  # only [9, 10] lies inside the parent
    ]
    self_s = tracing.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 2.0 - 2.0 - 1.0)
    assert self_s[1] == pytest.approx(1.0)
    assert self_s[2] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(2.0)
    assert tracing.layer_metrics(spans, 0)["cli.stage.score.self_s"] == pytest.approx(5.0)


def test_gradcon_step_counts_on_handbuilt_spans():
    spans, t = [span(0, "gradcon.train_gradcon", 0.0, 100.0)], 1.0

    def add(name, rows=None, parent=0, dur=0.1):
        nonlocal t
        spans.append(span(len(spans), name, t, t + dur, parent,
                          attrs=None if rows is None else {"rows": rows}))
        t += dur + 0.01
        return spans[-1]

    add("models.autoencoder.backward", 32)  # first step: no reference yet
    add("numerics.sgd_step")
    for _ in range(2):
        add("models.autoencoder.backward", 32)
        for _ in range(8):
            add("models.autoencoder.backward", 1)
        hvp = add("gradcon.constraint_update_term", dur=0.0)
        hvp_start = t
        add("models.autoencoder.backward", 32, parent=hvp[0])
        add("models.autoencoder.backward", 32, parent=hvp[0])
        hvp[2], hvp[3] = hvp_start - 0.005, t
        add("numerics.sgd_step")
    m = tracing.layer_metrics(spans, 0)
    assert m["gradcon.steps"] == 3
    assert m["gradcon.backward_passes_per_step"] == 11
    assert m["gradcon.backward_rows_per_step"] == 104
    assert m["gradcon.update_backward_share"] == pytest.approx(3 / 11)


def test_every_wrapper_is_removed():
    import sevcon.checkpoint
    import sevcon.cli
    import sevcon.numerics

    original = sevcon.checkpoint.save_checkpoint
    conv_forward = sevcon.numerics.Conv2d.forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = set(tracing.remaining_wrappers())
    finally:
        tracer.uninstall()
    # names imported directly into other modules are patched too
    assert {"sevcon.cli.save_checkpoint", "sevcon.cli.load_checkpoint",
            "sevcon.baselines.pretrain", "sevcon.baselines.train_probe",
            "sevcon.gradcon.sgd_step", "sevcon.contrastive.sgd_step",
            "sevcon.evalprobe.sgd_step", "sevcon.baselines.sgd_step",
            "Conv2d.forward", "Autoencoder.backward"} <= patched
    assert tracing.remaining_wrappers() == []
    assert sevcon.cli.save_checkpoint is original
    assert sevcon.numerics.Conv2d.forward is conv_forward


def test_seed_reaches_experiment_seed(tmp_path):
    from sevcon.config import load_config

    for wl in workloads.WORKLOADS.values():
        path = tmp_path / f"{wl.name}.ini"
        path.write_text(workloads.config_ini(wl, 4321))
        cfg = load_config(path)
        assert cfg.seed == 4321
        assert cfg.data.image_side == 32 and cfg.gradcon.batch_size == 32
        assert cfg.gradcon.epochs == workloads.gradcon_epochs(wl)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(0)
    scores = np.round(rng.normal(size=60), 1)  # ties on purpose
    labels = rng.integers(0, 4, size=60)
    scipy_stats = pytest.importorskip("scipy.stats")
    assert worker.spearman(scores, labels) == pytest.approx(
        scipy_stats.spearmanr(scores, labels).statistic)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ablation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_score_pipeline_run():
    """A real traced run: outputs byte-identical to the untraced iteration,
    11 backward passes per gradcon step, wrappers gone, seed in the INI."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload",
                           "score-pipeline", "--seed", "7", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(m) == {d["name"] for d in metrics.PER_LAYER}
    assert m["gradcon.backward_passes_per_step"] == 11
    assert m["gradcon.backward_rows_per_step"] == 104
    assert m["gradcon.update_backward_share"] == pytest.approx(3 / 11)
    work = ROOT / ".perfbench_runs" / "score-pipeline-seed7-trace1"
    record = json.loads((work / "record.json").read_text())
    assert record["identical"] is True
    assert record["wrappers_left"] == []
    assert "seed = 7" in (work / "bench.ini").read_text().split("[data]")[0]
    assert (work / "spans.jsonl").stat().st_size > 0
