"""scripts/bench_pairs.py with perfbench runs stubbed out: a run whose set-up
failed reports no metrics, and the script must still write its file; every
metric but the claim gets a no-regression verdict."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_result(wall_s, metrics=True):
    env = {k: "x" for k in ("nproc", "cpus_usable", "python", "numpy", "blas",
                            "blas_version", "blas_threads")}
    env["loadavg_start"] = 0.5
    names = ("setup_s", "wall_s", "gradcon_images_per_s", "peak_rss_mb", "severity_auroc")
    return {"correct": metrics, "attempted": 3, "failed": 0 if metrics else 1,
            "metrics": {n: {"value": wall_s} for n in names} if metrics else {},
            "env": env, "quality": {}, "failed_stages": []}


def test_run_without_metrics_is_named_and_file_written(tmp_path, monkeypatch, capsys):
    bench = load_script()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())

    def run_one(checkout, workload, seed, seconds):
        side_is_change = checkout == change.resolve()
        if seed == 12 and side_is_change:
            return fake_result(0.0, metrics=False)
        return fake_result(1.0 if side_is_change else 2.0)

    monkeypatch.setattr(bench, "run_one", run_one)
    code = bench.main(["--parent", str(tmp_path), "--change", str(change), "--seeds", "11-14",
                       "--workloads", "score-pipeline", "--pr", "99",
                       "--claim", "score-pipeline:wall_s"])
    assert code == 1
    assert "score-pipeline seed 12 change: no metrics" in capsys.readouterr().err
    out = json.loads((change / "BENCH_pr99.json").read_text())
    block = out["workloads"]["score-pipeline"]
    assert block["seeds_without_metrics"] == [12]
    assert block["metrics"]["wall_s"]["pairs"] == 3
    assert block["stage_calls"]["change"]["failed"] == 1
    assert out["claim"]["result"]["wins"] == 3


def test_every_unclaimed_metric_gets_a_verdict(tmp_path, monkeypatch, capsys):
    bench = load_script()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # per metric, the parent's and the change's value at seeds 11-14
    values = {
        # 10% slower, within the 25% bound: no worse
        "setup_s": ([1.0, 1.0, 1.0, 1.0], [1.1, 1.1, 1.1, 1.1]),
        # 40% slower: worse
        "wall_s": ([2.0, 2.0, 2.1, 2.0], [2.8, 2.8, 2.9, 2.8]),
        # the parent's quartiles span more than the bound: unresolved
        "peak_rss_mb": ([100.0, 160.0, 100.0, 160.0], [110.0, 150.0, 110.0, 150.0]),
        # just as wide, but every change run beats every parent run: no worse
        "gradcon_images_per_s": ([100.0, 160.0, 100.0, 160.0], [170.0, 200.0, 170.0, 200.0]),
        # the claim: no verdict
        "severity_auroc": ([0.8, 0.8, 0.8, 0.8], [0.9, 0.9, 0.9, 0.9]),
    }

    def run_one(checkout, workload, seed, seconds):
        side = 1 if checkout == change.resolve() else 0
        result = fake_result(0.0)
        result["metrics"] = {n: {"value": v[side][seed - 11]} for n, v in values.items()}
        return result

    monkeypatch.setattr(bench, "run_one", run_one)
    assert bench.main(["--parent", str(tmp_path), "--change", str(change), "--seeds", "11-14",
                       "--workloads", "ablation", "--pr", "99",
                       "--claim", "ablation:severity_auroc"]) == 0
    metrics = json.loads((change / "BENCH_pr99.json").read_text())["workloads"]["ablation"]["metrics"]
    assert {n: m.get("verdict") for n, m in metrics.items()} == {
        "setup_s": "no worse", "wall_s": "worse", "peak_rss_mb": "unresolved",
        "gradcon_images_per_s": "no worse", "severity_auroc": None}
    printed = capsys.readouterr().out
    assert "wins 0/4, ties 0, worse" in printed and "claimed" in printed


@pytest.mark.parametrize("claim", ["ablation:wall_s", "score-pipeline", "score-pipeline:wall",
                                   "score-pipeline:wall_s:x"])
def test_bad_claim_exits_2_before_any_run(tmp_path, monkeypatch, capsys, claim):
    """A claim on a workload not selected, without a metric, or on a metric
    BENCHMARK.json does not define stops the script before the first run."""
    bench = load_script()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    runs = []
    monkeypatch.setattr(bench, "run_one", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--parent", str(tmp_path), "--change", str(change), "--seeds", "11-14",
                    "--workloads", "score-pipeline", "--pr", "99", "--claim", claim])
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert runs == [] and not (change / "BENCH_pr99.json").exists()


def test_failed_stages_are_named_with_side_seed_and_error(tmp_path, monkeypatch, capsys):
    """run_one reads the failed stages, set-up and measured, from each run's
    record.json; the workload block lists them with side and seed, and the
    script prints them."""
    bench = load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    floor = "severity_auroc 0.6100 is below the floor 0.65"

    def run(cmd, cwd, capture_output, text):  # perfbench/run.py, stubbed
        seed = int(cmd[cmd.index("--seed") + 1])
        failing = cwd == change.resolve() and seed == 12

        def stage(argv, error=None):
            return {"stage": argv, "command": argv.split()[0], "wall_s": 1.0, "error": error}

        record = {"env": fake_result(1.0)["env"], "summary": {},
                  "setups": [{"stages": [stage("gen-data")]}],
                  "iterations": [{"stages": [stage("train-gradcon"),
                                             stage("score --scorer severity",
                                                   floor if failing else None)]}]}
        rd = cwd / ".perfbench_runs" / f"score-pipeline-seed{seed}-trace0"
        rd.mkdir(parents=True, exist_ok=True)
        (rd / "record.json").write_text(json.dumps(record))
        result = fake_result(1.0)
        result["failed"] = int(failing)
        for key in ("env", "quality", "failed_stages"):
            del result[key]
        return subprocess.CompletedProcess(cmd, int(failing), json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.main(["--parent", str(parent), "--change", str(change), "--seeds", "11-13",
                       "--workloads", "score-pipeline", "--pr", "99"]) == 1
    block = json.loads((change / "BENCH_pr99.json").read_text())["workloads"]["score-pipeline"]
    assert block["failed_stages"] == [{"side": "change", "seed": 12,
                                       "stage": "score --scorer severity", "error": floor}]
    assert block["stage_calls"]["change"]["failed"] == 1
    printed = capsys.readouterr().out
    assert f"FAILED change seed 12: score --scorer severity: {floor}" in printed
