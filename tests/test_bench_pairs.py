"""scripts/bench_pairs.py with perfbench runs stubbed out: a run whose set-up
failed reports no metrics, and the script must still write its file."""

import importlib.util
import json
from pathlib import Path

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
            "env": env, "quality": {}}


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
