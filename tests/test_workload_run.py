"""scripts/workload_run.py: a perfbench workload's set-up and one measured
iteration, into a run directory that stays."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)  # its dataclasses look their module up


def test_score_pipeline_run_directory_is_kept(tmp_path):
    run_dir = tmp_path / "run"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "workload_run.py"),
                           "score-pipeline", "7", str(run_dir)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    wl = workloads.WORKLOADS["score-pipeline"]
    assert all((run_dir / name).is_file() for name in wl.outputs)
    assert "seed = 7" in (run_dir / "config.ini").read_text().split("[data]")[0]
    rows = [ln for ln in (run_dir / "scores" / "severity.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + workloads.DATA["n_unlabeled"]
    assert (run_dir / "gradcon" / "autoencoder.npz").is_file()
