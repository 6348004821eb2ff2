"""One benchmark run in a fresh process: set up, measure, check, report.

run.py starts this with the BLAS thread count pinned in the environment, so
it is fixed before numpy is imported. Every stage is one call of the public
entry point ``sevcon.cli.main``, timed from outside; the next stage starts
when the previous one returns. The full run record is written as JSON to
``--out``.

Untraced (``--trace 0``): the set-up stages run ``setup_repeats`` times, each
into a fresh run directory, then the measured stage sequence repeats on the
last one until ``--seconds`` are used. Traced (``--trace 1``): the set-up
runs once with tracing on, then the measured sequence runs in pairs, first
untraced, then traced; the pair's outputs must match byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from sevcon.cli import main as sevcon_main
from sevcon.evalprobe import roc_auc

import workloads as W
from metrics import END_TO_END, PER_LAYER, summarize
from tracing import Tracer, layer_metrics, remaining_wrappers

N_UNLABELED = W.DATA["n_unlabeled"]


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_state(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=root, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({e})"
    return sha + (" (dirty)" if dirty.strip() else "")


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git": _git_state(root),
        "loadavg_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Output checks: each returns an error message, or None when the output holds
# ---------------------------------------------------------------------------


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _midranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation, ties given their mean rank."""
    return float(np.corrcoef(_midranks(a), _midranks(b))[0, 1])


def check_score(rd: Path, argv: list[str], wl: W.Workload, quality: dict):
    scorer = argv[argv.index("--scorer") + 1]
    ids = json.loads((rd / "data" / "unlabeled" / "manifest.json").read_text())["sample_ids"]
    rows = _csv_rows(rd / "scores" / f"{scorer}.csv")
    if [r["sample_id"] for r in rows] != ids:
        return f"{scorer} scores do not list each unlabeled image once, in corpus order"
    values = np.array([float(r["severity"]) for r in rows])
    if not np.all(np.isfinite(values)):
        return f"non-finite {scorer} score"
    if scorer != "severity":
        return None
    truth = {r["sample_id"]: int(r["severity"])
             for r in _csv_rows(rd / "data" / "unlabeled" / "labels.csv")}
    lesions = np.array([truth[i] for i in ids])
    quality.setdefault("severity_auroc", []).append(roc_auc(values, (lesions > 0).astype(int)))
    quality.setdefault("severity_spearman", []).append(spearman(values, lesions))
    for name, floor in wl.floors.items():
        if quality[name][-1] < floor:
            return f"{name} {quality[name][-1]:.4f} is below the floor {floor}"
    return None


def check_evaluate(rd: Path, argv: list[str], wl: W.Workload, quality: dict):
    tag = argv[argv.index("--tag") + 1]
    auc = json.loads((rd / "probe" / f"result_{tag}.json").read_text())["mean_auc"]
    if not math.isfinite(auc):
        return f"mean AUC of {tag} is not finite"
    if tag == W.pretrain_tags()[0]:
        quality.setdefault("probe_mean_auc", []).append(auc)
    return None


def check_report(rd: Path, argv: list[str], wl: W.Workload, quality: dict):
    rows = _csv_rows(rd / "report" / "table1.csv")
    if [r["method"] for r in rows] != W.pretrain_tags():
        return f"table1.csv rows {[r['method'] for r in rows]} != {W.pretrain_tags()}"
    return None


def check_ablate(rd: Path, argv: list[str], wl: W.Workload, quality: dict):
    rows = _csv_rows(rd / "report" / "ablation.csv")
    if [r["scorer"] for r in rows] != list(W.SCORERS):
        return f"ablation.csv rows {[r['scorer'] for r in rows]} != {list(W.SCORERS)}"
    aucs = [float(r["mean_auc"]) for r in rows]
    if not all(math.isfinite(a) for a in aucs):
        return "non-finite ablation mean AUC"
    quality.setdefault("ablation_mean_auc", []).append(aucs[0])
    return None


CHECKS = {"score": check_score, "evaluate": check_evaluate, "report": check_report,
          "ablate": check_ablate}


# ---------------------------------------------------------------------------
# Stage calls
# ---------------------------------------------------------------------------


class StageRunner:
    def __init__(self, wl: W.Workload, ini: Path, log):
        self.wl, self.ini, self.log = wl, ini, log
        self.quality: dict[str, list[float]] = {}

    def _call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            try:
                return sevcon_main(argv)
            except SystemExit as e:  # argparse rejected the arguments
                return e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc(file=self.log)
                return 1

    def stage(self, rd: Path, argv: list[str], first: bool, tracer: Tracer | None) -> dict:
        full = ["--run-dir", str(rd)] + (["--config", str(self.ini)] if first else []) + argv
        print("+ sevcon " + " ".join(argv), file=self.log, flush=True)
        start = time.perf_counter()
        if tracer is not None:
            rc = tracer.stage(argv[0], lambda: self._call(full))
        else:
            rc = self._call(full)
        wall = time.perf_counter() - start
        error = f"exit code {rc}" if rc != 0 else None
        if error is None and argv[0] in CHECKS:
            try:
                error = CHECKS[argv[0]](rd, argv, self.wl, self.quality)
            except (OSError, KeyError, ValueError) as e:
                error = f"output check could not read outputs: {e!r}"
        if error:
            print(f"FAILED: {' '.join(argv)}: {error}", file=self.log, flush=True)
        return {"stage": " ".join(argv), "command": argv[0], "wall_s": wall, "error": error}

    def sequence(self, rd: Path, stages: list, with_config: bool = False,
                 tracer: Tracer | None = None) -> dict:
        """Run stages in order, stopping at the first failure."""
        usage0, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        records = []
        for i, argv in enumerate(stages):
            records.append(self.stage(rd, argv, with_config and i == 0, tracer))
            if records[-1]["error"]:
                break
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        return {"stages": records, "wall_s": sum(r["wall_s"] for r in records),
                "elapsed_s": time.perf_counter() - start, "cpu_s": cpu,
                "failed": sum(1 for r in records if r["error"])}


def stage_figures(seq: dict, wl: W.Workload) -> dict[str, float]:
    """Throughput and time figures of whichever stages the sequence ran."""
    by = {}
    for r in seq["stages"]:
        by.setdefault(r["command"], []).append(r)
    out = {"wall_s": seq["wall_s"]}
    for r in by.get("train-gradcon", ()):
        images = W.gradcon_train_images(wl) * W.gradcon_epochs(wl)
        out["gradcon_images_per_s"] = images / r["wall_s"]
    scores = by.get("score", ())
    for r in scores:
        if r["stage"].endswith("severity"):
            out["severity_score_images_per_s"] = N_UNLABELED / r["wall_s"]
    baseline = [r for r in scores if not r["stage"].endswith("severity")]
    if baseline:
        out["baseline_score_images_per_s"] = (
            len(baseline) * N_UNLABELED / sum(r["wall_s"] for r in baseline))
    trained = [r for r in by.get("pretrain", ()) if "random" not in r["stage"]]
    if trained:
        out["pretrain_images_per_s"] = (len(trained) * N_UNLABELED * W.PRETRAIN_EPOCHS
                                        / sum(r["wall_s"] for r in trained))
    if "probe" in by:
        out["probe_eval_s"] = sum(r["wall_s"] for c in ("probe", "evaluate", "report")
                                  for r in by.get(c, ()))
    if "ablate" in by:
        out["ablate_s"] = by["ablate"][0]["wall_s"]
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _reset(rd: Path, wl: W.Workload):
    for name in wl.reset:
        (rd / name).unlink(missing_ok=True)


def _snapshot(rd: Path, wl: W.Workload) -> dict:
    return {name: (rd / name).read_bytes() if (rd / name).exists() else None
            for name in wl.outputs}


def run_untraced(runner: StageRunner, work: Path, seconds: float) -> dict:
    wl = runner.wl
    setups = []
    for k in range(wl.setup_repeats):
        setups.append(runner.sequence(work / f"run{k}", wl.setup, with_config=True))
        if k:
            shutil.rmtree(work / f"run{k - 1}")
        if setups[-1]["failed"]:
            return {"setups": setups, "iterations": []}
    rd = work / f"run{len(setups) - 1}"
    iterations = []
    start = time.perf_counter()
    while True:
        _reset(rd, wl)
        iterations.append(runner.sequence(rd, wl.measured))
        if iterations[-1]["failed"] or time.perf_counter() - start >= seconds:
            break

    figures = [stage_figures(s, wl) for s in iterations]
    setup_figures = [stage_figures(s, wl) for s in setups]
    samples = {"setup_s": [s["wall_s"] for s in setups]}
    for name in set().union(*figures, *setup_figures):
        # a figure of the measured stages if they have it, else of the set-up
        samples[name] = ([f[name] for f in figures if name in f]
                         or [f[name] for f in setup_figures if name in f])
    samples.update(runner.quality)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {"setups": setups, "iterations": iterations,
            "summary": {name: summarize(v) for name, v in sorted(samples.items())}}


def run_traced(runner: StageRunner, work: Path, seconds: float, env: dict) -> dict:
    wl = runner.wl
    rd = work / "run0"
    tracer = Tracer()
    tracer.run = "setup"
    tracer.install()
    try:
        setup = runner.sequence(rd, wl.setup, with_config=True, tracer=tracer)
    finally:
        tracer.uninstall()
    pairs = []
    start = time.perf_counter()
    while not setup["failed"]:
        _reset(rd, wl)
        plain = runner.sequence(rd, wl.measured)
        plain_out = _snapshot(rd, wl)
        _reset(rd, wl)
        tracer.run = f"iter{len(pairs)}"
        tracer.install()
        try:
            traced = runner.sequence(rd, wl.measured, tracer=tracer)
        finally:
            tracer.uninstall()
        identical = plain_out == _snapshot(rd, wl)
        pairs.append({"plain": plain, "traced": traced, "identical": identical})
        if (plain["failed"] or traced["failed"] or not identical
                or time.perf_counter() - start >= seconds):
            break
    tracer.write(work / "spans.jsonl")

    loadavg_end = os.getloadavg()[0]
    per_pair = []
    for k, pair in enumerate(pairs):
        traced = pair["traced"]
        m = layer_metrics([s for s in tracer.spans if s[5] in ("setup", f"iter{k}")],
                          setup["failed"] + traced["failed"])
        m["process.cpu_s"] = setup["cpu_s"] + traced["cpu_s"]
        m["process.cpu_util"] = m["process.cpu_s"] / (setup["elapsed_s"] + traced["elapsed_s"])
        m["process.loadavg_start"] = env["loadavg_start"]
        m["process.loadavg_end"] = loadavg_end
        m["trace.overhead_s"] = traced["wall_s"] - pair["plain"]["wall_s"]
        per_pair.append(m)
    per_layer = {name: statistics.median(m[name] for m in per_pair)
                 for name in (per_pair[0] if per_pair else {})}
    return {"setups": [setup], "iterations": [p[k] for p in pairs for k in ("plain", "traced")],
            "identical": all(p["identical"] for p in pairs) and bool(pairs),
            "wrappers_left": remaining_wrappers(), "per_layer": per_layer}


def result_line(record: dict) -> dict:
    """The machine-read result: correctness, stage counts and metric values."""
    sequences = record["setups"] + record["iterations"]
    attempted = sum(len(s["stages"]) for s in sequences)
    failed = sum(s["failed"] for s in sequences)
    correct = failed == 0 and bool(record["iterations"])
    if record["trace"]:
        correct = correct and record["identical"] and not record["wrappers_left"]
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in PER_LAYER if m["name"] in record["per_layer"]}
    else:
        summary = record.get("summary", {})
        metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
                   for m in END_TO_END if m["name"] in summary}
        correct = correct and len(metrics) == len(END_TO_END)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="record file; its directory is the work dir")
    args = parser.parse_args(argv)

    wl = W.WORKLOADS[args.workload]
    out = Path(args.out)
    work = out.parent
    env = environment(Path(__file__).resolve().parent.parent)
    ini = work / "bench.ini"
    ini.write_text(W.config_ini(wl, args.seed))
    with open(work / "stages.log", "w") as log:
        runner = StageRunner(wl, ini, log)
        if args.trace:
            body = run_traced(runner, work, args.seconds, env)
        else:
            body = run_untraced(runner, work, args.seconds)
    env["loadavg_end"] = os.getloadavg()[0]
    for rd in work.glob("run*"):
        shutil.rmtree(rd)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **body}
    record["result"] = result_line(record)
    out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
