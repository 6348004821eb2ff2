"""Stage-level benchmark of the sevcon pipeline.

Runs each workload in a fresh Python process (worker.py) with one BLAS
thread, drives the pipeline through ``sevcon.cli.main`` one stage at a time
(a closed loop with one client), checks the outputs, and prints every metric
by name with its unit, median, spread (quartile distance over the median) and
sample count. The last line of standard output is the machine-read result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

    python3 perfbench/run.py --workload score-pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload ablation --seed 1 --trace 1   # per-layer figures

Each invocation is one run; ``collect.py`` repeats it over seeds.

Exits 1 when any stage fails or any output check fails, and 2 when the
program's source (``src/sevcon``) is not there.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout as it was

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import UNITS, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"
BLAS_THREADS = "1"       # one thread measured fastest on these small GEMMs
CHILD_TIMEOUT_S = 170    # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One run in a fresh worker process; its record, or None if it died."""
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"perfbench: {workload} seed {seed} exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    if proc.returncode != 0 or not out.exists():
        tail = (work / "worker.log").read_text().splitlines()[-20:]
        print(f"perfbench: worker for {workload} seed {seed} exited {proc.returncode}:\n"
              + "\n".join(tail), file=sys.stderr)
        return None
    return json.loads(out.read_text())


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_record(rec: dict):
    env = rec["env"]
    print(f"== {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  "
          f"trace {rec['trace']}")
    print(f"env: nproc {env['nproc']} ({env['cpus_usable']} usable), python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']} {env['blas_version']}, "
          f"BLAS threads {env['blas_threads']}, git {env['git']}, "
          f"loadavg {env['loadavg_start']:.2f} -> {env['loadavg_end']:.2f}")
    walls: dict[str, list[float]] = {}
    for seq in rec["iterations"]:
        for st in seq["stages"]:
            walls.setdefault(st["stage"], []).append(st["wall_s"])
    print(f"set-up runs {len(rec['setups'])}, measured iterations {len(rec['iterations'])}; "
          "median wall per measured stage:")
    for stage, values in walls.items():
        print(f"  {stage:<40} {summarize(values)['median']:9.4f} s  x{len(values)}")
    for seq in rec["setups"] + rec["iterations"]:
        for st in seq["stages"]:
            if st["error"]:
                print(f"  FAILED {st['stage']}: {st['error']}")
    res = rec["result"]
    if rec["trace"]:
        print(f"traced outputs identical to untraced: {rec['identical']}; "
              f"wrappers left after the run: {rec['wrappers_left'] or 'none'}; "
              f"spans in {WORK.name}/{rec['workload']}-seed{rec['seed']}-trace1/spans.jsonl")
        print(f"{'per-layer metric (setup + one measured iteration)':<52} {'unit':<15} value")
        for name, m in res["metrics"].items():
            print(f"{name:<52} {m['unit']:<15} {_fmt(m['value'])}")
    else:
        print(f"{'metric':<30} {'unit':<9} {'median':>12} {'spread':>8} {'n':>3}")
        for name, s in rec.get("summary", {}).items():
            if name in UNITS:
                print(f"{name:<30} {UNITS[name]:<9} {s['median']:>12.6g} "
                      f"{s['spread']:>8.4f} {s['n']:>3}")
    share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{'failed_stage_share':<30} {'ratio':<9} {share:>12.6g}  "
          f"({res['failed']} failed of {res['attempted']} stage calls)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sevcon pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured time per run (set-up not included)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sevcon" / "cli.py").is_file():
        print(f"perfbench: program source src/sevcon not found under {ROOT}", file=sys.stderr)
        return 2
    rec = run_one(args.workload, args.seed, args.seconds, args.trace)
    if rec is None:
        return 1
    print_record(rec)
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
