"""Repeat the benchmark over seeds and summarise each end-to-end metric.

Runs ``run.py --trace 0`` once per seed and workload, seed by seed so that
a slow drift of the machine touches every workload alike, and reports each
end-to-end metric as the median of its per-run values with the quartile
spread ``(q3 - q1) / median`` (``statistics.quantiles(values, n=4)``) next
to the metric's bound from BENCHMARK.json:

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-5 --workloads ablation

``baseline.json`` holds two sets of ten seeds, run alternately so that both
see the same machine:

    python3 perfbench/collect.py --seeds 1,11,2,12,3,13,4,14,5,15,6,16,7,17,8,18,9,19,10,20 --out perfbench/baseline.json

Exits 1 if any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, SPEC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINE_KEYS = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_version",
                "blas_threads")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds in run order, e.g. 1-10 or 1,11,2,12")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    values = {wl: {m["name"]: [] for m in END_TO_END} for wl in names}
    counts = {wl: {"attempted": 0, "failed": 0} for wl in names}
    machine = {}
    for seed in args.seeds:
        for wl in names:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not line or not line["correct"]:
                print(f"{wl} seed {seed} failed (exit {proc.returncode}):\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name, m in line["metrics"].items():
                values[wl][name].append(m["value"])
            for key in counts[wl]:
                counts[wl][key] += line[key]
            if not machine:
                record = ROOT / ".perfbench_runs" / f"{wl}-seed{seed}-trace0" / "record.json"
                env = json.loads(record.read_text())["env"]
                machine = {k: env[k] for k in MACHINE_KEYS}
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)

    out = {"run_seconds": args.seconds, "seeds": args.seeds, "machine": machine,
           "workloads": {}}
    for wl in names:
        metrics = {}
        print(f"-- {wl}: {len(args.seeds)} runs, {counts[wl]['failed']} of "
              f"{counts[wl]['attempted']} stage calls failed")
        print(f"   {'metric':<24} {'unit':<9} {'median':>11} {'spread':>7} {'bound':>6}")
        for m in END_TO_END:
            s = summary(values[wl][m["name"]])
            metrics[m["name"]] = {"unit": m["unit"], **s}
            print(f"   {m['name']:<24} {m['unit']:<9} {s['median']:>11.5g} "
                  f"{s['spread']:>7.4f} {m['bound']:>6}")
        out["workloads"][wl] = {"metrics": metrics, **counts[wl]}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
