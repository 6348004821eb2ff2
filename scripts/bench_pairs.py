#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_pr<N>.json.

Runs ``perfbench/run.py --trace 0`` once per side, seed and workload, each
side in its own checkout, seed by seed so that a slow drift of the machine
touches every workload alike. The parent runs first on the 1st, 3rd, ...
seed and second on the others. Each value is one run's median (perfbench's
own figure); the median and quartiles (``statistics.quantiles``, n=4) are
taken over the runs of each side. Uses the standard library only:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python3 scripts/bench_pairs.py --parent /tmp/parent --seeds 401-410 \\
        --pr 7 --claim ablation:wall_s --describe "what the change does"

Run nothing else alongside it. The output holds, per workload and
end-to-end metric, both sides' medians, quartiles and per-seed values, the
change's wins and ties, the quality figures that a results-preserving change
must reproduce per seed, the stage-call counts, and the machine and BLAS
record, and a no-regression verdict ("no worse", "unresolved" or "worse";
see `verdict`) for every metric other than the claim. Exits 1 if a run gives
no result, gives a result without metrics (its set-up failed; it is named,
and its pair is left out of the comparisons), or a stage call fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_version",
                "blas_threads")
# printed by perfbench but not machine-read; fixed by the seed, so a change that
# keeps the program's results must reproduce them exactly
QUALITY = ("severity_spearman", "probe_mean_auc", "ablation_mean_auc")
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_one(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run: its result line plus its record's env and
    quality figures."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave no result "
                         f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads((checkout / ".perfbench_runs" / f"{workload}-seed{seed}-trace0"
                         / "record.json").read_text())
    summary = record.get("summary", {})
    result["env"] = record["env"]
    result["quality"] = {q: summary[q]["median"] for q in QUALITY if q in summary}
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": quartiles(parent), "change": quartiles(change),
            "change_over_parent_median": round(c_med / p_med, 4) if p_med else None,
            "change_wins": wins, "ties": ties, "pairs": len(parent),
            "parent_values": [round(v, 6) for v in parent],
            "change_values": [round(v, 6) for v in change]}


def claim_result(m: dict) -> dict:
    """The change wins >= 9 of 10 pairs (as a share) and its median beats the
    parent's by more than the parent's quartile distance."""
    sign = 1.0 if m["better"] == "lower" else -1.0
    gap = sign * (m["parent"]["median"] - m["change"]["median"])
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    met = m["change_wins"] >= 0.9 * m["pairs"] and gap > spread
    return {"wins": m["change_wins"], "pairs": m["pairs"], "median_gap": round(gap, 6),
            "parent_quartile_distance": round(spread, 6), "met": met}


def verdict(m: dict) -> str:
    """No-regression verdict of a metric the change does not claim. Where the
    parent's quartile distance over its median exceeds the bound, the runs
    cannot show a regression of that size: "unresolved", unless every change
    run beats every parent run ("no worse"). Otherwise "no worse" when the
    change's median is within the bound of the parent's, else "worse"."""
    lower = m["better"] == "lower"
    parent, change = m["parent"], m["change"]
    if parent["q3"] - parent["q1"] > m["bound"] * abs(parent["median"]):
        beats = (max(m["change_values"]) < min(m["parent_values"]) if lower
                 else min(m["change_values"]) > max(m["parent_values"]))
        return "no worse" if beats else "unresolved"
    limit = parent["median"] * (1 + m["bound"] if lower else 1 - m["bound"])
    within = change["median"] <= limit if lower else change["median"] >= limit
    return "no worse" if within else "worse"


def machine_record(envs: list[dict]) -> dict:
    out = {"cpu": "unknown", "l2_cache": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                out["cpu"] = line.split(":", 1)[1].strip()
                break
        cache = Path("/sys/devices/system/cpu/cpu0/cache/index2")
        shared = (cache / "shared_cpu_list").read_text().strip()
        out["l2_cache"] = f"{(cache / 'size').read_text().strip()} shared by cpus {shared}"
    except OSError:
        pass
    out |= {k: envs[0][k] for k in MACHINE_KEYS}
    loads = [e["loadavg_start"] for e in envs]
    out["loadavg_start_range"] = [min(loads), max(loads)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="the change's checkout (default: this one)")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds in run order, e.g. 401-410")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--pr", type=int, required=True,
                        help="writes BENCH_pr<N>.json into the change's checkout")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--describe", default="", help="one line on what the change does")
    parser.add_argument("--note", default="", help="appended to the method text")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in {m["name"] for m in spec["end_to_end"]}):
        parser.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC with WORKLOAD among "
                     f"{workloads} and METRIC an end-to-end metric of BENCHMARK.json")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {wl: {side: [] for side in SIDES} for wl in workloads}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for wl in workloads:
            for side in order:
                res = run_one(checkouts[side], wl, seed, seconds)
                runs[wl][side].append(res)
                print(f"{wl} seed {seed} {side}: " + ", ".join(
                    f"{n} {v['value']:.5g}" for n, v in res["metrics"].items()), flush=True)

    out = {"change": args.describe,
           "method": ("alternating parent/change pairs, one `python3 perfbench/run.py "
                      f"--workload W --seed S --seconds {seconds} --trace 0` per side and "
                      "seed, each from its own checkout, via scripts/bench_pairs.py; the "
                      "parent runs first on the 1st, 3rd, ... seed and second on the "
                      "others. Each value is that run's median (perfbench's own figure); "
                      "median and quartiles (statistics.quantiles, n=4) are taken over "
                      "the runs of each side. " + args.note).strip(),
           "machine": machine_record([r["env"] for wl in workloads for side in SIDES
                                      for r in runs[wl][side]]),
           "claim": None, "workloads": {}}
    failed = 0
    for wl in workloads:
        # a run whose set-up failed prints no metrics; it is named, and the
        # pairs it belongs to are left out of that workload's comparisons
        bad = [k for k in range(len(args.seeds))
               if any(not runs[wl][s][k]["metrics"] for s in SIDES)]
        for k in bad:
            for s in SIDES:
                if not runs[wl][s][k]["metrics"]:
                    print(f"{wl} seed {args.seeds[k]} {s}: no metrics", file=sys.stderr)
        failed += len(bad)
        sides = {s: [r for k, r in enumerate(runs[wl][s]) if k not in bad] for s in SIDES}
        block = {"seeds": args.seeds,
                 "first_in_pair": [SIDES[k % 2] for k in range(len(args.seeds))],
                 "seeds_without_metrics": [args.seeds[k] for k in bad],
                 "stage_calls": {s: {"attempted": sum(r["attempted"] for r in runs[wl][s]),
                                     "failed": sum(r["failed"] for r in runs[wl][s])}
                                 for s in SIDES},
                 "metrics": {}, "quality": {}}
        failed += sum(block["stage_calls"][s]["failed"] for s in SIDES)
        for m in spec["end_to_end"]:
            values = {s: [r["metrics"][m["name"]]["value"] for r in sides[s]] for s in SIDES}
            if len(values["parent"]) >= 2:
                block["metrics"][m["name"]] = compare(m, values["parent"], values["change"])
        for q in QUALITY:
            values = {s: [r["quality"].get(q) for r in sides[s]] for s in SIDES}
            if all(v is None for v in values["parent"]):
                continue
            block["quality"][q] = {"parent_values": values["parent"],
                                   "change_values": values["change"],
                                   "equal_per_seed": values["parent"] == values["change"]}
        out["workloads"][wl] = block
    for wl, block in out["workloads"].items():
        for name, m in block["metrics"].items():
            if (wl, name) != claim:
                m["verdict"] = verdict(m)
    if claim:
        wl, metric = claim
        m = out["workloads"][wl]["metrics"].get(metric)
        out["claim"] = {"workload": wl, "metric": metric,
                        "rule": "change wins >= 9 of 10 pairs and the median gap exceeds "
                                "the parent's quartile distance",
                        "result": claim_result(m) if m else None}
    path = args.change / f"BENCH_pr{args.pr}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    for wl, block in out["workloads"].items():
        print(f"-- {wl}")
        for name, m in block["metrics"].items():
            print(f"   {name:<22} {m['parent']['median']:>11.5g} -> {m['change']['median']:<11.5g}"
                  f" wins {m['change_wins']}/{m['pairs']}, ties {m['ties']}"
                  f"{', ' + m['verdict'] if 'verdict' in m else ', claimed'}")
        for name, q in block["quality"].items():
            print(f"   {name:<22} equal per seed: {q['equal_per_seed']}")
    if out["claim"]:
        print(f"claim {args.claim}: {out['claim']['result']}")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
