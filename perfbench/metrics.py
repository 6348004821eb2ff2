"""Metric definitions and the median/spread summary every figure is
reported with.

The machine-read metrics (name, unit, which direction is better and, for
the end-to-end ones, the bound) are defined once, in ``BENCHMARK.json`` at
the repository root; this module reads them from there.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Reported by every untraced run of every workload: [{name, unit, better, bound}].
END_TO_END = SPEC["end_to_end"]
# Reported by every traced run (0 where a layer did no work): [{name, unit, better}].
PER_LAYER = SPEC["per_layer"]

# Units of the figures printed with the end-to-end table where they apply,
# but not machine-read. Most exist on one or two workloads only, while a
# machine-read metric must exist on all of them. Batch-1 severity scoring is
# timed once per score-pipeline run, too briefly to hold a bound, and one
# gradcon epoch leaves a few seeds with a Spearman far below the rest
# (0.41 and 0.56 against 0.72-0.85), so over ten seeds its quartile spread
# can exceed any allowed bound.
PRINTED = {
    "severity_score_images_per_s": "images/s",
    "pretrain_images_per_s": "images/s",
    "probe_eval_s": "s",
    "baseline_score_images_per_s": "images/s",
    "ablate_s": "s",
    "severity_spearman": "1",
    "probe_mean_auc": "1",
    "ablation_mean_auc": "1",
}

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER} | PRINTED

STAGES = ("gen-data", "train-gradcon", "score", "make-labels", "pretrain",
          "probe", "evaluate", "ablate", "report")
LAYER_KINDS = ("conv2d", "strided-conv2d", "nearest-upsample", "dense", "relu",
               "sigmoid")
CONV_KINDS = ("conv2d", "strided-conv2d")


def summarize(samples: list[float]) -> dict:
    """Median, quartile spread as a share of the median, and sample count."""
    med = statistics.median(samples)
    spread = 0.0
    if len(samples) >= 2 and med:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / abs(med)
    return {"median": med, "spread": spread, "n": len(samples)}
