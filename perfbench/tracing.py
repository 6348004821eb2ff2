"""Span tracer installed from outside the program.

Wrappers go around the public functions of each sevcon module and around
``forward``/``backward`` of every ``numerics`` layer class and of
``models.Autoencoder``. A module that imported a name directly (``from
.numerics import sgd_step``) holds its own reference, so every module
attribute bound to a wrapped function is patched, and restored by
``uninstall``. Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from metrics import CONV_KINDS, LAYER_KINDS, PER_LAYER, STAGES

MARK = "__perfbench_span__"


def _dir_size(args, result):
    entries = list(os.scandir(args[0]))
    return {"files": len(entries), "bytes": sum(e.stat().st_size for e in entries)}


def _loaded(args, result):
    return {"images": len(result), "dir": str(Path(args[0]).resolve())}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _conv_forward(args, result):
    layer, x = args[0], args[1]
    k, s, p = layer.kernel, layer.stride, layer.pad
    ho = (x.shape[2] + 2 * p - k) // s + 1
    wo = (x.shape[3] + 2 * p - k) // s + 1
    return {"gflop": 2.0 * x.shape[0] * ho * wo * layer.c_out * layer.c_in * k * k / 1e9}


def _conv_backward(args, result):
    # weight gradient and input gradient: two GEMMs the size of the forward one
    layer = args[0]
    cols = layer._cache[0]
    return {"gflop": 4.0 * cols.shape[0] * cols.shape[1] * layer.c_out / 1e9}


def _layer_span(method):
    # Conv2d names itself conv2d or strided-conv2d by stride
    return lambda args: f"numerics.{args[0].name}.{method}"


def _rows(args, result):
    return {"rows": int(args[1].shape[0])}


# (module, function, span name, attribute recorder)
FUNCTIONS = [
    ("synthdata", "generate_healthy", "synthdata.generate", None),
    ("synthdata", "generate_unlabeled", "synthdata.generate", None),
    ("synthdata", "generate_labeled_splits", "synthdata.generate", None),
    ("synthdata", "save_dataset", "synthdata.save_dataset", _dir_size),
    ("synthdata", "load_dataset", "synthdata.load_dataset", _loaded),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _file_size),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("numerics", "sgd_step", "numerics.sgd_step", None),
    ("gradcon", "train_gradcon", "gradcon.train_gradcon", None),
    ("gradcon", "severity_score", "gradcon.severity_score", None),
    ("gradcon", "score_dataset", "gradcon.score_dataset", None),
    ("gradcon", "gradient_alignment", "gradcon.gradient_alignment", None),
    ("gradcon", "update_reference", "gradcon.update_reference", None),
    # private, but its backward passes are the ones the FD-HVP adds
    ("gradcon", "_constraint_update_term", "gradcon.constraint_update_term", None),
    ("contrastive", "pretrain", "contrastive.pretrain", None),
    ("contrastive", "build_multiview_batch", "contrastive.build_multiview_batch", None),
    ("contrastive", "augment", "contrastive.augment", None),
    ("contrastive", "supcon_loss_and_grad", "contrastive.supcon_loss_and_grad", None),
    ("labeling", "assign_severity_labels", "labeling.assign_severity_labels", None),
    ("labeling", "extreme_bin_report", "labeling.extreme_bin_report", None),
    ("evalprobe", "train_probe", "evalprobe.train_probe", None),
    ("evalprobe", "evaluate", "evalprobe.evaluate", None),
    ("evalprobe", "predict_scores", "evalprobe.predict_scores", None),
    ("baselines", "train_supervised_classifier", "baselines.train_supervised_classifier", None),
    ("baselines", "msp_score", "baselines.msp_score", None),
    ("baselines", "odin_score", "baselines.odin_score", None),
    ("baselines", "mahalanobis_score", "baselines.mahalanobis_score", None),
    ("baselines", "score_corpus", "baselines.score_corpus", None),
    ("baselines", "ablation_run", "baselines.ablation_run", None),
]


def _sevcon_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sevcon" or name.startswith("sevcon."))]


def _traced_classes():
    from sevcon import models, numerics
    return [models.Autoencoder, *numerics.Layer.__subclasses__()]


class Tracer:
    """Records spans (id, name, start, end, parent id, run id, attrs)."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self.t0 = time.perf_counter()

    def _wrap(self, fn, name, attrs_fn=None):
        """``name`` is a span name, or a callable of the call's arguments."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record = [sid, name(args) if callable(name) else name, start, clock(),
                          parent, self.run, None]
                stack.pop()
                spans.append(record)
            if attrs_fn is not None:
                record[6] = attrs_fn(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def stage(self, command: str, call):
        """Run ``call()`` inside a ``cli.stage.<command>`` span."""
        return self._wrap(call, f"cli.stage.{command}")()

    def install(self):
        import sevcon.cli  # noqa: F401  (imports every module to patch)
        modules = _sevcon_modules()
        for mod_name, attr, span_name, attrs_fn in FUNCTIONS:
            original = getattr(sys.modules[f"sevcon.{mod_name}"], attr)
            wrapper = self._wrap(original, span_name, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        for cls in _traced_classes():
            for method in ("forward", "backward"):
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                if cls.__name__ == "Autoencoder":
                    name = f"models.autoencoder.{method}"
                    attrs_fn = _rows if method == "backward" else None
                else:
                    name = _layer_span(method)
                    attrs_fn = None
                    if cls.__name__ == "Conv2d":
                        attrs_fn = _conv_forward if method == "forward" else _conv_backward
                setattr(cls, method, self._wrap(original, name, attrs_fn))
                self._patches.append((cls, method, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, run, attrs in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start - self.t0,
                                    "end": end - self.t0, "parent": parent, "run": run,
                                    "attrs": attrs}) + "\n")


def remaining_wrappers() -> list[str]:
    """Names of sevcon attributes still bound to a tracing wrapper."""
    found = []
    for module in _sevcon_modules():
        found += [f"{module.__name__}.{k}" for k, v in vars(module).items()
                  if getattr(v, MARK, False)]
    for cls in _traced_classes():
        found += [f"{cls.__name__}.{k}" for k, v in cls.__dict__.items()
                  if getattr(v, MARK, False)]
    return found


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def _gradcon_steps(spans, train_span) -> list[tuple[int, int, int]]:
    """(backward passes, rows, passes feeding the update) per gradcon step.

    The step's first backward (the batch) and the two FD-HVP passes feed the
    parameter update; the held-out alignment passes do not."""
    t0, t1 = train_span[2], train_span[3]
    inside = sorted((r for r in spans if t0 <= r[2] <= t1 and r[5] == train_span[5]),
                    key=lambda r: r[2])
    steps, passes, rows, useful, hvp_end = [], 0, 0, 0, -1.0
    for _, name, start, end, _, _, attrs in inside:
        if name == "gradcon.constraint_update_term":
            hvp_end = end
        elif name == "models.autoencoder.backward":
            useful += passes == 0 or start < hvp_end
            passes += 1
            rows += attrs["rows"]
        elif name == "numerics.sgd_step":
            steps.append((passes, rows, useful))
            passes = rows = useful = 0
    return steps


def layer_metrics(spans, failures: int) -> dict[str, float]:
    """Every per-layer metric from one set of spans (0 where nothing ran)."""
    by_name = defaultdict(list)
    for r in spans:
        by_name[r[1]].append(r)

    def total(name):
        return sum(r[3] - r[2] for r in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {d["name"]: 0.0 for d in PER_LAYER}
    selfs = self_times(spans)
    for st in STAGES:
        name = f"cli.stage.{st}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = sum(selfs[r[0]] for r in by_name.get(name, ()))
    m["cli.stage.calls"] = sum(calls(f"cli.stage.{st}") for st in STAGES)
    m["cli.stage.failures"] = failures

    for name in ("synthdata.generate", "synthdata.save_dataset", "synthdata.load_dataset",
                 "checkpoint.save", "checkpoint.load", "models.autoencoder.forward",
                 "models.autoencoder.backward", "numerics.sgd_step",
                 "gradcon.train_gradcon", "gradcon.score_dataset",
                 "gradcon.gradient_alignment", "gradcon.update_reference",
                 "contrastive.pretrain", "contrastive.build_multiview_batch",
                 "contrastive.augment", "contrastive.supcon_loss_and_grad",
                 "labeling.assign_severity_labels", "labeling.extreme_bin_report",
                 "evalprobe.train_probe", "evalprobe.evaluate", "evalprobe.predict_scores",
                 "baselines.train_supervised_classifier", "baselines.msp_score",
                 "baselines.odin_score", "baselines.mahalanobis_score",
                 "baselines.score_corpus", "baselines.ablation_run"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)

    def attr_sum(name, key):
        return sum(r[6][key] for r in by_name.get(name, ()) if r[6])

    m["synthdata.save_dataset.files"] = attr_sum("synthdata.save_dataset", "files")
    m["synthdata.save_dataset.bytes"] = attr_sum("synthdata.save_dataset", "bytes")
    loaded = m["synthdata.load_dataset.images"] = attr_sum("synthdata.load_dataset", "images")
    distinct = {}
    for r in by_name.get("synthdata.load_dataset", ()):
        distinct.setdefault(r[6]["dir"], r[6]["images"])
    m["synthdata.load_dataset.reload_ratio"] = (
        loaded / sum(distinct.values()) if distinct else 0.0)
    m["checkpoint.save.bytes"] = attr_sum("checkpoint.save", "bytes")
    m["models.autoencoder.backward.rows"] = attr_sum("models.autoencoder.backward", "rows")

    for kind in LAYER_KINDS:
        for d in ("forward", "backward"):
            name = f"numerics.{kind}.{d}"
            m[f"{name}.s"] = total(name)
            m[f"{name}.calls"] = calls(name)
    for kind in CONV_KINDS:
        for d in ("forward", "backward"):
            m[f"numerics.{kind}.{d}.gflop"] = attr_sum(f"numerics.{kind}.{d}", "gflop")
        fwd, bwd = m[f"numerics.{kind}.forward.s"], m[f"numerics.{kind}.backward.s"]
        m[f"numerics.{kind}.bwd_fwd_ratio"] = bwd / fwd if fwd else 0.0

    later = []
    for train_span in by_name.get("gradcon.train_gradcon", ()):
        steps = _gradcon_steps(spans, train_span)
        m["gradcon.steps"] += len(steps)
        later += steps[1:]  # the first step has no reference yet, so no constraint
    if later:
        m["gradcon.backward_passes_per_step"] = statistics.median(s[0] for s in later)
        m["gradcon.backward_rows_per_step"] = statistics.median(s[1] for s in later)
        m["gradcon.update_backward_share"] = sum(s[2] for s in later) / sum(s[0] for s in later)

    scores_ms = [1e3 * (r[3] - r[2]) for r in by_name.get("gradcon.severity_score", ())]
    m["gradcon.severity_score.calls"] = len(scores_ms)
    if len(scores_ms) >= 2:
        pct = statistics.quantiles(scores_ms, n=100, method="inclusive")
        m["gradcon.severity_score.p50_ms"] = statistics.median(scores_ms)
        m["gradcon.severity_score.p99_ms"] = pct[98]
    return {d["name"]: m[d["name"]] for d in PER_LAYER}
