#!/usr/bin/env python3
"""Compare two run directories file by file, up to float drift.

    python3 scripts/compare_runs.py RUN_A RUN_B [--rename-key OLD=NEW ...]

Every file of either run gets one line: "identical" when the bytes, or all
the parts compared, are equal, else the largest relative difference of each
numeric CSV column, of each array of an .npz file (or of an .npy array), or
of the numbers of a JSON file. For arrays and CSV columns that is
max|a - b| / max(max|a|, max|b|), and 0 when both are all zero; JSON
numbers are each taken on their own scale. NaNs and infinities must sit in the same places in both runs.
CSV comment lines, text cells, JSON strings and integer arrays (such as a
checkpoint's JSON ``meta`` record) must match exactly.

``--rename-key OLD=NEW`` replaces OLD by NEW in RUN_A's .npz member names
and ``meta`` records before they are compared, all pairs at once, for a
checkpoint whose parameter layout changed between the runs (e.g.
``--rename-key decoder.4.=decoder.3.``).

The last line gives the largest difference found. Exits 1 on a structural
mismatch: a file in one run only, a CSV with other columns or rows, array
files with other keys or shapes, JSON of another shape, differing text, or a
differing file of any other type. Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np


class Mismatch(Exception):
    """The two files differ in more than their numbers."""


def rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise Mismatch(f"shape {a.shape} != {b.shape}")
    finite = np.isfinite(a)
    if not (np.array_equal(finite, np.isfinite(b))
            and np.array_equal(a[~finite], b[~finite], equal_nan=True)):
        raise Mismatch("NaNs or infinities differ")
    a, b = a[finite], b[finite]
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a - b).max(initial=0.0) / scale) if scale else 0.0


def compare_csv(a: bytes, b: bytes) -> dict[str, float]:
    def table(raw: bytes):
        lines = raw.decode().splitlines(keepends=True)
        rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise Mismatch("rows of unequal length")
        return [ln for ln in lines if ln.startswith("#")], rows

    (notes_a, rows_a), (notes_b, rows_b) = table(a), table(b)
    if notes_a != notes_b:
        raise Mismatch("comment lines differ")
    if rows_a[0] != rows_b[0]:
        raise Mismatch(f"columns {rows_a[0]} != {rows_b[0]}")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a) - 1} rows != {len(rows_b) - 1}")
    out = {}
    for j, name in enumerate(rows_a[0]):
        col_a, col_b = [r[j] for r in rows_a[1:]], [r[j] for r in rows_b[1:]]
        if col_a == col_b:
            continue
        try:
            out[name] = rel_diff([float(v) for v in col_a], [float(v) for v in col_b])
        except ValueError:
            raise Mismatch(f"text in column {name} differs") from None
    return out


def arrays(raw: bytes, rename=lambda text: text) -> dict[str, np.ndarray]:
    loaded = np.load(io.BytesIO(raw))
    if isinstance(loaded, np.ndarray):
        return {"array": loaded}
    with loaded:
        out = {rename(key): loaded[key] for key in loaded.files}
    if "meta" in out:
        out["meta"] = np.frombuffer(rename(bytes(out["meta"]).decode()).encode(), np.uint8)
    return out


def compare_arrays(arr_a: dict, arr_b: dict) -> dict[str, float]:
    if arr_a.keys() != arr_b.keys():
        raise Mismatch(f"keys {sorted(arr_a.keys() ^ arr_b.keys())} in one run only")
    out = {}
    for key, x in arr_a.items():
        y = arr_b[key]
        if x.dtype.kind == y.dtype.kind == "f":
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                out[key] = rel_diff(x, y)
        elif x.dtype != y.dtype or not np.array_equal(x, y):
            raise Mismatch(f"array {key} differs")
    return out


def compare_json(a: bytes, b: bytes) -> dict[str, float]:
    worst = {"numbers": 0.0}

    def walk(x, y, where):
        if isinstance(x, bool) or isinstance(y, bool) or not (
                isinstance(x, (int, float)) and isinstance(y, (int, float))):
            if type(x) is not type(y):
                raise Mismatch(f"{where}: {type(x).__name__} != {type(y).__name__}")
            if isinstance(x, dict):
                if x.keys() != y.keys():
                    raise Mismatch(f"{where}: keys differ")
                for k in x:
                    walk(x[k], y[k], f"{where}.{k}")
            elif isinstance(x, list):
                if len(x) != len(y):
                    raise Mismatch(f"{where}: {len(x)} items != {len(y)}")
                for i, (u, v) in enumerate(zip(x, y)):
                    walk(u, v, f"{where}[{i}]")
            elif x != y:
                raise Mismatch(f"{where}: {x!r} != {y!r}")
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            worst["numbers"] = max(worst["numbers"], rel_diff(x, y))

    walk(json.loads(a), json.loads(b), "$")
    return worst


def compare_file(a: bytes, b: bytes, suffix: str, rename) -> dict[str, float]:
    """Per-part relative differences of two differing files."""
    if suffix == ".csv":
        return compare_csv(a, b)
    if suffix in (".npz", ".npy"):
        return compare_arrays(arrays(a, rename), arrays(b))
    if suffix == ".json":
        return compare_json(a, b)
    raise Mismatch("contents differ")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    parser.add_argument("--rename-key", action="append", default=[], metavar="OLD=NEW",
                        help="replace OLD by NEW in RUN_A's .npz keys and meta records")
    args = parser.parse_args(argv)
    renames = dict(r.split("=", 1) for r in args.rename_key)
    pattern = re.compile("|".join(map(re.escape, renames)) or "(?!)")

    def rename(text: str) -> str:
        return pattern.sub(lambda m: renames[m[0]], text)

    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    names_a, names_b = files(args.run_a), files(args.run_b)
    mismatched, worst = 0, (0.0, "")
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: MISMATCH, only in {args.run_a if name in names_a else args.run_b}")
            mismatched += 1
            continue
        a, b = (args.run_a / name).read_bytes(), (args.run_b / name).read_bytes()
        if a == b:
            print(f"{name}: identical")
            continue
        try:
            diffs = compare_file(a, b, Path(name).suffix, rename)
        except (Mismatch, ValueError, UnicodeDecodeError) as e:
            print(f"{name}: MISMATCH, {e}")
            mismatched += 1
            continue
        if not diffs:
            print(f"{name}: identical")
            continue
        print(f"{name}: " + ", ".join(f"{k} {v:.3g}" for k, v in diffs.items()))
        for part, value in diffs.items():
            worst = max(worst, (value, f"{name} {part}"))
    print(f"largest relative difference: {worst[0]:.3g}"
          + (f" ({worst[1]})" if worst[1] else ""))
    if mismatched:
        print(f"{mismatched} file(s) differ in structure", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
