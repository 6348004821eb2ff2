"""Checkpoint persistence: npz payload with a JSON metadata record.

Round-trips are bitwise exact: parameter arrays are stored raw as float64.
`atomic_open` is the write-then-rename step that checkpoints, CSVs, JSON
records, the report's image, the run's config.ini and dataset manifests go
through.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import Array

FORMAT_VERSION = 1


@contextmanager
def atomic_open(path: Path, mode: str = "w", **kwargs):
    """Open ``<path>.tmp`` for writing, creating its directory, and rename it
    over `path` once the block completes. If the block raises, the temporary
    file is deleted and `path` keeps its previous contents, so an interrupted
    write never leaves a cut-short file that still parses."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Checkpoint:
    kind: str                      # e.g. "autoencoder", "backbone", "classifier-head"
    params: dict[str, Array]
    epoch: int = 0
    config_hash: str = ""
    seed: int = 0
    extra: dict = field(default_factory=dict)  # JSON-serializable metadata


def save_checkpoint(path: Path, ckpt: Checkpoint):
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "epoch": ckpt.epoch,
        "config_hash": ckpt.config_hash,
        "seed": ckpt.seed,
        "extra": ckpt.extra,
        "param_keys": sorted(ckpt.params),
        "param_shapes": {k: list(v.shape) for k, v in ckpt.params.items()},
    }
    arrays = {f"param:{k}": np.asarray(v, dtype=np.float64) for k, v in ckpt.params.items()}
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with atomic_open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path: Path) -> Checkpoint:
    """Read a checkpoint. Files from older writers may also carry optimizer
    velocities (``vel:`` arrays, ``optimizer_keys`` meta); they are ignored.
    A parameter holding a NaN or an infinity is a ``ValueError``: no stage
    writes one, and nothing computed from it is usable."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
        params = {k: data[f"param:{k}"] for k in meta["param_keys"]}
    for k, v in params.items():
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite values in parameter {k}")
    return Checkpoint(meta["kind"], params, meta["epoch"],
                      meta["config_hash"], meta["seed"], meta.get("extra", {}))
