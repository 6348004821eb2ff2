"""Checkpoint persistence: npz payload with a JSON metadata record.

Round-trips are bitwise exact: parameter arrays are stored raw as float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import Array

FORMAT_VERSION = 1


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
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path: Path) -> Checkpoint:
    """Read a checkpoint. Files from older writers may also carry optimizer
    velocities (``vel:`` arrays, ``optimizer_keys`` meta); they are ignored."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
        params = {k: data[f"param:{k}"] for k in meta["param_keys"]}
    return Checkpoint(meta["kind"], params, meta["epoch"],
                      meta["config_hash"], meta["seed"], meta.get("extra", {}))
