"""Rank-and-bin pseudo-labeling of severity scores plus extreme-bin reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .numerics import Array, as_f64


@dataclass
class SeverityLabeling:
    n_bins: int
    labels: Array     # per-sample bin index in [0, n_bins)
    bin_sizes: Array  # per-bin counts; max - min <= 1


def assign_severity_labels(scores, n_bins: int) -> SeverityLabeling:
    """Stable ascending sort, then contiguous rank chunks form the bins.

    The first (count mod n_bins) bins receive one extra element; ties are
    broken by original index.
    """
    scores = as_f64(scores).ravel()
    n = scores.size
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not (1 <= n_bins <= n):
        raise ValueError(f"n_bins must be in [1, {n}], got {n_bins}")
    order = np.argsort(scores, kind="stable")
    base, extra = divmod(n, n_bins)
    bin_sizes = np.full(n_bins, base, dtype=np.int64)
    bin_sizes[:extra] += 1
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for b, size in enumerate(bin_sizes):
        labels[order[start:start + size]] = b
        start += size
    return SeverityLabeling(n_bins, labels, bin_sizes)


def extreme_bin_report(labeling: SeverityLabeling, images: Array, k: int,
                       seed: int = 0) -> dict:
    """Sample k ids from the lowest and highest severity bins (seeded) and
    build a contact-sheet pixel grid: low-bin row on top, high-bin row below."""
    if k > labeling.bin_sizes.min():
        raise ValueError(f"k={k} exceeds smallest bin size {labeling.bin_sizes.min()}")
    rng = np.random.default_rng(seed)
    low_ids = np.flatnonzero(labeling.labels == 0)
    high_ids = np.flatnonzero(labeling.labels == labeling.n_bins - 1)
    low_pick = np.sort(rng.choice(low_ids, size=k, replace=False))
    high_pick = np.sort(rng.choice(high_ids, size=k, replace=False))

    side = images.shape[-1]
    sheet = np.zeros((2 * side, k * side))
    for col, idx in enumerate(low_pick):
        sheet[:side, col * side:(col + 1) * side] = images[idx][0]
    for col, idx in enumerate(high_pick):
        sheet[side:, col * side:(col + 1) * side] = images[idx][0]
    return {
        "low_bin_ids": [int(i) for i in low_pick],
        "high_bin_ids": [int(i) for i in high_pick],
        "seed": seed,
        "contact_sheet": sheet,
    }


def write_pgm(path, image: Array):
    """8-bit binary PGM; input pixels are clipped to [0, 1]."""
    pix = np.clip(image, 0.0, 1.0)
    data = np.round(pix * 255.0).astype(np.uint8)
    h, w = data.shape
    with atomic_open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())
