"""Deterministic synthetic OCT-like image generator.

Images are horizontal layered stripes with noise; five lesion types stand in
for five biomarkers: fluid blob (bio_a), bright focus (bio_b), detachment
line (bio_c), thickening (bio_d), epiretinal band (bio_e). Ground-truth
severity is the total lesion count; the multi-hot biomarker vector marks
which lesion types are present.

On disk a split is one directory of three files; see `save_dataset`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open
from .config import DataSection
from .numerics import Array

LESION_TYPES = ("fluid_blob", "bright_focus", "detachment_line",
                "thickening", "epiretinal_band")
BIOMARKER_NAMES = ("bio_a", "bio_b", "bio_c", "bio_d", "bio_e")
N_BIOMARKERS = len(BIOMARKER_NAMES)

FORMAT_VERSION = 2  # of data/<split>/manifest.json


@dataclass
class GroundTruth:
    severity: int
    biomarkers: Array  # (5,) multi-hot int

    def __post_init__(self):
        present = int(np.asarray(self.biomarkers).sum()) > 0
        if (self.severity == 0) == present:
            raise ValueError("severity must be 0 exactly when no biomarker is present")


@dataclass
class Dataset:
    sample_ids: list[str]
    images: Array  # (N, 1, side, side)
    ground_truth: list[GroundTruth] | None = None

    def __len__(self):
        return len(self.sample_ids)

    def training_view(self) -> "Dataset":
        """The dataset as exposed to training code: no ground-truth fields."""
        return Dataset(list(self.sample_ids), self.images, None)

    def multihot(self) -> Array:
        if self.ground_truth is None:
            raise ValueError("dataset has no ground truth")
        return np.stack([gt.biomarkers for gt in self.ground_truth]).astype(np.float64)

    def severities(self) -> Array:
        if self.ground_truth is None:
            raise ValueError("dataset has no ground truth")
        return np.array([gt.severity for gt in self.ground_truth], dtype=np.int64)


@dataclass
class Lesion:
    kind: int  # index into LESION_TYPES
    params: dict = field(default_factory=dict)


def _sample_seed(seed: int, namespace: str, index: int, stream: str) -> int:
    digest = hashlib.sha256(f"{seed}:{namespace}:{index}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# Images rendered per chunk. The stripe sum then runs as a few numpy calls
# per chunk instead of per image, while a chunk's (64, side, side) float64
# temporaries (0.5 MB at side 32) stay small next to a split.
CHUNK = 64


def _render_chunk(data: DataSection, seed: int, namespace: str, first: int,
                  lesion_lists: list[list[Lesion]]) -> Array:
    """Images ``first, first + 1, ...`` of a split, (m, side, side) unclipped.

    Each image keeps its own ``structure`` stream: its tilt and bow, then
    (offset, width, gain) per stripe, are drawn by one ``uniform`` call, and
    its noise after them. The stripes are summed over the chunk in the order
    of a one-image render, so every pixel is bitwise what that render gives.
    """
    side, m, n_stripes = data.image_side, len(lesion_lists), data.n_stripes
    lows = [-1.0, 0.0] + [-0.5, 1.0, 0.85] * n_stripes
    highs = [1.0, 1.5] + [0.5, 1.3, 1.0] * n_stripes
    draws = np.empty((m, len(lows)))
    noise = np.empty((m, side, side))
    for j in range(m):
        rng = np.random.default_rng(_sample_seed(seed, namespace, first + j, "structure"))
        draws[j] = rng.uniform(lows, highs)
        noise[j] = rng.normal(0.0, data.noise_std, size=(side, side))
    yy = np.arange(side)[:, None]
    xx = np.arange(side)[None, :]
    img = np.empty((m, side, side))
    img[:] = 0.05 + 0.10 * (yy / side)
    slope = 2 * xx / side - 1.0
    sag = np.sin(np.pi * xx / side)
    tilt, bow = draws[:, 0, None, None], draws[:, 1, None, None]
    centers = np.linspace(side * 0.15, side * 0.85, n_stripes)
    for s, c in enumerate(centers):
        offset, width, gain = draws[:, 2 + 3 * s:5 + 3 * s].T[:, :, None, None]
        # a Python float per image: numpy's array square can differ from pow
        spread = np.array([2 * w ** 2 for w in width.ravel().tolist()])[:, None, None]
        curve = c + offset + tilt * slope + bow * sag
        img = img + data.stripe_contrast * gain * np.exp(-((yy - curve) ** 2) / spread)
    img += noise
    for j, lesions in enumerate(lesion_lists):
        for lesion in lesions:
            img[j] = _apply_lesion(img[j], lesion)
    return img


def _draw_lesion(kind: int, side: int, rng: np.random.Generator) -> Lesion:
    p: dict = {}
    if kind == 0:  # fluid_blob: dark ellipse
        p = {"cy": rng.uniform(0.25, 0.75) * side, "cx": rng.uniform(0.2, 0.8) * side,
             "ry": rng.uniform(2.5, 5.0), "rx": rng.uniform(3.0, 6.0),
             "value": rng.uniform(0.02, 0.08)}
    elif kind == 1:  # bright_focus: small bright disk
        p = {"cy": rng.uniform(0.2, 0.8) * side, "cx": rng.uniform(0.1, 0.9) * side,
             "r": rng.uniform(1.0, 2.0), "value": rng.uniform(0.85, 0.95)}
    elif kind == 2:  # detachment_line: thin bright arc across the width
        p = {"row": rng.uniform(0.3, 0.7) * side, "amp": rng.uniform(1.0, 3.0),
             "phase": rng.uniform(0.0, 2 * np.pi), "value": rng.uniform(0.8, 0.9)}
    elif kind == 3:  # thickening: brightened rectangular band
        p = {"y0": int(rng.integers(int(0.2 * side), int(0.7 * side))),
             "x0": int(rng.integers(0, side - side // 3)),
             "h": int(rng.integers(3, 6)), "w": side // 3 + int(rng.integers(0, side // 4)),
             "boost": rng.uniform(0.25, 0.4)}
    elif kind == 4:  # epiretinal_band: thin bright line near the top
        p = {"row": rng.uniform(0.04, 0.16) * side, "value": rng.uniform(0.8, 0.9)}
    else:
        raise ValueError(f"unknown lesion kind {kind}")
    return Lesion(kind, p)


def _apply_lesion(img: Array, lesion: Lesion) -> Array:
    side = img.shape[0]
    yy = np.arange(side)[:, None]
    xx = np.arange(side)[None, :]
    p = lesion.params
    out = img
    if lesion.kind == 0:
        d = ((yy - p["cy"]) / p["ry"]) ** 2 + ((xx - p["cx"]) / p["rx"]) ** 2
        mask = np.clip(1.5 * (1.0 - d), 0.0, 1.0)
        out = out * (1 - mask) + mask * p["value"]
    elif lesion.kind == 1:
        d = np.sqrt((yy - p["cy"]) ** 2 + (xx - p["cx"]) ** 2)
        mask = np.clip(p["r"] + 0.5 - d, 0.0, 1.0)
        out = out * (1 - mask) + mask * p["value"]
    elif lesion.kind == 2:
        curve = p["row"] + p["amp"] * np.sin(2 * np.pi * xx / side + p["phase"])
        mask = np.clip(1.2 - np.abs(yy - curve), 0.0, 1.0)
        out = out * (1 - mask) + mask * p["value"]
    elif lesion.kind == 3:
        out = out.copy()
        y0, x0 = p["y0"], p["x0"]
        out[y0:y0 + p["h"], x0:x0 + p["w"]] += p["boost"]
    elif lesion.kind == 4:
        mask = np.clip(1.2 - np.abs(yy - p["row"]), 0.0, 1.0) * np.ones((1, side))
        out = out * (1 - mask) + mask * p["value"]
    return out


def _render(data: DataSection, seed: int, namespace: str, first: int,
            lesion_lists: list[list[Lesion]]) -> Array:
    """Images ``first, first + 1, ...`` of a split, (n, 1, side, side) in
    [0, 1], rendered a chunk at a time."""
    side = data.image_side
    images = np.empty((len(lesion_lists), 1, side, side))
    for start in range(0, len(lesion_lists), CHUNK):
        chunk = _render_chunk(data, seed, namespace, first + start,
                              lesion_lists[start:start + CHUNK])
        np.clip(chunk, 0.0, 1.0, out=images[start:start + CHUNK, 0])
    return images


def render_sample(data: DataSection, seed: int, namespace: str, index: int,
                  lesions: list[Lesion]) -> Array:
    """Pure render of one sample; structure noise is independent of lesions,
    so the lesion-free render of the same (namespace, index) is comparable."""
    return _render(data, seed, namespace, index, [lesions])[0]


def _lesions_to_gt(lesions: list[Lesion]) -> GroundTruth:
    bio = np.zeros(N_BIOMARKERS, dtype=np.int64)
    for lesion in lesions:
        bio[lesion.kind] = 1
    return GroundTruth(severity=len(lesions), biomarkers=bio)


def _make_samples(data: DataSection, seed: int, namespace: str,
                  lesion_lists: list[list[Lesion]]) -> Dataset:
    ids = [f"{namespace}_{i:05d}" for i in range(len(lesion_lists))]
    images = _render(data, seed, namespace, 0, lesion_lists)
    gts = [_lesions_to_gt(lesions) for lesions in lesion_lists]
    return Dataset(ids, images, gts)


def _random_lesions(data: DataSection, seed: int, namespace: str, index: int,
                    kinds: list[int]) -> list[Lesion]:
    rng = np.random.default_rng(_sample_seed(seed, namespace, index, "lesions"))
    return [_draw_lesion(k, data.image_side, rng) for k in kinds]


def generate_healthy(data: DataSection, seed: int) -> Dataset:
    """``data.n_healthy`` lesion-free images."""
    return _make_samples(data, seed, "healthy", [[] for _ in range(data.n_healthy)])


def _mixed_plan(data: DataSection, seed: int, namespace: str, i: int) -> list[Lesion]:
    """Severity uniform over {0..data.severity_max}; lesion types independent
    per lesion."""
    rng = np.random.default_rng(_sample_seed(seed, namespace, i, "plan"))
    k = int(rng.integers(0, data.severity_max + 1))
    kinds = [int(rng.integers(0, N_BIOMARKERS)) for _ in range(k)]
    return _random_lesions(data, seed, namespace, i, kinds)


def generate_unlabeled(data: DataSection, seed: int) -> Dataset:
    """``data.n_unlabeled`` images of mixed severity. Ground truth rides along
    but training code should consume ``training_view()``."""
    return _make_samples(data, seed, "unlabeled",
                         [_mixed_plan(data, seed, "unlabeled", i)
                          for i in range(data.n_unlabeled)])


def generate_labeled_splits(data: DataSection, seed: int) -> dict[str, Dataset]:
    """The labeled splits by directory name, all id-disjoint: the train set
    ``labeled_train``, five balanced binary test sets ``test_<biomarker>``
    (50/50 biomarker present/absent), and a multi-label ``test_multilabel``."""
    n_test_per_biomarker = data.n_test_per_biomarker
    if n_test_per_biomarker % 2 != 0:
        raise ValueError("n_test_per_biomarker must be even for balanced sets")
    plans = [_mixed_plan(data, seed, "train", i) for i in range(data.n_labeled_train)]
    splits = {"labeled_train": _make_samples(data, seed, "train", plans)}
    half = n_test_per_biomarker // 2
    for j, name in enumerate(BIOMARKER_NAMES):
        ns = f"test_{name}"
        lesion_lists = []
        for i in range(n_test_per_biomarker):
            rng = np.random.default_rng(_sample_seed(seed, ns, i, "plan"))
            others = [t for t in range(N_BIOMARKERS) if t != j]
            if i < half:  # positives: biomarker j plus 0-2 other lesions
                kinds = [j] + [others[int(rng.integers(0, len(others)))]
                               for _ in range(int(rng.integers(0, 3)))]
            else:  # negatives: 0-3 lesions, never type j
                kinds = [others[int(rng.integers(0, len(others)))]
                         for _ in range(int(rng.integers(0, 4)))]
            lesion_lists.append(_random_lesions(data, seed, ns, i, kinds))
        splits[ns] = _make_samples(data, seed, ns, lesion_lists)
    plans = [_mixed_plan(data, seed, "test_multilabel", i)
             for i in range(data.n_multilabel_test)]
    splits["test_multilabel"] = _make_samples(data, seed, "test_multilabel", plans)
    return splits


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def save_dataset(directory: Path, dataset: Dataset, meta: dict):
    """Write ``images.npy`` ((N, 1, side, side) ``<f8`` in sample-id order),
    ``labels.csv`` when there is ground truth, then ``manifest.json`` (format
    version, sample ids, ``meta``). The old manifest and any per-image ``.bin``
    files of the format-1 layout go first, and the new manifest is renamed into
    place last, so an interrupted write leaves no manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    for stale in directory.glob("*.bin"):  # per-image files of the format-1 layout
        stale.unlink()
    np.save(directory / "images.npy", np.asarray(dataset.images, dtype="<f8"))
    if dataset.ground_truth is not None:
        with open(directory / "labels.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["sample_id", *BIOMARKER_NAMES, "severity"])
            for sid, gt in zip(dataset.sample_ids, dataset.ground_truth):
                writer.writerow([sid, *(int(b) for b in gt.biomarkers), gt.severity])
    manifest = {"format_version": FORMAT_VERSION, "sample_ids": dataset.sample_ids, **meta}
    with atomic_open(manifest_path) as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True))


def load_dataset(directory: Path) -> Dataset:
    """Read a split that `save_dataset` wrote. Another format version, not
    one float64 (1, side, side) image per sample id, or a non-finite pixel is
    a ``ValueError``; a missing or corrupt file raises its reader's
    OSError/EOFError/ValueError."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{directory}: dataset format version "
                         f"{manifest.get('format_version')}, expected {FORMAT_VERSION}")
    ids = manifest["sample_ids"]
    images = np.load(directory / "images.npy")
    if images.dtype != np.float64 or images.ndim != 4 or images.shape[:2] != (len(ids), 1):
        raise ValueError(f"{directory}: images.npy holds {images.dtype} {images.shape}, "
                         f"expected float64 ({len(ids)}, 1, side, side)")
    if not np.isfinite(images).all():
        raise ValueError(f"{directory}: images.npy holds non-finite pixels")
    gts = None
    labels_path = directory / "labels.csv"
    if labels_path.exists():
        rows = {}
        with open(labels_path, newline="") as f:
            for row in csv.DictReader(f):
                bio = np.array([int(row[b]) for b in BIOMARKER_NAMES], dtype=np.int64)
                rows[row["sample_id"]] = GroundTruth(int(row["severity"]), bio)
        gts = [rows[sid] for sid in ids]
    return Dataset(ids, images, gts)
