"""Experiment configuration: one INI file with typed sections, strict key
checking, a stable config hash, and per-stage seed derivation."""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .checkpoint import atomic_open
from .models import SUPPORTED_SIDES


class ConfigError(ValueError):
    """Bad or inconsistent configuration (CLI exit code 2)."""


@dataclass
class DataSection:
    image_side: int = 32
    n_stripes: int = 6
    stripe_contrast: float = 0.55
    noise_std: float = 0.03
    n_healthy: int = 600
    n_unlabeled: int = 2000
    severity_max: int = 4
    n_labeled_train: int = 100
    n_test_per_biomarker: int = 200
    n_multilabel_test: int = 400


@dataclass
class GradconSection:
    alpha: float = 0.03
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.02
    # Learning rate for the first epoch only. A hotter first epoch moves the
    # model out of the initial regime where every image produces nearly the
    # same gradient; afterwards the lower rate keeps the constraint stable.
    warmup_learning_rate: float = 0.07
    momentum: float = 0.9
    latent_dim: int = 32
    heldout_count: int = 64


@dataclass
class LabelingSection:
    n_bins: int = 250
    report_bins: str = "250,500,1000"
    extreme_report_k: int = 8

    def report_bin_list(self) -> list[int]:
        return [int(tok) for tok in self.report_bins.split(",") if tok.strip()]


@dataclass
class ContrastiveSection:
    tau: float = 0.07
    batch_size: int = 64
    epochs: int = 40
    learning_rate: float = 1e-3
    momentum: float = 0.9
    embedding_dim: int = 64
    projection_dim: int = 32
    crop_scale_min: float = 0.85  # area fraction of the random resized crop
    crop_scale_max: float = 1.0
    flip_prob: float = 0.5
    brightness_jitter: float = 0.05
    contrast_jitter: float = 0.05
    normalize_mean: float = 0.5
    normalize_std: float = 0.5
    balanced_sampler: bool = False  # sample B/2 bins x 2 images per step


@dataclass
class ProbeSection:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9


@dataclass
class BaselinesSection:
    classifier_epochs: int = 15
    classifier_batch_size: int = 64
    classifier_learning_rate: float = 1e-3
    classifier_momentum: float = 0.9
    odin_temperature: float = 1000.0
    odin_epsilon: float = 0.0014
    mahalanobis_epsilon: float = 1e-3


_SECTION_TYPES = {
    "data": DataSection,
    "gradcon": GradconSection,
    "labeling": LabelingSection,
    "contrastive": ContrastiveSection,
    "probe": ProbeSection,
    "baselines": BaselinesSection,
}


@dataclass
class ExperimentConfig:
    seed: int = 1
    data: DataSection = field(default_factory=DataSection)
    gradcon: GradconSection = field(default_factory=GradconSection)
    labeling: LabelingSection = field(default_factory=LabelingSection)
    contrastive: ContrastiveSection = field(default_factory=ContrastiveSection)
    probe: ProbeSection = field(default_factory=ProbeSection)
    baselines: BaselinesSection = field(default_factory=BaselinesSection)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode()).hexdigest()[:16]

    def derive_seed(self, stage: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{stage}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        parser["experiment"] = {"seed": str(self.seed)}
        for sec_name in _SECTION_TYPES:
            parser[sec_name] = {f.name: str(getattr(getattr(self, sec_name), f.name))
                                for f in fields(getattr(self, sec_name))}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def save(self, path: Path):
        with atomic_open(path) as f:
            f.write(self.to_ini())


def _convert(raw: str, typ, key: str):
    try:
        if typ is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"key {key}: cannot parse {raw!r} as {typ.__name__}") from None


def load_config(path: Path) -> ExperimentConfig:
    """Parse an INI config; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    cfg = ExperimentConfig()
    for sec_name in parser.sections():
        if sec_name == "experiment":
            for key, raw in parser["experiment"].items():
                if key != "seed":
                    raise ConfigError(f"unknown key experiment.{key}")
                cfg.seed = _convert(raw, int, "experiment.seed")
            continue
        if sec_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{sec_name}]")
        section = getattr(cfg, sec_name)
        type_map = {f.name: type(getattr(section, f.name)) for f in fields(section)}
        for key, raw in parser[sec_name].items():
            if key not in type_map:
                raise ConfigError(f"unknown key {sec_name}.{key}")
            setattr(section, key, _convert(raw, type_map[key], f"{sec_name}.{key}"))
    try:
        if any(n < 1 for n in cfg.labeling.report_bin_list()):
            raise ValueError
    except ValueError:
        raise ConfigError(f"labeling.report_bins {cfg.labeling.report_bins!r} is not "
                          "a comma-separated list of positive bin counts") from None
    if cfg.data.n_test_per_biomarker % 2:
        raise ConfigError(f"data.n_test_per_biomarker {cfg.data.n_test_per_biomarker} "
                          "must be even: each binary test set is half positive")
    # the least value each stage runs with: every split needs a sample and the
    # lesion-bearing ones a lesion, a SupCon step needs two sources, the
    # autoencoder a latent of 4, a report one image per extreme bin
    least = {("data", "n_healthy"): 1, ("data", "n_unlabeled"): 2,
             ("data", "n_labeled_train"): 1, ("data", "n_test_per_biomarker"): 2,
             ("data", "n_multilabel_test"): 1, ("data", "severity_max"): 1,
             ("data", "n_stripes"): 0,
             ("gradcon", "epochs"): 1, ("gradcon", "latent_dim"): 4,
             ("gradcon", "heldout_count"): 0, ("labeling", "extreme_report_k"): 1,
             ("contrastive", "batch_size"): 2, ("contrastive", "embedding_dim"): 1,
             ("contrastive", "projection_dim"): 1}
    for (sec_name, key), low in least.items():
        value = getattr(getattr(cfg, sec_name), key)
        if value < low:
            raise ConfigError(f"{sec_name}.{key} {value} must be at least {low}")
    # values gen-data cannot render: a negative noise_std raises there, and a
    # NaN one writes NaN pixels that every later stage refuses
    if not 0 <= cfg.data.noise_std < math.inf:
        raise ConfigError(f"data.noise_std {cfg.data.noise_std} must be finite and "
                          "non-negative")
    if not math.isfinite(cfg.data.stripe_contrast):
        raise ConfigError(f"data.stripe_contrast {cfg.data.stripe_contrast} must be finite")
    c, b = cfg.contrastive, cfg.baselines
    for key, value in [("contrastive.tau", c.tau),
                       ("baselines.odin_temperature", b.odin_temperature)]:
        if not value > 0:
            raise ConfigError(f"{key} {value} must be positive")
    if not b.odin_epsilon >= 0:
        raise ConfigError(f"baselines.odin_epsilon {b.odin_epsilon} must be non-negative")
    # augment draws each jitter as uniform(-j, j) and divides by the std
    for key in ("brightness_jitter", "contrast_jitter"):
        if not 0 <= getattr(c, key) < math.inf:
            raise ConfigError(f"contrastive.{key} {getattr(c, key)} must be finite and "
                              "non-negative")
    if not 0 <= c.flip_prob <= 1:
        raise ConfigError(f"contrastive.flip_prob {c.flip_prob} must be in [0, 1]")
    if not math.isfinite(c.normalize_mean):
        raise ConfigError(f"contrastive.normalize_mean {c.normalize_mean} must be finite")
    if not 0 < c.normalize_std < math.inf:
        raise ConfigError(f"contrastive.normalize_std {c.normalize_std} must be finite "
                          "and positive")
    if not 0 <= cfg.gradcon.alpha < math.inf:
        raise ConfigError(f"gradcon.alpha {cfg.gradcon.alpha} must be finite and "
                          "non-negative")
    if not 0 < c.crop_scale_min <= c.crop_scale_max <= 1:
        raise ConfigError(f"contrastive.crop_scale_min {c.crop_scale_min} and crop_scale_max "
                          f"{c.crop_scale_max} must satisfy 0 < min <= max <= 1")
    # every training loop takes batches and an SGD rate and momentum
    for sec_name in _SECTION_TYPES:
        for key, value in vars(getattr(cfg, sec_name)).items():
            if key.endswith("batch_size") and value < 1:
                raise ConfigError(f"{sec_name}.{key} {value} must be at least 1")
            if key.endswith("learning_rate") and not value >= 0:
                raise ConfigError(f"{sec_name}.{key} {value} must be non-negative")
            if key.endswith("momentum") and not 0 <= value < 1:
                raise ConfigError(f"{sec_name}.{key} {value} must be in [0, 1)")
    if cfg.data.image_side not in SUPPORTED_SIDES:
        raise ConfigError(f"data.image_side {cfg.data.image_side} is unsupported; "
                          f"supported: {SUPPORTED_SIDES}")
    return cfg
