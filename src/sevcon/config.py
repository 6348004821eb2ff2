"""Experiment configuration: one INI file with typed sections, strict key
checking, a stable config hash, and per-stage seed derivation.

Each setting's default and range are declared once, on its dataclass field
(`_setting`). `load_config` holds every numeric setting to its declared
bounds, every float to a finite value, and then checks the few rules that
are not ranges or that span keys."""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path

from .checkpoint import atomic_open
from .models import SUPPORTED_SIDES


class ConfigError(ValueError):
    """Bad or inconsistent configuration (CLI exit code 2)."""


_BOUNDS = {"ge": ("at least", operator.ge), "gt": ("above", operator.gt),
           "le": ("at most", operator.le), "lt": ("below", operator.lt)}


def _setting(default, **bounds):
    """A field whose value `load_config` holds to `bounds`: any of ge, gt, le
    and lt, each the limit of that comparison."""
    return field(default=default, metadata=bounds)


@dataclass
class DataSection:
    image_side: int = 32  # one of models.SUPPORTED_SIDES
    n_stripes: int = _setting(6, ge=0)
    stripe_contrast: float = 0.55
    noise_std: float = _setting(0.03, ge=0)
    # every split needs a sample and the lesion-bearing ones a lesion
    n_healthy: int = _setting(600, ge=1)
    n_unlabeled: int = _setting(2000, ge=2)  # a SupCon step needs two sources
    severity_max: int = _setting(4, ge=1)
    n_labeled_train: int = _setting(100, ge=1)
    n_test_per_biomarker: int = _setting(200, ge=2)  # and even: half positive
    n_multilabel_test: int = _setting(400, ge=1)


@dataclass
class GradconSection:
    alpha: float = _setting(0.03, ge=0)
    epochs: int = _setting(20, ge=1)
    batch_size: int = _setting(32, ge=1)
    learning_rate: float = _setting(0.02, ge=0)
    # Learning rate for the first epoch only. A hotter first epoch moves the
    # model out of the initial regime where every image produces nearly the
    # same gradient; afterwards the lower rate keeps the constraint stable.
    warmup_learning_rate: float = _setting(0.07, ge=0)
    momentum: float = _setting(0.9, ge=0, lt=1)
    latent_dim: int = _setting(32, ge=4)
    heldout_count: int = _setting(64, ge=0)  # 0 turns the held-out alignment off


@dataclass
class LabelingSection:
    n_bins: int = _setting(250, ge=1)
    report_bins: str = "250,500,1000"
    extreme_report_k: int = _setting(8, ge=1)  # one image per extreme bin

    def report_bin_list(self) -> list[int]:
        return [int(tok) for tok in self.report_bins.split(",") if tok.strip()]


@dataclass
class ContrastiveSection:
    tau: float = _setting(0.07, gt=0)
    batch_size: int = _setting(64, ge=2)  # a SupCon step needs two sources
    epochs: int = _setting(40, ge=0)
    learning_rate: float = _setting(1e-3, ge=0)
    momentum: float = _setting(0.9, ge=0, lt=1)
    embedding_dim: int = _setting(64, ge=1)
    projection_dim: int = _setting(32, ge=1)
    # area fractions of the random resized crop, min <= max
    crop_scale_min: float = _setting(0.85, gt=0, le=1)
    crop_scale_max: float = _setting(1.0, gt=0, le=1)
    flip_prob: float = _setting(0.5, ge=0, le=1)
    # augment draws each jitter as uniform(-j, j) and divides by the std
    brightness_jitter: float = _setting(0.05, ge=0)
    contrast_jitter: float = _setting(0.05, ge=0)
    normalize_mean: float = 0.5
    normalize_std: float = _setting(0.5, gt=0)
    balanced_sampler: bool = False  # sample B/2 bins x 2 images per step


@dataclass
class ProbeSection:
    epochs: int = _setting(200, ge=0)
    batch_size: int = _setting(64, ge=1)
    learning_rate: float = _setting(0.1, ge=0)
    momentum: float = _setting(0.9, ge=0, lt=1)


@dataclass
class BaselinesSection:
    classifier_epochs: int = _setting(15, ge=0)
    classifier_batch_size: int = _setting(64, ge=1)
    classifier_learning_rate: float = _setting(1e-3, ge=0)
    classifier_momentum: float = _setting(0.9, ge=0, lt=1)
    odin_temperature: float = _setting(1000.0, gt=0)
    odin_epsilon: float = _setting(0.0014, ge=0)
    mahalanobis_epsilon: float = _setting(1e-3, ge=0)


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
    # each numeric setting within the bounds declared on its field, and finite
    for sec_name in _SECTION_TYPES:
        section = getattr(cfg, sec_name)
        for f in fields(section):
            value = getattr(section, f.name)
            rule = [f"{_BOUNDS[op][0]} {limit}" for op, limit in f.metadata.items()]
            ok = all(_BOUNDS[op][1](value, limit) for op, limit in f.metadata.items())
            if isinstance(value, float):
                rule.insert(0, "finite")
                ok = ok and math.isfinite(value)
            if not ok:
                raise ConfigError(f"{sec_name}.{f.name} {value} must be {', '.join(rule)}")
    try:
        if any(n < 1 for n in cfg.labeling.report_bin_list()):
            raise ValueError
    except ValueError:
        raise ConfigError(f"labeling.report_bins {cfg.labeling.report_bins!r} is not "
                          "a comma-separated list of positive bin counts") from None
    if cfg.data.n_test_per_biomarker % 2:
        raise ConfigError(f"data.n_test_per_biomarker {cfg.data.n_test_per_biomarker} "
                          "must be even: each binary test set is half positive")
    c = cfg.contrastive
    if c.crop_scale_min > c.crop_scale_max:
        raise ConfigError(f"contrastive.crop_scale_min {c.crop_scale_min} must be at most "
                          f"crop_scale_max {c.crop_scale_max}")
    if cfg.data.image_side not in SUPPORTED_SIDES:
        raise ConfigError(f"data.image_side {cfg.data.image_side} is unsupported; "
                          f"supported: {SUPPORTED_SIDES}")
    return cfg
