"""Every config the loader accepts runs clean: a property test drawn from the
range each setting declares on its field (``config._setting``).

Each example starts from the quick-demo config (``scripts/quick_demo.sh``),
sets one to three settings to values within their declared bounds, the
bounds themselves included, keeps the rules that span keys, and runs every
stage in-process through ``cli.main``. No exception may escape, and every
exit code is 0, 2, 3 or 4. ``gen-data`` accepts the config, and a stage
exits 3 (a missing or refused artifact) only after an earlier stage failed,
so the strict readers never refuse what an upstream stage wrote. No stage
leaves a non-finite checkpoint or a score column that cannot rank.
"""

import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sevcon.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_NUMERIC, EXIT_OK, SCORERS, main
from sevcon.config import _SECTION_TYPES, ExperimentConfig, load_config

QUICK_DEMO = {"data": dict(n_healthy=24, n_unlabeled=40, n_labeled_train=20,
                           n_test_per_biomarker=8, n_multilabel_test=16),
              "gradcon": dict(epochs=1, heldout_count=4),
              "labeling": dict(n_bins=8, extreme_report_k=2),
              "contrastive": dict(epochs=1), "probe": dict(epochs=5),
              "baselines": dict(classifier_epochs=1)}
# Drawn at most: a corpus size or an epoch count its quick-demo value, and a
# layer width, stripe count or lesion count these, so that an example takes
# about a second. Other integers go up to INT_HIGH, and a float with no upper
# bound up to FLOAT_HIGH.
CAPS = {"data.n_stripes": 12, "data.severity_max": 33, "gradcon.latent_dim": 64,
        "contrastive.embedding_dim": 64, "contrastive.projection_dim": 64,
        **{f"{sec_name}.{key}": value for sec_name, values in QUICK_DEMO.items()
           for key, value in values.items() if sec_name == "data" or "epochs" in key}}
INT_HIGH = 10**6
FLOAT_HIGH = 1e300
FIXED = {"data.image_side", "labeling.report_bins"}  # 32, and the drawn n_bins


def quick_demo() -> ExperimentConfig:
    cfg = ExperimentConfig(seed=5)
    for sec_name, values in QUICK_DEMO.items():
        for key, value in values.items():
            setattr(getattr(cfg, sec_name), key, value)
    return cfg


def _setting_values(sec_name: str, f) -> st.SearchStrategy:
    """Values within the field's declared bounds, the bounds and the largest
    values drawn included."""
    key, default, bounds = f"{sec_name}.{f.name}", f.default, f.metadata
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        low = bounds["ge"]
        high = CAPS.get(key, INT_HIGH)
        if key == "data.n_test_per_biomarker":  # even: each binary test set is half positive
            return st.integers(low // 2, high // 2).map(lambda k: 2 * k)
        return st.sampled_from([low, high]) | st.integers(low, high)
    low = bounds.get("ge", bounds.get("gt", -FLOAT_HIGH))
    high = bounds.get("le", bounds.get("lt", FLOAT_HIGH))
    edges = [math.nextafter(low, math.inf) if "gt" in bounds else low,
             math.nextafter(high, -math.inf) if "lt" in bounds else high]
    return st.sampled_from(edges) | st.floats(
        low, high, exclude_min="gt" in bounds, exclude_max="lt" in bounds,
        allow_nan=False, allow_infinity=False)


SETTINGS = {f"{sec_name}.{f.name}": _setting_values(sec_name, f)
            for sec_name, section in _SECTION_TYPES.items() for f in fields(section)
            if f"{sec_name}.{f.name}" not in FIXED}


@st.composite
def configs(draw) -> ExperimentConfig:
    """The quick-demo config with one to three settings drawn, and the seed."""
    cfg = quick_demo()
    cfg.seed = draw(st.integers(0, 2**32))
    for key in draw(st.lists(st.sampled_from(sorted(SETTINGS)), min_size=1, max_size=3,
                             unique=True)):
        sec_name, name = key.split(".")
        setattr(getattr(cfg, sec_name), name, draw(SETTINGS[key]))
    c = cfg.contrastive
    c.crop_scale_min = min(c.crop_scale_min, c.crop_scale_max)
    cfg.labeling.report_bins = str(cfg.labeling.n_bins)
    return cfg


def stages(cfg: ExperimentConfig) -> list[list[str]]:
    """Every stage once, in pipeline order, at the config's bin count."""
    bins = str(cfg.labeling.n_bins)
    tag = f"severity_b{bins}"
    return [["gen-data"], ["train-gradcon"], *(["score", "--scorer", s] for s in SCORERS),
            ["make-labels", "--bins", bins], ["pretrain", "--bins", bins],
            ["pretrain", "--mode", "simclr"], ["pretrain", "--mode", "random"],
            ["probe", "--task", "bio_a", "--tag", tag],
            ["probe", "--task", "multilabel", "--tag", tag],
            ["evaluate", "--tag", tag], ["ablate", "--bins", bins], ["report"]]


def check_outputs(run: Path):
    """Every checkpoint is finite, and every score column is finite and not
    all ties."""
    for path in run.rglob("*.npz"):
        with np.load(path) as data:
            for name in data.files:
                assert name == "meta" or np.isfinite(data[name]).all(), (path, name)
    for path in run.glob("scores/*.csv"):
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        scores = np.array([float(row.rsplit(",", 1)[1]) for row in rows[1:]])
        assert np.isfinite(scores).all(), path
        assert len(scores) < 2 or scores.min() < scores.max(), path


def run_pipeline(cfg: ExperimentConfig) -> list[int]:
    """Each stage's exit code, with the properties above checked."""
    with tempfile.TemporaryDirectory() as tmp:
        ini, run = Path(tmp) / "fuzz.ini", Path(tmp) / "run"
        cfg.save(ini)
        assert load_config(ini) == cfg
        codes = []
        for args in stages(cfg):
            code = main(["--run-dir", str(run), *(["--config", str(ini)] if not codes else []),
                         *args])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MISSING, EXIT_NUMERIC), (args, code)
            if not codes:
                assert code == EXIT_OK, "gen-data refused a config the loader accepts"
            elif code == EXIT_MISSING:
                assert max(codes) > EXIT_OK, f"{args} refused what the stages before it wrote"
            codes.append(code)
            check_outputs(run)
        return codes


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(configs())
def test_every_accepted_config_runs_clean(cfg):
    run_pipeline(cfg)
