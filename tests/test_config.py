"""Config parsing, strict key checking, hashing, and seed derivation."""

import math
from dataclasses import fields

import pytest

from sevcon.config import _SECTION_TYPES, ConfigError, ExperimentConfig, load_config

# settings without a declared range: image_side is checked against
# SUPPORTED_SIDES, the other two take any finite value
UNBOUNDED = {("data", "image_side"), ("data", "stripe_contrast"),
             ("contrastive", "normalize_mean")}


def numeric_fields():
    for sec_name, section in _SECTION_TYPES.items():
        for f in fields(section):
            if type(f.default) in (int, float):
                yield sec_name, f


def test_defaults_round_trip(tmp_path):
    cfg = ExperimentConfig()
    path = tmp_path / "c.ini"
    cfg.save(path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_partial_config_overrides_only_named_keys(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nseed = 99\n\n[gradcon]\nalpha = 0.5\n")
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.gradcon.alpha == 0.5
    assert cfg.gradcon.epochs == ExperimentConfig().gradcon.epochs


def test_unknown_section_and_key_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)
    path.write_text("[gradcon]\nnot_a_key = 1\n")
    with pytest.raises(ConfigError, match="unknown key gradcon.not_a_key"):
        load_config(path)
    path.write_text("[experiment]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key experiment.bogus"):
        load_config(path)


def test_type_errors_and_bool_parsing(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[gradcon]\nepochs = lots\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)
    path.write_text("[contrastive]\nbalanced_sampler = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[contrastive]\nbalanced_sampler = on\n")
    assert load_config(path).contrastive.balanced_sampler is True


def test_unsupported_image_side_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[data]\nimage_side = 48\n")
    with pytest.raises(ConfigError, match="image_side 48"):
        load_config(path)
    path.write_text("[data]\nimage_side = 64\n")
    assert load_config(path).data.image_side == 64


def test_too_few_sources_to_pair_rejected(tmp_path):
    """A contrastive batch or unlabeled corpus below 2 would pretrain nothing."""
    path = tmp_path / "c.ini"
    path.write_text("[contrastive]\nbatch_size = 1\n")
    with pytest.raises(ConfigError, match="contrastive.batch_size 1"):
        load_config(path)
    path.write_text("[data]\nn_unlabeled = 1\n")
    with pytest.raises(ConfigError, match="data.n_unlabeled 1"):
        load_config(path)
    path.write_text("[contrastive]\nbatch_size = 2\n[data]\nn_unlabeled = 2\n")
    cfg = load_config(path)
    assert (cfg.contrastive.batch_size, cfg.data.n_unlabeled) == (2, 2)


def test_training_settings_validated(tmp_path):
    """Batches of at least one image, at least one gradcon epoch, SGD rates
    >= 0 and momenta in [0, 1), in every section that has them."""
    path = tmp_path / "c.ini"
    for section, key, value in [("gradcon", "epochs", "0"),
                                ("gradcon", "batch_size", "0"),
                                ("probe", "batch_size", "-3"),
                                ("baselines", "classifier_batch_size", "0"),
                                ("gradcon", "warmup_learning_rate", "-0.1"),
                                ("probe", "learning_rate", "nan"),
                                ("baselines", "classifier_learning_rate", "-1e-3"),
                                ("contrastive", "momentum", "1.0"),
                                ("baselines", "classifier_momentum", "-0.1")]:
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{section}.{key} "):
            load_config(path)
    path.write_text("[gradcon]\nepochs = 1\nbatch_size = 1\nlearning_rate = 0\n"
                    "momentum = 0\n[probe]\nmomentum = 0.99\n")
    cfg = load_config(path)
    assert (cfg.gradcon.epochs, cfg.gradcon.batch_size, cfg.probe.momentum) == (1, 1, 0.99)


def test_every_numeric_setting_declares_a_range():
    declared = {(sec_name, f.name) for sec_name, f in numeric_fields() if f.metadata}
    numeric = {(sec_name, f.name) for sec_name, f in numeric_fields()}
    assert numeric - declared == UNBOUNDED
    assert all(set(f.metadata) <= {"ge", "gt", "le", "lt"} for _, f in numeric_fields())


def outside(op, limit, typ):
    """The value nearest to `limit` that breaks the bound `op`."""
    if op in ("gt", "lt"):
        return limit
    step = -1 if op == "ge" else 1
    return limit + step if typ is int else math.nextafter(limit, step * math.inf)


def test_each_declared_bound_and_non_finite_value_rejected(tmp_path):
    path = tmp_path / "c.ini"
    for sec_name, f in numeric_fields():
        cases = [outside(op, limit, type(f.default)) for op, limit in f.metadata.items()]
        if type(f.default) is float:
            cases += [math.nan, math.inf, -math.inf]
        for value in cases:
            path.write_text(f"[{sec_name}]\n{f.name} = {value!r}\n")
            with pytest.raises(ConfigError, match=f"^{sec_name}.{f.name} "):
                load_config(path)
        path.write_text(f"[{sec_name}]\n{f.name} = {f.default!r}\n")
        assert getattr(load_config(path), sec_name) == _SECTION_TYPES[sec_name]()


def test_default_config_hash_is_pinned():
    """Run directories, checkpoints and CSVs carry this hash: moving a
    default, or its text in the INI, would orphan all of them."""
    assert ExperimentConfig().config_hash() == "818f84bec99aeede"


def test_malformed_ini(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("not an ini file [ at all\n= 3")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_config_hash_sensitivity():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    b.contrastive.tau = 0.08
    assert a.config_hash() != b.config_hash()
    b.contrastive.tau = a.contrastive.tau
    b.seed = a.seed + 1
    assert a.config_hash() != b.config_hash()


def test_derive_seed_stable_and_stage_dependent():
    cfg = ExperimentConfig()
    s1 = cfg.derive_seed("gradcon-train")
    assert s1 == cfg.derive_seed("gradcon-train")
    assert s1 != cfg.derive_seed("pretrain-train")
    other = ExperimentConfig(seed=cfg.seed + 1)
    assert s1 != other.derive_seed("gradcon-train")


def test_report_bin_list():
    cfg = ExperimentConfig()
    cfg.labeling.report_bins = "10, 20,30"
    assert cfg.labeling.report_bin_list() == [10, 20, 30]
