"""Config parsing, strict key checking, hashing, and seed derivation."""

import pytest

from sevcon.config import ConfigError, ExperimentConfig, load_config


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
    path.write_text("[gradcon]\nconstraint_in_update = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[gradcon]\nconstraint_in_update = off\n")
    assert load_config(path).gradcon.constraint_in_update is False


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
