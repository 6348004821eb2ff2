"""scripts/compare_runs.py on small hand-made run directories."""

import importlib.util
from pathlib import Path

import numpy as np

from sevcon.checkpoint import Checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "scripts" / "compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_run(root: Path, scores=(0.5, 1.0, 2.0), weights_key="decoder.3.w") -> Path:
    (root / "scores").mkdir(parents=True)
    rows = "".join(f"s{i},{v!r}\n" for i, v in enumerate(scores))
    (root / "scores" / "severity.csv").write_text(f"# seed=1\nsample_id,severity\n{rows}")
    save_checkpoint(root / "model.npz",
                    Checkpoint("autoencoder", {weights_key: np.arange(6.0).reshape(2, 3)}))
    return root


def compare(capsys, *args):
    code = load_script().main([str(a) for a in args])
    return code, capsys.readouterr().out.splitlines()


def test_identical_runs(tmp_path, capsys):
    a, b = make_run(tmp_path / "a"), make_run(tmp_path / "b")
    code, lines = compare(capsys, a, b)
    assert code == 0
    assert lines == ["model.npz: identical", "scores/severity.csv: identical",
                     "largest relative difference: 0"]


def test_numeric_drift_is_reported_with_its_relative_size(tmp_path, capsys):
    a = make_run(tmp_path / "a")
    b = make_run(tmp_path / "b", scores=(0.5, 1.0, 2.5))
    code, lines = compare(capsys, a, b)
    assert code == 0  # drift alone is not a structural mismatch
    # max|a - b| / max(max|a|, max|b|) = 0.5 / 2.5
    assert "scores/severity.csv: severity 0.2" in lines
    assert lines[-1] == "largest relative difference: 0.2 (scores/severity.csv severity)"


def test_file_in_one_run_only_exits_1(tmp_path, capsys):
    a, b = make_run(tmp_path / "a"), make_run(tmp_path / "b")
    (a / "extra.json").write_text("{}")
    code, lines = compare(capsys, a, b)
    assert code == 1
    assert f"extra.json: MISMATCH, only in {a}" in lines


def test_rename_key_maps_a_renamed_checkpoint_key(tmp_path, capsys):
    old = make_run(tmp_path / "old", weights_key="decoder.4.w")
    new = make_run(tmp_path / "new", weights_key="decoder.3.w")
    code, lines = compare(capsys, old, new)
    assert code == 1
    assert lines[0].startswith("model.npz: MISMATCH")
    code, lines = compare(capsys, old, new, "--rename-key", "decoder.4.=decoder.3.")
    assert code == 0
    assert lines[0] == "model.npz: identical"
