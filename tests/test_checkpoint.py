"""Checkpoint persistence must round-trip bitwise."""

import json

import numpy as np
import pytest

from sevcon.checkpoint import Checkpoint, atomic_open, load_checkpoint, save_checkpoint
from sevcon.cli import _write_csv
from sevcon.config import ExperimentConfig


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    params = {"enc.0.w": rng.normal(size=(3, 4)), "enc.0.b": rng.normal(size=4)}
    ckpt = Checkpoint("backbone", params, epoch=7, config_hash="deadbeef",
                      seed=123, extra={"tag": "simclr", "dims": [1, 2]})
    path = tmp_path / "c.npz"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.kind == "backbone"
    assert back.epoch == 7
    assert back.config_hash == "deadbeef"
    assert back.seed == 123
    assert back.extra == {"tag": "simclr", "dims": [1, 2]}
    for k in params:
        assert np.array_equal(back.params[k], params[k])
        assert back.params[k].tobytes() == params[k].tobytes()  # bitwise


def test_atomic_open_creates_a_missing_directory(tmp_path):
    path = tmp_path / "new" / "nested" / "out.txt"
    with atomic_open(path) as f:
        f.write("written")
    assert path.read_text() == "written"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_reads_checkpoint_with_optimizer_velocities(tmp_path):
    """Older writers also stored SGD velocities ("vel:" arrays listed under
    "optimizer_keys"); such files still load, velocities ignored."""
    w = np.arange(6.0).reshape(2, 3)
    meta = {"format_version": 1, "kind": "backbone", "epoch": 3, "config_hash": "abc",
            "seed": 4, "extra": {}, "param_keys": ["0.w"],
            "param_shapes": {"0.w": [2, 3]}, "optimizer_keys": ["0.w"]}
    path = tmp_path / "old.npz"
    with open(path, "wb") as f:
        np.savez(f, **{"param:0.w": w, "vel:0.w": -w,
                       "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)})
    back = load_checkpoint(path)
    assert (back.kind, back.epoch, back.config_hash, back.seed) == ("backbone", 3, "abc", 4)
    assert list(back.params) == ["0.w"]
    assert back.params["0.w"].tobytes() == w.tobytes()


def test_save_load_save_is_stable(tmp_path):
    params = {"w": np.linspace(0, 1, 10)}
    p1 = tmp_path / "a.npz"
    p2 = tmp_path / "b.npz"
    save_checkpoint(p1, Checkpoint("x", params))
    save_checkpoint(p2, Checkpoint("x", load_checkpoint(p1).params))
    assert load_checkpoint(p2).params["w"].tobytes() == params["w"].tobytes()


def test_format_version_check(tmp_path):
    path = tmp_path / "c.npz"
    save_checkpoint(path, Checkpoint("x", {"w": np.zeros(2)}))
    data = dict(np.load(path))
    meta = json.loads(bytes(data["meta"]).decode())
    meta["format_version"] = 999
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez(f, **data)
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_checkpoint(path)


def test_non_finite_parameters_rejected(tmp_path):
    path = tmp_path / "c.npz"
    for bad in (np.nan, np.inf, -np.inf):
        save_checkpoint(path, Checkpoint("x", {"w": np.zeros(2), "b": np.array([1.0, bad])}))
        with pytest.raises(ValueError, match="non-finite values in parameter b"):
            load_checkpoint(path)


def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch):
    """A checkpoint or CSV write that fails midway leaves the previous file
    as it was and no temporary file behind."""
    ckpt = tmp_path / "c.npz"
    save_checkpoint(ckpt, Checkpoint("backbone", {"w": np.ones(3)}))
    table = tmp_path / "t.csv"
    _write_csv(table, ["sample_id", "severity"], [["a", 0.5]], ExperimentConfig())
    before = {p: p.read_bytes() for p in (ckpt, table)}

    def cut_savez(f, **arrays):
        f.write(b"PK\x03\x04")  # the start of a zip archive
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", cut_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, Checkpoint("backbone", {"w": np.zeros(3)}))

    class Unwritable:
        def __str__(self):
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_csv(table, ["sample_id", "severity"], [["a", 0.7004825], ["b", Unwritable()]],
                   ExperimentConfig())
    assert {p: p.read_bytes() for p in (ckpt, table)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz", "t.csv"]
