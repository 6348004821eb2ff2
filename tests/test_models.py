"""Builder determinism, architecture invariants, and the row-normalization
backward pass."""

import numpy as np
import pytest

from conftest import central_diff, rel_err
from sevcon.models import (
    build_autoencoder,
    build_backbone,
    build_classifier_head,
    build_projection_head,
    normalize_rows_backward,
)
from sevcon.numerics import ShapeError, params_checksum

RNG = np.random.default_rng(3)


def test_builders_deterministic_in_seed():
    a1 = build_autoencoder(32, 16, seed=5)
    a2 = build_autoencoder(32, 16, seed=5)
    a3 = build_autoencoder(32, 16, seed=6)
    assert params_checksum(a1.param_dict()) == params_checksum(a2.param_dict())
    assert params_checksum(a1.param_dict()) != params_checksum(a3.param_dict())
    b1 = build_backbone(32, 64, seed=5)
    b2 = build_backbone(32, 64, seed=5)
    assert params_checksum(b1.param_dict()) == params_checksum(b2.param_dict())


@pytest.mark.parametrize("side", [32, 64])
def test_autoencoder_shapes_and_range(side):
    model = build_autoencoder(side, 8, seed=0)
    x = RNG.random(size=(2, 1, side, side))
    out = model.forward(x)
    assert out.shape == x.shape
    assert np.all(out > 0.0) and np.all(out < 1.0)  # sigmoid output


def test_autoencoder_rejects_bad_config():
    with pytest.raises(ValueError):
        build_autoencoder(48, 8, seed=0)
    with pytest.raises(ValueError):
        build_autoencoder(32, 2, seed=0)


def test_decoder_weight_layers_are_the_parameterized_ones():
    model = build_autoencoder(32, 8, seed=0)
    idxs = model.decoder_weight_layers()
    assert len(idxs) == 4  # dense + three convs
    for i in idxs:
        assert "w" in model.decoder.layers[i].params
    for i in range(len(model.decoder.layers)):
        if i not in idxs:
            assert "w" not in model.decoder.layers[i].params


def test_param_dict_round_trip():
    model = build_autoencoder(32, 8, seed=0)
    params = {k: v.copy() for k, v in model.param_dict().items()}
    other = build_autoencoder(32, 8, seed=99)
    assert params_checksum(other.param_dict()) != params_checksum(model.param_dict())
    other.load_param_dict(params)
    assert params_checksum(other.param_dict()) == params_checksum(model.param_dict())


def test_load_param_dict_shape_error():
    model = build_autoencoder(32, 8, seed=0)
    bad = {k: np.zeros(v.shape + (1,)) for k, v in list(model.param_dict().items())[:1]}
    with pytest.raises(ShapeError):
        model.load_param_dict(bad)


def test_backbone_and_heads_shapes():
    bb = build_backbone(32, 64, seed=0)
    x = RNG.random(size=(3, 1, 32, 32))
    r = bb.forward(x)
    assert r.shape == (3, 64)
    assert bb.layers[-1].n_out == 64
    single = bb.forward(x[:1])
    assert single.shape == (1, 64)
    assert np.allclose(single[0], r[0])

    head = build_projection_head(64, 32, seed=1)
    assert head.forward(r).shape == (3, 32)
    assert head.layers[-1].n_out == 32

    clf = build_classifier_head(64, 5, seed=2)
    logits = clf.forward(r)
    assert logits.shape == (3, 5)


def test_normalize_rows_backward_matches_fd():
    u = RNG.normal(size=(4, 6)) + 0.5
    w = RNG.normal(size=(4, 6))

    def f(uv):
        zv = uv / np.linalg.norm(uv, axis=1, keepdims=True)
        return float((zv * w).sum())

    z = u / np.linalg.norm(u, axis=1, keepdims=True)
    du = normalize_rows_backward(u, z, w)
    num = central_diff(f, u.copy())
    assert rel_err(du, num) < 1e-7


def test_autoencoder_backward_checks_its_forward():
    model = build_autoencoder(32, 8, seed=0)
    x = RNG.random(size=(5, 1, 32, 32))
    with pytest.raises(RuntimeError):
        model.backward(np.zeros_like(x))
    xhat = model.forward(x)
    with pytest.raises(ShapeError):  # a block's rows would be dropped or cut
        model.backward(np.zeros_like(xhat[:4]))
    assert model.backward(np.ones_like(xhat)) is None  # no image gradient
