"""Builder determinism, architecture invariants, and the row-normalization
backward pass."""

import sys
import threading
import time

import numpy as np
import pytest

from conftest import central_diff, rel_err
from sevcon import models
from sevcon.models import (
    MICRO_BATCH,
    TrunkNetwork,
    _lane_count,
    build_autoencoder,
    build_backbone,
    build_classifier_head,
    build_projection_head,
    normalize_rows_backward,
)
from sevcon.numerics import (
    Conv2d,
    Dense,
    Flatten,
    Network,
    Relu,
    Reshape,
    ShapeError,
    Sigmoid,
)

from conftest import params_checksum
from test_numerics import NearestUpsample

RNG = np.random.default_rng(3)


def unfused_autoencoder(image_side, latent_dim, seed):
    """(encoder, decoder) as build_autoencoder made them with an unfused
    nearest upsample and 3x3 conv per decoder stage, and the map from each
    of this decoder's parameter keys to the fused decoder's."""
    rng = np.random.default_rng(seed)
    n_down = 2 if image_side == 32 else 3
    grid = image_side // (2 ** n_down)
    enc = [Conv2d(1, 8, rng, stride=1), Relu()]
    c = 8
    for _ in range(n_down):
        c_next = min(c * 2, 32)
        enc += [Conv2d(c, c_next, rng, stride=2), Relu()]
        c = c_next
    c_last = c
    enc += [Flatten(), Dense(c_last * grid * grid, latent_dim, rng)]
    dec = [Dense(latent_dim, c_last * grid * grid, rng), Relu(), Reshape((c_last, grid, grid))]
    # a conv that follows k upsample layers sits k places earlier once fused
    layer_map = {0: 0}
    for k in range(n_down):
        c_next = max(c // 2, 8)
        dec += [NearestUpsample(2), Conv2d(c, c_next, rng, stride=1), Relu()]
        layer_map[len(dec) - 2] = len(dec) - 2 - (k + 1)
        c = c_next
    dec += [Conv2d(c, 1, rng, stride=1), Sigmoid()]
    layer_map[len(dec) - 2] = len(dec) - 2 - n_down
    keys = {f"decoder.{old}.{n}": f"decoder.{new}.{n}"
            for old, new in layer_map.items() for n in ("w", "b")}
    return Network(enc), Network(dec), keys


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
    before = params_checksum(model.param_dict())
    bad = {k: v.copy() + 1.0 for k, v in model.param_dict().items()}
    bad["decoder.7.w"] = np.zeros(bad["decoder.7.w"].shape + (1,))
    with pytest.raises(ShapeError, match="decoder.7.w"):
        model.load_param_dict(bad)
    assert params_checksum(model.param_dict()) == before  # nothing was copied


def test_load_param_dict_requires_the_exact_key_set():
    model = build_autoencoder(32, 8, seed=0)
    before = params_checksum(model.param_dict())
    full = {k: v.copy() + 1.0 for k, v in model.param_dict().items()}
    missing = {k: v for k, v in full.items() if k != "decoder.7.w"}
    unknown = dict(full, **{"decoder.9.w": full["decoder.7.w"]})
    for params in (missing, unknown):
        with pytest.raises(ShapeError, match="parameter keys differ"):
            model.load_param_dict(params)
        assert params_checksum(model.param_dict()) == before
    head = build_classifier_head(4, 2, seed=0)
    with pytest.raises(ShapeError, match=r"missing \['0.b'\]"):
        head.load_param_dict({"0.w": np.zeros((4, 2))})


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


def test_fused_decoder_matches_unfused_oracle():
    """The built autoencoder starts with the unfused builder's weights, bit
    for bit, and with those weights shared, its output and every parameter
    gradient match the unfused network's at <= 1e-12 norm-relative, for
    blocked and unblocked batches."""
    rng = np.random.default_rng(11)
    for side, counts in ((32, (1, 4, 7, MICRO_BATCH + 3, 32)), (64, (1, 5))):
        model = build_autoencoder(side, 8, seed=4)
        encoder, decoder, keys = unfused_autoencoder(side, 8, seed=4)
        oracle = {f"encoder.{k}": v for k, v in encoder.named_params()}
        oracle.update({keys[f"decoder.{k}"]: v for k, v in decoder.named_params()})
        params = model.param_dict()
        assert oracle.keys() == params.keys()
        for key, value in params.items():
            assert value.tobytes() == oracle[key].tobytes(), key
            value += 0.05 * rng.normal(size=value.shape)  # nonzero biases as well
        # share: the oracle's layers hold the built model's arrays
        for net, prefix in ((encoder, "encoder."), (decoder, "decoder.")):
            for i, layer in enumerate(net.layers):
                for name in layer.params:
                    key = f"{prefix}{i}.{name}"
                    layer.params[name] = params[keys.get(key, key)]
        for n in counts:
            x = rng.random(size=(n, 1, side, side))
            dout = rng.normal(size=x.shape)
            out = model.forward(x)
            model.backward(dout)
            grads = {k: g.copy() for k, g in model.grad_dict().items()}
            ref = decoder.forward(encoder.forward(x))
            encoder.backward(decoder.backward(dout), input_grad=False)
            ref_grads = {f"encoder.{k}": g for k, g in encoder.grad_dict().items()}
            ref_grads.update({keys[f"decoder.{k}"]: g for k, g in decoder.grad_dict().items()})
            assert rel_err(out, ref) <= 1e-12, (side, n)
            assert grads.keys() == ref_grads.keys()
            for key, g in grads.items():
                assert rel_err(g, ref_grads[key]) <= 1e-12, (side, n, key)


@pytest.mark.parametrize("env, cores, lanes", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
    ({}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
])
def test_lane_count_rule(monkeypatch, env, cores, lanes):
    """Usable cores over BLAS threads, at least 1; no thread is started."""
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(models.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert _lane_count() == lanes


def test_trunk_network_matches_one_call_bitwise(monkeypatch):
    """A TrunkNetwork's output, input gradient and every parameter gradient
    equal one Network call's bit for bit, for a backbone with a projection
    head (pretraining, the classifier) and alone (ODIN's input gradient), at
    1, 2 and 4 lanes (4 with the interpreter switching threads every
    microsecond) and ragged and whole blocks."""
    rng = np.random.default_rng(5)
    backbone = build_backbone(32, 16, seed=2)
    nets = [backbone.layers + build_projection_head(16, 8, seed=3).layers, backbone.layers]
    for layer in nets[0]:
        for p in layer.params.values():
            p += 0.05 * rng.normal(size=p.shape)  # nonzero biases as well
    switch = sys.getswitchinterval()
    for lanes in (1, 2, 4):
        monkeypatch.setattr(models, "LANES", lanes)
        if lanes == 4:
            sys.setswitchinterval(1e-6)
        try:
            for layers in nets:
                one, blocked = Network(layers), TrunkNetwork(layers)
                for n in (1, 31, 32, 33, 128, 300):
                    x = rng.normal(size=(n, 1, 32, 32))
                    out = one.forward(x)
                    dout = rng.normal(size=out.shape)
                    dx = one.backward(dout)
                    grads = {k: g.copy() for k, g in one.grad_dict().items()}
                    assert np.array_equal(blocked.forward(x), out), (lanes, n)
                    assert np.array_equal(blocked.backward(dout), dx), (lanes, n)
                    assert blocked.grad_dict().keys() == grads.keys()
                    for key, g in blocked.grad_dict().items():
                        assert np.array_equal(g, grads[key]), (lanes, n, key)
                    assert blocked.backward(dout, input_grad=False) is None
                    for key, g in blocked.grad_dict().items():
                        assert np.array_equal(g, grads[key]), (lanes, n, key)
        finally:
            sys.setswitchinterval(switch)


def test_failing_trunk_block_stops_every_lane_first(monkeypatch):
    """A block that raises on lane 1 reaches the caller only after lane 0
    has ended both of its blocks; the next pass gives the same bits."""
    monkeypatch.setattr(models, "LANES", 2)
    net = TrunkNetwork(build_backbone(32, 16, seed=2).layers)
    x = RNG.normal(size=(4 * models.TRUNK_BLOCK, 1, 32, 32))
    dout = RNG.normal(size=(len(x), 16))
    net.forward(x)
    want = net.backward(dout)
    original, ended = Flatten.backward, []

    def backward(layer, d):  # the first layer of each block's backward
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("injected failure on lane 1")
        time.sleep(0.2)  # still running when lane 1 fails
        ended.append(len(d))
        return original(layer, d)

    with monkeypatch.context() as m:
        m.setattr(Flatten, "backward", backward)
        net.forward(x)
        with pytest.raises(RuntimeError, match="lane 1"):
            net.backward(dout)
    assert ended == [models.TRUNK_BLOCK] * 2
    net.forward(x)
    assert np.array_equal(net.backward(dout), want)
