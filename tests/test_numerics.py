"""Gradient and optimizer checks for the float64 network core.

Every layer's analytic backward pass is checked against central finite
differences of a scalar read-out of its forward pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff, rel_err
from sevcon.numerics import (
    Conv2d,
    Dense,
    Flatten,
    NearestUpsample,
    Network,
    NumericalError,
    Relu,
    Reshape,
    SgdState,
    ShapeError,
    Sigmoid,
    bce_with_logits,
    cosine_similarity,
    params_checksum,
    require_finite,
    sgd_step,
    sigmoid,
    softmax,
    softmax_ce_with_logits,
)

RNG = np.random.default_rng(0)


def scalar_readout(shape, seed=1):
    """A fixed random linear functional to reduce a layer output to a scalar."""
    w = np.random.default_rng(seed).normal(size=shape)
    return lambda y: float((y * w).sum()), w


def check_layer_input_grad(layer, x, tol=1e-7):
    y = layer.forward(x)
    readout, w = scalar_readout(y.shape)
    dx = layer.backward(w)
    num = central_diff(lambda xv: readout(layer.forward(xv)), x.copy())
    assert rel_err(dx, num) < tol, f"{layer.name}: input grad rel err {rel_err(dx, num)}"


def check_layer_param_grads(layer, x, tol=1e-7):
    y = layer.forward(x)
    readout, w = scalar_readout(y.shape)
    layer.backward(w)
    for name, p in layer.params.items():
        analytic = layer.grads[name]
        num = central_diff(lambda _: readout(layer.forward(x)), p)
        err = rel_err(analytic, num)
        assert err < tol, f"{layer.name}.{name}: param grad rel err {err}"


def test_dense_gradients():
    layer = Dense(5, 4, RNG)
    x = RNG.normal(size=(3, 5))
    check_layer_input_grad(layer, x)
    check_layer_param_grads(layer, x)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_gradients(stride):
    layer = Conv2d(2, 3, RNG, stride=stride)
    x = RNG.normal(size=(2, 2, 8, 8))
    check_layer_input_grad(layer, x)
    check_layer_param_grads(layer, x)


def test_upsample_gradients():
    layer = NearestUpsample(2)
    x = RNG.normal(size=(2, 3, 4, 4))
    check_layer_input_grad(layer, x)


def test_relu_gradients():
    layer = Relu()
    # keep activations away from the kink at 0
    x = RNG.normal(size=(4, 6))
    x[np.abs(x) < 0.1] += 0.2
    check_layer_input_grad(layer, x)


def test_sigmoid_gradients():
    check_layer_input_grad(Sigmoid(), RNG.normal(size=(4, 6)))


def test_flatten_reshape_gradients():
    check_layer_input_grad(Flatten(), RNG.normal(size=(2, 3, 4, 4)))
    check_layer_input_grad(Reshape((3, 4, 4)), RNG.normal(size=(2, 48)))


def test_network_composes_backward():
    net = Network([Dense(6, 5, RNG), Relu(), Dense(5, 2, RNG)])
    x = RNG.normal(size=(3, 6)) + 0.3
    y = net.forward(x)
    readout, w = scalar_readout(y.shape)
    dx = net.backward(w)
    num = central_diff(lambda xv: readout(net.forward(xv)), x.copy())
    assert rel_err(dx, num) < 1e-7


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError, match="backward called before forward"):
        Dense(3, 2, RNG).backward(np.zeros((1, 2)))


def test_shape_errors():
    with pytest.raises(ShapeError):
        Dense(3, 2, RNG).forward(np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        Conv2d(2, 3, RNG).forward(np.zeros((1, 1, 8, 8)))
    with pytest.raises(ShapeError):
        Reshape((2, 2)).forward(np.zeros((1, 5)))


def test_conv_matches_direct_convolution():
    """Oracle: naive nested-loop convolution."""
    layer = Conv2d(2, 3, RNG, stride=2)
    x = RNG.normal(size=(1, 2, 6, 6))
    out = layer.forward(x)
    w, b = layer.params["w"], layer.params["b"]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros_like(out)
    for co in range(3):
        for i in range(out.shape[2]):
            for j in range(out.shape[3]):
                patch = xp[0, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                ref[0, co, i, j] = (patch * w[co]).sum() + b[co]
    assert np.allclose(out, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_sgd_momentum_hand_computed():
    p = np.array([1.0, 2.0])
    state = SgdState(learning_rate=0.1, momentum=0.5)
    g1 = np.array([1.0, -1.0])
    sgd_step(state, {"p": p}, {"p": g1})
    # v1 = g1; p = [1,2] - 0.1*[1,-1]
    assert np.allclose(p, [0.9, 2.1])
    g2 = np.array([2.0, 0.0])
    sgd_step(state, {"p": p}, {"p": g2})
    # v2 = 0.5*[1,-1] + [2,0] = [2.5,-0.5]; p -= 0.1*v2
    assert np.allclose(p, [0.65, 2.15])


def test_sgd_validates_hyperparameters_and_shapes():
    with pytest.raises(ValueError):
        SgdState(learning_rate=-0.1)
    with pytest.raises(ValueError):
        SgdState(learning_rate=0.1, momentum=1.0)
    state = SgdState(0.1)
    with pytest.raises(ShapeError):
        sgd_step(state, {"p": np.zeros(3)}, {"p": np.zeros(4)})


def test_sgd_rejects_non_finite_gradient_before_any_update():
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]), "c": np.array([4.0, 5.0])}
    state = SgdState(learning_rate=0.1, momentum=0.9)
    sgd_step(state, params, {k: np.ones_like(v) for k, v in params.items()})
    p_before = {k: v.copy() for k, v in params.items()}
    v_before = {k: v.copy() for k, v in state.velocity.items()}
    grads = {k: np.ones_like(v) for k, v in params.items()}
    grads["c"] = np.array([0.5, np.nan])  # the last gradient visited
    with pytest.raises(NumericalError, match="gradient c"):
        sgd_step(state, params, grads)
    for k in params:
        assert params[k].tobytes() == p_before[k].tobytes()
        assert state.velocity[k].tobytes() == v_before[k].tobytes()


# ---------------------------------------------------------------------------
# Scalar ops
# ---------------------------------------------------------------------------


finite_vecs = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.floats(-10, 10), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(finite_vecs, st.floats(0.1, 10.0))
def test_cosine_properties(vals, scale):
    a = np.asarray(vals)
    b = np.asarray(vals[::-1])
    c = cosine_similarity(a, b)
    assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
    assert cosine_similarity(b, a) == pytest.approx(c, abs=1e-12)
    if np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6:
        assert cosine_similarity(scale * a, b) == pytest.approx(c, rel=1e-9)


def test_cosine_zero_norm_is_zero():
    assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ShapeError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_sigmoid_softmax_stable_and_correct():
    x = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(0.0, abs=1e-12)
    assert s[1] == 0.5
    assert s[2] == pytest.approx(1.0, abs=1e-12)
    p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(0.5)


def test_bce_with_logits_matches_definition_and_fd():
    logits = RNG.normal(size=(4, 3))
    y = (RNG.random(size=(4, 3)) > 0.5).astype(float)
    loss, grad = bce_with_logits(logits, y)
    p = 1.0 / (1.0 + np.exp(-logits))
    ref = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert loss == pytest.approx(ref, rel=1e-12)
    num = central_diff(lambda l: bce_with_logits(l, y)[0], logits.copy())
    assert rel_err(grad, num) < 1e-7


def test_softmax_ce_matches_definition_and_fd():
    logits = RNG.normal(size=(5, 4))
    idx = RNG.integers(0, 4, size=5)
    loss, grad = softmax_ce_with_logits(logits, idx)
    p = softmax(logits)
    ref = -np.log(p[np.arange(5), idx]).mean()
    assert loss == pytest.approx(ref, rel=1e-12)
    num = central_diff(lambda l: softmax_ce_with_logits(l, idx)[0], logits.copy())
    assert rel_err(grad, num) < 1e-7


def test_require_finite():
    require_finite(np.ones(3), "ok")
    with pytest.raises(NumericalError):
        require_finite(np.array([1.0, np.nan]), "bad")


def test_params_checksum_sensitivity():
    params = {"a": np.ones(3), "b": np.zeros((2, 2))}
    h1 = params_checksum(params)
    assert h1 == params_checksum({k: v.copy() for k, v in params.items()})
    params["a"][0] = 2.0
    assert params_checksum(params) != h1
