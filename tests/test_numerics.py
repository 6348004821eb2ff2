"""Gradient and optimizer checks for the float64 network core.

Every layer's analytic backward pass is checked against central finite
differences of a scalar read-out of its forward pass.
"""

import warnings

import numpy as np
import pytest

from conftest import central_diff, params_checksum, rel_err
from sevcon.numerics import (
    Conv2d,
    Dense,
    Flatten,
    Layer,
    Network,
    NumericalError,
    Relu,
    Reshape,
    SgdState,
    ShapeError,
    Sigmoid,
    UpsampleConv2d,
    bce_with_logits,
    require_finite,
    sgd_step,
    sigmoid,
    softmax,
    softmax_ce_with_logits,
)
from sevcon.numerics import _PHASE_FOLD, _columns, _pad, _phase_columns

RNG = np.random.default_rng(0)


class NearestUpsample(Layer):
    """Nearest-neighbor 2x upsampling, the first half of the pair that
    UpsampleConv2d fuses; kept here as its oracle."""

    name = "nearest-upsample"

    def __init__(self, factor: int = 2):
        super().__init__()
        self.factor = factor

    def forward(self, x):
        if x.ndim != 4:
            self._fail_shape(x.shape, "(B, C, H, W)")
        f = self.factor
        self._cache = x.shape
        return x.repeat(f, axis=2).repeat(f, axis=3)

    def backward(self, dout):
        self._require_cache()
        f = self.factor
        # each f x f block sum, as strided slices: across columns, then rows
        dcols = dout[:, :, :, 0::f]
        for j in range(1, f):
            dcols = dcols + dout[:, :, :, j::f]
        dx = dcols[:, :, 0::f]
        for i in range(1, f):
            dx = dx + dcols[:, :, i::f]
        return dx


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


def test_upsample_conv2d_gradients():
    layer = UpsampleConv2d(2, 3, RNG)
    layer.params["b"] = RNG.normal(size=3)
    x = RNG.normal(size=(2, 2, 4, 5))
    check_layer_input_grad(layer, x)
    check_layer_param_grads(layer, x)


def test_relu_gradients():
    layer = Relu()
    # keep activations away from the kink at 0
    x = RNG.normal(size=(4, 6))
    x[np.abs(x) < 0.1] += 0.2
    check_layer_input_grad(layer, x)


def test_relu_matches_where_oracle():
    """Equal to the np.where form up to the sign of zero; a NaN propagates."""
    layer = Relu()
    x = RNG.normal(size=(3, 4, 5, 5))
    x[0, 0, 0, :3] = [0.0, -0.0, 1e-300]
    dout = RNG.normal(size=x.shape)
    assert np.array_equal(layer.forward(x), np.where(x > 0, x, 0.0))
    assert np.array_equal(layer.backward(dout), np.where(x > 0, dout, 0.0))
    x[1, 2, 3, 4] = np.nan
    y = layer.forward(x)
    assert np.isnan(y[1, 2, 3, 4]) and np.isnan(y).sum() == 1
    assert layer.backward(dout)[1, 2, 3, 4] == 0.0


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
    with pytest.raises(ShapeError):
        UpsampleConv2d(2, 3, RNG).forward(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ShapeError):
        UpsampleConv2d(2, 3, RNG).forward(np.zeros((2, 4, 4)))


def direct_conv(x, w, b, stride, pad, dout):
    """Nested-loop convolution: output, and dW, db, dX for upstream dout."""
    B, C, H, W = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (H + 2 * pad - k) // stride + 1
    wo = (W + 2 * pad - k) // stride + 1
    out = np.zeros((B, c_out, ho, wo))
    dw, db, dxp = np.zeros_like(w), np.zeros_like(b), np.zeros_like(xp)
    for n in range(B):
        for co in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    rows = slice(stride * i, stride * i + k)
                    cols = slice(stride * j, stride * j + k)
                    out[n, co, i, j] = (xp[n, :, rows, cols] * w[co]).sum() + b[co]
                    g = dout[n, co, i, j]
                    dw[co] += g * xp[n, :, rows, cols]
                    db[co] += g
                    dxp[n, :, rows, cols] += g * w[co]
    return out, dw, db, dxp[:, :, pad:pad + H, pad:pad + W]


def test_conv_matches_direct_convolution():
    """Oracle: forward, dW, db and dX against nested loops, batch 3."""
    cases = [
        (1, 4, 1, 8),   # the autoencoder's first conv has one input channel
        (3, 1, 1, 8),   # ... and its last conv one output channel
        (2, 3, 1, 5),
        (1, 3, 2, 8),
        (3, 1, 2, 6),
        (2, 3, 2, 7),   # odd side at stride 2: the last input row feeds no output
    ]
    for c_in, c_out, stride, side in cases:
        layer = Conv2d(c_in, c_out, RNG, stride=stride)
        layer.params["b"] = RNG.normal(size=c_out)
        x = RNG.normal(size=(3, c_in, side, side))
        out = layer.forward(x)
        dout = RNG.normal(size=out.shape)
        dx = layer.backward(dout)
        ref = direct_conv(x, layer.params["w"], layer.params["b"], stride, 1, dout)
        got = (out, layer.grads["w"], layer.grads["b"], dx)
        for what, a, r in zip(("forward", "dW", "db", "dX"), got, ref):
            case = f"{what} at c_in={c_in} c_out={c_out} stride={stride} side={side}"
            assert a.shape == r.shape, case
            assert rel_err(a, r) <= 1e-12, f"{case}: rel err {rel_err(a, r)}"


def test_upsample_conv_matches_upsample_then_direct_convolution():
    """Oracle: forward, dW, db and dX of the fused layer against a nearest
    upsample followed by the nested-loop convolution, batch 3."""
    cases = [
        (1, 4, 4, 4),   # one input channel
        (3, 1, 4, 4),   # one output channel
        (2, 3, 1, 1),   # side 1: each output pixel reads the one input pixel and padding
        (2, 3, 3, 5),   # non-square
        (4, 2, 5, 2),
    ]
    for c_in, c_out, h, w in cases:
        layer = UpsampleConv2d(c_in, c_out, RNG)
        layer.params["b"] = RNG.normal(size=c_out)
        x = RNG.normal(size=(3, c_in, h, w))
        out = layer.forward(x)
        dout = RNG.normal(size=out.shape)
        dx = layer.backward(dout)
        up = NearestUpsample(2)
        ref = direct_conv(up.forward(x), layer.params["w"], layer.params["b"], 1, 1, dout)
        ref = ref[:3] + (up.backward(ref[3]),)
        got = (out, layer.grads["w"], layer.grads["b"], dx)
        for what, a, r in zip(("forward", "dW", "db", "dX"), got, ref):
            case = f"{what} at c_in={c_in} c_out={c_out} input {h}x{w}"
            assert a.shape == r.shape, case
            assert rel_err(a, r) <= 1e-12, f"{case}: rel err {rel_err(a, r)}"


def test_skipped_input_gradient_leaves_parameter_gradients_bitwise():
    """input_grad=False returns None and the same dW, db, for a Conv2d at
    both strides, for a Dense, and for a Network whose first layer is a
    Conv2d or a Dense."""
    layers = [(Conv2d(2, 3, RNG, stride=stride), (3, 2, 8, 8)) for stride in (1, 2)]
    layers.append((Dense(5, 3, RNG), (4, 5)))
    for layer, shape in layers:
        dout = RNG.normal(size=layer.forward(RNG.normal(size=shape)).shape)
        assert layer.backward(dout) is not None
        full = dict(layer.grads)
        assert layer.backward(dout, input_grad=False) is None
        for name in ("w", "b"):
            assert np.array_equal(layer.grads[name], full[name])
    nets = [
        (Network([Conv2d(1, 4, RNG), Relu(), Flatten(), Dense(4 * 6 * 6, 3, RNG)]),
         (2, 1, 6, 6)),
        (Network([Dense(6, 4, RNG), Relu(), Dense(4, 2, RNG)]), (5, 6)),
    ]
    for net, shape in nets:
        dout = RNG.normal(size=net.forward(RNG.normal(size=shape)).shape)
        assert net.backward(dout) is not None
        full = dict(net.grad_dict())
        assert net.backward(dout, input_grad=False) is None
        assert full.keys() == net.grad_dict().keys()
        for key, g in net.grad_dict().items():
            assert np.array_equal(g, full[key]), key


def test_per_sample_weight_gradients_match_batch_one_passes():
    """per_sample=True leaves one weight gradient per image, each within
    1e-12 of that image's own batch-1 backward, with the same input gradient
    and bias gradient as the summed pass. A Conv2d's stack summed over the
    batch axis is the summed pass's weight gradient bit for bit."""
    for layer, shape in [(Conv2d(2, 3, RNG), (5, 2, 6, 7)),
                         (Conv2d(2, 3, RNG, stride=2), (5, 2, 7, 6)),
                         (UpsampleConv2d(2, 3, RNG), (5, 2, 4, 5))]:
        x = RNG.normal(size=shape)
        dout = RNG.normal(size=layer.forward(x).shape)
        dx = layer.backward(dout)
        summed = dict(layer.grads)
        assert np.array_equal(layer.backward(dout, per_sample=True), dx)
        stack = layer.grads["w"]
        assert np.array_equal(layer.grads["b"], summed["b"])
        assert stack.shape == (shape[0],) + layer.params["w"].shape
        assert rel_err(stack.sum(axis=0), summed["w"]) <= 1e-12
        if isinstance(layer, Conv2d):
            assert np.array_equal(stack.sum(axis=0), summed["w"])
        for b in range(shape[0]):
            layer.forward(x[b:b + 1])
            layer.backward(dout[b:b + 1])
            assert rel_err(stack[b], layer.grads["w"]) <= 1e-12, (layer.name, b)


def test_upsample_backward_matches_block_sums():
    """Oracle check of the oracle: each input pixel's gradient is the sum of
    its f x f block."""
    layer = NearestUpsample(2)
    layer.forward(RNG.normal(size=(3, 2, 5, 4)))
    dout = RNG.normal(size=(3, 2, 10, 8))
    ref = np.zeros((3, 2, 5, 4))
    for i in range(5):
        for j in range(4):
            ref[:, :, i, j] = dout[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].sum(axis=(2, 3))
    assert rel_err(layer.backward(dout), ref) <= 1e-12


def tap_columns(xp, k, s, Ho, Wo):
    """The column builder's oracle, one slice copy per kernel tap:
    cols[b, (c, di, dj), (i, j)] = xp[b, c, s*i + di, s*j + dj]."""
    B, C = xp.shape[:2]
    cols = np.empty((B, C, k, k, Ho, Wo))
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[:, :, di:di + s * Ho:s, dj:dj + s * Wo:s]
    return cols.reshape(B, C * k * k, Ho * Wo)


PHASE_TAPS = [(a, b, t, s) for a in (0, 1) for b in (0, 1) for t in (0, 1) for s in (0, 1)]


def tap_phase_columns(xp):
    """The phase column builder's oracle, one slice copy per phase tap."""
    B, C, H, W = xp.shape[0], xp.shape[1], xp.shape[2] - 2, xp.shape[3] - 2
    cols = np.empty((B, 2, 2, C, 2, 2, H, W))
    for a, b, t, s in PHASE_TAPS:
        cols[:, a, b, :, t, s] = xp[:, :, a + t:a + t + H, b + s:b + s + W]
    return cols.reshape(B, 4, 4 * C, H * W)


def test_column_builders_match_per_tap_copies():
    """Bitwise, at strides 1 and 2, sides 32 and 64 and batch sizes 1 to 128."""
    for side in (32, 64):
        for n in (1, 7, 8, 33, 128):
            xp = _pad(RNG.normal(size=(n, 2 if n < 128 else 1, side, side)), 1)
            for s in (1, 2):
                ho = (side + 2 - 3) // s + 1
                assert np.array_equal(_columns(xp, 3, s, ho, ho),
                                      tap_columns(xp, 3, s, ho, ho)), (side, n, s)
            assert np.array_equal(_phase_columns(xp), tap_phase_columns(xp)), (side, n)


def kept_column_conv(layer, x, dout, per_sample):
    """Oracle: Conv2d's forward output, dW and (at stride 1) dX computed from
    per-tap columns built once, at forward, as the layer kept them."""
    k, s, p = layer.kernel, layer.stride, layer.pad
    w = layer.params["w"]
    B, _, H, W = x.shape
    ho, wo = (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1
    cols = tap_columns(_pad(x, p), k, s, ho, wo)
    out = np.matmul(w.reshape(layer.c_out, -1), cols)
    out += layer.params["b"][:, None]
    dmat = dout.reshape(B, layer.c_out, ho * wo)
    dw = np.matmul(dmat, cols.transpose(0, 2, 1))
    dw = dw.reshape((B,) + w.shape) if per_sample else dw.sum(axis=0).reshape(w.shape)
    dx = None
    if s == 1:
        wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(layer.c_in, -1)
        dx = np.matmul(wflip, tap_columns(_pad(dout, k - 1 - p), k, 1, H, W))
        dx = dx.reshape(x.shape)
    return out.reshape(B, layer.c_out, ho, wo), dw, dx


def kept_column_upsample_conv(layer, x, dout, per_sample):
    """Oracle: UpsampleConv2d's forward output, dW and dX from per-tap phase
    columns built once, at forward, and per-tap input-gradient columns."""
    B, C, H, W = x.shape
    co = layer.c_out
    cols = tap_phase_columns(_pad(x, 1))
    k = layer._phase_kernels()
    out = np.matmul(k, cols).reshape(B, 2, 2, co, H, W)
    out = out.transpose(0, 3, 4, 1, 5, 2).reshape(B, co, 2 * H, 2 * W)
    out += layer.params["b"][:, None, None]
    dmat = dout.reshape(B, co, H, 2, W, 2).transpose(0, 3, 5, 1, 2, 4).reshape(B, 4, co, H * W)
    dk = np.matmul(dmat, cols.transpose(0, 1, 3, 2))
    dk = dk if per_sample else dk.sum(axis=0)[None]
    dk = dk.reshape(-1, 2, 2, co, C, 2, 2).transpose(0, 3, 4, 1, 2, 5, 6)
    dw = (dk.reshape(-1, 16) @ _PHASE_FOLD.T).reshape((-1,) + layer.params["w"].shape)
    dpad = np.zeros((B, 2, 2, co, H + 2, W + 2))
    dpad[..., 1:H + 1, 1:W + 1] = dmat.reshape(B, 2, 2, co, H, W)
    dcols = np.empty((B, 2, 2, co, 2, 2, H, W))
    for a, b, t, s in PHASE_TAPS:
        r, c = 2 - a - t, 2 - b - s
        dcols[:, a, b, :, t, s] = dpad[:, a, b, :, r:r + H, c:c + W]
    kt = k.reshape(2, 2, co, C, 2, 2).transpose(3, 0, 1, 2, 4, 5).reshape(C, -1)
    dx = np.matmul(kt, dcols.reshape(B, -1, H * W)).reshape(x.shape)
    return out, (dw if per_sample else dw[0]), dx


def test_backward_rebuilt_columns_match_kept_column_oracle():
    """Forward, dW (summed and per-image) and dX are bitwise the kept-column
    arithmetic's: backward rebuilds the columns from the padded input."""
    cases = [(Conv2d(1, 8, RNG), (3, 1, 9, 8), kept_column_conv),
             (Conv2d(8, 16, RNG, stride=2), (3, 8, 8, 7), kept_column_conv),
             (UpsampleConv2d(4, 3, RNG), (3, 4, 5, 4), kept_column_upsample_conv)]
    for layer, shape, oracle in cases:
        layer.params["b"] = RNG.normal(size=layer.c_out)
        x = RNG.normal(size=shape)
        for per_sample in (False, True):
            out = layer.forward(x)
            dout = RNG.normal(size=out.shape)
            dx = layer.backward(dout, per_sample=per_sample)
            ref_out, ref_dw, ref_dx = oracle(layer, x, dout, per_sample)
            assert np.array_equal(out, ref_out), (layer.name, shape)
            assert np.array_equal(layer.grads["w"], ref_dw), (layer.name, shape, per_sample)
            if ref_dx is not None:
                assert np.array_equal(dx, ref_dx), (layer.name, shape)


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


def masked_sigmoid(x):
    """The two-branch definition, each branch evaluated on its own elements."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_definition():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300])
    normals = np.random.default_rng(7).normal(scale=4.0, size=(64, 33))
    for x in (special, normals, normals[:, ::3]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        ref = masked_sigmoid(x)
        # the bytes compare equal, NaN and signed zeros included
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


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
