"""Minimal float64 neural-network core with explicit forward/backward passes.

Everything runs on numpy float64 arrays. Layers cache whatever their backward
pass needs during forward; calling backward before forward is an error.
Batched layouts: dense inputs are (B, D), image inputs are (B, C, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Raised when an input shape does not match what a layer expects."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite values."""


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Layer:
    """Base layer: named parameter tensors plus matching gradient buffers."""

    name = "layer"

    def __init__(self):
        self.params: dict[str, Array] = {}
        self.grads: dict[str, Array] = {}
        self._cache = None

    def forward(self, x: Array) -> Array:
        raise NotImplementedError

    def backward(self, dout: Array) -> Array:
        raise NotImplementedError

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")

    def _fail_shape(self, got, expected):
        raise ShapeError(f"{self.name}: got input shape {got}, expected {expected}")


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> Array:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


class Dense(Layer):
    """Affine map x @ w + b. ``backward(dout, input_grad=False)`` fills the
    w and b gradients only and returns None, for a head trained on fixed
    features."""

    name = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self.params = {
            "w": _he_uniform(rng, (n_in, n_out), n_in),
            "b": np.zeros(n_out),
        }

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            self._fail_shape(x.shape, f"(B, {self.n_in})")
        self._cache = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout, input_grad=True):
        self._require_cache()
        x = self._cache
        self.grads["w"] = x.T @ dout
        self.grads["b"] = dout.sum(axis=0)
        if not input_grad:
            return None
        return dout @ self.params["w"].T


def _pad(x: Array, p: int) -> Array:
    """Zero-pad the two spatial axes of a (B, C, H, W) batch by p."""
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2 * p, W + 2 * p))
    xp[:, :, p:p + H, p:p + W] = x
    return xp


def _columns(xp: Array, k: int, s: int, Ho: int, Wo: int) -> Array:
    """Channel-first im2col of a padded (B, C, Hp, Wp) batch:
    cols[b, (c, di, dj), (i, j)] = xp[b, c, s*i + di, s*j + dj], returned as
    (B, C*k*k, Ho*Wo): one copy of a read-only window view of xp."""
    B, C = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, :s * Ho:s, :s * Wo:s].transpose(0, 1, 4, 5, 2, 3)
    return win.reshape(B, C * k * k, Ho * Wo)


class Conv2d(Layer):
    """3 x 3, pad-1 convolution (k = ``kernel``, p = ``pad``); stride 1 is
    plain, stride 2 is the downsampler.

    im2col + GEMM in NCHW. The columns of image b are laid out channel-first
    as a (C_in*k*k, Ho*Wo) matrix, so one batched matmul with the
    (C_out, C_in*k*k) weight matrix gives the (B, C_out, Ho*Wo) output with
    no transpose. Forward keeps the padded input, and backward rebuilds the
    columns from it for dW = sum_b dout_b cols_b^T. At stride 1 the input
    gradient is a forward correlation of dout, zero-padded by k-1-p, with the
    flipped, channel-swapped weights w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
    through the same column builder; at stride 2 it is a k*k strided
    scatter-add of W^T dout. ``backward(dout, input_grad=False)`` skips the
    input gradient and returns None, for a first layer whose input is data.
    ``backward(dout, per_sample=True)`` leaves in grads["w"] the per-image
    (B, C_out, C_in, k, k) stack of the dW GEMM's terms before the sum over
    b, whose sum over b is the summed pass's dW bit for bit; grads["b"] stays
    the batch sum."""

    kernel, pad = 3, 1

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, stride: int = 1):
        super().__init__()
        self.c_in, self.c_out, self.stride = c_in, c_out, stride
        self.name = "conv2d" if stride == 1 else "strided-conv2d"
        k = self.kernel
        self.params = {
            "w": _he_uniform(rng, (c_out, c_in, k, k), c_in * k * k),
            "b": np.zeros(c_out),
        }

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            self._fail_shape(x.shape, f"(B, {self.c_in}, H, W)")
        k, s, p = self.kernel, self.stride, self.pad
        B, _, H, W = x.shape
        Ho = (H + 2 * p - k) // s + 1
        Wo = (W + 2 * p - k) // s + 1
        xp = _pad(x, p)
        out = np.matmul(self.params["w"].reshape(self.c_out, -1), _columns(xp, k, s, Ho, Wo))
        out += self.params["b"][:, None]
        # The padded input is kept and backward rebuilds the columns from it,
        # at (C_in*k*k)/s^2 times less memory. The first entry has the column
        # matrix's 2-D shape, (B*C_in*k*k, Ho*Wo), over one zero-stride
        # element: perfbench sizes its conv GFLOP counter from it.
        self._cache = (np.broadcast_to(0.0, (B * self.c_in * k * k, Ho * Wo)), xp, Ho, Wo)
        return out.reshape(B, self.c_out, Ho, Wo)

    def backward(self, dout, input_grad=True, per_sample=False):
        self._require_cache()
        _, xp, Ho, Wo = self._cache
        k, s, p = self.kernel, self.stride, self.pad
        B, H, W = xp.shape[0], xp.shape[2] - 2 * p, xp.shape[3] - 2 * p
        w = self.params["w"]
        dmat = dout.reshape(B, self.c_out, Ho * Wo)
        dw = np.matmul(dmat, _columns(xp, k, s, Ho, Wo).transpose(0, 2, 1))
        self.grads["w"] = (dw.reshape((B,) + w.shape) if per_sample
                           else dw.sum(axis=0).reshape(w.shape))
        self.grads["b"] = dmat.sum(axis=(0, 2))
        if not input_grad:
            return None
        if s == 1:
            wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(self.c_in, -1)
            dcols = _columns(_pad(dout, k - 1 - p), k, 1, H, W)
            return np.matmul(wflip, dcols).reshape(B, self.c_in, H, W)
        dcols = np.matmul(w.reshape(self.c_out, -1).T, dmat).reshape(B, self.c_in, k, k, Ho, Wo)
        dxp = np.zeros((B, self.c_in, H + 2 * p, W + 2 * p))
        for di in range(k):
            for dj in range(k):
                dxp[:, :, di:di + s * Ho:s, dj:dj + s * Wo:s] += dcols[:, :, di, dj]
        return dxp[:, :, p:p + H, p:p + W]


# _FOLD[a, t, d] = 1 where, in output row phase a of a 3x3 conv on a 2x
# nearest-upsampled grid, kernel row d reads low-res row offset t (see
# UpsampleConv2d). _PHASE_FOLD[(d, e), (a, b, t, s)] folds a flattened 3x3
# kernel into the four phases' flattened 2x2 kernels.
_FOLD = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_PHASE_FOLD = np.einsum("atd,bse->deabts", _FOLD, _FOLD).reshape(9, 16)


def _phase_columns(xp: Array) -> Array:
    """The four phases' 2x2 columns of a pad-1 (B, C, H+2, W+2) batch,
    cols[n, (a, b), (c, t, s), (i, j)] = xp[n, c, a+t+i, b+s+j], returned as
    (B, 4, 4*C, H*W): one copy of a read-only strided view of xp."""
    B, C, Hp, Wp = xp.shape
    n, c, h, w = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (B, 2, 2, C, 2, 2, Hp - 2, Wp - 2), (n, h, w, c, h, w, h, w), writeable=False)
    return view.reshape(B, 4, 4 * C, (Hp - 2) * (Wp - 2))


class UpsampleConv2d(Layer):
    """A 2x nearest upsample then a 3x3, stride-1, pad-1 convolution, run on
    the low-res grid as four 2x2 phase convolutions (a sub-pixel convolution).

    Output pixel (2i+a, 2j+b) reads upsampled rows 2i+a-1+d for kernel rows
    d = 0, 1, 2, and upsampled row r holds low-res row floor(r/2):

        phase a = 0: tap 0 reads row i-1; taps 1 and 2 both read row i
        phase a = 1: taps 0 and 1 both read row i; tap 2 reads row i+1

    Columns work the same way. So phase (a, b) is a 2x2 convolution of the
    pad-1 low-res input read at offset (a, b), and its kernel sums the 3x3
    taps that land on one low-res pixel: the phase kernels are w folded by
    the 9x16 0/1 matrix _PHASE_FOLD, and dW is the phase-kernel gradient
    folded back by its transpose. Zero padding of the upsampled grid is zero
    padding of the low-res grid, so the output is the pair's. That is 4/9 of
    the pair's multiply-adds, with 16*C_in*h*w column entries per image
    instead of 36*C_in*h*w. The input gradient is a correlation of the four
    pad-1 phase grids of dout, 2x2 columns read at offset (2-a-t, 2-b-s),
    with the phase kernels channel-swapped: one GEMM, no scatter-add.

    The parameters are those of the replaced Conv2d, w (C_out, C_in, 3, 3)
    and b, drawn by the same call. Forward keeps the pad-1 input, from which
    backward rebuilds the columns. ``backward(dout, per_sample=True)`` is as
    in Conv2d, each image's phase gradient folded back on its own, but its
    sum over b matches the summed pass's only to rounding. It never runs
    first in a network, so it always returns its input gradient. Named
    "conv2d", as a stride-1 Conv2d is."""

    name = "conv2d"

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.params = {
            "w": _he_uniform(rng, (c_out, c_in, 3, 3), c_in * 9),
            "b": np.zeros(c_out),
        }

    def _phase_kernels(self) -> Array:
        """(4, C_out, 4*C_in): phase (a, b)'s kernel, columns ordered (c, t, s)."""
        k = (self.params["w"].reshape(-1, 9) @ _PHASE_FOLD).reshape(
            self.c_out, self.c_in, 2, 2, 2, 2)
        return k.transpose(2, 3, 0, 1, 4, 5).reshape(4, self.c_out, 4 * self.c_in)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            self._fail_shape(x.shape, f"(B, {self.c_in}, H, W)")
        B, _, H, W = x.shape
        xp = _pad(x, 1)
        k = self._phase_kernels()
        out = np.matmul(k, _phase_columns(xp)).reshape(B, 2, 2, self.c_out, H, W)
        # interleave the phases: out[n, a, b, c, i, j] lands on pixel (2i+a, 2j+b)
        out = out.transpose(0, 3, 4, 1, 5, 2).reshape(B, self.c_out, 2 * H, 2 * W)
        out += self.params["b"][:, None, None]
        self._cache = (xp, k)
        return out

    def backward(self, dout, per_sample=False):
        self._require_cache()
        xp, k = self._cache
        B, C, H, W = xp.shape[0], self.c_in, xp.shape[2] - 2, xp.shape[3] - 2
        # the four phase grids of dout, (B, 4, C_out, H*W)
        dmat = dout.reshape(B, self.c_out, H, 2, W, 2).transpose(0, 3, 5, 1, 2, 4).reshape(
            B, 4, self.c_out, H * W)
        dk = np.matmul(dmat, _phase_columns(xp).transpose(0, 1, 3, 2))
        dk = dk if per_sample else dk.sum(axis=0)[None]
        dk = dk.reshape(-1, 2, 2, self.c_out, C, 2, 2).transpose(0, 3, 4, 1, 2, 5, 6)
        dw = (dk.reshape(-1, 16) @ _PHASE_FOLD.T).reshape((-1,) + self.params["w"].shape)
        self.grads["w"] = dw if per_sample else dw[0]
        self.grads["b"] = dmat.sum(axis=(0, 1, 3))
        dpad = np.zeros((B, 2, 2, self.c_out, H + 2, W + 2))
        dpad[..., 1:H + 1, 1:W + 1] = dmat.reshape(B, 2, 2, self.c_out, H, W)
        # dcols[n, a, b, c, t, s, i, j] = dpad[n, a, b, c, 2-a-t+i, 2-b-s+j]: a
        # view from row and column 2 whose phase and tap steps go back a row
        n, sa, sb, sc, sh, sw = dpad.strides
        dcols = np.lib.stride_tricks.as_strided(
            dpad[..., 2:, 2:], (B, 2, 2, self.c_out, 2, 2, H, W),
            (n, sa - sh, sb - sw, sc, -sh, -sw, sh, sw), writeable=False)
        kt = k.reshape(2, 2, self.c_out, C, 2, 2).transpose(3, 0, 1, 2, 4, 5).reshape(C, -1)
        return np.matmul(kt, dcols.reshape(B, -1, H * W)).reshape(B, C, H, W)


class Relu(Layer):
    """max(x, 0). A NaN input gives a NaN output, and its gradient is 0; a
    NaN in ``dout`` propagates through the backward pass."""

    name = "relu"

    def forward(self, x):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout):
        self._require_cache()
        return dout * self._cache


class Sigmoid(Layer):
    name = "sigmoid"

    def forward(self, x):
        y = sigmoid(x)
        self._cache = y
        return y

    def backward(self, dout):
        self._require_cache()
        y = self._cache
        return dout * y * (1.0 - y)


class Flatten(Layer):
    name = "flatten"

    def forward(self, x):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        self._require_cache()
        return dout.reshape(self._cache)


class Reshape(Layer):
    """(B, D) -> (B, *target); inverse of Flatten."""

    name = "reshape"

    def __init__(self, target: tuple[int, ...]):
        super().__init__()
        self.target = tuple(target)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != int(np.prod(self.target)):
            self._fail_shape(x.shape, f"(B, {int(np.prod(self.target))})")
        self._cache = x.shape
        return x.reshape((x.shape[0],) + self.target)

    def backward(self, dout):
        self._require_cache()
        return dout.reshape(self._cache)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network:
    """An ordered stack of layers with a shared forward/backward protocol."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Array) -> Array:
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.name}): {e}") from None
        return x

    def backward(self, dout: Array, input_grad: bool = True) -> Array | None:
        """Propagate an upstream gradient; returns the input gradient. With
        input_grad=False the first layer, which must then be a Conv2d or a
        Dense, fills its parameter gradients only, and None is returned."""
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        if input_grad:
            return self.layers[0].backward(dout)
        return self.layers[0].backward(dout, input_grad=False)

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, p in layer.params.items():
                yield f"{i}.{name}", p

    def param_dict(self) -> dict[str, Array]:
        return dict(self.named_params())

    def grad_dict(self) -> dict[str, Array]:
        return {f"{i}.{n}": g
                for i, layer in enumerate(self.layers)
                for n, g in layer.grads.items()}

    def load_param_dict(self, params: dict[str, Array]):
        load_params(self.param_dict(), params)


def load_params(targets: dict[str, Array], params: dict[str, Array]):
    """Copy ``params`` into ``targets`` in place. Both must have the same keys
    and each array its target's shape; otherwise a ShapeError is raised
    before anything is copied."""
    if params.keys() != targets.keys():
        missing = sorted(targets.keys() - params.keys())
        unknown = sorted(params.keys() - targets.keys())
        raise ShapeError(f"parameter keys differ: missing {missing}, unknown {unknown}")
    for key, target in targets.items():
        if target.shape != params[key].shape:
            raise ShapeError(f"param {key}: shape {params[key].shape} != {target.shape}")
    for key, target in targets.items():
        target[...] = params[key]


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class SgdState:
    """Classical (non-Nesterov) SGD with momentum."""

    learning_rate: float
    momentum: float = 0.0
    velocity: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")


def sgd_step(state: SgdState, params: dict[str, Array], grads: dict[str, Array]):
    """v <- momentum*v + g;  p <- p - lr*v.  Updates params in place.

    Every gradient is checked for shape and finiteness before any parameter
    or velocity moves, so a rejected step leaves the model untouched."""
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"grad {key}: shape {g.shape} != {p.shape}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite values in gradient {key}")
    for key, p in params.items():
        g = grads[key]
        v = state.velocity.get(key)
        if v is None:
            v = np.zeros_like(p)
        v = state.momentum * v + g
        state.velocity[key] = v
        p -= state.learning_rate * v


# ---------------------------------------------------------------------------
# Scalar ops and loss helpers
# ---------------------------------------------------------------------------


def sigmoid(x: Array) -> Array:
    return _sigmoid_and_exp(x)[0]


def _sigmoid_and_exp(x: Array) -> tuple[Array, Array]:
    """(sigmoid(x), e) with e = exp(-|x|), computed without a mask.

    sigmoid is 1/(1+e) where x >= 0 and e/(1+e) elsewhere. Neither branch can
    overflow, and each equals the masked definition (1/(1+exp(-x)) for
    x >= 0, exp(x)/(1+exp(x)) otherwise) bit for bit; e takes its exponent
    from where(x >= 0, -x, x), so a NaN keeps its sign as well."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d), e


def softmax(logits: Array) -> Array:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def bce_with_logits(logits: Array, targets: Array) -> tuple[float, Array]:
    """Mean sigmoid binary cross-entropy; returns (loss, dloss/dlogits)."""
    l = as_f64(logits)
    y = as_f64(targets)
    p, e = _sigmoid_and_exp(l)
    loss = np.maximum(l, 0.0) - l * y + np.log1p(e)
    return float(loss.mean()), (p - y) / l.size


def softmax_ce_with_logits(logits: Array, class_idx: Array) -> tuple[float, Array]:
    """Mean categorical cross-entropy over a batch of logit rows."""
    l = as_f64(logits)
    idx = np.asarray(class_idx, dtype=np.intp)
    z = l - l.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = l.shape[0]
    loss = -logp[np.arange(n), idx].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), idx] -= 1.0
    return float(loss), dlogits / n


def require_finite(x, what: str):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite values in {what}")
