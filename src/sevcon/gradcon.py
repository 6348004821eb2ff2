"""Gradient-constrained autoencoder training on the healthy distribution,
reference-gradient bookkeeping, and severity scoring.

The severity score of an image is its reconstruction error minus alpha times
the alignment of its decoder gradients with the reference gradients averaged
over healthy training. Higher score = more severe.

Every training pass runs on the ``Autoencoder``'s
``models.BlockedNetwork``, which runs a batch in cache-sized blocks of
``models.MICRO_BATCH`` images and sums the blocks' parameter gradients; a
single-image pass is one plain Network call. A training step runs the
batch pass, then the constraint term's two finite-difference passes, which
reuse the batch pass's encoder forward and rerun only its decoder forward
(``Autoencoder.redecode``), then one forward and one decoder-only backward
per held-out image, whose alignment reads the decoder's gradients only.
Scoring runs a corpus in blocks of ``MICRO_BATCH`` images too, but reads
each image's decoder gradients from one decoder-only backward of the block:
the conv layers' unsummed weight-gradient stacks, and the rank-1 identity
for the first ``Dense``. Both deal their blocks to lanes (``models.deal``),
so the blocks of one pass run at once on the usable cores, with results that
do not depend on the lane count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GradconSection
from .models import MICRO_BATCH, Autoencoder, map_blocks
from .numerics import (
    Array,
    Network,
    NumericalError,
    SgdState,
    ShapeError,
    as_f64,
    sgd_step,
)

# Held-out images whose per-image alignment is logged each iteration; a fixed
# subsample keeps the cost of the held-out passes bounded.
HELDOUT_SAMPLE = 8


@dataclass
class ReferenceGradients:
    """Running per-decoder-layer mean of flattened weight gradients."""

    layer_means: list[Array] = field(default_factory=list)
    count: int = 0

    def initialized(self) -> bool:
        return self.count >= 1


@dataclass
class SeverityScore:
    value: float
    l_recon: float
    l_grad: float


def reconstruction_loss(x: Array, xhat: Array) -> float:
    """Mean over all pixels of (x - xhat)^2."""
    x = as_f64(x)
    xhat = as_f64(xhat)
    if x.shape != xhat.shape:
        raise ShapeError(f"reconstruction_loss: shapes {x.shape} != {xhat.shape}")
    return float(np.mean((x - xhat) ** 2))


def reconstruction_loss_grad(x: Array, xhat: Array) -> Array:
    """d(mean squared error)/d(xhat)."""
    return 2.0 * (xhat - x) / x.size


def decoder_weight_gradients(model: Autoencoder) -> list[Array]:
    """Flattened weight gradients of each parameterized decoder layer, in
    layer order, from the last backward pass. Biases are excluded. Views, not
    copies: every backward assigns new gradient arrays, so later passes leave
    these intact."""
    return [model.decoder.layers[i].grads["w"].ravel()
            for i in model.decoder_weight_layers()]


def gradient_alignment(current: list[Array], ref: ReferenceGradients) -> float:
    """Unweighted mean over decoder layers of the cosine similarity between
    the current gradients and the reference gradients (see _cosines)."""
    if not ref.initialized():
        raise ValueError("reference gradients are uninitialized")
    sizes = [g.size for g in current]
    if sizes != [m.size for m in ref.layer_means]:
        raise ShapeError(f"layer-set mismatch: gradient sizes {sizes} vs reference "
                         f"{[m.size for m in ref.layer_means]}")
    return float(np.mean([_cosines(np.dot(g, m), np.linalg.norm(g), m)
                          for g, m in zip(current, ref.layer_means)]))


def update_reference(ref: ReferenceGradients, grads: list[Array]) -> ReferenceGradients:
    """Cumulative arithmetic mean: mean_{k+1} = mean_k + (g - mean_k)/(k+1)."""
    if ref.count == 0:
        ref.layer_means = [g.copy() for g in grads]
        ref.count = 1
        return ref
    if len(grads) != len(ref.layer_means):
        raise ShapeError("layer-set mismatch in update_reference")
    k = ref.count
    for mean, g in zip(ref.layer_means, grads):
        if mean.shape != g.shape:
            raise ShapeError("gradient shape mismatch in update_reference")
        mean += (g - mean) / (k + 1)
    ref.count = k + 1
    return ref


def _recon_backward(model: Autoencoder, batch: Array) -> tuple[float, dict[str, Array]]:
    """One forward/backward pass of the reconstruction loss; returns the loss
    and a full parameter-gradient dict."""
    xhat = model.forward(batch)
    loss = reconstruction_loss(batch, xhat)
    model.backward(reconstruction_loss_grad(batch, xhat))
    return loss, model.grad_dict()


def _heldout_alignment(model: Autoencoder, held: Array, ref: ReferenceGradients) -> float:
    """Mean gradient_alignment of each held-out image's own decoder weight
    gradients, from one forward and one decoder-only backward per image:
    the decoder's gradients are those of a full pass bit for bit."""
    aligns = []
    for i in range(held.shape[0]):
        x = held[i:i + 1]
        model.backward(reconstruction_loss_grad(x, model.forward(x)), decoder_only=True)
        aligns.append(gradient_alignment(decoder_weight_gradients(model), ref))
    return float(np.mean(aligns))


def _alignment_grad_wrt_gradients(current: list[Array],
                                  ref: ReferenceGradients) -> list[Array]:
    """d(mean_l cos(g_l, m_l))/d(g_l), closed form per layer."""
    n_layers = len(current)
    out = []
    for g, m in zip(current, ref.layer_means):
        ng = np.linalg.norm(g)
        nm = np.linalg.norm(m)
        if ng < 1e-12 or nm < 1e-12:
            out.append(np.zeros_like(g))
            continue
        c = float(np.dot(g, m) / (ng * nm))
        out.append((m / (ng * nm) - c * g / ng ** 2) / n_layers)
    return out


def _constraint_update_term(model: Autoencoder, batch: Array,
                            dec_keys: list[str],
                            dalign: list[Array]) -> dict[str, Array]:
    """d(L_grad)/d(theta) = H u, where H is the Hessian of the reconstruction
    loss and u embeds the per-layer alignment derivatives into decoder-weight
    coordinates. Approximated by the central difference
    (g(theta + delta u) - g(theta - delta u)) / (2 delta) of the parameter
    gradients g, with delta = 1e-5 (1 + max|decoder weight|) / |u|.

    u is zero on the encoder, so the encoder forward of both passes is the
    one of the model's last pass, which must have been over ``batch`` at the
    current weights (else ValueError). Each pass reruns only the decoder
    forward from the kept blocks (``Autoencoder.redecode``), then runs a full
    backward; g(theta + delta u) is bitwise that of a full forward/backward.
    The decoder weights are restored bitwise on return, also when a pass
    raises."""
    last = model.last_input
    if not (last is batch or np.array_equal(last, batch)):
        raise ValueError("constraint update term: the model's last pass was not over batch")
    u_norm = np.sqrt(sum(float(np.dot(d, d)) for d in dalign))
    params = model.param_dict()
    if u_norm < 1e-12:
        return {k: np.zeros_like(v) for k, v in params.items()}
    scale = max(np.abs(params[k]).max() for k in dec_keys)
    delta = 1e-5 * (1.0 + scale) / u_norm

    saved = {k: params[k].copy() for k in dec_keys}

    def perturb(sign: float):
        for k, d in zip(dec_keys, dalign):
            params[k][...] = saved[k] + sign * delta * d.reshape(params[k].shape)

    def grads_at(sign: float) -> dict[str, Array]:
        perturb(sign)
        model.backward(reconstruction_loss_grad(batch, model.redecode()))
        return model.grad_dict()

    try:
        g_plus, g_minus = grads_at(+1.0), grads_at(-1.0)
    finally:
        for k in dec_keys:
            params[k][...] = saved[k]
    return {k: (g_plus[k] - g_minus[k]) / (2.0 * delta) for k in g_plus}


def train_gradcon(healthy: Array, g: GradconSection, model: Autoencoder, seed: int,
                  heldout: Array | None = None
                  ) -> tuple[Autoencoder, ReferenceGradients, list[dict]]:
    """Train the autoencoder on healthy images with the gradient constraint.

    Per iteration: compute the reconstruction loss and its decoder gradients;
    the objective is J = L_recon - alpha * L_grad, where L_grad is the
    alignment with the pre-update reference. The constraint is inactive on the
    very first iteration (no reference yet); the reference accumulates every
    iteration. When heldout images are given, each epoch's log entry carries
    the mean alignment of per-image heldout gradients with the reference,
    averaged over the epoch's iterations, over the first HELDOUT_SAMPLE
    heldout images; the others are not read. The constraint term runs right
    after the batch pass, whose encoder forward it reuses, and the held-out
    passes after it. Returns (model, reference, per-epoch log).
    """
    healthy = as_f64(healthy)
    if healthy.shape[0] == 0:
        raise ValueError("empty healthy dataset")
    rng = np.random.default_rng(seed)
    opt = SgdState(g.learning_rate, g.momentum)
    ref = ReferenceGradients()
    dec_key_order = [f"decoder.{i}.w" for i in model.decoder_weight_layers()]
    log: list[dict] = []
    params = model.param_dict()

    n = healthy.shape[0]
    held = None
    if heldout is not None and heldout.shape[0] > 0:
        held = as_f64(heldout)[:HELDOUT_SAMPLE]
    for epoch in range(g.epochs):
        opt.learning_rate = g.warmup_learning_rate if epoch == 0 else g.learning_rate
        order = rng.permutation(n)
        recon_vals, align_vals, held_vals = [], [], []
        for start in range(0, n, g.batch_size):
            batch = healthy[order[start:start + g.batch_size]]
            loss, grads = _recon_backward(model, batch)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite reconstruction loss at epoch {epoch}")
            dec_grads = decoder_weight_gradients(model)

            update = grads
            if ref.initialized():
                l_grad = gradient_alignment(dec_grads, ref)
                align_vals.append(l_grad)
                if g.alpha != 0.0:
                    dalign = _alignment_grad_wrt_gradients(dec_grads, ref)
                    hv = _constraint_update_term(model, batch, dec_key_order, dalign)
                    update = {k: v - g.alpha * hv[k] for k, v in grads.items()}
                if held is not None:
                    held_vals.append(_heldout_alignment(model, held, ref))
            sgd_step(opt, params, update)
            update_reference(ref, dec_grads)
            recon_vals.append(loss)

        entry = {
            "epoch": epoch,
            "mean_recon": float(np.mean(recon_vals)),
            "mean_alignment": float(np.mean(align_vals)) if align_vals else float("nan"),
        }
        if held is not None:
            entry["heldout_alignment"] = (
                float(np.mean(held_vals)) if held_vals else float("nan"))
        log.append(entry)
    return model, ref, log


def _cosines(dots: Array, norms: Array, m: Array) -> Array:
    """Cosine of each image's gradient g with m, from g.m and |g|:
    g.m / (|g||m|), and 0 where either norm is below 1e-12."""
    nm = np.linalg.norm(m)
    small = (norms < 1e-12) | (nm < 1e-12)
    return np.where(small, 0.0, dots / np.where(small, 1.0, norms * nm))


def _decoder_alignments(decoder: Network, weight_layers: list[int], dout: Array,
                        ref: ReferenceGradients) -> Array:
    """gradient_alignment of each image's decoder weight gradients, from one
    backward through the last forward's caches of ``decoder``, whose weight
    layers are ``weight_layers``. `dout` holds each image's own loss
    gradient. The conv layers leave their per-image weight gradients
    unsummed; for the first layer, a Dense with input z and output gradient
    d, image i's gradient is z_i (x) d_i, so its dot with the mean M is
    z_i^T M d_i and its norm |z_i||d_i|, and it is never built. Neither the
    encoder nor that Dense's input gradient is computed."""
    layers = decoder.layers
    means = dict(zip(weight_layers, ref.layer_means))
    cosines = []
    for i in range(len(layers) - 1, 0, -1):
        if i in means:
            dout = layers[i].backward(dout, per_sample=True)
            g = layers[i].grads["w"].reshape(len(dout), -1)
            cosines.append(_cosines(g @ means[i], np.linalg.norm(g, axis=1), means[i]))
        else:
            dout = layers[i].backward(dout)
    z, m = layers[0]._cache, means[0]
    dots = np.einsum("bi,bi->b", z @ m.reshape(z.shape[1], -1), dout)
    cosines.append(_cosines(dots, np.linalg.norm(z, axis=1) * np.linalg.norm(dout, axis=1), m))
    return np.mean(cosines[::-1], axis=0)


def score_dataset(model: Autoencoder, ref: ReferenceGradients, images: Array,
                  alpha: float) -> list[SeverityScore]:
    """Score each image: value = l_recon - alpha * l_grad, with l_recon its
    reconstruction loss and l_grad the alignment of its own (batch-1) decoder
    weight gradients with the reference. Runs in blocks of MICRO_BATCH
    images, dealt to lanes (``models.map_blocks``): one forward and one
    decoder-only backward per block (see _decoder_alignments). Each
    score matches one batch-1 forward/backward of the image, the tests'
    oracle, to <= 1e-12 relative. Pure with respect to model parameters and
    the reference (only layer caches and gradient buffers are touched)."""
    if not ref.initialized():
        raise ValueError("reference gradients are uninitialized")
    weight_layers = model.decoder_weight_layers()
    sizes = [model.decoder.layers[i].params["w"].size for i in weight_layers]
    if [m.size for m in ref.layer_means] != sizes:
        raise ShapeError(f"layer-set mismatch: reference sizes "
                         f"{[m.size for m in ref.layer_means]} vs decoder {sizes}")

    def block(nets, x):
        enc, dec = nets
        xhat = dec.forward(enc.forward(x))
        if x.shape != xhat.shape:
            raise ShapeError(f"reconstruction_loss: shapes {x.shape} != {xhat.shape}")
        # each image's loss is the mean over its own pixels, unscaled by the block
        l_recon = ((x - xhat) ** 2).reshape(len(x), -1).mean(axis=1)
        return zip(l_recon, _decoder_alignments(
            dec, weight_layers, 2.0 * (xhat - x) / x[0].size, ref))

    blocks = map_blocks([model.encoder, model.decoder], as_f64(images), MICRO_BATCH, block)
    return [SeverityScore(value=float(r - alpha * g), l_recon=float(r), l_grad=float(g))
            for pairs in blocks for r, g in pairs]


def severity_score(model: Autoencoder, ref: ReferenceGradients, x: Array,
                   alpha: float) -> SeverityScore:
    """Score one image, as score_dataset does."""
    x = as_f64(x)
    batch = x[None] if x.ndim == 3 else x
    if batch.shape[0] != 1:
        raise ShapeError("severity_score takes a single image")
    return score_dataset(model, ref, batch, alpha)[0]
