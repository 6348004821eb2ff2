"""Concrete network builders: convolutional autoencoder, encoder backbone,
projection head, and linear classifier heads.

The backbone and both heads are plain ``Network`` stacks; a caller that needs
an output width reads it from the last layer (``net.layers[-1].n_out``), and
a backbone trained jointly with a head is ``Network(backbone.layers +
head.layers)``, which shares the layer objects. Only the autoencoder keeps a
class of its own, for the encoder/decoder split that gradcon scores with,
and for its cache-blocked forward/backward. Each decoder upsampling stage is
one ``UpsampleConv2d``, a 2x nearest upsample and a 3x3 conv computed on the
low-res grid, so the decoder is [Dense, Relu, Reshape, (UpsampleConv2d,
Relu) per stage, Conv2d, Sigmoid] and its weight layers are 0, 3, 5, 7 (and
9 at side 64).

All builders are deterministic in (config, seed). Desk-scale defaults:
32x32 grayscale inputs; the embedding and projection widths come from the
``[contrastive]`` config (64 and 32 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Array,
    Conv2d,
    Dense,
    Flatten,
    Network,
    Relu,
    Reshape,
    ShapeError,
    Sigmoid,
    UpsampleConv2d,
    load_params,
)

SUPPORTED_SIDES = (32, 64)

# Images per block of an autoencoder pass. The largest column arrays take
# about 0.6 MB per image (the final 8->1 conv's, and the 16->8 upsample-conv's
# four phases), so a block of 8 holds 4.7 MB where a batch of 32 would hold
# 18.9 MB. A 160-image gradcon epoch with one BLAS thread on a 2-core VM,
# median of 16 round-robin runs: 152 images/s at 4, 160 at 8, 160 at 16; at 2
# it was 137-148 in shorter rounds.
MICRO_BATCH = 8


@dataclass
class Autoencoder:
    """Encoder/decoder pair whose passes are cache-blocked.

    ``forward`` runs the batch in blocks of MICRO_BATCH images and keeps each
    block's layer caches; ``backward`` runs the blocks last to first and
    leaves in each layer's ``grads`` the sum over blocks. The rows of
    ``dout`` carry the whole batch's loss scaling, so that sum is the batch
    gradient. At <= MICRO_BATCH images a pass is one block with the
    unblocked arithmetic. The input is data: its gradient is not computed."""

    encoder: Network
    decoder: Network
    _blocks: list = field(default_factory=list, init=False, repr=False, compare=False)

    def forward(self, x: Array) -> Array:
        layers = self.encoder.layers + self.decoder.layers
        self._blocks, out = [], []
        # an empty batch is one empty block, as an unblocked pass would see it
        for start in range(0, max(x.shape[0], 1), MICRO_BATCH):
            part = x[start:start + MICRO_BATCH]
            out.append(self.decoder.forward(self.encoder.forward(part)))
            self._blocks.append((start, len(part), [layer._cache for layer in layers]))
        return out[0] if len(out) == 1 else np.concatenate(out)

    def backward(self, dout: Array) -> None:
        if not self._blocks:
            raise RuntimeError("autoencoder: backward called before forward")
        start, n, _ = self._blocks[-1]
        if dout.shape[0] != start + n:
            raise ShapeError(f"autoencoder: dout has {dout.shape[0]} rows, "
                             f"forward had {start + n}")
        layers = self.encoder.layers + self.decoder.layers
        total = None
        # last block first: its caches are the ones most likely still cached
        for start, n, caches in reversed(self._blocks):
            for layer, cache in zip(layers, caches):
                layer._cache = cache
            self.encoder.backward(self.decoder.backward(dout[start:start + n]),
                                  input_grad=False)
            if total is None:
                total = [dict(layer.grads) for layer in layers]
            else:  # each backward assigns new grads arrays, so total's are ours
                for sums, layer in zip(total, layers):
                    for name, g in layer.grads.items():
                        sums[name] += g
        for sums, layer in zip(total, layers):
            layer.grads.update(sums)

    def param_dict(self) -> dict[str, Array]:
        d = {f"encoder.{k}": v for k, v in self.encoder.named_params()}
        d.update({f"decoder.{k}": v for k, v in self.decoder.named_params()})
        return d

    def grad_dict(self) -> dict[str, Array]:
        """Parameter gradients of the last backward pass, keyed as param_dict."""
        d = {f"encoder.{k}": v for k, v in self.encoder.grad_dict().items()}
        d.update({f"decoder.{k}": v for k, v in self.decoder.grad_dict().items()})
        return d

    def load_param_dict(self, params: dict[str, Array]):
        load_params(self.param_dict(), params)

    def decoder_weight_layers(self) -> list[int]:
        """Indices of decoder layers carrying a weight tensor, in order."""
        return [i for i, layer in enumerate(self.decoder.layers) if "w" in layer.params]


def _check_side(image_side: int):
    if image_side not in SUPPORTED_SIDES:
        raise ValueError(f"unsupported image_side {image_side}; supported: {SUPPORTED_SIDES}")


def build_autoencoder(image_side: int, latent_dim: int, seed: int) -> Autoencoder:
    _check_side(image_side)
    if latent_dim < 4:
        raise ValueError("latent_dim must be >= 4")
    rng = np.random.default_rng(seed)
    # Two stride-2 stages at 32, three at 64; bottleneck grid is 8x8 either way.
    n_down = 2 if image_side == 32 else 3
    grid = image_side // (2 ** n_down)

    enc: list = [Conv2d(1, 8, rng, stride=1), Relu()]
    c = 8
    for _ in range(n_down):
        c_next = min(c * 2, 32)
        enc += [Conv2d(c, c_next, rng, stride=2), Relu()]
        c = c_next
    c_last = c
    enc += [Flatten(), Dense(c_last * grid * grid, latent_dim, rng)]

    dec: list = [Dense(latent_dim, c_last * grid * grid, rng), Relu(),
                 Reshape((c_last, grid, grid))]
    c = c_last
    for _ in range(n_down):
        c_next = max(c // 2, 8)
        dec += [UpsampleConv2d(c, c_next, rng), Relu()]
        c = c_next
    dec += [Conv2d(c, 1, rng, stride=1), Sigmoid()]

    return Autoencoder(Network(enc), Network(dec))


def build_backbone(image_side: int, embedding_dim: int, seed: int) -> Network:
    _check_side(image_side)
    rng = np.random.default_rng(seed)
    n_down = 3 if image_side == 32 else 4
    layers: list = []
    c = 1
    c_out = 8
    for _ in range(n_down):
        layers += [Conv2d(c, c_out, rng, stride=2), Relu()]
        c, c_out = c_out, min(c_out * 2, 32)
    grid = image_side // (2 ** n_down)
    layers += [Flatten(), Dense(c * grid * grid, embedding_dim, rng)]
    return Network(layers)


def build_projection_head(embedding_dim: int, output_dim: int, seed: int) -> Network:
    """dense -> relu -> dense, exactly one hidden layer."""
    rng = np.random.default_rng(seed)
    return Network([
        Dense(embedding_dim, embedding_dim, rng),
        Relu(),
        Dense(embedding_dim, output_dim, rng),
    ])


def build_classifier_head(embedding_dim: int, output_dim: int, seed: int) -> Network:
    """A single dense layer producing logits."""
    rng = np.random.default_rng(seed)
    return Network([Dense(embedding_dim, output_dim, rng)])


def normalize_rows_backward(u: Array, z: Array, dz: Array) -> Array:
    """Backward of row-wise z = u/|u|: du = (dz - (z.dz) z) / |u|."""
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    dot = (z * dz).sum(axis=1, keepdims=True)
    return (dz - dot * z) / norms
