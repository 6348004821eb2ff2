"""Concrete network builders: convolutional autoencoder, encoder backbone,
projection head, and linear classifier heads.

The backbone and both heads are plain ``Network`` stacks; a caller that needs
an output width reads it from the last layer (``net.layers[-1].n_out``), and
a backbone trained jointly with a head is ``TrunkNetwork(backbone.layers +
head.layers)``, which shares the layer objects and runs the backbone's conv
trunk in blocks on lanes. Only the autoencoder keeps a class of its own, for
the encoder/decoder split that gradcon scores with; its passes run in blocks
on lanes too. Both go through ``BlockedPass``, which keeps each block's
layer caches, and ``deal``, which runs the blocks on the lanes. Each
decoder upsampling stage is one ``UpsampleConv2d``, a 2x nearest upsample
and a 3x3 conv computed on the low-res grid, so the decoder is [Dense, Relu,
Reshape, (UpsampleConv2d, Relu) per stage, Conv2d, Sigmoid] and its weight
layers are 0, 3, 5, 7 (and 9 at side 64).

All builders are deterministic in (config, seed). Desk-scale defaults:
32x32 grayscale inputs; the embedding and projection widths come from the
``[contrastive]`` config (64 and 32 by default).
"""

from __future__ import annotations

import copy
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Array,
    Conv2d,
    Dense,
    Flatten,
    Layer,
    Network,
    Relu,
    Reshape,
    ShapeError,
    Sigmoid,
    UpsampleConv2d,
    load_params,
)

SUPPORTED_SIDES = (32, 64)

# Images per block of an autoencoder pass. A 32-image gradcon batch is then
# four blocks, enough for two lanes, and each block's backward rebuilds
# column arrays of at most 8 x 0.6 MB. A 160-image gradcon epoch at one BLAS
# thread on a 2-core VM (two lanes), median of six alternating rounds: 194
# images/s at 4, 225 at 8, 221 at 16, 138 at 32 (one block, one busy lane).
MICRO_BATCH = 8

# Images per block of a TrunkNetwork's conv trunk. Ten SupCon steps of 128
# views at one BLAS thread on the same VM, median of six alternating rounds:
# 357 ms at 16, 342 at 32, 416 at 64, 533 at 128 (one block). From 64 up,
# the column arrays each backward rebuilds made glibc trim and re-fault its
# heap: about 3000 minor faults per step, against 310 at 32.
TRUNK_BLOCK = 32


def _lane_count() -> int:
    """Usable cores / BLAS threads, at least 1. The BLAS thread count is
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the usable cores, as
    OpenBLAS itself reads it. At the default BLAS threads a 2-core VM gets
    one lane: a second lane there slowed a 160-image gradcon epoch to 118-124
    images/s from 123-151 (three runs each), where at one BLAS thread it
    raised it from 139-160 to 214-226."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = int(blas) if blas and blas.strip().isdigit() else 0
    return max(1, cores // (threads or cores))


# Lanes that run a blocked pass at once: lane 0 is the calling
# thread, the others are threads of one pool that starts on first use.
LANES = _lane_count()
_pool: ThreadPoolExecutor | None = None
_pool_workers = 0


def _run_lanes(n_lanes: int, lane: Callable[[int], None]):
    """Run lane(k) for k < n_lanes, lane 0 on the calling thread. Returns or
    raises only after every lane has stopped; the lowest failed lane's
    exception is the one raised."""
    global _pool, _pool_workers
    if n_lanes <= 1:
        for k in range(n_lanes):
            lane(k)
        return
    if _pool_workers < n_lanes - 1:
        if _pool is not None:
            _pool.shutdown()
        _pool, _pool_workers = ThreadPoolExecutor(n_lanes - 1, "sevcon-lane"), n_lanes - 1
    others = [_pool.submit(lane, k) for k in range(1, n_lanes)]
    try:
        lane(0)
    finally:
        wait(others)
    for f in others:
        f.result()


def _replica(net: Network) -> Network:
    """A copy of ``net`` whose layers share each original layer's ``params``
    dict and keep their own ``_cache`` and ``grads``."""
    layers = []
    for layer in net.layers:
        r = copy.copy(layer)
        r.grads, r._cache = {}, None
        layers.append(r)
    return Network(layers)


def deal(nets: list[Network], n_blocks: int, work: Callable[[list[Network], int], None],
         reverse: bool = False):
    """Run work(lane_nets, b) for every block b < n_blocks, block b on lane
    b % LANES with that lane's networks: ``nets`` at lane 0, else replicas
    whose layers share their parameters. Each lane runs its blocks in order
    (last first with ``reverse``). A block gives the same arrays on any lane.
    See _run_lanes for failures."""
    n_lanes = min(LANES, n_blocks)
    lanes = [nets] + [[_replica(net) for net in nets] for _ in range(n_lanes - 1)]

    def lane(k):
        blocks = range(k, n_blocks, n_lanes)
        for b in (reversed(blocks) if reverse else blocks):
            work(lanes[k], b)

    _run_lanes(n_lanes, lane)


class BlockedPass:
    """Passes through the networks ``nets``, applied in turn, in blocks of
    ``size`` images dealt to lanes (``deal``). ``forward`` keeps each
    block's layer caches; ``backward`` puts them back into the layers of the
    lane that runs the block. An empty batch is one empty block, as an
    unblocked pass would see it."""

    def __init__(self, nets: list[Network], size: int):
        self.nets, self.size = nets, size
        self.blocks: list = []  # per block: (rows, layer caches)

    def _layers(self, nets: list[Network]):
        return [layer for net in nets for layer in net.layers]

    def forward(self, x: Array) -> Array:
        # the last pass's block caches go before this pass allocates its own
        self.blocks = [None] * max(-(-x.shape[0] // self.size), 1)
        out = [None] * len(self.blocks)

        def block(nets, b):
            part = x[b * self.size:(b + 1) * self.size]
            rows = len(part)
            for net in nets:
                part = net.forward(part)
            out[b] = part
            self.blocks[b] = (rows, [layer._cache for layer in self._layers(nets)])

        deal(self.nets, len(self.blocks), block)
        return out[0] if len(out) == 1 else np.concatenate(out)

    def backward(self, dout: Array, work: Callable[[list[Network], Array], object]) -> list:
        """work(lane_nets, rows of dout) for each block, on its forward's
        caches; returns the results in block order. Each lane runs its last
        block first: its caches are the likeliest cached."""
        if not self.blocks:
            raise RuntimeError("blocked pass: backward called before forward")
        rows = sum(n for n, _ in self.blocks)
        if dout.shape[0] != rows:
            raise ShapeError(f"blocked pass: dout has {dout.shape[0]} rows, "
                             f"forward had {rows}")
        results = [None] * len(self.blocks)

        def block(nets, b):
            for layer, cache in zip(self._layers(nets), self.blocks[b][1]):
                layer._cache = cache
            results[b] = work(nets, dout[b * self.size:(b + 1) * self.size])

        deal(self.nets, len(self.blocks), block, reverse=True)
        return results


class TrunkNetwork(Network):
    """A Network whose conv trunk, the layers before its first Dense, runs in
    blocks of TRUNK_BLOCK images (BlockedPass), while the Dense tail runs on
    the whole batch on the calling thread.

    Each trunk conv leaves per-image weight and bias gradients
    (``per_sample=True``); they are concatenated in block order and summed
    over the batch axis, the sum a one-call backward takes. A block's
    arrays do not depend on the block, so outputs, input gradients and
    parameter gradients equal ``Network``'s bit for bit."""

    def __init__(self, layers: list[Layer]):
        super().__init__(layers)
        n = next(i for i, layer in enumerate(self.layers) if isinstance(layer, Dense))
        self.trunk = BlockedPass([Network(self.layers[:n])], TRUNK_BLOCK)
        self.tail = Network(self.layers[n:])

    def forward(self, x: Array) -> Array:
        return self.tail.forward(self.trunk.forward(x))

    def backward(self, dout: Array, input_grad: bool = True) -> Array | None:
        def block(nets, d):
            layers = nets[0].layers
            for i in range(len(layers) - 1, -1, -1):
                if layers[i].params:
                    d = layers[i].backward(d, input_grad=input_grad or i > 0, per_sample=True)
                else:
                    d = layers[i].backward(d)
            return d, [dict(layer.grads) for layer in layers]

        results = self.trunk.backward(self.tail.backward(dout), block)
        for i, layer in enumerate(self.trunk.nets[0].layers):
            layer.grads = {name: np.concatenate([r[1][i][name] for r in results]).sum(axis=0)
                           for name in layer.params}
        return np.concatenate([r[0] for r in results]) if input_grad else None


@dataclass
class Autoencoder:
    """Encoder/decoder pair whose passes are cache-blocked and run on lanes.

    ``forward`` runs the batch in blocks of MICRO_BATCH images (BlockedPass);
    ``backward`` leaves in each layer's ``grads`` the sum over blocks. The
    rows of ``dout`` carry the whole batch's loss scaling, so that sum is the
    batch gradient. At <= MICRO_BATCH images a pass is one block with the
    unblocked arithmetic. The input is data: its gradient is not computed.
    ``backward`` sums the per-block gradients on the calling thread, last
    block first, so every result is bitwise independent of the lane count."""

    encoder: Network
    decoder: Network
    _pass: BlockedPass = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._pass = BlockedPass([self.encoder, self.decoder], MICRO_BATCH)

    def forward(self, x: Array) -> Array:
        return self._pass.forward(x)

    def backward(self, dout: Array) -> None:
        def block(nets, d):
            enc, dec = nets
            enc.backward(dec.backward(d), input_grad=False)
            return [dict(layer.grads) for layer in enc.layers + dec.layers]

        grads = self._pass.backward(dout, block)
        # each backward assigns new grads arrays, so the sums may go in place
        total = grads[-1]
        for block_grads in reversed(grads[:-1]):
            for sums, g in zip(total, block_grads):
                for name in sums:
                    sums[name] += g[name]
        for sums, layer in zip(total, self.encoder.layers + self.decoder.layers):
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
