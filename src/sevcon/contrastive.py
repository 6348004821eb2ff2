"""Supervised contrastive pretraining on severity pseudo-labels.

Two augmented views per source image guarantee every anchor at least one
positive regardless of how sparse the pseudo-label bins are. Setting every
source's label to its own id turns the loss into instance discrimination
(the SimCLR-equivalent mode).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, ContrastiveSection
from .models import TrunkNetwork, normalize_rows_backward
from .numerics import Array, Network, NumericalError, SgdState, as_f64, sgd_step


@dataclass
class MultiviewBatch:
    views: Array   # (2B, 1, H, W); view i and i+B share source i
    labels: Array  # (2B,) pseudo-labels inherited from the sources


def augment(c: ContrastiveSection, images: Array, rng: np.random.Generator) -> Array:
    """Random resized crop, horizontal flip, brightness/contrast jitter, then
    mean/std normalization of a batch (N, 1, S, S); returns N views of the
    same shape, view k from image k.

    Each view's parameters are drawn in turn from ``rng``, in the order scale,
    top, left, flip, brightness, contrast. All views are then resampled at
    once, one group per crop size: a crop of the full side is copied, any
    other is resized bilinearly to S x S through four flat gathers, with the
    corner weights on the grid ``linspace(0, crop - 1, S)``."""
    imgs = as_f64(images)[:, 0]
    n, side = imgs.shape[:2]
    crops = np.empty(n, dtype=np.intp)
    tops = np.empty(n, dtype=np.intp)
    lefts = np.empty(n, dtype=np.intp)
    flips = np.empty(n, dtype=bool)
    shifts = np.empty(n)
    gains = np.empty(n)
    for k in range(n):
        scale = rng.uniform(c.crop_scale_min, c.crop_scale_max)
        crop = min(max(1, int(round(side * np.sqrt(scale)))), side)
        crops[k] = crop
        tops[k] = rng.integers(0, side - crop + 1)
        lefts[k] = rng.integers(0, side - crop + 1)
        flips[k] = rng.random() < c.flip_prob
        shifts[k] = rng.uniform(-c.brightness_jitter, c.brightness_jitter)
        gains[k] = 1.0 + rng.uniform(-c.contrast_jitter, c.contrast_jitter)

    out = np.empty_like(imgs)
    flat = imgs.reshape(-1)
    for crop in np.unique(crops).tolist():
        group = np.flatnonzero(crops == crop)
        if crop == side:
            out[group] = imgs[group]
            continue
        grid = np.linspace(0.0, crop - 1.0, side)
        g0 = np.floor(grid).astype(np.intp)
        g1 = np.minimum(g0 + 1, crop - 1)
        # flat index of (view, row, col) is (view * side + row) * side + col
        rows = (group * side + tops[group])[:, None]
        r0 = ((rows + g0) * side)[:, :, None]
        r1 = ((rows + g1) * side)[:, :, None]
        c0 = (lefts[group][:, None] + g0)[:, None, :]
        c1 = (lefts[group][:, None] + g1)[:, None, :]
        w = grid - g0
        v = 1 - w
        top = flat[r0 + c0] * v + flat[r0 + c1] * w
        bot = flat[r1 + c0] * v + flat[r1 + c1] * w
        out[group] = top * v[:, None] + bot * w[:, None]

    out[flips] = out[flips, :, ::-1]
    out += shifts[:, None, None]
    out *= gains[:, None, None]
    out -= c.normalize_mean
    out /= c.normalize_std
    return out[:, None]


def build_multiview_batch(images: Array, labels: Array, idxs: Array,
                          c: ContrastiveSection,
                          rng: np.random.Generator) -> MultiviewBatch:
    idxs = np.asarray(idxs)
    both = np.concatenate([idxs, idxs])
    return MultiviewBatch(
        views=augment(c, images[both], rng),
        labels=np.asarray(labels)[both],
    )


def supcon_loss_and_grad(z: Array, labels: Array, tau: float) -> tuple[float, Array]:
    """The supervised contrastive loss of unit-norm embeddings z, the mean
    over anchors i of -1/|P(i)| sum_{p in P(i)} log softmax_i(p), and its
    gradient with respect to z."""
    z = as_f64(z)
    m = z.shape[0]
    norms = np.linalg.norm(z, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("embeddings must be unit-norm")
    if tau <= 0:
        raise ValueError("tau must be positive")
    labels = np.asarray(labels)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(pos, 0.0)
    if np.any(pos.sum(axis=1) == 0):
        raise ValueError("every anchor needs at least one positive")

    s = (z @ z.T) / tau
    # exclude self-similarity from the denominator via max-subtracted logsumexp
    np.fill_diagonal(s, -np.inf)
    smax = s.max(axis=1, keepdims=True)
    exps = np.exp(s - smax)
    denom = exps.sum(axis=1, keepdims=True)
    logp = (s - smax) - np.log(denom)  # log softmax over A(i)
    p_counts = pos.sum(axis=1, keepdims=True)
    per_anchor = -(pos * np.where(pos > 0, logp, 0.0)).sum(axis=1) / p_counts[:, 0]
    loss = float(per_anchor.mean())
    # dL/dS_ij for j != i: (softmax_i(j) - 1[j in P(i)]/|P(i)|) / m
    g = (exps / denom - pos / p_counts) / m
    np.fill_diagonal(g, 0.0)
    dz = (g + g.T) @ z / tau
    return loss, dz


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if chunk.size >= 2:
            yield chunk


def _balanced_batches(labels: Array, batch_size: int, rng: np.random.Generator):
    """B/2 distinct bins, two source images from each."""
    n = labels.shape[0]
    bins = np.unique(labels)
    eligible = np.array([b for b in bins if np.sum(labels == b) >= 2])
    if eligible.size == 0:
        raise ConfigError("balanced sampler needs at least one bin with >= 2 samples")
    n_steps = max(1, n // batch_size)
    n_bins_per_step = min(max(batch_size // 2, 1), eligible.size)
    for _ in range(n_steps):
        chosen = rng.choice(eligible, size=n_bins_per_step, replace=False)
        idxs = []
        for b in chosen:
            members = np.flatnonzero(labels == b)
            idxs.extend(rng.choice(members, size=2, replace=False))
        yield np.asarray(idxs)


def pretrain(backbone: Network, head: Network, images: Array,
             pseudo_labels: Array, c: ContrastiveSection, seed: int) -> list[float]:
    """Train backbone + projection head with the supervised contrastive loss.

    Both are updated in place. Returns the per-epoch mean loss curve; the
    head is conventionally discarded by the caller afterwards.
    """
    images = as_f64(images)
    labels = np.asarray(pseudo_labels)
    rng = np.random.default_rng(seed)
    opt = SgdState(c.learning_rate, c.momentum)
    net = TrunkNetwork(backbone.layers + head.layers)
    params = net.param_dict()
    curve: list[float] = []
    for _ in range(c.epochs):
        losses = []
        if c.balanced_sampler:
            batches = _balanced_batches(labels, c.batch_size, rng)
        else:
            batches = _epoch_batches(images.shape[0], c.batch_size, rng)
        for idxs in batches:
            batch = build_multiview_batch(images, labels, idxs, c, rng)
            u = net.forward(batch.views)
            norms = np.linalg.norm(u, axis=1, keepdims=True)
            if np.any(norms < 1e-12):
                raise NumericalError("projection collapsed to zero vector")
            zed = u / norms
            loss, dz = supcon_loss_and_grad(zed, batch.labels, c.tau)
            if not np.isfinite(loss):
                raise NumericalError("non-finite contrastive loss")
            net.backward(normalize_rows_backward(u, zed, dz), input_grad=False)
            sgd_step(opt, params, net.grad_dict())
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return curve


def simclr_mode(backbone: Network, head: Network, images: Array,
                c: ContrastiveSection, seed: int) -> list[float]:
    """Instance-discrimination pretraining: each source is its own class.
    Instance labels have no bins to balance, so it runs on the epoch batches
    whatever ``balanced_sampler`` says."""
    return pretrain(backbone, head, images, np.arange(images.shape[0]),
                    replace(c, balanced_sampler=False), seed)
