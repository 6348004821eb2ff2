"""Supervised contrastive pretraining on severity pseudo-labels.

Two augmented views per source image guarantee every anchor at least one
positive regardless of how sparse the pseudo-label bins are. Setting every
source's label to its own id turns the loss into instance discrimination
(the SimCLR-equivalent mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ContrastiveSection
from .models import normalize_rows_backward
from .numerics import Array, Network, NumericalError, SgdState, as_f64, sgd_step


@dataclass
class MultiviewBatch:
    views: Array       # (2B, 1, H, W); view i and i+B share source i
    labels: Array      # (2B,) pseudo-labels inherited from the sources
    source_ids: Array  # (2B,)


def _bilinear_resize(img: Array, out_side: int) -> Array:
    h, w = img.shape
    if h == out_side and w == out_side:
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, out_side)
    xs = np.linspace(0.0, w - 1.0, out_side)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def augment(c: ContrastiveSection, image: Array, rng: np.random.Generator) -> Array:
    """Random resized crop, horizontal flip, brightness/contrast jitter, then
    mean/std normalization. Output shape equals input shape."""
    img = as_f64(image)[0]
    side = img.shape[0]

    scale = rng.uniform(c.crop_scale_min, c.crop_scale_max)
    crop = max(1, int(round(side * np.sqrt(scale))))
    crop = min(crop, side)
    top = rng.integers(0, side - crop + 1)
    left = rng.integers(0, side - crop + 1)
    img = _bilinear_resize(img[top:top + crop, left:left + crop], side)

    if rng.random() < c.flip_prob:
        img = img[:, ::-1].copy()

    img = img + rng.uniform(-c.brightness_jitter, c.brightness_jitter)
    img = img * (1.0 + rng.uniform(-c.contrast_jitter, c.contrast_jitter))
    img = (img - c.normalize_mean) / c.normalize_std
    return img[None]


def build_multiview_batch(images: Array, labels: Array, idxs: Array,
                          c: ContrastiveSection,
                          rng: np.random.Generator) -> MultiviewBatch:
    idxs = np.asarray(idxs)
    views = [augment(c, images[i], rng) for i in idxs]
    views += [augment(c, images[i], rng) for i in idxs]
    lab = np.asarray(labels)[idxs]
    return MultiviewBatch(
        views=np.stack(views),
        labels=np.concatenate([lab, lab]),
        source_ids=np.concatenate([idxs, idxs]),
    )


def _supcon_matrices(z: Array, labels: Array, tau: float):
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
    return m, pos, exps / denom, logp


def supcon_loss(z: Array, labels: Array, tau: float) -> float:
    """Mean over anchors i of -1/|P(i)| sum_{p in P(i)} log softmax_i(p)."""
    m, pos, _, logp = _supcon_matrices(z, labels, tau)
    per_anchor = -(pos * np.where(pos > 0, logp, 0.0)).sum(axis=1) / pos.sum(axis=1)
    return float(per_anchor.mean())


def supcon_loss_and_grad(z: Array, labels: Array, tau: float) -> tuple[float, Array]:
    m, pos, sm, logp = _supcon_matrices(z, labels, tau)
    p_counts = pos.sum(axis=1, keepdims=True)
    per_anchor = -(pos * np.where(pos > 0, logp, 0.0)).sum(axis=1) / p_counts[:, 0]
    loss = float(per_anchor.mean())
    # dL/dS_ij for j != i: (softmax_i(j) - 1[j in P(i)]/|P(i)|) / m
    g = (sm - pos / p_counts) / m
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
        raise ValueError("balanced sampler needs at least one bin with >= 2 samples")
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
    net = Network(backbone.layers + head.layers)
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
    """Instance-discrimination pretraining: each source is its own class."""
    return pretrain(backbone, head, images, np.arange(images.shape[0]), c, seed)
