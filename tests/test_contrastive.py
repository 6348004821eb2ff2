"""Supervised contrastive loss against a brute-force oracle, the batched
augmentation against a per-image oracle, and pretraining smoke tests."""

import numpy as np
import pytest

from conftest import params_checksum, rel_err
from sevcon.config import ContrastiveSection
from sevcon.contrastive import (
    augment,
    build_multiview_batch,
    pretrain,
    simclr_mode,
    supcon_loss_and_grad,
)
from sevcon.models import (
    build_backbone,
    build_projection_head,
    normalize_rows_backward,
)

RNG = np.random.default_rng(11)


def brute_force_supcon(z, labels, tau):
    """Direct loop evaluation of the loss definition: mean over anchors i of
    -1/|P(i)| sum_{p in P(i)} log( exp(z_i.z_p/tau) / sum_{a != i} exp(z_i.z_a/tau) )."""
    m = z.shape[0]
    total = 0.0
    for i in range(m):
        positives = [p for p in range(m) if p != i and labels[p] == labels[i]]
        denom = sum(np.exp(np.dot(z[i], z[a]) / tau) for a in range(m) if a != i)
        inner = 0.0
        for p in positives:
            inner += np.log(np.exp(np.dot(z[i], z[p]) / tau) / denom)
        total += -inner / len(positives)
    return total / m


def random_unit_batch(rng, batch, dim):
    z = rng.normal(size=(batch, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def paired_labels(rng, batch):
    """Labels where every anchor has at least one positive."""
    half = batch // 2
    lab = rng.integers(0, max(1, half), size=half)
    return np.concatenate([lab, lab])


def test_supcon_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        batch = 2 * int(rng.integers(1, 8))
        dim = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.05, 1.0))
        z = random_unit_batch(rng, batch, dim)
        labels = paired_labels(rng, batch)
        ours = supcon_loss_and_grad(z, labels, tau)[0]
        ref = brute_force_supcon(z, labels, tau)
        assert abs(ours - ref) < 1e-9


def test_supcon_hand_case():
    """Two orthogonal pairs at tau=1: every anchor's positive has similarity 1
    and both negatives 0, so the loss is -log(e/(e+2)) = log(e+2) - 1."""
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    expected = np.log(np.e + 2.0) - 1.0
    assert supcon_loss_and_grad(z, labels, tau=1.0)[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5514447139320511, abs=1e-12)


def test_supcon_grad_matches_fd_through_normalization():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(8, 4))
    labels = paired_labels(rng, 8)
    tau = 0.2

    def f(uv):
        zv = uv / np.linalg.norm(uv, axis=1, keepdims=True)
        return supcon_loss_and_grad(zv, labels, tau)[0]

    z = u / np.linalg.norm(u, axis=1, keepdims=True)
    loss, dz = supcon_loss_and_grad(z, labels, tau)
    du = normalize_rows_backward(u, z, dz)
    assert loss == pytest.approx(f(u), abs=1e-12)

    num = np.zeros_like(u)
    eps = 1e-6
    flat, nflat = u.ravel(), num.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(u)
        flat[i] = orig - eps
        fm = f(u)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2 * eps)
    assert rel_err(du, num) < 1e-6


def test_supcon_input_validation():
    z = random_unit_batch(np.random.default_rng(0), 4, 3)
    with pytest.raises(ValueError, match="unit-norm"):
        supcon_loss_and_grad(2.0 * z, np.array([0, 0, 1, 1]), 0.1)
    with pytest.raises(ValueError, match="tau"):
        supcon_loss_and_grad(z, np.array([0, 0, 1, 1]), 0.0)
    with pytest.raises(ValueError, match="positive"):
        supcon_loss_and_grad(z, np.array([0, 0, 1, 2]), 0.1)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def bilinear_resize_oracle(img, out_side):
    """Per-image bilinear resize of a square (h, h) crop to (out_side, out_side)."""
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


def augment_oracle(c, image, rng, crops_seen=None):
    """One view of one (1, S, S) image, drawing scale, top, left, flip,
    brightness and contrast from rng in that order; records the crop size."""
    img = np.asarray(image, dtype=np.float64)[0]
    side = img.shape[0]
    scale = rng.uniform(c.crop_scale_min, c.crop_scale_max)
    crop = max(1, int(round(side * np.sqrt(scale))))
    crop = min(crop, side)
    if crops_seen is not None:
        crops_seen.add(crop)
    top = rng.integers(0, side - crop + 1)
    left = rng.integers(0, side - crop + 1)
    img = bilinear_resize_oracle(img[top:top + crop, left:left + crop], side)
    if rng.random() < c.flip_prob:
        img = img[:, ::-1].copy()
    img = img + rng.uniform(-c.brightness_jitter, c.brightness_jitter)
    img = img * (1.0 + rng.uniform(-c.contrast_jitter, c.contrast_jitter))
    img = (img - c.normalize_mean) / c.normalize_std
    return img[None]


def test_multiview_batch_bitwise_equals_per_image_oracle():
    """Every view, and the generator state after the batch, equal those of the
    per-image loop, at two sides and crops from about 1/4 of the side to all
    of it (the full side is an exact copy)."""
    c = ContrastiveSection(crop_scale_min=0.05, crop_scale_max=1.0, flip_prob=0.5,
                           brightness_jitter=0.1, contrast_jitter=0.1)
    for side in (16, 32):
        crops_seen = set()
        for seed in range(12):
            images = np.random.default_rng(100 + seed).random(size=(9, 1, side, side))
            labels = np.arange(9) % 3
            idxs = np.random.default_rng(seed).permutation(9)[:7]
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = build_multiview_batch(images, labels, idxs, c, rng)
            ref = [augment_oracle(c, images[i], ref_rng, crops_seen) for i in idxs]
            ref += [augment_oracle(c, images[i], ref_rng, crops_seen) for i in idxs]
            assert batch.views.shape == (14, 1, side, side)
            assert np.array_equal(batch.views, np.stack(ref)), (side, seed)
            assert rng.random() == ref_rng.random()  # the same number of draws
        assert side in crops_seen and len(crops_seen) >= 8, sorted(crops_seen)


def test_bilinear_resize_identity_and_constant():
    """Through augment: a full-side crop is an exact copy, and any crop of a
    constant image resizes to the same constant."""
    plain = ContrastiveSection(crop_scale_min=1.0, crop_scale_max=1.0, flip_prob=0.0,
                               brightness_jitter=0.0, contrast_jitter=0.0,
                               normalize_mean=0.0, normalize_std=1.0)
    imgs = RNG.random(size=(3, 1, 8, 8))
    # interpolating at whole-pixel positions would give inf * 0 = NaN next to it
    imgs[1, 0, 3, 4] = np.inf
    assert np.array_equal(augment(plain, imgs, np.random.default_rng(0)), imgs)
    small = ContrastiveSection(crop_scale_min=0.2, crop_scale_max=0.6, flip_prob=0.5,
                               brightness_jitter=0.0, contrast_jitter=0.0,
                               normalize_mean=0.0, normalize_std=1.0)
    out = augment(small, np.full((4, 1, 9, 9), 0.3), np.random.default_rng(1))
    assert out.shape == (4, 1, 9, 9)
    assert np.allclose(out, 0.3)


def test_augment_shape_normalization_and_determinism():
    c = ContrastiveSection()
    imgs = RNG.random(size=(4, 1, 16, 16))
    v1 = augment(c, imgs, np.random.default_rng(5))
    v2 = augment(c, imgs, np.random.default_rng(5))
    assert v1.shape == imgs.shape
    assert np.array_equal(v1, v2)  # same rng stream -> same views
    # normalization: a view of an all-0.5 image with no jitter is exactly 0
    plain = ContrastiveSection(crop_scale_min=1.0, crop_scale_max=1.0, flip_prob=0.0,
                               brightness_jitter=0.0, contrast_jitter=0.0)
    out = augment(plain, np.full((2, 1, 16, 16), 0.5), np.random.default_rng(0))
    assert np.allclose(out, 0.0)


def test_augment_flip():
    c = ContrastiveSection(crop_scale_min=1.0, crop_scale_max=1.0, flip_prob=1.0,
                           brightness_jitter=0.0, contrast_jitter=0.0,
                           normalize_mean=0.0, normalize_std=1.0)
    imgs = np.arange(32.0).reshape(2, 1, 4, 4) / 32.0
    out = augment(c, imgs, np.random.default_rng(0))
    assert np.array_equal(out, imgs[:, :, :, ::-1])


def test_build_multiview_batch_layout():
    images = RNG.random(size=(5, 1, 8, 8))
    labels = np.array([3, 1, 4, 1, 5])
    idxs = np.array([0, 2, 4])
    batch = build_multiview_batch(images, labels, idxs, ContrastiveSection(),
                                  np.random.default_rng(0))
    assert batch.views.shape == (6, 1, 8, 8)
    assert np.array_equal(batch.labels, np.array([3, 4, 5, 3, 4, 5]))
    # the two views of a source differ (independent augmentation draws)
    assert not np.array_equal(batch.views[0], batch.views[3])


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


def tiny_corpus(n=12):
    return np.clip(np.random.default_rng(1).random(size=(n, 1, 32, 32)), 0.0, 1.0)


def test_pretrain_deterministic_and_loss_finite():
    images = tiny_corpus()
    labels = np.arange(12) % 4
    c = ContrastiveSection(epochs=2, batch_size=6, learning_rate=1e-3)

    def run():
        bb = build_backbone(32, 16, seed=4)
        head = build_projection_head(16, 8, seed=5)
        curve = pretrain(bb, head, images, labels, c, 9)
        return params_checksum(bb.param_dict()), curve

    c1, curve1 = run()
    c2, curve2 = run()
    assert c1 == c2
    assert curve1 == curve2
    assert len(curve1) == 2
    assert all(np.isfinite(v) for v in curve1)


def test_simclr_mode_equals_instance_labels():
    images = tiny_corpus(8)
    c = ContrastiveSection(epochs=1, batch_size=4, learning_rate=1e-3)
    bb1 = build_backbone(32, 16, seed=4)
    h1 = build_projection_head(16, 8, seed=5)
    curve1 = simclr_mode(bb1, h1, images, c, 2)
    bb2 = build_backbone(32, 16, seed=4)
    h2 = build_projection_head(16, 8, seed=5)
    curve2 = pretrain(bb2, h2, images, np.arange(8), c, 2)
    assert params_checksum(bb1.param_dict()) == params_checksum(bb2.param_dict())
    assert curve1 == curve2


def test_simclr_mode_ignores_the_balanced_sampler():
    """Instance labels have no bin with two members: simclr runs on the epoch
    batches whether the sampler is on or off, bitwise alike."""
    images = tiny_corpus(8)
    runs = []
    for balanced in (False, True):
        c = ContrastiveSection(epochs=2, batch_size=4, learning_rate=1e-3,
                               balanced_sampler=balanced)
        bb = build_backbone(32, 16, seed=4)
        curve = simclr_mode(bb, build_projection_head(16, 8, seed=5), images, c, 2)
        runs.append((params_checksum(bb.param_dict()), curve))
    assert runs[0] == runs[1]


def test_balanced_sampler_requires_multi_member_bins():
    images = tiny_corpus(6)
    c = ContrastiveSection(epochs=1, batch_size=4, learning_rate=1e-3,
                           balanced_sampler=True)
    bb = build_backbone(32, 16, seed=4)
    head = build_projection_head(16, 8, seed=5)
    with pytest.raises(ValueError, match="balanced sampler"):
        pretrain(bb, head, images, np.arange(6), c, 2)
    # works when bins have >= 2 members
    curve = pretrain(bb, head, images, np.arange(6) % 3, c, 2)
    assert len(curve) == 1
