"""Gradient-constrained autoencoder: losses, reference bookkeeping, the
constraint's parameter-space gradient, cache-blocked passes against unblocked
oracles, and blocked scoring against a per-image oracle."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff, params_checksum, rel_err
from sevcon import gradcon, models
from sevcon.config import GradconSection
from sevcon.gradcon import (
    ReferenceGradients,
    _alignment_grad_wrt_gradients,
    _constraint_update_term,
    _cosines,
    _recon_backward,
    decoder_weight_gradients,
    gradient_alignment,
    reconstruction_loss,
    reconstruction_loss_grad,
    severity_score,
    train_gradcon,
    update_reference,
)
from sevcon.models import MICRO_BATCH, build_autoencoder
from sevcon.numerics import Network, ShapeError

RNG = np.random.default_rng(7)


def tiny_model():
    return build_autoencoder(32, 4, seed=1)


def tiny_images(n):
    return np.clip(RNG.random(size=(n, 1, 32, 32)), 0.05, 0.95)


def test_reconstruction_loss_hand_value_and_fd():
    x = np.zeros((1, 1, 2, 2))
    xhat = np.full((1, 1, 2, 2), 0.5)
    assert reconstruction_loss(x, xhat) == pytest.approx(0.25)
    x = RNG.random(size=(2, 1, 3, 3))
    xhat = RNG.random(size=(2, 1, 3, 3))
    grad = reconstruction_loss_grad(x, xhat)
    num = central_diff(lambda h: reconstruction_loss(x, h), xhat.copy())
    assert rel_err(grad, num) < 1e-8
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))


def test_update_reference_is_cumulative_mean():
    grads_seq = [[RNG.normal(size=5), RNG.normal(size=3)] for _ in range(7)]
    ref = ReferenceGradients()
    for g in grads_seq:
        update_reference(ref, g)
    assert ref.count == 7
    for layer in range(2):
        expected = np.mean([g[layer] for g in grads_seq], axis=0)
        assert np.allclose(ref.layer_means[layer], expected, atol=1e-12)


def test_gradient_alignment_is_mean_cosine():
    ref = ReferenceGradients()
    update_reference(ref, [np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    cur = [np.array([1.0, 0.0]), np.array([0.0, -3.0])]
    # cosines: 1 and -1
    assert gradient_alignment(cur, ref) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        gradient_alignment(cur, ReferenceGradients())
    with pytest.raises(ShapeError):
        gradient_alignment(cur[:1], ref)


def cosine(a, b):
    """The cosine of a with b, as gradient_alignment takes it for one layer."""
    return gradient_alignment([np.asarray(a, dtype=np.float64)],
                              ReferenceGradients([np.asarray(b, dtype=np.float64)], 1))


finite_vecs = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.floats(-10, 10), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(finite_vecs, st.floats(0.1, 10.0))
def test_cosine_properties(vals, scale):
    a = np.asarray(vals)
    b = np.asarray(vals[::-1])
    c = cosine(a, b)
    assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
    assert cosine(b, a) == pytest.approx(c, abs=1e-12)
    if np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6:
        assert cosine(scale * a, b) == pytest.approx(c, rel=1e-9)
    # the per-image form that scoring uses gives the same cosine
    rows = np.stack([a, scale * a])
    assert _cosines(rows @ b, np.linalg.norm(rows, axis=1), b) == pytest.approx(
        [c, cosine(scale * a, b)], abs=1e-12)


def test_cosine_zero_norm_is_zero():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.ones(3), np.zeros(3)) == 0.0
    # per image: a zero-norm row, or a zero-norm mean, gives 0
    rows = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    norms = np.linalg.norm(rows, axis=1)
    per_image = _cosines(rows @ np.ones(3), norms, np.ones(3))
    assert per_image[0] == 0.0
    assert per_image[1] == pytest.approx(5.0 / (3.0 * np.sqrt(3.0)), rel=1e-12)
    assert np.array_equal(_cosines(rows @ np.zeros(3), norms, np.zeros(3)), [0.0, 0.0])


def test_cosine_length_mismatch():
    with pytest.raises(ShapeError):
        cosine(np.ones(3), np.ones(4))


def test_alignment_grad_matches_fd():
    ref = ReferenceGradients()
    update_reference(ref, [RNG.normal(size=6), RNG.normal(size=4)])
    cur = [RNG.normal(size=6), RNG.normal(size=4)]
    analytic = _alignment_grad_wrt_gradients(cur, ref)
    for layer in range(2):
        def f(g, layer=layer):
            cur2 = [c.copy() for c in cur]
            cur2[layer] = g
            return gradient_alignment(cur2, ref)
        num = central_diff(f, cur[layer].copy())
        assert rel_err(analytic[layer], num) < 1e-6


def test_constraint_update_term_matches_fd_of_l_grad():
    """Oracle: d(L_grad)/d(theta_k) by central differences through the whole
    chain theta -> reconstruction gradients -> alignment."""
    model = tiny_model()
    batch = tiny_images(2)
    ref = ReferenceGradients()
    _, g0 = _recon_backward(model, batch)
    dec_keys = [f"decoder.{i}.w" for i in model.decoder_weight_layers()]
    update_reference(ref, [g0[k].ravel() + 0.01 * RNG.normal(size=g0[k].size)
                           for k in dec_keys])

    _, grads = _recon_backward(model, batch)
    dec_grads = [grads[k].ravel().copy() for k in dec_keys]
    dalign = _alignment_grad_wrt_gradients(dec_grads, ref)
    hv = _constraint_update_term(model, batch, dec_keys, dalign)

    params = model.param_dict()

    def l_grad_at_current_params():
        _, g = _recon_backward(model, batch)
        return gradient_alignment([g[k].ravel() for k in dec_keys], ref)

    check_rng = np.random.default_rng(0)
    for key in [dec_keys[0], dec_keys[-1], "encoder.0.w"]:
        p = params[key]
        flat = p.ravel()
        for idx in check_rng.choice(flat.size, size=3, replace=False):
            orig = flat[idx]
            eps = 1e-5
            flat[idx] = orig + eps
            fp = l_grad_at_current_params()
            flat[idx] = orig - eps
            fm = l_grad_at_current_params()
            flat[idx] = orig
            num = (fp - fm) / (2 * eps)
            ana = hv[key].ravel()[idx]
            assert abs(ana - num) < 1e-4 * max(1.0, abs(num)), \
                f"{key}[{idx}]: analytic {ana} vs fd {num}"


def one_pass_recon_backward(model, batch):
    """Oracle: the loss and parameter gradients of one unblocked
    forward/backward through the encoder and decoder networks."""
    xhat = model.decoder.forward(model.encoder.forward(batch))
    loss = reconstruction_loss(batch, xhat)
    model.encoder.backward(model.decoder.backward(reconstruction_loss_grad(batch, xhat)))
    grads = {f"encoder.{k}": v.copy() for k, v in model.encoder.grad_dict().items()}
    grads.update({f"decoder.{k}": v.copy() for k, v in model.decoder.grad_dict().items()})
    return loss, grads


def two_pass_fd_term(model, batch, dec_keys, dalign, recon=one_pass_recon_backward):
    """Oracle: the central difference of H u from two passes at the decoder
    weights +delta u and -delta u, each a full forward/backward by `recon`:
    unblocked by default, or the blocked model's own (_recon_backward)."""
    params = model.param_dict()
    u_norm = np.sqrt(sum(float(np.dot(d, d)) for d in dalign))
    scale = max(np.abs(params[k]).max() for k in dec_keys)
    delta = 1e-5 * (1.0 + scale) / u_norm
    saved = {k: params[k].copy() for k in dec_keys}
    grads = []
    for sign in (1.0, -1.0):
        for k, d in zip(dec_keys, dalign):
            params[k][...] = saved[k] + sign * delta * d.reshape(params[k].shape)
        grads.append({k: v.copy() for k, v in recon(model, batch)[1].items()})
    for k in dec_keys:
        params[k][...] = saved[k]
    return {k: (grads[0][k] - grads[1][k]) / (2.0 * delta) for k in grads[0]}


def constraint_setup(n):
    """A model, an n-image batch, and a non-trivial alignment derivative."""
    model = tiny_model()
    batch = tiny_images(n)
    dec_keys = [f"decoder.{i}.w" for i in model.decoder_weight_layers()]
    _, g0 = _recon_backward(model, batch)
    ref = ReferenceGradients()
    update_reference(ref, [g0[k].ravel() + 0.01 * RNG.normal(size=g0[k].size)
                           for k in dec_keys])
    _recon_backward(model, batch)
    dalign = _alignment_grad_wrt_gradients(decoder_weight_gradients(model), ref)
    return model, batch, dec_keys, dalign


def flat(grads):
    return np.concatenate([grads[k].ravel() for k in sorted(grads)])


def test_blocked_pass_matches_one_pass():
    """<= 1e-12 norm-relative past MICRO_BATCH images, a ragged last block
    included; bitwise at <= MICRO_BATCH."""
    model = tiny_model()
    for n in (1, MICRO_BATCH, 7, MICRO_BATCH + 3, 32):
        batch = tiny_images(n)
        loss, grads = _recon_backward(model, batch)
        grads = {k: v.copy() for k, v in grads.items()}
        ref_loss, ref_grads = one_pass_recon_backward(model, batch)
        assert grads.keys() == ref_grads.keys()
        if n <= MICRO_BATCH:
            assert loss == ref_loss
            for k in grads:
                assert np.array_equal(grads[k], ref_grads[k]), f"{n} images, {k}"
        else:
            assert abs(loss - ref_loss) <= 1e-12 * ref_loss
            assert rel_err(flat(grads), flat(ref_grads)) <= 1e-12, f"{n} images"


def test_blocked_fd_term_matches_unblocked_fd():
    """<= 1e-7 relative per parameter tensor against two unblocked passes."""
    for n in (MICRO_BATCH + 3, 32):
        model, batch, dec_keys, dalign = constraint_setup(n)
        hv = _constraint_update_term(model, batch, dec_keys, dalign)
        ref = two_pass_fd_term(model, batch, dec_keys, dalign)
        assert hv.keys() == ref.keys()
        for k in hv:  # per tensor, so a small encoder term cannot hide
            assert rel_err(hv[k], ref[k]) <= 1e-7, f"{n} images, {k}"


def test_constraint_update_term_restores_decoder_weights(monkeypatch):
    """A pass that fails in any lane restores the decoder weights bitwise,
    and its exception arrives only after every lane has stopped: at one lane
    the -delta u pass fails on its first block, at two lanes in lane 0 (block
    0) or in lane 1 (block 1) while the other lane is still running."""
    model, batch, dec_keys, dalign = constraint_setup(MICRO_BATCH + 3)  # two blocks a pass
    before = params_checksum(model.param_dict())
    hv = _constraint_update_term(model, batch, dec_keys, dalign)
    assert params_checksum(model.param_dict()) == before

    original = Network.backward
    for lanes, failing in ((1, 1), (2, 0), (2, 1)):
        calls, ends, lock = [], [], threading.Lock()

        def backward(net, dout, input_grad=True):  # one call per block
            with lock:
                calls.append(1)
                n = len(calls)
            if n > 2:  # the -delta u pass
                if len(dout) == (MICRO_BATCH, 3)[failing]:  # the rows of blocks 0 and 1
                    raise RuntimeError(f"injected failure in block {failing}")
                time.sleep(0.2)  # still running when the other lane fails
            original(net, dout, input_grad)
            ends.append(1)

        with monkeypatch.context() as m:
            m.setattr(models, "LANES", lanes)
            m.setattr(Network, "backward", backward)
            with pytest.raises(RuntimeError, match=f"block {failing}"):
                _constraint_update_term(model, batch, dec_keys, dalign)
        if lanes == 1:  # the -delta u pass stopped at its first block
            assert (len(calls), len(ends)) == (3, 2)
        else:  # the other lane ended its block before the exception arrived
            assert (len(calls), len(ends)) == (4, 3)
        assert params_checksum(model.param_dict()) == before
        again = _constraint_update_term(model, batch, dec_keys, dalign)
        assert all(np.array_equal(again[k], hv[k]) for k in hv)


def test_severity_score_value_and_purity():
    model = tiny_model()
    images = tiny_images(6)
    g = GradconSection(epochs=1, batch_size=3, learning_rate=1e-3,
                       warmup_learning_rate=1e-3)
    model, ref, _ = train_gradcon(images, g, model, seed=0)

    before = params_checksum(model.param_dict())
    ref_before = [m.copy() for m in ref.layer_means]
    s1 = severity_score(model, ref, images[0], alpha=0.03)
    s2 = severity_score(model, ref, images[0], alpha=0.03)
    assert s1 == s2  # pure: repeated calls identical
    assert params_checksum(model.param_dict()) == before
    for m, mb in zip(ref.layer_means, ref_before):
        assert np.array_equal(m, mb)
    assert s1.value == pytest.approx(s1.l_recon - 0.03 * s1.l_grad, rel=1e-12)


def test_severity_score_requires_reference_and_single_image():
    model = tiny_model()
    with pytest.raises(ValueError):
        severity_score(model, ReferenceGradients(), tiny_images(1)[0], 0.03)
    ref = ReferenceGradients()
    _, g = _recon_backward(model, tiny_images(1))
    update_reference(ref, [g[f"decoder.{i}.w"].ravel()
                           for i in model.decoder_weight_layers()])
    with pytest.raises(ShapeError):
        severity_score(model, ref, tiny_images(2), 0.03)


def test_train_gradcon_deterministic_and_logged():
    images = tiny_images(8)
    g = GradconSection(epochs=2, batch_size=4, learning_rate=1e-3,
                       warmup_learning_rate=1e-3)
    m1, ref1, log1 = train_gradcon(images, g, tiny_model(), 5, heldout=images[:2])
    m2, ref2, log2 = train_gradcon(images, g, tiny_model(), 5, heldout=images[:2])
    assert params_checksum(m1.param_dict()) == params_checksum(m2.param_dict())
    assert ref1.count == ref2.count == 4  # 2 epochs x 2 batches
    assert [e["mean_recon"] for e in log1] == [e["mean_recon"] for e in log2]
    assert {"epoch", "mean_recon", "mean_alignment", "heldout_alignment"} <= set(log1[0])
    # the constraint is inactive on the first iteration, so epoch-0 alignment
    # averages one fewer value but must still be finite from epoch 0 onwards
    assert np.isfinite(log1[0]["mean_alignment"])


def test_train_gradcon_constraint_changes_trajectory():
    images = tiny_images(8)
    base = dict(epochs=2, batch_size=4, learning_rate=1e-2, warmup_learning_rate=1e-2)
    m1, _, _ = train_gradcon(images, GradconSection(**base), tiny_model(), 5)
    m2, _, _ = train_gradcon(images, GradconSection(**base, alpha=0.0), tiny_model(), 5)
    assert params_checksum(m1.param_dict()) != params_checksum(m2.param_dict())


def test_train_gradcon_empty_dataset():
    with pytest.raises(ValueError):
        train_gradcon(np.zeros((0, 1, 32, 32)), GradconSection(), tiny_model(), 0)


def test_decoder_weight_gradients_order_and_exclusions():
    model = tiny_model()
    _recon_backward(model, tiny_images(1))
    grads = decoder_weight_gradients(model)
    idxs = model.decoder_weight_layers()
    assert len(grads) == len(idxs)
    for g, i in zip(grads, idxs):
        assert g.shape == (model.decoder.layers[i].params["w"].size,)


def test_score_dataset_matches_individual_scores():
    model = tiny_model()
    images = tiny_images(4)
    g = GradconSection(epochs=1, batch_size=2, learning_rate=1e-3,
                       warmup_learning_rate=1e-3)
    model, ref, _ = train_gradcon(images, g, model, seed=0)
    scores = gradcon.score_dataset(model, ref, images, 0.03)
    assert_scores_close(scores[2:3], [severity_score(model, ref, images[2], 0.03)])


def per_image_score(model, ref, x, alpha):
    """Oracle: one batch-1 forward/backward through the encoder and decoder,
    then the mean cosine of the materialized decoder weight gradients."""
    l_recon, _ = _recon_backward(model, x[None])
    l_grad = gradient_alignment(decoder_weight_gradients(model), ref)
    return gradcon.SeverityScore(l_recon - alpha * l_grad, l_recon, l_grad)


def assert_scores_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        for name in ("value", "l_recon", "l_grad"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= tol * abs(y), f"image {i} {name}: {x} vs {y}"


def noisy_reference(model, images):
    """A reference near the decoder gradients of `images`, as training makes."""
    _, g = _recon_backward(model, images)
    ref = ReferenceGradients()
    return update_reference(ref, [g[f"decoder.{i}.w"].ravel()
                                  + 0.01 * RNG.normal(size=g[f"decoder.{i}.w"].size)
                                  for i in model.decoder_weight_layers()])


def test_score_dataset_matches_per_image_oracle():
    """<= 1e-12 relative for a single image, one block, a ragged last block
    and a whole corpus; at image side 64 (five decoder weight layers); and
    with zero-norm reference layers, whose cosines are 0, the first Dense's
    included."""
    model = tiny_model()
    images = tiny_images(300)
    ref = noisy_reference(model, images[:16])
    for n in (1, MICRO_BATCH - 1, MICRO_BATCH, MICRO_BATCH + 1, 300):
        want = [per_image_score(model, ref, images[i], 0.03) for i in range(n)]
        assert_scores_close(gradcon.score_dataset(model, ref, images[:n], 0.03), want)

    big = build_autoencoder(64, 4, seed=2)
    big_images = np.clip(RNG.random(size=(11, 1, 64, 64)), 0.05, 0.95)
    big_ref = noisy_reference(big, big_images[:4])
    assert len(big_ref.layer_means) == 5
    assert_scores_close(gradcon.score_dataset(big, big_ref, big_images, 0.03),
                        [per_image_score(big, big_ref, x, 0.03) for x in big_images])

    for layer in (0, 2):
        ref.layer_means[layer][:] = 0.0
    want = [per_image_score(model, ref, images[i], 0.03) for i in range(MICRO_BATCH + 1)]
    assert_scores_close(gradcon.score_dataset(model, ref, images[:MICRO_BATCH + 1], 0.03), want)


def test_score_dataset_checks():
    model = tiny_model()
    images = tiny_images(3)
    with pytest.raises(ValueError, match="uninitialized"):
        gradcon.score_dataset(model, ReferenceGradients(), images, 0.03)
    ref = noisy_reference(model, images)
    with pytest.raises(ShapeError, match="layer-set"):
        gradcon.score_dataset(model, ReferenceGradients(ref.layer_means[:-1], 1), images, 0.03)
    with pytest.raises(ShapeError, match="layer-set"):
        gradcon.score_dataset(model, ReferenceGradients(
            [m[:-1] for m in ref.layer_means], 1), images, 0.03)
    with pytest.raises(ShapeError):
        gradcon.score_dataset(model, ref, np.zeros((2, 1, 16, 16)), 0.03)


def test_lane_count_leaves_results_bitwise_equal(monkeypatch):
    """One lane and two give bitwise-equal training, constraint terms and
    scores, and the blocked oracles hold at both counts. Four lanes, more
    threads than a 2-core machine has cores, with the interpreter switching
    threads every microsecond, give the same bits too."""
    from test_models import test_fused_decoder_matches_unfused_oracle

    images = tiny_images(30)
    g = GradconSection(epochs=2, batch_size=19, learning_rate=1e-3,
                       warmup_learning_rate=1e-3)  # 19 images: three blocks, one ragged
    model, batch, dec_keys, dalign = constraint_setup(MICRO_BATCH * 3 + 5)
    scored, corpus = tiny_model(), tiny_images(300)
    ref = noisy_reference(scored, corpus[:16])
    results = []
    switch = sys.getswitchinterval()
    for lanes in (1, 2, 4):
        monkeypatch.setattr(models, "LANES", lanes)
        if lanes == 4:
            sys.setswitchinterval(1e-6)
        try:
            m, r, log = train_gradcon(images[:22], g, tiny_model(), 3, heldout=images[22:])
            hv = _constraint_update_term(model, batch, dec_keys, dalign)
            scores = [gradcon.score_dataset(scored, ref, corpus[:n], 0.03)
                      for n in (0, 1, 7, 11, 300)]
        finally:
            sys.setswitchinterval(switch)
        assert g.alpha != 0.0 and np.isfinite(log[-1]["heldout_alignment"])
        results.append((params_checksum(m.param_dict()), [x.tobytes() for x in r.layer_means],
                        log, {k: v.tobytes() for k, v in hv.items()}, scores))
        if lanes < 4:
            test_blocked_pass_matches_one_pass()
            test_blocked_fd_term_matches_unblocked_fd()
            test_score_dataset_matches_per_image_oracle()
            test_fused_decoder_matches_unfused_oracle()
    assert results[0] == results[1] == results[2]


# tracemalloc readings of a 32-image pass of build_autoencoder(side, 4) when
# each conv layer kept its im2col columns, taken as below: (side, lanes) ->
# (MB held after forward, MB at the pass's peak)
KEPT_COLUMN_MB = {(32, 1): (55.8, 60.9), (32, 2): (55.8, 64.5),
                  (64, 1): (183.1, 200.6), (64, 2): (183.1, 215.8)}


def test_second_pass_frees_the_first_pass_caches(monkeypatch):
    """A 32-image pass holds at most a quarter of what the kept-column
    layers held after forward, and peaks at most half as high, at sides 32
    and 64, at one lane and two. A second pass drops the first pass's block
    caches before it allocates its own, so it peaks within 1.15x of the
    first pass."""
    for side, lanes in KEPT_COLUMN_MB:
        batch = np.clip(RNG.random(size=(32, 1, side, side)), 0.05, 0.95)
        monkeypatch.setattr(models, "LANES", lanes)
        model = build_autoencoder(side, 4, seed=1)
        tracemalloc.start()
        try:
            xhat = model.forward(batch)
            held = tracemalloc.get_traced_memory()[0]
            model.backward(reconstruction_loss_grad(batch, xhat))
            del xhat
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _recon_backward(model, batch)
            second = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept_held, kept_peak = KEPT_COLUMN_MB[side, lanes]
        assert held <= 0.25 * kept_held * 1e6, (side, lanes, held)
        assert first <= 0.5 * kept_peak * 1e6, (side, lanes, first)
        assert second <= 1.15 * first, (side, lanes, first, second)


def test_constraint_term_reusing_the_encoder_matches_full_passes_bitwise(monkeypatch):
    """The term, which reruns only the decoder forward from the batch pass's
    kept blocks, equals two full passes bit for bit: for one block and for
    four with a ragged last, at 1, 2 and 4 lanes (4 with the interpreter
    switching threads every microsecond). The decoder weights come back
    bitwise."""
    switch = sys.getswitchinterval()
    for lanes in (1, 2, 4):
        monkeypatch.setattr(models, "LANES", lanes)
        if lanes == 4:
            sys.setswitchinterval(1e-6)
        try:
            for n in (MICRO_BATCH - 3, MICRO_BATCH * 3 + 5):
                model, batch, dec_keys, dalign = constraint_setup(n)
                before = params_checksum(model.param_dict())
                hv = _constraint_update_term(model, batch, dec_keys, dalign)
                assert params_checksum(model.param_dict()) == before
                want = two_pass_fd_term(model, batch, dec_keys, dalign, _recon_backward)
                assert hv.keys() == want.keys()
                for k in hv:
                    assert np.array_equal(hv[k], want[k]), (lanes, n, k)
        finally:
            sys.setswitchinterval(switch)


def test_constraint_term_refuses_a_last_pass_over_other_images():
    model, batch, dec_keys, dalign = constraint_setup(MICRO_BATCH + 3)
    with pytest.raises(ValueError, match="not over batch"):
        _constraint_update_term(tiny_model(), batch, dec_keys, dalign)  # no pass yet
    _recon_backward(model, batch[:1])  # a held-out pass
    with pytest.raises(ValueError, match="not over batch"):
        _constraint_update_term(model, batch, dec_keys, dalign)
    _recon_backward(model, batch[::-1])
    with pytest.raises(ValueError, match="not over batch"):
        _constraint_update_term(model, batch, dec_keys, dalign)
    _recon_backward(model, batch.copy())  # equal images in another array
    _constraint_update_term(model, batch, dec_keys, dalign)


def test_decoder_only_heldout_alignment_matches_full_passes_bitwise():
    """One forward and one decoder-only backward per image give the
    alignment of one full pass per image bit for bit, and leave the
    encoder's gradients as they were."""
    model = tiny_model()
    held = tiny_images(5)
    ref = noisy_reference(model, tiny_images(16))
    _recon_backward(model, tiny_images(MICRO_BATCH + 3))
    encoder_grads = model.encoder.grad_dict()
    got = gradcon._heldout_alignment(model, held, ref)
    for k, g in model.encoder.grad_dict().items():
        assert g is encoder_grads[k]
    aligns = []
    for i in range(len(held)):
        _recon_backward(model, held[i:i + 1])
        aligns.append(gradient_alignment(decoder_weight_gradients(model), ref))
    assert got == float(np.mean(aligns))


def test_gradient_arrays_survive_later_passes(monkeypatch):
    """The arrays of one pass's grad_dict() and decoder_weight_gradients()
    stay bitwise unchanged through later passes of every kind: batch,
    one-image, the constraint term, decoder-only backward of a batch and of
    one image, and scoring; for every parameterized layer type; at 1 and 2
    lanes. The training step keeps these arrays without copying them."""
    from sevcon.numerics import Conv2d, Dense, UpsampleConv2d

    for lanes in (1, 2):
        monkeypatch.setattr(models, "LANES", lanes)
        model, batch, dec_keys, dalign = constraint_setup(MICRO_BATCH * 3 + 5)
        layers = model.encoder.layers + model.decoder.layers
        assert {type(layer) for layer in layers if layer.params} == {Conv2d, Dense,
                                                                     UpsampleConv2d}
        ref = noisy_reference(model, batch)
        one = batch[:1]
        kept = []

        def keep():
            arrays = list(model.grad_dict().values()) + decoder_weight_gradients(model)
            kept.append([(a, a.copy()) for a in arrays])

        def check(kind):
            for pass_arrays in kept:
                for a, copy in pass_arrays:
                    assert np.array_equal(a, copy), (lanes, kind)

        def decoder_only(x):
            model.backward(reconstruction_loss_grad(x, model.forward(x)), decoder_only=True)

        passes = [("batch", lambda: _recon_backward(model, batch)),
                  ("constraint term",
                   lambda: _constraint_update_term(model, batch, dec_keys, dalign)),
                  ("decoder-only batch", lambda: decoder_only(batch)),
                  ("one image", lambda: _recon_backward(model, one)),
                  ("decoder-only one image", lambda: decoder_only(one)),
                  ("scoring", lambda: gradcon.score_dataset(model, ref, batch, 0.03)),
                  ("another batch", lambda: _recon_backward(model, batch[::-1]))]
        _recon_backward(model, batch)
        keep()
        for kind, run in passes:
            run()
            check(kind)
            keep()
