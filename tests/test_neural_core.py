import math

import numpy as np
import pytest

from raft.neural_core import (
    HEAD_IDENTITY,
    HEAD_SCALAR,
    HEAD_SOFTMAX,
    DenseNet,
    Grads,
    OptimState,
    backward,
    clip_by_global_norm,
    derive_seed,
    forward,
    gcn_forward,
    global_norm,
    init_dense,
    init_gcn,
    log_softmax,
    logits,
    reconstruction_loss,
    sgd_step,
    softmax,
    train_autoencoder,
)
from oracles import assert_grads_close, net_with, numeric_gradients


def zero_net(in_size, hidden, out_size, head):
    return DenseNet(
        w1=np.zeros((in_size, hidden)), b1=np.zeros(hidden),
        w2=np.zeros((hidden, out_size)), b2=np.zeros(out_size), head=head,
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_softmax_is_uniform():
    net = zero_net(3, 5, 4, HEAD_SOFTMAX)
    out = forward(net, np.zeros(3))
    np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)


def test_forward_zero_scalar_is_zero():
    net = zero_net(3, 5, 1, HEAD_SCALAR)
    assert forward(net, np.ones(3)) == 0.0


def test_forward_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    net = init_dense(3, 5, 2, HEAD_IDENTITY, rng)
    x = rng.standard_normal(3)
    want = np.maximum(x @ net.w1 + net.b1, 0.0) @ net.w2 + net.b2
    np.testing.assert_allclose(forward(net, x), want, rtol=1e-12)


def test_forward_shape_mismatch():
    net = zero_net(3, 4, 2, HEAD_IDENTITY)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_softmax_outputs_are_probabilities():
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = init_dense(4, 6, 5, HEAD_SOFTMAX, rng)
        p = forward(net, rng.standard_normal(4) * 3)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(8)
    net = init_dense(3, 4, 2, HEAD_IDENTITY, rng)
    xs = rng.standard_normal((6, 3))
    batch = forward(net, xs)
    for i in range(6):
        # batched BLAS matmul may differ from the single-row path in the last ulp
        np.testing.assert_allclose(batch[i], forward(net, xs[i]), rtol=1e-12)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_all_zero_gives_zero_grads():
    net = zero_net(3, 4, 1, HEAD_SCALAR)
    grads, dx = backward(net, np.zeros(3), 1.0)
    for arr in (grads.w1, grads.b1, grads.w2, dx):
        np.testing.assert_array_equal(arr, np.zeros_like(arr))
    np.testing.assert_array_equal(grads.b2, [1.0])  # bias gradient is the upstream


def test_backward_matches_finite_differences_scalar_head():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = init_dense(4, 5, 1, HEAD_SCALAR, rng)
        x = rng.standard_normal(4)
        analytic, _ = backward(net, x, 1.0)
        numeric = numeric_gradients(lambda n: forward(n, x), net)
        assert_grads_close(analytic, numeric)


def test_backward_softmax_logprob_gradient_is_p_minus_onehot():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = init_dense(3, 6, 3, HEAD_SOFTMAX, rng)
        x = rng.standard_normal(3)
        action = int(rng.integers(0, 3))
        probs = forward(net, x)
        onehot = np.eye(3)[action]
        # gradient of -log p[action] w.r.t. logits is (p - onehot)
        analytic, _ = backward(net, x, probs - onehot)
        numeric = numeric_gradients(
            lambda n: -float(log_softmax(logits(n, x))[action]), net)
        assert_grads_close(analytic, numeric)


def test_backward_batch_sums_over_rows():
    rng = np.random.default_rng(3)
    net = init_dense(3, 4, 2, HEAD_IDENTITY, rng)
    xs = rng.standard_normal((5, 3))
    ups = rng.standard_normal((5, 2))
    batch_grads, _ = backward(net, xs, ups)
    total = None
    for i in range(5):
        g, _ = backward(net, xs[i], ups[i])
        total = g if total is None else Grads(total.w1 + g.w1, total.b1 + g.b1,
                                              total.w2 + g.w2, total.b2 + g.b2)
    assert_grads_close(batch_grads, total, rtol=1e-12, atol=1e-12)


def test_backward_input_gradient_matches_fd():
    rng = np.random.default_rng(4)
    net = init_dense(4, 5, 1, HEAD_SCALAR, rng)
    x = rng.standard_normal(4)
    _, dx = backward(net, x, 1.0)
    h = 1e-5
    for i in range(4):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        fd = (forward(net, xp) - forward(net, xm)) / (2 * h)
        assert dx[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------

def test_sgd_basic_step():
    net = DenseNet(np.array([[0.5]]), np.zeros(1), np.array([[0.0]]), np.zeros(1),
                   HEAD_IDENTITY)
    grads = Grads(np.array([[1.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    out = sgd_step(net, grads, OptimState(lr=0.1, clip_norm=100.0))
    assert out.w1[0, 0] == pytest.approx(0.4, abs=1e-15)


def test_sgd_clips_by_global_norm():
    net = zero_net(1, 1, 1, HEAD_IDENTITY)
    grads = Grads(np.array([[10.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    out = sgd_step(net, grads, OptimState(lr=1.0, clip_norm=1.0))
    assert out.w1[0, 0] == pytest.approx(-1.0, abs=1e-12)  # step uses g / 10


def test_sgd_skips_nan_gradients(caplog):
    net = zero_net(1, 1, 1, HEAD_IDENTITY)
    grads = Grads(np.array([[np.nan]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    with caplog.at_level("WARNING"):
        out = sgd_step(net, grads, OptimState(lr=1.0))
    assert out is net
    assert any("non-finite" in r.message for r in caplog.records)


def test_global_norm_and_clip():
    grads = Grads(np.array([[3.0]]), np.array([4.0]), np.zeros((1, 1)), np.zeros(1))
    assert global_norm(grads) == pytest.approx(5.0)
    clipped = clip_by_global_norm(grads, 1.0)
    assert global_norm(clipped) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gcn_forward
# ---------------------------------------------------------------------------

def test_gcn_identity_adjacency_passes_features_through():
    feats = np.abs(np.random.default_rng(5).standard_normal((3, 4)))
    layer = init_gcn(4, 4, np.random.default_rng(6))
    layer = type(layer)(w=np.eye(4))
    got = gcn_forward(np.eye(3), feats, layer)
    np.testing.assert_allclose(got, feats, rtol=1e-15)


def test_gcn_all_ones_two_nodes_halves_sums():
    adj = np.ones((2, 2))
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    layer = init_gcn(2, 2, np.random.default_rng(7))
    layer = type(layer)(w=np.eye(2))
    got = gcn_forward(adj, feats, layer)
    # D = diag(2, 2); each normalized entry is 1/2; rows average to the sum / 2
    want = np.array([[2.0, 3.0], [2.0, 3.0]])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_gcn_matches_matrix_oracle():
    rng = np.random.default_rng(8)
    adj = rng.uniform(0.0, 1.0, size=(4, 4))
    adj = (adj + adj.T) / 2
    np.fill_diagonal(adj, 1.0)
    feats = rng.standard_normal((4, 6))
    layer = init_gcn(6, 3, rng)
    deg = adj.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(deg))
    want = np.maximum(dinv @ adj @ dinv @ feats @ layer.w, 0.0)
    np.testing.assert_allclose(gcn_forward(adj, feats, layer), want, rtol=1e-12)


def test_gcn_rejects_zero_degree():
    adj = np.zeros((2, 2))
    layer = init_gcn(2, 2, np.random.default_rng(9))
    with pytest.raises(ValueError):
        gcn_forward(adj, np.ones((2, 2)), layer)


# ---------------------------------------------------------------------------
# autoencoder
# ---------------------------------------------------------------------------

def test_autoencoder_zero_epochs_returns_initial_loss():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((6, 5))
    enc, dec, loss = train_autoencoder(data, latent=2, epochs=0, seed=3)
    assert loss == pytest.approx(reconstruction_loss(enc, dec, data), abs=1e-15)


def test_autoencoder_rank_one_data_converges():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(8)
    v = rng.standard_normal(6)
    data = np.outer(u, v) * 0.5
    _, _, loss0 = train_autoencoder(data, latent=1, epochs=0, seed=5)
    _, _, loss = train_autoencoder(data, latent=1, epochs=3000, seed=5, lr=0.05)
    assert loss < 0.1 * loss0


def test_autoencoder_loss_non_increasing_with_small_lr():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((5, 4))
    losses = [train_autoencoder(data, latent=2, epochs=e, seed=7, lr=1e-4)[2]
              for e in range(0, 30, 3)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


def test_autoencoder_deterministic_per_seed():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((5, 4))
    enc1, dec1, loss1 = train_autoencoder(data, latent=2, epochs=50, seed=9)
    enc2, dec2, loss2 = train_autoencoder(data, latent=2, epochs=50, seed=9)
    assert loss1 == loss2
    np.testing.assert_array_equal(enc1.w1, enc2.w1)
    np.testing.assert_array_equal(dec1.w2, dec2.w2)


def test_autoencoder_gradient_step_matches_fd():
    # one full-batch step of the AE objective, checked parameter-wise on the decoder
    rng = np.random.default_rng(14)
    data = rng.standard_normal((4, 3))
    enc, dec, _ = train_autoencoder(data, latent=2, epochs=0, seed=15)
    z = forward(enc, data)
    upstream = 2.0 * (forward(dec, z) - data) / data.size
    analytic, _ = backward(dec, z, upstream)
    numeric = numeric_gradients(
        lambda n: float(np.mean((forward(n, z) - data) ** 2)), dec)
    assert_grads_close(analytic, numeric)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_salted():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
