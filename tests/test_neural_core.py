import math

import numpy as np
import pytest

from raft.neural_core import (
    DenseNet,
    backward,
    CLIP_NORM,
    clip_step,
    derive_seed,
    forward,
    init_dense,
    init_gcn,
    log_softmax,
    sgd_step,
    softmax,
    train_autoencoder,
)
from oracles import (assert_grads_close, autoencoder_oracle, gcn_forward, net_of,
                     numeric_gradients, reconstruction_loss, sgd_oracle)


def zero_net(in_size, hidden, out_size):
    return net_of(np.zeros((in_size, hidden)), np.zeros(hidden),
                  np.zeros((hidden, out_size)), np.zeros(out_size))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_softmax_is_uniform():
    net = zero_net(3, 5, 4)
    out = softmax(forward(net, np.zeros(3)))
    np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)


def test_forward_zero_scalar_is_zero():
    net = zero_net(3, 5, 1)
    np.testing.assert_array_equal(forward(net, np.ones(3)), [0.0])


def test_forward_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    net = init_dense(3, 5, 2, rng)
    x = rng.standard_normal(3)
    want = np.maximum(x @ net.w1 + net.b1, 0.0) @ net.w2 + net.b2
    np.testing.assert_allclose(forward(net, x), want, rtol=1e-12)


def test_forward_shape_mismatch():
    net = zero_net(3, 4, 2)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_softmax_outputs_are_probabilities():
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = init_dense(4, 6, 5, rng)
        p = softmax(forward(net, rng.standard_normal(4) * 3))
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(8)
    net = init_dense(3, 4, 2, rng)
    xs = rng.standard_normal((6, 3))
    batch = forward(net, xs)
    for i in range(6):
        # batched BLAS matmul may differ from the single-row path in the last ulp
        np.testing.assert_allclose(batch[i], forward(net, xs[i]), rtol=1e-12)


def test_forward_vector_is_row_zero_of_one_row_batch():
    rng = np.random.default_rng(9)
    for out_size in (1, 3):
        net = init_dense(4, 5, out_size, rng)
        x = rng.standard_normal(4)
        vec, batch = forward(net, x), forward(net, x[None, :])
        assert vec.shape == (out_size,) and batch.shape == (1, out_size)
        assert vec.tobytes() == batch[0].tobytes()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_all_zero_gives_zero_grads():
    net = zero_net(3, 4, 1)
    grads, dx = backward(net, np.zeros(3), 1.0)
    w1, b1, w2, b2 = net.split(grads)
    for arr in (w1, b1, w2, dx):
        np.testing.assert_array_equal(arr, np.zeros_like(arr))
    np.testing.assert_array_equal(b2, [1.0])  # bias gradient is the upstream


def test_backward_matches_finite_differences_scalar_head():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = init_dense(4, 5, 1, rng)
        x = rng.standard_normal(4)
        analytic, _ = backward(net, x, 1.0)
        numeric = numeric_gradients(lambda n: float(forward(n, x)[0]), net)
        assert_grads_close(analytic, numeric)


def test_backward_softmax_logprob_gradient_is_p_minus_onehot():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = init_dense(3, 6, 3, rng)
        x = rng.standard_normal(3)
        action = int(rng.integers(0, 3))
        probs = softmax(forward(net, x))
        onehot = np.eye(3)[action]
        # gradient of -log p[action] w.r.t. logits is (p - onehot)
        analytic, _ = backward(net, x, probs - onehot)
        numeric = numeric_gradients(
            lambda n: -float(log_softmax(forward(n, x))[action]), net)
        assert_grads_close(analytic, numeric)


def test_backward_batch_sums_over_rows():
    rng = np.random.default_rng(3)
    net = init_dense(3, 4, 2, rng)
    xs = rng.standard_normal((5, 3))
    ups = rng.standard_normal((5, 2))
    batch_grads, _ = backward(net, xs, ups)
    total = sum(backward(net, xs[i], ups[i])[0] for i in range(5))
    assert_grads_close(batch_grads, total, rtol=1e-12, atol=1e-12)


def test_backward_rejects_upstream_of_wrong_size():
    net = init_dense(3, 4, 2, np.random.default_rng(5))
    for x, upstream in ((np.zeros(3), np.zeros(3)), (np.zeros((4, 3)), np.zeros((3, 2))),
                        (np.zeros((2, 3)), 1.0)):
        with pytest.raises(ValueError, match="upstream gradient size"):
            backward(net, x, upstream)


def test_backward_accepts_flat_upstream_for_a_one_output_batch():
    rng = np.random.default_rng(6)
    net = init_dense(3, 4, 1, rng)
    xs = rng.standard_normal((5, 3))
    ups = rng.standard_normal(5)
    flat_grads, flat_dx = backward(net, xs, ups)
    col_grads, col_dx = backward(net, xs, ups[:, None])
    assert flat_grads.tobytes() == col_grads.tobytes()
    assert flat_dx.tobytes() == col_dx.tobytes()


def test_backward_input_gradient_matches_fd():
    rng = np.random.default_rng(4)
    net = init_dense(4, 5, 1, rng)
    x = rng.standard_normal(4)
    _, dx = backward(net, x, 1.0)
    h = 1e-5
    for i in range(4):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        fd = float(forward(net, xp)[0] - forward(net, xm)[0]) / (2 * h)
        assert dx[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------

def test_sgd_basic_step():
    net = DenseNet(np.array([0.5, 0.0, 0.0, 0.0]), 1, 1, 1)
    out = sgd_step(net, np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    assert out.w1[0, 0] == pytest.approx(0.4, abs=1e-15)
    assert net.w1[0, 0] == 0.5  # a copy was stepped


def test_sgd_clips_by_global_norm():
    net = zero_net(1, 1, 1)
    out = sgd_step(net, np.array([10.0, 0.0, 0.0, 0.0]), 1.0)
    assert out.w1[0, 0] == pytest.approx(-5.0, abs=1e-12)  # CLIP_NORM: step uses g / 2


def test_sgd_skips_nan_gradients(caplog):
    net = zero_net(1, 1, 1)
    with caplog.at_level("WARNING"):
        out = sgd_step(net, np.array([np.nan, 0.0, 0.0, 0.0]), 1.0)
    assert out is net
    assert any("non-finite" in r.message for r in caplog.records)


def test_global_norm_and_clip():
    # w1 = [[30]], b1 = [40], w2 = [[0]], b2 = [0]: joint norm 50, clipped to CLIP_NORM
    params = np.zeros(4)
    assert clip_step(params, np.array([30.0, 40.0, 0.0, 0.0]), (0, 1, 2, 3, 4), 1.0)
    np.testing.assert_allclose(params, [-3.0, -4.0, 0.0, 0.0], rtol=1e-15)
    assert math.sqrt(float(np.sum(params * params))) == pytest.approx(CLIP_NORM)


# ---------------------------------------------------------------------------
# gcn_forward
# ---------------------------------------------------------------------------

def test_gcn_identity_adjacency_passes_features_through():
    feats = np.abs(np.random.default_rng(5).standard_normal((3, 4)))
    got = gcn_forward(np.eye(3), feats, np.eye(4))
    np.testing.assert_allclose(got, feats, rtol=1e-15)


def test_gcn_all_ones_two_nodes_halves_sums():
    adj = np.ones((2, 2))
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = gcn_forward(adj, feats, np.eye(2))
    # D = diag(2, 2); each normalized entry is 1/2; rows average to the sum / 2
    want = np.array([[2.0, 3.0], [2.0, 3.0]])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_gcn_matches_matrix_oracle():
    rng = np.random.default_rng(8)
    adj = rng.uniform(0.0, 1.0, size=(4, 4))
    adj = (adj + adj.T) / 2
    np.fill_diagonal(adj, 1.0)
    feats = rng.standard_normal((4, 6))
    w = init_gcn(6, 3, rng)
    assert w.shape == (6, 3)
    deg = adj.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(deg))
    want = np.maximum(dinv @ adj @ dinv @ feats @ w, 0.0)
    np.testing.assert_allclose(gcn_forward(adj, feats, w), want, rtol=1e-12)


def test_gcn_rejects_zero_degree():
    adj = np.zeros((2, 2))
    with pytest.raises(ValueError):
        gcn_forward(adj, np.ones((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# autoencoder
# ---------------------------------------------------------------------------

def test_autoencoder_zero_epochs_returns_initial_loss():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((6, 5))
    enc, dec = train_autoencoder(data, latent=2, epochs=0, seed=3, lr=1e-3)
    _, _, loss = autoencoder_oracle(data, latent=2, epochs=0, seed=3)
    assert loss == pytest.approx(reconstruction_loss(enc, dec, data), abs=1e-15)


def test_autoencoder_rank_one_data_converges():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(8)
    v = rng.standard_normal(6)
    data = np.outer(u, v) * 0.5
    loss0 = reconstruction_loss(*train_autoencoder(data, latent=1, epochs=0, seed=5, lr=0.05),
                                data)
    loss = reconstruction_loss(*train_autoencoder(data, latent=1, epochs=3000, seed=5, lr=0.05),
                               data)
    assert loss < 0.1 * loss0


def test_autoencoder_loss_non_increasing_with_small_lr():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((5, 4))
    losses = [reconstruction_loss(*train_autoencoder(data, latent=2, epochs=e, seed=7, lr=1e-4),
                                  data)
              for e in range(0, 30, 3)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


def test_autoencoder_deterministic_per_seed():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((5, 4))
    enc1, dec1 = train_autoencoder(data, latent=2, epochs=50, seed=9, lr=1e-3)
    enc2, dec2 = train_autoencoder(data, latent=2, epochs=50, seed=9, lr=1e-3)
    assert reconstruction_loss(enc1, dec1, data) == reconstruction_loss(enc2, dec2, data)
    np.testing.assert_array_equal(enc1.w1, enc2.w1)
    np.testing.assert_array_equal(dec1.w2, dec2.w2)


def test_autoencoder_gradient_step_matches_fd():
    # one full-batch step of the AE objective, checked parameter-wise on the decoder
    rng = np.random.default_rng(14)
    data = rng.standard_normal((4, 3))
    enc, dec = train_autoencoder(data, latent=2, epochs=0, seed=15, lr=1e-3)
    z = forward(enc, data)
    upstream = 2.0 * (forward(dec, z) - data) / data.size
    analytic, _ = backward(dec, z, upstream)
    numeric = numeric_gradients(
        lambda n: float(np.mean((forward(n, z) - data) ** 2)), dec)
    assert_grads_close(analytic, numeric)


def _bits(*arrays) -> bytes:
    return b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in arrays)


def _net_bits(net: DenseNet) -> bytes:
    return _bits(net.w1, net.b1, net.w2, net.b2)


def _ae_case(rng: np.random.Generator, kind: int):
    b, dim = int(rng.integers(1, 20)), int(rng.integers(1, 70))
    data = rng.standard_normal((b, dim)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == 1:
        # squared gradients overflow while every gradient entry stays finite
        data *= 10.0 ** rng.uniform(95.0, 150.0)
    elif kind == 2:
        data *= 1e200  # entries overflow as well
    elif kind == 3:
        data[rng.integers(b), rng.integers(dim)] = rng.choice([np.inf, -np.inf, np.nan])
    return dict(data=data, latent=int(rng.integers(1, 9)), epochs=int(rng.integers(0, 25)),
                seed=int(rng.integers(2**31)), hidden=int(rng.choice([1, 3, 8, 32])),
                lr=float(10.0 ** rng.uniform(-4.0, 0.0)))


def test_autoencoder_matches_frozen_oracle_bit_for_bit():
    rng = np.random.default_rng(2024)
    for i in range(128):
        case = _ae_case(rng, i % 4)
        with np.errstate(all="ignore"):
            enc, dec = train_autoencoder(**case)
            loss = reconstruction_loss(enc, dec, case["data"])
            want_enc, want_dec, want_loss = autoencoder_oracle(**case)
        assert _net_bits(enc) == _net_bits(want_enc), i
        assert _net_bits(dec) == _net_bits(want_dec), i
        assert _bits(loss) == _bits(want_loss), i


def test_autoencoder_skips_a_step_whose_gradient_norm_overflows(caplog):
    # inputs near 1e200 overflow the reconstruction error, so every clipped
    # gradient holds inf or NaN: each step is skipped with its warning and the
    # nets stay at their random initialisation
    data = np.random.default_rng(16).standard_normal((5, 4)) * 1e200
    enc0, dec0 = train_autoencoder(data, latent=2, epochs=0, seed=17, lr=1e-3)
    with caplog.at_level("WARNING"), np.errstate(all="ignore"):
        enc, dec = train_autoencoder(data, latent=2, epochs=3, seed=17, lr=1e-3)
    assert _net_bits(enc) == _net_bits(enc0) and _net_bits(dec) == _net_bits(dec0)
    skipped = [r for r in caplog.records if "non-finite" in r.message]
    assert len(skipped) == 6  # both nets, every epoch


def test_sgd_step_matches_frozen_oracle_on_huge_and_nonfinite_gradients():
    rng = np.random.default_rng(2025)
    applied = skipped = 0
    for i in range(200):
        net = init_dense(3, 4, 2, rng)
        arrays = [rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-3.0, 3.0)
                  for a in (net.w1, net.b1, net.w2, net.b2)]
        if i % 4 == 1:
            arrays[int(rng.integers(4))] *= 10.0 ** rng.uniform(155.0, 305.0)
        elif i % 4 == 2:
            arrays[int(rng.integers(4))].flat[0] = rng.choice([np.inf, -np.inf, np.nan])
        lr = float(10.0 ** rng.uniform(-4.0, 0.0))
        with np.errstate(all="ignore"):
            got = sgd_step(net, np.concatenate([a.ravel() for a in arrays]), lr)
            want = sgd_oracle(net, arrays, lr)
        assert _net_bits(got) == _net_bits(want), i
        applied += want is not net
        skipped += want is net
    assert applied > 100 and skipped == 50


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_salted():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
