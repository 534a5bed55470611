import math
import warnings

import numpy as np
import pytest

from raft.neural_core import derive_seed, fan_uniform
from raft.state_repr import (
    LATENT_D,
    LATENT_K,
    SI_LENGTH,
    SUMMARY_QUANTILES,
    EncoderKind,
    StateEncoder,
    column_summary,
    correlation_adjacency,
    state_ae,
    state_gae,
    state_op,
    state_si,
)
from oracles import (gae_reconstruction_loss, gae_state_oracle, gcn_forward, quantile_oracle,
                     random_feature_set, si_state_oracle)


def seven_stats_oracle(row, count_scale):
    """Independent single-pass implementation of the seven statistics."""
    data = [float(v) for v in row]
    n = len(data)
    mean = sum(data) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in data) / n)
    return [
        n / count_scale,
        std,
        min(data),
        max(data),
        quantile_oracle(data, 0.25),
        quantile_oracle(data, 0.5),
        quantile_oracle(data, 0.75),
    ]


def si_oracle(values, count_scale):
    m, n = values.shape
    stage1 = []
    for stat_idx in range(7):
        stage1.append([seven_stats_oracle(values[:, j], count_scale)[stat_idx]
                       for j in range(n)])
    out = []
    for row in stage1:
        out.extend(seven_stats_oracle(row, count_scale))
    return np.array(out)


# ---------------------------------------------------------------------------
# si
# ---------------------------------------------------------------------------

def test_si_length_is_49_for_any_shape():
    rng = np.random.default_rng(0)
    for _ in range(10):
        fs = random_feature_set(rng, int(rng.integers(2, 60)), int(rng.integers(1, 12)))
        assert len(state_si(fs)) == SI_LENGTH


def test_si_invariant_under_column_permutation():
    rng = np.random.default_rng(1)
    fs = random_feature_set(rng, 25, 6)
    perm = rng.permutation(6)
    fs_p = fs.with_columns(fs.values[:, perm], tuple(fs.columns[i] for i in perm))
    np.testing.assert_allclose(state_si(fs), state_si(fs_p), rtol=1e-12)


def test_si_invariant_under_row_permutation():
    rng = np.random.default_rng(2)
    fs = random_feature_set(rng, 25, 4)
    perm = rng.permutation(25)
    fs_p = fs.subset_rows(perm)
    np.testing.assert_allclose(state_si(fs), state_si(fs_p), rtol=1e-12)


def test_si_single_column_matches_hand_oracle():
    rng = np.random.default_rng(3)
    fs = random_feature_set(rng, 3, 1)
    fs = fs.with_columns(np.array([[1.0], [2.0], [3.0]]), fs.columns)
    got = state_si(fs)
    want = si_oracle(fs.values, count_scale=3.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    # frozen stage-1 values: count 3/3, population std, min, max, quartiles;
    # each stage-2 row has one element, so its "min" column reads them back
    stage1 = [1.0, math.sqrt(2.0 / 3.0), 1.0, 3.0, 1.5, 2.0, 2.5]
    np.testing.assert_allclose(got[2::7], stage1, rtol=1e-12)


def test_si_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(5):
        fs = random_feature_set(rng, int(rng.integers(3, 30)), int(rng.integers(1, 6)))
        got = state_si(fs)
        want = si_oracle(fs.values, count_scale=float(fs.n_rows))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# ae
# ---------------------------------------------------------------------------

def test_ae_length_is_k_times_d():
    rng = np.random.default_rng(6)
    for m, n in [(5, 3), (20, 1), (40, 7)]:
        fs = random_feature_set(rng, m, n)
        assert len(state_ae(fs, epochs=0, seed=1)) == LATENT_K * LATENT_D


def test_ae_zero_epochs_still_finite():
    rng = np.random.default_rng(7)
    fs = random_feature_set(rng, 12, 3)
    vec = state_ae(fs, epochs=0, seed=2)
    assert len(vec) == LATENT_K * LATENT_D
    assert np.all(np.isfinite(vec))


def test_ae_deterministic_per_seed():
    rng = np.random.default_rng(8)
    fs = random_feature_set(rng, 15, 4)
    a = state_ae(fs, epochs=5, seed=3)
    b = state_ae(fs, epochs=5, seed=3)
    np.testing.assert_array_equal(a, b)


def test_column_summary_matches_quantile_oracle():
    rng = np.random.default_rng(19)
    for m in (1, 2, 4, 63, 64, 65, 300):
        values = rng.standard_normal((m, 3)) * rng.uniform(0.1, 100.0, 3)
        values[:, 2] = np.round(values[:, 2])  # ties
        got = column_summary(values)
        assert got.shape == (3, SUMMARY_QUANTILES)
        for j in range(3):
            col = list(values[:, j])
            dev = [quantile_oracle(col, q) - quantile_oracle(col, 0.5)
                   for q in np.linspace(0.0, 1.0, SUMMARY_QUANTILES)]
            spread = max(abs(v) for v in dev) or 1.0
            np.testing.assert_allclose(got[j], np.array(dev) / spread, rtol=0, atol=1e-12)


def test_column_summary_ignores_a_columns_scale_and_shift():
    rng = np.random.default_rng(20)
    for _ in range(20):
        values = rng.standard_normal((int(rng.integers(2, 200)), 4))
        moved = values.copy()
        j = int(rng.integers(4))
        moved[:, j] = values[:, j] * 10.0 ** rng.uniform(-3.0, 3.0) + rng.uniform(-5.0, 5.0)
        got, want = column_summary(moved), column_summary(values)
        np.testing.assert_allclose(got[j], want[j], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.delete(got, j, axis=0), np.delete(want, j, axis=0))


def test_column_summary_constant_and_huge_columns():
    rng = np.random.default_rng(21)
    values = rng.standard_normal((50, 5))
    values[:, 0] = 3.25
    values[:, 1] = 0.0
    sign = np.where(values[:, 2] > 0.0, 1.0, -1.0)
    values[:, 2] = sign * 1e200
    values[:, 3] = sign * np.finfo(np.float64).max
    values[:, 4] *= 1e-310  # subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = column_summary(values)
    np.testing.assert_array_equal(got[:2], 0.0)
    assert np.all(np.isfinite(got)) and np.all(np.abs(got) <= 1.0)
    np.testing.assert_array_equal(got[2], got[3])  # only the signs matter there
    assert got[2].min() < 0.0 or got[2].max() > 0.0


def test_ae_state_ignores_row_order_and_trains_on_fixed_length_columns(monkeypatch):
    from raft import state_repr

    rng = np.random.default_rng(22)
    fs = random_feature_set(rng, 200, 6)
    perm = rng.permutation(200)
    a = state_ae(fs, epochs=5, seed=3)
    b = state_ae(fs.subset_rows(perm), epochs=5, seed=3)
    assert a.tobytes() == b.tobytes()
    shapes = []
    train = state_repr.train_autoencoder
    monkeypatch.setattr(state_repr, "train_autoencoder",
                        lambda data, *args, **kw: shapes.append(data.shape) or train(data, *args, **kw))
    for m in (4, 1000):  # fewer rows than quantiles, and many more
        vec = state_ae(random_feature_set(rng, m, 3), epochs=5, seed=3)
        assert len(vec) == LATENT_K * LATENT_D and np.all(np.isfinite(vec))
    assert shapes == [(3, SUMMARY_QUANTILES), (LATENT_K, 3)] * 2


def test_ae_state_finite_on_a_huge_column_without_warnings():
    rng = np.random.default_rng(23)
    fs = random_feature_set(rng, 80, 4)
    values = fs.values.copy()
    values[:, 2] = np.where(values[:, 2] > 0.0, 1e200, -1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = state_ae(fs.with_columns(values, fs.columns), epochs=20, seed=3)
    assert np.all(np.isfinite(vec)) and np.any(vec != 0.0)


# ---------------------------------------------------------------------------
# gae
# ---------------------------------------------------------------------------

def test_gae_length_is_k():
    rng = np.random.default_rng(9)
    for m, n in [(6, 1), (20, 5), (50, 9)]:
        fs = random_feature_set(rng, m, n)
        assert len(state_gae(fs, epochs=0, seed=4)) == LATENT_K


def test_gae_single_column():
    rng = np.random.default_rng(10)
    fs = random_feature_set(rng, 8, 1)
    np.testing.assert_array_equal(correlation_adjacency(fs.values), [[1.0]])
    vec = state_gae(fs, epochs=0, seed=5)
    assert len(vec) == LATENT_K and np.all(np.isfinite(vec))


def test_gae_duplicate_columns_all_ones_adjacency():
    rng = np.random.default_rng(11)
    col = rng.standard_normal(12)
    fs = random_feature_set(rng, 12, 2)
    fs = fs.with_columns(np.column_stack([col, col]), fs.columns)
    adj = correlation_adjacency(fs.values)
    np.testing.assert_allclose(adj, np.ones((2, 2)), atol=1e-12)
    # identical nodes produce identical embeddings; the mean equals either row
    feats = fs.values.T
    w = fan_uniform(np.random.default_rng(0), 12, 4)
    z = gcn_forward(adj, (feats - feats.mean(axis=1, keepdims=True))
                    / feats.std(axis=1, keepdims=True), w)
    np.testing.assert_allclose(z[0], z[1], atol=1e-12)


def test_gae_constant_column_similarity_zero():
    rng = np.random.default_rng(12)
    values = np.column_stack([np.full(10, 2.0), rng.standard_normal(10)])
    adj = correlation_adjacency(values)
    assert adj[0, 1] == 0.0 and adj[0, 0] == 1.0


def test_gae_identity_adjacency_closed_form():
    # exactly orthogonal, zero-correlation columns give the identity graph, so
    # the untrained state is the mean over rows of ReLU(X W)
    values = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    fs = random_feature_set(np.random.default_rng(13), 4, 2)
    fs = fs.with_columns(values, fs.columns)
    np.testing.assert_array_equal(correlation_adjacency(values), np.eye(2))
    seed = 6
    got = state_gae(fs, epochs=0, seed=seed)
    w = fan_uniform(np.random.default_rng(derive_seed(seed, "gae")), 4, LATENT_K)
    x = values.T / values.std(axis=0)[:, None]  # columns are already zero-mean
    want = np.maximum(x @ w, 0.0).mean(axis=0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gae_training_reduces_reconstruction_loss():
    from raft.state_repr import gae_layer_grad
    rng = np.random.default_rng(14)
    fs = random_feature_set(rng, 30, 5)
    adj = correlation_adjacency(fs.values)
    feats = (fs.values - fs.values.mean(0)) / np.where(fs.values.std(0) > 0,
                                                       fs.values.std(0), 1.0)
    feats = feats.T
    w = fan_uniform(np.random.default_rng(derive_seed(7, "gae")), 30, 4)
    deg = adj.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    norm_adj = adj * dinv[:, None] * dinv[None, :]
    z0 = np.maximum(norm_adj @ feats @ w, 0.0)
    loss0 = gae_reconstruction_loss(adj, z0)
    for _ in range(300):
        g = gae_layer_grad(adj, norm_adj @ feats, w)
        w = w - 0.05 * g
    z1 = np.maximum(norm_adj @ feats @ w, 0.0)
    assert gae_reconstruction_loss(adj, z1) < loss0


def test_gae_matches_per_epoch_normalisation_oracle_bit_for_bit(monkeypatch):
    from raft import state_repr

    rng = np.random.default_rng(18)
    shapes = [(1000, 16), (1000, 32), (1000, 48)]
    shapes += [(int(rng.integers(2, 120)), int(rng.integers(1, 40))) for _ in range(20)]
    for i, (m, n) in enumerate(shapes):
        fs = random_feature_set(rng, m, n)
        values = fs.values.copy()
        if i % 3 == 1:
            values[:, 0] = values[:, min(1, n - 1)] * 2.0 + 1.0  # a fully correlated pair
        elif i % 3 == 2:
            values[:, -1] = 3.5  # a constant column, similarity 0 to the rest
        fs = fs.with_columns(values, fs.columns)
        epochs, lr = int(rng.integers(0, 30)), float(10.0 ** rng.uniform(-3.0, 0.5))
        monkeypatch.setattr(state_repr, "_AE_LR", lr)  # the rate is module-wide
        got = state_gae(fs, epochs=epochs, seed=i)
        want = gae_state_oracle(fs, k=LATENT_K, epochs=epochs, seed=i, lr=lr)
        assert got.tobytes() == want.tobytes(), (m, n)


def test_si_matches_np_quantile_oracle_bit_for_bit():
    # quartiles read off one sort per stage against np.quantile, also where
    # stage-1 statistics overflow and stage 2 meets inf and NaN
    rng = np.random.default_rng(19)
    big = np.finfo(np.float64).max
    shapes = [(1000, 16), (1000, 24), (2, 1), (2, 2), (3, 7)]
    shapes += [(int(rng.integers(2, 300)), int(rng.integers(1, 40))) for _ in range(40)]
    mixed_zeros = 0
    for i, (m, n) in enumerate(shapes):
        fs = random_feature_set(rng, m, n)
        values = fs.values * 10.0 ** rng.uniform(-300.0, 300.0, size=n)
        if i % 4 == 1:
            values[:, 0] = rng.choice([-big, big], m)  # quartile differences overflow
        elif i % 4 == 2:
            values[:, -1] = np.round(values[:, -1])  # ties
        elif i % 4 == 3:
            values[:, 0] = rng.integers(-4, 5, m) * np.finfo(np.float64).smallest_subnormal
        fs = fs.with_columns(values, fs.columns)
        with np.errstate(over="ignore", invalid="ignore"):
            want = si_state_oracle(fs)
            got = state_si(fs)
        if np.signbit(values[values == 0.0]).any():
            # zeros of both signs (np.round makes -0.0): a zero may differ in sign
            got, want = got + 0.0, want + 0.0
            mixed_zeros += 1
        assert got.tobytes() == want.tobytes(), (m, n)
    assert mixed_zeros > 0


# ---------------------------------------------------------------------------
# op one-hot and concatenation
# ---------------------------------------------------------------------------

def test_state_op_one_hot():
    np.testing.assert_array_equal(state_op("square"), [1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(state_op("/"), [0, 0, 0, 0, 0, 0, 1])


def test_state_op_unknown_rejected():
    with pytest.raises(ValueError):
        state_op("cube")


def test_concat_states():
    # an encoder's state is its parts' states in ``kind.parts`` order
    rng = np.random.default_rng(24)
    fs = random_feature_set(rng, 12, 3)
    si = state_si(fs)
    ae = state_ae(fs, 2, derive_seed(5, "ae"))
    gae = state_gae(fs, 2, derive_seed(5, "gae"))
    for kind, parts in [(EncoderKind.SI, [si]), (EncoderKind.AE, [ae]),
                        (EncoderKind.GAE, [gae]), (EncoderKind.ALL, [si, ae, gae])]:
        got = StateEncoder(kind, 2, 5).encode(fs)
        assert got.tobytes() == np.concatenate(parts).tobytes(), kind


# ---------------------------------------------------------------------------
# encoder facade
# ---------------------------------------------------------------------------

def test_encoder_length_pure_function_of_config():
    rng = np.random.default_rng(15)
    sizes = {"si": SI_LENGTH, "ae": LATENT_K * LATENT_D, "gae": LATENT_K}
    for kind in EncoderKind:
        enc = StateEncoder(kind, epochs=0, seed=0)
        assert enc.length == sum(sizes[part] for part in kind.parts)
        for _ in range(4):
            fs = random_feature_set(rng, int(rng.integers(2, 40)), int(rng.integers(1, 9)))
            assert len(enc.encode(fs)) == enc.length


def test_encoder_finite_on_degenerate_inputs():
    rng = np.random.default_rng(16)
    base = random_feature_set(rng, 6, 2)
    degenerate = [
        base.with_columns(np.zeros((6, 2)), base.columns),
        base.with_columns(np.full((6, 2), 3.25), base.columns),
        base.with_columns(base.values[:, :1], base.columns[:1]),
    ]
    for kind in (EncoderKind.SI, EncoderKind.AE, EncoderKind.GAE):
        enc = StateEncoder(kind, epochs=2, seed=1)
        for fs in degenerate:
            vec = enc.encode(fs)
            assert np.all(np.isfinite(vec)) and not vec.flags.writeable


def test_encoder_cache_returns_equal_vectors():
    rng = np.random.default_rng(17)
    fs = random_feature_set(rng, 10, 3)
    enc = StateEncoder(EncoderKind.ALL, epochs=1, seed=2)
    v1 = enc.encode(fs)
    v2 = enc.encode(fs)
    np.testing.assert_array_equal(v1, v2)
    with pytest.raises(ValueError):
        v1[0] = 1.0  # the cached state is read-only


def test_states_do_not_depend_on_the_input_layout():
    rng = np.random.default_rng(47)
    fs = random_feature_set(rng, 1000, 6)
    big = np.zeros((2000, 18))
    big[::2, ::3] = fs.values
    layouts = [np.ascontiguousarray(fs.values), np.asfortranarray(fs.values), big[::2, ::3]]
    spaces = [fs.with_columns(values, fs.columns) for values in layouts]
    encoders = {
        "si": state_si,
        "gae": lambda space: state_gae(space, 3, 0),
        "encode": lambda space: StateEncoder(EncoderKind.ALL, 2, 0).encode(space),
    }
    for name, encode in encoders.items():
        states = [encode(space).tobytes() for space in spaces]
        assert states[0] == states[1] == states[2], name


def test_encoder_kind_parse():
    assert EncoderKind.parse("gae") is EncoderKind.GAE
    assert [kind.value for kind in EncoderKind] == ["si", "ae", "gae", "all"]
    assert EncoderKind.ALL.parts == ("si", "ae", "gae")
    assert EncoderKind.AE.parts == ("ae",)
    for word in ("nope", "si+ae"):
        with pytest.raises(ValueError):
            EncoderKind.parse(word)
