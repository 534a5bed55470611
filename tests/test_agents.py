import math

import numpy as np
import pytest

from raft.agents import (
    AgentBundle,
    TrainConfig,
    Transition,
    advantage_and_losses,
    compute_rewards,
    make_bundles,
    select_head,
    select_op,
    select_tail,
    update_agents,
)
from raft.clustering import cluster_columns
from raft.dataset import default_bins
from raft.evaluator import ForestConfig, MetricKind, downstream_score
from raft.info_metrics import MICache, feature_set_quality, mutual_information
from raft.neural_core import DenseNet, forward, init_dense, log_softmax, softmax
from raft.state_repr import state_op
from raft.transform import OperationSet, generation_step
from oracles import (assert_grads_close, net_of, numeric_gradients, random_feature_set,
                     update_agents_oracle)


def zero_net(in_size, hidden, out_size):
    size = in_size * hidden + hidden + hidden * out_size + out_size
    return DenseNet(np.zeros(size), in_size, hidden, out_size)


def zero_bundle(actor_in, actor_out, critic_in, hidden=4):
    return AgentBundle(actor=zero_net(actor_in, hidden, actor_out),
                       critic=zero_net(critic_in, hidden, 1))


def sv(values):
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_head_uniform_with_zero_actor():
    bundle = zero_bundle(4, 1, 2)
    s_f = sv([0.5, -0.5])
    cands = [sv([1.0, 0.0]), sv([0.0, 1.0]), sv([2.0, 2.0]), sv([-1.0, 3.0])]
    rng = np.random.default_rng(0)
    action, probs, rows = select_head(bundle, s_f, cands, rng)
    np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)
    assert 0 <= action < 4
    np.testing.assert_array_equal(rows[3], [0.5, -0.5, -1.0, 3.0])


def test_select_head_single_candidate():
    bundle = zero_bundle(4, 1, 2)
    action, probs, _ = select_head(bundle, sv([1.0, 2.0]), [sv([0.0, 0.0])],
                                   np.random.default_rng(1))
    assert action == 0
    np.testing.assert_allclose(probs, [1.0])


def test_select_head_dominant_logit():
    # weights hand-set so candidate states feed the score directly: w1 routes
    # the candidate coordinate through one hidden unit into the one output
    w1 = np.zeros((2, 1)); w1[1, 0] = 1.0
    actor = net_of(w1, np.zeros(1), np.array([[1.0]]), np.zeros(1))
    bundle = AgentBundle(actor, zero_net(1, 2, 1))
    s_f = sv([0.0])
    cands = [sv([0.0]), sv([0.0]), sv([100.0])]
    _, probs, _ = select_head(bundle, s_f, cands, np.random.default_rng(2))
    assert probs[2] > 0.999


def test_select_op_uniform_and_single():
    ops = OperationSet()
    prefix = sv([1.0, 2.0, 3.0, 4.0])
    bundle = zero_bundle(4, ops.size, 4)
    action, probs = select_op(bundle, prefix, np.random.default_rng(3))
    np.testing.assert_allclose(probs, [1.0 / 7] * 7, atol=1e-12)
    bundle1 = zero_bundle(4, 1, 4)
    action, probs = select_op(bundle1, prefix, np.random.default_rng(4))
    assert action == 0 and probs[0] == 1.0


def test_select_tail_uniform_thirds_and_exclusion():
    ops = OperationSet()
    bundle = zero_bundle(3 * 2 + 7, 1, 2 * 2 + 7)
    prefix = np.concatenate([sv([1.0, 0.0]), sv([0.0, 1.0]), state_op("+", ops)])
    cands = [sv([1.0, 1.0]), sv([2.0, 2.0]), sv([3.0, 3.0])]
    _, probs, rows = select_tail(bundle, prefix, cands, np.random.default_rng(5))
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)
    np.testing.assert_array_equal(rows[2], np.concatenate([prefix, cands[2]]))
    _, probs1, _ = select_tail(bundle, prefix, cands[:1], np.random.default_rng(6))
    np.testing.assert_allclose(probs1, [1.0])


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_rewards_noop_step_cancels_downstream_difference():
    rng = np.random.default_rng(8)
    fs = random_feature_set(rng, 30, 3)
    cache = MICache(4)
    quality = lambda f: feature_set_quality(f, cache)
    score = lambda f: downstream_score(f, 0, MetricKind.ONE_MINUS_RAE,
                                       ForestConfig(seed=1))
    head_view = cluster_columns(fs, (0,))
    r1, ro, r2 = compute_rewards(fs, fs, head_view, quality, score)
    assert ro == pytest.approx(quality(fs), abs=1e-15)
    assert r2 == pytest.approx(quality(fs), abs=1e-15)


def test_rewards_singleton_head_is_target_mi():
    rng = np.random.default_rng(9)
    fs = random_feature_set(rng, 40, 3)
    bins = default_bins(40)
    cache = MICache(bins)
    quality = lambda f: feature_set_quality(f, cache)
    score = lambda f: 0.0
    head_view = cluster_columns(fs, (1,))
    r1, _, _ = compute_rewards(fs, fs, head_view, quality, score)
    want = mutual_information(fs.column(1), np.asarray(fs.target.values, float), bins)
    assert r1 == pytest.approx(want, abs=1e-12)


def test_rewards_match_direct_recomputation():
    rng = np.random.default_rng(10)
    for _ in range(5):
        fs = random_feature_set(rng, 30, 4)
        bins = 4
        cache = MICache(bins)
        quality = lambda f: feature_set_quality(f, cache)
        score = lambda f: downstream_score(f, 2, MetricKind.ONE_MINUS_MAE,
                                           ForestConfig(seed=3, n_trees=3))
        fs_next, _ = generation_step(fs, (0, 1), "*", (2, 3), OperationSet(),
                                     max_size=10, cache=cache)
        head_view = cluster_columns(fs, (0, 1))
        r1, ro, r2 = compute_rewards(fs, fs_next, head_view, quality, score)
        assert r1 == pytest.approx(feature_set_quality(head_view, MICache(bins)), abs=1e-12)
        assert r2 == pytest.approx(feature_set_quality(fs_next, MICache(bins)), abs=1e-12)
        want_ro = (feature_set_quality(fs_next, MICache(bins)) + score(fs_next) - score(fs))
        assert ro == pytest.approx(want_ro, abs=1e-12)


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------

def test_losses_collapse_at_gamma_zero_with_zero_critic():
    ops = OperationSet()
    bundle = zero_bundle(4, ops.size, 4)
    state = np.array([1.0, -1.0, 0.5, 2.0])
    t = Transition(state, 2, reward=0.7, next_state=state)
    critic_loss, actor_obj, _, _ = advantage_and_losses([t], bundle, gamma=0.0,
                                                        beta=1.0)
    # delta = r; L_c = r^2; L_a = log pi(a) * r + H(uniform over 7)
    assert critic_loss == pytest.approx(0.49, abs=1e-12)
    assert actor_obj == pytest.approx(math.log(1 / 7) * 0.7 + math.log(7), abs=1e-12)


def test_entropy_of_uniform_four_actions():
    bundle = zero_bundle(3, 4, 3)
    state = np.array([0.0, 0.0, 0.0])
    t = Transition(state, 0, reward=0.0, next_state=state)
    _, actor_obj, _, _ = advantage_and_losses([t], bundle, gamma=0.0, beta=1.0)
    assert actor_obj == pytest.approx(math.log(4), abs=1e-12)  # delta = 0 leaves only H


def test_critic_loss_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        bundle = AgentBundle(
            init_dense(3, 4, 2, rng), init_dense(3, 4, 1, rng))
        ts = [Transition(rng.standard_normal(3), int(rng.integers(0, 2)),
                         float(rng.standard_normal()), rng.standard_normal(3))
              for _ in range(4)]
        critic_loss, _, _, _ = advantage_and_losses(ts, bundle, 0.9, 0.01)
        assert critic_loss >= 0.0


def _loss_fns_for_fd(bundle, transitions, gamma, beta):
    """Scalar objective closures over a copy of the bundle with one net swapped.

    The critic objective freezes the bootstrap target r + gamma * V(S') at the
    original parameters, matching the semi-gradient update.
    """
    def value(net, state):
        return float(forward(net, state)[0])

    targets = [t.reward + gamma * value(bundle.critic, t.next_state) for t in transitions]

    def critic_loss_fn(net):
        total = 0.0
        for t, target in zip(transitions, targets):
            delta = target - value(net, t.state)
            total += delta * delta / len(transitions)
        return float(total)

    def actor_objective_fn(net):
        total = 0.0
        for t in transitions:
            v_s = value(bundle.critic, t.state)
            v_n = value(bundle.critic, t.next_state)
            delta = t.reward + gamma * v_n - v_s
            if t.candidate_inputs is not None:
                logit_vec = forward(net, t.candidate_inputs)[:, 0]
            else:
                logit_vec = forward(net, t.state)
            lp = log_softmax(logit_vec)
            probs = softmax(logit_vec)
            entropy = -float(np.sum(probs * np.log(probs)))
            total += (float(lp[t.action]) * delta + beta * entropy) / len(transitions)
        return float(total)

    return critic_loss_fn, actor_objective_fn


def test_gradients_match_finite_differences_softmax_agent():
    rng = np.random.default_rng(12)
    for _ in range(10):
        bundle = AgentBundle(
            init_dense(4, 5, 3, rng), init_dense(4, 5, 1, rng))
        ts = [Transition(rng.standard_normal(4), int(rng.integers(0, 3)),
                         float(rng.standard_normal()), rng.standard_normal(4))
              for _ in range(3)]
        gamma, beta = 0.9, 0.05
        critic_loss, actor_obj, a_grads, c_grads = advantage_and_losses(
            ts, bundle, gamma, beta)
        critic_fn, actor_fn = _loss_fns_for_fd(bundle, ts, gamma, beta)
        assert_grads_close(c_grads, numeric_gradients(critic_fn, bundle.critic))
        assert_grads_close(a_grads, numeric_gradients(actor_fn, bundle.actor))
        assert critic_loss == pytest.approx(critic_fn(bundle.critic), abs=1e-12)
        assert actor_obj == pytest.approx(actor_fn(bundle.actor), abs=1e-12)


def test_gradients_match_finite_differences_candidate_agent():
    rng = np.random.default_rng(13)
    for _ in range(10):
        bundle = AgentBundle(
            init_dense(6, 5, 1, rng), init_dense(3, 5, 1, rng))
        n_cands = int(rng.integers(2, 5))
        ts = [Transition(rng.standard_normal(3), int(rng.integers(0, n_cands)),
                         float(rng.standard_normal()), rng.standard_normal(3),
                         candidate_inputs=rng.standard_normal((n_cands, 6)))
              for _ in range(3)]
        gamma, beta = 0.8, 0.02
        _, _, a_grads, c_grads = advantage_and_losses(ts, bundle, gamma, beta)
        critic_fn, actor_fn = _loss_fns_for_fd(bundle, ts, gamma, beta)
        assert_grads_close(c_grads, numeric_gradients(critic_fn, bundle.critic))
        assert_grads_close(a_grads, numeric_gradients(actor_fn, bundle.actor))


def test_reinforce_direction_at_gamma_zero():
    # with a zero critic and gamma 0, the actor gradient is the REINFORCE
    # direction with the raw reward as the weight
    rng = np.random.default_rng(15)
    actor = init_dense(3, 4, 3, rng)
    bundle = AgentBundle(actor, zero_net(3, 4, 1))
    state = rng.standard_normal(3)
    t = Transition(state, 1, reward=2.5, next_state=state)
    _, _, a_grads, _ = advantage_and_losses([t], bundle, gamma=0.0, beta=0.0)

    def reinforce_fn(net):
        return 2.5 * float(log_softmax(forward(net, state))[1])

    assert_grads_close(a_grads, numeric_gradients(reinforce_fn, actor))


def test_update_raises_probability_of_positively_rewarded_action():
    rng = np.random.default_rng(16)
    cfg = TrainConfig(actor_lr=0.05, critic_lr=0.0001, beta=0.0, gamma=0.0,
                      episodes=1, steps=1)
    bundles = make_bundles(2, 3, cfg, rng)
    state = np.array([1.0, -0.5, 0.3, 0.8])
    probs_before = softmax(forward(bundles[1].actor, state))
    action = 1
    ts = [Transition(state, action, reward=1.0, next_state=state)]
    (_, new_op, _), _ = update_agents(bundles, ([], ts, []), cfg)
    probs_after = softmax(forward(new_op.actor, state))
    assert probs_after[action] >= probs_before[action]


def test_update_skips_on_nonfinite_loss(caplog):
    cfg = TrainConfig(episodes=1, steps=1)
    rng = np.random.default_rng(17)
    bundles = make_bundles(2, 3, cfg, rng)
    bad = Transition(np.full(4, 1.0), 0, reward=float("nan"), next_state=np.full(4, 1.0))
    with caplog.at_level("WARNING"):
        (_, new_op, _), report = update_agents(bundles, ([], [bad], []), cfg)
    assert new_op.actor is bundles[1].actor
    assert any("non-finite" in r.message for r in caplog.records)


def test_update_agents_deterministic():
    rng1 = np.random.default_rng(18)
    rng2 = np.random.default_rng(18)
    cfg = TrainConfig(episodes=1, steps=1)
    b1 = make_bundles(2, 3, cfg, rng1)
    b2 = make_bundles(2, 3, cfg, rng2)
    state = np.array([0.3, 0.7, -0.2, 1.0])
    ts = [Transition(state, 0, 0.5, state)]
    (h1, o1, t1), _ = update_agents(b1, ([], ts, []), cfg)
    (h2, o2, t2), _ = update_agents(b2, ([], ts, []), cfg)
    np.testing.assert_array_equal(o1.actor.w1, o2.actor.w1)
    np.testing.assert_array_equal(o1.critic.w2, o2.critic.w2)


def _random_episode(rng, state_len, n_ops, rewards):
    """Head, operation and tail batches shaped as the policy records them."""
    def candidates(width):
        return rng.standard_normal((int(rng.integers(1, 5)), width))

    head, op, tail = [], [], []
    for r in rewards:
        rows = candidates(2 * state_len)
        head.append(Transition(rng.standard_normal(state_len), int(rng.integers(len(rows))), r,
                               rng.standard_normal(state_len), rows))
        op.append(Transition(rng.standard_normal(2 * state_len), int(rng.integers(n_ops)), r,
                             rng.standard_normal(2 * state_len)))
        rows = candidates(3 * state_len + n_ops)
        tail_len = 2 * state_len + n_ops
        tail.append(Transition(rng.standard_normal(tail_len), int(rng.integers(len(rows))), r,
                               rng.standard_normal(tail_len), rows))
    return head, op, tail


def test_update_agents_matches_frozen_oracle_bit_for_bit(caplog):
    rng = np.random.default_rng(20)
    skipped = 0
    for i in range(60):
        cfg = TrainConfig(episodes=1, steps=1, hidden=int(rng.integers(1, 9)),
                          gamma=float(rng.uniform()), beta=float(rng.uniform(0.0, 0.1)),
                          actor_lr=float(10.0 ** rng.uniform(-4.0, 0.0)),
                          critic_lr=float(10.0 ** rng.uniform(-4.0, 0.0)))
        state_len, n_ops = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        bundles = make_bundles(state_len, n_ops, cfg, rng)
        rewards = rng.standard_normal(int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-2.0, 2.0)
        if i % 4 == 1:
            rewards[0] = rng.choice([1e200, -1e200])  # the squared TD error overflows
        elif i % 4 == 2:
            rewards[-1] = np.nan
        elif i % 4 == 3:
            rewards[0] = 1e150  # a finite loss whose gradient norm overflows
        episode = _random_episode(rng, state_len, n_ops, list(rewards))
        if i % 5 == 0:
            episode = (episode[0], [], episode[2])
        caplog.clear()
        with caplog.at_level("WARNING"), np.errstate(all="ignore"):
            got, report = update_agents(bundles, episode, cfg)
            want, want_report = update_agents_oracle(
                [(b.actor, b.critic) for b in bundles], episode, cfg.gamma, cfg.beta,
                cfg.actor_lr, cfg.critic_lr)
        assert {k: repr(v) for k, v in report.items()} == \
            {k: repr(v) for k, v in want_report.items()}, i
        for bundle, (actor, critic) in zip(got, want):
            assert bundle.actor.params.tobytes() == actor.params.tobytes(), i
            assert bundle.critic.params.tobytes() == critic.params.tobytes(), i
        names = ("head", "op", "tail")
        bad = [name for name in names if f"{name}_critic_loss" in report and not all(
            math.isfinite(report[f"{name}_{loss}"]) for loss in ("critic_loss", "actor_objective"))]
        for name, before, after, batch in zip(names, bundles, got, episode):
            assert (after is before) == (not batch or name in bad), (i, name)
        assert len([r for r in caplog.records if "non-finite loss" in r.message]) == len(bad), i
        skipped += len(bad)
    assert skipped >= 30


def test_make_bundles_shapes():
    cfg = TrainConfig(hidden=16, episodes=1, steps=1)
    rng = np.random.default_rng(19)
    head, op, tail = make_bundles(49, 7, cfg, rng)
    assert head.actor.in_size == 98 and head.actor.out_size == 1
    assert head.critic.in_size == 49
    assert op.actor.in_size == 98 and op.actor.out_size == 7
    assert op.critic.in_size == 98
    assert tail.actor.in_size == 49 * 3 + 7 and tail.actor.out_size == 1
    assert tail.critic.in_size == 49 * 2 + 7


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(episodes=0)
