import math

import numpy as np
import pytest

from raft import agents
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
    tail_candidates,
    update_agents,
)
from raft.cli import prepare
from raft.dataset import OPS, default_bins
from raft.evaluator import ForestConfig, MetricKind, downstream_score
from raft.info_metrics import MICache, feature_set_quality
from raft.neural_core import DenseNet, clip_step, dense_pass, init_dense, log_softmax, softmax
from raft.state_repr import state_op
from raft.transform import generation_step
from oracles import (assert_grads_close, net_of, numeric_gradients, random_feature_set,
                     update_agents_oracle)


def zero_net(in_size, hidden, out_size):
    size = in_size * hidden + hidden + hidden * out_size + out_size
    return DenseNet(np.zeros(size), in_size, hidden, out_size)


def copy_net(net):
    return DenseNet(net.params.copy(), net.in_size, net.hidden, net.out_size)


def zero_bundle(actor_in, actor_out, critic_in, hidden=4):
    return AgentBundle(actor=zero_net(actor_in, hidden, actor_out),
                       critic=zero_net(critic_in, hidden, 1))


def sv(values):
    return np.asarray(values, dtype=float)


def op_transition(state, action, reward, next_state):
    """A transition whose actor scored its one state row, as the operation agent's does."""
    return Transition(state, action, reward, next_state, state[None, :])


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
    prefix = sv([1.0, 2.0, 3.0, 4.0])
    bundle = zero_bundle(4, len(OPS), 4)
    action, probs = select_op(bundle, prefix, np.random.default_rng(3))
    np.testing.assert_allclose(probs, [1.0 / 7] * 7, atol=1e-12)
    bundle1 = zero_bundle(4, 1, 4)
    action, probs = select_op(bundle1, prefix, np.random.default_rng(4))
    assert action == 0 and probs[0] == 1.0


def test_select_tail_uniform_thirds_and_exclusion():
    bundle = zero_bundle(3 * 2 + 7, 1, 2 * 2 + 7)
    prefix = np.concatenate([sv([1.0, 0.0]), sv([0.0, 1.0]), state_op("+")])
    cands = [sv([1.0, 1.0]), sv([2.0, 2.0]), sv([3.0, 3.0])]
    _, probs, rows = select_tail(bundle, prefix, cands, np.random.default_rng(5))
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)
    np.testing.assert_array_equal(rows[2], np.concatenate([prefix, cands[2]]))
    _, probs1, _ = select_tail(bundle, prefix, cands[:1], np.random.default_rng(6))
    np.testing.assert_allclose(probs1, [1.0])


def test_tail_candidates_are_every_other_group_or_the_lone_head():
    assert tail_candidates(3, 1) == [0, 2]
    assert tail_candidates(2, 0) == [1]
    assert tail_candidates(4, 3) == [0, 1, 2]
    assert tail_candidates(1, 0) == [0]  # a lone group crosses itself


def test_policies_give_the_loop_only_choose_observe_and_end_episode():
    fs = random_feature_set(np.random.default_rng(0), 30, 3)
    for policy in (prepare(fs, TrainConfig(), bench=bench)[0] for bench in (True, False)):
        methods = {name for name in dir(policy)
                   if not name.startswith("_") and callable(getattr(policy, name))}
        assert methods == {"choose", "observe", "end_episode"}, type(policy).__name__


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
    head_view = fs.take((0,))
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
    head_view = fs.take((1,))
    r1, _, _ = compute_rewards(fs, fs, head_view, quality, score)
    want = MICache(bins).mi([fs.column(1)], [fs.keys[1]], fs.target)[0]
    assert r1 == pytest.approx(want, abs=1e-12)


def test_rewards_match_direct_recomputation():
    rng = np.random.default_rng(10)
    for _ in range(5):
        fs = random_feature_set(rng, 30, 4)
        bins = 4
        cache = MICache(bins)
        quality = lambda f: feature_set_quality(f, cache)
        score = lambda f: downstream_score(f, 2, MetricKind.ONE_MINUS_RAE,
                                           ForestConfig(seed=3))
        head_view = fs.take((0, 1))
        fs_next = generation_step(fs, head_view, "*", fs.take((2, 3)), max_size=10, cache=cache)
        r1, ro, r2 = compute_rewards(fs, fs_next, head_view, quality, score)
        assert r1 == pytest.approx(feature_set_quality(head_view, MICache(bins)), abs=1e-12)
        assert r2 == pytest.approx(feature_set_quality(fs_next, MICache(bins)), abs=1e-12)
        want_ro = (feature_set_quality(fs_next, MICache(bins)) + score(fs_next) - score(fs))
        assert ro == pytest.approx(want_ro, abs=1e-12)


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------

def test_losses_collapse_at_gamma_zero_with_zero_critic():
    bundle = zero_bundle(4, len(OPS), 4)
    state = np.array([1.0, -1.0, 0.5, 2.0])
    t = op_transition(state, 2, reward=0.7, next_state=state)
    critic_loss, actor_obj, _, _ = advantage_and_losses([t], bundle, gamma=0.0,
                                                        beta=1.0)
    # delta = r; L_c = r^2; L_a = log pi(a) * r + H(uniform over 7)
    assert critic_loss == pytest.approx(0.49, abs=1e-12)
    assert actor_obj == pytest.approx(math.log(1 / 7) * 0.7 + math.log(7), abs=1e-12)


def test_entropy_of_uniform_four_actions():
    bundle = zero_bundle(3, 4, 3)
    state = np.array([0.0, 0.0, 0.0])
    t = op_transition(state, 0, reward=0.0, next_state=state)
    _, actor_obj, _, _ = advantage_and_losses([t], bundle, gamma=0.0, beta=1.0)
    assert actor_obj == pytest.approx(math.log(4), abs=1e-12)  # delta = 0 leaves only H


def test_critic_loss_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        bundle = AgentBundle(
            init_dense(3, 4, 2, rng), init_dense(3, 4, 1, rng))
        ts = [op_transition(rng.standard_normal(3), int(rng.integers(0, 2)),
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
        return float(dense_pass(net, state[None, :])[2][0, 0])

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
            logit_vec = dense_pass(net, t.actor_rows)[2].reshape(-1)
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
        ts = [op_transition(rng.standard_normal(4), int(rng.integers(0, 3)),
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
                         actor_rows=rng.standard_normal((n_cands, 6)))
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
    t = op_transition(state, 1, reward=2.5, next_state=state)
    _, _, a_grads, _ = advantage_and_losses([t], bundle, gamma=0.0, beta=0.0)

    def reinforce_fn(net):
        return 2.5 * float(log_softmax(dense_pass(net, state[None, :])[2][0])[1])

    assert_grads_close(a_grads, numeric_gradients(reinforce_fn, actor))


def test_update_raises_probability_of_positively_rewarded_action():
    # at gamma and beta 0 the advantage is the reward itself
    rng = np.random.default_rng(16)
    actor = make_bundles(2, rng)[1].actor
    bundle = AgentBundle(actor, zero_net(4, 4, 1))
    state = np.array([1.0, -0.5, 0.3, 0.8])
    probs_before = softmax(dense_pass(actor, state[None, :])[2][0])
    action = 1
    ts = [op_transition(state, action, reward=1.0, next_state=state)]
    _, _, actor_grads, _ = advantage_and_losses(ts, bundle, gamma=0.0, beta=0.0)
    assert clip_step(actor.params, -actor_grads, actor.bounds, 0.05)
    probs_after = softmax(dense_pass(actor, state[None, :])[2][0])
    assert probs_after[action] > probs_before[action]


def test_update_skips_on_nonfinite_loss(caplog):
    rng = np.random.default_rng(17)
    bundles = make_bundles(2, rng)
    bad = op_transition(np.full(4, 1.0), 0, reward=float("nan"), next_state=np.full(4, 1.0))
    before = bundles[1].actor.params.tobytes()
    with caplog.at_level("WARNING"):
        update_agents(bundles, ([], [bad], []))
    assert bundles[1].actor.params.tobytes() == before
    assert any("non-finite" in r.message for r in caplog.records)


def test_update_agents_deterministic():
    rng1 = np.random.default_rng(18)
    rng2 = np.random.default_rng(18)
    b1 = make_bundles(2, rng1)
    b2 = make_bundles(2, rng2)
    state = np.array([0.3, 0.7, -0.2, 1.0])
    ts = [op_transition(state, 0, 0.5, state)]
    update_agents(b1, ([], ts, []))
    update_agents(b2, ([], ts, []))
    np.testing.assert_array_equal(b1[1].actor.w1, b2[1].actor.w1)
    np.testing.assert_array_equal(b1[1].critic.w2, b2[1].critic.w2)


def _random_episode(rng, state_len, n_ops, rewards):
    """Head, operation and tail batches shaped as the policy records them."""
    def candidates(width):
        return rng.standard_normal((int(rng.integers(1, 5)), width))

    head, op, tail = [], [], []
    for r in rewards:
        rows = candidates(2 * state_len)
        head.append(Transition(rng.standard_normal(state_len), int(rng.integers(len(rows))), r,
                               rng.standard_normal(state_len), rows))
        op.append(op_transition(rng.standard_normal(2 * state_len), int(rng.integers(n_ops)), r,
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
        state_len = int(rng.integers(1, 6))
        bundles = make_bundles(state_len, rng)
        rewards = rng.standard_normal(int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-2.0, 2.0)
        if i % 4 == 1:
            rewards[0] = rng.choice([1e200, -1e200])  # the squared TD error overflows
        elif i % 4 == 2:
            rewards[-1] = np.nan
        elif i % 4 == 3:
            rewards[0] = 1e150  # a finite loss whose gradient norm overflows
        episode = _random_episode(rng, state_len, len(OPS), list(rewards))
        if i % 5 == 0:
            episode = (episode[0], [], episode[2])
        # copies taken before update_agents steps the nets in place
        copies = [(copy_net(b.actor), copy_net(b.critic)) for b in bundles]
        before = [(a.params.tobytes(), c.params.tobytes()) for a, c in copies]
        caplog.clear()
        with caplog.at_level("WARNING"), np.errstate(all="ignore"):
            report = update_agents(bundles, episode)
            want, want_report = update_agents_oracle(copies, episode, agents.GAMMA, agents.BETA,
                                                     agents.ACTOR_LR, agents.CRITIC_LR)
        assert {k: repr(v) for k, v in report.items()} == \
            {k: repr(v) for k, v in want_report.items()}, i
        got = [(b.actor.params.tobytes(), b.critic.params.tobytes()) for b in bundles]
        assert got == [(a.params.tobytes(), c.params.tobytes()) for a, c in want], i
        names = ("head", "op", "tail")
        bad = [name for name in names if f"{name}_critic_loss" in report and not all(
            math.isfinite(report[f"{name}_{loss}"]) for loss in ("critic_loss", "actor_objective"))]
        for name, old, new, batch in zip(names, before, got, episode):
            if not batch or name in bad:
                assert new == old, (i, name)
        assert len([r for r in caplog.records if "non-finite loss" in r.message]) == len(bad), i
        skipped += len(bad)
    assert skipped >= 30


def test_update_runs_each_pass_once_per_transition(monkeypatch):
    # per transition: the critic on S and on S', the actor on its input, and
    # one gradient per net of the passes already run
    calls = {"dense_pass": 0, "dense_grads": 0}

    def spy(name):
        real = getattr(agents, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(agents, name, spy(name))
    rng = np.random.default_rng(21)
    bundles = make_bundles(2, rng)
    for bundle, batch in zip(bundles, _random_episode(rng, 2, len(OPS), [0.5, -1.0, 2.0])):
        calls.update(dense_pass=0, dense_grads=0)
        advantage_and_losses(batch, bundle, agents.GAMMA, agents.BETA)
        assert calls == {"dense_pass": 3 * len(batch), "dense_grads": 2 * len(batch)}


def test_make_bundles_shapes():
    head, op, tail = make_bundles(49, np.random.default_rng(19))
    assert {net.hidden for bundle in (head, op, tail)
            for net in (bundle.actor, bundle.critic)} == {agents.HIDDEN}
    assert head.actor.in_size == 98 and head.actor.out_size == 1
    assert head.critic.in_size == 49
    assert op.actor.in_size == 98 and op.actor.out_size == 7
    assert op.critic.in_size == 98
    assert tail.actor.in_size == 49 * 3 + 7 and tail.actor.out_size == 1
    assert tail.critic.in_size == 49 * 2 + 7


def test_train_config_validation():
    with pytest.raises(ValueError, match="episodes must be >= 1, got 0"):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        TrainConfig(steps=0)
