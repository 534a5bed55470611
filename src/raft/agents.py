"""Cascading actor-critic agents: head group, operation, tail group, and the
uniform-random control that makes the same choices without learning.

States are the encoder's 1-D float64 arrays.  Each agent samples the softmax
of its actor's logits.  The two cluster agents score a variable number of
candidates, one logit per row concat(state prefix, candidate state); the
operation agent's actor gives one logit per operation; a critic's one output
is its value.  Updates happen once per episode on that episode's transition
batch: the critic descends the squared TD error, with the target
r + GAMMA * V(S') held fixed, and the actor ascends
log pi(a|S) * advantage + BETA * entropy (the update negates the returned
ascent objective).  Gradients are flat arrays in the layout of the nets'
``params``; each agent's two nets take one ``clip_step`` in place per episode,
at ``CRITIC_LR`` and ``ACTOR_LR``.

The search loop drives a policy through three calls: ``choose(fs, views)``
gives a step's (head, op, tail), ``observe`` hands back its rewards and new
space, and ``end_episode`` follows an episode's last step.  Both policies
draw the tail from ``tail_candidates``.  ``ActorCriticPolicy`` is the
learned agent; ``RandomPolicy`` is the ``--bench`` control, which draws each
choice uniformly and never encodes a state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import OPS, FeatureSet, NumericError
from .neural_core import (
    DenseNet,
    clip_step,
    dense_grads,
    dense_pass,
    derive_seed,
    init_dense,
    log_softmax,
    softmax,
)
from .state_repr import ENCODER_EPOCHS, EncoderKind, StateEncoder, state_op

logger = logging.getLogger(__name__)

HIDDEN = 64  # the hidden width of every actor and critic
GAMMA = 0.9  # the TD target's discount
BETA = 0.01  # the actor objective's entropy weight
ACTOR_LR = 1e-3  # each episode's step size of the actors
CRITIC_LR = 1e-3  # each episode's step size of the critics


@dataclass
class TrainConfig:
    """Search knobs; defaults target desk-scale runs.

    Every field is also a ``raft run`` flag and a config-file key, echoed to
    ``config.echo`` in this order (the echo replays the run).  ``episodes``
    or ``steps`` below 1 raises ValueError (the CLI's exit 2).  ``encoder``
    is si, ae, gae or all.  What no run varies is a constant: ``GAMMA``,
    ``BETA``, ``ACTOR_LR`` and ``CRITIC_LR``, the Euclidean group distance,
    the mean pair score as the clustering threshold, ``state_repr``'s latent
    widths and ``ENCODER_EPOCHS``, ``HIDDEN`` and the autoencoders'
    ``AE_HIDDEN``, ``default_bins``, twice the input's width as a space's
    size, ``transform``'s ``CROSS_CAP`` and ``MAX_LINEAGE_DEPTH``, the
    forest's shape (``N_TREES``, ``MAX_DEPTH``, ``MIN_LEAF`` and the task's
    feature-draw rule) and the hold-out split's ``TRAIN_FRACTION``.
    """

    episodes: int = 30
    steps: int = 15
    seed: int = 0
    encoder: EncoderKind = EncoderKind.SI

    def __post_init__(self) -> None:
        for name in ("episodes", "steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class AgentBundle:
    actor: DenseNet
    critic: DenseNet


@dataclass
class Transition:
    """One agent step: critic state, sampled action, reward, bootstrap state,
    and the rows its actor scored at selection time: one per candidate for the
    cluster agents, the one prefix row for the operation agent."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    actor_rows: np.ndarray


def make_bundles(state_len: int,
                 rng: np.random.Generator) -> tuple[AgentBundle, AgentBundle, AgentBundle]:
    """Build (head, operation, tail) agents for a given encoder length."""
    n_ops = len(OPS)
    def bundle(actor_in: int, actor_out: int, critic_in: int) -> AgentBundle:
        return AgentBundle(actor=init_dense(actor_in, HIDDEN, actor_out, rng),
                           critic=init_dense(critic_in, HIDDEN, 1, rng))

    head_agent = bundle(2 * state_len, 1, state_len)
    op_agent = bundle(2 * state_len, n_ops, 2 * state_len)
    tail_agent = bundle(3 * state_len + n_ops, 1, 2 * state_len + n_ops)
    return head_agent, op_agent, tail_agent


def _sample(actor: DenseNet, x: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """An action drawn from the softmax of the actor's logits for ``x`` (a
    state's outputs, or each candidate row's one output), and that softmax.
    Raises NumericError when the softmax is not finite (diverged weights)."""
    probs = softmax(dense_pass(actor, np.atleast_2d(x))[2].reshape(-1))
    if not np.isfinite(probs).all():
        raise NumericError("an actor's softmax is not finite; its weights have diverged")
    return int(rng.choice(probs.size, p=probs / probs.sum())), probs


def _sample_candidate(agent: AgentBundle, prefix: np.ndarray, candidates: Sequence[np.ndarray],
                      rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
    """The action and softmax for the rows concat(prefix, candidate), and the rows."""
    rows = np.stack([np.concatenate([prefix, c]) for c in candidates])
    return (*_sample(agent.actor, rows, rng), rows)


def select_head(
    agent: AgentBundle,
    s_f: np.ndarray,
    cluster_states: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Score each candidate group given the space state; sample the softmax.
    Also returns the candidate rows the actor scored."""
    return _sample_candidate(agent, s_f, cluster_states, rng)


def select_op(
    agent: AgentBundle,
    prefix_op: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Sample an operation (an index into ``OPS``) from the softmax, given the
    prefix concat(space, head)."""
    return _sample(agent.actor, prefix_op, rng)


def select_tail(
    agent: AgentBundle,
    prefix_tail: np.ndarray,
    cluster_states: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Like select_head with the longer prefix concat(space, head, op)."""
    return _sample_candidate(agent, prefix_tail, cluster_states, rng)


def compute_rewards(
    fs_t: FeatureSet,
    fs_next: FeatureSet,
    head_view: FeatureSet,
    quality_fn: Callable[[FeatureSet], float],
    score_fn: Callable[[FeatureSet], float],
) -> tuple[float, float, float]:
    """(head-group quality, quality + downstream improvement, new-space quality)."""
    r_head = quality_fn(head_view)
    u_next = quality_fn(fs_next)
    r_op = u_next + score_fn(fs_next) - score_fn(fs_t)
    return r_head, r_op, u_next


def _actor_logit_grad(probs: np.ndarray, action: int, advantage: float,
                      beta: float) -> tuple[np.ndarray, float]:
    """d/dlogits of log pi(a) * advantage + beta * H(pi) (ascent direction),
    and the entropy H(pi)."""
    onehot = np.zeros_like(probs)
    onehot[action] = 1.0
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0.0, np.log(probs), 0.0)
    entropy = -float(np.sum(probs * logp))
    return (onehot - probs) * advantage + beta * (-probs * (logp + entropy)), entropy


def advantage_and_losses(
    transitions: Sequence[Transition],
    bundle: AgentBundle,
    gamma: float,
    beta: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Batch losses and gradients for one agent.

    Returns (critic loss, actor ascent objective, actor gradient of the
    ascent objective, critic gradient of the descent loss), each gradient
    flat in its net's layout.  The TD target r + gamma * V(S') is
    gradient-stopped.  ``transitions`` is nonempty (``update_agents`` skips
    an empty batch).
    """
    n = len(transitions)
    critic, actor = bundle.critic, bundle.actor
    critic_grads, actor_grads = np.zeros_like(critic.params), np.zeros_like(actor.params)
    # each transition's gradients land in one flat buffer per net, split once per call
    critic_flat, actor_flat = np.empty_like(critic.params), np.empty_like(actor.params)
    critic_out, actor_out = critic.split(critic_flat), actor.split(actor_flat)
    critic_loss = actor_objective = 0.0
    for t in transitions:
        state = np.atleast_2d(t.state)
        z1, a1, v_s = dense_pass(critic, state)
        v_next = dense_pass(critic, np.atleast_2d(t.next_state))[2]
        delta = t.reward + gamma * float(v_next[0, 0]) - float(v_s[0, 0])
        critic_loss += delta * delta / n
        dense_grads(critic, state, z1, a1, np.array([[-2.0 * delta / n]]), critic_out)
        critic_grads += critic_flat
        z1, a1, logits = dense_pass(actor, t.actor_rows)
        logit_vec = logits.reshape(-1)
        dlogits, entropy = _actor_logit_grad(softmax(logit_vec), t.action, delta, beta)
        dense_grads(actor, t.actor_rows, z1, a1, (dlogits / n).reshape(logits.shape), actor_out)
        actor_grads += actor_flat
        actor_objective += (float(log_softmax(logit_vec)[t.action]) * delta
                            + beta * entropy) / n
    return float(critic_loss), float(actor_objective), actor_grads, critic_grads


def update_agents(
    bundles: tuple[AgentBundle, AgentBundle, AgentBundle],
    episode: tuple[Sequence[Transition], Sequence[Transition], Sequence[Transition]],
) -> dict[str, float]:
    """One in-place gradient step per net of each agent on its episode batch,
    at ``GAMMA``, ``BETA``, ``CRITIC_LR`` and ``ACTOR_LR``; returns the
    losses.  Non-finite losses skip that agent's update with a warning."""
    report: dict[str, float] = {}
    for name, bundle, transitions in zip(("head", "op", "tail"), bundles, episode):
        if len(transitions) == 0:
            continue
        critic_loss, actor_objective, actor_grads, critic_grads = advantage_and_losses(
            transitions, bundle, GAMMA, BETA)
        report[f"{name}_critic_loss"] = critic_loss
        report[f"{name}_actor_objective"] = actor_objective
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            logger.warning("non-finite loss for %s agent; skipping its update", name)
            continue
        clip_step(bundle.critic.params, critic_grads, bundle.critic.bounds, CRITIC_LR)
        clip_step(bundle.actor.params, -actor_grads, bundle.actor.bounds, ACTOR_LR)
    return report


def tail_candidates(n_groups: int, head: int) -> list[int]:
    """The groups the tail is drawn from: every group but the head, or the
    head itself when it is the only group (the column group crosses itself)."""
    return [i for i in range(n_groups) if i != head] or [head]


class RandomPolicy:
    """The uniform-random control: every choice is one ``rng.integers`` draw
    over the candidates; it encodes no state and never learns."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def choose(self, fs: FeatureSet, views: Sequence[FeatureSet]) -> tuple[int, str, int]:
        head = int(self.rng.integers(0, len(views)))
        op = OPS[int(self.rng.integers(0, len(OPS)))]
        tails = tail_candidates(len(views), head)
        return head, op, tails[int(self.rng.integers(0, len(tails)))]

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        pass

    def end_episode(self) -> dict[str, float]:
        return {}


class ActorCriticPolicy:
    """The three cascading actor-critic agents.  Each step encodes the space
    and its groups, samples the head, the operation and the tail from the
    agents' softmaxes, and records one transition per choice; each episode
    ends with one update of every agent on its transitions."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator) -> None:
        self.rng = rng
        self.encoder = StateEncoder(cfg.encoder, ENCODER_EPOCHS, derive_seed(cfg.seed, "encoder"))
        init_rng = np.random.default_rng(derive_seed(cfg.seed, "agent-init"))
        self.bundles = make_bundles(self.encoder.length, init_rng)
        self.batches: tuple[list[Transition], list[Transition], list[Transition]] = ([], [], [])

    def choose(self, fs: FeatureSet, views: Sequence[FeatureSet]) -> tuple[int, str, int]:
        s_f = self.encoder.encode(fs)
        groups = [self.encoder.encode(v) for v in views]
        head, _, head_rows = select_head(self.bundles[0], s_f, groups, self.rng)
        prefix_op = np.concatenate([s_f, groups[head]])
        op, _ = select_op(self.bundles[1], prefix_op, self.rng)
        s_op = state_op(OPS[op])
        prefix_tail = np.concatenate([prefix_op, s_op])
        tails = tail_candidates(len(views), head)
        pos, _, tail_rows = select_tail(self.bundles[2], prefix_tail,
                                        [groups[i] for i in tails], self.rng)
        # each agent's (state, action, actor rows), and the states the next prefixes reuse
        self._pending = (((s_f, head, head_rows), (prefix_op, op, prefix_op[None, :]),
                          (prefix_tail, pos, tail_rows)), groups[head], s_op)
        return head, OPS[op], tails[pos]

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        """Record the step's transitions, bootstrapping from the new space."""
        chosen, s_head, s_op = self._pending
        s_next = self.encoder.encode(fs_next)
        prefix_op_next = np.concatenate([s_next, s_head])
        next_states = (s_next, prefix_op_next, np.concatenate([prefix_op_next, s_op]))
        for batch, (state, action, rows), reward, next_state in zip(
                self.batches, chosen, (r_head, r_op, r_tail), next_states):
            batch.append(Transition(state, action, reward, next_state, rows))

    def end_episode(self) -> dict[str, float]:
        """Update the agents on the episode's transitions; returns the losses."""
        losses = update_agents(self.bundles, self.batches)
        self.batches = ([], [], [])
        return losses
