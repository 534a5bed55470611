"""Cascading actor-critic agents: head group, operation, tail group, and the
uniform-random control that makes the same choices without learning.

The two cluster agents score a variable number of candidates by running a
shared scalar-head network on concat(state prefix, candidate state) and
softmaxing the scores; the operation agent is a fixed softmax head over the
operation set.  Updates happen once per episode on that episode's transition
batch: the critic descends the squared TD error and the actor ascends
log pi(a|S) * advantage + beta * entropy (the update negates the returned
ascent objective).

The search loop drives a policy through the same calls each step:
``choose_head``, ``choose_op``, ``choose_tail``, ``observe`` and, after the last
step of an episode, ``end_episode``.
``ActorCriticPolicy`` is the learned agent; ``RandomPolicy`` is the ``--bench``
control, which draws each choice uniformly and never encodes a state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import FeatureSet
from .info_metrics import PairwiseDistanceKind
from .neural_core import (
    HEAD_SCALAR,
    HEAD_SOFTMAX,
    DenseNet,
    Grads,
    OptimState,
    backward,
    derive_seed,
    forward,
    grads_add,
    grads_scale,
    grads_zero,
    init_dense,
    log_softmax,
    logits as net_logits,
    sgd_step,
    softmax,
)
from .state_repr import (
    EncoderConfig,
    EncoderKind,
    StateEncoder,
    StateVector,
    concat_states,
    state_op,
)
from .transform import OperationSet

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Search and optimization knobs; defaults target desk-scale runs.

    Every field but ``op_set`` is also a ``raft run`` flag (``--max-size`` for
    ``max_size``) and a config-file key, and is echoed to ``config.echo`` in
    this order; a field's ``help`` metadata is its flag's help text.
    """

    episodes: int = 30
    steps: int = 15
    seed: int = 0
    encoder: EncoderKind = EncoderKind.SI
    k: int = field(default=8, metadata={"help": "latent width of ae/gae encoders"})
    d: int = field(default=8, metadata={"help": "second latent width of the ae encoder"})
    encoder_epochs: int = 20
    distance: PairwiseDistanceKind = PairwiseDistanceKind.EUCLIDEAN
    delta: float = field(default=1.0, metadata={"help": "clustering threshold multiplier"})
    gamma: float = 0.9
    beta: float = 0.01
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    hidden: int = 64
    cross_cap: int = 64
    max_lineage_depth: int = 6
    # None: min(16, ceil(sqrt(M)))
    bins: int | None = field(default=None, metadata={"help": "histogram bins for MI"})
    max_size: int | None = None  # None: twice the original column count
    si_raw_count: bool = False
    full_gradient_critic: bool = False
    carry_features: bool = False
    op_set: OperationSet = field(default_factory=OperationSet)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.episodes < 1 or self.steps < 1:
            raise ValueError("episodes and steps must be >= 1")


@dataclass
class AgentBundle:
    actor: DenseNet
    critic: DenseNet
    actor_opt: OptimState
    critic_opt: OptimState


@dataclass
class Transition:
    """One agent step: critic state, sampled action, reward, bootstrap state.

    For the cluster agents ``candidate_inputs`` holds the actor's per-candidate
    input rows at selection time (the actor's effective state under a variable
    action space); the operation agent leaves it None and feeds ``state``
    straight into its softmax actor.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    log_prob: float
    candidate_inputs: np.ndarray | None = None


def make_bundles(state_len: int, n_ops: int, cfg: TrainConfig,
                 rng: np.random.Generator) -> tuple[AgentBundle, AgentBundle, AgentBundle]:
    """Build (head, operation, tail) agents for a given encoder length."""
    length = state_len

    def bundle(actor_in: int, actor_out: int, head: str, critic_in: int) -> AgentBundle:
        return AgentBundle(
            actor=init_dense(actor_in, cfg.hidden, actor_out, head, rng),
            critic=init_dense(critic_in, cfg.hidden, 1, HEAD_SCALAR, rng),
            actor_opt=OptimState(lr=cfg.actor_lr),
            critic_opt=OptimState(lr=cfg.critic_lr),
        )

    head_agent = bundle(2 * length, 1, HEAD_SCALAR, length)
    op_agent = bundle(2 * length, n_ops, HEAD_SOFTMAX, 2 * length)
    tail_agent = bundle(3 * length + n_ops, 1, HEAD_SCALAR, 2 * length + n_ops)
    return head_agent, op_agent, tail_agent


def _candidate_rows(prefix: np.ndarray, candidates: Sequence[StateVector]) -> np.ndarray:
    return np.stack([np.concatenate([prefix, c.values]) for c in candidates])


def _actor_logits(actor: DenseNet, x: np.ndarray) -> np.ndarray:
    """One logit per action: the softmax head's outputs for a state, or the
    scalar head's score for each candidate row."""
    return net_logits(actor, x).reshape(-1)


def _sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float, np.ndarray]:
    probs = softmax(logits)
    action = int(rng.choice(probs.size, p=probs / probs.sum()))
    log_prob = float(log_softmax(logits)[action])
    return action, log_prob, probs


def select_head(
    agent: AgentBundle,
    s_f: StateVector,
    cluster_states: Sequence[StateVector],
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Score each candidate group given the space state; sample the softmax.
    Also returns the candidate rows the actor scored."""
    rows = _candidate_rows(s_f.values, cluster_states)
    return (*_sample(_actor_logits(agent.actor, rows), rng), rows)


def select_op(
    agent: AgentBundle,
    s_f: StateVector,
    s_head: StateVector,
    op_set: OperationSet,
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray]:
    """Sample an operation from the softmax over the fixed set."""
    state = concat_states([s_f, s_head]).values
    return _sample(_actor_logits(agent.actor, state), rng)


def select_tail(
    agent: AgentBundle,
    s_f: StateVector,
    s_head: StateVector,
    s_op: StateVector,
    cluster_states: Sequence[StateVector],
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Like select_head with the longer (space + head + op) state prefix."""
    prefix = concat_states([s_f, s_head, s_op]).values
    rows = _candidate_rows(prefix, cluster_states)
    return (*_sample(_actor_logits(agent.actor, rows), rng), rows)


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
    full_gradient_critic: bool = False,
) -> tuple[float, float, Grads, Grads]:
    """Batch losses and gradients for one agent.

    Returns (critic loss, actor ascent objective, actor gradients of the
    ascent objective, critic gradients of the descent loss).  The TD target
    r + gamma * V(S') is gradient-stopped unless ``full_gradient_critic``.
    """
    n = len(transitions)
    if n < 1:
        raise ValueError("need at least one transition")
    critic_grads = grads_zero(bundle.critic)
    actor_grads = grads_zero(bundle.actor)
    critic_loss = 0.0
    actor_objective = 0.0
    for t in transitions:
        v_s = forward(bundle.critic, t.state)
        v_next = forward(bundle.critic, t.next_state)
        delta = t.reward + gamma * v_next - v_s
        critic_loss += delta * delta / n
        g_s, _ = backward(bundle.critic, t.state, np.array([-2.0 * delta / n]))
        critic_grads = grads_add(critic_grads, g_s)
        if full_gradient_critic:
            g_n, _ = backward(bundle.critic, t.next_state,
                              np.array([2.0 * gamma * delta / n]))
            critic_grads = grads_add(critic_grads, g_n)
        actor_in = t.state if t.candidate_inputs is None else t.candidate_inputs
        logit_vec = _actor_logits(bundle.actor, actor_in)
        dlogits, entropy = _actor_logit_grad(softmax(logit_vec), t.action, delta, beta)
        g_a, _ = backward(bundle.actor, actor_in, dlogits / n)
        actor_grads = grads_add(actor_grads, g_a)
        actor_objective += (float(log_softmax(logit_vec)[t.action]) * delta
                            + beta * entropy) / n
    return float(critic_loss), float(actor_objective), actor_grads, critic_grads


def update_agents(
    bundles: tuple[AgentBundle, AgentBundle, AgentBundle],
    episode: tuple[Sequence[Transition], Sequence[Transition], Sequence[Transition]],
    cfg: TrainConfig,
) -> tuple[tuple[AgentBundle, AgentBundle, AgentBundle], dict[str, float]]:
    """One gradient step per agent on its episode batch; non-finite losses skip
    that agent's update with a warning."""
    updated = []
    report: dict[str, float] = {}
    for name, bundle, transitions in zip(("head", "op", "tail"), bundles, episode):
        if len(transitions) == 0:
            updated.append(bundle)
            continue
        critic_loss, actor_objective, actor_grads, critic_grads = advantage_and_losses(
            transitions, bundle, cfg.gamma, cfg.beta, cfg.full_gradient_critic
        )
        report[f"{name}_critic_loss"] = critic_loss
        report[f"{name}_actor_objective"] = actor_objective
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            logger.warning("non-finite loss for %s agent; skipping its update", name)
            updated.append(bundle)
            continue
        critic = sgd_step(bundle.critic, critic_grads, bundle.critic_opt)
        actor = sgd_step(bundle.actor, grads_scale(actor_grads, -1.0), bundle.actor_opt)
        updated.append(AgentBundle(actor, critic, bundle.actor_opt, bundle.critic_opt))
    return (updated[0], updated[1], updated[2]), report


class RandomPolicy:
    """The uniform-random control: every choice is one ``rng.integers`` draw
    over the candidates; it encodes no state and never learns."""

    n_transitions = 0

    def __init__(self, op_set: OperationSet, rng: np.random.Generator) -> None:
        self.n_ops = op_set.size
        self.rng = rng

    def choose_head(self, fs: FeatureSet, views: Sequence[FeatureSet]) -> int:
        return int(self.rng.integers(0, len(views)))

    def choose_op(self) -> int:
        return int(self.rng.integers(0, self.n_ops))

    def choose_tail(self, positions: Sequence[int]) -> int:
        return positions[int(self.rng.integers(0, len(positions)))]

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        pass

    def end_episode(self) -> dict[str, float]:
        return {}


class ActorCriticPolicy:
    """The three cascading actor-critic agents.  Each step encodes the space
    and its groups, samples the head, the operation and the tail from the
    agents' softmaxes, and records one transition per choice; each episode
    ends with one update of every agent on its transitions."""

    def __init__(self, cfg: TrainConfig, m_original: int, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.rng = rng
        self.encoder = StateEncoder(
            EncoderConfig(kind=cfg.encoder, k=cfg.k, d=cfg.d, epochs=cfg.encoder_epochs,
                          seed=derive_seed(cfg.seed, "encoder"), raw_count=cfg.si_raw_count),
            m_original=m_original,
        )
        init_rng = np.random.default_rng(derive_seed(cfg.seed, "agent-init"))
        self.bundles = make_bundles(self.encoder.length, cfg.op_set.size, cfg, init_rng)
        self.batches: tuple[list[Transition], list[Transition], list[Transition]] = ([], [], [])
        self.n_transitions = 0

    def choose_head(self, fs: FeatureSet, views: Sequence[FeatureSet]) -> int:
        # the step's states and choices, read by its later calls
        self._s_f = self.encoder.encode(fs)
        self._groups = [self.encoder.encode(v) for v in views]
        self._head, self._logp_head, _, self._head_rows = select_head(
            self.bundles[0], self._s_f, self._groups, self.rng)
        return self._head

    def choose_op(self) -> int:
        op_set = self.cfg.op_set
        self._op, self._logp_op, _ = select_op(self.bundles[1], self._s_f,
                                               self._groups[self._head], op_set, self.rng)
        self._s_op = state_op(op_set.ops[self._op], op_set)
        return self._op

    def choose_tail(self, positions: Sequence[int]) -> int:
        tail_states = [self._groups[i] for i in positions]
        pos, logp, _, rows = select_tail(self.bundles[2], self._s_f, self._groups[self._head],
                                         self._s_op, tail_states, self.rng)
        self._tail = (pos, logp, rows)
        return positions[pos]

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        """Record the step's transitions, bootstrapping from the new space."""
        s_f = self._s_f.values
        s_next = self.encoder.encode(fs_next).values
        s_head = self._groups[self._head].values
        batch_head, batch_op, batch_tail = self.batches
        batch_head.append(Transition(s_f, self._head, r_head, s_next, self._logp_head,
                                     self._head_rows))
        prefix_op = np.concatenate([s_f, s_head])
        prefix_op_next = np.concatenate([s_next, s_head])
        batch_op.append(Transition(prefix_op, self._op, r_op, prefix_op_next, self._logp_op))
        pos, logp, tail_rows = self._tail
        prefix_tail = np.concatenate([prefix_op, self._s_op.values])
        prefix_tail_next = np.concatenate([prefix_op_next, self._s_op.values])
        batch_tail.append(Transition(prefix_tail, pos, r_tail, prefix_tail_next, logp,
                                     tail_rows))
        self.n_transitions += 3

    def end_episode(self) -> dict[str, float]:
        """Update the agents on the episode's transitions; returns the losses."""
        self.bundles, losses = update_agents(self.bundles, self.batches, self.cfg)
        self.batches = ([], [], [])
        return losses
