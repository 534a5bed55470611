"""Cascading actor-critic agents: head group, operation, tail group, and the
uniform-random control that makes the same choices without learning.

States are the encoder's 1-D float64 arrays.  Each agent samples the softmax
of its actor's logits.  The two cluster agents score a variable number of
candidates, one logit per row concat(state prefix, candidate state); the
operation agent's actor gives one logit per operation; a critic's one output
is its value.  Updates happen once per episode on that episode's transition
batch: the critic descends the squared TD error, with the target
r + gamma * V(S') held fixed, and the actor ascends
log pi(a|S) * advantage + beta * entropy (the update negates the returned
ascent objective).  Gradients are flat arrays in the layout of the nets'
``params``; each agent's two nets take one ``sgd_step`` per episode.

The search loop drives a policy through the same calls each step:
``choose_head``, ``choose_op``, ``choose_tail``, ``observe`` and, after the last
step of an episode, ``end_episode``.
``ActorCriticPolicy`` is the learned agent, which builds each step's prefixes
once; ``RandomPolicy`` is the ``--bench`` control, which draws each choice
uniformly and never encodes a state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import DEFAULT_MAX_DEPTH, FeatureSet
from .info_metrics import PairwiseDistanceKind
from .neural_core import (
    DenseNet,
    backward,
    derive_seed,
    forward,
    init_dense,
    log_softmax,
    sgd_step,
    softmax,
)
from .state_repr import EncoderKind, StateEncoder, state_op
from .transform import DEFAULT_CROSS_CAP, OperationSet

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Search and optimization knobs; defaults target desk-scale runs.

    Every field but ``op_set`` is also a ``raft run`` flag (``--max-size`` for
    ``max_size``) and a config-file key, and is echoed to ``config.echo`` in
    this order; a field's ``help`` metadata is its flag's help text.  A
    number outside its range raises ValueError (the CLI's exit 2).
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
    cross_cap: int = DEFAULT_CROSS_CAP
    max_lineage_depth: int = DEFAULT_MAX_DEPTH
    # None: min(16, ceil(sqrt(M)))
    bins: int | None = field(default=None, metadata={"help": "histogram bins for MI"})
    max_size: int | None = None  # None: twice the original column count
    carry_features: bool = False
    op_set: OperationSet = field(default_factory=OperationSet)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        lower = {"episodes": 1, "steps": 1, "k": 1, "d": 1, "hidden": 1, "cross_cap": 1,
                 "bins": 1, "max_size": 1, "encoder_epochs": 0, "beta": 0.0,
                 "max_lineage_depth": 2}  # an original column has depth 1
        for name, low in lower.items():
            value = getattr(self, name)
            if value is not None and not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("delta", "actor_lr", "critic_lr"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class AgentBundle:
    actor: DenseNet
    critic: DenseNet


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
    candidate_inputs: np.ndarray | None = None


def make_bundles(state_len: int, n_ops: int, cfg: TrainConfig,
                 rng: np.random.Generator) -> tuple[AgentBundle, AgentBundle, AgentBundle]:
    """Build (head, operation, tail) agents for a given encoder length."""
    def bundle(actor_in: int, actor_out: int, critic_in: int) -> AgentBundle:
        return AgentBundle(actor=init_dense(actor_in, cfg.hidden, actor_out, rng),
                           critic=init_dense(critic_in, cfg.hidden, 1, rng))

    head_agent = bundle(2 * state_len, 1, state_len)
    op_agent = bundle(2 * state_len, n_ops, 2 * state_len)
    tail_agent = bundle(3 * state_len + n_ops, 1, 2 * state_len + n_ops)
    return head_agent, op_agent, tail_agent


def _sample(actor: DenseNet, x: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """An action drawn from the softmax of the actor's logits for ``x`` (a
    state's outputs, or each candidate row's one output), and that softmax."""
    probs = softmax(forward(actor, x).reshape(-1))
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
    """Sample an operation from the softmax over the fixed set, given the
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
    gradient-stopped.
    """
    n = len(transitions)
    if n < 1:
        raise ValueError("need at least one transition")
    critic_grads = np.zeros_like(bundle.critic.params)
    actor_grads = np.zeros_like(bundle.actor.params)
    critic_loss = 0.0
    actor_objective = 0.0
    for t in transitions:
        v_s = float(forward(bundle.critic, t.state)[0])
        v_next = float(forward(bundle.critic, t.next_state)[0])
        delta = t.reward + gamma * v_next - v_s
        critic_loss += delta * delta / n
        critic_grads += backward(bundle.critic, t.state, np.array([-2.0 * delta / n]))[0]
        actor_in = t.state if t.candidate_inputs is None else t.candidate_inputs
        logit_vec = forward(bundle.actor, actor_in).reshape(-1)
        dlogits, entropy = _actor_logit_grad(softmax(logit_vec), t.action, delta, beta)
        actor_grads += backward(bundle.actor, actor_in, dlogits / n)[0]
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
            transitions, bundle, cfg.gamma, cfg.beta)
        report[f"{name}_critic_loss"] = critic_loss
        report[f"{name}_actor_objective"] = actor_objective
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            logger.warning("non-finite loss for %s agent; skipping its update", name)
            updated.append(bundle)
            continue
        critic = sgd_step(bundle.critic, critic_grads, cfg.critic_lr)
        actor = sgd_step(bundle.actor, -actor_grads, cfg.actor_lr)
        updated.append(AgentBundle(actor, critic))
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
        self.encoder = StateEncoder(cfg.encoder, cfg.k, cfg.d, cfg.encoder_epochs,
                                    derive_seed(cfg.seed, "encoder"), m_original)
        init_rng = np.random.default_rng(derive_seed(cfg.seed, "agent-init"))
        self.bundles = make_bundles(self.encoder.length, cfg.op_set.size, cfg, init_rng)
        self.batches: tuple[list[Transition], list[Transition], list[Transition]] = ([], [], [])
        self.n_transitions = 0

    def choose_head(self, fs: FeatureSet, views: Sequence[FeatureSet]) -> int:
        # the step's states, prefixes and choices, read by its later calls
        self._s_f = self.encoder.encode(fs)
        self._groups = [self.encoder.encode(v) for v in views]
        self._head, _, self._head_rows = select_head(self.bundles[0], self._s_f,
                                                     self._groups, self.rng)
        return self._head

    def choose_op(self) -> int:
        op_set = self.cfg.op_set
        self._prefix_op = np.concatenate([self._s_f, self._groups[self._head]])
        self._op, _ = select_op(self.bundles[1], self._prefix_op, self.rng)
        self._s_op = state_op(op_set.ops[self._op], op_set)
        return self._op

    def choose_tail(self, positions: Sequence[int]) -> int:
        self._prefix_tail = np.concatenate([self._prefix_op, self._s_op])
        tail_states = [self._groups[i] for i in positions]
        pos, _, rows = select_tail(self.bundles[2], self._prefix_tail, tail_states, self.rng)
        self._tail = (pos, rows)
        return positions[pos]

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        """Record the step's transitions, bootstrapping from the new space."""
        s_next = self.encoder.encode(fs_next)
        batch_head, batch_op, batch_tail = self.batches
        batch_head.append(Transition(self._s_f, self._head, r_head, s_next, self._head_rows))
        prefix_op_next = np.concatenate([s_next, self._groups[self._head]])
        batch_op.append(Transition(self._prefix_op, self._op, r_op, prefix_op_next))
        pos, tail_rows = self._tail
        prefix_tail_next = np.concatenate([prefix_op_next, self._s_op])
        batch_tail.append(Transition(self._prefix_tail, pos, r_tail, prefix_tail_next,
                                     tail_rows))
        self.n_transitions += 3

    def end_episode(self) -> dict[str, float]:
        """Update the agents on the episode's transitions; returns the losses."""
        self.bundles, losses = update_agents(self.bundles, self.batches, self.cfg)
        self.batches = ([], [], [])
        return losses
