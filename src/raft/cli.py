"""Command-line orchestrator: the outer search loop, artifacts, and ablations.

``raft run`` performs the full loop: cluster the columns, encode states, let
the three agents pick head group / operation / tail group, generate features,
collect rewards, and update the agents after each episode.  ``--bench`` runs
the uniform-random control (no learning) under an identical budget.  Output
files are byte-identical across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    TrainConfig,
    Transition,
    compute_rewards,
    make_bundles,
    select_head,
    select_op,
    select_tail,
    update_agents,
)
from .clustering import adaptive_cluster, cluster_columns
from .dataset import (
    DatasetError,
    FeatureSet,
    TaskKind,
    default_bins,
    load_csv,
    render,
    split_train_valid,
    write_csv,
)
from .evaluator import (
    ForestConfig,
    MetricKind,
    default_metric,
    downstream_score,
    feature_importances,
    fit_forest,
)
from .info_metrics import MICache, PairwiseDistanceKind, content_hash, feature_set_quality
from .neural_core import NumericError, derive_seed
from .state_repr import EncoderConfig, EncoderKind, StateEncoder, state_op
from .transform import OperationSet, generation_step

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad flags or config file (CLI exit code 2)."""


@dataclass
class RunConfig:
    input_path: str = ""
    target: str = ""
    out_dir: str = ""
    task: TaskKind | None = None  # None: infer from the target column
    metric: MetricKind | None = None  # None: task default
    impute: str | None = None
    bench: bool = False
    report: bool = True
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass
class TraceRow:
    episode: int
    step: int
    head: int
    op: str
    tail: int
    r_head: float
    r_op: float
    r_tail: float
    u: float
    p_a: float
    n_features: int


@dataclass
class RunResult:
    best_fs: FeatureSet
    best_score: float
    best_u: float
    baseline_score: float
    baseline_u: float
    metric: MetricKind
    task: TaskKind
    trace: list[TraceRow]
    episode_best: list[float]
    n_transitions: int
    wall_time: float
    split_seed: int
    forest_seed: int
    bins: int
    max_size: int


class EvalContext:
    """Run-wide caches for the quality score and the downstream score, keyed by
    feature-matrix content (one fixed split seed keeps scores comparable)."""

    def __init__(self, metric: MetricKind, split_seed: int, forest_cfg: ForestConfig,
                 bins: int, cache: MICache) -> None:
        self.metric = metric
        self.split_seed = split_seed
        self.forest_cfg = forest_cfg
        self.bins = bins
        self.cache = cache
        self._scores: dict[bytes, float] = {}
        self._quality: dict[bytes, float] = {}

    def score(self, fs: FeatureSet) -> float:
        key = content_hash(fs.values)
        if key not in self._scores:
            self._scores[key] = downstream_score(fs, self.split_seed, self.metric,
                                                 self.forest_cfg)
        return self._scores[key]

    def quality(self, fs: FeatureSet) -> float:
        key = content_hash(fs.values)
        if key not in self._quality:
            self._quality[key] = feature_set_quality(fs, self.bins, self.cache)
        return self._quality[key]


def run_search(cfg: RunConfig) -> RunResult:
    started = time.perf_counter()
    train = cfg.train
    fs0 = load_csv(cfg.input_path, cfg.target, task=cfg.task, impute=cfg.impute)
    task = fs0.target.kind
    metric = cfg.metric if cfg.metric is not None else default_metric(task)
    if metric.task is not task:
        raise ConfigError(f"metric {metric.value} incompatible with a {task.value} target")
    bins = train.bins if train.bins is not None else default_bins(fs0.n_rows)
    max_size = train.max_size if train.max_size is not None else 2 * fs0.n_cols

    mi_cache = MICache()
    encoder = StateEncoder(
        EncoderConfig(kind=train.encoder, k=train.k, d=train.d, epochs=train.encoder_epochs,
                      seed=derive_seed(train.seed, "encoder"), raw_count=train.si_raw_count),
        m_original=fs0.n_rows,
    )
    split_seed = derive_seed(train.seed, "split")
    forest_seed = derive_seed(train.seed, "forest")
    evalctx = EvalContext(metric, split_seed, ForestConfig(seed=forest_seed), bins, mi_cache)

    init_rng = np.random.default_rng(derive_seed(train.seed, "agent-init"))
    action_rng = np.random.default_rng(derive_seed(train.seed, "actions"))
    bundles = make_bundles(encoder.length, train.op_set.size, train, init_rng)

    baseline_score = evalctx.score(fs0)
    baseline_u = evalctx.quality(fs0)

    best_fs = fs0
    best_score = -math.inf
    best_u = math.nan
    trace: list[TraceRow] = []
    episode_best: list[float] = []
    n_transitions = 0

    fs = fs0
    for episode in range(train.episodes):
        if not train.carry_features:
            fs = fs0
        batch_head: list[Transition] = []
        batch_op: list[Transition] = []
        batch_tail: list[Transition] = []
        ep_best = -math.inf
        for step in range(train.steps):
            clusters = adaptive_cluster(fs, train.distance, train.delta, bins, mi_cache,
                                        generation=step)
            views = [cluster_columns(fs, g) for g in clusters.groups]
            s_f = encoder.encode(fs)
            cluster_states = [encoder.encode(v) for v in views]

            if cfg.bench:
                head_idx = int(action_rng.integers(0, len(clusters)))
                logp_head = -math.log(len(clusters))
            else:
                head_idx, logp_head, _ = select_head(bundles[0], s_f, cluster_states,
                                                     action_rng)
            s_head = cluster_states[head_idx]

            if cfg.bench:
                op_idx = int(action_rng.integers(0, train.op_set.size))
                logp_op = -math.log(train.op_set.size)
            else:
                op_idx, logp_op, _ = select_op(bundles[1], s_f, s_head, train.op_set,
                                               action_rng)
            op = train.op_set.ops[op_idx]
            s_op = state_op(op, train.op_set)

            unary = train.op_set.is_unary(op)
            tail_positions = [i for i in range(len(clusters)) if i != head_idx]
            if not tail_positions:
                tail_positions = [head_idx]  # single-group fallback: self-cross
            tail_idx = -1
            logp_tail = 0.0
            if not (unary and train.skip_tail_on_unary):
                tail_states = [cluster_states[i] for i in tail_positions]
                if cfg.bench:
                    pos = int(action_rng.integers(0, len(tail_positions)))
                    logp_tail = -math.log(len(tail_positions))
                else:
                    pos, logp_tail, _ = select_tail(bundles[2], s_f, s_head, s_op,
                                                    tail_states, action_rng)
                tail_idx = tail_positions[pos]
                tail_pos = pos

            head_group = clusters.groups[head_idx]
            tail_group = clusters.groups[tail_idx] if tail_idx >= 0 else None
            fs_next, _ = generation_step(
                fs, head_group, op, tail_group, train.op_set, max_size,
                cap=train.cross_cap, bins=bins, cache=mi_cache,
                max_depth=train.max_lineage_depth, iteration=step,
            )

            r_head, r_op, r_tail = compute_rewards(fs, fs_next, views[head_idx],
                                                   evalctx.quality, evalctx.score)
            p_new = evalctx.score(fs_next)
            ep_best = max(ep_best, p_new)
            if p_new > best_score:
                best_score = p_new
                best_fs = fs_next
                best_u = evalctx.quality(fs_next)

            trace.append(TraceRow(episode, step, head_idx, op, tail_idx,
                                  r_head, r_op, r_tail, evalctx.quality(fs_next), p_new,
                                  fs_next.n_cols))

            if not cfg.bench:
                s_f_next = encoder.encode(fs_next)
                prefix_op = np.concatenate([s_f.values, s_head.values])
                prefix_op_next = np.concatenate([s_f_next.values, s_head.values])
                head_rows = np.stack([np.concatenate([s_f.values, c.values])
                                      for c in cluster_states])
                batch_head.append(Transition(s_f.values, head_idx, r_head,
                                             s_f_next.values, logp_head, head_rows))
                batch_op.append(Transition(prefix_op, op_idx, r_op, prefix_op_next,
                                           logp_op, None))
                if tail_idx >= 0:
                    prefix_tail = np.concatenate([prefix_op, s_op.values])
                    prefix_tail_next = np.concatenate([prefix_op_next, s_op.values])
                    tail_rows = np.stack([np.concatenate([prefix_tail, c.values])
                                          for c in tail_states])
                    batch_tail.append(Transition(prefix_tail, tail_pos, r_tail,
                                                 prefix_tail_next, logp_tail, tail_rows))
                n_transitions = n_transitions + 3 - int(tail_idx < 0)

            fs = fs_next
        episode_best.append(ep_best)
        if not cfg.bench:
            bundles, losses = update_agents(bundles, (batch_head, batch_op, batch_tail),
                                            train)
            logger.info("episode %d: best=%s losses=%s", episode, repr(ep_best), losses)

    return RunResult(
        best_fs=best_fs, best_score=best_score, best_u=best_u,
        baseline_score=baseline_score, baseline_u=baseline_u,
        metric=metric, task=task, trace=trace, episode_best=episode_best,
        n_transitions=n_transitions, wall_time=time.perf_counter() - started,
        split_seed=split_seed, forest_seed=forest_seed, bins=bins, max_size=max_size,
    )


# ---------------------------------------------------------------------------
# Output artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return "none"
    if isinstance(value, (TaskKind, MetricKind, EncoderKind, PairwiseDistanceKind)):
        return value.value
    return str(value)


def write_trace(trace: list[TraceRow], path: Path) -> None:
    lines = ["episode\tstep\thead\top\ttail\tr_head\tr_op\tr_tail\tu\tp_a\tn_features"]
    for row in trace:
        lines.append("\t".join([
            str(row.episode), str(row.step), str(row.head), row.op, str(row.tail),
            repr(float(row.r_head)), repr(float(row.r_op)), repr(float(row.r_tail)),
            repr(float(row.u)), repr(float(row.p_a)), str(row.n_features),
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _lineage_prefix(expr) -> str:
    from .dataset import Binary, Ident, Unary

    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Unary):
        return f"({expr.op} {_lineage_prefix(expr.child)})"
    return f"({expr.op} {_lineage_prefix(expr.left)} {_lineage_prefix(expr.right)})"


def emit_report(result: RunResult, fs_star: FeatureSet, path: Path) -> None:
    """Per-feature lineage and normalized importance share, plus the before /
    after scores.  Shares come from forest impurity decreases and sum to 1."""
    train, _ = split_train_valid(fs_star, 0.8, result.split_seed)
    forest = fit_forest(train, ForestConfig(seed=result.forest_seed))
    shares = feature_importances(forest)
    lines = [
        "feature space report",
        f"task = {result.task.value}",
        f"metric = {result.metric.value}",
        f"original_score = {repr(float(result.baseline_score))}",
        f"best_score = {repr(float(result.best_score))}",
        f"original_quality = {repr(float(result.baseline_u))}",
        f"best_quality = {repr(float(result.best_u))}",
        f"n_features = {fs_star.n_cols}",
        "",
        "name\tlineage_tree\timportance_share\torigin",
    ]
    for meta, share in zip(fs_star.columns, shares):
        origin = "original" if meta.is_original else "generated"
        lines.append(f"{meta.name}\t{_lineage_prefix(meta.lineage)}\t{repr(float(share))}\t{origin}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config_echo(cfg: RunConfig, result: RunResult, path: Path) -> None:
    # `out` is left out: the echo lives there, and same-seed runs into
    # different directories must write identical files.
    train = cfg.train
    pairs = [
        ("input", cfg.input_path), ("target", cfg.target),
        ("task", result.task), ("metric", result.metric), ("impute", cfg.impute),
        ("bench", cfg.bench), ("report", cfg.report),
        ("episodes", train.episodes), ("steps", train.steps), ("seed", train.seed),
        ("encoder", train.encoder), ("k", train.k), ("d", train.d),
        ("encoder_epochs", train.encoder_epochs),
        ("distance", train.distance), ("delta", train.delta),
        ("gamma", train.gamma), ("beta", train.beta),
        ("actor_lr", train.actor_lr), ("critic_lr", train.critic_lr),
        ("hidden", train.hidden), ("clip_norm", train.clip_norm),
        ("cross_cap", train.cross_cap), ("max_lineage_depth", train.max_lineage_depth),
        ("bins", result.bins), ("max_size", result.max_size),
        ("si_raw_count", train.si_raw_count),
        ("full_gradient_critic", train.full_gradient_critic),
        ("skip_tail_on_unary", train.skip_tail_on_unary),
        ("carry_features", train.carry_features),
        ("unary_ops", ",".join(train.op_set.unary)),
        ("binary_ops", ",".join(train.op_set.binary)),
        ("split_seed", result.split_seed), ("forest_seed", result.forest_seed),
    ]
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in pairs), encoding="utf-8")


def write_outputs(result: RunResult, cfg: RunConfig) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "transformed": out / "transformed.csv",
        "trace": out / "trace.tsv",
        "report": out / "report.txt",
        "config": out / "config.echo",
    }
    write_csv(result.best_fs, paths["transformed"])
    write_trace(result.trace, paths["trace"])
    if cfg.report:
        emit_report(result, result.best_fs, paths["report"])
    write_config_echo(cfg, result, paths["config"])
    return paths


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

_TASK_NAMES = {"auto": None, "clf": TaskKind.CLASSIFICATION, "reg": TaskKind.REGRESSION}

_FILE_KEYS: dict[str, type] = {
    "input": str, "target": str, "out": str, "task": str, "metric": str,
    "impute": str, "distance": str, "encoder": str,
    "episodes": int, "steps": int, "seed": int, "k": int, "d": int,
    "encoder_epochs": int, "bins": int, "max_size": int, "hidden": int,
    "cross_cap": int, "max_lineage_depth": int,
    "delta": float, "gamma": float, "beta": float, "actor_lr": float,
    "critic_lr": float, "clip_norm": float,
    "bench": bool, "report": bool, "si_raw_count": bool,
    "full_gradient_critic": bool, "skip_tail_on_unary": bool,
    "carry_features": bool,
}


def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values: dict[str, object] = {}
    text = Path(path)
    if not text.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(text.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _FILE_KEYS[key]
        try:
            if typ is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(value)
                values[key] = value.lower() in ("true", "1")
            else:
                values[key] = typ(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad {typ.__name__} value {value!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raft",
        description="Reconstruct a tabular feature space with cascading "
                    "actor-critic agents and emit a traceable lineage report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the feature-space search")
    run.add_argument("--input", help="input CSV path")
    run.add_argument("--target", help="target column name")
    run.add_argument("--out", help="output directory")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--task", choices=sorted(_TASK_NAMES), help="auto infers from the target")
    run.add_argument("--metric", choices=[m.value for m in MetricKind])
    run.add_argument("--impute", choices=["median"], help="allow and impute missing cells")
    run.add_argument("--distance", choices=[k.value for k in PairwiseDistanceKind])
    run.add_argument("--encoder", choices=[k.value for k in EncoderKind])
    run.add_argument("--episodes", type=int)
    run.add_argument("--steps", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--k", type=int, help="latent width of ae/gae encoders")
    run.add_argument("--d", type=int, help="second latent width of the ae encoder")
    run.add_argument("--encoder-epochs", type=int, dest="encoder_epochs")
    run.add_argument("--delta", type=float, help="clustering threshold multiplier")
    run.add_argument("--bins", type=int, help="histogram bins for MI")
    run.add_argument("--max-size", type=int, dest="max_size")
    run.add_argument("--gamma", type=float)
    run.add_argument("--beta", type=float)
    run.add_argument("--actor-lr", type=float, dest="actor_lr")
    run.add_argument("--critic-lr", type=float, dest="critic_lr")
    run.add_argument("--hidden", type=int)
    run.add_argument("--cross-cap", type=int, dest="cross_cap")
    run.add_argument("--max-lineage-depth", type=int, dest="max_lineage_depth")
    run.add_argument("--bench", action="store_true", default=None,
                     help="uniform-random control run (no learning)")
    run.add_argument("--no-report", action="store_true", default=None)
    run.add_argument("--si-raw-count", action="store_true", default=None,
                     dest="si_raw_count")
    run.add_argument("--full-gradient-critic", action="store_true", default=None,
                     dest="full_gradient_critic")
    run.add_argument("--skip-tail-on-unary", action="store_true", default=None,
                     dest="skip_tail_on_unary")
    run.add_argument("--carry-features", action="store_true", default=None,
                     dest="carry_features")
    return parser


def parse_config(argv=None) -> RunConfig:
    """Precedence: CLI flag > config file value > built-in default."""
    args = build_parser().parse_args(argv)
    merged: dict[str, object] = {}
    if args.config:
        merged.update(_parse_config_file(args.config))
    for key in _FILE_KEYS:
        if key == "report":
            cli_value = False if args.no_report else None
        else:
            cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value

    for required in ("input", "target", "out"):
        if required not in merged:
            raise ConfigError(f"missing required option --{required}")

    train_kwargs: dict[str, object] = {}
    for key in ("episodes", "steps", "seed", "k", "d", "encoder_epochs", "delta",
                "bins", "max_size", "gamma", "beta", "actor_lr", "critic_lr",
                "hidden", "cross_cap", "max_lineage_depth", "si_raw_count",
                "full_gradient_critic", "skip_tail_on_unary", "carry_features"):
        if key in merged:
            train_kwargs[key] = merged[key]
    try:
        if "distance" in merged:
            train_kwargs["distance"] = PairwiseDistanceKind(str(merged["distance"]))
        if "encoder" in merged:
            train_kwargs["encoder"] = EncoderKind.parse(str(merged["encoder"]))
        train = TrainConfig(**train_kwargs)
        task_name = str(merged.get("task", "auto"))
        if task_name not in _TASK_NAMES:
            raise ConfigError(f"unknown task {task_name!r}")
        metric = MetricKind.parse(str(merged["metric"])) if "metric" in merged else None
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        input_path=str(merged["input"]),
        target=str(merged["target"]),
        out_dir=str(merged["out"]),
        task=_TASK_NAMES[task_name],
        metric=metric,
        impute=str(merged["impute"]) if "impute" in merged else None,
        bench=bool(merged.get("bench", False)),
        report=bool(merged.get("report", True)),
        train=train,
    )


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_search(cfg)
        paths = write_outputs(result, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    print(f"{result.metric.value}: original={result.baseline_score:.6f} "
          f"best={result.best_score:.6f} features={result.best_fs.n_cols} "
          f"wall={result.wall_time:.1f}s")
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
