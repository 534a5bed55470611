"""Command-line orchestrator: the outer search loop, artifacts, and ablations.

``raft run`` performs the full loop: cluster the columns, let a policy pick
the head group, the operation and the tail group, generate features, score
them, and hand the rewards back to the policy.  The policy is the learned
cascade of actor-critic agents (``agents.ActorCriticPolicy``) or, with
``--bench``, the uniform-random control (``agents.RandomPolicy``), which runs
under the same budget and neither encodes states nor learns.  Each config key
is declared once: a ``TrainConfig`` field or an entry of ``_RUN_KEYS``; the
flags, the config-file keys and ``config.echo`` are derived from them.  Output
files are byte-identical across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .agents import ActorCriticPolicy, RandomPolicy, TrainConfig, compute_rewards
from .clustering import adaptive_cluster, cluster_columns
from .dataset import (
    DatasetError,
    FeatureSet,
    TaskKind,
    default_bins,
    load_csv,
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
from .info_metrics import MICache, feature_set_quality
from .neural_core import NumericError, derive_seed
from .transform import generation_step

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
                 cache: MICache) -> None:
        self.metric = metric
        self.split_seed = split_seed
        self.forest_cfg = forest_cfg
        self.cache = cache
        self._scores: dict[bytes, float] = {}
        self._quality: dict[bytes, float] = {}

    def score(self, fs: FeatureSet) -> float:
        """Downstream score; raises NumericError when it is not finite (an
        overflowing target, say), which no later step could repair."""
        key = fs.key
        if key not in self._scores:
            score = downstream_score(fs, self.split_seed, self.metric, self.forest_cfg)
            if not math.isfinite(score):
                raise NumericError(f"{self.metric.value} score is {score!r} on "
                                   f"{fs.n_rows} rows x {fs.n_cols} columns")
            self._scores[key] = score
        return self._scores[key]

    def quality(self, fs: FeatureSet) -> float:
        key = fs.key
        if key not in self._quality:
            self._quality[key] = feature_set_quality(fs, self.cache)
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

    mi_cache = MICache(bins)
    split_seed = derive_seed(train.seed, "split")
    forest_seed = derive_seed(train.seed, "forest")
    evalctx = EvalContext(metric, split_seed, ForestConfig(seed=forest_seed), mi_cache)

    action_rng = np.random.default_rng(derive_seed(train.seed, "actions"))
    policy = (RandomPolicy(train.op_set, action_rng) if cfg.bench
              else ActorCriticPolicy(train, fs0.n_rows, action_rng))

    baseline_score = evalctx.score(fs0)
    baseline_u = evalctx.quality(fs0)

    best_fs = fs0
    best_score = -math.inf
    best_u = math.nan
    trace: list[TraceRow] = []

    fs = fs0
    for episode in range(train.episodes):
        if not train.carry_features:
            fs = fs0
        ep_best = -math.inf
        for step in range(train.steps):
            clusters = adaptive_cluster(fs, train.distance, train.delta, mi_cache)
            views = [cluster_columns(fs, g) for g in clusters.groups]
            head_idx = policy.choose_head(fs, views)
            op = train.op_set.ops[policy.choose_op()]

            tail_positions = [i for i in range(len(clusters)) if i != head_idx]
            # single-group fallback: self-cross
            tail_idx = policy.choose_tail(tail_positions or [head_idx])

            fs_next, _ = generation_step(
                fs, clusters.groups[head_idx], op, clusters.groups[tail_idx], train.op_set,
                max_size, mi_cache, cap=train.cross_cap, max_depth=train.max_lineage_depth,
            )

            r_head, r_op, r_tail = compute_rewards(fs, fs_next, views[head_idx],
                                                   evalctx.quality, evalctx.score)
            p_new = evalctx.score(fs_next)
            ep_best = max(ep_best, p_new)
            if p_new > best_score:
                best_score = p_new
                best_fs = fs_next
                best_u = r_tail  # the tail reward is the new space's quality

            trace.append(TraceRow(episode, step, head_idx, op, tail_idx,
                                  r_head, r_op, r_tail, r_tail, p_new, fs_next.n_cols))
            policy.observe(fs_next, r_head, r_op, r_tail)
            fs = fs_next
        losses = policy.end_episode()
        logger.info("episode %d: best=%s losses=%s", episode, repr(ep_best), losses)

    return RunResult(
        best_fs=best_fs, best_score=best_score, best_u=best_u,
        baseline_score=baseline_score, baseline_u=baseline_u,
        metric=metric, task=task, trace=trace,
        n_transitions=policy.n_transitions, wall_time=time.perf_counter() - started,
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
    if isinstance(value, Enum):
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


def emit_report(result: RunResult, fs_star: FeatureSet, path: Path) -> None:
    """Per-feature normalized importance share, plus the before / after
    scores.  A feature's name is its rendered lineage (``parse_lineage`` gives
    the tree back); shares come from forest impurity decreases and sum to 1."""
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
        "name\timportance_share\torigin",
    ]
    for meta, share in zip(fs_star.columns, shares):
        origin = "original" if meta.is_original else "generated"
        lines.append(f"{meta.name}\t{repr(float(share))}\t{origin}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config_echo(cfg: RunConfig, result: RunResult, path: Path) -> None:
    """Every config key with the value the run used (``bins``, ``max_size``,
    ``task`` and ``metric`` resolved), then the operation set and the seeds."""
    resolved = {"task": result.task, "metric": result.metric,
                "bins": result.bins, "max_size": result.max_size}
    # `out` is left out: the echo lives there, and same-seed runs into
    # different directories must write identical files.
    pairs = [(key, getattr(cfg, attr)) for key, (attr, _, _) in _RUN_KEYS.items()
             if key != "out"]
    pairs += [(key, getattr(cfg.train, key)) for key in _TRAIN_KEYS]
    pairs = [(key, resolved.get(key, value)) for key, value in pairs]
    pairs += [
        ("unary_ops", ",".join(cfg.train.op_set.unary)),
        ("binary_ops", ",".join(cfg.train.op_set.binary)),
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

# The RunConfig keys: the RunConfig attribute each one sets, its type in a
# config file and its flag's argparse keywords.  Every other key is a
# TrainConfig field (see _TRAIN_KEYS).
_RUN_KEYS: dict[str, tuple[str, type, dict]] = {
    "input": ("input_path", str, {"help": "input CSV path"}),
    "target": ("target", str, {"help": "target column name"}),
    "out": ("out_dir", str, {"help": "output directory"}),
    "task": ("task", str, {"choices": sorted(_TASK_NAMES), "help": "auto infers from the target"}),
    "metric": ("metric", str, {"choices": [m.value for m in MetricKind]}),
    "impute": ("impute", str, {"choices": ["median"], "help": "allow and impute missing cells"}),
    "bench": ("bench", bool, {"help": "uniform-random control run (no learning)"}),
    "report": ("report", bool, {}),
}


def _train_keys() -> dict[str, type]:
    """The scalar TrainConfig fields, in declaration order, with their value
    type (``int`` for ``int | None``)."""
    hints = typing.get_type_hints(TrainConfig)
    keys = {}
    for f in fields(TrainConfig):
        typ = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        if typ in (bool, int, float) or issubclass(typ, Enum):
            keys[f.name] = typ
    return keys


_TRAIN_KEYS = _train_keys()

# Config-file types; an enum value stays text until parse_config converts it.
_FILE_KEYS: dict[str, type] = {
    **{key: typ for key, (_, typ, _) in _RUN_KEYS.items()},
    **{key: str if issubclass(typ, Enum) else typ for key, typ in _TRAIN_KEYS.items()},
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


def _add_flag(parser: argparse.ArgumentParser, key: str, typ: type, default,
              **kwargs) -> None:
    """``--key-name``; a bool key is a switch away from its default, so a key
    that defaults to true has a ``--no-key-name`` flag."""
    flag = "--" + key.replace("_", "-")
    if typ is bool:
        parser.add_argument("--no-" + flag[2:] if default else flag, dest=key, default=None,
                            action="store_false" if default else "store_true", **kwargs)
    elif issubclass(typ, Enum):
        parser.add_argument(flag, dest=key, choices=[k.value for k in typ], **kwargs)
    else:
        parser.add_argument(flag, dest=key, type=typ, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raft",
        description="Reconstruct a tabular feature space with cascading "
                    "actor-critic agents and emit a traceable lineage report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the feature-space search")
    run.add_argument("--config", help="flat key = value config file")
    run_defaults = RunConfig()
    for key, (attr, typ, kwargs) in _RUN_KEYS.items():
        _add_flag(run, key, typ, getattr(run_defaults, attr), **kwargs)
    for f in fields(TrainConfig):
        if f.name in _TRAIN_KEYS:
            _add_flag(run, f.name, _TRAIN_KEYS[f.name], f.default, help=f.metadata.get("help"))
    return parser


def parse_config(argv=None) -> RunConfig:
    """Precedence: CLI flag > config file value > built-in default."""
    args = build_parser().parse_args(argv)
    merged: dict[str, object] = {}
    if args.config:
        merged.update(_parse_config_file(args.config))
    for key in _FILE_KEYS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)

    for required in ("input", "target", "out"):
        if required not in merged:
            raise ConfigError(f"missing required option --{required}")

    run_kwargs = {attr: merged[key] for key, (attr, _, _) in _RUN_KEYS.items() if key in merged}
    train_kwargs = {key: merged[key] for key in _TRAIN_KEYS if key in merged}
    try:
        for key, value in train_kwargs.items():
            typ = _TRAIN_KEYS[key]
            if issubclass(typ, Enum):  # an enum's own parse words its error
                train_kwargs[key] = getattr(typ, "parse", typ)(value)
        train = TrainConfig(**train_kwargs)
        task_name = run_kwargs.get("task", "auto")
        if task_name not in _TASK_NAMES:
            raise ConfigError(f"unknown task {task_name!r}")
        run_kwargs["task"] = _TASK_NAMES[task_name]
        if "metric" in run_kwargs:
            run_kwargs["metric"] = MetricKind.parse(run_kwargs["metric"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(**run_kwargs, train=train)


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
