"""Command-line orchestrator: the search core, its driver, artifacts and flags.

``search(fs0, train, policy, evalctx)`` is the core, the paper's loop over an
in-memory space: cluster the columns, let the policy pick the head group, the
operation and the tail group, generate features, score them, and hand the
rewards back to the policy.  It reads and writes no file.
``prepare(fs0, train, bench)`` builds what a search of ``fs0`` needs: the
task's metric, the bins, the seeds and the caches, and the policy (the learned
cascade, ``agents.ActorCriticPolicy``, or with ``bench`` the uniform-random
control, ``agents.RandomPolicy``).  ``run_search(cfg)`` is ``raft run``'s
driver: ``load_csv``, ``prepare`` and ``search``.  Each config key is declared
once, as a ``RunConfig`` or ``TrainConfig`` field; the flags, the config-file
keys and ``config.echo`` are derived from the fields.  One function reads a
key's text, from a flag or a file line alike, and its inverse writes it, so
``config.echo`` is a config file that replays its run.  Output files are
byte-identical across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
import typing
from dataclasses import Field, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .agents import ActorCriticPolicy, RandomPolicy, TrainConfig, compute_rewards
from .clustering import adaptive_cluster
from .dataset import (
    DatasetError,
    FeatureSet,
    NumericError,
    TaskKind,
    default_bins,
    load_csv,
    split_train_valid,
    write_csv,
)
from .evaluator import (
    ForestConfig,
    MetricKind,
    downstream_score,
    feature_importances,
    fit_forest,
    task_metric,
)
from .info_metrics import MICache, feature_set_quality
from .neural_core import derive_seed
from .transform import generation_step

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad flags or config file (CLI exit code 2)."""


@dataclass
class RunConfig:
    """``raft run``'s input, output and mode; every scalar field here and in
    ``TrainConfig`` is a config key, in this order.  A field's metadata gives
    its ``key`` when that is not its name, its ``names`` when its text is one of
    a few words, and its flag's ``help``."""

    input_path: str = field(default="", metadata={"key": "input", "help": "input CSV path"})
    target: str = field(default="", metadata={"help": "target column name"})
    out_dir: str = field(default="", metadata={"key": "out", "help": "output directory"})
    task: TaskKind | None = field(default=None, metadata={
        "names": {"auto": None, "clf": TaskKind.CLASSIFICATION, "reg": TaskKind.REGRESSION},
        "help": "auto infers from the target"})
    impute: str | None = field(default=None, metadata={
        "names": {"none": None, "median": "median"}, "help": "allow and impute missing cells"})
    bench: bool = field(default=False,
                        metadata={"help": "uniform-random control run (no learning)"})
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
    trace: list[TraceRow]
    split_seed: int
    forest_seed: int


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


def search(fs0: FeatureSet, train: TrainConfig, policy, evalctx: EvalContext) -> RunResult:
    """The episode/step loop over an in-memory space, driven by ``policy``'s
    ``choose``, ``observe`` and ``end_episode``; it touches no file.  The metric,
    seeds and bins are ``evalctx``'s; a space keeps at most twice ``fs0``'s width."""
    max_size = 2 * fs0.n_cols
    baseline_score = evalctx.score(fs0)
    baseline_u = evalctx.quality(fs0)

    # the input competes: a search that never beats it emits it
    best_fs, best_score, best_u = fs0, baseline_score, baseline_u
    trace: list[TraceRow] = []

    for episode in range(train.episodes):
        fs = fs0
        ep_best = -math.inf
        for step in range(train.steps):
            groups = adaptive_cluster(fs, evalctx.cache)
            views = [fs.take(g) for g in groups]  # the step's one view per group
            head_idx, op, tail_idx = policy.choose(fs, views)

            fs_next = generation_step(fs, views[head_idx], op, views[tail_idx], max_size,
                                      evalctx.cache)

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
        metric=evalctx.metric, trace=trace, split_seed=evalctx.split_seed,
        forest_seed=evalctx.forest_cfg.seed,
    )


def prepare(fs0: FeatureSet, train: TrainConfig,
            bench: bool = False) -> tuple[RandomPolicy | ActorCriticPolicy, EvalContext]:
    """A search's policy and caches: the target's task metric, the MI bins, and
    ``train.seed``'s split, forest and action streams; ``bench`` gives the
    uniform-random control."""
    if fs0.target.lone_class:
        logger.warning("a class has a single sample; falling back to unstratified split")
    evalctx = EvalContext(task_metric(fs0.target.kind), derive_seed(train.seed, "split"),
                          ForestConfig(seed=derive_seed(train.seed, "forest")),
                          MICache(default_bins(fs0.n_rows)))
    action_rng = np.random.default_rng(derive_seed(train.seed, "actions"))
    policy = RandomPolicy(action_rng) if bench else ActorCriticPolicy(train, action_rng)
    return policy, evalctx


def run_search(cfg: RunConfig) -> RunResult:
    """``load_csv``, ``prepare`` and ``search``."""
    fs0 = load_csv(cfg.input_path, cfg.target, task=cfg.task, impute=cfg.impute)
    return search(fs0, cfg.train, *prepare(fs0, cfg.train, cfg.bench))


# ---------------------------------------------------------------------------
# Output artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_trace(trace: list[TraceRow], path: Path) -> None:
    """A header of the ``TraceRow`` fields, then one ``_fmt`` line per row."""
    lines = ["\t".join(f.name for f in fields(TraceRow))]
    lines += ["\t".join(_fmt(value) for value in vars(row).values()) for row in trace]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(result: RunResult, path: Path) -> None:
    """Per-feature normalized importance share of the best space, plus the
    before / after scores.  A feature's name is its rendered lineage (``parse_lineage``
    gives the tree back); shares come from forest impurity decreases and sum to 1."""
    train, _ = split_train_valid(result.best_fs, result.split_seed)
    forest = fit_forest(train, ForestConfig(seed=result.forest_seed))
    shares = feature_importances(forest)
    lines = [
        "feature space report",
        f"task = {result.metric.task.value}",
        f"metric = {result.metric.value}",
        f"original_score = {repr(float(result.baseline_score))}",
        f"best_score = {repr(float(result.best_score))}",
        f"original_quality = {repr(float(result.baseline_u))}",
        f"best_quality = {repr(float(result.best_u))}",
        f"n_features = {result.best_fs.n_cols}",
        "",
        "name\timportance_share\torigin",
    ]
    for meta, share in zip(result.best_fs.columns, shares):
        origin = "original" if meta.is_original else "generated"
        lines.append(f"{meta.name}\t{repr(float(share))}\t{origin}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config_echo(cfg: RunConfig, result: RunResult, path: Path) -> None:
    """A config file that replays the run: every key but ``out`` (same-seed runs
    into two directories write one echo) at the value the run used (``task``
    resolved), then the metric and the seeds as comments.  ``input`` is echoed
    as given: a relative path replays from the same working directory."""
    used = {key: getattr(cfg if owner is RunConfig else cfg.train, f.name)
            for key, (owner, f, _, _) in _KEYS.items() if key != "out"}
    used["task"] = result.metric.task
    lines = [f"{key} = {_text(key, value)}" for key, value in used.items()]
    lines += [f"# metric = {result.metric.value}", f"# split_seed = {result.split_seed}",
              f"# forest_seed = {result.forest_seed}"]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_outputs(result: RunResult, cfg: RunConfig) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"transformed": out / "transformed.csv", "trace": out / "trace.tsv",
             "report": out / "report.txt", "config": out / "config.echo"}
    write_csv(result.best_fs, paths["transformed"])
    write_trace(result.trace, paths["trace"])
    if cfg.report:
        emit_report(result, paths["report"])
    write_config_echo(cfg, result, paths["config"])
    return paths


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

def _key_table() -> dict[str, tuple[type, Field, type, dict | None]]:
    """Every scalar ``RunConfig`` and ``TrainConfig`` field by its key (the
    ``key`` metadata, else its name), in declaration order: its dataclass, the
    field, its value type (``int`` for ``int | None``) and its text -> value
    ``names`` (an enum field's are its members' values, a bool field's ``true``
    and ``false``; None for a number or a string)."""
    keys = {}
    for owner in (RunConfig, TrainConfig):
        hints = typing.get_type_hints(owner)
        for f in fields(owner):
            typ = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            if is_dataclass(typ):
                continue
            names = {"true": True, "false": False} if typ is bool else f.metadata.get("names")
            if names is None and issubclass(typ, Enum):
                names = {kind.value: kind for kind in typ}
            keys[f.metadata.get("key", f.name)] = (owner, f, typ, names)
    return keys


_KEYS = _key_table()


def _value(key: str, text: str, where: str):
    """``key``'s value for ``text``, from a flag or a file line alike; a bad
    text is a ConfigError that starts with ``where``.  White space at either
    end is bad: a file line's value is stripped, so the echo would not replay it."""
    _, _, typ, names = _KEYS[key]
    if text != text.strip():
        raise ConfigError(f"{where}: {key} {text!r} has white space at an end")
    if names is not None:
        if text not in names:
            raise ConfigError(f"{where}: unknown {key} {text!r}")
        return names[text]
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{where}: bad {typ.__name__} value {text!r}") from None


def _text(key: str, value) -> str:
    """``key``'s text for ``value``, the inverse of ``_value``."""
    names = _KEYS[key][3]
    return _fmt(value) if names is None else next(w for w, v in names.items() if v == value)


def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; a comment line starts with '#', any other '#' is text."""
    values: dict[str, object] = {}
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _value(key, value.strip(), f"{path}:{lineno}")
    return values


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """``raft run``'s flags, one per key, each passing text: ``--key-name``,
    or for a bool key a switch away from its default (``--no-report``)."""
    parser = argparse.ArgumentParser(
        prog="raft",
        description="Reconstruct a tabular feature space with cascading "
                    "actor-critic agents and emit a traceable lineage report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the feature-space search")
    run.add_argument("--config", help="flat key = value config file")
    for key, (_, f, typ, names) in _KEYS.items():
        if typ is bool:
            run.add_argument(_flag("no_" + key if f.default else key), dest=key,
                             action="store_const", const=_text(key, not f.default),
                             help=f.metadata.get("help"))
        else:
            run.add_argument(_flag(key), dest=key, choices=names and list(names),
                             help=f.metadata.get("help"))
    return parser


def parse_config(argv=None) -> RunConfig:
    """Precedence: CLI flag > config file value > built-in default.  An ``out``
    under a file is a ConfigError: the directory is made after the search."""
    args = build_parser().parse_args(argv)
    merged = _parse_config_file(args.config) if args.config else {}
    merged.update((key, _value(key, getattr(args, key), _flag(key)))
                  for key in _KEYS if getattr(args, key) is not None)
    for required in ("input", "target", "out"):
        if required not in merged:
            raise ConfigError(f"missing required option --{required}")
    out = Path(merged["out"])
    for home in (out, *out.parents):  # checked before the search, made after it
        if home.exists():
            if not home.is_dir():
                raise ConfigError(f"output directory {out}: {home} is not a directory")
            break
    kwargs: dict[type, dict] = {RunConfig: {}, TrainConfig: {}}
    for key, value in merged.items():
        owner, f, _, _ = _KEYS[key]
        kwargs[owner][f.name] = value
    try:
        return RunConfig(**kwargs[RunConfig], train=TrainConfig(**kwargs[TrainConfig]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    started = time.perf_counter()
    try:
        cfg = parse_config(argv)
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
          f"wall={time.perf_counter() - started:.1f}s")
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
