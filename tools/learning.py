"""The learned search against random generation on planted fixtures, scored
on fresh draws rebuilt from lineage.

    python3 tools/learning.py --out LEARNING.json

Each fixture in ``FIXTURES`` is a target lineage over standard-normal
columns, drawn by ``synthetic.planted``, with distractor columns beside the
target's inputs, and the sub-expression a search should find.  On every
train seed three arms see the fixture's draw at ``FIXTURE_SEED``: the
original columns (no search), RDG, the uniform-random control
(``cli.prepare(..., bench=True)``), and RAFT, the learned cascade; both
searches are built with ``cli.prepare`` and run in memory with ``cli.search``
at the ``EPISODES`` x ``STEPS`` budget.  Each arm's ``best_fs`` is rebuilt
with ``evaluate_lineage`` on fresh draws (the generator at ``FRESH_SEEDS``)
and scored there with ``downstream_score``, with the search's metric, split
seed and forest seed, against the draw's original columns.

Per fixture and arm the JSON file gives the mean fresh-draw gain over the
original columns, the search-split gain (``best_score - baseline_score``),
the mean step score of the last 5 episodes minus that of the first 5, the
favourite op's share of the steps in each third of the run, the share of
seeds whose ``best_fs`` holds the planted sub-expression (``recovered_frac``;
either operand order counts for ``+`` and ``*``), and the share whose
``best_fs`` keeps every input of it as a column; per fixture, a seeded
paired-bootstrap 95% interval of RAFT's fresh-draw gain minus RDG's over the
train seeds.  The wall times are under their own key, ``wall_s``: they are
the only part of the file that differs between two runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's raft, as bench/harness.py does

import numpy as np  # noqa: E402

from raft import cli, synthetic  # noqa: E402
from raft.agents import TrainConfig  # noqa: E402
from raft.dataset import (Binary, FeatureSet, Ident, LineageExpr, TaskKind, Unary,  # noqa: E402
                          evaluate_lineage, parse_lineage, render)
from raft.evaluator import downstream_score  # noqa: E402

CLF, REG = TaskKind.CLASSIFICATION, TaskKind.REGRESSION


@dataclass(frozen=True)
class Fixture:
    """A planted target: its lineage over ``names`` (its inputs, then the
    distractors), the sub-expression a search should find, and the draw."""

    target: str
    planted: str
    task: TaskKind
    rows: int
    names: tuple[str, ...]
    noise_scale: float = 0.0

    def draw(self, seed: int) -> FeatureSet:
        return synthetic.planted(self.target, self.names, self.task, self.rows, seed,
                                 self.noise_scale)


def _x(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


# The settings, fixed before any learning change.  A classification target's
# sign at 0 splits the classes.  `product_sign` and `squared_sum` draw the
# bytes of `synthetic.product_sign_classification(500, 12, seed)` and
# `synthetic.squared_sum_regression(2000, 6, 0.1, seed)`.
FIXTURES = {
    "product_sign": Fixture("((x0 * x1) + x2)", "(x0 * x1)", CLF, 500, _x(12)),
    "squared_sum": Fixture("square((f1 + f2))", "(f1 + f2)", REG, 2000,
                           tuple(f"f{i + 1}" for i in range(8)), 0.1),
    "ratio": Fixture("(x0 / x1)", "(x0 / x1)", REG, 1000, _x(8), 0.1),
    "product": Fixture("(x0 * x1)", "(x0 * x1)", CLF, 500, _x(10)),
    "squared_sum_wide": Fixture("square((x0 + x1))", "(x0 + x1)", REG, 1000, _x(16), 0.1),
    "unary": Fixture("(sqrt(x0) - x1)", "sqrt(x0)", CLF, 1000, _x(8)),
}
FIXTURE_SEED = 5
FRESH_SEEDS = (101, 102, 103, 104, 105)
TRAIN_SEEDS = tuple(range(8))
EPISODES, STEPS = 30, 15
BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED = 2000, 0
CURVE_EPISODES = 5  # the learning curve compares the first and the last this many

ARMS = ("original", "rdg", "raft")


def rebuild(fs: FeatureSet, draw: FeatureSet) -> FeatureSet:
    """``fs``'s columns re-evaluated from their lineage over ``draw``'s
    original columns, on ``draw``'s target."""
    originals = draw.original_columns()
    values = np.column_stack([evaluate_lineage(meta.lineage, originals) for meta in fs.columns])
    return FeatureSet(values, fs.columns, draw.target)


def canonical(expr: LineageExpr) -> LineageExpr:
    """``expr`` with the operands of each ``+`` and ``*`` in rendered order,
    so that either order of them compares equal."""
    if isinstance(expr, Ident):
        return expr
    if isinstance(expr, Unary):
        return Unary(expr.op, canonical(expr.child))
    left, right = canonical(expr.left), canonical(expr.right)
    if expr.op in ("+", "*") and render(right) < render(left):
        left, right = right, left
    return Binary(expr.op, left, right)


def subtrees(expr: LineageExpr) -> list[LineageExpr]:
    if isinstance(expr, Ident):
        return [expr]
    if isinstance(expr, Unary):
        return [expr, *subtrees(expr.child)]
    return [expr, *subtrees(expr.left), *subtrees(expr.right)]


def idents(expr: LineageExpr) -> set[str]:
    return {node.name for node in subtrees(expr) if isinstance(node, Ident)}


def holds(fs: FeatureSet, planted: LineageExpr) -> bool:
    """Whether some column's lineage holds ``planted`` as a sub-tree."""
    target = canonical(planted)
    return any(target in subtrees(canonical(meta.lineage)) for meta in fs.columns)


def learning_curve(trace: list[cli.TraceRow]) -> tuple[float, str, list[float]]:
    """The mean step score of the last ``CURVE_EPISODES`` episodes minus that
    of the first, the run's favourite op, and its share of the steps in each
    third of the run."""
    episodes = sorted({row.episode for row in trace})
    def mean_score(chosen: list[int]) -> float:
        return float(np.mean([row.p_a for row in trace if row.episode in chosen]))
    curve = mean_score(episodes[-CURVE_EPISODES:]) - mean_score(episodes[:CURVE_EPISODES])
    ops = [row.op for row in trace]
    favourite = Counter(ops).most_common(1)[0][0]
    thirds = [float(np.mean([ops[i] == favourite for i in part]))
              for part in np.array_split(np.arange(len(ops)), 3)]
    return curve, favourite, thirds


def seed_records(fx: Fixture, fs0: FeatureSet, draws: list[FeatureSet], seed: int,
                 episodes: int, steps: int) -> tuple[dict[str, dict], dict[str, float]]:
    """Each arm's record on one train seed, and its wall time."""
    train = TrainConfig(episodes=episodes, steps=steps, seed=seed)
    planted = parse_lineage(fx.planted)
    started = time.perf_counter()
    ctx = cli.prepare(fs0, train, bench=True)[1]  # the metric and seeds every arm shares

    def fresh_scores(fs: FeatureSet) -> list[float]:
        return [downstream_score(rebuild(fs, d), ctx.split_seed, ctx.metric, ctx.forest_cfg)
                for d in draws]

    base = fresh_scores(fs0)
    records = {"original": {"fresh_score": float(np.mean(base)), "fresh_gain": 0.0,
                            "search_gain": 0.0, "recovered": holds(fs0, planted),
                            "inputs_kept": True}}
    wall = {"original": time.perf_counter() - started}
    for arm in ("rdg", "raft"):
        started = time.perf_counter()
        result = cli.search(fs0, train, *cli.prepare(fs0, train, bench=arm == "rdg"))
        scores = fresh_scores(result.best_fs)
        kept = {meta.name for meta in result.best_fs.columns if meta.is_original}
        curve, favourite, thirds = learning_curve(result.trace)
        records[arm] = {
            "fresh_score": float(np.mean(scores)),
            "fresh_gain": float(np.mean(np.subtract(scores, base))),
            "search_gain": result.best_score - result.baseline_score,
            "late_minus_early": curve, "favourite_op": favourite, "favourite_op_thirds": thirds,
            "recovered": holds(result.best_fs, planted), "inputs_kept": idents(planted) <= kept,
        }
        wall[arm] = time.perf_counter() - started
    return records, wall


def paired_bootstrap(diffs: list[float]) -> list[float]:
    """A seeded percentile bootstrap 95% interval of the mean of ``diffs``."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(diffs), size=(BOOTSTRAP_RESAMPLES, len(diffs)))
    return [float(q) for q in np.percentile(np.asarray(diffs)[picks].mean(axis=1), [2.5, 97.5])]


def summarize(per_seed: list[dict]) -> dict:
    """An arm's means over the train seeds, and its per-seed gains; the
    learning fields are None for the arm that does not search."""
    def mean(key: str):
        return float(np.mean([r[key] for r in per_seed]))

    out = {key: mean(key) for key in ("fresh_score", "fresh_gain", "search_gain")}
    out.update(recovered_frac=mean("recovered"), inputs_kept_frac=mean("inputs_kept"),
               late_minus_early=None, favourite_op_thirds=None, favourite_ops=None)
    if "late_minus_early" in per_seed[0]:
        thirds = np.mean([r["favourite_op_thirds"] for r in per_seed], axis=0)
        out.update(late_minus_early=mean("late_minus_early"),
                   favourite_op_thirds=[float(v) for v in thirds],
                   favourite_ops=[r["favourite_op"] for r in per_seed])
    out["per_seed"] = {key: [r[key] for r in per_seed] for key in ("fresh_gain", "search_gain")}
    return out


def run(fixtures: dict[str, Fixture], train_seeds=TRAIN_SEEDS, episodes: int = EPISODES,
        steps: int = STEPS, fresh_seeds=FRESH_SEEDS) -> dict:
    """The report on ``fixtures``, with the wall times under ``wall_s``."""
    report = {"settings": {"fixture_seed": FIXTURE_SEED, "fresh_seeds": list(fresh_seeds),
                           "train_seeds": list(train_seeds), "episodes": episodes,
                           "steps": steps, "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
                           "bootstrap_seed": BOOTSTRAP_SEED},
              "fixtures": {}, "wall_s": {}}
    for name, fx in fixtures.items():
        fs0 = fx.draw(FIXTURE_SEED)
        draws = [fx.draw(seed) for seed in fresh_seeds]
        per_seed = {arm: [] for arm in ARMS}
        wall = dict.fromkeys(ARMS, 0.0)
        for seed in train_seeds:
            records, times = seed_records(fx, fs0, draws, seed, episodes, steps)
            for arm in ARMS:
                per_seed[arm].append(records[arm])
                wall[arm] += times[arm]
        diffs = [raft["fresh_gain"] - rdg["fresh_gain"]
                 for raft, rdg in zip(per_seed["raft"], per_seed["rdg"])]
        report["fixtures"][name] = {
            "target": fx.target, "planted": fx.planted, "task": fx.task.value,
            "rows": fx.rows, "columns": len(fx.names), "noise_scale": fx.noise_scale,
            "arms": {arm: summarize(per_seed[arm]) for arm in ARMS},
            "raft_minus_rdg": {"fresh_gain": float(np.mean(diffs)),
                               "ci95": paired_bootstrap(diffs)},
        }
        report["wall_s"][name] = wall
    return report


def write(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    report = run(FIXTURES)
    write(report, args.out)
    for name, entry in report["fixtures"].items():
        arms, diff = entry["arms"], entry["raft_minus_rdg"]
        lo, hi = diff["ci95"]
        print(f"{name}: fresh gain rdg {arms['rdg']['fresh_gain']:+.4f} "
              f"raft {arms['raft']['fresh_gain']:+.4f}, raft - rdg "
              f"{diff['fresh_gain']:+.4f} [{lo:+.4f}, {hi:+.4f}], "
              f"recovered rdg {arms['rdg']['recovered_frac']:.2f} "
              f"raft {arms['raft']['recovered_frac']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
