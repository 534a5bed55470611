"""Benchmark worker: seeded fixtures, timed `raft.cli.run_search` calls,
correctness checks and metrics.

Run through `bench/run.py`, which starts this file in a fresh process with
single-threaded BLAS.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

A run derives a fixed number of sub-seeds from `--seed` (as many as
`--seconds` holds at the workload's nominal cost); each gives a fixture and
a train seed.  With `--trace 0` each sub-seed runs the learned search and the
`--bench` random control with the same seed and budget, and no tracer.  With
`--trace 1` it runs the learned search once plain and once traced, and the
per-layer metrics sum the traced searches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"


def _import_raft_from_checkout() -> None:
    """Put this checkout's `src` first on the path and make sure `raft`
    comes from there, so that the benchmark never measures another copy."""
    src = ROOT / "src"
    if not (src / "raft" / "__init__.py").is_file():
        raise SystemExit(f"no raft sources under {src}")
    sys.path.insert(0, str(src))
    import raft

    if Path(raft.__file__).resolve().parent != (src / "raft").resolve():
        raise SystemExit(f"imported raft from {raft.__file__}, not from {src}")


_import_raft_from_checkout()

import numpy as np  # noqa: E402

from raft import cli, clustering, dataset, evaluator, synthetic  # noqa: E402
from raft.agents import TrainConfig  # noqa: E402
from raft.state_repr import EncoderKind  # noqa: E402

from tracing import Tracer, instrument, layer_hooks, patched  # noqa: E402

# Units of the metrics each mode reports; BENCHMARK.json lists the same names.
END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "random_steps_per_s": "steps/s",
    "best_score": "score",
    "random_best_score": "score",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "dataset.load_s": "s",
    "evaluator.score_s": "s",
    "evaluator.forest_fits": "count",
    "evaluator.score_requests": "count",
    "evaluator.score_hit_ratio": "ratio",
    "evaluator.fit_s_per_fit": "s",
    "clustering.cluster_s": "s",
    "clustering.calls": "count",
    "clustering.groups_mean": "count",
    "info_metrics.mi_s": "s",
    "info_metrics.mi_calls": "count",
    "info_metrics.quality_s": "s",
    "info_metrics.quality_calls": "count",
    "state_repr.encode_s": "s",
    "state_repr.encode_calls": "count",
    "state_repr.encode_misses": "count",
    "transform.generate_s": "s",
    "transform.generated_cols": "count",
    "transform.kept_cols": "count",
    "transform.kept_ratio": "ratio",
    "agents.policy_s": "s",
    "agents.update_s": "s",
    "agents.policy_calls": "count",
    "cli.other_s": "s",
    "cli.wall_s": "s",
    "trace_overhead_frac": "ratio",
}
# Self-time buckets of the layers; with cli.other_s (the self time of
# run_search) they add up to the traced wall time.
LAYER_SELF_TIMES = list(dict.fromkeys(bucket for _, _, bucket, _ in layer_hooks()))

# The calibration loop's time on the reference machine.  End-to-end timings
# are scaled to this speed: on a shared machine the speed drifts by up to
# 1.7x within minutes, which no amount of repetition inside one run removes.
CALIBRATION_REF_S = 0.1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def product_sign_classification(rows: int, cols: int, seed: int) -> dataset.FeatureSet:
    """Standard-normal features, label = [x0*x1 + x2 > 0]: no single column
    separates the classes, so crossing features pays off."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, cols))
    labels = (values[:, 0] * values[:, 1] + values[:, 2] > 0.0).astype(np.int64)
    columns = tuple(dataset.FeatureMeta.from_lineage(dataset.Ident(f"x{i}"))
                    for i in range(cols))
    return dataset.FeatureSet(values, columns,
                              dataset.Target(labels, dataset.TaskKind.CLASSIFICATION, "label"))


def squared_sum_fixture(rows: int, cols: int, seed: int) -> dataset.FeatureSet:
    return synthetic.squared_sum_regression(m=rows, n_distractors=cols - 2, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    make_fixture: Callable[[int, int, int], dataset.FeatureSet]
    rows: int
    cols: int
    encoder: str
    episodes: int
    steps: int
    share_s: float  # seconds of `--seconds` given to one sub-seed (two searches and checks)

    def tiny(self) -> "Workload":
        """The same workload at test size."""
        return replace(self, rows=60, cols=min(self.cols, 12), episodes=1, steps=2)


# Why each workload exists is in README.md and BENCHMARK.json.  A sub-seed
# costs about 6.5 s on tall_reg and 4-6 s on the others (2 cores).  tall_reg
# gets a smaller share than it costs, so 8 sub-seeds fit in 30 s: its scores
# spread most from seed to seed, and the score bound rests on that count.
WORKLOADS = {w.name: w for w in [
    Workload("tall_reg", squared_sum_fixture, 2000, 8, "si", 2, 3, 3.75),
    Workload("wide_clf", product_sign_classification, 500, 24, "si", 1, 4, 5.0),
    Workload("clf_all", product_sign_classification, 1000, 16, "all", 2, 3, 5.0),
]}


def derive_seed(seed: int, salt: str) -> int:
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# One search
# ---------------------------------------------------------------------------

@dataclass
class Search:
    kind: str  # "learned", "random" or "traced"
    sub: int = 0  # index of the run's sub-seed
    wall_s: float = math.nan
    setup_s: float = math.nan
    cal_s: float = math.nan  # calibration time around the search
    steps: int = 0
    best_score: float = math.nan
    digest: str = ""
    errors: list[str] | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran."""
        return self.cal_s / CALIBRATION_REF_S

    @property
    def steps_per_s(self) -> float:
        """Search steps per second after set-up, at the reference speed."""
        return self.steps / (self.wall_s - self.setup_s) * self.slowdown

    @property
    def ref_setup_s(self) -> float:
        """Set-up time at the reference speed."""
        return self.setup_s / self.slowdown


def check_result(result: cli.RunResult, fixture: dataset.FeatureSet) -> list[str]:
    """Errors found by rebuilding `best_fs` from its lineage over the
    generated original columns (bit-equal) and by re-scoring it."""
    errors = []
    if not math.isfinite(result.best_score):
        errors.append(f"non-finite best_score {result.best_score!r}")
    best = result.best_fs
    if not np.array_equal(best.target.values, fixture.target.values):
        errors.append("best_fs target differs from the fixture target")
    originals = fixture.original_columns()
    for i, meta in enumerate(best.columns):
        try:
            rebuilt = dataset.evaluate_lineage(meta.lineage, originals)
        except dataset.DatasetError as exc:
            errors.append(f"column {meta.name}: {exc}")
            continue
        if rebuilt.tobytes() != np.ascontiguousarray(best.values[:, i]).tobytes():
            errors.append(f"column {meta.name} differs from its lineage re-evaluation")
    rescored = evaluator.downstream_score(best, result.split_seed, result.metric,
                                          evaluator.ForestConfig(seed=result.forest_seed))
    if rescored != result.best_score:
        errors.append(f"re-scored best_fs gives {rescored!r}, run reported {result.best_score!r}")
    return errors


def result_digest(result: cli.RunResult, scratch: Path) -> str:
    """SHA-256 of the trace.tsv the CLI would write, and of best_fs."""
    trace_path = scratch / "trace.tsv"
    cli.write_trace(result.trace, trace_path)
    best = result.best_fs
    h_fs = hashlib.sha256("\t".join(best.names()).encode())
    h_fs.update(np.ascontiguousarray(best.values).tobytes())
    return (f"trace={hashlib.sha256(trace_path.read_bytes()).hexdigest()} "
            f"best_fs={h_fs.hexdigest()}")


def run_one(kind: str, cfg: cli.RunConfig, fixture: dataset.FeatureSet,
            scratch: Path, tracer: Tracer | None = None) -> Search:
    """One timed search followed by its checks; never raises.  A "traced"
    search adds its spans to `tracer`."""
    search = Search(kind)
    first_cluster: list[float] = []  # set-up ends where the first search step clusters

    def mark_setup_end(adaptive_cluster):
        def first_call_timed(*args, **kwargs):
            if not first_cluster:
                first_cluster.append(time.perf_counter())
            return adaptive_cluster(*args, **kwargs)
        return first_call_timed

    try:
        if kind == "traced":
            root = tracer.wrap(cli.run_search, "cli.other_s")
            with instrument(tracer):
                start = time.perf_counter()
                result = root(cfg)
                search.wall_s = time.perf_counter() - start
        else:
            with patched([(clustering, "adaptive_cluster", mark_setup_end)]):
                start = time.perf_counter()
                result = cli.run_search(cfg)
                search.wall_s = time.perf_counter() - start
            search.setup_s = first_cluster[0] - start
        search.steps = len(result.trace)
        search.best_score = result.best_score
        search.errors = check_result(result, fixture)
        search.digest = result_digest(result, scratch)
    except Exception:  # a failing search is counted, and the run goes on
        search.errors = [traceback.format_exc()]
    return search


# ---------------------------------------------------------------------------
# A run: two searches per sub-seed
# ---------------------------------------------------------------------------

def make_config(workload: Workload, fixture: dataset.FeatureSet, csv_path: Path,
                train_seed: int, bench: bool) -> cli.RunConfig:
    return cli.RunConfig(
        input_path=str(csv_path), target=fixture.target.name, out_dir=str(csv_path.parent),
        task=fixture.target.kind, bench=bench, report=False,
        train=TrainConfig(episodes=workload.episodes, steps=workload.steps, seed=train_seed,
                          encoder=EncoderKind.parse(workload.encoder)),
    )


def calibration_s() -> float:
    """Time of a fixed mix of interpreter and small-array numpy work that
    uses no `raft` code, so it tracks the machine's speed, not the program's."""
    x = np.random.default_rng(0).standard_normal(4000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(1600):
        part = x[i:i + 600]
        order = np.argsort(part, kind="stable")
        acc += float(np.cumsum(part[order])[-1]) + float(np.mean(part * part))
    for i in range(240000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - start


def searches_per_run(workload: Workload, seconds: float) -> int:
    """Sub-seeds in one run: as many shares of the workload as `seconds`
    holds, and at least one.  The count depends only on the arguments, so
    the quality metrics are a fixed function of the seed."""
    return max(1, int(seconds // workload.share_s))


def run_workload(workload: Workload, seed: int, seconds: float, tracer: Tracer | None,
                 scratch: Path, log=print) -> list[Search]:
    """For each of the run's sub-seeds, make a fixture and run the learned
    search and then either the random control (no `tracer`) or the learned
    search again under the tracer, with the same train seed."""
    # Warm-up on a tiny copy, untimed: first-call costs inside numpy and the
    # interpreter would otherwise land in the first search only.
    warm = workload.tiny()
    warm_fixture = warm.make_fixture(warm.rows, warm.cols, 0)
    warm_csv = synthetic.write_fixture(warm_fixture, scratch / "warm.csv")
    cli.run_search(make_config(warm, warm_fixture, warm_csv, 0, False))

    searches: list[Search] = []
    pair = [("learned", False), ("traced", False) if tracer is not None else ("random", True)]
    cal_before = calibration_s()
    for sub in range(searches_per_run(workload, seconds)):
        sub_seed = derive_seed(seed, f"search{sub}")
        fixture = workload.make_fixture(workload.rows, workload.cols,
                                        derive_seed(sub_seed, "fixture"))
        csv_path = synthetic.write_fixture(fixture, scratch / "fixture.csv")
        train_seed = derive_seed(sub_seed, "train")
        # alternate the order so neither kind always runs first
        for kind, bench in (pair if sub % 2 == 0 else pair[::-1]):
            cfg = make_config(workload, fixture, csv_path, train_seed, bench)
            search = run_one(kind, cfg, fixture, scratch, tracer)
            cal_after = calibration_s()
            search.cal_s = (cal_before + cal_after) / 2.0
            cal_before = cal_after
            search.sub = sub
            searches.append(search)
            log(f"search {kind} sub={sub} wall_s={search.wall_s:.4f} "
                f"setup_s={search.setup_s:.4f} cal_s={search.cal_s:.4f} steps={search.steps} "
                f"best_score={search.best_score!r} {search.digest} "
                f"{'ok' if search.ok else 'FAILED'}")
            for error in search.errors or []:
                log(f"  error: {error.rstrip()}")
    check_determinism(searches)
    return searches


def check_determinism(searches: list[Search]) -> None:
    """The plain and the traced learned search of a sub-seed must give the
    same digest; a mismatch fails the traced one."""
    plain = {s.sub: s.digest for s in searches if s.ok and s.kind == "learned"}
    for s in searches:
        if s.ok and s.kind == "traced" and s.sub in plain and s.digest != plain[s.sub]:
            s.errors = [f"digest {s.digest} differs from the plain search {plain[s.sub]}"]


def run_digest(searches: list[Search]) -> str:
    """One SHA-256 over the digests of the run's searches, in run order."""
    return hashlib.sha256("\n".join(s.digest for s in searches).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(searches: list[Search]) -> dict[str, float]:
    """Timings are medians over the run's searches, at the reference speed;
    scores are means over its sub-seeds, which damps the seed-to-seed spread
    of a short search."""
    ok = [s for s in searches if s.ok]
    learned = [s for s in ok if s.kind == "learned"]
    random_ = [s for s in ok if s.kind == "random"]
    if not learned or not random_:
        raise ValueError("no successful learned or random search to measure")
    return {
        "setup_s": statistics.median(s.ref_setup_s for s in ok),
        "steps_per_s": statistics.median(s.steps_per_s for s in learned),
        "random_steps_per_s": statistics.median(s.steps_per_s for s in random_),
        "best_score": statistics.fmean(s.best_score for s in learned),
        "random_best_score": statistics.fmean(s.best_score for s in random_),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": len(ok) / len(searches),
    }


def per_layer_metrics(searches: list[Search], tracer: Tracer) -> dict[str, float]:
    """Self times and counts summed over the run's traced searches.  The
    tracing overhead compares them with the plain runs of the same searches,
    both at the reference speed."""
    traced = [s for s in searches if s.ok and s.kind == "traced"]
    plain = [s for s in searches if s.ok and s.kind == "learned"]
    if not traced or not plain:
        raise ValueError("no successful traced or plain search to measure")
    t, c = tracer.self_s, tracer.counts
    out = {name: t[name] for name in LAYER_SELF_TIMES}
    out.update({
        "evaluator.forest_fits": c["evaluator.forest_fits"],
        "evaluator.score_requests": c["evaluator.score_requests"],
        "evaluator.score_hit_ratio": 1.0 - c["evaluator.forest_fits"] / c["evaluator.score_requests"],
        "evaluator.fit_s_per_fit": t["evaluator.score_s"] / c["evaluator.forest_fits"],
        "clustering.calls": c["clustering.calls"],
        "clustering.groups_mean": c["clustering.groups"] / c["clustering.calls"],
        "info_metrics.mi_calls": c["info_metrics.mi_calls"],
        "info_metrics.quality_calls": c["info_metrics.quality_calls"],
        "state_repr.encode_calls": c["state_repr.encode_calls"],
        "state_repr.encode_misses": c["state_repr.encode_misses"],
        "transform.generated_cols": c["transform.generated_cols"],
        "transform.kept_cols": c["transform.kept_cols"],
        "transform.kept_ratio": c["transform.kept_cols"] / c["transform.generated_cols"],
        "agents.policy_calls": c["agents.policy_calls"],
        "cli.other_s": t["cli.other_s"],
        "cli.wall_s": math.fsum(s.wall_s for s in traced),
        "trace_overhead_frac": (math.fsum(s.wall_s / s.slowdown for s in traced)
                                / math.fsum(s.wall_s / s.slowdown for s in plain) - 1.0),
    })
    return out


def result_line(searches: list[Search], tracer: Tracer | None) -> dict:
    failed = sum(not s.ok for s in searches)
    if tracer is not None:
        values, units = per_layer_metrics(searches, tracer), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(searches), END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(searches),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = WORK_DIR / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
              f"rows={workload.rows} cols={workload.cols} encoder={workload.encoder} "
              f"budget={workload.episodes}x{workload.steps} "
              f"sub_seeds={searches_per_run(workload, args.seconds)}", flush=True)
        tracer = Tracer() if args.trace else None
        searches = run_workload(workload, args.seed, args.seconds, tracer, scratch,
                                log=lambda line: print(line, flush=True))
        print(f"digest workload={workload.name} seed={args.seed} trace={args.trace} "
              f"sha256={run_digest(searches)}")
        line = result_line(searches, tracer)
    except ValueError as exc:
        print(f"cannot report metrics: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, metric in line["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
