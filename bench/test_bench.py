"""Fast test of the benchmark itself, on test-size workloads.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Self times plus cli.other_s must match the traced wall time this closely;
# the gap is the cost of the outermost wrapper call and two clock reads.
SELF_TIME_TOLERANCE = 0.01


def _run_main(capsys, argv: list[str]) -> dict:
    assert harness.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(capsys, monkeypatch, workload, trace):
    monkeypatch.setitem(harness.WORKLOADS, workload, harness.WORKLOADS[workload].tiny())
    line = _run_main(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0",
                              "--trace", str(trace)])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert line["metrics"]["ok_frac"]["value"] == 1.0
    assert not harness.WORK_DIR.exists()


def test_self_times_add_up_to_traced_wall_time(tmp_path):
    workload = harness.WORKLOADS["clf_all"].tiny()
    tracer = harness.Tracer()
    searches = harness.run_workload(workload, 5, 0.0, tracer, tmp_path, log=lambda _: None)
    metrics = harness.per_layer_metrics(searches, tracer)
    total = sum(metrics[name] for name in harness.LAYER_SELF_TIMES) + metrics["cli.other_s"]
    assert total == pytest.approx(metrics["cli.wall_s"], rel=SELF_TIME_TOLERANCE)
    assert all(metrics[name] > 0.0 for name in harness.LAYER_SELF_TIMES)


def test_corrupted_lineage_column_is_caught(tmp_path):
    workload = harness.WORKLOADS["tall_reg"].tiny()
    fixture = workload.make_fixture(workload.rows, workload.cols, 9)
    csv_path = harness.synthetic.write_fixture(fixture, tmp_path / "fixture.csv")
    result = harness.cli.run_search(harness.make_config(workload, fixture, csv_path, 9, False))
    assert harness.check_result(result, fixture) == []

    best = result.best_fs
    values = best.values.copy()
    last = best.n_cols - 1
    values[0, last] = np.nextafter(values[0, last], np.inf)  # one ulp off
    corrupted = dataclasses.replace(result, best_fs=best.with_columns(values, best.columns))
    errors = harness.check_result(corrupted, fixture)
    assert any(f"column {best.columns[last].name} differs" in e for e in errors)


def test_command_is_deterministic_across_fresh_processes():
    """The real command, at one sub-seed, in two processes with different
    hash seeds: both pass their checks and print the same digest line, so
    no result depends on per-process state such as set or dict order."""
    digests = []
    for hash_seed in ("1", "2"):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "wide_clf",
                               "--seed", "1", "--seconds", "0", "--trace", "0"],
                              cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        assert line["correct"] is True and line["attempted"] == 2
        assert line["metrics"]["peak_rss_mb"]["value"] > 0.0
        digests.append([l for l in lines if l.startswith("digest ")])
    assert len(digests[0]) == 1 and "sha256=" in digests[0][0]
    assert digests[0] == digests[1]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", "tall_reg", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
