"""The benchmark's tracer patches `raft` functions by name (bench/tracing.py).
These tests fail when a refactor moves or renames a hooked function, or when
a layer stops reaching it, which would silently zero a per-layer metric."""

from pathlib import Path
from types import ModuleType

import pytest

from raft.agents import TrainConfig
from raft.cli import RunConfig, run_search
from raft.state_repr import EncoderKind
from raft.synthetic import squared_sum_regression, write_fixture

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> ModuleType:
    # executed from its source text, so no bytecode cache is written under bench/
    module = ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


def traced_counts(tracing, tmp_path, bench: bool) -> dict[str, int]:
    fs = squared_sum_regression(m=60, n_distractors=2, seed=4)
    path = write_fixture(fs, tmp_path / "data.csv")
    cfg = RunConfig(input_path=str(path), target="y", out_dir=str(tmp_path / "out"),
                    bench=bench, report=False,
                    train=TrainConfig(episodes=1, steps=2, seed=3, encoder=EncoderKind.ALL))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        run_search(cfg)
    return tracer.counts


def test_every_hook_target_exists(tracing):
    for home, attr, _bucket, _counters in tracing.layer_hooks():
        assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr}"
        assert tracing._targets(home, attr), f"no raft module binds {attr}"


def test_learned_search_reaches_every_layer(tracing, tmp_path):
    counts = traced_counts(tracing, tmp_path, bench=False)
    for name in ("agents.policy_calls", "state_repr.encode_calls",
                 "transform.generated_cols", "evaluator.forest_fits"):
        assert counts[name] > 0, name


def test_random_control_never_encodes(tracing, tmp_path):
    counts = traced_counts(tracing, tmp_path, bench=True)
    assert counts["state_repr.encode_calls"] == 0
    assert counts["agents.policy_calls"] == 0
    assert counts["evaluator.forest_fits"] > 0
