"""Span tracing around the public functions of each `raft` layer.

The program is not edited: `instrument` swaps each layer's public function
for a timing wrapper in every `raft` module that binds it (for example both
`raft.evaluator.downstream_score` and the copy `raft.cli` imported), and puts
the originals back on exit.  Spans nest, and a span's self time is its
duration minus the durations of its direct child spans, so the self times of
one search add up to the duration of the root span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator


def _one(_out) -> int:
    return 1


class Tracer:
    """Self time per bucket and counts, accumulated in memory."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []  # time covered by children, one slot per open span

    def wrap(self, fn: Callable, bucket: str,
             counters: dict[str, Callable[[object], int]] | None = None) -> Callable:
        """`fn` timed as a span whose self time goes to `bucket`; each counter
        adds `amount(result)` after a call returns."""
        counters = counters or {}
        open_spans = self._child_s
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self_s[bucket] += dur - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
            for name, amount in counters.items():
                counts[name] += amount(out)
            return out

        return span


def _targets(home, attr: str) -> list[tuple[object, str]]:
    """Every place a `raft` module binds `home.attr`; a class attribute
    (a method) has only its class."""
    if isinstance(home, type):
        return [(home, attr)]
    original = getattr(home, attr)
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "raft" or name.startswith("raft.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace each `home.attr` (everywhere it is bound) by `make(original)`."""
    saved = []
    try:
        for home, attr, make in replacements:
            replacement = make(getattr(home, attr))
            for owner, key in _targets(home, attr):
                saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, replacement)
        yield
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


def layer_hooks() -> list[tuple[object, str, str, dict[str, Callable[[object], int]]]]:
    """(home, attribute, self-time bucket, counters) for each layer boundary."""
    from raft import agents, cli, clustering, dataset, evaluator, info_metrics, state_repr, transform

    return [
        (dataset, "load_csv", "dataset.load_s", {}),
        (cli.EvalContext, "score", "evaluator.score_s", {"evaluator.score_requests": _one}),
        (evaluator, "downstream_score", "evaluator.score_s", {"evaluator.forest_fits": _one}),
        (clustering, "adaptive_cluster", "clustering.cluster_s",
         {"clustering.calls": _one, "clustering.groups": len}),
        (info_metrics.MICache, "mi", "info_metrics.mi_s", {"info_metrics.mi_calls": _one}),
        (info_metrics, "feature_set_quality", "info_metrics.quality_s",
         {"info_metrics.quality_calls": _one}),
        (state_repr.StateEncoder, "encode", "state_repr.encode_s",
         {"state_repr.encode_calls": _one}),
        (state_repr, "state_si", "state_repr.encode_s", {"state_repr.encode_misses": _one}),
        (state_repr, "state_ae", "state_repr.encode_s", {"state_repr.encode_misses": _one}),
        (state_repr, "state_gae", "state_repr.encode_s", {"state_repr.encode_misses": _one}),
        (transform, "generation_step", "transform.generate_s", {}),
        (transform, "apply_unary", "transform.generate_s", {"transform.generated_cols": len}),
        (transform, "cross_binary", "transform.generate_s", {"transform.generated_cols": len}),
        (transform, "dedup", "transform.generate_s", {"transform.kept_cols": len}),
        (agents, "select_head", "agents.policy_s", {"agents.policy_calls": _one}),
        (agents, "select_op", "agents.policy_s", {"agents.policy_calls": _one}),
        (agents, "select_tail", "agents.policy_s", {"agents.policy_calls": _one}),
        (agents, "update_agents", "agents.update_s", {}),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every layer hook into `tracer` for the duration of the block."""
    replacements = [
        (home, attr, functools.partial(tracer.wrap, bucket=bucket, counters=counters))
        for home, attr, bucket, counters in layer_hooks()
    ]
    with patched(replacements):
        yield
