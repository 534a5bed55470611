"""Safe feature-group crossing with lineage: a unary op (``UNARY_OPS``) maps
the head group, a binary op crosses it with the tail group, and dedup and MI
selection shrink the result."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import (
    UNARY_OPS,
    Binary,
    FeatureMeta,
    FeatureSet,
    Unary,
    content_hash,
    lineage_depth,
    read_only,
    safe_binary_value,
    safe_unary_value,
)
from .info_metrics import MICache

_DEDUP_TOL = 1e-12
CROSS_CAP = 64  # the most pairs one binary cross generates
MAX_LINEAGE_DEPTH = 6  # the deepest lineage a column may have: bounds names and blow-up

Batch = list[tuple[np.ndarray, FeatureMeta]]  # generated columns, each with its meta


def apply_unary(op: str, cluster_view: FeatureSet) -> Batch:
    """One new column per member feature; members whose lineage would exceed
    MAX_LINEAGE_DEPTH are skipped."""
    batch: Batch = []
    for i, meta in enumerate(cluster_view.columns):
        expr = Unary(op, meta.lineage)
        if lineage_depth(expr) <= MAX_LINEAGE_DEPTH:
            batch.append((safe_unary_value(op, cluster_view.column(i)),
                          FeatureMeta.from_lineage(expr)))
    return batch


def cross_binary(op: str, head_view: FeatureSet, tail_view: FeatureSet,
                 cache: MICache) -> Batch:
    """Cartesian pairing of head and tail members, head-major order.

    When the pairing exceeds CROSS_CAP, the pairs with the largest
    MI(head, y) + MI(tail, y), read from the run's ``cache``, survive (ties
    keep head-major order); the surviving columns are still emitted in
    head-major order.  Pairs whose lineage would exceed MAX_LINEAGE_DEPTH are
    skipped.
    """
    pairs = [(a, b) for a in range(head_view.n_cols) for b in range(tail_view.n_cols)]
    if len(pairs) > CROSS_CAP:
        mi_head, mi_tail = (cache.mi(v.values.T, v.keys, v.target) for v in (head_view, tail_view))
        scores = [mi_head[a] + mi_tail[b] for a, b in pairs]
        pairs = [pairs[p] for p in _top_by_mi(scores, CROSS_CAP)]
    batch: Batch = []
    for a, b in pairs:
        expr = Binary(op, head_view.columns[a].lineage, tail_view.columns[b].lineage)
        if lineage_depth(expr) <= MAX_LINEAGE_DEPTH:
            batch.append((safe_binary_value(op, head_view.column(a), tail_view.column(b)),
                          FeatureMeta.from_lineage(expr)))
    return batch


def dedup(batch: Batch, fs: FeatureSet) -> Batch:
    """Drop constant columns and columns value-equal (within 1e-12 elementwise)
    to an existing column or an earlier batch column."""
    kept: Batch = []
    seen = list(fs.values.T)
    first = np.empty(fs.n_cols + len(batch))  # each seen column's first entry
    first[:fs.n_cols] = fs.values[0]
    for col, meta in batch:
        if float(np.ptp(col)) <= _DEDUP_TOL:
            continue
        with np.errstate(over="ignore"):
            # only a column that matches in the first row can match in all
            near = np.flatnonzero(np.abs(col[0] - first[:len(seen)]) <= _DEDUP_TOL)
            duplicate = any(np.all(np.abs(col - seen[k]) <= _DEDUP_TOL) for k in near)
        if not duplicate:
            first[len(seen)] = col[0]
            seen.append(col)
            kept.append((col, meta))
    return kept


def _top_by_mi(scores: Sequence[float], max_size: int) -> list[int]:
    """The indices of the ``max_size`` largest ``scores`` (ties keep the lower
    index), in increasing order."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:max_size])


def generation_step(fs: FeatureSet, head_view: FeatureSet, op: str, tail_view: FeatureSet,
                    max_size: int, cache: MICache) -> FeatureSet:
    """Apply ``op`` to the head group's view of ``fs`` (crossing it with the
    tail group's view for a binary op; a unary op reads no tail) and dedup,
    then keep at most ``max_size`` of the space's and the batch's columns.

    The kept batch columns are the step's new columns: each is hashed here,
    once.  Every column is kept when they fit in ``max_size``; otherwise the
    ``max_size`` of largest MI with the target, read from ``cache`` (ties
    keep the lower index), in their order.  The result is assembled once,
    from the kept columns only, so the appended space is never built.  An
    empty post-dedup batch returns ``fs`` itself (not an error).
    """
    if op in UNARY_OPS:
        batch = apply_unary(op, head_view)
    else:
        batch = cross_binary(op, head_view, tail_view, cache)
    batch = dedup(batch, fs)
    if not batch:
        return fs
    columns = [*fs.values.T, *(col for col, _ in batch)]
    keys = fs.keys + tuple(content_hash(col) for col, _ in batch)
    metas = tuple(fs.columns) + tuple(meta for _, meta in batch)
    kept = (range(len(keys)) if len(keys) <= max_size
            else _top_by_mi(cache.mi(columns, keys, fs.target), max_size))
    values = read_only(np.array([columns[i] for i in kept]).T)  # one copy, column-major
    return fs.with_columns(values, [metas[i] for i in kept], [keys[i] for i in kept])
