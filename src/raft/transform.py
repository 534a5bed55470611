"""Mathematical operation set and safe feature-group crossing with lineage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import cluster_columns
from .dataset import (
    BINARY_OPS,
    DEFAULT_MAX_DEPTH,
    UNARY_OPS,
    Binary,
    FeatureMeta,
    FeatureSet,
    Unary,
    content_hash,
    lineage_depth,
    safe_binary_value,
    safe_unary_value,
)
from .info_metrics import MICache

DEFAULT_CROSS_CAP = 64
_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class OperationSet:
    """Ordered unary + binary operations; the order fixes one-hot indices."""

    unary: tuple[str, ...] = UNARY_OPS
    binary: tuple[str, ...] = BINARY_OPS

    def __post_init__(self) -> None:
        if len(self.binary) == 0:
            raise ValueError("the operation set needs at least one binary operation")
        for op in self.unary:
            if op not in UNARY_OPS:
                raise ValueError(f"unknown unary operation {op!r}")
        for op in self.binary:
            if op not in BINARY_OPS:
                raise ValueError(f"unknown binary operation {op!r}")
        ops = self.unary + self.binary
        if len(set(ops)) != len(ops):
            raise ValueError("duplicate operations in the set")

    @property
    def ops(self) -> tuple[str, ...]:
        return self.unary + self.binary

    @property
    def size(self) -> int:
        return len(self.ops)

    def index(self, op: str) -> int:
        try:
            return self.ops.index(op)
        except ValueError:
            raise ValueError(f"operation {op!r} not in the set {self.ops}") from None

    def is_unary(self, op: str) -> bool:
        if op in self.unary:
            return True
        if op in self.binary:
            return False
        raise ValueError(f"operation {op!r} not in the set {self.ops}")


@dataclass
class GeneratedBatch:
    columns: list[np.ndarray]
    metas: list[FeatureMeta]

    def __len__(self) -> int:
        return len(self.columns)


def apply_unary(
    op: str,
    cluster_view: FeatureSet,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> GeneratedBatch:
    """One new column per member feature; members whose lineage would exceed
    the depth bound are skipped."""
    columns: list[np.ndarray] = []
    metas: list[FeatureMeta] = []
    for i, meta in enumerate(cluster_view.columns):
        expr = Unary(op, meta.lineage)
        if lineage_depth(expr) > max_depth:
            continue
        columns.append(safe_unary_value(op, cluster_view.column(i)))
        metas.append(FeatureMeta.from_lineage(expr))
    return GeneratedBatch(columns, metas)


def cross_binary(
    op: str,
    head_view: FeatureSet,
    tail_view: FeatureSet,
    cache: MICache,
    cap: int = DEFAULT_CROSS_CAP,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> GeneratedBatch:
    """Cartesian pairing of head and tail members, head-major order.

    When the pairing exceeds ``cap``, the pairs with the largest
    MI(head, y) + MI(tail, y), read from the run's ``cache``, survive (ties
    keep head-major order); the surviving columns are still emitted in
    head-major order.
    """
    if head_view.n_cols == 0 or tail_view.n_cols == 0:
        raise ValueError("clusters must be nonempty")
    pairs = [(a, b) for a in range(head_view.n_cols) for b in range(tail_view.n_cols)]
    if len(pairs) > cap:
        mi_head, mi_tail = cache.mi(head_view), cache.mi(tail_view)
        scored = sorted(range(len(pairs)),
                        key=lambda p: (-(mi_head[pairs[p][0]] + mi_tail[pairs[p][1]]), p))
        pairs = [pairs[p] for p in sorted(scored[:cap])]
    columns: list[np.ndarray] = []
    metas: list[FeatureMeta] = []
    for a, b in pairs:
        expr = Binary(op, head_view.columns[a].lineage, tail_view.columns[b].lineage)
        if lineage_depth(expr) > max_depth:
            continue
        columns.append(safe_binary_value(op, head_view.column(a), tail_view.column(b)))
        metas.append(FeatureMeta.from_lineage(expr))
    return GeneratedBatch(columns, metas)


def dedup(batch: GeneratedBatch, fs: FeatureSet) -> GeneratedBatch:
    """Drop constant columns and columns value-equal (within 1e-12 elementwise)
    to an existing column or an earlier batch column."""
    kept_cols: list[np.ndarray] = []
    kept_metas: list[FeatureMeta] = []
    seen = [fs.values[:, i] for i in range(fs.n_cols)]
    first = np.empty(fs.n_cols + len(batch))  # each seen column's first entry
    first[:fs.n_cols] = fs.values[0]
    for col, meta in zip(batch.columns, batch.metas):
        if float(np.ptp(col)) <= _DEDUP_TOL:
            continue
        with np.errstate(over="ignore"):
            # only a column that matches in the first row can match in all
            near = np.flatnonzero(np.abs(col[0] - first[:len(seen)]) <= _DEDUP_TOL)
            duplicate = any(np.all(np.abs(col - seen[k]) <= _DEDUP_TOL) for k in near)
        if not duplicate:
            first[len(seen)] = col[0]
            seen.append(col)
            kept_cols.append(col)
            kept_metas.append(meta)
    return GeneratedBatch(kept_cols, kept_metas)


def select_features(fs: FeatureSet, max_size: int, cache: MICache) -> FeatureSet:
    """Keep the top ``max_size`` columns by MI with the target, read from the
    run's ``cache`` (ties keep the lower index); surviving columns preserve
    their relative order."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if fs.n_cols <= max_size:
        return fs
    scores = cache.mi(fs)
    ranked = sorted(range(fs.n_cols), key=lambda i: (-scores[i], i))
    return fs.take(sorted(ranked[:max_size]))


def generation_step(
    fs: FeatureSet,
    head: tuple[int, ...],
    op: str,
    tail: tuple[int, ...] | None,
    op_set: OperationSet,
    max_size: int,
    cache: MICache,
    cap: int = DEFAULT_CROSS_CAP,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[FeatureSet, GeneratedBatch]:
    """Apply/cross, dedup, append, then shrink back via feature selection.

    The kept batch columns are the step's new columns: each is hashed here,
    once, and the merged space carries ``fs.keys`` followed by theirs.  An
    empty post-dedup batch leaves the feature set unchanged (signaled by the
    empty batch, not an error).
    """
    head_view = cluster_columns(fs, head)
    if op_set.is_unary(op):
        batch = apply_unary(op, head_view, max_depth=max_depth)
    else:
        if tail is None:
            raise ValueError(f"binary operation {op!r} needs a tail cluster")
        tail_view = cluster_columns(fs, tail)
        batch = cross_binary(op, head_view, tail_view, cache, cap=cap, max_depth=max_depth)
    batch = dedup(batch, fs)
    if len(batch) == 0:
        return fs, batch
    values = np.concatenate([fs.values] + [c[:, None] for c in batch.columns], axis=1)
    keys = fs.keys + tuple(content_hash(c) for c in batch.columns)
    merged = fs.with_columns(values, tuple(fs.columns) + tuple(batch.metas), keys)
    if merged.n_cols > max_size:
        merged = select_features(merged, max_size, cache)
    return merged, batch
