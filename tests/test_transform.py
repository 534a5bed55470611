import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft.clustering import cluster_columns
from raft.dataset import (
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    default_bins,
    evaluate_lineage,
    lineage_depth,
)
from raft.info_metrics import MICache, mutual_information
from raft.transform import (
    GeneratedBatch,
    OperationSet,
    apply_unary,
    cross_binary,
    dedup,
    generation_step,
    select_features,
)
from oracles import dedup_oracle, random_feature_set


def make_fs(values, y=None, kind=TaskKind.REGRESSION, names=None):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    names = names or [f"f{i + 1}" for i in range(n)]
    cols = tuple(FeatureMeta.from_lineage(Ident(nm)) for nm in names)
    if y is None:
        y = np.linspace(0.0, 1.0, m)
    return FeatureSet(values, cols, Target(np.asarray(y), kind, "y"))


def run_cache(fs):
    """The MI cache a run on ``fs`` would hold: the default bin count."""
    return MICache(default_bins(fs.n_rows))


# ---------------------------------------------------------------------------
# OperationSet
# ---------------------------------------------------------------------------

def test_default_op_set_order():
    ops = OperationSet()
    assert ops.ops == ("square", "sqrt", "log", "+", "-", "*", "/")
    assert ops.index("+") == 3
    assert ops.is_unary("log") and not ops.is_unary("*")


def test_op_set_requires_binary():
    with pytest.raises(ValueError):
        OperationSet(unary=("square",), binary=())


def test_op_set_rejects_unknown():
    with pytest.raises(ValueError):
        OperationSet(unary=("cube",))
    with pytest.raises(ValueError):
        OperationSet(binary=("%",))


# ---------------------------------------------------------------------------
# apply_unary
# ---------------------------------------------------------------------------

def test_apply_unary_square_names_and_values():
    fs = make_fs([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    batch = apply_unary("square", fs)
    assert [m.name for m in batch.metas] == ["square(f1)", "square(f2)"]
    np.testing.assert_array_equal(batch.columns[0], [1.0, 9.0, 25.0])


def test_apply_unary_sqrt_safe():
    fs = make_fs([[-4.0], [9.0]])
    batch = apply_unary("sqrt", fs)
    np.testing.assert_array_equal(batch.columns[0], [2.0, 3.0])


def test_apply_unary_log_safe():
    fs = make_fs([[0.0], [math.e - 1.0]])
    batch = apply_unary("log", fs)
    np.testing.assert_allclose(batch.columns[0], [0.0, 1.0], atol=1e-15)


def test_apply_unary_respects_depth_bound():
    fs = make_fs([[1.0], [2.0]])
    deep = fs
    from raft.dataset import Unary, render

    expr = Ident("f1")
    for _ in range(5):
        expr = Unary("log", expr)
    meta = FeatureMeta.from_lineage(expr)
    deep = fs.with_columns(fs.values, (meta,))
    batch = apply_unary("square", deep, max_depth=6)
    assert len(batch) == 0  # depth 7 would exceed the bound


# ---------------------------------------------------------------------------
# cross_binary
# ---------------------------------------------------------------------------

def test_cross_plus_single_pair():
    fs = make_fs([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], names=["a", "b"])
    head = cluster_columns(fs, (0,))
    tail = cluster_columns(fs, (1,))
    batch = cross_binary("+", head, tail, run_cache(fs))
    assert [m.name for m in batch.metas] == ["(a + b)"]
    np.testing.assert_array_equal(batch.columns[0], [11.0, 22.0, 33.0])


def test_cross_head_major_order_and_count():
    fs = make_fs(np.arange(30.0).reshape(6, 5), names=list("abcde"))
    head = cluster_columns(fs, (0, 1))
    tail = cluster_columns(fs, (2, 3, 4))
    batch = cross_binary("-", head, tail, run_cache(fs), cap=10)
    assert len(batch) == 6
    assert [m.name for m in batch.metas] == [
        "(a - c)", "(a - d)", "(a - e)", "(b - c)", "(b - d)", "(b - e)",
    ]


def test_cross_cap_keeps_highest_mi_pairs():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=40).astype(float)
    informative = y + 0.01 * rng.standard_normal(40)
    noise1 = rng.standard_normal(40)
    noise2 = rng.standard_normal(40)
    fs = make_fs(np.column_stack([informative, noise1, noise2, y]), y=y,
                 names=["good", "n1", "n2", "copy"])
    head = cluster_columns(fs, (0, 1))   # good, n1
    tail = cluster_columns(fs, (2, 3))   # n2, copy
    batch = cross_binary("+", head, tail, MICache(4), cap=1)
    assert len(batch) == 1
    assert batch.metas[0].name == "(good + copy)"  # highest MI-sum pair survives


def test_cross_divide_safe():
    fs = make_fs([[1.0, 0.0], [4.0, 2.0], [9.0, 3.0]], names=["a", "b"])
    head = cluster_columns(fs, (0,))
    tail = cluster_columns(fs, (1,))
    batch = cross_binary("/", head, tail, run_cache(fs))
    np.testing.assert_array_equal(batch.columns[0], [0.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def test_dedup_drops_value_equal_columns():
    fs = make_fs([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], names=["a", "b"])
    head = cluster_columns(fs, (0,))
    tail = cluster_columns(fs, (1,))
    plus = cross_binary("+", head, tail, run_cache(fs))
    fs_with = fs.with_columns(
        np.concatenate([fs.values, plus.columns[0][:, None]], axis=1),
        fs.columns + tuple(plus.metas))
    swapped = cross_binary("+", tail, head, run_cache(fs))  # (b + a): value-equal to (a + b)
    kept = dedup(swapped, fs_with)
    assert len(kept) == 0


def test_dedup_drops_constant_columns():
    fs = make_fs([[1.0], [2.0], [3.0]])
    batch = apply_unary("square", fs)
    batch.columns[0] = np.full(3, 4.0)
    assert len(dedup(batch, fs)) == 0


def test_dedup_keeps_distinct():
    fs = make_fs([[1.0, 2.0], [3.0, 5.0], [5.0, 11.0]], names=["a", "b"])
    batch = apply_unary("square", fs)
    assert len(dedup(batch, fs)) == 2


def random_dedup_case(rng):
    """A feature set and a batch that mixes fresh columns, copies of earlier
    columns (existing or in the batch), near-copies and near-constant columns
    within a few ulps of the 1e-12 tolerance, and huge columns whose
    difference from the opposite-signed huge existing column overflows."""
    m = int(rng.integers(2, 20))

    def grid():
        v = rng.integers(-8, 9, size=m) / 4.0  # exact, often 0
        if rng.random() < 0.5:
            v[0] = 0.0  # a first-row difference is then exactly the shift
        return v

    existing = [grid() for _ in range(int(rng.integers(1, 5)))]
    existing.append(-rng.uniform(1.0e308, 1.7e308, m))
    tol = np.float64(1e-12)
    deltas = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 2.0 * tol, tol / 2.0]
    batch: list[np.ndarray] = []
    for _ in range(int(rng.integers(1, 30))):
        earlier = existing + batch
        moderate = [c for c in earlier if np.max(np.abs(c)) < 1e300]
        delta = deltas[int(rng.integers(0, len(deltas)))]
        kind = int(rng.integers(0, 5))
        if kind == 0:
            col = grid()
        elif kind == 1:
            col = earlier[int(rng.integers(0, len(earlier)))].copy()
        elif kind == 2:
            shift = rng.choice([0.0, delta, -delta], size=m)
            shift[0] = delta
            col = moderate[int(rng.integers(0, len(moderate)))] + shift
        elif kind == 3:
            col = np.full(m, grid()[0]) + rng.choice([0.0, delta], size=m)
        else:
            col = rng.uniform(1.0e308, 1.7e308, m)
        batch.append(col)
    fs = make_fs(np.column_stack(existing))
    metas = [FeatureMeta.from_lineage(Ident(f"g{i}")) for i in range(len(batch))]
    return fs, GeneratedBatch(batch, metas)


@pytest.mark.parametrize("seed", range(100))
def test_dedup_matches_per_column_oracle(seed):
    fs, batch = random_dedup_case(np.random.default_rng(seed))
    got = dedup(batch, fs)
    want = dedup_oracle(batch, fs)
    assert [meta.name for meta in got.metas] == [meta.name for meta in want.metas]
    assert len(got.columns) == len(want.columns)
    for a, b in zip(got.columns, want.columns):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# select_features
# ---------------------------------------------------------------------------

def test_select_identity_when_under_cap():
    rng = np.random.default_rng(1)
    fs = random_feature_set(rng, 20, 5)
    assert select_features(fs, 10, run_cache(fs)) is fs


def test_select_keeps_top_mi_in_original_order():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=60).astype(float)
    strong = y.copy()
    weak = rng.standard_normal(60)
    medium = np.where(rng.random(60) < 0.8, y, 1 - y) + 0.0
    fs = make_fs(np.column_stack([strong, weak, medium]), y=y,
                 names=["strong", "weak", "medium"])
    bins = 4
    scores = [mutual_information(fs.column(i), y, bins) for i in range(3)]
    assert scores[0] > scores[2] > scores[1]
    kept = select_features(fs, 2, MICache(bins))
    assert kept.names() == ["strong", "medium"]


def test_select_tie_break_prefers_lower_index():
    y = np.array([0.0, 1, 0, 1, 0, 1])
    col = np.array([5.0, 6, 5, 6, 5, 6])
    noise = np.array([0.9, 1.4, 1.1, 0.2, 0.5, 0.7])
    fs = make_fs(np.column_stack([noise, col, col + 1.0]), y=y,
                 names=["n", "first", "second"])
    # columns 1 and 2 have identical MI with y; the cut keeps the lower index
    kept = select_features(fs, 1, MICache(2))
    assert kept.names() == ["first"]


def test_select_output_is_subsequence():
    rng = np.random.default_rng(3)
    fs = random_feature_set(rng, 30, 8)
    kept = select_features(fs, 4, run_cache(fs))
    names = fs.names()
    kept_names = kept.names()
    positions = [names.index(nm) for nm in kept_names]
    assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# generation_step
# ---------------------------------------------------------------------------

def test_generation_step_unary_grows_by_head_size():
    rng = np.random.default_rng(4)
    fs = random_feature_set(rng, 25, 4)
    out, batch = generation_step(fs, (0, 2), "square", None, OperationSet(),
                                 max_size=100, cache=run_cache(fs))
    assert len(batch) == 2
    assert out.n_cols == 6


def test_generation_step_respects_max_size():
    rng = np.random.default_rng(5)
    fs = random_feature_set(rng, 25, 4)
    out, _ = generation_step(fs, (0, 1), "*", (2, 3), OperationSet(), max_size=5,
                             cache=run_cache(fs))
    assert out.n_cols == 5


def test_generation_step_duplicate_only_batch_is_noop():
    rng = np.random.default_rng(6)
    fs = random_feature_set(rng, 25, 2)
    cache = run_cache(fs)
    out1, batch1 = generation_step(fs, (0, 1), "square", None, OperationSet(),
                                   max_size=100, cache=cache)
    out2, batch2 = generation_step(out1, (0, 1), "square", None, OperationSet(),
                                   max_size=100, cache=cache)
    assert len(batch2) == 0
    assert out2 is out1


def test_generation_step_binary_requires_tail():
    rng = np.random.default_rng(7)
    fs = random_feature_set(rng, 25, 3)
    with pytest.raises(ValueError, match="tail"):
        generation_step(fs, (0,), "+", None, OperationSet(), max_size=10,
                        cache=run_cache(fs))


# ---------------------------------------------------------------------------
# lineage round trip + finiteness properties
# ---------------------------------------------------------------------------

def test_generated_columns_round_trip_through_lineage():
    rng = np.random.default_rng(8)
    fs0 = random_feature_set(rng, 30, 4)
    originals = fs0.original_columns()
    cache = run_cache(fs0)
    fs, _ = generation_step(fs0, (0, 1), "*", (2, 3), OperationSet(), max_size=50, cache=cache)
    fs, _ = generation_step(fs, (0, 2), "sqrt", None, OperationSet(), max_size=50, cache=cache)
    fs, _ = generation_step(fs, (1, 3), "/", (0, 2), OperationSet(), max_size=50, cache=cache)
    for i, meta in enumerate(fs.columns):
        recomputed = evaluate_lineage(meta.lineage, originals)
        np.testing.assert_array_equal(recomputed, fs.values[:, i],
                                      err_msg=f"column {meta.name}")


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                min_size=4, max_size=12),
       st.sampled_from(["square", "sqrt", "log"]),
       st.sampled_from(["+", "-", "*", "/"]))
@settings(max_examples=60, deadline=None)
def test_generated_values_always_finite(data, unary_op, binary_op):
    m = len(data)
    col = np.array(data)
    values = np.column_stack([col, np.linspace(-1.0, 1.0, m), np.zeros(m)])
    fs = make_fs(values, y=np.linspace(0.0, 1.0, m))
    cache = run_cache(fs)
    out, _ = generation_step(fs, (0,), unary_op, None, OperationSet(), max_size=50, cache=cache)
    assert np.all(np.isfinite(out.values))
    out2, _ = generation_step(out, (0,), binary_op, (1, 2), OperationSet(), max_size=50,
                              cache=cache)
    assert np.all(np.isfinite(out2.values))


def test_generated_depth_bounded():
    rng = np.random.default_rng(9)
    fs = random_feature_set(rng, 20, 3)
    cache = run_cache(fs)
    for i in range(12):
        op = ("square", "+", "log", "*")[i % 4]
        tail = (1,) if op in ("+", "*") else None
        fs, _ = generation_step(fs, (0,), op, tail, OperationSet(), max_size=20, cache=cache,
                                max_depth=4)
    assert max(lineage_depth(meta.lineage) for meta in fs.columns) <= 4
