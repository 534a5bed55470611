import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft.dataset import (
    BINARY_OPS,
    OPS,
    UNARY_OPS,
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    Unary,
    content_hash,
    default_bins,
    evaluate_lineage,
    lineage_depth,
)
from raft.info_metrics import MICache
from raft.transform import (
    CROSS_CAP,
    MAX_LINEAGE_DEPTH,
    apply_unary,
    cross_binary,
    dedup,
    generation_step,
)
from oracles import (appended_then_selected_oracle, dedup_oracle, random_feature_set,
                     select_features)


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
# the operation set
# ---------------------------------------------------------------------------

def test_default_op_set_order():
    assert OPS == UNARY_OPS + BINARY_OPS == ("square", "sqrt", "log", "+", "-", "*", "/")
    assert OPS.index("+") == 3


# ---------------------------------------------------------------------------
# apply_unary
# ---------------------------------------------------------------------------

def test_apply_unary_square_names_and_values():
    fs = make_fs([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    batch = apply_unary("square", fs)
    assert [m.name for _, m in batch] == ["square(f1)", "square(f2)"]
    np.testing.assert_array_equal(batch[0][0], [1.0, 9.0, 25.0])


def test_apply_unary_sqrt_safe():
    fs = make_fs([[-4.0], [9.0]])
    batch = apply_unary("sqrt", fs)
    np.testing.assert_array_equal(batch[0][0], [2.0, 3.0])


def test_apply_unary_log_safe():
    fs = make_fs([[0.0], [math.e - 1.0]])
    batch = apply_unary("log", fs)
    np.testing.assert_allclose(batch[0][0], [0.0, 1.0], atol=1e-15)


def test_apply_unary_respects_depth_bound():
    fs = make_fs([[1.0, 2.0], [2.0, 5.0]])
    expr = Ident("f1")
    for _ in range(MAX_LINEAGE_DEPTH - 2):
        expr = Unary("log", expr)
    shallow = FeatureMeta.from_lineage(expr)  # depth MAX_LINEAGE_DEPTH - 1
    deep = FeatureMeta.from_lineage(Unary("log", expr))  # depth MAX_LINEAGE_DEPTH
    assert [lineage_depth(m.lineage) for m in (shallow, deep)] == [MAX_LINEAGE_DEPTH - 1,
                                                                    MAX_LINEAGE_DEPTH]
    batch = apply_unary("square", fs.with_columns(fs.values, (shallow, deep)))
    # the deep column's square would exceed the bound
    assert [m.lineage for _, m in batch] == [Unary("square", shallow.lineage)]


# ---------------------------------------------------------------------------
# cross_binary
# ---------------------------------------------------------------------------

def test_cross_plus_single_pair():
    fs = make_fs([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], names=["a", "b"])
    head = fs.take((0,))
    tail = fs.take((1,))
    batch = cross_binary("+", head, tail, run_cache(fs))
    assert [m.name for _, m in batch] == ["(a + b)"]
    np.testing.assert_array_equal(batch[0][0], [11.0, 22.0, 33.0])


def test_cross_head_major_order_and_count():
    fs = make_fs(np.arange(30.0).reshape(6, 5), names=list("abcde"))
    head = fs.take((0, 1))
    tail = fs.take((2, 3, 4))
    batch = cross_binary("-", head, tail, run_cache(fs))
    assert len(batch) == 6
    assert [m.name for _, m in batch] == [
        "(a - c)", "(a - d)", "(a - e)", "(b - c)", "(b - d)", "(b - e)",
    ]


def test_cross_cap_keeps_highest_mi_pairs():
    # 9 x 8 pairs exceed CROSS_CAP by the 8 of the constant head column, whose
    # MI with y is 0; every other column is y rescaled or shifted, so their MI
    # is y's entropy
    assert CROSS_CAP == 64
    y = np.random.default_rng(0).integers(0, 2, size=40).astype(float)
    head = [np.ones(40)] + [k * y for k in range(1, 9)]
    tail = [y + k for k in range(1, 9)]
    names = ["c"] + [f"h{i}" for i in range(1, 9)] + [f"t{j}" for j in range(1, 9)]
    fs = make_fs(np.column_stack(head + tail), y=y, names=names)
    batch = cross_binary("+", fs.take(range(9)), fs.take(range(9, 17)), MICache(4))
    # the highest MI sums survive, in head-major order
    assert [m.name for _, m in batch] == [f"(h{i} + t{j})" for i in range(1, 9)
                                             for j in range(1, 9)]


def test_cross_divide_safe():
    fs = make_fs([[1.0, 0.0], [4.0, 2.0], [9.0, 3.0]], names=["a", "b"])
    head = fs.take((0,))
    tail = fs.take((1,))
    batch = cross_binary("/", head, tail, run_cache(fs))
    np.testing.assert_array_equal(batch[0][0], [0.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def test_dedup_drops_value_equal_columns():
    fs = make_fs([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], names=["a", "b"])
    head = fs.take((0,))
    tail = fs.take((1,))
    plus = cross_binary("+", head, tail, run_cache(fs))
    fs_with = fs.with_columns(
        np.concatenate([fs.values, plus[0][0][:, None]], axis=1),
        fs.columns + (plus[0][1],))
    swapped = cross_binary("+", tail, head, run_cache(fs))  # (b + a): value-equal to (a + b)
    kept = dedup(swapped, fs_with)
    assert len(kept) == 0


def test_dedup_drops_constant_columns():
    fs = make_fs([[1.0], [2.0], [3.0]])
    batch = apply_unary("square", fs)
    batch[0] = (np.full(3, 4.0), batch[0][1])
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
    return fs, list(zip(batch, metas))


@pytest.mark.parametrize("seed", range(100))
def test_dedup_matches_per_column_oracle(seed):
    fs, batch = random_dedup_case(np.random.default_rng(seed))
    got = dedup(batch, fs)
    want = dedup_oracle(batch, fs)
    assert [meta.name for _, meta in got] == [meta.name for _, meta in want]
    assert len(got) == len(want)
    for (a, _), (b, _) in zip(got, want):
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
    scores = MICache(bins).mi(fs.values.T, fs.keys, fs.target)
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
    head = fs.take((0, 2))
    out = generation_step(fs, head, "square", head, max_size=100, cache=run_cache(fs))
    assert len(dedup(apply_unary("square", head), fs)) == 2
    assert out.n_cols == 6


def test_generation_step_respects_max_size():
    rng = np.random.default_rng(5)
    fs = random_feature_set(rng, 25, 4)
    out = generation_step(fs, fs.take((0, 1)), "*", fs.take((2, 3)), max_size=5,
                          cache=run_cache(fs))
    assert out.n_cols == 5


def test_generation_step_duplicate_only_batch_is_noop():
    rng = np.random.default_rng(6)
    fs = random_feature_set(rng, 25, 2)
    cache = run_cache(fs)
    head = fs.take((0, 1))
    out1 = generation_step(fs, head, "square", head, max_size=100, cache=cache)
    head = out1.take((0, 1))
    out2 = generation_step(out1, head, "square", head, max_size=100, cache=cache)
    assert len(dedup(apply_unary("square", head), out1)) == 0
    assert out2 is out1


def test_generation_step_assembles_a_column_major_space_on_both_branches():
    rng = np.random.default_rng(31)
    fs = random_feature_set(rng, 30, 4)
    for max_size in (100, 5):  # every column kept, then a selection past max_size
        head, tail, cache = fs.take((0, 1)), fs.take((2, 3)), run_cache(fs)
        out = generation_step(fs, head, "*", tail, max_size, cache)
        batch = dedup(cross_binary("*", head, tail, cache), fs)
        assert out.n_cols == min(max_size, fs.n_cols + len(batch)) > 1
        assert out.values.flags.f_contiguous and not out.values.flags.writeable


def step_and_oracle(fs, head, op, tail, max_size, warm):
    """One ``generation_step`` beside its frozen oracle: the batch generated
    again on its own cache, appended and then selected.  Checks the values'
    bytes and layout, the names and the keys, and returns the oracle's batch
    and the MI of the appended space's columns.  A unary op's ``tail`` is
    None: it reads no tail, and is handed the head's view."""
    bins = default_bins(fs.n_rows)
    cache = MICache(bins)
    if warm:  # as in a search, where clustering has read every column's MI
        cache.mi(fs.values.T, fs.keys, fs.target)
    head_view = fs.take(head)
    tail_view = head_view if tail is None else fs.take(tail)
    out = generation_step(fs, head_view, op, tail_view, max_size, cache)
    batch = dedup(apply_unary(op, head_view) if op in UNARY_OPS else
                  cross_binary(op, head_view, tail_view, MICache(bins)), fs)
    want = appended_then_selected_oracle(fs, batch, max_size, bins)
    assert out.values.tobytes() == want.values.tobytes()
    assert out.values.strides == want.values.strides
    assert out.names() == want.names()
    assert out.keys == want.keys == tuple(content_hash(c) for c in want.values.T)
    columns = [*fs.values.T, *(col for col, _ in batch)]
    scores = MICache(bins).mi(columns, [content_hash(c) for c in columns], fs.target)
    return batch, scores


@st.composite
def step_cases(draw):
    m, n = draw(st.integers(4, 24)), draw(st.integers(1, 5))
    # small integers give equal MI labels, duplicates and constant columns
    cell = draw(st.sampled_from([st.integers(-2, 2).map(float),
                                 st.floats(-1e3, 1e3, allow_nan=False)]))
    values = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
        kind = TaskKind.CLASSIFICATION
    else:
        y = np.array(draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=m, max_size=m)))
        kind = TaskKind.REGRESSION
    groups = st.sets(st.integers(0, n - 1), min_size=1).map(lambda g: tuple(sorted(g)))
    head, tail = draw(groups), draw(groups)
    return (make_fs(values, y, kind), head, draw(st.sampled_from(OPS)), tail,
            draw(st.integers(1, n + len(head) * len(tail) + 1)), draw(st.booleans()))


@given(step_cases())
@settings(max_examples=150, deadline=None)
def test_generation_step_equals_appending_then_selecting(case):
    step_and_oracle(*case)


_TIED = np.column_stack([np.tile([1.0, 2.0], 6), np.repeat([1.0, 3.0, 1.0], 4)])
_TIED_Y = np.tile([0, 1], 6)


@pytest.mark.parametrize("op, tail, max_size, exceeded", [
    ("square", None, 1, True),   # square keeps each label: a tie at the cut
    ("square", None, 3, True),
    ("square", None, 4, False),
    ("*", (1,), 2, True),
    ("-", (0, 1), 9, False),
])
def test_generation_step_equals_the_oracle_on_ties(op, tail, max_size, exceeded):
    fs = make_fs(_TIED, _TIED_Y, TaskKind.CLASSIFICATION)
    for warm in (False, True):
        batch, scores = step_and_oracle(fs, (0, 1), op, tail, max_size, warm)
        assert len(batch) > 0
        assert (fs.n_cols + len(batch) > max_size) is exceeded
        if op == "square":  # each generated column ties with its source
            assert scores[2:] == scores[:2] and scores[0] != scores[1]


def test_generation_step_equals_the_oracle_on_an_empty_batch():
    fs = make_fs(np.column_stack([_TIED[:, 0], _TIED[:, 0] ** 2, np.ones(12)]), _TIED_Y,
                 TaskKind.CLASSIFICATION)
    for op, tail in (("square", None), ("*", (2,))):  # a duplicate, and one times a constant
        batch, _ = step_and_oracle(fs, (0,), op, tail, 1, False)
        assert len(batch) == 0


# measured 2111 KiB with numpy 2.4.6 (4124 KiB when the step appended all 64
# columns before selecting); the bound leaves 10% headroom
def test_one_generation_step_stays_within_its_memory_bound():
    fs = random_feature_set(np.random.default_rng(29), 2000, 16)
    cache = run_cache(fs)
    cache.mi(fs.values.T, fs.keys, fs.target)  # as clustering does before each step
    tracemalloc.start()
    try:
        out = generation_step(fs, fs.take(range(8)), "*", fs.take(range(8, 16)), 32, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = dedup(cross_binary("*", fs.take(range(8)), fs.take(range(8, 16)), cache), fs)
    assert (len(batch), out.n_cols) == (64, 32)
    assert peak <= 2330 * 1024


# ---------------------------------------------------------------------------
# lineage round trip + finiteness properties
# ---------------------------------------------------------------------------

def test_generated_columns_round_trip_through_lineage():
    rng = np.random.default_rng(8)
    fs0 = random_feature_set(rng, 30, 4)
    originals = fs0.original_columns()
    cache = run_cache(fs0)
    fs = generation_step(fs0, fs0.take((0, 1)), "*", fs0.take((2, 3)), max_size=50, cache=cache)
    fs = generation_step(fs, fs.take((0, 2)), "sqrt", fs.take((0, 2)), max_size=50, cache=cache)
    fs = generation_step(fs, fs.take((1, 3)), "/", fs.take((0, 2)), max_size=50, cache=cache)
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
    out = generation_step(fs, fs.take((0,)), unary_op, fs.take((0,)), max_size=50, cache=cache)
    assert np.all(np.isfinite(out.values))
    out2 = generation_step(out, out.take((0,)), binary_op, out.take((1, 2)), max_size=50,
                           cache=cache)
    assert np.all(np.isfinite(out2.values))


def test_generated_depth_bounded():
    # each step takes the deepest column as its head, so one step deepens the
    # space by one until MAX_LINEAGE_DEPTH, and a step past it generates nothing
    rng = np.random.default_rng(9)
    fs = random_feature_set(rng, 20, 3)
    cache = run_cache(fs)
    depths, sizes = [], []
    for i in range(MAX_LINEAGE_DEPTH + 3):
        op = ("square", "+", "log", "*")[i % 4]
        depth = [lineage_depth(meta.lineage) for meta in fs.columns]
        fs_next = generation_step(fs, fs.take((depth.index(max(depth)),)), op, fs.take((1,)),
                                  max_size=20, cache=cache)
        depths.append(max(lineage_depth(meta.lineage) for meta in fs_next.columns))
        sizes.append(fs_next.n_cols - fs.n_cols)
        fs = fs_next
    assert depths == [*range(2, MAX_LINEAGE_DEPTH + 1)] + [MAX_LINEAGE_DEPTH] * 4
    assert sizes == [1] * (MAX_LINEAGE_DEPTH - 1) + [0] * 4
