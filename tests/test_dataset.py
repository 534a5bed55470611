import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft import dataset
from raft.dataset import (
    BINARY_OPS,
    OPS,
    TRAIN_FRACTION,
    UNARY_OPS,
    Binary,
    DatasetError,
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    Unary,
    content_hash,
    discretize,
    evaluate_lineage,
    linear_quantiles,
    lineage_depth,
    load_csv,
    parse_lineage,
    render,
    safe_binary_value,
    safe_unary_value,
    split_train_valid,
    write_csv,
)
from raft.info_metrics import MICache
from raft.transform import MAX_LINEAGE_DEPTH
from oracles import column_bins, discretize_oracle, discretize_quantile_oracle, split_oracle


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_csv_basic(tmp_path):
    p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    fs = load_csv(p, "y")
    assert fs.n_rows == 4 and fs.n_cols == 2
    assert fs.target.kind is TaskKind.CLASSIFICATION
    assert fs.target.class_counts.tolist() == [2, 2]
    assert fs.names() == ["a", "b"]
    np.testing.assert_array_equal(fs.values[:, 0], [1, 3, 5, 7])


def test_load_csv_missing_target_column(tmp_path):
    p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n3,4,1\n")
    with pytest.raises(DatasetError, match="target column 'z' not found"):
        load_csv(p, "z")


def test_load_csv_non_numeric_cell_reports_location(tmp_path):
    p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n3,abc,1\n")
    with pytest.raises(DatasetError, match=r"row 3, column 'b'"):
        load_csv(p, "y")


def test_load_csv_error_names_the_file_line_past_blank_lines(tmp_path):
    p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n\n\n3,x,1\n")
    with pytest.raises(DatasetError, match=r"row 5, column 'b': non-numeric value 'x'"):
        load_csv(p, "y")
    p = write(tmp_path / "e.csv", "a,b,y\n\n1,2,0\n3,1\n")
    with pytest.raises(DatasetError, match=r"row 4: expected 3 cells, got 2"):
        load_csv(p, "y")


@pytest.mark.parametrize("cell", ["1e400", "inf", "-Infinity", "-nan"])
def test_load_csv_non_finite_cell_reports_location(tmp_path, cell):
    # a feature cell, then a target cell
    for column, row in (("b", f"3,{cell},1"), ("y", f"3,4,{cell}")):
        p = write(tmp_path / "d.csv", f"a,b,y\n1,2,0\n{row}\n5,6,1\n")
        with pytest.raises(DatasetError,
                           match=rf"^row 3, column '{column}': non-finite value '{cell}'$"):
            load_csv(p, "y")


def test_load_csv_categorical_target_may_hold_inf_among_words(tmp_path):
    p = write(tmp_path / "d.csv", "a,y\n1,cat\n2,inf\n3,dog\n4,inf\n")
    fs = load_csv(p, "y")
    assert fs.target.kind is TaskKind.CLASSIFICATION
    np.testing.assert_array_equal(fs.target.values, [0, 2, 1, 2])


# a regression target, a 0/1 target and a missing-value token as the target cell
@pytest.mark.parametrize("target, cell", [("0.5", ""), ("1", ""), ("1", "nan"), ("1", " NA ")])
@pytest.mark.parametrize("impute", [None, "median"])
def test_a_missing_target_cell_is_a_data_error(tmp_path, target, cell, impute):
    rows = "".join(f"{i},{target if target == '1' else i / 7!r}\n" for i in range(1, 4))
    p = write(tmp_path / "d.csv", f"a,y\n0,0\n{rows}4,{cell}\n")
    with pytest.raises(DatasetError, match=r"^row 6: missing target value \(never imputed\)$"):
        load_csv(p, "y", impute=impute)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="no such file"):
        load_csv(tmp_path / "nope.csv", "y")


def test_load_csv_duplicate_headers(tmp_path):
    p = write(tmp_path / "d.csv", "a,a,y\n1,2,0\n3,4,1\n")
    with pytest.raises(DatasetError, match="duplicate header"):
        load_csv(p, "y")


@pytest.mark.parametrize("header, target", [
    ("x0,x1,x2,x3,label,label", "label"),  # the first would be a float regression target
    ("x0,x1,x2,x3,lab el,lab_el", "lab_el"),  # written out, both columns read `lab_el`
])
def test_load_csv_rejects_a_feature_named_like_the_target(tmp_path, header, target):
    rows = [f"{i}.5,{i},{2 * i},{i % 3}.25,{i % 2}.5,{i % 2}" for i in range(8)]
    p = write(tmp_path / "d.csv", "\n".join([header] + rows) + "\n")
    with pytest.raises(DatasetError, match="target's name"):
        load_csv(p, target)


def test_load_csv_constant_target(tmp_path):
    p = write(tmp_path / "d.csv", "a,y\n1,5\n2,5\n3,5\n")
    with pytest.raises(DatasetError, match="constant target"):
        load_csv(p, "y")


@pytest.mark.parametrize("distinct, kind", [
    (2, TaskKind.CLASSIFICATION), (dataset.MAX_DISCRETE_LABELS, TaskKind.CLASSIFICATION),
    (dataset.MAX_DISCRETE_LABELS + 1, TaskKind.REGRESSION)])
def test_an_integer_target_holds_classes_up_to_the_label_cap(tmp_path, distinct, kind):
    # each value three times, shuffled: the cap counts distinct values, not rows
    y = np.random.default_rng(0).permutation(np.repeat(7 * np.arange(distinct) - 40, 3))
    p = write(tmp_path / "d.csv", "a,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate(y)))
    target = load_csv(p, "y").target
    assert target.kind is kind
    if kind is TaskKind.CLASSIFICATION:
        np.testing.assert_array_equal(target.class_counts, np.full(distinct, 3))


def test_load_csv_spaces_in_headers_become_underscores(tmp_path):
    p = write(tmp_path / "d.csv", "residual sugar,y\n1,0.5\n2,1.5\n3,0.25\n")
    fs = load_csv(p, "y")
    assert fs.names() == ["residual_sugar"]
    assert fs.target.kind is TaskKind.REGRESSION


def test_load_csv_lineage_headers_round_trip(tmp_path):
    p = write(tmp_path / "d.csv",
              "a,(a - b),log((a * b)),y\n1,2,3,0.5\n2,3,4,1.5\n3,4,5,0.25\n")
    fs = load_csv(p, "y")
    assert fs.names() == ["a", "(a - b)", "log((a * b))"]
    assert fs.columns[1].lineage == Binary("-", Ident("a"), Ident("b"))
    assert [meta.is_original for meta in fs.columns] == [True, False, False]
    out = tmp_path / "copy.csv"
    write_csv(fs, out)
    assert load_csv(out, "y").columns == fs.columns


def test_load_csv_drops_a_byte_order_mark_from_any_header(tmp_path):
    p = write(tmp_path / "d.csv", "\ufeffa,\ufeff b,y\n1,2,0.5\n2,3,1.5\n3,5,0.25\n")
    fs = load_csv(p, "y")
    assert fs.names() == ["a", "b"]
    out = tmp_path / "copy.csv"
    write_csv(fs.take([1, 0]), out)  # the second header is now written first
    assert load_csv(out, "y").names() == ["b", "a"]


@pytest.mark.parametrize("header", ["(a)", "(a -  b)", " (a - b)", "f(x)", "(" * 5000 + "a"])
def test_load_csv_rejects_parentheses_outside_lineage(tmp_path, header):
    p = write(tmp_path / "d.csv", f'"{header}",y\n1,0.5\n2,1.5\n3,0.25\n')
    with pytest.raises(DatasetError, match="parentheses"):
        load_csv(p, "y")


def test_load_csv_task_override(tmp_path):
    p = write(tmp_path / "d.csv", "a,y\n1,0\n2,1\n3,0\n4,1\n")
    fs = load_csv(p, "y", task=TaskKind.REGRESSION)
    assert fs.target.kind is TaskKind.REGRESSION


def test_load_csv_categorical_target(tmp_path):
    p = write(tmp_path / "d.csv", "a,y\n1,cat\n2,dog\n3,cat\n")
    fs = load_csv(p, "y")
    assert fs.target.kind is TaskKind.CLASSIFICATION
    np.testing.assert_array_equal(fs.target.values, [0, 1, 0])


def test_load_csv_missing_cells_rejected_then_imputed(tmp_path):
    p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n,4,1\n5,6,0\n")
    with pytest.raises(DatasetError, match="missing value"):
        load_csv(p, "y")
    fs = load_csv(p, "y", impute="median")
    assert fs.values[1, 0] == 3.0  # median of 1, 5


def test_median_imputation_of_huge_values_does_not_overflow(tmp_path):
    big = float(np.finfo(np.float64).max)
    p = write(tmp_path / "d.csv", f"a,y\n,0\n0.0,1\n{big!r},0\n{big!r},1\n{big / 2!r},0\n")
    fs = load_csv(p, "y", impute="median")
    assert fs.values[0, 0] == big * 0.75  # halfway between big / 2 and big


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_median_imputation_of_one_infinite_value_is_a_data_error(tmp_path, cell):
    p = write(tmp_path / "d.csv", f"a,y\n,0\n{cell},1\n")
    with pytest.raises(DatasetError, match="finite"):
        load_csv(p, "y", impute="median")


def test_write_then_load_is_identity(tmp_path):
    rng = np.random.default_rng(3)
    p = write(
        tmp_path / "d.csv",
        "a,b,y\n" + "\n".join(
            f"{repr(rng.standard_normal())},{repr(rng.standard_normal())},{repr(rng.standard_normal())}"
            for _ in range(8)
        ) + "\n",
    )
    fs = load_csv(p, "y")
    out = tmp_path / "copy.csv"
    write_csv(fs, out)
    fs2 = load_csv(out, "y")
    assert fs2.names() == fs.names()
    np.testing.assert_array_equal(fs2.values, fs.values)
    np.testing.assert_array_equal(fs2.target.values, fs.target.values)


def loaded(path, impute=None):
    """What ``load_csv`` makes of a file, bit for bit, or its error message."""
    try:
        fs = load_csv(path, "y", impute=impute)
    except DatasetError as exc:
        return "error", str(exc)
    return (fs.names(), fs.values.shape, fs.values.tobytes(), fs.target.kind,
            fs.target.values.dtype, fs.target.values.tobytes())


def loaded_per_cell(path, impute=None):
    with mock.patch.object(dataset, "_numeric_cells", lambda fh, width: None):
        return loaded(path, impute)


def test_a_plain_numeric_file_takes_the_one_call_path(tmp_path):
    p = write(tmp_path / "d.csv", 'a,b,y\n1.5, -2e3 ,0\n"3",4,1\n\n5,6,0\n')
    real, returned = dataset._numeric_cells, []

    def recording(fh, width):
        returned.append(real(fh, width))
        return returned[-1]

    with mock.patch.object(dataset, "_numeric_cells", recording):
        got = loaded(p)
    assert returned[0].shape == (3, 3)
    assert got == loaded_per_cell(p)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_NUMBER = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: f"{v:e}"),
    FINITE.map(lambda v: f"{v:.3E}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
NUMBER_CELL = st.one_of(
    PLAIN_NUMBER,
    PLAIN_NUMBER.map(lambda t: f'"{t}"'),
    PLAIN_NUMBER.map(lambda t: f" {t} "),
    PLAIN_NUMBER.map(lambda t: f'" {t}"'),
)
ODD_CELL = st.one_of(
    st.sampled_from(["", " ", "na", "NA", "nan", "NaN", "null", "None", "inf", "-inf",
                     "Infinity", "1e999", "red", '""', '"1,5"', "0x10"]),
    st.integers(0, 10 ** 7).map(lambda i: f"{i:_}"),  # 1_000: Python's float reads it
)


@st.composite
def csv_texts(draw):
    """CSV text whose data cells are mostly plain numbers, with a few odd
    cells, a possibly categorical or constant target, a ragged row, blank
    lines, either line ending and an optional byte-order mark."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    target = draw(st.sampled_from([
        st.sampled_from(["0", "1", "2"]), st.sampled_from(["cat", "dog"]), PLAIN_NUMBER,
        st.just("7")]))
    rows = [[draw(NUMBER_CELL) for _ in range(n)] + [draw(target)] for _ in range(m)]
    if m:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n))
            rows[r][c] = draw(ODD_CELL)
        if draw(st.integers(0, 9)) == 0:
            r = draw(st.integers(0, m - 1))
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    lines = [",".join([f"x{j}" for j in range(n)] + ["y"])] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


@given(csv_texts(), st.sampled_from([None, "median"]))
@settings(max_examples=300, deadline=None)
def test_one_call_and_per_cell_ingest_agree(tmp_path_factory, text, impute):
    # the same FeatureSet bits, or the same DatasetError message
    p = tmp_path_factory.mktemp("ingest") / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    assert loaded(p, impute) == loaded_per_cell(p, impute)


def test_write_then_load_keeps_extreme_values_bit_for_bit(tmp_path):
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    values = np.array([[big, -0.0], [-big, tiny], [0.0, -tiny], [1e-310, 3 * tiny],
                       [-1e-320, 2.5e-308], [5e-324, -big]])
    cols = (FeatureMeta.from_lineage(Ident("a")), FeatureMeta.from_lineage(Ident("b")))
    target = Target(np.array([-0.0, big, -big, tiny, 1.5, -tiny]), TaskKind.REGRESSION, "y")
    out = tmp_path / "extreme.csv"
    write_csv(FeatureSet(values, cols, target), out)
    got = loaded(out)
    assert got == loaded_per_cell(out)
    assert got[2] == values.tobytes() and got[5] == target.values.tobytes()


# ---------------------------------------------------------------------------
# FeatureSet invariants
# ---------------------------------------------------------------------------

def test_feature_set_rejects_nan():
    target = Target(np.array([0.0, 1.0, 2.0]), TaskKind.REGRESSION, "y")
    cols = (FeatureMeta.from_lineage(Ident("a")),)
    with pytest.raises(DatasetError, match="finite"):
        FeatureSet(np.array([[1.0], [np.nan], [3.0]]), cols, target)


def test_feature_meta_name_is_the_lineage_rendering():
    expr = Binary("+", Unary("square", Ident("a")), Ident("b"))
    for lineage in (Ident("a"), expr):
        meta = FeatureMeta(lineage)
        assert meta.name == render(lineage)
        assert meta.is_original is isinstance(lineage, Ident)


def test_feature_set_key_is_its_content_identity():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 3))
    cols = tuple(FeatureMeta.from_lineage(Ident(f"c{i}")) for i in range(3))
    target = Target(np.arange(6.0), TaskKind.REGRESSION, "y")
    fs = FeatureSet(values, cols, target)
    assert fs.keys == tuple(content_hash(values[:, j]) for j in range(3))
    assert fs.key is fs.key  # computed once
    # equal for equal columns in order, however the set was made
    assert FeatureSet(values.copy(), cols, target).key == fs.key
    view = fs.take([0, 2])  # hands the parent's keys on
    assert view.keys == (fs.keys[0], fs.keys[2])
    assert view.key == FeatureSet(values[:, [0, 2]], view.columns, target).key
    # different when the columns are reordered or the rows subset
    assert fs.with_columns(values[:, ::-1], cols[::-1]).key != fs.key
    assert fs.subset_rows(np.arange(5)).key != fs.key
    assert fs.subset_rows(np.arange(5)).keys == tuple(content_hash(values[:5, j]) for j in range(3))


def test_feature_set_values_are_read_only():
    values = np.arange(8.0).reshape(4, 2)
    cols = (FeatureMeta.from_lineage(Ident("a")), FeatureMeta.from_lineage(Ident("b")))
    fs = FeatureSet(values, cols, Target(np.arange(4.0), TaskKind.REGRESSION, "y"))
    key = fs.key
    with pytest.raises(ValueError):
        fs.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        fs.column(1)[2] = 99.0
    assert fs.key == key == FeatureSet(np.arange(8.0).reshape(4, 2), cols, fs.target).key
    values[0, 0] = -1.0  # the caller's own array stays writable
    assert values.flags.writeable


def test_a_writeable_input_is_copied_so_later_writes_never_reach_the_set():
    cols = (FeatureMeta.from_lineage(Ident("a")), FeatureMeta.from_lineage(Ident("b")))
    values = np.asfortranarray(np.arange(8.0).reshape(4, 2))  # already the stored layout
    labels = np.array([0, 1, 0, 1])
    fs = FeatureSet(values, cols, Target(labels, TaskKind.CLASSIFICATION, "y"))
    keys, key, target_key = fs.keys, fs.key, fs.target.key
    values[0, 0] = 99.0
    labels[0] = 1
    assert fs.values[0, 0] == 0.0 and fs.target.values[0] == 0
    fresh = FeatureSet(np.arange(8.0).reshape(4, 2), cols,
                       Target(np.array([0, 1, 0, 1]), TaskKind.CLASSIFICATION, "y"))
    assert fs.keys == keys == fresh.keys and fs.key == key
    assert fs.target.key == target_key == fresh.target.key
    assert values.flags.writeable and labels.flags.writeable  # the caller's own arrays
    assert not fs.target.values.flags.writeable
    # a writeable column-major view is copied too; a read-only array is taken as is
    view = values[:, 1:]
    assert not np.shares_memory(FeatureSet(view, cols[1:], fs.target).values, values)
    frozen = np.asfortranarray(np.arange(8.0).reshape(4, 2))
    frozen.flags.writeable = False
    assert FeatureSet(frozen, cols, fs.target).values is frozen


def test_every_constructor_lays_values_out_column_major(tmp_path):
    p = write(tmp_path / "d.csv", "a,y,b,c\n1,0,2,3\n4,1,5,6\n7,0,8,9\n10,1,11,12\n")
    fs = load_csv(p, "y")
    with mock.patch.object(dataset, "_numeric_cells", lambda fh, width: None):
        per_cell = load_csv(p, "y")
    strided = np.arange(48.0).reshape(8, 6)[::2, ::2]
    made = {
        "load_csv": fs,
        "load_csv per cell": per_cell,
        "take": fs.take([2, 0]),
        "subset_rows": fs.subset_rows(np.array([3, 0, 1])),
        "with_columns C-order": fs.with_columns(np.arange(12.0).reshape(4, 3), fs.columns),
        "with_columns strided": fs.with_columns(strided, fs.columns),
        **dict(zip(("train", "valid"), split_train_valid(fs, 0))),
    }
    for name, got in made.items():
        assert got.values.flags.f_contiguous and not got.values.flags.writeable, name
        assert got.values.shape[0] > 1 and got.values.shape[1] > 1, name  # not both layouts
    assert per_cell.values.tobytes() == fs.values.tobytes()
    # read-only input already column-major is not copied (a writeable one is:
    # test_a_writeable_input_is_copied_so_later_writes_never_reach_the_set)
    values = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    values.flags.writeable = False
    assert np.shares_memory(fs.with_columns(values, fs.columns).values, values)


# ---------------------------------------------------------------------------
# split_train_valid
# ---------------------------------------------------------------------------

def _regression_set(m, seed=0):
    rng = np.random.default_rng(seed)
    cols = (FeatureMeta.from_lineage(Ident("a")),)
    return FeatureSet(rng.standard_normal((m, 1)), cols,
                      Target(rng.standard_normal(m), TaskKind.REGRESSION, "y"))


def test_split_sizes_and_determinism():
    fs = _regression_set(10)
    tr1, va1 = split_train_valid(fs, seed=7)
    tr2, va2 = split_train_valid(fs, seed=7)
    assert TRAIN_FRACTION == 0.8 and tr1.n_rows == 8 and va1.n_rows == 2
    np.testing.assert_array_equal(tr1.values, tr2.values)
    np.testing.assert_array_equal(va1.values, va2.values)


def test_split_rows_disjoint_and_cover():
    fs = _regression_set(11, seed=2)
    tr, va = split_train_valid(fs, seed=5)
    merged = np.sort(np.concatenate([tr.target.values, va.target.values]))
    np.testing.assert_array_equal(merged, np.sort(fs.target.values))


def test_split_stratified_preserves_class_ratio():
    cols = (FeatureMeta.from_lineage(Ident("a")),)
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int64)
    fs = FeatureSet(np.arange(10, dtype=float)[:, None], cols,
                    Target(labels, TaskKind.CLASSIFICATION, "y"))
    tr, va = split_train_valid(fs, seed=3)
    assert np.sum(tr.target.values == 0) == np.sum(tr.target.values == 1) == 4
    assert np.sum(va.target.values == 0) == np.sum(va.target.values == 1) == 1


def test_split_seeds_differ():
    # frozen via the fixed shuffle algorithm for these concrete seeds
    fs = _regression_set(10, seed=1)
    _, va7 = split_train_valid(fs, seed=7)
    _, va8 = split_train_valid(fs, seed=8)
    assert not np.array_equal(va7.target.values, va8.target.values)


def test_a_split_side_under_two_rows_rejected():
    # 4 rows: 3 train and 1 validates; 5 rows: 4 and 1; 10 rows: 8 and 2
    for m in (4, 5):
        with pytest.raises(DatasetError, match="fewer than 2 rows"):
            split_train_valid(_regression_set(m), seed=0)
    split_train_valid(_regression_set(10), seed=0)


def test_split_single_sample_class_falls_back():
    cols = (FeatureMeta.from_lineage(Ident("a")),)
    labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64)
    fs = FeatureSet(np.arange(10, dtype=float)[:, None], cols,
                    Target(labels, TaskKind.CLASSIFICATION, "y"))
    assert fs.target.lone_class
    tr, va = split_train_valid(fs, seed=0)
    perm = np.random.default_rng(0).permutation(10)  # one stratum: every row
    np.testing.assert_array_equal(tr.values[:, 0], np.sort(perm[:8]))
    np.testing.assert_array_equal(va.values[:, 0], np.sort(perm[8:]))


@st.composite
def split_cases(draw):
    m = draw(st.integers(4, 59))
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=m, max_size=m)))
        kind = TaskKind.REGRESSION
    else:
        k = draw(st.integers(1, 6))
        y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
        if draw(st.booleans()):
            y[draw(st.integers(0, m - 1))] = k  # a class of one row
        kind = TaskKind.CLASSIFICATION
    fs = FeatureSet(np.arange(2.0 * m).reshape(m, 2), tuple(
        FeatureMeta.from_lineage(Ident(n)) for n in "ab"), Target(y, kind, "y"))
    return fs, draw(st.integers(0, 2 ** 32))


def _split_or_error(split, fs, seed):
    try:
        return [(s.values.tobytes(), s.target.values.tobytes()) for s in split(fs, seed)]
    except DatasetError as exc:
        return str(exc)


@given(split_cases())
@settings(max_examples=300, deadline=None)
def test_split_equals_the_two_branch_oracle(case):
    assert _split_or_error(split_train_valid, *case) == _split_or_error(split_oracle, *case)


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_discretize_median_split():
    np.testing.assert_array_equal(column_bins([1.0, 2, 3, 4], 2), [0, 0, 1, 1])


def test_discretize_constant_column():
    np.testing.assert_array_equal(column_bins([5.0, 5, 5, 5], 4), [0, 0, 0, 0])


def test_discretize_ties_against_quantile_oracle():
    data = np.array([1.0, 1, 1, 2, 3, 9])
    got = column_bins(data, 3)
    np.testing.assert_array_equal(got, [0, 0, 0, 1, 2, 2])  # frozen from the oracle
    np.testing.assert_array_equal(got, discretize_oracle(data, 3))


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=40,
                unique=True),
       st.integers(min_value=1, max_value=8),
       st.sampled_from(["affine", "cube", "exp"]))
@settings(max_examples=80, deadline=None)
def test_discretize_invariant_under_monotone_maps(data, bins, transform):
    col = np.array(data, dtype=float)
    if transform == "affine":
        mapped = 2.5 * col + 3.0
    elif transform == "cube":
        mapped = col ** 3
    else:
        mapped = np.exp(col / 25.0)
    np.testing.assert_array_equal(column_bins(col, bins), column_bins(mapped, bins))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1,
                max_size=60),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_discretize_matches_oracle_on_random_data(data, bins):
    col = np.array(data, dtype=float)
    np.testing.assert_array_equal(column_bins(col, bins), discretize_oracle(col, bins))


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=1, max_value=80),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_discretize_matrix_columns_get_their_own_labels(seed, m, bins):
    # np.quantile along axis 0 against one call per column
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(m)
    values = np.column_stack([normal, normal * 1e300, normal * 1e-300, np.round(normal * 2.0),
                              np.full(m, 4.25), rng.choice([-0.0, 0.0, 2.0], m),
                              rng.integers(-3, 4, m) * 0.1])
    got = discretize(values, bins)
    assert got.shape == values.shape and got.dtype == np.int64
    for j, col in enumerate(values.T):
        np.testing.assert_array_equal(got[:, j], column_bins(col, bins))


def quantile_matrix(rng, m, n):
    """(m x n) columns of every kind the quantile interpolation tells apart."""
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    kinds = [
        lambda: rng.standard_normal(m),
        lambda: rng.integers(-2, 3, m) * 0.5,  # ties
        lambda: rng.choice([-big, big, 0.0, 1.0], m),  # b - a overflows
        lambda: rng.integers(-5, 6, m) * tiny,  # subnormals
        lambda: np.full(m, -3.75),
        lambda: rng.standard_normal(m) * 10.0 ** rng.uniform(-300.0, 300.0),
        lambda: rng.choice([-0.0, 0.0, 1.0], m),  # zeros of both signs
    ]
    return np.column_stack([kinds[int(rng.integers(len(kinds)))]() for _ in range(n)])


QUANTILE_SETS = [np.array([0.0, 1.0]), np.array([0.25, 0.5, 0.75]), np.arange(1, 16) / 16,
                 np.array([1.0, 0.0, 0.5, 0.3, 0.7, 0.49999999999999994])]


def same_bits(got, want, mat) -> bool:
    """Bit equality, up to the sign of a zero where ``mat`` holds zeros of
    both signs: np.quantile's partition and np.sort may leave either first."""
    if np.signbit(mat[mat == 0.0]).any():
        got, want = got + 0.0, want + 0.0
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_linear_quantiles_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = 0
    for m in [1, 2, 3, 4, 5, 7, 64, 301]:
        for _ in range(12):
            x = quantile_matrix(rng, m, int(rng.integers(1, 9)))
            for q in QUANTILE_SETS:
                with np.errstate(over="ignore", invalid="ignore"):
                    for axis, mat in ((0, x), (1, x.T)):
                        want = np.quantile(mat, q, axis=axis, method="linear")
                        got = linear_quantiles(np.sort(mat, axis=axis), q, axis)
                        assert same_bits(got, want, mat), (m, q, axis)
                    want = np.quantile(x[:, 0], q, method="linear")
                    assert same_bits(linear_quantiles(np.sort(x[:, 0]), q), want, x[:, 0])
                cases += 1
    assert cases == 8 * 12 * len(QUANTILE_SETS)


def test_linear_quantiles_of_non_finite_slices_equal_numpy():
    # SI's second stage reads quartiles of statistics that may have overflowed
    rng = np.random.default_rng(32)
    for m in [1, 2, 3, 9]:
        for _ in range(20):
            x = quantile_matrix(rng, m, 6)
            x[rng.random(x.shape) < 0.2] = rng.choice([np.inf, -np.inf, np.nan])
            for q in QUANTILE_SETS:
                with np.errstate(over="ignore", invalid="ignore"):
                    for axis, mat in ((0, x), (1, x.T)):
                        want = np.quantile(mat, q, axis=axis, method="linear")
                        got = linear_quantiles(np.sort(mat, axis=axis), q, axis)
                        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bins", [1, 2, 3, 4, 7, 10, 16])
def test_discretize_equals_the_np_quantile_edges_at_every_width(bins):
    rng = np.random.default_rng(33 + bins)
    for m in [1, 2, 3, 17, 200, 1001]:
        for _ in range(4):
            x = quantile_matrix(rng, m, int(rng.integers(1, 12)))
            with np.errstate(over="ignore", invalid="ignore"):  # edges between -max and max
                want = discretize_quantile_oracle(x, bins)
                np.testing.assert_array_equal(discretize(x, bins), want)


def test_discretize_bins_a_column_whose_edges_overflow_halved():
    # 30 distinct values at +-(0.6 to 1) x max: the median edge lies between
    # -0.6 max and 0.6 max, and their difference overflows
    big = np.finfo(np.float64).max
    mags = np.linspace(0.6, 1.0, 15) * big
    x = np.random.default_rng(5).permutation(np.concatenate([-mags, mags]))
    sign = (x > 0).astype(np.float64)
    np.testing.assert_array_equal(column_bins(x, 2), sign)
    np.testing.assert_array_equal(column_bins(x, 3), column_bins(x / big, 3))
    cache = MICache(2)
    pair = tuple(cache.labels([v], [content_hash(v)])[0] for v in (x, sign))
    assert cache.pair_mi([pair]) == [pytest.approx(math.log(2.0), rel=1e-15)]
    np.testing.assert_array_equal(column_bins([-big, big] * 4, 2), [0, 1] * 4)
    # the other columns of a matrix keep their labels
    z = np.random.default_rng(6).standard_normal(30)
    both = discretize(np.column_stack([z, x, z * 1e300]), 4)
    for j, col in enumerate([z, x, z * 1e300]):
        np.testing.assert_array_equal(both[:, j], column_bins(col, 4))
    np.testing.assert_array_equal(both[:, 0], discretize_oracle(z, 4))


def test_discretize_label_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        col = rng.standard_normal(rng.integers(2, 50))
        bins = int(rng.integers(1, 10))
        labels = column_bins(col, bins)
        assert labels.min() >= 0 and labels.max() < bins


# ---------------------------------------------------------------------------
# lineage
# ---------------------------------------------------------------------------

def test_render_examples():
    assert render(Binary("-", Ident("alcohol"), Ident("residual_sugar"))) == \
        "(alcohol - residual_sugar)"
    assert render(Unary("sqrt", Ident("f3"))) == "sqrt(f3)"


def test_parse_round_trip():
    expr = Binary("/", Unary("log", Ident("a")), Binary("+", Ident("b"), Ident("c")))
    assert parse_lineage(render(expr)) == expr


def test_parse_binary_example():
    assert parse_lineage("(alcohol - residual_sugar)") == \
        Binary("-", Ident("alcohol"), Ident("residual_sugar"))


def test_parse_rejects_garbage():
    with pytest.raises(DatasetError):
        parse_lineage("(a + b")
    with pytest.raises(DatasetError):
        parse_lineage("a b")


def _kept_as_is(name: str) -> bool:
    """Whether ``load_csv`` keeps a header unchanged as an original column:
    normalization leaves it alone and ``_validate_header_name`` accepts it."""
    try:
        dataset._validate_header_name(name)
    except DatasetError:
        return False
    return dataset._normalize_name(name) == name


# operator characters, unary-op tokens and prefixes, digits, non-ASCII, CSV
# quoting characters and a byte-order mark, plus any other character
_NAME_PARTS = ("+", "-", "*", "/", "log", "sqrt", "square", "x", "_", "0", "7", "1e5", "é",
               "λ", "√", "−", "∗", "\ufeff", ",", '"', "\n", "\t")
header_names = st.lists(st.one_of(st.sampled_from(_NAME_PARTS), st.characters(codec="utf-8")),
                        min_size=1, max_size=5).map("".join).filter(_kept_as_is)


def lineages(depth: int):
    """Lineage trees over ``header_names`` of depth at most ``depth``."""
    if depth == 1:
        return header_names.map(Ident)
    sub = lineages(depth - 1)
    return st.one_of(header_names.map(Ident), st.builds(Unary, st.sampled_from(UNARY_OPS), sub),
                     st.builds(Binary, st.sampled_from(BINARY_OPS), sub, sub))


@given(lineages(MAX_LINEAGE_DEPTH))
@settings(max_examples=300, deadline=None)
def test_render_parse_round_trip_over_adversarial_names(expr):
    assert lineage_depth(expr) <= MAX_LINEAGE_DEPTH
    assert parse_lineage(render(expr)) == expr


@given(st.lists(lineages(3), min_size=1, max_size=4, unique_by=render))
@settings(max_examples=100, deadline=None)
def test_write_then_load_keeps_every_adversarial_name(tmp_path_factory, exprs):
    n = len(exprs)
    # the target's name has a space, so no kept feature header equals it
    fs = FeatureSet(np.arange(3.0 * n).reshape(3, n), tuple(map(FeatureMeta, exprs)),
                    Target(np.array([0.5, 1.5, 2.5]), TaskKind.REGRESSION, "the target"))
    path = tmp_path_factory.mktemp("names") / "d.csv"
    write_csv(fs, path)
    assert [meta.lineage for meta in load_csv(path, "the target").columns] == exprs


def test_lineage_depth():
    assert lineage_depth(Ident("a")) == 1
    assert lineage_depth(Unary("sqrt", Ident("a"))) == 2
    assert lineage_depth(Binary("+", Unary("log", Ident("a")), Ident("b"))) == 3


def test_evaluate_lineage_matches_kernels():
    originals = {"a": np.array([-4.0, 9.0]), "b": np.array([2.0, 0.0])}
    expr = Binary("/", Unary("sqrt", Ident("a")), Ident("b"))
    got = evaluate_lineage(expr, originals)
    np.testing.assert_array_equal(got, [1.0, 0.0])  # sqrt|-4|/2 = 1; /0 guarded


# ---------------------------------------------------------------------------
# safe kernels
# ---------------------------------------------------------------------------

def test_safe_sqrt_uses_absolute_value():
    np.testing.assert_array_equal(safe_unary_value("sqrt", np.array([-4.0, 9.0])), [2.0, 3.0])


def test_safe_log_shifted():
    got = safe_unary_value("log", np.array([0.0, math.e - 1.0]))
    np.testing.assert_allclose(got, [0.0, 1.0], rtol=0, atol=1e-15)


def test_safe_divide_guards_zero():
    got = safe_binary_value("/", np.array([1.0, 2.0]), np.array([0.0, 4.0]))
    np.testing.assert_array_equal(got, [0.0, 0.5])


def test_safe_ops_never_overflow():
    huge = np.array([1e300, -1e300, 1e308])
    for op in ("square", "sqrt", "log"):
        assert np.all(np.isfinite(safe_unary_value(op, huge)))
    for op in ("+", "-", "*", "/"):
        assert np.all(np.isfinite(safe_binary_value(op, huge, huge)))
        assert np.all(np.isfinite(safe_binary_value(op, huge, -huge)))


def test_an_op_is_declared_once_and_an_unknown_one_has_no_kernel():
    assert OPS == ("square", "sqrt", "log", "+", "-", "*", "/")
    with pytest.raises(KeyError):
        safe_unary_value("cube", np.ones(2))
    with pytest.raises(KeyError):
        safe_binary_value("%", np.ones(2), np.ones(2))
