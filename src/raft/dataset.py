"""Tabular data model: feature matrix + target, lineage expressions, CSV I/O.

Every feature column carries a lineage expression over the *original* column
names, so any derived column can be re-evaluated from the raw dataset
bit-exactly.  All numeric kernels used in lineage evaluation live here so that
the transform layer and the round-trip evaluation share one implementation.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import logging
import math
import warnings
from dataclasses import InitVar, dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Integer-valued vectors with at most this many distinct values are treated as
# discrete labels.  Task inference and MI label handling share the rule.
MAX_DISCRETE_LABELS = 20

# Default bound on lineage-tree depth (bounds name length and numeric blow-up).
DEFAULT_MAX_DEPTH = 6

UNARY_OPS = ("square", "sqrt", "log")
BINARY_OPS = ("+", "-", "*", "/")

_F64_MAX = float(np.finfo(np.float64).max)
_DIV_EPS = 1e-12

_MISSING_TOKENS = frozenset({"", "na", "nan", "null", "none"})


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def content_hash(arr: np.ndarray) -> bytes:
    """Stable 128-bit digest of an array's raw bytes."""
    return _digest(np.ascontiguousarray(arr).tobytes())


class DatasetError(ValueError):
    """Ingestion / schema problem (maps to CLI exit code 3)."""


class TaskKind(Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


# ---------------------------------------------------------------------------
# Lineage expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    child: "LineageExpr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "LineageExpr"
    right: "LineageExpr"


LineageExpr = Ident | Unary | Binary


def render(expr: LineageExpr) -> str:
    """Canonical string form: IDENT | UNOP "(" expr ")" | "(" expr " " BINOP " " expr ")"."""
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Unary):
        return f"{expr.op}({render(expr.child)})"
    if isinstance(expr, Binary):
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"
    raise TypeError(f"not a lineage expression: {expr!r}")


def lineage_depth(expr: LineageExpr) -> int:
    if isinstance(expr, Ident):
        return 1
    if isinstance(expr, Unary):
        return 1 + lineage_depth(expr.child)
    return 1 + max(lineage_depth(expr.left), lineage_depth(expr.right))


def parse_lineage(text: str) -> LineageExpr:
    """Inverse of :func:`render`; rejects trailing garbage."""
    expr, pos = _parse_expr(text, 0)
    if pos != len(text):
        raise DatasetError(f"trailing characters after expression: {text[pos:]!r}")
    return expr


def _parse_expr(s: str, pos: int) -> tuple[LineageExpr, int]:
    if pos >= len(s):
        raise DatasetError("unexpected end of lineage expression")
    for op in UNARY_OPS:
        if s.startswith(op + "(", pos):
            child, p = _parse_expr(s, pos + len(op) + 1)
            if p >= len(s) or s[p] != ")":
                raise DatasetError(f"expected ')' at position {p} in {s!r}")
            return Unary(op, child), p + 1
    if s[pos] == "(":
        left, p = _parse_expr(s, pos + 1)
        if p + 3 > len(s) or s[p] != " " or s[p + 2] != " " or s[p + 1] not in BINARY_OPS:
            raise DatasetError(f"expected ' <op> ' at position {p} in {s!r}")
        op = s[p + 1]
        right, p2 = _parse_expr(s, p + 3)
        if p2 >= len(s) or s[p2] != ")":
            raise DatasetError(f"expected ')' at position {p2} in {s!r}")
        return Binary(op, left, right), p2 + 1
    end = pos
    while end < len(s) and s[end] not in " ()":
        end += 1
    if end == pos:
        raise DatasetError(f"expected identifier at position {pos} in {s!r}")
    return Ident(s[pos:end]), end


# ---------------------------------------------------------------------------
# Safe numeric kernels (shared by the transform layer and lineage evaluation)
# ---------------------------------------------------------------------------

def safe_unary_value(op: str, x: np.ndarray) -> np.ndarray:
    """square/sqrt/log with domain guards; result is always finite.

    sqrt and log operate on |x| (log additionally shifts by 1); overflow is
    clamped to the float64 range so downstream invariants never see inf.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        if op == "square":
            out = x * x
        elif op == "sqrt":
            out = np.sqrt(np.abs(x))
        elif op == "log":
            out = np.log1p(np.abs(x))
        else:
            raise ValueError(f"unknown unary operation {op!r}")
        return np.clip(out, -_F64_MAX, _F64_MAX)


def safe_binary_value(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise + - * / with guarded division; result is always finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        elif op == "/":
            tiny = np.abs(b) < _DIV_EPS
            out = np.where(tiny, 0.0, a / np.where(tiny, 1.0, b))
        else:
            raise ValueError(f"unknown binary operation {op!r}")
        return np.clip(out, -_F64_MAX, _F64_MAX)


def evaluate_lineage(expr: LineageExpr, originals: Mapping[str, np.ndarray]) -> np.ndarray:
    """Re-evaluate a lineage tree over the original columns (bit-exact)."""
    if isinstance(expr, Ident):
        if expr.name not in originals:
            raise DatasetError(f"unknown original column {expr.name!r}")
        return np.asarray(originals[expr.name], dtype=np.float64)
    if isinstance(expr, Unary):
        return safe_unary_value(expr.op, evaluate_lineage(expr.child, originals))
    return safe_binary_value(
        expr.op,
        evaluate_lineage(expr.left, originals),
        evaluate_lineage(expr.right, originals),
    )


# ---------------------------------------------------------------------------
# Feature set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMeta:
    """A column's lineage; its name and origin are read off it."""

    lineage: LineageExpr

    @staticmethod
    def from_lineage(expr: LineageExpr) -> "FeatureMeta":
        return FeatureMeta(expr)

    @functools.cached_property
    def name(self) -> str:
        """The lineage's canonical rendering, computed once per column."""
        return render(self.lineage)

    @property
    def is_original(self) -> bool:
        return isinstance(self.lineage, Ident)


@dataclass(frozen=True)
class Target:
    values: np.ndarray
    kind: TaskKind
    name: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.size < 2:
            raise DatasetError("target must be a vector with at least 2 entries")
        if self.kind is TaskKind.CLASSIFICATION:
            if not np.issubdtype(vals.dtype, np.integer):
                raise DatasetError("classification target must hold integer labels")
            if vals.min() < 0:
                raise DatasetError("classification labels must be >= 0")
        else:
            if not np.all(np.isfinite(vals.astype(np.float64))):
                raise DatasetError("regression target must be finite")

    @functools.cached_property
    def key(self) -> bytes:
        """``content_hash`` of the values as float64, computed once per target."""
        return content_hash(np.asarray(self.values, dtype=np.float64))

    @property
    def num_classes(self) -> int:
        if self.kind is not TaskKind.CLASSIFICATION:
            raise ValueError("num_classes is only defined for classification targets")
        return int(np.max(self.values)) + 1


@dataclass(frozen=True)
class FeatureSet:
    """Immutable numeric matrix (rows = samples) with per-column lineage.

    ``column_keys``, when given, are the columns' content hashes, known where
    the columns were made or handed on by ``take``; they become ``keys``
    unchecked.
    """

    values: np.ndarray
    columns: tuple[FeatureMeta, ...]
    target: Target
    column_keys: InitVar[Sequence[bytes] | None] = None

    def __post_init__(self, column_keys: Sequence[bytes] | None) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DatasetError("feature values must be a 2-D matrix")
        m, n = vals.shape
        if m < 2 or n < 1:
            raise DatasetError(f"feature matrix needs >= 2 rows and >= 1 column, got {m}x{n}")
        if not np.all(np.isfinite(vals)):
            raise DatasetError("feature values must be finite")
        if len(self.columns) != n:
            raise DatasetError("column metadata length does not match matrix width")
        if len(self.target.values) != m:
            raise DatasetError("target length does not match row count")
        # a read-only view, so the memoised keys cannot go stale through ``values``
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if column_keys is not None:
            if len(column_keys) != n:
                raise DatasetError("column keys length does not match matrix width")
            self.__dict__["keys"] = tuple(column_keys)  # fills the cached property

    @functools.cached_property
    def keys(self) -> tuple[bytes, ...]:
        """Each column's ``content_hash``, computed once per column."""
        return tuple(content_hash(col) for col in self.values.T)

    @functools.cached_property
    def key(self) -> bytes:
        """Content identity of the set: a digest of its column keys in order,
        so it hashes no matrix."""
        return _digest(b"".join(self.keys))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def names(self) -> list[str]:
        return [meta.name for meta in self.columns]

    def original_columns(self) -> dict[str, np.ndarray]:
        """Map original idents -> values; only valid on all-original sets."""
        if not all(meta.is_original for meta in self.columns):
            raise ValueError("original_columns requires an all-original feature set")
        return {meta.name: self.values[:, i] for i, meta in enumerate(self.columns)}

    def subset_rows(self, rows: np.ndarray) -> "FeatureSet":
        """The given rows; other rows mean other column keys, so none are kept."""
        target = Target(self.target.values[rows], self.target.kind, self.target.name)
        return FeatureSet(self.values[rows, :], self.columns, target)

    def with_columns(self, values: np.ndarray, columns: Sequence[FeatureMeta],
                     keys: Sequence[bytes] | None = None) -> "FeatureSet":
        """Other columns on the same target; ``keys`` are theirs when known."""
        return FeatureSet(values, tuple(columns), self.target, keys)

    def take(self, idx: Sequence[int]) -> "FeatureSet":
        """The columns at ``idx``, in that order, with their metas and keys."""
        return self.with_columns(self.values[:, idx], tuple(self.columns[i] for i in idx),
                                 tuple(self.keys[i] for i in idx))


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _normalize_name(raw: str) -> str:
    return raw.strip().replace(" ", "_")


def _header_lineage(raw: str) -> LineageExpr:
    """A header that is the rendered form of a compound lineage expression
    (as `write_csv` emits for derived columns) names that lineage; any other
    header is an original column, normalized and validated."""
    try:
        expr = parse_lineage(raw)
    except (DatasetError, RecursionError):  # deep nesting is not a lineage we emit
        expr = None
    if expr is not None and not isinstance(expr, Ident) and render(expr) == raw:
        return expr
    name = _normalize_name(raw)
    _validate_header_name(name)
    return Ident(name)


def _validate_header_name(name: str) -> None:
    if not name:
        raise DatasetError("empty header name")
    if "(" in name or ")" in name:
        raise DatasetError(f"header {name!r} contains parentheses, which break lineage names")
    if name in UNARY_OPS:
        raise DatasetError(f"header {name!r} collides with a unary operation token")


def load_csv(
    path: str | Path,
    target_column: str,
    task: TaskKind | None = None,
    impute: str | None = None,
) -> FeatureSet:
    """Read an RFC-4180 CSV with a header row into a FeatureSet.

    The header goes through ``csv`` and gives the lineages and the target
    column.  When every data cell is a plain finite number, one ``np.loadtxt``
    call reads the data rows from the same handle.  Any other file (a
    non-numeric, missing or non-finite cell, a row of another width, no data
    rows) is read again and converted cell by cell, the only path that words
    an error.  Both paths give the same bits.

    Missing feature cells are rejected unless ``impute == "median"``.  The
    target may be categorical (strings) for classification; numeric targets
    are classified when integer-valued with few distinct labels unless a task
    override is given.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        raw_header = next(reader, None)
        if raw_header is None:
            raise DatasetError(f"{path} is empty")
        cells = _numeric_cells(fh, len(raw_header))
        if cells is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            data_rows = [(reader.line_num, r) for r in reader if r]
            if not data_rows:
                raise DatasetError(f"{path} has a header but no data rows")

    if target_column in raw_header:
        target_pos = raw_header.index(target_column)
    else:
        normalized = [_normalize_name(h) for h in raw_header]
        if target_column not in normalized:
            raise DatasetError(f"target column {target_column!r} not found in header")
        target_pos = normalized.index(target_column)

    lineages = [_header_lineage(raw) for i, raw in enumerate(raw_header) if i != target_pos]
    names = [render(expr) for expr in lineages]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DatasetError(f"duplicate header names after normalization: {dupes}")
    if not names:
        raise DatasetError("dataset has no feature columns besides the target")

    target_name = _normalize_name(raw_header[target_pos])
    if cells is not None:
        values = np.delete(cells, target_pos, axis=1)
        target = _numeric_target(cells[:, target_pos].copy(), target_name, task)
    else:
        values, target_raw = _convert_cells(data_rows, len(raw_header), target_pos, names, impute)
        target = _build_target(target_raw, target_name, task)
    columns = tuple(FeatureMeta.from_lineage(expr) for expr in lineages)
    return FeatureSet(values, columns, target)


def _numeric_cells(fh, width: int) -> np.ndarray | None:
    """The data rows left in ``fh`` as one (rows x ``width``) float64 matrix
    when every cell is a plain finite number, else None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: an empty array
            cells = np.loadtxt(fh, dtype=np.float64, delimiter=",", quotechar='"',
                               comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.size == 0 or cells.shape[1] != width or not np.all(np.isfinite(cells)):
        return None
    return cells


def _convert_cells(
    data_rows: list[tuple[int, list[str]]], width: int, target_pos: int, names: list[str],
    impute: str | None,
) -> tuple[np.ndarray, list[str]]:
    """Feature values and raw target cells of the (file line, cells) rows, one
    cell at a time, with the first problem worded by file line and column."""
    m = len(data_rows)
    n = len(names)
    values = np.empty((m, n), dtype=np.float64)
    missing = False
    target_raw: list[str] = []
    for r, (line, row) in enumerate(data_rows):
        if len(row) != width:
            raise DatasetError(f"row {line}: expected {width} cells, got {len(row)}")
        c = 0
        for i, cell in enumerate(row):
            if i == target_pos:
                target_raw.append(cell.strip())
                continue
            text = cell.strip()
            if text.lower() in _MISSING_TOKENS:
                if impute != "median":
                    raise DatasetError(
                        f"row {line}, column {names[c]!r}: missing value (use median imputation to allow)"
                    )
                missing = True
                values[r, c] = np.nan
            else:
                try:
                    values[r, c] = float(text)
                except ValueError:
                    raise DatasetError(
                        f"row {line}, column {names[c]!r}: non-numeric value {text!r}"
                    ) from None
            c += 1
    if missing:
        for c in range(n):
            col = values[:, c]
            mask = np.isnan(col)
            if mask.all():
                raise DatasetError(f"column {names[c]!r} has no observed values to impute from")
            if mask.any():
                col[mask] = _median(col[~mask])
    if not np.all(np.isfinite(values)):
        raise DatasetError("feature values must be finite after ingestion")
    return values, target_raw


def _median(x: np.ndarray) -> float:
    """``np.median`` of finite ``x``, with the two middle values halved before
    they are added where their sum would pass float64's range."""
    with np.errstate(over="ignore"):
        med = np.median(x)
    if np.isinf(med):
        k = len(x) // 2
        lo, hi = np.partition(x, [k - 1, k])[k - 1:k + 1]
        med = lo / 2 + hi / 2
    return float(med)


def _build_target(raw: list[str], name: str, task: TaskKind | None) -> Target:
    try:
        numeric = np.array([float(cell) for cell in raw], dtype=np.float64)
    except ValueError:
        if task is TaskKind.REGRESSION:
            raise DatasetError("regression requested but target is not numeric") from None
        labels = _encode_labels(np.asarray(raw, dtype=object))
        return Target(labels, TaskKind.CLASSIFICATION, name)
    return _numeric_target(numeric, name, task)


def _numeric_target(numeric: np.ndarray, name: str, task: TaskKind | None) -> Target:
    if not np.all(np.isfinite(numeric)):
        raise DatasetError("target contains non-finite values")
    if np.unique(numeric).size < 2:
        raise DatasetError("constant target")
    integral = bool(np.all(numeric == np.floor(numeric)))
    few = np.unique(numeric).size <= MAX_DISCRETE_LABELS
    kind = task if task is not None else (
        TaskKind.CLASSIFICATION if integral and few else TaskKind.REGRESSION
    )
    if kind is TaskKind.CLASSIFICATION:
        if not integral:
            raise DatasetError("classification requested but target is not integer-valued")
        return Target(_encode_labels(numeric), TaskKind.CLASSIFICATION, name)
    return Target(numeric, TaskKind.REGRESSION, name)


def _encode_labels(raw: np.ndarray) -> np.ndarray:
    _, codes = np.unique(raw, return_inverse=True)
    return codes.astype(np.int64)


def write_csv(fs: FeatureSet, path: str | Path) -> None:
    """Write values with shortest round-trip float formatting (load is exact)."""
    path = Path(path)
    target = fs.target
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fs.names() + [target.name])
        for r in range(fs.n_rows):
            row = [repr(float(v)) for v in fs.values[r, :]]
            if target.kind is TaskKind.CLASSIFICATION:
                row.append(str(int(target.values[r])))
            else:
                row.append(repr(float(target.values[r])))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Splitting and discretization
# ---------------------------------------------------------------------------

def split_train_valid(fs: FeatureSet, ratio: float, seed: int) -> tuple[FeatureSet, FeatureSet]:
    """Deterministic row split; stratified for classification when possible.

    Each side must end up with at least 2 rows (feature sets are never
    smaller), otherwise the split is rejected.
    """
    if not 0.0 < ratio < 1.0:
        raise DatasetError(f"split ratio must be in (0, 1), got {ratio}")
    m = fs.n_rows
    rng = np.random.default_rng(seed)
    stratify = False
    if fs.target.kind is TaskKind.CLASSIFICATION:
        counts = np.bincount(fs.target.values)
        counts = counts[counts > 0]
        if np.all(counts >= 2):
            stratify = True
        else:
            logger.warning("a class has a single sample; falling back to unstratified split")
    if stratify:
        train_parts = []
        valid_parts = []
        for label in np.unique(fs.target.values):
            idx = np.flatnonzero(fs.target.values == label)
            perm = idx[rng.permutation(idx.size)]
            n_tr = math.floor(ratio * idx.size)
            train_parts.append(perm[:n_tr])
            valid_parts.append(perm[n_tr:])
        train_idx = np.sort(np.concatenate(train_parts))
        valid_idx = np.sort(np.concatenate(valid_parts))
    else:
        perm = rng.permutation(m)
        n_tr = math.floor(ratio * m)
        train_idx = np.sort(perm[:n_tr])
        valid_idx = np.sort(perm[n_tr:])
    if train_idx.size == 0 or valid_idx.size == 0:
        raise DatasetError(f"ratio {ratio} produces an empty split for {m} rows")
    if train_idx.size < 2 or valid_idx.size < 2:
        raise DatasetError(f"ratio {ratio} leaves a split with fewer than 2 rows for {m} rows")
    return fs.subset_rows(train_idx), fs.subset_rows(valid_idx)


def default_bins(m: int) -> int:
    return min(16, math.ceil(math.sqrt(m)))


def linear_quantiles(srt: np.ndarray, q: np.ndarray, axis: int = 0) -> np.ndarray:
    """``np.quantile(x, q, axis, method="linear")`` (Hyndman & Fan's method 7)
    read off ``srt``, ``x`` sorted along ``axis``, with numpy's bits: index
    (n - 1) * q between its floor and floor + 1 (the last value at or past
    n - 1), a + (b - a) * t, or b - (b - a) * (1 - t) where t >= 0.5, and NaN
    for a slice holding NaN.  A zero may differ in sign where both occur."""
    srt = np.moveaxis(srt, axis, 0)
    n = srt.shape[0]
    virtual = (n - 1) * np.asarray(q, dtype=np.float64)
    lo = np.where(virtual >= n - 1, -1, np.floor(virtual)).astype(np.intp)
    t = (virtual - lo).reshape((-1,) + (1,) * (srt.ndim - 1))
    a, b = srt[lo], srt[np.where(lo < 0, lo, lo + 1)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, srt[-1], where=np.isnan(srt[-1]))
    return out


def discretize(values: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency binning of a vector, or of each column of a (rows x
    columns) matrix, into at most ``bins`` labels in [0, bins); a vector is
    the one-column case.

    Quantile edges use linear interpolation (``linear_quantiles``); edges
    that coincide collapse bins.  A value equal to an edge falls in the lower
    bin, so a value's label is the number of distinct edges of its column
    below it.  A column whose neighbouring sorted values differ by more than
    the float64 range would get an infinite edge; it is binned exactly halved
    (``np.ldexp(x, -1)``), which leaves every other column's labels alone.
    """
    x = np.asarray(values, dtype=np.float64)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("column must be a nonempty vector or matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("column must be finite")
    labels = np.zeros(x.shape, dtype=np.int64)
    if bins > 1:
        srt, q = np.sort(x, axis=0), np.arange(1, bins) / bins
        # quantiles along axis 0 give each column the bits of its own call
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed columns are redone
            edges = linear_quantiles(srt, q)
        over = ~np.all(np.isfinite(edges), axis=0)
        if np.any(over):
            x = np.where(over, np.ldexp(x, -1), x)
            edges = np.where(over, linear_quantiles(np.ldexp(srt, -1), q), edges)
        edges = np.sort(edges, axis=0)
        distinct = np.ones(edges.shape, dtype=bool)
        distinct[1:] = edges[1:] != edges[:-1]
        for edge, new in zip(edges, distinct):
            labels += new & (edge < x)
    return labels
