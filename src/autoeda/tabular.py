"""In-memory tabular data model and the FILTER/GROUP display engine.

A Dataset is an immutable named table with typed columns. A Display is the
view produced by applying an ordered stack of filter predicates and at most
one grouping to a dataset. Displays materialize deterministically, expose
per-column value distributions, and carry a canonical fingerprint so that
two operation stacks with the same meaning compare equal.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class ColumnKind(Enum):
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TEXT = "text"


FILTER_OPS = ("EQ", "NEQ", "CONTAINS", "STARTS_WITH", "ENDS_WITH")
AGG_FUNCS = ("SUM", "COUNT", "MEAN", "MIN", "MAX")
NUMERIC_AGGS = frozenset({"SUM", "MEAN", "MIN", "MAX"})


def parse_number(text) -> float | None:
    """Parse a cell or filter term as a finite float, else None."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def canonical_number(value: float) -> str:
    """Shortest decimal text that round-trips: 5.0 -> "5", 2.5 -> "2.5"."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class FilterPredicate:
    column: str
    op: str
    term: str

    def __post_init__(self):
        if self.op not in FILTER_OPS:
            raise ValueError(f"unknown filter operator {self.op!r}")


@dataclass(frozen=True)
class Grouping:
    grp_col: str
    agg_col: str
    agg_func: str

    def __post_init__(self):
        if self.agg_func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function {self.agg_func!r}")


class Dataset:
    """Immutable table. Cells are float (numeric columns), str, or None."""

    def __init__(self, name: str, columns, rows):
        names = [c for c, _ in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {name!r}")
        self.name = name
        self.columns = tuple((c, ColumnKind(k)) for c, k in columns)
        self.column_names = tuple(names)
        self._index = {c: i for i, c in enumerate(names)}
        width = len(self.columns)
        coerced = []
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {r} has {len(row)} cells, expected {width}")
            coerced.append(tuple(
                self._coerce(cell, kind, r, cname)
                for cell, (cname, kind) in zip(row, self.columns)
            ))
        self.rows = tuple(coerced)
        self._distinct: list[int | None] = [None] * width

    @staticmethod
    def _coerce(cell, kind, r, cname):
        if cell is None:
            return None
        if kind is ColumnKind.NUMERIC:
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ValueError(f"row {r}, column {cname!r}: expected numeric cell, got {cell!r}")
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"row {r}, column {cname!r}: non-finite numeric cell")
            return value
        if not isinstance(cell, str):
            raise ValueError(f"row {r}, column {cname!r}: expected string cell, got {cell!r}")
        return cell

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r} in dataset {self.name!r}") from None

    def kind_of(self, name: str) -> ColumnKind:
        return self.columns[self.column_index(name)][1]

    def distinct_count(self, idx: int) -> int:
        """Distinct non-null values in the full table for one column."""
        if self._distinct[idx] is None:
            self._distinct[idx] = len({r[idx] for r in self.rows if r[idx] is not None})
        return self._distinct[idx]


class Display:
    """A dataset view: ordered filters, optional single grouping, rows.

    `rows` is the underlying filtered row set; `visible_rows` is what a user
    would see (the group table when grouped). Instances are immutable and
    cache per-column statistics.
    """

    __slots__ = ("dataset", "filters", "grouping", "rows",
                 "group_keys", "group_sizes", "group_rows",
                 "_stats", "_ranked", "_vec", "_fp")

    def __init__(self, dataset, filters, grouping, rows,
                 group_keys=(), group_sizes=(), group_rows=()):
        self.dataset = dataset
        self.filters = tuple(filters)
        self.grouping = grouping
        self.rows = tuple(rows)
        self.group_keys = tuple(group_keys)
        self.group_sizes = tuple(group_sizes)
        self.group_rows = tuple(group_rows)
        self._stats = {}
        self._ranked = {}
        self._vec = None
        self._fp = None

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def group_count(self) -> int:
        return len(self.group_sizes)

    @property
    def visible_rows(self):
        return self.group_rows if self.grouping is not None else self.rows

    def column_stats(self, idx: int):
        """(Counter of non-null values, null count) over the underlying rows."""
        if idx not in self._stats:
            counts = Counter()
            nulls = 0
            for row in self.rows:
                cell = row[idx]
                if cell is None:
                    nulls += 1
                else:
                    counts[cell] += 1
            self._stats[idx] = (counts, nulls)
        return self._stats[idx]

    def ranked_values(self, idx: int):
        """Distinct non-null values, most frequent first (ties by value)."""
        if idx not in self._ranked:
            counts, _ = self.column_stats(idx)
            self._ranked[idx] = tuple(sorted(counts, key=lambda v: (-counts[v], v)))
        return self._ranked[idx]


def initial_display(dataset: Dataset) -> Display:
    return Display(dataset, (), None, dataset.rows)


def _null_sort_key(values):
    # nulls group last; within a column all non-null values share a type
    return sorted((v for v in values if v is not None)) + \
        ([None] if any(v is None for v in values) else [])


def _compute_groups(dataset: Dataset, rows, grouping: Grouping):
    gi = dataset.column_index(grouping.grp_col)
    ai = dataset.column_index(grouping.agg_col)
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(row[gi], []).append(row[ai])
    keys = _null_sort_key(buckets.keys())
    sizes = []
    out_rows = []
    for key in keys:
        cells = buckets[key]
        sizes.append(len(cells))
        if grouping.agg_func == "COUNT":
            agg = float(len(cells))
        else:
            nums = [c for c in cells if c is not None]
            if not nums:
                agg = None
            elif grouping.agg_func == "SUM":
                agg = float(sum(nums))
            elif grouping.agg_func == "MEAN":
                agg = float(sum(nums) / len(nums))
            elif grouping.agg_func == "MIN":
                agg = float(min(nums))
            else:
                agg = float(max(nums))
        out_rows.append((key, agg))
    return tuple(keys), tuple(sizes), tuple(out_rows)


def _cell_text(cell, kind: ColumnKind) -> str:
    if kind is ColumnKind.NUMERIC:
        return canonical_number(cell)
    return cell


def _build_predicate(pred: FilterPredicate, kind: ColumnKind):
    op, term = pred.op, pred.term
    if kind is ColumnKind.NUMERIC and op in ("EQ", "NEQ"):
        target = parse_number(term)

        def eq(cell):
            return cell is not None and target is not None and cell == target
    else:
        def eq(cell):
            return cell is not None and _cell_text(cell, kind) == term

    if op == "EQ":
        return eq
    if op == "NEQ":
        return lambda cell: not eq(cell)
    if op == "CONTAINS":
        return lambda cell: cell is not None and term in _cell_text(cell, kind)
    if op == "STARTS_WITH":
        return lambda cell: cell is not None and _cell_text(cell, kind).startswith(term)
    return lambda cell: cell is not None and _cell_text(cell, kind).endswith(term)


def apply_filter(display: Display, pred: FilterPredicate) -> Display:
    """Filter the underlying rows and re-apply any active grouping."""
    ds = display.dataset
    idx = ds.column_index(pred.column)
    match = _build_predicate(pred, ds.columns[idx][1])
    rows = tuple(r for r in display.rows if match(r[idx]))
    filters = display.filters + (pred,)
    g = display.grouping
    if g is None:
        return Display(ds, filters, None, rows)
    keys, sizes, grows = _compute_groups(ds, rows, g)
    return Display(ds, filters, g, rows, keys, sizes, grows)


def apply_group(display: Display, grouping: Grouping) -> Display:
    """Group the filtered rows, replacing any previous grouping."""
    ds = display.dataset
    ds.column_index(grouping.grp_col)
    agg_kind = ds.kind_of(grouping.agg_col)
    if grouping.agg_func in NUMERIC_AGGS and agg_kind is not ColumnKind.NUMERIC:
        raise ValueError(
            f"{grouping.agg_func} requires a numeric aggregate column, "
            f"{grouping.agg_col!r} is {agg_kind.value}")
    keys, sizes, grows = _compute_groups(ds, display.rows, grouping)
    return Display(ds, display.filters, grouping, display.rows, keys, sizes, grows)


def canonical_term(term: str, kind: ColumnKind) -> str:
    """Whitespace-stripped term; numeric terms in shortest round-trip form."""
    term = term.strip()
    if kind is ColumnKind.NUMERIC:
        value = parse_number(term)
        if value is not None:
            return canonical_number(value)
    return term


def display_fingerprint(display: Display) -> str:
    """Canonical string identifying the view's operation semantics.

    Filters compare as a set with canonical terms. A COUNT aggregation blanks
    its aggregate column (COUNT of any column yields group sizes, so those
    groupings are interchangeable).
    """
    if display._fp is not None:
        return display._fp
    ds = display.dataset
    norm = sorted({
        (p.column, p.op, canonical_term(p.term, ds.kind_of(p.column)))
        for p in display.filters
    })
    g = display.grouping
    if g is None:
        gpart = None
    else:
        agg_col = "" if g.agg_func == "COUNT" else g.agg_col
        gpart = [g.grp_col, agg_col, g.agg_func]
    fp = json.dumps([[list(t) for t in norm], gpart], separators=(",", ":"))
    display._fp = fp
    return fp


def column_histogram(display: Display, column: str) -> dict:
    """Relative value frequencies for one column of a display.

    Nulls are excluded (tracked separately as a count). For the grouped
    column of a grouped display the keys are the group keys, each with the
    same weight, mirroring the visible one-row-per-group table; a null group
    appears under the key None.
    """
    ds = display.dataset
    idx = ds.column_index(column)
    g = display.grouping
    if g is not None and g.grp_col == column:
        n = display.group_count
        if n == 0:
            return {}
        share = 1.0 / n
        return {key: share for key in display.group_keys}
    counts, _ = display.column_stats(idx)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {v: c / total for v, c in counts.items()}


def _infer_kind(cells, n_rows, max_categorical, categorical_fraction):
    values = [c for c in cells if c != ""]
    if not values:
        return ColumnKind.NUMERIC
    parsed = [parse_number(v) for v in values]
    n_numeric = sum(p is not None for p in parsed)
    if n_numeric == len(values):
        return ColumnKind.NUMERIC
    if n_numeric > 0:
        # mixed numeric and non-numeric content reads as messy text
        return ColumnKind.TEXT
    threshold = max(max_categorical, categorical_fraction * n_rows)
    if len(set(values)) <= threshold:
        return ColumnKind.CATEGORICAL
    return ColumnKind.TEXT


def load_dataset(path, schema: dict | None = None, delimiter: str = ",",
                 name: str | None = None, max_categorical: int = 20,
                 categorical_fraction: float = 0.05) -> Dataset:
    """Load a delimited text file with a header row.

    `schema` maps column names to ColumnKind (or its string value) and
    overrides inference. Empty cells load as null.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        raw = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {r + 1} has {len(row)} cells, expected {len(header)}")
            raw.append(row)

    schema = {k: ColumnKind(v) for k, v in (schema or {}).items()}
    kinds = []
    for i, col in enumerate(header):
        if col in schema:
            kinds.append(schema[col])
        else:
            kinds.append(_infer_kind([row[i] for row in raw], len(raw),
                                     max_categorical, categorical_fraction))

    typed = []
    for r, row in enumerate(raw):
        out = []
        for i, cell in enumerate(row):
            if cell == "":
                out.append(None)
            elif kinds[i] is ColumnKind.NUMERIC:
                value = parse_number(cell)
                if value is None:
                    raise ValueError(f"{path}: row {r + 1}, column {header[i]!r}: "
                                     f"non-numeric cell {cell!r} in numeric column")
                out.append(value)
            else:
                out.append(cell)
        typed.append(out)

    return Dataset(name or path.stem, list(zip(header, kinds)), typed)


def load_schema_sidecar(path) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"schema sidecar {path} is not a column -> kind object")
    return {col: ColumnKind(kind) for col, kind in obj.items()}


def write_dataset(dataset: Dataset, path, delimiter: str = ",") -> None:
    """Write CSV with canonical numeric text; nulls as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.column_names)
        for row in dataset.rows:
            writer.writerow([
                "" if cell is None else _cell_text(cell, kind)
                for cell, (_, kind) in zip(row, dataset.columns)
            ])


def write_schema_sidecar(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        json.dump({c: k.value for c, k in dataset.columns}, fh, indent=2)
        fh.write("\n")
