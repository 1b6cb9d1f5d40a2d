"""In-memory tabular data model and the FILTER/GROUP display engine.

A Dataset is an immutable named table with typed columns, stored
column-wise as dictionary codes. A Display is the view produced by applying
an ordered stack of filter predicates and at most one grouping to a dataset;
it holds the index array of its rows. Displays materialize
deterministically, expose per-column value distributions as counts over the
codes, and carry a canonical fingerprint so that two operation stacks with
the same meaning compare equal.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path

import numpy as np


class ColumnKind(Enum):
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TEXT = "text"


FILTER_OPS = ("EQ", "NEQ", "CONTAINS", "STARTS_WITH", "ENDS_WITH")
# each operator's test of a text against its term; NEQ keeps what EQ's
# test rejects
_TEXT_TESTS = {"EQ": operator.eq, "NEQ": operator.eq,
               "CONTAINS": operator.contains,
               "STARTS_WITH": str.startswith, "ENDS_WITH": str.endswith}
AGG_FUNCS = ("SUM", "COUNT", "MEAN", "MIN", "MAX")
NUMERIC_AGGS = frozenset({"SUM", "MEAN", "MIN", "MAX"})


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite int or float that is not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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


def _checked_columns(name: str, columns) -> tuple:
    names = [c for c, _ in columns]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate column names in {name!r}")
    return tuple((c, ColumnKind(k)) for c, k in columns)


def _encode_column(cells, distinct, values):
    """(dictionary, codes) of one column, given each row's cell.

    `distinct` lists the column's distinct cells in order of first row and
    `values` their values, None for null. Cells whose values compare equal
    (1.0 parsed from "1" and from "1.0", or 0.0 and -0.0) share one code,
    and the dictionary keeps the first of them in row order.
    """
    present = sorted(dict.fromkeys(v for v in values if v is not None))
    code = {v: k for k, v in enumerate(present)}
    code_of = {c: len(present) if v is None else code[v]
               for c, v in zip(distinct, values)}
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.int32,
                        count=len(cells))
    return np.array(present + [None], dtype=object), codes


def _encode_strings(cells, distinct):
    """(dictionary, codes) of a non-numeric CSV column, given each row's
    cell and the column's distinct cells. The empty string is the null
    cell; it sorts first, so it is dropped from the front."""
    present = sorted(distinct)
    if present and present[0] == "":
        del present[0]
    code = dict(zip(present, range(len(present))))
    code[""] = len(present)
    codes = np.fromiter(map(code.__getitem__, cells), dtype=np.int32,
                        count=len(cells))
    return np.array(present + [None], dtype=object), codes


class Dataset:
    """Immutable table. Cells are float (numeric columns), str, or None.

    The table is stored column-wise, dictionary-coded, with no row tuples:
    `dictionaries[i]` holds column i's K distinct non-null values in sorted
    order followed by None, and `codes[i]` gives each row's position in it.
    Code K is thus the null sentinel, and code order is value order with
    nulls last. Values that compare equal (0.0 and -0.0) share one code,
    whose dictionary entry is the first of them in row order. `texts[i]`
    spells each entry as a FILTER term and a CSV cell do (numbers in
    `canonical_number` form), "" for null. The dataset keeps the row set of
    all its rows, which every root view shows.
    """

    def __init__(self, name: str, columns, rows):
        columns = _checked_columns(name, columns)
        width = len(columns)
        cells = [[] for _ in columns]
        n_rows = 0
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {r} has {len(row)} cells, expected {width}")
            for cell, (cname, kind), column in zip(row, columns, cells):
                column.append(self._coerce(cell, kind, r, cname))
            n_rows = r + 1
        encoded = []
        for column in cells:
            distinct = list(dict.fromkeys(column))
            encoded.append(_encode_column(column, distinct, distinct))
        self._store(name, columns, encoded, n_rows)

    @classmethod
    def _encoded(cls, name: str, columns, encoded, n_rows: int) -> Dataset:
        """A dataset from each column's (dictionary, codes) pair, as
        `_encode_column` returns it."""
        self = cls.__new__(cls)
        self._store(name, _checked_columns(name, columns), encoded, n_rows)
        return self

    def _store(self, name, columns, encoded, n_rows):
        self.name = name
        self.columns = columns
        self.column_names = tuple(c for c, _ in columns)
        self._index = {c: i for i, c in enumerate(self.column_names)}
        width = len(columns)
        self.dictionaries = tuple(values for values, _ in encoded)
        self.codes = np.array([codes for _, codes in encoded],
                              dtype=np.int32).reshape(width, n_rows)
        self.codes.setflags(write=False)
        # numeric dictionaries, NaN for null
        self._numbers = tuple(
            np.array(values[:-1].tolist() + [math.nan])
            if kind is ColumnKind.NUMERIC else None
            for values, (_, kind) in zip(self.dictionaries, columns))
        self.texts = tuple(
            np.array([canonical_number(v) for v in values[:-1].tolist()] + [""],
                     dtype=object)
            if kind is ColumnKind.NUMERIC else np.append(values[:-1], "")
            for values, (_, kind) in zip(self.dictionaries, columns))
        # every column's codes shifted into one slot space, so that one
        # bincount counts all columns: column i owns slots offsets[i] to
        # offsets[i + 1] - 1, its null slot last
        sizes = [len(d) for d in self.dictionaries]
        self._offsets = np.cumsum([0] + sizes)
        self._slot_column = np.repeat(np.arange(width), sizes)
        self._null_slot = np.zeros(self._offsets[-1], dtype=bool)
        self._null_slot[self._offsets[1:] - 1] = True
        # each column's entropy scale in env.encode_display: log2 of its
        # distinct count, at least 1 bit
        self._entropy_scale = np.array(
            [math.log2(max(2, self.distinct_count(i))) for i in range(width)])
        # a row set holds no reference to its dataset, so this forms no cycle
        rows = np.arange(n_rows, dtype=np.int32)
        rows.setflags(write=False)
        self._all_rows = _RowSet(rows, ())
        # (row filters, grouping or None) -> read-only encoding
        # (env.encode_display), and (before row filters, after row filters)
        # -> {(column index, before grouped on it, after grouped on it): KL}
        # (measures.max_column_kl). Keys hold only predicates, groupings,
        # ints and bools, so nothing refers back to the dataset, and the
        # memos die with it.
        self._encodings = {}
        self._kl_memo = {}

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
        return self.codes.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r} in dataset {self.name!r}") from None

    def kind_of(self, name: str) -> ColumnKind:
        return self.columns[self.column_index(name)][1]

    def distinct_count(self, idx: int) -> int:
        """Distinct non-null values in the full table for one column."""
        return len(self.dictionaries[idx]) - 1


class _RowSet:
    """The rows that one or more views of a dataset show, the filters that
    decide them (`Display.row_filters`), and everything computed from those
    rows alone: the column summary, the per-column rankings, and each
    grouping's group table.

    A GROUP view, and a FILTER view that keeps every row, share their
    parent's row set, so whichever of them computes a value first serves
    the others. It holds no reference to its dataset, so a dataset is freed
    by reference counting alone.
    """

    __slots__ = ("rows", "filters", "summary", "ranked", "groups")

    def __init__(self, rows, filters):
        self.rows = rows
        self.filters = filters
        self.summary = None
        self.ranked = {}  # column index -> ranked codes
        # Grouping -> [codes, sizes, aggregates or None until first read]
        self.groups = {}

    def grouped(self, dataset: Dataset, grouping: Grouping) -> list:
        """The group table of `grouping` over these rows: its codes and
        sizes, computed once, and a place for its aggregates."""
        table = self.groups.get(grouping)
        if table is None:
            table = self.groups[grouping] = [
                *_compute_groups(dataset, self.rows, grouping), None]
        return table


class Display:
    """A dataset view: ordered filters, optional single grouping, rows.

    `rows` is the ascending int32 array of the dataset rows that pass the
    filters. A grouped display also holds its group sizes, reads its group
    keys (in code order, null last) from its group codes, and computes its
    aggregate values when they are first read; `visible_rows` is what a
    user would see. Instances are immutable. Views that show the same rows
    (every root view of a dataset, a GROUP view and its parent, a FILTER
    that keeps every row and its parent) share one set of row statistics:
    per-column counts, rankings, group tables and aggregates, each computed
    once and read-only. The root views' set lives as long as the dataset. A
    view whose row filters and grouping its dataset has encoded before
    starts with that encoding.
    """

    __slots__ = ("dataset", "filters", "grouping", "_rowset", "group_sizes",
                 "_vec", "_fp")

    def __init__(self, dataset, filters, grouping, rows):
        """`rows` is the `_RowSet` the view shares with every view that
        shows the same rows."""
        self.dataset = dataset
        self.filters = tuple(filters)
        self.grouping = grouping
        self._rowset = rows
        self.group_sizes = (() if grouping is None
                            else rows.grouped(dataset, grouping)[1])
        self._vec = dataset._encodings.get((rows.filters, grouping))
        self._fp = None

    @property
    def rows(self):
        return self._rowset.rows

    @property
    def row_count(self) -> int:
        return len(self._rowset.rows)

    @property
    def row_filters(self) -> tuple:
        """The filters that decide the view's rows: its filters without
        those that kept every row they were given. On one dataset, equal
        row filters mean equal rows."""
        return self._rowset.filters

    @property
    def group_keys(self) -> tuple:
        """Each group's key, in code order with the null group (None)
        last."""
        ds, g = self.dataset, self.grouping
        if g is None:
            return ()
        codes = self._rowset.grouped(ds, g)[0]
        return tuple(ds.dictionaries[ds.column_index(g.grp_col)][codes].tolist())

    @property
    def group_count(self) -> int:
        return len(self.group_sizes)

    @property
    def group_aggs(self) -> tuple:
        """Each group's aggregate value, computed on first read and kept
        with the row set's group table."""
        if self.grouping is None:
            return ()
        table = self._rowset.grouped(self.dataset, self.grouping)
        if table[2] is None:
            table[2] = _group_aggregates(self.dataset, self.rows,
                                         self.grouping)
        return table[2]

    @property
    def group_rows(self):
        """(key, aggregate) pairs, one per group."""
        return tuple(zip(self.group_keys, self.group_aggs))

    @property
    def visible_count(self) -> int:
        return self.group_count if self.grouping is not None else self.row_count

    @property
    def visible_rows(self):
        """The group table when grouped, else the filtered rows' cells,
        gathered from the dictionaries, one tuple per row."""
        if self.grouping is not None:
            return self.group_rows
        ds = self.dataset
        columns = [values[codes].tolist()
                   for values, codes in zip(ds.dictionaries, ds.codes[:, self.rows])]
        return tuple(zip(*columns)) if columns else ((),) * self.row_count

    def shows_same_rows(self, other: Display) -> bool:
        """Whether two displays of one dataset show equal visible rows."""
        if self.visible_count != other.visible_count:
            return False
        plain = (self.grouping is None) + (other.grouping is None)
        if plain == 2:
            codes = self.dataset.codes
            return np.array_equal(codes[:, self.rows], codes[:, other.rows])
        # (key, aggregate) pairs can equal plain rows only in a two-column
        # dataset, or when both sides show nothing
        if plain == 1 and len(self.dataset.columns) != 2:
            return self.visible_count == 0
        return self.visible_rows == other.visible_rows

    def _summarize(self):
        """(non-null slots present, their counts, null count per column,
        where each column's run of slots starts). A column's run lists its
        values in the order of their first row, the order in which a
        row-by-row count meets them."""
        rowset = self._rowset
        if rowset.summary is None:
            ds = self.dataset
            slots = (ds.codes[:, rowset.rows] + ds._offsets[:-1, None]).ravel()
            counts = np.bincount(slots, minlength=ds._offsets[-1])
            first = np.full(len(counts), len(slots))
            np.minimum.at(first, slots, np.arange(len(slots)))
            is_first = np.zeros(len(slots) + 1, dtype=bool)
            is_first[first] = True  # absent slots mark the spare last entry
            present = slots[is_first[:-1]]
            present = present[~ds._null_slot[present]]
            starts = np.searchsorted(ds._slot_column[present],
                                     np.arange(len(ds.columns) + 1))
            summary = (present, counts[present], counts[ds._offsets[1:] - 1],
                       starts)
            for array in summary:
                array.setflags(write=False)
            rowset.summary = summary
        return rowset.summary

    def column_stats(self, idx: int):
        """(codes, counts, nulls): the codes of the non-null values present
        in the underlying rows, in the order of their first row, how often
        each occurs, and the number of null cells."""
        present, counts, nulls, starts = self._summarize()
        run = slice(starts[idx], starts[idx + 1])
        return present[run] - self.dataset._offsets[idx], counts[run], int(nulls[idx])

    def entropy_bits(self) -> np.ndarray:
        """Per column, the entropy in bits of its non-null value counts.

        The terms p * log2(p) add up in column_stats order, as a row-by-row
        count would add them, and log2 comes from `math`, once per distinct
        count of a column: numpy's log2 can differ from it in the last bit.
        Computed on each call: its one reader, `env.encode_display`, keeps
        what it derives from it in the dataset's encoding memo.
        """
        present, counts, _, _ = self._summarize()
        width = len(self.dataset.columns)
        if len(present) == 0:
            return np.zeros(width)
        column = self.dataset._slot_column[present]
        totals = np.bincount(column, weights=counts, minlength=width)
        span = int(counts.max()) + 1
        key = column * span + counts
        terms = np.zeros(width * span)
        for k in np.flatnonzero(np.bincount(key)).tolist():
            p = (k % span) / totals[k // span]
            terms[k] = p * math.log2(p)
        return -np.bincount(column, weights=terms[key], minlength=width)

    def ranked_codes(self, idx: int) -> tuple:
        """Codes of the distinct non-null values, most frequent first (ties
        by value, which is code order)."""
        ranked = self._rowset.ranked
        if idx not in ranked:
            codes, counts, _ = self.column_stats(idx)
            ranked[idx] = tuple(codes[np.lexsort((codes, -counts))].tolist())
        return ranked[idx]


def initial_display(dataset: Dataset) -> Display:
    """The unfiltered, ungrouped view. Every root view of a dataset shows
    the dataset's own row set of all rows, so their row statistics and
    group tables are computed once per dataset."""
    return Display(dataset, (), None, dataset._all_rows)


def _compute_groups(dataset: Dataset, rows, grouping: Grouping):
    """Group codes (read-only) and sizes; in code order, null last."""
    gi = dataset.column_index(grouping.grp_col)
    sizes = np.bincount(dataset.codes[gi, rows],
                        minlength=len(dataset.dictionaries[gi]))
    present = np.flatnonzero(sizes)
    present.setflags(write=False)
    return present, tuple(sizes[present].tolist())


def _group_aggregates(dataset: Dataset, rows, grouping: Grouping) -> tuple:
    """Each group's aggregate, in `_compute_groups` order: None for a group
    with no numeric cell to aggregate.

    Aggregates add their cells in row order, as a running sum would.
    """
    gi = dataset.column_index(grouping.grp_col)
    keys = dataset.codes[gi, rows]
    sizes = np.bincount(keys, minlength=len(dataset.dictionaries[gi]))
    present = np.flatnonzero(sizes)
    func = grouping.agg_func
    if func == "COUNT":
        aggs = sizes[present].astype(float).tolist()
    else:
        ai = dataset.column_index(grouping.agg_col)
        numbers = dataset._numbers[ai]
        cells = dataset.codes[ai, rows]
        valid = cells < len(numbers) - 1
        keys_v, values = keys[valid], numbers[cells[valid]]
        filled = np.bincount(keys_v, minlength=len(sizes))
        if func in ("SUM", "MEAN"):
            acc = np.bincount(keys_v, weights=values,
                              minlength=len(sizes)).astype(float, copy=False)
            if func == "MEAN":
                acc = np.divide(acc, filled, out=acc, where=filled > 0)
        else:
            acc = np.full(len(sizes), math.nan)
            (np.fmin if func == "MIN" else np.fmax).at(acc, keys_v, values)
        aggs = [v if n else None
                for v, n in zip(acc[present].tolist(), filled[present].tolist())]
    return tuple(aggs)


def filter_passes(dataset: Dataset, idx: int, op: str, term: str,
                  codes) -> list[bool]:
    """Whether each of column `idx`'s non-null dictionary `codes` (an int
    array or sequence) passes `op`'s test against `term`, before NEQ's
    negation. EQ and NEQ on a numeric column compare numbers; every other
    test reads the dictionary texts."""
    if op in ("EQ", "NEQ") and dataset.columns[idx][1] is ColumnKind.NUMERIC:
        target = parse_number(term)
        if target is None:
            return [False] * len(codes)
        return (dataset._numbers[idx].take(codes) == target).tolist()
    return list(map(_TEXT_TESTS[op], dataset.texts[idx].take(codes).tolist(),
                    repeat(term)))


def apply_filter(display: Display, pred: FilterPredicate) -> Display:
    """Filter the underlying rows and re-apply any active grouping.

    `filter_passes` tests each distinct value present in the view, never
    each row. A null matches nothing, so NEQ keeps it.
    """
    ds = display.dataset
    idx = ds.column_index(pred.column)
    codes, _, _ = display.column_stats(idx)
    keep = np.zeros(len(ds.dictionaries[idx]), dtype=bool)
    keep[codes] = filter_passes(ds, idx, pred.op, pred.term, codes)
    if pred.op == "NEQ":
        keep = ~keep
    rows = display.rows[keep[ds.codes[idx, display.rows]]]
    # a filter that keeps every row shows its parent's rows
    rowset = (display._rowset if len(rows) == display.row_count
              else _RowSet(rows, display.row_filters + (pred,)))
    return Display(ds, display.filters + (pred,), display.grouping, rowset)


def apply_group(display: Display, grouping: Grouping) -> Display:
    """Group the filtered rows, replacing any previous grouping."""
    ds = display.dataset
    ds.column_index(grouping.grp_col)
    agg_kind = ds.kind_of(grouping.agg_col)
    if grouping.agg_func in NUMERIC_AGGS and agg_kind is not ColumnKind.NUMERIC:
        raise ValueError(
            f"{grouping.agg_func} requires a numeric aggregate column, "
            f"{grouping.agg_col!r} is {agg_kind.value}")
    return Display(ds, display.filters, grouping, display._rowset)


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


class Histogram(Mapping):
    """One column's relative value frequencies in dictionary-code space:
    `dictionary` is the column's `Dataset.dictionaries` entry, `codes` the
    codes present and `shares` their shares. It reads as value -> share;
    that dict is built only when something iterates it or looks up a value.
    """

    __slots__ = ("dictionary", "codes", "shares", "_by_value")

    def __init__(self, dictionary, codes, shares):
        self.dictionary, self.codes, self.shares = dictionary, codes, shares
        self._by_value = None

    def _values(self) -> dict:
        if self._by_value is None:
            self._by_value = dict(zip(self.dictionary[self.codes].tolist(),
                                      self.shares.tolist()))
        return self._by_value

    def __getitem__(self, value):
        return self._values()[value]

    def __iter__(self):
        return iter(self._values())

    def __len__(self):
        return len(self.codes)


def column_histogram(display: Display, column: str) -> Histogram:
    """Relative value frequencies for one column of a display.

    Nulls are excluded (tracked separately as a count), and the codes come
    in `column_stats` order. For the grouped column of a grouped display
    the codes are the group codes, each with the same share, mirroring the
    visible one-row-per-group table; a null group appears under the null
    code, whose value is None.
    """
    ds = display.dataset
    idx = ds.column_index(column)
    g = display.grouping
    if g is not None and g.grp_col == column:
        codes = display._rowset.grouped(ds, g)[0]
        return Histogram(ds.dictionaries[idx], codes,
                         np.ones(len(codes)) / len(codes))
    codes, counts, _ = display.column_stats(idx)
    return Histogram(ds.dictionaries[idx], codes, counts / counts.sum())


def _infer_kind(strings, numbers, n_rows, max_categorical, categorical_fraction):
    """The kind of a column from its distinct raw strings and their parsed
    numbers (None where a string is not a finite number). Every test reads
    only which strings occur, never how often."""
    values = [v for s, v in zip(strings, numbers) if s != ""]
    if not values:
        return ColumnKind.NUMERIC
    n_numeric = sum(v is not None for v in values)
    if n_numeric == len(values):
        return ColumnKind.NUMERIC
    if n_numeric > 0:
        # mixed numeric and non-numeric content reads as messy text
        return ColumnKind.TEXT
    threshold = max(max_categorical, categorical_fraction * n_rows)
    if len(values) <= threshold:
        return ColumnKind.CATEGORICAL
    return ColumnKind.TEXT


def _read_columns(path: Path):
    """(header, one tuple of raw strings per column, row count). A row the
    csv module cannot parse, such as one with a field over its size limit,
    raises ValueError naming the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, rows = None, []
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file, expected a header row")
            if not header:
                raise ValueError("the header row names no columns")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"row {len(rows) + 1} has {len(row)} cells, "
                                     f"expected {len(header)}")
                rows.append(row)
        except csv.Error as exc:
            row = "the header row" if header is None else f"row {len(rows) + 1}"
            raise ValueError(f"{row}: {exc}") from None
    columns = list(zip(*rows)) if rows else [()] * len(header)
    return header, columns, len(rows)


class UnknownSchemaColumn(ValueError):
    """A schema names a column that the CSV's header does not."""


def load_dataset(path, schema: dict | None = None, max_categorical: int = 20,
                 categorical_fraction: float = 0.05) -> Dataset:
    """Load a CSV file with a header row; the dataset is named after the
    file's stem.

    `schema` maps column names to ColumnKind (or its string value) and
    overrides inference; naming a column the header does not raises
    UnknownSchemaColumn. Empty cells load as null. Each distinct string of
    a column is parsed once.
    """
    path = Path(path)
    header, columns, n_rows = _read_columns(path)
    schema = {k: ColumnKind(v) for k, v in (schema or {}).items()}
    unknown = [c for c in schema if c not in header]
    if unknown:
        raise UnknownSchemaColumn("schema names column(s) not in the header: "
                                  + ", ".join(map(repr, unknown)))
    kinds, encoded, bad = [], [], []
    for i, (col, cells) in enumerate(zip(header, columns)):
        distinct = list(dict.fromkeys(cells))
        kind = schema.get(col)
        numbers = ([parse_number(s) for s in distinct]
                   if kind in (None, ColumnKind.NUMERIC) else None)
        if kind is None:
            kind = _infer_kind(distinct, numbers, n_rows,
                               max_categorical, categorical_fraction)
        if kind is ColumnKind.NUMERIC:
            # the first unparsable string in `distinct` is the first in row order
            for s, v in zip(distinct, numbers):
                if v is None and s != "":
                    bad.append((cells.index(s), i, s))
                    break
            encoded.append(_encode_column(cells, distinct, numbers))
        else:
            encoded.append(_encode_strings(cells, distinct))
        kinds.append(kind)
    if bad:
        r, i, cell = min(bad)
        raise ValueError(f"row {r + 1}, column {header[i]!r}: "
                         f"non-numeric cell {cell!r} in numeric column")
    return Dataset._encoded(path.stem, list(zip(header, kinds)), encoded, n_rows)


def load_schema_sidecar(path) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("not a column -> kind object")
    return {col: ColumnKind(kind) for col, kind in obj.items()}


def write_dataset(dataset: Dataset, path) -> None:
    """Write CSV with canonical numeric text; nulls as empty cells,
    gathered from each column's dictionary text by the codes."""
    columns = [texts[codes].tolist()
               for texts, codes in zip(dataset.texts, dataset.codes)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.column_names)
        writer.writerows(zip(*columns))


def write_json(path, obj, indent: int) -> None:
    """`obj` as indented JSON and a newline, encoded whole and written at
    once."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=indent) + "\n")


def write_schema_sidecar(dataset: Dataset, path) -> None:
    write_json(path, {c: k.value for c, k in dataset.columns}, indent=2)
