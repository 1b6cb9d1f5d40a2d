"""Reference row-at-a-time display engine: the semantics the columnar engine
in `autoeda.tabular` must reproduce. Views are plain row tuples."""

import math
from collections import Counter

import numpy as np

from autoeda.tabular import ColumnKind, canonical_number, parse_number


def _build_predicate(pred, kind):
    """A cell -> bool test for one filter, as the engine ran it per value."""
    op, term = pred.op, pred.term

    def text(cell):
        return canonical_number(cell) if kind is ColumnKind.NUMERIC else cell

    if kind is ColumnKind.NUMERIC and op in ("EQ", "NEQ"):
        target = parse_number(term)

        def eq(cell):
            return cell is not None and target is not None and cell == target
    else:
        def eq(cell):
            return cell is not None and text(cell) == term

    if op == "EQ":
        return eq
    if op == "NEQ":
        return lambda cell: not eq(cell)
    if op == "CONTAINS":
        return lambda cell: cell is not None and term in text(cell)
    if op == "STARTS_WITH":
        return lambda cell: cell is not None and text(cell).startswith(term)
    return lambda cell: cell is not None and text(cell).endswith(term)


def dataset_rows(ds):
    """Every row of `ds` as a tuple of cells, gathered from its dictionaries
    and codes."""
    return tuple(tuple(values[code] for values, code in zip(ds.dictionaries, row))
                 for row in ds.codes.T.tolist())


class RowView:
    def __init__(self, dataset, filters, grouping, rows):
        self.dataset, self.filters, self.grouping = dataset, filters, grouping
        self.rows = rows
        self.keys, self.sizes, self.group_rows = (
            ((), (), ()) if grouping is None else groups(dataset, rows, grouping))
        self.visible = self.group_rows if grouping is not None else rows
        self._fp = None  # lets display_fingerprint read a RowView


def root(ds):
    return RowView(ds, (), None, dataset_rows(ds))


def filtered(view, pred):
    ds = view.dataset
    idx = ds.column_index(pred.column)
    match = _build_predicate(pred, ds.columns[idx][1])
    rows = tuple(r for r in view.rows if match(r[idx]))
    return RowView(ds, view.filters + (pred,), view.grouping, rows)


def grouped(view, grouping):
    return RowView(view.dataset, view.filters, grouping, view.rows)


def groups(ds, rows, g):
    gi, ai = ds.column_index(g.grp_col), ds.column_index(g.agg_col)
    buckets = {}
    for row in rows:
        buckets.setdefault(row[gi], []).append(row[ai])
    keys = sorted(k for k in buckets if k is not None) + ([None] if None in buckets else [])
    aggs = []
    for key in keys:
        nums = [c for c in buckets[key] if c is not None]
        if g.agg_func == "COUNT":
            aggs.append(float(len(buckets[key])))
        elif not nums:
            aggs.append(None)
        elif g.agg_func in ("SUM", "MEAN"):
            total = 0.0
            for x in nums:  # a running sum in row order, as sum() before 3.12
                total += x
            aggs.append(total / len(nums) if g.agg_func == "MEAN" else total)
        else:
            aggs.append((min if g.agg_func == "MIN" else max)(nums))
    return tuple(keys), tuple(len(buckets[k]) for k in keys), tuple(zip(keys, aggs))


def stats(view, idx):
    cells = [r[idx] for r in view.rows]
    return Counter(c for c in cells if c is not None), cells.count(None)


def ranked(view, idx):
    counts, _ = stats(view, idx)
    return tuple(sorted(counts, key=lambda v: (-counts[v], v)))


def histogram(view, column):
    ds, g = view.dataset, view.grouping
    if g is not None and g.grp_col == column:
        return {key: 1.0 / len(view.keys) for key in view.keys}
    counts, _ = stats(view, ds.column_index(column))
    total = sum(counts.values())
    return {v: c / total for v, c in counts.items()}


def encode(view, ds):
    vec = np.zeros(4 * len(ds.columns) + 3)
    n, g = ds.row_count, view.grouping
    for i, (col, _) in enumerate(ds.columns):
        if g is not None:
            vec[4 * i + 3] = 1.0 if col == g.agg_col else 0.5 if col == g.grp_col else 0.0
        if n == 0 or not view.rows:
            continue
        hist = histogram(view, col)
        if hist:
            entropy = -sum(p * math.log2(p) for p in hist.values())
            distinct = len({r[i] for r in dataset_rows(ds) if r[i] is not None})
            vec[4 * i] = min(1.0, entropy / math.log2(max(2, distinct)))
        counts, nulls = stats(view, i)
        vec[4 * i + 1], vec[4 * i + 2] = len(counts) / n, nulls / n
    if g is not None and view.sizes and n > 0:
        sizes = np.asarray(view.sizes, dtype=float)
        vec[-3:] = len(view.sizes) / n, sizes.mean() / n, sizes.var() / (n * n)
    return vec
