"""Reference loader: the row-tuple `load_dataset` and `Dataset` encoding that
the columns-only `autoeda.tabular` must reproduce. Every cell is typed into
a row tuple, then each column's dictionary is `sorted(set(cells))`."""

import csv
import math
from pathlib import Path

from autoeda.tabular import ColumnKind, parse_number


def encode(name, columns, rows):
    """(columns, dictionaries, codes, row count) of a table given as row
    tuples, with the checks and error messages of the row-tuple `Dataset`."""
    names = [c for c, _ in columns]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate column names in {name!r}")
    columns = tuple((c, ColumnKind(k)) for c, k in columns)
    width = len(columns)
    coerced = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {r} has {len(row)} cells, expected {width}")
        coerced.append(tuple(_coerce(cell, kind, r, cname)
                             for cell, (cname, kind) in zip(row, columns)))
    dictionaries, codes = [], []
    for i in range(width):
        cells = [row[i] for row in coerced]
        distinct = sorted({c for c in cells if c is not None})
        code = {v: k for k, v in enumerate(distinct)}
        dictionaries.append(distinct + [None])
        codes.append([len(distinct) if c is None else code[c] for c in cells])
    return columns, dictionaries, codes, len(coerced)


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


def infer_kind(cells, n_rows, max_categorical, categorical_fraction):
    values = [c for c in cells if c != ""]
    if not values:
        return ColumnKind.NUMERIC
    parsed = [parse_number(v) for v in values]
    n_numeric = sum(p is not None for p in parsed)
    if n_numeric == len(values):
        return ColumnKind.NUMERIC
    if n_numeric > 0:
        return ColumnKind.TEXT
    threshold = max(max_categorical, categorical_fraction * n_rows)
    if len(set(values)) <= threshold:
        return ColumnKind.CATEGORICAL
    return ColumnKind.TEXT


def load_dataset(path, schema=None, delimiter=",", name=None,
                 max_categorical=20, categorical_fraction=0.05):
    """(columns, dictionaries, codes, row count) of a CSV file, cell by
    cell."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file, expected a header row") from None
        except csv.Error as exc:
            raise ValueError(f"the header row: {exc}") from None
        if not header:
            raise ValueError("the header row names no columns")
        raw = []
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"row {len(raw) + 1} has {len(row)} cells, "
                                     f"expected {len(header)}")
                raw.append(row)
        except csv.Error as exc:
            raise ValueError(f"row {len(raw) + 1}: {exc}") from None

    schema = {k: ColumnKind(v) for k, v in (schema or {}).items()}
    unknown = [c for c in schema if c not in header]
    if unknown:
        raise ValueError("schema names column(s) not in the header: "
                         + ", ".join(map(repr, unknown)))
    kinds = []
    for i, col in enumerate(header):
        if col in schema:
            kinds.append(schema[col])
        else:
            kinds.append(infer_kind([row[i] for row in raw], len(raw),
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
                    raise ValueError(f"row {r + 1}, column {header[i]!r}: "
                                     f"non-numeric cell {cell!r} in numeric column")
                out.append(value)
            else:
                out.append(cell)
        typed.append(out)

    return encode(name or path.stem, list(zip(header, kinds)), typed)
