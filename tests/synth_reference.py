"""Reference sampler: per-cell `rng.choice` draws and row scans, the
semantics the cached inverse-CDF sampler in `autoeda.synth` must reproduce
draw for draw."""

import numpy as np

from autoeda.synth import (NUMERIC_DECIMALS, TEXT_CELL_LEN, CategoryPattern,
                           NumericPattern, _LOWER)
from autoeda.tabular import Dataset
from row_engine import dataset_rows


def realize(pattern, rng):
    if isinstance(pattern, CategoryPattern):
        return pattern.value
    if isinstance(pattern, NumericPattern):
        return float(round(rng.normal(pattern.mu, pattern.sigma),
                           NUMERIC_DECIMALS))
    s = pattern.substring
    pad = TEXT_CELL_LEN - len(s)
    filler = "".join(rng.choice(list(_LOWER), size=pad))
    if pattern.position == "START":
        return s + filler
    if pattern.position == "END":
        return filler + s
    offset = int(rng.integers(1, pad)) if pad > 1 else 0
    return filler[:offset] + s + filler[offset:]


def populate_rows(schema, patterns, dag, n_rows, m, rng, name="synthetic"):
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if m <= 1:
        raise ValueError("multiplier m must be > 1")
    pat_by_col = {cp.column: cp for cp in patterns}
    incoming = {c: [] for c, _ in schema}
    for edge in dag.edges:
        incoming[edge.dst_col].append(edge)
    col_pos = {c: i for i, (c, _) in enumerate(schema)}
    rows = []
    for _ in range(n_rows):
        fired = {}
        row = [None] * len(schema)
        for col in dag.columns:
            cp = pat_by_col[col]
            weights = np.asarray(cp.weights, dtype=float)
            for edge in incoming[col]:
                src_fired = fired[edge.src_col]
                for src_i, dst_i in edge.links:
                    if src_fired == src_i:
                        weights[dst_i] *= m
            weights = weights / weights.sum()
            k = int(rng.choice(len(weights), p=weights))
            fired[col] = k
            row[col_pos[col]] = realize(cp.patterns[k], rng)
        rows.append(row)
    return Dataset(name, list(schema), rows)


def nearest_realized_value(dataset, column, target):
    idx = dataset.column_index(column)
    values = [r[idx] for r in dataset_rows(dataset) if r[idx] is not None]
    if not values:
        raise ValueError(f"column {column!r} has no values to filter on")
    return min(values, key=lambda v: (abs(v - target), v))
