"""Synthetic dataset and expert-session generation.

Columns receive weighted value patterns (categories, Gaussians, placed
substrings). An acyclic set of cross-column correlations boosts the chance
of a destination pattern whenever its linked source pattern fired in the
same row. Expert sessions are depth-first traversals of that correlation
graph, expressed as FILTER/GROUP operations with balancing BACKs.
"""

from __future__ import annotations

import bisect
import math
import string
from dataclasses import dataclass

import numpy as np

from .env import BACK, STOP, ActionSpec, Trajectory
from .tabular import ColumnKind, Dataset, FilterPredicate, Grouping

TEXT_POSITIONS = ("START", "MIDDLE", "END")
TEXT_CELL_LEN = 12
# Gaussian draws are rounded so numeric columns carry repeated values;
# that gives the near-mean filter terms of expert sessions a meaningful
# frequency rank instead of a unique float nobody can select again.
NUMERIC_DECIMALS = 0
_LOWER = string.ascii_lowercase
# the tolerance rng.choice allows on the sum of its probabilities
_P_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)

# Default schema used throughout: three categorical, three numeric and two
# text columns.
DEFAULT_SCHEMA = (
    ("c1", ColumnKind.CATEGORICAL), ("c2", ColumnKind.CATEGORICAL),
    ("c3", ColumnKind.CATEGORICAL),
    ("n1", ColumnKind.NUMERIC), ("n2", ColumnKind.NUMERIC),
    ("n3", ColumnKind.NUMERIC),
    ("t1", ColumnKind.TEXT), ("t2", ColumnKind.TEXT),
)


@dataclass(frozen=True)
class CategoryPattern:
    value: str


@dataclass(frozen=True)
class NumericPattern:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class TextPattern:
    substring: str
    position: str

    def __post_init__(self):
        if not self.substring:
            raise ValueError("substring must be nonempty")
        if self.position not in TEXT_POSITIONS:
            raise ValueError(f"unknown position {self.position!r}")


@dataclass(frozen=True)
class ColumnPatterns:
    column: str
    patterns: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.patterns) != len(self.weights) or not self.patterns:
            raise ValueError("patterns and weights must align and be nonempty")
        if any(w < 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Correlation:
    src_col: str
    dst_col: str
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.src_col == self.dst_col:
            raise ValueError("correlation endpoints must differ")
        if not self.links:
            raise ValueError("correlation needs at least one pattern link")


@dataclass(frozen=True)
class CorrelationDag:
    columns: tuple[str, ...]  # topological order
    edges: tuple[Correlation, ...]


def generate_patterns(schema, n_patterns: int, rng: np.random.Generator):
    """Per-column pattern sets with simplex-uniform weights."""
    if n_patterns < 1:
        raise ValueError("n_patterns must be >= 1")
    out = []
    for col, kind in schema:
        if kind is ColumnKind.CATEGORICAL:
            patterns = tuple(CategoryPattern(f"cat_{col}_{i}") for i in range(n_patterns))
        elif kind is ColumnKind.NUMERIC:
            patterns = tuple(
                NumericPattern(mu=float(rng.uniform(0, 100)),
                               sigma=float(rng.uniform(1, 10)))
                for _ in range(n_patterns))
        else:
            patterns = tuple(
                TextPattern(
                    substring="".join(rng.choice(list(_LOWER),
                                                 size=int(rng.integers(3, 7)))),
                    position=TEXT_POSITIONS[int(rng.integers(len(TEXT_POSITIONS)))])
                for _ in range(n_patterns))
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(n_patterns)))
        out.append(ColumnPatterns(col, patterns, weights))
    return out


def generate_correlations(schema, patterns, rng: np.random.Generator,
                          cap: int = 2, n_edges: int = 3,
                          links_per_edge: int = 1) -> CorrelationDag:
    """Random acyclic correlations.

    Edges only run forward along a random column permutation, so the result
    is a DAG by construction. No column takes part in more than `cap` edges.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    names = [c for c, _ in schema]
    order = [names[i] for i in rng.permutation(len(names))]
    pat_by_col = {cp.column: cp for cp in patterns}
    candidates = [(i, j) for i in range(len(order)) for j in range(i + 1, len(order))]
    if candidates:
        candidates = [candidates[k] for k in rng.permutation(len(candidates))]
    degree = {c: 0 for c in order}
    edges = []
    want = max(n_edges, 1) if len(order) >= 2 else 0
    for i, j in candidates:
        if len(edges) >= want:
            break
        src, dst = order[i], order[j]
        if degree[src] >= cap or degree[dst] >= cap:
            continue
        n_src = len(pat_by_col[src].patterns)
        n_dst = len(pat_by_col[dst].patterns)
        n_links = min(links_per_edge, n_src * n_dst)
        pairs = set()
        while len(pairs) < n_links:
            pairs.add((int(rng.integers(n_src)), int(rng.integers(n_dst))))
        edges.append(Correlation(src, dst, tuple(sorted(pairs))))
        degree[src] += 1
        degree[dst] += 1
    return CorrelationDag(tuple(order), tuple(edges))


def _realize(pattern, rng: np.random.Generator):
    if isinstance(pattern, CategoryPattern):
        return pattern.value
    if isinstance(pattern, NumericPattern):
        return float(round(rng.normal(pattern.mu, pattern.sigma),
                           NUMERIC_DECIMALS))
    s = pattern.substring
    pad = TEXT_CELL_LEN - len(s)
    # the same draw as rng.choice(list(_LOWER), size=pad)
    filler = "".join([_LOWER[i] for i in rng.integers(0, 26, size=pad).tolist()])
    if pattern.position == "START":
        return s + filler
    if pattern.position == "END":
        return filler + s
    offset = int(rng.integers(1, pad)) if pad > 1 else 0
    return filler[:offset] + s + filler[offset:]


def _cdf(weights: np.ndarray) -> list[float]:
    """The cumulative distribution `rng.choice(n, p=weights / weights.sum())`
    searches, with the checks it makes on p; `bisect_right` of one
    `rng.random()` draw in it picks what that call picks."""
    p = weights / weights.sum()
    if not np.isfinite(p).all():
        raise ValueError("probabilities are not finite")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(math.fsum(p.tolist()) - 1.0) > _P_SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def populate_rows(schema, patterns, dag: CorrelationDag, n_rows: int,
                  m: float, rng: np.random.Generator,
                  name: str = "synthetic") -> Dataset:
    """Sample rows column by column in topological order.

    Each cell starts from its column's base pattern weights; every incoming
    correlation whose source pattern fired in this row multiplies the linked
    destination weight by `m` before renormalizing and sampling. The weights
    depend only on the source patterns that fired, so each combination's
    CDF is built once and a cell costs one `rng.random()` draw: the
    inverse-transform draw `rng.choice` makes from the same stream.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if not (math.isfinite(m) and m > 1):
        raise ValueError("multiplier m must be finite and > 1")
    pat_by_col = {cp.column: cp for cp in patterns}
    incoming: dict[str, list[Correlation]] = {c: [] for c, _ in schema}
    for edge in dag.edges:
        incoming[edge.dst_col].append(edge)
    col_pos = {c: i for i, (c, _) in enumerate(schema)}
    cdfs: dict[tuple, list[float]] = {}
    rows = []
    for _ in range(n_rows):
        fired: dict[str, int] = {}
        row = [None] * len(schema)
        for col in dag.columns:
            key = (col, *(fired[edge.src_col] for edge in incoming[col]))
            cdf = cdfs.get(key)
            if cdf is None:
                weights = np.asarray(pat_by_col[col].weights, dtype=float)
                for edge, src_fired in zip(incoming[col], key[1:]):
                    for src_i, dst_i in edge.links:
                        if src_fired == src_i:
                            weights[dst_i] *= m
                cdf = cdfs[key] = _cdf(weights)
            k = bisect.bisect_right(cdf, rng.random())
            fired[col] = k
            row[col_pos[col]] = _realize(pat_by_col[col].patterns[k], rng)
        rows.append(row)
    return Dataset(name, list(schema), rows)


def nearest_realized_code(dataset: Dataset, column: str, target: float) -> int:
    """The code of the column's value closest to `target`, the smaller
    value on a tie."""
    values = dataset.dictionaries[dataset.column_index(column)][:-1]
    if len(values) == 0:
        raise ValueError(f"column {column!r} has no values to filter on")
    # the dictionary is ascending, so the first minimum is the smaller value
    return int(np.argmin(np.abs(values.astype(float) - target)))


_POSITION_OPS = {"START": "STARTS_WITH", "MIDDLE": "CONTAINS", "END": "ENDS_WITH"}


def _filter_for(dataset: Dataset, column: str, pattern) -> ActionSpec:
    if isinstance(pattern, CategoryPattern):
        pred = FilterPredicate(column, "EQ", pattern.value)
    elif isinstance(pattern, NumericPattern):
        code = nearest_realized_code(dataset, column, pattern.mu)
        pred = FilterPredicate(column, "EQ",
                               dataset.texts[dataset.column_index(column)][code])
    else:
        pred = FilterPredicate(column, _POSITION_OPS[pattern.position],
                               pattern.substring)
    return ActionSpec("FILTER", filter=pred)


def _edge_actions(dataset: Dataset, pat_by_col, edge: Correlation,
                  rng: np.random.Generator, group_prob: float):
    src_i, dst_i = edge.links[int(rng.integers(len(edge.links)))]
    src_pat = pat_by_col[edge.src_col].patterns[src_i]
    dst_pat = pat_by_col[edge.dst_col].patterns[dst_i]
    first = _filter_for(dataset, edge.src_col, src_pat)
    if rng.random() < group_prob:
        # reveal the correlation by grouping the destination column of the
        # filtered view and counting the source; COUNT allows any kinds
        second = ActionSpec("GROUP", group=Grouping(edge.dst_col, edge.src_col,
                                                    "COUNT"))
    else:
        second = _filter_for(dataset, edge.dst_col, dst_pat)
    return [first, second]


def _visit(col, dataset: Dataset, pat_by_col, outgoing, rng: np.random.Generator,
           group_prob: float, visited: set, actions: list) -> None:
    """Depth-first from `col`: append each branch's two operations, the
    subtree of an unvisited destination, then two BACKs.

    A module-level function rather than a nested closure: a closure that
    calls itself forms a reference cycle that keeps `dataset` alive until
    the cyclic garbage collector runs.
    """
    visited.add(col)
    branches = outgoing[col]
    order = rng.permutation(len(branches)) if len(branches) > 1 else range(len(branches))
    for b in order:
        edge = branches[int(b)]
        actions.extend(_edge_actions(dataset, pat_by_col, edge, rng, group_prob))
        if edge.dst_col not in visited:
            _visit(edge.dst_col, dataset, pat_by_col, outgoing, rng, group_prob,
                   visited, actions)
        actions.extend([BACK, BACK])


def generate_expert_trajectories(dataset: Dataset, patterns, dag: CorrelationDag,
                                 rng: np.random.Generator, n_trajectories: int = 1,
                                 group_prob: float = 0.5) -> list[Trajectory]:
    """Depth-first traversals of the correlation graph as EDA sessions.

    Each traversed edge contributes two operations revealing the linked
    patterns, then BACKs unwind to the edge's source before the next branch.
    Visited columns are not expanded twice. Every session ends with STOP at
    the root display.
    """
    if not dag.edges:
        raise ValueError("correlation graph has no edges to traverse")
    pat_by_col = {cp.column: cp for cp in patterns}
    outgoing: dict[str, list[Correlation]] = {c: [] for c in dag.columns}
    has_incoming = set()
    for edge in dag.edges:
        outgoing[edge.src_col].append(edge)
        has_incoming.add(edge.dst_col)
    roots = [c for c in dag.columns if outgoing[c] and c not in has_incoming]

    trajectories = []
    for _ in range(n_trajectories):
        actions: list[ActionSpec] = []
        visited: set[str] = set()
        for root in roots:
            _visit(root, dataset, pat_by_col, outgoing, rng, group_prob,
                   visited, actions)
        actions.append(STOP)
        trajectories.append(Trajectory(dataset.name, tuple(actions)))
    return trajectories


def split_trajectories(trajectories, rng: np.random.Generator,
                       train_fraction: float = 0.8):
    """Shuffled train/eval split by whole trajectory."""
    order = rng.permutation(len(trajectories))
    n_train = int(round(train_fraction * len(trajectories)))
    train = [trajectories[i] for i in order[:n_train]]
    evaluation = [trajectories[i] for i in order[n_train:]]
    return train, evaluation


def _pattern_json(pattern):
    if isinstance(pattern, CategoryPattern):
        return {"type": "category", "value": pattern.value}
    if isinstance(pattern, NumericPattern):
        return {"type": "numeric", "mu": pattern.mu, "sigma": pattern.sigma}
    return {"type": "text", "substring": pattern.substring,
            "position": pattern.position}


def generation_manifest(schema, patterns, dag: CorrelationDag, *, seed,
                        n_rows, m, n_trajectories) -> dict:
    """Everything needed to regenerate a dataset and its sessions."""
    return {
        "seed": seed,
        "n_rows": n_rows,
        "multiplier": m,
        "n_trajectories": n_trajectories,
        "schema": [[c, k.value] for c, k in schema],
        "patterns": [
            {"column": cp.column,
             "patterns": [_pattern_json(p) for p in cp.patterns],
             "weights": list(cp.weights)}
            for cp in patterns
        ],
        "dag": {
            "columns": list(dag.columns),
            "edges": [
                {"src": e.src_col, "dst": e.dst_col,
                 "links": [list(l) for l in e.links]}
                for e in dag.edges
            ],
        },
    }
