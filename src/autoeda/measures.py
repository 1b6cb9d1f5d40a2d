"""Interestingness measures over displays and sessions.

Five per-step scores: an operation-conditioned interest score (compact
group views, strongly deviating filters), diversity against everything seen
so far, readability via compactness gain, peculiarity against the initial
display, and rule-based coherence. Raw scores are min-max normalized per
session for reporting and for classifying which measure a session leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import env as _env
from .tabular import (Dataset, Display, Histogram, column_histogram,
                      is_finite_number)

MEASURE_NAMES = ("a_int", "diversity", "coherence", "readability", "peculiarity")
DEFAULT_KL_EPS = 1e-6


@dataclass(frozen=True)
class SigmoidSpec:
    center: float
    width: float
    decreasing: bool = False

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("sigmoid width must be positive")


def sigmoid(x: float, spec: SigmoidSpec) -> float:
    z = (x - spec.center) / spec.width
    z = max(-60.0, min(60.0, z))
    value = 1.0 / (1.0 + math.exp(-z))
    return 1.0 - value if spec.decreasing else value


@dataclass(frozen=True)
class MeasureSpecs:
    """Pinned sigmoid shapes; the row-dependent ones come from the factory."""
    group_size: SigmoidSpec        # over (number of groups) x (grouped attrs)
    row_mass: SigmoidSpec          # over the filtered tuple count
    divergence: SigmoidSpec        # over max per-column KL divergence
    compactness: SigmoidSpec       # over (number of groups) x (visible rows)


def default_measure_specs(row_count: int) -> MeasureSpecs:
    """Sigmoid shapes scaled to the dataset.

    The divergence sigmoid spans the KL range that epsilon-smoothed
    histograms actually produce (losing most of a column's support costs
    about -ln(eps) ~ 14 nats), so filter scores spread out instead of
    saturating; the compactness width of half the row count keeps
    compactness ratios, and with them readability, within a usable band.
    """
    n = max(row_count, 1)
    return MeasureSpecs(
        group_size=SigmoidSpec(center=50.0, width=15.0, decreasing=True),
        row_mass=SigmoidSpec(center=n / 2.0, width=n / 10.0, decreasing=True),
        divergence=SigmoidSpec(center=7.0, width=3.0),
        compactness=SigmoidSpec(center=n / 2.0, width=n / 2.0, decreasing=True),
    )


def kl_divergence(p: Histogram, q: Histogram,
                  eps: float = DEFAULT_KL_EPS) -> float:
    """KL(p || q) of two histograms over one dictionary (the same array).

    Zero-mass q entries are smoothed to eps so the sum stays finite; p
    entries with zero mass contribute nothing. Two empty histograms give 0.

    q's shares are read at p's codes through a dense array over the
    dictionary, so no value is hashed. The terms are those of a loop over
    p's values: each ratio is one float division, its log comes from `math`
    (numpy's log can differ in the last bit), and the terms add up in p's
    order, starting from 0.0, so the result has the loop's bits.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    if p.dictionary is not q.dictionary:
        raise ValueError("kl_divergence needs two histograms over one "
                         "dictionary")
    if not p and not q:
        return 0.0
    dense = np.zeros(len(p.dictionary))
    dense[q.codes] = q.shares
    mass, q_mass = p.shares, dense[p.codes]
    keep = ~(mass <= 0)
    mass, q_mass = mass[keep], q_mass[keep]
    # overflow to inf and inf - inf stay silent, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = mass / np.where(q_mass > 0, q_mass, eps)
        # shares of two histograms take few distinct values, so their
        # ratios repeat: each distinct ratio's log is taken once
        distinct, inverse = np.unique(ratio, return_inverse=True)
        logs = np.fromiter(map(math.log, distinct.tolist()), dtype=float,
                           count=len(distinct))
        terms = mass * logs[inverse]
        return np.add.accumulate(np.concatenate(([0.0], terms)))[-1].item()


def max_column_kl(before: Display, after: Display) -> float:
    """The largest per-column KL(before || after) over their dataset's
    columns.

    Both displays must be views of one dataset. A column's histogram in a
    view is fixed by the view's rows, and so by its `row_filters`, and by
    whether the view is grouped on that column, so the dataset keeps each
    column's KL under (before row filters, after row filters) and (column
    index, before grouped on it, after grouped on it), and computes it
    once.
    """
    base = before.dataset
    if after.dataset is not base:
        raise ValueError("max_column_kl needs two views of one dataset")
    kls = base._kl_memo.setdefault((before.row_filters,
                                    after.row_filters), {})
    grouped_before, grouped_after = map(_grouped_column, (before, after))

    def column_kl(idx, column):
        key = (idx, column == grouped_before, column == grouped_after)
        kl = kls.get(key)
        if kl is None:
            kl = kls[key] = kl_divergence(column_histogram(before, column),
                                          column_histogram(after, column))
        return kl

    return max(column_kl(idx, col) for idx, col in enumerate(base.column_names))


def _grouped_column(display: Display) -> str | None:
    return None if display.grouping is None else display.grouping.grp_col


def a_int(prev: Display, cur: Display, action, specs: MeasureSpecs) -> float:
    """Operation-conditioned interest in [0, 1].

    GROUP: ratio of a decreasing sigmoid over the group count to one over
    the tuple count, clamped, so few groups over many rows score high.
    FILTER: sigmoid of the largest per-column KL shift. BACK/STOP: 0.
    """
    if action.kind == "GROUP":
        g = cur.group_count * 1  # one grouped attribute per action
        num = sigmoid(float(g), specs.group_size)
        den = sigmoid(float(cur.row_count), specs.row_mass)
        if den <= 0:
            return 1.0
        return min(1.0, max(0.0, num / den))
    if action.kind == "FILTER":
        return sigmoid(max_column_kl(prev, cur), specs.divergence)
    return 0.0


def diversity(cur: Display, history) -> float:
    """Minimum Euclidean distance from the current display's encoding to any
    previously seen display's encoding; all are views of one dataset."""
    if not history:
        raise ValueError("diversity needs at least one earlier display")
    vec = _env.encode_display(cur, cur.dataset)
    return min(float(np.linalg.norm(vec - _env.encode_display(d, cur.dataset)))
               for d in history)


def _compactness(display: Display, specs: MeasureSpecs) -> float:
    g = display.group_count if display.grouping is not None else 1
    c = sigmoid(float(g * display.visible_count), specs.compactness)
    return max(c, 1e-9)


def readability(prev: Display, cur: Display, specs: MeasureSpecs) -> float:
    """Compactness gain, 1 - C(prev)/C(cur), floored at zero.

    Expanding the view (a BACK, a coarser regrouping) earns 0 rather than an
    unbounded negative score; otherwise one deep expansion would stretch the
    session min-max range so far that every other step of this measure
    normalizes to the top and drowns out the remaining measures.
    """
    return max(0.0, 1.0 - _compactness(prev, specs) / _compactness(cur, specs))


def peculiarity(cur: Display, initial: Display, specs: MeasureSpecs) -> float:
    return sigmoid(max_column_kl(initial, cur), specs.divergence)


# the action fields a coherence rule's `match` can test
_MATCH_KEYS = frozenset({"kind", "column", "op", "agg_func", "prior_kind"})


@dataclass(frozen=True)
class CoherenceRule:
    match: dict
    score: float


@dataclass(frozen=True)
class CoherenceRuleset:
    filterable_columns: frozenset = frozenset()
    groupable_columns: frozenset = frozenset()
    rules: tuple[CoherenceRule, ...] = ()

    @classmethod
    def from_json(cls, obj) -> "CoherenceRuleset":
        """A ruleset from a parsed JSON value. Raises ValueError unless it is
        an object whose `filterable_columns` and `groupable_columns` are
        lists of strings and whose `rules` is a list of objects, each with a
        `match` object keyed by names among _MATCH_KEYS and a `score` that is
        a finite number."""
        def malformed(what):
            return ValueError(f"malformed coherence ruleset: {what}")

        if not isinstance(obj, dict):
            raise malformed(f"expected a JSON object, got {type(obj).__name__}")
        columns = {}
        for name in ("filterable_columns", "groupable_columns"):
            value = obj.get(name, [])
            if not (isinstance(value, list)
                    and all(isinstance(c, str) for c in value)):
                raise malformed(f"{name} must be a list of strings, got {value!r}")
            columns[name] = frozenset(value)
        listed = obj.get("rules", [])
        if not isinstance(listed, list):
            raise malformed(f"rules must be a list, got {listed!r}")
        rules = []
        for i, rule in enumerate(listed, start=1):
            match = rule.get("match") if isinstance(rule, dict) else None
            if not (isinstance(match, dict) and set(match) <= _MATCH_KEYS):
                raise malformed(f"rule {i}: match must be an object with keys "
                                f"among {sorted(_MATCH_KEYS)}, got {match!r}")
            score = rule.get("score")
            if not is_finite_number(score):
                raise malformed(f"rule {i}: score must be a finite number, "
                                f"got {score!r}")
            rules.append(CoherenceRule(dict(match), float(score)))
        return cls(rules=tuple(rules), **columns)


EMPTY_RULESET = CoherenceRuleset()


def _action_column(action) -> str | None:
    if action.kind == "FILTER":
        return action.filter.column
    if action.kind == "GROUP":
        return action.group.grp_col
    return None


def _rule_matches(match: dict, action, prior_actions) -> bool:
    if "kind" in match and match["kind"] != action.kind:
        return False
    if "column" in match and match["column"] != _action_column(action):
        return False
    if "op" in match and not (action.kind == "FILTER" and action.filter.op == match["op"]):
        return False
    if "agg_func" in match and not (action.kind == "GROUP"
                                    and action.group.agg_func == match["agg_func"]):
        return False
    if "prior_kind" in match:
        if not prior_actions or prior_actions[-1].kind != match["prior_kind"]:
            return False
    return True


def coherence(prev: Display, cur: Display, action, prior_actions,
              ruleset: CoherenceRuleset = EMPTY_RULESET) -> float:
    """Rule score in [-1, 1]. Empty or unchanged views are incoherent (-1)
    regardless of the ruleset; otherwise matching rule scores add up."""
    if cur.visible_count == 0 or cur.shows_same_rows(prev):
        return -1.0
    score = 0.0
    col = _action_column(action)
    if action.kind == "FILTER" and ruleset.filterable_columns:
        score += 0.5 if col in ruleset.filterable_columns else -0.5
    if action.kind == "GROUP" and ruleset.groupable_columns:
        score += 0.5 if col in ruleset.groupable_columns else -0.5
    for rule in ruleset.rules:
        if _rule_matches(rule.match, action, prior_actions):
            score += rule.score
    return max(-1.0, min(1.0, score))


def score_session(dataset: Dataset, actions,
                  ruleset: CoherenceRuleset = EMPTY_RULESET) -> list[dict]:
    """Replay a session and compute all five raw scores per step, one dict
    keyed by MEASURE_NAMES (in that order) per step. A step's earlier views
    and actions are its before-state's `history` and `action_history`."""
    specs = default_measure_specs(dataset.row_count)
    states = _env.walk(dataset, actions)
    initial = states[0].current
    return [{
        "a_int": a_int(before.current, after.current, action, specs),
        "diversity": diversity(after.current, before.history),
        "coherence": coherence(before.current, after.current, action,
                               before.action_history, ruleset),
        "readability": readability(before.current, after.current, specs),
        "peculiarity": peculiarity(after.current, initial, specs),
    } for before, action, after in zip(states, actions, states[1:])]


def normalize_session(raw: list[dict]) -> list[dict]:
    """Min-max normalize each measure across the session's steps.

    A constant series maps to all zeros.
    """
    if not raw:
        raise ValueError("cannot normalize an empty session")
    normalized = [dict() for _ in raw]
    for name in MEASURE_NAMES:
        series = [s[name] for s in raw]
        lo, hi = min(series), max(series)
        span = hi - lo
        for slot, value in zip(normalized, series):
            slot[name] = 0.0 if span <= 0 else (value - lo) / span
    return normalized


def classify_session(normalized: list[dict],
                     quantile: float = 0.75) -> str:
    """Name of whichever of a_int, diversity and readability has the
    highest per-session quantile score; ties go to the earliest of these.
    """
    if not normalized:
        raise ValueError("cannot classify an empty session")
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")
    best_name, best_q = None, -math.inf
    for name in ("a_int", "diversity", "readability"):
        series = [s[name] for s in normalized]
        q = float(np.quantile(series, quantile))
        if q > best_q:
            best_name, best_q = name, q
    return best_name
