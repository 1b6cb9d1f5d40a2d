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
from itertools import repeat

import numpy as np

from . import env as _env
from .tabular import Dataset, Display, column_histogram, initial_display

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


def kl_divergence(p: dict, q: dict, eps: float = DEFAULT_KL_EPS) -> float:
    """KL(p || q) over the union support.

    Zero-mass q entries are smoothed to eps so the sum stays finite; p
    entries with zero mass contribute nothing. Two empty histograms give 0.

    The terms are those of a loop over p: each ratio is one float division,
    its log comes from `math` (numpy's log can differ in the last bit), and
    the terms add up in p's order, starting from 0.0, so the result has the
    loop's bits.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not p and not q:
        return 0.0
    mass = np.fromiter(p.values(), dtype=float, count=len(p))
    q_mass = np.fromiter(map(q.get, p, repeat(0.0)), dtype=float, count=len(p))
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

    Both displays must be views of one dataset, which scores each pair of
    operation paths (`Display.key`) once: equal paths give bit-identical
    histograms.
    """
    base = before.dataset
    if after.dataset is not base:
        raise ValueError("max_column_kl needs two views of one dataset")
    memo = base._kl_memo
    key = (before.key, after.key)
    if key not in memo:
        memo[key] = max(
            kl_divergence(column_histogram(before, col), column_histogram(after, col))
            for col in base.column_names
        )
    return memo[key]


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
        """A ruleset from a parsed JSON value; anything but a JSON object
        raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"malformed coherence ruleset: expected a JSON "
                             f"object, got {type(obj).__name__}")
        try:
            rules = tuple(CoherenceRule(dict(r["match"]), float(r["score"]))
                          for r in obj.get("rules", ()))
            return cls(
                filterable_columns=frozenset(obj.get("filterable_columns", ())),
                groupable_columns=frozenset(obj.get("groupable_columns", ())),
                rules=rules,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed coherence ruleset: {exc}") from exc


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


@dataclass(frozen=True)
class MeasureScores:
    a_int: float
    diversity: float
    coherence: float
    readability: float
    peculiarity: float

    def get(self, name: str) -> float:
        return getattr(self, name)


def score_session(dataset: Dataset, actions,
                  ruleset: CoherenceRuleset = EMPTY_RULESET) -> list[MeasureScores]:
    """Replay a session and compute all five raw scores per step."""
    specs = default_measure_specs(dataset.row_count)
    initial = initial_display(dataset)
    scores = []
    seen = [initial]
    prior: list = []
    for prev, action, cur in _env.walk_displays(dataset, actions):
        scores.append(MeasureScores(
            a_int=a_int(prev, cur, action, specs),
            diversity=diversity(cur, seen),
            coherence=coherence(prev, cur, action, prior, ruleset),
            readability=readability(prev, cur, specs),
            peculiarity=peculiarity(cur, initial, specs),
        ))
        prior.append(action)
        if action.kind != "STOP":
            seen.append(cur)
    return scores


def normalize_session(raw: list[MeasureScores]) -> list[MeasureScores]:
    """Min-max normalize each measure across the session's steps.

    A constant series maps to all zeros.
    """
    if not raw:
        raise ValueError("cannot normalize an empty session")
    normalized = [dict() for _ in raw]
    for name in MEASURE_NAMES:
        series = [s.get(name) for s in raw]
        lo, hi = min(series), max(series)
        span = hi - lo
        for slot, value in zip(normalized, series):
            slot[name] = 0.0 if span <= 0 else (value - lo) / span
    return [MeasureScores(**slot) for slot in normalized]


def classify_session(normalized: list[MeasureScores],
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
        series = [s.get(name) for s in normalized]
        q = float(np.quantile(series, quantile))
        if q > best_q:
            best_name, best_q = name, q
    return best_name
