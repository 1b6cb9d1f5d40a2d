"""Episode environment for EDA sessions.

Actions are GROUP / FILTER / BACK / STOP over a display stack. States are
fixed-length vectors built from the last three displays seen. Discrete
policy heads map to concrete actions through a per-schema HeadLayout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .tabular import (AGG_FUNCS, FILTER_OPS, ColumnKind, Dataset, Display,
                      FilterPredicate, Grouping, apply_filter, apply_group,
                      canonical_number, column_histogram, display_fingerprint,
                      initial_display, parse_number)

ACTION_KINDS = ("GROUP", "FILTER", "BACK", "STOP")
GLOBAL_FEATURES = 3
FEATURES_PER_COLUMN = 4
HISTORY_WINDOW = 3
DEFAULT_HORIZON = 12

# heads: kind, column, agg_func, filter_op, term_bin
N_HEADS = 5
# heads that parameterize each action kind, in ACTION_KINDS order; the rest
# are ignored
RELEVANT_HEADS = ((0, 1, 2), (0, 1, 3, 4), (0,), (0,))


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    group: Grouping | None = None
    filter: FilterPredicate | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if (self.group is not None) != (self.kind == "GROUP"):
            raise ValueError("group payload must be present exactly for GROUP actions")
        if (self.filter is not None) != (self.kind == "FILTER"):
            raise ValueError("filter payload must be present exactly for FILTER actions")

    def __str__(self):
        if self.kind == "GROUP":
            g = self.group
            return f"GROUP {g.grp_col} AGGREGATE {g.agg_func} {g.agg_col}"
        if self.kind == "FILTER":
            f = self.filter
            return f"FILTER {f.column} {f.op} {f.term}"
        return self.kind


BACK = ActionSpec("BACK")
STOP = ActionSpec("STOP")


@dataclass(frozen=True)
class HeadLayout:
    n_columns: int
    term_bins: int = 20

    def __post_init__(self):
        if self.term_bins < 1:
            raise ValueError("term_bins must be >= 1")

    @property
    def sizes(self) -> tuple[int, ...]:
        return (len(ACTION_KINDS), self.n_columns, len(AGG_FUNCS),
                len(FILTER_OPS), self.term_bins)

    @property
    def action_dim(self) -> int:
        return sum(self.sizes)

    @property
    def state_dim(self) -> int:
        """Width of a state vector: the last three display encodings."""
        return HISTORY_WINDOW * (FEATURES_PER_COLUMN * self.n_columns
                                 + GLOBAL_FEATURES)


def state_vec_len(dataset: Dataset) -> int:
    return HeadLayout(len(dataset.columns)).state_dim


def encode_display(display: Display, base: Dataset) -> np.ndarray:
    """Fixed-length feature vector for one display.

    Per column: histogram entropy (bits, scaled by the base column's
    log-cardinality and clipped to [0, 1]), distinct fraction, null fraction,
    and a role flag (0 plain, 0.5 grouped, 1 aggregated). Three globals
    follow: group count, mean group size, and group size variance, each
    scaled by the base row count (squared for the variance). All entries
    land in [0, 1]; an empty display is zero apart from the role flags.
    """
    if display._vec is not None:
        return display._vec
    n_cols = len(base.columns)
    vec = np.zeros(FEATURES_PER_COLUMN * n_cols + GLOBAL_FEATURES)
    n = base.row_count
    g = display.grouping
    for i, (col, _) in enumerate(base.columns):
        base_off = FEATURES_PER_COLUMN * i
        role = 0.0
        if g is not None:
            if col == g.agg_col:
                role = 1.0
            elif col == g.grp_col:
                role = 0.5
        vec[base_off + 3] = role
        if n == 0 or display.row_count == 0:
            continue
        hist = column_histogram(display, col)
        if hist:
            entropy = -sum(p * math.log2(p) for p in hist.values() if p > 0)
            norm = math.log2(max(2, base.distinct_count(i)))
            vec[base_off] = min(1.0, entropy / norm)
        counts, nulls = display.column_stats(i)
        vec[base_off + 1] = len(counts) / n
        vec[base_off + 2] = nulls / n
    if g is not None and display.group_count > 0 and n > 0:
        sizes = np.asarray(display.group_sizes, dtype=float)
        vec[-3] = display.group_count / n
        vec[-2] = float(sizes.mean()) / n
        vec[-1] = float(sizes.var()) / (n * n)
    display._vec = vec
    vec.setflags(write=False)
    return vec


def state_from_history(history, base: Dataset) -> np.ndarray:
    """Concatenate encodings of the last three displays, zero-padded on the left."""
    recent = [encode_display(d, base) for d in history[-HISTORY_WINDOW:]]
    pad = np.zeros((HISTORY_WINDOW - len(recent)) * len(recent[0]))
    return np.concatenate([pad, *recent])


@dataclass(frozen=True)
class EpisodeState:
    display_stack: tuple
    history: tuple
    action_history: tuple
    step: int
    done: bool

    @property
    def current(self) -> Display:
        return self.display_stack[-1]


class EdaEnv:
    """Deterministic episode driver over one dataset."""

    def __init__(self, dataset: Dataset, layout: HeadLayout | None = None,
                 horizon: int = DEFAULT_HORIZON):
        if layout is None:
            layout = HeadLayout(len(dataset.columns))
        if layout.n_columns != len(dataset.columns):
            raise ValueError("head layout does not match the dataset schema")
        self.dataset = dataset
        self.layout = layout
        self.horizon = horizon
        self._d0 = initial_display(dataset)

    def reset(self) -> EpisodeState:
        return EpisodeState((self._d0,), (self._d0,), (), 0, False)

    def encode_state(self, state: EpisodeState) -> np.ndarray:
        return state_from_history(state.history, self.dataset)

    def step(self, state: EpisodeState, action: ActionSpec) -> EpisodeState:
        """Apply one action; pure, the input state is not modified.

        BACK at the root display leaves the stack alone but is still
        recorded. STOP finishes the episode without a new display, as does
        hitting the horizon.
        """
        if state.done:
            raise ValueError("episode is finished")
        stack = state.display_stack
        history = state.history
        done = False
        if action.kind == "GROUP":
            new = apply_group(stack[-1], action.group)
            stack = stack + (new,)
            history = history + (new,)
        elif action.kind == "FILTER":
            new = apply_filter(stack[-1], action.filter)
            stack = stack + (new,)
            history = history + (new,)
        elif action.kind == "BACK":
            if len(stack) > 1:
                stack = stack[:-1]
            history = history + (stack[-1],)
        else:  # STOP
            done = True
        step = state.step + 1
        if step >= self.horizon:
            done = True
        return EpisodeState(stack, history, state.action_history + (action,),
                            step, done)


def default_agg_col(base: Dataset, grp_col: str) -> str:
    """Aggregate column paired with a grouped column: the first numeric
    column other than the grouped one, else the first other column, else
    the grouped column itself."""
    fallback = None
    for name, kind in base.columns:
        if name == grp_col:
            continue
        if kind is ColumnKind.NUMERIC:
            return name
        if fallback is None:
            fallback = name
    return fallback if fallback is not None else grp_col


def _term_candidates(display: Display, base: Dataset, idx: int):
    vals = display.ranked_values(idx)
    if vals:
        return vals
    return initial_display(base).ranked_values(idx)


def action_from_heads(heads, display: Display, base: Dataset,
                      layout: HeadLayout) -> ActionSpec:
    """Materialize head indices into a concrete action for a display.

    Total by construction: the term bin clamps to the least frequent
    available value, an empty column falls back to the full table's ranking,
    and a numeric-only aggregate over a non-numeric column degrades to COUNT.
    """
    kind_i, col_i, agg_i, op_i, bin_i = heads
    kind = ACTION_KINDS[kind_i]
    if kind in ("BACK", "STOP"):
        return ActionSpec(kind)
    col = base.column_names[col_i]
    if kind == "GROUP":
        func = AGG_FUNCS[agg_i]
        agg_col = default_agg_col(base, col)
        if func != "COUNT" and base.kind_of(agg_col) is not ColumnKind.NUMERIC:
            func = "COUNT"
        return ActionSpec("GROUP", group=Grouping(col, agg_col, func))
    op = FILTER_OPS[op_i]
    vals = display.ranked_values(col_i)
    if vals:
        value = vals[min(bin_i, len(vals) - 1)]
    else:
        base_vals = initial_display(base).ranked_values(col_i)
        if not base_vals:
            return ActionSpec("FILTER", filter=FilterPredicate(col, op, ""))
        value = base_vals[0]  # mode of the full table
    kind_c = base.columns[col_i][1]
    term = canonical_number(value) if kind_c is ColumnKind.NUMERIC else value
    return ActionSpec("FILTER", filter=FilterPredicate(col, op, term))


def heads_from_action(action: ActionSpec, display: Display, base: Dataset,
                      layout: HeadLayout) -> tuple[int, ...]:
    """Head indices reproducing `action` through action_from_heads.

    Irrelevant heads are zero. A filter term that is not itself a ranked
    value maps to the most frequent value satisfying the predicate, else
    bin 0.
    """
    kind_i = ACTION_KINDS.index(action.kind)
    heads = [kind_i, 0, 0, 0, 0]
    if action.kind == "GROUP":
        heads[1] = base.column_index(action.group.grp_col)
        heads[2] = AGG_FUNCS.index(action.group.agg_func)
    elif action.kind == "FILTER":
        pred = action.filter
        idx = base.column_index(pred.column)
        heads[1] = idx
        heads[3] = FILTER_OPS.index(pred.op)
        heads[4] = _term_bin(pred, display, base, idx, layout)
    return tuple(heads)


def _term_bin(pred, display, base, idx, layout):
    vals = _term_candidates(display, base, idx)
    if not vals:
        return 0
    kind = base.columns[idx][1]
    if kind is ColumnKind.NUMERIC and pred.op in ("EQ", "NEQ"):
        target = parse_number(pred.term)
        if target is not None and target in vals:
            return min(vals.index(target), layout.term_bins - 1)
    else:
        texts = [canonical_number(v) if kind is ColumnKind.NUMERIC else v
                 for v in vals]
        if pred.term in texts:
            return min(texts.index(pred.term), layout.term_bins - 1)
        matcher = {
            "CONTAINS": lambda t: pred.term in t,
            "STARTS_WITH": lambda t: t.startswith(pred.term),
            "ENDS_WITH": lambda t: t.endswith(pred.term),
        }.get(pred.op)
        if matcher is not None:
            for rank, text in enumerate(texts):
                if matcher(text):
                    return min(rank, layout.term_bins - 1)
    return 0


def encode_action(heads, layout: HeadLayout) -> np.ndarray:
    """One-hot blocks per head of canonical head indices (from
    heads_from_action); heads unused by the kind in head 0 stay zero."""
    vec = np.zeros(layout.action_dim)
    offset = 0
    relevant = RELEVANT_HEADS[heads[0]]
    for h, size in enumerate(layout.sizes):
        if h in relevant:
            vec[offset + heads[h]] = 1.0
        offset += size
    return vec


def head_mask(kind: str) -> np.ndarray:
    mask = np.zeros(N_HEADS, dtype=bool)
    mask[list(RELEVANT_HEADS[ACTION_KINDS.index(kind)])] = True
    return mask


def policy_step(policy: nn.PolicyNet, env: EdaEnv, state: EpisodeState,
                rng: np.random.Generator | None = None, svec=None):
    """One policy decision at `state`, applied to the environment.

    Returns (state vector, sampled heads, log-prob, action, next state).
    With `rng` the heads are sampled and the log-prob covers the heads the
    sampled kind uses; without it every head takes its argmax and the
    log-prob is None. `svec` is the state's encoding when the caller
    already holds it.
    """
    if svec is None:
        svec = env.encode_state(state)
    dists = policy.head_probs(svec)
    if rng is None:
        heads, logp = nn.greedy_action(dists), None
    else:
        heads, logp = nn.sample_action(dists, rng, RELEVANT_HEADS)
    action = action_from_heads(heads, state.current, env.dataset, env.layout)
    return svec, heads, logp, action, env.step(state, action)


@dataclass(frozen=True)
class Trajectory:
    """One EDA session: the dataset it ran on and its ordered actions."""
    dataset: str
    actions: tuple[ActionSpec, ...]


@dataclass
class ReplayStep:
    t: int  # 1-based position in the session
    state: np.ndarray
    heads: tuple[int, ...]
    mask: np.ndarray
    action: ActionSpec
    action_vec: np.ndarray
    next_state: np.ndarray
    done: bool


def walk(dataset: Dataset, actions, layout: HeadLayout | None = None,
         horizon: int | None = None) -> list[EpisodeState]:
    """The episode states of a session: the reset state, then one per action.

    The horizon defaults to the session length. Raises ValueError when an
    action follows the end of the episode.
    """
    env = EdaEnv(dataset, layout, horizon=horizon or max(len(actions), 1))
    states = [env.reset()]
    for action in actions:
        states.append(env.step(states[-1], action))
    return states


def walk_displays(dataset: Dataset, actions, horizon: int | None = None):
    """Displays of a session: (prev_display, action, cur_display) per step,
    and the `history` list of every display seen including d0, in order,
    which is what the diversity measure consumes.
    """
    states = walk(dataset, actions, horizon=horizon)
    steps = [(before.current, action, after.current)
             for before, action, after in zip(states, actions, states[1:])]
    return steps, list(states[-1].history)


def replay(dataset: Dataset, actions, layout: HeadLayout | None = None,
           horizon: int | None = None):
    """Training-ready step records of a session, and its final state."""
    if layout is None:
        layout = HeadLayout(len(dataset.columns))
    states = walk(dataset, actions, layout, horizon)
    vecs = [state_from_history(s.history, dataset) for s in states]
    records = []
    for t, action in enumerate(actions, start=1):
        heads = heads_from_action(action, states[t - 1].current, dataset, layout)
        records.append(ReplayStep(
            t=t, state=vecs[t - 1], heads=heads, mask=head_mask(action.kind),
            action=action, action_vec=encode_action(heads, layout),
            next_state=vecs[t], done=states[t].done))
    return records, states[-1]


def action_to_json(action: ActionSpec) -> dict:
    if action.kind == "GROUP":
        g = action.group
        return {"kind": "GROUP", "grp_col": g.grp_col, "agg_col": g.agg_col,
                "agg_func": g.agg_func}
    if action.kind == "FILTER":
        f = action.filter
        return {"kind": "FILTER", "column": f.column, "op": f.op, "term": f.term}
    return {"kind": action.kind}


def action_from_json(obj: dict) -> ActionSpec:
    kind = obj["kind"]
    if kind == "GROUP":
        return ActionSpec("GROUP", group=Grouping(obj["grp_col"], obj["agg_col"],
                                                  obj["agg_func"]))
    if kind == "FILTER":
        return ActionSpec("FILTER", filter=FilterPredicate(obj["column"], obj["op"],
                                                           obj["term"]))
    return ActionSpec(kind)


def save_trajectories(path, dataset: Dataset, trajectories) -> None:
    """Write sessions as JSON with per-step fingerprints.

    Layout: {"dataset": name, "sessions": [[{step, action, fingerprint}, ...]]}
    with stable field order so files diff cleanly.
    """
    sessions = []
    for traj in trajectories:
        steps, _ = walk_displays(dataset, traj.actions)
        sessions.append([
            {"step": t, "action": action_to_json(action),
             "fingerprint": display_fingerprint(cur)}
            for t, (_, action, cur) in enumerate(steps, start=1)
        ])
    payload = {"dataset": dataset.name, "sessions": sessions}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_trajectories(path) -> list[Trajectory]:
    with open(Path(path)) as fh:
        payload = json.load(fh)
    name = payload["dataset"]
    return [
        Trajectory(name, tuple(action_from_json(step["action"]) for step in session))
        for session in payload["sessions"]
    ]
