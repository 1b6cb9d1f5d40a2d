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
                      column_histogram, display_fingerprint, filter_passes,
                      initial_display, write_json)

ACTION_KINDS = ("GROUP", "FILTER", "BACK", "STOP")
GLOBAL_FEATURES = 3
FEATURES_PER_COLUMN = 4
HISTORY_WINDOW = 3
DEFAULT_HORIZON = 12
DEFAULT_TERM_BINS = 20
# encodings a dataset keeps, one per (row filters, grouping), the oldest
# dropped first: a full memo of an 8-column table holds about 4.4 MB, and
# a default 100k-interaction `train` fills it
ENCODING_MEMO_SIZE = 4096

# heads: kind, column, agg_func, filter_op, term_bin
N_HEADS = 5
# heads that parameterize each action kind, in ACTION_KINDS order; the rest
# are ignored
RELEVANT_HEADS = ((0, 1, 2), (0, 1, 3, 4), (0,), (0,))
# the same as a (kinds, heads) table: HEAD_MASKS[heads[:, 0]] masks a batch
HEAD_MASKS = np.array([[h in relevant for h in range(N_HEADS)]
                       for relevant in RELEVANT_HEADS])
HEAD_MASKS.setflags(write=False)


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
    term_bins: int = DEFAULT_TERM_BINS

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


def _uniform_entropy_bits(n: int) -> float:
    """Entropy in bits of n equal shares, added up one share at a time."""
    p = 1.0 / n
    return -float(np.cumsum(np.full(n, p * math.log2(p)))[-1])


def encode_display(display: Display, base: Dataset) -> np.ndarray:
    """Fixed-length feature vector for one display.

    Per column: histogram entropy (bits, scaled by the base column's
    log-cardinality and clipped to [0, 1]), distinct fraction, null fraction,
    and a role flag (0 plain, 0.5 grouped, 1 aggregated). Three globals
    follow: group count, mean group size, and group size variance, each
    scaled by the base row count (squared for the variance). All entries
    land in [0, 1]; an empty display is zero apart from the role flags.

    `base` must be the display's own dataset. It keeps the encoding of
    each (row filters, grouping) it has seen, up to ENCODING_MEMO_SIZE of
    them: equal row filters mean equal rows, so a view whose rows and
    grouping were encoded before starts out encoded. An ungrouped view's
    entry, (row filters, None), is computed once, all columns at once from
    the rows' summary; a grouped view copies and patches it. Each entropy
    is scaled by `base._entropy_scale`; a column with no values keeps +0.0,
    where entropy_bits gives it -0.0, and each quotient is the one a Python
    division gives.
    """
    if display.dataset is not base:
        raise ValueError("encode_display needs a view of its base dataset")
    if display._vec is not None:
        return display._vec
    memo = base._encodings
    filters = display.row_filters
    vec = memo.get((filters, None))
    if vec is None:
        n_cols = len(base.columns)
        vec = np.zeros(FEATURES_PER_COLUMN * n_cols + GLOBAL_FEATURES)
        n = base.row_count
        if n and display.row_count:
            columns = vec[:-GLOBAL_FEATURES].reshape(n_cols, FEATURES_PER_COLUMN)
            _, _, nulls, starts = display._summarize()
            distinct = np.diff(starts)
            bits = np.where(distinct > 0, display.entropy_bits(), 0.0)
            columns[:, 0] = np.minimum(1.0, bits / base._entropy_scale)
            columns[:, 1] = distinct / n
            columns[:, 2] = nulls / n
        _remember(memo, (filters, None), vec)
    g = display.grouping
    if g is not None:
        vec = vec.copy()
        columns = vec[:-GLOBAL_FEATURES].reshape(len(base.columns),
                                                 FEATURES_PER_COLUMN)
        gi = base.column_index(g.grp_col)
        n = base.row_count
        if n and display.row_count:  # one visible row per group
            bits = _uniform_entropy_bits(len(column_histogram(display, g.grp_col)))
            columns[gi, 0] = min(1.0, bits / base._entropy_scale[gi])
        columns[gi, 3] = 0.5
        columns[base.column_index(g.agg_col), 3] = 1.0
        k = display.group_count
        if k > 0 and n > 0:
            # the mean and variance as ndarray.mean and .var compute them
            sizes = np.array(display.group_sizes, dtype=float)
            mean = np.add.reduce(sizes) / k
            sizes -= mean
            sizes *= sizes
            vec[-3] = k / n
            vec[-2] = mean / n
            vec[-1] = np.add.reduce(sizes) / k / (n * n)
        _remember(memo, (filters, g), vec)
    display._vec = vec
    return vec


def _remember(memo: dict, key: tuple, vec: np.ndarray) -> None:
    """Store a read-only encoding, dropping the oldest entry of a full memo."""
    vec.setflags(write=False)
    if len(memo) >= ENCODING_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = vec


@dataclass(frozen=True)
class EpisodeState:
    display_stack: tuple
    history: tuple
    action_history: tuple
    done: bool

    @property
    def current(self) -> Display:
        return self.display_stack[-1]


def state_vec(state: EpisodeState, prev: np.ndarray | None = None) -> np.ndarray:
    """The state vector of `state` (the last HISTORY_WINDOW display
    encodings of its history, zero-padded on the left) from `prev`, the
    previous state's, by the one window rule: a reset (no `prev`) is the
    zero vector with the root view pushed in; GROUP, FILTER and BACK shift
    `prev` by the new display's encoding; STOP keeps `prev`."""
    if prev is not None and state.action_history[-1].kind == "STOP":
        return prev
    display = state.history[-1]
    vec = encode_display(display, display.dataset)
    if prev is None:
        prev = np.zeros(HISTORY_WINDOW * len(vec))
    return np.concatenate((prev[len(vec):], vec))


class EdaEnv:
    """Deterministic episode driver over one dataset."""

    def __init__(self, dataset: Dataset, horizon: int = DEFAULT_HORIZON):
        self.dataset = dataset
        self.horizon = horizon
        self._d0 = initial_display(dataset)

    def reset(self) -> EpisodeState:
        return EpisodeState((self._d0,), (self._d0,), (), False)

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
        actions = state.action_history + (action,)
        if len(actions) >= self.horizon:
            done = True
        return EpisodeState(stack, history, actions, done)


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


_COUNT = AGG_FUNCS.index("COUNT")


def action_heads(heads, display: Display) -> tuple[int, ...]:
    """The head values that the action of `heads` on `display` uses, as
    `heads_from_action` gives them back: heads its kind ignores are zero, a
    numeric-only aggregate over a non-numeric column degrades to COUNT, and
    the term bin clamps to the view's least frequent value (bin 0 when the
    view has none, where the action falls back to the full table's mode).
    """
    kind_i, col_i, agg_i, op_i, bin_i = heads
    if kind_i == 0:  # GROUP
        base = display.dataset
        if (agg_i != _COUNT and base.kind_of(default_agg_col(
                base, base.column_names[col_i])) is not ColumnKind.NUMERIC):
            agg_i = _COUNT
        return kind_i, col_i, agg_i, 0, 0
    if kind_i == 1:  # FILTER
        ranked = len(display.ranked_codes(col_i))
        return kind_i, col_i, 0, op_i, min(bin_i, max(ranked, 1) - 1)
    return kind_i, 0, 0, 0, 0


def action_from_heads(used, display: Display) -> ActionSpec:
    """Materialize the head values an action uses (`action_heads`, as
    `decide` computes them) into a concrete action, recomputing none: an
    empty column falls back to the full table's mode, and a column with no
    value at all to the term "". The term is the value's text in
    `Dataset.texts`."""
    kind_i, col_i, agg_i, op_i, bin_i = used
    kind = ACTION_KINDS[kind_i]
    if kind in ("BACK", "STOP"):
        return ActionSpec(kind)
    base = display.dataset
    col = base.column_names[col_i]
    if kind == "GROUP":
        return ActionSpec("GROUP", group=Grouping(
            col, default_agg_col(base, col), AGG_FUNCS[agg_i]))
    codes = (display.ranked_codes(col_i)
             or initial_display(base).ranked_codes(col_i)[:1])
    term = base.texts[col_i][codes[bin_i]] if codes else ""
    return ActionSpec("FILTER", filter=FilterPredicate(col, FILTER_OPS[op_i], term))


def heads_from_action(action: ActionSpec, display: Display,
                      layout: HeadLayout) -> tuple[int, ...]:
    """Head indices reproducing `action` through action_from_heads.

    Irrelevant heads are zero. A filter term that is not the text of a
    ranked value maps to the most frequent value it selects by
    `filter_passes` (before NEQ's negation), else bin 0.
    """
    kind_i = ACTION_KINDS.index(action.kind)
    heads = [kind_i, 0, 0, 0, 0]
    base = display.dataset
    if action.kind == "GROUP":
        heads[1] = base.column_index(action.group.grp_col)
        heads[2] = AGG_FUNCS.index(action.group.agg_func)
    elif action.kind == "FILTER":
        pred = action.filter
        idx = base.column_index(pred.column)
        heads[1] = idx
        heads[3] = FILTER_OPS.index(pred.op)
        heads[4] = _term_bin(pred, display, idx, layout)
    return tuple(heads)


def _term_bin(pred, display, idx, layout):
    ds = display.dataset
    codes = display.ranked_codes(idx) or initial_display(ds).ranked_codes(idx)
    texts = ds.texts[idx].take(codes).tolist()
    if pred.term in texts:
        rank = texts.index(pred.term)
    elif True in (passes := filter_passes(ds, idx, pred.op, pred.term, codes)):
        rank = passes.index(True)
    else:
        rank = 0
    return min(rank, layout.term_bins - 1)


def encode_action(used: np.ndarray, layout: HeadLayout) -> np.ndarray:
    """The (k, action_dim) one-hot matrix of k actions from the (k, N_HEADS)
    integer array of the head values they use (`action_heads` of a
    decision, `heads_from_action` of an expert action), set in one
    assignment; the heads a row's kind ignores stay zero."""
    rows, cols = np.nonzero(HEAD_MASKS[used[:, 0]])
    starts = np.cumsum((0,) + layout.sizes[:-1])
    vecs = np.zeros((len(used), layout.action_dim))
    vecs[rows, starts[cols] + used[rows, cols]] = 1.0
    return vecs


def decide(policy: nn.PolicyNet, svecs: np.ndarray, displays,
           uniforms: np.ndarray | None = None, rows: slice = slice(None)):
    """One decision in each of k states: one policy forward on a stacked
    batch of state vectors, whose `rows` are the k states (all of them by
    default), and the actions on their current `displays`. Returns the
    (k, N_HEADS) head indices, the k tuples of head values the actions use
    (`action_heads`, computed once per decision), the (k,) log-probs and
    the k actions.

    A row's forward bits can depend on the batch's shape, so a caller that
    decides only some rows of a batch passes the whole batch, whatever
    fills the other rows. With a (k, N_HEADS) block of `uniforms` every
    head is sampled (`nn.sample_action`) and a log-prob covers the heads
    the sampled kind uses; without it every head takes its argmax and the
    log-probs are None.
    """
    probs, _ = policy.forward(svecs)
    probs = [p[rows] for p in probs]
    if uniforms is None:
        heads = np.stack([p.argmax(axis=1) for p in probs], axis=1)
        logp = None
    else:
        heads, logp = nn.sample_action(probs, uniforms, RELEVANT_HEADS)
    used = [action_heads(h, d) for h, d in zip(heads.tolist(), displays)]
    actions = [action_from_heads(u, d) for u, d in zip(used, displays)]
    return heads, used, logp, actions


@dataclass(frozen=True)
class Trajectory:
    """One EDA session: the dataset it ran on and its ordered actions."""
    dataset: str
    actions: tuple[ActionSpec, ...]


@dataclass
class Step:
    """One training step, expert or generated. Its penalty stays 0.0 unless
    the trainer enables penalties; a generated step also carries its
    collect-time reward and log-prob. The heads its kind uses are
    HEAD_MASKS[heads[0]]."""
    state: np.ndarray
    heads: np.ndarray
    action_vec: np.ndarray
    next_state: np.ndarray
    done: bool
    penalty: float = 0.0
    reward: float | None = None
    logprob: float | None = None


def walk(dataset: Dataset, actions) -> list[EpisodeState]:
    """The episode states of a session: the reset state, then one per action.

    The horizon is the session length. Raises ValueError when an action
    follows a STOP.
    """
    env = EdaEnv(dataset, horizon=max(len(actions), 1))
    states = [env.reset()]
    for action in actions:
        states.append(env.step(states[-1], action))
    return states


def walk_displays(dataset: Dataset, actions):
    """Displays of a session: (prev_display, action, cur_display) per step."""
    states = walk(dataset, actions)
    return [(before.current, action, after.current)
            for before, action, after in zip(states, actions, states[1:])]


def replay(dataset: Dataset, actions,
           layout: HeadLayout | None = None) -> list[Step]:
    """Training-ready steps of a session, one per action: states by the one
    window rule, action vectors from one `encode_action` call."""
    if layout is None:
        layout = HeadLayout(len(dataset.columns))
    states = walk(dataset, actions)
    vecs = [state_vec(states[0])]
    for state in states[1:]:
        vecs.append(state_vec(state, vecs[-1]))
    heads = np.array([heads_from_action(action, before.current, layout)
                      for before, action in zip(states, actions)],
                     dtype=np.int64).reshape(len(actions), N_HEADS)
    avecs = encode_action(heads, layout)
    return [Step(state=vecs[t], heads=heads[t], action_vec=avecs[t],
                 next_state=vecs[t + 1], done=states[t + 1].done)
            for t in range(len(actions))]


def action_to_json(action: ActionSpec) -> dict:
    if action.kind == "GROUP":
        g = action.group
        return {"kind": "GROUP", "grp_col": g.grp_col, "agg_col": g.agg_col,
                "agg_func": g.agg_func}
    if action.kind == "FILTER":
        f = action.filter
        return {"kind": "FILTER", "column": f.column, "op": f.op, "term": f.term}
    return {"kind": action.kind}


# how an error names the type of a parsed JSON value
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def _expect(value, kind: type, what: str):
    """`value`, a parsed JSON value, if it is a `kind`; else ValueError
    naming `what` it is."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES[type(value)]}")
    return value


def _member(obj: dict, name: str, kind: type = object):
    """The `name` member of a JSON object, which must be a `kind`."""
    if name not in obj:
        raise ValueError(f'"{name}" is missing')
    return _expect(obj[name], kind, f'"{name}"')


def _text_fields(obj: dict, *names: str) -> list[str]:
    for name in names:
        if not isinstance(_member(obj, name), str):
            raise ValueError(f"action field {name!r} must be a string, "
                             f"got {obj[name]!r}")
    return [obj[name] for name in names]


def action_from_json(obj: dict) -> ActionSpec:
    """The action of a JSON object; a missing or non-string field raises
    ValueError."""
    kind = _member(obj, "kind")
    if kind == "GROUP":
        return ActionSpec("GROUP", group=Grouping(
            *_text_fields(obj, "grp_col", "agg_col", "agg_func")))
    if kind == "FILTER":
        return ActionSpec("FILTER", filter=FilterPredicate(
            *_text_fields(obj, "column", "op", "term")))
    return ActionSpec(kind)


def save_trajectories(path, dataset: Dataset, trajectories) -> None:
    """Write sessions as JSON with per-step fingerprints.

    Layout: {"dataset": name, "sessions": [[{step, action, fingerprint}, ...]]}
    with stable field order so files diff cleanly.
    """
    sessions = []
    for traj in trajectories:
        steps = walk_displays(dataset, traj.actions)
        sessions.append([
            {"step": t, "action": action_to_json(action),
             "fingerprint": display_fingerprint(cur)}
            for t, (_, action, cur) in enumerate(steps, start=1)
        ])
    write_json(path, {"dataset": dataset.name, "sessions": sessions}, indent=1)


def load_trajectories(path) -> list[Trajectory]:
    """The sessions of a session file. A file not laid out as
    `save_trajectories` writes raises ValueError naming the session (from
    1), the step (from 1) and the field at fault."""
    with open(Path(path)) as fh:
        payload = _expect(json.load(fh), dict, "the file")
    name = _member(payload, "dataset", str)
    trajectories = []
    for s, session in enumerate(_member(payload, "sessions", list), start=1):
        actions = []
        for t, step in enumerate(_expect(session, list, f"session {s}"),
                                 start=1):
            try:
                step = _expect(step, dict, "the step")
                actions.append(action_from_json(_member(step, "action", dict)))
            except ValueError as exc:
                raise ValueError(f"session {s}, step {t}: {exc}") from None
        trajectories.append(Trajectory(name, tuple(actions)))
    return trajectories
