"""Property tests: the columnar display engine against the row-at-a-time
reference in `row_engine.py`, on random tables and sessions."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import measures_reference
import row_engine as ref
from rollout_reference import encode, one_hot
from autoeda.env import (ACTION_KINDS, N_HEADS, ActionSpec, EdaEnv, HeadLayout,
                         action_from_heads, action_heads, default_agg_col,
                         encode_action, encode_display, heads_from_action, walk)
from autoeda.measures import (EMPTY_RULESET, CoherenceRuleset, coherence, kl_divergence,
                              max_column_kl, score_session)
from autoeda.tabular import (AGG_FUNCS, FILTER_OPS, ColumnKind, Dataset,
                             FilterPredicate, Grouping, apply_filter, apply_group,
                             canonical_number, column_histogram,
                             display_fingerprint, initial_display, parse_number)

TOL = 1e-12  # encodings and histogram shares; every other quantity is exact

CELLS = {
    ColumnKind.CATEGORICAL: st.sampled_from(["a", "b", "ab", "B", " a"]),
    # sums of 0.1, 0.2, 0.3 or of +-1e20 and 1.0 depend on the order of addition
    ColumnKind.NUMERIC: st.sampled_from([0.0, -0.0, 1.0, 5.0, 0.5, 15.0, 0.1, 0.2, 0.3,
                                         1e20, -1e20]),
    # NUL and trailing blanks, where numpy's string functions part from str
    ColumnKind.TEXT: st.sampled_from(["x5", "5x", "xy", "yx5y", "5", "1.5",
                                      "a\x00", "\x00", "5 "]),
}
TERMS = ["a", "b", "ab", " a", "x", "y", "5", "5.0", "1", ".", "-", "0", "1e+20", "0.1", "",
         "a\x00", "\x00", "5 "]


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(list(ColumnKind)), min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    row = st.tuples(*[st.one_of(st.none(), CELLS[k]) for k in kinds])
    rows = draw(st.lists(row, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []  # duplicates
    return Dataset("t", list(zip(names, kinds)), rows)


def draw_grouping(draw, ds, col):
    """A grouping of `col` by a drawn aggregate column and function."""
    agg_col = draw(st.sampled_from(ds.column_names))
    funcs = ["COUNT"] + (["SUM", "MEAN", "MIN", "MAX"]
                         if ds.kind_of(agg_col) is ColumnKind.NUMERIC else [])
    return Grouping(col, agg_col, draw(st.sampled_from(funcs)))


@st.composite
def sessions(draw, ds):
    actions = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["FILTER", "FILTER", "GROUP", "BACK"]))
        col = draw(st.sampled_from(ds.column_names))
        if kind == "FILTER":
            pred = FilterPredicate(col, draw(st.sampled_from(FILTER_OPS)), draw(st.sampled_from(TERMS)))
            actions.append(ActionSpec("FILTER", filter=pred))
        elif kind == "GROUP":
            actions.append(ActionSpec("GROUP", group=draw_grouping(draw, ds, col)))
        else:
            actions.append(ActionSpec(kind))
    if draw(st.booleans()):
        actions.append(ActionSpec("STOP"))
    return actions


def reference_walk(ds, actions):
    """The current reference view after the reset and after each action."""
    stack = [ref.root(ds)]
    views = [stack[-1]]
    for action in actions:
        if action.kind == "FILTER":
            stack.append(ref.filtered(stack[-1], action.filter))
        elif action.kind == "GROUP":
            stack.append(ref.grouped(stack[-1], action.group))
        elif action.kind == "BACK" and len(stack) > 1:
            stack.pop()
        views.append(stack[-1])
    return views


def assert_same_view(d, view, ds):
    rows = ref.dataset_rows(ds)
    assert [rows[i] for i in d.rows] == list(view.rows)
    assert d.visible_rows == view.visible
    for idx, col in enumerate(ds.column_names):
        codes, counts, nulls = d.column_stats(idx)
        expected, expected_nulls = ref.stats(view, idx)
        # the same values and counts, in the order of their first row
        assert list(zip(ds.dictionaries[idx][codes], counts)) == list(expected.items())
        assert nulls == expected_nulls
        ranked = ds.dictionaries[idx][list(d.ranked_codes(idx))].tolist()
        assert tuple(ranked) == ref.ranked(view, idx)
        assert ds.distinct_count(idx) == len({r[idx] for r in rows if r[idx] is not None})
        hist, expected = column_histogram(d, col), ref.histogram(view, col)
        assert list(hist) == list(expected)  # same keys, in the same order
        assert all(abs(hist[k] - expected[k]) <= TOL for k in hist)
    assert d.group_keys == view.keys
    assert d.group_sizes == view.sizes
    assert d.group_rows == view.group_rows
    assert display_fingerprint(d) == display_fingerprint(view)
    assert np.max(np.abs(encode_display(d, ds) - ref.encode(view, ds))) <= TOL


PAIR = Dataset("pair", [("c", "categorical"), ("n", "numeric")], [["a", 1.0], ["b", 2.0]])
# a group whose sum and mean depend on adding its cells in row order
SUMS = Dataset("sums", [("c", "categorical"), ("n", "numeric")],
               [["a", x] for x in (0.1, 0.2, 0.3, 1e20, 1.0, -1e20)] + [["b", 2.0]])


# text whose NULs and blanks numpy's string functions would misread
NULS = Dataset("nuls", [("t", "text")],
               [["a\x00"], ["\x00"], ["5 "], ["5"], ["ab"], [None]])
NUL_FILTERS = [ActionSpec("FILTER", filter=FilterPredicate("t", op, term))
               for op in FILTER_OPS for term in ("a", "\x00", "5", "5 ", "")]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions(ds))))
@example((NULS, [a for f in NUL_FILTERS for a in (f, ActionSpec("BACK"))]))
@example((PAIR, [ActionSpec("GROUP", group=Grouping("c", "n", "SUM"))]))
@example((SUMS, [ActionSpec("GROUP", group=Grouping("c", "n", "SUM")), ActionSpec("BACK"),
                 ActionSpec("GROUP", group=Grouping("c", "n", "MEAN"))]))
def test_engine_matches_row_reference(case):
    """Every view of a random session, and coherence's unchanged-view answer
    for each step, equal the row engine's. In the two-column example the
    group table (a, 1.0), (b, 2.0) equals the plain rows, so the GROUP step
    counts as unchanged."""
    ds, actions = case
    env = EdaEnv(ds, horizon=len(actions))
    states = [env.reset()]
    for action in actions:
        states.append(env.step(states[-1], action))
    views = reference_walk(ds, actions)
    for state, view in zip(states, views):
        assert_same_view(state.current, view, ds)
    for t, action in enumerate(actions):
        prev, cur = states[t].current, states[t + 1].current
        unchanged = not views[t + 1].visible or views[t + 1].visible == views[t].visible
        assert (coherence(prev, cur, action, []) == -1.0) == unchanged
    for a, b in itertools.product(range(len(views)), repeat=2):
        same = views[a].visible == views[b].visible
        assert states[a].current.shows_same_rows(states[b].current) == same


# a FILTER that keeps every row, a grouping of a column with nulls (so a
# null group) and of one without, an emptied view, and a FILTER that drops
# rows, on a column whose first-row order is not its code order
NULL_GROUP = Dataset("null_group", [("c", "categorical"), ("n", "numeric")],
                     [["b", 1.0], [None, 2.0], ["a", None], ["b", 1.0], [None, 5.0]])
NULL_GROUP_SESSION = [ActionSpec("FILTER", filter=FilterPredicate("c", "NEQ", "z")),
                      ActionSpec("GROUP", group=Grouping("c", "n", "COUNT")),
                      ActionSpec("GROUP", group=Grouping("n", "c", "COUNT")),
                      ActionSpec("BACK"), ActionSpec("BACK"),
                      ActionSpec("FILTER", filter=FilterPredicate("c", "EQ", "z")), ActionSpec("BACK"),
                      ActionSpec("FILTER", filter=FilterPredicate("n", "NEQ", "2")),
                      ActionSpec("GROUP", group=Grouping("c", "n", "SUM"))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions(ds))))
@example((NULL_GROUP, NULL_GROUP_SESSION))
def test_code_space_histograms_and_kls_match_the_dict_oracle(case):
    """On every column, each view of a random session has a histogram that
    reads as the row engine's value -> share dict, item by item in its
    order (values in order of first row; for the grouped column, the group
    keys with the null group last) and bit for bit, and the KL of every
    ordered pair of the session's views, a grouped column against a plain
    one among them, is the dict loop's, bit for bit."""
    ds, actions = case
    displays = [state.current for state in walk(ds, actions)]
    views = reference_walk(ds, actions)
    for col in ds.column_names:
        hists = [column_histogram(d, col) for d in displays]
        dicts = [ref.histogram(view, col) for view in views]
        for hist, want in zip(hists, dicts):
            assert repr(list(hist.items())) == repr(list(want.items()))
        for a, b in itertools.product(range(len(views)), repeat=2):
            got = kl_divergence(hists[a], hists[b])
            assert repr(got) == repr(measures_reference.kl_divergence(dicts[a], dicts[b]))


# a share of 28/31, whose log2 numpy can round differently from math.log2
SKEWED = Dataset("skewed", [("c", "categorical")], [["a"]] * 28 + [["b"], ["c"], ["d"]])


def test_expert_views_encode_bit_for_bit(synthetic_bundle):
    """On a synthetic table the encodings and histograms are not just close
    but equal: both engines add the same terms in the same order."""
    skewed = initial_display(SKEWED)
    assert np.array_equal(encode_display(skewed, SKEWED), ref.encode(ref.root(SKEWED), SKEWED))
    ds, _, _, trajectories = synthetic_bundle
    for traj in trajectories:
        views = reference_walk(ds, traj.actions)
        for state, view in zip(walk(ds, traj.actions), views):
            assert np.array_equal(encode_display(state.current, ds), ref.encode(view, ds))
            for col in ds.column_names:
                assert column_histogram(state.current, col) == ref.histogram(view, col)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions(ds))))
def test_memo_served_encodings_equal_fresh_ones(case):
    """Walk a random session twice. The second walk builds new views, and
    each starts with the encoding its row filters and grouping got in the
    first walk; that and every encoding of the first walk equal one
    computed afresh. The memo holds one entry per row filters and grouping
    of the first walk's views, and one per row filters ungrouped."""
    ds, actions = case
    first = walk(ds, actions)
    for state in first:  # bytes, so that the sign of a zero counts too
        assert encode_display(state.current, ds).tobytes() == encode(state.current).tobytes()
    for state in walk(ds, actions):
        d = state.current
        assert d._vec is not None
        assert d._vec.tobytes() == encode(d).tobytes()
        assert encode_display(d, ds) is d._vec
    views = [state.current for state in first]
    assert set(ds._encodings) == {(d.row_filters, g) for d in views
                                  for g in (None, d.grouping)}


def reference_term_bin(pred, vals, kind, layout):
    """`env._term_bin` as it was with its own table of text matchers, over
    the ranked values `vals` of a column of `kind`: the exact text first,
    then the first ranked text the operator accepts, else bin 0."""
    if not vals:
        return 0
    if kind is ColumnKind.NUMERIC and pred.op in ("EQ", "NEQ"):
        target = parse_number(pred.term)
        if target is not None and target in vals:
            return min(vals.index(target), layout.term_bins - 1)
    else:
        texts = ([canonical_number(v) for v in vals]
                 if kind is ColumnKind.NUMERIC else vals)
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


def distinct_views(ds, actions):
    """(engine view, reference view) of each distinct operation path of a
    session, the reset view included."""
    pairs = zip(walk(ds, actions), reference_walk(ds, actions))
    return {(state.current.filters, state.current.grouping): (state.current, view)
            for state, view in pairs}.values()


# a view that filters every row away, so each column falls back to the
# root's ranking, and a column that holds no value at all
EMPTIED = [ActionSpec("FILTER", filter=FilterPredicate("t", "EQ", "none"))]
NO_VALUES = Dataset("blank", [("t", "text"), ("n", "numeric")],
                    [[None, 5.0], [None, None]])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions(ds))))
@example((NULS, EMPTIED))
@example((NO_VALUES, [ActionSpec("FILTER", filter=FilterPredicate("n", "EQ", "7"))]))
def test_term_bins_match_reference(case):
    """Every view of a random session: each FILTER operator, term and
    column maps to the reference's term bin at 1, 3 and 20 bins."""
    ds, actions = case
    layouts = [HeadLayout(len(ds.columns), bins) for bins in (1, 3, 20)]
    root = ref.root(ds)
    for (display, view), (idx, (col, kind)) in itertools.product(
            distinct_views(ds, actions), enumerate(ds.columns)):
        # the view's ranking, or the full table's when the view has none
        vals = ref.ranked(view, idx) or ref.ranked(root, idx)
        for op, term in itertools.product(FILTER_OPS, TERMS):
            pred = FilterPredicate(col, op, term)
            action = ActionSpec("FILTER", filter=pred)
            for layout in layouts:
                expected = reference_term_bin(pred, vals, kind, layout)
                assert heads_from_action(action, display, layout)[4] == expected


def reference_action_from_heads(heads, ds, ranked, root_ranked):
    """`env.action_from_heads` as it was, given each column's ranked values
    in the view (`ranked`) and in the full table (`root_ranked`): a ranked
    value turned into its term by `canonical_number` on a numeric column."""
    kind_i, col_i, agg_i, op_i, bin_i = heads
    kind = ACTION_KINDS[kind_i]
    if kind in ("BACK", "STOP"):
        return ActionSpec(kind)
    col = ds.column_names[col_i]
    if kind == "GROUP":
        func = AGG_FUNCS[agg_i]
        agg_col = default_agg_col(ds, col)
        if func != "COUNT" and ds.kind_of(agg_col) is not ColumnKind.NUMERIC:
            func = "COUNT"
        return ActionSpec("GROUP", group=Grouping(col, agg_col, func))
    op = FILTER_OPS[op_i]
    vals = ranked[col_i]
    if vals:
        value = vals[min(bin_i, len(vals) - 1)]
    else:
        base_vals = root_ranked[col_i]
        if not base_vals:
            return ActionSpec("FILTER", filter=FilterPredicate(col, op, ""))
        value = base_vals[0]  # mode of the full table
    kind_c = ds.columns[col_i][1]
    term = canonical_number(value) if kind_c is ColumnKind.NUMERIC else value
    return ActionSpec("FILTER", filter=FilterPredicate(col, op, term))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions(ds))))
@example((NULS, EMPTIED))
@example((NO_VALUES, [ActionSpec("FILTER", filter=FilterPredicate("n", "EQ", "7"))]))
def test_actions_from_heads_match_reference(case):
    """Every head tuple, with term bins past the longest ranking, on every
    view of a random session gives the reference's action: the same term
    text on emptied views and on columns that hold no value too."""
    ds, actions = case
    heads = list(itertools.product(
        range(len(ACTION_KINDS)), range(len(ds.columns)), range(len(AGG_FUNCS)),
        range(len(FILTER_OPS)), range(ds.row_count + 1)))
    root = ref.root(ds)
    root_ranked = [ref.ranked(root, idx) for idx in range(len(ds.columns))]
    for display, view in distinct_views(ds, actions):
        ranked = [ref.ranked(view, idx) for idx in range(len(ds.columns))]
        for h in heads:
            assert action_from_heads(action_heads(h, display), display) == \
                reference_action_from_heads(h, ds, ranked, root_ranked)


def every_head(ds, bins):
    """Every head tuple of a layout over `ds` with `bins` term bins."""
    return list(itertools.product(
        range(len(ACTION_KINDS)), range(len(ds.columns)), range(len(AGG_FUNCS)),
        range(len(FILTER_OPS)), range(bins)))


@st.composite
def one_hot_ticks(draw):
    """A table, a session on it, a term bin count, and the head tuples of
    one tick of up to 16 lanes, their term bins often past a view's
    ranking."""
    ds = draw(tables())
    bins = draw(st.sampled_from([1, 3, 20]))
    head = st.tuples(st.integers(0, len(ACTION_KINDS) - 1),
                     st.integers(0, len(ds.columns) - 1),
                     st.integers(0, len(AGG_FUNCS) - 1),
                     st.integers(0, len(FILTER_OPS) - 1), st.integers(0, bins - 1))
    return ds, draw(sessions(ds)), bins, draw(st.lists(head, min_size=1, max_size=16))


# a text-only table, where SUM, MEAN, MIN and MAX degrade to COUNT, and an
# emptied view; a column with no value, whose ranking is empty at the root
# too; text operators on a numeric column
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(one_hot_ticks())
@example((NULS, EMPTIED, 20, every_head(NULS, 20)))
@example((NO_VALUES, [ActionSpec("FILTER", filter=FilterPredicate("n", "EQ", "7"))], 3,
          every_head(NO_VALUES, 3)))
@example((PAIR, [], 20, every_head(PAIR, 20)))
def test_tick_one_hots_match_the_canonical_round_trip(case):
    """Each row of a tick's one-hot matrix, with every head tuple on every
    view of a random session, equals the per-head action vector of the
    round trip through the action and back to its canonical heads; and each
    GROUP action applies, so a numeric-only aggregate over a column of
    another kind has degraded to COUNT on both sides."""
    ds, actions, bins, heads = case
    layout = HeadLayout(len(ds.columns), bins)
    views = [state.current for state in walk(ds, actions)]
    for shift in range(len(views)):
        displays = [views[(i + shift) % len(views)] for i in range(len(heads))]
        # as the collector builds them, from the head values `decide` returns
        used = np.array([action_heads(h, d) for h, d in zip(heads, displays)])
        got = encode_action(used, layout)
        assert got.shape == (len(heads), layout.action_dim)
        for row, u, d in zip(got, used.tolist(), displays):
            action = action_from_heads(u, d)
            if action.kind == "GROUP":
                apply_group(d, action.group)
            canonical = heads_from_action(action, d, layout)
            assert canonical == tuple(u)
            assert np.array_equal(row, one_hot(canonical, layout))


@st.composite
def encoder_cases(draw):
    """A table, a session on it, a layout of 1 to 20 term bins, and k of
    {0, 1, 16} head tuples of every kind."""
    ds = draw(tables())
    layout = HeadLayout(len(ds.columns), draw(st.integers(1, 20)))
    head = st.tuples(*(st.integers(0, size - 1) for size in layout.sizes))
    k = draw(st.sampled_from([0, 1, 16]))
    return ds, draw(sessions(ds)), layout, draw(st.lists(head, min_size=k, max_size=k))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(encoder_cases())
@example((PAIR, [ActionSpec("BACK"), ActionSpec("FILTER", filter=FilterPredicate("c", "EQ", "b")),
                 ActionSpec("GROUP", group=Grouping("c", "n", "SUM")), ActionSpec("STOP")],
          HeadLayout(2, 4), [(kind, 1, 1, 2, 3) for kind in range(4)] * 4))
def test_batched_one_hots_match_the_per_head_oracle(case):
    """`encode_action` of k rows of head values, from `action_heads` of
    decisions on a session's views and from `heads_from_action` of the
    session's actions, equals the per-head `one_hot` of each row, bit for
    bit; k = 0 gives a (0, action_dim) matrix."""
    ds, actions, layout, heads = case
    states = walk(ds, actions)
    views = [state.current for state in states]
    used = [action_heads(h, views[i % len(views)]) for i, h in enumerate(heads)]
    expert = [heads_from_action(a, state.current, layout)
              for state, a in zip(states, actions)]
    expert = [expert[i % len(expert)] for i in range(len(heads))]
    for rows in (used, expert):
        got = encode_action(np.array(rows, dtype=np.int64).reshape(-1, N_HEADS),
                            layout)
        assert got.shape == (len(heads), layout.action_dim)
        want = np.array([one_hot(r, layout) for r in rows]).reshape(got.shape)
        assert np.array_equal(got, want)


@st.composite
def sessions_with_repeats(draw, ds):
    """A random session in which up to two of the actions before a trailing
    STOP are taken twice in a row."""
    actions = draw(sessions(ds))
    n = len(actions) - (actions[-1].kind == "STOP")
    for i in sorted(draw(st.sets(st.integers(0, n - 1), max_size=2)), reverse=True):
        actions.insert(i, actions[i])
    return actions


# rules on the previous action's kind, which read each step's prior actions
PRIOR_RULES = CoherenceRuleset.from_json({
    "filterable_columns": ["c0", "c"], "groupable_columns": ["c1"],
    "rules": [{"match": {"prior_kind": "FILTER"}, "score": 0.25},
              {"match": {"kind": "FILTER", "prior_kind": "GROUP"}, "score": 0.5},
              {"match": {"kind": "BACK", "prior_kind": "BACK"}, "score": -0.5}]})
BACK, STOP = ActionSpec("BACK"), ActionSpec("STOP")
PAIR_FILTER = ActionSpec("FILTER", filter=FilterPredicate("c", "EQ", "a"))


@pytest.mark.parametrize("ruleset", [EMPTY_RULESET, PRIOR_RULES],
                         ids=["no-rules", "prior-kind-rules"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), sessions_with_repeats(ds))))
@example((PAIR, [BACK, BACK, PAIR_FILTER, PAIR_FILTER, BACK, BACK, STOP]))
def test_session_scores_match_reference(ruleset, case):
    """Scores read from the walk's states equal those of the scorer that
    kept its own lists of seen views and prior actions: BACK at the root,
    repeated actions and a trailing STOP included."""
    ds, actions = case
    assert score_session(ds, actions, ruleset) == \
        measures_reference.score_session(ds, actions, ruleset)


KEEP_ALL = "\x01"  # no cell holds it, so NEQ on it keeps every row


@st.composite
def lineage_sessions(draw, ds):
    """A random session after two groupings taken, undone and the first
    retaken at the root, with FILTERs that keep every row and GROUPs
    spliced in after its FILTERs."""
    columns = st.sampled_from(ds.column_names)
    first, second = (draw_grouping(draw, ds, draw(columns)) for _ in range(2))
    actions = [a for g in (first, second, first)
               for a in (ActionSpec("GROUP", group=g), ActionSpec("BACK"))]
    for action in draw(sessions(ds)):
        if action.kind == "STOP":
            break
        actions.append(action)
        if action.kind == "FILTER" and draw(st.booleans()):
            pred = FilterPredicate(draw(columns), "NEQ", KEEP_ALL)
            actions.append(ActionSpec("FILTER", filter=pred))
        if action.kind == "FILTER" and draw(st.booleans()):
            actions.append(ActionSpec("GROUP", group=draw_grouping(draw, ds, draw(columns))))
    return actions


def rebuilt(ds, key):
    """The view of operation path `key`, (filters, grouping), on a fresh
    copy of `ds`, which has built no view before."""
    filters, grouping = key
    d = initial_display(Dataset(ds.name, ds.columns, ref.dataset_rows(ds)))
    for pred in filters:
        d = apply_filter(d, pred)
    return d if grouping is None else apply_group(d, grouping)


def row_statistics(d):
    """Everything a view computes from its rows, as bytes and reprs, so
    that the sign of a zero and the last bit of a float count."""
    width = len(d.dataset.columns)
    stats = [d.column_stats(i) for i in range(width)]
    return (d.rows.tobytes(),
            [(codes.tobytes(), counts.tobytes(), nulls) for codes, counts, nulls in stats],
            d.entropy_bits().tobytes(),
            repr([d.ranked_codes(i) for i in range(width)]),
            repr((d.group_keys, d.group_sizes, d.group_aggs)),
            encode_display(d, d.dataset).tobytes())


GROUP_SUM, GROUP_MEAN = (ActionSpec("GROUP", group=Grouping("c", "n", f))
                         for f in ("SUM", "MEAN"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), lineage_sessions(ds),
                                             st.randoms(use_true_random=False))))
@example((SUMS, [GROUP_SUM, ActionSpec("BACK"), GROUP_MEAN, ActionSpec("BACK"),
                 ActionSpec("FILTER", filter=FilterPredicate("c", "NEQ", KEEP_ALL)),
                 GROUP_SUM, ActionSpec("FILTER", filter=FilterPredicate("c", "NEQ", "b")),
                 GROUP_MEAN, ActionSpec("FILTER", filter=FilterPredicate("n", "NEQ", "1"))],
          random.Random(0)))
@example((NULS, EMPTIED + [ActionSpec("GROUP", group=Grouping("t", "t", "COUNT")),
                           ActionSpec("FILTER", filter=FilterPredicate("t", "NEQ", KEEP_ALL))],
          random.Random(0)))
def test_shared_row_sets_match_fresh_datasets(case):
    """Walk a session twice on one dataset, so that the second walk meets
    the row sets and group tables of the first, and read every view's row
    statistics in a random order: each equals, bit for bit, those of the
    same operation path rebuilt on a fresh dataset, and the rows are those
    that pass the row engine's filters."""
    ds, actions, rng = case
    views = [state.current for _ in range(2) for state in walk(ds, actions)]
    rng.shuffle(views)
    rows = ref.dataset_rows(ds)
    for d in views:
        assert row_statistics(d) == row_statistics(rebuilt(ds, (d.filters, d.grouping)))
        view = ref.root(ds)
        for pred in d.filters:
            view = ref.filtered(view, pred)
        assert [rows[i] for i in d.rows] == list(view.rows)


def cold_histograms(d):
    """Each column's histogram of `d`'s operation path, rebuilt on a fresh
    copy of its dataset, where they are the first histograms computed."""
    fresh = rebuilt(d.dataset, (d.filters, d.grouping))
    return {col: dict(column_histogram(fresh, col)) for col in d.dataset.column_names}


# a GROUP after a FILTER that drops rows, a FILTER that keeps every row
# after it, BACK to the root, an emptied view and a FILTER two steps deep,
# on a table whose grouped column's value counts differ from one another
SHARED = [ActionSpec("FILTER", filter=FilterPredicate("n", "NEQ", "1")), GROUP_SUM,
          ActionSpec("FILTER", filter=FilterPredicate("c", "NEQ", KEEP_ALL)),
          ActionSpec("BACK"), ActionSpec("BACK"), ActionSpec("BACK"),
          ActionSpec("FILTER", filter=FilterPredicate("c", "EQ", "none")), ActionSpec("BACK"),
          ActionSpec("FILTER", filter=FilterPredicate("n", "NEQ", "2")),
          ActionSpec("FILTER", filter=FilterPredicate("c", "EQ", "a")), GROUP_MEAN]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(
    st.just(ds), st.lists(lineage_sessions(ds), min_size=1, max_size=2),
    st.randoms(use_true_random=False))))
@example((SUMS, [SHARED, SHARED[:2] + [ActionSpec("BACK")] + SHARED[8:]], random.Random(0)))
def test_cached_histograms_and_kls_match_fresh_datasets(case):
    """Walk random sessions on one dataset, so that later walks meet the
    row sets of earlier ones, and read the views' histograms and KLs in a
    random order: each histogram equals, by ==, the one computed first on a
    fresh dataset, each KL equals the dict loop's over those, and each
    session scores as its walk on a fresh dataset does. The KLs read are
    those of the program (each view against the one before it and against
    the root) and a sample of other ordered pairs."""
    ds, walks, rng = case
    columns = ds.column_names
    for actions in walks:
        views = [state.current for state in walk(ds, actions)]
        cold = {}
        for d in views:
            if (d.filters, d.grouping) not in cold:
                cold[d.filters, d.grouping] = cold_histograms(d)
        pairs = list(zip(views, views[1:])) + [(views[0], d) for d in views]
        pairs += rng.sample([(a, b) for a in views for b in views], min(40, len(views) ** 2))
        queries = [(d, col) for d in views for col in columns] + pairs
        rng.shuffle(queries)
        for a, b in queries:
            if isinstance(b, str):
                assert column_histogram(a, b) == cold[a.filters, a.grouping][b]
            else:
                assert max_column_kl(a, b) == max(
                    measures_reference.kl_divergence(cold[a.filters, a.grouping][c],
                                                     cold[b.filters, b.grouping][c])
                    for c in columns)
        fresh = Dataset(ds.name, ds.columns, ref.dataset_rows(ds))
        assert score_session(ds, actions) == score_session(fresh, actions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables().flatmap(lambda ds: st.tuples(st.just(ds), lineage_sessions(ds),
                                             st.randoms(use_true_random=False))))
@example((SUMS, SHARED, random.Random(0)))
def test_lazy_aggregates_match_reference_whenever_read(case):
    """Step a session and, after each step, read the group table of a
    random view built so far, or of none; then read every view in a random
    order. Each read equals the row engine's, whether the row set's
    aggregates were first read through an earlier view, a later one or
    this one."""
    ds, actions, rng = case
    env = EdaEnv(ds, horizon=len(actions))
    expected = reference_walk(ds, actions)
    states = [env.reset()]

    def check(i):
        d, view = states[i].current, expected[i]
        assert d.group_aggs == tuple(agg for _, agg in view.group_rows)
        assert d.group_rows == view.group_rows
        assert d.visible_rows == view.visible

    for action in actions:
        states.append(env.step(states[-1], action))
        if rng.random() < 0.5:
            check(rng.randrange(len(states)))
    order = list(range(len(states)))
    rng.shuffle(order)
    for i in order:
        check(i)
