import gc
import math
import weakref

import numpy as np
import pytest

from autoeda import measures
from autoeda.env import ActionSpec, BACK, STOP, encode_display
from autoeda.measures import (DEFAULT_KL_EPS, MEASURE_NAMES, CoherenceRuleset,
                              MeasureSpecs, SigmoidSpec, a_int,
                              classify_session, coherence,
                              default_measure_specs, diversity, kl_divergence,
                              max_column_kl, normalize_session, peculiarity,
                              readability, score_session, sigmoid)
from autoeda.tabular import (ColumnKind, Dataset, FilterPredicate, Grouping,
                             apply_filter, apply_group, column_histogram,
                             display_fingerprint, initial_display)
from measures_reference import histograms
from row_engine import dataset_rows


def FILTER(col, op, term):
    return ActionSpec("FILTER", filter=FilterPredicate(col, op, term))


def GROUP(grp, agg, func):
    return ActionSpec("GROUP", group=Grouping(grp, agg, func))


# ---------------------------------------------------------------------------
# sigmoid

def test_sigmoid_midpoint():
    assert sigmoid(3.0, SigmoidSpec(3.0, 2.0)) == 0.5
    assert sigmoid(3.0, SigmoidSpec(3.0, 2.0, decreasing=True)) == 0.5


def test_sigmoid_saturation():
    spec = SigmoidSpec(0.0, 1.0)
    assert sigmoid(1e6, spec) == pytest.approx(1.0)
    assert sigmoid(-1e6, spec) == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_one_width_above_center():
    # direct evaluation: 1 / (1 + e^-1)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert sigmoid(5.0, SigmoidSpec(4.0, 1.0)) == pytest.approx(expected)
    assert expected == pytest.approx(0.7311, abs=5e-5)


def test_sigmoid_invalid_width():
    with pytest.raises(ValueError):
        SigmoidSpec(0.0, 0.0)


# ---------------------------------------------------------------------------
# KL divergence

def test_kl_identity_is_exactly_zero(toy):
    p = {"a": 0.3, "b": 0.5, "c": 0.2}
    assert kl_divergence(*histograms(p, dict(p))) == 0.0
    d0 = initial_display(toy)
    for col in toy.column_names:
        assert repr(kl_divergence(column_histogram(d0, col),
                                  column_histogram(d0, col))) == "0.0"


def test_kl_point_mass_vs_uniform():
    val = kl_divergence(*histograms({"a": 1.0}, {"a": 0.5, "b": 0.5}))
    assert val == pytest.approx(math.log(2))


def test_kl_random_pairs_match_summation_oracle():
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(50):
        support = [f"v{i}" for i in range(5)]
        p_raw, q_raw = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        p = dict(zip(support, p_raw))
        q = {v: float(w) for v, w in zip(support, q_raw) if w > 0.1}
        expected = 0.0
        for v in set(p) | set(q):
            pv = p.get(v, 0.0)
            if pv > 0:
                qv = q.get(v, 0.0)
                expected += pv * math.log(pv / (qv if qv > 0 else eps))
        assert kl_divergence(*histograms(p, q), eps) == \
            pytest.approx(expected, abs=1e-12)


def test_kl_nonnegative_within_smoothing_tolerance():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = dict(zip(range(n), rng.dirichlet(np.ones(n))))
        m = int(rng.integers(1, 8))
        q = dict(zip(range(m), rng.dirichlet(np.ones(m))))
        assert kl_divergence(*histograms(p, q), eps) >= -eps * (n + m)


def test_kl_empty_distributions():
    assert kl_divergence(*histograms({}, {})) == 0.0
    with pytest.raises(ValueError):
        kl_divergence(*histograms({}, {}), eps=0.0)


def test_kl_refuses_histograms_over_two_dictionaries(toy):
    """Codes index one dictionary: histograms of two columns, or of one
    column of two equal datasets, are refused, even when both are empty."""
    copy = Dataset(toy.name, [(c, k.value) for c, k in toy.columns],
                   dataset_rows(toy))
    d0, c0 = initial_display(toy), initial_display(copy)
    empty = apply_filter(d0, FilterPredicate("color", "EQ", "zzz"))
    pairs = [(column_histogram(d0, "color"), column_histogram(c0, "color")),
             (column_histogram(d0, "color"), column_histogram(d0, "note")),
             (column_histogram(empty, "color"), column_histogram(empty, "note"))]
    for p, q in pairs:
        for args in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="one dictionary"):
                kl_divergence(*args)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_kl_refuses_an_eps_that_is_not_positive_and_finite(eps):
    """A NaN eps would give NaN, and an infinite one a log of 0."""
    p, q = histograms({"a": 0.5, "b": 0.5}, {"a": 1.0})
    with pytest.raises(ValueError, match="positive finite"):
        kl_divergence(p, q, eps)


# ---------------------------------------------------------------------------
# per-step measures

@pytest.fixture
def deck() -> Dataset:
    """Ten rows over three colors for compact grouping fixtures."""
    rows = [["a", float(i)] for i in range(5)] + \
           [["b", float(i)] for i in range(3)] + \
           [["c", float(i)] for i in range(2)]
    return Dataset("deck", [("color", ColumnKind.CATEGORICAL),
                            ("x", ColumnKind.NUMERIC)], rows)


def test_a_int_zero_for_back_and_stop(deck):
    specs = default_measure_specs(1000)
    d0 = initial_display(deck)
    assert a_int(d0, d0, BACK, specs) == 0.0
    assert a_int(d0, d0, STOP, specs) == 0.0


def test_a_int_noop_filter_hits_sigmoid_floor(deck):
    specs = default_measure_specs(deck.row_count)
    d0 = initial_display(deck)
    same = apply_filter(d0, FilterPredicate("color", "NEQ", "zzz"))
    expected_floor = sigmoid(0.0, specs.divergence)
    assert a_int(d0, same, FILTER("color", "NEQ", "zzz"), specs) == \
        pytest.approx(expected_floor)


def test_a_int_group_formula_oracle(deck):
    """g=3 groups over r=10 tuples, specs pinned at a 1000-row scale."""
    specs = default_measure_specs(1000)
    d0 = initial_display(deck)
    grouped = apply_group(d0, Grouping("color", "x", "COUNT"))
    assert grouped.group_count == 3 and grouped.row_count == 10
    h1 = 1.0 - 1.0 / (1.0 + math.exp(-(3 * 1 - 50.0) / 15.0))
    h2 = 1.0 - 1.0 / (1.0 + math.exp(-(10 - 500.0) / 100.0))
    expected = min(1.0, h1 / h2)
    got = a_int(d0, grouped, GROUP("color", "x", "COUNT"), specs)
    assert got == pytest.approx(expected)
    assert 0.9 < got < 1.0  # non-degenerate fixture


def test_a_int_group_monotone_in_group_count():
    """More groups over the same tuple count never score higher."""
    specs = default_measure_specs(1000)
    values = []
    for n_colors in (1, 2, 4, 8, 16):
        rows = [[f"v{i % n_colors}", 1.0] for i in range(64)]
        ds = Dataset("sweep", [("c", ColumnKind.CATEGORICAL),
                               ("x", ColumnKind.NUMERIC)], rows)
        d0 = initial_display(ds)
        grouped = apply_group(d0, Grouping("c", "x", "COUNT"))
        values.append(a_int(d0, grouped, GROUP("c", "x", "COUNT"), specs))
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_diversity_repeat_is_zero(deck):
    d0 = initial_display(deck)
    d1 = apply_filter(d0, FilterPredicate("color", "EQ", "a"))
    assert diversity(d1, [d0, d1]) == 0.0


def test_diversity_single_history_element(deck):
    d0 = initial_display(deck)
    d1 = apply_filter(d0, FilterPredicate("color", "EQ", "a"))
    expected = float(np.linalg.norm(encode_display(d1, deck)
                                    - encode_display(d0, deck)))
    assert diversity(d1, [d0]) == pytest.approx(expected)


def test_diversity_scripted_session_pairwise_oracle(deck):
    d0 = initial_display(deck)
    d1 = apply_filter(d0, FilterPredicate("color", "NEQ", "a"))
    d2 = apply_group(d0, Grouping("color", "x", "SUM"))
    cur = apply_filter(d1, FilterPredicate("x", "EQ", "1"))
    vecs = [encode_display(d, deck) for d in (d0, d1, d2)]
    target = encode_display(cur, deck)
    expected = min(float(np.linalg.norm(target - v)) for v in vecs)
    assert diversity(cur, [d0, d1, d2]) == pytest.approx(expected)


def test_diversity_requires_history(deck):
    with pytest.raises(ValueError):
        diversity(initial_display(deck), [])


def test_readability_equal_compactness_is_zero(deck):
    specs = default_measure_specs(deck.row_count)
    d0 = initial_display(deck)
    assert readability(d0, d0, specs) == 0.0


def test_readability_ratio_algebra():
    # C(prev)=0.2 and C(cur)=0.4 gives 1 - 0.5 = 0.5, via a direct stub
    specs = MeasureSpecs(
        group_size=SigmoidSpec(1, 1), row_mass=SigmoidSpec(1, 1),
        divergence=SigmoidSpec(1, 1),
        compactness=SigmoidSpec(0.0, 1.0, decreasing=True))
    # solve for row counts x with C = 1 - sigma(x): C=0.2 -> x = ln(4); C=0.4
    x_prev = math.log((1 - 0.2) / 0.2)
    x_cur = math.log((1 - 0.4) / 0.4)
    c_prev = 1 - 1 / (1 + math.exp(-x_prev))
    c_cur = 1 - 1 / (1 + math.exp(-x_cur))
    assert c_prev == pytest.approx(0.2) and c_cur == pytest.approx(0.4)
    assert 1 - c_prev / c_cur == pytest.approx(0.5)


def test_readability_group_collapse_positive(synthetic_dataset):
    """1000 rows collapsing to a handful of groups reads much better."""
    specs = default_measure_specs(synthetic_dataset.row_count)
    d0 = initial_display(synthetic_dataset)
    grouped = apply_group(d0, Grouping("c1", "n1", "COUNT"))
    got = readability(d0, grouped, specs)
    n = synthetic_dataset.row_count
    c_prev = max(1e-9, 1 - 1 / (1 + math.exp(-(n - n / 2) / (n / 2))))
    g = grouped.group_count
    c_cur = max(1e-9, 1 - 1 / (1 + math.exp(-(g * g - n / 2) / (n / 2))))
    assert got == pytest.approx(max(0.0, 1 - c_prev / c_cur))
    assert got > 0.5


def test_peculiarity_identity_is_floor(deck):
    specs = default_measure_specs(deck.row_count)
    d0 = initial_display(deck)
    assert peculiarity(d0, d0, specs) == \
        pytest.approx(sigmoid(0.0, specs.divergence))


def test_peculiarity_single_row_filter_increases(deck):
    specs = default_measure_specs(deck.row_count)
    d0 = initial_display(deck)
    narrow = apply_filter(d0, FilterPredicate("x", "EQ", "4"))
    assert narrow.row_count == 1
    assert peculiarity(narrow, d0, specs) > sigmoid(0.0, specs.divergence)


def test_peculiarity_composition_oracle(deck):
    specs = default_measure_specs(deck.row_count)
    d0 = initial_display(deck)
    cur = apply_filter(d0, FilterPredicate("color", "EQ", "b"))
    expected = max(
        kl_divergence(column_histogram(d0, col), column_histogram(cur, col))
        for col in deck.column_names)
    assert peculiarity(cur, d0, specs) == \
        pytest.approx(sigmoid(expected, specs.divergence))


# ---------------------------------------------------------------------------
# coherence

def test_coherence_empty_display(deck):
    d0 = initial_display(deck)
    empty = apply_filter(d0, FilterPredicate("color", "EQ", "zzz"))
    action = FILTER("color", "EQ", "zzz")
    assert coherence(d0, empty, action, []) == -1.0


def test_coherence_noop_filter(deck):
    d0 = initial_display(deck)
    same = apply_filter(d0, FilterPredicate("color", "NEQ", "zzz"))
    assert coherence(d0, same, FILTER("color", "NEQ", "zzz"), []) == -1.0


def test_coherence_single_rule(deck):
    ruleset = CoherenceRuleset.from_json(
        {"rules": [{"match": {"kind": "GROUP", "column": "color"}, "score": 0.5}]})
    d0 = initial_display(deck)
    grouped = apply_group(d0, Grouping("color", "x", "COUNT"))
    assert coherence(d0, grouped, GROUP("color", "x", "COUNT"), [], ruleset) == 0.5
    # a non-matching action scores the default 0
    other = apply_filter(d0, FilterPredicate("color", "EQ", "a"))
    assert coherence(d0, other, FILTER("color", "EQ", "a"), [], ruleset) == 0.0


def test_coherence_filterable_sets_and_prior_kind(deck):
    ruleset = CoherenceRuleset.from_json({
        "filterable_columns": ["x"],
        "rules": [{"match": {"kind": "FILTER", "prior_kind": "GROUP"},
                   "score": 0.25}],
    })
    d0 = initial_display(deck)
    good = apply_filter(d0, FilterPredicate("x", "EQ", "1"))
    assert coherence(d0, good, FILTER("x", "EQ", "1"), []) == 0.0
    assert coherence(d0, good, FILTER("x", "EQ", "1"), [], ruleset) == 0.5
    prior = [GROUP("color", "x", "COUNT")]
    assert coherence(d0, good, FILTER("x", "EQ", "1"), prior, ruleset) == 0.75
    bad = apply_filter(d0, FilterPredicate("color", "EQ", "a"))
    assert coherence(d0, bad, FILTER("color", "EQ", "a"), [], ruleset) == -0.5


def test_coherence_clamped(deck):
    ruleset = CoherenceRuleset.from_json(
        {"rules": [{"match": {"kind": "FILTER"}, "score": 0.9},
                   {"match": {"op": "EQ"}, "score": 0.9}]})
    d0 = initial_display(deck)
    d1 = apply_filter(d0, FilterPredicate("color", "EQ", "a"))
    assert coherence(d0, d1, FILTER("color", "EQ", "a"), [], ruleset) == 1.0


def test_ruleset_malformed():
    """Each malformed input is refused with a message naming its field."""
    cases = [
        ({"rules": [{"score": 0.5}]}, "match"),
        ([1, 2], "JSON object"), (3, "JSON object"), (None, "JSON object"),
        # a string would be read as the set of its characters
        ({"filterable_columns": "c1"}, "filterable_columns"),
        ({"groupable_columns": "c1"}, "groupable_columns"),
        ({"filterable_columns": ["c1", 2]}, "filterable_columns"),
        ({"rules": {"match": {}, "score": 0.5}}, "rules"),
        ({"rules": [5]}, "match"),
        ({"rules": [{"match": [["kind", "GROUP"]], "score": 0.5}]}, "match"),
        # an unknown key would match every action
        ({"rules": [{"match": {"colum": "c1"}, "score": 0.5}]}, "match"),
        ({"rules": [{"match": {}, "score": True}]}, "score"),
        ({"rules": [{"match": {}, "score": "0.5"}]}, "score"),
        ({"rules": [{"match": {}, "score": math.nan}]}, "score"),
        ({"rules": [{"match": {}, "score": math.inf}]}, "score"),
        ({"rules": [{"match": {"kind": "GROUP"}}]}, "score"),
    ]
    for source, field in cases:
        with pytest.raises(ValueError,
                           match=f"malformed coherence ruleset: .*{field}"):
            CoherenceRuleset.from_json(source)


# ---------------------------------------------------------------------------
# normalization and classification

def _scores(**kwargs):
    base = {name: 0.0 for name in MEASURE_NAMES}
    base.update(kwargs)
    return base


def test_normalize_affine():
    raw = [_scores(a_int=0.0), _scores(a_int=5.0), _scores(a_int=10.0)]
    normalized = normalize_session(raw)
    assert [s["a_int"] for s in normalized] == [0.0, 0.5, 1.0]


def test_normalize_constant_series_is_zero():
    raw = [_scores(diversity=3.0)] * 3
    assert [s["diversity"] for s in normalize_session(raw)] == [0.0, 0.0, 0.0]


def test_normalize_bounds_and_max(synthetic_bundle):
    dataset, _, _, trajectories = synthetic_bundle
    raw = score_session(dataset, trajectories[0].actions)
    normalized = normalize_session(raw)
    assert all(list(s) == list(MEASURE_NAMES) for s in raw + normalized)
    for name in MEASURE_NAMES:
        series = [s.get(name) for s in normalized]
        assert min(series) >= 0.0 and max(series) <= 1.0
        if max(s.get(name) for s in raw) > min(s.get(name) for s in raw):
            assert max(series) == 1.0


def test_high_score_flagging():
    raw = [_scores(a_int=0.0, diversity=2.0), _scores(a_int=5.0, diversity=1.0),
           _scores(a_int=10.0, diversity=0.0)]
    normalized = normalize_session(raw)
    flagged = [[m for m in MEASURE_NAMES if s.get(m) > 0.8] for s in normalized]
    assert flagged == [["diversity"], [], ["a_int"]]


def test_classify_dominant_measure():
    # already-normalized input: diversity pegged at 1, everything else at 0
    session = [_scores(diversity=1.0) for _ in range(4)]
    assert classify_session(session) == "diversity"


def test_classify_tie_order():
    session = [_scores()] * 3
    assert classify_session(normalize_session(session)) == "a_int"


def test_classify_quantile_oracle():
    """Manual linear-interpolation quantile reproduces the choice."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        raw = [_scores(a_int=float(rng.random()), diversity=float(rng.random()),
                       readability=float(rng.random())) for _ in range(n)]
        normalized = normalize_session(raw)

        def manual_quantile(series, q):
            s = sorted(series)
            pos = q * (len(s) - 1)
            lo, hi = int(math.floor(pos)), int(math.ceil(pos))
            return s[lo] + (s[hi] - s[lo]) * (pos - lo)

        best, best_q = None, -1.0
        for name in ("a_int", "diversity", "readability"):
            qv = manual_quantile([s.get(name) for s in normalized], 0.75)
            if qv > best_q:
                best, best_q = name, qv
        assert classify_session(normalized, 0.75) == best


def test_classify_affine_invariance():
    """Positive affine rescaling of one measure's raw series cannot change
    the label (min-max normalization absorbs it)."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        raw = [_scores(a_int=float(rng.random()), diversity=float(rng.random()),
                       readability=float(rng.random())) for _ in range(6)]
        label = classify_session(normalize_session(raw))
        scaled = [_scores(a_int=3.5 * s["a_int"] + 2.0, diversity=s["diversity"],
                          readability=s["readability"]) for s in raw]
        assert classify_session(normalize_session(scaled)) == label


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_session([])
    with pytest.raises(ValueError):
        classify_session(normalize_session([_scores()]), quantile=1.5)


# ---------------------------------------------------------------------------
# whole-session scoring

def test_score_session_back_rows_are_flat(deck):
    actions = (GROUP("color", "x", "COUNT"), BACK,
               FILTER("color", "EQ", "a"), STOP)
    raw = score_session(deck, actions)
    assert len(raw) == 4
    back = raw[1]
    assert back["a_int"] == 0.0
    assert back["diversity"] == 0.0  # returning to a seen display


def test_score_session_uses_ruleset(deck):
    ruleset = CoherenceRuleset.from_json(
        {"rules": [{"match": {"kind": "GROUP"}, "score": 0.5}]})
    actions = (GROUP("color", "x", "COUNT"),)
    raw = score_session(deck, actions, ruleset)
    assert raw[0]["coherence"] == 0.5


# ---------------------------------------------------------------------------
# the per-dataset KL memo

def _composed_kl(before, after):
    """max_column_kl without the memo: the histogram + KL composition."""
    return max(kl_divergence(column_histogram(before, col),
                             column_histogram(after, col))
               for col in before.dataset.column_names)


@pytest.mark.parametrize("column, op, terms", [
    ("x", "CONTAINS", ("5", "5.0")),   # numeric cells read as "5", "15", "2.5"
    ("color", "EQ", ("red", " red")),
])
def test_kl_memo_separates_views_that_share_a_fingerprint(column, op, terms):
    ds = Dataset("memo", [("color", ColumnKind.CATEGORICAL),
                          ("x", ColumnKind.NUMERIC)],
                 [["red", 5.0], [" red", 15.0], ["blue", 2.5], ["red", 7.0],
                  ["blue", 50.0], [" red", 5.0], ["green", 1.0], ["red", 3.0]])
    d0 = initial_display(ds)
    a, b = (apply_filter(d0, FilterPredicate(column, op, t)) for t in terms)
    assert display_fingerprint(a) == display_fingerprint(b)
    assert not np.array_equal(a.rows, b.rows)
    grouped = [apply_group(v, Grouping("x", "color", "COUNT")) for v in (a, b)]
    views = [a, b] + grouped
    pairs = [(d0, v) for v in views] + [(v, d0) for v in views] + [(a, b), (b, a)]
    for _ in range(2):  # cold, then every pair again from the memo
        for before, after in pairs:
            assert max_column_kl(before, after) == _composed_kl(before, after)
    assert max_column_kl(d0, a) != max_column_kl(d0, b)


def test_max_column_kl_refuses_views_of_another_dataset(deck):
    other = Dataset(deck.name, [(c, k.value) for c, k in deck.columns],
                    dataset_rows(deck))
    d0, o0 = initial_display(deck), initial_display(other)
    for before, after in ((d0, o0), (o0, d0)):
        with pytest.raises(ValueError):
            max_column_kl(before, after)
    with pytest.raises(ValueError):
        diversity(o0, [d0])
    assert not other._kl_memo and not deck._kl_memo


def test_kl_memo_warm_scores_equal_fresh_dataset_scores(synthetic_bundle):
    dataset, _, _, trajectories = synthetic_bundle
    for t in trajectories:
        score_session(dataset, t.actions)  # warm the memo
    for t in trajectories:
        fresh = Dataset(dataset.name, [(c, k.value) for c, k in dataset.columns],
                        dataset_rows(dataset))
        assert not fresh._kl_memo
        assert score_session(dataset, t.actions) == score_session(fresh, t.actions)


def test_kl_memo_entry_dies_with_its_dataset():
    """The KL memo's keys hold only filter predicates, column indices and
    grouped flags, and its values only floats: no view, row set or dataset.
    Neither the memos nor the row sets, whose group tables a held view
    keeps, refer back to the dataset: not even the row set of all rows that
    the dataset keeps, once it holds a summary, rankings and group
    tables."""
    gc.disable()  # freed by reference counting alone, no cycle to collect
    try:
        ds = Dataset("gone", [("color", ColumnKind.CATEGORICAL),
                              ("n", ColumnKind.NUMERIC)],
                     [["a", 1.0], ["b", 2.0], ["a", None]])
        root = initial_display(ds)
        score_session(ds, (GROUP("color", "n", "SUM"), BACK,
                           FILTER("color", "NEQ", "c"), GROUP("n", "n", "COUNT"),
                           FILTER("color", "EQ", "a"), STOP))
        assert ds._kl_memo and ds._encodings
        root.ranked_codes(0)
        assert root._rowset is ds._all_rows
        assert root._rowset.summary is not None and root._rowset.ranked
        assert len(root._rowset.groups) == 2
        narrowed = apply_filter(root, FilterPredicate("color", "EQ", "a"))
        view = apply_group(narrowed, Grouping("color", "n", "MEAN"))
        kept = apply_filter(view, FilterPredicate("n", "NEQ", "7"))
        assert kept._rowset is view._rowset is narrowed._rowset
        max_column_kl(root, kept)
        assert view._rowset.groups
        dropped = apply_filter(view, FilterPredicate("n", "NEQ", "1"))
        max_column_kl(view, dropped)
        assert (0, True, True) in ds._kl_memo[view.row_filters,
                                              dropped.row_filters]
        for pair, kls in ds._kl_memo.items():
            assert type(pair) is tuple and len(pair) == 2
            for filters in pair:
                assert type(filters) is tuple
                for p in filters:
                    assert type(p) is FilterPredicate
                    assert {type(v) for v in (p.column, p.op, p.term)} == {str}
            for key, kl in kls.items():
                assert [type(v) for v in key] == [int, bool, bool]
                assert type(kl) is float
        ref = weakref.ref(ds)
        del ds, root, narrowed, kept
        assert ref() is not None  # the held views keep their dataset
        del view
        assert ref() is not None
        del dropped
        assert ref() is None
    finally:
        gc.enable()


def _counted_kl(monkeypatch):
    """The (p, q) histograms of every kl_divergence call from now on."""
    compared = []
    kl = measures.kl_divergence

    def counted(p, q, eps=DEFAULT_KL_EPS):
        compared.append((p, q))
        return kl(p, q, eps)

    monkeypatch.setattr(measures, "kl_divergence", counted)
    return compared


def test_kl_memo_runs_kl_divergence_once_per_filter_pair_column_and_grouping(
        toy, monkeypatch):
    """One kl_divergence call per (before row filters, after row filters,
    column, before grouped on it, after grouped on it): a repeated pair,
    equal filters on fresh views, a FILTER that keeps every row and another
    grouping on the same column read the memo; a new pair of row filters
    computes every column, and so do the same filters in another order,
    and a column a view is grouped on computes anew."""
    compared = _counted_kl(monkeypatch)
    root = initial_display(toy)
    width = len(toy.columns)
    drop = FilterPredicate("score", "NEQ", "1")
    narrowed = apply_filter(root, drop)
    max_column_kl(root, narrowed)
    assert len(compared) == width
    max_column_kl(root, narrowed)
    max_column_kl(initial_display(toy), apply_filter(initial_display(toy), drop))
    kept = apply_filter(narrowed, FilterPredicate("color", "NEQ", "purple"))
    max_column_kl(root, kept)
    assert len(compared) == width
    max_column_kl(root, apply_group(narrowed, Grouping("color", "score", "SUM")))
    assert len(compared) == width + 1  # the grouped column
    max_column_kl(root, apply_group(kept, Grouping("color", "note", "COUNT")))
    assert len(compared) == width + 1
    max_column_kl(root, apply_group(narrowed, Grouping("note", "score", "MAX")))
    assert len(compared) == width + 2
    max_column_kl(apply_group(root, Grouping("color", "score", "MIN")),
                  apply_group(narrowed, Grouping("color", "score", "SUM")))
    assert len(compared) == width + 3  # the column both are grouped on
    max_column_kl(narrowed, root)
    assert len(compared) == 2 * width + 3
    blue = FilterPredicate("color", "NEQ", "blue")
    one_way = apply_filter(narrowed, blue)
    other_way = apply_filter(apply_filter(root, blue), drop)
    assert np.array_equal(one_way.rows, other_way.rows)
    max_column_kl(root, one_way)
    max_column_kl(root, other_way)
    assert len(compared) == 4 * width + 3
    plain = {(i, False, False) for i in range(width)}
    assert {pair: set(kls) for pair, kls in toy._kl_memo.items()} == {
        ((), (drop,)): plain | {(0, False, True), (2, False, True),
                                (0, True, True)},
        ((drop,), ()): plain,
        ((), (drop, blue)): plain,
        ((), (blue, drop)): plain,
    }


def test_views_of_one_row_set_differ_by_exactly_zero(toy):
    """A GROUP view and a FILTER that keeps every row show their parent's
    rows: against the parent, in either direction, every column neither
    view is grouped on gives exactly +0.0, and so does the FILTER's
    largest KL."""
    root = initial_display(toy)
    narrowed = apply_filter(root, FilterPredicate("score", "NEQ", "1"))
    for parent in (root, narrowed):
        grouped = apply_group(parent, Grouping("color", "score", "SUM"))
        kept = apply_filter(parent, FilterPredicate("color", "NEQ", "purple"))
        assert grouped._rowset is kept._rowset is parent._rowset
        for view in (grouped, kept):
            for before, after in ((parent, view), (view, parent)):
                kl = max_column_kl(before, after)
                kls = toy._kl_memo[before.row_filters, after.row_filters]
                for idx, col in enumerate(toy.column_names):
                    if not (view is grouped and col == "color"):
                        assert repr(kls[idx, False, False]) == "0.0"
                if view is kept:
                    assert repr(kl) == "0.0"


def test_scoring_runs_kl_divergence_once_per_row_set_pair_and_column(
        synthetic_bundle, monkeypatch):
    """Scoring sessions on one dataset never compares two row sets on one
    column twice: each histogram is keyed by its view's row filters and
    its column, and no (p, q) pair of those keys recurs. Views of one row
    set, and grouped columns, whose histograms depend on the grouping too,
    are left out."""
    dataset, _, _, trajectories = synthetic_bundle
    ds = Dataset(dataset.name, dataset.columns, dataset_rows(dataset))
    built = {}  # id of a histogram -> (histogram, its key or None)
    histogram = measures.column_histogram

    def keyed(display, column):
        hist = histogram(display, column)
        grouped = display.grouping is not None and display.grouping.grp_col == column
        built[id(hist)] = hist, None if grouped else (display.row_filters, column)
        return hist

    monkeypatch.setattr(measures, "column_histogram", keyed)
    compared = _counted_kl(monkeypatch)
    for t in trajectories:
        score_session(ds, t.actions)
    pairs = [(built[id(p)][1], built[id(q)][1]) for p, q in compared]
    plain = [(a, b) for a, b in pairs
             if a is not None and b is not None and a[0] != b[0]]
    assert plain
    assert len(set(plain)) == len(plain)
