import gc
import math
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import synth_reference as ref
from row_engine import dataset_rows
from autoeda import synth
from autoeda.env import walk_displays
from autoeda.measures import score_session
from autoeda.tabular import (ColumnKind, Dataset, display_fingerprint,
                             initial_display)
from autoeda.train import derive_rng

SCHEMA2 = (("a", ColumnKind.CATEGORICAL), ("b", ColumnKind.CATEGORICAL))


def two_column_bundle(dst_weights=(0.8, 0.2), m=5.0, rows=10_000, seed=3):
    """Hand-built two-column instance with a single a0 -> b1 link."""
    pats = [
        synth.ColumnPatterns("a", (synth.CategoryPattern("a0"),
                                   synth.CategoryPattern("a1")), (0.5, 0.5)),
        synth.ColumnPatterns("b", (synth.CategoryPattern("b0"),
                                   synth.CategoryPattern("b1")), dst_weights),
    ]
    dag = synth.CorrelationDag(("a", "b"), (synth.Correlation("a", "b", ((0, 1),)),))
    ds = synth.populate_rows(SCHEMA2, pats, dag, rows, m, derive_rng(seed, 0))
    return pats, dag, ds


def conditional_ratio(ds, src_value="a0", dst_value="b1"):
    joint = Counter((r[0], r[1]) for r in dataset_rows(ds))
    n_src = sum(v for (a, _), v in joint.items() if a == src_value)
    n_other = ds.row_count - n_src
    p_hit = joint[(src_value, dst_value)] / n_src
    p_other = sum(v for (a, b), v in joint.items()
                  if a != src_value and b == dst_value) / n_other
    return p_hit / p_other


# ---------------------------------------------------------------------------
# patterns

def test_patterns_deterministic():
    a = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(5, 0))
    b = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(5, 0))
    assert a == b


def test_patterns_single_pattern_weight():
    cps = synth.generate_patterns(SCHEMA2, 1, derive_rng(0, 0))
    assert all(cp.weights == (1.0,) for cp in cps)


def test_patterns_weights_sum_to_one():
    for seed in range(100):
        cps = synth.generate_patterns(synth.DEFAULT_SCHEMA, 4, derive_rng(seed, 0))
        for cp in cps:
            assert abs(sum(cp.weights) - 1.0) <= 1e-9
            assert all(w >= 0 for w in cp.weights)


def test_patterns_shapes_per_kind():
    cps = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(1, 0))
    by_col = {cp.column: cp for cp in cps}
    assert by_col["c1"].patterns[0].value == "cat_c1_0"
    for p in by_col["n1"].patterns:
        assert 0 <= p.mu <= 100 and 1 <= p.sigma <= 10
    for p in by_col["t1"].patterns:
        assert 3 <= len(p.substring) <= 6
        assert p.substring.islower()
        assert p.position in synth.TEXT_POSITIONS


# ---------------------------------------------------------------------------
# correlations

def test_correlations_single_column_schema():
    schema = (("only", ColumnKind.CATEGORICAL),)
    pats = synth.generate_patterns(schema, 2, derive_rng(0, 0))
    dag = synth.generate_correlations(schema, pats, derive_rng(0, 1))
    assert dag.edges == ()


def test_correlations_are_topologically_ordered():
    for seed in range(50):
        pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(seed, 0))
        dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                          derive_rng(seed, 1), n_edges=5)
        pos = {c: i for i, c in enumerate(dag.columns)}
        assert len(dag.edges) >= 1
        for e in dag.edges:
            assert pos[e.src_col] < pos[e.dst_col]


def test_correlations_cap_bounds_degree():
    for seed in range(100):
        pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(seed, 0))
        dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                          derive_rng(seed, 1), cap=1, n_edges=8)
        in_degree = Counter(e.dst_col for e in dag.edges)
        assert all(v <= 1 for v in in_degree.values())


def test_correlation_links_are_valid():
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(2, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(2, 1), links_per_edge=2)
    by_col = {cp.column: cp for cp in pats}
    for e in dag.edges:
        assert len(e.links) == len(set(e.links)) >= 1
        for si, di in e.links:
            assert 0 <= si < len(by_col[e.src_col].patterns)
            assert 0 <= di < len(by_col[e.dst_col].patterns)


# ---------------------------------------------------------------------------
# row population

def test_populate_shape_and_determinism():
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(7, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats, derive_rng(7, 1))
    a = synth.populate_rows(synth.DEFAULT_SCHEMA, pats, dag, 1000, 5.0,
                            derive_rng(7, 2))
    b = synth.populate_rows(synth.DEFAULT_SCHEMA, pats, dag, 1000, 5.0,
                            derive_rng(7, 2))
    assert cells(a) == cells(b)
    assert a.row_count == 1000 and len(a.columns) == 8


def test_populate_text_cells_follow_patterns():
    schema = (("t", ColumnKind.TEXT),)
    for position in synth.TEXT_POSITIONS:
        pats = [synth.ColumnPatterns("t", (synth.TextPattern("xyz", position),),
                                     (1.0,))]
        dag = synth.CorrelationDag(("t",), ())
        ds = synth.populate_rows(schema, pats, dag, 50, 5.0, derive_rng(0, 0))
        for (cell,) in dataset_rows(ds):
            assert len(cell) == synth.TEXT_CELL_LEN
            if position == "START":
                assert cell.startswith("xyz")
            elif position == "END":
                assert cell.endswith("xyz")
            else:
                assert "xyz" in cell[1:-1]


def test_populate_near_one_multiplier_is_independent():
    """With m -> 1 the injected link vanishes (chi-squared cannot reject)."""
    from scipy import stats
    _, _, ds = two_column_bundle(dst_weights=(0.5, 0.5), m=1.0 + 1e-9)
    joint = Counter((r[0], r[1]) for r in dataset_rows(ds))
    table = [[joint[("a0", "b0")], joint[("a0", "b1")]],
             [joint[("a1", "b0")], joint[("a1", "b1")]]]
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_populate_link_lift_matches_theory():
    """Empirical conditional lift tracks m / (1 + (m-1) * w)."""
    for w in (0.1, 0.2, 0.3):
        _, _, ds = two_column_bundle(dst_weights=(1 - w, w))
        expected = 5.0 / (1.0 + 4.0 * w)
        assert conditional_ratio(ds) == pytest.approx(expected, rel=0.15)


def test_populate_rejects_bad_args():
    pats, dag, _ = two_column_bundle(rows=10)
    with pytest.raises(ValueError):
        synth.populate_rows(SCHEMA2, pats, dag, 0, 5.0, derive_rng(0, 0))
    no_edges = synth.CorrelationDag(dag.columns, ())
    for m in (1.0, 0.5, math.inf, math.nan):
        for graph in (dag, no_edges):  # whether or not a link ever fires
            with pytest.raises(ValueError):
                synth.populate_rows(SCHEMA2, pats, graph, 10, m, derive_rng(0, 0))


@pytest.mark.parametrize("case", ["overflow", "sum_overflow", "negative"])
def test_populate_checks_probabilities_as_choice_does(case):
    """Weights that rng.choice refused are refused: two firing links scale
    a weight by m * m, past the float range (probabilities not finite), or
    two such weights whose sum overflows (probabilities summing to 0); and a
    negative weight that slipped past ColumnPatterns."""
    schema = tuple((c, ColumnKind.CATEGORICAL) for c in "abc")
    pats = [synth.ColumnPatterns(c, (synth.CategoryPattern(f"{c}0"),), (1.0,))
            for c in "ab"]
    dst = (synth.CategoryPattern("c0"), synth.CategoryPattern("c1"))
    links, m = ((0, 1),), 1e200
    if case == "sum_overflow":
        links, m = ((0, 0), (0, 1)), 1.5e154
    if case == "negative":
        m = 5.0
        pats.append(SimpleNamespace(column="c", patterns=dst, weights=(1.5, -0.5)))
    else:
        pats.append(synth.ColumnPatterns("c", dst, (0.5, 0.5)))
    dag = synth.CorrelationDag(("a", "b", "c"), (
        synth.Correlation("a", "c", links), synth.Correlation("b", "c", links)))
    for populate in (synth.populate_rows, ref.populate_rows):
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            populate(schema, pats, dag, 5, m, derive_rng(0, 0))


# ---------------------------------------------------------------------------
# sampler against the per-cell rng.choice reference

def cells(dataset):
    """Every dictionary entry by repr, so that 0.0 and -0.0 differ, and
    every code."""
    return ([list(map(repr, values.tolist())) for values in dataset.dictionaries],
            dataset.codes.tolist())


def assert_same_draws(schema, patterns, dag, n_rows, seed, m=5.0):
    """Fast and reference sampler, from equal generators, give the same
    cells and leave the generators in the same state."""
    fast_rng, ref_rng = derive_rng(seed, 2), derive_rng(seed, 2)
    fast = synth.populate_rows(schema, patterns, dag, n_rows, m, fast_rng)
    slow = ref.populate_rows(schema, patterns, dag, n_rows, m, ref_rng)
    assert cells(fast) == cells(slow)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_populate_matches_reference_default_schema(seed):
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(seed, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(seed, 1))
    assert_same_draws(synth.DEFAULT_SCHEMA, pats, dag, 400, seed)


@pytest.mark.parametrize("n_patterns", [1, 5])
def test_populate_matches_reference_pattern_counts(n_patterns):
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, n_patterns,
                                   derive_rng(4, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(4, 1), n_edges=4)
    assert_same_draws(synth.DEFAULT_SCHEMA, pats, dag, 300, 4)


def test_populate_matches_reference_two_incoming_edges():
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(9, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(9, 1), cap=3, n_edges=8,
                                      links_per_edge=2)
    in_degree = Counter(e.dst_col for e in dag.edges)
    assert max(in_degree.values()) >= 2
    assert all(len(e.links) == 2 for e in dag.edges)
    assert_same_draws(synth.DEFAULT_SCHEMA, pats, dag, 400, 9)
    # by hand: d has two incoming edges whose links can fire together
    schema = (("a", ColumnKind.CATEGORICAL), ("b", ColumnKind.NUMERIC),
              ("c", ColumnKind.TEXT), ("d", ColumnKind.CATEGORICAL))
    pats = synth.generate_patterns(schema, 3, derive_rng(9, 3))
    dag = synth.CorrelationDag(("a", "c", "b", "d"), (
        synth.Correlation("a", "d", ((0, 1), (2, 0))),
        synth.Correlation("c", "b", ((0, 0), (1, 2))),
        synth.Correlation("b", "d", ((0, 2), (1, 1)))))
    assert_same_draws(schema, pats, dag, 400, 9)


@pytest.mark.parametrize("position", synth.TEXT_POSITIONS)
def test_populate_matches_reference_text_pads(position):
    """Substrings of length 1, 10, 11 and 12 leave pads of 11, 2, 1 and 0."""
    schema = (("t", ColumnKind.TEXT),)
    substrings = ("q", "abcdefghij", "abcdefghijk", "abcdefghijkl")
    pats = [synth.ColumnPatterns(
        "t", tuple(synth.TextPattern(s, position) for s in substrings),
        (0.25,) * 4)]
    dag = synth.CorrelationDag(("t",), ())
    assert_same_draws(schema, pats, dag, 400, 5)
    ds = synth.populate_rows(schema, pats, dag, 400, 5.0, derive_rng(5, 2))
    assert {len(cell) for (cell,) in dataset_rows(ds)} == {synth.TEXT_CELL_LEN}
    assert "abcdefghijkl" in {cell for (cell,) in dataset_rows(ds)}


# PCG64, the generator behind derive_rng, steps its 128-bit state by
# state * _PCG_MULT + inc (inc any odd number) and outputs
# rotr(hi ^ lo, state >> 122) of the new state; rng.random() keeps the top
# 53 bits of that output.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_INC = 87136372517582989555478159403783844777


def generator_drawing(u: float) -> np.random.Generator:
    """A PCG64 generator whose next rng.random() is exactly `u`, a
    multiple of 2**-53 in [0, 1)."""
    hi = 12345  # top six bits clear: the output is not rotated
    new_state = (hi << 64) | (hi ^ (int(u * 2.0 ** 53) << 11))
    prev = ((new_state - _PCG_INC) * pow(_PCG_MULT, -1, 1 << 128)) % (1 << 128)
    state = {"bit_generator": "PCG64", "state": {"state": prev, "inc": _PCG_INC},
             "has_uint32": 0, "uinteger": 0}
    probe, rng = np.random.default_rng(0), np.random.default_rng(0)
    probe.bit_generator.state = rng.bit_generator.state = state
    assert probe.random() == u  # the model of PCG64 above holds
    return rng


@pytest.mark.parametrize("weights", [(0.5, 0.25, 0.25), (0.0, 1.0),
                                     (0.25, 0.0, 0.75), (0.1,) * 10])
def test_draws_match_choice_at_cdf_boundaries(weights):
    """Uniform draws that land exactly on a CDF step, at 0, or just below 1
    pick what rng.choice picks: a zero-weight pattern is never drawn, and
    (0.1,) * 10, whose summed shares stop at 1 - 2**-53, still gives its
    last pattern to the largest draw."""
    schema = (("c", ColumnKind.CATEGORICAL),)
    pats = [synth.ColumnPatterns("c", tuple(synth.CategoryPattern(f"v{i}")
                                            for i in range(len(weights))),
                                 weights)]
    dag = synth.CorrelationDag(("c",), ())
    w = np.asarray(weights)
    steps = (w / w.sum()).cumsum()
    draws = {0.0, 1.0 - 2.0 ** -53}
    draws.update(u for u in steps.tolist()
                 if u < 1.0 and u * 2.0 ** 53 == int(u * 2.0 ** 53))
    for u in sorted(draws):
        fast = synth.populate_rows(schema, pats, dag, 1, 5.0, generator_drawing(u))
        slow = ref.populate_rows(schema, pats, dag, 1, 5.0, generator_drawing(u))
        assert cells(fast) == cells(slow), u


def nearest_realized_value(dataset, column, target):
    """The value at `synth.nearest_realized_code`."""
    code = synth.nearest_realized_code(dataset, column, target)
    return dataset.dictionaries[dataset.column_index(column)][code]


def test_nearest_realized_value(synthetic_dataset):
    idx = synthetic_dataset.column_index("n1")
    values = [r[idx] for r in dataset_rows(synthetic_dataset) if r[idx] is not None]
    target = 50.0
    got = nearest_realized_value(synthetic_dataset, "n1", target)
    assert abs(got - target) == min(abs(v - target) for v in values)
    for target in np.linspace(-10, 110, 241).tolist():
        assert (nearest_realized_value(synthetic_dataset, "n1", target)
                == ref.nearest_realized_value(synthetic_dataset, "n1", target))


def test_nearest_realized_value_ties_and_single_value():
    ds = Dataset("d", [("x", ColumnKind.NUMERIC), ("one", ColumnKind.NUMERIC),
                       ("none", ColumnKind.NUMERIC)],
                 [[5.0, 7.0, None], [1.0, None, None], [None, 7.0, None],
                  [3.0, 7.0, None], [3.0, 7.0, None]])
    # 2 and 4 lie halfway between two values: the smaller one wins
    for target, want in ((2.0, 1.0), (4.0, 3.0), (3.0, 3.0), (-50.0, 1.0),
                         (50.0, 5.0), (4.5, 5.0)):
        for nearest in (nearest_realized_value, ref.nearest_realized_value):
            assert nearest(ds, "x", target) == want, (target, nearest)
    for target in (-1.0, 7.0, 1e9):
        assert nearest_realized_value(ds, "one", target) == 7.0
        assert ref.nearest_realized_value(ds, "one", target) == 7.0
    for nearest in (nearest_realized_value, ref.nearest_realized_value):
        with pytest.raises(ValueError):
            nearest(ds, "none", 0.0)


# ---------------------------------------------------------------------------
# expert trajectories

def test_single_edge_trajectory_shape():
    pats, dag, ds = two_column_bundle(rows=200)
    trajs = synth.generate_expert_trajectories(ds, pats, dag, derive_rng(1, 0),
                                               n_trajectories=5)
    for traj in trajs:
        kinds = [a.kind for a in traj.actions]
        assert kinds[0] == "FILTER"
        assert kinds[1] in ("FILTER", "GROUP")
        assert kinds[2:] == ["BACK", "BACK", "STOP"]


def test_chain_back_count_balances_pushes():
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(21, 0))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(21, 1), n_edges=3)
    ds = synth.populate_rows(synth.DEFAULT_SCHEMA, pats, dag, 300, 5.0,
                             derive_rng(21, 2))
    trajs = synth.generate_expert_trajectories(ds, pats, dag, derive_rng(21, 3),
                                               n_trajectories=4)
    for traj in trajs:
        kinds = [a.kind for a in traj.actions]
        assert kinds.count("BACK") == kinds.count("FILTER") + kinds.count("GROUP")
        assert kinds[-1] == "STOP"


def test_trajectories_replay_and_return_to_root(synthetic_bundle):
    dataset, _, _, trajectories = synthetic_bundle
    d0_fp = display_fingerprint(initial_display(dataset))
    for traj in trajectories:
        steps = walk_displays(dataset, traj.actions)
        # display before the final STOP is the initial one
        prev, action, cur = steps[-1]
        assert action.kind == "STOP"
        assert display_fingerprint(prev) == d0_fp


def test_trajectory_golden_counts_and_split():
    pats = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, derive_rng(11, 4, 1))
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, pats,
                                      derive_rng(11, 4, 1), cap=2, n_edges=3)
    ds = synth.populate_rows(synth.DEFAULT_SCHEMA, pats, dag, 1000, 5.0,
                             derive_rng(11, 4, 1))
    trajs = synth.generate_expert_trajectories(ds, pats, dag, derive_rng(11, 5, 1),
                                               n_trajectories=20)
    assert [(e.src_col, e.dst_col) for e in dag.edges] == \
        [("c3", "t1"), ("t2", "c3"), ("c1", "t1")]
    assert len(trajs) == 20
    assert tuple(len(t.actions) for t in trajs) == (13,) * 20
    train, evaluation = synth.split_trajectories(trajs, derive_rng(11, 6, 1), 0.8)
    assert (len(train), len(evaluation)) == (16, 4)
    # split is a partition of the originals
    assert sorted(map(id, train + evaluation)) == sorted(map(id, trajs))


def test_trajectories_deterministic(synthetic_bundle):
    dataset, patterns, dag, trajectories = synthetic_bundle
    again = synth.generate_expert_trajectories(dataset, patterns, dag,
                                               derive_rng(11, 5, 1),
                                               n_trajectories=8)
    assert again == trajectories


def test_dataset_is_freed_by_refcount_after_sessions():
    """Generating and scoring sessions leaves no reference cycle that keeps
    the dataset (and with it its KL memo entry) alive."""
    gc.disable()
    try:
        rng = derive_rng(5, 0)
        patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, 3, rng)
        dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                          cap=2, n_edges=3)
        ds = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, 200, 5.0, rng)
        for t in synth.generate_expert_trajectories(ds, patterns, dag, rng,
                                                    n_trajectories=3):
            score_session(ds, t.actions)
        ref = weakref.ref(ds)
        del ds, t
        assert ref() is None
    finally:
        gc.enable()


def test_trajectories_require_edges():
    pats = synth.generate_patterns(SCHEMA2, 2, derive_rng(0, 0))
    empty = synth.CorrelationDag(("a", "b"), ())
    ds = synth.populate_rows(SCHEMA2, pats, empty, 10, 5.0, derive_rng(0, 1))
    with pytest.raises(ValueError):
        synth.generate_expert_trajectories(ds, pats, empty, derive_rng(0, 2))


def test_manifest_is_json_ready(synthetic_bundle):
    import json
    dataset, patterns, dag, _ = synthetic_bundle
    manifest = synth.generation_manifest(synth.DEFAULT_SCHEMA, patterns, dag,
                                         seed=11, n_rows=1000, m=5.0,
                                         n_trajectories=8)
    text = json.dumps(manifest)
    assert json.loads(text)["dag"]["columns"] == list(dag.columns)
