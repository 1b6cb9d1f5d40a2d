import gc
import weakref
from collections import Counter

import pytest

from autoeda import synth
from autoeda.env import walk_displays
from autoeda.measures import score_session
from autoeda.tabular import ColumnKind, display_fingerprint, initial_display
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
    joint = Counter((r[0], r[1]) for r in ds.rows)
    n_src = sum(v for (a, _), v in joint.items() if a == src_value)
    n_other = len(ds.rows) - n_src
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
    assert a.rows == b.rows
    assert a.row_count == 1000 and len(a.columns) == 8


def test_populate_text_cells_follow_patterns():
    schema = (("t", ColumnKind.TEXT),)
    for position in synth.TEXT_POSITIONS:
        pats = [synth.ColumnPatterns("t", (synth.TextPattern("xyz", position),),
                                     (1.0,))]
        dag = synth.CorrelationDag(("t",), ())
        ds = synth.populate_rows(schema, pats, dag, 50, 5.0, derive_rng(0, 0))
        for (cell,) in ds.rows:
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
    joint = Counter((r[0], r[1]) for r in ds.rows)
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
    with pytest.raises(ValueError):
        synth.populate_rows(SCHEMA2, pats, dag, 10, 1.0, derive_rng(0, 0))


def test_nearest_realized_value(synthetic_dataset):
    idx = synthetic_dataset.column_index("n1")
    values = [r[idx] for r in synthetic_dataset.rows if r[idx] is not None]
    target = 50.0
    got = synth.nearest_realized_value(synthetic_dataset, "n1", target)
    assert abs(got - target) == min(abs(v - target) for v in values)


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
        steps, _ = walk_displays(dataset, traj.actions)
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
