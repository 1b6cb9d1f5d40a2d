import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from autoeda.env import (BACK, STOP, ActionSpec, EdaEnv, HeadLayout,
                         Trajectory, action_from_heads, action_from_json,
                         action_to_json, encode_action, encode_display,
                         heads_from_action, load_trajectories, replay,
                         save_trajectories, state_vec_len, walk_displays)
from autoeda.tabular import (ColumnKind, Dataset, FilterPredicate, Grouping,
                             apply_filter, apply_group, display_fingerprint,
                             initial_display)


def FILTER(col, op, term):
    return ActionSpec("FILTER", filter=FilterPredicate(col, op, term))


def GROUP(grp, agg, func):
    return ActionSpec("GROUP", group=Grouping(grp, agg, func))


# ---------------------------------------------------------------------------
# display encoding

def test_encode_initial_display_roles_and_globals(toy):
    vec = encode_display(initial_display(toy), toy)
    assert vec.shape == (4 * 3 + 3,)
    assert all(vec[4 * i + 3] == 0.0 for i in range(3))  # role flags
    assert tuple(vec[-3:]) == (0.0, 0.0, 0.0)


def test_encode_single_group_globals(toy):
    one = apply_filter(initial_display(toy), FilterPredicate("color", "EQ", "red"))
    d = apply_group(one, Grouping("color", "score", "COUNT"))
    vec = encode_display(d, toy)
    n = toy.row_count
    assert vec[-3] == pytest.approx(1 / n)
    assert vec[-2] == pytest.approx(one.row_count / n)
    assert vec[-1] == pytest.approx(0.0)


def test_encode_matches_hand_oracle(toy):
    """Entropy, distinct and null features recomputed independently."""
    d = apply_filter(initial_display(toy), FilterPredicate("score", "NEQ", "2"))
    vec = encode_display(d, toy)
    n = toy.row_count
    for i in range(3):
        cells = [r[i] for r in d.rows]
        counts = Counter(c for c in cells if c is not None)
        total = sum(counts.values())
        entropy = -sum((c / total) * math.log2(c / total) for c in counts.values())
        base_distinct = len({r[i] for r in toy.rows if r[i] is not None})
        expected_entropy = min(1.0, entropy / math.log2(max(2, base_distinct)))
        assert vec[4 * i] == pytest.approx(expected_entropy)
        assert vec[4 * i + 1] == pytest.approx(len(counts) / n)
        assert vec[4 * i + 2] == pytest.approx(sum(c is None for c in cells) / n)


def test_encode_role_flags(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "SUM"))
    vec = encode_display(d, toy)
    assert vec[4 * 0 + 3] == 0.5  # grouped column
    assert vec[4 * 1 + 3] == 1.0  # aggregated column
    assert vec[4 * 2 + 3] == 0.0


def test_encode_empty_display_zero_except_roles(toy):
    empty = apply_filter(initial_display(toy), FilterPredicate("color", "EQ", "x"))
    grouped = apply_group(empty, Grouping("color", "score", "SUM"))
    vec = encode_display(grouped, toy)
    mask = np.ones(len(vec), dtype=bool)
    mask[[3, 7, 11]] = False
    assert np.all(vec[mask] == 0.0)
    assert vec[3] == 0.5 and vec[7] == 1.0


def test_encodings_bounded(synthetic_bundle):
    dataset, _, _, trajectories = synthetic_bundle
    for traj in trajectories[:3]:
        steps, history = walk_displays(dataset, traj.actions)
        for d in history:
            vec = encode_display(d, dataset)
            assert np.all(np.isfinite(vec))
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


# ---------------------------------------------------------------------------
# state windows

def test_state_window_padding(toy):
    env = EdaEnv(toy)
    s0 = env.reset()
    block = len(encode_display(s0.current, toy))
    vec = env.encode_state(s0)
    assert vec.shape == (3 * block,) == (state_vec_len(toy),)
    assert np.all(vec[:2 * block] == 0.0)
    assert np.allclose(vec[2 * block:], encode_display(s0.current, toy))

    s1 = env.step(s0, FILTER("color", "EQ", "red"))
    vec1 = env.encode_state(s1)
    assert np.all(vec1[:block] == 0.0)
    assert np.allclose(vec1[block:2 * block], encode_display(s0.current, toy))
    assert np.allclose(vec1[2 * block:], encode_display(s1.current, toy))


def test_state_window_after_back_reflects_stack_tops(toy):
    env = EdaEnv(toy)
    s = env.reset()
    d0 = s.current
    s = env.step(s, FILTER("color", "EQ", "red"))
    d1 = s.current
    s = env.step(s, BACK)
    assert [display_fingerprint(d) for d in s.history] == \
        [display_fingerprint(d) for d in (d0, d1, d0)]
    block = len(encode_display(d0, toy))
    vec = env.encode_state(s)
    assert np.allclose(vec[:block], encode_display(d0, toy))
    assert np.allclose(vec[block:2 * block], encode_display(d1, toy))
    assert np.allclose(vec[2 * block:], encode_display(d0, toy))


# ---------------------------------------------------------------------------
# stepping

def test_back_at_root_is_recorded_noop(toy):
    env = EdaEnv(toy)
    s = env.step(env.reset(), BACK)
    assert len(s.display_stack) == 1
    assert s.action_history == (BACK,)
    assert s.step == 1 and not s.done


def test_filter_then_back_restores_root(toy):
    env = EdaEnv(toy)
    s = env.step(env.reset(), FILTER("color", "EQ", "red"))
    s = env.step(s, BACK)
    assert display_fingerprint(s.current) == \
        display_fingerprint(initial_display(toy))


def test_scripted_stack_depth_trace(toy):
    """Hand-simulated depth trace for a twelve-action session."""
    env = EdaEnv(toy, horizon=12)
    script = [
        (GROUP("color", "score", "COUNT"), 2),
        (BACK, 1),
        (GROUP("note", "score", "COUNT"), 2),
        (FILTER("score", "NEQ", "3"), 3),
        (BACK, 2),
        (BACK, 1),
        (BACK, 1),  # at root: no-op
        (FILTER("color", "EQ", "red"), 2),
        (FILTER("score", "EQ", "5"), 3),
        (GROUP("color", "score", "MEAN"), 4),
        (BACK, 3),
        (STOP, 3),
    ]
    s = env.reset()
    for action, depth in script:
        s = env.step(s, action)
        assert len(s.display_stack) == depth
    assert s.done


def test_horizon_forces_done(toy):
    env = EdaEnv(toy, horizon=2)
    s = env.step(env.reset(), BACK)
    assert not s.done
    s = env.step(s, BACK)
    assert s.done
    with pytest.raises(ValueError, match="finished"):
        env.step(s, BACK)


def test_step_is_pure_and_deterministic(toy):
    env = EdaEnv(toy)
    s0 = env.reset()
    a = GROUP("color", "score", "COUNT")
    s1, s2 = env.step(s0, a), env.step(s0, a)
    assert display_fingerprint(s1.current) == display_fingerprint(s2.current)
    assert s0.display_stack == (s0.current,)


def test_repeated_back_returns_to_root(toy):
    env = EdaEnv(toy, horizon=50)
    s = env.reset()
    pushes = [FILTER("color", "NEQ", "red"), GROUP("note", "score", "COUNT"),
              FILTER("score", "NEQ", "3")]
    for a in pushes:
        s = env.step(s, a)
    for _ in pushes:
        s = env.step(s, BACK)
    assert display_fingerprint(s.current) == \
        display_fingerprint(initial_display(toy))


def test_stop_ends_episode(toy):
    env = EdaEnv(toy)
    s = env.step(env.reset(), STOP)
    assert s.done and len(s.history) == 1


# ---------------------------------------------------------------------------
# heads <-> actions

def test_kind_stop_ignores_other_heads(toy):
    layout = HeadLayout(3)
    a = action_from_heads((3, 2, 4, 4, 19), initial_display(toy), toy, layout)
    assert a == STOP


def test_filter_mode_selection(toy):
    layout = HeadLayout(3)
    d = initial_display(toy)
    a = action_from_heads((1, 0, 0, 0, 0), d, toy, layout)
    assert a == FILTER("color", "EQ", "red")  # red is the mode (4 of 9)


def test_bin_clamps_to_least_frequent(toy):
    layout = HeadLayout(3, term_bins=20)
    d = initial_display(toy)
    ranked = d.ranked_values(0)
    a = action_from_heads((1, 0, 0, 0, 19), d, toy, layout)
    assert a.filter.term == ranked[-1]


def test_frequency_rank_order(toy):
    # color counts: red 4, blue 3, green 2 -> ranks 0,1,2
    d = initial_display(toy)
    assert d.ranked_values(0) == ("red", "blue", "green")
    layout = HeadLayout(3)
    for b, expected in enumerate(("red", "blue", "green")):
        a = action_from_heads((1, 0, 0, 0, b), d, toy, layout)
        assert a.filter.term == expected


def test_empty_column_falls_back_to_base_mode(toy):
    layout = HeadLayout(3)
    empty = apply_filter(initial_display(toy),
                         FilterPredicate("color", "EQ", "nothing"))
    a = action_from_heads((1, 0, 0, 0, 5), empty, toy, layout)
    assert a.filter.term == "red"


def test_group_reconstruction_forces_valid_agg(toy):
    layout = HeadLayout(3)
    d = initial_display(toy)
    # grouping the numeric column: aggregate falls to the first other column,
    # which is categorical, so SUM degrades to COUNT
    a = action_from_heads((0, 1, 0, 0, 0), d, toy, layout)
    assert a.group.grp_col == "score"
    assert a.group.agg_func == "COUNT"
    # grouping a categorical column keeps the numeric aggregate
    a = action_from_heads((0, 0, 0, 0, 0), d, toy, layout)
    assert a.group == Grouping("color", "score", "SUM")


def test_encode_action_back_one_hot(toy):
    layout = HeadLayout(3)
    d = initial_display(toy)
    vec = encode_action(heads_from_action(BACK, d, toy, layout), layout)
    assert vec.shape == (layout.action_dim,)
    assert vec.sum() == 1.0 and vec[2] == 1.0


def test_encode_action_group_blocks(toy):
    layout = HeadLayout(3)
    d = initial_display(toy)
    action = GROUP("score", "color", "COUNT")
    vec = encode_action(heads_from_action(action, d, toy, layout), layout)
    k, c, g, o, b = layout.sizes
    assert vec[0] == 1.0                      # kind block
    assert vec[k + 1] == 1.0                  # column block: score
    assert vec[k + c + 1] == 1.0              # agg block: COUNT
    assert np.all(vec[k + c + g:] == 0.0)     # filter blocks untouched
    assert vec.sum() == 3.0


def test_head_round_trip_exhaustive():
    """Every head combination on a small schema reproduces itself."""
    rows = [["a", 1.0, "ax"], ["a", 2.0, "by"], ["b", 2.0, "ax"],
            ["b", 3.0, "cz"], ["c", 2.0, "by"]]
    ds = Dataset("mini", [("cat", ColumnKind.CATEGORICAL),
                          ("num", ColumnKind.NUMERIC),
                          ("txt", ColumnKind.TEXT)], rows)
    layout = HeadLayout(3, term_bins=5)
    d = initial_display(ds)
    for heads in itertools.product(*(range(s) for s in layout.sizes)):
        action = action_from_heads(heads, d, ds, layout)
        back = heads_from_action(action, d, ds, layout)
        again = action_from_heads(back, d, ds, layout)
        assert again == action
        # argmax of the encoded blocks equals the canonical heads
        vec = encode_action(back, layout)
        offset = 0
        for h, size in enumerate(layout.sizes):
            block = vec[offset:offset + size]
            if block.any():
                assert int(np.argmax(block)) == back[h]
            offset += size


def test_substring_term_maps_to_matching_value_bin(toy):
    layout = HeadLayout(3, term_bins=20)
    d = initial_display(toy)
    heads = heads_from_action(FILTER("note", "CONTAINS", "alpha"), d, toy, layout)
    ranked = d.ranked_values(2)
    assert ranked[heads[4]].find("alpha") >= 0


# ---------------------------------------------------------------------------
# trajectories

def test_replay_records(toy):
    actions = (FILTER("color", "EQ", "red"), GROUP("color", "score", "COUNT"),
               BACK, STOP)
    records, final = replay(toy, actions)
    assert [r.t for r in records] == [1, 2, 3, 4]
    assert final.done
    assert records[0].state.shape == (state_vec_len(toy),)
    assert np.allclose(records[1].state, records[0].next_state)
    assert records[-1].done


def test_trajectory_json_round_trip(tmp_path, toy):
    actions = (FILTER("score", "EQ", "5"), GROUP("color", "score", "COUNT"),
               BACK, STOP)
    traj = Trajectory("toy", actions)
    path = tmp_path / "sessions.json"
    save_trajectories(path, toy, [traj])
    loaded = load_trajectories(path)
    assert loaded == [traj]
    payload = json.loads(path.read_text())
    step = payload["sessions"][0][0]
    assert list(step) == ["step", "action", "fingerprint"]
    assert step["action"] == {"kind": "FILTER", "column": "score",
                              "op": "EQ", "term": "5"}


def test_action_json_field_order():
    g = GROUP("a", "b", "MEAN")
    assert list(action_to_json(g)) == ["kind", "grp_col", "agg_col", "agg_func"]
    assert action_from_json(action_to_json(g)) == g
    assert action_from_json(action_to_json(BACK)) == BACK


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec("FILTER")
    with pytest.raises(ValueError):
        ActionSpec("BACK", filter=FilterPredicate("a", "EQ", "x"))
    with pytest.raises(ValueError):
        ActionSpec("JUMP")
