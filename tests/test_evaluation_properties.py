"""Property tests: `eda_sim`, which tests each distinct pair of encodings
once per call, and `evaluate_sessions`, which scores each distinct session
once, against the per-cell and per-session loops in
`evaluation_reference.py`, compared bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evaluation_reference as ref
from test_engine_properties import sessions_with_repeats, tables
from autoeda import evaluation
from autoeda.env import ActionSpec, Trajectory
from autoeda.evaluation import (View, display_similarity, eda_sim,
                                evaluate_sessions, views_from_actions)

# entries whose differences put similarities at and near common thresholds;
# 0.0 and -0.0 are one value with two byte patterns
ENTRIES = [0.0, -0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1 / 3]
FINGERPRINTS = ["f0", "f1", "f2"]
BACK, STOP = ActionSpec("BACK"), ActionSpec("STOP")


@st.composite
def view_cases(draw):
    """(generated views, gold sessions) over a few encodings of one length,
    each view pairing an encoding with a fingerprint drawn on its own, so
    that one fingerprint can carry two encodings and one encoding two
    fingerprints."""
    dim = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=dim,
                                  max_size=dim), min_size=1, max_size=4))
    views = st.builds(View, st.sampled_from(FINGERPRINTS),
                      st.sampled_from(vecs).map(np.array))
    gen = draw(st.lists(views, max_size=6))
    gold = draw(st.lists(st.lists(views, max_size=6), min_size=1, max_size=3))
    return gen, gold


def occurring_thresholds(gen, gold):
    """Every similarity of a (generated, gold) pair that is a valid
    threshold, and three common ones, in increasing order."""
    sims = {display_similarity(a.vec, b.vec) for a in gen
            for session in gold for b in session}
    return sorted(t for t in sims | {0.5, 0.9, 1.0} if 0 < t <= 1)


def v(fingerprint, *entries):
    return View(fingerprint, np.array(entries))


# one encoding under two fingerprints; one fingerprint over two encodings,
# the second of which sits exactly at the first's threshold
@example(([v("a", 0.1, 0.2), v("b", 0.1, 0.2)], [[v("c", 0.1, 0.2)]]))
@example(([v("a", 0.0, 0.0), v("a", 0.5, 0.5)],
          [[v("a", 0.0, 0.0), v("a", 0.5, 0.5)], [v("b", 1.0, 1.0)]]))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(view_cases())
def test_eda_sim_matches_reference(case):
    """At each threshold in turn, among them each similarity that occurs,
    the score equals that of the program that measured every cell."""
    gen, gold = case
    for threshold in occurring_thresholds(gen, gold):
        assert eda_sim(gen, gold, threshold) == \
            ref.eda_sim(gen, gold, threshold), threshold


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(view_cases())
def test_eda_sim_measures_each_distinct_pair_once(case):
    """One `display_similarity` call per distinct (generated, gold) pair of
    encoding bytes, at every call."""
    gen, gold = case
    pairs = {(a.vec.tobytes(), b.vec.tobytes()) for a in gen
             for session in gold for b in session}
    calls = []

    def counted(a, b):
        calls.append((a.tobytes(), b.tobytes()))
        return display_similarity(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "display_similarity", counted)
        for threshold in (0.5, 0.9, 0.5):
            calls.clear()
            eda_sim(gen, gold, threshold)
            assert sorted(calls) == sorted(pairs), threshold


def outcome(fn):
    """("ok", value) or ("error", message) of a call that may raise
    ValueError."""
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def evaluation_cases(draw):
    """(dataset, gold sessions, generated sessions, threshold): generated
    sessions repeat one another and the gold ones, some take no FILTER or
    GROUP step, and the threshold is most often a similarity that occurs."""
    ds = draw(tables())
    gold = draw(st.lists(sessions_with_repeats(ds), min_size=1, max_size=3))
    fresh = draw(st.lists(sessions_with_repeats(ds), max_size=3))
    no_view = [[BACK], [STOP], [BACK, BACK, STOP]]
    generated = draw(st.lists(st.sampled_from(gold + fresh + no_view),
                              min_size=1, max_size=6))
    gold, generated = ([Trajectory(ds.name, tuple(s)) for s in group]
                       for group in (gold, generated))
    views = [views_from_actions(ds, t.actions) for t in generated + gold]
    thresholds = occurring_thresholds(
        [w for vs in views[:len(generated)] for w in vs], views[len(generated):])
    return ds, gold, generated, draw(st.sampled_from(thresholds))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(evaluation_cases())
def test_evaluate_sessions_matches_reference(case):
    """The mean metrics equal those of the loop that scored every session,
    repeats included."""
    ds, gold, generated, threshold = case
    assert outcome(lambda: evaluate_sessions(ds, generated, gold, threshold)) == \
        outcome(lambda: ref.evaluate_sessions(ds, generated, gold, threshold))


def test_evaluate_sessions_walks_each_distinct_session_once(synthetic_bundle,
                                                            monkeypatch):
    dataset, _, _, trajectories = synthetic_bundle
    gold, (first, second) = trajectories[:3], trajectories[3:5]
    generated = [first, second, first, first, second, first]
    walked = []

    def counted(ds, actions):
        walked.append(actions)
        return views_from_actions(ds, actions)

    monkeypatch.setattr(evaluation, "views_from_actions", counted)
    metrics = evaluate_sessions(dataset, generated, gold)
    assert walked == [t.actions for t in gold + [first, second]]
    assert metrics == ref.evaluate_sessions(dataset, generated, gold)
