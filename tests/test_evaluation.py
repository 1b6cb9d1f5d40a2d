import math
from collections import Counter

import numpy as np
import pytest

from autoeda import nn
from autoeda.env import ActionSpec, BACK, STOP, HeadLayout, state_vec_len
from autoeda.evaluation import (METRIC_COLUMNS, View, display_similarity,
                                eda_sim, evaluate_sessions, generate_session,
                                precision, tbleu, views_from_actions)
from autoeda.tabular import FilterPredicate, Grouping
from autoeda.train import derive_rng


def mk_views(symbols, dim=4, spread=1.0):
    """Views with synthetic fingerprints; same symbol -> same vector."""
    out = []
    for s in symbols:
        rng = np.random.default_rng(abs(hash(s)) % (2 ** 32))
        out.append(View(str(s), rng.uniform(0, spread, size=dim)))
    return out


def FILTER(col, op, term):
    return ActionSpec("FILTER", filter=FilterPredicate(col, op, term))


def GROUP(grp, agg, func):
    return ActionSpec("GROUP", group=Grouping(grp, agg, func))


# ---------------------------------------------------------------------------
# view extraction

def test_views_skip_back_and_stop(toy):
    actions = (FILTER("color", "EQ", "red"), BACK,
               GROUP("color", "score", "COUNT"), STOP)
    views = views_from_actions(toy, actions)
    assert len(views) == 2


def test_views_dedupe_consecutive(toy):
    actions = (FILTER("color", "EQ", "red"), FILTER("color", "EQ", "red"))
    assert len(views_from_actions(toy, actions)) == 2
    assert len(views_from_actions(toy, actions, dedupe_consecutive=True)) == 1


# ---------------------------------------------------------------------------
# precision

def test_precision_identity():
    gold = [mk_views("abcde")]
    assert precision(mk_views("abcde"), gold) == 1.0


def test_precision_disjoint():
    assert precision(mk_views("xyz"), [mk_views("abc")]) == 0.0


def test_precision_half():
    gold = [mk_views("ab"), mk_views("cd")]
    assert precision(mk_views("acxy"), gold) == 0.5


def test_precision_counts_multiplicity():
    assert precision(mk_views("aaab"), [mk_views("a")]) == 0.75


def test_precision_validation():
    with pytest.raises(ValueError):
        precision([], [mk_views("a")])
    with pytest.raises(ValueError):
        precision(mk_views("a"), [])


# ---------------------------------------------------------------------------
# TBLEU

def oracle_tbleu(gen_fps, gold_fps_list, n):
    """Independent clipped n-gram implementation."""
    grams = [tuple(gen_fps[i:i + n]) for i in range(len(gen_fps) - n + 1)]
    if not grams:
        return 0.0
    hits = 0
    for gram, count in Counter(grams).items():
        best = 0
        for ref in gold_fps_list:
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            best = max(best, sum(1 for rg in ref_grams if rg == gram))
        hits += min(count, best)
    p = hits / len(grams)
    c = len(gen_fps)
    r = min((len(ref) for ref in gold_fps_list),
            key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * p


def test_tbleu_identity():
    gold = [mk_views("abcde")]
    for n in (1, 2, 3):
        assert tbleu(mk_views("abcde"), gold, n) == 1.0


def test_tbleu_reversed_session():
    gold = [mk_views("abcde")]
    rev = mk_views("edcba")
    assert tbleu(rev, gold, 1) == 1.0
    assert tbleu(rev, gold, 2) == 0.0


def test_tbleu_short_session_is_zero():
    gold = [mk_views("abc")]
    assert tbleu(mk_views("a"), gold, 2) == 0.0
    assert tbleu(mk_views("ab"), gold, 3) == 0.0


def test_tbleu_clipping_repeated_views():
    gold = [mk_views("ab")]
    # four a's clip to the single gold occurrence
    assert tbleu(mk_views("aaaa"), gold, 1) == pytest.approx(
        0.25 * math.exp(1 - 2 / 4) if False else 0.25)


def test_tbleu_brevity_penalty():
    gold = [mk_views("abcd")]
    short = mk_views("ab")
    assert tbleu(short, gold, 1) == pytest.approx(math.exp(1 - 4 / 2))


def test_tbleu_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(6)
    alphabet = list("abcdef")
    for _ in range(100):
        gen_syms = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
        gold_syms = [[alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
                     for _ in range(int(rng.integers(1, 4)))]
        gen = mk_views(gen_syms)
        gold = [mk_views(g) for g in gold_syms]
        for n in (1, 2, 3):
            expected = oracle_tbleu(gen_syms, gold_syms, n)
            assert abs(tbleu(gen, gold, n) - expected) < 1e-12


def test_tbleu_gold_permutation_invariance():
    rng = np.random.default_rng(7)
    gen = mk_views("abcabc")
    gold = [mk_views("abcd"), mk_views("cab"), mk_views("bb")]
    for n in (1, 2, 3):
        base = tbleu(gen, gold, n)
        assert tbleu(gen, gold[::-1], n) == base
    assert precision(gen, gold) == precision(gold=gold[::-1], gen=gen)


def test_tbleu_order_monotone_on_distinct_views():
    """With all-distinct generated views and no brevity penalty,
    lower orders never score below higher orders."""
    rng = np.random.default_rng(8)
    alphabet = list("abcdefgh")
    for _ in range(50):
        size = int(rng.integers(3, 9))
        gen_syms = list(rng.choice(alphabet, size=size, replace=False))
        gold_syms = [list(rng.choice(alphabet, size=size, replace=False))
                     for _ in range(2)]
        gen = mk_views(gen_syms)
        gold = [mk_views(g) for g in gold_syms]
        p1, p2, p3 = (tbleu(gen, gold, n) for n in (1, 2, 3))
        assert p1 >= p2 >= p3


# ---------------------------------------------------------------------------
# display similarity and EDA-Sim

def test_similarity_identity():
    v = np.array([0.1, 0.9, 0.5])
    assert display_similarity(v, v) == 1.0


def test_similarity_extremes():
    zero, one = np.zeros(6), np.ones(6)
    assert display_similarity(zero, one) == pytest.approx(0.0)


def test_similarity_hand_normalized():
    a = np.array([0.2, 0.4, 0.6, 0.8])
    b = np.array([0.4, 0.4, 0.1, 0.8])
    expected = 1.0 - math.sqrt(0.2 ** 2 + 0.5 ** 2) / math.sqrt(4)
    assert display_similarity(a, b) == pytest.approx(expected)


def test_similarity_length_mismatch():
    with pytest.raises(ValueError):
        display_similarity(np.zeros(3), np.zeros(4))


def test_eda_sim_identity():
    gold = [mk_views("abcde")]
    assert eda_sim(mk_views("abcde"), gold) == 1.0


def test_eda_sim_all_below_threshold():
    gen = [View("x", np.zeros(4))]
    gold = [[View("y", np.ones(4))]]
    assert eda_sim(gen, gold, threshold=0.9) == 0.0


def test_eda_sim_matches_independent_alignment_oracle():
    """Block-diagonal similarity fixture versus a from-scratch dynamic
    program (also what a greedy earliest-match scan would produce here)."""
    base = [np.full(4, v) for v in (0.1, 0.3, 0.5, 0.7, 0.9)]
    gen = [View(f"g{i}", b + 0.01) for i, b in enumerate(base)]
    gold_a = [View(f"a{i}", b) for i, b in enumerate(base[:3])]
    gold_b = [View(f"b{i}", b) for i, b in enumerate(base)]
    tau = 0.97

    def dp_optimal(gen_v, gold_v):
        n, m = len(gen_v), len(gold_v)
        table = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                hit = display_similarity(gen_v[i - 1].vec, gold_v[j - 1].vec) >= tau
                table[i][j] = max(table[i - 1][j], table[i][j - 1],
                                  table[i - 1][j - 1] + (1 if hit else 0))
        return table[n][m]

    expected = max(
        dp_optimal(gen, gold_a) / max(len(gen), len(gold_a)),
        dp_optimal(gen, gold_b) / max(len(gen), len(gold_b)),
    )
    assert eda_sim(gen, [gold_a, gold_b], tau) == pytest.approx(expected)
    assert eda_sim(gen, [gold_a, gold_b], tau) == 1.0


def test_eda_sim_monotone_in_threshold():
    rng = np.random.default_rng(15)
    for _ in range(25):
        gen = [View(f"g{i}", rng.uniform(0, 1, size=6)) for i in range(6)]
        gold = [[View(f"h{i}", rng.uniform(0, 1, size=6)) for i in range(5)]]
        scores = [eda_sim(gen, gold, t)
                  for t in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_eda_sim_validation():
    with pytest.raises(ValueError):
        eda_sim(mk_views("a"), [mk_views("a")], threshold=0.0)
    with pytest.raises(ValueError):
        eda_sim(mk_views("a"), [])


# ---------------------------------------------------------------------------
# session generation and reports

def test_generate_session_greedy_deterministic(synthetic_dataset):
    layout = HeadLayout(len(synthetic_dataset.columns))
    policy = nn.PolicyNet(state_vec_len(synthetic_dataset), layout.sizes,
                          (16, 16), derive_rng(0, 0))
    a = generate_session(policy, synthetic_dataset, horizon=8)
    b = generate_session(policy, synthetic_dataset, horizon=8)
    assert a == b
    assert len(a.actions) <= 8


def test_generate_session_sample_mode_needs_rng(synthetic_dataset):
    layout = HeadLayout(len(synthetic_dataset.columns))
    policy = nn.PolicyNet(state_vec_len(synthetic_dataset), layout.sizes,
                          (16, 16), derive_rng(0, 0))
    traj = generate_session(policy, synthetic_dataset, rng=derive_rng(0, 1))
    assert traj.dataset == synthetic_dataset.name


def test_generated_sessions_replay(synthetic_dataset):
    from autoeda.env import walk_displays
    layout = HeadLayout(len(synthetic_dataset.columns))
    policy = nn.PolicyNet(state_vec_len(synthetic_dataset), layout.sizes,
                          (16, 16), derive_rng(1, 0))
    rng = derive_rng(1, 1)
    for _ in range(5):
        traj = generate_session(policy, synthetic_dataset, rng=rng)
        walk_displays(synthetic_dataset, traj.actions)  # raises on error


def test_evaluate_sessions_identity_scores_one(synthetic_bundle):
    dataset, _, _, trajectories = synthetic_bundle
    gold = trajectories[:3]
    metrics = evaluate_sessions(dataset, [gold[0]], gold)
    for column in METRIC_COLUMNS:
        assert metrics[column] == pytest.approx(1.0), column
