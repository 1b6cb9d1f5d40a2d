"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavier end-to-end criteria pin their seeds and reduced budgets; every
tolerance is asserted exactly as stated. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import time
from collections import Counter

import numpy as np

from autoeda import nn, synth
from autoeda.cli import main as cli_main
from autoeda.env import BACK, STOP, ActionSpec, HeadLayout, state_vec_len
from autoeda.evaluation import (View, eda_sim, evaluate_sessions,
                                generate_session, precision, tbleu)
from autoeda.measures import (classify_session, default_measure_specs,
                              diversity, kl_divergence, normalize_session,
                              peculiarity, readability, score_session, sigmoid)
from autoeda.tabular import (ColumnKind, FilterPredicate, Grouping,
                             initial_display)
from autoeda.train import (TrainConfig, action_agreement, bc_pretrain,
                           clipped_surrogate, derive_rng, incoherence_penalty,
                           ppo_clip_target, prepare_expert_steps, train_gail,
                           STREAM_SYNTH, STREAM_TRAJECTORIES,
                           STREAM_SPLIT, STREAM_GENERATE)
from row_engine import dataset_rows


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def synth_bundle(seed, i, *, n_patterns=2, n_edges=5, links=2, rows=1000,
                 n_trajectories=150, group_prob=0.5):
    rng = derive_rng(seed, STREAM_SYNTH, i)
    patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, n_patterns, rng)
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                      cap=2, n_edges=n_edges,
                                      links_per_edge=links)
    dataset = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, rows,
                                  5.0, rng, name=f"ds{i}")
    trajectories = synth.generate_expert_trajectories(
        dataset, patterns, dag, derive_rng(seed, STREAM_TRAJECTORIES, i),
        n_trajectories=n_trajectories, group_prob=group_prob)
    return dataset, trajectories


# ---------------------------------------------------------------------------
# criterion 1: repeat/alternation penalty matches an independent clause
# evaluator on every action-kind history of length <= 6

F_X = ActionSpec("FILTER", filter=FilterPredicate("a", "EQ", "x"))
F_Y = ActionSpec("FILTER", filter=FilterPredicate("a", "EQ", "y"))
G_X = ActionSpec("GROUP", group=Grouping("a", "b", "COUNT"))
ALPHABET = (BACK, STOP, F_X, F_Y, G_X)


def clause_oracle(actions):
    """Literal clause-by-clause evaluation with 1-based indices."""
    t = len(actions)
    a = {i: actions[i - 1] for i in range(1, t + 1)}
    if a[t].kind == "BACK" and t == 1:
        return -1.0
    if a[t].kind != "BACK" and t >= 2 and a[t] == a[t - 1]:
        return -1.0
    hits = []
    if a[t].kind == "BACK":
        for l in range(2, t):
            evens = [t - 2 * k for k in range(l + 1)]
            odds = [t - 2 * k - 1 for k in range(l + 1)]
            if evens[-1] < 1 or odds[-1] < 1:
                continue
            if any(a[i].kind != "BACK" for i in evens):
                continue
            boundary = t - 2 * (l + 1)
            if boundary >= 1 and a[boundary].kind == "BACK":
                continue
            if any(a[i].kind not in ("FILTER", "GROUP") for i in odds):
                continue
            hits.append(l)
    if hits:
        assert len(hits) == 1
        return -float(hits[0])
    return 0.0


def test_criterion_1_penalty_exactness():
    start = time.time()
    assert incoherence_penalty([BACK]) == -1.0
    assert incoherence_penalty([F_X, F_X]) == -1.0
    assert incoherence_penalty([F_X, BACK, G_X, BACK, F_Y, BACK]) == -2.0
    checked = 0
    for length in range(1, 7):
        for history in itertools.product(ALPHABET, repeat=length):
            assert incoherence_penalty(list(history)) == clause_oracle(history), history
            checked += 1
    elapsed = time.time() - start
    report("1 penalty exactness",
           checked == sum(5 ** k for k in range(1, 7)) and elapsed < 1.0,
           f"{checked} histories in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients vs central finite differences on >= 20
# randomized toy networks, 1e-4 relative / 1e-7 absolute

def grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    return bool(np.all(np.abs(analytic - numeric)
                       <= atol + rtol * np.maximum(np.abs(analytic),
                                                   np.abs(numeric))))


def test_criterion_2_gradient_fidelity(fd_gradient):
    start = time.time()
    nets = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        sd = int(rng.integers(3, 8))
        head_sizes = (4, 3, 4, 3, 3)
        policy = nn.PolicyNet(sd, head_sizes, tuple(rng.integers(3, 7, size=2)), rng)
        for w, b in zip(policy.head_weights, policy.head_biases):
            w += rng.normal(scale=0.3, size=w.shape)
            b += rng.normal(scale=0.1, size=b.shape)
        states = rng.normal(size=(2, sd))
        heads = np.stack([rng.integers(0, head_sizes) for _ in range(2)])
        masks = rng.random((2, 5)) < 0.7
        masks[:, 0] = True
        coeffs = rng.normal(size=2)

        def policy_loss():
            logp, _ = policy.logprob(states, heads, masks)
            return float(np.dot(coeffs, logp))

        _, ctx = policy.logprob(states, heads, masks)
        analytic = policy.backward_logprob(ctx, heads, masks, coeffs)
        assert grads_close(analytic, fd_gradient(policy, policy_loss))

        value = nn.ValueNet(sd, (5, 4), rng)
        targets = rng.normal(size=2)

        def value_loss():
            v, _ = value.forward(states)
            return float(np.mean((v - targets) ** 2))

        _, vgrad = value.td_loss_grads(states, targets)
        assert grads_close(vgrad, fd_gradient(value, value_loss))

        disc = nn.DiscriminatorNet(sd, (5, 4), rng)
        for b in disc.net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        labels = (rng.random(2) < 0.5).astype(float)
        while True:  # keep the probe clear of ReLU kinks
            _, cache = disc.net.forward(states)
            margins = [np.min(np.abs(z)) for (_, z, _), act
                       in zip(cache, disc.net.activations) if act == "relu"]
            if min(margins) > 1e-3:
                break
            states = rng.normal(size=(2, sd))

        def disc_loss():
            p, _ = disc.forward(states)
            return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))

        _, dgrad, _ = disc.bce_loss_grads(states, labels)
        assert grads_close(dgrad, fd_gradient(disc, disc_loss))
        nets += 3
    elapsed = time.time() - start
    report("2 gradient fidelity", nets == 60 and elapsed < 30.0,
           f"{nets} networks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: clipping envelope values and surrogate exactness

def test_criterion_3_ppo_clip_exactness():
    ok = (abs(ppo_clip_target(0.2, 1.5) - 1.8) < 1e-12
          and abs(ppo_clip_target(0.2, -2.0) - (-1.6)) < 1e-12)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        ratios = rng.uniform(0.3, 1.7, size=32)
        advs = rng.normal(size=32)
        eps = float(rng.uniform(0.1, 0.3))
        direct = np.mean([
            min(r * a, (1 + eps) * a if a >= 0 else (1 - eps) * a)
            for r, a in zip(ratios, advs)
        ])
        worst = max(worst, abs(clipped_surrogate(ratios, advs, eps) - direct))
    report("3 clipped surrogate exactness", ok and worst < 1e-10,
           f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: measure identities

def test_criterion_4_measure_identities(toy):
    specs = default_measure_specs(toy.row_count)
    d0 = initial_display(toy)
    p = {"a": 0.3, "b": 0.45, "c": 0.25}
    checks = {
        "kl self": kl_divergence(p, dict(p)) == 0.0,
        "diversity repeat": diversity(d0, [d0]) == 0.0,
        "readability equal": readability(d0, d0, specs) == 0.0,
        "peculiarity floor": peculiarity(d0, d0, specs)
                             == sigmoid(0.0, specs.divergence),
    }
    actions = (ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "red")),
               ActionSpec("GROUP", group=Grouping("color", "score", "COUNT")),
               BACK, STOP)
    normalized = normalize_session(score_session(toy, actions))
    for name in ("a_int", "diversity", "coherence", "readability", "peculiarity"):
        series = [s.get(name) for s in normalized]
        checks[f"{name} in range"] = min(series) >= 0.0 and max(series) <= 1.0
    raw = score_session(toy, actions)
    for name in ("a_int", "diversity", "peculiarity"):
        series = [s.get(name) for s in raw]
        if max(series) > min(series):
            norm = [s.get(name) for s in normalize_session(raw)]
            checks[f"{name} max one"] = abs(max(norm) - 1.0) < 1e-9
    report("4 measure identities", all(checks.values()),
           ", ".join(k for k, v in checks.items() if not v) or "all identities hold")


# ---------------------------------------------------------------------------
# criterion 5: metric identities, brute-force TBLEU oracle, threshold
# monotonicity

def brute_force_tbleu(gen_fps, gold_fps_list, n):
    grams = [tuple(gen_fps[i:i + n]) for i in range(len(gen_fps) - n + 1)]
    if not grams:
        return 0.0
    hits = 0
    for gram, count in Counter(grams).items():
        best = 0
        for ref in gold_fps_list:
            best = max(best, sum(1 for i in range(len(ref) - n + 1)
                                 if tuple(ref[i:i + n]) == gram))
        hits += min(count, best)
    c = len(gen_fps)
    r = min((len(ref) for ref in gold_fps_list), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * hits / len(grams)


def _views(symbols):
    out = []
    for s in symbols:
        rng = np.random.default_rng(abs(hash(str(s))) % (2 ** 32))
        out.append(View(str(s), rng.uniform(0, 1, size=5)))
    return out


def test_criterion_5_metric_identities_and_oracles():
    identity = _views("abcdef")
    gold = [identity]
    ok_identity = (precision(identity, gold) == 1.0
                   and all(tbleu(identity, gold, n) == 1.0 for n in (1, 2, 3))
                   and eda_sim(identity, gold) == 1.0)

    rng = np.random.default_rng(3)
    alphabet = list("abcdefgh")
    worst = 0.0
    for _ in range(100):
        gen_syms = [alphabet[i] for i in rng.integers(0, 8, size=rng.integers(1, 10))]
        gold_syms = [[alphabet[i] for i in rng.integers(0, 8, size=rng.integers(1, 10))]
                     for _ in range(int(rng.integers(1, 4)))]
        gen_v = _views(gen_syms)
        gold_v = [_views(g) for g in gold_syms]
        for n in (1, 2, 3):
            worst = max(worst, abs(tbleu(gen_v, gold_v, n)
                                   - brute_force_tbleu(gen_syms, gold_syms, n)))
    ok_oracle = worst < 1e-12

    ok_monotone = True
    for trial in range(30):
        t_rng = np.random.default_rng(100 + trial)
        gen_v = [View(f"g{i}", t_rng.uniform(0, 1, size=6)) for i in range(6)]
        gold_v = [[View(f"h{i}", t_rng.uniform(0, 1, size=6)) for i in range(5)]]
        scores = [eda_sim(gen_v, gold_v, t) for t in np.linspace(0.4, 0.99, 13)]
        ok_monotone &= all(a >= b for a, b in zip(scores, scores[1:]))

    report("5 metric identities and oracles",
           ok_identity and ok_oracle and ok_monotone,
           f"tbleu max dev {worst:.1e}, monotone {ok_monotone}")


# ---------------------------------------------------------------------------
# criterion 6: injected correlations are detectable at 10k rows

def test_criterion_6_correlation_detectability():
    from scipy import stats
    start = time.time()
    schema = (("a", ColumnKind.CATEGORICAL), ("b", ColumnKind.CATEGORICAL))
    # destination base weight 0.2 (>= 0.1); the boost mechanism caps the
    # attainable lift at 1/w, so m=5 gives an expected lift of 5/(1+4w)=2.78
    pats = [
        synth.ColumnPatterns("a", (synth.CategoryPattern("a0"),
                                   synth.CategoryPattern("a1")), (0.5, 0.5)),
        synth.ColumnPatterns("b", (synth.CategoryPattern("b0"),
                                   synth.CategoryPattern("b1")), (0.8, 0.2)),
    ]
    dag = synth.CorrelationDag(("a", "b"), (synth.Correlation("a", "b", ((0, 1),)),))
    ds = synth.populate_rows(schema, pats, dag, 10_000, 5.0, derive_rng(3, 0))
    joint = Counter((r[0], r[1]) for r in dataset_rows(ds))
    n_a0 = joint[("a0", "b0")] + joint[("a0", "b1")]
    ratio = (joint[("a0", "b1")] / n_a0) / (joint[("a1", "b1")]
                                            / (10_000 - n_a0))
    table = [[joint[("a0", "b0")], joint[("a0", "b1")]],
             [joint[("a1", "b0")], joint[("a1", "b1")]]]
    pvalue = stats.chi2_contingency(table).pvalue
    elapsed = time.time() - start
    report("6 correlation detectability",
           ratio >= 2.0 and pvalue < 0.01 and elapsed < 60.0,
           f"lift {ratio:.2f}, chi2 p {pvalue:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: behavioral cloning at the published settings on a
# five-session expert set

def test_criterion_7_bc_sanity():
    start = time.time()
    dataset, trajectories = synth_bundle(11, 1, n_patterns=3, n_edges=3,
                                         links=1, n_trajectories=5)
    cfg = TrainConfig(bc_epochs=100, lr_bc=1e-4, bc_batch=32, seed=11)
    layout = HeadLayout(len(dataset.columns), cfg.term_bins)
    steps = prepare_expert_steps([dataset], trajectories, layout, cfg)
    policy = nn.PolicyNet(state_vec_len(dataset), layout.sizes,
                          cfg.policy_hidden, derive_rng(11, 0))
    history = bc_pretrain(policy, steps, cfg, derive_rng(11, 1))
    agreement = action_agreement(policy, steps)
    elapsed = time.time() - start
    report("7 BC sanity",
           history[-1] < history[0] and agreement >= 0.90 and elapsed < 300,
           f"agreement {agreement:.3f} on {len(steps)} pairs, "
           f"nll {history[0]:.2f}->{history[-1]:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: directional end-to-end reproduction on held-out data

def test_criterion_8_end_to_end_directional():
    start = time.time()
    seed = 6
    bundles = []
    for i in (1, 2, 3):
        dataset, trajectories = synth_bundle(seed, i)
        train, evaluation = synth.split_trajectories(
            trajectories, derive_rng(seed, STREAM_SPLIT, i), 0.8)
        bundles.append((dataset, train, evaluation))
    train_datasets = [bundles[0][0], bundles[1][0]]
    expert = bundles[0][1] + bundles[1][1]
    held_ds, _, held_eval = bundles[2]

    cfg = TrainConfig(total_interactions=20_000, seed=seed)
    full = train_gail(cfg, train_datasets, expert)
    ablated = train_gail(TrainConfig(total_interactions=20_000, seed=seed,
                                     penalty_enabled=False),
                         train_datasets, expert)
    random_policy = nn.PolicyNet(state_vec_len(held_ds), full.layout.sizes,
                                 cfg.policy_hidden, derive_rng(seed, 0))

    def evaluate(policy, n=100):
        rng = derive_rng(seed, STREAM_GENERATE)
        sessions = [generate_session(policy, held_ds, cfg.horizon, rng)
                    for _ in range(n)]
        return evaluate_sessions(held_ds, sessions, held_eval)

    m_full = evaluate(full.policy)
    m_ablated = evaluate(ablated.policy)
    m_random = evaluate(random_policy)
    ok_a = (m_full["tbleu1"] >= 2 * m_random["tbleu1"]
            and m_full["precision"] >= 2 * m_random["precision"]
            and m_full["tbleu1"] > 0 and m_full["precision"] > 0)
    ok_b = m_ablated["eda_sim"] <= 1.1 * m_full["eda_sim"]
    elapsed = time.time() - start
    report("8 end-to-end directional", ok_a and ok_b and elapsed < 1800,
           f"full p={m_full['precision']:.3f}/t1={m_full['tbleu1']:.3f} vs "
           f"random p={m_random['precision']:.3f}/t1={m_random['tbleu1']:.3f}; "
           f"ablated sim {m_ablated['eda_sim']:.3f} vs {m_full['eda_sim']:.3f}; "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: measure-capture reproduction at desk scale

def test_criterion_9_measure_capture():
    start = time.time()
    seed = 6
    group_densities = (0.0, 0.35, 0.7, 1.0)

    def pool(i, per_density=40):
        rng = derive_rng(seed, STREAM_SYNTH, i)
        patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, 2, rng)
        dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                          cap=2, n_edges=5, links_per_edge=2)
        ds = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, 1000,
                                 5.0, rng, name=f"ds{i}")
        trajs = []
        for k, gp in enumerate(group_densities):
            trajs.extend(synth.generate_expert_trajectories(
                ds, patterns, dag, derive_rng(seed, STREAM_TRAJECTORIES, i, k),
                n_trajectories=per_density, group_prob=gp))
        return ds, trajs

    training = [pool(i) for i in range(1, 6)]
    held_ds, _ = pool(7, per_density=5)

    subsets = {"a_int": [], "diversity": [], "readability": []}
    for ds, trajs in training:
        for traj in trajs:
            label = classify_session(
                normalize_session(score_session(ds, traj.actions)), 0.75)
            subsets[label].append(traj)
    sizes = {k: len(v) for k, v in subsets.items()}
    assert all(sizes.values()), f"empty training subset: {sizes}"

    datasets = [ds for ds, _ in training]
    outcomes = {}
    for target, subset in subsets.items():
        cfg = TrainConfig(total_interactions=6000, seed=seed,
                          bc_epochs=300, lr_bc=1e-3)
        result = train_gail(cfg, datasets, subset)
        rng = derive_rng(seed, STREAM_GENERATE, 1)
        labels = Counter()
        for _ in range(100):
            session = generate_session(result.policy, held_ds, cfg.horizon,
                                       rng)
            if not any(a.kind in ("FILTER", "GROUP") for a in session.actions):
                labels["degenerate"] += 1
                continue
            raw = score_session(held_ds, session.actions)
            labels[classify_session(normalize_session(raw), 0.5)] += 1
        outcomes[target] = (labels.most_common(1)[0][0], dict(labels))

    elapsed = time.time() - start
    matches = {k: v[0] for k, v in outcomes.items()}
    detail = "; ".join(f"{k}->{v[0]}" for k, v in outcomes.items())
    report("9 measure capture",
           all(k == v for k, v in matches.items()) and elapsed < 5400,
           f"subsets {sizes}; {detail}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical training runs under one seed

def test_criterion_10_determinism(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "datasets": 1, "rows": 120, "trajectories": 8, "n_edges": 2,
        "n_patterns": 2,
    }))
    assert cli_main(["synth", "--config", str(synth_cfg), "--seed", "5",
                     "--out", str(data_dir)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "total_interactions": 512, "train_interval": 128, "horizon": 6,
        "batch_policy": 8, "batch_disc": 16, "bc_epochs": 3, "bc_batch": 16,
    }))
    outputs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run
        code = cli_main(["train", "--data", str(data_dir), "--datasets", "ds1",
                         "--config", str(train_cfg), "--seed", "9",
                         "--deterministic", "--out", str(out)])
        assert code == 0
        outputs.append((
            (out / "metrics.ndjson").read_bytes(),
            (out / "checkpoint.json").read_bytes(),
            (out / "bc_log.ndjson").read_bytes(),
        ))
    same = outputs[0] == outputs[1]
    report("10 determinism", same,
           f"metrics {len(outputs[0][0])}B, checkpoint {len(outputs[0][1])}B"
           + (" identical" if same else " differ"))
