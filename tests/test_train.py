import contextlib
import json
import math
import os
import re
import signal
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from autoeda import env, evaluation, nn, tabular, train
from autoeda.env import (BACK, HEAD_MASKS, STOP, ActionSpec, EdaEnv, HeadLayout,
                         Trajectory, heads_from_action, replay, state_vec_len,
                         walk)
from autoeda.tabular import Dataset, FilterPredicate, Grouping
from rollout_reference import one_hot, state_from_history
from row_engine import dataset_rows
from autoeda.train import (RolloutCollector, Step, TrainConfig, TrainResult,
                           _advantages, _draw, action_agreement,
                           assemble_mixed_batch, bc_pretrain, clipped_surrogate,
                           derive_rng,
                           imitation_reward, incoherence_penalty,
                           load_checkpoint, ppo_clip_target, ppo_update,
                           prepare_expert_steps, save_checkpoint, train_gail,
                           update_discriminator, value_update)

F_A = ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "red"))
F_B = ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "blue"))
G_A = ActionSpec("GROUP", group=Grouping("color", "score", "COUNT"))


def small_cfg(**kwargs):
    defaults = dict(horizon=6, total_interactions=64, train_interval=32,
                    batch_policy=8, batch_disc=16, bc_epochs=3, bc_batch=8,
                    buffer_capacity=256, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# incoherence penalty

def test_penalty_opening_back():
    assert incoherence_penalty([BACK]) == -1.0


def test_penalty_immediate_repeat():
    assert incoherence_penalty([F_A, F_A]) == -1.0
    assert incoherence_penalty([F_A, F_B]) == 0.0
    assert incoherence_penalty([STOP, STOP]) == -1.0


def test_penalty_alternation_depth_two():
    history = [F_A, BACK, G_A, BACK, F_B, BACK]
    assert incoherence_penalty(history) == -2.0


def test_penalty_alternation_needs_more_than_one():
    assert incoherence_penalty([F_A, BACK]) == 0.0
    assert incoherence_penalty([F_A, BACK, F_B, BACK]) == 0.0
    assert incoherence_penalty([F_A, BACK, G_A, BACK, F_A, BACK, F_B, BACK]) == -3.0


def test_penalty_back_chain_broken_by_back_odd_slot():
    # BACK in an odd slot breaks the FILTER/GROUP interleaving requirement
    assert incoherence_penalty([BACK, BACK, BACK]) == 0.0
    assert incoherence_penalty([F_A, BACK, BACK, BACK, F_B, BACK]) == 0.0


def test_penalty_requires_history():
    with pytest.raises(ValueError):
        incoherence_penalty([])


# ---------------------------------------------------------------------------
# rewards and the clipped objective

def test_imitation_reward_at_half():
    assert imitation_reward(0.5, 0.0) == pytest.approx(math.log(2))
    assert imitation_reward(0.5, -1.0) == pytest.approx(math.log(2) - 1.0)


def test_imitation_reward_limits():
    assert imitation_reward(1e-12, 0.0) == pytest.approx(0.0, abs=1e-9)
    high = imitation_reward(1.0 / (1.0 + math.exp(-nn.LOGIT_CLAMP)), 0.0)
    assert math.isfinite(high)


def test_ppo_clip_target_paper_values():
    assert ppo_clip_target(0.2, 1.5) == pytest.approx(1.8)
    assert ppo_clip_target(0.2, -2.0) == pytest.approx(-1.6)


def test_clipped_surrogate_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ratios = rng.uniform(0.5, 1.5, size=16)
        advs = rng.normal(size=16)
        eps = 0.2
        expected = np.mean([
            min(r * a, (1 + eps) * a if a >= 0 else (1 - eps) * a)
            for r, a in zip(ratios, advs)
        ])
        assert abs(clipped_surrogate(ratios, advs, eps) - expected) < 1e-10


def test_ratio_one_surrogate_is_mean_advantage():
    rng = np.random.default_rng(1)
    advs = rng.normal(size=32)
    assert clipped_surrogate(np.ones(32), advs, 0.2) == \
        pytest.approx(float(advs.mean()), abs=1e-12)


# ---------------------------------------------------------------------------
# buffer

def test_replay_buffer_fifo_capacity():
    buf = deque(maxlen=3)
    for i in range(5):
        buf.append(Step(np.zeros(1), np.zeros(5, dtype=int), np.zeros(1),
                        np.zeros(1), False, 0.0, reward=float(i), logprob=0.0))
    assert len(buf) == 3
    rewards = {s.reward for s in _draw(np.random.default_rng(0), buf, 3)}
    assert rewards == {2.0, 3.0, 4.0}


# ---------------------------------------------------------------------------
# expert preparation and cloning

def test_prepare_expert_steps(toy):
    layout = HeadLayout(3)
    from autoeda.env import Trajectory
    traj = Trajectory("toy", (F_A, G_A, BACK, STOP))
    steps = prepare_expert_steps([toy], [traj], layout, small_cfg())
    assert len(steps) == 4
    assert steps[0].state.shape == (state_vec_len(toy),)
    assert steps[0].penalty == 0.0
    assert steps[3].done


@pytest.mark.parametrize("penalty", [True, False])
def test_expert_penalties_follow_the_penalty_switch(toy, penalty):
    from autoeda.env import Trajectory
    actions = (BACK, F_A, F_A, BACK, STOP)
    steps = prepare_expert_steps([toy], [Trajectory("toy", actions)],
                                 HeadLayout(3), small_cfg(penalty_enabled=penalty))
    want = [incoherence_penalty(actions[:t]) if penalty else 0.0
            for t in range(1, len(actions) + 1)]
    assert [s.penalty for s in steps] == want
    assert min(want) < 0 or not penalty


def test_prepare_expert_rejects_unknown_dataset(toy):
    from autoeda.env import Trajectory
    with pytest.raises(ValueError, match="unknown dataset"):
        prepare_expert_steps([toy], [Trajectory("other", (BACK,))],
                             HeadLayout(3), small_cfg())


def test_bc_overfits_single_pair(toy):
    layout = HeadLayout(3)
    from autoeda.env import Trajectory
    traj = Trajectory("toy", (F_A,))
    steps = prepare_expert_steps([toy], [traj], layout, small_cfg()) * 8
    cfg = small_cfg(lr_bc=0.01, bc_epochs=400)
    policy = nn.PolicyNet(state_vec_len(toy), layout.sizes, (16, 16),
                          derive_rng(0, 0))
    history = bc_pretrain(policy, steps, cfg, derive_rng(0, 1))
    assert history[-1] < history[0]
    logp, _ = policy.logprob(steps[0].state.reshape(1, -1),
                             steps[0].heads.reshape(1, -1),
                             HEAD_MASKS[steps[0].heads[:1]])
    assert math.exp(float(logp[0])) >= 0.95
    assert action_agreement(policy, steps) == 1.0


def reference_action_agreement(policy, expert_steps):
    """`action_agreement` as a loop over steps and their heads."""
    if not expert_steps:
        return 0.0
    states = np.stack([s.state for s in expert_steps])
    probs, _ = policy.forward(states)
    hits = 0
    for i, step in enumerate(expert_steps):
        mask = HEAD_MASKS[step.heads[0]]
        ok = True
        for h in range(len(probs)):
            if mask[h] and int(np.argmax(probs[h][i])) != int(step.heads[h]):
                ok = False
                break
        hits += ok
    return hits / len(expert_steps)


def test_action_agreement_ignores_heads_the_kind_does_not_use(toy):
    """A seeded random policy against expert steps of all four kinds: half
    take the greedy choice in every head their kind uses and random values
    in the rest, half are random. Agreement lies strictly between 0 and 1,
    and equals the per-step, per-head loop's."""
    layout = HeadLayout(3)
    policy = nn.PolicyNet(state_vec_len(toy), layout.sizes, (16, 16),
                          derive_rng(3, 0))
    rng = np.random.default_rng(11)
    states = rng.normal(size=(40, state_vec_len(toy)))
    probs, _ = policy.forward(states)
    greedy = np.stack([p.argmax(axis=1) for p in probs], axis=1)
    steps = []
    for state, best in zip(states, greedy):
        heads = np.array([rng.integers(size) for size in layout.sizes])
        if rng.random() < 0.5:
            used = HEAD_MASKS[best[0]]
            heads[used] = best[used]
        steps.append(Step(state, heads, np.zeros(1), state, False))
    assert {int(s.heads[0]) for s in steps} == {0, 1, 2, 3}
    assert any(not np.array_equal(s.heads, best)
               and (s.heads == best)[HEAD_MASKS[best[0]]].all()
               for s, best in zip(steps, greedy))
    agreement = action_agreement(policy, steps)
    assert 0 < agreement < 1
    assert agreement == reference_action_agreement(policy, steps)
    assert action_agreement(policy, []) == reference_action_agreement(policy, [])


def test_bc_large_l2_shrinks_parameters(toy):
    layout = HeadLayout(3)
    from autoeda.env import Trajectory
    steps = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A))],
                                 layout, small_cfg())
    policy = nn.PolicyNet(state_vec_len(toy), layout.sizes, (8, 8),
                          derive_rng(1, 0))
    cfg = small_cfg(lr_bc=1e-3, bc_epochs=1, l2_coeff=1000.0)
    norms = [float(np.linalg.norm(policy.flat))]
    for i in range(5):
        bc_pretrain(policy, steps, cfg, derive_rng(1, i + 1))
        norms.append(float(np.linalg.norm(policy.flat)))
    assert all(a > b for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# rollouts

def _fresh_nets(dataset, cfg, hidden=(16, 16)):
    layout = HeadLayout(len(dataset.columns), cfg.term_bins)
    rng = derive_rng(cfg.seed, 0)
    policy = nn.PolicyNet(state_vec_len(dataset), layout.sizes, hidden, rng)
    value = nn.ValueNet(state_vec_len(dataset), hidden, rng)
    disc = nn.DiscriminatorNet(state_vec_len(dataset) + layout.action_dim,
                               (8, 8), rng)
    return layout, policy, value, disc


def test_horizon_one_episodes(toy):
    cfg = small_cfg(horizon=1)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    buf = deque(maxlen=64)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(0, 2)) as collector:
        transitions = collector.collect(disc, 10, buf)
    assert all(t.done for t in transitions)
    assert collector.episode_lengths == [1] * 10


def test_no_penalty_rewards_are_pure_imitation(toy):
    cfg = small_cfg(penalty_enabled=False)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    buf = deque(maxlen=64)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(0, 2)) as collector:
        transitions = collector.collect(disc, 30, buf)
    for t in transitions:
        (d,), _ = disc.forward(np.concatenate([t.state, t.action_vec])[None])
        assert t.penalty == 0.0
        assert t.reward == pytest.approx(-math.log(1 - d))


def test_rollouts_deterministic(toy):
    cfg = small_cfg()
    streams = []
    for _ in range(2):
        layout, policy, _, disc = _fresh_nets(toy, cfg)
        buf = deque(maxlen=64)
        with RolloutCollector(policy, [toy], layout, cfg,
                              derive_rng(9, 2)) as collector:
            ts = collector.collect(disc, 25, buf)
        streams.append([(t.reward, tuple(t.heads), t.done) for t in ts])
    assert streams[0] == streams[1]


def recording_steps(monkeypatch):
    """(before, after) episode states of every `EdaEnv.step` from now on."""
    transitions = []
    step = EdaEnv.step

    def recorded(self, state, action):
        after = step(self, state, action)
        transitions.append((state, after))
        return after

    monkeypatch.setattr(EdaEnv, "step", recorded)
    return transitions


def test_collected_states_are_those_of_their_histories(toy, monkeypatch):
    """Each collected step's state and next state equal, bit for bit,
    `state_from_history` of the episode states before and after it, across
    windows that split episodes and episodes that end by STOP or horizon.
    One process steps every lane, so every `EdaEnv.step` is recorded."""
    monkeypatch.setattr(train, "_cpus", lambda: 1)
    transitions = recording_steps(monkeypatch)
    cfg = small_cfg(horizon=5)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(4, 2)) as collector:
        steps = [t for n in (37, 50, 9)
                 for t in collector.collect(disc, n, deque())]
    assert len(steps) == len(transitions) == 96
    assert {int(t.heads[0]) for t in steps} == {0, 1, 2, 3}
    for t, (before, after) in zip(steps, transitions):
        assert t.state.tobytes() == state_from_history(before.history).tobytes()
        assert t.next_state.tobytes() == state_from_history(after.history).tobytes()


def test_replayed_states_and_actions_are_those_of_the_oracles(toy, synthetic_bundle):
    """Each replayed step's state and next state equal `state_from_history`
    of the walk's states, and its action vector the per-head `one_hot` of
    its `heads_from_action`, bit for bit: BACK at the root, a repeated BACK
    and a closing STOP included; an empty session replays to no step."""
    dataset, _, _, trajectories = synthetic_bundle
    sessions = [(dataset, t.actions) for t in trajectories] + [
        (toy, (BACK, ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "red")),
               BACK, BACK, STOP)),
        (toy, ())]
    kinds = set()
    for ds, actions in sessions:
        layout = HeadLayout(len(ds.columns), 7)
        states = walk(ds, actions)
        steps = replay(ds, actions, layout)
        assert len(steps) == len(actions)
        for t, (step, action) in enumerate(zip(steps, actions)):
            assert step.state.tobytes() == \
                state_from_history(states[t].history).tobytes()
            assert step.next_state.tobytes() == \
                state_from_history(states[t + 1].history).tobytes()
            heads = heads_from_action(action, states[t].current, layout)
            assert tuple(step.heads.tolist()) == heads
            assert step.action_vec.tobytes() == one_hot(heads, layout).tobytes()
            kinds.add(action.kind)
    assert kinds == {"GROUP", "FILTER", "BACK", "STOP"}


@pytest.mark.parametrize("sample", [True, False], ids=["sampled", "greedy"])
def test_generated_states_are_those_of_their_histories(toy, monkeypatch, sample):
    """Each state `generate_session` decides in equals `state_from_history`
    of its episode state, bit for bit, and the finished episode's last
    state is not encoded."""
    transitions = recording_steps(monkeypatch)
    decided, encoded = [], []
    decide, encode = evaluation.decide, env.encode_display
    monkeypatch.setattr(evaluation, "decide",
                        lambda policy, svecs, *a: decided.append(svecs[0].copy())
                        or decide(policy, svecs, *a))
    monkeypatch.setattr(env, "encode_display",
                        lambda d, base: encoded.append(d) or encode(d, base))
    cfg = small_cfg()
    _, policy, _, _ = _fresh_nets(toy, cfg)
    policy.flat[...] = derive_rng(8, 0).normal(scale=0.3, size=policy.flat.shape)
    rng = derive_rng(8, 7) if sample else None
    for _ in range(8):
        before = len(transitions)
        evaluation.generate_session(policy, toy, 6, rng)
        assert len(encoded) == len(transitions) == len(decided)
        assert transitions[-1][1].done and transitions[before][0].action_history == ()
    # a state decided after GROUP and one after BACK
    assert {b.action_history[-1].kind for b, _ in transitions
            if b.action_history} >= {"GROUP", "BACK"}
    for svec, (before, _) in zip(decided, transitions):
        assert svec.tobytes() == state_from_history(before.history).tobytes()


def test_a_collect_window_computes_only_what_it_reads(synthetic_dataset,
                                                     monkeypatch):
    """One window at the default lane count on a fresh copy of the
    synthetic table computes no group aggregate, and encodes once per view
    a step appends to its episode's history (GROUP, FILTER and BACK, not
    STOP). One process steps every lane, so every call is counted."""
    monkeypatch.setattr(train, "_cpus", lambda: 1)
    ds = Dataset("fresh", synthetic_dataset.columns, dataset_rows(synthetic_dataset))
    aggregates, encoded = [], []
    monkeypatch.setattr(tabular, "_group_aggregates",
                        lambda *args: aggregates.append(args))
    encode = env.encode_display
    monkeypatch.setattr(env, "encode_display",
                        lambda d, base: encoded.append(d) or encode(d, base))
    cfg = small_cfg(horizon=12)
    layout, policy, _, disc = _fresh_nets(ds, cfg)
    with RolloutCollector(policy, [ds], layout, cfg,
                          derive_rng(3, 2)) as collector:
        steps = collector.collect(disc, 512, deque())
    kinds = [int(t.heads[0]) for t in steps]
    assert kinds.count(0) > 0
    assert aggregates == []
    # and each episode's root, when its lane starts
    starts = train.LANES + len(collector.episode_lengths)
    assert len(encoded) == len(kinds) - kinds.count(3) + starts


def test_a_collect_window_takes_each_decisions_heads_once(toy, monkeypatch):
    """One window calls `action_heads` once per step, and no other code
    path recomputes the head values an action uses. One process steps
    every lane, so every call is counted."""
    monkeypatch.setattr(train, "_cpus", lambda: 1)
    calls = []
    action_heads = env.action_heads
    monkeypatch.setattr(env, "action_heads",
                        lambda h, d: calls.append(h) or action_heads(h, d))
    cfg = small_cfg(horizon=5)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(4, 2)) as collector:
        steps = collector.collect(disc, 50, deque())
    assert len(calls) == len(steps) == 50


# ---------------------------------------------------------------------------
# updates

def test_discriminator_symmetric_batch_zero_gradient(toy):
    cfg = small_cfg()
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    disc.flat[...] = 0.0  # D == 0.5 everywhere
    rng = derive_rng(0, 3)
    x = rng.normal(size=(8, state_vec_len(toy) + layout.action_dim))
    both = np.vstack([x, x])
    labels = np.concatenate([np.zeros(8), np.ones(8)])
    _, grad, _ = disc.bce_loss_grads(both, labels)
    assert np.allclose(grad, 0.0)


def test_discriminator_update_equalizes_batch_sizes(toy):
    cfg = small_cfg(batch_disc=8)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    buf = deque(maxlen=256)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(0, 2)) as collector:
        collector.collect(disc, 40, buf)  # buffer much larger than batch
    from autoeda.env import Trajectory
    expert = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A, BACK))],
                                  layout, cfg)
    opt = nn.Adam(disc.flat, 1e-3)
    loss, acc = update_discriminator(disc, opt, buf, expert, cfg,
                                     derive_rng(0, 4))
    assert math.isfinite(loss) and 0.0 <= acc <= 1.0
    # only 3 expert steps exist, so both halves shrink to 3
    assert opt.t == 1


def test_discriminator_separates_toy_streams(toy):
    """Disjoint state clusters: expert-mean D pulls well above generated-mean
    D within 500 update steps."""
    cfg = small_cfg(batch_disc=32)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    rng = derive_rng(7, 0)
    dim = state_vec_len(toy) + layout.action_dim
    buf = deque(maxlen=256)
    gen_states = rng.normal(loc=-0.5, scale=0.2, size=(64, dim))
    for row in gen_states:
        buf.append(Step(row[:state_vec_len(toy)], np.zeros(5, dtype=int),
                        row[state_vec_len(toy):], row[:state_vec_len(toy)],
                        False, 0.0, reward=0.0, logprob=0.0))
    expert = []
    for row in rng.normal(loc=0.5, scale=0.2, size=(64, dim)):
        expert.append(Step(row[:state_vec_len(toy)], np.zeros(5, dtype=int),
                           row[state_vec_len(toy):], row[:state_vec_len(toy)],
                           False, 0.0))
    opt = nn.Adam(disc.flat, 1e-3)
    for _ in range(500):
        update_discriminator(disc, opt, buf, expert, cfg, rng)
    d_exp = np.mean(disc.forward(np.stack(
        [np.concatenate([e.state, e.action_vec]) for e in expert]))[0])
    d_gen = np.mean(disc.forward(np.stack(
        [np.concatenate([t.state, t.action_vec]) for t in _draw(rng, buf, 64)]))[0])
    assert d_exp - d_gen >= 0.4


def test_mixed_batch_is_exactly_half_and_half(toy):
    cfg = small_cfg(batch_policy=8)
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    buf = deque(maxlen=64)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(5, 2)) as collector:
        collector.collect(disc, 16, buf)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps(
        [toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))], layout, cfg)
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(5, 3))
    assert len(batch["states"]) == 8
    # the expert half is appended last and carries current-policy log-probs
    logp, _ = policy.logprob(batch["states"][4:], batch["heads"][4:],
                             batch["masks"][4:])
    assert np.allclose(np.exp(logp - batch["old_logp"][4:]), 1.0)


def _ppo_batch(toy, cfg):
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    buf = deque(maxlen=256)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(2, 2)) as collector:
        collector.collect(disc, 32, buf)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))],
                                  layout, cfg)
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(2, 3))
    return policy, value, batch


def test_ppo_update_moves_policy_and_reports_surrogate(toy):
    cfg = small_cfg()
    policy, value, batch = _ppo_batch(toy, cfg)
    assert len(batch["states"]) == cfg.batch_policy
    before = policy.flat.copy()
    opt = nn.Adam(policy.flat, 1e-3)
    adv, _ = _advantages(value, batch, cfg)
    stats = ppo_update(policy, opt, batch, adv, cfg)
    assert math.isfinite(stats["surrogate"])
    assert not np.allclose(before, policy.flat)


def test_ppo_update_surrogate_is_clipped_surrogate(toy):
    cfg = small_cfg()
    policy, value, batch = _ppo_batch(toy, cfg)
    # move the policy off the one that logged old_logp, so ratios leave 1
    policy.flat += 0.5 * derive_rng(2, 4).standard_normal(len(policy.flat))
    adv, _ = _advantages(value, batch, cfg)
    logp, _ = policy.logprob(batch["states"], batch["heads"], batch["masks"])
    ratio = np.exp(logp - batch["old_logp"])
    stats = ppo_update(policy, nn.Adam(policy.flat, 1e-3), batch, adv, cfg)
    assert stats["surrogate"] == clipped_surrogate(ratio, adv, cfg.clip_eps)


def test_expert_half_ratio_starts_at_one(toy):
    cfg = small_cfg()
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps(
        [toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))], layout, cfg)
    buf = deque(maxlen=8)  # empty: batch is all expert
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(3, 0))
    logp, _ = policy.logprob(batch["states"], batch["heads"], batch["masks"])
    assert np.allclose(np.exp(logp - batch["old_logp"]), 1.0)


def test_value_update_constant_parameter_closed_form(toy):
    cfg = small_cfg(gamma=0.5)
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    value.flat[...] = 0.0
    value.net.biases[-1][...] = 2.0  # V(s) == 2 for every state
    states = np.ones((4, state_vec_len(toy)))
    batch = {
        "states": states, "next_states": states,
        "rewards": np.array([1.0, 0.0, 2.0, 1.0]),
        "dones": np.array([0.0, 1.0, 0.0, 1.0]),
    }
    b = 2.0
    targets = batch["rewards"] + 0.5 * b * (1 - batch["dones"])
    expected_grad_b = float(np.mean(2 * (b - targets)))
    loss, grad = value.td_loss_grads(states, targets)
    assert grad[-1] == pytest.approx(expected_grad_b)  # the output bias
    assert np.allclose(grad[:-1], 0.0)


def test_value_update_descends_fixed_batch(toy):
    cfg = small_cfg()
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    rng = derive_rng(4, 0)
    batch = {
        "states": rng.normal(size=(16, state_vec_len(toy))),
        "next_states": rng.normal(size=(16, state_vec_len(toy))),
        "rewards": rng.normal(size=16),
        "dones": np.zeros(16),
    }
    opt = nn.Adam(value.flat, 1e-2)
    # each step's targets come from the value net it updates
    losses = [value_update(value, opt, batch, _advantages(value, batch, cfg)[1])
              for _ in range(100)]
    assert losses[-1] < losses[0]


def test_duplicate_action_episode_scores_below_back_variant(toy):
    """With the discriminator frozen at 0.5 the imitation terms cancel and
    the repeat penalty decides the return ordering."""
    layout = HeadLayout(3)
    cfg = small_cfg()
    disc_term = math.log(2)

    def episode_return(actions):
        total = 0.0
        for t in range(1, len(actions) + 1):
            total += imitation_reward(0.5, incoherence_penalty(actions[:t]))
        return total

    with_repeat = episode_return([F_A, F_A])
    with_back = episode_return([F_A, BACK])
    assert with_repeat == pytest.approx(2 * disc_term - 1.0)
    assert with_back == pytest.approx(2 * disc_term)
    assert with_repeat < with_back


# ---------------------------------------------------------------------------
# full loop

def _mini_training(synthetic_bundle, **cfg_kwargs):
    dataset, _, _, trajectories = synthetic_bundle
    cfg = TrainConfig(horizon=6, total_interactions=96, train_interval=48,
                      batch_policy=8, batch_disc=16, bc_epochs=2, bc_batch=16,
                      buffer_capacity=512, seed=5, **cfg_kwargs)
    records = []
    result = train_gail(cfg, [dataset], trajectories[:3],
                        metrics_sink=records.append)
    return cfg, result, records


def test_train_gail_smoke(synthetic_bundle):
    _, result, records = _mini_training(synthetic_bundle)
    assert len(records) == 2
    for record in records:
        assert list(record) == ["interval", "disc_acc", "mean_reward",
                                "mean_penalty", "mean_ep_len"]
        assert all(math.isfinite(v) for v in record.values())
    assert len(result.bc_history) == 2


def test_train_gail_no_penalty_logs_zero(synthetic_bundle):
    _, _, records = _mini_training(synthetic_bundle, penalty_enabled=False)
    assert all(record["mean_penalty"] == 0.0 for record in records)


def test_train_gail_deterministic(synthetic_bundle):
    _, a, a_records = _mini_training(synthetic_bundle)
    _, b, b_records = _mini_training(synthetic_bundle)
    assert json.dumps(a_records) == json.dumps(b_records)
    assert np.array_equal(a.policy.flat, b.policy.flat)


def test_train_gail_bc_only(synthetic_bundle):
    _, result, records = _mini_training(synthetic_bundle, bc_only=True)
    assert records == []
    assert result.bc_history


def test_checkpoint_round_trip(tmp_path, synthetic_bundle):
    cfg, result, _ = _mini_training(synthetic_bundle)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result, cfg)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(loaded.policy.flat, result.policy.flat)
    assert loaded.schema == result.schema
    x = derive_rng(0, 0).normal(size=state_vec_len(synthetic_bundle[0]))
    a, _ = result.policy.forward(x.reshape(1, -1))
    b, _ = loaded.policy.forward(x.reshape(1, -1))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_checkpoint_round_trip_three_columns(tmp_path, toy):
    from autoeda.env import Trajectory
    cfg = small_cfg()
    result = train_gail(cfg, [toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result, cfg)
    loaded, _ = load_checkpoint(path)
    assert loaded.policy.state_dim == state_vec_len(toy)
    for name in ("policy", "value", "discriminator"):
        assert np.array_equal(getattr(loaded, name).flat,
                              getattr(result, name).flat), name


def test_checkpoint_is_one_strict_json_document(tmp_path, toy):
    """The file is the bytes of `json.dumps(payload) + "\n"`; non-finite
    parameters leave it strict JSON, with no NaN or Infinity token, and
    every parameter loads back with the same bits."""
    cfg = small_cfg(policy_hidden=(16, 16), disc_hidden=(8, 8))
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    rng = derive_rng(5, 0)
    for net in (policy, value, disc):
        net.flat[...] = rng.normal(scale=1e3, size=net.flat.shape)
    value.flat[3] = 1e-310
    value.flat[4] = -0.0
    disc.flat[0] = math.inf
    disc.flat[1] = -math.inf
    policy.flat[2] = math.nan
    policy.flat.view(np.uint64)[2] |= 0xABCD  # a NaN payload
    result = TrainResult(policy, value, disc, layout, tuple(toy.columns))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result, cfg)
    payload = {
        "format_version": 6, "config": cfg.to_dict(),
        "schema": [[c, k.value] for c, k in toy.columns],
        "policy": nn.arr_to_json(policy.flat),
        "value": nn.arr_to_json(value.flat),
        "discriminator": nn.arr_to_json(disc.flat),
    }
    assert path.read_text() == json.dumps(payload) + "\n"

    def refuse(token):
        raise AssertionError(f"{token} is not strict JSON")

    assert json.loads(path.read_text(), parse_constant=refuse) == payload
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for name in ("policy", "value", "discriminator"):
        assert np.array_equal(getattr(loaded, name).flat.view(np.uint64),
                              getattr(result, name).flat.view(np.uint64)), name


def test_failed_save_leaves_the_old_checkpoint(tmp_path, toy, monkeypatch):
    """A save that raises after writing part of its file, or after writing
    all of it, leaves the previous checkpoint byte-identical and no partial
    file behind."""
    cfg = small_cfg(policy_hidden=(16, 16), disc_hidden=(8, 8))
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    result = TrainResult(policy, value, disc, layout, tuple(toy.columns))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result, cfg)
    before = path.read_bytes()
    policy.flat[...] = 1.0

    class FullDisk:
        """A file that takes half of what is written, then fails."""

        def __init__(self, file, mode):
            self.fh = open(file, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    for target, fake, error in ((train, ("open", FullDisk), OSError),
                                (train.os, ("replace", interrupted),
                                 KeyboardInterrupt)):
        with monkeypatch.context() as m:
            m.setattr(target, *fake, raising=False)
            with pytest.raises(error):
                save_checkpoint(path, result, cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    save_checkpoint(path, result, cfg)
    assert np.all(load_checkpoint(path)[0].policy.flat == 1.0)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_checkpoint_layout_is_derived_from_schema_and_term_bins(tmp_path, toy):
    """A checkpoint stores neither the layout nor a second seed; loading
    builds the layout from the schema and the config's term bins."""
    cfg = small_cfg(term_bins=7, seed=9, policy_hidden=(16, 16),
                    disc_hidden=(8, 8))
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, TrainResult(policy, value, disc, layout,
                                      tuple(toy.columns)), cfg)
    payload = json.loads(path.read_text())
    assert list(payload) == ["format_version", "config", "schema", "policy",
                             "value", "discriminator"]
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded.layout == HeadLayout(len(payload["schema"]),
                                       loaded_cfg.term_bins) == layout
    assert loaded_cfg.seed == 9


def test_non_finite_policy_stops_adversarial_training(toy, monkeypatch):
    """A policy poisoned in the second interval's update raises before that
    interval reaches the sink; the first interval was logged."""
    from autoeda.env import Trajectory
    calls = []

    def poisoned(policy, *args):
        out = ppo_update(policy, *args)
        calls.append(1)
        if len(calls) == 2:
            policy.flat[...] = math.nan
        return out

    monkeypatch.setattr(train, "ppo_update", poisoned)
    sunk, held = [], {}
    with pytest.raises(FloatingPointError, match="interval 2"):
        train_gail(small_cfg(bc_enabled=False, total_interactions=96), [toy],
                   [Trajectory("toy", (F_A, G_A, BACK, STOP))],
                   metrics_sink=sunk.append,
                   result_callback=lambda r: held.update(result=r))
    assert [r["interval"] for r in sunk] == [1]
    assert np.isnan(held["result"].policy.flat).all()


# ---------------------------------------------------------------------------
# the rollout worker

@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def forked_workers(monkeypatch):
    """Two parts from now on, and the pid of each worker forked."""
    monkeypatch.setattr(train, "_cpus", lambda: 2)
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("poison", [False, True], ids=["returns", "raises"])
def test_train_gail_ends_its_rollout_worker(toy, monkeypatch, poison):
    """Whether adversarial training returns or raises FloatingPointError,
    the worker it forked is gone and reaped when `train_gail` is done."""
    pids = forked_workers(monkeypatch)
    ppo_update = train.ppo_update

    def poisoned(policy, *args):
        out = ppo_update(policy, *args)
        policy.flat[0] = math.nan
        return out

    if poison:
        monkeypatch.setattr(train, "ppo_update", poisoned)
    cfg = small_cfg(bc_enabled=False)
    expert = [Trajectory("toy", (F_A, G_A, BACK, STOP))]
    with deadline(60):
        if poison:
            with pytest.raises(FloatingPointError):
                train_gail(cfg, [toy], expert)
        else:
            train_gail(cfg, [toy], expert)
    assert len(pids) == 1
    assert_reaped(pids[0])


def test_a_killed_worker_ends_the_window_with_an_error(toy, monkeypatch):
    """A worker killed mid-window makes `collect` raise, not hang; closing
    the collector reaps it."""
    pids = forked_workers(monkeypatch)
    cfg = small_cfg()
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    collector = RolloutCollector(policy, [toy], layout, cfg, derive_rng(0, 2))
    decide = train.decide  # the worker, forked already, keeps its own

    def killing(*args):
        os.kill(pids[0], signal.SIGKILL)
        return decide(*args)

    monkeypatch.setattr(train, "decide", killing)
    with collector, deadline(30):
        with pytest.raises(RuntimeError, match="rollout worker"):
            collector.collect(disc, 512, deque())
    assert_reaped(pids[0])


def test_load_checkpoint_refuses_old_version_and_wrong_length(tmp_path, toy):
    cfg = small_cfg(policy_hidden=(16, 16), disc_hidden=(8, 8))
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, TrainResult(policy, value, disc, layout,
                                      tuple(toy.columns)), cfg)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.discriminator.flat, disc.flat)
    good = json.loads(path.read_text())
    assert "optimizers" not in good
    short = nn.arr_to_json(value.flat[:-1])
    for payload in (*(dict(good, format_version=v) for v in range(1, 6)),
                    dict(good, value=short),
                    dict(good, policy=nn.arr_to_json(np.array([0.5])))):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_readme_config_block_lists_every_field_and_default():
    """The `train` block under the README's Configuration heading holds
    `name value` pairs, each value JSON, two or more spaces apart."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Configuration", 1)[1].split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        for pair in re.split(r" {2,}", line.strip()):
            name, value = pair.split(" ", 1)
            assert name not in documented, name
            documented[name] = json.loads(value)
    assert documented == TrainConfig().to_dict()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_eps=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(bc_enabled=False, bc_only=True)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"no_such_key": 1})
    cfg = TrainConfig.from_dict({"policy_hidden": [10, 10]})
    assert cfg.policy_hidden == (10, 10)
