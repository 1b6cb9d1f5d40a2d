"""The rollout code against the loops it replaced, kept in
`rollout_reference.py`. With one lane, every collected step, episode length,
generated session, sampled batch and rng state must be the same bit for
bit; with the default lanes, each step must agree with a batch-1 forward,
and a collector whose forked worker steps half of the lanes must collect
what one process does, bit for bit."""

from collections import deque

import numpy as np
import pytest

import rollout_reference as ref
from heads_reference import head_views
from autoeda import nn, train
from autoeda.env import (BACK, HEAD_MASKS, STOP, ActionSpec, EdaEnv,
                         HeadLayout, Trajectory, replay)
from autoeda.evaluation import generate_session
from autoeda.tabular import Dataset, FilterPredicate, Grouping
from autoeda.train import (RolloutCollector, TrainConfig, assemble_mixed_batch,
                           derive_rng, imitation_reward, prepare_expert_steps,
                           update_discriminator)

LANES = train.LANES  # read before any test patches it
STEP_FIELDS = ("state", "heads", "action_vec", "reward", "penalty",
               "next_state", "done", "logprob")
F_A = ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "red"))
G_A = ActionSpec("GROUP", group=Grouping("color", "score", "COUNT"))


@pytest.fixture
def pair(toy):
    """The toy table and a second one with its schema and other rows."""
    rows = [["blue", 4.0, "theta ten"], ["red", None, "alpha eleven"],
            ["green", 1.0, None], ["blue", 4.0, "iota twelve"],
            [None, 2.0, "kappa thirteen"], ["red", 7.0, "alpha fourteen"]]
    return [toy, Dataset("other", toy.columns, rows)]


@pytest.fixture(autouse=True)
def one_lane(monkeypatch):
    """The reference steps one episode at a time."""
    monkeypatch.setattr(train, "LANES", 1)


def cfg_for(**kwargs):
    defaults = dict(horizon=6, batch_policy=12, batch_disc=16,
                    buffer_capacity=48, seed=4)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def nets(layout, seed):
    """Policy and discriminator with moved heads, so the softmax is generic
    and the greedy choice is not a tie."""
    rng = derive_rng(seed, 0)
    policy = nn.PolicyNet(layout.state_dim, layout.sizes, (16, 16), rng)
    disc = nn.DiscriminatorNet(layout.state_dim + layout.action_dim, (8, 8), rng)
    head_rng = derive_rng(seed, 9)
    for w, _ in head_views(policy):
        w += head_rng.normal(scale=1.5, size=w.shape)
    return policy, disc


def assert_steps_equal(steps, ref_steps):
    assert len(steps) == len(ref_steps)
    for t, (step, ref_step) in enumerate(zip(steps, ref_steps)):
        for name in STEP_FIELDS:
            got, want = getattr(step, name), getattr(ref_step, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, (t, name)
                assert np.array_equal(got, want), (t, name)
            else:
                assert type(got) is type(want) and got == want, (t, name)


def collect_both(datasets, cfg, windows):
    """The same windows through the new and the reference collector; the
    buffers, collectors and rngs that result."""
    layout = HeadLayout(len(datasets[0].columns), cfg.term_bins)
    policy, disc = nets(layout, cfg.seed)
    rng, ref_rng = derive_rng(cfg.seed, 2), derive_rng(cfg.seed, 2)
    reference = ref.RolloutCollector(datasets, layout, cfg, ref_rng)
    buffer, ref_buffer = deque(maxlen=cfg.buffer_capacity), \
        ref.ReplayBuffer(cfg.buffer_capacity)
    with RolloutCollector(policy, datasets, layout, cfg, rng) as collector:
        for n in windows:
            assert_steps_equal(collector.collect(disc, n, buffer),
                               reference.collect(policy, disc, n, ref_buffer))
            assert collector.episode_lengths == reference.episode_lengths
    assert_steps_equal(list(buffer), list(ref_buffer._items))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return layout, policy, disc, buffer, ref_buffer, collector


@pytest.mark.parametrize("penalty", [True, False])
@pytest.mark.parametrize("n_datasets", [1, 2])
def test_windows_that_split_episodes_match_reference(pair, penalty, n_datasets):
    cfg = cfg_for(penalty_enabled=penalty)
    *_, collector = collect_both(pair[:n_datasets], cfg, (7, 25, 64))
    lengths = collector.episode_lengths
    # the last window ends mid-episode; every episode ran to STOP or horizon
    assert sum(lengths) < 96 and max(lengths) <= cfg.horizon
    assert len(set(lengths)) > 1


def test_horizon_one_matches_reference(pair):
    *_, collector = collect_both(pair, cfg_for(horizon=1), (7, 25))
    assert collector.episode_lengths == [1] * 32


def test_head_masks_match_reference_masks(pair, synthetic_bundle):
    """HEAD_MASKS of a step's kind head is the mask the reference builds
    from the action's kind, on every collected and every replayed step."""
    _, _, _, buffer, ref_buffer, _ = collect_both(pair, cfg_for(), (7, 25, 64))
    got = HEAD_MASKS[np.stack([step.heads for step in buffer])[:, 0]]
    want = np.stack([t.mask for t in ref_buffer._items])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    dataset, _, _, trajectories = synthetic_bundle
    layout = HeadLayout(len(dataset.columns))
    kinds = set()
    for traj in trajectories:
        steps = replay(dataset, traj.actions, layout)
        heads = np.stack([step.heads for step in steps])
        assert np.array_equal(HEAD_MASKS[heads[:, 0]],
                              np.stack([ref.head_mask(a.kind)
                                        for a in traj.actions]))
        kinds.update(a.kind for a in traj.actions)
    assert kinds == {"GROUP", "FILTER", "BACK", "STOP"}


@pytest.mark.parametrize("penalty", [True, False])
def test_batches_drawn_from_the_deque_match_reference(pair, penalty):
    cfg = cfg_for(penalty_enabled=penalty)
    layout, policy, disc, buffer, ref_buffer, _ = collect_both(pair, cfg, (7, 25, 64))
    expert = prepare_expert_steps(
        pair, [Trajectory("toy", (F_A, G_A, BACK, STOP)),
               Trajectory("other", (G_A, BACK, F_A))], layout, cfg)
    rng, ref_rng = derive_rng(cfg.seed, 3), derive_rng(cfg.seed, 3)
    for _ in range(3):
        batch = assemble_mixed_batch(buffer, expert, policy, disc, cfg, rng)
        want = ref.assemble_mixed_batch(ref_buffer, expert, policy, disc, cfg,
                                        ref_rng)
        assert batch.keys() == want.keys()
        for key in want:
            assert batch[key].dtype == want[key].dtype, key
            assert np.array_equal(batch[key], want[key]), key
    ref_disc = nn.DiscriminatorNet(layout.state_dim + layout.action_dim, (8, 8))
    ref_disc.flat[...] = disc.flat
    opt, ref_opt = nn.Adam(disc.flat, 1e-2), nn.Adam(ref_disc.flat, 1e-2)
    for _ in range(3):
        assert update_discriminator(disc, opt, buffer, expert, cfg, rng) == \
            ref.update_discriminator(ref_disc, ref_opt, ref_buffer, expert, cfg,
                                     ref_rng)
    assert np.array_equal(disc.flat, ref_disc.flat)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_empty_buffer_batch_matches_reference(pair):
    cfg = cfg_for()
    layout = HeadLayout(3, cfg.term_bins)
    policy, disc = nets(layout, cfg.seed)
    expert = prepare_expert_steps(
        pair, [Trajectory("toy", (F_A, G_A, BACK, STOP))], layout, cfg)
    batch = assemble_mixed_batch(deque(), expert, policy, disc, cfg,
                                 derive_rng(0, 3))
    want = ref.assemble_mixed_batch(ref.ReplayBuffer(8), expert, policy, disc,
                                    cfg, derive_rng(0, 3))
    for key in want:
        assert np.array_equal(batch[key], want[key]), key


@pytest.mark.parametrize("mode", ["greedy", "sample"])
@pytest.mark.parametrize("horizon", [1, 8])
def test_generated_sessions_match_reference(pair, mode, horizon):
    layout = HeadLayout(3)
    policy, _ = nets(layout, 6)
    for dataset in pair:
        rng, ref_rng = derive_rng(6, 7), derive_rng(6, 7)
        sessions = [generate_session(policy, dataset, horizon,
                                     rng if mode == "sample" else None)
                    for _ in range(6)]
        want = [ref.generate_session(policy, dataset, horizon, mode, ref_rng)
                for _ in range(6)]
        assert sessions == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if mode == "sample":
            assert len(set(sessions)) > 1


def test_greedy_ties_match_reference(pair):
    """An untrained policy's heads are zero, so every head is a tie."""
    layout = HeadLayout(3)
    policy = nn.PolicyNet(layout.state_dim, layout.sizes, (16, 16),
                          derive_rng(6, 0))
    for dataset in pair:
        assert generate_session(policy, dataset, 8) == \
            ref.generate_session(policy, dataset, 8)


def test_lockstep_lanes_agree_with_batch_one_forwards(pair, monkeypatch):
    """At the default lane count, windows that are not multiples of it:
    each window returns its steps; each log-prob and reward is the one a
    batch-1 forward gives; each lane's steps chain state to state, and a
    finished lane restarts on the next dataset of the cycle; finished
    lengths and the lanes' steps in flight account for every step. One
    process steps every lane, so `_lanes` holds them all."""
    monkeypatch.setattr(train, "LANES", LANES)
    monkeypatch.setattr(train, "_cpus", lambda: 1)
    cfg = cfg_for(buffer_capacity=256)
    layout = HeadLayout(3, cfg.term_bins)
    policy, disc = nets(layout, cfg.seed)
    collector = RolloutCollector(policy, pair, layout, cfg,
                                 derive_rng(cfg.seed, 2))
    assert collector._pid is None
    buffer = deque(maxlen=cfg.buffer_capacity)
    resets = [ref.state_from_history(EdaEnv(ds, cfg.horizon).reset().history)
              for ds in pair]
    assert not np.array_equal(*resets)
    lanes = [[] for _ in range(LANES)]
    collected = []
    for n in (37, 5, 64):
        steps = collector.collect(disc, n, buffer)
        assert len(steps) == n
        collected += steps
        for position, step in enumerate(steps):
            lanes[position % LANES].append(step)
            logp, _ = policy.logprob(step.state[None], step.heads[None],
                                     HEAD_MASKS[step.heads[:1]])
            assert abs(step.logprob - logp[0]) <= 1e-12
            d_prob, _ = disc.forward(
                np.concatenate([step.state, step.action_vec])[None])
            assert abs(step.reward - imitation_reward(float(d_prob[0]),
                                                      step.penalty)) <= 1e-12
        in_flight = sum(len(state.action_history)
                        for _, state, _ in collector._lanes)
        assert sum(collector.episode_lengths) + in_flight == len(collected)
    assert list(buffer) == collected
    finished = [id(step) for step in collected if step.done]
    assert len(finished) == len(collector.episode_lengths) > LANES
    for lane, steps in enumerate(lanes):
        assert np.array_equal(steps[0].state, resets[lane % len(pair)])
        for a, b in zip(steps, steps[1:]):
            if a.done:
                j = finished.index(id(a))
                assert np.array_equal(b.state, resets[(LANES + j) % len(pair)])
            else:
                assert b.state is a.next_state


def collect_in_parts(datasets, cfg, windows, cpus, monkeypatch):
    """The steps of each window, the episode lengths, the buffer and the
    rollout rng's state of a collector at the default lane count, built
    while the CPU probe reads `cpus`."""
    monkeypatch.setattr(train, "LANES", LANES)
    monkeypatch.setattr(train, "_cpus", lambda: cpus)
    layout = HeadLayout(len(datasets[0].columns), cfg.term_bins)
    policy, disc = nets(layout, cfg.seed)
    rng = derive_rng(cfg.seed, 2)
    buffer = deque(maxlen=cfg.buffer_capacity)
    with RolloutCollector(policy, datasets, layout, cfg, rng) as collector:
        assert (collector._pid is not None) == (cpus > 1)
        steps = [collector.collect(disc, n, buffer) for n in windows]
    return steps, collector.episode_lengths, list(buffer), \
        rng.bit_generator.state


@pytest.mark.parametrize("penalty", [True, False])
def test_two_parts_collect_what_one_part_does(pair, penalty, monkeypatch):
    """A collector whose worker steps lanes LANES // 2 on returns, window
    by window, the steps one process returns, bit for bit and sharing
    state arrays as they do, with the same episode lengths, buffer order
    and final rng state; the 25-step window ends on a 9-lane tick, where
    the worker steps one lane."""
    cfg = cfg_for(penalty_enabled=penalty, buffer_capacity=1024)
    windows = (7, 25, 64, 512)
    one = collect_in_parts(pair, cfg, windows, 1, monkeypatch)
    two = collect_in_parts(pair, cfg, windows, 2, monkeypatch)
    for got, want in zip(two[0], one[0]):
        assert_steps_equal(got, want)
    assert two[1] == one[1] and len(one[1]) > LANES
    assert_steps_equal(two[2], one[2])
    assert [id(step) for step in two[2]] == \
        [id(step) for window in two[0] for step in window]
    assert identities(two[2]) == identities(one[2])
    assert two[3] == one[3]


def identities(steps):
    """Each step's state and next state as the position of its array
    object among all the arrays the steps hold, first seen first: a state
    that is the step before's next state, and a STOP's next state that is
    its state, are one object."""
    first = {}
    return [first.setdefault(id(a), len(first))
            for step in steps for a in (step.state, step.next_state)]
