"""The lean training step and the sampler against the references in
nn_reference.py: every trained number, sampled index, log-prob and
generator state must be the same bit for bit."""

import math
from collections import deque

import numpy as np

import nn_reference as ref
from heads_reference import head_views
from autoeda import nn
from autoeda.env import BACK, STOP, ActionSpec, HeadLayout, Trajectory
from autoeda.tabular import FilterPredicate, Grouping
from autoeda.train import (RolloutCollector, TrainConfig, _advantages,
                           assemble_mixed_batch, bc_pretrain, derive_rng,
                           ppo_update, prepare_expert_steps,
                           update_discriminator, value_update)

F_A = ActionSpec("FILTER", filter=FilterPredicate("color", "EQ", "red"))
F_B = ActionSpec("FILTER", filter=FilterPredicate("note", "CONTAINS", "alpha"))
G_A = ActionSpec("GROUP", group=Grouping("color", "score", "COUNT"))
G_B = ActionSpec("GROUP", group=Grouping("note", "score", "SUM"))


def cfg_for(**kwargs):
    defaults = dict(horizon=6, total_interactions=64, train_interval=32,
                    batch_policy=12, batch_disc=16, bc_epochs=20, bc_batch=8,
                    lr_bc=1e-2, buffer_capacity=256, seed=3)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def toy_expert(toy, cfg):
    sessions = [(F_A, G_A, BACK, STOP), (G_B, F_B, BACK, BACK, F_A),
                (F_B, F_A, G_A, STOP), (G_A, BACK, G_B, F_A, STOP),
                (F_A, F_B, G_B)]
    steps = prepare_expert_steps([toy], [Trajectory("toy", s) for s in sessions],
                                 HeadLayout(len(toy.columns), cfg.term_bins), cfg)
    assert len(steps) == 21  # three batches of 8, 8 and 5 per epoch
    return steps


def _bc_run(steps, layout, cfg, hidden, train_fn):
    policy = nn.PolicyNet(layout.state_dim, layout.sizes, hidden,
                          derive_rng(cfg.seed, 0))
    history = train_fn(policy, steps, cfg, derive_rng(cfg.seed, 1))
    logp, _ = policy.logprob(np.stack([s.state for s in steps]),
                             np.stack([s.heads for s in steps]),
                             ref.masks_of(steps))
    return policy.flat.copy(), history, logp


def _assert_bc_matches(steps, layout, cfg, hidden):
    flat, history, logp = _bc_run(steps, layout, cfg, hidden, bc_pretrain)
    with ref.installed():
        ref_flat, ref_history, ref_logp = _bc_run(steps, layout, cfg, hidden,
                                                  ref.bc_pretrain)
    assert np.array_equal(flat, ref_flat)
    assert history == ref_history
    assert np.array_equal(logp, ref_logp)


def test_bc_pretrain_matches_reference_on_toy_steps(toy):
    cfg = cfg_for()
    steps = toy_expert(toy, cfg)  # 20 epochs x 3 batches = 60 steps
    _assert_bc_matches(steps, HeadLayout(len(toy.columns)), cfg, (16, 16))


def test_bc_pretrain_matches_reference_on_synthetic_steps(synthetic_bundle):
    """The default network on the 8-column layout."""
    dataset, _, _, trajectories = synthetic_bundle
    cfg = cfg_for(bc_epochs=3, bc_batch=32, lr_bc=1e-3)
    layout = HeadLayout(len(dataset.columns))
    steps = prepare_expert_steps([dataset], trajectories, layout, cfg)
    _assert_bc_matches(steps, layout, cfg, (50, 50, 50))


def _adversarial_run(toy, cfg, rounds=5):
    """A mixed batch, then `rounds` of one discriminator, PPO and value
    update each; every number they produce."""
    layout = HeadLayout(len(toy.columns), cfg.term_bins)
    rng = derive_rng(cfg.seed, 0)
    policy = nn.PolicyNet(layout.state_dim, layout.sizes, (16, 16), rng)
    value = nn.ValueNet(layout.state_dim, (16, 16), rng)
    disc = nn.DiscriminatorNet(layout.state_dim + layout.action_dim, (8, 8), rng)
    # the untrained heads are zero; move them so the softmax is generic
    head_rng = derive_rng(cfg.seed, 9)
    for w, _ in head_views(policy):
        w += head_rng.normal(scale=0.5, size=w.shape)
    buffer = deque(maxlen=cfg.buffer_capacity)
    with RolloutCollector(policy, [toy], layout, cfg,
                          derive_rng(cfg.seed, 2)) as collector:
        collector.collect(disc, 40, buffer)
    expert = toy_expert(toy, cfg)
    update_rng = derive_rng(cfg.seed, 3)
    opts = [nn.Adam(net.flat, 1e-2) for net in (policy, value, disc)]
    batch = assemble_mixed_batch(buffer, expert, policy, disc, cfg, update_rng)
    out = [batch]
    for _ in range(rounds):
        out.append(update_discriminator(disc, opts[2], buffer, expert, cfg,
                                        update_rng))
        adv, targets = _advantages(value, batch, cfg)
        out.append(ppo_update(policy, opts[0], batch, adv, cfg))
        out.append(value_update(value, opts[1], batch, targets))
    return out, [net.flat.copy() for net in (policy, value, disc)]


def test_adversarial_updates_match_reference(toy):
    cfg = cfg_for()
    out, flats = _adversarial_run(toy, cfg)
    with ref.installed():
        ref_out, ref_flats = _adversarial_run(toy, cfg)
    batch, ref_batch = out[0], ref_out[0]
    assert batch.keys() == ref_batch.keys()
    for key in batch:
        assert np.array_equal(batch[key], ref_batch[key]), key
    assert out[1:] == ref_out[1:]
    for flat, ref_flat in zip(flats, ref_flats):
        assert np.array_equal(flat, ref_flat)
    # by the last PPO step the policy has left the one that logged old_logp
    assert out[-2]["mean_ratio"] != 1.0


def test_each_backward_returns_a_fresh_gradient():
    """A caller that holds two gradients sees two vectors, not one buffer."""
    rng = np.random.default_rng(4)
    policy = nn.PolicyNet(6, (4, 3, 5, 5, 4), (8, 7), rng)
    heads = np.stack([rng.integers(0, (4, 3, 5, 5, 4)) for _ in range(3)])
    masks = np.ones((3, 5), dtype=bool)
    grads = []
    for _ in range(2):
        _, ctx = policy.logprob(rng.normal(size=(3, 6)), heads, masks)
        grads.append(policy.backward_logprob(ctx, heads, masks, np.ones(3)))
    value = nn.ValueNet(6, (5, 4), rng)
    vgrads = [value.td_loss_grads(rng.normal(size=(3, 6)), rng.normal(size=3))[1]
              for _ in range(2)]
    disc = nn.DiscriminatorNet(6, (5, 4), rng)
    dgrads = [disc.bce_loss_grads(rng.normal(size=(4, 6)),
                                  np.array([0.0, 1.0, 0.0, 1.0]))[1]
              for _ in range(2)]
    for first, second in (grads, vgrads, dgrads):
        kept = first.copy()
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


def test_backward_passes_cut_views_without_np_prod(monkeypatch):
    rng = np.random.default_rng(5)
    policy = nn.PolicyNet(6, (4, 3), (8, 7), rng)
    value = nn.ValueNet(6, (5,), rng)
    disc = nn.DiscriminatorNet(6, (5,), rng)
    states = rng.normal(size=(2, 6))
    heads, masks = np.array([[1, 2], [3, 0]]), np.ones((2, 2), dtype=bool)

    def no_prod(*args, **kwargs):
        raise AssertionError("np.prod called in a training step")

    monkeypatch.setattr(np, "prod", no_prod)
    _, ctx = policy.logprob(states, heads, masks)
    policy.backward_logprob(ctx, heads, masks, np.ones(2))
    value.td_loss_grads(states, np.zeros(2))
    disc.bce_loss_grads(states, np.array([0.0, 1.0]))
    nn.Adam(policy.flat, 1e-3).step(policy.flat, np.ones_like(policy.flat))


class FixedUniforms:
    """A generator stand-in that hands out given uniforms, one at a time or
    as a block filled row by row, so a test can put u exactly on a prefix
    sum."""

    def __init__(self, us):
        self.us = list(us)

    def random(self, size=None):
        if size is None:
            return self.us.pop(0)
        n = math.prod(size)
        out, self.us = np.array(self.us[:n]).reshape(size), self.us[n:]
        return out


def _same_rows(probs, rng, ref_rng, relevant):
    """One batched draw against the reference sampler on each row in turn,
    with the same generator on each side: the same indices and log-probs,
    bit for bit."""
    idx, logp = nn.sample_action(probs, rng.random((len(probs[0]), len(probs))),
                                 relevant)
    assert idx.shape == (len(probs[0]), len(probs)) and idx.dtype == np.int64
    assert logp.shape == (len(probs[0]),) and logp.dtype == np.float64
    for r in range(len(probs[0])):
        ref_idx, ref_logp = ref.sample_action([p[r] for p in probs], ref_rng,
                                              relevant)
        assert tuple(idx[r].tolist()) == ref_idx
        assert np.array_equal(logp[r], ref_logp, equal_nan=True)


def test_sample_action_matches_reference_on_random_heads():
    """Batches of 1 to 17 softmax rows of every head size the layout uses,
    some of them sharp, drawn from one generator on each side: the same
    indices, log-probs and generator state after every draw."""
    rng = np.random.default_rng(6)
    sizes = (4, 8, 5, 5, 20)
    relevant = ((0, 1, 2), (0, 1, 3, 4), (0,), (0,))
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for trial in range(100):
        scale = (0.1, 1.0, 10.0, 40.0)[trial % 4]
        k = (1, 16, 17, 3, 2)[trial % 5]
        probs = [np.stack([ref.softmax(rng.normal(scale=scale, size=size))
                           for _ in range(k)]) for size in sizes]
        _same_rows(probs, ours, theirs, relevant)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_sample_action_matches_reference_on_edge_cases():
    """u on a prefix sum (the index after it), every sum at most u (the last
    index), NaN rows and NaN entries (the first NaN sum), zero entries and
    one-entry heads, batched by head size."""
    nan = float("nan")
    cases = [
        ([0.25, 0.25, 0.5], 0.25), ([0.25, 0.25, 0.5], 0.5),
        ([0.25, 0.25, 0.5], 0.0), ([0.1, 0.2, 0.3], 0.6),
        ([0.1, 0.2, 0.3], 0.95), ([0.1, 0.0], 0.5),
        ([nan, nan, nan], 0.3), ([0.2, nan, 0.8], 0.1),
        ([0.2, nan, 0.8], 0.5), ([nan], 0.9), ([1.0], 0.0),
        ([1.0], 0.999), ([0.0, 0.0, 1.0], 0.0), ([0.0, 1.0, 0.0], 0.7),
    ]
    relevant = ((0, 1), (0,), (0,))
    for size in (1, 2, 3):
        rows = [(kind, p, u) for p, u in cases if len(p) == size
                for kind in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])]
        probs = [np.array([kind for kind, _, _ in rows]),
                 np.array([p for _, p, _ in rows])]
        us = [v for _, _, u in rows for v in (0.5, u)]
        with np.errstate(divide="ignore"):
            _same_rows(probs, FixedUniforms(us), FixedUniforms(us), relevant)
