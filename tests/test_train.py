import json
import math

import numpy as np
import pytest

from autoeda import nn
from autoeda.env import BACK, STOP, ActionSpec, HeadLayout, state_vec_len
from autoeda.tabular import FilterPredicate, Grouping
from autoeda.train import (ExpertStep, ReplayBuffer, RolloutCollector,
                           TrainConfig,
                           Transition, action_agreement, assemble_mixed_batch,
                           bc_pretrain, clipped_surrogate, derive_rng,
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


def test_penalty_kind_scope():
    assert incoherence_penalty([F_A, F_B], scope="kind") == -1.0
    assert incoherence_penalty([F_A, F_B], scope="params") == 0.0


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
    buf = ReplayBuffer(3)
    items = [Transition(np.zeros(1), np.zeros(5, dtype=int),
                        np.zeros(5, dtype=bool), np.zeros(1), float(i), 0.0,
                        np.zeros(1), False, 0.0) for i in range(5)]
    for item in items:
        buf.add(item)
    assert len(buf) == 3
    rewards = {t.reward for t in buf.sample(np.random.default_rng(0), 16)}
    assert rewards <= {2.0, 3.0, 4.0}


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
                             steps[0].mask.reshape(1, -1))
    assert math.exp(float(logp[0])) >= 0.95
    assert action_agreement(policy, steps) == 1.0


def test_bc_large_l2_shrinks_parameters(toy):
    layout = HeadLayout(3)
    from autoeda.env import Trajectory
    steps = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A))],
                                 layout, small_cfg())
    policy = nn.PolicyNet(state_vec_len(toy), layout.sizes, (8, 8),
                          derive_rng(1, 0))
    cfg = small_cfg(lr_bc=1e-3, bc_epochs=1, l2_coeff=1000.0)
    norms = [float(np.linalg.norm(nn.get_flat(policy.params)))]
    for i in range(5):
        bc_pretrain(policy, steps, cfg, derive_rng(1, i + 1))
        norms.append(float(np.linalg.norm(nn.get_flat(policy.params))))
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
    collector = RolloutCollector([toy], layout, cfg, derive_rng(0, 2))
    buf = ReplayBuffer(64)
    transitions = collector.collect(policy, disc, 10, buf)
    assert all(t.done for t in transitions)
    assert collector.episode_lengths == [1] * 10


def test_no_penalty_rewards_are_pure_imitation(toy):
    cfg = small_cfg(penalty_enabled=False)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    collector = RolloutCollector([toy], layout, cfg, derive_rng(0, 2))
    buf = ReplayBuffer(64)
    for t in collector.collect(policy, disc, 30, buf):
        d = disc.prob(np.concatenate([t.state, t.action_vec]))
        assert t.penalty == 0.0
        assert t.reward == pytest.approx(-math.log(1 - d))


def test_rollouts_deterministic(toy):
    cfg = small_cfg()
    streams = []
    for _ in range(2):
        layout, policy, _, disc = _fresh_nets(toy, cfg)
        collector = RolloutCollector([toy], layout, cfg, derive_rng(9, 2))
        buf = ReplayBuffer(64)
        ts = collector.collect(policy, disc, 25, buf)
        streams.append([(t.reward, tuple(t.heads), t.done) for t in ts])
    assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# updates

def test_discriminator_symmetric_batch_zero_gradient(toy):
    cfg = small_cfg()
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    for p in disc.params:
        p[...] = 0.0  # D == 0.5 everywhere
    rng = derive_rng(0, 3)
    x = rng.normal(size=(8, state_vec_len(toy) + layout.action_dim))
    both = np.vstack([x, x])
    labels = np.concatenate([np.zeros(8), np.ones(8)])
    _, grads, _ = disc.bce_loss_grads(both, labels)
    assert all(np.allclose(g, 0.0) for g in grads)


def test_discriminator_update_equalizes_batch_sizes(toy):
    cfg = small_cfg(batch_disc=8)
    layout, policy, _, disc = _fresh_nets(toy, cfg)
    collector = RolloutCollector([toy], layout, cfg, derive_rng(0, 2))
    buf = ReplayBuffer(256)
    collector.collect(policy, disc, 40, buf)  # buffer much larger than batch
    from autoeda.env import Trajectory
    expert = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A, BACK))],
                                  layout, cfg)
    opt = nn.Adam(disc.params, 1e-3)
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
    buf = ReplayBuffer(256)
    gen_states = rng.normal(loc=-0.5, scale=0.2, size=(64, dim))
    for row in gen_states:
        buf.add(Transition(row[:state_vec_len(toy)], np.zeros(5, dtype=int),
                           np.zeros(5, dtype=bool), row[state_vec_len(toy):],
                           0.0, 0.0, row[:state_vec_len(toy)], False, 0.0))
    expert = []
    for row in rng.normal(loc=0.5, scale=0.2, size=(64, dim)):
        expert.append(ExpertStep("toy", row[:state_vec_len(toy)],
                                 np.zeros(5, dtype=int), np.zeros(5, dtype=bool),
                                 row[state_vec_len(toy):],
                                 row[:state_vec_len(toy)], False, 0.0))
    opt = nn.Adam(disc.params, 1e-3)
    for _ in range(500):
        update_discriminator(disc, opt, buf, expert, cfg, rng)
    d_exp = np.mean([disc.prob(np.concatenate([e.state, e.action_vec]))
                     for e in expert])
    d_gen = np.mean([disc.prob(np.concatenate([t.state, t.action_vec]))
                     for t in buf.sample(rng, 64)])
    assert d_exp - d_gen >= 0.4


def test_mixed_batch_is_exactly_half_and_half(toy):
    cfg = small_cfg(batch_policy=8)
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    collector = RolloutCollector([toy], layout, cfg, derive_rng(5, 2))
    buf = ReplayBuffer(64)
    collector.collect(policy, disc, 16, buf)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps(
        [toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))], layout, cfg)
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(5, 3))
    assert len(batch["states"]) == 8
    # the expert half is appended last and carries current-policy log-probs
    logp, _ = policy.logprob(batch["states"][4:], batch["heads"][4:],
                             batch["masks"][4:])
    assert np.allclose(np.exp(logp - batch["old_logp"][4:]), 1.0)


def test_ppo_update_moves_policy_and_reports_surrogate(toy):
    cfg = small_cfg()
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    collector = RolloutCollector([toy], layout, cfg, derive_rng(2, 2))
    buf = ReplayBuffer(256)
    collector.collect(policy, disc, 32, buf)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps([toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))],
                                  layout, cfg)
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(2, 3))
    assert len(batch["states"]) == cfg.batch_policy
    before = nn.get_flat(policy.params).copy()
    opt = nn.Adam(policy.params, 1e-3)
    stats = ppo_update(policy, opt, value, batch, cfg)
    assert math.isfinite(stats["surrogate"])
    assert not np.allclose(before, nn.get_flat(policy.params))


def test_expert_half_ratio_starts_at_one(toy):
    cfg = small_cfg()
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    from autoeda.env import Trajectory
    expert = prepare_expert_steps(
        [toy], [Trajectory("toy", (F_A, G_A, BACK, STOP))], layout, cfg)
    buf = ReplayBuffer(8)  # empty: batch is all expert
    batch = assemble_mixed_batch(buf, expert, policy, disc, cfg, derive_rng(3, 0))
    logp, _ = policy.logprob(batch["states"], batch["heads"], batch["masks"])
    assert np.allclose(np.exp(logp - batch["old_logp"]), 1.0)


def test_value_update_constant_parameter_closed_form(toy):
    cfg = small_cfg(use_discount=True, gamma=0.5)
    layout, policy, value, disc = _fresh_nets(toy, cfg)
    for p in value.params:
        p[...] = 0.0
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
    loss, grads = value.td_loss_grads(states, targets)
    assert grads[-1][0] == pytest.approx(expected_grad_b)
    assert all(np.allclose(g, 0.0) for g in grads[:-1])


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
    opt = nn.Adam(value.params, 1e-2)
    losses = [value_update(value, opt, batch, cfg) for _ in range(100)]
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
    return cfg, train_gail(cfg, [dataset], trajectories[:3])


def test_train_gail_smoke(synthetic_bundle):
    cfg, result = _mini_training(synthetic_bundle)
    assert len(result.metrics) == 2
    for record in result.metrics:
        assert list(record) == ["interval", "disc_acc", "mean_reward",
                                "mean_penalty", "mean_ep_len"]
        assert all(math.isfinite(v) for v in record.values())
    assert len(result.bc_history) == 2


def test_train_gail_no_penalty_logs_zero(synthetic_bundle):
    cfg, result = _mini_training(synthetic_bundle, penalty_enabled=False)
    assert all(record["mean_penalty"] == 0.0 for record in result.metrics)


def test_train_gail_deterministic(synthetic_bundle):
    _, a = _mini_training(synthetic_bundle)
    _, b = _mini_training(synthetic_bundle)
    assert json.dumps(a.metrics) == json.dumps(b.metrics)
    assert np.array_equal(nn.get_flat(a.policy.params),
                          nn.get_flat(b.policy.params))


def test_train_gail_bc_only(synthetic_bundle):
    cfg, result = _mini_training(synthetic_bundle, bc_only=True)
    assert result.metrics == []
    assert result.bc_history


def test_checkpoint_round_trip(tmp_path, synthetic_bundle):
    cfg, result = _mini_training(synthetic_bundle)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result, cfg)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(nn.get_flat(loaded.policy.params),
                          nn.get_flat(result.policy.params))
    assert loaded.schema == result.schema
    # optimizer moments travel with the checkpoint
    assert set(loaded.optimizer_states) == {"policy", "value", "discriminator"}
    assert loaded.optimizer_states["policy"]["t"] == 2
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
        assert np.array_equal(nn.get_flat(getattr(loaded, name).params),
                              nn.get_flat(getattr(result, name).params)), name


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_eps=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(penalty_scope="sometimes")
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"no_such_key": 1})
    cfg = TrainConfig.from_dict({"policy_hidden": [10, 10]})
    assert cfg.policy_hidden == (10, 10)
