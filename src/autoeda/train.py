"""Training pipeline: behavioral-cloning warm start, adversarial reward
from a discriminator, incoherence penalties, and clipped policy updates.

The per-step reward is -log(1 - D(s, a)) plus a penalty that punishes three
degenerate habits: opening with BACK, repeating an action verbatim, and
ping-ponging between BACK and FILTER/GROUP.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import nn
from .env import (EdaEnv, HeadLayout, encode_action, head_mask,
                  heads_from_action, policy_step, replay)

CHECKPOINT_VERSION = 1

# rng sub-stream ids, combined with the run seed through SeedSequence
STREAM_INIT = 0
STREAM_BC = 1
STREAM_ROLLOUT = 2
STREAM_UPDATE = 3
STREAM_SYNTH = 4
STREAM_TRAJECTORIES = 5
STREAM_SPLIT = 6
STREAM_GENERATE = 7


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, stream, ...); the stream ids above
    keep every consumer of randomness on its own line."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=tuple(path)))


@dataclass
class TrainConfig:
    horizon: int = 12
    total_interactions: int = 100_000
    train_interval: int = 1024
    lr_bc: float = 1e-4
    lr_adv: float = 1e-6
    batch_policy: int = 32
    batch_disc: int = 192
    gamma: float = 0.99
    clip_eps: float = 0.2
    l2_coeff: float = 1e-3
    bc_epochs: int = 100
    bc_batch: int = 32
    penalty_enabled: bool = True
    bc_enabled: bool = True
    bc_only: bool = False
    use_discount: bool = True
    penalty_scope: str = "params"  # or "kind": how action repeats compare
    term_bins: int = 20
    policy_hidden: tuple = (50, 50, 50)
    disc_hidden: tuple = (32, 32)
    buffer_capacity: int = 16384
    updates_per_interval: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip_eps must be in (0, 1)")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must be in [0, 1]")
        if self.penalty_scope not in ("params", "kind"):
            raise ValueError("penalty_scope must be 'params' or 'kind'")
        for name in ("horizon", "total_interactions", "train_interval",
                     "batch_policy", "batch_disc", "bc_epochs", "bc_batch",
                     "buffer_capacity", "updates_per_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for key in ("policy_hidden", "disc_hidden"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["policy_hidden"] = list(self.policy_hidden)
        out["disc_hidden"] = list(self.disc_hidden)
        return out


def _same_action(a, b, scope: str) -> bool:
    return a.kind == b.kind if scope == "kind" else a == b


def incoherence_penalty(actions, scope: str = "params") -> float:
    """Penalty for the newest action given the episode's action history.

    Clauses in order, first match wins:
      1. the very first action is BACK: -1
      2. a non-BACK action repeats the previous action: -1
      3. the tail alternates BACK with FILTER/GROUP for l alternations,
         l > 1: -l (the run of BACKs at even offsets is maximal and every
         interleaved odd-offset action is FILTER or GROUP)
    """
    if not actions:
        raise ValueError("need at least one action")
    t = len(actions)
    last = actions[-1]
    if last.kind == "BACK":
        if t == 1:
            return -1.0
        # longest chain of BACKs at offsets 0, 2, 4, ... from the end
        l = 0
        while t - 2 * (l + 1) >= 1 and actions[t - 2 * (l + 1) - 1].kind == "BACK":
            l += 1
        if l > 1:
            for k in range(l + 1):
                odd = t - 2 * k - 1
                if odd - 1 < 0 or actions[odd - 1].kind not in ("FILTER", "GROUP"):
                    return 0.0
            return -float(l)
        return 0.0
    if t >= 2 and _same_action(last, actions[-2], scope):
        return -1.0
    return 0.0


def imitation_reward(d_prob: float, penalty: float) -> float:
    """-log(1 - D) plus the incoherence penalty; finite because the
    discriminator output is clamped away from 1."""
    return -float(np.log(1.0 - d_prob)) + penalty


def ppo_clip_target(eps: float, advantage):
    """The clipping envelope: (1+eps)*A for A >= 0, (1-eps)*A otherwise."""
    a = np.asarray(advantage, dtype=float)
    out = np.where(a >= 0, (1 + eps) * a, (1 - eps) * a)
    return float(out) if out.ndim == 0 else out


def clipped_surrogate(ratios, advantages, eps: float) -> float:
    ratios = np.asarray(ratios, dtype=float)
    advantages = np.asarray(advantages, dtype=float)
    return float(np.mean(np.minimum(ratios * advantages,
                                    ppo_clip_target(eps, advantages))))


@dataclass
class Transition:
    state: np.ndarray
    heads: np.ndarray
    mask: np.ndarray
    action_vec: np.ndarray
    reward: float
    penalty: float
    next_state: np.ndarray
    done: bool
    logprob: float


class ReplayBuffer:
    """Bounded FIFO of transitions."""

    def __init__(self, capacity: int):
        self._items = deque(maxlen=capacity)

    def add(self, item: Transition) -> None:
        self._items.append(item)

    def sample(self, rng: np.random.Generator, k: int):
        idx = rng.choice(len(self._items), size=k, replace=len(self._items) < k)
        return [self._items[int(i)] for i in idx]

    def __len__(self):
        return len(self._items)


@dataclass
class ExpertStep:
    dataset: str
    state: np.ndarray
    heads: np.ndarray
    mask: np.ndarray
    action_vec: np.ndarray
    next_state: np.ndarray
    done: bool
    penalty: float


def prepare_expert_steps(datasets, trajectories, layout: HeadLayout,
                         cfg: TrainConfig) -> list[ExpertStep]:
    """Replay expert sessions into training-ready (state, action) records."""
    by_name = {ds.name: ds for ds in datasets}
    steps: list[ExpertStep] = []
    for traj in trajectories:
        if traj.dataset not in by_name:
            raise ValueError(f"expert trajectory references unknown dataset "
                             f"{traj.dataset!r}")
        records, _ = replay(by_name[traj.dataset], traj.actions, layout)
        for rec in records:
            penalty = incoherence_penalty(traj.actions[:rec.t], cfg.penalty_scope)
            steps.append(ExpertStep(
                dataset=traj.dataset, state=rec.state,
                heads=np.asarray(rec.heads), mask=rec.mask,
                action_vec=rec.action_vec, next_state=rec.next_state,
                done=rec.done, penalty=penalty))
    return steps


def bc_pretrain(policy: nn.PolicyNet, expert_steps, cfg: TrainConfig,
                rng: np.random.Generator):
    """Supervised warm start: minimize mean NLL of expert actions plus an
    L2 weight penalty. Returns per-epoch mean NLL."""
    if not expert_steps:
        raise ValueError("behavioral cloning needs expert steps")
    states = np.stack([s.state for s in expert_steps])
    heads = np.stack([s.heads for s in expert_steps])
    masks = np.stack([s.mask for s in expert_steps])
    n = len(expert_steps)
    opt = nn.Adam(policy.params, cfg.lr_bc)
    history = []
    for _ in range(cfg.bc_epochs):
        perm = rng.permutation(n)
        total_nll = 0.0
        for start in range(0, n, cfg.bc_batch):
            idx = perm[start:start + cfg.bc_batch]
            logp, ctx = policy.logprob(states[idx], heads[idx], masks[idx])
            batch = len(idx)
            grads = policy.backward_logprob(ctx, heads[idx], masks[idx],
                                            np.full(batch, -1.0 / batch))
            _, l2_grads = nn.l2_penalty(policy.params, cfg.l2_coeff)
            opt.step(policy.params, [g + lg for g, lg in zip(grads, l2_grads)])
            total_nll += float(-logp.sum())
        history.append(total_nll / n)
    return history


def action_agreement(policy: nn.PolicyNet, expert_steps) -> float:
    """Fraction of expert steps whose relevant heads all match the policy's
    greedy choice."""
    if not expert_steps:
        return 0.0
    states = np.stack([s.state for s in expert_steps])
    probs, _ = policy.forward(states)
    hits = 0
    for i, step in enumerate(expert_steps):
        ok = True
        for h in range(len(probs)):
            if step.mask[h] and int(np.argmax(probs[h][i])) != int(step.heads[h]):
                ok = False
                break
        hits += ok
    return hits / len(expert_steps)


class RolloutCollector:
    """Streams environment interactions, round-robin over the training
    datasets, keeping episode state across collection windows."""

    def __init__(self, datasets, layout: HeadLayout, cfg: TrainConfig,
                 rng: np.random.Generator):
        self.envs = [EdaEnv(ds, layout, cfg.horizon) for ds in datasets]
        self.layout = layout
        self.cfg = cfg
        self.rng = rng
        self._env_idx = 0
        self._env = self.envs[0]
        self._state = self._env.reset()
        self._svec = None  # encoding of _state once a step has computed it
        self.episode_lengths: list[int] = []

    def _next_episode(self):
        self._env_idx = (self._env_idx + 1) % len(self.envs)
        self._env = self.envs[self._env_idx]
        self._state = self._env.reset()
        self._svec = None

    def collect(self, policy: nn.PolicyNet, disc: nn.DiscriminatorNet,
                n_steps: int, buffer: ReplayBuffer):
        """Roll `n_steps` transitions with rewards from the current
        discriminator; appends to the buffer and returns them."""
        out = []
        cfg = self.cfg
        for _ in range(n_steps):
            env, state = self._env, self._state
            svec, heads, logp, action, new_state = policy_step(
                policy, env, state, self.rng, self._svec)
            # the discriminator sees the canonical heads, as for expert steps
            avec = encode_action(heads_from_action(action, state.current,
                                                   env.dataset, self.layout),
                                 self.layout)
            penalty = 0.0
            if cfg.penalty_enabled:
                penalty = incoherence_penalty(new_state.action_history,
                                              cfg.penalty_scope)
            reward = imitation_reward(disc.prob(np.concatenate([svec, avec])),
                                      penalty)
            next_svec = env.encode_state(new_state)
            tr = Transition(
                state=svec, heads=np.asarray(heads), mask=head_mask(action.kind),
                action_vec=avec, reward=reward, penalty=penalty,
                next_state=next_svec, done=new_state.done, logprob=logp)
            buffer.add(tr)
            out.append(tr)
            if new_state.done:
                self.episode_lengths.append(new_state.step)
                self._next_episode()
            else:
                self._state, self._svec = new_state, next_svec
        return out


def update_discriminator(disc: nn.DiscriminatorNet, opt: nn.Adam,
                         buffer: ReplayBuffer, expert_steps, cfg: TrainConfig,
                         rng: np.random.Generator):
    """One optimizer step pushing expert pairs toward 1 and generated pairs
    toward 0, on equal-sized halves."""
    if len(buffer) == 0 or not expert_steps:
        raise ValueError("discriminator update needs both generated and expert data")
    half = min(cfg.batch_disc // 2, len(buffer), len(expert_steps))
    gen = buffer.sample(rng, half)
    exp_idx = rng.choice(len(expert_steps), size=half,
                         replace=len(expert_steps) < half)
    exp = [expert_steps[int(i)] for i in exp_idx]
    x = np.stack([np.concatenate([t.state, t.action_vec]) for t in gen]
                 + [np.concatenate([e.state, e.action_vec]) for e in exp])
    labels = np.concatenate([np.zeros(half), np.ones(half)])
    loss, grads, probs = disc.bce_loss_grads(x, labels)
    opt.step(disc.params, grads)
    acc = 0.5 * (float(np.mean(probs[:half] < 0.5))
                 + float(np.mean(probs[half:] > 0.5)))
    return loss, acc


def assemble_mixed_batch(buffer: ReplayBuffer, expert_steps, policy, disc,
                         cfg: TrainConfig, rng: np.random.Generator) -> dict:
    """Half generated (stored rewards and collect-time log-probs), half
    expert (rewards and log-probs evaluated now, so their ratio starts at 1).
    """
    half = cfg.batch_policy // 2
    k_gen = min(half, len(buffer))
    k_exp = min(half, len(expert_steps))
    gen = buffer.sample(rng, k_gen) if k_gen else []
    exp = []
    if k_exp:
        idx = rng.choice(len(expert_steps), size=k_exp,
                         replace=len(expert_steps) < k_exp)
        exp = [expert_steps[int(i)] for i in idx]
    states = np.stack([t.state for t in gen] + [e.state for e in exp])
    heads = np.stack([t.heads for t in gen] + [e.heads for e in exp])
    masks = np.stack([t.mask for t in gen] + [e.mask for e in exp])
    next_states = np.stack([t.next_state for t in gen]
                           + [e.next_state for e in exp])
    dones = np.array([t.done for t in gen] + [e.done for e in exp], dtype=float)
    rewards = [t.reward for t in gen]
    old_logp = [t.logprob for t in gen]
    if exp:
        x = np.stack([np.concatenate([e.state, e.action_vec]) for e in exp])
        d_prob, _ = disc.forward(x)
        for e, p in zip(exp, d_prob):
            pen = e.penalty if cfg.penalty_enabled else 0.0
            rewards.append(imitation_reward(float(p), pen))
        exp_logp, _ = policy.logprob(np.stack([e.state for e in exp]),
                                     np.stack([e.heads for e in exp]),
                                     np.stack([e.mask for e in exp]))
        old_logp.extend(float(v) for v in exp_logp)
    return {"states": states, "heads": heads, "masks": masks,
            "rewards": np.asarray(rewards), "next_states": next_states,
            "dones": dones, "old_logp": np.asarray(old_logp)}


def _advantages(value: nn.ValueNet, batch: dict, cfg: TrainConfig):
    v_s, _ = value.forward(batch["states"])
    v_next, _ = value.forward(batch["next_states"])
    gamma = cfg.gamma if cfg.use_discount else 1.0
    targets = batch["rewards"] + gamma * v_next * (1.0 - batch["dones"])
    return targets - v_s, targets


def ppo_update(policy: nn.PolicyNet, opt: nn.Adam, value: nn.ValueNet,
               batch: dict, cfg: TrainConfig) -> dict:
    """One ascent step on the clipped surrogate objective."""
    adv, _ = _advantages(value, batch, cfg)
    logp, ctx = policy.logprob(batch["states"], batch["heads"], batch["masks"])
    ratio = np.exp(logp - batch["old_logp"])
    target = ppo_clip_target(cfg.clip_eps, adv)
    lhs = ratio * adv
    surrogate = float(np.mean(np.minimum(lhs, target)))
    active = (lhs <= target).astype(float)
    coeffs = active * adv * ratio / len(adv)
    grads = policy.backward_logprob(ctx, batch["heads"], batch["masks"], coeffs)
    opt.step(policy.params, [-g for g in grads])
    return {"surrogate": surrogate,
            "clip_fraction": float(np.mean(1.0 - active)),
            "mean_ratio": float(np.mean(ratio))}


def value_update(value: nn.ValueNet, opt: nn.Adam, batch: dict,
                 cfg: TrainConfig) -> float:
    """One semi-gradient step on the mean squared one-step TD error."""
    _, targets = _advantages(value, batch, cfg)
    loss, grads = value.td_loss_grads(batch["states"], targets)
    opt.step(value.params, grads)
    return loss


@dataclass
class TrainResult:
    policy: nn.PolicyNet
    value: nn.ValueNet
    discriminator: nn.DiscriminatorNet
    layout: HeadLayout
    schema: tuple
    metrics: list = field(default_factory=list)
    bc_history: list = field(default_factory=list)
    optimizer_states: dict = field(default_factory=dict)


def _check_schemas(datasets):
    schema = tuple((c, k) for c, k in datasets[0].columns)
    for ds in datasets[1:]:
        if tuple(ds.columns) != schema:
            raise ValueError(f"dataset {ds.name!r} schema differs from "
                             f"{datasets[0].name!r}; training needs one schema")
    return schema


def train_gail(cfg: TrainConfig, datasets, expert, metrics_sink=None,
               result_callback=None) -> TrainResult:
    """Full pipeline: optional BC warm start, then alternating discriminator
    and clipped policy/value updates on mixed expert/generated batches.

    `metrics_sink` receives one dict per training interval:
    {interval, disc_acc, mean_reward, mean_penalty, mean_ep_len}.
    `result_callback` sees the TrainResult as soon as the networks exist,
    so callers can checkpoint on abort.
    """
    if not datasets:
        raise ValueError("need at least one training dataset")
    schema = _check_schemas(datasets)
    layout = HeadLayout(len(schema), cfg.term_bins)
    state_dim = layout.state_dim

    init_rng = derive_rng(cfg.seed, STREAM_INIT)
    policy = nn.PolicyNet(state_dim, layout.sizes, cfg.policy_hidden, init_rng)
    value = nn.ValueNet(state_dim, cfg.policy_hidden, init_rng)
    disc = nn.DiscriminatorNet(state_dim + layout.action_dim, cfg.disc_hidden,
                               init_rng)
    result = TrainResult(policy, value, disc, layout, schema)
    if result_callback is not None:
        result_callback(result)

    expert_steps = prepare_expert_steps(datasets, expert, layout, cfg)
    if cfg.bc_enabled:
        result.bc_history = bc_pretrain(policy, expert_steps, cfg,
                                        derive_rng(cfg.seed, STREAM_BC))
    if cfg.bc_only:
        return result

    buffer = ReplayBuffer(cfg.buffer_capacity)
    collector = RolloutCollector(datasets, layout, cfg,
                                 derive_rng(cfg.seed, STREAM_ROLLOUT))
    update_rng = derive_rng(cfg.seed, STREAM_UPDATE)
    policy_opt = nn.Adam(policy.params, cfg.lr_adv)
    value_opt = nn.Adam(value.params, cfg.lr_adv)
    disc_opt = nn.Adam(disc.params, cfg.lr_adv)

    done_interactions = 0
    interval = 0
    while done_interactions < cfg.total_interactions:
        interval += 1
        n = min(cfg.train_interval, cfg.total_interactions - done_interactions)
        before_eps = len(collector.episode_lengths)
        transitions = collector.collect(policy, disc, n, buffer)
        done_interactions += n
        disc_loss, disc_acc = update_discriminator(disc, disc_opt, buffer,
                                                   expert_steps, cfg, update_rng)
        for _ in range(cfg.updates_per_interval):
            batch = assemble_mixed_batch(buffer, expert_steps, policy, disc,
                                         cfg, update_rng)
            ppo_update(policy, policy_opt, value, batch, cfg)
            value_update(value, value_opt, batch, cfg)
        new_eps = collector.episode_lengths[before_eps:]
        record = {
            "interval": interval,
            "disc_acc": round(disc_acc, 6),
            "mean_reward": round(float(np.mean([t.reward for t in transitions])), 6),
            "mean_penalty": round(float(np.mean([t.penalty for t in transitions])), 6),
            "mean_ep_len": round(float(np.mean(new_eps)) if new_eps else 0.0, 6),
        }
        result.metrics.append(record)
        if metrics_sink is not None:
            metrics_sink(record)
    result.optimizer_states = {
        "policy": policy_opt.state_dict(),
        "value": value_opt.state_dict(),
        "discriminator": disc_opt.state_dict(),
    }
    return result


def _net_json(net) -> dict:
    return {"params": [nn.arr_to_json(p) for p in net.params]}


def _load_params(net, obj) -> None:
    for p, stored in zip(net.params, obj["params"]):
        p[...] = nn.arr_from_json(stored)


def save_checkpoint(path, result: TrainResult, cfg: TrainConfig) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "schema": [[c, k.value] for c, k in result.schema],
        "layout": {"n_columns": result.layout.n_columns,
                   "term_bins": result.layout.term_bins},
        "policy": _net_json(result.policy),
        "value": _net_json(result.value),
        "discriminator": _net_json(result.discriminator),
        "optimizers": result.optimizer_states,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[TrainResult, TrainConfig]:
    with open(Path(path)) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{payload.get('format_version')!r}")
    cfg = TrainConfig.from_dict(payload["config"])
    from .tabular import ColumnKind
    schema = tuple((c, ColumnKind(k)) for c, k in payload["schema"])
    layout = HeadLayout(**payload["layout"])
    policy = nn.PolicyNet(layout.state_dim, layout.sizes, cfg.policy_hidden)
    value = nn.ValueNet(layout.state_dim, cfg.policy_hidden)
    disc = nn.DiscriminatorNet(layout.state_dim + layout.action_dim,
                               cfg.disc_hidden)
    _load_params(policy, payload["policy"])
    _load_params(value, payload["value"])
    _load_params(disc, payload["discriminator"])
    result = TrainResult(policy, value, disc, layout, schema,
                         optimizer_states=payload.get("optimizers", {}))
    return result, cfg
