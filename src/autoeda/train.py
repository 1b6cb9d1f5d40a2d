"""Training pipeline: behavioral-cloning warm start, adversarial reward
from a discriminator, incoherence penalties, and clipped policy updates.

The per-step reward is -log(1 - D(s, a)) plus a penalty that punishes three
degenerate habits: opening with BACK, repeating an action verbatim, and
ping-ponging between BACK and FILTER/GROUP.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, asdict
from itertools import cycle
from pathlib import Path

import numpy as np

from . import nn
from .env import (DEFAULT_HORIZON, DEFAULT_TERM_BINS, HEAD_MASKS, EdaEnv,
                  HeadLayout, Step, decide, encode_action, heads_from_action,
                  replay, state_from_history)
from .tabular import ColumnKind, is_finite_number, is_int

CHECKPOINT_VERSION = 4
# the TrainResult networks a checkpoint stores, each under its field name
_NETWORKS = ("policy", "value", "discriminator")

# rng sub-stream ids, combined with the run seed through SeedSequence
STREAM_INIT = 0
STREAM_BC = 1
STREAM_ROLLOUT = 2
STREAM_UPDATE = 3
STREAM_SYNTH = 4
STREAM_TRAJECTORIES = 5
STREAM_SPLIT = 6
STREAM_GENERATE = 7

# episodes a rollout collector steps in lockstep: one policy forward and one
# discriminator forward serve up to this many steps
LANES = 16


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, stream, ...); the stream ids above
    keep every consumer of randomness on its own line."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=tuple(path)))


# the least value of each count field; a batch needs one generated and
# one expert step
_COUNT_MINIMUMS = {"horizon": 1, "total_interactions": 1, "train_interval": 1,
                   "batch_policy": 2, "batch_disc": 2, "bc_epochs": 1,
                   "bc_batch": 1, "term_bins": 1, "buffer_capacity": 1}


@dataclass
class TrainConfig:
    horizon: int = DEFAULT_HORIZON
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
    term_bins: int = DEFAULT_TERM_BINS
    policy_hidden: tuple = (50, 50, 50)
    disc_hidden: tuple = (32, 32)
    buffer_capacity: int = 16384
    seed: int = 0

    def __post_init__(self):
        """Check every field, so a bad config fails before any work."""
        def check(ok, name, what):
            if not ok:
                raise ValueError(f"{name} must be {what}, "
                                 f"got {getattr(self, name)!r}")

        for name, least in _COUNT_MINIMUMS.items():
            value = getattr(self, name)
            check(is_int(value) and value >= least, name,
                  f"an integer >= {least}")
        check(is_int(self.seed) and self.seed >= 0, "seed", "an integer >= 0")
        for name in ("lr_bc", "lr_adv"):
            value = getattr(self, name)
            check(is_finite_number(value) and value > 0, name,
                  "a finite number > 0")
        check(is_finite_number(self.l2_coeff) and self.l2_coeff >= 0,
              "l2_coeff", "a finite number >= 0")
        check(is_finite_number(self.clip_eps) and 0 < self.clip_eps < 1,
              "clip_eps", "a number in (0, 1)")
        check(is_finite_number(self.gamma) and 0 <= self.gamma <= 1,
              "gamma", "a number in [0, 1]")
        for name in ("penalty_enabled", "bc_enabled", "bc_only"):
            check(isinstance(getattr(self, name), bool), name, "true or false")
        check(self.bc_enabled or not self.bc_only, "bc_only",
              "false when bc_enabled is false")
        for name in ("policy_hidden", "disc_hidden"):
            sizes = getattr(self, name)
            check(isinstance(sizes, tuple) and len(sizes) >= 1
                  and all(is_int(k) and k >= 1 for k in sizes), name,
                  "a non-empty list of integers >= 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for key in ("policy_hidden", "disc_hidden"):
            if isinstance(kwargs.get(key), list):  # anything else is refused
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["policy_hidden"] = list(self.policy_hidden)
        out["disc_hidden"] = list(self.disc_hidden)
        return out


def incoherence_penalty(actions) -> float:
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
    if t >= 2 and last == actions[-2]:
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


def _draw(rng: np.random.Generator, steps, k: int) -> list:
    """`k` distinct uniform draws from `steps`, which holds at least `k`."""
    idx = rng.choice(len(steps), size=k, replace=False)
    return [steps[int(i)] for i in idx]


def prepare_expert_steps(datasets, trajectories, layout: HeadLayout,
                         cfg: TrainConfig) -> list[Step]:
    """Replay expert sessions into training-ready (state, action) steps,
    each with its incoherence penalty when penalties are enabled."""
    by_name = {ds.name: ds for ds in datasets}
    steps: list[Step] = []
    for traj in trajectories:
        if traj.dataset not in by_name:
            raise ValueError(f"expert trajectory references unknown dataset "
                             f"{traj.dataset!r}")
        session = replay(by_name[traj.dataset], traj.actions, layout)
        if cfg.penalty_enabled:
            for t, step in enumerate(session, start=1):
                step.penalty = incoherence_penalty(traj.actions[:t])
        steps.extend(session)
    return steps


def bc_pretrain(policy: nn.PolicyNet, expert_steps, cfg: TrainConfig,
                rng: np.random.Generator):
    """Supervised warm start: minimize mean NLL of expert actions plus an
    L2 weight penalty. Returns per-epoch mean NLL; raises FloatingPointError
    at the end of the first epoch whose mean NLL or parameters are not
    finite."""
    if not expert_steps:
        raise ValueError("behavioral cloning needs expert steps")
    states = np.stack([s.state for s in expert_steps])
    heads = np.stack([s.heads for s in expert_steps])
    masks = HEAD_MASKS[heads[:, 0]]
    n = len(expert_steps)
    opt = nn.Adam(policy.flat, cfg.lr_bc)
    l2 = np.empty_like(policy.flat)
    history = []
    for epoch in range(1, cfg.bc_epochs + 1):
        perm = rng.permutation(n)
        total_nll = 0.0
        for start in range(0, n, cfg.bc_batch):
            idx = perm[start:start + cfg.bc_batch]
            batch_heads, batch_masks = heads[idx], masks[idx]
            logp, ctx = policy.logprob(states[idx], batch_heads, batch_masks)
            batch = len(idx)
            grad = policy.backward_logprob(ctx, batch_heads, batch_masks,
                                           np.full(batch, -1.0 / batch))
            grad += nn.l2_penalty(policy.flat, cfg.l2_coeff, l2)
            opt.step(policy.flat, grad)
            total_nll += float(-logp.sum())
        history.append(total_nll / n)
        if not (math.isfinite(history[-1]) and np.isfinite(policy.flat).all()):
            raise FloatingPointError(f"behavioral cloning went non-finite in "
                                     f"epoch {epoch}")
    return history


def action_agreement(policy: nn.PolicyNet, expert_steps) -> float:
    """Fraction of expert steps whose relevant heads all match the policy's
    greedy choice."""
    if not expert_steps:
        return 0.0
    heads = np.stack([s.heads for s in expert_steps])
    probs, _ = policy.forward(np.stack([s.state for s in expert_steps]))
    greedy = np.stack([p.argmax(axis=1) for p in probs], axis=1)
    hits = ((greedy == heads) | ~HEAD_MASKS[heads[:, 0]]).all(axis=1)
    return int(hits.sum()) / len(expert_steps)


class RolloutCollector:
    """LANES episodes stepped in lockstep. A lane whose episode finishes
    restarts on the next training dataset, round-robin, and an episode runs
    on across collection windows."""

    def __init__(self, policy: nn.PolicyNet, datasets, layout: HeadLayout,
                 cfg: TrainConfig, rng: np.random.Generator):
        self.policy = policy
        self.layout = layout
        self.cfg = cfg
        self.rng = rng
        self._envs = cycle([EdaEnv(ds, cfg.horizon) for ds in datasets])
        self._lanes = [self._start() for _ in range(LANES)]
        self.episode_lengths: list[int] = []

    def _start(self):
        """(env, state, state vector) of a new episode on the next dataset."""
        env = next(self._envs)
        state = env.reset()
        return env, state, state_from_history(state.history)

    def collect(self, disc: nn.DiscriminatorNet, n_steps: int,
                buffer: deque) -> list[Step]:
        """The next `n_steps` steps with rewards from the current
        discriminator; appends them to the buffer and returns them. Each
        tick steps the first min(LANES, steps left) lanes with one policy
        and one discriminator forward."""
        out = []
        cfg, layout, lanes = self.cfg, self.layout, self._lanes
        while len(out) < n_steps:
            k = min(len(lanes), n_steps - len(out))
            svecs = np.stack([svec for _, _, svec in lanes[:k]])
            heads, logps, actions = decide(
                self.policy, svecs, [state.current for _, state, _ in lanes[:k]],
                self.rng)
            steps = []
            for i, (action, logp) in enumerate(zip(actions, logps.tolist())):
                env, state, svec = lanes[i]
                # the discriminator sees the canonical heads, as for expert steps
                avec = encode_action(heads_from_action(
                    action, state.current, layout), layout)
                next_state = env.step(state, action)
                next_svec = state_from_history(next_state.history)
                step = Step(state=svec, heads=heads[i], action_vec=avec,
                            next_state=next_svec, done=next_state.done,
                            logprob=logp)
                if cfg.penalty_enabled:
                    step.penalty = incoherence_penalty(next_state.action_history)
                steps.append(step)
                if next_state.done:
                    self.episode_lengths.append(len(next_state.action_history))
                    lanes[i] = self._start()
                else:
                    lanes[i] = env, next_state, next_svec
            d_probs, _ = disc.forward(np.concatenate(
                [svecs, np.stack([step.action_vec for step in steps])], axis=1))
            for step, d_prob in zip(steps, d_probs.tolist()):
                step.reward = imitation_reward(d_prob, step.penalty)
            buffer.extend(steps)
            out.extend(steps)
        return out


def update_discriminator(disc: nn.DiscriminatorNet, opt: nn.Adam,
                         buffer: deque, expert_steps, cfg: TrainConfig,
                         rng: np.random.Generator):
    """One optimizer step pushing expert pairs toward 1 and generated pairs
    toward 0, on equal-sized halves."""
    if len(buffer) == 0 or not expert_steps:
        raise ValueError("discriminator update needs both generated and expert data")
    half = min(cfg.batch_disc // 2, len(buffer), len(expert_steps))
    gen = _draw(rng, buffer, half)
    exp = _draw(rng, expert_steps, half)
    x = np.stack([np.concatenate([s.state, s.action_vec]) for s in gen + exp])
    labels = np.concatenate([np.zeros(half), np.ones(half)])
    loss, grad, probs = disc.bce_loss_grads(x, labels)
    opt.step(disc.flat, grad)
    acc = 0.5 * (float(np.mean(probs[:half] < 0.5))
                 + float(np.mean(probs[half:] > 0.5)))
    return loss, acc


def assemble_mixed_batch(buffer: deque, expert_steps, policy, disc,
                         cfg: TrainConfig, rng: np.random.Generator) -> dict:
    """Half generated (stored rewards and collect-time log-probs), half
    expert (rewards and log-probs evaluated now, so their ratio starts at 1).
    """
    half = cfg.batch_policy // 2
    k_gen = min(half, len(buffer))
    k_exp = min(half, len(expert_steps))
    gen = _draw(rng, buffer, k_gen) if k_gen else []
    exp = _draw(rng, expert_steps, k_exp) if k_exp else []
    both = gen + exp
    states = np.stack([s.state for s in both])
    heads = np.stack([s.heads for s in both])
    masks = HEAD_MASKS[heads[:, 0]]
    next_states = np.stack([s.next_state for s in both])
    dones = np.array([s.done for s in both], dtype=float)
    rewards = [s.reward for s in gen]
    old_logp = [s.logprob for s in gen]
    if exp:
        x = np.stack([np.concatenate([e.state, e.action_vec]) for e in exp])
        d_prob, _ = disc.forward(x)
        for e, p in zip(exp, d_prob):
            rewards.append(imitation_reward(float(p), e.penalty))
        exp_logp, _ = policy.logprob(states[k_gen:], heads[k_gen:],
                                     masks[k_gen:])
        old_logp.extend(float(v) for v in exp_logp)
    return {"states": states, "heads": heads, "masks": masks,
            "rewards": np.asarray(rewards), "next_states": next_states,
            "dones": dones, "old_logp": np.asarray(old_logp)}


def _advantages(value: nn.ValueNet, batch: dict, cfg: TrainConfig):
    """One-step TD advantages and targets of a batch under `value`."""
    v_s, _ = value.forward(batch["states"])
    v_next, _ = value.forward(batch["next_states"])
    targets = batch["rewards"] + cfg.gamma * v_next * (1.0 - batch["dones"])
    return targets - v_s, targets


def ppo_update(policy: nn.PolicyNet, opt: nn.Adam, batch: dict,
               adv: np.ndarray, cfg: TrainConfig) -> dict:
    """One ascent step on the clipped surrogate objective."""
    logp, ctx = policy.logprob(batch["states"], batch["heads"], batch["masks"])
    ratio = np.exp(logp - batch["old_logp"])
    surrogate = clipped_surrogate(ratio, adv, cfg.clip_eps)
    active = (ratio * adv <= ppo_clip_target(cfg.clip_eps, adv)).astype(float)
    coeffs = active * adv * ratio / len(adv)
    grad = policy.backward_logprob(ctx, batch["heads"], batch["masks"], coeffs)
    opt.step(policy.flat, -grad)
    return {"surrogate": surrogate,
            "clip_fraction": float(np.mean(1.0 - active)),
            "mean_ratio": float(np.mean(ratio))}


def value_update(value: nn.ValueNet, opt: nn.Adam, batch: dict,
                 targets: np.ndarray) -> float:
    """One semi-gradient step on the mean squared one-step TD error."""
    loss, grad = value.td_loss_grads(batch["states"], targets)
    opt.step(value.flat, grad)
    return loss


@dataclass
class TrainResult:
    policy: nn.PolicyNet
    value: nn.ValueNet
    discriminator: nn.DiscriminatorNet
    layout: HeadLayout
    schema: tuple
    bc_history: list = field(default_factory=list)


def _networks(schema, cfg: TrainConfig, rng=None) -> TrainResult:
    """The policy, value and discriminator networks for `schema`, drawn from
    `rng` in that order, or all zeros without one."""
    layout = HeadLayout(len(schema), cfg.term_bins)
    state_dim = layout.state_dim
    return TrainResult(
        nn.PolicyNet(state_dim, layout.sizes, cfg.policy_hidden, rng),
        nn.ValueNet(state_dim, cfg.policy_hidden, rng),
        nn.DiscriminatorNet(state_dim + layout.action_dim, cfg.disc_hidden, rng),
        layout, schema)


def _check_schemas(datasets):
    schema = datasets[0].columns
    for ds in datasets[1:]:
        if ds.columns != schema:
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
    so callers can checkpoint on abort. An interval whose losses, logged
    means or network parameters are not finite raises FloatingPointError
    before it reaches the sink.
    """
    if not datasets:
        raise ValueError("need at least one training dataset")
    result = _networks(_check_schemas(datasets), cfg,
                       derive_rng(cfg.seed, STREAM_INIT))
    policy, value, disc = result.policy, result.value, result.discriminator
    layout = result.layout
    if result_callback is not None:
        result_callback(result)

    expert_steps = prepare_expert_steps(datasets, expert, layout, cfg)
    if cfg.bc_enabled:
        result.bc_history = bc_pretrain(policy, expert_steps, cfg,
                                        derive_rng(cfg.seed, STREAM_BC))
    if cfg.bc_only:
        return result

    buffer = deque(maxlen=cfg.buffer_capacity)
    collector = RolloutCollector(policy, datasets, layout, cfg,
                                 derive_rng(cfg.seed, STREAM_ROLLOUT))
    update_rng = derive_rng(cfg.seed, STREAM_UPDATE)
    policy_opt = nn.Adam(policy.flat, cfg.lr_adv)
    value_opt = nn.Adam(value.flat, cfg.lr_adv)
    disc_opt = nn.Adam(disc.flat, cfg.lr_adv)

    starts = range(0, cfg.total_interactions, cfg.train_interval)
    for interval, start in enumerate(starts, start=1):
        n = min(cfg.train_interval, cfg.total_interactions - start)
        before_eps = len(collector.episode_lengths)
        steps = collector.collect(disc, n, buffer)
        disc_loss, disc_acc = update_discriminator(disc, disc_opt, buffer,
                                                   expert_steps, cfg, update_rng)
        batch = assemble_mixed_batch(buffer, expert_steps, policy, disc, cfg,
                                     update_rng)
        adv, targets = _advantages(value, batch, cfg)
        ppo_update(policy, policy_opt, batch, adv, cfg)
        value_loss = value_update(value, value_opt, batch, targets)
        new_eps = collector.episode_lengths[before_eps:]
        record = {
            "interval": interval,
            "disc_acc": round(disc_acc, 6),
            "mean_reward": round(float(np.mean([s.reward for s in steps])), 6),
            "mean_penalty": round(float(np.mean([s.penalty for s in steps])), 6),
            "mean_ep_len": round(float(np.mean(new_eps)) if new_eps else 0.0, 6),
        }
        if not (all(map(math.isfinite, (disc_loss, value_loss, *record.values())))
                and all(np.isfinite(net.flat).all()
                        for net in (policy, value, disc))):
            raise FloatingPointError(f"adversarial training went non-finite in "
                                     f"interval {interval}")
        if metrics_sink is not None:
            metrics_sink(record)
    return result


def _load_flat(net, obj, name: str) -> None:
    stored = nn.arr_from_json(obj)
    if stored.shape != net.flat.shape:
        raise ValueError(f"checkpoint {name} holds {stored.size} parameters, "
                         f"the network has {net.flat.size}")
    net.flat[...] = stored


def save_checkpoint(path, result: TrainResult, cfg: TrainConfig) -> None:
    """The bytes of `json.dumps(payload) + "\\n"`, encoded a piece at a time:
    the head fields, then each network, so that only one network's text is
    held at once."""
    head = {
        "format_version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "schema": [[c, k.value] for c, k in result.schema],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1])
        for name in _NETWORKS:
            net = getattr(result, name)
            fh.write(f', "{name}": {json.dumps(nn.arr_to_json(net.flat))}')
        fh.write("}\n")


def load_checkpoint(path) -> tuple[TrainResult, TrainConfig]:
    with open(Path(path)) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{payload.get('format_version')!r}")
    cfg = TrainConfig.from_dict(payload["config"])
    schema = tuple((c, ColumnKind(k)) for c, k in payload["schema"])
    result = _networks(schema, cfg)
    for name in _NETWORKS:
        _load_flat(getattr(result, name), payload[name], name)
    return result, cfg
