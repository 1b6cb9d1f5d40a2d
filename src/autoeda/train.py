"""Training pipeline: behavioral-cloning warm start, adversarial reward
from a discriminator, incoherence penalties, and clipped policy updates.

The per-step reward is -log(1 - D(s, a)) plus a penalty that punishes three
degenerate habits: opening with BACK, repeating an action verbatim, and
ping-ponging between BACK and FILTER/GROUP.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import nn
from .env import (DEFAULT_HORIZON, DEFAULT_TERM_BINS, HEAD_MASKS, N_HEADS,
                  EdaEnv, HeadLayout, Step, decide, encode_action, replay,
                  state_vec)
from .tabular import ColumnKind, is_finite_number, is_int

CHECKPOINT_VERSION = 6
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
# ticks one part of a collector may run ahead of the counts it has read from
# the other part
_LAG = 4096


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


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
    restarts on the next training dataset, round-robin in lane order, and
    an episode runs on across collection windows.

    A step's state vectors follow the one window rule (`env.state_vec`).
    Its heads are the sampled ones, whose log-prob PPO's ratio needs; its
    action vector is a row of the tick's `encode_action` of the head values
    its action uses, as `decide` returns them.

    The lanes are stepped in two parts when the process can fork and may
    run on at least two CPUs: building the collector forks a worker, which
    steps lanes LANES // 2 on until `close`, and this process steps the
    others. Otherwise this process steps every lane. The steps are the same
    either way, bit for bit:
    - a window draws its uniforms as one (n, N_HEADS) block, the values and
      final rng state of per-tick draws, and sends them to the worker with
      the policy and discriminator parameters;
    - each part runs a tick's policy and discriminator forwards on the
      tick's whole batch, the other part's rows zero, because a row's bits
      depend on the batch's shape, and reads back its own rows;
    - after each tick each part sends the other how many of its lanes
      finished, because the next episode to start takes the next dataset
      of the cycle; a finished lane restarts at the next tick, and a part
      waits for the other's counts only then;
    - at the end of a window the worker sends its steps as arrays, and this
      process rebuilds them as `Step`s whose state is the lane's previous
      next state, as in one process.

    The worker is forked, not spawned. A spawned worker would start an
    interpreter and re-import numpy and autoeda, about 107 ms on a 2-core
    VM, more than half of the 197 ms that one process takes for 4096
    interactions on three 1000-row tables, and then have to be sent the
    datasets and lanes; a fork shares them copy-on-write in about 0.7 ms.
    The fork happens before any rollout, in a process that starts no
    threads of its own (under `--deterministic` BLAS runs one thread).
    """

    def __init__(self, policy: nn.PolicyNet, datasets, layout: HeadLayout,
                 cfg: TrainConfig, rng: np.random.Generator):
        self.policy = policy
        self.layout = layout
        self.cfg = cfg
        self.rng = rng
        self.episode_lengths: list[int] = []
        self._envs = [EdaEnv(ds, cfg.horizon) for ds in datasets]
        self._started = 0    # episodes started, in every lane
        lanes = [self._start() for _ in range(LANES)]
        self._first = 0      # the first lane this process steps
        self._finished = []  # positions in _lanes that finished at the last tick
        self._ticks = 0      # ticks stepped
        self._heard = 0      # ticks whose count from the other part is in _started
        self._pid = None     # the worker's, in the process that forked it
        self._inbox = self._outbox = None
        if LANES > 1 and hasattr(os, "fork") and _cpus() >= 2:
            self._fork(lanes)
        else:
            self._lanes = lanes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """End the worker, if there is one, and close the pipes to it."""
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        os.kill(pid, signal.SIGKILL)  # it holds nothing that needs a clean exit
        os.waitpid(pid, 0)
        self._inbox.close()
        with contextlib.suppress(BrokenPipeError):  # bytes left by a failed send
            self._outbox.close()

    def _fork(self, lanes) -> None:
        half = LANES // 2
        down, up = os.pipe(), os.pipe()  # (read, write) to the worker and back
        pid = os.fork()
        if pid == 0:  # the worker, which never returns
            status = 1
            try:
                os.close(down[1])
                os.close(up[0])
                self._inbox, self._outbox = open(down[0], "rb"), open(up[1], "wb")
                self._first, self._lanes = half, lanes[half:]
                self._serve()
                status = 0
            except Exception:
                import traceback
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(down[0])
        os.close(up[1])
        self._pid = pid
        self._inbox, self._outbox = open(up[0], "rb"), open(down[1], "wb")
        self._lanes = lanes[:half]
        # the state vector of each of the worker's lanes, as of the last window
        self._theirs = [svec for _, _, svec in lanes[half:]]

    def _start(self):
        """(env, state, state vector) of a new episode on the next dataset."""
        env = self._envs[self._started % len(self._envs)]
        self._started += 1
        state = env.reset()
        return env, state, state_vec(state)

    def _send(self, message) -> None:
        pickle.dump(message, self._outbox, pickle.HIGHEST_PROTOCOL)
        self._outbox.flush()

    def _tell(self, finished: int) -> None:
        """End a tick: send the other part, if any, how many lanes finished."""
        self._ticks += 1
        if self._outbox is not None:
            self._outbox.write(bytes((finished,)))
            self._outbox.flush()

    def _hear(self, ticks: int) -> None:
        """Add to `_started` the episodes that the other part, if any,
        starts in the lanes it finished at its first `ticks` ticks."""
        if self._inbox is None or self._heard >= ticks:
            return
        counts = self._inbox.read(ticks - self._heard)
        if len(counts) < ticks - self._heard:
            raise EOFError("the other part of the collector ended")
        self._started += sum(counts)
        self._heard = ticks

    def _restart(self) -> list[np.ndarray]:
        """Start new episodes in the lanes that finished at the last tick,
        each on the dataset after those of every episode that a lane before
        it started: the other part's finished lanes of the earlier ticks
        come first, and of the last tick too when its lanes come first.
        Returns the new episodes' state vectors."""
        if not self._finished:
            return []
        self._hear(self._ticks - (self._first == 0))
        started = []
        for i in self._finished:
            self._lanes[i] = lane = self._start()
            started.append(lane[2])
        self._finished = []
        return started

    def _tick(self, disc: nn.DiscriminatorNet, uniforms: np.ndarray) -> list:
        """Step this process's lanes among the tick's first len(uniforms);
        each step with the length of the episode it finishes, or 0."""
        k = len(uniforms)
        # so neither pipe fills, however long the episodes run
        self._hear(self._ticks - _LAG)
        lanes = self._lanes[:max(0, k - self._first)]
        if not lanes:
            self._tell(0)
            return []
        mine = slice(self._first, self._first + len(lanes))
        svecs = np.zeros((k, self.layout.state_dim))
        svecs[mine] = [svec for _, _, svec in lanes]
        heads, used, logps, actions = decide(
            self.policy, svecs, [state.current for _, state, _ in lanes],
            uniforms[mine], mine)
        # the discriminator sees the heads each action uses, as for expert
        # steps
        avecs = encode_action(np.array(used), self.layout)
        steps = []
        for i, (action, logp) in enumerate(zip(actions, logps.tolist())):
            env, state, svec = lanes[i]
            next_state = env.step(state, action)
            next_svec = state_vec(next_state, svec)
            step = Step(state=svec, heads=heads[i], action_vec=avecs[i],
                        next_state=next_svec, done=next_state.done,
                        logprob=logp)
            if self.cfg.penalty_enabled:
                step.penalty = incoherence_penalty(next_state.action_history)
            if next_state.done:
                steps.append((step, len(next_state.action_history)))
                self._finished.append(i)
            else:
                steps.append((step, 0))
                self._lanes[i] = env, next_state, next_svec
        self._tell(len(self._finished))
        x = np.zeros((k, svecs.shape[1] + avecs.shape[1]))
        x[mine] = np.concatenate([svecs[mine], avecs], axis=1)
        d_probs, _ = disc.forward(x)
        for (step, _), d_prob in zip(steps, d_probs[mine].tolist()):
            step.reward = imitation_reward(d_prob, step.penalty)
        return steps

    def _window(self, disc: nn.DiscriminatorNet, uniforms: np.ndarray):
        """This process's steps of a window of len(uniforms) steps, tick by
        tick, and the state vectors of the episodes its lanes started."""
        ticks, started = [], []
        for start in range(0, len(uniforms), LANES):
            started += self._restart()
            ticks.append(self._tick(disc, uniforms[start:start + LANES]))
        started += self._restart()
        self._hear(self._ticks)
        return ticks, started

    def _serve(self) -> None:
        """The worker: one window per message, until the pipe closes."""
        disc = None
        while True:
            try:
                flat, sizes, disc_flat, uniforms = pickle.load(self._inbox)
            except EOFError:
                return
            self.policy.flat[...] = flat
            if disc is None or disc.net.sizes != sizes:
                disc = nn.DiscriminatorNet(sizes[0], sizes[1:-1])
            disc.flat[...] = disc_flat
            ticks, started = self._window(disc, uniforms)
            pairs = [pair for tick in ticks for pair in tick]
            steps = [step for step, _ in pairs]
            self._send({
                "heads": np.array([s.heads for s in steps]),
                "action_vec": np.array([s.action_vec for s in steps]),
                "next_state": np.array([s.next_state for s in steps]),
                "kept": [s.next_state is s.state for s in steps],
                **{name: [getattr(s, name) for s in steps]
                   for name in ("done", "penalty", "reward", "logprob")},
                "length": [length for _, length in pairs],
                "started": np.array(started)})

    def _rebuild(self, n_steps: int, ticks, theirs: dict) -> list:
        """Each tick's steps of this process followed by the worker's,
        rebuilt from the arrays it sent: a rebuilt step's state is its
        lane's previous next state, or the state vector its episode started
        in, and a next state the worker's step kept (STOP's) is its state,
        as in one process."""
        half = len(self._lanes)
        j = r = 0
        for start, tick in zip(range(0, n_steps, LANES), ticks):
            for lane in range(min(LANES, n_steps - start) - half):
                state = self._theirs[lane]
                next_state = (state if theirs["kept"][j]
                              else theirs["next_state"][j])
                step = Step(state=state, heads=theirs["heads"][j],
                            action_vec=theirs["action_vec"][j],
                            next_state=next_state, done=theirs["done"][j],
                            penalty=theirs["penalty"][j],
                            reward=theirs["reward"][j],
                            logprob=theirs["logprob"][j])
                if step.done:
                    self._theirs[lane] = theirs["started"][r]
                    r += 1
                else:
                    self._theirs[lane] = next_state
                tick.append((step, theirs["length"][j]))
                j += 1
        return ticks

    def collect(self, disc: nn.DiscriminatorNet, n_steps: int,
                buffer: deque) -> list[Step]:
        """The next `n_steps` steps with rewards from the current
        discriminator; appends them to the buffer and returns them. Each
        tick steps the first min(LANES, steps left) lanes with one policy
        and one discriminator forward in each part."""
        uniforms = self.rng.random((n_steps, N_HEADS))
        try:
            if self._pid is not None:
                self._send((self.policy.flat, disc.net.sizes, disc.flat,
                            uniforms))
            ticks, _ = self._window(disc, uniforms)
            if self._pid is not None:
                ticks = self._rebuild(n_steps, ticks, pickle.load(self._inbox))
        except (EOFError, BrokenPipeError) as exc:
            raise RuntimeError(f"the rollout worker (pid {self._pid}) "
                               f"ended") from exc
        out = []
        for tick in ticks:
            for step, length in tick:
                out.append(step)
                if step.done:
                    self.episode_lengths.append(length)
        buffer.extend(out)
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
    update_rng = derive_rng(cfg.seed, STREAM_UPDATE)
    policy_opt = nn.Adam(policy.flat, cfg.lr_adv)
    value_opt = nn.Adam(value.flat, cfg.lr_adv)
    disc_opt = nn.Adam(disc.flat, cfg.lr_adv)
    with RolloutCollector(policy, datasets, layout, cfg,
                          derive_rng(cfg.seed, STREAM_ROLLOUT)) as collector:
        starts = range(0, cfg.total_interactions, cfg.train_interval)
        for interval, start in enumerate(starts, start=1):
            n = min(cfg.train_interval, cfg.total_interactions - start)
            before_eps = len(collector.episode_lengths)
            steps = collector.collect(disc, n, buffer)
            disc_loss, disc_acc = update_discriminator(
                disc, disc_opt, buffer, expert_steps, cfg, update_rng)
            batch = assemble_mixed_batch(buffer, expert_steps, policy, disc,
                                         cfg, update_rng)
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
            if not (all(map(math.isfinite,
                            (disc_loss, value_loss, *record.values())))
                    and all(np.isfinite(net.flat).all()
                            for net in (policy, value, disc))):
                raise FloatingPointError(f"adversarial training went "
                                         f"non-finite in interval {interval}")
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
    """`json.dumps(payload) + "\\n"`, written to `.<name>.partial` beside
    `path` and renamed onto it: `path` holds its old bytes or the whole new
    checkpoint, never a part, and a failed save leaves no partial file."""
    path = Path(path)
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "schema": [[c, k.value] for c, k in result.schema],
        **{name: nn.arr_to_json(getattr(result, name).flat)
           for name in _NETWORKS},
    }
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "w") as fh:
            fh.write(json.dumps(payload) + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


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
