"""One-episode-at-a-time rollout code, kept as the oracle that pins
`evaluation.generate_session` and the lockstep `train.RolloutCollector` run
with one lane.

`policy_step` is one policy decision; `RolloutCollector` drives it with a
hand-kept episode state (dataset index, state, cached encoding) that carries
over between collection windows, and `generate_session` drives it in its own
loop. `ReplayBuffer` and the two batch builders draw their samples as the
training loop did, so the new code must make the same rng calls in the same
order. Each decision samples with the reference sampler of `nn_reference`
and encodes its states with `encode_state`, which computes every display's
encoding afresh and neither reads nor fills any cache.

`state_from_history` and `one_hot` are the library's state window and
action encoder as they were, a window rebuilt from the last three displays
and one action's blocks set a head at a time: the oracles of `env.state_vec`
and the batched `env.encode_action`.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

import nn_reference
from autoeda.env import (ACTION_KINDS, HISTORY_WINDOW, N_HEADS, RELEVANT_HEADS,
                         EdaEnv, Trajectory, action_from_heads, action_heads,
                         encode_display, heads_from_action)
from autoeda.tabular import column_histogram
from autoeda.train import imitation_reward, incoherence_penalty


def encode(display):
    """`env.encode_display` of `display` over its own dataset, computed."""
    base = display.dataset
    vec = np.zeros(4 * len(base.columns) + 3)
    n = base.row_count
    g = display.grouping
    entropy = display.entropy_bits() if n and display.row_count else None
    for i, (col, _) in enumerate(base.columns):
        if g is not None:
            vec[4 * i + 3] = 1.0 if col == g.agg_col else 0.5 if col == g.grp_col else 0.0
        if n == 0 or display.row_count == 0:
            continue
        codes, _, nulls = display.column_stats(i)
        bits = entropy[i] if len(codes) else None
        if g is not None and col == g.grp_col:  # k groups, 1/k each
            k = len(column_histogram(display, col))
            share = 1.0 / k
            bits = -float(np.cumsum(np.full(k, share * math.log2(share)))[-1])
        if bits is not None:
            vec[4 * i] = min(1.0, bits / math.log2(max(2, base.distinct_count(i))))
        vec[4 * i + 1] = len(codes) / n
        vec[4 * i + 2] = nulls / n
    if g is not None and display.group_count > 0 and n > 0:
        sizes = np.asarray(display.group_sizes, dtype=float)
        vec[-3] = display.group_count / n
        vec[-2] = float(sizes.mean()) / n
        vec[-1] = float(sizes.var()) / (n * n)
    return vec


def state_from_history(history):
    """Concatenate encodings of the last three displays, zero-padded on the left."""
    recent = [encode_display(d, d.dataset) for d in history[-HISTORY_WINDOW:]]
    pad = np.zeros((HISTORY_WINDOW - len(recent)) * len(recent[0]))
    return np.concatenate([pad, *recent])


def one_hot(heads, layout):
    """One-hot blocks per head of one action's head values; heads unused by
    the kind in head 0 stay zero."""
    vec = np.zeros(layout.action_dim)
    offset = 0
    relevant = RELEVANT_HEADS[heads[0]]
    for h, size in enumerate(layout.sizes):
        if h in relevant:
            vec[offset + heads[h]] = 1.0
        offset += size
    return vec


def head_mask(kind):
    """The heads an action of `kind` uses, as each step once carried them."""
    mask = np.zeros(N_HEADS, dtype=bool)
    mask[list(RELEVANT_HEADS[ACTION_KINDS.index(kind)])] = True
    return mask


def step_mask(step):
    """A transition's own mask, or an expert step's from its kind head."""
    if isinstance(step, Transition):
        return step.mask
    return head_mask(ACTION_KINDS[int(step.heads[0])])


def encode_state(state):
    recent = [encode(d) for d in state.history[-HISTORY_WINDOW:]]
    pad = np.zeros((HISTORY_WINDOW - len(recent)) * len(recent[0]))
    return np.concatenate([pad, *recent])


def policy_step(policy, env, state, rng=None, svec=None):
    """(state vector, heads, log-prob, action, next state) of one decision."""
    if svec is None:
        svec = encode_state(state)
    probs, _ = policy.forward(svec.reshape(1, -1))
    dists = [p[0] for p in probs]
    if rng is None:
        heads, logp = tuple(int(np.argmax(p)) for p in dists), None
    else:
        heads, logp = nn_reference.sample_action(dists, rng, RELEVANT_HEADS)
    action = action_from_heads(action_heads(heads, state.current), state.current)
    return svec, heads, logp, action, env.step(state, action)


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
    def __init__(self, capacity):
        self._items = deque(maxlen=capacity)

    def add(self, item):
        self._items.append(item)

    def sample(self, rng, k):
        idx = rng.choice(len(self._items), size=k, replace=len(self._items) < k)
        return [self._items[int(i)] for i in idx]

    def __len__(self):
        return len(self._items)


class RolloutCollector:
    def __init__(self, datasets, layout, cfg, rng):
        self.envs = [EdaEnv(ds, cfg.horizon) for ds in datasets]
        self.layout = layout
        self.cfg = cfg
        self.rng = rng
        self._env_idx = 0
        self._env = self.envs[0]
        self._state = self._env.reset()
        self._svec = None
        self.episode_lengths = []

    def _next_episode(self):
        self._env_idx = (self._env_idx + 1) % len(self.envs)
        self._env = self.envs[self._env_idx]
        self._state = self._env.reset()
        self._svec = None

    def collect(self, policy, disc, n_steps, buffer):
        out = []
        cfg = self.cfg
        for _ in range(n_steps):
            env, state = self._env, self._state
            svec, heads, logp, action, new_state = policy_step(
                policy, env, state, self.rng, self._svec)
            avec = one_hot(heads_from_action(action, state.current,
                                             self.layout),
                           self.layout)
            penalty = 0.0
            if cfg.penalty_enabled:
                penalty = incoherence_penalty(new_state.action_history)
            d_prob, _ = disc.forward(np.concatenate([svec, avec]).reshape(1, -1))
            reward = imitation_reward(float(d_prob[0]), penalty)
            next_svec = encode_state(new_state)
            tr = Transition(
                state=svec, heads=np.asarray(heads), mask=head_mask(action.kind),
                action_vec=avec, reward=reward, penalty=penalty,
                next_state=next_svec, done=new_state.done, logprob=logp)
            buffer.add(tr)
            out.append(tr)
            if new_state.done:
                self.episode_lengths.append(len(new_state.action_history))
                self._next_episode()
            else:
                self._state, self._svec = new_state, next_svec
        return out


def generate_session(policy, dataset, horizon=12, mode="greedy", rng=None):
    env = EdaEnv(dataset, horizon)
    state = env.reset()
    while not state.done:
        *_, state = policy_step(policy, env, state,
                                rng if mode == "sample" else None)
    return Trajectory(dataset.name, state.action_history)


def update_discriminator(disc, opt, buffer, expert_steps, cfg, rng):
    half = min(cfg.batch_disc // 2, len(buffer), len(expert_steps))
    gen = buffer.sample(rng, half)
    exp_idx = rng.choice(len(expert_steps), size=half,
                         replace=len(expert_steps) < half)
    exp = [expert_steps[int(i)] for i in exp_idx]
    x = np.stack([np.concatenate([t.state, t.action_vec]) for t in gen]
                 + [np.concatenate([e.state, e.action_vec]) for e in exp])
    labels = np.concatenate([np.zeros(half), np.ones(half)])
    loss, grad, probs = disc.bce_loss_grads(x, labels)
    opt.step(disc.flat, grad)
    acc = 0.5 * (float(np.mean(probs[:half] < 0.5))
                 + float(np.mean(probs[half:] > 0.5)))
    return loss, acc


def assemble_mixed_batch(buffer, expert_steps, policy, disc, cfg, rng):
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
    masks = np.stack([step_mask(t) for t in gen + exp])
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
                                     np.stack([step_mask(e) for e in exp]))
        old_logp.extend(float(v) for v in exp_logp)
    return {"states": states, "heads": heads, "masks": masks,
            "rewards": np.asarray(rewards), "next_states": next_states,
            "dones": dones, "old_logp": np.asarray(old_logp)}
