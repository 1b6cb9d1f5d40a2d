"""The policy training step as written before it kept its softmax
normalizers, built its gradient views once and ran Adam in place: the oracle
that the library's step must match bit for bit.

Here every backward cuts its gradient views with a per-call `np.prod`,
`backward_logprob` recomputes the softmax, `logprob` runs its own
log-softmax, Adam allocates its temporaries and the L2 term is
`2.0 * coeff * flat`. The policy's heads are one matmul, as in the library,
and each head's softmax takes its maximum and its sum with the library's
`reduceat` over the head's columns, so the sums add in the same order; the
one-head-at-a-time arithmetic is the other oracle, in heads_reference.py,
which agrees to rounding. The functions carry the signatures of the `nn`
methods they stand for; `installed()` puts them in place of those methods,
so a test can run the training functions of `autoeda.train` on the
reference arithmetic. `sample_action` is the sampler as it was before it
walked each head's probabilities on Python floats: one `rng.random()`,
`cumsum` and `searchsorted` per head.
"""

import contextlib

import numpy as np

from autoeda import nn
from autoeda.env import RELEVANT_HEADS


def _split(flat, shapes):
    views, offset = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        views.append(flat[offset:offset + n].reshape(shape))
        offset += n
    return views


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_backward(self, cache, dout, grad=None):
    shapes = [shape for n_in, n_out in zip(self.sizes, self.sizes[1:])
              for shape in ((n_in, n_out), (n_out,))]
    grad = np.empty_like(self.flat) if grad is None else grad
    views = _split(grad, shapes)
    for layer in range(len(self.weights) - 1, -1, -1):
        h, z, a = cache[layer]
        if self.activations[layer] == "tanh":
            act_grad = 1.0 - a * a
        elif self.activations[layer] == "relu":
            act_grad = (z > 0).astype(float)
        else:
            act_grad = np.ones_like(z)
        dz = dout * act_grad
        np.matmul(h.T, dz, out=views[2 * layer])
        dz.sum(axis=0, out=views[2 * layer + 1])
        dout = dz @ self.weights[layer].T
    return grad  # the input's gradient, dout, was formed and dropped


def _head_columns(self):
    """The first column of each head and each column's head."""
    starts = np.cumsum((0, *self.head_sizes[:-1]))
    return starts, np.repeat(np.arange(len(self.head_sizes)), self.head_sizes)


def segmented_softmax(self, logits):
    starts, head_of = _head_columns(self)
    z = logits - np.maximum.reduceat(logits, starts, axis=1)[:, head_of]
    e = np.exp(z)
    return e / np.add.reduceat(e, starts, axis=1)[:, head_of]


def segmented_log_softmax(self, logits):
    starts, head_of = _head_columns(self)
    z = logits - np.maximum.reduceat(logits, starts, axis=1)[:, head_of]
    return z - np.log(np.add.reduceat(np.exp(z), starts, axis=1))[:, head_of]


def policy_forward(self, states):
    states = np.atleast_2d(states)
    feat, cache = self.trunk.forward(states)
    logits = feat @ self.head_weight + self.head_bias
    p = segmented_softmax(self, logits)
    starts, _ = _head_columns(self)
    return np.split(p, starts[1:], axis=1), (states, feat, cache, logits)


def policy_logprob(self, states, head_idx, masks):
    _, ctx = self.forward(states)
    _, _, _, logits = ctx
    starts, _ = _head_columns(self)
    batch = np.arange(head_idx.shape[0])[:, None]
    logp = segmented_log_softmax(self, logits)[batch, starts + head_idx]
    return np.where(masks, logp, 0.0).sum(axis=1), ctx


def policy_backward_logprob(self, ctx, head_idx, masks, coeffs):
    _, feat, cache, logits = ctx
    starts, head_of = _head_columns(self)
    batch = np.arange(head_idx.shape[0])[:, None]
    dlogits = -segmented_softmax(self, logits) * coeffs[:, None]
    dlogits[batch, starts + head_idx] += coeffs[:, None]
    dlogits *= masks[:, head_of]
    head_shapes = [self.head_weight.shape, self.head_bias.shape]
    grad = np.empty_like(self.flat)
    dweight, dbias = _split(grad[self.n_trunk:], head_shapes)
    np.matmul(feat.T, dlogits, out=dweight)
    dlogits.sum(axis=0, out=dbias)
    self.trunk.backward(cache, dlogits @ self.head_weight.T,
                        grad[:self.n_trunk])
    return grad


def adam_step(self, flat, grad):
    self.t += 1
    b1c = 1.0 - self.beta1 ** self.t
    b2c = 1.0 - self.beta2 ** self.t
    self.m *= self.beta1
    self.m += (1.0 - self.beta1) * grad
    self.v *= self.beta2
    self.v += (1.0 - self.beta2) * grad * grad
    flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def l2_penalty(flat, coeff):
    return 2.0 * coeff * flat


REFERENCE_METHODS = (
    (nn.Mlp, "backward", mlp_backward),
    (nn.PolicyNet, "forward", policy_forward),
    (nn.PolicyNet, "logprob", policy_logprob),
    (nn.PolicyNet, "backward_logprob", policy_backward_logprob),
    (nn.Adam, "step", adam_step),
)


@contextlib.contextmanager
def installed():
    """The reference methods in place of the library's, while open."""
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in REFERENCE_METHODS]
    for owner, name, fn in REFERENCE_METHODS:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def masks_of(steps):
    """The (steps, heads) mask of the heads each step's kind uses, read off
    RELEVANT_HEADS one step at a time."""
    return np.array([[h in RELEVANT_HEADS[int(s.heads[0])]
                      for h in range(len(s.heads))] for s in steps])


def bc_pretrain(policy, expert_steps, cfg, rng):
    """`train.bc_pretrain` as it was; run it inside `installed()`."""
    states = np.stack([s.state for s in expert_steps])
    heads = np.stack([s.heads for s in expert_steps])
    masks = masks_of(expert_steps)
    n = len(expert_steps)
    opt = nn.Adam(policy.flat, cfg.lr_bc)
    history = []
    for _ in range(cfg.bc_epochs):
        perm = rng.permutation(n)
        total_nll = 0.0
        for start in range(0, n, cfg.bc_batch):
            idx = perm[start:start + cfg.bc_batch]
            logp, ctx = policy.logprob(states[idx], heads[idx], masks[idx])
            batch = len(idx)
            grad = policy.backward_logprob(ctx, heads[idx], masks[idx],
                                           np.full(batch, -1.0 / batch))
            grad += l2_penalty(policy.flat, cfg.l2_coeff)
            opt.step(policy.flat, grad)
            total_nll += float(-logp.sum())
        history.append(total_nll / n)
    return history


def sample_action(dists, rng, relevant_by_kind):
    indices = []
    for p in dists:
        u = rng.random()
        indices.append(int(np.searchsorted(np.cumsum(p), u, side="right")
                           .clip(0, len(p) - 1)))
    relevant = relevant_by_kind[indices[0]]
    logp = sum(float(np.log(dists[h][indices[h]])) for h in relevant)
    return tuple(indices), logp
