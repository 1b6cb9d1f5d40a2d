"""The policy's heads one at a time: the second oracle for `nn.PolicyNet`,
whose heads share one matmul and one segmented softmax.

Every head here has its own logits `feat @ w + b`, its own softmax and
log-softmax, and its own gradient block, computed from its column block of
the head matrix and bias. This is the per-head loop the library ran before
its heads were fused; its sums run in another order, so the library agrees
with it to rounding, not bit for bit.
"""

import numpy as np


def head_views(policy):
    """(weight, bias) column views of each head's block of the head matrix
    and bias, in head order."""
    ends = np.add(policy.starts, policy.head_sizes)
    return [(policy.head_weight[:, a:b], policy.head_bias[a:b])
            for a, b in zip(policy.starts, ends)]


def forward(policy, states):
    """(features, trunk cache, per-head shifted logits, per-head
    normalizers, per-head probabilities)."""
    feat, cache = policy.trunk.forward(np.atleast_2d(states))
    zs, norms, probs = [], [], []
    for w, b in head_views(policy):
        logits = feat @ w + b
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        zs.append(z)
        norms.append(s)
        probs.append(e / s)
    return feat, cache, zs, norms, probs


def logprob(policy, states, head_idx, masks):
    """Joint log-probability of the masked heads, one head at a time."""
    _, _, zs, norms, _ = forward(policy, states)
    batch = np.arange(head_idx.shape[0])
    total = np.zeros(head_idx.shape[0])
    for h, (z, s) in enumerate(zip(zs, norms)):
        logp = z[batch, head_idx[:, h]] - np.log(s)[:, 0]
        total += np.where(masks[:, h], logp, 0.0)
    return total


def backward_logprob(policy, states, head_idx, masks, coeffs):
    """Flat gradient of sum_i coeffs[i] * logprob_i, one head block at a
    time."""
    feat, cache, _, _, probs = forward(policy, states)
    batch = np.arange(head_idx.shape[0])
    grad = np.empty_like(policy.flat)
    dweight = grad[policy.n_trunk:policy.n_trunk + policy.head_weight.size
                   ].reshape(policy.head_weight.shape)
    dbias = grad[-policy.head_bias.size:]
    dfeat = np.zeros_like(feat)
    for h, (p, (w, _)) in enumerate(zip(probs, head_views(policy))):
        cols = slice(policy.starts[h], policy.starts[h] + policy.head_sizes[h])
        dlogits = -p * coeffs[:, None]
        dlogits[batch, head_idx[:, h]] += coeffs
        dlogits *= masks[:, h:h + 1]
        dweight[:, cols] = feat.T @ dlogits
        dbias[cols] = dlogits.sum(axis=0)
        dfeat += dlogits @ w.T
    policy.trunk.backward(cache, dfeat, grad[:policy.n_trunk])
    return grad
