"""Small fully-connected networks with hand-written backprop.

Three architectures: a multi-head softmax policy (a tanh trunk, then one
matmul and a segmented softmax for all heads), a scalar value net, and a
logistic discriminator over state-action vectors. Each network keeps its
parameters in one float64 vector, `flat`, whose reshaped views are the weight
and bias arrays; gradients, Adam and the L2 term work on whole vectors in the
same order. Analytic gradients are exact; the test suite pins them against
central finite differences. Everything is float64 numpy and deterministic.
"""

from __future__ import annotations

import base64
import math

import numpy as np

LOGIT_CLAMP = 30.0


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0).astype(float)
    return np.ones_like(z)


def _layer_shapes(sizes):
    """Parameter shapes of a dense stack, weight before bias per layer."""
    return [shape for n_in, n_out in zip(sizes, sizes[1:])
            for shape in ((n_in, n_out), (n_out,))]


def _segments(shapes, start: int = 0):
    """(start, stop, shape) of consecutive segments of a flat vector, one per
    shape. Each network builds its table once and cuts every gradient's
    views from it."""
    table = []
    for shape in shapes:
        stop = start + math.prod(shape)
        table.append((start, stop, shape))
        start = stop
    return table


def _views(flat: np.ndarray, segments):
    """Reshaped views of `flat`, one per (start, stop, shape) segment."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in segments]


class Mlp:
    """Dense stack; one activation name per layer.

    Weights and biases are views into one flat vector, `flat`, which is
    allocated here or carved from a caller's larger buffer. Without an rng
    every parameter starts at zero, as in each network built on it.
    """

    def __init__(self, sizes, activations, rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        self.sizes = tuple(sizes)
        self.activations = tuple(activations)
        self.segments = _segments(_layer_shapes(self.sizes))
        self.flat = np.zeros(self.segments[-1][1]) if flat is None else flat
        views = _views(self.flat, self.segments)
        self.weights, self.biases = views[0::2], views[1::2]
        if rng is not None:  # fan-in/fan-out scaled uniform; biases stay 0
            for w in self.weights:
                limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
                w[...] = rng.uniform(-limit, limit, size=w.shape)

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[-1]} != {self.sizes[0]}")
        h = x
        cache = []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = h @ w + b
            a = _act(act, z)
            cache.append((h, z, a))
            h = a
        return h, cache

    def backward(self, cache, dout: np.ndarray, grad: np.ndarray | None = None):
        """Flat gradient of a scalar loss given d(loss)/d(output), written
        into `grad` when given; no caller needs d(loss)/d(input), so it is
        not formed."""
        grad = np.empty_like(self.flat) if grad is None else grad
        views = _views(grad, self.segments)
        for layer in range(len(self.weights) - 1, -1, -1):
            h, z, a = cache[layer]
            dz = dout * _act_grad(self.activations[layer], z, a)
            np.matmul(h.T, dz, out=views[2 * layer])
            dz.sum(axis=0, out=views[2 * layer + 1])
            if layer:
                dout = dz @ self.weights[layer].T
        return grad


class PolicyNet:
    """tanh trunk feeding one linear+softmax head per action component.

    The heads share one (hidden, action_dim) weight matrix and one
    (action_dim,) bias; head h owns the columns from `starts[h]` on, as many
    as `head_sizes[h]`. Head layers start at zero so the untrained policy is
    uniform on every head; the trunk uses fan-in scaled uniform init. `flat`
    holds the trunk parameters, then the head matrix, then the head bias.
    """

    def __init__(self, state_dim: int, head_sizes, hidden,
                 rng: np.random.Generator | None = None):
        self.state_dim = state_dim
        self.head_sizes = tuple(head_sizes)
        self.starts = np.cumsum((0, *self.head_sizes[:-1]))
        trunk_sizes = (state_dim, *hidden)
        self.n_trunk = _segments(_layer_shapes(trunk_sizes))[-1][1]
        self.head_segments = _segments(
            _layer_shapes((hidden[-1], sum(self.head_sizes))), self.n_trunk)
        self.flat = np.zeros(self.head_segments[-1][1])
        self.trunk = Mlp(trunk_sizes, ("tanh",) * len(hidden), rng,
                         self.flat[:self.n_trunk])
        self.head_weight, self.head_bias = _views(self.flat, self.head_segments)

    def forward(self, states: np.ndarray):
        """Per-head probability rows for a batch of states: one (k, size)
        column view per head of one (k, action_dim) softmax matrix.

        One matmul gives every head's logits. Each head's segment is shifted
        by its maximum and divided by its normalizer `s = sum(exp(z))`, both
        taken with `reduceat` over `starts`. The context keeps the shifted
        logits `z` and the (k, heads) normalizers for `logprob`, next to the
        probabilities that `backward_logprob` reads.
        """
        states = np.atleast_2d(states)
        feat, cache = self.trunk.forward(states)
        logits = feat @ self.head_weight + self.head_bias
        z = logits - np.repeat(np.maximum.reduceat(logits, self.starts, axis=1),
                               self.head_sizes, axis=1)
        e = np.exp(z)
        s = np.add.reduceat(e, self.starts, axis=1)
        p = e / np.repeat(s, self.head_sizes, axis=1)
        return np.split(p, self.starts[1:], axis=1), (feat, cache, z, s, p)

    def logprob(self, states: np.ndarray, head_idx: np.ndarray,
                masks: np.ndarray):
        """Joint log-probability of the masked heads, batched.

        head_idx and masks are (B, n_heads); masked-out heads contribute 0.
        """
        _, ctx = self.forward(states)
        _, _, z, s, _ = ctx
        batch = np.arange(head_idx.shape[0])[:, None]
        logp = z[batch, self.starts + head_idx] - np.log(s)
        return np.where(masks, logp, 0.0).sum(axis=1), ctx

    def backward_logprob(self, ctx, head_idx: np.ndarray, masks: np.ndarray,
                         coeffs: np.ndarray):
        """Flat gradient of sum_i coeffs[i] * logprob_i w.r.t. `flat`."""
        feat, cache, _, _, p = ctx
        batch = np.arange(head_idx.shape[0])[:, None]
        dlogits = p * -coeffs[:, None]
        dlogits[batch, self.starts + head_idx] += coeffs[:, None]
        dlogits *= np.repeat(masks, self.head_sizes, axis=1)
        grad = np.empty_like(self.flat)
        dweight, dbias = _views(grad, self.head_segments)
        np.matmul(feat.T, dlogits, out=dweight)
        dlogits.sum(axis=0, out=dbias)
        self.trunk.backward(cache, dlogits @ self.head_weight.T,
                            grad[:self.n_trunk])
        return grad


class ValueNet:
    def __init__(self, state_dim: int, hidden,
                 rng: np.random.Generator | None = None):
        self.net = Mlp((state_dim, *hidden, 1),
                       ("tanh",) * len(hidden) + ("linear",), rng)
        self.flat = self.net.flat

    def forward(self, states: np.ndarray):
        states = np.atleast_2d(states)
        out, cache = self.net.forward(states)
        return out[:, 0], cache

    def td_loss_grads(self, states: np.ndarray, targets: np.ndarray):
        """Mean squared TD error and its semi-gradient (targets held fixed)."""
        v, cache = self.forward(states)
        err = v - targets
        loss = float(np.mean(err * err))
        dout = (2.0 * err / err.shape[0])[:, None]
        grad = self.net.backward(cache, dout)
        return loss, grad


class DiscriminatorNet:
    """ReLU net with a clamped logistic output strictly inside (0, 1)."""

    def __init__(self, input_dim: int, hidden,
                 rng: np.random.Generator | None = None):
        self.net = Mlp((input_dim, *hidden, 1),
                       ("relu",) * len(hidden) + ("linear",), rng)
        self.flat = self.net.flat

    def forward(self, x: np.ndarray):
        x = np.atleast_2d(x)
        logits, cache = self.net.forward(x)
        raw = logits[:, 0]
        clamped = np.clip(raw, -LOGIT_CLAMP, LOGIT_CLAMP)
        probs = 1.0 / (1.0 + np.exp(-clamped))
        return probs, (cache, raw)

    def bce_loss_grads(self, x: np.ndarray, labels: np.ndarray):
        """Binary cross-entropy toward labels in {0, 1} and its gradient.

        The logit clamp passes no gradient outside its range, matching the
        clipped forward exactly.
        """
        probs, (cache, raw) = self.forward(x)
        eps_free = np.clip(probs, 1e-300, 1.0 - 1e-16)
        loss = float(-np.mean(labels * np.log(eps_free)
                              + (1 - labels) * np.log(1 - eps_free)))
        passthrough = (np.abs(raw) < LOGIT_CLAMP).astype(float)
        dz = (probs - labels) * passthrough / labels.shape[0]
        grad = self.net.backward(cache, dz[:, None])
        return loss, grad, probs


class Adam:
    """Bias-corrected adaptive-moment optimizer over one flat vector.

    The step runs in place on two scratch vectors, with the operations of
    the textbook expression in its order, so it allocates nothing per step.
    """

    def __init__(self, flat: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._num = np.empty_like(flat)
        self._den = np.empty_like(flat)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Update `flat` in place, so every view into it sees the step:
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        flat -= lr*(m/b1c) / (sqrt(v/b2c) + eps)."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        v += num
        np.divide(m, b1c, out=num)
        num *= self.lr
        np.divide(v, b2c, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        flat -= num


def sample_action(probs, uniforms: np.ndarray, relevant_by_kind):
    """Sample one index per head for each of k rows from a (k, heads)
    block of uniforms; each row's joint log-prob covers the heads its
    sampled kind actually uses (head 0 is the kind head). `probs` holds one
    (k, size) array per head.

    Row r's head h takes the first index whose running sum of probabilities
    is not <= uniforms[r, h], clamped to the last: `searchsorted(cumsum(p),
    u, "right")`, whose sums add in the same order and whose NaNs sort last,
    worked out on Python floats. Returns the (k, heads) indices and the
    (k,) log-probs.
    """
    n_heads = len(probs)
    rows = [p.tolist() for p in probs]
    indices, chosen = [], []
    for r, us in enumerate(uniforms.tolist()):
        row_indices = []
        for head, u in zip(rows, us):
            p = head[r]
            c = 0.0
            i = 0
            for q in p:
                c += q
                if not c <= u:
                    break
                i += 1
            i = min(i, len(p) - 1)
            row_indices.append(i)
            chosen.append(p[i])
        indices.append(row_indices)
    logs = np.log(chosen).tolist()
    logp = [sum(logs[r * n_heads + h] for h in relevant_by_kind[row[0]])
            for r, row in enumerate(indices)]
    return np.array(indices), np.array(logp)


def l2_penalty(flat: np.ndarray, coeff: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of coeff * ||flat||^2, written into `out` when given."""
    return np.multiply(flat, 2.0 * coeff, out=out)


def arr_to_json(a: np.ndarray) -> dict:
    """`a`'s shape and the base64 text of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(a, "<f8").tobytes()
    return {"shape": list(a.shape), "f8le": base64.b64encode(raw).decode("ascii")}


def arr_from_json(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["f8le"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(obj["shape"])
