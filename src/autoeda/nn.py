"""Small fully-connected networks with hand-written backprop.

Three architectures: a multi-head softmax policy (tanh trunk), a scalar
value net, and a logistic discriminator over state-action vectors. Each
network keeps its parameters in one float64 vector, `flat`, whose reshaped
views are the weight and bias arrays; gradients, Adam and the L2 term work on
whole vectors in the same order. Analytic gradients are exact; the test suite
pins them against central finite differences. Everything is float64 numpy and
deterministic.
"""

from __future__ import annotations

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


def _split(flat: np.ndarray, shapes):
    """Reshaped views of consecutive segments of `flat`, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        views.append(flat[offset:offset + n].reshape(shape))
        offset += n
    return views


def _size(shapes) -> int:
    return sum(int(np.prod(shape)) for shape in shapes)


class Mlp:
    """Dense stack; one activation name per layer.

    Weights and biases are views into one flat vector, `flat`, which is
    allocated here or carved from a caller's larger buffer.
    """

    def __init__(self, sizes, activations, rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        self.sizes = tuple(sizes)
        self.activations = tuple(activations)
        self.shapes = _layer_shapes(self.sizes)
        self.flat = np.zeros(_size(self.shapes)) if flat is None else flat
        views = _split(self.flat, self.shapes)
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
        into `grad` when given, and d(loss)/d(input)."""
        grad = np.empty_like(self.flat) if grad is None else grad
        views = _split(grad, self.shapes)
        for layer in range(len(self.weights) - 1, -1, -1):
            h, z, a = cache[layer]
            dz = dout * _act_grad(self.activations[layer], z, a)
            np.matmul(h.T, dz, out=views[2 * layer])
            dz.sum(axis=0, out=views[2 * layer + 1])
            dout = dz @ self.weights[layer].T
        return grad, dout


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class PolicyNet:
    """tanh trunk feeding one linear+softmax head per action component.

    Head layers start at zero so the untrained policy is uniform on every
    head; the trunk uses fan-in scaled uniform init. `flat` holds the trunk
    parameters, then each head's weight and bias.
    """

    def __init__(self, state_dim: int, head_sizes, hidden=(50, 50, 50),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.head_sizes = tuple(head_sizes)
        trunk_sizes = (state_dim, *hidden)
        self.head_shapes = [shape for k in self.head_sizes
                            for shape in ((hidden[-1], k), (k,))]
        self.n_trunk = _size(_layer_shapes(trunk_sizes))
        self.flat = np.zeros(self.n_trunk + _size(self.head_shapes))
        self.trunk = Mlp(trunk_sizes, ("tanh",) * len(hidden), rng,
                         self.flat[:self.n_trunk])
        heads = _split(self.flat[self.n_trunk:], self.head_shapes)
        self.head_weights, self.head_biases = heads[0::2], heads[1::2]

    def forward(self, states: np.ndarray):
        """Per-head probability rows for a batch of states."""
        states = np.atleast_2d(states)
        feat, cache = self.trunk.forward(states)
        logits = [feat @ w + b for w, b in zip(self.head_weights, self.head_biases)]
        probs = [softmax(l) for l in logits]
        return probs, (states, feat, cache, logits)

    def head_probs(self, state: np.ndarray):
        probs, _ = self.forward(state.reshape(1, -1))
        return [p[0] for p in probs]

    def logprob(self, states: np.ndarray, head_idx: np.ndarray,
                masks: np.ndarray):
        """Joint log-probability of the masked heads, batched.

        head_idx and masks are (B, n_heads); masked-out heads contribute 0.
        """
        probs, ctx = self.forward(states)
        _, _, _, logits = ctx
        batch = np.arange(head_idx.shape[0])
        total = np.zeros(head_idx.shape[0])
        for h, head_logits in enumerate(logits):
            logp = log_softmax(head_logits)[batch, head_idx[:, h]]
            total += np.where(masks[:, h], logp, 0.0)
        return total, ctx

    def backward_logprob(self, ctx, head_idx: np.ndarray, masks: np.ndarray,
                         coeffs: np.ndarray):
        """Flat gradient of sum_i coeffs[i] * logprob_i w.r.t. `flat`."""
        states, feat, cache, logits = ctx
        batch = np.arange(head_idx.shape[0])
        grad = np.empty_like(self.flat)
        head_grads = _split(grad[self.n_trunk:], self.head_shapes)
        dfeat = np.zeros_like(feat)
        for h, head_logits in enumerate(logits):
            p = softmax(head_logits)
            dlogits = -p * coeffs[:, None]
            dlogits[batch, head_idx[:, h]] += coeffs
            dlogits *= masks[:, h:h + 1]
            np.matmul(feat.T, dlogits, out=head_grads[2 * h])
            dlogits.sum(axis=0, out=head_grads[2 * h + 1])
            dfeat += dlogits @ self.head_weights[h].T
        self.trunk.backward(cache, dfeat, grad[:self.n_trunk])
        return grad


class ValueNet:
    def __init__(self, state_dim: int, hidden=(50, 50, 50),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
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
        grad, _ = self.net.backward(cache, dout)
        return loss, grad


class DiscriminatorNet:
    """ReLU net with a clamped logistic output strictly inside (0, 1)."""

    def __init__(self, input_dim: int, hidden=(32, 32),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
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

    def prob(self, x: np.ndarray) -> float:
        p, _ = self.forward(x.reshape(1, -1))
        return float(p[0])

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
        grad, _ = self.net.backward(cache, dz[:, None])
        return loss, grad, probs


class Adam:
    """Bias-corrected adaptive-moment optimizer over one flat vector."""

    def __init__(self, flat: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Update `flat` in place, so every view into it sees the step."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def sample_action(dists, rng: np.random.Generator, relevant_by_kind):
    """Sample one index per head; joint log-prob over the heads the sampled
    kind actually uses (head 0 is the kind head)."""
    indices = []
    for p in dists:
        u = rng.random()
        indices.append(int(np.searchsorted(np.cumsum(p), u, side="right")
                           .clip(0, len(p) - 1)))
    relevant = relevant_by_kind[indices[0]]
    logp = sum(float(np.log(dists[h][indices[h]])) for h in relevant)
    return tuple(indices), logp


def greedy_action(dists):
    return tuple(int(np.argmax(p)) for p in dists)


def l2_penalty(flat: np.ndarray, coeff: float) -> np.ndarray:
    """Gradient of coeff * ||flat||^2."""
    return 2.0 * coeff * flat


def arr_to_json(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def arr_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])
