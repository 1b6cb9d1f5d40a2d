"""Small fully-connected networks with hand-written backprop.

Three architectures: a multi-head softmax policy (tanh trunk), a scalar
value net, and a logistic discriminator over state-action vectors. Analytic
gradients are exact; the test suite pins them against central finite
differences. Everything is float64 numpy and deterministic.
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


def init_layer(n_in: int, n_out: int, rng: np.random.Generator):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out)), np.zeros(n_out)


class Mlp:
    """Dense stack; one activation name per layer."""

    def __init__(self, sizes, activations, rng: np.random.Generator | None = None):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        self.sizes = tuple(sizes)
        self.activations = tuple(activations)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(sizes, sizes[1:]):
            if rng is None:
                w, b = np.zeros((n_in, n_out)), np.zeros(n_out)
            else:
                w, b = init_layer(n_in, n_out, rng)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

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

    def backward(self, cache, dout: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output)."""
        grads = [None] * (2 * len(self.weights))
        for layer in range(len(self.weights) - 1, -1, -1):
            h, z, a = cache[layer]
            dz = dout * _act_grad(self.activations[layer], z, a)
            grads[2 * layer] = h.T @ dz
            grads[2 * layer + 1] = dz.sum(axis=0)
            dout = dz @ self.weights[layer].T
        return grads, dout


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
    head; the trunk uses fan-in scaled uniform init.
    """

    def __init__(self, state_dim: int, head_sizes, hidden=(50, 50, 50),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.head_sizes = tuple(head_sizes)
        self.trunk = Mlp((state_dim, *hidden), ("tanh",) * len(hidden), rng)
        feat = hidden[-1]
        self.head_weights = [np.zeros((feat, k)) for k in self.head_sizes]
        self.head_biases = [np.zeros(k) for k in self.head_sizes]

    @property
    def params(self):
        out = list(self.trunk.params)
        for w, b in zip(self.head_weights, self.head_biases):
            out.extend((w, b))
        return out

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
        """Gradient of sum_i coeffs[i] * logprob_i w.r.t. params."""
        states, feat, cache, logits = ctx
        batch = np.arange(head_idx.shape[0])
        head_grads = []
        dfeat = np.zeros_like(feat)
        for h, head_logits in enumerate(logits):
            p = softmax(head_logits)
            dlogits = -p * coeffs[:, None]
            dlogits[batch, head_idx[:, h]] += coeffs
            dlogits *= masks[:, h:h + 1]
            head_grads.extend((feat.T @ dlogits, dlogits.sum(axis=0)))
            dfeat += dlogits @ self.head_weights[h].T
        trunk_grads, _ = self.trunk.backward(cache, dfeat)
        return trunk_grads + head_grads


class ValueNet:
    def __init__(self, state_dim: int, hidden=(50, 50, 50),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.net = Mlp((state_dim, *hidden, 1),
                       ("tanh",) * len(hidden) + ("linear",), rng)

    @property
    def params(self):
        return self.net.params

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
        grads, _ = self.net.backward(cache, dout)
        return loss, grads


class DiscriminatorNet:
    """ReLU net with a clamped logistic output strictly inside (0, 1)."""

    def __init__(self, input_dim: int, hidden=(32, 32),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.net = Mlp((input_dim, *hidden, 1),
                       ("relu",) * len(hidden) + ("linear",), rng)

    @property
    def params(self):
        return self.net.params

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
        grads, _ = self.net.backward(cache, dz[:, None])
        return loss, grads, probs


class Adam:
    """Bias-corrected adaptive-moment optimizer over a fixed param list."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self) -> dict:
        return {"t": self.t,
                "m": [arr_to_json(a) for a in self.m],
                "v": [arr_to_json(a) for a in self.v]}

    def load_state_dict(self, state: dict) -> None:
        self.t = state["t"]
        self.m = [arr_from_json(a) for a in state["m"]]
        self.v = [arr_from_json(a) for a in state["v"]]


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


def get_flat(params) -> np.ndarray:
    return np.concatenate([p.ravel() for p in params])


def set_flat(params, vec: np.ndarray) -> None:
    offset = 0
    for p in params:
        n = p.size
        p[...] = vec[offset:offset + n].reshape(p.shape)
        offset += n


def l2_penalty(params, coeff: float):
    """coeff * squared L2 norm over every parameter, with its gradient."""
    value = coeff * sum(float((p * p).sum()) for p in params)
    grads = [2.0 * coeff * p for p in params]
    return value, grads


def arr_to_json(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def arr_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])
