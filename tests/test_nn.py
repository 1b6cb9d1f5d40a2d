import math

import numpy as np
import pytest

from autoeda import nn
from autoeda.env import RELEVANT_HEADS


def fd_gradient(params, loss_fn, h=1e-5):
    """Central finite differences over every parameter coordinate."""
    flat = nn.get_flat(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        nn.set_flat(params, flat)
        hi = loss_fn()
        flat[i] = orig - h
        nn.set_flat(params, flat)
        lo = loss_fn()
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    nn.set_flat(params, flat)
    return grad


def assert_close_grads(analytic, numeric, rtol=1e-4, atol=1e-7):
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = np.max(err - bound)
    assert worst <= 0, f"gradient mismatch by {worst:.3e}"


def random_policy(rng, state_dim=6, hidden=(8, 7), heads=(4, 3, 5, 5, 4)):
    policy = nn.PolicyNet(state_dim, heads, hidden, rng)
    # randomize the zero-initialized heads so gradients are generic
    for w, b in zip(policy.head_weights, policy.head_biases):
        w += rng.normal(scale=0.3, size=w.shape)
        b += rng.normal(scale=0.1, size=b.shape)
    return policy


# ---------------------------------------------------------------------------
# forward passes

def test_policy_zero_heads_uniform():
    policy = nn.PolicyNet(5, (4, 3), (6, 6), np.random.default_rng(0))
    probs, _ = policy.forward(np.ones((2, 5)))
    assert np.allclose(probs[0], 0.25)
    assert np.allclose(probs[1], 1 / 3)


def test_policy_heads_sum_to_one():
    rng = np.random.default_rng(1)
    policy = random_policy(rng)
    probs, _ = policy.forward(rng.normal(size=(10, 6)))
    for p in probs:
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_policy_pinned_toy_forward_matches_hand_computation():
    policy = nn.PolicyNet(2, (2,), (2,), np.random.default_rng(0))
    policy.trunk.weights[0][...] = [[0.5, -0.25], [0.1, 0.3]]
    policy.trunk.biases[0][...] = [0.05, -0.1]
    policy.head_weights[0][...] = [[1.0, -1.0], [0.5, 0.25]]
    policy.head_biases[0][...] = [0.0, 0.2]
    x = np.array([0.4, -0.6])
    h1 = math.tanh(0.4 * 0.5 + (-0.6) * 0.1 + 0.05)
    h2 = math.tanh(0.4 * -0.25 + (-0.6) * 0.3 - 0.1)
    z1 = h1 * 1.0 + h2 * 0.5 + 0.0
    z2 = h1 * -1.0 + h2 * 0.25 + 0.2
    e1, e2 = math.exp(z1), math.exp(z2)
    expected = (e1 / (e1 + e2), e2 / (e1 + e2))
    probs = policy.head_probs(x)
    assert probs[0] == pytest.approx(expected)


def test_value_zero_net_is_bias_path():
    value = nn.ValueNet(4, (3, 3), np.random.default_rng(0))
    for p in value.params:
        p[...] = 0.0
    v, _ = value.forward(np.random.default_rng(1).normal(size=(5, 4)))
    assert np.allclose(v, 0.0)
    value.net.biases[-1][...] = 0.7
    v, _ = value.forward(np.random.default_rng(2).normal(size=(5, 4)))
    assert np.allclose(v, 0.7)


def test_discriminator_zero_net_outputs_half():
    disc = nn.DiscriminatorNet(6, (4, 4), np.random.default_rng(0))
    for p in disc.params:
        p[...] = 0.0
    probs, _ = disc.forward(np.random.default_rng(1).normal(size=(8, 6)))
    assert np.allclose(probs, 0.5)


def test_discriminator_output_strictly_inside_unit_interval():
    disc = nn.DiscriminatorNet(3, (4, 4), np.random.default_rng(0))
    for p in disc.params:
        p[...] = 100.0  # force saturated logits
    probs, _ = disc.forward(np.ones((1, 3)) * 100)
    assert 0.0 < probs[0] < 1.0
    assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-nn.LOGIT_CLAMP)))


# ---------------------------------------------------------------------------
# sampling

def test_sample_action_deterministic_distribution():
    dists = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0]),
             np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    idx, logp = nn.sample_action(dists, np.random.default_rng(0),
                                 RELEVANT_HEADS)
    assert idx[0] == 1 and idx[1] == 0 and idx[2] == 1
    assert logp == pytest.approx(0.0)


def test_sample_action_back_masks_other_heads():
    rng = np.random.default_rng(2)
    dists = [np.array([0.0, 0.0, 1.0, 0.0]),  # kind = BACK
             np.array([0.5, 0.5]), np.array([0.25] * 4),
             np.array([0.2] * 5), np.array([0.1] * 10)]
    idx, logp = nn.sample_action(dists, rng, RELEVANT_HEADS)
    assert idx[0] == 2
    assert logp == pytest.approx(math.log(1.0))


def test_sample_action_frequencies_within_three_sigma():
    rng = np.random.default_rng(3)
    probs = np.array([0.5, 0.2, 0.2, 0.1])
    dists = [probs, np.array([1.0]), np.array([1.0]), np.array([1.0]),
             np.array([1.0])]
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        idx, _ = nn.sample_action(dists, rng, RELEVANT_HEADS)
        counts[idx[0]] += 1
    for k, p in enumerate(probs):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# gradients vs finite differences

def test_policy_logprob_gradient_matches_fd():
    rng = np.random.default_rng(7)
    policy = random_policy(rng)
    states = rng.normal(size=(3, 6))
    heads = np.array([[1, 2, 0, 3, 1], [0, 1, 2, 0, 0], [3, 0, 0, 4, 2]])
    masks = np.array([[True, True, False, True, True],
                      [True, True, True, False, False],
                      [True, False, False, False, False]])
    coeffs = np.array([1.0, -0.5, 2.0])

    def loss():
        logp, _ = policy.logprob(states, heads, masks)
        return float(np.dot(coeffs, logp))

    logp, ctx = policy.logprob(states, heads, masks)
    analytic = nn.get_flat(policy.backward_logprob(ctx, heads, masks, coeffs))
    assert_close_grads(analytic, fd_gradient(policy.params, loss))


def test_policy_irrelevant_head_gradient_is_zero():
    rng = np.random.default_rng(8)
    policy = random_policy(rng)
    states = rng.normal(size=(1, 6))
    heads = np.zeros((1, 5), dtype=int)
    heads[0, 0] = 2  # BACK: only the kind head matters
    masks = np.zeros((1, 5), dtype=bool)
    masks[0, 0] = True
    _, ctx = policy.logprob(states, heads, masks)
    grads = policy.backward_logprob(ctx, heads, masks, np.ones(1))
    n_trunk = len(policy.trunk.params)
    for h in range(1, 5):
        assert np.all(grads[n_trunk + 2 * h] == 0.0)
        assert np.all(grads[n_trunk + 2 * h + 1] == 0.0)


def test_l2_penalty_gradient_is_linear():
    rng = np.random.default_rng(9)
    policy = random_policy(rng)
    coeff = 1e-3
    value, grads = nn.l2_penalty(policy.params, coeff)
    assert value == pytest.approx(
        coeff * sum(float((p * p).sum()) for p in policy.params))
    for p, g in zip(policy.params, grads):
        assert np.allclose(g, 2 * coeff * p)


def test_value_td_gradient_matches_fd():
    rng = np.random.default_rng(10)
    value = nn.ValueNet(5, (6, 6), rng)
    states = rng.normal(size=(4, 5))
    targets = rng.normal(size=4)

    def loss():
        v, _ = value.forward(states)
        return float(np.mean((v - targets) ** 2))

    analytic_loss, grads = value.td_loss_grads(states, targets)
    assert analytic_loss == pytest.approx(loss())
    assert_close_grads(nn.get_flat(grads), fd_gradient(value.params, loss))


def test_value_zero_td_error_zero_gradient():
    rng = np.random.default_rng(11)
    value = nn.ValueNet(5, (6, 6), rng)
    states = rng.normal(size=(3, 5))
    v, _ = value.forward(states)
    loss, grads = value.td_loss_grads(states, v.copy())
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_discriminator_bce_gradient_matches_fd():
    rng = np.random.default_rng(12)
    disc = nn.DiscriminatorNet(7, (6, 5), rng)
    x = rng.normal(size=(6, 7))
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])

    def loss():
        probs, _ = disc.forward(x)
        return float(-np.mean(labels * np.log(probs)
                              + (1 - labels) * np.log(1 - probs)))

    analytic_loss, grads, _ = disc.bce_loss_grads(x, labels)
    assert analytic_loss == pytest.approx(loss())
    assert_close_grads(nn.get_flat(grads), fd_gradient(disc.params, loss))


def _relu_kink_margin(mlp, x):
    """Smallest |pre-activation| over ReLU layers; finite differences are
    only trustworthy when this clears the probe step."""
    _, cache = mlp.forward(x)
    margins = [np.min(np.abs(z)) for (_, z, _), act in zip(cache, mlp.activations)
               if act == "relu"]
    return min(margins) if margins else np.inf


def test_gradients_match_fd_on_many_random_networks():
    """Twenty randomized nets per architecture family."""
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        sd = int(rng.integers(3, 8))
        policy = random_policy(rng, state_dim=sd,
                               hidden=tuple(rng.integers(3, 7, size=2)),
                               heads=(4, 3, 4, 3, 3))
        states = rng.normal(size=(2, sd))
        heads = np.stack([rng.integers(0, (4, 3, 4, 3, 3)) for _ in range(2)])
        masks = rng.random((2, 5)) < 0.7
        masks[:, 0] = True
        coeffs = rng.normal(size=2)

        def policy_loss():
            logp, _ = policy.logprob(states, heads, masks)
            return float(np.dot(coeffs, logp))

        _, ctx = policy.logprob(states, heads, masks)
        analytic = nn.get_flat(policy.backward_logprob(ctx, heads, masks, coeffs))
        assert_close_grads(analytic, fd_gradient(policy.params, policy_loss))

        value = nn.ValueNet(sd, (5, 4), rng)
        targets = rng.normal(size=2)

        def value_loss():
            v, _ = value.forward(states)
            return float(np.mean((v - targets) ** 2))

        _, vgrads = value.td_loss_grads(states, targets)
        assert_close_grads(nn.get_flat(vgrads), fd_gradient(value.params, value_loss))

        disc = nn.DiscriminatorNet(sd, (5, 4), rng)
        for b in disc.net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        labels = (rng.random(2) < 0.5).astype(float)
        # keep the probe clear of ReLU kinks, where central differences
        # measure a subgradient average instead of the one-sided slope
        while _relu_kink_margin(disc.net, states) < 1e-3:
            states = rng.normal(size=(2, sd))

        def disc_loss():
            p, _ = disc.forward(states)
            return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))

        _, dgrads, _ = disc.bce_loss_grads(states, labels)
        assert_close_grads(nn.get_flat(dgrads), fd_gradient(disc.params, disc_loss))


# ---------------------------------------------------------------------------
# discriminator training on separable data

def test_discriminator_separates_toy_clusters():
    rng = np.random.default_rng(13)
    disc = nn.DiscriminatorNet(4, (32, 32), rng)
    opt = nn.Adam(disc.params, lr=1e-2)
    gen = rng.normal(loc=-1.0, scale=0.3, size=(64, 4))
    exp = rng.normal(loc=1.0, scale=0.3, size=(64, 4))
    x = np.vstack([gen, exp])
    labels = np.concatenate([np.zeros(64), np.ones(64)])
    for _ in range(200):
        _, grads, _ = disc.bce_loss_grads(x, labels)
        opt.step(disc.params, grads)
    probs, _ = disc.forward(x)
    accuracy = float(np.mean((probs > 0.5) == (labels > 0.5)))
    assert accuracy >= 0.95


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_gradient_keeps_params():
    p = [np.array([1.0, -2.0])]
    opt = nn.Adam(p, lr=0.1)
    opt.step(p, [np.zeros(2)])
    assert np.allclose(p[0], [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = [np.array([1.0, -2.0, 0.5])]
    g = [np.array([0.3, -0.7, 1e-3])]
    opt = nn.Adam(p, lr=0.01)
    before = p[0].copy()
    opt.step(p, g)
    steps = before - p[0]
    assert np.allclose(steps, 0.01 * np.sign(g[0]), atol=1e-6)


def test_adam_three_step_hand_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = [np.array([1.0])]
    opt = nn.Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps)
    grads = [0.5, -0.2, 0.1]
    x, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x -= lr * mh / (math.sqrt(vh) + eps)
        opt.step(p, [np.array([g])])
        assert p[0][0] == pytest.approx(x, abs=1e-12)


def test_adam_state_round_trip():
    p = [np.array([1.0, 2.0])]
    opt = nn.Adam(p, lr=0.1)
    opt.step(p, [np.array([0.5, -0.5])])
    state = opt.state_dict()
    opt2 = nn.Adam(p, lr=0.1)
    opt2.load_state_dict(state)
    assert opt2.t == 1
    assert np.allclose(opt2.m[0], opt.m[0])


# ---------------------------------------------------------------------------
# helpers

def test_flat_round_trip():
    rng = np.random.default_rng(14)
    policy = random_policy(rng)
    flat = nn.get_flat(policy.params)
    vec = rng.normal(size=flat.shape)
    nn.set_flat(policy.params, vec)
    assert np.allclose(nn.get_flat(policy.params), vec)


def test_arr_json_round_trip():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(nn.arr_from_json(nn.arr_to_json(a)), a)
