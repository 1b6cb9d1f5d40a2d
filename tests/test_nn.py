import base64
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heads_reference as heads_ref
from autoeda import nn
from autoeda.env import (ACTION_KINDS, HEAD_MASKS, N_HEADS, RELEVANT_HEADS,
                         HeadLayout)


def assert_close_grads(analytic, numeric, rtol=1e-4, atol=1e-7):
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = np.max(err - bound)
    assert worst <= 0, f"gradient mismatch by {worst:.3e}"


def random_policy(rng, state_dim=6, hidden=(8, 7), heads=(4, 3, 5, 5, 4)):
    policy = nn.PolicyNet(state_dim, heads, hidden, rng)
    # randomize the zero-initialized heads so gradients are generic
    for w, b in heads_ref.head_views(policy):
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
    policy.head_weight[...] = [[1.0, -1.0], [0.5, 0.25]]
    policy.head_bias[...] = [0.0, 0.2]
    x = np.array([0.4, -0.6])
    h1 = math.tanh(0.4 * 0.5 + (-0.6) * 0.1 + 0.05)
    h2 = math.tanh(0.4 * -0.25 + (-0.6) * 0.3 - 0.1)
    z1 = h1 * 1.0 + h2 * 0.5 + 0.0
    z2 = h1 * -1.0 + h2 * 0.25 + 0.2
    e1, e2 = math.exp(z1), math.exp(z2)
    expected = (e1 / (e1 + e2), e2 / (e1 + e2))
    probs, _ = policy.forward(x[None])
    assert probs[0][0] == pytest.approx(expected)


def test_value_zero_net_is_bias_path():
    value = nn.ValueNet(4, (3, 3), np.random.default_rng(0))
    value.flat[...] = 0.0
    v, _ = value.forward(np.random.default_rng(1).normal(size=(5, 4)))
    assert np.allclose(v, 0.0)
    value.net.biases[-1][...] = 0.7
    v, _ = value.forward(np.random.default_rng(2).normal(size=(5, 4)))
    assert np.allclose(v, 0.7)


def test_discriminator_zero_net_outputs_half():
    disc = nn.DiscriminatorNet(6, (4, 4), np.random.default_rng(0))
    disc.flat[...] = 0.0
    probs, _ = disc.forward(np.random.default_rng(1).normal(size=(8, 6)))
    assert np.allclose(probs, 0.5)


def test_discriminator_output_strictly_inside_unit_interval():
    disc = nn.DiscriminatorNet(3, (4, 4), np.random.default_rng(0))
    disc.flat[...] = 100.0  # force saturated logits
    probs, _ = disc.forward(np.ones((1, 3)) * 100)
    assert 0.0 < probs[0] < 1.0
    assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-nn.LOGIT_CLAMP)))


# ---------------------------------------------------------------------------
# sampling

def test_sample_action_deterministic_distribution():
    dists = [np.array([[0.0, 1.0, 0.0, 0.0]]), np.array([[1.0, 0.0]]),
             np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]
    (idx,), (logp,) = nn.sample_action(
        dists, np.random.default_rng(0).random((1, 5)), RELEVANT_HEADS)
    assert idx[0] == 1 and idx[1] == 0 and idx[2] == 1
    assert logp == pytest.approx(0.0)


def test_sample_action_back_masks_other_heads():
    rng = np.random.default_rng(2)
    dists = [np.array([[0.0, 0.0, 1.0, 0.0]]),  # kind = BACK
             np.array([[0.5, 0.5]]), np.array([[0.25] * 4]),
             np.array([[0.2] * 5]), np.array([[0.1] * 10])]
    (idx,), (logp,) = nn.sample_action(dists, rng.random((1, 5)),
                                       RELEVANT_HEADS)
    assert idx[0] == 2
    assert logp == pytest.approx(math.log(1.0))


def test_sample_action_frequencies_within_three_sigma():
    rng = np.random.default_rng(3)
    probs = np.array([0.5, 0.2, 0.2, 0.1])
    n = 100_000
    dists = [np.tile(probs, (n, 1))] + [np.ones((n, 1))] * 4
    idx, _ = nn.sample_action(dists, rng.random((n, 5)), RELEVANT_HEADS)
    counts = np.bincount(idx[:, 0], minlength=4)
    for k, p in enumerate(probs):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# gradients vs finite differences

def test_policy_logprob_gradient_matches_fd(fd_gradient):
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
    analytic = policy.backward_logprob(ctx, heads, masks, coeffs)
    assert_close_grads(analytic, fd_gradient(policy, loss))


def test_policy_irrelevant_head_gradient_is_zero():
    rng = np.random.default_rng(8)
    policy = random_policy(rng)
    states = rng.normal(size=(1, 6))
    heads = np.zeros((1, 5), dtype=int)
    heads[0, 0] = 2  # BACK: only the kind head matters
    masks = np.zeros((1, 5), dtype=bool)
    masks[0, 0] = True
    _, ctx = policy.logprob(states, heads, masks)
    grad = policy.backward_logprob(ctx, heads, masks, np.ones(1))
    # the head matrix follows the trunk, then the head bias; the kind head
    # (0) owns the first columns of each, heads 1-4 the rest
    n_bias = policy.head_bias.size
    dweight = grad[policy.n_trunk:-n_bias].reshape(policy.head_weight.shape)
    kind = policy.head_sizes[0]
    assert np.all(dweight[:, kind:] == 0.0)
    assert np.all(grad[-n_bias:][kind:] == 0.0)


# ---------------------------------------------------------------------------
# fused heads against the per-head oracle

@st.composite
def policy_cases(draw):
    """A random policy on a real head layout; 1, 16, 32 or 64 states with
    none, half or all of their rows BACK; random, all-false, all-true or
    per-kind masks; and coefficients of one sign or of both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = HeadLayout(draw(st.integers(1, 8)), draw(st.integers(1, 20)))
    policy = nn.PolicyNet(6, layout.sizes, (8, 7), rng)
    scale = draw(st.sampled_from((0.1, 1.0, 10.0)))
    for w, b in heads_ref.head_views(policy):
        w += rng.normal(scale=scale, size=w.shape)
        b += rng.normal(scale=scale, size=b.shape)
    batch = draw(st.sampled_from((1, 16, 32, 64)))
    heads = rng.integers(0, layout.sizes, size=(batch, N_HEADS))
    heads[rng.random(batch) < draw(st.sampled_from((0.0, 0.5, 1.0))), 0] = \
        ACTION_KINDS.index("BACK")
    masks = {"random": rng.random((batch, N_HEADS)) < 0.5,
             "none": np.zeros((batch, N_HEADS), dtype=bool),
             "all": np.ones((batch, N_HEADS), dtype=bool),
             "kind": HEAD_MASKS[heads[:, 0]]}[
        draw(st.sampled_from(("random", "none", "all", "kind")))]
    coeffs = rng.normal(size=batch)
    sign = draw(st.sampled_from((None, 1.0, -1.0)))
    if sign is not None:
        coeffs = sign * np.abs(coeffs)
    return policy, rng.normal(size=(batch, 6)), heads, masks, coeffs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(policy_cases())
def test_fused_heads_match_per_head_oracle(case):
    policy, states, heads, masks, coeffs = case
    probs, _ = policy.forward(states)
    ref_probs = heads_ref.forward(policy, states)[-1]
    assert [p.shape for p in probs] == [p.shape for p in ref_probs]
    for p, ref_p in zip(probs, ref_probs):
        np.testing.assert_allclose(p, ref_p, rtol=0, atol=1e-12)
    logp, ctx = policy.logprob(states, heads, masks)
    np.testing.assert_allclose(
        logp, heads_ref.logprob(policy, states, heads, masks), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        policy.backward_logprob(ctx, heads, masks, coeffs),
        heads_ref.backward_logprob(policy, states, heads, masks, coeffs),
        rtol=0, atol=1e-12)


class _Matmuls(np.ndarray):
    """An array whose matmuls, and those of every array computed from it,
    append their operand shapes to `shapes`."""
    shapes = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        if ufunc is np.matmul:
            _Matmuls.shapes.append([x.shape for x in plain])
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Matmuls) if isinstance(result, np.ndarray) else result


def test_policy_heads_take_one_matmul_forward_and_two_backward(monkeypatch):
    """One head matmul in `forward` and two in `backward_logprob`, whatever
    the number of heads: a matmul whose operands have a dimension other
    than the batch, state and hidden widths is a head matmul."""
    rng = np.random.default_rng(16)
    policy = random_policy(rng)  # heads (4, 3, 5, 5, 4): 21 columns
    trunk_dims = {2, 6, 8, 7}  # batch, state and hidden widths
    states = rng.normal(size=(2, 6)).view(_Matmuls)
    heads, masks = np.array([[1, 2, 0, 3, 1], [2, 0, 4, 4, 3]]), np.ones((2, 5), bool)
    monkeypatch.setattr(_Matmuls, "shapes", [])

    def head_matmuls():
        count = sum(any(set(shape) - trunk_dims for shape in shapes)
                    for shapes in _Matmuls.shapes)
        _Matmuls.shapes.clear()
        return count

    policy.forward(states)
    assert head_matmuls() == 1
    _, ctx = policy.logprob(states, heads, masks)
    assert head_matmuls() == 1
    policy.backward_logprob(ctx, heads, masks, np.ones(2))
    assert head_matmuls() == 2


def test_l2_penalty_gradient_is_linear():
    rng = np.random.default_rng(9)
    policy = random_policy(rng)
    coeff = 1e-3
    assert np.allclose(nn.l2_penalty(policy.flat, coeff), 2 * coeff * policy.flat)


def test_value_td_gradient_matches_fd(fd_gradient):
    rng = np.random.default_rng(10)
    value = nn.ValueNet(5, (6, 6), rng)
    states = rng.normal(size=(4, 5))
    targets = rng.normal(size=4)

    def loss():
        v, _ = value.forward(states)
        return float(np.mean((v - targets) ** 2))

    analytic_loss, grad = value.td_loss_grads(states, targets)
    assert analytic_loss == pytest.approx(loss())
    assert_close_grads(grad, fd_gradient(value, loss))


def test_value_zero_td_error_zero_gradient():
    rng = np.random.default_rng(11)
    value = nn.ValueNet(5, (6, 6), rng)
    states = rng.normal(size=(3, 5))
    v, _ = value.forward(states)
    loss, grad = value.td_loss_grads(states, v.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_discriminator_bce_gradient_matches_fd(fd_gradient):
    rng = np.random.default_rng(12)
    disc = nn.DiscriminatorNet(7, (6, 5), rng)
    x = rng.normal(size=(6, 7))
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])

    def loss():
        probs, _ = disc.forward(x)
        return float(-np.mean(labels * np.log(probs)
                              + (1 - labels) * np.log(1 - probs)))

    analytic_loss, grad, _ = disc.bce_loss_grads(x, labels)
    assert analytic_loss == pytest.approx(loss())
    assert_close_grads(grad, fd_gradient(disc, loss))


def _relu_kink_margin(mlp, x):
    """Smallest |pre-activation| over ReLU layers; finite differences are
    only trustworthy when this clears the probe step."""
    _, cache = mlp.forward(x)
    margins = [np.min(np.abs(z)) for (_, z, _), act in zip(cache, mlp.activations)
               if act == "relu"]
    return min(margins) if margins else np.inf


def test_gradients_match_fd_on_many_random_networks(fd_gradient):
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
        analytic = policy.backward_logprob(ctx, heads, masks, coeffs)
        assert_close_grads(analytic, fd_gradient(policy, policy_loss))

        value = nn.ValueNet(sd, (5, 4), rng)
        targets = rng.normal(size=2)

        def value_loss():
            v, _ = value.forward(states)
            return float(np.mean((v - targets) ** 2))

        _, vgrad = value.td_loss_grads(states, targets)
        assert_close_grads(vgrad, fd_gradient(value, value_loss))

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

        _, dgrad, _ = disc.bce_loss_grads(states, labels)
        assert_close_grads(dgrad, fd_gradient(disc, disc_loss))


# ---------------------------------------------------------------------------
# discriminator training on separable data

def test_discriminator_separates_toy_clusters():
    rng = np.random.default_rng(13)
    disc = nn.DiscriminatorNet(4, (32, 32), rng)
    opt = nn.Adam(disc.flat, lr=1e-2)
    gen = rng.normal(loc=-1.0, scale=0.3, size=(64, 4))
    exp = rng.normal(loc=1.0, scale=0.3, size=(64, 4))
    x = np.vstack([gen, exp])
    labels = np.concatenate([np.zeros(64), np.ones(64)])
    for _ in range(200):
        _, grad, _ = disc.bce_loss_grads(x, labels)
        opt.step(disc.flat, grad)
    probs, _ = disc.forward(x)
    accuracy = float(np.mean((probs > 0.5) == (labels > 0.5)))
    assert accuracy >= 0.95


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    opt = nn.Adam(p, lr=0.1)
    opt.step(p, np.zeros(2))
    assert np.allclose(p, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.7, 1e-3])
    opt = nn.Adam(p, lr=0.01)
    before = p.copy()
    opt.step(p, g)
    steps = before - p
    assert np.allclose(steps, 0.01 * np.sign(g), atol=1e-6)


def test_adam_three_step_hand_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = np.array([1.0])
    opt = nn.Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps)
    grads = [0.5, -0.2, 0.1]
    x, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x -= lr * mh / (math.sqrt(vh) + eps)
        opt.step(p, np.array([g]))
        assert p[0] == pytest.approx(x, abs=1e-12)


def _param_arrays(policy):
    """The policy's arrays in `flat` order: trunk layers, then the head
    matrix and the head bias."""
    trunk = zip(policy.trunk.weights, policy.trunk.biases)
    return [a for layer in trunk for a in layer] + [policy.head_weight,
                                                    policy.head_bias]


def _reference_bc_step(arrays, grads, ms, vs, t, coeff, lr,
                       b1=0.9, b2=0.999, eps=1e-8):
    """L2 plus Adam, one array at a time, as before parameters were flat."""
    b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, m, v in zip(arrays, grads, ms, vs):
        g = g + 2.0 * coeff * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


def test_flat_adam_step_matches_per_array_reference():
    rng = np.random.default_rng(15)
    policy = random_policy(rng)
    coeff, lr, head_sizes = 1e-3, 1e-2, (4, 3, 5, 5, 4)
    ref = [a.copy() for a in _param_arrays(policy)]
    ms, vs = [np.zeros_like(a) for a in ref], [np.zeros_like(a) for a in ref]
    opt = nn.Adam(policy.flat, lr)
    for t in range(1, 6):
        states = rng.normal(size=(8, 6))
        heads = np.stack([rng.integers(0, head_sizes) for _ in range(8)])
        masks = rng.random((8, 5)) < 0.7
        _, ctx = policy.logprob(states, heads, masks)
        grad = policy.backward_logprob(ctx, heads, masks, np.full(8, -1 / 8))
        parts = np.split(grad, np.cumsum([a.size for a in ref])[:-1])
        _reference_bc_step(ref, [g.reshape(a.shape) for g, a in zip(parts, ref)],
                           ms, vs, t, coeff, lr)
        opt.step(policy.flat, grad + nn.l2_penalty(policy.flat, coeff))
        assert np.array_equal(np.concatenate([a.ravel() for a in ref]),
                              policy.flat), t


# ---------------------------------------------------------------------------
# helpers

def test_parameter_arrays_are_views_of_flat():
    rng = np.random.default_rng(14)
    policy = random_policy(rng)
    assert np.shares_memory(policy.head_weight, policy.flat)
    assert np.shares_memory(policy.head_bias, policy.flat)
    assert np.array_equal(
        np.concatenate([a.ravel() for a in _param_arrays(policy)]), policy.flat)
    for net in (nn.ValueNet(6, (5,), rng), nn.DiscriminatorNet(6, (5,), rng)):
        assert np.shares_memory(net.net.weights[0], net.flat)
    x = rng.normal(size=(1, 6))
    before, _ = policy.forward(x)
    policy.flat[-1] += 1.0  # the last head's last bias
    after, _ = policy.forward(x)
    assert after[-1][0, -1] > before[-1][0, -1]
    assert all(np.array_equal(a, b) for a, b in zip(before[:-1], after[:-1]))


def test_arr_json_round_trip():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(nn.arr_from_json(nn.arr_to_json(a)), a)


def test_arr_json_keeps_every_bit_as_little_endian_float64():
    """-0.0, a subnormal, both infinities and a NaN with a payload come back
    with the same bits, and the stored bytes are `<f8` whatever the byte
    order of the array encoded."""
    a = np.array([-0.0, 1e-310, math.inf, -math.inf, math.nan, 1.5])
    a.view(np.uint64)[4] |= 0xABCD  # a quiet NaN with a payload
    bits = a.view(np.uint64).copy()
    assert math.isnan(a[4]) and bits[4] != np.float64(math.nan).view(np.uint64)
    little = b"".join(int(b).to_bytes(8, "little") for b in bits)
    for encoded in (a, a.astype(">f8")):
        obj = nn.arr_to_json(encoded)
        assert obj == {"shape": [6],
                       "f8le": base64.b64encode(little).decode("ascii")}
        assert nn.arr_from_json(obj).view(np.uint64).tolist() == bits.tolist()
