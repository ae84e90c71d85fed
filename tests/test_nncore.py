import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodfdd import nncore as nn


def stack_loss_fn(stack, x, y, loss):
    """Closure for gradient_check: fresh forward/backward on every call."""

    def fn():
        stack.zero_grad()
        out = stack.forward(x)
        value, grad = loss(out, y)
        if stack.layers[-1].activation in ("softmax",):
            stack.backward_from_logits(grad)
        else:
            stack.backward(grad)
        return value, [g for (_, g) in stack.params()]

    return fn


# ---------------------------------------------------------------------------
# dense_forward


def test_dense_softmax_symmetry():
    layer = nn.DenseLayer(np.zeros((2, 2)), np.zeros(2), "softmax")
    out = layer.forward(np.array([[1.0, 1.0]]))  # pre-activation [0, 0]
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_dense_identity_passthrough():
    layer = nn.DenseLayer(np.eye(2), np.zeros(2), "identity")
    out = layer.forward(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_dense_sigmoid_midpoint():
    layer = nn.DenseLayer(np.zeros((1, 3)), np.zeros(1), "sigmoid")
    out = layer.forward(np.array([0.3, -0.2, 4.0]))
    np.testing.assert_allclose(out, [[0.5]])


def _split_by_sign_sigmoid(x):
    """The formula nn.sigmoid must reproduce bit for bit: 1/(1+exp(-x)) on
    x >= 0, exp(x)/(1+exp(x)) elsewhere, NaN included."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _hex(arr):
    return [float(v).hex() for v in arr.ravel()]


def test_sigmoid_bitwise_equals_split_by_sign():
    edges = [0.0, 1e-310, 36.0, 745.0, 1e308, np.inf]
    grid = np.array([sign * v for v in edges for sign in (1.0, -1.0)] + [np.nan])
    noise = nn.make_rng(4).normal(0.0, 20.0, (40, 7))
    for x in (grid, grid.reshape(1, -1), noise, noise[:, ::2]):
        got = nn.sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert _hex(got) == _hex(_split_by_sign_sigmoid(x))
    assert _hex(nn.sigmoid(grid[:2])) == [(0.5).hex()] * 2  # +0.0 and -0.0


def test_dense_dimension_mismatch():
    layer = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")
    with pytest.raises(ValueError):
        layer.forward(np.ones((4, 5)))


def test_dense_nonfinite_output_raises():
    layer = nn.DenseLayer(np.array([[1e308]]), np.zeros(1), "identity")
    with np.errstate(over="ignore"), pytest.raises(nn.NonFiniteError):
        layer.forward(np.array([[1e308]]))


@given(
    st.integers(1, 6),
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_softmax_rows_on_simplex(rows, cols, seed):
    rng = nn.make_rng(seed)
    # logit gaps beyond ~36 saturate float64 to exactly 0/1
    logits = rng.uniform(-15.0, 15.0, size=(rows, cols))
    probs = nn.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    layer = nn.DropoutLayer(0.0)
    x = np.arange(6.0).reshape(2, 3)
    out = layer.forward(x, nn.make_rng(0), stochastic=True)
    np.testing.assert_array_equal(out, x)


def test_dropout_deterministic_mode_identity():
    layer = nn.DropoutLayer(0.5)
    x = np.array([[4.0, 4.0]])
    out = layer.forward(x, None, stochastic=False)
    np.testing.assert_array_equal(out, x)
    assert layer.last_mask is None


def test_dropout_mean_preserved_single_mask():
    # law of large numbers over 1e4 units at p=0.5
    layer = nn.DropoutLayer(0.5)
    x = np.ones((1, 10_000))
    out = layer.forward(x, nn.make_rng(7), stochastic=True)
    assert abs(out.mean() - 1.0) < 0.05


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_dropout_expectation_many_masks(rate):
    # inverted-dropout invariant: empirical mean within 2% over 1e5 masks
    layer = nn.DropoutLayer(rate)
    rng = nn.make_rng(123)
    x = np.linspace(0.5, 2.0, 8)[None, :]
    total = np.zeros_like(x)
    n = 100_000
    # draw masks in chunks to keep it fast; same distribution as n calls
    for _ in range(n):
        total += layer.forward(x, rng, stochastic=True)
    np.testing.assert_allclose(total / n, x, rtol=0.02)


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        nn.DropoutLayer(1.0)


def test_dropout_backward_replays_mask():
    layer = nn.DropoutLayer(0.5)
    x = np.ones((3, 16))
    out = layer.forward(x, nn.make_rng(3), stochastic=True)
    grad_in = layer.backward(np.ones_like(x))
    # gradient passes exactly where activations survived, with the same scale
    np.testing.assert_array_equal(grad_in, out)


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_perfect_prediction():
    loss, _ = nn.cross_entropy(np.array([[1.0, 0.0]]), [0])
    assert loss == 0.0


def test_cross_entropy_uniform():
    loss, _ = nn.cross_entropy(np.array([[0.5, 0.5]]), [1])
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_grad_matches_finite_differences():
    rng = nn.make_rng(11)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)

    def fn():
        return nn.cross_entropy(nn.softmax(logits), labels)[0], [
            nn.cross_entropy(nn.softmax(logits), labels)[1]
        ]

    err = nn.gradient_check([logits], fn, eps=1e-5)
    assert err < 1e-5


def test_cross_entropy_rejects_bad_rows():
    with pytest.raises(ValueError):
        nn.cross_entropy(np.array([[0.7, 0.7]]), [0])
    with pytest.raises(ValueError):
        nn.cross_entropy(np.array([[0.5, 0.5]]), [2])


def test_binary_cross_entropy_matches_hand_value():
    loss, grad = nn.binary_cross_entropy(np.array([[0.5], [0.9]]), [1, 1])
    expected = -(np.log(0.5) + np.log(0.9)) / 2
    assert loss == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(grad, [[-0.25], [-0.05]])


def test_mse_identity_is_zero():
    x = np.arange(6.0).reshape(2, 3)
    loss, grad = nn.mse(x.copy(), x)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(x))


def test_mse_unit_offset():
    loss, _ = nn.mse(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert loss == 1.0


def test_mse_grad_matches_finite_differences():
    rng = nn.make_rng(5)
    xhat = rng.normal(size=(4, 6))
    x = rng.normal(size=(4, 6))

    def fn():
        loss, grad = nn.mse(xhat, x)
        return loss, [grad]

    err = nn.gradient_check([xhat], fn, eps=1e-6)
    assert err < 1e-6


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        nn.mse(np.ones((2, 3)), np.ones((3, 2)))


def test_masked_mse_zero_rows_contribute_nothing():
    rng = nn.make_rng(9)
    xhat = rng.normal(size=(4, 3))
    x = rng.normal(size=(4, 3))
    keep = np.array([True, False, True, False])
    loss, grad = nn.masked_mse(xhat, x, keep)
    # dropped rows: exactly zero gradient
    np.testing.assert_array_equal(grad[~keep], 0.0)
    # kept rows match plain mse gradient values at the same batch size
    _, full_grad = nn.mse(xhat, x)
    np.testing.assert_array_equal(grad[keep], full_grad[keep])
    per_row = ((xhat - x) ** 2).mean(axis=1)
    assert loss == pytest.approx(per_row[keep].sum() / 4, rel=1e-15)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_no_move():
    p = np.array([1.0, -2.0])
    state = nn.AdamState.for_params([p])
    nn.adam_step([p], [np.zeros(2)], state)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_first_step_size():
    p = np.array([0.5])
    state = nn.AdamState.for_params([p])
    nn.adam_step([p], [np.array([1.0])], state, lr=1e-3)
    assert p[0] == pytest.approx(0.5 - 1e-3, abs=1e-9)


def test_adam_rejects_nonfinite_gradient():
    p = np.array([0.0])
    state = nn.AdamState.for_params([p])
    with pytest.raises(nn.NonFiniteError):
        nn.adam_step([p], [np.array([np.nan])], state)


def test_adam_deterministic_across_runs():
    def run():
        rng = nn.make_rng(42)
        p = rng.normal(size=(3, 2))
        state = nn.AdamState.for_params([p])
        for _ in range(25):
            g = rng.normal(size=(3, 2))
            nn.adam_step([p], [g], state)
        return p

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_adam_in_place_matches_plain_expression_bitwise():
    rng = nn.make_rng(44)
    p = rng.normal(size=(4, 3))
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    state = nn.AdamState.for_params([p])
    for t in range(1, 31):
        g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
        nn.adam_step([p], [g], state, lr=1e-2)
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g**2
        ref -= 1e-2 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        assert p.tobytes() == ref.tobytes()
    assert state.m[0].tobytes() == m.tobytes() and state.v[0].tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# gradient_check on whole stacks


def test_gradient_check_linear_quadratic():
    rng = nn.make_rng(1)
    stack = nn.LayerStack([nn.DenseLayer.init(rng, 3, 2, "identity")])
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    err = nn.gradient_check(
        [p for p, _ in stack.params()], stack_loss_fn(stack, x, y, nn.mse), eps=1e-5
    )
    assert err < 1e-7


def _three_layer_stack(rng):
    return nn.LayerStack(
        [
            nn.DenseLayer.init(rng, 4, 6, "relu"),
            nn.DenseLayer.init(rng, 6, 5, "sigmoid"),
            nn.DenseLayer.init(rng, 5, 3, "softmax"),
        ]
    )


def _nudged_input(rng, stack, n):
    # keep relu pre-activations away from 0 so central differences stay valid
    for _ in range(100):
        x = rng.normal(size=(n, stack.layers[0].in_dim))
        pre = x @ stack.layers[0].weights.T + stack.layers[0].bias
        if np.min(np.abs(pre)) > 1e-3:
            return x
    raise AssertionError("could not find a nudged input")


def test_gradient_check_three_layer_network():
    rng = nn.make_rng(2)
    stack = _three_layer_stack(rng)
    x = _nudged_input(rng, stack, 6)
    y = rng.integers(0, 3, size=6)
    err = nn.gradient_check(
        [p for p, _ in stack.params()],
        stack_loss_fn(stack, x, y, nn.cross_entropy),
        eps=1e-5,
    )
    assert err < 1e-4


def test_gradient_check_randomized_small_networks():
    # acceptance: randomized <=3-layer networks pass at 1e-4
    for seed in range(5):
        rng = nn.make_rng(100 + seed)
        dims = [rng.integers(2, 5) for _ in range(3)]
        stack = nn.LayerStack(
            [
                nn.DenseLayer.init(rng, 3, int(dims[0]), "relu"),
                nn.DenseLayer.init(rng, int(dims[0]), int(dims[1]), "sigmoid"),
                nn.DenseLayer.init(rng, int(dims[1]), 3, "softmax"),
            ]
        )
        x = _nudged_input(rng, stack, 4)
        y = rng.integers(0, 3, size=4)
        err = nn.gradient_check(
            [p for p, _ in stack.params()],
            stack_loss_fn(stack, x, y, nn.cross_entropy),
            eps=1e-5,
        )
        assert err < 1e-4, f"seed {seed}: {err}"


@pytest.mark.parametrize("leading_dropout", [False, True])
def test_stack_backward_without_input_grad_keeps_param_grads(leading_dropout):
    rng = nn.make_rng(6)
    layers = [nn.DenseLayer.init(rng, 4, 6, "relu"), nn.DropoutLayer(0.3),
              nn.DenseLayer.init(rng, 6, 5, "sigmoid"),
              nn.DenseLayer.init(rng, 5, 3, "identity")]
    stack = nn.LayerStack([nn.DropoutLayer(0.5)] * leading_dropout + layers)
    _, grads, _ = nn.flatten_stacks([stack])
    x = rng.normal(size=(7, 4))
    g = rng.normal(size=(7, 3))
    stack.forward(x, rng, stochastic=True)
    assert stack.backward(g).shape == x.shape
    want = grads.copy()
    grads.fill(0.0)
    assert stack.backward(g, input_grad=False) is None
    assert grads.tobytes() == want.tobytes()
    assert np.any(want != 0.0)


def test_dropout_in_deterministic_mode_matches_plain_network():
    rng = nn.make_rng(3)
    base = nn.LayerStack(
        [
            nn.DenseLayer.init(rng, 4, 5, "relu"),
            nn.DenseLayer.init(rng, 5, 2, "identity"),
        ]
    )
    with_dropout = nn.LayerStack(
        [base.layers[0], nn.DropoutLayer(0.5), base.layers[1]]
    )
    x = _nudged_input(rng, base, 5)
    y = rng.normal(size=(5, 2))

    err_plain = nn.gradient_check(
        [p for p, _ in base.params()], stack_loss_fn(base, x, y, nn.mse)
    )
    err_dropout = nn.gradient_check(
        [p for p, _ in with_dropout.params()],
        stack_loss_fn(with_dropout, x, y, nn.mse),
    )
    assert err_dropout == err_plain


# ---------------------------------------------------------------------------
# rng plumbing


def test_make_rng_reproducible():
    a = nn.make_rng(99).random(10)
    b = nn.make_rng(99).random(10)
    assert a.tobytes() == b.tobytes()


def test_derive_rng_streams_are_independent_and_stable():
    a1 = nn.derive_rng(7, 0).random(5)
    a2 = nn.derive_rng(7, 0).random(5)
    b = nn.derive_rng(7, 1).random(5)
    assert a1.tobytes() == a2.tobytes()
    assert a1.tobytes() != b.tobytes()
