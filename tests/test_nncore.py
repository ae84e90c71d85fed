import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradcheck import (checked_binary_cross_entropy, checked_cross_entropy, gradient_check,
                       param_pairs)
from oodfdd import nncore as nn


def stack_loss_fn(stack, x, y, loss):
    """Closure for gradient_check: fresh forward/backward on every call; the
    backward pass writes every parameter gradient."""

    def fn():
        tape = []
        out = stack.forward(x, tape=tape)
        value, grad = loss(out, y)
        if stack.layers[-1].activation in ("softmax",):
            stack.backward_from_logits(tape, grad)
        else:
            stack.backward(tape, grad)
        return value, [g for (_, g) in param_pairs(stack)]

    return fn


def one(layer):
    """A one-layer stack: layers run only inside a stack."""
    return nn.LayerStack([layer])


def glorot_dense(rng, in_dim, out_dim, activation):
    """A dense layer with Glorot weights drawn from `rng` and a zero bias."""
    return nn.DenseLayer(nn.glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim), activation)


# ---------------------------------------------------------------------------
# dense_forward


def test_dense_softmax_symmetry():
    layer = nn.DenseLayer(np.zeros((2, 2)), np.zeros(2), "softmax")
    out = one(layer).forward(np.array([[1.0, 1.0]]))  # pre-activation [0, 0]
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_dense_identity_passthrough():
    layer = nn.DenseLayer(np.eye(2), np.zeros(2), "identity")
    out = one(layer).forward(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_dense_sigmoid_midpoint():
    layer = nn.DenseLayer(np.zeros((1, 3)), np.zeros(1), "sigmoid")
    out = one(layer).forward(np.array([0.3, -0.2, 4.0]))
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
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 36.0, 37.0, 709.0,
             745.0, 746.0, 1e308, np.inf]
    grid = np.array([sign * v for v in edges for sign in (1.0, -1.0)] + [np.nan])
    rng = nn.make_rng(4)
    noise = rng.normal(0.0, 20.0, (40, 7))
    # mixed signs at the MC decoder's shapes, spread over many magnitudes
    wide = rng.normal(0.0, 1.0, (3, 64, 196)) * 10.0 ** rng.uniform(-320, 3, (3, 64, 196))
    for x in (grid, grid.reshape(1, -1), noise, noise[:, ::2], wide[0], wide,
              wide[:, ::3, 1::2]):
        before = x.copy()
        got = nn.sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert _hex(got) == _hex(_split_by_sign_sigmoid(x))
        assert _hex(x) == _hex(before)  # without out, the input is untouched
        assert nn.sigmoid(before, out=before) is before  # in place: same bits
        assert _hex(before) == _hex(got)
    assert _hex(nn.sigmoid(grid[:2])) == [(0.5).hex()] * 2  # +0.0 and -0.0


@pytest.mark.parametrize("shape", [(40, 7), (3, 40, 7), (1, 9, 1)])
def test_activations_in_scratch_give_the_same_bits(shape):
    x = nn.make_rng(5).normal(0.0, 20.0, shape)
    x.flat[0], x.flat[-1] = -0.0, 0.0
    for name, plain in (("softmax", nn.softmax), ("sigmoid", nn.sigmoid)):
        flat = np.full(math.prod(shape[:-1]) * nn.scratch_columns(name, shape[-1]), np.nan)
        got = x.copy()
        assert plain(got, out=got, work=nn.scratch_views(name, flat, shape)) is got
        assert _hex(got) == _hex(plain(x))


def test_dense_dimension_mismatch():
    stack = one(nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu"))
    with pytest.raises(ValueError, match="input has 5 features, layer expects 3"):
        stack.forward(np.ones((4, 5)))
    # checked against the first dense layer, behind any leading dropout
    stack = nn.LayerStack([nn.DropoutLayer(0.5), *stack.layers])
    with pytest.raises(ValueError, match="input has 5 features, layer expects 3"):
        stack.forward(np.ones((4, 5)))


def test_dense_nonfinite_output_raises():
    # the layer checks nothing itself: inside the library's numeric context
    # the overflow raises where it happens, and the CLI exits 4 on it
    layer = nn.DenseLayer(np.array([[1e308]]), np.zeros(1), "identity")
    with nn.numeric_context(), pytest.raises(FloatingPointError, match="overflow"):
        one(layer).forward(np.array([[1e308]]))


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


_SOFTMAX_EDGES = [0.0, -0.0, 1.0, -1.0, 709.0, -745.0, 1e300, -1e300]


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                  elements=st.one_of(st.sampled_from(_SOFTMAX_EDGES),
                                     st.floats(-1e300, 1e300))))
@settings(max_examples=200, deadline=None)
def test_softmax_bitwise_equals_the_plain_expression(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    assert _hex(nn.softmax(logits)) == _hex(ez / ez.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    stack = one(nn.DropoutLayer(0.0))
    x = np.arange(6.0).reshape(2, 3)
    out = stack.forward(x, nn.make_rng(0))
    np.testing.assert_array_equal(out, x)


def test_dropout_deterministic_mode_identity():
    stack = one(nn.DropoutLayer(0.5))
    x = np.array([[4.0, 4.0]])
    tape = []
    out = stack.forward(x, None, tape=tape)
    np.testing.assert_array_equal(out, x)
    assert tape == [None]
    # deterministic dropout is the identity, and so is its backward
    g = np.ones_like(x)
    assert stack.backward(tape, g) is g


def test_dropout_mean_preserved_single_mask():
    # law of large numbers over 1e4 units at p=0.5
    stack = one(nn.DropoutLayer(0.5))
    x = np.ones((1, 10_000))
    out = stack.forward(x, nn.make_rng(7))
    assert abs(out.mean() - 1.0) < 0.05


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_dropout_expectation_many_masks(rate):
    # inverted-dropout invariant: empirical mean within 2% over 1e5 masks
    stack = one(nn.DropoutLayer(rate))
    rng = nn.make_rng(123)
    x = np.linspace(0.5, 2.0, 8)[None, :]
    total = np.zeros_like(x)
    n = 100_000
    # draw masks in chunks to keep it fast; same distribution as n calls
    for _ in range(n):
        total += stack.forward(x, rng)
    np.testing.assert_allclose(total / n, x, rtol=0.02)


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        nn.DropoutLayer(1.0)


def test_dropout_backward_replays_mask():
    stack = one(nn.DropoutLayer(0.5))
    x = np.ones((3, 16))
    tape = []
    out = stack.forward(x, nn.make_rng(3), tape=tape)
    grad_in = stack.backward(tape, np.ones_like(x))
    # gradient passes exactly where activations survived, with the same scale
    np.testing.assert_array_equal(grad_in, out)


def test_recording_and_non_recording_forwards_agree_bitwise():
    x = nn.make_rng(8).normal(0.0, 1.0, (5, 4))
    stack = nn.LayerStack([glorot_dense(nn.make_rng(9), 4, 6, "relu"),
                           nn.DropoutLayer(0.3),
                           glorot_dense(nn.make_rng(10), 6, 3, "softmax")])
    kept = stack.forward(x, nn.make_rng(11), tape=[])
    lean = stack.forward(x, nn.make_rng(11))
    assert kept.tobytes() == lean.tobytes()


@pytest.mark.parametrize("rows, d_in, d_out, activation", [
    (400, 24, 196, "sigmoid"), (64, 196, 68, "relu"), (500, 16, 8, "relu"),
    (9, 8, 7, "softmax"), (1, 4, 1, "sigmoid"), (200, 8, 7, "identity")])
def test_stacked_forward_is_each_pass_forward_bitwise(rows, d_in, d_out, activation):
    dense = one(glorot_dense(nn.make_rng(12), d_in, d_out, activation))
    x = nn.make_rng(13).normal(0.0, 1.0, (5, rows, d_in))
    stacked = dense.forward(x)
    assert stacked.shape == (5, rows, d_out)
    for k in range(5):
        assert stacked[k].tobytes() == dense.forward(x[k]).tobytes()

    dropout = one(nn.DropoutLayer(0.3))
    stacked = dropout.forward(x, nn.make_rng(14))
    rng = nn.make_rng(14)
    for k in range(5):
        passed = dropout.forward(x[k], rng)
        assert stacked[k].tobytes() == passed.tobytes()


def test_recording_forward_rejects_a_pass_stack():
    x = nn.make_rng(15).normal(0.0, 1.0, (2, 4, 3))
    with pytest.raises(ValueError, match="2-D"):
        one(glorot_dense(nn.make_rng(16), 3, 2, "relu")).forward(x, tape=[])
    with pytest.raises(ValueError, match="2-D"):
        one(nn.DropoutLayer(0.5)).forward(x, nn.make_rng(17), tape=[])


def test_uniforms_hand_out_batch_draws_step_by_step_into_the_buffer():
    # the draws are handed out as each layer's masks
    buffer = np.full(100, np.nan)
    rng = nn.make_rng(18)
    source = nn.Uniforms(rng, 3, 4, [5, 2], stacked=False, out=buffer, rates=[0.3, 0.75])
    reference = nn.make_rng(18)
    for _ in range(3):
        for width, keep in ((5, 0.7), (2, 0.25)):
            mask = source.random((4, width))
            assert np.shares_memory(mask, buffer)
            want = (reference.random((4, width)) < keep) * (1.0 / keep)
            assert mask.tobytes() == want.tobytes()
    # the stream moved on by exactly the draws, and the buffer's tail is untouched
    assert rng.random() == reference.random()
    assert np.isnan(buffer[3 * 4 * 7:]).all()
    with pytest.raises(RuntimeError, match="out of step"):
        source.random((4, 5))  # every step's draws are handed out
    source = nn.Uniforms(nn.make_rng(18), 2, 4, [5, 2], stacked=False, rates=[0.3, 0.75])
    with pytest.raises(RuntimeError, match="out of step"):
        source.random((4, 2))  # a step's first draw is (4, 5)


@pytest.mark.parametrize("width", [2, 3, 16])
def test_bias_over_a_row_tile_is_the_broadcast_add_for_every_leftover(width):
    r = nn.TILE_ROWS
    bias = nn.make_rng(40).normal(0.0, 1e3, width)
    tile = nn.row_tile(bias, 10 * r)
    assert tile.tobytes() == np.tile(bias, r).tobytes()
    base = nn.make_rng(41).normal(0.0, 1.0, (2 * r + r - 1) * width)
    for left in range(r):
        for rows in (left, r + left, 2 * r + left):
            pre = base[:rows * width].reshape(rows, width).copy()
            want = pre.copy()
            want += bias
            nn.rowwise(np.add, pre, bias, tile, pre)
            assert pre.tobytes() == want.tobytes()
    # a stack of passes, the way MC blocks add it
    pre = base[:3 * 41 * width].reshape(3, 41, width).copy()
    want = pre + bias
    nn.rowwise(np.add, pre, bias, nn.row_tile(bias, 3 * 41), pre)
    assert pre.tobytes() == want.tobytes()


def test_bias_tile_is_bounded_and_skips_one_wide_biases():
    assert nn.row_tile(np.ones(1), 500) is None
    assert nn.row_tile(np.ones(3), 5).shape == (15,)
    assert nn.row_tile(np.ones(3), 10200).shape == (3 * nn.TILE_ROWS,)


def test_draws_list_the_dropout_layers_that_draw():
    rng = nn.make_rng(19)
    stack = nn.LayerStack([nn.DropoutLayer(0.5), glorot_dense(rng, 3, 5, "relu"),
                           nn.DropoutLayer(0.2), glorot_dense(rng, 5, 2, "relu"),
                           nn.DropoutLayer(0.0), glorot_dense(rng, 2, 4, "relu"),
                           nn.DropoutLayer(0.1)])
    assert stack.draws() == ([3, 5, 4], [0.5, 0.2, 0.1])
    assert stack.draws(start=2) == ([5, 4], [0.2, 0.1])
    assert stack.draws(start=3) == ([4], [0.1])


def test_dense_backward_writes_its_gradients_over_the_last_ones():
    rng = nn.make_rng(20)
    layer = glorot_dense(rng, 3, 2, "relu")
    x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    layer.grad_w[...] = 7.0  # what an earlier batch left
    layer.grad_b[...] = 7.0
    stack, tape = one(layer), []
    stack.forward(x, tape=tape)
    stack.backward(tape, g)
    dpre = g * (x @ layer.weights.T + layer.bias > 0.0)
    assert layer.grad_w.tobytes() == (dpre.T @ x).tobytes()
    assert layer.grad_b.tobytes() == dpre.sum(axis=0).tobytes()


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

    err = gradient_check([logits], fn, eps=1e-5)
    assert err < 1e-5


def test_cross_entropy_rejects_bad_rows():
    with pytest.raises(ValueError):
        checked_cross_entropy(np.array([[0.7, 0.7]]), [0])
    with pytest.raises(ValueError):
        checked_cross_entropy(np.array([[0.5, 0.5]]), [2])


def test_binary_cross_entropy_matches_hand_value():
    loss, grad = nn.binary_cross_entropy(np.array([[0.5], [0.9]]), np.array([1, 1]))
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

    err = gradient_check([xhat], fn, eps=1e-6)
    assert err < 1e-6


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        nn.mse(np.ones((2, 3)), np.ones((3, 2)))


def test_mse_on_row_subset_normalised_by_full_batch():
    rng = nn.make_rng(9)
    xhat = rng.normal(size=(4, 3))
    x = rng.normal(size=(4, 3))
    keep = np.array([True, False, True, False])
    loss, grad = nn.mse(xhat[keep], x[keep], n_rows=4)
    # the kept rows' gradient is plain mse's at the full batch size
    _, full_grad = nn.mse(xhat, x)
    np.testing.assert_array_equal(grad, full_grad[keep])
    per_row = ((xhat - x) ** 2).mean(axis=1)
    assert loss == pytest.approx(per_row[keep].sum() / 4, rel=1e-15)
    # n_rows defaults to the rows given
    assert nn.mse(xhat, x, n_rows=4)[1].tobytes() == full_grad.tobytes()
    with pytest.raises(ValueError, match="cannot normalise 4 rows by a batch of 3"):
        nn.mse(xhat, x, n_rows=3)


def _clipped_cross_entropy(probs, labels):
    """The loss as written before its kernel, with np.clip: the reference."""
    n = len(probs)
    picked = np.clip(probs[np.arange(n), labels], nn.CROSS_ENTROPY_EPS, None)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(-np.log(picked).mean()), grad


def _clipped_binary_cross_entropy(p, labels):
    q = np.clip(p[:, 0], nn.CROSS_ENTROPY_EPS, 1.0 - nn.CROSS_ENTROPY_EPS)
    loss = float(-(labels * np.log(q) + (1.0 - labels) * np.log(1.0 - q)).mean())
    return loss, (p[:, 0] - labels)[:, None] / len(p)


def _same_loss(a, b):
    return a[0].hex() == b[0].hex() and a[1].tobytes() == b[1].tobytes()


@given(st.integers(1, 70), st.integers(2, 7), st.floats(0.1, 60.0), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
# past numpy's 8-wide unrolled and 128-element pairwise summation blocks,
# where the kernels' sum over the count still equals np.mean
@example(128, 7, 3.0, 1)
@example(129, 2, 3.0, 2)
@example(1000, 5, 10.0, 3)
@example(4097, 7, 1.0, 4)
@example(10_200, 3, 30.0, 5)
def test_loss_kernels_return_the_checked_losses_bitwise(rows, cols, spread, seed):
    rng = nn.make_rng(seed)
    # wide logits saturate some probabilities to exactly 0 and 1, so the
    # clamps take effect
    probs = nn.softmax(rng.normal(0.0, spread, (rows, cols)))
    labels = rng.integers(0, cols, rows)
    ref = _clipped_cross_entropy(probs, labels)
    assert _same_loss(nn.cross_entropy(probs, labels), ref)
    assert _same_loss(checked_cross_entropy(probs, labels), ref)

    p = nn.sigmoid(rng.normal(0.0, spread, (rows, 1)))
    y = rng.integers(0, 2, rows)
    ref = _clipped_binary_cross_entropy(p, y.astype(np.float64))
    # the training loop hands the loss its int64 labels
    assert _same_loss(nn.binary_cross_entropy(p, y), ref)
    assert _same_loss(checked_binary_cross_entropy(p, y), ref)


def test_maximum_and_minimum_clamp_bitwise_like_clip():
    grid = np.array([0.0, -0.0, np.nan, 1e-300, -1e-300, 1.0, -1.0, 1e-12, 1.0 - 1e-12])
    lo, hi = nn.CROSS_ENTROPY_EPS, 1.0 - nn.CROSS_ENTROPY_EPS
    assert np.maximum(grid, lo).tobytes() == np.clip(grid, lo, None).tobytes()
    assert (np.minimum(np.maximum(grid, lo), hi).tobytes()
            == np.clip(grid, lo, hi).tobytes())


@pytest.mark.parametrize("call, message", [
    (lambda: checked_cross_entropy(np.full((2, 2), 0.5), [0, 1, 1]), "2 rows but 3 labels"),
    (lambda: checked_cross_entropy(np.full((2, 2), 0.5), [0, 2]), r"labels must lie in \[0, 2\)"),
    (lambda: checked_cross_entropy(np.full((2, 2), 0.6), [0, 1]), "probability rows must sum to 1"),
    (lambda: checked_binary_cross_entropy(np.full((2, 2), 0.5), [0, 1]), "single output column"),
    (lambda: checked_binary_cross_entropy(np.full((2, 1), 0.5), [0]), "2 rows but 1 labels"),
    (lambda: checked_binary_cross_entropy(np.full((2, 1), 0.5), [0, 2]),
     "binary labels must be 0 or 1"),
])
def test_checked_losses_reject_bad_rows_and_labels(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_no_move():
    p = np.array([1.0, -2.0])
    state = nn.AdamState(p)
    nn.adam_step(p, np.zeros(2), state)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_first_step_size():
    p = np.array([0.5])
    state = nn.AdamState(p)
    nn.adam_step(p, np.array([1.0]), state, lr=1e-3)
    assert p[0] == pytest.approx(0.5 - 1e-3, abs=1e-9)


def test_adam_rejects_nonfinite_gradient():
    p = np.array([0.0])
    state = nn.AdamState(p)
    with pytest.raises(nn.NonFiniteError):
        nn.adam_step(p, np.array([np.nan]), state)


def test_adam_deterministic_across_runs():
    def run():
        rng = nn.make_rng(42)
        p = rng.normal(size=(3, 2))
        state = nn.AdamState(p)
        for _ in range(25):
            g = rng.normal(size=(3, 2))
            nn.adam_step(p, g, state)
        return p

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_adam_in_place_matches_plain_expression_bitwise():
    rng = nn.make_rng(44)
    p = rng.normal(size=(4, 3))
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    state = nn.AdamState(p)
    # past t = 356, where c1 = 1 - 0.9**t rounds to 1.0 and the divide is skipped
    assert 1.0 - 0.9**355 < 1.0 == 1.0 - 0.9**356
    for t in range(1, 401):
        g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
        nn.adam_step(p, g, state, lr=1e-2)
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g**2
        ref -= 1e-2 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        assert p.tobytes() == ref.tobytes()
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# gradient_check on whole stacks


def test_gradient_check_linear_quadratic():
    rng = nn.make_rng(1)
    stack = nn.LayerStack([glorot_dense(rng, 3, 2, "identity")])
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    err = gradient_check(
        [p for p, _ in param_pairs(stack)], stack_loss_fn(stack, x, y, nn.mse), eps=1e-5
    )
    assert err < 1e-7


def _three_layer_stack(rng):
    return nn.LayerStack(
        [
            glorot_dense(rng, 4, 6, "relu"),
            glorot_dense(rng, 6, 5, "sigmoid"),
            glorot_dense(rng, 5, 3, "softmax"),
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
    err = gradient_check(
        [p for p, _ in param_pairs(stack)],
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
                glorot_dense(rng, 3, int(dims[0]), "relu"),
                glorot_dense(rng, int(dims[0]), int(dims[1]), "sigmoid"),
                glorot_dense(rng, int(dims[1]), 3, "softmax"),
            ]
        )
        x = _nudged_input(rng, stack, 4)
        y = rng.integers(0, 3, size=4)
        err = gradient_check(
            [p for p, _ in param_pairs(stack)],
            stack_loss_fn(stack, x, y, nn.cross_entropy),
            eps=1e-5,
        )
        assert err < 1e-4, f"seed {seed}: {err}"


@pytest.mark.parametrize("leading_dropout", [False, True])
def test_stack_backward_without_input_grad_keeps_param_grads(leading_dropout):
    rng = nn.make_rng(6)
    layers = [glorot_dense(rng, 4, 6, "relu"), nn.DropoutLayer(0.3),
              glorot_dense(rng, 6, 5, "sigmoid"),
              glorot_dense(rng, 5, 3, "identity")]
    stack = nn.LayerStack([nn.DropoutLayer(0.5)] * leading_dropout + layers)
    x = rng.normal(size=(7, 4))
    g = rng.normal(size=(7, 3))
    tape = []
    stack.forward(x, rng, tape=tape)
    assert stack.backward(tape, g).shape == x.shape
    want = [grad.copy() for _, grad in param_pairs(stack)]
    for _, grad in param_pairs(stack):
        grad.fill(0.0)
    assert stack.backward(tape, g, input_grad=False) is None
    assert [grad.tobytes() for _, grad in param_pairs(stack)] == [w.tobytes() for w in want]
    assert any(np.any(w != 0.0) for w in want)


def test_dropout_in_deterministic_mode_matches_plain_network():
    rng = nn.make_rng(3)
    base = nn.LayerStack(
        [
            glorot_dense(rng, 4, 5, "relu"),
            glorot_dense(rng, 5, 2, "identity"),
        ]
    )
    with_dropout = nn.LayerStack(
        [base.layers[0], nn.DropoutLayer(0.5), base.layers[1]]
    )
    x = _nudged_input(rng, base, 5)
    y = rng.normal(size=(5, 2))

    err_plain = gradient_check(
        [p for p, _ in param_pairs(base)], stack_loss_fn(base, x, y, nn.mse)
    )
    err_dropout = gradient_check(
        [p for p, _ in param_pairs(with_dropout)],
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


# ---------------------------------------------------------------------------
# numeric guards

# (module, function) pairs allowed to call ensure_finite: the parameters
# after an Adam step, the training rows, the MC input rows and the
# classifier anomaly scores.  Every other guard is the numeric context of
# the library's entry points.
FINITE_CHECK_SITES = {
    ("nncore", "adam_step"),
    ("train", "_as_xy"),
    ("uncertainty", "_passes"),
    ("detect", "clf_anomaly_scores"),
}


def _finite_check_sites():
    import ast
    import pathlib

    sites = []
    for path in sorted(pathlib.Path(nn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "ensure_finite"):
                    sites.append((path.stem, fn.name))
    return sites


def test_finite_checks_run_only_at_the_library_boundaries():
    sites = _finite_check_sites()
    assert set(sites) == FINITE_CHECK_SITES
    assert len(sites) == len(FINITE_CHECK_SITES)  # one call at each site
