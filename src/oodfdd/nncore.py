"""Minimal deterministic neural-network engine.

Dense layers, inverted dropout, the losses used by the two pathways, Adam,
and exact manual gradients.  Everything is float64 and seeded: two runs with
the same seed produce bitwise-identical parameters.  No autodiff; each layer
implements its own backward pass, checked against finite differences by the
tests.

A forward pass records what its backward pass needs (a dense layer's input,
pre-activation and output, a dropout layer's mask) unless it is called with
`record=False`, as inference does; a backward pass after a forward that did
not record raises instead of reusing stale state.

The hot kernels write into buffers they own instead of building
temporaries: relu and the sigmoid into their pre-activation, the dense bias
add into the matmul's output, softmax's exp and divide into its shifted logits,
the dropout mask into its uniform draw (and, without recording, the
dropped-out output into the mask), and the Adam update into scratch arrays.
A stack's backward pass can skip the gradient w.r.t. its input when nothing
consumes it.  Each kernel runs the operations of the plain expression in the
same order, so its results are bitwise those of the plain form.

Forwards that do not record also take a (passes, rows, features) stack, so
MC inference can run a block of passes in one call per layer: numpy's 3-D
matmul runs one 2-D product per pass, which keeps every pass bitwise equal
to the 2-D forward.  Stacking the passes' rows into one tall 2-D matmul
would not: the BLAS may round some of its rows differently.  Recording
forwards take 2-D input only.

Layers, loss gradients and Adam's gradients carry no finite checks: the
library guards numerics once per public call instead.  `numeric_context`
makes numpy raise FloatingPointError on overflow, division by zero and
invalid operations and runs BLAS at one thread (`one_blas_thread`); the MC
calls of `uncertainty` and `detect`, the entry points of `experiments` and
`cli.main` enter it.  The input rows are checked once per call, by
`train._as_xy` and by the MC pass loop.  Adam still checks the parameters
it updated (NonFiniteError).  `cross_entropy`
and `binary_cross_entropy` check neither shapes, labels nor rows: the
training loop checks its labels once per call, and its probabilities come
from the head's softmax or sigmoid.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu", "sigmoid", "softmax")

CROSS_ENTROPY_EPS = 1e-12  # clamp for log at the true-label probability


class NonFiniteError(ArithmeticError):
    """A public operation produced NaN or Inf."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same stream on any platform."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream of `seed`, addressed by an integer key path.

    Used to hand out per-pathway / per-purpose streams so that e.g. encoder
    initialization draws the same numbers no matter which model kind is built.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


@functools.cache
def _openblas_thread_calls():
    """(get, set) of numpy's OpenBLAS thread count, or None for another BLAS."""
    import ctypes
    import sys

    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    if umath is None:
        return None
    lib = ctypes.CDLL(umath.__file__)  # its symbol lookup covers the BLAS it links
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread; restore its count after.

    OpenBLAS results depend on its thread count, and layers at most 196
    wide gain nothing from threads, so one thread is the only count the
    library runs.  Another BLAS (MKL, BLIS; threadpoolctl covers those) is
    left alone.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@contextlib.contextmanager
def numeric_context():
    """Run the body with numpy raising on overflow, division by zero and
    invalid operations, and with one BLAS thread (`one_blas_thread`).

    This is the library's numeric guard: the layers and losses check
    nothing, so a value that overflows raises FloatingPointError where it
    is made.  The MC calls (`uncertainty.mc_moments`, `mc_sample`,
    `detect.mc_scores`), the training and pipeline entry points of
    `experiments` and `cli.main` enter it; entering it again inside is
    harmless.  Usable as a decorator.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"), one_blas_thread():
        yield


def as_matrix(x: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a single row.  With
    `stacked`, a 3-D (passes, rows, features) array is accepted as it is."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 and not (stacked and x.ndim == 3):
        raise ValueError(f"expected 1-D or 2-D input, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function that never overflows.

    With e = exp(-|x|), returns 1/(1+e) where x >= 0 and e/(1+e) elsewhere
    (NaN included): per element the arithmetic of splitting by sign, in two
    input-sized buffers plus the sign mask.  The result goes to `out`, which
    may be `x` itself; the mask is taken before `out` is written.
    """
    nonneg = x >= 0
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.divide(out, denom, out=out)
    np.divide(1.0, denom, out=out, where=nonneg)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, bitwise exp(x - max) / sum(exp(x - max)).

    The row max is taken column by column: numpy's last-axis max is slow on
    short rows.  It is exact; where +0 and -0 tie it may pick the other
    zero, which changes only the sign of a zero in x - max, and exp maps
    both to 1.  The sum stays numpy's, whose order the result depends on.
    """
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    z = x - top[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    """The activation of `pre`; relu and sigmoid overwrite `pre` with their
    output.  Their backward stays exact: relu's because pre > 0 wherever
    out > 0, sigmoid's because it reads only the output."""
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(0.0, pre, out=pre)
    if name == "sigmoid":
        return sigmoid(pre, out=pre)
    if name == "softmax":
        return softmax(pre)
    raise ValueError(f"unknown activation {name!r}")


def _activation_backward(
    name: str, grad_out: np.ndarray, pre: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """grad_out times d(activation)/d(pre-activation), elementwise."""
    if name == "identity":
        return grad_out
    if name == "relu":
        return grad_out * (pre > 0.0)
    if name == "sigmoid":
        return grad_out * (out * (1.0 - out))
    if name == "softmax":
        # softmax's Jacobian is not elementwise; the classifier loss supplies
        # the fused logit gradient instead (backward_from_logits)
        raise RuntimeError(
            "softmax has no elementwise backward; use the fused logits path"
        )
    raise ValueError(f"unknown activation {name!r}")


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


# ---------------------------------------------------------------------------
# layers


class DenseLayer:
    """Fully connected layer: activation(x @ W.T + b).

    weights has shape (out, in).  Gradients accumulate into `grad_w` / `grad_b`
    until the owning stack's `zero_grad`.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ValueError(
                f"weights {weights.shape} and bias {bias.shape} do not agree"
            )
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self.grad_w = np.zeros_like(weights)
        self.grad_b = np.zeros_like(bias)
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None
        self._out: np.ndarray | None = None

    @classmethod
    def init(
        cls, rng: np.random.Generator, in_dim: int, out_dim: int, activation: str
    ) -> "DenseLayer":
        return cls(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray, *, record: bool = True) -> np.ndarray:
        """activation(x @ W.T + b); with `record` false nothing is kept for
        backward, which then raises, and `x` may be a (passes, rows, in)
        stack: numpy's matmul runs one product per pass, each bitwise the
        2-D one."""
        x = as_matrix(x, stacked=not record)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"input has {x.shape[-1]} features, layer expects {self.in_dim}"
            )
        pre = x @ self.weights.T
        pre += self.bias
        out = _activate(self.activation, pre)
        self._x, self._pre, self._out = (x, pre, out) if record else (None, None, None)
        return out

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter grads; return the gradient w.r.t. the input,
        or None without computing it when `input_grad` is false."""
        _, pre, out = self._recorded()
        dpre = _activation_backward(self.activation, grad_out, pre, out)
        return self.backward_from_preactivation(dpre, input_grad)

    def backward_from_preactivation(
        self, dpre: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        x, _, _ = self._recorded()
        self.grad_w += dpre.T @ x
        self.grad_b += dpre.sum(axis=0)
        return dpre @ self.weights if input_grad else None

    def _recorded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called without a recording forward")
        return self._x, self._pre, self._out


class DropoutLayer:
    """Inverted dropout: survivors are scaled by 1/(1-p) in stochastic mode.

    Deterministic mode is the identity, so inference needs no rescaling, and
    so is its backward.  A recording stochastic forward keeps its mask so the
    backward pass replays exactly what forward did; after one that did not
    record, backward raises.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.last_mask: np.ndarray | None = None
        self._unrecorded = False

    def forward(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None,
        stochastic: bool,
        *,
        record: bool = True,
    ) -> np.ndarray:
        """`x` with dropout applied when `stochastic`; the mask comes from
        `rng.random(x.shape)`.  Without `record`, `x` may be a (passes,
        rows, width) stack, as for `DenseLayer.forward`."""
        x = as_matrix(x, stacked=not record)
        self.last_mask = None
        self._unrecorded = False
        if not stochastic or self.rate == 0.0:
            return x
        if rng is None:
            raise ValueError("stochastic dropout needs an rng")
        keep = 1.0 - self.rate
        # (u < keep) * (1 / keep), built in the draw's buffer
        mask = rng.random(x.shape)
        np.less(mask, keep, out=mask)
        mask *= 1.0 / keep
        if record:
            self.last_mask = mask
            return x * mask
        self._unrecorded = True
        return np.multiply(x, mask, out=mask)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._unrecorded:
            raise RuntimeError("backward called without a recording forward")
        if self.last_mask is None:
            return grad_out
        return grad_out * self.last_mask


Layer = DenseLayer | DropoutLayer


class LayerStack:
    """An ordered pipeline of dense/dropout layers with manual backprop."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        stochastic: bool = False,
        start: int = 0,
        *,
        record: bool = True,
    ) -> np.ndarray:
        """Run layers[start:] on `x`; with start > 0, `x` is what layer
        start - 1 returned.  With `record` false no layer keeps anything
        for backward."""
        h = x
        for layer in self.layers[start:]:
            if isinstance(layer, DropoutLayer):
                h = layer.forward(h, rng, stochastic, record=record)
            else:
                h = layer.forward(h, record=record)
        return h

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate `grad_out`, accumulating every parameter gradient.

        Returns the gradient w.r.t. the stack's input.  With `input_grad`
        false the stack's first dense layer skips its input gradient, the
        parameter-free layers before it are not visited, and None is
        returned; the parameter gradients are the same either way.
        """
        first = None if input_grad else self.dense_layers()[0]
        g = grad_out
        for layer in reversed(self.layers):
            if layer is first:
                return layer.backward(g, input_grad=False)
            g = layer.backward(g)
        return g

    def backward_from_logits(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backward pass where the loss already differentiated through the
        final activation (fused softmax/sigmoid + cross-entropy)."""
        last = self.layers[-1]
        if not isinstance(last, DenseLayer):
            raise RuntimeError("stack must end in a dense layer for the fused path")
        g = last.backward_from_preactivation(grad_logits)
        for layer in reversed(self.layers[:-1]):
            g = layer.backward(g)
        return g

    def params(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs: weights then bias per dense layer."""
        return [pair for layer in self.dense_layers()
                for pair in ((layer.weights, layer.grad_w), (layer.bias, layer.grad_b))]

    def zero_grad(self) -> None:
        for _, grad in self.params():
            grad.fill(0.0)

    def dense_layers(self) -> list[DenseLayer]:
        return [l for l in self.layers if isinstance(l, DenseLayer)]


def flatten_stacks(stacks: list[LayerStack]) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Move every dense parameter of `stacks` into one contiguous buffer pair.

    Returns (params, grads, spans): flat float64 buffers laid out stack by
    stack, per dense layer weights row-major then bias, and each stack's
    slice of them.  The layers' weights, bias, grad_w and grad_b become views
    of the buffers with their values kept; grads start at zero.
    """
    size = sum(p.size for stack in stacks for p, _ in stack.params())
    params, grads = np.empty(size), np.zeros(size)
    spans, offset = [], 0
    for stack in stacks:
        start = offset
        for layer in stack.dense_layers():
            for name, grad_name in (("weights", "grad_w"), ("bias", "grad_b")):
                arr = getattr(layer, name)
                end = offset + arr.size
                params[offset:end] = arr.ravel()
                setattr(layer, name, params[offset:end].reshape(arr.shape))
                setattr(layer, grad_name, grads[offset:end].reshape(arr.shape))
                offset = end
        spans.append(slice(start, offset))
    return params, grads, spans


# ---------------------------------------------------------------------------
# losses


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of softmax outputs.

    `probs` is an (n, c) float64 array of probability rows and `labels` n
    integers in [0, c); neither is checked.  Returns (loss, gradient w.r.t.
    the pre-softmax logits).  Probabilities at the true label are clamped at
    1e-12 before the log.
    """
    n = len(probs)
    rows = np.arange(n)
    # np.maximum is np.clip with no upper bound, bit for bit, NaN included
    picked = np.maximum(probs[rows, labels], CROSS_ENTROPY_EPS)
    loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def binary_cross_entropy(
    p: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bernoulli log loss for a single sigmoid output unit.

    `p` is an (n, 1) float64 array and `labels` n values, each 0 or 1;
    neither is checked.  Returns the gradient w.r.t. the pre-sigmoid logit,
    (p - y) / n.
    """
    q = np.minimum(np.maximum(p[:, 0], CROSS_ENTROPY_EPS), 1.0 - CROSS_ENTROPY_EPS)
    loss = float(-(labels * np.log(q) + (1.0 - labels) * np.log(1.0 - q)).mean())
    grad = (p[:, 0] - labels)[:, None] / len(p)
    return loss, grad


def mse(
    xhat: np.ndarray, x: np.ndarray, n_rows: int | None = None
) -> tuple[float, np.ndarray]:
    """Squared error summed over the given rows, divided by n_rows * d.

    With n_rows omitted it is the per-example mean squared error averaged
    over the batch.  A larger `n_rows` scores the given rows as part of an
    n_rows-row batch whose other rows contribute zero, which is how the
    joint objective keeps its normals-only term weighted by the full batch.
    Returns (loss, gradient w.r.t. xhat).
    """
    xhat = as_matrix(xhat)
    x = as_matrix(x)
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch {xhat.shape} vs {x.shape}")
    n, d = x.shape
    if n_rows is None:
        n_rows = n
    elif n_rows < n:
        raise ValueError(f"cannot normalise {n} rows by a batch of {n_rows}")
    diff = xhat - x
    loss = float((diff**2).sum() / (n_rows * d))
    grad = 2.0 * diff / (n_rows * d)
    return loss, grad


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment buffers, one pair per parameter array, and two
    scratch arrays of the same shape for the update's intermediates."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place on the parameter arrays;
    elementwise, so how a flat buffer is cut into spans changes no bit.

    The update is
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
        p -= lr * (m/c1) / (sqrt(v/c2) + eps)
    evaluated operation by operation in that order into the state's scratch
    arrays instead of temporaries.

    The gradients are not checked: a NaN or infinite gradient always makes
    the updated parameters non-finite, and they are checked, so the step
    raises NonFiniteError either way.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must align")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        if p.shape != g.shape:
            raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
        m *= beta1
        np.multiply(1.0 - beta1, g, out=a)
        m += a
        v *= beta2
        np.square(g, out=b)
        b *= 1.0 - beta2
        v += b
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a
        ensure_finite(p, "parameters after adam_step")
