"""Minimal deterministic neural-network engine.

Dense layers, inverted dropout, the losses used by the two pathways, Adam,
and exact manual gradients.  Everything is float64 and seeded: two runs with
the same seed produce bitwise-identical parameters.  No autodiff; each layer
implements its own backward pass and a finite-difference checker keeps them
honest.

The hot kernels (sigmoid, the dense bias add, the Adam update) write into
preallocated buffers with `out=` instead of building temporaries, and a
stack's backward pass can skip the gradient w.r.t. its input when nothing
consumes it.  Each runs the operations of the plain expression in the same
order, so its results are bitwise those of the plain form.
"""

from __future__ import annotations

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


def as_matrix(x: np.ndarray) -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a single row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows.

    With e = exp(-|x|), returns 1/(1+e) where x >= 0 and e/(1+e) elsewhere
    (NaN included): per element the arithmetic of splitting by sign, in two
    input-sized buffers plus the sign mask.
    """
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.divide(out, denom, out=out)
    np.divide(1.0, denom, out=out, where=x >= 0)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(0.0, pre)
    if name == "sigmoid":
        return sigmoid(pre)
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"input has {x.shape[1]} features, layer expects {self.in_dim}"
            )
        self._x = x
        self._pre = x @ self.weights.T
        self._pre += self.bias
        self._out = _activate(self.activation, self._pre)
        return ensure_finite(self._out, "dense forward output")

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter grads; return the gradient w.r.t. the input,
        or None without computing it when `input_grad` is false."""
        dpre = _activation_backward(self.activation, grad_out, self._pre, self._out)
        return self.backward_from_preactivation(dpre, input_grad)

    def backward_from_preactivation(
        self, dpre: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grad_w += dpre.T @ self._x
        self.grad_b += dpre.sum(axis=0)
        return dpre @ self.weights if input_grad else None


class DropoutLayer:
    """Inverted dropout: survivors are scaled by 1/(1-p) in stochastic mode.

    Deterministic mode is the identity, so inference needs no rescaling.  The
    last mask is kept so the backward pass replays exactly what forward did.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.last_mask: np.ndarray | None = None

    def forward(
        self, x: np.ndarray, rng: np.random.Generator | None, stochastic: bool
    ) -> np.ndarray:
        x = as_matrix(x)
        if not stochastic or self.rate == 0.0:
            self.last_mask = None
            return x
        if rng is None:
            raise ValueError("stochastic dropout needs an rng")
        keep = 1.0 - self.rate
        self.last_mask = (rng.random(x.shape) < keep) * (1.0 / keep)
        return x * self.last_mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
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
    ) -> np.ndarray:
        """Run layers[start:] on `x`; with start > 0, `x` is what layer
        start - 1 returned."""
        h = x
        for layer in self.layers[start:]:
            if isinstance(layer, DropoutLayer):
                h = layer.forward(h, rng, stochastic)
            else:
                h = layer.forward(h)
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

    Returns (loss, gradient w.r.t. the pre-softmax logits).  Probabilities at
    the true label are clamped at 1e-12 before the log.
    """
    probs = as_matrix(probs)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = probs.shape
    if labels.shape != (n,):
        raise ValueError(f"{n} rows but {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    row_sums = probs.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("probability rows must sum to 1")
    picked = np.clip(probs[np.arange(n), labels], CROSS_ENTROPY_EPS, None)
    loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    ensure_finite(grad, "cross-entropy gradient")
    return loss, grad


def binary_cross_entropy(
    p: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bernoulli log loss for a single sigmoid output unit.

    `p` has shape (batch, 1); returns the gradient w.r.t. the pre-sigmoid
    logit, (p - y) / batch.
    """
    p = as_matrix(p)
    if p.shape[1] != 1:
        raise ValueError("binary cross-entropy expects a single output column")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = p.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"{n} rows but {labels.shape[0]} labels")
    if np.any((labels != 0.0) & (labels != 1.0)):
        raise ValueError("binary labels must be 0 or 1")
    q = np.clip(p[:, 0], CROSS_ENTROPY_EPS, 1.0 - CROSS_ENTROPY_EPS)
    loss = float(-(labels * np.log(q) + (1.0 - labels) * np.log(1.0 - q)).mean())
    grad = (p[:, 0] - labels)[:, None] / n
    ensure_finite(grad, "binary cross-entropy gradient")
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
    ensure_finite(grad, "mse gradient")
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
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must align")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        if p.shape != g.shape:
            raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
        ensure_finite(g, "gradient passed to adam_step")
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


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(params, loss_fn, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn()` must recompute the loss and the analytic gradients for the
    current parameter values and return (loss, grads) with grads aligned to
    `params`.  It has to be deterministic (no fresh dropout draws).  Only
    suitable for small parameter counts.
    """
    _, analytic = loss_fn()
    analytic = [g.copy() for g in analytic]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up, _ = loss_fn()
            flat_p[i] = orig - eps
            down, _ = loss_fn()
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * eps)
            scale = max(abs(numeric) + abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[i]) / scale)
    return worst
