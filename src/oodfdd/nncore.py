"""Minimal deterministic neural-network engine.

Dense layers, inverted dropout, the losses used by the two pathways, Adam,
and exact manual gradients.  Everything is float64 and seeded: two runs with
the same seed produce bitwise-identical parameters.  No autodiff; the
backward pass is written by hand and checked against finite differences by
the tests.

Layers are parameter records: a `DenseLayer` holds its weights, bias,
activation and parameter gradients, a `DropoutLayer` its rate.  A
`LayerStack` is the only forward/backward API.  Every forward pass runs one
loop (`_forward`) over the stack's (layer, is_dense) records, and every
backward pass one loop (`_backward`), so there is one copy of the math.  A
forward that is handed a tape, a list its caller holds, appends what the
backward pass reads: a dense layer's (input, output) and a dropout layer's
mask, or None where it dropped nothing.  Without a tape nothing is kept, as
inference runs.  A backward pass reads the tape of the forward it follows
and writes each dense layer's parameter gradients: it does not add to what
an earlier batch left, so no batch starts with a zero fill.  The loops
check no shapes: the callers that take user input check it once
(`LayerStack.forward`, `train.train`).

The hot kernels write into buffers instead of building temporaries: the
dense bias add and the activations into the matmul's output (softmax and
the sigmoid through scratch arrays a caller may pass), the dropout mask
into its uniform draw (and, without a tape, the dropped-out output into
the mask), and Adam's update of a whole flat buffer into scratch arrays.
`LayerStack.forward_into` writes every layer's output and scratch into
buffers its caller allocated once, so MC inference allocates nothing per
pass, and adds a dense layer's bias through a row tile its caller made
once (`row_tile`): the bias repeated for at most TILE_ROWS rows, added
over a flat view of the output, the leftover rows in a plain broadcast
add (`rowwise`, which `data` also standardises through).  numpy runs a
broadcast add over rows n wide as an inner loop n long, which at the 2
to 16 widths of these nets is up to 2.5 times as slow; a tile of the
whole output would cost as much memory as the output.  A stack's backward pass
can skip the gradient w.r.t. its input when nothing consumes it.  Each
kernel runs the operations of the plain expression in the same order, so
its results are bitwise those of the plain form.

Dropout draws only in a forward pass handed a source of uniforms, anything
with the generator's `random(shape)`: `Uniforms` draws those of several
passes or batches in one call, makes them into each layer's masks with two
numpy calls per layer for the whole run, and hands them out layer by layer,
bitwise the masks the layers would make from their own draws one by one.

Forwards without a tape also take a (passes, rows, features) stack, so MC
inference can run a block of passes in one call per layer: numpy's 3-D
matmul runs one 2-D product per pass, which keeps every pass bitwise equal
to the 2-D forward.  Stacking the passes' rows into one tall 2-D matmul
would not: the BLAS may round some of its rows differently.  Forwards with
a tape take 2-D input only.

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
import itertools
import math
import os

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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else 1.  Work beside the calling thread (a
    worker lane, the MC draw helper) runs only when this is at least 2."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
    is made.  The MC calls (`uncertainty.mc_moments`, `mc_samples`,
    `detect.mc_scores`), the training and pipeline entry points of
    `experiments` and `cli.main` enter it; entering it again inside is
    harmless.  Usable as a decorator.

    Both halves are per thread or per process, not per call tree: numpy's
    error state lives in a context variable, so a thread the body starts
    runs under it only if it runs in a copy of the caller's context
    (`contextvars.copy_context().run`), as the MC draw helper does; the
    OpenBLAS thread count is process-wide, so such a thread must not enter
    `one_blas_thread`, whose exit would reset the count under the caller.
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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None,
            work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Logistic function that never overflows.

    With e = exp(-|x|), returns 1/(1+e) where x >= 0 and e/(1+e) elsewhere
    (NaN included): per element the arithmetic of splitting by sign, in two
    input-sized buffers plus the sign mask.  Since e <= 1, max(e, mask)
    is the numerator, 1 or e (NaN kept), so one plain divide serves both
    signs; a divide masked with `where=` runs about 4x slower.  The result
    goes to `out`, which may be `x` itself; the mask is taken before `out`
    is written.  `work`, a (denominator, mask) pair of float64 and bool
    arrays of x's shape (see `scratch_views`), takes the two intermediates
    instead of new arrays.
    """
    denom, nonneg = (None, None) if work is None else work
    nonneg = np.greater_equal(x, 0, out=nonneg)
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = np.add(out, 1.0, out=denom)
    np.maximum(out, nonneg, out=out)
    np.divide(out, denom, out=out)
    return out


def softmax(x: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, bitwise exp(x - max) / sum(exp(x - max)).

    The row max is taken column by column: numpy's last-axis max is slow on
    short rows.  It is exact; where +0 and -0 tie it may pick the other
    zero, which changes only the sign of a zero in x - max, and exp maps
    both to 1.  The sum stays numpy's, whose order the result depends on.
    The result goes to `out`, which may be `x` itself; `work`, a float64
    array of x's shape without its last axis, holds the row max and then the
    row sum instead of new arrays.
    """
    if work is None:
        top = x[..., 0].copy()
    else:
        top = work
        np.copyto(top, x[..., 0])
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    z = np.subtract(x, top[..., None], out=out)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True, out=top[..., None])
    return z


def _activate(name: str, pre: np.ndarray, work=None) -> np.ndarray:
    """The activation of `pre`, written over `pre`; `work` is the scratch of
    `scratch_views` or None.  The backward stays exact: relu's because
    pre > 0 wherever out > 0, sigmoid's because it reads only the output,
    and softmax has only the fused logits path."""
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(0.0, pre, out=pre)
    if name == "sigmoid":
        return sigmoid(pre, out=pre, work=work)
    if name == "softmax":
        return softmax(pre, out=pre, work=work)
    raise ValueError(f"unknown activation {name!r}")


def scratch_columns(name: str, width: int) -> int:
    """Columns, of one float64 per row each, that the scratch of an
    activation over `width` columns takes: softmax's row max and sum,
    sigmoid's denominator and its sign mask, one byte per element."""
    if name == "softmax":
        return 1
    if name == "sigmoid":
        return width + -(-width // 8)
    return 0


def scratch_views(name: str, flat: np.ndarray, shape: tuple):
    """The `work` argument of an activation over arrays of `shape`, cut from
    `flat`, a float64 run of `scratch_columns` columns of shape[:-1] rows."""
    rows = math.prod(shape[:-1])
    if name == "softmax":
        return flat[:rows].reshape(shape[:-1])
    size = rows * shape[-1]
    return (flat[:size].reshape(shape),
            flat[size:].view(np.bool_)[:size].reshape(shape))


def _activation_backward(name: str, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """grad_out times d(activation)/d(pre-activation), elementwise, from the
    activation's output: relu's out > 0 exactly where its input was."""
    if name == "identity":
        return grad_out
    if name == "relu":
        return grad_out * (out > 0.0)
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
    """Parameters of a fully connected layer: activation(x @ W.T + b).

    weights has shape (out, in).  Each backward pass writes `grad_w` /
    `grad_b`, replacing what the previous one left.
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

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


class DropoutLayer:
    """Inverted dropout at `rate`: survivors are scaled by 1/(1-rate) when a
    forward pass is handed a source of uniforms.  Without one it is the
    identity, so inference needs no rescaling, and so is its backward."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)


def _to_mask(u: np.ndarray, keep: float) -> np.ndarray:
    """(u < keep) * (1 / keep), written over the uniforms `u`."""
    np.less(u, keep, out=u)
    u *= 1.0 / keep
    return u


def _dropout_mask(source, shape: tuple, rate: float, out: np.ndarray | None) -> np.ndarray:
    """The inverted-dropout mask of `shape` at `rate`: handed out ready by a
    `Uniforms`, else made from the source's uniforms, drawn into `out` when
    it is given."""
    if isinstance(source, Uniforms):
        return source.random(shape)
    return _to_mask(source.random(shape) if out is None else source.random(out=out), 1.0 - rate)


# the buffers of a forward that allocates its outputs: none for any layer
_NO_BUFFERS = itertools.repeat((None, None, None))

# rows a row tile (`row_tile`) repeats its row for
TILE_ROWS = 128


def row_tile(row: np.ndarray, rows: int) -> np.ndarray | None:
    """The flat run of `row` repeated for min(rows, TILE_ROWS) rows, at
    least one, through which `rowwise` applies it; None for a row of at
    most one value, whose broadcast numpy already runs as a scalar loop."""
    return None if row.size <= 1 else np.tile(row, min(max(rows, 1), TILE_ROWS))


def rowwise(op, a: np.ndarray, row: np.ndarray, tile: np.ndarray | None,
            out: np.ndarray) -> np.ndarray:
    """out = op(a, row) for a binary ufunc `op`, `row` broadcast over the
    rows of `a` and the C-contiguous `out`, through `tile` (`row_tile`):
    each whole run of the tile's rows in one call over flat views, the rows
    left over in a plain broadcast call.  The same elementwise operations,
    but a broadcast over rows n wide runs an inner loop only n long."""
    if tile is None:
        return op(a, row, out=out)
    flat, dest = a.reshape(-1), out.reshape(-1)
    cut = flat.size - flat.size % tile.size
    op(flat[:cut].reshape(-1, tile.size), tile, out=dest[:cut].reshape(-1, tile.size))
    op(flat[cut:].reshape(-1, row.size), row, out=dest[cut:].reshape(-1, row.size))
    return out


def _forward(records, h: np.ndarray, source, tape: list | None,
             buffers=_NO_BUFFERS) -> np.ndarray:
    """Run the (layer, is_dense) `records` on `h`, the one forward loop of
    every stack.

    `buffers` gives, per record, where its output goes, the activation's
    scratch (`scratch_views`) and the bias tile (`row_tile`); (None,
    None, None) makes new arrays and adds the bias by broadcasting.  A dense
    output is the matmul written into its buffer, then the bias and the
    activation in place.  A dropout handed a `source`, at a rate above 0,
    makes its mask (`_dropout_mask`; drawn into its buffer unless a
    `Uniforms` hands it out) and, without a tape, writes its output into
    its buffer, or into the mask without one.  With a `tape`, each record appends what its
    backward pass reads: a dense layer's (input, output), a dropout's mask
    or None where it dropped nothing.
    """
    for (layer, dense), (out, work, tile) in zip(records, buffers):
        if dense:
            pre = np.matmul(h, layer.weights.T, out=out)
            rowwise(np.add, pre, layer.bias, tile, pre)
            out = _activate(layer.activation, pre, work)
            if tape is not None:
                tape.append((h, out))
            h = out
            continue
        mask = None
        if source is not None and layer.rate != 0.0:
            mask = _dropout_mask(source, h.shape, layer.rate, out)
            if tape is None:
                h = np.multiply(h, mask, out=mask if out is None else out)
            else:
                h = h * mask
        if tape is not None:
            tape.append(mask)
    return h


def _backward(records, tape: list, g: np.ndarray, first: int = 0, input_grad: bool = True,
              from_logits: bool = False) -> np.ndarray | None:
    """Backpropagate `g` through records[first:], last to first, reading
    the `tape` their forward pass wrote and writing each dense layer's
    parameter gradients; the one backward loop of every stack.

    With `from_logits`, `g` is the gradient w.r.t. the last layer's
    pre-activation, which must be dense.  With `input_grad` false the
    records[first] layer, dense, skips its input gradient and None is
    returned.
    """
    last = len(records) - 1
    for i in range(last, first - 1, -1):
        layer, dense = records[i]
        if not dense:
            if tape[i] is not None:
                g = g * tape[i]
            continue
        x, out = tape[i]
        dpre = g if from_logits and i == last else _activation_backward(layer.activation, g, out)
        np.matmul(dpre.T, x, out=layer.grad_w)
        np.add.reduce(dpre, axis=0, out=layer.grad_b)
        if i == first and not input_grad:
            return None
        g = dpre @ layer.weights
    return g


class Uniforms:
    """The dropout masks of `steps` forward passes, their uniforms drawn in
    one call, handed out layer by layer.

    Each step draws `rows` x w uniforms for each w in `widths`, in order, as
    the dropout layers of one pass would.  One `rng.random` call takes
    exactly what the steps' per-layer draws would take in turn, one 64-bit
    output per double: step k's draws are row k of the block.  Each layer's
    draws of every step are made into its masks (u < keep) * (1 / keep) in
    place, keep = 1 - its entry of `rates`, two numpy calls per layer for
    the whole run.  `random(shape)` hands out the next layer's masks: with
    `stacked`, the (steps, rows, w) view of every step's masks at once, for
    a stacked block of MC passes; without, one step's (rows, w) view at a
    time, step by step, for batches run in turn.  It raises if `shape` is
    not the one expected next.  With `out`, a float64 buffer of at least
    the draws' size, the draws go into it; a later draw into the same
    buffer overwrites them.
    """

    def __init__(self, rng: np.random.Generator, steps: int, rows: int, widths: list[int],
                 *, stacked: bool, rates: list[float], out: np.ndarray | None = None):
        size = steps * rows * sum(widths)
        block = rng.random(size) if out is None else rng.random(out=out[:size])
        block = block.reshape(steps, -1)
        views, start = [], 0
        for width, rate in zip(widths, rates):
            run = _to_mask(block[:, start:start + rows * width], 1.0 - rate)
            views.append(run.reshape(steps, rows, width))
            start += rows * width
        self._views = views if stacked else [view[k] for k in range(steps) for view in views]
        self._views.reverse()

    def random(self, shape) -> np.ndarray:
        if not self._views or self._views[-1].shape != tuple(shape):
            raise RuntimeError(f"dropout draw of shape {tuple(shape)} is out of step "
                               "with the drawn layers")
        return self._views.pop()


Layer = DenseLayer | DropoutLayer


class LayerStack:
    """An ordered pipeline of dense/dropout layers with manual backprop.

    Its forward and backward passes run one loop over per-layer records
    (`_forward`, `_backward`); a backward pass reads the tape that its
    forward pass was handed."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        self._records = [(layer, isinstance(layer, DenseLayer)) for layer in self.layers]
        self._dense = [layer for layer, dense in self._records if dense]
        self._first_dense = next((i for i, (_, dense) in enumerate(self._records) if dense), 0)

    def forward(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        stop: int | None = None,
        *,
        tape: list | None = None,
    ) -> np.ndarray:
        """Run layers[:stop] on `x`, checking its width against the first
        dense layer's; dropout draws from `rng`, and without one is the
        identity.  With a `tape`, `x` must be 2-D and the tape gets what the
        backward pass reads; without, nothing is kept and `x` may be a
        (passes, rows, features) stack."""
        x = as_matrix(x, stacked=tape is None)
        if self._dense and x.shape[-1] != self._dense[0].in_dim:
            raise ValueError(
                f"input has {x.shape[-1]} features, layer expects {self._dense[0].in_dim}"
            )
        return _forward(self._records[:stop], x, rng, tape)

    def forward_into(self, x: np.ndarray, source, buffers: list, start: int = 0) -> np.ndarray:
        """A forward of layers[start:], drawing from `source`, that keeps
        nothing for backward and writes each layer's output into its entry
        of `buffers`, an (output, activation scratch, bias tile) triple per
        layer (see `_forward`); `x` may be a stack of passes.  Returns the
        last output."""
        return _forward(self._records[start:], x, source, None, buffers)

    def backward(self, tape: list, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate `grad_out` through the forward pass that wrote
        `tape`, writing every parameter gradient.

        Returns the gradient w.r.t. the stack's input.  With `input_grad`
        false the stack's first dense layer skips its input gradient, the
        parameter-free layers before it are not visited, and None is
        returned; the parameter gradients are the same either way.
        """
        if input_grad:
            return _backward(self._records, tape, grad_out)
        return _backward(self._records, tape, grad_out, self._first_dense, input_grad=False)

    def backward_from_logits(self, tape: list, grad_logits: np.ndarray) -> np.ndarray:
        """Backward pass where the loss already differentiated through the
        final activation (fused softmax/sigmoid + cross-entropy)."""
        if not self._records[-1][1]:
            raise RuntimeError("stack must end in a dense layer for the fused path")
        return _backward(self._records, tape, grad_logits, from_logits=True)

    def dense_layers(self) -> list[DenseLayer]:
        return list(self._dense)

    def draws(self, start: int = 0) -> tuple[list[int], list[float]]:
        """(widths, rates) of each dropout layer in layers[start:] that draws
        (rate > 0), in order.  Its width is the output width of the dense
        layer before it, or the stack's input width."""
        widths, rates, width = [], [], self._dense[0].in_dim
        for i, (layer, dense) in enumerate(self._records):
            if dense:
                width = layer.out_dim
            elif i >= start and layer.rate > 0.0:
                widths.append(width)
                rates.append(layer.rate)
        return widths, rates


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
    loss = float(-(np.add.reduce(np.log(picked)) / n))  # np.mean, minus its wrapper
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
    terms = labels * np.log(q) + (1.0 - labels) * np.log(1.0 - q)
    loss = float(-(np.add.reduce(terms) / len(p)))
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


class AdamState:
    """The step count and the first/second moments of one parameter array,
    and two scratch arrays of its shape for the update's intermediates."""

    def __init__(self, params: np.ndarray):
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.scratch = np.empty_like(params), np.empty_like(params)
        self.t = 0


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place on `params`, a network's
    whole flat buffer: elementwise, so bitwise as each array stepped alone,
    and a position whose gradient has been exactly 0 since `state` was made
    keeps its bits at any finite lr >= 0.

    The update is
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
        p -= lr * (m/c1) / (sqrt(v/c2) + eps)
    evaluated operation by operation in that order into the state's scratch
    arrays instead of temporaries.  Once c1 = 1 - b1**t rounds to 1.0 the
    divide by it is skipped: m / 1.0 equals m exactly.

    The gradients are not checked: a NaN or infinite gradient always makes
    the updated parameters non-finite, and they are checked, so the step
    raises NonFiniteError either way.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= beta1
    np.multiply(1.0 - beta1, grads, out=a)
    m += a
    v *= beta2
    np.square(grads, out=b)
    b *= 1.0 - beta2
    v += b
    if c1 == 1.0:  # from t = 356 at beta1 = 0.9; m / 1.0 is m, bit for bit
        np.multiply(m, lr, out=a)
    else:
        np.divide(m, c1, out=a)
        a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    params -= a
    ensure_finite(params, "parameters after adam_step")
