"""Monte-Carlo dropout inference and entropy diagnostics.

T stochastic forward passes with dropout left on give per-output sample sets;
the predictive mean and population variance summarize them.  One pass loop
serves every caller: each pass's encoder output feeds both the classifier
head and the decoder, so the two outputs share that pass's dropout mask.
The first encoder layer runs once per call; dropout follows it, so its
output is the same on every pass.  `mc_moments` reduces the passes of a
batch as they are drawn, and is the one place an MC mean and variance are
computed; `mc_samples` keeps every pass's outputs.  Sums are reduced in
sample-index order so repeated runs with the same seed reproduce the
statistics bitwise.

On small batches the cost of a layer call outweighs its arithmetic, so the
passes run in blocks stacked along a leading axis, one layer call per
block, as many passes to a block as PASS_BLOCK_BUDGET allows.  A block
draws its dropout uniforms in pass order, into one half of a double draw
buffer where they become masks, and each pass is bitwise the pass run
alone; a batch too large for two passes in the budget runs in blocks of
one pass, which draw layer by layer into the buffers of the layers'
outputs.  Where a call runs several stacked blocks and the process may run
on two CPUs, a helper thread draws the next block into the other half
while a block runs (`_block_sources`).  The helper lives only inside the
call: it is started there and joined before the call returns or raises,
and no thread outlives it.  It is the only user of the random generator
while it lives, and draws block after block, so the draws come in the
order they would inline.

The passes run their stacks without a tape, so nothing is kept for a
backward pass that inference never runs.  Every block writes into buffers
allocated once per call, one arena (`_pass_plan`), the draw buffer and
each dense layer's bias tile (`nncore.row_tile`), so once the first two
blocks are drawn the passes allocate no buffers and fault in no fresh
pages.  The yielded outputs are views of those buffers, which the next
block overwrites: `mc_moments` folds each pass in before the next runs, and
`mc_samples` copies them.  The Welford mean and m2 and the reconstruction
sum are updated in place; the Welford step works in two scratch arrays of
its own and never writes into the samples.  Both calls run under
`nncore.numeric_context`, so a pass that overflows raises
FloatingPointError.  Entropy is the natural-log
entropy of the predictive mean distribution, with the usual 0*log(0) = 0
convention.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PathwayNetwork
from .nncore import (DenseLayer, Uniforms, as_matrix, ensure_finite, numeric_context,
                     row_tile, scratch_columns, scratch_views, usable_cpus)


def _welford_step(k: int, sample: np.ndarray, mean: np.ndarray, m2: np.ndarray,
                  scratch: np.ndarray) -> None:
    """Fold the k-th (0-based) sample into the running (mean, m2) pair in
    place by the documented recurrence
        delta = x_k - mean;  mean += delta / (k + 1);  m2 += delta * (x_k - mean)
    which, replayed in sample-index order, reproduces both statistics
    bitwise, and gives constant samples exactly zero variance.  `scratch`
    holds two arrays of the sample's shape."""
    delta, tmp = scratch
    np.subtract(sample, mean, out=delta)
    np.divide(delta, k + 1, out=tmp)
    mean += tmp
    np.subtract(sample, mean, out=tmp)
    tmp *= delta
    m2 += tmp


def _population_variance(m2: np.ndarray, t: int) -> np.ndarray:
    """m2 / t, in place on m2."""
    # the update can leave a negative rounding residue of order 1e-30;
    # clamp so the population-variance lower bound holds exactly
    np.maximum(m2, 0.0, out=m2)
    m2 /= t
    return m2


class McSamples(NamedTuple):
    """Every pass's outputs over a batch; None where the net lacks the pathway."""

    clf: np.ndarray | None  # (T, N, C)
    rec: np.ndarray | None  # (T, N, D)


class McMoments(NamedTuple):
    """Per-row MC statistics of a batch; None where the net lacks the pathway."""

    clf_mean: np.ndarray | None  # (N, C)
    clf_var: np.ndarray | None  # (N, C)
    rec_mean: np.ndarray | None  # (N, D)


# float64 elements (2 MB) a block of stacked passes may take for its arena
# (`_pass_plan`) and both halves of its double draw buffer; a batch whose single
# pass is larger runs pass by pass.  Scoring 500-row thyroid requests,
# 2**19 was 2 % faster than 2**18 but raised the process's peak RSS by
# 1.3 MB; 2**17 was 7 % slower.  A second draw buffer outside the budget
# raised the peak by about 1 MB
PASS_BLOCK_BUDGET = 2**18


def _pass_layout(net: PathwayNetwork) -> tuple[tuple[list[int], list[float]], int, tuple]:
    """(draws, row_width, arena) of one pass after the encoder's first
    layer.  draws: the (widths, rates) of the dropout layers that draw, in
    order (`LayerStack.draws`); arena: the (plan, columns) of `_pass_plan`;
    row_width: the float64 elements a row of a block takes, the arena's
    columns and two copies of the draws, one per half of the double draw
    buffer."""
    draws, arena = net.encoder.draws(start=1), _pass_plan(net)
    return draws, 2 * sum(draws[0]) + arena[1], arena


def _pass_plan(net: PathwayNetwork) -> tuple[list, int]:
    """Where each layer of a pass writes, in one arena per `_passes` call.

    Returns (plan, columns).  The plan holds, for the encoder after its
    first layer, the head and the decoder (None for an absent pathway), an
    (output, scratch) pair of spans per layer.  A span is (first column,
    columns) of an arena whose column holds one float64 per row of a block;
    None where a layer writes nothing: a dropout that does not draw passes
    its input on.  A drawing dropout writes its output into its own span,
    not into its mask: a block's masks are strided views of the draws, and
    numpy copies a whole operand to write in place into one.

    The latent, when the head and the decoder both read it, and then the
    head's output, kept while the decoder runs, take the top columns.
    Every other array is dead once the next layer has read it, so each
    output goes at the end of the columns below that its input does not
    hold, and an activation's scratch, live once its input is dead, at the
    end its output does not hold: the low end, for a kept output.  Those
    columns are as wide as the widest such pair or a kept output's scratch.
    """
    both = net.head is not None and net.decoder is not None
    layers = []  # per stack: [columns, scratch columns, kept] per layer, None if it writes nothing
    for stack, start in ((net.encoder, 1), (net.head, 0), (net.decoder, 0)):
        row, width = [], net.encoder.dense_layers()[0].out_dim
        for layer in [] if stack is None else stack.layers[start:]:
            if isinstance(layer, DenseLayer):
                width = layer.out_dim
                row.append([width, scratch_columns(layer.activation, width), False])
            else:
                row.append([width, 0, False] if layer.rate > 0.0 else None)
        written = [w for w in row if w is not None]
        if both and stack is not net.decoder and written:
            written[-1][2] = True
        layers.append(None if stack is None else row)

    low = held = 0  # held: the columns below the top that the next layer's input takes
    for cols, work, kept in (w for row in layers if row for w in row if w):
        low, held = (max(low, work), 0) if kept else (max(low, held + cols, cols + work), cols)
    top, side, plan = low, None, []  # side: the end the next input holds (0 low, 1 high)
    for row in layers:
        spans = None if row is None else []
        for w in row or ():
            if w is None:
                spans.append((None, None))
                continue
            cols, work, kept = w
            if kept:
                out, side, top = (top, cols), None, top + cols
            else:
                side = 1 if side == 0 else 0
                out = (0, cols) if side == 0 else (low - cols, cols)
            # the scratch at the other end, or at the low end for a kept output
            work = ((low - work, work) if side == 0 else (0, work)) if work else None
            spans.append((out, work))
        plan.append(spans)
    return plan, top


def _pass_stacks(net: PathwayNetwork) -> list:
    """The layers a pass runs after the encoder's first: per stack of the
    plan, its list of layers, or None for an absent pathway."""
    return [None if stack is None else stack.layers[start:]
            for stack, start in ((net.encoder, 1), (net.head, 0), (net.decoder, 0))]


def _cut(stacks: list, plan: list, tiles: list, arena: np.ndarray, b: int, rows: int) -> list:
    """The buffers of `plan` for a block of b passes: for each stack of the
    plan, an (output, scratch, bias tile) triple per layer, the first two
    arena views (see `LayerStack.forward_into`)."""
    n = b * rows

    def run(span):
        first, cols = span
        return arena[first * n:(first + cols) * n]

    cut = []
    for layers, spans, stack_tiles in zip(stacks, plan, tiles):
        if spans is None:
            cut.append(None)
            continue
        buffers = []
        for layer, (out, work), tile in zip(layers, spans, stack_tiles):
            if work is not None:
                work = scratch_views(layer.activation, run(work), (b, rows, layer.out_dim))
            buffers.append((None if out is None else run(out).reshape(b, rows, out[1]), work,
                            tile))
        cut.append(buffers)
    return cut


def _block_sources(rng: np.random.Generator, sizes: list[int], rows: int, draws: list[int],
                   rates: list[float]):
    """Yield (passes, source of dropout draws) for each block of `sizes`
    passes in turn.

    Blocks of one pass, or a net that draws nothing, draw from `rng` as
    their layers run.  Stacked blocks take `Uniforms` drawn into a double
    buffer: inline into its first half for a lone block or where the
    process may run on one CPU only (`usable_cpus`), and otherwise into
    alternate halves by a helper thread, which draws block k+1 while the
    caller runs block k, and block k+2 once the caller asks for block
    k+1, which frees block k's half.

    The helper is started here and joined when this generator finishes or
    is closed.  Only the helper touches `rng` meanwhile, one block after
    another, so the draws come in the order the blocks would take them
    inline.  It runs in a copy of the caller's context, and so under the
    caller's `np.errstate`; it never enters `one_blas_thread`, whose count
    is process-wide.  A draw that raises ends the helper and raises here,
    in the caller, with its type.
    """
    if sizes[0] == 1 or not draws:
        for b in sizes:
            yield b, rng
        return
    halves = np.empty((2, sizes[0] * rows * sum(draws)))
    if len(sizes) == 1 or usable_cpus() < 2:
        for b in sizes:
            yield b, Uniforms(rng, b, rows, draws, stacked=True, out=halves[0], rates=rates)
        return
    free, ready = threading.Semaphore(2), threading.Semaphore(0)
    drawn, stop = [None] * len(sizes), threading.Event()

    def draw_all():
        k = 0
        try:
            for k, b in enumerate(sizes):
                free.acquire()
                if stop.is_set():
                    return
                drawn[k] = Uniforms(rng, b, rows, draws, stacked=True, out=halves[k % 2],
                                    rates=rates)
                ready.release()
        except BaseException as exc:  # raised again in the caller
            drawn[k] = exc
            ready.release()

    helper = threading.Thread(target=contextvars.copy_context().run, args=(draw_all,),
                              name="oodfdd-mc-draws", daemon=True)
    helper.start()
    try:
        for k, b in enumerate(sizes):
            if k:
                free.release()  # block k-1 ran: its half may take block k+1's draws
            ready.acquire()
            source, drawn[k] = drawn[k], None
            if isinstance(source, BaseException):
                raise source
            yield b, source
    finally:
        stop.set()
        free.release()  # wakes a helper waiting for a half, which then stops
        helper.join()


def _passes(net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator):
    """Yield (head output, decoder output) for each of T dropout-active passes.

    Each pass runs the encoder once and feeds both pathways from it, so they
    share that pass's dropout mask; an absent pathway yields None.  The
    encoder's first layer is dense and dropout follows it, so its output is
    the same on every pass: it runs once per call, and each pass runs the
    layers after it, through `LayerStack.forward_into`.  Nothing is kept for
    backward.

    Passes run in blocks of B stacked along a leading axis, one layer call
    per block, with B as large as PASS_BLOCK_BUDGET allows for the rows'
    layer outputs and two copies of their draws.  The draws are taken in
    pass order, and each pass's outputs are yielded as views, in order,
    bitwise those of a pass run alone.  With B > 1 a block takes its draws
    in one call, made into masks in one half of a double buffer
    (`nncore.Uniforms`), and with more than one block a helper thread
    draws block k+1 into the other half while block k runs, started and
    joined inside this generator (`_block_sources`); with B = 1 each
    dropout layer draws from `rng` in turn, into its output's buffer.
    Every dense layer adds its bias through a row tile (`nncore.row_tile`)
    made once per call.

    Every block writes into the arena of `_pass_plan` and the draw buffer,
    both allocated once per call, so the yielded views are overwritten by
    the next block: a caller that keeps them copies them.

    The input rows are checked here, once per call of `mc_moments` or
    `mc_samples`, which run under `numeric_context`: to be finite, and by
    the first layer's forward to be as wide as the encoder's input.
    """
    if t < 2:
        raise ValueError(f"need at least 2 samples, got {t}")
    ensure_finite(x, "MC input rows")
    first = net.encoder.forward(x, stop=1)
    rows = len(first)
    (draws, rates), row_width, (plan, columns) = _pass_layout(net)
    block = min(t, max(1, PASS_BLOCK_BUDGET // (rows * row_width)))
    sizes = [min(block, t - done) for done in range(0, t, block)]
    stacks = _pass_stacks(net)
    tiles = [None if layers is None else
             [row_tile(layer.bias, block * rows) if isinstance(layer, DenseLayer) else None
              for layer in layers] for layers in stacks]
    arena = np.empty(columns * block * rows)
    buffers = None
    with contextlib.closing(_block_sources(rng, sizes, rows, draws, rates)) as blocks:
        for b, source in blocks:
            if buffers is None or buffers[0] != b:
                buffers = b, _cut(stacks, plan, tiles, arena, b, rows)
            encoder, head, decoder = buffers[1]
            h = np.broadcast_to(first, (b, *first.shape))
            h = net.encoder.forward_into(h, source, encoder, start=1)
            clf = None if head is None else net.head.forward_into(h, None, head)
            rec = None if decoder is None else net.decoder.forward_into(h, None, decoder)
            for k in range(b):
                yield (None if clf is None else clf[k], None if rec is None else rec[k])


@numeric_context()
def mc_moments(
    net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator
) -> McMoments:
    """T dropout-active passes over a batch, reduced as they are drawn.

    Classifier outputs go through the sequential mean/variance update of
    `_welford_step`; reconstructions keep a running sum divided by T.
    Memory stays flat in T.  Requires t >= 2; a dropout rate of 0 is allowed
    and simply yields zero variance.
    """
    x = as_matrix(x)
    clf_mean = clf_m2 = rec_sum = None
    if net.head is not None:
        clf_mean, clf_m2 = np.zeros((2, len(x), net.arch.n_outputs))
        scratch = np.empty((2, len(x), net.arch.n_outputs))
    if net.decoder is not None:
        rec_sum = np.zeros_like(x)
    # a counter and a del rather than enumerate, which holds on to the item
    # it last returned: each pass's outputs are freed before the next is drawn
    k = 0
    for clf, rec in _passes(net, x, t, rng):
        if clf is not None:
            _welford_step(k, clf, clf_mean, clf_m2, scratch)
        if rec is not None:
            rec_sum += rec
        del clf, rec
        k += 1
    if rec_sum is not None:
        rec_sum /= t
    return McMoments(
        clf_mean=clf_mean,
        clf_var=None if clf_m2 is None else _population_variance(clf_m2, t),
        rec_mean=rec_sum,
    )


@numeric_context()
def mc_samples(
    net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator
) -> McSamples:
    """The passes of `mc_moments` over a batch, with every pass's outputs
    kept: each is copied into one (T, N, ...) array per pathway, since the
    next block overwrites the buffers the passes are yielded in."""
    x = as_matrix(x)
    clf = None if net.head is None else np.empty((t, len(x), net.arch.n_outputs))
    rec = None if net.decoder is None else np.empty((t, *x.shape))
    for k, (c, r) in enumerate(_passes(net, x, t, rng)):
        if clf is not None:
            clf[k] = c
        if rec is not None:
            rec[k] = r
    return McSamples(clf, rec)


def predictive_entropy(mean: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each row of an (N, C) predictive mean; (N,).

    A single column is the positive-class probability of a two-class sigmoid
    output and is expanded to [1 - p, p].  Every row must be non-negative
    and sum to 1 within 1e-6; the error names the first row that is not.
    """
    p = np.asarray(mean, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"expected an (N, C) predictive mean, got shape {p.shape}")
    if p.shape[1] == 1:
        p = np.hstack([1.0 - p, p])
    sums = p.sum(axis=1)
    bad = np.flatnonzero((p < 0.0).any(axis=1) | (np.abs(sums - 1.0) > 1e-6))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"row {i}: probabilities must be non-negative and sum to 1, got {p[i]}")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


GROUP_NORMAL = 0  # I0: normal test examples
GROUP_FAULT_IN = 1  # I1: faults the model trained on
GROUP_OOD = 2  # I2: incipient or unknown conditions


def group_bucket(tag: str) -> int:
    """Map a group tag to its entropy-decomposition index set."""
    if tag == "normal":
        return GROUP_NORMAL
    if tag.startswith("fault:"):
        return GROUP_FAULT_IN
    if tag.startswith("incipient:") or tag == "unknown":
        return GROUP_OOD
    raise ValueError(f"unrecognized group tag {tag!r}")


def group_buckets(groups) -> np.ndarray:
    """`group_bucket` of every tag, as an int array; each distinct tag is
    mapped once."""
    tags, inverse = np.unique(np.asarray(groups), return_inverse=True)
    lookup = np.array([group_bucket(tag) for tag in tags], dtype=np.intp)
    return lookup[inverse.reshape(-1)]


@dataclass
class EntropyDecomposition:
    P0: float  # summed entropy over normal test indices
    P1_in: float  # over in-distribution fault indices
    P1_ood: float  # over out-of-distribution indices
    total: float

    @classmethod
    def from_parts(cls, p0: float, p1_in: float, p1_ood: float) -> "EntropyDecomposition":
        return cls(P0=p0, P1_in=p1_in, P1_ood=p1_ood, total=p0 + p1_in + p1_ood)


def decompose_entropies(entropies, groups) -> EntropyDecomposition:
    """Sum per-example entropies into the three index-set buckets."""
    entropies = np.asarray(entropies, dtype=np.float64).reshape(-1)
    if len(entropies) != len(groups):
        raise ValueError("entropy/group length mismatch")
    # bincount adds each bucket's weights in row order, as a loop would
    parts = np.bincount(group_buckets(groups), weights=entropies, minlength=3)
    return EntropyDecomposition.from_parts(*map(float, parts))


def histogram_table(samples: np.ndarray, bins: int = 20):
    """Per-output histogram of one row's (T, C) MC samples as (header,
    rows), one row per bin: output, bin_left, count.

    Outputs whose samples all sit inside [0, 1] are binned over [0, 1] so
    different outputs line up; anything else is binned over its own range.
    """
    rows = []
    for j in range(samples.shape[1]):
        col = samples[:, j]
        lo, hi = float(col.min()), float(col.max())
        if 0.0 <= lo and hi <= 1.0:
            lo, hi = 0.0, 1.0
        elif lo == hi:
            hi = lo + 1.0
        counts, edges = np.histogram(col, bins=bins, range=(lo, hi))
        rows += [[j, left, int(count)] for count, left in zip(counts, edges[:-1])]
    return ["output", "bin_left", "count"], rows
