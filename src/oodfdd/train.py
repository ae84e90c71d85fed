"""One trainer, `train`, whose objective follows the network's pathways.

The objective applies the reconstruction loss only to normal-labeled
examples (per-example loss = clf + beta * rec * 1{y=0}), so the decoder
runs forward and backward on a batch's normal rows only.  The term is
still normalized by the full batch's rows times features, so beta keeps a
stable meaning regardless of how many normals land in a batch.  The two
benchmarks are the augmented model with one pathway removed, and the term
of a removed pathway is dropped; the warm-up is the objective over the
encoder and decoder alone.  Every phase is one seeded, single-threaded
loop (`_fit`) that steps Adam over the network's whole flat parameter
buffer; the same TrainConfig.seed reproduces weights bitwise.  `train`
checks its rows' width and values and its labels once per call; its
batches then run the unchecked stack loops and loss kernels.  A batch's
backward pass writes its gradients rather than adding to the previous
batch's, so no batch zero-fills them.  The batches' dropout masks are drawn
and made a run of batches at a time (`_batch_uniforms`), bitwise the masks
the layers would make from their own draws one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple

import numpy as np

from .model import PathwayNetwork
from .nncore import (
    AdamState,
    Uniforms,
    adam_step,
    as_matrix,
    binary_cross_entropy,
    cross_entropy,
    derive_rng,
    ensure_finite,
    mse,
)


# "until convergence" mode, which the benchmark models train in: stop once the
# validation objective, on VAL_FRACTION of the training rows, fails to improve by
# EARLY_STOP_MIN_DELTA for EARLY_STOP_PATIENCE epochs, then restore the best
# weights; epochs acts as the cap
EARLY_STOP_MIN_DELTA = 1e-4
EARLY_STOP_PATIENCE = 10
VAL_FRACTION = 0.1

# float64 dropout uniforms (256 kB) the training loop holds at once: the
# draws of as many whole batches as fit, taken in one call into one buffer
# that every run of batches reuses.  Holding a whole epoch's draws raised
# the peak resident set of a thyroid training run by 0.4-0.9 MB
_DRAW_BUDGET = 2**15


@dataclass
class TrainConfig:
    beta: float = 1.0
    epochs: int = 100
    pretrain_epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    early_stop: bool = False


class EpochLog(NamedTuple):
    epoch: int
    clf_loss: float
    rec_loss: float
    total_loss: float


def _as_xy(dataset) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.int64)
    if len(x) != len(y):
        raise ValueError("feature/label length mismatch")
    if len(x) == 0:
        raise ValueError("training data is empty")
    ensure_finite(x, "training features")
    return x, y


def _classification_loss(net: PathwayNetwork, probs, yb):
    """The classifier loss for the net's head, unchecked: the caller's
    labels passed `train`'s check and `probs` is the head's output."""
    if net.arch.n_outputs == 1:
        return binary_cross_entropy(probs, yb)
    return cross_entropy(probs, yb)


def joint_batch_gradients(
    net: PathwayNetwork,
    xb: np.ndarray,
    yb: np.ndarray,
    beta: float,
    rng: np.random.Generator | None = None,
    roles: Collection[str] | None = None,
) -> tuple[float, float]:
    """One forward/backward pass of the objective on a single batch, its
    dropout drawn from `rng` (none without).

    The objective has the clf term when "head" is in `roles` and the
    beta-weighted rec term when "decoder" is; `roles` defaults to every
    pathway the net has.  The batch's gradients of the pathways in `roles`
    replace whatever `net.grads` held, so no zero fill is needed first.  The
    decoder sees only the normal-labeled rows: fault rows have no
    reconstruction term, so they get neither decoder work nor decoder
    gradient, and a batch without normals skips the decoder.  The rec loss
    and its gradient are normalized by the full batch's rows times
    features.  With beta = 0 the rec loss is still computed for the log,
    but the decoder gets no backward pass.  A pathway in `roles` that no
    backward pass reaches gets a gradient of exactly 0.  Returns (clf_loss,
    rec_loss), 0.0 for a term left out.

    The labels are not checked: they must lie in [0, n_classes), one per
    row, and be all 0 without the head, as `train` checks a dataset's once
    per call.
    """
    xb = as_matrix(xb)
    yb = np.asarray(yb)
    roles = net.offsets if roles is None else roles
    enc_tape, head_tape, dec_tape = [], [], []  # what each pathway's backward reads
    h = net.encoder.forward(xb, rng, tape=enc_tape)
    clf_loss, rec_loss, grad_h, decoded = 0.0, 0.0, None, False
    if "head" in roles:
        clf_loss, dlogits = _classification_loss(net, net.head.forward(h, tape=head_tape), yb)
        grad_h = net.head.backward_from_logits(head_tape, dlogits)
    normal = _normal_rows(yb) if "decoder" in roles else None
    if normal is not None:
        xhat = net.decoder.forward(h[normal], tape=dec_tape)
        rec_loss, dxhat = mse(xhat, xb[normal], n_rows=len(xb))
        if beta != 0.0:
            grad_dec = net.decoder.backward(dec_tape, beta * dxhat)
            decoded = True
            if grad_h is None:  # without the head every row is normal
                grad_h = grad_dec
            else:
                grad_h[normal] += grad_dec
    if grad_h is not None:
        net.encoder.backward(enc_tape, grad_h, input_grad=False)
    for role, reached in (("decoder", decoded), ("encoder", grad_h is not None)):
        if role in roles and not reached:
            net.grads[net.offsets[role]] = 0.0
    return clf_loss, rec_loss


def _normal_rows(y: np.ndarray) -> np.ndarray | slice | None:
    """The rows labeled normal: every row as a slice when all are, None when
    none is."""
    normal = np.flatnonzero(y == 0)
    if normal.size == 0:
        return None
    return slice(None) if normal.size == len(y) else normal


def _batch_uniforms(rng: np.random.Generator, n: int, batch_size: int, widths: list[int],
                    rates: list[float], buffer: np.ndarray) -> Iterator:
    """Where each batch of an epoch over n rows takes its dropout masks,
    batch by batch; `widths` and `rates` are those of the encoder's drawing
    layers.

    Each run of whole batches that `buffer` holds draws its uniforms in one
    call when its first batch runs and makes them into masks, layer by
    layer for the whole run; the epoch's last, short batch draws alone
    (`nncore.Uniforms`).  Drawn after the epoch's permutation, batch by
    batch and layer by layer, they are bitwise the draws the batches'
    layers would take from `rng` in turn.  Without a drawing layer every
    batch gets `rng` itself.
    """
    if not widths:
        yield from itertools.repeat(rng)
        return
    full, rest = divmod(n, batch_size)
    chunk = max(1, len(buffer) // (batch_size * sum(widths)))
    for first in range(0, full, chunk):
        steps = min(chunk, full - first)
        yield from itertools.repeat(Uniforms(rng, steps, batch_size, widths, stacked=False,
                                             out=buffer, rates=rates), steps)
    if rest:
        yield Uniforms(rng, 1, rest, widths, stacked=False, out=buffer, rates=rates)


def _objective(net: PathwayNetwork, x: np.ndarray, y: np.ndarray,
               roles: Collection[str], rec_weight: float) -> float:
    """The objective of `joint_batch_gradients` on (x, y), run without dropout
    and keeping nothing for backward; a term left out adds nothing, not even 0."""
    h = net.encoder.forward(x)
    terms = []
    if "head" in roles:
        terms.append(_classification_loss(net, net.head.forward(h), y)[0])
    normal = _normal_rows(y) if "decoder" in roles else None
    if normal is not None:
        xhat = net.decoder.forward(h[normal])
        terms.append(rec_weight * mse(xhat, x[normal], n_rows=len(x))[0])
    return sum(terms[1:], terms[0])


def _fit(net: PathwayNetwork, x: np.ndarray, y: np.ndarray, cfg: TrainConfig, epochs: int,
         stream: int, roles: Collection[str], rec_weight: float,
         val: tuple[np.ndarray, np.ndarray] | None = None) -> list[EpochLog]:
    """Seeded mini-batch Adam on the objective of the pathways in `roles`.

    Each epoch shuffles the rows of (x, y) with derive_rng(cfg.seed,
    stream), which then draws the epoch's dropout masks, as many whole
    batches' as _DRAW_BUDGET holds at a time (`_batch_uniforms`); each batch
    runs `joint_batch_gradients` with beta = rec_weight and steps Adam over
    the whole buffer.  A pathway outside `roles` keeps the zero gradient
    filled in first, so Adam steps it by exactly 0.  Epochs are logged as
    row-weighted means with total clf + rec_weight * rec.  With `val`, held
    out rows (x, y), training stops after EARLY_STOP_PATIENCE epochs
    without an EARLY_STOP_MIN_DELTA improvement of `_objective` on them and
    restores the best parameters seen.
    """
    n = len(x)
    rng = derive_rng(cfg.seed, stream)
    net.grads.fill(0.0)
    state = AdamState(net.params)
    widths, rates = net.encoder.draws()
    row_draws = sum(widths)
    buffer = np.empty(min(max(_DRAW_BUDGET, cfg.batch_size * row_draws), n * row_draws))
    history = []
    best, stale, best_snap = np.inf, 0, None
    for epoch in range(epochs):
        clf_total, rec_total = 0.0, 0.0
        perm = rng.permutation(n)
        sources = _batch_uniforms(rng, n, cfg.batch_size, widths, rates, buffer)
        for start, source in zip(range(0, n, cfg.batch_size), sources):
            idx = perm[start : start + cfg.batch_size]
            clf_loss, rec_loss = joint_batch_gradients(net, x[idx], y[idx], rec_weight, source,
                                                       roles=roles)
            adam_step(net.params, net.grads, state, lr=cfg.lr)
            clf_total += clf_loss * len(idx)
            rec_total += rec_loss * len(idx)
        clf_m, rec_m = clf_total / n, rec_total / n
        history.append(EpochLog(epoch, clf_m, rec_m, clf_m + rec_weight * rec_m))
        if val is not None:
            loss = _objective(net, *val, roles, rec_weight)
            if loss < best - EARLY_STOP_MIN_DELTA:
                best, stale, best_snap = loss, 0, net.params.copy()
            else:
                stale += 1
                if stale >= EARLY_STOP_PATIENCE:
                    break
    if best_snap is not None:
        net.params[...] = best_snap
    return history


def train(net: PathwayNetwork, dataset, cfg: TrainConfig) -> list[EpochLog]:
    """Train every pathway the net has on the objective they define.

    That is clf + cfg.beta * rec for the augmented model, clf alone for the
    classifier-only benchmark and rec alone, weighted by 1, for the
    autoencoder-only one, which refuses fault-labeled rows.  With both a
    head and a decoder, cfg.pretrain_epochs of reconstruction warm-up come
    first: encoder and decoder on the normal rows, rec weighted by 1, the
    head bitwise untouched.  cfg.epochs of the objective follow.  An lr
    that is not positive and finite raises ValueError before any epoch.  With
    cfg.early_stop a VAL_FRACTION of the rows, drawn from stream 3, is held
    out of both phases and the objective phase stops early on it (`_fit`).
    Returns the concatenated epoch log (warm-up epochs first; numbering
    restarts at 0 for the objective phase).
    """
    if not 0.0 < cfg.lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {cfg.lr}")
    x, y = _as_xy(dataset)
    if x.ndim != 2 or x.shape[1] != net.arch.input_dim:
        raise ValueError(f"rows have {x.shape[-1]} features, the net takes {net.arch.input_dim}")
    if net.head is None:
        if np.any(y != 0):
            raise ValueError("a net without a classifier head trains on normal rows only "
                             "(label 0)")
    elif y.min() < 0 or y.max() >= net.arch.n_classes:
        raise ValueError(
            f"labels must lie in [0, {net.arch.n_classes}), got range [{y.min()}, {y.max()}]")
    val = None
    if cfg.early_stop:
        perm = derive_rng(cfg.seed, 3).permutation(len(x))
        n_val = max(1, int(round(len(x) * VAL_FRACTION)))
        if n_val >= len(x):
            raise ValueError("validation split leaves no training data")
        val = x[perm[:n_val]], y[perm[:n_val]]
        x, y = x[perm[n_val:]], y[perm[n_val:]]
    history = []
    if net.head is not None and net.decoder is not None and cfg.pretrain_epochs > 0:
        normal = y == 0
        if not normal.any():
            raise ValueError("the warm-up needs at least one normal example")
        history += _fit(net, x[normal], y[normal], cfg, cfg.pretrain_epochs, 1,
                        ("encoder", "decoder"), 1.0)
    rec_weight = cfg.beta if net.head is not None else 1.0
    history += _fit(net, x, y, cfg, cfg.epochs, 2, net.offsets, rec_weight, val)
    return history
