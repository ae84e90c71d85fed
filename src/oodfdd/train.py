"""Training loops: reconstruction warm-up, joint objective, benchmarks.

The joint objective applies the reconstruction loss only to normal-labeled
examples (per-example loss = clf + beta * rec * 1{y=0}), so the decoder runs
forward and backward on a batch's normal rows only.  The term is still
normalized by the full batch's rows times features, so beta keeps a stable
meaning regardless of how many normals land in a batch.  Every public
trainer is a thin caller of one seeded, single-threaded loop (`_fit`) that
steps Adam over slices of the network's flat parameter buffer; the same
TrainConfig.seed reproduces weights bitwise.  A trainer checks its rows and
labels once per call; its batches then run the unchecked loss kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import PathwayNetwork
from .nncore import (
    AdamState,
    adam_step,
    as_matrix,
    binary_cross_entropy_kernel,
    cross_entropy_kernel,
    derive_rng,
    ensure_finite,
    mse,
)


# "until convergence" mode for the benchmark models: stop once validation
# loss, on VAL_FRACTION of the training rows, fails to improve by
# EARLY_STOP_MIN_DELTA for EARLY_STOP_PATIENCE epochs, then restore the best
# weights; epochs acts as the cap
EARLY_STOP_MIN_DELTA = 1e-4
EARLY_STOP_PATIENCE = 10
VAL_FRACTION = 0.1


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


def _check_labels(net: PathwayNetwork, y: np.ndarray) -> None:
    if y.min() < 0 or y.max() >= net.n_classes:
        raise ValueError(
            f"labels must lie in [0, {net.n_classes}), got range [{y.min()}, {y.max()}]"
        )


def _classification_loss(net: PathwayNetwork, probs, yb):
    """The classifier loss kernel for the net's head, unchecked: the caller's
    labels passed `_check_labels` and `probs` is the head's output."""
    if net.n_outputs == 1:
        return binary_cross_entropy_kernel(probs, yb)
    return cross_entropy_kernel(probs, yb)


def joint_batch_gradients(
    net: PathwayNetwork,
    xb: np.ndarray,
    yb: np.ndarray,
    beta: float,
    rng: np.random.Generator | None = None,
    stochastic: bool = True,
) -> tuple[float, float]:
    """One forward/backward pass of the joint objective on a single batch.

    Gradients accumulate into the network's layers (call net.zero_grad()
    first).  The decoder sees only the normal-labeled rows: fault rows have
    no reconstruction term, so they get neither decoder work nor decoder
    gradient, and a batch without normals skips the decoder.  The rec loss
    and its gradient are normalized by the full batch's rows times features.
    With beta = 0 the rec loss is still computed for the log, but the
    decoder gets no backward pass.  Returns (clf_loss, rec_loss).

    The labels are not checked: they must lie in [0, n_classes), one per
    row, as `train_joint` checks a dataset's once per call
    (`_check_labels`).
    """
    xb = as_matrix(xb)
    yb = np.asarray(yb)
    h = net.encoder.forward(xb, rng, stochastic)
    probs = net.head.forward(h)
    clf_loss, dlogits = _classification_loss(net, probs, yb)
    grad_h = net.head.backward_from_logits(dlogits)
    rec_loss = 0.0
    normal = np.flatnonzero(yb == 0)
    if normal.size:
        xhat = net.decoder.forward(h[normal])
        rec_loss, dxhat = mse(xhat, xb[normal], n_rows=len(xb))
        if beta != 0.0:
            grad_h[normal] += net.decoder.backward(beta * dxhat)
    net.encoder.backward(grad_h, input_grad=False)
    return clf_loss, rec_loss


BatchLoss = Callable[[np.ndarray, np.random.Generator], tuple[float, float]]


def _fit(
    net: PathwayNetwork,
    n: int,
    cfg: TrainConfig,
    epochs: int,
    stream: int,
    roles: tuple[str, ...],
    batch_loss: BatchLoss,
    rec_weight: float = 1.0,
    val_loss: Callable[[], float] | None = None,
) -> list[EpochLog]:
    """Seeded mini-batch Adam over the buffer spans of the pathways in `roles`.

    Each epoch shuffles `n` rows with derive_rng(cfg.seed, stream);
    `batch_loss(idx, rng)` runs forward and backward on a batch of them and
    returns (clf_loss, rec_loss), logged as row-weighted epoch means with
    total clf + rec_weight * rec.  With `val_loss`, training stops after
    EARLY_STOP_PATIENCE epochs without an EARLY_STOP_MIN_DELTA
    improvement and restores the best parameters seen.
    """
    rng = derive_rng(cfg.seed, stream)
    spans = net.spans(*roles)
    params = [net.params[span] for span in spans]
    grads = [net.grads[span] for span in spans]
    state = AdamState.for_params(params)
    history = []
    best, stale, best_snap = np.inf, 0, None
    for epoch in range(epochs):
        clf_total, rec_total = 0.0, 0.0
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            net.zero_grad()
            clf_loss, rec_loss = batch_loss(idx, rng)
            adam_step(params, grads, state, lr=cfg.lr)
            clf_total += clf_loss * len(idx)
            rec_total += rec_loss * len(idx)
        clf_m, rec_m = clf_total / n, rec_total / n
        history.append(EpochLog(epoch, clf_m, rec_m, clf_m + rec_weight * rec_m))
        if val_loss is not None:
            loss = val_loss()
            if loss < best - EARLY_STOP_MIN_DELTA:
                best, stale, best_snap = loss, 0, net.params.copy()
            else:
                stale += 1
                if stale >= EARLY_STOP_PATIENCE:
                    break
    if best_snap is not None:
        net.params[...] = best_snap
    return history


def _reconstruction_loss(net: PathwayNetwork, x: np.ndarray) -> BatchLoss:
    def batch_loss(idx, rng):
        xb = x[idx]
        xhat, _ = net.forward_reconstruct(xb, rng, stochastic=True)
        loss, dxhat = mse(xhat, xb)
        net.encoder.backward(net.decoder.backward(dxhat), input_grad=False)
        return 0.0, loss

    return batch_loss


def pretrain_reconstruction(
    net: PathwayNetwork, normal_x: np.ndarray, cfg: TrainConfig
) -> list[EpochLog]:
    """Warm up encoder+decoder on reconstruction of normal examples only.

    The classifier head, if any, is left bitwise untouched.
    """
    if net.decoder is None:
        raise ValueError("pretraining needs a decoder")
    normal_x = np.asarray(normal_x, dtype=np.float64)
    if normal_x.ndim != 2 or len(normal_x) == 0:
        raise ValueError("pretraining data must be a non-empty 2-d array")
    return _fit(net, len(normal_x), cfg, cfg.pretrain_epochs, 1, ("encoder", "decoder"),
                _reconstruction_loss(net, normal_x))


def train_joint(net: PathwayNetwork, dataset, cfg: TrainConfig) -> list[EpochLog]:
    """Optimize clf + beta * normals-only rec over the full label set.

    Runs the reconstruction warm-up first when cfg.pretrain_epochs > 0, then
    cfg.epochs of the joint objective.  Returns the concatenated epoch log
    (warm-up epochs come first, numbering restarts at 0 for the joint phase).
    """
    if net.decoder is None or net.head is None:
        raise ValueError("joint training needs both a decoder and a classifier head")
    x, y = _as_xy(dataset)
    _check_labels(net, y)
    history = []
    if cfg.pretrain_epochs > 0:
        normals = x[y == 0]
        if len(normals) == 0:
            raise ValueError("joint warm-up needs at least one normal example")
        history.extend(pretrain_reconstruction(net, normals, cfg))

    def batch_loss(idx, rng):
        return joint_batch_gradients(net, x[idx], y[idx], cfg.beta, rng, stochastic=True)

    history.extend(_fit(net, len(x), cfg, cfg.epochs, 2, ("encoder", "head", "decoder"),
                        batch_loss, rec_weight=cfg.beta))
    return history


def _val_split(n: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """(train rows, validation rows); all rows and None without early stopping."""
    if not cfg.early_stop:
        return np.arange(n), None
    rng = derive_rng(cfg.seed, 3)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * VAL_FRACTION)))
    if n_val >= n:
        raise ValueError("validation split leaves no training data")
    return perm[n_val:], perm[:n_val]


def train_classifier(net: PathwayNetwork, dataset, cfg: TrainConfig) -> list[EpochLog]:
    """Cross-entropy training of the encoder + head (no reconstruction term).

    With cfg.early_stop the loop watches deterministic loss on a held-out
    slice of the training data and restores the best weights seen.  Without
    it the rng consumption per epoch matches train_joint exactly, so a joint
    run with beta=0 and no warm-up follows the identical parameter
    trajectory.
    """
    if net.head is None:
        raise ValueError("classification training needs a head")
    x, y = _as_xy(dataset)
    _check_labels(net, y)
    train_idx, val_idx = _val_split(len(x), cfg)
    xt, yt = x[train_idx], y[train_idx]

    def batch_loss(idx, rng):
        probs = net.forward_classify(xt[idx], rng, stochastic=True)
        loss, dlogits = _classification_loss(net, probs, yt[idx])
        net.encoder.backward(net.head.backward_from_logits(dlogits), input_grad=False)
        return loss, 0.0

    def val_loss():
        probs = net.forward_classify(x[val_idx], record=False)
        return _classification_loss(net, probs, y[val_idx])[0]

    return _fit(net, len(xt), cfg, cfg.epochs, 2, ("encoder", "head"), batch_loss,
                val_loss=None if val_idx is None else val_loss)


def train_autoencoder(net: PathwayNetwork, dataset, cfg: TrainConfig) -> list[EpochLog]:
    """Reconstruction-only training; refuses any fault-labeled example."""
    if net.decoder is None:
        raise ValueError("reconstruction training needs a decoder")
    x, y = _as_xy(dataset)
    if np.any(y != 0):
        raise ValueError("reconstruction training data must be all normal (label 0)")
    train_idx, val_idx = _val_split(len(x), cfg)
    xt = x[train_idx]

    def val_loss():
        return mse(net.forward_reconstruct(x[val_idx], record=False)[0], x[val_idx])[0]

    return _fit(net, len(xt), cfg, cfg.epochs, 2, ("encoder", "decoder"),
                _reconstruction_loss(net, xt),
                val_loss=None if val_idx is None else val_loss)
