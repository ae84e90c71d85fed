"""Central-difference gradient checker for the hand-written backward passes,
and the losses with the checks that `nncore` leaves to its callers."""

import numpy as np

from oodfdd import nncore


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


def checked_cross_entropy(probs, labels):
    """`nncore.cross_entropy` once the rows and labels are checked: one
    label per row, each in [0, c), and every probability row summing to 1."""
    probs = nncore.as_matrix(probs)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = probs.shape
    if labels.shape != (n,):
        raise ValueError(f"{n} rows but {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("probability rows must sum to 1")
    return nncore.cross_entropy(probs, labels)


def checked_binary_cross_entropy(p, labels):
    """`nncore.binary_cross_entropy` once the shapes and labels are checked:
    one output column, one label per row, each 0 or 1."""
    p = nncore.as_matrix(p)
    if p.shape[1] != 1:
        raise ValueError("binary cross-entropy expects a single output column")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.shape != (len(p),):
        raise ValueError(f"{len(p)} rows but {labels.shape[0]} labels")
    if np.any((labels != 0.0) & (labels != 1.0)):
        raise ValueError("binary labels must be 0 or 1")
    return nncore.binary_cross_entropy(p, labels)
