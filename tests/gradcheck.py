"""Central-difference gradient checker for the hand-written backward passes."""


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
