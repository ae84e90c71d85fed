"""MC dropout passes in plain numpy expressions, one pass at a time, for
checking the stacked pass loop of `uncertainty` against."""

import numpy as np

from oodfdd import nncore


def plain_forward(stack, h, rng=None):
    """`stack` on `h` in the plain numpy expressions, with dropout drawing
    from `rng` when one is given."""
    for layer in stack.layers:
        if isinstance(layer, nncore.DropoutLayer):
            if rng is not None and layer.rate > 0.0:
                keep = 1.0 - layer.rate
                h = h * ((rng.random(h.shape) < keep) * (1.0 / keep))
            continue
        pre = h @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            h = np.maximum(0.0, pre)
        elif layer.activation == "sigmoid":
            h = nncore.sigmoid(pre)
        elif layer.activation == "softmax":
            ez = np.exp(pre - pre.max(axis=1, keepdims=True))
            h = ez / ez.sum(axis=1, keepdims=True)
        else:
            h = pre
    return h


def plain_passes(net, x, t, rng):
    """(head outputs, decoder outputs) of t passes, each a list; a list is
    None where the net lacks the pathway."""
    clf = None if net.head is None else []
    rec = None if net.decoder is None else []
    for _ in range(t):
        h = plain_forward(net.encoder, x, rng)
        if clf is not None:
            clf.append(plain_forward(net.head, h))
        if rec is not None:
            rec.append(plain_forward(net.decoder, h))
    return clf, rec
