"""Plain references the bulk code paths must equal bit for bit: MC dropout
passes one pass at a time, for the stacked pass loop of `uncertainty`, and
the data set-up (generators, writers, loaders and the split) one row at a
time, for the array operations of `data`, the entropy buckets one row at
a time, for `uncertainty.decompose_entropies`, and mnist's ambiguous rows one
label at a time, for `experiments._make_ambiguous`."""

import math
import os
from array import array

import numpy as np

from oodfdd import data, experiments, nncore


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


# ---------------------------------------------------------------------------
# data set-up, one row at a time


def plain_is_ood(groups) -> np.ndarray:
    return np.asarray([data.is_ood_tag(str(g)) for g in groups], dtype=bool)


def plain_bucket(tag: str) -> int:
    """The entropy bucket of one tag: 0 for normal, 1 for a trained fault,
    2 for an out-of-distribution tag."""
    if tag == "normal":
        return 0
    if tag.startswith("fault:"):
        return 1
    if data.is_ood_tag(tag):
        return 2
    raise ValueError(f"unrecognized group tag {tag!r}")


def plain_decompose(entropies, groups) -> list:
    """[P0, P1_in, P1_ood] of `uncertainty.decompose_entropies`, each row
    added to its bucket in row order."""
    parts = [0.0, 0.0, 0.0]
    for h, tag in zip(entropies, groups):
        parts[plain_bucket(str(tag))] += float(h)
    return parts


def plain_gen_chiller(seed, n_per_class, d=16, n_faults=7, severities=(1, 2, 3, 4)):
    """`data.gen_chiller_surrogate` with one noise draw per block, each
    centre added to a new array, and a tag string per row."""
    rng = nncore.make_rng(seed)
    directions = rng.normal(0.0, 1.0, (n_faults, d))
    directions *= 6.0 / np.linalg.norm(directions, axis=1, keepdims=True)
    xs = [rng.normal(0.0, 1.0, (n_per_class, d))]
    ys = [np.zeros(n_per_class, dtype=np.int64)]
    tags = ["normal"] * n_per_class
    max_sev = max(severities)
    for k in range(1, n_faults + 1):
        for s in sorted(severities):
            xs.append((s / max_sev) * directions[k - 1]
                      + rng.normal(0.0, 1.0, (n_per_class, d)))
            label = 0 if k == n_faults else k
            ys.append(np.full(n_per_class, label, dtype=np.int64))
            tag = ("unknown" if k == n_faults
                   else f"fault:{k}" if s == max_sev else f"incipient:{k}:{s}")
            tags.extend([tag] * n_per_class)
    return data.LabeledDataset(X=np.vstack(xs), y=np.concatenate(ys),
                               group=np.asarray(tags))


def plain_split(dataset, train_fraction, seed):
    """`data.split` with a per-row out-of-distribution test and lists of
    indices."""
    rng = nncore.make_rng(seed)
    ood = plain_is_ood(dataset.group)
    train_idx, test_idx = [], []
    in_idx = np.nonzero(~ood)[0]
    for label in np.unique(dataset.y[in_idx]):
        members = in_idx[dataset.y[in_idx] == label]
        perm = members[rng.permutation(len(members))]
        n_train = min(max(int(round(train_fraction * len(members))), 1), len(members) - 1)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    test_idx.extend(np.nonzero(ood)[0])
    return dataset.select(np.sort(train_idx)), dataset.select(np.sort(test_idx))


def plain_load_thyroid(path):
    """`data.load_thyroid` one line at a time, every check per line."""
    values, codes = array("d"), []
    n_cols = data.THYROID_N_COLS
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != n_cols + 1:
                raise ValueError(f"{path} line {lineno}: expected {n_cols + 1} columns, "
                                 f"got {len(tokens)}")
            try:
                row = [float(tok) for tok in tokens[:-1]]
                code = int(tokens[-1])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: non-numeric value") from exc
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path} line {lineno}: non-finite value")
            big = max(row, key=abs)
            if abs(big) > data.MAX_INPUT_MAGNITUDE:
                raise ValueError(f"{path} line {lineno}: value {big} beyond "
                                 f"±{data.MAX_INPUT_MAGNITUDE:g}")
            if code not in (1, 2, 3):
                raise ValueError(f"{path} line {lineno}: unknown class code {code}")
            values.extend(row)
            codes.append(code)
    raw = np.frombuffer(values).reshape(len(codes), n_cols)
    codes = np.asarray(codes)
    group = np.where(codes == 3, "normal", np.where(codes == 1, "fault:1", "incipient:1:1"))
    return data.LabeledDataset(X=raw[:, data.THYROID_CONTINUOUS_COLS],
                               y=np.where(codes == 3, 0, 1), group=group)


def plain_avg_pool2(images):
    """2x2 average pooling as numpy's mean over the window axes."""
    n, h, w = images.shape
    return images.reshape(n, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def plain_load_mnist(images_path, labels_path, normal_digit=0,
                     fault_digits=(5, 6, 8, 9), unknown_digits=(1, 2, 3, 4, 7)):
    """`data.load_mnist` on the whole file at once, with a tag per row."""
    images, labels = data.read_idx(images_path), data.read_idx(labels_path)
    keep = np.isin(labels, [normal_digit, *fault_digits, *unknown_digits])
    images, labels = images[keep], labels[keep]
    pooled = plain_avg_pool2(images.astype(np.float64) / 255.0)
    fault_order = {d: k + 1 for k, d in enumerate(sorted(fault_digits))}
    y, tags = [], []
    for digit in labels.tolist():
        y.append(fault_order.get(digit, 0))
        tags.append("normal" if digit == normal_digit
                    else f"fault:{fault_order[digit]}" if digit in fault_order else "unknown")
    return data.LabeledDataset(X=pooled.reshape(len(pooled), -1),
                               y=np.asarray(y, dtype=np.int64), group=np.asarray(tags))


def plain_load_dataset_pair(cfg, data_dir=None):
    """`experiments.load_dataset_pair` built from the references above."""
    if cfg.dataset == "chiller-surrogate":
        full = plain_gen_chiller(cfg.seed, cfg.n_per_class)
        return data.standardize_pair(*plain_split(full, cfg.train_fraction, cfg.seed))
    if cfg.dataset == "thyroid":
        train_full = plain_load_thyroid(os.path.join(data_dir, "ann-train.data"))
        test = plain_load_thyroid(os.path.join(data_dir, "ann-test.data"))
    else:
        train_full = plain_load_mnist(*(os.path.join(data_dir, f"train-{kind}")
                                        for kind in ("images-idx3-ubyte", "labels-idx1-ubyte")))
        test = plain_load_mnist(*(os.path.join(data_dir, f"t10k-{kind}")
                                  for kind in ("images-idx3-ubyte", "labels-idx1-ubyte")))
    train = train_full.select(~plain_is_ood(train_full.group))
    if cfg.dataset == "mnist":
        return experiments._cap_per_class(train, cfg.train_cap_per_class, cfg.seed), test
    return data.standardize_pair(train, test)


def plain_thyroid_text(rows) -> str:
    """Lines of a thyroid file from its (n, 22) rows, formatted cell by cell."""
    lines = []
    for row in rows:
        cells = [f"{v:.4f}" if j in data.THYROID_CONTINUOUS_COLS else f"{int(v)}"
                 for j, v in enumerate(row[:-1])]
        lines.append(" ".join(cells + [str(int(row[-1]))]) + "\n")
    return "".join(lines)


def plain_mnist_images(n_per, rng):
    """(images, labels) of `data.write_mnist_surrogate` before its shuffle,
    one image at a time with `np.roll`."""
    images = np.empty((10 * n_per, 28, 28), dtype=np.uint8)
    labels = np.empty(10 * n_per, dtype=np.uint8)
    i = 0
    for digit in range(10):
        base = data._glyph_image(digit)
        for _ in range(n_per):
            img = base * rng.uniform(0.7, 1.0)
            img = np.roll(img, rng.integers(-2, 3), axis=0)
            img = np.roll(img, rng.integers(-2, 3), axis=1)
            img = img + rng.normal(0.0, 0.08, img.shape)
            images[i] = (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
            labels[i] = digit
            i += 1
    return images, labels


# ---------------------------------------------------------------------------
# mnist's ambiguous rows, one dataset per label and t list


def plain_gen_ambiguous(net, x_normal, x_fault, t_values, fault_label):
    """Decoded latent interpolations of paired rows, stacked per t value."""
    z_normal = net.encoder.forward(x_normal)
    z_fault = net.encoder.forward(x_fault)
    xs, tags = [], []
    for t in t_values:
        z = (1.0 - t) * z_normal + t * z_fault
        xs.append(net.decoder.forward(z))
        tags.extend([f"incipient:{fault_label}:{t:g}"] * len(z))
    x = np.vstack(xs)
    return data.LabeledDataset(
        X=x, y=np.full(len(x), fault_label, dtype=np.int64), group=np.asarray(tags))


def plain_make_ambiguous(net, test, cfg):
    """`experiments._make_ambiguous` as one dataset per label, stacked at
    the end."""
    rng = nncore.derive_rng(cfg.seed, 31)
    normal_x = test.X[test.group == "normal"]
    pieces = []
    for label in range(1, net.arch.n_classes):
        fault_x = test.X[(test.y == label) & (test.group != "unknown")]
        m = min(len(normal_x), len(fault_x), cfg.ambiguous_pairs)
        if m == 0:
            continue
        ni = rng.choice(len(normal_x), size=m, replace=False)
        fi = rng.choice(len(fault_x), size=m, replace=False)
        pieces.append(plain_gen_ambiguous(net, normal_x[ni], fault_x[fi], (0.4, 0.5, 0.6),
                                          label))
    if not pieces:
        return None
    return data.LabeledDataset(X=np.vstack([p.X for p in pieces]),
                               y=np.concatenate([p.y for p in pieces]),
                               group=np.concatenate([p.group for p in pieces]))
