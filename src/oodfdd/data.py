"""Dataset ingestion and generation.

Three sources: the UCI ann-thyroid text format, MNIST idx files, and a
seeded chiller-style surrogate with graded fault severities.  Loaded
datasets carry a per-example group tag (normal, fault:k,
incipient:k:severity, unknown) that drives evaluation; incipient and
unknown rows never enter a training split.

The sandbox this package ships in has no network access, so seeded
surrogate writers for the thyroid and MNIST file formats are included as
well.  They emit files in the exact on-disk formats the loaders parse, with
the well-known class proportions preserved, so every pipeline exercises the
real parsing path.
"""

from __future__ import annotations

import gzip
import itertools
import math
import os
import struct
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .nncore import make_rng, row_tile, rowwise
from .model import PathwayNetwork
from .report import emit_csv

# largest |value| a thyroid file or a CSV of rows to score may hold: a
# value's square (1e300), and the mean of a row of up to 10**4 such squares
# in the reconstruction score, stay finite below float64's 1.8e308
MAX_INPUT_MAGNITUDE = 1e150

THYROID_CONTINUOUS_COLS = (0, 16, 17, 18, 19, 20)
THYROID_N_COLS = 21
# class-balance guards from the dataset's documented composition: about 92%
# normal overall and about 67% subnormal among the non-normal rows
THYROID_NORMAL_RANGE = (0.88, 0.96)
THYROID_SUBNORMAL_RANGE = (0.55, 0.80)
# lines a thyroid file is parsed and written in at once, so the token and
# text transients stay a few hundred lines' size whatever the file's
THYROID_CHUNK_LINES = 256

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
# images decoded, scaled and pooled per block, so the float64 temporaries
# stay a block's size whatever the file's
MNIST_DECODE_BLOCK = 256


@dataclass
class FeatureStats:
    """Per-feature mean and standard deviation, fitted on training normals."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "FeatureStats":
        x = np.asarray(x, dtype=np.float64)
        std = x.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)  # constant features pass through
        return cls(mean=x.mean(axis=0), std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(x - mean) / std in a new array, `x` left as it was.  Rows as
        wide as the stats run both operations through row tiles
        (`nncore.rowwise`), with the bits of the broadcast expression that
        any other shape runs."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != self.mean.shape:
            return (x - self.mean) / self.std
        out = np.empty(x.shape)
        rowwise(np.subtract, x, self.mean, row_tile(self.mean, len(x)), out)
        return rowwise(np.divide, out, self.std, row_tile(self.std, len(x)), out)


@dataclass
class LabeledDataset:
    """Features, integer labels, group tags, and optional feature stats.

    Label 0 is normal; 1..n are fault classes.  Rows in the unknown group
    carry label 0 as a placeholder: their class is outside the label space
    and evaluation keys off the tag alone.
    """

    X: np.ndarray
    y: np.ndarray
    group: np.ndarray
    feature_stats: FeatureStats | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.group = np.asarray(self.group)
        if not (len(self.X) == len(self.y) == len(self.group)):
            raise ValueError("X, y, and group must have equal length")

    def __len__(self) -> int:
        return len(self.X)

    def select(self, mask) -> "LabeledDataset":
        mask = np.asarray(mask)
        return replace(self, X=self.X[mask], y=self.y[mask], group=self.group[mask])

    def to_csv(self, path) -> None:
        """feature_0.., label, group: one row per example."""
        emit_csv([f"feature_{j}" for j in range(self.X.shape[1])] + ["label", "group"],
                 ([*x, y, g] for x, y, g in zip(self.X, self.y, self.group)), path)


_INCIPIENT = "incipient:"


def is_ood_tag(tag: str) -> bool:
    return tag.startswith(_INCIPIENT) or tag == "unknown"


def ood_mask(groups) -> np.ndarray:
    """`is_ood_tag` of every tag in `groups` (taken as text), as one bool array.

    The prefix test compares each tag cut to the prefix's width, so no
    per-row Python runs.
    """
    groups = np.asarray(groups).astype(str, copy=False)
    return (groups.astype(f"<U{len(_INCIPIENT)}") == _INCIPIENT) | (groups == "unknown")


def concat(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    """Stack two datasets row-wise; feature stats carry over from the first."""
    if a.X.shape[1] != b.X.shape[1]:
        raise ValueError(f"feature width mismatch: {a.X.shape[1]} vs {b.X.shape[1]}")
    return LabeledDataset(
        X=np.vstack([a.X, b.X]),
        y=np.concatenate([a.y, b.y]),
        group=np.concatenate([a.group, b.group]),
        feature_stats=a.feature_stats,
    )


# ---------------------------------------------------------------------------
# UCI ann-thyroid


def load_thyroid(path) -> LabeledDataset:
    """Parse one ann-thyroid whitespace file (21 features + class code).

    Keeps only the 6 continuous columns, in raw units.  Class codes map as
    3 = normal, 1 = diseased (fault 1), 2 = subnormal (an incipient form of
    the disease, tagged out-of-distribution).  A line with a non-numeric or
    non-finite value, or one beyond ±MAX_INPUT_MAGNITUDE, raises naming the
    file and line.  The file's class balance is verified against the
    dataset's documented proportions; a mismatch raises rather than silently
    proceeding.
    """
    values = array("d")  # every row's features, flat
    codes = []
    with open(path) as fh:
        first = 1  # the chunk's first line number
        while lines := list(itertools.islice(fh, THYROID_CHUNK_LINES)):
            # a chunk with a bad line is scanned again line by line, which
            # raises naming the first one
            if not _parse_thyroid_chunk(lines, values, codes):
                for lineno, line in enumerate(lines, first):
                    _parse_thyroid_line(path, lineno, line, values, codes)
            first += len(lines)
    if not codes:
        raise ValueError(f"{path}: empty file")
    raw = np.frombuffer(values, dtype=np.float64).reshape(len(codes), THYROID_N_COLS)
    codes = np.asarray(codes)

    binary_cols = [j for j in range(THYROID_N_COLS) if j not in THYROID_CONTINUOUS_COLS]
    bad = ~np.isin(raw[:, binary_cols], (0.0, 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{path}: column {binary_cols[j]} should be binary, "
            f"row {i + 1} has {raw[i, binary_cols[j]]}"
        )

    n = len(raw)
    n_normal = int(np.sum(codes == 3))
    n_sub = int(np.sum(codes == 2))
    lo, hi = THYROID_NORMAL_RANGE
    if not lo <= n_normal / n <= hi:
        raise ValueError(
            f"{path}: normal fraction {n_normal / n:.3f} outside [{lo}, {hi}]; "
            "not the expected thyroid class balance"
        )
    lo, hi = THYROID_SUBNORMAL_RANGE
    if not lo <= n_sub / (n - n_normal) <= hi:
        raise ValueError(
            f"{path}: subnormal fraction among non-normal {n_sub / (n - n_normal):.3f} "
            f"outside [{lo}, {hi}]; not the expected thyroid class balance"
        )

    x = raw[:, THYROID_CONTINUOUS_COLS]
    y = np.where(codes == 3, 0, 1)
    group = np.where(
        codes == 3, "normal", np.where(codes == 1, "fault:1", "incipient:1:1")
    )
    return LabeledDataset(X=x, y=y, group=group)


def _parse_thyroid_chunk(lines, values: array, codes: list) -> bool:
    """Append a chunk's rows to `values` and `codes` if every line in it is
    blank or well-formed; return False, appending nothing, otherwise."""
    rows = [row for row in map(str.split, lines) if row]
    if set(map(len, rows)) - {THYROID_N_COLS + 1}:
        return False
    tokens = list(itertools.chain.from_iterable(rows))
    try:
        cells = np.frombuffer(array("d", map(float, tokens))).reshape(-1, THYROID_N_COLS + 1)
        chunk_codes = list(map(int, tokens[THYROID_N_COLS::THYROID_N_COLS + 1]))
    except ValueError:
        return False
    feats = cells[:, :THYROID_N_COLS]
    # NaN and ±inf fail the magnitude bound too
    if not ((np.abs(feats) <= MAX_INPUT_MAGNITUDE).all() and set(chunk_codes) <= {1, 2, 3}):
        return False
    values.frombytes(feats.tobytes())
    codes += chunk_codes
    return True


def _parse_thyroid_line(path, lineno: int, line: str, values: array, codes: list) -> None:
    """Append one line's row to `values` and `codes`, or raise naming the
    line's first fault."""
    tokens = line.split()
    if not tokens:
        return
    if len(tokens) != THYROID_N_COLS + 1:
        raise ValueError(
            f"{path} line {lineno}: expected {THYROID_N_COLS + 1} columns, "
            f"got {len(tokens)}"
        )
    try:
        row = [float(tok) for tok in tokens[:-1]]
        code = int(tokens[-1])
    except ValueError as exc:
        raise ValueError(f"{path} line {lineno}: non-numeric value") from exc
    if not all(map(math.isfinite, row)):
        raise ValueError(f"{path} line {lineno}: non-finite value")
    big = max(row, key=abs)
    if abs(big) > MAX_INPUT_MAGNITUDE:
        raise ValueError(
            f"{path} line {lineno}: value {big} beyond ±{MAX_INPUT_MAGNITUDE:g}")
    if code not in (1, 2, 3):
        raise ValueError(f"{path} line {lineno}: unknown class code {code}")
    values.extend(row)
    codes.append(code)


# ---------------------------------------------------------------------------
# MNIST idx


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx(path) -> np.ndarray:
    """Read one big-endian idx file (magic 2051 images or 2049 labels)."""
    with _open_maybe_gzip(path) as fh:
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError(f"{path}: truncated header")
        (magic,) = struct.unpack(">i", header)
        if magic == IDX_IMAGES_MAGIC:
            n, h, w = struct.unpack(">iii", fh.read(12))
            data = fh.read(n * h * w)
            if len(data) != n * h * w:
                raise ValueError(f"{path}: truncated image payload")
            return np.frombuffer(data, dtype=np.uint8).reshape(n, h, w)
        if magic == IDX_LABELS_MAGIC:
            (n,) = struct.unpack(">i", fh.read(4))
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated label payload")
            return np.frombuffer(data, dtype=np.uint8)
        raise ValueError(f"{path}: bad idx magic {magic}")


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def avg_pool2(images: np.ndarray) -> np.ndarray:
    """2x2 average pooling of float64 images; needs even height and width.

    Bitwise `.mean(axis=(2, 4))` over the (n, h/2, 2, w/2, 2) view, which
    sums each window as (a00 + a01) + (a10 + a11) and divides by 4: the
    same adds, strided, without the reduction's per-window loop.
    """
    n, h, w = images.shape
    if h % 2 or w % 2:
        raise ValueError(f"image dims {h}x{w} not divisible by 2")
    q = np.asarray(images, dtype=np.float64).reshape(n, h // 2, 2, w // 2, 2)
    out = q[:, :, 0, :, 0] + q[:, :, 0, :, 1]
    out += q[:, :, 1, :, 0] + q[:, :, 1, :, 1]
    out /= 4.0
    return out


def load_mnist(
    images_path,
    labels_path,
    normal_digit: int = 0,
    fault_digits: tuple = (5, 6, 8, 9),
    unknown_digits: tuple = (1, 2, 3, 4, 7),
) -> LabeledDataset:
    """Load an idx image/label pair into the fault-detection label scheme.

    Pixels are scaled to [0,1] and downscaled by 2x2 average pooling; the
    normal digit becomes label 0, fault digits get labels 1.. in sorted
    order, unknown digits keep placeholder label 0 under the unknown tag.
    Digits in none of the three sets are dropped; a file with no digit in
    any set is a ValueError.
    """
    images = read_idx(images_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: not an image file")
    labels = read_idx(labels_path)
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: not a label file")
    if len(images) != len(labels):
        raise ValueError(
            f"count mismatch: {len(images)} images vs {len(labels)} labels"
        )
    overlap = {normal_digit} & set(fault_digits) | {normal_digit} & set(unknown_digits)
    overlap |= set(fault_digits) & set(unknown_digits)
    if overlap:
        raise ValueError(f"digit sets overlap: {sorted(overlap)}")

    fault_order = {d: k + 1 for k, d in enumerate(sorted(fault_digits))}
    keep = np.flatnonzero(np.isin(labels, [normal_digit, *fault_digits, *unknown_digits]))
    labels = labels[keep]
    if not len(keep):
        avg_pool2(images[:0])  # odd image sides are reported first
        raise ValueError(f"{labels_path}: no label is the normal digit {normal_digit}, "
                         f"a fault digit {sorted(fault_digits)} or an unknown digit "
                         f"{sorted(unknown_digits)}")

    # decode, scale and pool block by block straight into the feature matrix
    _, h, w = images.shape
    x = np.empty((len(keep), (h // 2) * (w // 2)))
    for start in range(0, len(keep), MNIST_DECODE_BLOCK):
        rows = keep[start:start + MNIST_DECODE_BLOCK]
        block = images[rows].astype(np.float64)
        block /= 255.0
        x[start:start + len(rows)] = avg_pool2(block).reshape(len(rows), -1)

    label_of = np.zeros(256, dtype=np.int64)
    tag_of = np.empty(256, dtype=object)
    for digit in np.unique(labels).tolist():
        if digit == normal_digit:
            tag_of[digit] = "normal"
        elif digit in fault_order:
            label_of[digit] = fault_order[digit]
            tag_of[digit] = f"fault:{fault_order[digit]}"
        else:
            tag_of[digit] = "unknown"
    y, group = label_of[labels], tag_of[labels]
    return LabeledDataset(X=x, y=y, group=group.astype(str))


# ---------------------------------------------------------------------------
# generated examples


def gen_ambiguous(
    net: PathwayNetwork,
    x_normal: np.ndarray,
    x_fault: np.ndarray,
    t_values=(0.4, 0.5, 0.6),
    fault_label: int = 1,
) -> LabeledDataset:
    """Decode latent interpolations between paired normal and fault inputs.

    z(t) = (1-t) * enc(x_normal) + t * enc(x_fault), decoded with dropout
    off.  Rows are paired; the output stacks all pairs per t value, tagged
    incipient:<fault_label>:<t>.
    """
    if net.decoder is None:
        raise ValueError(f"{net.kind.value} model has no decoder")
    x_normal = np.atleast_2d(np.asarray(x_normal, dtype=np.float64))
    x_fault = np.atleast_2d(np.asarray(x_fault, dtype=np.float64))
    if x_normal.shape != x_fault.shape:
        raise ValueError(
            f"paired inputs must share a shape: {x_normal.shape} vs {x_fault.shape}"
        )
    z_normal = net.encoder.forward(x_normal)
    z_fault = net.encoder.forward(x_fault)
    xs, tags = [], []
    for t in t_values:
        z = (1.0 - t) * z_normal + t * z_fault
        xs.append(net.decoder.forward(z))
        tags.extend([f"incipient:{fault_label}:{t:g}"] * len(z))
    x = np.vstack(xs)
    return LabeledDataset(
        X=x, y=np.full(len(x), fault_label, dtype=np.int64), group=np.asarray(tags)
    )


def gen_chiller_surrogate(
    seed: int,
    n_per_class: int,
    d: int = 16,
    n_faults: int = 7,
    severities=(1, 2, 3, 4),
) -> LabeledDataset:
    """Severity-graded Gaussian clusters mimicking the chiller experiment.

    Normal data is a standard Gaussian at the origin.  Each fault k gets a
    seeded random direction of length 6; severity s places that fault's
    cluster mean at (s/4) of the way out, with unit isotropic noise, so the
    severest level sits 6.0 from the origin and the slightest 1.5.  The
    last fault index is tagged unknown at every severity.  Fully
    deterministic in the seed.
    """
    if n_faults < 2:
        raise ValueError("need at least two faults (one becomes the unknown)")
    rng = make_rng(seed)
    directions = rng.normal(0.0, 1.0, (n_faults, d))
    directions *= 6.0 / np.linalg.norm(directions, axis=1, keepdims=True)

    # every block's noise in one draw, the stream of one draw per block in
    # turn; one centre, label and tag per block of n_per_class rows
    severities = sorted(severities)
    x = rng.normal(0.0, 1.0, (1 + n_faults * len(severities), n_per_class, d))
    centers, labels, tags = [], [0], ["normal"]
    max_sev = max(severities)
    for k in range(1, n_faults + 1):
        for s in severities:
            centers.append((s / max_sev) * directions[k - 1])
            if k == n_faults:
                labels.append(0)
                tags.append("unknown")
            else:
                labels.append(k)
                tags.append(f"fault:{k}" if s == max_sev else f"incipient:{k}:{s}")
    x[1:] += np.asarray(centers)[:, None, :]
    return LabeledDataset(
        X=x.reshape(-1, d),
        y=np.repeat(np.asarray(labels, dtype=np.int64), n_per_class),
        group=np.repeat(np.asarray(tags), n_per_class),
    )


# ---------------------------------------------------------------------------
# splitting and standardization


def split(
    dataset: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded stratified split; out-of-distribution rows always go to test.

    In-distribution rows are permuted and divided per label so both sides
    keep the class balance.  A label with fewer than 2 in-distribution rows
    cannot be stratified and raises.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = make_rng(seed)
    ood = ood_mask(dataset.group)
    in_idx = np.flatnonzero(~ood)
    if not len(in_idx):
        raise ValueError("no in-distribution rows; cannot stratify")
    in_labels = dataset.y[in_idx]
    train_idx, test_idx = [], [np.flatnonzero(ood)]
    for label in np.unique(in_labels):
        members = in_idx[in_labels == label]
        if len(members) < 2:
            raise ValueError(f"label {label} has {len(members)} rows; cannot stratify")
        perm = members[rng.permutation(len(members))]
        n_train = int(round(train_fraction * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return (dataset.select(np.sort(np.concatenate(train_idx))),
            dataset.select(np.sort(np.concatenate(test_idx))))


def standardize_pair(
    train: LabeledDataset, test: LabeledDataset
) -> tuple[LabeledDataset, LabeledDataset]:
    """Fit stats on the training normals, apply to both sides."""
    stats = FeatureStats.fit(train.X[train.y == 0])
    return (
        replace(train, X=stats.apply(train.X), feature_stats=stats),
        replace(test, X=stats.apply(test.X), feature_stats=stats),
    )


# ---------------------------------------------------------------------------
# surrogate file writers (real formats, generated content)

THYROID_TRAIN_COUNTS = {"normal": 3488, "subnormal": 191, "diseased": 93}
THYROID_TEST_COUNTS = {"normal": 3178, "subnormal": 177, "diseased": 73}
# one line of a thyroid file: continuous columns to 4 places, binary flags
# and the class code as integers (%d truncates as int() does)
_THYROID_LINE = " ".join("%.4f" if j in THYROID_CONTINUOUS_COLS else "%d"
                         for j in range(THYROID_N_COLS + 1)) + "\n"


def write_thyroid_surrogate(dir_path, seed: int = 0) -> dict[str, str]:
    """Emit ann-train.data / ann-test.data in the UCI text format.

    The continuous block is a rank-3 factor model over an orthonormal basis:
    two dominant physiological factors carry most of the variance, a third
    carries a quarter of their scale, and a little per-column noise sits on
    top.  Disease displaces rows along the weak third factor, so the signal
    hides in the direction a capacity-2 reconstruction is most tempted to
    discard; the subnormal cluster sits at 30% of that displacement, an
    incipient version of the same deviation.  Binary columns are constant
    indicators, carrying no class signal.  Class counts replicate the real
    files, preserving the documented 92% / 67% proportions.
    """
    rng = make_rng(seed)
    k = len(THYROID_CONTINUOUS_COLS)
    basis, _ = np.linalg.qr(rng.normal(0.0, 1.0, (k, 3)))
    loadings, weak = basis[:, :2], basis[:, 2]
    shift = 0.22 * weak
    sub_shift = 0.30 * shift
    b_const = (rng.random(THYROID_N_COLS - k) < 0.4).astype(np.float64)

    def make_rows(code: int, n: int) -> np.ndarray:
        factors = rng.normal(0.0, 1.0, (n, 2))
        weak_factor = rng.normal(0.0, 1.0, n)
        cont = (0.5 + 0.04 * factors @ loadings.T + 0.02 * np.outer(weak_factor, weak)
                + 0.01 * rng.normal(0.0, 1.0, (n, k)))
        if code == 1:
            cont = cont + shift
        elif code == 2:
            cont = cont + sub_shift
        cont = np.clip(cont, 0.001, 0.999)
        rows = np.empty((n, THYROID_N_COLS + 1))
        cont_cols = list(THYROID_CONTINUOUS_COLS)
        bin_cols = [j for j in range(THYROID_N_COLS) if j not in THYROID_CONTINUOUS_COLS]
        rows[:, cont_cols] = cont
        rows[:, bin_cols] = np.tile(b_const, (n, 1))
        rows[:, -1] = code
        return rows

    paths = {}
    for name, counts in (("ann-train.data", THYROID_TRAIN_COUNTS),
                         ("ann-test.data", THYROID_TEST_COUNTS)):
        blocks = np.vstack([
            make_rows(3, counts["normal"]),
            make_rows(2, counts["subnormal"]),
            make_rows(1, counts["diseased"]),
        ])
        blocks = blocks[rng.permutation(len(blocks))]
        path = os.path.join(dir_path, name)
        with open(path, "w") as fh:
            for start in range(0, len(blocks), THYROID_CHUNK_LINES):
                fh.write("".join(_THYROID_LINE % tuple(row) for row in
                                 blocks[start:start + THYROID_CHUNK_LINES].tolist()))
        paths[name] = path
    return paths


# 7x7 digit glyphs, upscaled 4x to 28x28 for the image surrogate
_GLYPHS = {
    0: (".#####.", "#.....#", "#.....#", "#.....#", "#.....#", "#.....#", ".#####."),
    1: ("...#...", "..##...", "...#...", "...#...", "...#...", "...#...", "..###.."),
    2: (".#####.", "#.....#", "......#", "...###.", "..#....", ".#.....", "#######"),
    3: (".#####.", "......#", "......#", "..####.", "......#", "......#", ".#####."),
    4: ("#....#.", "#....#.", "#....#.", "#######", ".....#.", ".....#.", ".....#."),
    5: ("#######", "#......", "#......", "######.", "......#", "......#", "######."),
    6: (".#####.", "#......", "#......", "######.", "#.....#", "#.....#", ".#####."),
    7: ("#######", "......#", ".....#.", "....#..", "...#...", "..#....", "..#...."),
    8: (".#####.", "#.....#", "#.....#", ".#####.", "#.....#", "#.....#", ".#####."),
    9: (".#####.", "#.....#", "#.....#", ".######", "......#", "......#", ".#####."),
}


def _glyph_image(digit: int) -> np.ndarray:
    mask = np.array([[c == "#" for c in row] for row in _GLYPHS[digit]], dtype=np.float64)
    return np.kron(mask, np.ones((4, 4)))


def write_mnist_surrogate(
    dir_path,
    n_train_per_digit: int = 400,
    n_test_per_digit: int = 80,
    seed: int = 0,
) -> dict[str, str]:
    """Emit idx files of jittered glyph digits under the standard names.

    Each sample is its digit's 28x28 glyph with a random 2-pixel shift,
    per-sample intensity, and pixel noise, so classes are learnable but not
    trivially separable.
    """
    rng = make_rng(seed)
    glyphs = np.stack([_glyph_image(digit) for digit in range(10)])
    # each glyph rolled by each (row, column) shift r, c in -2..2, at
    # [digit, 5 * (r + 2) + c + 2]
    shifted = np.stack([np.roll(glyphs, (r, c), axis=(1, 2))
                        for r in range(-2, 3) for c in range(-2, 3)], axis=1)
    paths = {}
    for prefix, n_per in (("train", n_train_per_digit), ("t10k", n_test_per_digit)):
        images = np.empty((10 * n_per, 28, 28), dtype=np.uint8)
        labels = np.repeat(np.arange(10, dtype=np.uint8), n_per)
        for digit in range(10):
            for start in range(0, n_per, MNIST_DECODE_BLOCK):
                m = min(MNIST_DECODE_BLOCK, n_per - start)
                # each image's four draws in order: intensity, row shift,
                # column shift, pixel noise
                scale, shift = np.empty(m), np.empty((m, 2), dtype=np.int64)
                noise = np.empty((m, 28, 28))
                for k in range(m):
                    scale[k] = rng.uniform(0.7, 1.0)
                    shift[k] = rng.integers(-2, 3), rng.integers(-2, 3)
                    noise[k] = rng.normal(0.0, 0.08, (28, 28))
                img = shifted[digit, 5 * shift[:, 0] + shift[:, 1] + 12]
                img *= scale[:, None, None]
                img += noise
                np.clip(img, 0.0, 1.0, out=img)
                img *= 255
                first = digit * n_per + start
                images[first:first + m] = img.astype(np.uint8)
        perm = rng.permutation(len(images))
        images, labels = images[perm], labels[perm]
        img_path = os.path.join(dir_path, f"{prefix}-images-idx3-ubyte")
        lab_path = os.path.join(dir_path, f"{prefix}-labels-idx1-ubyte")
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        paths[f"{prefix}-images"] = img_path
        paths[f"{prefix}-labels"] = lab_path
    return paths
