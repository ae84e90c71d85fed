"""Anomaly scores, threshold calibration, multilabel decisions, and metrics.

Scoring follows the two-pathway convention: each classifier output j gets
s_j = mu_j + var_j, except the normal channel which is inverted to
s_0 = 1 - mu_0 + var_0 so that larger always means more fault-like; the
decoding pathway scores an input by the mean squared error of its MC
predictive-mean reconstruction.  Thresholds are per-channel empirical
(1 - alpha)-quantiles of the scores on normal training data, so flagging
normal training data has false-positive rate about alpha.

`calibrate` and `score` are the one path from a network to thresholds and
flags; they draw the MC passes through `uncertainty.mc_moments`, and score
them, under `nncore.numeric_context`.  Every other function here is pure
over its array inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PathwayNetwork
from .nncore import as_matrix, ensure_finite, numeric_context
from .uncertainty import McMoments, mc_moments

MIN_CALIBRATION_EXAMPLES = 50


@dataclass
class ThresholdSet:
    clf_thresholds: np.ndarray | None
    rec_threshold: float | None
    alpha: float

    def channels(self) -> list[tuple[str, float]]:
        """(channel, threshold) pairs: clf0, clf1, .. then rec, for the
        pathways the set has."""
        clf = [] if self.clf_thresholds is None else self.clf_thresholds
        rec = [] if self.rec_threshold is None else [("rec", self.rec_threshold)]
        return [(f"clf{j}", thr) for j, thr in enumerate(clf)] + rec


def clf_anomaly_scores(mean: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Score every classifier channel of each row; returns (N, channels).

    s_j = mu_j + var_j for fault channels; the normal channel is inverted,
    s_0 = 1 - mu_0 + var_0.  A single sigmoid output is first expanded to its
    two-class form ([1 - p, p], [v, v]), which makes both entries equal by
    algebra.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if mean.shape != variance.shape or mean.ndim != 2:
        raise ValueError("mean and variance must be equal-shape matrices")
    if mean.shape[1] == 1:
        mean = np.hstack([1.0 - mean, mean])
        variance = np.hstack([variance, variance])
    scores = mean + variance
    scores[:, 0] = 1.0 - mean[:, 0] + variance[:, 0]
    ensure_finite(scores, "anomaly scores")
    return scores


def rec_anomaly_scores(mu_rec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise mean squared error between the predictive-mean
    reconstruction and x; returns (N,)."""
    mu_rec = np.asarray(mu_rec, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if mu_rec.shape != x.shape or mu_rec.ndim != 2:
        raise ValueError(f"shape mismatch: {mu_rec.shape} vs {x.shape}")
    err = np.subtract(mu_rec, x)
    return np.square(err, out=err).mean(axis=1)


def check_calibration_count(n: int) -> None:
    """Raise ValueError when n normal examples are too few to calibrate on."""
    if n < MIN_CALIBRATION_EXAMPLES:
        raise ValueError(f"need at least {MIN_CALIBRATION_EXAMPLES} normal examples, got {n}")


def calibrate_thresholds(
    clf_scores: np.ndarray | None,
    alpha: float,
    rec_scores: np.ndarray | None = None,
) -> ThresholdSet:
    """Per-channel (1 - alpha) empirical quantiles of normal training scores.

    clf_scores is (N, channels); rec_scores is (N,).  Quantiles interpolate
    linearly between order statistics, so flagging the calibration data with
    strict > gives a false-positive rate of about alpha per channel.
    Requires at least 50 examples per supplied channel set.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if clf_scores is None and rec_scores is None:
        raise ValueError("need scores for at least one pathway")
    clf_thr = None
    if clf_scores is not None:
        clf_scores = np.asarray(clf_scores, dtype=np.float64)
        if clf_scores.ndim != 2:
            raise ValueError("clf_scores must be (N, channels)")
        check_calibration_count(len(clf_scores))
        clf_thr = np.quantile(clf_scores, 1.0 - alpha, axis=0)
    rec_thr = None
    if rec_scores is not None:
        rec_scores = np.asarray(rec_scores, dtype=np.float64).reshape(-1)
        check_calibration_count(len(rec_scores))
        rec_thr = float(np.quantile(rec_scores, 1.0 - alpha))
    return ThresholdSet(clf_thresholds=clf_thr, rec_threshold=rec_thr, alpha=alpha)


def predict_labels(
    clf_scores: np.ndarray, thresholds: ThresholdSet
) -> tuple[np.ndarray, np.ndarray]:
    """Flag channel j of a row iff s_j strictly exceeds its threshold.

    Returns (b, z): the (N, channels) flag matrix, whose row i holds the
    label set of example i (the normal channel included), and the overall
    flag z_i, the disjunction of row i.
    """
    if thresholds.clf_thresholds is None:
        raise ValueError("threshold set has no classifier thresholds")
    s = np.asarray(clf_scores, dtype=np.float64)
    thr = np.asarray(thresholds.clf_thresholds, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != thr.shape[0]:
        raise ValueError(f"score/threshold shape mismatch: {s.shape} vs {thr.shape}")
    b = s > thr[None, :]
    return b, b.any(axis=1)


@dataclass
class Scores:
    """MC statistics of a batch and the pathway scores and flags they give.

    Fields of a pathway the network lacks are None, and so are the flags
    until thresholds are applied.
    """

    moments: McMoments
    clf: np.ndarray | None  # (N, channels), index 0 = normal channel
    rec: np.ndarray | None  # (N,)
    b: np.ndarray | None = None  # (N, channels) classifier channel flags
    z: np.ndarray | None = None  # (N,) disjunction of each row of b
    rec_flags: np.ndarray | None = None  # (N,)


@numeric_context()
def mc_scores(
    net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator
) -> Scores:
    """Score every pathway of the network on x from one MC sampling.

    Runs under `nncore.numeric_context`, so a reconstruction error that
    overflows raises FloatingPointError; `calibrate` and `score` inherit it.
    """
    x = as_matrix(x)
    m = mc_moments(net, x, t, rng)
    return Scores(
        moments=m,
        clf=None if m.clf_mean is None else clf_anomaly_scores(m.clf_mean, m.clf_var),
        rec=None if m.rec_mean is None else rec_anomaly_scores(m.rec_mean, x),
    )


def calibrate(
    net: PathwayNetwork, normals: np.ndarray, alpha: float, t: int,
    rng: np.random.Generator,
) -> ThresholdSet:
    """Thresholds for every pathway of the network from its scores on normals."""
    s = mc_scores(net, normals, t, rng)
    return calibrate_thresholds(s.clf, alpha, rec_scores=s.rec)


def score(
    net: PathwayNetwork, x: np.ndarray, thresholds: ThresholdSet, t: int,
    rng: np.random.Generator,
) -> Scores:
    """`mc_scores` with every pathway's flags set from `thresholds`."""
    s = mc_scores(net, x, t, rng)
    if s.clf is not None:
        s.b, s.z = predict_labels(s.clf, thresholds)
    if s.rec is not None:
        s.rec_flags = s.rec > thresholds.rec_threshold
    return s


def diagnostic_accuracies(b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example diagnostic credit from a flag matrix; NaN for y = 0.

    delta_i = 1{y_i in Y_i} / |Y_i intersect {1..n}|, with Y_i the flagged
    channels of row i.  The normal label never discounts, so Y = {0, y}
    still scores 1.  Missing the true label scores 0 outright, which also
    covers the empty-denominator case.  Undefined for normal examples.
    """
    b = np.asarray(b, dtype=bool)
    y = np.asarray(y, dtype=np.int64)
    if b.ndim != 2 or len(b) != len(y) or np.any((y < 0) | (y >= b.shape[1])):
        raise ValueError(f"labels {y.shape} do not index the columns of flags {b.shape}")
    hit = b[np.arange(len(y)), y]
    n_faults = b[:, 1:].sum(axis=1)
    credit = np.where(hit, 1.0 / np.maximum(n_faults, 1), 0.0)
    return np.where(y != 0, credit, np.nan)


def binary_accuracy(flags: np.ndarray, groups, group: str) -> float:
    """Fraction of a group on the correct side of the flag.

    flags holds the per-example anomaly flag of either pathway (classifier z
    or rec score > threshold).  Normal examples are correct when unflagged,
    members of every other group when flagged.
    """
    flags = np.asarray(flags, dtype=bool)
    member = np.asarray(groups) == group
    if not member.any():
        raise ValueError(f"no examples in group {group!r}")
    if group == "normal":
        return float(np.mean(~flags[member]))
    return float(np.mean(flags[member]))


def group_binary_accuracies(flags: np.ndarray, groups) -> dict[str, float]:
    """binary_accuracy for every distinct group tag, insertion-ordered."""
    tags = np.asarray(groups)
    return {g: binary_accuracy(flags, tags, g) for g in dict.fromkeys(groups)}


def precision_recall_at(
    scores: np.ndarray, fault_flags: np.ndarray, threshold: float
) -> tuple[float, float]:
    """Precision and recall of "score > threshold" as the fault predictor.

    With nothing flagged, precision is reported as 1.0 (no false positives).
    """
    scores = np.asarray(scores, dtype=np.float64)
    fault_flags = np.asarray(fault_flags, dtype=bool)
    pred = scores > threshold
    tp = int(np.sum(pred & fault_flags))
    fp = int(np.sum(pred & ~fault_flags))
    fn = int(np.sum(~pred & fault_flags))
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = tp / (tp + fn)
    return precision, recall


def precision_recall_sweep(
    scores: np.ndarray, fault_flags: np.ndarray, k: int = 50
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision/recall at k evenly spaced thresholds over the score range."""
    scores = np.asarray(scores, dtype=np.float64)
    fault_flags = np.asarray(fault_flags, dtype=bool)
    if len(scores) != len(fault_flags):
        raise ValueError("score/flag length mismatch")
    if not fault_flags.any() or fault_flags.all():
        raise ValueError("need at least one fault and one normal example")
    if k < 2:
        raise ValueError("need at least two thresholds")
    thresholds = np.linspace(scores.min(), scores.max(), k)
    precision = np.empty(k)
    recall = np.empty(k)
    for i, thr in enumerate(thresholds):
        precision[i], recall[i] = precision_recall_at(scores, fault_flags, thr)
    return thresholds, precision, recall


@dataclass
class MetricsReport:
    """Per-group accuracies plus the thresholds and sweep that produced them."""

    binary_acc: dict[str, float]
    diag_acc: dict[str, float]
    thresholds: ThresholdSet
    sweep_thresholds: np.ndarray | None = None
    precision: np.ndarray | None = None
    recall: np.ndarray | None = None

    def __post_init__(self):
        for name, table in (("binary", self.binary_acc), ("diagnostic", self.diag_acc)):
            for group, value in table.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} accuracy for {group!r} is {value}, outside [0,1]")
