"""Anomaly scores, threshold calibration, multilabel decisions, and metrics.

Scoring follows the two-pathway convention: each classifier output j gets
s_j = mu_j + var_j, except the normal channel which is inverted to
s_0 = 1 - mu_0 + var_0 so that larger always means more fault-like; the
decoding pathway scores an input by the mean squared error of its MC
predictive-mean reconstruction.  Thresholds are per-channel empirical
(1 - alpha)-quantiles of the scores on normal training data, so flagging
normal training data has false-positive rate about alpha.

`calibrate` and `score` are the one path from a network to thresholds and
flags, and the one place that picks their MC passes: calibration draws from
`derive_rng(seed, CALIBRATION_STREAM, k)` and scoring from
`derive_rng(seed, SCORING_STREAM, k)`, k the kind's position in `ModelKind`,
so the draws depend on the seed and kind alone.  Both score the passes of
`uncertainty.mc_moments` under `nncore.numeric_context`, and their
thresholds travel in one record, `model.Calibration`.  Every other function
here is pure over its array inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import group_means
from .model import Calibration, ModelKind, PathwayNetwork
from .nncore import as_matrix, derive_rng, ensure_finite, numeric_context
from .uncertainty import McMoments, mc_moments

MIN_CALIBRATION_EXAMPLES = 50

# the derive_rng keys of the MC passes that calibrate and score draw
CALIBRATION_STREAM = 20
SCORING_STREAM = 22
SWEEP_THRESHOLDS = 50  # thresholds in the precision/recall sweep


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
) -> tuple[np.ndarray | None, float | None]:
    """Per-channel (1 - alpha) empirical quantiles of normal training scores:
    (classifier thresholds, rec threshold), None for a pathway without scores.

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
    return clf_thr, rec_thr


def predict_labels(
    clf_scores: np.ndarray, thresholds: Calibration
) -> tuple[np.ndarray, np.ndarray]:
    """Flag channel j of a row iff s_j strictly exceeds its threshold.

    Returns (b, z): the (N, channels) flag matrix, whose row i holds the
    label set of example i (the normal channel included), and the overall
    flag z_i, the disjunction of row i.
    """
    if thresholds.clf_thresholds is None:
        raise ValueError("calibration has no classifier thresholds")
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


def _kind_rng(net: PathwayNetwork, seed: int, stream: int) -> np.random.Generator:
    return derive_rng(seed, stream, list(ModelKind).index(net.kind))


def calibrate(net: PathwayNetwork, normals: np.ndarray, alpha: float, t: int,
              seed: int) -> Calibration:
    """Thresholds for every pathway of the network from its scores on
    normals, t MC passes drawn from the kind's calibration stream."""
    s = mc_scores(net, normals, t, _kind_rng(net, seed, CALIBRATION_STREAM))
    return Calibration(alpha, t, seed, *calibrate_thresholds(s.clf, alpha, rec_scores=s.rec))


def score(net: PathwayNetwork, x: np.ndarray, cal: Calibration) -> Scores:
    """`mc_scores` of cal.t_samples passes, drawn from the kind's scoring
    stream of cal.seed, with every pathway's flags set from `cal`."""
    s = mc_scores(net, x, cal.t_samples, _kind_rng(net, cal.seed, SCORING_STREAM))
    if s.clf is not None:
        s.b, s.z = predict_labels(s.clf, cal)
    if s.rec is not None:
        s.rec_flags = s.rec > cal.rec_threshold
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


def group_binary_accuracies(flags: np.ndarray, groups) -> dict[str, float]:
    """Per group tag, in order of first appearance, the fraction of its rows
    on the correct side of the flag: normal rows when unflagged, rows of
    every other group when flagged.  `flags` holds the per-example anomaly
    flag of either pathway."""
    groups = np.asarray(groups)
    tags, rates = group_means(np.asarray(flags, dtype=bool) != (groups == "normal"), groups)
    return dict(zip(tags, rates.tolist()))


class Sweep(NamedTuple):
    """Precision and recall of the fault predictor at each sweep threshold."""

    sweep_thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray


def precision_recall_sweep(scores: np.ndarray, fault_flags: np.ndarray) -> Sweep:
    """Precision/recall of "score > threshold" as the fault predictor, at
    SWEEP_THRESHOLDS evenly spaced thresholds over the score range.

    The rows above each threshold are counted by binary search in the
    sorted scores, and the faults among them in the sorted fault scores.
    With nothing flagged, precision is reported as 1.0 (no false positives).
    """
    scores = np.asarray(scores, dtype=np.float64)
    fault_flags = np.asarray(fault_flags, dtype=bool)
    if len(scores) != len(fault_flags):
        raise ValueError("score/flag length mismatch")
    if not fault_flags.any() or fault_flags.all():
        raise ValueError("need at least one fault and one normal example")
    thresholds = np.linspace(scores.min(), scores.max(), SWEEP_THRESHOLDS)
    faults = np.sort(scores[fault_flags])
    flagged = len(scores) - np.searchsorted(np.sort(scores), thresholds, side="right")
    tp = len(faults) - np.searchsorted(faults, thresholds, side="right")
    precision = np.where(flagged == 0, 1.0, tp / np.maximum(flagged, 1))
    return Sweep(thresholds, precision, tp / len(faults))
