"""Monte-Carlo dropout inference and entropy diagnostics.

T stochastic forward passes with dropout left on give per-output sample sets;
the predictive mean and population variance summarize them.  One pass loop
serves every caller: each pass runs the encoder once and feeds both the
classifier head and the decoder, so the two outputs share that pass's
dropout mask.  The first encoder layer runs once per call; dropout follows
it, so its output is the same on every pass.  `mc_moments` reduces the
passes of a batch as they are drawn; `mc_sample` keeps the samples of one
input.  Sums are reduced in sample-index order so repeated runs with the
same seed reproduce the statistics bitwise.  Entropy is the natural-log
entropy of the predictive mean distribution, with the usual 0*log(0) = 0
convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PathwayNetwork
from .nncore import as_matrix


def _welford_step(k: int, sample: np.ndarray, mean: np.ndarray, m2: np.ndarray):
    """Fold the k-th (0-based) sample into the running (mean, m2) pair."""
    delta = sample - mean
    mean = mean + delta / (k + 1)
    return mean, m2 + delta * (sample - mean)


def _population_variance(m2: np.ndarray, t: int) -> np.ndarray:
    # the update can leave a negative rounding residue of order 1e-30;
    # clamp so the population-variance lower bound holds exactly
    return np.maximum(m2, 0.0) / t


def _sequential_mean_var(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance accumulated in sample-index order.

    Uses the running update
        delta = x_k - mean;  mean += delta / (k + 1);  m2 += delta * (x_k - mean)
    and returns (mean, m2 / T).  The exact recurrence and its loop order are
    part of the contract: recomputing it from the same sample array
    reproduces both statistics bitwise, and a constant sample set yields the
    sample itself as mean and exactly zero variance.  `mc_moments` runs the
    same step on each pass as it is drawn.
    """
    mean = np.zeros_like(samples[0])
    m2 = np.zeros_like(samples[0])
    for k, sample in enumerate(samples):
        mean, m2 = _welford_step(k, sample, mean, m2)
    return mean, _population_variance(m2, len(samples))


@dataclass
class McPrediction:
    """Samples from T stochastic passes plus their mean and variance."""

    samples: np.ndarray  # (T, C)
    mean: np.ndarray  # (C,)
    variance: np.ndarray  # (C,)

    @property
    def t(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McPrediction":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError("samples must be a (T, C) array")
        mean, variance = _sequential_mean_var(samples)
        return cls(samples=samples, mean=mean, variance=variance)


class McSampleResult(NamedTuple):
    classifier: McPrediction | None
    reconstruction: McPrediction | None


class McMoments(NamedTuple):
    """Per-row MC statistics of a batch; None where the net lacks the pathway."""

    clf_mean: np.ndarray | None  # (N, C)
    clf_var: np.ndarray | None  # (N, C)
    rec_mean: np.ndarray | None  # (N, D)


def _passes(net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator):
    """Yield (head output, decoder output) for each of T dropout-active passes.

    Each pass runs the encoder once and feeds both pathways from it, so they
    share that pass's dropout mask; an absent pathway yields None.  The
    encoder's first layer is dense and dropout follows it, so its output is
    the same on every pass: it runs once per call, and each pass runs the
    layers after it.
    """
    if t < 2:
        raise ValueError(f"need at least 2 samples, got {t}")
    first = net.encoder.layers[0].forward(x)
    for _ in range(t):
        h = net.encoder.forward(first, rng, stochastic=True, start=1)
        yield (None if net.head is None else net.head.forward(h),
               None if net.decoder is None else net.decoder.forward(h))


def mc_moments(
    net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator
) -> McMoments:
    """T dropout-active passes over a batch, reduced as they are drawn.

    Classifier outputs go through the sequential mean/variance update of
    `_sequential_mean_var`; reconstructions keep a running sum divided by T.
    Memory stays flat in T.  Requires t >= 2; a dropout rate of 0 is allowed
    and simply yields zero variance.
    """
    x = as_matrix(x)
    clf_mean = clf_m2 = rec_sum = None
    if net.head is not None:
        clf_mean, clf_m2 = np.zeros((2, len(x), net.n_outputs))
    if net.decoder is not None:
        rec_sum = np.zeros_like(x)
    for k, (clf, rec) in enumerate(_passes(net, x, t, rng)):
        if clf is not None:
            clf_mean, clf_m2 = _welford_step(k, clf, clf_mean, clf_m2)
        if rec is not None:
            rec_sum = rec_sum + rec
    return McMoments(
        clf_mean=clf_mean,
        clf_var=None if clf_m2 is None else _population_variance(clf_m2, t),
        rec_mean=None if rec_sum is None else rec_sum / t,
    )


def mc_sample(
    net: PathwayNetwork, x: np.ndarray, t: int, rng: np.random.Generator
) -> McSampleResult:
    """The passes of `mc_moments` on a single input, with every sample kept."""
    x = as_matrix(x)
    if x.shape[0] != 1:
        raise ValueError("mc_sample takes a single example; see mc_moments")
    clf, rec = zip(*_passes(net, x, t, rng))
    return McSampleResult(
        classifier=None if net.head is None else McPrediction.from_samples(np.concatenate(clf)),
        reconstruction=None if net.decoder is None
        else McPrediction.from_samples(np.concatenate(rec)),
    )


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
    parts = [0.0, 0.0, 0.0]
    for h, tag in zip(entropies, groups):
        parts[group_bucket(tag)] += float(h)
    return EntropyDecomposition.from_parts(*parts)


def write_histogram_csv(pred: McPrediction, path, bins: int = 20) -> None:
    """Per-output histogram of the MC samples: output, bin_left, count.

    Outputs whose samples all sit inside [0, 1] are binned over [0, 1] so
    different outputs line up; anything else is binned over its own range.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["output", "bin_left", "count"])
        for j in range(pred.samples.shape[1]):
            col = pred.samples[:, j]
            lo, hi = float(col.min()), float(col.max())
            if 0.0 <= lo and hi <= 1.0:
                lo, hi = 0.0, 1.0
            elif lo == hi:
                hi = lo + 1.0
            counts, edges = np.histogram(col, bins=bins, range=(lo, hi))
            for count, left in zip(counts, edges[:-1]):
                writer.writerow([j, f"{left:.6f}", int(count)])
