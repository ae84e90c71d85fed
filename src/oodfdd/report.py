"""Latent-space LDA projections, score matrices, and figure/table emission.

The LDA fit solves the generalized eigenproblem S_B w = lambda S_W w after
adding a small diagonal ridge to the within-class scatter.  Out-of-
distribution points are never part of the fit; they are projected through
the fitted directions afterwards.  All emitted SVG and CSV bytes are
deterministic functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .detect import mc_scores
from .model import PathwayNetwork

SCATTER_RIDGE = 1e-6

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass
class LdaProjection:
    """Fitted discriminant directions plus the projected fitting points."""

    W: np.ndarray  # (d, out_dims), unit-norm columns
    points: np.ndarray  # (n, out_dims)
    labels: np.ndarray
    eigenvalues: np.ndarray  # scatter ratios per direction, descending

    def transform(self, latents: np.ndarray) -> np.ndarray:
        """Project further points (e.g. out-of-distribution) through W."""
        return np.asarray(latents, dtype=np.float64) @ self.W


def scatter_matrices(latents: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within-class and between-class scatter (S_W, S_B)."""
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels)
    d = latents.shape[1]
    overall = latents.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in np.unique(labels):
        members = latents[labels == c]
        mu = members.mean(axis=0)
        centered = members - mu
        s_w += centered.T @ centered
        diff = (mu - overall)[:, None]
        s_b += len(members) * (diff @ diff.T)
    return s_w, s_b


def separation_statistic(latents: np.ndarray, labels: np.ndarray) -> float:
    """Trace ratio of between-class to within-class scatter."""
    s_w, s_b = scatter_matrices(latents, labels)
    tw = np.trace(s_w)
    if tw <= 0.0:
        raise ValueError("within-class scatter is degenerate")
    return float(np.trace(s_b) / tw)


def lda_project(latents: np.ndarray, labels, out_dims: int = 2) -> LdaProjection:
    """Fit discriminant directions maximizing between/within scatter.

    Needs at least two classes with two points each and out_dims <= latent
    dimension.  The ridge keeps S_W invertible; a scatter that is zero even
    after ridging (all points identical) is an error.  When class means
    coincide the directions are reported with near-zero eigenvalues rather
    than failing.
    """
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels)
    if latents.ndim != 2 or len(latents) != len(labels):
        raise ValueError("latents must be (n, d) with one label per row")
    d = latents.shape[1]
    if not 1 <= out_dims <= d:
        raise ValueError(f"out_dims must be in [1, {d}], got {out_dims}")
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least two points")

    s_w, s_b = scatter_matrices(latents, labels)
    ridge = SCATTER_RIDGE * np.trace(s_w) / d
    if ridge <= 0.0:
        raise ValueError("within-class scatter is degenerate even after ridging")
    s_w = s_w + ridge * np.eye(d)

    # whiten with the Cholesky factor, then an ordinary symmetric eigensolve
    chol = np.linalg.cholesky(s_w)
    inv_chol = np.linalg.inv(chol)
    m = inv_chol @ s_b @ inv_chol.T
    eigvals, eigvecs = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(eigvals)[::-1][:out_dims]
    w = inv_chol.T @ eigvecs[:, order]
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    return LdaProjection(
        W=w, points=latents @ w, labels=labels, eigenvalues=eigvals[order]
    )


def score_matrix_from_scores(scores: np.ndarray, groups) -> tuple[list[str], np.ndarray]:
    """Mean score per (group, output node); groups in first-seen order."""
    scores = np.asarray(scores, dtype=np.float64)
    groups = np.asarray(groups)
    if len(scores) == 0:
        raise ValueError("no examples to aggregate")
    names = list(dict.fromkeys(groups.tolist()))
    matrix = np.empty((len(names), scores.shape[1]))
    for i, name in enumerate(names):
        matrix[i] = scores[groups == name].mean(axis=0)
    return names, matrix


def score_matrix(
    net: PathwayNetwork, dataset, t: int, rng: np.random.Generator
) -> tuple[list[str], np.ndarray]:
    """MC-evaluate a test set and average classifier-path scores per group."""
    if net.head is None:
        raise ValueError(f"{net.kind.value} model has no classifier head")
    return score_matrix_from_scores(mc_scores(net, dataset.X, t, rng).clf, dataset.group)


def emit_csv(header: list[str], rows, path) -> None:
    """Comma-delimited table; floats fixed at 6 decimals."""
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{v:.6f}"
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def emit_scatter_svg(points: np.ndarray, labels, path, title: str = "") -> None:
    """Static SVG 1.1 scatter with per-class colors and a legend.

    Classes are colored and listed in sorted label order; byte output is a
    deterministic function of the inputs.  An empty point set produces a
    valid empty plot.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.size and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError("points must be (n, 2)")
    if points.size and len(points) != len(labels):
        raise ValueError("one label per point required")

    width, height, margin = 640, 480, 50
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width // 2}" y="30" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(title)}</text>'
        )

    classes = sorted({str(v) for v in labels.tolist()}) if points.size else []
    color = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(classes)}

    if points.size:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
        pad = 0.05 * span
        lo, span = lo - pad, span + 2 * pad

        def sx(v):
            return margin + (v - lo[0]) / span[0] * (width - 2 * margin)

        def sy(v):
            return height - margin - (v - lo[1]) / span[1] * (height - 2 * margin)

        for (px, py), lab in zip(points, labels):
            parts.append(
                f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.5" '
                f'fill="{color[str(lab)]}" fill-opacity="0.7"/>'
            )

    for i, c in enumerate(classes):
        y = margin + 14 + 18 * i
        parts.append(
            f'<rect x="{width - margin - 130}" y="{y - 9}" width="10" height="10" '
            f'fill="{color[c]}" class="legend"/>'
        )
        parts.append(
            f'<text x="{width - margin - 115}" y="{y}" font-family="sans-serif" '
            f'font-size="12">{escape(c)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
