"""Tests for LDA projection and figure/table emitters."""

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oodfdd import nncore, report


def _clusters(means, n=100, d=None, seed=0, scale=1.0):
    rng = nncore.make_rng(seed)
    d = d if d is not None else len(means[0])
    xs, ys = [], []
    for label, mu in enumerate(means):
        xs.append(rng.normal(0, scale, (n, d)) + np.asarray(mu))
        ys.extend([label] * n)
    return np.vstack(xs), np.asarray(ys)


# ---------------------------------------------------------------------------
# LDA


def test_lda_separates_two_clusters():
    x, y = _clusters([[-5.0], [5.0]], n=200, seed=1)
    points = x @ report.lda_project(x, y, out_dims=1)
    m0 = points[y == 0].mean()
    m1 = points[y == 1].mean()
    assert abs(m1 - m0) >= 8.0  # sign-invariant separation


def test_lda_identical_means_reports_zero_directions():
    rng = nncore.make_rng(2)
    base = rng.normal(0, 1, (80, 3))
    x = np.vstack([base, base])  # class means coincide exactly
    y = np.array([0] * 80 + [1] * 80)
    w = report.lda_project(x, y, out_dims=2)
    assert w.shape == (3, 2)
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0)


def test_lda_rotation_invariance_up_to_sign():
    x, y = _clusters([[0, 0, 0, 0], [6, 0, 1, 0], [0, 6, 0, 1]], n=150, seed=3)
    q, _ = np.linalg.qr(nncore.make_rng(4).normal(0, 1, (4, 4)))
    a = x @ report.lda_project(x, y)
    b = x @ q @ report.lda_project(x @ q, y)
    for j in range(2):
        sign = np.sign(np.dot(a[:, j], b[:, j]))
        assert np.allclose(a[:, j], sign * b[:, j], atol=1e-6)


def test_lda_preconditions():
    x, y = _clusters([[-1.0], [1.0]], n=10, seed=6)
    with pytest.raises(ValueError):
        report.lda_project(x, np.zeros(len(x)))  # one class
    with pytest.raises(ValueError):
        report.lda_project(x, y, out_dims=2)  # out_dims > d
    with pytest.raises(ValueError):
        report.lda_project(np.zeros((4, 2)), [0, 0, 1, 1])  # degenerate scatter
    xs = np.vstack([x[:3], x[:1] + 2.0])
    with pytest.raises(ValueError):
        report.lda_project(xs, [0, 0, 0, 1])  # class with a single point


def test_separation_statistic_orders_cluster_layouts():
    far_x, far_y = _clusters([[-6.0, 0.0], [6.0, 0.0]], n=100, seed=7)
    near_x, near_y = _clusters([[-0.5, 0.0], [0.5, 0.0]], n=100, seed=7)
    assert report.separation_statistic(far_x, far_y) > report.separation_statistic(
        near_x, near_y
    )


# ---------------------------------------------------------------------------
# emitters


def test_emit_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    report.emit_csv(["a", "b"], [[1.0, "x"], [0.123456789, 3]], path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,b", "1.000000,x", "0.123457,3"]


def _emit_csv_per_cell(header, rows, path) -> None:
    """The per-cell writer `emit_csv` replaced: one f-string per float cell
    and str() of every other."""
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{v:.6f}"
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))
_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-2**63, 2**63 - 1),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=6),
    st.none(),
)


@given(st.lists(st.lists(_CELLS, min_size=1, max_size=5), max_size=12),
       st.sampled_from([list, tuple]))
@settings(max_examples=300, deadline=None)
def test_emit_csv_writes_the_bytes_of_the_per_cell_writer(tmp_path_factory, rows, kind):
    out = tmp_path_factory.mktemp("csv")
    header = ["c"] * max((len(row) for row in rows), default=1)
    rows = [kind(row) for row in rows]
    report.emit_csv(header, rows, out / "rows.csv")
    _emit_csv_per_cell(header, rows, out / "cells.csv")
    assert (out / "rows.csv").read_bytes() == (out / "cells.csv").read_bytes()


def test_scatter_svg_deterministic_and_wellformed(tmp_path):
    x, y = _clusters([[0, 0], [3, 3], [0, 4]], n=10, seed=13)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    report.emit_scatter_svg(x, y, p1, title="latents")
    report.emit_scatter_svg(x, y, p2, title="latents")
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.parse(p1).getroot()
    assert root.tag.endswith("svg")
    legend = [e for e in root.iter() if e.get("class") == "legend"]
    assert len(legend) == 3


def test_scatter_svg_escapes_markup_in_title_and_labels(tmp_path):
    path = tmp_path / "esc.svg"
    points = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    report.emit_scatter_svg(points, np.array(["a&b", "<c>", "\"d'e"]), path,
                            title="x & <y> \"z\" 'w'")
    raw = path.read_bytes()
    # &, < and > become entities; quotes stay as they are in character data
    for line in (b'font-size="16">x &amp; &lt;y&gt; "z" \'w\'</text>',
                 b'font-size="12">"d\'e</text>', b'font-size="12">&lt;c&gt;</text>',
                 b'font-size="12">a&amp;b</text>'):
        assert line in raw
    # the whole file as xml.sax.saxutils.escape wrote it
    assert hashlib.sha256(raw).hexdigest() == (
        "5d6ec3fe5f7789f9213febdcdff4bb8d062ddf6d28a2c3b0eadadce0e7ffdbeb")
    root = ET.parse(path).getroot()
    assert [e.text for e in root.iter() if e.tag.endswith("text")] == [
        "x & <y> \"z\" 'w'", "\"d'e", "<c>", "a&b"]


def test_scatter_svg_empty_set_is_valid(tmp_path):
    path = tmp_path / "empty.svg"
    report.emit_scatter_svg(np.zeros((0, 2)), np.array([]), path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert not [e for e in root.iter() if e.tag.endswith("circle")]


def test_scatter_svg_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        report.emit_scatter_svg(np.zeros((3, 3)), [0, 1, 2], tmp_path / "x.svg")
    with pytest.raises(ValueError):
        report.emit_scatter_svg(np.zeros((3, 2)), [0, 1], tmp_path / "y.svg")
