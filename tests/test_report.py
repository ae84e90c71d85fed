"""Tests for LDA projection, score matrices, and figure/table emitters."""

import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from oodfdd import model, nncore, report
from oodfdd.model import ModelKind


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
    proj = report.lda_project(x, y, out_dims=1)
    m0 = proj.points[y == 0].mean()
    m1 = proj.points[y == 1].mean()
    assert abs(m1 - m0) >= 8.0  # sign-invariant separation


def test_lda_identical_means_reports_zero_directions():
    rng = nncore.make_rng(2)
    base = rng.normal(0, 1, (80, 3))
    x = np.vstack([base, base])  # class means coincide exactly
    y = np.array([0] * 80 + [1] * 80)
    proj = report.lda_project(x, y, out_dims=2)
    assert np.all(np.abs(proj.eigenvalues) < 1e-9)


def test_lda_rotation_invariance_up_to_sign():
    x, y = _clusters([[0, 0, 0, 0], [6, 0, 1, 0], [0, 6, 0, 1]], n=150, seed=3)
    q, _ = np.linalg.qr(nncore.make_rng(4).normal(0, 1, (4, 4)))
    a = report.lda_project(x, y)
    b = report.lda_project(x @ q, y)
    for j in range(2):
        sign = np.sign(np.dot(a.points[:, j], b.points[:, j]))
        assert np.allclose(a.points[:, j], sign * b.points[:, j], atol=1e-6)


def test_lda_transform_projects_new_points():
    x, y = _clusters([[-4, 0], [4, 0]], n=60, seed=5)
    proj = report.lda_project(x, y, out_dims=1)
    ood = np.array([[0.0, 10.0], [1.0, -3.0]])
    out1 = proj.transform(ood)
    out2 = proj.transform(ood)
    assert out1.shape == (2, 1)
    assert np.array_equal(out1, out2)


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
# score matrices


def test_score_matrix_from_scores_limiting_case():
    scores = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.1, 0.0, 0.0],
    ])
    groups = ["fault:1", "fault:1", "fault:2", "normal"]
    names, matrix = report.score_matrix_from_scores(scores, groups)
    assert names == ["fault:1", "fault:2", "normal"]
    assert np.allclose(matrix[0], [0.0, 1.0, 0.0])
    assert np.allclose(matrix[1], [0.0, 0.0, 1.0])
    assert np.allclose(matrix[2], [0.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        report.score_matrix_from_scores(np.zeros((0, 3)), [])


def test_score_matrix_from_network_matches_direct_recompute():
    from oodfdd import detect, uncertainty as unc

    net = model.build(ModelKind.AUGMENTED, input_dim=5, latent_dim=2, n_classes=3, rng_seed=8)
    x = nncore.make_rng(9).normal(0, 1, (12, 5))
    ds = SimpleNamespace(X=x, group=np.array(["normal"] * 6 + ["fault:1"] * 3 + ["fault:2"] * 3))
    names, matrix = report.score_matrix(net, ds, 15, nncore.make_rng(10))

    m = unc.mc_moments(net, x, 15, nncore.make_rng(10))
    scores = detect.clf_anomaly_scores(m.clf_mean, m.clf_var)
    assert names == ["normal", "fault:1", "fault:2"]
    assert np.array_equal(matrix[0], scores[:6].mean(axis=0))
    assert np.array_equal(matrix[1], scores[6:9].mean(axis=0))


# ---------------------------------------------------------------------------
# emitters


def test_emit_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    report.emit_csv(["a", "b"], [[1.0, "x"], [0.123456789, 3]], path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,b", "1.000000,x", "0.123457,3"]


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
