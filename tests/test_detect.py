"""Tests for anomaly scoring, calibration, the decision rule, and metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodfdd import detect, model, nncore, uncertainty
from oodfdd.model import ModelKind


# ---------------------------------------------------------------------------
# scores


def _scores(mean, variance):
    return detect.clf_anomaly_scores(np.asarray([mean], dtype=np.float64),
                                     np.asarray([variance], dtype=np.float64))[0]


def test_clf_scores_confident_normal():
    assert np.allclose(_scores([1, 0], [0, 0]), [0.0, 0.0])


def test_clf_scores_confident_fault():
    assert np.allclose(_scores([0, 1], [0, 0]), [1.0, 1.0])


def test_clf_scores_formula():
    s = _scores([0.6, 0.4], [0.04, 0.04])
    assert np.allclose(s, [0.44, 0.44], atol=1e-12)


def test_clf_scores_multiclass():
    s = _scores([0.5, 0.3, 0.2], [0.01, 0.02, 0.03])
    assert np.allclose(s, [0.51, 0.32, 0.23], atol=1e-12)


def test_clf_scores_sigmoid_expansion():
    # a single sigmoid output makes both channel scores mu + var
    s = _scores([0.3], [0.02])
    assert np.allclose(s, [0.32, 0.32], atol=1e-12)


def test_clf_scores_batch_matches_single():
    rng = np.random.default_rng(0)
    mean = rng.random((20, 4))
    mean /= mean.sum(axis=1, keepdims=True)
    var = rng.random((20, 4)) * 0.1
    batch = detect.clf_anomaly_scores(mean, var)
    for i in range(20):
        single = detect.clf_anomaly_scores(mean[i : i + 1], var[i : i + 1])
        assert np.array_equal(batch[i], single[0])
        expect = mean[i] + var[i]
        expect[0] = 1.0 - mean[i, 0] + var[i, 0]
        assert np.array_equal(batch[i], expect)
    sig = detect.clf_anomaly_scores(mean[:, :1], var[:, :1])
    assert sig.shape == (20, 2)
    assert np.allclose(sig[:, 0], sig[:, 1], atol=1e-12)
    with pytest.raises(ValueError):
        detect.clf_anomaly_scores(mean[0], var[0])


def test_rec_score_trivial_cases():
    assert detect.rec_anomaly_scores([[1.0, 2.0]], [[1.0, 2.0]])[0] == 0.0
    assert detect.rec_anomaly_scores([[1.0, 1.0]], [[0.0, 0.0]])[0] == 1.0
    with pytest.raises(ValueError):
        detect.rec_anomaly_scores([[1.0, 2.0]], [[1.0]])


def test_rec_scores_batch():
    mu = np.array([[1.0, 1.0], [0.0, 0.0]])
    x = np.zeros((2, 2))
    assert np.allclose(detect.rec_anomaly_scores(mu, x), [1.0, 0.0])


# ---------------------------------------------------------------------------
# calibration


def test_quantile_interpolation_example():
    scores = np.arange(1.0, 101.0).reshape(-1, 1)
    thr = detect.calibrate_thresholds(scores, 0.05)
    assert abs(thr.clf_thresholds[0] - 95.05) < 1e-9


def test_identical_scores_degenerate():
    scores = np.full((60, 1), 3.5)
    thr = detect.calibrate_thresholds(scores, 0.1, rec_scores=np.full(60, 3.5))
    assert thr.clf_thresholds[0] == 3.5
    assert thr.rec_threshold == 3.5
    # strict > means nothing is flagged on the calibration data itself
    assert np.sum(scores[:, 0] > thr.clf_thresholds[0]) == 0


def test_calibration_flag_rate_near_alpha():
    rng = np.random.default_rng(1)
    scores = rng.normal(0, 1, (500, 2))
    for alpha in (0.05, 0.1):
        thr = detect.calibrate_thresholds(scores, alpha)
        for j in range(2):
            rate = np.mean(scores[:, j] > thr.clf_thresholds[j])
            assert alpha - 1.0 / 500 <= rate <= alpha + 1.0 / 500


def test_calibration_preconditions():
    with pytest.raises(ValueError):
        detect.calibrate_thresholds(np.zeros((49, 1)), 0.1)
    with pytest.raises(ValueError):
        detect.calibrate_thresholds(np.zeros((60, 1)), 0.0)
    with pytest.raises(ValueError):
        detect.calibrate_thresholds(np.zeros((60, 1)), 1.0)
    with pytest.raises(ValueError):
        detect.calibrate_thresholds(None, 0.1)
    with pytest.raises(ValueError):
        detect.calibrate_thresholds(None, 0.1, rec_scores=np.zeros(10))


# ---------------------------------------------------------------------------
# decision rule


def _thr(values, alpha=0.1):
    return detect.ThresholdSet(
        clf_thresholds=np.asarray(values, dtype=np.float64), rec_threshold=None, alpha=alpha
    )


def _labels(scores, thresholds):
    """(label set, overall flag, flag row) of one row under the batch rule."""
    b, z = detect.predict_labels(np.asarray([scores], dtype=np.float64), thresholds)
    return {int(j) for j in np.flatnonzero(b[0])}, bool(z[0]), b[0]


def test_predict_all_below():
    y, z, b = _labels([0.1, 0.1, 0.1], _thr([0.2, 0.2, 0.2]))
    assert y == set()
    assert z is False
    assert not b.any()


def test_predict_rule_example():
    y, z, _ = _labels([0.5, 0.9, 0.1], _thr([0.2, 0.2, 0.2]))
    assert y == {0, 1}
    assert z is True


def test_predict_strict_inequality_at_boundary():
    y, _, _ = _labels([0.2, 0.3], _thr([0.2, 0.2]))
    assert 0 not in y and 1 in y


def test_predict_batch_matches_single():
    rng = np.random.default_rng(2)
    scores = rng.random((30, 4))
    thr = _thr(rng.random(4))
    b, z = detect.predict_labels(scores, thr)
    for i in range(30):
        single_b, single_z = detect.predict_labels(scores[i : i + 1], thr)
        assert np.array_equal(b[i], single_b[0])
        assert z[i] == single_z[0]
        assert np.array_equal(b[i], scores[i] > thr.clf_thresholds)
        assert z[i] == b[i].any()


@given(
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
    st.integers(0, 4),
    st.floats(0.01, 2.0),
)
def test_monotonicity_properties(c, seed, idx, bump):
    rng = np.random.default_rng(seed)
    scores = rng.random(c)
    thr = _thr(rng.random(c))
    base = _labels(scores, thr)
    # raising one score never removes a label
    raised = scores.copy()
    raised[idx % c] += bump
    after = _labels(raised, thr)
    assert base[0] <= after[0]
    # raising one threshold never adds a label
    higher = thr.clf_thresholds.copy()
    higher[idx % c] += bump
    tightened = _labels(scores, _thr(higher))
    assert tightened[0] <= base[0]
    # disjunction consistency
    for y, z, _ in (base, after, tightened):
        assert z == (len(y) > 0)


# ---------------------------------------------------------------------------
# diagnostic accuracy


def _credit(y_pred: set, y_true: int, width: int = 4) -> float:
    """Credit of one flagged label set through the flag-matrix function."""
    b = np.zeros((1, width), dtype=bool)
    b[0, sorted(y_pred)] = True
    return detect.diagnostic_accuracies(b, [y_true])[0]


def test_diag_acc_examples():
    assert _credit({1}, 1) == 1.0
    assert _credit({0, 1}, 1) == 1.0  # normal label is free
    assert _credit({1, 2}, 1) == 0.5
    assert _credit({2}, 1) == 0.0
    assert _credit(set(), 1) == 0.0
    assert _credit({0}, 1) == 0.0
    assert _credit({1, 2, 3}, 3) == pytest.approx(1 / 3)


def test_diag_acc_undefined_for_normals():
    assert np.isnan(_credit({1}, 0))
    # labels that name no channel are a caller error
    with pytest.raises(ValueError):
        _credit({1}, 4)
    with pytest.raises(ValueError):
        _credit({1}, -1)


def test_diag_acc_exhaustive_oracle():
    # every subset of {0,1,2,3} with |Y| <= 3, every true fault label, as
    # one flag matrix with a row per case
    universe = (0, 1, 2, 3)
    cases = [(set(combo), y_true) for size in range(4)
             for combo in itertools.combinations(universe, size) for y_true in (1, 2, 3)]
    b = np.zeros((len(cases), 4), dtype=bool)
    for i, (y_pred, _) in enumerate(cases):
        b[i, sorted(y_pred)] = True
    got = detect.diagnostic_accuracies(b, [y for _, y in cases])
    for i, (y_pred, y_true) in enumerate(cases):
        if y_true not in y_pred:
            expected = 0.0
        else:
            expected = 1.0 / len([j for j in y_pred if j != 0])
        assert got[i] == expected, (y_pred, y_true)


def test_diagnostic_accuracies_matrix():
    b = np.array([[True, True, False], [False, False, True], [False, True, False]])
    y = np.array([1, 0, 2])
    out = detect.diagnostic_accuracies(b, y)
    assert out[0] == 1.0
    assert np.isnan(out[1])
    assert out[2] == 0.0


# ---------------------------------------------------------------------------
# calibrate and score from a network


def _aug_net(n_classes=3):
    return model.build(ModelKind.AUGMENTED, input_dim=5, latent_dim=2,
                       n_classes=n_classes, rng_seed=3)


def test_calibrate_is_thresholds_of_mc_scores():
    net = _aug_net()
    x = nncore.make_rng(4).normal(0, 1, (60, 5))
    thr = detect.calibrate(net, x, 0.1, 8, nncore.make_rng(5))
    m = uncertainty.mc_moments(net, x, 8, nncore.make_rng(5))
    want = detect.calibrate_thresholds(
        detect.clf_anomaly_scores(m.clf_mean, m.clf_var), 0.1,
        rec_scores=detect.rec_anomaly_scores(m.rec_mean, x))
    assert np.array_equal(thr.clf_thresholds, want.clf_thresholds)
    assert thr.rec_threshold == want.rec_threshold and thr.alpha == 0.1


def test_score_flags_every_pathway():
    net = _aug_net()
    x = nncore.make_rng(6).normal(0, 1, (60, 5))
    thr = detect.calibrate(net, x, 0.2, 6, nncore.make_rng(7))
    s = detect.score(net, x, thr, 6, nncore.make_rng(8))
    plain = detect.mc_scores(net, x, 6, nncore.make_rng(8))
    assert np.array_equal(s.clf, plain.clf) and np.array_equal(s.rec, plain.rec)
    assert plain.b is None and plain.z is None and plain.rec_flags is None
    b, z = detect.predict_labels(s.clf, thr)
    assert np.array_equal(s.b, b) and np.array_equal(s.z, z)
    assert np.array_equal(s.rec_flags, s.rec > thr.rec_threshold)

    for kind, absent in ((ModelKind.CLASSIFIER_ONLY, "rec"), (ModelKind.AUTOENCODER_ONLY, "clf")):
        net = model.build(kind, input_dim=5, latent_dim=2, n_classes=3, rng_seed=3)
        thr = detect.calibrate(net, x, 0.2, 4, nncore.make_rng(9))
        s = detect.score(net, x, thr, 4, nncore.make_rng(10))
        if absent == "rec":
            assert s.rec is None and s.rec_flags is None and thr.rec_threshold is None
            assert s.z.shape == (60,)
        else:
            assert s.clf is None and s.b is None and s.z is None and thr.clf_thresholds is None
            assert s.rec_flags.shape == (60,)


# ---------------------------------------------------------------------------
# binary accuracy and sweeps


def test_binary_accuracy_conventions():
    flags = np.array([False, False, True, True, False])
    groups = ["normal", "normal", "fault:1", "fault:1", "fault:1"]
    assert detect.binary_accuracy(flags, groups, "normal") == 1.0
    assert detect.binary_accuracy(flags, groups, "fault:1") == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        detect.binary_accuracy(flags, groups, "unknown")


def test_group_binary_accuracies_order_and_values():
    flags = np.array([False, True, True])
    groups = ["normal", "fault:1", "normal"]
    table = detect.group_binary_accuracies(flags, groups)
    assert list(table) == ["normal", "fault:1"]
    assert table["normal"] == 0.5
    assert table["fault:1"] == 1.0


@given(st.lists(st.tuples(st.sampled_from(["normal", "fault:1", "incipient:2:3", "unknown:4"]),
                          st.booleans()), min_size=1, max_size=60),
       st.booleans())
def test_group_binary_accuracies_equal_row_loop_bitwise(rows, as_array):
    """The array mask gives the same table as a mask built row by row."""
    groups = [g for g, _ in rows]
    flags = np.array([f for _, f in rows])
    reference = {}
    for g in groups:
        if g not in reference:
            member = np.asarray([tag == g for tag in groups])
            hit = ~flags[member] if g == "normal" else flags[member]
            reference[g] = float(np.mean(hit))
    table = detect.group_binary_accuracies(flags, np.array(groups) if as_array else groups)
    assert list(table) == list(reference)
    assert [v.hex() for v in table.values()] == [v.hex() for v in reference.values()]


def test_precision_recall_threshold_below_min():
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    flags = np.array([False, False, True, True])
    p, r = detect.precision_recall_at(scores, flags, 0.0)
    assert r == 1.0
    assert p == 0.5  # fault prevalence


def test_precision_recall_perfect_separation():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    flags = np.array([False, False, True, True])
    thresholds, precision, recall = detect.precision_recall_sweep(scores, flags, k=9)
    hit = (precision == 1.0) & (recall == 1.0)
    assert hit.any()
    assert len(thresholds) == len(precision) == len(recall) == 9


def test_precision_recall_matches_brute_force():
    rng = np.random.default_rng(3)
    scores = rng.random(40)
    flags = rng.random(40) < 0.3
    flags[0], flags[1] = True, False
    thresholds, precision, recall = detect.precision_recall_sweep(scores, flags, k=11)
    for t, p, r in zip(thresholds, precision, recall):
        tp = fp = fn = 0
        for s, f in zip(scores, flags):
            if s > t and f:
                tp += 1
            elif s > t and not f:
                fp += 1
            elif s <= t and f:
                fn += 1
        assert p == (1.0 if tp + fp == 0 else tp / (tp + fp))
        assert r == tp / (tp + fn)


def test_precision_recall_degenerate_inputs():
    with pytest.raises(ValueError):
        detect.precision_recall_sweep(np.array([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(ValueError):
        detect.precision_recall_sweep(np.array([1.0, 2.0]), np.array([False, False]))


# ---------------------------------------------------------------------------
# report type


def test_metrics_report_validates_and_serializes(tmp_path):
    thr = detect.ThresholdSet(
        clf_thresholds=np.array([0.5, 0.6]), rec_threshold=0.25, alpha=0.1
    )
    report = detect.MetricsReport(
        binary_acc={"normal": 0.9, "fault:1": 0.8},
        diag_acc={"fault:1": 0.75},
        thresholds=thr,
    )
    table = tmp_path / "table.csv"
    report.to_csv(table)
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "group,binary_accuracy,diagnostic_accuracy"
    assert lines[1] == "normal,0.900000,"
    assert lines[2] == "fault:1,0.800000,0.750000"

    thrfile = tmp_path / "thr.csv"
    thr.to_csv(thrfile)
    rows = thrfile.read_text().strip().splitlines()
    assert rows[0] == "channel,threshold"
    assert rows[1] == "alpha,0.100000"
    assert rows[2] == "clf0,0.500000"
    assert rows[4] == "rec,0.250000"

    with pytest.raises(ValueError):
        detect.MetricsReport(binary_acc={"normal": 1.2}, diag_acc={}, thresholds=thr)
