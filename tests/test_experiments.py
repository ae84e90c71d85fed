"""Pipeline plumbing tests at smoke scale.

These verify structure, determinism, and bookkeeping of the experiment
runners with tiny budgets. The full-scale behavioral claims live in the
acceptance suite.
"""

from dataclasses import replace

import numpy as np
import pytest

from oodfdd import data, experiments


@pytest.fixture(scope="module")
def thyroid_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("thyroid")
    data.write_thyroid_surrogate(d, seed=0)
    return str(d)


@pytest.fixture(scope="module")
def mnist_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mnist")
    data.write_mnist_surrogate(d, n_train_per_digit=60, n_test_per_digit=20, seed=0)
    return str(d)


def _smoke(cfg_fn, **over):
    return cfg_fn(seed=0, epochs=3, pretrain_epochs=1, t_samples=4, **over)


@pytest.fixture(scope="module")
def thyroid_result(thyroid_dir):
    return experiments.run_thyroid(_smoke(experiments.thyroid_config), data_dir=thyroid_dir)


@pytest.fixture(scope="module")
def chiller_result():
    cfg = _smoke(experiments.chiller_config, n_per_class=104)
    return experiments.run_chiller(cfg)


@pytest.fixture(scope="module")
def mnist_result(mnist_dir):
    cfg = _smoke(experiments.mnist_config, train_cap_per_class=60, ambiguous_pairs=5)
    return experiments.run_mnist(cfg, data_dir=mnist_dir)


def test_thyroid_result_structure(thyroid_result):
    r = thyroid_result
    assert set(r.evals) == {"augmented", "classifier", "autoencoder"}
    aug, clf, ae = r.evals["augmented"], r.evals["classifier"], r.evals["autoencoder"]
    assert aug.thresholds.clf_thresholds is not None
    assert aug.thresholds.rec_threshold is not None
    assert clf.thresholds.rec_threshold is None
    assert ae.thresholds.clf_thresholds is None
    groups = {"normal", "fault:1", "incipient:1:1"}
    assert set(aug.clf_binary) == groups
    assert set(aug.rec_binary) == groups
    assert set(clf.clf_binary) == groups
    assert set(ae.rec_binary) == groups
    # diagnostic accuracy exists only where a true fault label does
    assert set(aug.clf_diag) == {"fault:1", "incipient:1:1"}
    assert ae.clf_diag is None and ae.entropy is None
    assert aug.entropy is not None and clf.entropy is not None
    assert aug.ood_mean_entropy is not None


def test_thyroid_training_rows_exclude_subnormal(thyroid_result):
    assert not any(g.startswith("incipient:") for g in thyroid_result.train_ds.group)
    assert any(g.startswith("incipient:") for g in thyroid_result.eval_ds.group)


def test_thyroid_rerun_is_bitwise_identical(thyroid_dir, thyroid_result):
    again = experiments.run_thyroid(_smoke(experiments.thyroid_config), data_dir=thyroid_dir)
    a, b = thyroid_result.evals["augmented"], again.evals["augmented"]
    assert np.array_equal(a.thresholds.clf_thresholds, b.thresholds.clf_thresholds)
    assert a.thresholds.rec_threshold == b.thresholds.rec_threshold
    assert a.clf_binary == b.clf_binary
    assert a.rec_binary == b.rec_binary
    assert a.entropy == b.entropy


def test_thyroid_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        experiments.run_thyroid(_smoke(experiments.thyroid_config), data_dir=str(tmp_path))


def test_chiller_severity_table(chiller_result):
    sev = chiller_result.extras["severity_detection"]
    assert set(sev) == {"augmented", "classifier"}
    for table in sev.values():
        assert set(table) == {1, 2, 3, 4}
        for v in table.values():
            assert 0.0 <= v <= 1.0


def test_train_models_equals_train_one_per_kind(chiller_result):
    r = chiller_result
    for kind in experiments.MODEL_ORDER:
        net, history = experiments.train_one(replace(r.config, model_kind=kind), r.train_ds)
        assert net.kind.value == kind and history
        assert net.params.tobytes() == r.nets[kind].params.tobytes()


def test_chiller_groups_cover_unknown_and_severities(chiller_result):
    groups = set(chiller_result.eval_ds.group)
    assert "unknown" in groups
    assert "fault:1" in groups and "incipient:1:2" in groups
    assert not any(g != "normal" and g.startswith("incipient") is False and g.startswith("fault") is False and g != "unknown" for g in groups)


def test_mnist_extras(mnist_result):
    r = mnist_result
    amb = r.extras["ambiguous_diag"]
    unk = r.extras["unknown_detection"]
    assert set(amb) == {"augmented", "classifier"}
    assert set(unk["augmented"]) == {"clf", "rec"}
    assert set(unk["classifier"]) == {"clf"}
    assert set(unk["autoencoder"]) == {"rec"}
    # interpolations were appended to the evaluation set
    assert len(r.eval_ds) > 200
    tags = [g for g in r.eval_ds.group if g.startswith("incipient:")]
    assert len(tags) == 4 * 5 * 3
    assert "incipient:2:0.5" in tags


def test_mnist_train_capped(mnist_result):
    y = mnist_result.train_ds.y
    for label in np.unique(y):
        assert (y == label).sum() <= 60
    assert not any(g == "unknown" for g in mnist_result.train_ds.group)


def test_tables_shape(thyroid_result):
    header, rows = experiments.binary_table(thyroid_result)
    assert header == ["group", "augmented_clf", "augmented_rec", "classifier_clf",
                      "autoencoder_rec"]
    assert {r[0] for r in rows} == {"normal", "fault:1", "incipient:1:1"}
    header, rows = experiments.diagnostic_table(thyroid_result)
    assert header == ["group", "augmented_clf", "classifier_clf"]
    header, rows = experiments.threshold_table(thyroid_result)
    # two clf channels + rec for augmented, two for classifier, one for ae
    assert ["model", "channel", "threshold"] == header
    assert len(rows) == 3 + 2 + 1
    header, rows = experiments.entropy_table(thyroid_result)
    assert [r[0] for r in rows] == ["augmented", "classifier"]


def test_config_validation():
    with pytest.raises(ValueError):
        experiments.config_for("imagenet")
    with pytest.raises(ValueError):
        experiments.thyroid_config(alpha=1.5)
    with pytest.raises(ValueError):
        experiments.thyroid_config(t_samples=1)
    cfg = experiments.config_for("chiller-surrogate", seed=3)
    assert cfg.alpha == 0.05 and cfg.n_classes == 7 and cfg.seed == 3


def test_benchmark_config_runs_to_convergence():
    cfg = experiments.thyroid_config()
    bench = cfg.benchmark_config()
    assert bench.early_stop and bench.beta == 0.0 and bench.pretrain_epochs == 0
    assert bench.epochs == cfg.epochs + cfg.pretrain_epochs


def test_resolve_data_dir(monkeypatch):
    monkeypatch.delenv("OODFDD_DATA_DIR", raising=False)
    assert experiments.resolve_data_dir("/x") == "/x"
    assert experiments.resolve_data_dir(None) == "."
    monkeypatch.setenv("OODFDD_DATA_DIR", "/from-env")
    assert experiments.resolve_data_dir(None) == "/from-env"
    assert experiments.resolve_data_dir("/explicit") == "/explicit"


def test_spearman_basics():
    assert experiments.spearman([1, 2, 3, 4], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)
    assert experiments.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # monotone in rank, not in value
    assert experiments.spearman([1, 2, 3], [10, 100, 101]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        experiments.spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        experiments.spearman([1, 2], [1, 2, 3])


def test_spearman_ties_use_midranks():
    got = experiments.spearman([1, 2, 2, 4], [1, 2, 3, 4])
    assert 0.9 < got < 1.0


def test_severity_detection_parses_tags():
    groups = np.array(["normal", "incipient:1:1", "incipient:2:1", "fault:3",
                       "incipient:1:2", "unknown", "fault:1"])
    flags = np.array([True, True, False, True, True, True, False])
    rates = experiments.severity_detection(flags, groups)
    assert rates == {1: 0.5, 2: 1.0, 4: 0.5}


def test_cap_per_class_deterministic():
    ds = data.LabeledDataset(
        X=np.arange(40, dtype=float).reshape(20, 2),
        y=np.array([0] * 12 + [1] * 8),
        group=np.array(["normal"] * 12 + ["fault:1"] * 8),
    )
    a = experiments._cap_per_class(ds, 5, seed=7)
    b = experiments._cap_per_class(ds, 5, seed=7)
    assert len(a) == 10
    assert np.array_equal(a.X, b.X)
    assert (a.y == 0).sum() == 5 and (a.y == 1).sum() == 5


def test_latents_are_deterministic(thyroid_result):
    net = thyroid_result.nets["augmented"]
    x = thyroid_result.eval_ds.X[:10]
    z1 = experiments.latents(net, x)
    z2 = experiments.latents(net, x)
    assert z1.shape == (10, thyroid_result.config.latent_dim)
    assert np.array_equal(z1, z2)
