"""Pipeline plumbing tests at smoke scale.

These verify structure, determinism, and bookkeeping of the experiment
runners with tiny budgets. The full-scale behavioral claims live in the
acceptance suite.
"""

import dataclasses
import multiprocessing
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from oodfdd import cli, data, detect, experiments, model
from oodfdd.nncore import NonFiniteError, derive_rng


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


def _smoke_thyroid(data_dir):
    return experiments.run_experiment(_smoke(experiments.thyroid_config), data_dir=data_dir)


def _smoke_chiller(data_dir=None):
    return experiments.run_experiment(_smoke(experiments.chiller_config, n_per_class=104))


def _smoke_mnist(data_dir):
    cfg = _smoke(experiments.mnist_config, train_cap_per_class=60, ambiguous_pairs=5)
    return experiments.run_experiment(cfg, data_dir=data_dir)


@pytest.fixture(scope="module")
def thyroid_result(thyroid_dir):
    return _smoke_thyroid(thyroid_dir)


@pytest.fixture(scope="module")
def chiller_result():
    return _smoke_chiller()


@pytest.fixture(scope="module")
def mnist_result(mnist_dir):
    return _smoke_mnist(mnist_dir)


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
    again = experiments.run_experiment(_smoke(experiments.thyroid_config), data_dir=thyroid_dir)
    a, b = thyroid_result.evals["augmented"], again.evals["augmented"]
    assert np.array_equal(a.thresholds.clf_thresholds, b.thresholds.clf_thresholds)
    assert a.thresholds.rec_threshold == b.thresholds.rec_threshold
    assert a.clf_binary == b.clf_binary
    assert a.rec_binary == b.rec_binary
    assert a.entropy == b.entropy


def test_thyroid_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        experiments.run_experiment(_smoke(experiments.thyroid_config), data_dir=str(tmp_path))


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


def test_mc_stream_follows_the_model_kind(thyroid_result):
    r = thyroid_result
    calib_x = r.train_ds.X[r.train_ds.y == 0]
    for stream, kind in enumerate(experiments.MODEL_ORDER):
        net = r.nets[kind]
        expected = detect.calibrate(net, calib_x, r.config.alpha, r.config.t_samples,
                                    derive_rng(r.config.seed, 20, stream))
        for thr in (experiments.calibrate_normals(net, calib_x, r.config),
                    r.evals[kind].thresholds):
            assert np.array_equal(thr.clf_thresholds, expected.clf_thresholds)
            assert np.array_equal(thr.rec_threshold, expected.rec_threshold)
        scored = experiments.score_rows(net, calib_x, expected, 4, 0)
        reference = detect.score(net, calib_x, expected, 4, derive_rng(0, 22, stream))
        assert np.array_equal(scored.clf, reference.clf)
        assert np.array_equal(scored.rec, reference.rec)


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


@pytest.mark.parametrize("dataset", experiments.DATASETS)
def test_every_dataset_builds_a_validated_config_with_fresh_widths(dataset):
    first = experiments.config_for(dataset, seed=2)
    assert first.dataset == dataset and first.seed == 2
    assert first.validate() is first
    hidden = None if first.hidden_widths is None else list(first.hidden_widths)
    head = list(first.head_widths)
    if first.hidden_widths is not None:
        first.hidden_widths[0] += 1
    first.head_widths.append(3)
    again = experiments.config_for(dataset, seed=2)
    assert again.hidden_widths == hidden and again.head_widths == head


def test_comparison_tables_cover_every_compare_file(thyroid_result, chiller_result,
                                                    mnist_result):
    base = ["binary", "diagnostic", "thresholds", "entropy"]
    tables = experiments.comparison_tables(thyroid_result)
    assert list(tables) == base
    assert tables["binary"] == experiments.binary_table(thyroid_result)
    assert tables["diagnostic"] == experiments.diagnostic_table(thyroid_result)
    assert tables["thresholds"] == experiments.threshold_table(thyroid_result)
    assert tables["entropy"] == experiments.entropy_table(thyroid_result)

    tables = experiments.comparison_tables(chiller_result)
    assert list(tables) == base + ["severity"]
    sev = chiller_result.extras["severity_detection"]
    assert tables["severity"] == (
        ["model", "sl1", "sl2", "sl3", "sl4"],
        [[name] + [f"{sev[name][s]:.6f}" for s in (1, 2, 3, 4)] for name in sev])

    tables = experiments.comparison_tables(mnist_result)
    assert list(tables) == base + ["ood_metrics"]
    header, rows = tables["ood_metrics"]
    assert header == ["model", "metric", "value"]
    amb = mnist_result.extras["ambiguous_diag"]
    unk = mnist_result.extras["unknown_detection"]
    expected = [(name, "ambiguous_diag", f"{v:.6f}") for name, v in amb.items()]
    expected += [(name, f"unknown_{path}", f"{v:.6f}")
                 for name, rates in unk.items() for path, v in rates.items()]
    assert sorted(map(tuple, rows)) == sorted(expected)


def test_config_validation():
    with pytest.raises(ValueError):
        experiments.config_for("imagenet")
    with pytest.raises(ValueError):
        experiments.thyroid_config(alpha=1.5)
    with pytest.raises(ValueError):
        experiments.thyroid_config(t_samples=1)
    with pytest.raises(ValueError, match="decoder_activation 'tanh'"):
        experiments.thyroid_config(decoder_activation="tanh")
    for key, bad in [("alpha", 0.0), ("alpha", float("nan")), ("t_samples", 1),
                     ("epochs", 0), ("pretrain_epochs", -1), ("n_classes", 1),
                     ("batch_size", 0), ("lr", 0.0), ("lr", -1.0), ("lr", float("inf")),
                     ("lr", float("nan")), ("beta", -1.0), ("latent_dim", 0),
                     ("hidden_widths", [16, 0, 2]), ("head_widths", [0]),
                     ("n_per_class", 0), ("train_cap_per_class", 0),
                     ("ambiguous_pairs", -1), ("dropout_rate", 1.0), ("dropout_rate", -0.1),
                     ("train_fraction", 0.0), ("train_fraction", 1.0)]:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            experiments.thyroid_config(**{key: bad})
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


# ---------------------------------------------------------------------------
# lanes: the benchmark models in a forked worker beside the augmented model

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker lane needs the fork start method")


def _differences(a, b, path="result") -> list:
    """Paths at which a and b differ; arrays and floats compare bitwise."""
    if dataclasses.is_dataclass(a):
        if type(a) is not type(b):
            return [path]
        return [d for f in dataclasses.fields(a)
                for d in _differences(getattr(a, f.name), getattr(b, f.name),
                                      f"{path}.{f.name}")]
    if isinstance(a, dict):
        if not isinstance(b, dict) or list(a) != list(b):
            return [path]
        return [d for k in a for d in _differences(a[k], b[k], f"{path}[{k!r}]")]
    if isinstance(a, np.ndarray):
        same = (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
        return [] if same else [path]
    if isinstance(a, float):
        same = isinstance(b, float) and struct.pack("<d", a) == struct.pack("<d", b)
        return [] if same else [path]
    return [] if a == b else [path]


@needs_fork
@pytest.mark.parametrize("run, data_fixture", [
    (_smoke_thyroid, "thyroid_dir"), (_smoke_chiller, None), (_smoke_mnist, "mnist_dir"),
])
def test_two_lanes_equal_one_lane_bitwise(request, monkeypatch, run, data_fixture):
    data_dir = request.getfixturevalue(data_fixture) if data_fixture else None
    results = {}
    for lanes in (1, 2):
        monkeypatch.setattr(experiments, "_lane_count", lambda lanes=lanes: lanes)
        results[lanes] = run(data_dir)
    one, two = results[1], results[2]
    for kind in experiments.MODEL_ORDER:
        assert one.nets[kind].params.tobytes() == two.nets[kind].params.tobytes()
    assert _differences(one.evals, two.evals, "evals") == []
    assert _differences(one.extras, two.extras, "extras") == []
    assert multiprocessing.active_children() == []


def test_two_lanes_need_two_cpus_fork_and_one_blas_thread(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(experiments, "_blas_threads", lambda: 1)
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    assert experiments._lane_count() == (2 if can_fork else 1)
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)
    assert experiments._lane_count() == (2 if can_fork else 1)
    monkeypatch.setattr(experiments, "_blas_threads", lambda: 2)
    assert experiments._lane_count() == 1
    monkeypatch.setattr(experiments, "_blas_threads", lambda: 1)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    assert experiments._lane_count() == 1


def _fail_in_worker(parent_pid, failure):
    """A stand-in for train_autoencoder that fails only in a forked worker."""
    def train_autoencoder(*args, **kwargs):
        assert os.getpid() != parent_pid, "the autoencoder trained in the calling process"
        failure()
    return train_autoencoder


def _diverge():
    raise NonFiniteError("autoencoder loss diverged")


@needs_fork
def test_worker_error_reaches_the_caller(monkeypatch, thyroid_dir, tmp_path, capsys):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    # the worker is forked after this patch, so it trains with the stand-in
    monkeypatch.setattr(experiments, "train_autoencoder",
                        _fail_in_worker(os.getpid(), _diverge))
    with pytest.raises(NonFiniteError, match="^autoencoder loss diverged$"):
        _smoke_thyroid(thyroid_dir)
    assert multiprocessing.active_children() == []

    rc = cli.main(["compare", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--epochs", "2", "--pretrain-epochs", "1", "--t-samples", "4",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NUMERIC
    assert "autoencoder loss diverged" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_that_dies_is_reported_with_its_exit_code(monkeypatch, thyroid_dir):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    monkeypatch.setattr(experiments, "train_autoencoder",
                        _fail_in_worker(os.getpid(), lambda: os._exit(7)))
    with pytest.raises(RuntimeError, match="worker lane exited with code 7"):
        _smoke_thyroid(thyroid_dir)
    assert multiprocessing.active_children() == []


def test_rebuilt_nets_are_views_of_their_buffer(chiller_result, tmp_path):
    r = chiller_result
    for kind in experiments.MODEL_ORDER[1:]:
        net, ev = r.nets[kind], r.evals[kind]
        path = tmp_path / f"{kind}.ofdd"
        th = ev.thresholds
        model.save(net, path, model.Calibration(th.alpha, r.config.t_samples, r.config.seed,
                                                th.clf_thresholds, th.rec_threshold))
        loaded, _ = model.load(path)
        assert loaded.params.tobytes() == net.params.tobytes()

        for stack in net.stacks():
            for layer in stack.layers:
                if hasattr(layer, "weights"):
                    assert np.shares_memory(layer.weights, net.params)
                    assert np.shares_memory(layer.bias, net.params)

        x = r.eval_ds.X[:5]
        before = experiments.latents(net, x)
        kept = net.params.copy()
        try:
            net.params += 1.0
            moved = experiments.latents(net, x)
        finally:
            net.params[...] = kept
        assert not np.array_equal(moved, before)
        assert np.array_equal(experiments.latents(net, x), before)
        loaded.params += 1.0
        assert np.array_equal(experiments.latents(loaded, x), moved)
