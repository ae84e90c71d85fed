"""Pipeline plumbing tests at smoke scale.

These verify structure, determinism, and bookkeeping of the experiment
runners with tiny budgets. The full-scale behavioral claims live in the
acceptance suite.
"""

import contextlib
import dataclasses
import hashlib
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import plainloop
from oodfdd import cli, data, detect, experiments, model, nncore, train
from oodfdd.nncore import NonFiniteError, derive_rng
from shapes import arch


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


def test_pipeline_nets_equal_train_one_per_kind(chiller_result):
    r = chiller_result
    for kind in experiments.MODEL_ORDER:
        net, history = experiments.train_one(r.config, kind, r.train_ds)
        assert net.kind.value == kind and history
        assert net.params.tobytes() == r.nets[kind].params.tobytes()


@pytest.mark.parametrize("kind, k", [("augmented", 0), ("classifier", 1), ("autoencoder", 2)])
def test_calibration_and_scoring_draw_from_literal_streams(thyroid_result, kind, k):
    """Calibration draws from (seed, 20, k) and scoring from (seed, 22, k),
    k the kind's position in ModelKind; the pipeline's record is calibrate's."""
    r = thyroid_result
    net, cfg = r.nets[kind], r.config
    calib_x = r.train_ds.X[r.train_ds.y == 0]
    s = detect.mc_scores(net, calib_x, cfg.t_samples, derive_rng(cfg.seed, 20, k))
    clf_thr, rec_thr = detect.calibrate_thresholds(s.clf, cfg.alpha, rec_scores=s.rec)
    for cal in (detect.calibrate(net, calib_x, cfg.alpha, cfg.t_samples, cfg.seed),
                r.evals[kind].thresholds):
        assert (cal.alpha, cal.t_samples, cal.seed) == (cfg.alpha, cfg.t_samples, cfg.seed)
        assert np.array_equal(cal.clf_thresholds, clf_thr)
        assert cal.rec_threshold == rec_thr
    cal = model.Calibration(cfg.alpha, 4, 3, clf_thr, rec_thr)
    scored = detect.score(net, calib_x, cal)
    reference = detect.mc_scores(net, calib_x, 4, derive_rng(3, 22, k))
    assert np.array_equal(scored.clf, reference.clf)
    assert np.array_equal(scored.rec, reference.rec)


def _calibration_bytes(cal):
    """Every field of a calibration record, floats as their exact bytes."""
    clf = None if cal.clf_thresholds is None else cal.clf_thresholds.tobytes()
    rec = None if cal.rec_threshold is None else float(cal.rec_threshold).hex()
    return (float(cal.alpha).hex(), cal.t_samples, cal.seed, clf, rec)


@pytest.mark.parametrize("kind", experiments.MODEL_ORDER)
def test_train_archives_the_calibration_the_pipeline_computes(tmp_path, thyroid_dir,
                                                              thyroid_result, kind):
    cfg = thyroid_result.config
    argv = ["train", "--dataset", "thyroid", "--data-dir", thyroid_dir, "--model-kind", kind,
            "--seed", cfg.seed, "--epochs", cfg.epochs, "--pretrain-epochs",
            cfg.pretrain_epochs, "--t-samples", cfg.t_samples, "--out", tmp_path]
    assert cli.main([str(arg) for arg in argv]) == 0
    net, cal = model.load(tmp_path / f"{kind}.ofdd")
    assert net.params.tobytes() == thyroid_result.nets[kind].params.tobytes()
    assert _calibration_bytes(cal) == _calibration_bytes(thyroid_result.evals[kind].thresholds)


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


def test_mnist_unknown_rates_are_the_flag_means_of_the_unknown_rows(mnist_result):
    unknown = mnist_result.eval_ds.group == "unknown"
    expected = {name: {path: float(flags[unknown].mean())
                       for path, flags in (("clf", ev.clf_flags), ("rec", ev.rec_flags))
                       if flags is not None}
                for name, ev in mnist_result.evals.items()}
    got = mnist_result.extras["unknown_detection"]
    assert unknown.any() and got.keys() == expected.keys()
    for name, rates in expected.items():
        assert got[name].keys() == rates.keys()
        for path, rate in rates.items():
            assert np.float64(got[name][path]).tobytes() == np.float64(rate).tobytes()


@pytest.fixture(scope="module", params=[0, 1])
def mnist_augmented(request, mnist_dir):
    """(cfg, smoke-trained augmented net, test rows) of a seed, the rows of
    fault label 2 cut to 3, fewer than most pair counts."""
    cfg = dataclasses.replace(_smoke(experiments.mnist_config, train_cap_per_class=60),
                              seed=request.param)
    train_ds, test = experiments.load_dataset_pair(cfg, mnist_dir)
    net, _ = experiments.train_one(cfg, model.ModelKind.AUGMENTED, train_ds)
    keep = np.ones(len(test), dtype=bool)
    keep[np.flatnonzero(test.y == 2)[3:]] = False
    return cfg, net, test.select(keep)


@pytest.mark.parametrize("pairs", [0, 1, 5, 40])
def test_ambiguous_rows_equal_the_per_label_reference_bitwise(mnist_augmented, pairs):
    cfg, net, test = mnist_augmented
    cfg = dataclasses.replace(cfg, ambiguous_pairs=pairs)
    got = experiments._make_ambiguous(net, test, cfg)
    want = plainloop.plain_make_ambiguous(net, test, cfg)
    if pairs == 0:
        assert got is None and want is None
        return
    assert got.feature_stats is None and len(got) > 0
    for g, w in ((got.X, want.X), (got.y, want.y), (got.group, want.group)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _one_fault_label_rows(n_normal, n_fault, label, seed=2):
    rng = nncore.make_rng(seed)
    return data.LabeledDataset(X=rng.normal(0, 1, (n_normal + n_fault, 6)),
                               y=[0] * n_normal + [label] * n_fault,
                               group=["normal"] * n_normal + [f"fault:{label}"] * n_fault)


def test_ambiguous_rows_at_the_ends_decode_each_side(monkeypatch):
    net = model.build(model.ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2, n_classes=3),
                      0)
    test = _one_fault_label_rows(3, 3, label=2)
    monkeypatch.setattr(experiments, "AMBIGUOUS_T", (0.0, 1.0))
    ds = experiments._make_ambiguous(net, test, experiments.mnist_config(ambiguous_pairs=3))
    rec = net.decoder.forward(net.encoder.forward(test.X))
    # each end holds every row of its side once, in the pairing's order
    for got, want in ((ds.X[:3], rec[:3]), (ds.X[3:], rec[3:])):
        assert np.allclose(got[np.lexsort(got.T)], want[np.lexsort(want.T)], atol=1e-12)
    assert list(ds.group[:3]) == ["incipient:2:0"] * 3
    assert list(ds.group[3:]) == ["incipient:2:1"] * 3
    assert np.all(ds.y == 2)


def test_ambiguous_rows_sit_at_the_default_t_values():
    net = model.build(model.ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2), 0)
    ds = experiments._make_ambiguous(net, _one_fault_label_rows(1, 1, label=1),
                                     experiments.mnist_config())
    assert experiments.AMBIGUOUS_T == (0.4, 0.5, 0.6)
    assert list(ds.group) == ["incipient:1:0.4", "incipient:1:0.5", "incipient:1:0.6"]


def test_with_rows_stacks_rows_and_widens_group_strings():
    eval_ds = data.LabeledDataset(X=np.zeros((3, 2)), y=np.array([0, 0, 1]),
                                  group=np.array(["normal", "normal", "fault:1"]))
    ambiguous = data.LabeledDataset(X=np.ones((2, 2)), y=np.array([2, 2]),
                                    group=np.array(["incipient:2:0.5", "incipient:2:0.6"]))
    assert experiments._with_rows(eval_ds, None) is eval_ds
    both = experiments._with_rows(eval_ds, ambiguous)
    assert len(both) == 5
    assert list(both.group[3:]) == ["incipient:2:0.5", "incipient:2:0.6"]
    assert np.array_equal(both.y, [0, 0, 1, 2, 2])
    assert np.array_equal(both.X, np.vstack([np.zeros((3, 2)), np.ones((2, 2))]))


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
    with pytest.raises(ValueError, match=r"^unknown dataset 'imagenet', expected one of \("):
        experiments.config_for("imagenet")
    with pytest.raises(ValueError):
        experiments.thyroid_config(alpha=1.5)
    with pytest.raises(ValueError):
        experiments.thyroid_config(t_samples=1)
    with pytest.raises(ValueError, match="decoder_activation 'tanh'"):
        experiments.thyroid_config(decoder_activation="tanh")
    for key, bad in [("alpha", 0.0), ("alpha", float("nan")), ("t_samples", 1),
                     ("epochs", 0), ("pretrain_epochs", -1), ("seed", -1),
                     ("batch_size", 0), ("lr", 0.0), ("lr", -1.0), ("lr", float("inf")),
                     ("lr", float("nan")), ("beta", -1.0), ("latent_dim", 0),
                     ("hidden_widths", [16, 0, 2]), ("head_widths", [0]),
                     ("n_per_class", 0), ("train_cap_per_class", 0),
                     ("ambiguous_pairs", -1), ("dropout_rate", 1.0), ("dropout_rate", -0.1),
                     ("train_fraction", 0.0), ("train_fraction", 1.0)]:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            experiments.thyroid_config(**{key: bad})
    # the encoder layout must end at the bottleneck, checked before any data is read
    for bad in [dict(hidden_widths=[]), dict(latent_dim=3),
                dict(hidden_widths=[16, 8], latent_dim=2)]:
        with pytest.raises(ValueError, match="^hidden_widths must be .* latent_dim"):
            experiments.thyroid_config(**bad)
    assert experiments.thyroid_config(latent_dim=3, hidden_widths=[16, 8, 3]).latent_dim == 3
    cfg = experiments.config_for("chiller-surrogate", seed=3)
    assert cfg.alpha == 0.05 and cfg.seed == 3
    # chiller generates n_per_class rows per tag, at the setting's default
    assert cfg.n_per_class == experiments.ExperimentConfig.n_per_class == 400


@pytest.mark.parametrize("dataset, data_fixture, n_classes", [
    ("thyroid", "thyroid_dir", 2), ("chiller-surrogate", None, 7), ("mnist", "mnist_dir", 5),
])
def test_architecture_takes_its_class_count_from_the_training_labels(request, dataset,
                                                                     data_fixture, n_classes):
    data_dir = request.getfixturevalue(data_fixture) if data_fixture else None
    cfg = experiments.config_for(dataset)
    train_ds, _ = experiments.load_dataset_pair(cfg, data_dir)
    shape = cfg.architecture(train_ds)
    assert shape.n_classes == n_classes
    assert shape.input_dim == train_ds.X.shape[1]


def test_benchmark_config_runs_to_convergence():
    cfg = experiments.thyroid_config()
    for kind in experiments.MODEL_ORDER[1:]:
        bench = cfg.train_config(kind)
        assert bench.early_stop and bench.beta == 0.0 and bench.pretrain_epochs == 0
        assert bench.epochs == cfg.epochs + cfg.pretrain_epochs
    joint = cfg.train_config(model.ModelKind.AUGMENTED)
    assert not joint.early_stop and joint.beta == cfg.beta
    assert (joint.epochs, joint.pretrain_epochs) == (cfg.epochs, cfg.pretrain_epochs)


def test_resolve_data_dir(monkeypatch):
    monkeypatch.delenv("OODFDD_DATA_DIR", raising=False)
    assert experiments.resolve_data_dir("/x") == "/x"
    assert experiments.resolve_data_dir(None) == "."
    monkeypatch.setenv("OODFDD_DATA_DIR", "/from-env")
    assert experiments.resolve_data_dir(None) == "/from-env"
    assert experiments.resolve_data_dir("/explicit") == "/explicit"


def test_severity_detection_parses_tags():
    groups = np.array(["normal", "incipient:1:1", "incipient:2:1", "fault:3",
                       "incipient:1:2", "unknown", "fault:1"])
    flags = np.array([True, True, False, True, True, True, False])
    rates = experiments.severity_detection(flags, groups)
    assert rates == {1: 0.5, 2: 1.0, 4: 0.5}


def test_severity_detection_rejects_a_level_outside_one_to_three():
    """A level is parsed as an integer: a fractional level (mnist's
    ambiguous tags among them) is no severity, and the error names the tag."""
    for tag in ("incipient:1:2.5", "incipient:1:0.4", "incipient:2:4", "incipient:3"):
        with pytest.raises(ValueError, match=re.escape(repr(tag))):
            experiments.severity_detection(np.array([True, False]), np.array(["fault:1", tag]))


_SEVERITY_TAGS = ["normal", "unknown", "fault:1", "fault:3", "incipient:1:1",
                  "incipient:2:3", "incipient:3:2", "incipient:1:2"]


@given(st.lists(st.tuples(st.sampled_from(_SEVERITY_TAGS), st.booleans()), max_size=60))
def test_severity_detection_equals_row_loop_bitwise(rows):
    """The means of the flags grouped by level give the rates of pooling the
    flags row by row, levels in ascending order."""
    groups = np.array([g for g, _ in rows], dtype=str)
    flags = np.array([f for _, f in rows], dtype=bool)
    levels = {1: [], 2: [], 3: [], 4: []}
    for flag, g in zip(flags, groups):
        if g.startswith("incipient:"):
            levels[int(g.split(":")[2])].append(flag)
        elif g.startswith("fault:"):
            levels[4].append(flag)
    reference = {sev: float(np.mean(vals)) for sev, vals in levels.items() if vals}
    rates = experiments.severity_detection(flags, groups)
    assert list(rates) == list(reference)
    assert [v.hex() for v in rates.values()] == [v.hex() for v in reference.values()]


@given(st.lists(st.tuples(st.sampled_from(_SEVERITY_TAGS),
                          st.sampled_from([np.nan, 0.0, 1.0, 0.5, 1 / 3, 0.25, 0.1])),
                min_size=1, max_size=60))
def test_diagnostic_group_means_equal_row_loop_bitwise(rows):
    """The reduction `evaluate_model` runs for its diagnostic table, the
    group means of the non-NaN credits, gives the string mask's means.  A
    group comes in order of its first credited row, which in a pipeline is
    its first row: a tag's rows share a label, so its credits are all NaN
    (label 0) or none."""
    groups = np.array([g for g, _ in rows], dtype=str)
    diag = np.array([d for _, d in rows])
    credited = ~np.isnan(diag)
    reference = {}
    for g in dict.fromkeys(groups[credited].tolist()):
        vals = diag[groups == g]
        reference[g] = float(vals[~np.isnan(vals)].mean())
    tags, means = data.group_means(diag[credited], groups[credited])
    assert tags == list(reference)
    assert all(type(g) is str for g in tags)
    assert [v.hex() for v in means.tolist()] == [v.hex() for v in reference.values()]


def test_pipeline_group_tables_have_str_keys(thyroid_result, chiller_result, mnist_result):
    for result in (thyroid_result, chiller_result, mnist_result):
        tables = [table for ev in result.evals.values()
                  for table in (ev.clf_binary, ev.rec_binary, ev.clf_diag) if table is not None]
        assert len(tables) == 6  # augmented 3, classifier 2, autoencoder 1
        for table in tables:
            assert table and all(type(g) is str for g in table)


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
    z1 = net.encoder.forward(x)
    z2 = net.encoder.forward(x)
    assert z1.shape == (10, thyroid_result.config.latent_dim)
    assert np.array_equal(z1, z2)


# ---------------------------------------------------------------------------
# lanes: the benchmark models in a forked worker beside the augmented model

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker lane needs the fork start method")


def _differences(a, b, path="result") -> list:
    """Paths at which a and b differ; arrays and floats compare bitwise,
    tuples item by item."""
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
    if isinstance(a, tuple):
        if type(a) is not type(b) or len(a) != len(b):
            return [path]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _differences(x, y, f"{path}[{i}]")]
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
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    results, forks = {}, {}
    for lanes in (1, 2):
        monkeypatch.setattr(experiments, "_lane_count", lambda lanes=lanes: lanes)
        del started[:]
        results[lanes] = run(data_dir)
        forks[lanes] = len(started)
    assert forks == {1: 0, 2: 1}
    one, two = results[1], results[2]
    for kind in experiments.MODEL_ORDER:
        assert one.nets[kind].params.tobytes() == two.nets[kind].params.tobytes()
    assert _differences(one.evals, two.evals, "evals") == []
    assert _differences(one.extras, two.extras, "extras") == []
    assert _differences(one.eval_ds, two.eval_ds, "eval_ds") == []
    assert multiprocessing.active_children() == []


def test_two_lanes_need_two_cpus_and_fork(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert experiments._lane_count() == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert experiments._lane_count() == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    assert experiments._lane_count() == 1


def _fail_for(kind, failure):
    """A stand-in for `train` that calls `failure` for nets of `kind` and
    trains every other net with the real `train`."""
    def stand_in(net, dataset, cfg):
        if net.kind is kind:
            return failure()
        return train.train(net, dataset, cfg)
    return stand_in


def _fail_in_worker(parent_pid, failure):
    """A stand-in for `train` that fails for the autoencoder, which must
    train in a forked worker."""
    def autoencoder_fails():
        assert os.getpid() != parent_pid, "the autoencoder trained in the calling process"
        failure()
    return _fail_for(model.ModelKind.AUTOENCODER_ONLY, autoencoder_fails)


def _diverge():
    raise NonFiniteError("autoencoder loss diverged")


@needs_fork
def test_worker_error_reaches_the_caller(monkeypatch, thyroid_dir, tmp_path, capsys):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    # the worker is forked after this patch, so it trains with the stand-in
    monkeypatch.setattr(experiments, "train", _fail_in_worker(os.getpid(), _diverge))
    with pytest.raises(NonFiniteError, match="^autoencoder loss diverged$"):
        _smoke_thyroid(thyroid_dir)
    assert multiprocessing.active_children() == []

    rc = cli.main(["compare", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--epochs", "2", "--pretrain-epochs", "1", "--t-samples", "4",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NUMERIC
    assert "autoencoder loss diverged" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


_LANES_AFTER_DRAWS_CHILD = """
import threading
from oodfdd import detect, experiments, model, uncertainty
experiments._lane_count = lambda: 2
uncertainty.usable_cpus = lambda: 2
# 100 passes over chiller's 52 smoke calibration normals run in stacked
# blocks, so each lane's calibration draws beside its passes too
cfg = experiments.chiller_config(seed=0, epochs=3, pretrain_epochs=1, t_samples=100,
                                 n_per_class=104)
train_ds, _ = experiments.load_dataset_pair(cfg, None)
net = model.build(model.ModelKind.AUGMENTED, cfg.architecture(train_ds), cfg.seed)
detect.calibrate(net, train_ds.X[train_ds.y == 0], cfg.alpha, 100, cfg.seed)
for _ in range(2):
    experiments.run_experiment(cfg)
print(threading.active_count())
"""


@needs_fork
def test_lanes_forked_after_stacked_mc_draws_finish():
    # the MC draw helper is joined inside each call, so a lane forked later
    # inherits no thread; the warning filter turns Python 3.12's warning
    # about forking a multi-threaded process into a failure, and one
    # OpenBLAS thread keeps its pool threads out of that count
    path = os.pathsep.join([os.path.dirname(os.path.dirname(experiments.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    # a session of its own, so that a hung child and its lane die together
    child = subprocess.Popen([sys.executable, "-W", "error:This process:DeprecationWarning",
                              "-c", _LANES_AFTER_DRAWS_CHILD], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the pipelines forked after stacked MC draws hung")
    assert child.returncode == 0, err
    assert out.split() == ["1"]


needs_openblas = pytest.mark.skipif(nncore._openblas_thread_calls() is None,
                                    reason="numpy's BLAS is not OpenBLAS")


def _report_blas_threads():
    get, _ = nncore._openblas_thread_calls()
    raise NonFiniteError(f"worker ran {get()} BLAS threads")


@needs_openblas
@needs_fork
def test_pipelines_run_one_blas_thread_and_restore_the_count(monkeypatch, thyroid_dir,
                                                             tmp_path):
    get, set_ = nncore._openblas_thread_calls()
    original = get()
    set_(2)
    try:
        before = get()
        _smoke_thyroid(thyroid_dir)
        assert get() == before
        assert cli.main(["gen-data", "--dataset", "thyroid",
                         "--data-dir", str(tmp_path / "d")]) == 0
        assert get() == before

        monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
        # the worker inherits the pin through the fork and reports what it ran
        monkeypatch.setattr(experiments, "train",
                            _fail_in_worker(os.getpid(), _report_blas_threads))
        with pytest.raises(NonFiniteError, match="^worker ran 1 BLAS threads$"):
            _smoke_thyroid(thyroid_dir)
        assert get() == before
        rc = cli.main(["compare", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                       "--epochs", "2", "--pretrain-epochs", "1", "--t-samples", "4",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERIC
        assert get() == before
    finally:
        set_(original)
    assert multiprocessing.active_children() == []


def _digest(result) -> str:
    """sha256 of every model's parameters and flags."""
    h = hashlib.sha256()
    for kind in experiments.MODEL_ORDER:
        h.update(result.nets[kind].params.tobytes())
        for flags in (result.evals[kind].clf_flags, result.evals[kind].rec_flags):
            if flags is not None:
                h.update(flags.tobytes())
    return h.hexdigest()


_CHILD = """
import sys
import test_experiments as t
from oodfdd import experiments, nncore
get, _ = nncore._openblas_thread_calls()
print(get(), t._digest(t._smoke_mnist(sys.argv[1])))
"""


@needs_openblas
def test_a_seed_gives_the_same_outputs_under_any_blas_thread_setting(mnist_dir):
    path = os.pathsep.join([os.path.dirname(os.path.dirname(experiments.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])
    seen = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _CHILD, mnist_dir], env=env,
                             capture_output=True, text=True, check=True).stdout
        count, digest = out.split()
        seen[count] = digest
    if "2" not in seen:
        pytest.skip("OpenBLAS runs at most one thread on this machine")
    assert seen["1"] == seen["2"]


_TRAIN_CHILD = """
import hashlib
import sys
import test_experiments as t
from oodfdd import experiments, nncore
get, _ = nncore._openblas_thread_calls()
cfg = t._smoke(experiments.mnist_config, train_cap_per_class=60, ambiguous_pairs=5)
train_ds, _ = experiments.load_dataset_pair(cfg, sys.argv[1])
h = hashlib.sha256()
for kind in experiments.MODEL_ORDER:
    net, _ = experiments.train_one(cfg, kind, train_ds)
    h.update(net.params.tobytes())
print(get(), h.hexdigest())
"""


@needs_openblas
def test_direct_train_one_calls_give_the_same_params_under_any_blas_thread_setting(
        mnist_dir):
    path = os.pathsep.join([os.path.dirname(os.path.dirname(experiments.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])
    seen = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _TRAIN_CHILD, mnist_dir], env=env,
                             capture_output=True, text=True, check=True).stdout
        count, digest = out.split()
        seen[count] = digest
    if "2" not in seen:
        pytest.skip("OpenBLAS runs at most one thread on this machine")
    assert seen["1"] == seen["2"]


_TARGET_CHILD = """
import sys
import numpy as np
import test_experiments as t
thyroid_dir, out = sys.argv[1:]
arrays = {}
for name, result in (("thyroid", t._smoke_thyroid(thyroid_dir)), ("chiller", t._smoke_chiller())):
    for kind, ev in result.evals.items():
        key = f"{name}.{kind}"
        cal = ev.thresholds
        parts = {"clf_flags": ev.clf_flags, "rec_flags": ev.rec_flags,
                 "clf_thresholds": cal.clf_thresholds, "rec_threshold": cal.rec_threshold,
                 "entropies": ev.entropies}
        if ev.entropy is not None:
            d = ev.entropy
            parts["entropy_parts"] = [d.P0, d.P1_in, d.P1_ood, d.total]
        arrays.update({f"{key}.{part}": np.asarray(v) for part, v in parts.items()
                       if v is not None})
np.savez(out, **arrays)
"""

# Measured between the two targets on a 2-vCPU x86 machine with AVX-512
# (numpy 2.4, OpenBLAS): 0 of 24,320 flags and 3,625 of 12,198 float entries
# of thyroid and chiller at smoke size differed, the largest by 5.4e-15
# relative, and a zero stayed zero.  The bound leaves about 200 times that.
TARGET_RTOL = 1e-12


def test_decisions_hold_across_simd_targets_and_blas_kernels(thyroid_dir, tmp_path):
    """Bits hold per numpy SIMD target and BLAS kernel; across them every
    flag holds, and every threshold and entropy moves by at most
    TARGET_RTOL.  One child runs at the defaults, the other with every
    dispatch target of numpy's off and OpenBLAS on its Sandybridge kernel;
    on a machine with fewer targets the two share more of their kernels."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    path = os.pathsep.join([os.path.dirname(os.path.dirname(experiments.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])
    baseline = {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
                "OPENBLAS_CORETYPE": "Sandybridge"}
    runs = []
    for i, extra in enumerate(({}, baseline)):
        out = tmp_path / f"target{i}.npz"
        env = dict(os.environ, PYTHONPATH=path, **extra)
        subprocess.run([sys.executable, "-c", _TARGET_CHILD, thyroid_dir, str(out)], env=env,
                       capture_output=True, text=True, check=True)
        with np.load(out) as npz:
            runs.append(dict(npz))
    default, other = runs
    assert sorted(default) == sorted(other)
    assert any(key.endswith("_flags") for key in default)
    for key, want in default.items():
        if want.dtype == bool:
            assert np.array_equal(other[key], want), key
        else:
            np.testing.assert_allclose(other[key], want, rtol=TARGET_RTOL, atol=0, err_msg=key)


def _poisoned(net):
    """`net` with one encoder weight of 1e200: finite, but its reconstruction
    error overflows."""
    net.encoder.dense_layers()[0].weights[0, 0] = 1e200
    return net


def test_overflow_raises_from_every_entry_point(monkeypatch, thyroid_dir):
    cfg = _smoke(experiments.thyroid_config)
    train_ds, _ = experiments.load_dataset_pair(cfg, thyroid_dir)
    normals = train_ds.X[train_ds.y == 0]
    net = _poisoned(model.build(model.ModelKind.AUGMENTED, cfg.architecture(train_ds),
                                cfg.seed))
    before = np.geterr()
    with pytest.raises(FloatingPointError, match="overflow"):
        detect.calibrate(net, normals, cfg.alpha, cfg.t_samples, cfg.seed)
    cal = model.Calibration(cfg.alpha, cfg.t_samples, cfg.seed, np.zeros(2), 0.0)
    with pytest.raises(FloatingPointError, match="overflow"):
        detect.score(net, normals, cal)
    build = experiments.build
    monkeypatch.setattr(experiments, "build", lambda *a, **k: _poisoned(build(*a, **k)))
    with pytest.raises(FloatingPointError, match="overflow"):
        experiments.train_one(cfg, model.ModelKind.AUGMENTED, train_ds)
    assert np.geterr() == before


def _report_numeric_state(parent_pid, aspect, seen):
    """A stand-in job that records the `aspect` of the numeric state it runs
    in (the kinds of floating-point error that raise, or the BLAS thread
    count); in a forked worker it raises it instead."""
    def job(*args):
        if aspect == "errstate":
            state = ",".join(sorted(k for k, v in np.geterr().items() if v == "raise"))
        else:
            state = nncore._openblas_thread_calls()[0]()
        if os.getpid() != parent_pid:
            raise NonFiniteError(f"worker saw {state}")
        seen.append(state)
        return None, []
    return job


@needs_fork
@pytest.mark.parametrize("aspect", ["errstate", pytest.param("blas", marks=needs_openblas)])
@pytest.mark.parametrize("step", ["train_one", "calibrate", "evaluate_model"])
def test_both_lanes_run_in_the_numeric_context(monkeypatch, thyroid_dir, step, aspect):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    seen = []
    # every step a lane runs is a stand-in; the one under test reports its state
    for name in ("train_one", "calibrate", "evaluate_model"):
        monkeypatch.setattr(experiments, name,
                            lambda *args: (SimpleNamespace(params=None), []))
    monkeypatch.setattr(experiments, step, _report_numeric_state(os.getpid(), aspect, seen))
    want = "divide,invalid,over" if aspect == "errstate" else 1
    calls = nncore._openblas_thread_calls()
    threads = None if calls is None else calls[0]()
    before = np.geterr()
    try:
        if calls is not None:
            calls[1](2)  # so that one thread is the pin's doing
        with pytest.raises(NonFiniteError, match=re.escape(f"worker saw {want}")):
            _smoke_thyroid(thyroid_dir)
        assert seen == [want]
        assert np.geterr() == before
        assert calls is None or calls[0]() == 2
    finally:
        if calls is not None:
            calls[1](threads)
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_that_dies_is_reported_with_its_exit_code(monkeypatch, thyroid_dir):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    monkeypatch.setattr(experiments, "train",
                        _fail_in_worker(os.getpid(), lambda: os._exit(7)))
    with pytest.raises(RuntimeError, match="worker lane exited with code 7"):
        _smoke_thyroid(thyroid_dir)
    assert multiprocessing.active_children() == []


def _augmented_diverges(parent_pid):
    """A stand-in for `train` that fails for the augmented model, which must
    train in the calling process."""
    def augmented_fails():
        assert os.getpid() == parent_pid, "the augmented model trained in the worker"
        raise NonFiniteError("augmented loss diverged")
    return _fail_for(model.ModelKind.AUGMENTED, augmented_fails)


def _handoff_smoke_mnist(data_dir):
    # 240 interpolated rows of 196 pixels: more than a pipe holds unread
    cfg = _smoke(experiments.mnist_config, train_cap_per_class=60, ambiguous_pairs=20)
    return experiments.run_experiment(cfg, data_dir=data_dir)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so that a
    hang fails the test; a forked worker does not inherit the timer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
def test_caller_error_before_the_handoff_stops_the_worker(monkeypatch, mnist_dir):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    monkeypatch.setattr(experiments, "train", _augmented_diverges(os.getpid()))
    with _within(60), pytest.raises(NonFiniteError, match="^augmented loss diverged$"):
        _handoff_smoke_mnist(mnist_dir)
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("failure, error, message", [
    (_diverge, NonFiniteError, "^autoencoder loss diverged$"),
    (lambda: os._exit(7), RuntimeError, "worker lane exited with code 7"),
], ids=["raises", "exits"])
def test_worker_failure_before_the_handoff_reaches_the_caller(monkeypatch, mnist_dir,
                                                               failure, error, message):
    monkeypatch.setattr(experiments, "_lane_count", lambda: 2)
    monkeypatch.setattr(experiments, "train", _fail_in_worker(os.getpid(), failure))
    with _within(60), pytest.raises(error, match=message):
        _handoff_smoke_mnist(mnist_dir)
    assert multiprocessing.active_children() == []


def test_too_few_calibration_normals_stop_before_any_training(monkeypatch, mnist_dir,
                                                               tmp_path, capsys):
    def train_one(*args):
        raise AssertionError("trained although calibration cannot succeed")

    monkeypatch.setattr(experiments, "train_one", train_one)
    rc = cli.main(["compare", "--dataset", "chiller-surrogate", "--n-per-class", "90",
                   "--out", str(tmp_path / "compare")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "need at least 50 normal examples, got 45" in capsys.readouterr().err
    rc = cli.main(["train", "--dataset", "mnist", "--data-dir", mnist_dir,
                   "--train-cap-per-class", "30", "--out", str(tmp_path / "train")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "need at least 50 normal examples, got 30" in capsys.readouterr().err


def test_rebuilt_nets_are_views_of_their_buffer(chiller_result, tmp_path):
    r = chiller_result
    for kind in experiments.MODEL_ORDER[1:]:
        net, ev = r.nets[kind], r.evals[kind]
        path = tmp_path / f"{kind}.ofdd"
        model.save(net, path, ev.thresholds)
        loaded, _ = model.load(path)
        assert loaded.params.tobytes() == net.params.tobytes()

        for stack in (net.encoder, net.head, net.decoder):
            if stack is None:
                continue
            for layer in stack.layers:
                if hasattr(layer, "weights"):
                    assert np.shares_memory(layer.weights, net.params)
                    assert np.shares_memory(layer.bias, net.params)

        x = r.eval_ds.X[:5]
        before = net.encoder.forward(x)
        kept = net.params.copy()
        try:
            net.params += 1.0
            moved = net.encoder.forward(x)
        finally:
            net.params[...] = kept
        assert not np.array_equal(moved, before)
        assert np.array_equal(net.encoder.forward(x), before)
        loaded.params += 1.0
        assert np.array_equal(loaded.encoder.forward(x), moved)
