"""Tests for MC-dropout inference and the entropy diagnostics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodfdd import model, nncore, uncertainty as unc
from oodfdd.model import ModelKind


def _net(kind=ModelKind.AUGMENTED, dropout=0.2, seed=0, n_classes=2, input_dim=6):
    return model.build(
        kind, input_dim=input_dim, latent_dim=2, dropout_rate=dropout,
        n_classes=n_classes, rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# sampling


def test_mc_sample_shapes_and_pathways():
    net = _net()
    out = unc.mc_sample(net, np.ones(6), 10, nncore.make_rng(0))
    assert out.classifier.samples.shape == (10, 1)
    assert out.reconstruction.samples.shape == (10, 6)
    assert out.classifier.mean.shape == (1,)
    assert out.classifier.t == 10

    clf_only = _net(ModelKind.CLASSIFIER_ONLY)
    out = unc.mc_sample(clf_only, np.ones(6), 5, nncore.make_rng(0))
    assert out.reconstruction is None
    ae_only = _net(ModelKind.AUTOENCODER_ONLY)
    out = unc.mc_sample(ae_only, np.ones(6), 5, nncore.make_rng(0))
    assert out.classifier is None


def test_mc_sample_requires_two_passes():
    net = _net()
    with pytest.raises(ValueError):
        unc.mc_sample(net, np.ones(6), 1, nncore.make_rng(0))
    with pytest.raises(ValueError):
        unc.mc_classify_batch(net, np.ones((3, 6)), 1, nncore.make_rng(0))
    with pytest.raises(ValueError):
        unc.mc_reconstruct_batch(net, np.ones((3, 6)), 0, nncore.make_rng(0))


def test_dropout_rate_zero_gives_zero_variance():
    net = _net(dropout=0.0)
    out = unc.mc_sample(net, np.ones(6), 8, nncore.make_rng(1))
    assert np.all(out.classifier.variance == 0.0)
    assert np.all(out.reconstruction.variance == 0.0)


def test_constant_network_gives_identical_samples():
    net = _net(dropout=0.5)
    net.params[...] = 0.0
    out = unc.mc_sample(net, np.ones(6), 16, nncore.make_rng(2))
    assert np.all(out.classifier.samples == 0.5)  # sigmoid(0)
    assert np.all(out.classifier.variance == 0.0)
    assert np.all(out.reconstruction.variance == 0.0)


def test_mean_variance_match_numpy_formulas():
    rng = nncore.make_rng(3)
    samples = rng.random((50, 4))
    pred = unc.McPrediction.from_samples(samples)
    assert np.allclose(pred.mean, samples.mean(axis=0), atol=1e-12)
    assert np.allclose(pred.variance, samples.var(axis=0), atol=1e-12)


def test_stats_bitwise_reproducible_from_stored_samples():
    net = _net(n_classes=7)
    out = unc.mc_sample(net, np.ones(6), 25, nncore.make_rng(4))
    pred = out.classifier
    # brute-force recomputation of the documented running update, in
    # sample-index order, must agree bitwise
    mean = np.zeros_like(pred.samples[0])
    m2 = np.zeros_like(pred.samples[0])
    for k in range(pred.t):
        delta = pred.samples[k] - mean
        mean = mean + delta / (k + 1)
        m2 = m2 + delta * (pred.samples[k] - mean)
    assert np.array_equal(pred.mean, mean)
    assert np.array_equal(pred.variance, np.maximum(m2, 0.0) / pred.t)


def test_multiclass_mean_stays_on_simplex():
    net = _net(n_classes=7)
    out = unc.mc_sample(net, np.linspace(-1, 1, 6), 40, nncore.make_rng(5))
    mean = out.classifier.mean
    assert np.all(mean >= 0.0) and np.all(mean <= 1.0)
    assert abs(mean.sum() - 1.0) < 1e-9


def test_mc_sampling_seeded_reproducibility():
    net = _net()
    a = unc.mc_sample(net, np.ones(6), 12, nncore.make_rng(6))
    b = unc.mc_sample(net, np.ones(6), 12, nncore.make_rng(6))
    assert np.array_equal(a.classifier.samples, b.classifier.samples)
    assert np.array_equal(a.reconstruction.samples, b.reconstruction.samples)
    c = unc.mc_sample(net, np.ones(6), 12, nncore.make_rng(7))
    assert not np.array_equal(a.classifier.samples, c.classifier.samples)


def test_more_samples_converge_to_same_mean():
    net = _net()
    x = np.linspace(-0.5, 0.5, 6)
    small = unc.mc_sample(net, x, 100, nncore.make_rng(8)).classifier
    big = unc.mc_sample(net, x, 1000, nncore.make_rng(9)).classifier
    bound = 3.0 * (
        np.sqrt(small.variance) / math.sqrt(100)
        + np.sqrt(big.variance) / math.sqrt(1000)
    ) + 1e-6
    assert np.all(np.abs(small.mean - big.mean) <= bound)


def test_batch_helpers_shapes_and_determinism():
    net = _net(n_classes=7)
    x = nncore.make_rng(10).normal(0, 1, (9, 6))
    m1, v1 = unc.mc_classify_batch(net, x, 20, nncore.make_rng(11))
    m2, v2 = unc.mc_classify_batch(net, x, 20, nncore.make_rng(11))
    assert m1.shape == (9, 7) and v1.shape == (9, 7)
    assert np.array_equal(m1, m2) and np.array_equal(v1, v2)
    r1 = unc.mc_reconstruct_batch(net, x, 20, nncore.make_rng(12))
    r2 = unc.mc_reconstruct_batch(net, x, 20, nncore.make_rng(12))
    assert r1.shape == (9, 6)
    assert np.array_equal(r1, r2)


def test_batch_reconstruct_without_dropout_equals_deterministic():
    net = _net(dropout=0.0)
    x = nncore.make_rng(13).normal(0, 1, (4, 6))
    mc = unc.mc_reconstruct_batch(net, x, 5, nncore.make_rng(14))
    xhat, _ = net.forward_reconstruct(x)
    assert np.allclose(mc, xhat, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 5))
def test_variance_bounded_for_unit_interval_samples(seed, t, c):
    samples = np.random.Generator(np.random.PCG64(seed)).random((t, c))
    pred = unc.McPrediction.from_samples(samples)
    assert np.all(pred.variance >= 0.0)
    assert np.all(pred.variance <= 0.25 + 1e-12)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_degenerate_and_uniform():
    assert unc.predictive_entropy([1.0, 0.0]) == 0.0
    assert abs(unc.predictive_entropy([0.5, 0.5]) - math.log(2)) < 1e-12
    assert abs(unc.predictive_entropy([0.25] * 4) - math.log(4)) < 1e-12


def test_entropy_direct_evaluation():
    # -0.9 ln 0.9 - 0.1 ln 0.1, frozen
    assert abs(unc.predictive_entropy([0.9, 0.1]) - 0.32508297339144825) < 1e-12


def test_entropy_scalar_expands_to_two_classes():
    assert abs(unc.predictive_entropy(0.5) - math.log(2)) < 1e-12
    assert abs(
        unc.predictive_entropy([0.3]) - unc.predictive_entropy([0.7, 0.3])
    ) < 1e-12


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        unc.predictive_entropy([-0.1, 1.1])
    with pytest.raises(ValueError):
        unc.predictive_entropy([0.5, 0.4])


def test_group_bucket_mapping():
    assert unc.group_bucket("normal") == unc.GROUP_NORMAL
    assert unc.group_bucket("fault:3") == unc.GROUP_FAULT_IN
    assert unc.group_bucket("incipient:2:1") == unc.GROUP_OOD
    assert unc.group_bucket("unknown") == unc.GROUP_OOD
    for bad in ("", "weird", "fault"):
        with pytest.raises(ValueError):
            unc.group_bucket(bad)


def test_decompose_entropies_buckets_and_total():
    dec = unc.decompose_entropies([0.0], ["normal"])
    assert dec.P0 == 0.0 and dec.P1_in == 0.0 and dec.P1_ood == 0.0 and dec.total == 0.0

    ln2 = math.log(2)
    dec = unc.decompose_entropies([ln2, ln2], ["normal", "unknown"])
    assert dec.P0 == ln2 and dec.P1_ood == ln2 and dec.P1_in == 0.0
    assert dec.total == dec.P0 + dec.P1_in + dec.P1_ood

    dec = unc.decompose_entropies([0.1, 0.2, 0.3], ["fault:1", "incipient:1:2", "normal"])
    assert dec.P1_in == 0.1 and dec.P1_ood == 0.2 and dec.P0 == 0.3
    assert dec.total == dec.P0 + dec.P1_in + dec.P1_ood


def test_decompose_rejects_untagged():
    with pytest.raises(ValueError):
        unc.decompose_entropies([0.1], ["mystery"])


def test_entropy_decomposition_from_network():
    net = _net(n_classes=3)
    x = nncore.make_rng(15).normal(0, 1, (6, 6))
    ds = SimpleNamespace(
        X=x, group=["normal", "normal", "fault:1", "fault:2", "incipient:1:1", "unknown"]
    )
    dec = unc.entropy_decomposition(net, ds, 30, nncore.make_rng(16))
    assert dec.P0 > 0.0 and dec.P1_in > 0.0 and dec.P1_ood > 0.0
    assert dec.total == dec.P0 + dec.P1_in + dec.P1_ood


# ---------------------------------------------------------------------------
# export


def test_histogram_csv(tmp_path):
    net = _net(n_classes=3)
    out = unc.mc_sample(net, np.ones(6), 200, nncore.make_rng(17))
    path = tmp_path / "hist.csv"
    unc.write_histogram_csv(out.classifier, path, bins=10)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "output,bin_left,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 10
    for j in range(3):
        counts = [int(r[2]) for r in rows if r[0] == str(j)]
        assert sum(counts) == 200
        lefts = [float(r[1]) for r in rows if r[0] == str(j)]
        assert lefts == sorted(lefts)
