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
        unc.mc_moments(net, np.ones((3, 6)), 1, nncore.make_rng(0))
    with pytest.raises(ValueError):
        unc.mc_moments(_net(ModelKind.AUTOENCODER_ONLY), np.ones((3, 6)), 0, nncore.make_rng(0))


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
    a = unc.mc_moments(net, x, 20, nncore.make_rng(11))
    b = unc.mc_moments(net, x, 20, nncore.make_rng(11))
    assert a.clf_mean.shape == (9, 7) and a.clf_var.shape == (9, 7)
    assert a.rec_mean.shape == (9, 6)
    for got, again in zip(a, b):
        assert np.array_equal(got, again)
    clf_only = unc.mc_moments(_net(ModelKind.CLASSIFIER_ONLY), x, 3, nncore.make_rng(0))
    assert clf_only.rec_mean is None and clf_only.clf_mean.shape == (9, 1)
    ae_only = unc.mc_moments(_net(ModelKind.AUTOENCODER_ONLY), x, 3, nncore.make_rng(0))
    assert ae_only.clf_mean is None and ae_only.clf_var is None


def test_batch_reconstruct_without_dropout_equals_deterministic():
    net = _net(dropout=0.0)
    x = nncore.make_rng(13).normal(0, 1, (4, 6))
    mc = unc.mc_moments(net, x, 5, nncore.make_rng(14)).rec_mean
    xhat, _ = net.forward_reconstruct(x)
    assert np.allclose(mc, xhat, atol=1e-12)


def test_augmented_classifier_moments_equal_head_only_replay():
    # the decoder draws no randomness, so feeding it from each pass leaves
    # the classifier statistics bitwise where an encoder+head loop puts them
    net = _net(n_classes=5, dropout=0.3)
    x = nncore.make_rng(20).normal(0, 1, (11, 6))
    got = unc.mc_moments(net, x, 15, nncore.make_rng(21))
    rng = nncore.make_rng(21)
    mean = np.zeros((11, 5))
    m2 = np.zeros((11, 5))
    rec_sum = np.zeros_like(x)
    for k in range(15):
        h = net.encoder.forward(x, rng, stochastic=True)
        sample = net.head.forward(h)
        delta = sample - mean
        mean = mean + delta / (k + 1)
        m2 = m2 + delta * (sample - mean)
        rec_sum = rec_sum + net.decoder.forward(h)
    assert np.array_equal(got.clf_mean, mean)
    assert np.array_equal(got.clf_var, np.maximum(m2, 0.0) / 15)
    # the reconstruction is the mean over the same passes' masks
    assert np.array_equal(got.rec_mean, rec_sum / 15)
    # and a classifier-only net with the same weights gets the same moments
    clf_only = _net(ModelKind.CLASSIFIER_ONLY, n_classes=5, dropout=0.3)
    alone = unc.mc_moments(clf_only, x, 15, nncore.make_rng(21))
    assert np.array_equal(alone.clf_mean, got.clf_mean)
    assert np.array_equal(alone.clf_var, got.clf_var)


def test_first_encoder_layer_runs_once_per_mc_call():
    net = _net(n_classes=3, dropout=0.3)
    calls = [0] * len(net.encoder.dense_layers())
    for i, layer in enumerate(net.encoder.dense_layers()):
        def counted(x, forward=layer.forward, i=i):
            calls[i] += 1
            return forward(x)
        layer.forward = counted
    x = nncore.make_rng(23).normal(0, 1, (5, 6))
    unc.mc_moments(net, x, 12, nncore.make_rng(24))
    assert calls == [1, 12, 12]
    unc.mc_sample(net, x[0], 7, nncore.make_rng(24))
    assert calls == [2, 19, 19]


def test_mc_sample_is_the_moments_loop_with_samples_kept():
    net = _net(n_classes=3)
    x = np.linspace(-1, 1, 6)
    kept = unc.mc_sample(net, x, 17, nncore.make_rng(22))
    m = unc.mc_moments(net, x, 17, nncore.make_rng(22))
    assert np.array_equal(kept.classifier.mean, m.clf_mean[0])
    assert np.array_equal(kept.classifier.variance, m.clf_var[0])
    assert np.allclose(kept.reconstruction.mean, m.rec_mean[0], atol=1e-12)
    with pytest.raises(ValueError):
        unc.mc_sample(net, np.ones((2, 6)), 5, nncore.make_rng(0))


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 5))
def test_variance_bounded_for_unit_interval_samples(seed, t, c):
    samples = np.random.Generator(np.random.PCG64(seed)).random((t, c))
    pred = unc.McPrediction.from_samples(samples)
    assert np.all(pred.variance >= 0.0)
    assert np.all(pred.variance <= 0.25 + 1e-12)


# ---------------------------------------------------------------------------
# entropy


def _h(row):
    return unc.predictive_entropy(np.asarray([row], dtype=np.float64))[0]


def test_entropy_degenerate_and_uniform():
    assert _h([1.0, 0.0]) == 0.0
    assert abs(_h([0.5, 0.5]) - math.log(2)) < 1e-12
    assert abs(_h([0.25] * 4) - math.log(4)) < 1e-12


def test_entropy_direct_evaluation():
    # -0.9 ln 0.9 - 0.1 ln 0.1, frozen
    assert abs(_h([0.9, 0.1]) - 0.32508297339144825) < 1e-12


def test_entropy_scalar_expands_to_two_classes():
    assert abs(_h([0.5]) - math.log(2)) < 1e-12
    assert abs(_h([0.3]) - _h([0.7, 0.3])) < 1e-12


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError, match="row 0"):
        _h([-0.1, 1.1])
    with pytest.raises(ValueError, match="row 1"):
        unc.predictive_entropy(np.array([[0.5, 0.5], [0.5, 0.4], [0.2, 0.2]]))
    with pytest.raises(ValueError):
        unc.predictive_entropy(np.array([0.5, 0.5]))


@pytest.mark.parametrize("c", [1, 2, 5, 7, 10, 33])
def test_entropy_rows_equal_batch_bitwise(c):
    rng = nncore.make_rng(23 + c)
    probs = rng.random((40, 1)) if c == 1 else rng.dirichlet(np.ones(c), 40)
    probs[3, 0] = 0.0 if c > 1 else 1.0  # a zero term takes the 0 log 0 branch
    if c > 1:
        probs[3] /= probs[3].sum()
    batch = unc.predictive_entropy(probs)
    assert batch.shape == (40,)
    for i in range(40):
        assert unc.predictive_entropy(probs[i : i + 1])[0] == batch[i]


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
    with pytest.raises(ValueError, match="'mystery'"):
        unc.decompose_entropies([0.1], ["mystery"])
    with pytest.raises(ValueError, match="'mystery'"):
        unc.decompose_entropies([0.1, 0.2, 0.3], ["normal", "mystery", "fault:1"])


def test_decompose_entropies_equals_the_row_loop_bitwise():
    rng = nncore.make_rng(17)
    tags = np.array(["normal"] * 500 + [f"fault:{k}" for k in range(1, 7)] * 90
                    + [f"incipient:{k}:{s}" for k in range(1, 7) for s in (1, 2, 3)] * 20
                    + ["unknown"] * 200, dtype=object)
    rng.shuffle(tags)
    entropies = rng.exponential(0.7, len(tags))
    parts = [0.0, 0.0, 0.0]
    for h, tag in zip(entropies, tags):
        parts[unc.group_bucket(tag)] += float(h)
    dec = unc.decompose_entropies(entropies, tags)
    assert (dec.P0, dec.P1_in, dec.P1_ood) == tuple(parts)
    assert dec.total == parts[0] + parts[1] + parts[2]
    buckets = unc.group_buckets(tags)
    assert buckets.tolist() == [unc.group_bucket(t) for t in tags]
    assert unc.group_buckets(np.array([], dtype=str)).tolist() == []


def test_entropy_decomposition_from_network():
    net = _net(n_classes=3)
    x = nncore.make_rng(15).normal(0, 1, (6, 6))
    ds = SimpleNamespace(
        X=x, group=["normal", "normal", "fault:1", "fault:2", "incipient:1:1", "unknown"]
    )
    mean = unc.mc_moments(net, ds.X, 30, nncore.make_rng(16)).clf_mean
    dec = unc.decompose_entropies(unc.predictive_entropy(mean), ds.group)
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
