"""Tests for the training loops and the masked joint objective."""

from types import SimpleNamespace

import numpy as np
import pytest

from oodfdd import model, nncore, train
from oodfdd.model import ModelKind


def _blobs(n_per_class=100, dim=4, sep=3.0, seed=3):
    rng = nncore.make_rng(seed)
    x0 = rng.normal(-sep, 1.0, (n_per_class, dim))
    x1 = rng.normal(sep, 1.0, (n_per_class, dim))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    perm = rng.permutation(len(x))
    return SimpleNamespace(X=x[perm], y=y[perm])


def _line_points(n=256, seed=5):
    rng = nncore.make_rng(seed)
    t = rng.normal(0.0, 1.0, n)
    return np.column_stack([t, 2.0 * t])


def _snapshot(net):
    return [net.params.copy()]


# ---------------------------------------------------------------------------
# warm-up


def test_pretrain_epochs_zero_is_noop():
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, rng_seed=0)
    before = _snapshot(net)
    cfg = train.TrainConfig(pretrain_epochs=0)
    history = train.pretrain_reconstruction(net, np.ones((10, 6)), cfg)
    assert history == []
    for p, q in zip(before, _snapshot(net)):
        assert np.array_equal(p, q)


def test_pretrain_loss_decreases_on_linear_autoencoder():
    net = model.build(
        ModelKind.AUTOENCODER_ONLY,
        input_dim=2,
        latent_dim=1,
        hidden_widths=[1],
        dropout_rate=0.0,
        rng_seed=1,
    )
    cfg = train.TrainConfig(pretrain_epochs=30, batch_size=64, seed=1)
    history = train.pretrain_reconstruction(net, _line_points(), cfg)
    assert len(history) == 30
    recs = [row.rec_loss for row in history]
    for i in range(4):
        assert recs[i + 1] < recs[i]
    assert recs[-1] < 0.5 * recs[0]


def test_pretrain_requires_decoder():
    net = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2)
    with pytest.raises(ValueError):
        train.pretrain_reconstruction(net, np.ones((5, 4)), train.TrainConfig())


# ---------------------------------------------------------------------------
# joint objective


def test_joint_loss_additivity():
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, rng_seed=2)
    rng = nncore.make_rng(9)
    x = rng.normal(0.0, 1.0, (16, 6))
    y = rng.integers(0, 2, 16)
    beta = 0.7
    net.zero_grad()
    clf_loss, rec_loss = train.joint_batch_gradients(net, x, y, beta, stochastic=False)

    probs = net.forward_classify(x)
    clf_ref, _ = nncore.binary_cross_entropy(probs, y)
    xhat, _ = net.forward_reconstruct(x)
    keep = y == 0
    rec_ref = np.sum((xhat[keep] - x[keep]) ** 2) / (len(x) * x.shape[1])

    assert abs(clf_loss - clf_ref) < 1e-12
    assert abs(rec_loss - rec_ref) < 1e-12
    total = clf_loss + beta * rec_loss
    assert abs(total - (clf_ref + beta * rec_ref)) < 1e-12


def test_fault_only_batch_gives_zero_decoder_gradients():
    net = model.build(ModelKind.AUGMENTED, input_dim=5, latent_dim=2, rng_seed=3)
    rng = nncore.make_rng(4)
    x = rng.normal(0.0, 1.0, (6, 5))
    y = np.ones(6, int)
    net.zero_grad()
    _, rec_loss = train.joint_batch_gradients(net, x, y, 1.0, stochastic=False)
    assert rec_loss == 0.0
    for _, g in net.decoder.params():
        assert np.all(g == 0.0)


def test_mixed_batch_decoder_grads_match_scaled_normals_only():
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, rng_seed=5)
    rng = nncore.make_rng(6)
    x = rng.normal(0.0, 1.0, (8, 6))
    y = np.array([0, 1, 0, 0, 1, 0, 1, 0])
    normals = x[y == 0]

    net.zero_grad()
    train.joint_batch_gradients(net, x, y, 1.0, stochastic=False)
    full_grads = [g.copy() for _, g in net.decoder.params()]

    net.zero_grad()
    train.joint_batch_gradients(
        net, normals, np.zeros(len(normals), int), 1.0, stochastic=False
    )
    scale = len(normals) / len(x)
    for g_full, (_, g_norm) in zip(full_grads, net.decoder.params()):
        assert np.max(np.abs(g_full - g_norm * scale)) < 1e-12


def test_joint_gradients_pass_finite_difference_check():
    net = model.build(
        ModelKind.AUGMENTED,
        input_dim=5,
        latent_dim=2,
        hidden_widths=[3, 2],
        head_widths=[4],
        n_classes=3,
        rng_seed=7,
    )
    # swap the piecewise-linear activations for smooth ones so central
    # differences are trustworthy at eps=1e-5
    for stack in net.stacks():
        for layer in stack.dense_layers():
            if layer.activation == "relu":
                layer.activation = "sigmoid"
    rng = nncore.make_rng(8)
    x = rng.normal(0.0, 1.0, (7, 5))
    y = rng.integers(0, 3, 7)
    beta = 0.7

    def loss_fn():
        net.zero_grad()
        clf_loss, rec_loss = train.joint_batch_gradients(net, x, y, beta, stochastic=False)
        return clf_loss + beta * rec_loss, [net.grads.copy()]

    assert nncore.gradient_check([net.params], loss_fn) < 1e-4


def test_joint_requires_augmented_network():
    ds = _blobs(20)
    for kind in (ModelKind.CLASSIFIER_ONLY, ModelKind.AUTOENCODER_ONLY):
        net = model.build(kind, input_dim=4, latent_dim=2)
        with pytest.raises(ValueError):
            train.train_joint(net, ds, train.TrainConfig(epochs=1, pretrain_epochs=0))


def test_joint_rejects_out_of_range_labels():
    net = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2)
    ds = SimpleNamespace(X=np.zeros((4, 4)), y=np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        train.train_joint(net, ds, train.TrainConfig(epochs=1, pretrain_epochs=0))


def test_joint_history_shape_and_totals():
    net = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=11)
    ds = _blobs(30)
    cfg = train.TrainConfig(beta=0.5, epochs=3, pretrain_epochs=2, batch_size=16, seed=11)
    history = train.train_joint(net, ds, cfg)
    assert len(history) == 5
    for row in history[:2]:
        assert row.clf_loss == 0.0
    for row in history[2:]:
        assert row.total_loss == pytest.approx(row.clf_loss + 0.5 * row.rec_loss, abs=1e-12)


def test_beta_zero_matches_classifier_trajectory():
    aug = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=13)
    clf = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2, rng_seed=13)
    ds = _blobs(50, seed=14)
    cfg = train.TrainConfig(beta=0.0, epochs=3, pretrain_epochs=0, batch_size=16, seed=7)
    hist_aug = train.train_joint(aug, ds, cfg)
    hist_clf = train.train_classifier(clf, ds, cfg)
    aug_params = aug.encoder.params() + aug.head.params()
    clf_params = clf.encoder.params() + clf.head.params()
    for (pa, _), (pc, _) in zip(aug_params, clf_params):
        assert np.array_equal(pa, pc)
    assert [r.clf_loss for r in hist_aug] == [r.clf_loss for r in hist_clf]


def test_train_joint_seeded_determinism():
    ds = _blobs(40, seed=20)
    weights = []
    for _ in range(2):
        net = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=21)
        train.train_joint(net, ds, train.TrainConfig(epochs=2, pretrain_epochs=1, seed=21))
        weights.append(_snapshot(net))
    for p, q in zip(*weights):
        assert np.array_equal(p, q)

    other = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=21)
    train.train_joint(other, ds, train.TrainConfig(epochs=2, pretrain_epochs=1, seed=22))
    assert any(
        not np.array_equal(p, q) for p, q in zip(weights[0], _snapshot(other))
    )


def test_warmup_leaves_head_bitwise_unchanged():
    net = model.build(ModelKind.AUGMENTED, input_dim=2, latent_dim=1, hidden_widths=[1],
                      rng_seed=3)
    before = net.params.copy()
    head = net.offsets["head"]
    cfg = train.TrainConfig(pretrain_epochs=3, batch_size=32, lr=1e-2, seed=3)
    train.pretrain_reconstruction(net, _line_points(), cfg)
    assert net.params[head].tobytes() == before[head].tobytes()
    for role in ("encoder", "decoder"):
        span = net.offsets[role]
        assert not np.array_equal(net.params[span], before[span])
    # an infinite step size blows up the encoder at once; the head, whose
    # zero gradients would turn it into inf * 0, is never stepped at all
    before = net.params.copy()
    cfg = train.TrainConfig(pretrain_epochs=1, batch_size=32, lr=np.inf, seed=3)
    with pytest.raises(nncore.NonFiniteError):
        train.pretrain_reconstruction(net, _line_points(), cfg)
    assert net.params[head].tobytes() == before[head].tobytes()


def _reference_adam(arrays, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with one moment pair per weight matrix and bias vector."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for (p, g), (m, v) in zip(arrays, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _reference_train_joint(net, ds, cfg):
    """Warm-up over encoder+decoder, then the joint phase over every array,
    stepping each parameter array on its own.  Both phases run their own
    forward and full-stack backward passes (encoder input gradient
    included), independent of train.joint_batch_gradients."""
    x, y = ds.X, ds.y
    normals = x[y == 0]
    warm = net.encoder.params() + net.decoder.params()
    every = net.encoder.params() + net.head.params() + net.decoder.params()
    for stream, epochs, arrays, rows in ((1, cfg.pretrain_epochs, warm, normals),
                                         (2, cfg.epochs, every, x)):
        rng = nncore.derive_rng(cfg.seed, stream)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p, _ in arrays]
        t = 0
        for _ in range(epochs):
            perm = rng.permutation(len(rows))
            for start in range(0, len(rows), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                for stack in net.stacks():
                    stack.zero_grad()
                if stream == 1:
                    xhat, _ = net.forward_reconstruct(rows[idx], rng, stochastic=True)
                    _, dxhat = nncore.mse(xhat, rows[idx])
                    net.encoder.backward(net.decoder.backward(dxhat))
                else:
                    h = net.encoder.forward(x[idx], rng, stochastic=True)
                    _, dlogits = nncore.binary_cross_entropy(net.head.forward(h), y[idx])
                    _, dxhat = nncore.masked_mse(net.decoder.forward(h), x[idx], y[idx] == 0)
                    grad_h = net.head.backward_from_logits(dlogits)
                    grad_h = grad_h + net.decoder.backward(cfg.beta * dxhat)
                    assert net.encoder.backward(grad_h).shape == x[idx].shape
                t += 1
                _reference_adam(arrays, moments, t, cfg.lr)


def test_train_joint_matches_per_array_adam_bitwise():
    ds = _blobs(30, dim=5, seed=40)
    cfg = train.TrainConfig(beta=0.5, epochs=2, pretrain_epochs=2, batch_size=16,
                            lr=1e-2, seed=41)
    nets = [model.build(ModelKind.AUGMENTED, input_dim=5, latent_dim=2, n_classes=2,
                        rng_seed=42, decoder_activation="sigmoid") for _ in range(2)]
    train.train_joint(nets[0], ds, cfg)
    _reference_train_joint(nets[1], ds, cfg)
    assert not np.array_equal(nets[0].params, model.build(
        ModelKind.AUGMENTED, input_dim=5, latent_dim=2, n_classes=2, rng_seed=42,
        decoder_activation="sigmoid").params)
    assert nets[0].params.tobytes() == nets[1].params.tobytes()


# ---------------------------------------------------------------------------
# benchmark loops


def test_classifier_learns_separable_blobs():
    net = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2, rng_seed=30)
    ds = _blobs(100, seed=31)
    cfg = train.TrainConfig(epochs=50, pretrain_epochs=0, batch_size=32, seed=30)
    train.train_classifier(net, ds, cfg)
    probs = net.forward_classify(ds.X)
    pred = (probs[:, 0] > 0.5).astype(int)
    assert np.mean(pred == ds.y) >= 0.99


def test_classifier_early_stop_halts_before_cap():
    net = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2, rng_seed=32)
    ds = _blobs(100, seed=33)
    cfg = train.TrainConfig(
        epochs=300, pretrain_epochs=0, batch_size=32, lr=1e-2, seed=32, early_stop=True
    )
    history = train.train_classifier(net, ds, cfg)
    assert len(history) < 300
    probs = net.forward_classify(ds.X)
    assert np.mean((probs[:, 0] > 0.5).astype(int) == ds.y) >= 0.97


def test_autoencoder_rejects_fault_labels():
    net = model.build(ModelKind.AUTOENCODER_ONLY, input_dim=4, latent_dim=2)
    ds = SimpleNamespace(X=np.zeros((4, 4)), y=np.array([0, 0, 1, 0]))
    with pytest.raises(ValueError):
        train.train_autoencoder(net, ds, train.TrainConfig(epochs=1))


def test_autoencoder_early_stop_on_line_data():
    net = model.build(
        ModelKind.AUTOENCODER_ONLY,
        input_dim=2,
        latent_dim=1,
        hidden_widths=[1],
        dropout_rate=0.0,
        rng_seed=34,
    )
    x = _line_points(200, seed=35)
    ds = SimpleNamespace(X=x, y=np.zeros(len(x), int))
    cfg = train.TrainConfig(
        epochs=400, pretrain_epochs=0, batch_size=32, lr=1e-2, seed=34, early_stop=True
    )
    history = train.train_autoencoder(net, ds, cfg)
    assert len(history) < 400
    assert history[-1].rec_loss < 0.05


def test_write_history_csv(tmp_path):
    history = [train.EpochLog(0, 0.5, 0.25, 0.75), train.EpochLog(1, 0.4, 0.2, 0.6)]
    path = tmp_path / "history.csv"
    train.write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,clf_loss,rec_loss,total_loss"
    assert lines[1] == "0,0.500000,0.250000,0.750000"
    assert len(lines) == 3
