"""Tests for the training loops and the masked joint objective."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import checked_binary_cross_entropy, checked_cross_entropy, gradient_check
from oodfdd import model, nncore, train
from oodfdd.model import ModelKind
from oodfdd.report import emit_csv


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


def _normal_rows(x):
    return SimpleNamespace(X=x, y=np.zeros(len(x), int))


# ---------------------------------------------------------------------------
# warm-up


def test_pretrain_epochs_zero_is_noop():
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, rng_seed=0)
    before = _snapshot(net)
    cfg = train.TrainConfig(epochs=0, pretrain_epochs=0)
    history = train.train(net, _normal_rows(np.ones((10, 6))), cfg)
    assert history == []
    for p, q in zip(before, _snapshot(net)):
        assert np.array_equal(p, q)


def test_pretrain_loss_decreases_on_linear_autoencoder():
    # the augmented net's encoder and decoder are a linear autoencoder here
    net = model.build(
        ModelKind.AUGMENTED,
        input_dim=2,
        latent_dim=1,
        hidden_widths=[1],
        dropout_rate=0.0,
        rng_seed=1,
    )
    cfg = train.TrainConfig(epochs=0, pretrain_epochs=30, batch_size=64, seed=1)
    history = train.train(net, _normal_rows(_line_points()), cfg)
    assert len(history) == 30
    recs = [row.rec_loss for row in history]
    for i in range(4):
        assert recs[i + 1] < recs[i]
    assert recs[-1] < 0.5 * recs[0]


@pytest.mark.parametrize("kind", ["classifier", "autoencoder"])
def test_warmup_runs_only_with_head_and_decoder(kind):
    ds = _blobs(20, seed=8)
    if kind == "autoencoder":
        ds = _normal_rows(ds.X[ds.y == 0])
    params = []
    for pretrain_epochs in (5, 0):
        net = model.build(ModelKind(kind), input_dim=4, latent_dim=2, rng_seed=8)
        cfg = train.TrainConfig(epochs=3, pretrain_epochs=pretrain_epochs, batch_size=16,
                                seed=8)
        assert len(train.train(net, ds, cfg)) == 3
        params.append(net.params.tobytes())
    assert params[0] == params[1]


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
    clf_ref, _ = checked_binary_cross_entropy(probs, y)
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


def _full_batch_masked_gradients(net, x, y, beta, seed):
    """The joint gradients with the decoder run on every row and the fault
    rows' reconstruction error zeroed, as a masked full-batch MSE."""
    net.zero_grad()
    h = net.encoder.forward(x, nncore.make_rng(seed), stochastic=True)
    clf_loss, dlogits = checked_cross_entropy(net.head.forward(h), y)
    xhat = net.decoder.forward(h)
    diff = (xhat - x) * (y == 0)[:, None]
    rec_loss = float((diff**2).sum() / x.size)
    grad_h = net.head.backward_from_logits(dlogits)
    grad_h = grad_h + net.decoder.backward(beta * 2.0 * diff / x.size)
    net.encoder.backward(grad_h)
    return clf_loss, rec_loss, net.grads.copy()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normals_only_decoder_matches_full_batch_mask_at_mnist_widths(seed):
    net = model.build(ModelKind.AUGMENTED, input_dim=196, latent_dim=8,
                      hidden_widths=[68, 24, 8], head_widths=[8, 8], n_classes=5,
                      decoder_activation="sigmoid", rng_seed=seed)
    rng = nncore.make_rng(100 + seed)
    x = rng.random((64, 196))
    y = rng.integers(0, 5, 64)
    assert 0 < np.count_nonzero(y == 0) < 64
    clf_ref, rec_ref, g_ref = _full_batch_masked_gradients(net, x, y, 0.7, seed)

    net.zero_grad()
    clf_loss, rec_loss = train.joint_batch_gradients(
        net, x, y, 0.7, nncore.make_rng(seed), stochastic=True)
    assert clf_loss == clf_ref
    assert rec_loss == pytest.approx(rec_ref, rel=1e-12)
    np.testing.assert_allclose(net.grads, g_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(g_ref).max())


def test_decoder_sees_only_normal_rows(monkeypatch):
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, n_classes=3,
                      rng_seed=11)
    rng = nncore.make_rng(12)
    x = rng.normal(0.0, 1.0, (9, 6))
    y = np.array([1, 0, 2, 2, 0, 1, 0, 2, 1])
    first = net.decoder.dense_layers()[0]
    seen = []
    real_forward = first.forward

    def spy(rows, **kwargs):
        seen.append(np.array(rows))
        return real_forward(rows, **kwargs)

    monkeypatch.setattr(first, "forward", spy)
    net.zero_grad()
    train.joint_batch_gradients(net, x, y, 1.0, stochastic=False)
    assert len(seen) == 1
    assert seen[0].tobytes() == net.encoder.forward(x)[y == 0].tobytes()

    calls = []
    for name in ("forward", "backward"):
        monkeypatch.setattr(net.decoder, name,
                            lambda *a, name=name, **k: calls.append(name))
    net.zero_grad()
    _, rec_loss = train.joint_batch_gradients(net, x, np.ones(9, int), 1.0,
                                              stochastic=False)
    assert calls == [] and rec_loss == 0.0


def test_beta_zero_logs_rec_loss_without_decoder_backward(monkeypatch):
    net = model.build(ModelKind.AUGMENTED, input_dim=6, latent_dim=2, rng_seed=13)
    rng = nncore.make_rng(14)
    x = rng.normal(0.0, 1.0, (8, 6))
    y = np.array([0, 1, 0, 1, 1, 0, 1, 1])

    def no_backward(*args, **kwargs):
        raise AssertionError("decoder backward ran at beta = 0")

    monkeypatch.setattr(net.decoder, "backward", no_backward)
    net.zero_grad()
    _, rec_loss = train.joint_batch_gradients(net, x, y, 0.0, stochastic=False)
    xhat, _ = net.forward_reconstruct(x[y == 0])
    assert rec_loss == pytest.approx(((xhat - x[y == 0]) ** 2).sum() / x.size, rel=1e-12)
    assert rec_loss > 0.0
    assert not net.grads[net.spans("decoder")[0]].any()


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

    assert gradient_check([net.params], loss_fn) < 1e-4


@pytest.mark.parametrize("kind", ["classifier", "autoencoder"])
def test_absent_pathway_adds_no_loss_term(kind):
    ds = _blobs(20, seed=9)
    if kind == "autoencoder":
        ds = _normal_rows(ds.X[ds.y == 0])
    net = model.build(ModelKind(kind), input_dim=4, latent_dim=2, rng_seed=9)
    # beta weights nothing here: without a head, rec is weighted by 1
    cfg = train.TrainConfig(beta=0.5, epochs=3, pretrain_epochs=0, batch_size=16, seed=9)
    history = train.train(net, ds, cfg)
    assert len(history) == 3
    for row in history:
        present, absent = ((row.clf_loss, row.rec_loss) if kind == "classifier"
                           else (row.rec_loss, row.clf_loss))
        assert absent == 0.0 and present > 0.0
        assert row.total_loss == present


def test_joint_rejects_out_of_range_labels():
    net = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2)
    ds = SimpleNamespace(X=np.zeros((4, 4)), y=np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        train.train(net, ds, train.TrainConfig(epochs=1, pretrain_epochs=0))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_train_checks_its_rows_once_by_name(kind):
    net = model.build(kind, input_dim=4, latent_dim=2)
    x = np.zeros((4, 4))
    x[2, 1] = np.nan
    ds = SimpleNamespace(X=x, y=np.zeros(4, dtype=int))
    with pytest.raises(nncore.NonFiniteError, match="^non-finite values in training features$"):
        train.train(net, ds, train.TrainConfig(epochs=1, pretrain_epochs=0))


def test_joint_history_shape_and_totals():
    net = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=11)
    ds = _blobs(30)
    cfg = train.TrainConfig(beta=0.5, epochs=3, pretrain_epochs=2, batch_size=16, seed=11)
    history = train.train(net, ds, cfg)
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
    hist_aug = train.train(aug, ds, cfg)
    hist_clf = train.train(clf, ds, cfg)
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
        train.train(net, ds, train.TrainConfig(epochs=2, pretrain_epochs=1, seed=21))
        weights.append(_snapshot(net))
    for p, q in zip(*weights):
        assert np.array_equal(p, q)

    other = model.build(ModelKind.AUGMENTED, input_dim=4, latent_dim=2, rng_seed=21)
    train.train(other, ds, train.TrainConfig(epochs=2, pretrain_epochs=1, seed=22))
    assert any(
        not np.array_equal(p, q) for p, q in zip(weights[0], _snapshot(other))
    )


def test_warmup_leaves_head_bitwise_unchanged():
    net = model.build(ModelKind.AUGMENTED, input_dim=2, latent_dim=1, hidden_widths=[1],
                      rng_seed=3)
    before = net.params.copy()
    head = net.offsets["head"]
    cfg = train.TrainConfig(epochs=0, pretrain_epochs=3, batch_size=32, lr=1e-2, seed=3)
    train.train(net, _normal_rows(_line_points()), cfg)
    assert net.params[head].tobytes() == before[head].tobytes()
    for role in ("encoder", "decoder"):
        span = net.offsets[role]
        assert not np.array_equal(net.params[span], before[span])
    # an infinite step size blows up the encoder at once; the head, whose
    # zero gradients would turn it into inf * 0, is never stepped at all
    before = net.params.copy()
    cfg = train.TrainConfig(epochs=0, pretrain_epochs=1, batch_size=32, lr=np.inf, seed=3)
    with pytest.raises(nncore.NonFiniteError):
        train.train(net, _normal_rows(_line_points()), cfg)
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


def _reference_train(net, ds, cfg):
    """The trainer for any kind, stepping each parameter array on its own.

    With cfg.early_stop the stream-3 validation split is held out first.  A
    net with a head and a decoder warms up encoder+decoder on the normal
    rows; then every array trains on its pathways' terms: clf, plus beta *
    rec on each batch's normal rows with a decoder, or rec alone, weighted
    by 1, without a head.  With early stopping that phase ends after
    EARLY_STOP_PATIENCE stale epochs and restores the best arrays.  Every
    phase runs its own forward and full-stack backward passes (encoder
    input gradient included), independent of train.joint_batch_gradients.
    Returns the number of epochs of the last phase.
    """
    x, y = ds.X, ds.y
    if cfg.early_stop:
        perm = nncore.derive_rng(cfg.seed, 3).permutation(len(x))
        n_val = max(1, int(round(len(x) * train.VAL_FRACTION)))
        (xv, yv), (x, y) = ((x[perm[:n_val]], y[perm[:n_val]]),
                            (x[perm[n_val:]], y[perm[n_val:]]))
    clf_loss = (checked_binary_cross_entropy if net.n_outputs == 1
                else checked_cross_entropy)

    def val_loss():
        h = net.encoder.forward(xv)
        if net.head is None:
            return nncore.mse(net.decoder.forward(h), xv)[0]
        loss = clf_loss(net.head.forward(h), yv)[0]
        normal = yv == 0
        if net.decoder is not None and normal.any():
            xhat = net.decoder.forward(h[normal])
            loss += cfg.beta * nncore.mse(xhat, xv[normal], n_rows=len(xv))[0]
        return loss

    stacks = [s for s in (net.encoder, net.head, net.decoder) if s is not None]
    phases = [(2, cfg.epochs, [a for s in stacks for a in s.params()], x, y)]
    if net.head is not None and net.decoder is not None:
        phases.insert(0, (1, cfg.pretrain_epochs, net.encoder.params() + net.decoder.params(),
                          x[y == 0], y[y == 0]))
    for stream, epochs, arrays, rows, labels in phases:
        rng = nncore.derive_rng(cfg.seed, stream)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p, _ in arrays]
        t, ran, best, stale, saved = 0, 0, np.inf, 0, None
        while ran < epochs:
            ran += 1
            perm = rng.permutation(len(rows))
            for start in range(0, len(rows), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                xb, yb = rows[idx], labels[idx]
                for stack in net.stacks():
                    stack.zero_grad()
                if stream == 1 or net.head is None:
                    xhat, _ = net.forward_reconstruct(xb, rng, stochastic=True)
                    _, dxhat = nncore.mse(xhat, xb)
                    grad_h = net.decoder.backward(dxhat)
                else:
                    h = net.encoder.forward(xb, rng, stochastic=True)
                    _, dlogits = clf_loss(net.head.forward(h), yb)
                    grad_h = net.head.backward_from_logits(dlogits)
                    normal = yb == 0
                    if net.decoder is not None and normal.any():
                        xhat = net.decoder.forward(h[normal])
                        _, dxhat = nncore.mse(xhat, xb[normal], n_rows=len(idx))
                        grad_h[normal] += net.decoder.backward(cfg.beta * dxhat)
                assert net.encoder.backward(grad_h).shape == xb.shape
                t += 1
                _reference_adam(arrays, moments, t, cfg.lr)
            if stream == 2 and cfg.early_stop:
                loss = val_loss()
                if loss < best - train.EARLY_STOP_MIN_DELTA:
                    best, stale, saved = loss, 0, [p.copy() for p, _ in arrays]
                else:
                    stale += 1
                    if stale >= train.EARLY_STOP_PATIENCE:
                        break
        if saved is not None:
            for (p, _), best_p in zip(arrays, saved):
                p[...] = best_p
    return ran


def _assert_train_matches_reference(kind):
    ds = _blobs(30, dim=5, seed=40)
    cfg = train.TrainConfig(beta=0.5, epochs=2, pretrain_epochs=2, batch_size=16,
                            lr=1e-2, seed=41)
    if kind != "augmented":
        # run to convergence, as the benchmarks do; the warm-up must not run,
        # and beta must weight nothing
        cfg = replace(cfg, epochs=300, early_stop=True)
    if kind == "autoencoder":
        ds = _normal_rows(ds.X[ds.y == 0])

    def fresh():
        return model.build(ModelKind(kind), input_dim=5, latent_dim=2, n_classes=2,
                           rng_seed=42, decoder_activation="sigmoid")

    nets = [fresh() for _ in range(2)]
    history = train.train(nets[0], ds, cfg)
    epochs = _reference_train(nets[1], ds, cfg)
    assert not np.array_equal(nets[0].params, fresh().params)
    assert nets[0].params.tobytes() == nets[1].params.tobytes()
    if cfg.early_stop:
        # the stale-epoch stop ran, so the best params were restored
        assert len(history) == epochs < cfg.epochs


def test_train_joint_matches_per_array_adam_bitwise():
    _assert_train_matches_reference("augmented")


@pytest.mark.parametrize("kind", ["classifier", "autoencoder"])
def test_benchmark_training_matches_per_array_adam_bitwise(kind):
    _assert_train_matches_reference(kind)


# ---------------------------------------------------------------------------
# benchmark loops


def test_classifier_learns_separable_blobs():
    net = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2, rng_seed=30)
    ds = _blobs(100, seed=31)
    cfg = train.TrainConfig(epochs=50, pretrain_epochs=0, batch_size=32, seed=30)
    train.train(net, ds, cfg)
    probs = net.forward_classify(ds.X)
    pred = (probs[:, 0] > 0.5).astype(int)
    assert np.mean(pred == ds.y) >= 0.99


def test_classifier_early_stop_halts_before_cap():
    net = model.build(ModelKind.CLASSIFIER_ONLY, input_dim=4, latent_dim=2, rng_seed=32)
    ds = _blobs(100, seed=33)
    cfg = train.TrainConfig(
        epochs=300, pretrain_epochs=0, batch_size=32, lr=1e-2, seed=32, early_stop=True
    )
    history = train.train(net, ds, cfg)
    assert len(history) < 300
    probs = net.forward_classify(ds.X)
    assert np.mean((probs[:, 0] > 0.5).astype(int) == ds.y) >= 0.97


def test_autoencoder_rejects_fault_labels():
    net = model.build(ModelKind.AUTOENCODER_ONLY, input_dim=4, latent_dim=2)
    ds = SimpleNamespace(X=np.zeros((4, 4)), y=np.array([0, 0, 1, 0]))
    with pytest.raises(ValueError):
        train.train(net, ds, train.TrainConfig(epochs=1))


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
    history = train.train(net, ds, cfg)
    assert len(history) < 400
    assert history[-1].rec_loss < 0.05


def test_write_history_csv(tmp_path):
    history = [train.EpochLog(0, 0.5, 0.25, 0.75), train.EpochLog(1, 0.4, 0.2, 0.6)]
    path = tmp_path / "history.csv"
    emit_csv(train.EpochLog._fields, history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,clf_loss,rec_loss,total_loss"
    assert lines[1] == "0,0.500000,0.250000,0.750000"
    assert len(lines) == 3
