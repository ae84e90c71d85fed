"""Tests for MC-dropout inference and the entropy diagnostics."""

import math
import threading
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oodfdd import detect, experiments, model, nncore, uncertainty as unc
from oodfdd.model import ModelKind
from oodfdd.report import emit_csv
from plainloop import plain_decompose, plain_passes
from shapes import arch


def _net(kind=ModelKind.AUGMENTED, dropout=0.2, seed=0, n_classes=2, input_dim=6):
    return model.build(kind, arch(input_dim=input_dim, latent_dim=2, dropout_rate=dropout,
                                  n_classes=n_classes), seed)


def _row_width(net):
    """The float64 elements a row of a block of passes takes: the arena's
    columns and both halves of the draw buffer."""
    return unc._pass_plan(net)[1] + 2 * sum(net.encoder.draws(start=1)[0])


# ---------------------------------------------------------------------------
# sampling


def _fold(samples):
    """Mean and population variance of (T, ...) samples through the kernel
    that `mc_moments` runs on each pass."""
    mean, m2 = np.zeros((2, *samples.shape[1:]))
    scratch = np.empty((2, *samples.shape[1:]))
    for k, sample in enumerate(samples):
        unc._welford_step(k, sample, mean, m2, scratch)
    return mean, unc._population_variance(m2, len(samples))


def test_mc_samples_shapes_and_pathways():
    net = _net()
    out = unc.mc_samples(net, np.ones(6), 10, nncore.make_rng(0))
    assert out.clf.shape == (10, 1, 1)
    assert out.rec.shape == (10, 1, 6)
    out = unc.mc_samples(net, np.ones((3, 6)), 10, nncore.make_rng(0))
    assert out.clf.shape == (10, 3, 1) and out.rec.shape == (10, 3, 6)

    clf_only = _net(ModelKind.CLASSIFIER_ONLY)
    out = unc.mc_samples(clf_only, np.ones(6), 5, nncore.make_rng(0))
    assert out.rec is None
    ae_only = _net(ModelKind.AUTOENCODER_ONLY)
    out = unc.mc_samples(ae_only, np.ones(6), 5, nncore.make_rng(0))
    assert out.clf is None


def test_mc_calls_require_two_passes():
    net = _net()
    with pytest.raises(ValueError):
        unc.mc_samples(net, np.ones(6), 1, nncore.make_rng(0))
    with pytest.raises(ValueError):
        unc.mc_moments(net, np.ones((3, 6)), 1, nncore.make_rng(0))
    with pytest.raises(ValueError):
        unc.mc_moments(_net(ModelKind.AUTOENCODER_ONLY), np.ones((3, 6)), 0, nncore.make_rng(0))


def test_mc_calls_check_their_input_rows_by_name():
    net = _net()
    x = np.ones((3, 6))
    x[1, 4] = np.inf
    with pytest.raises(nncore.NonFiniteError, match="^non-finite values in MC input rows$"):
        unc.mc_moments(net, x, 4, nncore.make_rng(0))
    with pytest.raises(nncore.NonFiniteError, match="^non-finite values in MC input rows$"):
        unc.mc_samples(net, x, 4, nncore.make_rng(0))


def test_dropout_rate_zero_gives_zero_variance():
    net = _net(dropout=0.0)
    m = unc.mc_moments(net, np.ones(6), 8, nncore.make_rng(1))
    assert np.all(m.clf_var == 0.0)
    rec = unc.mc_samples(net, np.ones(6), 8, nncore.make_rng(1)).rec
    assert np.all(_fold(rec)[1] == 0.0)


def test_constant_network_gives_identical_samples():
    net = _net(dropout=0.5)
    net.params[...] = 0.0
    out = unc.mc_samples(net, np.ones(6), 16, nncore.make_rng(2))
    assert np.all(out.clf == 0.5)  # sigmoid(0)
    assert np.all(unc.mc_moments(net, np.ones(6), 16, nncore.make_rng(2)).clf_var == 0.0)
    assert np.all(_fold(out.rec)[1] == 0.0)


def test_mean_variance_match_numpy_formulas():
    rng = nncore.make_rng(3)
    samples = rng.random((50, 4))
    mean, variance = _fold(samples)
    assert np.allclose(mean, samples.mean(axis=0), atol=1e-12)
    assert np.allclose(variance, samples.var(axis=0), atol=1e-12)


def test_stats_bitwise_reproducible_from_stored_samples():
    net = _net(n_classes=7)
    samples = unc.mc_samples(net, np.ones(6), 25, nncore.make_rng(4)).clf
    m = unc.mc_moments(net, np.ones(6), 25, nncore.make_rng(4))
    # brute-force recomputation of the documented running update, in
    # sample-index order, must agree bitwise
    mean = np.zeros_like(samples[0])
    m2 = np.zeros_like(samples[0])
    for k in range(len(samples)):
        delta = samples[k] - mean
        mean = mean + delta / (k + 1)
        m2 = m2 + delta * (samples[k] - mean)
    assert np.array_equal(m.clf_mean, mean)
    assert np.array_equal(m.clf_var, np.maximum(m2, 0.0) / len(samples))


def test_multiclass_mean_stays_on_simplex():
    net = _net(n_classes=7)
    mean = unc.mc_moments(net, np.linspace(-1, 1, 6), 40, nncore.make_rng(5)).clf_mean[0]
    assert np.all(mean >= 0.0) and np.all(mean <= 1.0)
    assert abs(mean.sum() - 1.0) < 1e-9


def test_mc_sampling_seeded_reproducibility():
    net = _net()
    a = unc.mc_samples(net, np.ones(6), 12, nncore.make_rng(6))
    b = unc.mc_samples(net, np.ones(6), 12, nncore.make_rng(6))
    assert np.array_equal(a.clf, b.clf)
    assert np.array_equal(a.rec, b.rec)
    c = unc.mc_samples(net, np.ones(6), 12, nncore.make_rng(7))
    assert not np.array_equal(a.clf, c.clf)


def test_more_samples_converge_to_same_mean():
    net = _net()
    x = np.linspace(-0.5, 0.5, 6)
    small = unc.mc_moments(net, x, 100, nncore.make_rng(8))
    big = unc.mc_moments(net, x, 1000, nncore.make_rng(9))
    bound = 3.0 * (
        np.sqrt(small.clf_var) / math.sqrt(100)
        + np.sqrt(big.clf_var) / math.sqrt(1000)
    ) + 1e-6
    assert np.all(np.abs(small.clf_mean - big.clf_mean) <= bound)


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
    xhat = net.decoder.forward(net.encoder.forward(x))
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
        h = net.encoder.forward(x, rng)
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


def _plain_welford(samples):
    """Out-of-place running mean and population variance, in sample order."""
    mean = m2 = 0.0
    for k, sample in enumerate(samples):
        delta = sample - mean
        mean = mean + delta / (k + 1)
        m2 = m2 + delta * (sample - mean)
    return mean, np.maximum(m2, 0.0) / len(samples)


# keyed by head classes and decoder activation, or by the dataset whose
# layer shapes they take
_SHAPES = {
    "2-identity": dict(input_dim=6, latent_dim=2, n_classes=2),
    "7-sigmoid": dict(input_dim=6, latent_dim=2, n_classes=7, decoder_activation="sigmoid"),
    "chiller": dict(input_dim=7, latent_dim=4, encoder_widths=[16, 8, 4], head_widths=[8, 8],
                    n_classes=7),
    "mnist": dict(input_dim=196, latent_dim=8, encoder_widths=[68, 24, 8], head_widths=[8, 8],
                  n_classes=5, decoder_activation="sigmoid"),
}

# (rows, T, passes per block): None keeps the module's budget, which puts
# these batches in one block; 4 sets it to blocks of 4 passes (4, 4, 3 and
# 4, 4, 1: the last block of one runs the 2-D layers); 1 runs pass by pass.
# mc_samples must copy each block's outputs before the next overwrites them
_BLOCKINGS = {
    "one block": (9, 6, None),
    "blocks of 4 then 3": (9, 11, 4),
    "blocks of 4 then 1": (9, 9, 4),
    "pass by pass": (9, 6, 1),
    "one row": (1, 7, None),
    "one row in blocks of 3": (1, 7, 3),
}


@pytest.mark.parametrize("shape, dropout, blocking", [
    pytest.param(shape, dropout, blocking,
                 id=f"{shape}-{dropout}" + ("" if blocking == "one block" else f"-{blocking}"))
    for shape in _SHAPES for dropout in (0.0, 0.3) for blocking in _BLOCKINGS])
def test_mc_moments_and_samples_equal_the_plain_loop_bitwise(shape, dropout, blocking,
                                                             monkeypatch):
    net = model.build(ModelKind.AUGMENTED, arch(dropout_rate=dropout, **_SHAPES[shape]), 3)
    rows, t, per_block = _BLOCKINGS[blocking]
    if per_block is not None:
        monkeypatch.setattr(unc, "PASS_BLOCK_BUDGET",
                            per_block * rows * _row_width(net))
    x = nncore.make_rng(25).normal(0, 1, (rows, net.arch.input_dim))
    got = unc.mc_moments(net, x, t, nncore.make_rng(26))
    clf, rec = plain_passes(net, x, t, nncore.make_rng(26))
    rec_sum = 0.0
    for r in rec:
        rec_sum = rec_sum + r
    for a, b in zip(got, (*_plain_welford(clf), rec_sum / t)):
        assert a.tobytes() == b.tobytes()

    # every row's samples, and the moments of the same stream
    kept = unc.mc_samples(net, x, t, nncore.make_rng(27))
    for got, samples in zip(kept, plain_passes(net, x, t, nncore.make_rng(27))):
        assert got.tobytes() == np.stack(samples).tobytes()
    m = unc.mc_moments(net, x, t, nncore.make_rng(27))
    for a, b in zip((m.clf_mean, m.clf_var), _plain_welford(kept.clf)):
        assert a.tobytes() == b.tobytes()


def _thyroid_net(kind, seed=3):
    return model.build(kind, arch(input_dim=6, latent_dim=2, encoder_widths=[16, 8, 2],
                                  head_widths=[8]), seed)


class _CountedThreads:
    """The `threading` names `uncertainty` uses, counting the threads it starts."""

    def __init__(self):
        self.started = 0

    def Thread(self, *args, **kwargs):
        self.started += 1
        return threading.Thread(*args, **kwargs)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("rows", [1, 13, 64, 500, 3488])
@pytest.mark.parametrize("t", [2, 7, 100])
def test_draws_beside_the_passes_give_the_bytes_of_inline_draws(kind, rows, t, monkeypatch):
    net = _thyroid_net(kind)
    x = nncore.make_rng(33).normal(0, 1, (rows, 6))
    draws = net.encoder.draws(start=1)[0]
    block = min(t, max(1, unc.PASS_BLOCK_BUDGET // (rows * _row_width(net))))
    runs = {}
    for cpus in (1, 2):
        threads = _CountedThreads()
        monkeypatch.setattr(unc, "threading", threads)
        monkeypatch.setattr(unc, "usable_cpus", lambda: cpus)
        moments = unc.mc_moments(net, x, t, nncore.make_rng(34))
        samples = unc.mc_samples(net, x, t, nncore.make_rng(35))
        runs[cpus] = [a.tobytes() for a in (*moments, *samples) if a is not None]
        # the helper draws only where there is a next block to draw beside
        beside = cpus == 2 and block > 1 and block < t and bool(draws)
        assert threads.started == (2 if beside else 0)
    assert runs[1] == runs[2]


def test_stacked_mc_calls_leave_no_thread_behind(monkeypatch):
    monkeypatch.setattr(unc, "usable_cpus", lambda: 2)
    before = threading.active_count()
    net = _thyroid_net(ModelKind.AUGMENTED)
    x = nncore.make_rng(36).normal(0, 1, (300, 6))
    unc.mc_moments(net, x, 100, nncore.make_rng(37))
    unc.mc_samples(net, x, 30, nncore.make_rng(37))
    detect.calibrate(net, x, 0.1, 100, 0)
    assert threading.active_count() == before
    # a consumer that stops after one pass closes the passes, and they the helper
    passes = unc._passes(net, x, 100, nncore.make_rng(37))
    next(passes)
    passes.close()
    assert threading.active_count() == before


class _FailingDraws:
    """A generator stand-in whose draws after the first `good` raise."""

    def __init__(self, good):
        self.rng, self.good = nncore.make_rng(38), good

    def random(self, size=None, out=None):
        if self.good == 0:
            raise KeyError("no more draws")
        self.good -= 1
        return self.rng.random(size, out=out)


@pytest.mark.parametrize("good", [0, 1, 3])
def test_a_draw_that_raises_in_the_helper_reaches_the_caller(good, monkeypatch):
    monkeypatch.setattr(unc, "usable_cpus", lambda: 2)
    before = threading.active_count()
    net = _thyroid_net(ModelKind.AUGMENTED)
    x = nncore.make_rng(39).normal(0, 1, (300, 6))
    for call in (unc.mc_moments, unc.mc_samples):
        with pytest.raises(KeyError, match="no more draws"):
            call(net, x, 100, _FailingDraws(good))
        assert threading.active_count() == before


def test_the_helper_draws_under_the_callers_numeric_guard(monkeypatch):
    monkeypatch.setattr(unc, "usable_cpus", lambda: 2)
    seen = []

    class Watched:
        rng = nncore.make_rng(40)

        def random(self, size=None, out=None):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()["over"]))
            return self.rng.random(size, out=out)

    net = _thyroid_net(ModelKind.AUGMENTED)
    x = nncore.make_rng(41).normal(0, 1, (300, 6))
    unc.mc_moments(net, x, 100, Watched())
    assert len(seen) > 1 and set(seen) == {(False, "raise")}


def test_the_helper_draws_the_next_block_and_never_two_ahead(monkeypatch):
    # blocks of distinct sizes, so each draw's size names the block it serves
    monkeypatch.setattr(unc, "usable_cpus", lambda: 2)
    sizes, rows, widths, rates = [5, 4, 3, 2, 1], 3, [4, 2], [0.5, 0.25]
    events = []  # ("draw", block) as the helper starts a draw, ("ask", k) as the consumer asks

    class Watched:
        rng = nncore.make_rng(42)

        def random(self, size=None, out=None):
            events.append(("draw", sizes.index(out.size // (rows * sum(widths)))))
            return self.rng.random(size, out=out)

    expected = nncore.make_rng(42)
    blocks = unc._block_sources(Watched(), sizes, rows, widths, rates)
    for k, b in enumerate(sizes):
        events.append(("ask", k))
        passes, source = next(blocks)
        assert passes == b
        time.sleep(0.02)  # the block runs; its half of the buffer must stay as drawn
        inline = nncore.Uniforms(expected, b, rows, widths, stacked=True, rates=rates)
        for w in widths:
            assert source.random((b, rows, w)).tobytes() == inline.random((b, rows, w)).tobytes()
    blocks.close()
    draws = [block for event, block in events if event == "draw"]
    assert draws == list(range(len(sizes)))
    for k in range(len(sizes) - 2):
        assert events.index(("ask", k + 1)) < events.index(("draw", k + 2))


def _arena_lives(net, plan):
    """[span, first step, last step] of every array `plan` places, from one
    pass's dataflow: a layer reads its input at the step it writes its
    output, its activation's scratch lives the step after, alongside the
    output, the latent lives until its last reader, and each pathway's
    output until the pass is yielded.  Checks that each entry's layer is
    the stack's and each span's width too."""
    lives, latent, step = [], None, 0
    stacks = ((net.encoder, 1), (net.head, 0), (net.decoder, 0))
    for s, ((stack, start), spans) in enumerate(zip(stacks, plan)):
        assert (stack is None) == (spans is None)
        if stack is None:
            continue
        read, width = (None if s == 0 else latent), net.encoder.dense_layers()[0].out_dim
        for layer, (planned, out, work) in zip(stack.layers[start:], spans, strict=True):
            assert planned is layer
            dense = isinstance(layer, nncore.DenseLayer)
            width = layer.out_dim if dense else width
            if not dense and layer.rate == 0.0:  # passes its input on
                assert out is None and work is None
                continue
            step += 2
            if read is not None:  # None: the first layer's output, outside the arena
                lives[read][2] = max(lives[read][2], step)
            lives.append([out, step, step])
            read = len(lives) - 1
            assert out[1] == width
            cols = nncore.scratch_columns(layer.activation, width) if dense else 0
            assert (work is None) == (cols == 0)
            if work is not None:
                assert work[1] == cols
                lives.append([work, step + 1, step + 1])
                lives[read][2] = step + 1
        if s == 0:
            latent = read
        elif read is not None:
            lives[read][2] = math.inf
    return lives


@given(st.sampled_from(list(ModelKind)), st.integers(1, 40),
       st.lists(st.integers(1, 40), min_size=1, max_size=4),
       st.lists(st.integers(1, 12), max_size=2), st.integers(2, 7),
       st.sampled_from([0.0, 0.3]), st.sampled_from(["identity", "sigmoid"]))
@settings(max_examples=200, deadline=None)
def test_arena_spans_of_arrays_live_at_once_never_share_a_column(
        kind, input_dim, widths, head_widths, n_classes, dropout, decoder_activation):
    net = model.build(kind, arch(input_dim=input_dim, latent_dim=widths[-1], encoder_widths=widths,
                                 head_widths=head_widths, n_classes=n_classes,
                                 dropout_rate=dropout, decoder_activation=decoder_activation), 0)
    plan, columns = unc._pass_plan(net)
    lives = _arena_lives(net, plan)
    for i, ((first, cols), born, dies) in enumerate(lives):
        assert 0 <= first and first + cols <= columns
        for (other, other_cols), other_born, other_dies in lives[:i]:
            if born <= other_dies and other_born <= dies:
                assert first + cols <= other or other + other_cols <= first


# arena columns of (augmented, classifier, autoencoder, classifier at
# dropout 0) for each dataset's default nets
@pytest.mark.parametrize("dataset, input_dim, columns", [
    ("thyroid", 6, (27, 24, 24, 10)),
    ("chiller-surrogate", 16, (43, 24, 32, 16)),
    ("mnist", 196, (430, 92, 417, 32)),
])
def test_arena_widths_of_the_default_nets(dataset, input_dim, columns):
    # a stand-in training split: one row of each of the dataset's labels
    n_classes = {"thyroid": 2, "chiller-surrogate": 7, "mnist": 5}[dataset]
    train_ds = SimpleNamespace(X=np.zeros((n_classes, input_dim)), y=np.arange(n_classes))
    shape = experiments.config_for(dataset).architecture(train_ds)
    nets = [model.build(kind, shape, 0) for kind in ModelKind]
    nets.append(model.build(ModelKind.CLASSIFIER_ONLY, replace(shape, dropout_rate=0.0), 0))
    assert tuple(unc._pass_plan(net)[1] for net in nets) == columns


def test_mc_moments_keeps_nothing_for_backward():
    # chiller-shaped augmented net on its 10200 evaluation rows; with every
    # pass recording its activations and masks the traced peak was 20 MB,
    # and the layers still held 18 MB afterwards
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=7, latent_dim=4,
                                                encoder_widths=[16, 8, 4], head_widths=[8, 8],
                                                n_classes=7), 0)
    x = nncore.make_rng(28).normal(0, 1, (10200, 7))
    tracemalloc.start()
    try:
        unc.mc_moments(net, x, 3, nncore.make_rng(29))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    held = [(type(layer).__name__, name) for stack in (net.encoder, net.head, net.decoder)
            if stack is not None for layer in stack.layers
            for name, value in vars(layer).items()
            if isinstance(value, np.ndarray) and name not in ("weights", "bias", "grad_w", "grad_b")]
    assert held == []


def test_passes_after_the_first_block_allocate_nothing():
    # chiller-shaped augmented net on its 10200 evaluation rows, one pass per
    # block: the blocks after the first write into the first one's buffers
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=7, latent_dim=4,
                                                encoder_widths=[16, 8, 4], head_widths=[8, 8],
                                                n_classes=7), 0)
    x = nncore.make_rng(28).normal(0, 1, (10200, 7))
    narrowest = min(layer.out_dim for stack in (net.encoder, net.head, net.decoder)
                    if stack is not None for layer in stack.dense_layers())
    passes = unc._passes(net, x, 5, nncore.make_rng(29))
    tracemalloc.start()
    try:
        next(passes)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for _ in passes:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + 8 * len(x) * narrowest


@pytest.mark.parametrize("kind", list(ModelKind))
def test_mc_entry_points_reject_rows_of_the_wrong_width(kind):
    net = _net(kind, n_classes=3)
    cal = model.Calibration(0.1, 3, 0, None if net.head is None else np.zeros(3),
                            None if net.decoder is None else 0.0)
    for call in (lambda x: unc.mc_moments(net, x, 3, nncore.make_rng(0)),
                 lambda x: unc.mc_samples(net, x, 3, nncore.make_rng(0)),
                 lambda x: detect.score(net, x, cal)):
        with pytest.raises(ValueError, match="^input has 5 features, layer expects 6$"):
            call(np.zeros((4, 5)))


def test_first_encoder_layer_runs_once_per_mc_call():
    net = _net(n_classes=3, dropout=0.3)
    dense = net.encoder.dense_layers()
    calls = [0] * len(dense)

    # a stack runs its layers in one loop: count each dense layer a call runs
    def count(layers):
        for layer in layers:
            if layer in dense:
                calls[dense.index(layer)] += 1

    forward, run = net.encoder.forward, net.encoder.forward_into

    def counted_forward(x, *args, stop=None, **kwargs):
        count(net.encoder.layers[:stop])
        return forward(x, *args, stop=stop, **kwargs)

    def counted_run(x, source, buffers, start=0):
        count(net.encoder.layers[start:])
        return run(x, source, buffers, start)

    net.encoder.forward = counted_forward
    net.encoder.forward_into = counted_run
    x = nncore.make_rng(23).normal(0, 1, (5, 6))
    unc.mc_moments(net, x, 12, nncore.make_rng(24))
    assert calls == [1, 1, 1]
    unc.mc_samples(net, x, 7, nncore.make_rng(24))
    assert calls == [2, 2, 2]


# (input width, largest label) of each dataset's training split
_DATASET_SHAPES = {"thyroid": (6, 1), "chiller-surrogate": (16, 6), "mnist": (196, 4)}


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("dataset", sorted(_DATASET_SHAPES))
@pytest.mark.parametrize("passes", [2, 6, 40])
def test_blocks_are_as_large_as_the_arena_and_draws_fit_in_the_budget(kind, dataset, passes,
                                                                      monkeypatch):
    width, top_label = _DATASET_SHAPES[dataset]
    train = SimpleNamespace(X=np.zeros((1, width)), y=np.array([top_label]))
    net = model.build(kind, experiments.config_for(dataset).architecture(train), 0)
    row = _row_width(net)
    rows = unc.PASS_BLOCK_BUDGET // (passes * row)  # room for `passes` passes, or a few more
    sizes = []

    def recorded(rng, block_sizes, *args):
        sizes.append(block_sizes[0])
        return block_sources(rng, block_sizes, *args)

    block_sources = unc._block_sources
    monkeypatch.setattr(unc, "_block_sources", recorded)
    unc.mc_moments(net, nncore.make_rng(36).normal(0, 1, (rows, width)), 100,
                   nncore.make_rng(37))
    (b,) = sizes
    assert passes <= b < 100  # the T passes do not bound it
    assert b * rows * row <= unc.PASS_BLOCK_BUDGET < (b + 1) * rows * row


def test_mc_moments_peaks_within_the_block_budget_plus_one_pass():
    # a thyroid-shaped augmented net on one 500-row request at T = 100
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2,
                                                encoder_widths=[16, 8, 2], head_widths=[8],
                                                n_classes=2), 0)
    x = nncore.make_rng(30).normal(0, 1, (500, 6))
    tracemalloc.start()
    try:
        unc.mc_moments(net, x, 100, nncore.make_rng(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (unc.PASS_BLOCK_BUDGET + len(x) * _row_width(net))


def test_block_uniforms_are_the_sequential_draws_and_raise_out_of_step():
    # each layer's draws of every pass are handed out as its masks
    source = nncore.Uniforms(nncore.make_rng(32), 3, 4, [5, 2], stacked=True,
                             rates=[0.3, 0.75])
    first, second = source.random((3, 4, 5)), source.random((3, 4, 2))
    rng = nncore.make_rng(32)
    for k in range(3):
        assert first[k].tobytes() == ((rng.random((4, 5)) < 0.7) * (1.0 / 0.7)).tobytes()
        assert second[k].tobytes() == ((rng.random((4, 2)) < 0.25) * (1.0 / 0.25)).tobytes()
    with pytest.raises(RuntimeError, match="out of step"):
        source.random((3, 4, 2))  # every view is handed out
    source = nncore.Uniforms(nncore.make_rng(32), 3, 4, [5, 2], stacked=True,
                             rates=[0.3, 0.75])
    with pytest.raises(RuntimeError, match="out of step"):
        source.random((3, 4, 2))  # the first layer's draw is (3, 4, 5)


def test_mc_samples_is_the_moments_loop_with_samples_kept():
    net = _net(n_classes=3)
    x = np.stack([np.linspace(-1, 1, 6), np.linspace(1, -1, 6)])
    kept = unc.mc_samples(net, x, 17, nncore.make_rng(22))
    m = unc.mc_moments(net, x, 17, nncore.make_rng(22))
    mean, variance = _fold(kept.clf)
    assert np.array_equal(mean, m.clf_mean)
    assert np.array_equal(variance, m.clf_var)
    assert np.allclose(kept.rec.mean(axis=0), m.rec_mean, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 5))
def test_variance_bounded_for_unit_interval_samples(seed, t, c):
    samples = np.random.Generator(np.random.PCG64(seed)).random((t, c))
    variance = _fold(samples)[1]
    assert np.all(variance >= 0.0)
    assert np.all(variance <= 0.25 + 1e-12)


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


def test_each_tag_lands_in_its_bucket():
    for tag, bucket in (("normal", 0), ("fault:3", 1), ("incipient:2:1", 2), ("unknown", 2)):
        dec = unc.decompose_entropies([1.0], [tag])
        assert [dec.P0, dec.P1_in, dec.P1_ood] == [float(b == bucket) for b in range(3)]
    for bad in ("", "weird", "fault"):
        with pytest.raises(ValueError, match=f"unrecognized group tag '{bad}'$"):
            unc.decompose_entropies([1.0], [bad])


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
    parts = plain_decompose(entropies, tags)
    dec = unc.decompose_entropies(entropies, tags)
    assert (dec.P0, dec.P1_in, dec.P1_ood) == tuple(parts)
    assert dec.total == parts[0] + parts[1] + parts[2]
    dec = unc.decompose_entropies([], np.array([], dtype=str))
    assert (dec.P0, dec.P1_in, dec.P1_ood, dec.total) == (0.0, 0.0, 0.0, 0.0)


_TAGS = st.one_of(
    st.just("normal"),
    st.integers(0, 12).map("fault:{}".format),
    st.tuples(st.integers(0, 9), st.integers(1, 4)).map(lambda ks: "incipient:{}:{}".format(*ks)),
    st.just("unknown"),
    # near misses: a known tag or prefix with short text after it, or text alone
    st.tuples(st.sampled_from(["", "normal", "fault", "fault:", "incipient", "incipient:",
                               "unknown"]), st.text("acefiklmnoprtuw:1 ", max_size=4))
    .map("".join),
)


@given(st.lists(st.tuples(_TAGS, st.floats(0.0, 5.0)), max_size=40))
def test_decompose_entropies_equals_the_row_loop_on_any_tags(rows):
    tags = [tag for tag, _ in rows]
    entropies = [h for _, h in rows]
    try:
        want = plain_decompose(entropies, tags)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            unc.decompose_entropies(entropies, tags)
        assert str(got.value) == str(err)
        return
    dec = unc.decompose_entropies(entropies, tags)
    assert [v.hex() for v in (dec.P0, dec.P1_in, dec.P1_ood)] == [v.hex() for v in want]
    assert dec.total.hex() == (want[0] + want[1] + want[2]).hex()


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
    out = unc.mc_samples(net, np.ones(6), 200, nncore.make_rng(17))
    path = tmp_path / "hist.csv"
    emit_csv(*unc.histogram_table(out.clf[:, 0]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "output,bin_left,count"
    rows = [line.split(",") for line in lines[1:]]
    assert unc.HISTOGRAM_BINS == 20
    assert len(rows) == 3 * 20
    for j in range(3):
        counts = [int(r[2]) for r in rows if r[0] == str(j)]
        assert sum(counts) == 200
        lefts = [float(r[1]) for r in rows if r[0] == str(j)]
        assert lefts == sorted(lefts)
