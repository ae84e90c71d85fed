import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oodfdd import model
from oodfdd.nncore import DenseLayer, DropoutLayer, make_rng


def thyroid_net(kind=model.ModelKind.AUGMENTED, seed=0):
    return model.build(
        kind, input_dim=6, latent_dim=2, n_classes=2, rng_seed=seed, head_widths=[8]
    )


def calibration(net, seed=0, **changes):
    """A calibration record with arbitrary, full-precision thresholds."""
    rng = make_rng(seed + 100)
    cal = model.Calibration(
        alpha=0.1, t_samples=4, seed=seed,
        clf_thresholds=None if net.head is None else rng.normal(size=net.n_classes),
        rec_threshold=None if net.decoder is None else float(rng.exponential()),
    )
    return replace(cal, **changes)


def _save(net, path):
    model.save(net, path, calibration(net))


def test_taper_widths_thyroid():
    assert model.taper_widths(6, 2, 3) == [5, 3, 2]


def test_taper_widths_chiller():
    assert model.taper_widths(16, 4, 3) == [11, 7, 4]


def test_thyroid_structure_three_layer_pathways():
    net = thyroid_net()
    assert len(net.encoder.dense_layers()) == 3
    assert len(net.decoder.dense_layers()) == 3
    assert len(net.head.dense_layers()) == 2
    assert net.encoder_widths == [5, 3, 2]
    assert net.decoder.dense_layers()[-1].out_dim == 6
    assert net.head.dense_layers()[-1].activation == "sigmoid"
    assert net.n_outputs == 1


def test_chiller_structure_three_layer_pathways():
    net = model.build(
        model.ModelKind.AUGMENTED,
        input_dim=16,
        latent_dim=4,
        n_classes=7,
        head_widths=[8, 8],
    )
    assert len(net.encoder.dense_layers()) == 3
    assert len(net.decoder.dense_layers()) == 3
    assert len(net.head.dense_layers()) == 3
    assert net.head.dense_layers()[-1].activation == "softmax"
    assert net.n_outputs == 7


def test_classifier_only_has_no_decoder():
    net = thyroid_net(model.ModelKind.CLASSIFIER_ONLY)
    assert net.decoder is None
    with pytest.raises(ValueError):
        net.forward_reconstruct(np.zeros((1, 6)))


def test_autoencoder_only_has_no_head():
    net = thyroid_net(model.ModelKind.AUTOENCODER_ONLY)
    assert net.head is None
    with pytest.raises(ValueError):
        net.forward_classify(np.zeros((1, 6)))


def test_dropout_only_inside_encoder():
    net = model.build(
        model.ModelKind.AUGMENTED, input_dim=16, latent_dim=4, n_classes=7
    )
    assert any(isinstance(l, DropoutLayer) for l in net.encoder.layers)
    for stack in (net.decoder, net.head):
        assert all(isinstance(l, DenseLayer) for l in stack.layers)


def test_encoder_identical_across_kinds():
    nets = [thyroid_net(kind, seed=7) for kind in model.ModelKind]
    sigs = [n.encoder_signature() for n in nets]
    assert sigs[0] == sigs[1] == sigs[2]
    # same seed: encoder weights are bitwise equal, not just same shape
    for other in nets[1:]:
        for a, b in zip(nets[0].encoder.dense_layers(), other.encoder.dense_layers()):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


def test_head_identical_between_augmented_and_classifier():
    aug = thyroid_net(model.ModelKind.AUGMENTED, seed=3)
    clf = thyroid_net(model.ModelKind.CLASSIFIER_ONLY, seed=3)
    for a, b in zip(aug.head.dense_layers(), clf.head.dense_layers()):
        assert a.weights.tobytes() == b.weights.tobytes()


def test_forward_classify_deterministic_repeatable():
    net = thyroid_net()
    x = make_rng(1).normal(size=(4, 6))
    a = net.forward_classify(x)
    b = net.forward_classify(x)
    assert a.tobytes() == b.tobytes()


def test_forward_classify_stochastic_varies():
    net = thyroid_net()
    x = make_rng(1).normal(size=(4, 6))
    rng = make_rng(2)
    a = net.forward_classify(x, rng, stochastic=True)
    b = net.forward_classify(x, rng, stochastic=True)
    assert not np.array_equal(a, b)


def test_untrained_multiclass_probs_near_uniform():
    net = model.build(
        model.ModelKind.CLASSIFIER_ONLY, input_dim=16, latent_dim=4, n_classes=7
    )
    x = make_rng(5).normal(size=(32, 16))
    probs = net.forward_classify(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(probs - 1.0 / 7)) < 0.2


def test_forward_reconstruct_shapes_and_repeatability():
    net = thyroid_net()
    x = make_rng(1).normal(size=(5, 6))
    xhat, z = net.forward_reconstruct(x)
    assert xhat.shape == (5, 6)
    assert z.shape == (5, 2)
    xhat2, z2 = net.forward_reconstruct(x)
    assert xhat.tobytes() == xhat2.tobytes()
    rng = make_rng(3)
    a, _ = net.forward_reconstruct(x, rng, stochastic=True)
    b, _ = net.forward_reconstruct(x, rng, stochastic=True)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# archive round-trip


def test_archive_round_trip_bitwise(tmp_path):
    net = thyroid_net(seed=11)
    x = make_rng(4).normal(size=(7, 6))
    before_clf = net.forward_classify(x)
    before_rec, _ = net.forward_reconstruct(x)

    path = tmp_path / "net.ofdd"
    _save(net, path)
    loaded, _ = model.load(path)

    assert loaded.kind == net.kind
    assert loaded.encoder_widths == net.encoder_widths
    np.testing.assert_array_equal(loaded.forward_classify(x), before_clf)
    np.testing.assert_array_equal(loaded.forward_reconstruct(x)[0], before_rec)


def test_archive_magic_mismatch(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(model.MagicMismatchError):
        model.load(path)


def test_archive_version_mismatch(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(model.VersionMismatchError):
        model.load(path)


def test_archive_truncated_payload(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(model.TruncatedPayloadError):
        model.load(path)


def test_archive_trailing_garbage(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(model.ArchiveError):
        model.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_archive_non_finite_parameter(tmp_path, bad):
    net = thyroid_net()
    net.params[3] = bad
    path = tmp_path / "net.ofdd"
    _save(net, path)
    with pytest.raises(model.ArchiveError, match="parameter index 3"):
        model.load(path)


def _rewrite_descriptor(path, edit):
    blob = path.read_bytes()
    desc_len = int.from_bytes(blob[6:10], "little")
    desc = edit(json.loads(blob[10 : 10 + desc_len]))
    raw = json.dumps(desc).encode("utf-8")
    path.write_bytes(blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + desc_len :])


def test_archive_descriptor_errors_name_the_problem(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: {k: v for k, v in d.items() if k != "kind"})
    with pytest.raises(model.ArchiveError, match="'kind'"):
        model.load(path)
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: {**d, "kind": "mystery"})
    with pytest.raises(model.ArchiveError, match="mystery"):
        model.load(path)
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: {**d, "encoder_widths": 5})
    with pytest.raises(model.ArchiveError):
        model.load(path)
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: [d])
    with pytest.raises(model.ArchiveError):
        model.load(path)


# ---------------------------------------------------------------------------
# calibration record


def _same_calibration(a, b):
    assert (a.alpha, a.t_samples, a.seed) == (b.alpha, b.t_samples, b.seed)
    if a.clf_thresholds is None:
        assert b.clf_thresholds is None
    else:
        assert a.clf_thresholds.dtype == b.clf_thresholds.dtype == np.float64
        assert a.clf_thresholds.tobytes() == b.clf_thresholds.tobytes()
    assert (a.rec_threshold is None) == (b.rec_threshold is None)
    if a.rec_threshold is not None:
        assert float(a.rec_threshold).hex() == float(b.rec_threshold).hex()


@pytest.mark.parametrize("kind", list(model.ModelKind))
@pytest.mark.parametrize("n_classes", [2, 5])
def test_calibration_round_trips_bitwise(tmp_path, kind, n_classes):
    net = model.build(kind, input_dim=6, latent_dim=2, n_classes=n_classes, rng_seed=3)
    cal = calibration(net, seed=12, alpha=0.05, t_samples=100)
    path = tmp_path / "net.ofdd"
    model.save(net, path, cal)
    loaded, back = model.load(path)
    _same_calibration(cal, back)
    assert loaded.params.tobytes() == net.params.tobytes()
    assert model._descriptor(loaded, back) == model._descriptor(net, cal)


def _drop(key):
    return lambda c: {k: v for k, v in c.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda c: {**c, "clf_thresholds": [0.5, float("nan")]}, "not a finite number"),
    (lambda c: {**c, "rec_threshold": float("inf")}, "not a finite number"),
    (lambda c: {**c, "clf_thresholds": [0.5, 1e400]}, "not a finite number"),
    (lambda c: {**c, "clf_thresholds": [0.5, "0.6"]}, "not a finite number"),
    (lambda c: {**c, "clf_thresholds": [0.5, 0.6, 0.7]}, "3 classifier thresholds for 2"),
    (lambda c: {**c, "clf_thresholds": None}, "classifier thresholds missing"),
    (lambda c: {**c, "rec_threshold": None}, "rec threshold missing"),
    (lambda c: {**c, "alpha": 1.0}, "outside"),
    (lambda c: {**c, "alpha": 0}, "outside"),
    (lambda c: {**c, "t_samples": 1}, "t_samples"),
    (lambda c: {**c, "t_samples": 4.0}, "t_samples"),
    (lambda c: {**c, "seed": -1}, "seed"),
    (_drop("rec_threshold"), "'rec_threshold'"),
    (_drop("alpha"), "'alpha'"),
], ids=["nan-clf", "inf-rec", "overflow-clf", "string-clf", "clf-count", "clf-missing",
        "rec-missing", "alpha-1", "alpha-0", "t-samples-1", "t-samples-float", "seed-negative",
        "rec-key-missing", "alpha-key-missing"])
def test_archive_rejects_bad_calibration(tmp_path, edit, message):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: {**d, "calibration": edit(d["calibration"])})
    with pytest.raises(model.ArchiveError, match=message):
        model.load(path)


@pytest.mark.parametrize("kind, key", [
    (model.ModelKind.CLASSIFIER_ONLY, "rec_threshold"),
    (model.ModelKind.AUTOENCODER_ONLY, "clf_thresholds"),
])
def test_archive_rejects_threshold_of_absent_pathway(tmp_path, kind, key):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(kind), path)
    _rewrite_descriptor(path, lambda d: {**d, "calibration": {**d["calibration"], key: 0.5}})
    with pytest.raises(model.ArchiveError, match="present"):
        model.load(path)


def test_archive_without_calibration_is_rejected(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, _drop("calibration"))
    with pytest.raises(model.ArchiveError, match="'calibration'"):
        model.load(path)


def test_version_1_archive_asks_for_retraining(tmp_path):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(model.VersionMismatchError, match="retrain with `oodfdd train`"):
        model.load(path)


@pytest.mark.parametrize("key, value", [
    ("input_dim", 10**9), ("encoder_widths", [10**6, 10**6, 2]), ("n_classes", 10**12),
    ("input_dim", True), ("head_widths", [8.0]), ("latent_dim", 0),
])
def test_descriptor_dimensions_checked_before_any_layer_is_built(tmp_path, key, value):
    path = tmp_path / "net.ofdd"
    _save(thyroid_net(), path)
    _rewrite_descriptor(path, lambda d: {**d, key: value})
    with pytest.raises(model.ArchiveError):
        model.load(path)


# ---------------------------------------------------------------------------
# archive fuzzing: every mutated archive loads as exactly what its bytes say,
# or raises ArchiveError


def _archive(kind, seed):
    net = model.build(kind, input_dim=6, latent_dim=2, n_classes=3, rng_seed=seed)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "net.ofdd")
        model.save(net, path, calibration(net, seed=seed))
        with open(path, "rb") as fh:
            return fh.read()


ARCHIVES = [_archive(kind, seed) for seed, kind in enumerate(model.ModelKind)]
KNOWN_KEYS = set(json.loads(ARCHIVES[0][10:10 + int.from_bytes(ARCHIVES[0][6:10], "little")]))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "net.ofdd"


def _load_mutated(path, blob):
    """Load `blob`; on success it must hold exactly what its bytes say, so an
    archive whose descriptor still parses to the original's loads equal to it."""
    path.write_bytes(blob)
    try:
        net, cal = model.load(path)
    except model.ArchiveError:
        return
    desc_len = int.from_bytes(blob[6:10], "little")
    said = json.loads(blob[10:10 + desc_len])
    assert model._descriptor(net, cal) == {k: said[k] for k in KNOWN_KEYS}
    assert net.params.tobytes() == np.frombuffer(blob, "<f8", offset=10 + desc_len).tobytes()


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 2), data=st.data())
def test_fuzz_truncated_archive_never_loads(fuzz_path, which, data):
    blob = ARCHIVES[which]
    cut = data.draw(st.integers(0, len(blob) - 1))
    fuzz_path.write_bytes(blob[:cut])
    with pytest.raises(model.ArchiveError):
        model.load(fuzz_path)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 2), data=st.data())
def test_fuzz_flipped_bytes(fuzz_path, which, data):
    blob = bytearray(ARCHIVES[which])
    desc_end = 10 + int.from_bytes(blob[6:10], "little")
    # most flips land in the header, descriptor and calibration block
    region = data.draw(st.sampled_from([desc_end, desc_end, desc_end, len(blob)]))
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, region - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
    _load_mutated(fuzz_path, bytes(blob))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 2), donor=st.integers(0, 2), data=st.data())
def test_fuzz_spliced_descriptor(fuzz_path, which, donor, data):
    """Replace a slice of the descriptor with random bytes or with a slice of
    another archive's descriptor, with or without fixing the length field."""
    blob = ARCHIVES[which]
    desc = blob[10:10 + int.from_bytes(blob[6:10], "little")]
    lo = data.draw(st.integers(0, len(desc)))
    hi = data.draw(st.integers(lo, min(len(desc), lo + 40)))
    other = ARCHIVES[donor][10:10 + int.from_bytes(ARCHIVES[donor][6:10], "little")]
    d_lo = data.draw(st.integers(0, len(other)))
    patch = data.draw(st.one_of(st.binary(max_size=16),
                                st.just(other[d_lo:d_lo + (hi - lo) + 8])))
    new_desc = desc[:lo] + patch + desc[hi:]
    length = len(new_desc) if data.draw(st.booleans()) else len(desc)
    mutated = blob[:6] + length.to_bytes(4, "little") + new_desc + blob[10 + len(desc):]
    _load_mutated(fuzz_path, mutated)


# ---------------------------------------------------------------------------
# flat parameter buffer


@pytest.mark.parametrize("kind", list(model.ModelKind))
def test_dense_arrays_are_buffer_views_in_archive_order(kind):
    net = model.build(kind, input_dim=6, latent_dim=2, n_classes=3, rng_seed=5)
    base_p = net.params.__array_interface__["data"][0]
    base_g = net.grads.__array_interface__["data"][0]
    offset = 0
    for role, stack in zip(net.offsets, net.stacks()):
        assert getattr(net, role) is stack
        assert net.offsets[role].start == offset
        for layer in stack.dense_layers():
            for arr, grad in ((layer.weights, layer.grad_w), (layer.bias, layer.grad_b)):
                assert np.shares_memory(arr, net.params)
                assert np.shares_memory(grad, net.grads)
                assert arr.flags.c_contiguous and grad.flags.c_contiguous
                assert arr.__array_interface__["data"][0] - base_p == 8 * offset
                assert grad.__array_interface__["data"][0] - base_g == 8 * offset
                offset += arr.size
        assert net.offsets[role].stop == offset
    assert offset == net.params.size == net.grads.size
    assert net.params.dtype == net.grads.dtype == np.float64


def test_spans_merge_adjacent_pathways():
    aug = thyroid_net(model.ModelKind.AUGMENTED)
    enc, head, dec = (aug.offsets[r] for r in ("encoder", "head", "decoder"))
    assert aug.spans("encoder", "head", "decoder") == [slice(0, aug.params.size)]
    assert aug.spans("encoder", "head") == [slice(0, head.stop)]
    assert aug.spans("encoder", "decoder") == [enc, dec]
    ae = thyroid_net(model.ModelKind.AUTOENCODER_ONLY)
    assert ae.spans("encoder", "head", "decoder") == [slice(0, ae.params.size)]


def test_zero_grad_clears_every_layer():
    net = thyroid_net()
    x = make_rng(1).normal(size=(4, 6))
    xhat, _ = net.forward_reconstruct(x)
    net.encoder.backward(net.decoder.backward(xhat - x))
    assert np.any(net.decoder.dense_layers()[0].grad_w != 0.0)
    net.zero_grad()
    assert not np.any(net.grads)
    for stack in net.stacks():
        for layer in stack.dense_layers():
            assert not np.any(layer.grad_w) and not np.any(layer.grad_b)


def test_save_payload_is_the_buffer(tmp_path):
    net = thyroid_net(seed=4)
    path = tmp_path / "net.ofdd"
    _save(net, path)
    blob = path.read_bytes()
    desc_len = int.from_bytes(blob[6:10], "little")
    assert blob[:4] == model.ARCHIVE_MAGIC
    assert int.from_bytes(blob[4:6], "little") == model.ARCHIVE_VERSION
    assert json.loads(blob[10 : 10 + desc_len])["kind"] == "augmented"
    assert blob[10 + desc_len :] == net.params.astype("<f8").tobytes()
    loaded, _ = model.load(path)
    assert loaded.params.tobytes() == net.params.tobytes()
    assert np.shares_memory(loaded.encoder.dense_layers()[0].weights, loaded.params)


def test_build_rejects_bad_widths():
    with pytest.raises(ValueError):
        model.build(
            model.ModelKind.AUGMENTED,
            input_dim=6,
            latent_dim=2,
            hidden_widths=[5, 3],  # does not end at latent_dim
        )
    with pytest.raises(ValueError):
        model.build(model.ModelKind.AUGMENTED, input_dim=0, latent_dim=2)
