"""Tests for dataset loading, generation, splitting, and standardization."""

import gzip
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import plainloop
from oodfdd import cli, data, experiments, model, nncore
from oodfdd.model import ModelKind
from shapes import arch


# ---------------------------------------------------------------------------
# thyroid text format


@pytest.fixture(scope="module")
def thyroid_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("thyroid")
    data.write_thyroid_surrogate(d, seed=0)
    return d


def test_thyroid_loads_with_documented_proportions(thyroid_dir):
    ds = data.load_thyroid(thyroid_dir / "ann-train.data")
    assert ds.X.shape == (3772, 6)
    n_normal = np.sum(ds.group == "normal")
    assert 0.88 <= n_normal / len(ds) <= 0.96
    n_sub = np.sum(ds.group == "incipient:1:1")
    assert 0.55 <= n_sub / (len(ds) - n_normal) <= 0.80
    assert set(np.unique(ds.y)) == {0, 1}
    # subnormal rows carry the disease label but the incipient tag
    assert np.all(ds.y[ds.group == "incipient:1:1"] == 1)
    assert np.all(ds.y[ds.group == "fault:1"] == 1)


def test_thyroid_standardized_against_own_normals(thyroid_dir):
    ds, _ = experiments.load_dataset_pair(experiments.thyroid_config(), str(thyroid_dir))
    normals = ds.X[ds.group == "normal"]
    assert np.allclose(normals.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(normals.std(axis=0), 1.0, atol=1e-9)


def test_thyroid_test_file_uses_training_stats(thyroid_dir):
    train, test = experiments.load_dataset_pair(experiments.thyroid_config(),
                                                str(thyroid_dir))
    assert test.X.shape == (3428, 6)
    assert test.feature_stats is train.feature_stats
    # test normals land near but not exactly at the training-normal frame
    mu = test.X[test.group == "normal"].mean(axis=0)
    assert np.all(np.abs(mu) < 0.25)
    assert np.any(mu != 0.0)


def test_thyroid_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "short.data"
    bad.write_text("0.5 0 1 3\n")
    with pytest.raises(ValueError, match="columns"):
        data.load_thyroid(bad)
    nonnum = tmp_path / "nonnum.data"
    nonnum.write_text(" ".join(["x"] * 21 + ["3"]) + "\n")
    with pytest.raises(ValueError, match="non-numeric"):
        data.load_thyroid(nonnum)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_thyroid_rejects_non_finite_value_naming_the_line(tmp_path, thyroid_dir, token):
    lines = (thyroid_dir / "ann-train.data").read_text().splitlines()
    cells = lines[4].split()
    cells[17] = token  # a continuous column, so no binary-flag check sees it
    lines[4] = " ".join(cells)
    bad = tmp_path / "ann-train.data"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{bad} line 5: non-finite value"):
        data.load_thyroid(bad)


@pytest.mark.parametrize("lineno", [1, 700])
def test_thyroid_rejects_non_utf8_text_naming_the_line(tmp_path, thyroid_dir, lineno):
    # line 700 lies past the first read buffer and the first parse chunk
    lines = (thyroid_dir / "ann-train.data").read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    bad = tmp_path / "ann-train.data"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=f"^{bad} line {lineno}: not UTF-8 text$"):
        data.load_thyroid(bad)


def test_thyroid_rejects_unknown_class_code(tmp_path):
    bad = tmp_path / "code.data"
    row = ["0.5"] + ["0"] * 15 + ["0.5"] * 5 + ["4"]
    bad.write_text(" ".join(row) + "\n")
    with pytest.raises(ValueError, match="class code"):
        data.load_thyroid(bad)


def test_thyroid_rejects_wrong_class_balance(tmp_path):
    rows = []
    for code in (3, 1):
        for _ in range(100):
            rows.append(" ".join(["0.5"] + ["0"] * 15 + ["0.5"] * 5 + [str(code)]))
    bad = tmp_path / "balance.data"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="class balance"):
        data.load_thyroid(bad)


def test_thyroid_rejects_nonbinary_flag_column(tmp_path):
    row = ["0.5"] + ["0.7"] + ["0"] * 14 + ["0.5"] * 5 + ["3"]
    bad = tmp_path / "flags.data"
    bad.write_text(" ".join(row) + "\n")
    with pytest.raises(ValueError, match="binary"):
        data.load_thyroid(bad)


# ---------------------------------------------------------------------------
# idx format


def test_idx_roundtrip_images_and_labels(tmp_path):
    rng = nncore.make_rng(0)
    images = rng.integers(0, 256, (7, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, 7).astype(np.uint8)
    data.write_idx_images(tmp_path / "imgs", images)
    data.write_idx_labels(tmp_path / "labs", labels)
    assert np.array_equal(data.read_idx(tmp_path / "imgs"), images)
    assert np.array_equal(data.read_idx(tmp_path / "labs"), labels)


def test_idx_reads_gzip(tmp_path):
    labels = np.arange(5, dtype=np.uint8)
    data.write_idx_labels(tmp_path / "labs", labels)
    raw = (tmp_path / "labs").read_bytes()
    with gzip.open(tmp_path / "labs.gz", "wb") as fh:
        fh.write(raw)
    assert np.array_equal(data.read_idx(tmp_path / "labs.gz"), labels)


def test_idx_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        data.read_idx(bad)


def test_idx_rejects_truncation(tmp_path):
    import struct

    trunc = tmp_path / "trunc"
    trunc.write_bytes(struct.pack(">iiii", data.IDX_IMAGES_MAGIC, 2, 28, 28) + b"\x00" * 10)
    with pytest.raises(ValueError, match="truncated"):
        data.read_idx(trunc)


def test_avg_pool_preserves_mean():
    rng = nncore.make_rng(1)
    images = rng.random((3, 28, 28))
    pooled = data.avg_pool2(images)
    assert pooled.shape == (3, 14, 14)
    for orig, small in zip(images, pooled):
        assert abs(orig.mean() - small.mean()) < 1e-12
    with pytest.raises(ValueError):
        data.avg_pool2(rng.random((1, 7, 7)))


@pytest.fixture(scope="module")
def mnist_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mnist")
    data.write_mnist_surrogate(d, n_train_per_digit=20, n_test_per_digit=5, seed=0)
    return d


def test_mnist_label_scheme(mnist_dir):
    ds = data.load_mnist(
        mnist_dir / "train-images-idx3-ubyte", mnist_dir / "train-labels-idx1-ubyte"
    )
    assert ds.X.shape == (200, 196)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0
    assert set(np.unique(ds.y)) == {0, 1, 2, 3, 4}
    # digits 5,6,8,9 -> labels 1..4 in sorted order
    assert np.sum(ds.group == "normal") == 20
    assert np.sum(ds.group == "unknown") == 100
    for k in range(1, 5):
        assert np.sum(ds.group == f"fault:{k}") == 20
    assert np.all(ds.y[ds.group == "unknown"] == 0)


def test_mnist_count_mismatch(tmp_path, mnist_dir):
    labels = np.zeros(3, dtype=np.uint8)
    data.write_idx_labels(tmp_path / "labs", labels)
    with pytest.raises(ValueError, match="count mismatch"):
        data.load_mnist(mnist_dir / "train-images-idx3-ubyte", tmp_path / "labs")


def test_mnist_digit_sets_are_disjoint_cover_every_digit_and_keep_faults_in_label_order():
    digits = [data.MNIST_NORMAL_DIGIT, *data.MNIST_FAULT_DIGITS, *data.MNIST_UNKNOWN_DIGITS]
    assert sorted(digits) == list(range(10))
    # fault digit k of the tuple is label k + 1, ascending as the paper's labels
    assert list(data.MNIST_FAULT_DIGITS) == sorted(data.MNIST_FAULT_DIGITS)


def _load_mnist_whole_array(images_path, labels_path, normal_digit=0,
                            fault_digits=(5, 6, 8, 9), unknown_digits=(1, 2, 3, 4, 7)):
    """The loader as one whole-file expression and a per-row tag loop: the
    reference the block-wise decode must equal bit for bit."""
    images, labels = data.read_idx(images_path), data.read_idx(labels_path)
    keep = np.isin(labels, [normal_digit, *fault_digits, *unknown_digits])
    images, labels = images[keep], labels[keep]
    pooled = data.avg_pool2(images.astype(np.float64) / 255.0)
    fault_order = {d: k + 1 for k, d in enumerate(sorted(fault_digits))}
    y = np.zeros(len(labels), dtype=np.int64)
    group = np.empty(len(labels), dtype=object)
    for i, digit in enumerate(labels):
        if digit == normal_digit:
            group[i] = "normal"
        elif digit in fault_order:
            y[i] = fault_order[digit]
            group[i] = f"fault:{fault_order[digit]}"
        else:
            group[i] = "unknown"
    return pooled.reshape(len(pooled), -1), y, group.astype(str)


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


B = data.MNIST_DECODE_BLOCK


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
# labels 10..15 are in no digit set, so the filtered files drop rows
@pytest.mark.parametrize("labels_below", [10, 16], ids=["all-digits", "filtered"])
def test_mnist_blocks_equal_the_whole_array_expression_bitwise(tmp_path, n, labels_below):
    rng = nncore.make_rng(n)
    images = rng.integers(0, 256, (n, 28, 28)).astype(np.uint8)
    images[0] = (0, 255)[n % 2]  # the ends of the pixel range
    labels = rng.integers(0, labels_below, n).astype(np.uint8)
    labels[0] = data.MNIST_NORMAL_DIGIT  # every file keeps a row
    data.write_idx_images(tmp_path / "imgs", images)
    data.write_idx_labels(tmp_path / "labs", labels)
    ds = data.load_mnist(tmp_path / "imgs", tmp_path / "labs")
    x, y, group = _load_mnist_whole_array(tmp_path / "imgs", tmp_path / "labs")
    for got, want in ((ds.X, x), (ds.y, y), (ds.group, group)):
        _assert_same_array(got, want)


def test_mnist_rejects_odd_image_sides_with_no_row_kept(tmp_path):
    data.write_idx_images(tmp_path / "imgs", np.zeros((2, 7, 7), dtype=np.uint8))
    data.write_idx_labels(tmp_path / "labs", np.array([10, 10], dtype=np.uint8))
    with pytest.raises(ValueError, match="not divisible by 2"):
        data.load_mnist(tmp_path / "imgs", tmp_path / "labs")


def test_mnist_rejects_a_file_with_no_digit_in_any_set(tmp_path):
    data.write_idx_images(tmp_path / "imgs", np.zeros((1, 28, 28), dtype=np.uint8))
    data.write_idx_labels(tmp_path / "labs", np.array([12], dtype=np.uint8))
    with pytest.raises(ValueError) as info:
        data.load_mnist(tmp_path / "imgs", tmp_path / "labs")
    message = str(info.value)
    assert str(tmp_path / "labs") in message
    assert "normal digit 0" in message and "[5, 6, 8, 9]" in message
    assert "[1, 2, 3, 4, 7]" in message


def test_cli_exits_3_on_mnist_files_with_no_digit_in_any_set(tmp_path, capsys):
    # a label of 10 is in none of the default digit sets
    for split in ("train", "t10k"):
        data.write_idx_images(tmp_path / f"{split}-images-idx3-ubyte",
                              np.zeros((1, 28, 28), dtype=np.uint8))
        data.write_idx_labels(tmp_path / f"{split}-labels-idx1-ubyte",
                              np.array([10], dtype=np.uint8))
    rc = cli.main(["compare", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "train-labels-idx1-ubyte: no label is the normal digit 0" in capsys.readouterr().err


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaders_peak_memory_stays_near_their_output(tmp_path):
    # the default 4000-image surrogate: a whole-file float64 decode peaked at
    # 34.5 MB, the block-wise one at 12.9 MB, above its 6.3 MB output
    paths = data.write_mnist_surrogate(tmp_path, n_test_per_digit=1)
    peak = _traced_peak(lambda: data.load_mnist(paths["train-images"],
                                                paths["train-labels"]))
    assert peak < 16e6
    # thyroid's 3772 training lines: per-row lists of Python floats peaked at
    # 4.6 MB, one flat array of doubles at 1.7 MB
    path = data.write_thyroid_surrogate(tmp_path)["ann-train.data"]
    assert _traced_peak(lambda: data.load_thyroid(path)) < 3.5e6


# ---------------------------------------------------------------------------
# generated examples


def test_chiller_surrogate_geometry():
    ds = data.gen_chiller_surrogate(seed=3, n_per_class=200)
    assert ds.X.shape == (200 * (1 + 7 * 4), 16)
    sl4 = ds.X[ds.group == "fault:1"]
    assert abs(np.linalg.norm(sl4.mean(axis=0)) - 6.0) < 0.5
    sl1 = ds.X[ds.group == "incipient:1:1"]
    assert abs(np.linalg.norm(sl1.mean(axis=0)) - 1.5) < 0.5
    normal = ds.X[ds.group == "normal"]
    assert np.linalg.norm(normal.mean(axis=0)) < 0.5
    # held-out fault: unknown at every severity, placeholder label 0
    assert np.sum(ds.group == "unknown") == 4 * 200
    assert np.all(ds.y[ds.group == "unknown"] == 0)
    assert set(np.unique(ds.y)) == set(range(7))


def test_chiller_surrogate_seed_determinism():
    a = data.gen_chiller_surrogate(seed=4, n_per_class=10)
    b = data.gen_chiller_surrogate(seed=4, n_per_class=10)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert list(a.group) == list(b.group)
    c = data.gen_chiller_surrogate(seed=5, n_per_class=10)
    assert not np.array_equal(a.X, c.X)


# ---------------------------------------------------------------------------
# split and standardization


def _toy_dataset():
    rng = nncore.make_rng(6)
    x = rng.normal(0, 1, (40, 3))
    y = np.array([0] * 20 + [1] * 10 + [1] * 5 + [0] * 5)
    group = np.array(
        ["normal"] * 20 + ["fault:1"] * 10 + ["incipient:1:2"] * 5 + ["unknown"] * 5
    )
    return data.LabeledDataset(X=x, y=y, group=group)


def test_split_keeps_ood_out_of_training():
    train, test = data.split(_toy_dataset(), 0.5, seed=0)
    assert not any(data.is_ood_tag(str(g)) for g in train.group)
    assert np.sum(test.group == "incipient:1:2") == 5
    assert np.sum(test.group == "unknown") == 5
    assert len(train) + len(test) == 40


def test_split_stratifies_by_label():
    train, test = data.split(_toy_dataset(), 0.5, seed=1)
    assert np.sum(train.y == 0) == 10  # 20 normals + 5 ood-with-label-0 stay out
    assert np.sum(train.group == "fault:1") == 5


def test_split_is_seed_deterministic():
    a_train, a_test = data.split(_toy_dataset(), 0.5, seed=2)
    b_train, b_test = data.split(_toy_dataset(), 0.5, seed=2)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.X, b_test.X)
    c_train, _ = data.split(_toy_dataset(), 0.5, seed=3)
    assert not np.array_equal(a_train.X, c_train.X)


def test_split_all_normal_by_fraction():
    rng = nncore.make_rng(7)
    ds = data.LabeledDataset(
        X=rng.normal(0, 1, (100, 2)), y=np.zeros(100, int), group=np.array(["normal"] * 100)
    )
    train, test = data.split(ds, 0.3, seed=0)
    assert len(train) == 30 and len(test) == 70


def test_split_preconditions():
    ds = _toy_dataset()
    with pytest.raises(ValueError):
        data.split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        data.split(ds, 1.0, seed=0)
    tiny = data.LabeledDataset(
        X=np.zeros((3, 2)), y=np.array([0, 0, 1]), group=np.array(["normal", "normal", "fault:1"])
    )
    with pytest.raises(ValueError, match="stratify"):
        data.split(tiny, 0.5, seed=0)


def test_standardize_pair_uses_training_normals():
    train, test = data.split(_toy_dataset(), 0.5, seed=4)
    train_s, test_s = data.standardize_pair(train, test)
    normals = train_s.X[train_s.y == 0]
    assert np.allclose(normals.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(normals.std(axis=0), 1.0, atol=1e-9)
    assert train_s.feature_stats is test_s.feature_stats
    # invertible
    stats = train_s.feature_stats
    back = train_s.X * stats.std + stats.mean
    assert np.allclose(back, train.X, atol=1e-9)


def test_standardization_idempotent_on_standardized_data():
    rng = nncore.make_rng(8)
    x = rng.normal(3.0, 2.0, (50, 4))
    once = data.FeatureStats.fit(x).apply(x)
    stats2 = data.FeatureStats.fit(once)
    twice = stats2.apply(once)
    assert np.allclose(once, twice, atol=1e-9)


def test_constant_feature_passes_through():
    x = np.column_stack([np.full(30, 2.0), np.arange(30.0)])
    stats = data.FeatureStats.fit(x)
    out = stats.apply(x)
    assert np.allclose(out[:, 0], 0.0)
    assert np.all(np.isfinite(out))


# ±0, subnormals, ±1e300 and plain values, one kind to a column
_SPECIAL_COLUMNS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.5, -7.25])


@pytest.mark.parametrize("rows", [0, 1, nncore.TILE_ROWS - 1, nncore.TILE_ROWS + 1,
                                  3 * nncore.TILE_ROWS + 5])
def test_apply_is_the_broadcast_expression_bitwise_and_leaves_its_input(rows):
    width = len(_SPECIAL_COLUMNS)
    x = nncore.make_rng(50).normal(0.0, 1.0, (rows, width)) * np.roll(
        _SPECIAL_COLUMNS, 3) + _SPECIAL_COLUMNS
    x[::3] = _SPECIAL_COLUMNS  # every special value in every column
    kept = x.copy()
    # fitted stats with two constant features (std -> 1.0), then stats of
    # special values: a subnormal and a huge mean, a subnormal and a tiny std
    train = nncore.make_rng(51).normal(0.0, 1.0, (40, width))
    train[:, 2], train[:, 5] = -0.0, 3.0
    fitted = data.FeatureStats.fit(train)
    assert (fitted.std[[2, 5]] == 1.0).all()
    special = data.FeatureStats(mean=np.roll(_SPECIAL_COLUMNS, 1),
                                std=np.array([1.0, 2.0, 1e-300, 5e-324, 0.5, 3.0, 1e300, 1.0]))
    with np.errstate(all="ignore"):  # these values overflow and divide 0 by 0
        for stats in (fitted, special):
            got = stats.apply(x)
            _assert_same_array(got, (x - stats.mean) / stats.std)
            assert got.base is None and x.tobytes() == kept.tobytes()
            # a 1-D row too; rows of another width raise as the broadcast does
            _assert_same_array(stats.apply(_SPECIAL_COLUMNS),
                               (_SPECIAL_COLUMNS - stats.mean) / stats.std)
            with pytest.raises(ValueError):
                stats.apply(np.ones((rows, width - 1)))


def test_dataset_csv_export(tmp_path):
    ds = data.LabeledDataset(
        X=np.array([[1.0, 2.0]]), y=np.array([1]), group=np.array(["fault:1"])
    )
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "feature_0,feature_1,label,group"
    assert lines[1] == "1.000000,2.000000,1,fault:1"


def test_select_and_length():
    ds = _toy_dataset()
    sub = ds.select(ds.y == 1)
    assert len(sub) == 15
    assert set(sub.group) == {"fault:1", "incipient:1:2"}


# ---------------------------------------------------------------------------
# bulk set-up paths against the per-row references in plainloop

# sha256 of `oodfdd gen-data` output, recorded from the per-row writers
GEN_DATA_SHA256 = {
    ("thyroid", 0): {
        "ann-train.data": "5d24f51637efe0c2dc21f3568282f428c7302c7ea4a90e39c599a4bf855e8a89",
        "ann-test.data": "df251c71297e8cc4d2f635f78c0bbc51eadd3086512a4953b0c8f8121480ceed",
    },
    ("thyroid", 7): {
        "ann-train.data": "be3ff1cfd2da4e6b4a59a10ff4b79d722a3f6ab01736b64db3b166e6b0f8a75b",
        "ann-test.data": "adeb1c91868ed658d4605e3bdd469e1a38edcbd8653e70914b72387698d2eefa",
    },
    ("mnist", 0): {
        "train-images-idx3-ubyte":
            "9e1a93778b1601bdd3f0359e962b1550b830c35290bcbef5a4670fa19201f4a4",
        "train-labels-idx1-ubyte":
            "4f2b05376c1796320c99795d7a6e3652ccdd2a8ede1e667229d50372dbd477ce",
        "t10k-images-idx3-ubyte":
            "9f9c7479d0e76e4f2bb4134b0117f625bceab6afb7a07b1daa0c2841f174f1f8",
        "t10k-labels-idx1-ubyte":
            "1b4d767717605025661045af8cb8e9c772f0c9b5443528915fa46eee2f411c9c",
    },
    ("mnist", 7): {
        "train-images-idx3-ubyte":
            "cf0e4c2cef2997afbe10f849d2e484b475899317ceb2e97fbf58a6d883f0c2d0",
        "train-labels-idx1-ubyte":
            "e9970c25fc0034b0a52a7711b2c5d87797b83dee848c9e1b5b27a6ba861d26cd",
        "t10k-images-idx3-ubyte":
            "8a6aeee363cb640fbd24735c596d1918104504618551e97f1fe7b3e26373c4ca",
        "t10k-labels-idx1-ubyte":
            "2f7a3869d8e2c50b3681f68ba63e8360619c4d90aa1cd7a14358ed2cf0ca71d8",
    },
}


@pytest.mark.parametrize("dataset, seed", sorted(GEN_DATA_SHA256))
def test_gen_data_files_keep_their_bytes(tmp_path, dataset, seed):
    rc = cli.main(["gen-data", "--dataset", dataset, "--seed", str(seed),
                   "--data-dir", str(tmp_path)])
    assert rc == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == GEN_DATA_SHA256[dataset, seed]


def test_thyroid_line_format_equals_the_per_cell_reference():
    rng = nncore.make_rng(3)
    rows = np.column_stack([rng.uniform(-2.0, 2.0, (300, 21)), rng.integers(1, 4, 300)])
    flags = [j for j in range(21) if j not in data.THYROID_CONTINUOUS_COLS]
    # flags are 0 or 1 past the first rows, which keep fractions of either sign
    rows[5:, flags] = rng.integers(0, 2, (295, len(flags)))
    rows[:3, 0] = (-0.0, 0.99995, -0.00005)  # signed zero and round-half cases
    text = "".join(data._THYROID_LINE % tuple(row) for row in rows.tolist())
    assert text == plainloop.plain_thyroid_text(rows)


def _mnist_writer_is_the_per_image_reference(tmp_path, n_train, n_test, seed):
    paths = data.write_mnist_surrogate(tmp_path, n_train_per_digit=n_train,
                                       n_test_per_digit=n_test, seed=seed)
    rng = nncore.make_rng(seed)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images, labels = plainloop.plain_mnist_images(n, rng)
        perm = rng.permutation(len(images))
        assert data.read_idx(paths[f"{prefix}-images"]).tobytes() == images[perm].tobytes()
        assert data.read_idx(paths[f"{prefix}-labels"]).tobytes() == labels[perm].tobytes()


@pytest.mark.parametrize("n_per", [1, data.MNIST_DECODE_BLOCK, data.MNIST_DECODE_BLOCK + 1])
def test_mnist_writer_equals_the_per_image_reference(tmp_path, n_per):
    _mnist_writer_is_the_per_image_reference(tmp_path, n_per, 2, seed=11)


def _same_dataset(got, want):
    for a, b in ((got.X, want.X), (got.y, want.y), (got.group, want.group)):
        _assert_same_array(a, b)


@pytest.mark.parametrize("dataset", ["chiller-surrogate", "thyroid", "mnist"])
def test_load_dataset_pair_equals_the_per_row_reference(tmp_path, dataset):
    cfg = experiments.config_for(dataset, seed=7)
    if dataset == "thyroid":
        data.write_thyroid_surrogate(tmp_path, seed=7)
    elif dataset == "mnist":
        data.write_mnist_surrogate(tmp_path, n_train_per_digit=60, n_test_per_digit=20, seed=7)
        cfg.train_cap_per_class = 50
    got = experiments.load_dataset_pair(cfg, str(tmp_path))
    want = plainloop.plain_load_dataset_pair(cfg, str(tmp_path))
    for g, w in zip(got, want):
        _same_dataset(g, w)
        assert g.group.dtype == w.group.dtype


@pytest.mark.parametrize("n_per_class", [1, 7, 129, 400])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_chiller_generator_equals_the_per_block_reference(seed, n_per_class):
    got = data.gen_chiller_surrogate(seed=seed, n_per_class=n_per_class)
    _same_dataset(got, plainloop.plain_gen_chiller(seed, n_per_class))


@pytest.mark.parametrize("n_train, n_test", [(1, 257), (257, 1)])
def test_mnist_writer_shares_its_glyph_table_between_the_files(tmp_path, n_train, n_test):
    _mnist_writer_is_the_per_image_reference(tmp_path, n_train, n_test, seed=7)


@pytest.mark.parametrize("seed", [0, 5])
def test_split_equals_the_per_row_reference(seed):
    full = data.gen_chiller_surrogate(seed=seed, n_per_class=30)
    _same_dataset(full, plainloop.plain_gen_chiller(seed, 30))
    assert full.group.dtype == plainloop.plain_gen_chiller(seed, 30).group.dtype
    for got, want in zip(data.split(full, 0.6, seed), plainloop.plain_split(full, 0.6, seed)):
        _same_dataset(got, want)


def test_split_without_in_distribution_rows_raises():
    ds = data.LabeledDataset(X=np.zeros((3, 2)), y=np.zeros(3, int),
                             group=np.array(["unknown", "incipient:1:2", "unknown"]))
    with pytest.raises(ValueError, match="no in-distribution rows"):
        data.split(ds, 0.5, seed=0)


def _every_generated_tag(tmp_path):
    d = tmp_path / "mnist"
    d.mkdir()
    data.write_mnist_surrogate(d, n_train_per_digit=2, n_test_per_digit=1, seed=0)
    net = model.build(ModelKind.AUGMENTED, arch(input_dim=6, latent_dim=2, n_classes=4), 0)
    fault_3 = data.LabeledDataset(X=np.vstack([np.zeros(6), np.ones(6)]), y=[0, 3],
                                  group=["normal", "fault:3"])
    thyroid = data.write_thyroid_surrogate(tmp_path, seed=0)["ann-test.data"]
    return np.concatenate([
        data.gen_chiller_surrogate(seed=0, n_per_class=2).group,
        data.load_thyroid(thyroid).group,
        data.load_mnist(d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte").group,
        experiments._make_ambiguous(net, fault_3, experiments.mnist_config()).group,
        ["", "incipient", "unknown ", "fault:1", "incipient:", " unknown", "Unknown"],
    ])


def test_ood_mask_equals_is_ood_tag_over_every_generated_tag(tmp_path):
    tags = _every_generated_tag(tmp_path)
    want = plainloop.plain_is_ood(tags)
    assert want.any() and not want.all()
    for groups in (tags, tags.astype(object), list(tags), tags.reshape(1, -1)):
        got = data.ood_mask(groups)
        assert got.dtype == bool
        assert np.array_equal(got.ravel(), want)


@given(st.lists(st.one_of(
    st.text(),
    st.sampled_from(["incipient:", "incipient", "unknown", "normal", "fault:"]),
    st.tuples(st.sampled_from(["incipient:", "unknown", "incipient"]), st.text(max_size=4))
    .map("".join))))
def test_ood_mask_equals_is_ood_tag_on_any_text(tags):
    groups = np.array(tags, dtype=str)
    assert np.array_equal(data.ood_mask(groups), plainloop.plain_is_ood(groups))


# ---------------------------------------------------------------------------
# per-group means


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


@given(st.lists(st.tuples(st.sampled_from(["normal", "fault:1", "incipient:2:3", "unknown"]),
                          st.integers(-2, 2), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                max_size=40),
       st.sampled_from([str, int]), st.sampled_from(["bool", "float", "float 2-D"]))
def test_group_means_equal_the_mask_means_bitwise(rows, tag_type, kind):
    """One mean per distinct tag, in first-appearance order, each with the
    bits of selecting the tag's rows by a mask; no rows give no groups."""
    column = 0 if tag_type is str else 1
    groups = np.array([r[column] for r in rows], dtype=tag_type)
    a = np.array([r[2] for r in rows])
    values = {"bool": a > 0.0, "float": a,
              "float 2-D": np.array([r[2:] for r in rows]).reshape(-1, 2)}[kind]
    tags, means = data.group_means(values, groups)
    assert tags == list(dict.fromkeys(groups.tolist()))
    assert all(type(t) is tag_type for t in tags)
    assert means.shape == (len(tags), *values.shape[1:])
    assert _hexes(means) == [h for t in tags for h in _hexes(values[groups == t].mean(axis=0))]


def test_group_means_of_scores_limiting_case():
    scores = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.1, 0.0, 0.0],
    ])
    groups = ["fault:1", "fault:1", "fault:2", "normal"]
    names, matrix = data.group_means(scores, groups)
    assert names == ["fault:1", "fault:2", "normal"]
    assert np.allclose(matrix[0], [0.0, 1.0, 0.0])
    assert np.allclose(matrix[1], [0.0, 0.0, 1.0])
    assert np.allclose(matrix[2], [0.1, 0.0, 0.0])
    names, matrix = data.group_means(np.zeros((0, 3)), np.array([], dtype=str))
    assert names == [] and matrix.shape == (0, 3)


def test_score_matrix_from_network_matches_direct_recompute():
    from oodfdd import detect, uncertainty as unc

    net = model.build(ModelKind.AUGMENTED, arch(input_dim=5, latent_dim=2, n_classes=3), 8)
    x = nncore.make_rng(9).normal(0, 1, (12, 5))
    group = np.array(["normal"] * 6 + ["fault:1"] * 3 + ["fault:2"] * 3)
    scores = detect.mc_scores(net, x, 15, nncore.make_rng(10)).clf
    names, matrix = data.group_means(scores, group)

    m = unc.mc_moments(net, x, 15, nncore.make_rng(10))
    scores = detect.clf_anomaly_scores(m.clf_mean, m.clf_var)
    assert names == ["normal", "fault:1", "fault:2"]
    assert np.array_equal(matrix[0], scores[:6].mean(axis=0))
    assert np.array_equal(matrix[1], scores[6:9].mean(axis=0))


def _thyroid_lines(thyroid_dir):
    return (thyroid_dir / "ann-train.data").read_text().splitlines()


def _bad(line, kind):
    cells = line.split()
    if kind == "columns":
        return " ".join(cells[:-2])
    if kind == "word":
        cells[3] = "yes"
    elif kind == "nan":
        cells[16] = "nan"
    elif kind == "huge":
        cells[16] = "-1e200"
    elif kind == "code":
        cells[-1] = "4"
    elif kind == "float-code":
        cells[-1] = "3.0"
    return " ".join(cells)


B_LINES = data.THYROID_CHUNK_LINES


@pytest.mark.parametrize("faults", [
    [(4, "nan"), (9, "columns"), (700, "word")],
    [(B_LINES - 1, "huge"), (B_LINES, "code"), (B_LINES + 1, "word")],
    [(B_LINES, "float-code"), (3 * B_LINES + 2, "nan")],
    [(2 * B_LINES + 7, "columns"), (2 * B_LINES + 8, "nan"), (3000, "huge")],
    [(3000, "code"), (3001, "columns"), (12, "word")],
    [(2 * B_LINES, "huge")],
    [(5, "code")],
    [(600, "nan")],
], ids=["first-chunk", "chunk-edge", "float-code", "later-chunk", "unordered", "huge-alone",
        "code-alone", "nan-alone"])
def test_thyroid_several_bad_lines_raise_the_first(tmp_path, thyroid_dir, faults):
    lines = _thyroid_lines(thyroid_dir)
    for index, kind in faults:
        lines[index] = _bad(lines[index], kind)
    lines[1:1] = ["", "   "]  # blank lines count in line numbers
    bad = tmp_path / "ann-train.data"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as want:
        plainloop.plain_load_thyroid(bad)
    with pytest.raises(ValueError) as got:
        data.load_thyroid(bad)
    assert str(got.value) == str(want.value)
    first = min(index for index, _ in faults) + 3
    assert str(got.value).startswith(f"{bad} line {first}: ")


def test_thyroid_chunks_equal_the_per_line_reference(tmp_path, thyroid_dir):
    lines = _thyroid_lines(thyroid_dir)
    for at in (B_LINES * 2, B_LINES, B_LINES - 1, 5):
        lines.insert(at, "")
    lines[40] = "\t" + lines[40].replace(" ", "  ") + "  "
    path = tmp_path / "ann-train.data"
    path.write_text("\n".join(lines))  # no newline after the last line
    _same_dataset(data.load_thyroid(path), plainloop.plain_load_thyroid(path))


def test_avg_pool2_equals_numpys_mean_bitwise():
    rng = nncore.make_rng(8)
    pixels = rng.integers(0, 256, (2 * data.MNIST_DECODE_BLOCK, 28, 28)) / 255.0
    wide = rng.normal(0.0, 1.0, (16, 6, 8)) * 10.0 ** rng.integers(-300, 301, (16, 6, 8))
    # cancellations, where any other summation order moves the bits
    cancel = rng.choice([1e16, -1e16, 1.0, -1.0, 3.0, 5e-324, 1e308, -1e308, 0.1, -0.0],
                        size=(64, 4, 10))
    with np.errstate(over="ignore", invalid="ignore"):
        for images in (pixels, wide, cancel, cancel[:, :, ::-1], pixels[:1, :2, :2]):
            got, want = data.avg_pool2(images), plainloop.plain_avg_pool2(images)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
