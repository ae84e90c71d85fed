"""CLI behavior: config precedence, exit codes, artifacts, determinism."""

import argparse
import csv
import dataclasses
import errno
import filecmp
import gzip
import io
import json
import os
import shutil
import subprocess
import sys
import typing
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodfdd import cli, data, detect, experiments, model, report, uncertainty
from oodfdd.nncore import derive_rng, make_rng
from plainloop import plain_passes


SMOKE = ["--epochs", "2", "--pretrain-epochs", "1", "--t-samples", "4",
         "--batch-size", "256"]
# evaluate, score and report read no training settings
T_SMOKE = ["--t-samples", "4"]


@pytest.fixture(scope="module")
def thyroid_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("thyroid")
    data.write_thyroid_surrogate(d, seed=0)
    return str(d)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, thyroid_dir):
    out = str(tmp_path_factory.mktemp("trained"))
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--out", out, *SMOKE])
    assert rc == 0
    return out


def _manifest_entries(out_dir):
    path = os.path.join(out_dir, "manifest.txt")
    entries = {}
    for line in open(path).read().splitlines():
        digest, name = line.split("  ", 1)
        entries[name] = digest
    return entries


def test_train_writes_archive_log_and_manifest(trained_dir):
    assert os.path.exists(os.path.join(trained_dir, "augmented.ofdd"))
    lines = open(os.path.join(trained_dir, "history.csv")).read().splitlines()
    assert lines[0] == "epoch,clf_loss,rec_loss,total_loss"
    assert len(lines) == 1 + 1 + 2  # header + pretrain epoch + joint epochs
    entries = _manifest_entries(trained_dir)
    assert set(entries) == {"augmented.ofdd", "history.csv"}
    for name, digest in entries.items():
        assert digest == cli._sha256(os.path.join(trained_dir, name))


def test_train_same_seed_identical_archive(tmp_path, thyroid_dir, trained_dir):
    out2 = str(tmp_path / "again")
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--out", out2, *SMOKE])
    assert rc == 0
    assert filecmp.cmp(os.path.join(trained_dir, "augmented.ofdd"),
                       os.path.join(out2, "augmented.ofdd"), shallow=False)


def test_train_different_seed_differs(tmp_path, thyroid_dir, trained_dir):
    out2 = str(tmp_path / "seeded")
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--out", out2, "--seed", "1", *SMOKE])
    assert rc == 0
    assert not filecmp.cmp(os.path.join(trained_dir, "augmented.ofdd"),
                           os.path.join(out2, "augmented.ofdd"), shallow=False)


def test_evaluate_emits_metric_tables(tmp_path, thyroid_dir, trained_dir):
    out = str(tmp_path / "eval")
    rc = cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--out", out, *T_SMOKE])
    assert rc == 0
    metrics = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert metrics[0] == "group,binary_accuracy,diagnostic_accuracy"
    groups = {line.split(",")[0] for line in metrics[1:]}
    assert groups == {"normal", "fault:1", "incipient:1:1"}
    thresholds = open(os.path.join(out, "thresholds.csv")).read().splitlines()
    assert thresholds[0] == "channel,threshold"
    assert thresholds[1].startswith("alpha,")
    assert set(_manifest_entries(out)) == {"metrics.csv", "thresholds.csv"}


def test_score_flags_near_alpha_on_training_normals(tmp_path, thyroid_dir, trained_dir, capsys):
    out = str(tmp_path / "score")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--out", out, *T_SMOKE])
    assert rc == 0
    printed = capsys.readouterr().out
    rate = float(printed.strip().rsplit(" ", 1)[1])
    assert 0.08 <= rate <= 0.12
    lines = open(os.path.join(out, "scores.csv")).read().splitlines()
    header = lines[0].split(",")
    assert header == ["score_0", "score_1", "labels", "flagged", "rec_score", "rec_flagged"]
    flagged = [int(line.split(",")[3]) for line in lines[1:]]
    assert abs(np.mean(flagged) - rate) < 0.03  # clf path close to combined rate


def test_score_accepts_external_csv(tmp_path, thyroid_dir, trained_dir):
    rows = "0.1,0.2,0.3,0.4,0.5,0.6\n" * 3
    input_path = tmp_path / "rows.csv"
    input_path.write_text(rows)
    out = str(tmp_path / "score2")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--input", str(input_path), "--out", out, *T_SMOKE])
    assert rc == 0
    lines = open(os.path.join(out, "scores.csv")).read().splitlines()
    assert len(lines) == 1 + 3


def test_score_rejects_wrong_width(tmp_path, thyroid_dir, trained_dir):
    input_path = tmp_path / "narrow.csv"
    input_path.write_text("0.1,0.2\n")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--input", str(input_path), "--out", str(tmp_path / "o"), *T_SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG


def test_report_emits_figures(tmp_path, thyroid_dir, trained_dir):
    out = str(tmp_path / "report")
    rc = cli.main(["report", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--out", out, *T_SMOKE])
    assert rc == 0
    names = set(_manifest_entries(out))
    assert "lda_augmented.svg" in names
    assert "score_matrix.csv" in names
    assert {"hist_normal.csv", "hist_fault_1.csv", "hist_incipient_1_1.csv"} <= names
    svg = open(os.path.join(out, "lda_augmented.svg")).read()
    assert svg.startswith("<?xml") and "</svg>" in svg
    matrix = open(os.path.join(out, "score_matrix.csv")).read().splitlines()
    assert matrix[0] == "group,score_0,score_1"


@pytest.mark.parametrize("kind", experiments.MODEL_ORDER)
def test_report_histograms_are_the_plain_loop_draws_of_each_groups_first_row(
        tmp_path, thyroid_dir, kind):
    weights = os.path.join(tmp_path, f"{kind}.ofdd")
    assert cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                     "--model-kind", kind, "--out", str(tmp_path), *SMOKE]) == 0
    out = tmp_path / "report"
    assert cli.main(["report", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                     "--weights", weights, "--out", str(out)]) == 0
    net, cal = model.load(weights)
    _, test = experiments.load_dataset_pair(
        experiments.config_for("thyroid", seed=cal.seed), thyroid_dir)
    # one draw per group from stream 41, in first-seen group order; the
    # classifier's samples when the net has a head, else the decoder's
    rng = derive_rng(cal.seed, 41)
    for g in dict.fromkeys(test.group.tolist()):
        i = int(np.flatnonzero(test.group == g)[0])
        clf, rec = plain_passes(net, test.X[i:i + 1], cal.t_samples, rng)
        expected = tmp_path / "expected.csv"
        report.emit_csv(*uncertainty.histogram_table(np.concatenate(rec if clf is None else clf)),
                        expected)
        assert (out / f"hist_{cli._safe_name(g)}.csv").read_bytes() == expected.read_bytes()


def test_compare_thyroid_uses_display_names(tmp_path, thyroid_dir, capsys):
    out = str(tmp_path / "cmp")
    rc = cli.main(["compare", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--out", out, *SMOKE])
    assert rc == 0
    table = open(os.path.join(out, "binary.csv")).read().splitlines()
    assert table[0] == "group,augmented_clf,augmented_rec,classifier_clf,autoencoder_rec"
    assert {line.split(",")[0] for line in table[1:]} == {"normal", "subnormal", "diseased"}
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == table[0]
    names = set(_manifest_entries(out))
    assert {"binary.csv", "diagnostic.csv", "thresholds.csv", "entropy.csv"} <= names
    entropy = open(os.path.join(out, "entropy.csv")).read().splitlines()
    assert entropy[0] == "model,P0,P1_in,P1_ood,total,ood_mean_entropy"
    assert [line.split(",")[0] for line in entropy[1:]] == ["augmented", "classifier"]


def test_compare_chiller_emits_severity(tmp_path):
    out = str(tmp_path / "cmp-chiller")
    rc = cli.main(["compare", "--dataset", "chiller-surrogate", "--n-per-class", "104",
                   "--out", out, *SMOKE])
    assert rc == 0
    severity = open(os.path.join(out, "severity.csv")).read().splitlines()
    assert severity[0] == "model,sl1,sl2,sl3,sl4"
    assert {line.split(",")[0] for line in severity[1:]} == {"augmented", "classifier"}


_HEADERS = {
    "history.csv": "epoch,clf_loss,rec_loss,total_loss",
    "metrics.csv": "group,binary_accuracy,diagnostic_accuracy",
    "scores.csv": "score_0,score_1,labels,flagged,rec_score,rec_flagged",
    "score_matrix.csv": "group,score_0,score_1",
    "binary.csv": "group,augmented_clf,augmented_rec,classifier_clf,autoencoder_rec",
    "diagnostic.csv": "group,augmented_clf,classifier_clf",
    "entropy.csv": "model,P0,P1_in,P1_ood,total,ood_mean_entropy",
}


def test_every_csv_artifact_has_lf_lines_and_starts_with_its_header(tmp_path, thyroid_dir,
                                                                    trained_dir):
    weights = ["--weights", os.path.join(trained_dir, "augmented.ofdd")]
    outs = {"train": trained_dir}
    for command, extra in (("evaluate", weights), ("score", weights), ("report", weights),
                           ("compare", [])):
        outs[command] = str(tmp_path / command)
        assert cli.main([command, "--dataset", "thyroid", "--data-dir", thyroid_dir, *extra,
                         "--out", outs[command],
                         *(SMOKE if command == "compare" else T_SMOKE)]) == 0
    for command, out in outs.items():
        names = [name for name in _manifest_entries(out) if name.endswith(".csv")]
        assert names, command
        for name in names:
            blob = open(os.path.join(out, name), "rb").read()
            assert b"\r" not in blob, (command, name)
            if name.startswith("hist_"):
                want = "output,bin_left,count"
            elif name == "thresholds.csv":
                want = "model,channel,threshold" if command == "compare" else "channel,threshold"
            else:
                want = _HEADERS[name]
            assert blob.decode().split("\n", 1)[0] == want, (command, name)


def test_gen_data_roundtrip(tmp_path):
    d = str(tmp_path / "gen")
    rc = cli.main(["gen-data", "--dataset", "thyroid", "--data-dir", d])
    assert rc == 0
    assert os.path.exists(os.path.join(d, "ann-train.data"))
    assert os.path.exists(os.path.join(d, "ann-test.data"))
    rc = cli.main(["gen-data", "--dataset", "chiller-surrogate", "--data-dir", d])
    assert rc == 0


def test_gen_data_rejects_out(tmp_path, monkeypatch, capsys):
    # gen-data writes into --data-dir; an --out it would ignore is refused
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["gen-data", "--dataset", "thyroid", "--out", "data"])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "--out" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_missing_data_exits_2(tmp_path):
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir",
                   str(tmp_path / "nope"), "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_MISSING_PATH


def test_missing_weights_exits_2(tmp_path, thyroid_dir):
    rc = cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", str(tmp_path / "nope.ofdd"),
                   "--out", str(tmp_path / "o"), *T_SMOKE])
    assert rc == cli.EXIT_MISSING_PATH


_PATH_OPTIONS = ("--config", "--data-dir", "--out", "--weights", "--input")
_PATH_KINDS = ("missing", "directory", "empty file", "text file", "non-UTF-8 file")


def _path_options() -> dict:
    """{subcommand: the path options it takes}, read off the parser."""
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for opt in _PATH_OPTIONS
                   if any(opt in a.option_strings for a in p._actions)]
            for name, p in sub.choices.items()}


_COMMAND_PATH_OPTIONS = _path_options()


def _path_of_kind(tmp_path, kind):
    path = tmp_path / "under-test"
    if kind == "directory":
        path.mkdir()
    elif kind == "empty file":
        path.write_bytes(b"")
    elif kind == "text file":
        path.write_text("some text\n")
    elif kind == "non-UTF-8 file":
        path.write_bytes(b"caf\xe9 \xff\n")
    return path


def _expected_exit(command, option, kind):
    """The exit the module docstring's rules give, every other option valid."""
    makes_dir = option == "--out" or (command, option) == ("gen-data", "--data-dir")
    if kind == "missing":
        return 0 if makes_dir else cli.EXIT_MISSING_PATH
    if kind == "directory":
        if makes_dir:
            return 0
        # an empty data directory holds none of the dataset's files
        return cli.EXIT_MISSING_PATH if option == "--data-dir" else cli.EXIT_BAD_CONFIG
    if option == "--weights":
        return cli.EXIT_BAD_ARCHIVE
    if option == "--config" and kind == "empty file":
        return 0  # no settings: the flags give them all
    return cli.EXIT_BAD_CONFIG  # a file where a directory goes, or unreadable text


@pytest.mark.parametrize("command, option, kind", [
    (command, option, kind) for command, options in _COMMAND_PATH_OPTIONS.items()
    for option in options for kind in _PATH_KINDS])
def test_every_path_option_fails_with_a_documented_exit_naming_the_path(
        tmp_path, thyroid_dir, trained_dir, capsys, command, option, kind):
    path = _path_of_kind(tmp_path, kind)
    valid = {"--config": None,  # optional: the flags give every setting
             "--data-dir": str(tmp_path / "gen") if command == "gen-data" else thyroid_dir,
             "--out": str(tmp_path / "out"),
             "--weights": os.path.join(trained_dir, "augmented.ofdd"),
             "--input": None}  # optional: score then reads the training normals
    valid[option] = str(path)
    argv = [command, "--dataset", "thyroid"]
    for opt in _COMMAND_PATH_OPTIONS[command]:
        if valid[opt] is not None:
            argv += [opt, valid[opt]]
    argv += {"gen-data": [], "train": SMOKE, "compare": SMOKE}.get(command, T_SMOKE)
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == _expected_exit(command, option, kind)
    assert "Traceback" not in err
    if rc:
        assert str(path) in err


def test_path_grid_covers_every_command_and_path_option():
    archive = ["--config", "--data-dir", "--out", "--weights"]
    assert _COMMAND_PATH_OPTIONS == {
        "gen-data": ["--config", "--data-dir"], "train": ["--config", "--data-dir", "--out"],
        "evaluate": archive, "score": [*archive, "--input"], "report": archive,
        "compare": ["--config", "--data-dir", "--out"]}


def test_bad_weights_path_exits_3_through_the_module_entry_point(tmp_path):
    # `python -m oodfdd.cli` crosses `sys.exit(main())`, as users do
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "oodfdd.cli", "score", "--dataset", "thyroid",
                           "--weights", str(tmp_path), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_BAD_CONFIG
    assert f"error: {os.strerror(errno.EISDIR)}: {tmp_path}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_data_file_exits_3_naming_file_and_line(tmp_path, thyroid_dir, capsys):
    bad_dir = tmp_path / "data"
    bad_dir.mkdir()
    shutil.copy(os.path.join(thyroid_dir, "ann-test.data"), bad_dir)
    lines = open(os.path.join(thyroid_dir, "ann-train.data"), "rb").read().splitlines(True)
    lines[299] = lines[299].replace(b" ", b"\xa0", 1)
    (bad_dir / "ann-train.data").write_bytes(b"".join(lines))
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", str(bad_dir),
                   "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"error: {bad_dir / 'ann-train.data'} line 300: not UTF-8 text" in err


@pytest.fixture(scope="module")
def mnist_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mnist")
    data.write_mnist_surrogate(d, n_train_per_digit=2, n_test_per_digit=1, seed=0)
    return d


def _corrupt_deflate(path):
    """The gzip of the file at path with its compressed stream overwritten."""
    blob = bytearray(gzip.compress(path.read_bytes()))
    blob[12:16] = b"\xff" * 4
    return bytes(blob)


@pytest.mark.parametrize("name, corrupt", [
    ("train-images-idx3-ubyte", lambda path: path.read_bytes()[:8]),
    ("train-labels-idx1-ubyte", lambda path: path.read_bytes()[:6]),
    ("t10k-labels-idx1-ubyte", lambda path: b"\x1f\x8bgarbage"),  # EOFError
    ("t10k-labels-idx1-ubyte", lambda path: b"\x1f\x8b\x00" + bytes(20)),  # BadGzipFile
    ("t10k-images-idx3-ubyte", _corrupt_deflate),  # zlib.error
], ids=["images-cut-to-8", "labels-cut-to-6", "gzip-eof", "gzip-bad-method", "gzip-bad-deflate"])
def test_corrupt_mnist_file_exits_3_naming_it(tmp_path, mnist_dir, capsys, name, corrupt):
    d = tmp_path / "data"
    shutil.copytree(mnist_dir, d)
    (d / name).write_bytes(corrupt(d / name))
    rc = cli.main(["train", "--dataset", "mnist", "--data-dir", str(d),
                   "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"error: {d / name}: " in err
    assert "Traceback" not in err


def test_gen_data_chiller_creates_no_data_dir(tmp_path, capsys):
    d = tmp_path / "never"
    assert cli.main(["gen-data", "--dataset", "chiller-surrogate", "--data-dir", str(d)]) == 0
    assert "no files to write" in capsys.readouterr().out
    assert not d.exists()


def test_bad_config_exits_3(tmp_path, thyroid_dir):
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--alpha", "1.5", "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    rc = cli.main(["train", "--dataset", "nope"])
    assert rc == cli.EXIT_BAD_CONFIG
    rc = cli.main(["train", "--epochs", "abc"])
    assert rc == cli.EXIT_BAD_CONFIG
    rc = cli.main([])
    assert rc == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_data_cell_exits_3_naming_file_and_line(tmp_path, thyroid_dir, capsys,
                                                          token):
    bad_dir = tmp_path / "data"
    bad_dir.mkdir()
    lines = open(os.path.join(thyroid_dir, "ann-train.data")).read().splitlines()
    cells = lines[9].split()
    cells[0] = token
    lines[9] = " ".join(cells)
    (bad_dir / "ann-train.data").write_text("\n".join(lines) + "\n")
    shutil.copy(os.path.join(thyroid_dir, "ann-test.data"), bad_dir)
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", str(bad_dir),
                   "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"{bad_dir / 'ann-train.data'} line 10: non-finite value" in err


def _evaluate_with_test_cell(tmp_path, thyroid_dir, trained_dir, token):
    """`evaluate` on the thyroid files with column 16 of the first row of
    ann-test.data set to `token`; returns the exit code and the test file."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    shutil.copy(os.path.join(thyroid_dir, "ann-train.data"), data_dir)
    lines = open(os.path.join(thyroid_dir, "ann-test.data")).read().splitlines()
    cells = lines[0].split()
    cells[16] = token
    lines[0] = " ".join(cells)
    (data_dir / "ann-test.data").write_text("\n".join(lines) + "\n")
    rc = cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", str(data_dir),
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--out", str(tmp_path / "o"), *T_SMOKE])
    return rc, data_dir / "ann-test.data"


@pytest.mark.parametrize("token", ["1e200", "-1e300"])
def test_data_cell_beyond_the_bound_exits_3_naming_file_and_line(tmp_path, thyroid_dir,
                                                                 trained_dir, capsys, token):
    rc, path = _evaluate_with_test_cell(tmp_path, thyroid_dir, trained_dir, token)
    assert rc == cli.EXIT_BAD_CONFIG
    assert f"{path} line 1: value {float(token)} beyond ±1e+150" in capsys.readouterr().err


def test_data_cell_at_the_bound_evaluates(tmp_path, thyroid_dir, trained_dir):
    assert data.MAX_INPUT_MAGNITUDE == 1e150
    rc, _ = _evaluate_with_test_cell(tmp_path, thyroid_dir, trained_dir, "1e150")
    assert rc == 0


def test_class_count_is_no_setting(tmp_path, thyroid_dir, capsys):
    # the class count comes from the training labels
    common = ["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
              "--out", str(tmp_path / "o"), *SMOKE]
    assert cli.main([*common, "--n-classes", "3"]) == cli.EXIT_BAD_CONFIG
    assert "--n-classes" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("n_classes = 3\n")
    assert cli.main([*common, "--config", str(config)]) == cli.EXIT_BAD_CONFIG
    assert "unknown config key 'n_classes'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, given, named", [
    ("score", ["--model-kind", "classifier"], ["--model-kind"]),
    ("score", ["--dropout-rate", "0.9"], ["--dropout-rate"]),
    ("score", ["--epochs", "7"], ["--epochs"]),
    ("score", ["--beta", "5"], ["--beta"]),
    ("score", ["--latent-dim", "9"], ["--latent-dim"]),
    ("compare", ["--model-kind", "classifier"], ["--model-kind"]),
    ("gen-data", ["--epochs", "9"], ["--epochs"]),
    ("evaluate", ["--lr", "5"], ["--lr"]),
    ("train", ["--ambiguous-pairs", "3"], ["--ambiguous-pairs"]),
    ("score", ["--config", "epochs = 7"], ["'epochs'", "score"]),
], ids=["score-model-kind", "score-dropout-rate", "score-epochs", "score-beta",
        "score-latent-dim", "compare-model-kind", "gen-data-epochs", "evaluate-lr",
        "train-ambiguous-pairs", "score-config-key"])
def test_setting_the_command_does_not_read_exits_3_naming_it(tmp_path, thyroid_dir,
                                                             trained_dir, capsys, command,
                                                             given, named):
    out = tmp_path / "o"
    if given[0] == "--config":
        config = tmp_path / "run.cfg"
        config.write_text(given[1] + "\n")
        given = ["--config", str(config)]
    argv = [command, "--dataset", "thyroid", *given]
    if command == "gen-data":  # it writes into --data-dir
        argv += ["--data-dir", str(out)]
    else:
        argv += ["--data-dir", thyroid_dir, "--out", str(out)]
    if command in ("evaluate", "score"):
        argv += ["--weights", os.path.join(trained_dir, "augmented.ofdd")]
    if command == "score":
        rows = tmp_path / "rows.csv"
        rows.write_text("0.1,0.2,0.3,0.4,0.5,0.6\n" * 3)
        argv += ["--input", str(rows)]
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert "hidden_widths" not in err
    assert not out.exists()


def test_numeric_failure_exits_4(tmp_path, thyroid_dir):
    # a non-finite lr is a configuration error, but a finite one this large
    # overflows the weights within the first steps
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--lr", "1e300", "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_NUMERIC


def _poisoned(net):
    """`net` with one encoder weight of 1e200: finite, but its reconstruction
    error overflows."""
    net.encoder.dense_layers()[0].weights[0, 0] = 1e200
    return net


@pytest.mark.parametrize("command", ["train", "evaluate", "score"])
def test_overflow_in_a_finite_net_exits_4(tmp_path, thyroid_dir, trained_dir, monkeypatch,
                                          capsys, command):
    net, cal = model.load(os.path.join(trained_dir, "augmented.ofdd"))
    weights = tmp_path / "big.ofdd"
    model.save(_poisoned(net), weights, cal)
    assert model.load(weights)[0].params.tobytes() == net.params.tobytes()  # it loads
    build = experiments.build
    monkeypatch.setattr(experiments, "build", lambda *a, **k: _poisoned(build(*a, **k)))
    extra = [] if command == "train" else ["--weights", str(weights)]
    rc = cli.main([command, "--dataset", "thyroid", "--data-dir", thyroid_dir, *extra,
                   "--out", str(tmp_path / "o"), *(SMOKE if command == "train" else T_SMOKE)])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure: overflow" in capsys.readouterr().err


@pytest.mark.parametrize("flag, raw", [
    ("--n-per-class", "0"), ("--batch-size", "0"), ("--lr", "-1"), ("--lr", "inf"),
    ("--head-widths", "0"), ("--beta", "-1"), ("--ambiguous-pairs", "-1"),
    ("--train-cap-per-class", "0"), ("--hidden-widths", "16,8"), ("--hidden-widths", ""),
    ("--seed", "-1"),
])
def test_out_of_range_setting_exits_3_naming_the_key(tmp_path, capsys, flag, raw):
    rc = cli.main(["compare", "--dataset", "chiller-surrogate", flag, raw,
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be ")
    assert not (tmp_path / "o").exists()


def _score_archive(tmp_path, thyroid_dir, blob):
    weights = tmp_path / "bad.ofdd"
    weights.write_bytes(blob)
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", str(weights), "--out", str(tmp_path / "o"), *T_SMOKE])
    return rc, str(weights)


def test_bad_magic_exits_5(tmp_path, thyroid_dir, trained_dir, capsys):
    blob = open(os.path.join(trained_dir, "augmented.ofdd"), "rb").read()
    rc, weights = _score_archive(tmp_path, thyroid_dir, b"XXXX" + blob[4:])
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert "unreadable weight archive" in err and weights in err and "magic" in err


def test_truncated_archive_exits_5(tmp_path, thyroid_dir, trained_dir, capsys):
    blob = open(os.path.join(trained_dir, "augmented.ofdd"), "rb").read()
    rc, weights = _score_archive(tmp_path, thyroid_dir, blob[:-8])
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert weights in err and "8 bytes early" in err


def test_descriptor_missing_key_exits_5(tmp_path, thyroid_dir, trained_dir, capsys):
    blob = open(os.path.join(trained_dir, "augmented.ofdd"), "rb").read()
    desc_len = int.from_bytes(blob[6:10], "little")
    desc = json.loads(blob[10:10 + desc_len])
    del desc["kind"]
    new_desc = json.dumps(desc).encode("utf-8")
    patched = blob[:6] + len(new_desc).to_bytes(4, "little") + new_desc + blob[10 + desc_len:]
    rc, weights = _score_archive(tmp_path, thyroid_dir, patched)
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert weights in err and "'kind'" in err


def test_non_finite_archive_exits_5(tmp_path, thyroid_dir, trained_dir, capsys):
    net, cal = model.load(os.path.join(trained_dir, "augmented.ofdd"))
    net.params[3] = np.nan
    model.save(net, tmp_path / "nan.ofdd", cal)
    rc, weights = _score_archive(tmp_path, thyroid_dir, (tmp_path / "nan.ofdd").read_bytes())
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert weights in err and "parameter index 3" in err


def _patch_calibration(blob, edit):
    desc_len = int.from_bytes(blob[6:10], "little")
    desc = json.loads(blob[10:10 + desc_len])
    desc["calibration"] = edit(desc["calibration"])
    raw = json.dumps(desc).encode("utf-8")
    return blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + desc_len:]


@pytest.mark.parametrize("edit, message", [
    (lambda c: {**c, "clf_thresholds": [c["clf_thresholds"][0], float("nan")]},
     "classifier threshold nan is not a finite number"),
    (lambda c: {**c, "clf_thresholds": c["clf_thresholds"] * 2}, "4 classifier thresholds for 2"),
    (lambda c: {**c, "rec_threshold": None}, "rec threshold missing"),
], ids=["nan-threshold", "wrong-channel-count", "missing-rec-threshold"])
def test_bad_calibration_exits_5(tmp_path, thyroid_dir, trained_dir, capsys, edit, message):
    blob = open(os.path.join(trained_dir, "augmented.ofdd"), "rb").read()
    rc, weights = _score_archive(tmp_path, thyroid_dir, _patch_calibration(blob, edit))
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert weights in err and message in err


def test_version_1_archive_exits_5(tmp_path, thyroid_dir, trained_dir, capsys):
    blob = open(os.path.join(trained_dir, "augmented.ofdd"), "rb").read()
    rc, weights = _score_archive(tmp_path, thyroid_dir, blob[:4] + b"\x01\x00" + blob[6:])
    assert rc == cli.EXIT_BAD_ARCHIVE
    err = capsys.readouterr().err
    assert weights in err and "version 1" in err and "oodfdd train" in err


def test_train_stores_the_calibration_evaluate_computes(tmp_path, thyroid_dir, trained_dir):
    _, cal = model.load(os.path.join(trained_dir, "augmented.ofdd"))
    assert (cal.alpha, cal.t_samples, cal.seed) == (0.1, 4, 0)
    assert cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                     "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                     "--out", str(tmp_path / "e"), *T_SMOKE]) == 0
    rows = (tmp_path / "e" / "thresholds.csv").read_text().splitlines()[2:]
    stored = [*cal.clf_thresholds, cal.rec_threshold]
    assert [row.split(",")[1] for row in rows] == [f"{v:.6f}" for v in stored]


def test_score_input_reads_no_dataset_and_never_recalibrates(tmp_path, thyroid_dir,
                                                             trained_dir, monkeypatch):
    rows = make_rng(9).normal(size=(25, 6))
    input_path = tmp_path / "rows.csv"
    input_path.write_text("".join(",".join(f"{v:.6f}" for v in r) + "\n" for r in rows))
    common = ["score", "--dataset", "thyroid", "--input", str(input_path),
              "--weights", os.path.join(trained_dir, "augmented.ofdd"), *T_SMOKE]
    assert cli.main([*common, "--data-dir", thyroid_dir, "--out", str(tmp_path / "a")]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("score recalibrated or read a dataset")

    monkeypatch.setattr(detect, "calibrate", forbidden)
    monkeypatch.setattr(detect, "calibrate_thresholds", forbidden)
    monkeypatch.setattr(experiments, "load_dataset_pair", forbidden)
    absent = str(tmp_path / "no-such-dir")
    assert cli.main([*common, "--data-dir", absent, "--out", str(tmp_path / "b")]) == 0
    for name in ("scores.csv", "thresholds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("extra, given, stored", [
    (["--alpha", "0.2"], "alpha 0.2", "alpha 0.1"),
    (["--t-samples", "8"], "t_samples 8", "t_samples 4"),
    (["--seed", "3"], "seed 3", "seed 0"),
    (["--config", "CONFIG"], "alpha 0.25", "alpha 0.1"),
], ids=["alpha-flag", "t-samples-flag", "seed-flag", "alpha-config-file"])
def test_score_rejects_settings_the_archive_contradicts(tmp_path, thyroid_dir, trained_dir,
                                                        capsys, extra, given, stored):
    config = tmp_path / "run.cfg"
    config.write_text("alpha = 0.25\n")
    weights = os.path.join(trained_dir, "augmented.ofdd")
    extra = [str(config) if a == "CONFIG" else a for a in extra]
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", weights, "--out", str(tmp_path / "o"), *T_SMOKE, *extra])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert given in err and stored in err and weights in err


def test_wrong_width_names_file_and_archive(tmp_path, thyroid_dir, trained_dir, capsys):
    rc = _score_input(tmp_path, thyroid_dir, trained_dir, "0.1,0.2\n0.3,0.4\n")
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    weights = os.path.join(trained_dir, "augmented.ofdd")
    assert str(tmp_path / "rows.csv") in err and "has 2 feature columns" in err
    assert weights in err and "input_dim 6" in err


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_dataset_of_another_width_names_it_and_the_archive(tmp_path, trained_dir, capsys,
                                                           command):
    weights = os.path.join(trained_dir, "augmented.ofdd")
    rc = cli.main([command, "--dataset", "chiller-surrogate", "--n-per-class", "104",
                   "--weights", weights, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "chiller-surrogate test data has 16 feature columns" in err
    assert weights in err and "input_dim 6" in err
    assert not (tmp_path / "o").exists()


def test_report_takes_the_latent_width_from_the_archive(tmp_path, thyroid_dir):
    common = ["--dataset", "thyroid", "--data-dir", thyroid_dir]
    assert cli.main(["train", *common, *SMOKE, "--latent-dim", "1", "--hidden-widths", "16,8,1",
                     "--out", str(tmp_path / "t")]) == 0
    rc = cli.main(["report", *common, *T_SMOKE,
                   "--weights", str(tmp_path / "t" / "augmented.ofdd"),
                   "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "lda_augmented.svg" in _manifest_entries(tmp_path / "r")
    # one discriminant direction plots every point on one horizontal line
    svg = (tmp_path / "r" / "lda_augmented.svg").read_text()
    cys = {line.split('cy="')[1].split('"')[0] for line in svg.splitlines()
           if line.startswith("<circle")}
    assert len(cys) == 1


def test_report_projects_an_empty_out_of_distribution_split(tmp_path):
    # MNIST files whose test split holds no unknown digit
    d = tmp_path / "mnist"
    d.mkdir()
    data.write_mnist_surrogate(d, n_train_per_digit=60, n_test_per_digit=3, seed=0)
    images, labels = (data.read_idx(d / f"t10k-{kind}-idx{n}-ubyte")
                      for kind, n in (("images", 3), ("labels", 1)))
    known = ~np.isin(labels, data.MNIST_UNKNOWN_DIGITS)
    data.write_idx_images(d / "t10k-images-idx3-ubyte", images[known])
    data.write_idx_labels(d / "t10k-labels-idx1-ubyte", labels[known])
    common = ["--dataset", "mnist", "--data-dir", str(d)]
    assert cli.main(["train", *common, *SMOKE, "--out", str(tmp_path / "t")]) == 0
    rc = cli.main(["report", *common, *T_SMOKE,
                   "--weights", str(tmp_path / "t" / "augmented.ofdd"),
                   "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "lda_augmented.svg" in _manifest_entries(tmp_path / "r")
    assert ">ood</text>" not in (tmp_path / "r" / "lda_augmented.svg").read_text()


def _score_input(tmp_path, thyroid_dir, trained_dir, text):
    input_path = tmp_path / "rows.csv"
    input_path.write_bytes(text.encode() if isinstance(text, str) else text)
    return cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                     "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                     "--input", str(input_path), "--out", str(tmp_path / "o"), *T_SMOKE])


def test_score_names_short_row(tmp_path, thyroid_dir, trained_dir, capsys):
    rc = _score_input(tmp_path, thyroid_dir, trained_dir,
                      "0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,0.3\n")
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "data row 2 has 3 cells, expected 6" in err


_ROW = b"0.1,0.2,0.3,0.4,0.5,0.6\n"


@pytest.mark.parametrize("content, needle", [
    (_ROW + b"0.1,0.2,0.3,0.4,0.5,0.6,0.7\n", "data row 2 has 7 cells, expected 6"),
    (_ROW + b"1" * 131073 + b",2,3,4,5,6\n", "field larger than field limit"),
    (_ROW + b"0.1,0.2,\xff,0.4,0.5,0.6\n", "codec can't decode byte 0xff"),
], ids=["extra-cell", "huge-field", "not-utf8"])
def test_score_rejects_malformed_input_file(tmp_path, thyroid_dir, trained_dir, capsys,
                                            content, needle):
    rc = _score_input(tmp_path, thyroid_dir, trained_dir, content)
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path / "rows.csv") in err and needle in err


def test_score_names_non_numeric_cell(tmp_path, thyroid_dir, trained_dir, capsys):
    header = ",".join(f"feature_{j}" for j in range(6))
    rc = _score_input(tmp_path, thyroid_dir, trained_dir,
                      f"{header}\n0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,0.3,oops,0.5,0.6\n")
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "non-numeric value 'oops' in data row 2, column 'feature_3'" in err


def test_evaluate_and_score_write_identical_thresholds(tmp_path, thyroid_dir, trained_dir,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("recalibrated")

    monkeypatch.setattr(detect, "calibrate", refuse)
    monkeypatch.setattr(detect, "calibrate_thresholds", refuse)
    common = ["--dataset", "thyroid", "--data-dir", thyroid_dir,
              "--weights", os.path.join(trained_dir, "augmented.ofdd"), *T_SMOKE]
    assert cli.main(["evaluate", *common, "--out", str(tmp_path / "e")]) == 0
    assert cli.main(["score", *common, "--out", str(tmp_path / "s")]) == 0
    evaluated = (tmp_path / "e" / "thresholds.csv").read_bytes()
    assert evaluated == (tmp_path / "s" / "thresholds.csv").read_bytes()
    assert b"clf1," in evaluated and b"rec," in evaluated


def test_evaluate_rejects_settings_that_differ_from_the_archive(tmp_path, thyroid_dir,
                                                                trained_dir, capsys):
    rc = cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"), *T_SMOKE,
                   "--seed", "5", "--alpha", "0.3", "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "retrain to change it" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_evaluate_takes_t_samples_and_seed_from_the_archive(tmp_path, thyroid_dir,
                                                            trained_dir):
    common = ["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
              "--weights", os.path.join(trained_dir, "augmented.ofdd")]
    assert cli.main([*common, "--out", str(tmp_path / "archive")]) == 0
    assert cli.main([*common, "--t-samples", "4", "--seed", "0",
                     "--out", str(tmp_path / "given")]) == 0
    for name in ("metrics.csv", "thresholds.csv"):
        assert (tmp_path / "archive" / name).read_bytes() == \
            (tmp_path / "given" / name).read_bytes()


def test_score_rejects_non_finite_input(tmp_path, thyroid_dir, trained_dir, capsys):
    input_path = tmp_path / "nan.csv"
    input_path.write_text("0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,nan,0.4,0.5,0.6\n")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--input", str(input_path), "--out", str(tmp_path / "o"), *T_SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "non-finite" in err and "row 2" in err and "column 3" in err


@pytest.mark.parametrize("cell", ["1e200", "-1e300"])
def test_score_rejects_input_beyond_the_bound(tmp_path, thyroid_dir, trained_dir, capsys,
                                              cell):
    rc = _score_input(tmp_path, thyroid_dir, trained_dir,
                      f"0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,{cell},0.4,0.5,0.6\n")
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"value {float(cell)} beyond" in err and "data row 2, column 3" in err


def test_score_takes_input_at_the_bound(tmp_path, thyroid_dir, trained_dir):
    assert data.MAX_INPUT_MAGNITUDE == 1e150
    rc = _score_input(tmp_path, thyroid_dir, trained_dir,
                      "1e150,-1e150,1e150,-1e150,1e150,-1e150\n")
    assert rc == 0


def test_config_file_and_flag_precedence(tmp_path, thyroid_dir):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment settings\n"
        "dataset = thyroid\n"
        "alpha = 0.2\n"
        "latent_dim = 3\n"
        "hidden_widths = 16,8,3\n"
        "head_widths = 4,4\n"
    )
    args = cli.make_parser().parse_args(
        ["train", "--config", str(config), "--alpha", "0.3"])
    cfg = cli.build_config(args)
    assert cfg.dataset == "thyroid"
    assert cfg.alpha == 0.3  # flag beats file
    assert cfg.latent_dim == 3
    assert cfg.head_widths == [4, 4]


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("latent_dim = asdf\n")
    args = cli.make_parser().parse_args(["train", "--config", str(bad)])
    with pytest.raises(cli.ConfigError):
        cli.build_config(args)
    bad.write_text("mystery_key = 1\n")
    args = cli.make_parser().parse_args(["train", "--config", str(bad)])
    with pytest.raises(cli.ConfigError):
        cli.build_config(args)
    bad.write_text("no equals sign here\n")
    args = cli.make_parser().parse_args(["train", "--config", str(bad)])
    with pytest.raises(cli.ConfigError):
        cli.build_config(args)
    bad.write_bytes(b"seed = 1\n# caf\xe9\n")
    args = cli.make_parser().parse_args(["train", "--config", str(bad)])
    with pytest.raises(cli.ConfigError, match=f"{bad}:2: not UTF-8 text"):
        cli.build_config(args)
    # a missing file is the OS's error, which `cli.main` turns into exit 2
    args = cli.make_parser().parse_args(["train", "--config", str(tmp_path / "absent.cfg")])
    with pytest.raises(FileNotFoundError):
        cli.build_config(args)


_HINTS = typing.get_type_hints(experiments.ExperimentConfig)
_STR_SAMPLES = {"dataset": "mnist", "decoder_activation": "sigmoid"}


def _sample_setting(name):
    """(raw text, typed value) for a field, unlike the thyroid default."""
    hint = _HINTS[name]
    if hint is str:
        return _STR_SAMPLES[name], _STR_SAMPLES[name]
    if hint is int:
        return "7", 7
    if hint is float:
        return "0.25", 0.25
    return " 3, 2 ", [3, 2]  # width lists: list and list | None; ends at latent_dim 2


# a latent_dim unlike the default needs an encoder layout that ends at it
_COMPANIONS = {"latent_dim": {"hidden_widths": "16,8,7"}}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
    experiments.ExperimentConfig)])
def test_every_setting_is_a_flag_and_a_config_key_with_one_type(tmp_path, name):
    # train reads every setting but the mnist interpolation count
    command = "compare" if name == "ambiguous_pairs" else "train"
    raw, value = _sample_setting(name)
    settings = {name: raw, **_COMPANIONS.get(name, {})}
    config = tmp_path / "one.cfg"
    config.write_text("".join(f"{key} = {text}\n" for key, text in settings.items()))
    flags = [tok for key, text in settings.items()
             for tok in ("--" + key.replace("_", "-"), text)]
    parser = cli.make_parser()
    by_flag = cli.build_config(parser.parse_args([command, *flags]))
    by_file = cli.build_config(parser.parse_args([command, "--config", str(config)]))
    assert getattr(experiments.config_for("thyroid"), name) != value
    assert getattr(by_flag, name) == value and type(getattr(by_flag, name)) is type(value)
    assert by_flag == by_file


@pytest.mark.parametrize("name, raw, wants", [
    ("epochs", "abc", "an integer"),
    ("seed", "1.5", "an integer"),
    ("lr", "fast", "a number"),
    ("head_widths", "4,x", "comma-separated integers"),
    ("hidden_widths", "16;8;2", "comma-separated integers"),
])
@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_malformed_setting_exits_3_naming_the_key(tmp_path, capsys, name, raw, wants, source):
    if source == "flag":
        given = ["--" + name.replace("_", "-"), raw]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{name} = {raw}\n")
        given = ["--config", str(config)]
    rc = cli.main(["train", "--data-dir", str(tmp_path / "absent"), *given])
    assert rc == cli.EXIT_BAD_CONFIG
    assert f"config key {name} wants {wants}, got {raw!r}" in capsys.readouterr().err


_BASE_OPTIONS = {"-h", "--help", "--config", "--data-dir"}
# what evaluate, score and report read besides the archive: the split
# settings, and the calibration settings, which must agree with it
_ARCHIVE_OPTIONS = _BASE_OPTIONS | {
    "--dataset", "--n-per-class", "--train-fraction", "--train-cap-per-class",
    "--alpha", "--t-samples", "--seed", "--out", "--weights",
}
_ALL_SETTINGS = {
    "--dataset", "--latent-dim", "--hidden-widths", "--head-widths",
    "--dropout-rate", "--decoder-activation", "--alpha", "--t-samples",
    "--seed", "--beta", "--epochs", "--pretrain-epochs", "--batch-size", "--lr",
    "--n-per-class", "--train-fraction", "--train-cap-per-class", "--ambiguous-pairs",
}


def test_subcommand_options_are_unchanged():
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings}
               for name, p in sub.choices.items()}
    assert options == {
        "gen-data": _BASE_OPTIONS | {"--dataset", "--seed"},
        "train": _BASE_OPTIONS | _ALL_SETTINGS - {"--ambiguous-pairs"}
        | {"--model-kind", "--out"},
        "evaluate": _ARCHIVE_OPTIONS,
        "score": _ARCHIVE_OPTIONS | {"--input"},
        "report": _ARCHIVE_OPTIONS,
        "compare": _BASE_OPTIONS | _ALL_SETTINGS | {"--out"},
    }
    settings = sum(len(options[name] - _BASE_OPTIONS - {"--out", "--weights", "--input"})
                   for name in options)
    assert settings == 59
    # the argv shapes the benchmark sends keep parsing: its set-up ...
    args = parser.parse_args(["gen-data", "--dataset", "thyroid", "--seed", "0",
                              "--data-dir", "d"])
    assert (args.command, args.dataset, args.seed, args.data_dir) == ("gen-data", "thyroid",
                                                                       0, "d")
    args = parser.parse_args(["train", "--dataset", "thyroid", "--seed", "0", "--data-dir", "d",
                              "--model-kind", "augmented", "--out", "m"])
    assert (args.dataset, args.seed, args.data_dir, args.out) == ("thyroid", 0, "d", "m")
    assert args.model_kind is model.ModelKind.AUGMENTED
    # ... and its serving request
    args = parser.parse_args(["score", "--dataset", "thyroid", "--seed", "0",
                              "--data-dir", "d", "--weights", "w", "--input", "i"])
    assert (args.dataset, args.seed, args.data_dir) == ("thyroid", 0, "d")


def test_main_calls_in_one_process_parse_independently(monkeypatch):
    seen = []

    def capture(args):
        seen.append(vars(args).copy())
        raise cli.ConfigError("stop after parsing")

    monkeypatch.setattr(cli, "build_config", capture)
    assert cli.main(["train", "--alpha", "0.3", "--seed", "5", "--out", "a"]) == 3
    assert cli.main(["score", "--weights", "w"]) == 3
    first, second = seen
    assert (first["command"], first["alpha"], first["seed"], first["out"]) == (
        "train", 0.3, 5, "a")
    assert (second["command"], second["alpha"], second["seed"], second["out"]) == (
        "score", None, None, "out")
    assert second["weights"] == "w" and "weights" not in first
    assert cli.make_parser() is cli.make_parser()


def _old_score_table(s):
    """scores.csv's header and rows built from numpy cells, one np.nonzero
    per row for the label sets."""
    header, columns = [], []
    if s.clf is not None:
        header += [f"score_{j}" for j in range(s.clf.shape[1])] + ["labels", "flagged"]
        label_strs = ["|".join(str(j) for j in np.nonzero(row)[0]) for row in s.b]
        columns += [*s.clf.T, label_strs, s.z.astype(int)]
    if s.rec is not None:
        header += ["rec_score", "rec_flagged"]
        columns += [s.rec, s.rec_flags.astype(int)]
    return header, zip(*columns)


@pytest.mark.parametrize("pathways", ["both", "classifier", "reconstruction"])
def test_score_table_writes_the_bytes_of_the_numpy_cells(tmp_path, pathways):
    rng = make_rng(18)
    n, c = 300, 4
    # scores over many magnitudes, with signed zeros and six-decimal ties
    clf = rng.normal(0, 1, (n, c)) * 10.0 ** rng.integers(-9, 9, (n, c))
    clf.flat[:6] = [0.0, -0.0, 0.0000005, 2.5e-7, -1.0000005, 123.4565]
    rec = rng.exponential(1.0, n) * 10.0 ** rng.integers(-9, 9, n)
    b = rng.random((n, c)) < 0.3
    s = SimpleNamespace(clf=None, b=None, z=None, rec=None, rec_flags=None)
    if pathways != "reconstruction":
        s.clf, s.b, s.z = clf, b, b.any(axis=1)
    if pathways != "classifier":
        s.rec, s.rec_flags = rec, rec > 1.0
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    report.emit_csv(*cli.score_table(s), new)
    report.emit_csv(*_old_score_table(s), old)
    assert new.read_bytes() == old.read_bytes()


def test_unknown_decoder_activation_fails_at_config_time(tmp_path, capsys):
    config = tmp_path / "act.cfg"
    config.write_text("decoder_activation = tanh\n")
    rc = cli.main(["train", "--config", str(config), "--data-dir", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "decoder_activation 'tanh'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_takes_seed_and_t_samples_from_the_archive(tmp_path, thyroid_dir, capsys):
    smoke = ["--epochs", "2", "--pretrain-epochs", "1", "--batch-size", "256"]
    common = ["--dataset", "thyroid", "--data-dir", thyroid_dir]
    assert cli.main(["train", *common, *smoke, "--seed", "3", "--t-samples", "4",
                     "--out", str(tmp_path / "t")]) == 0
    common += ["--weights", str(tmp_path / "t" / "augmented.ofdd")]
    assert cli.main(["report", *common, "--out", str(tmp_path / "archive")]) == 0
    assert cli.main(["report", *common, "--seed", "3", "--t-samples", "4",
                     "--out", str(tmp_path / "given")]) == 0
    archive = _manifest_entries(tmp_path / "archive")
    assert archive == _manifest_entries(tmp_path / "given")
    assert "score_matrix.csv" in archive
    capsys.readouterr()
    rc = cli.main(["report", *common, "--seed", "5", "--t-samples", "7",
                   "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "t_samples 7 was given" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["evaluate", "score", "report"])
def test_archive_commands_read_the_config_file_once(monkeypatch, tmp_path, thyroid_dir,
                                                    trained_dir, command):
    reads = []
    real = cli.load_config_file

    def counted(path, name):
        reads.append(path)
        return real(path, name)

    monkeypatch.setattr(cli, "load_config_file", counted)
    rows = tmp_path / "rows.csv"
    rows.write_text("0,0,0,0,0,0\n1,1,1,1,1,1\n")
    extra = ["--input", str(rows)] if command == "score" else []
    weights = os.path.join(trained_dir, "augmented.ofdd")
    config = tmp_path / "run.cfg"
    # the archive's t_samples passes its check; another fails it, read from
    # the same one parse
    for t_samples, rc in ((4, 0), (7, cli.EXIT_BAD_CONFIG)):
        config.write_text(f"dataset = thyroid\nt_samples = {t_samples}\n")
        reads.clear()
        assert cli.main([command, "--config", str(config), "--data-dir", thyroid_dir,
                         "--weights", weights, "--out", str(tmp_path / "out"), *extra]) == rc
        assert reads == [str(config)]


def test_importing_the_cli_loads_no_network_or_xml_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email
    heavy = ["ssl", "http.client", "urllib.request", "email", "xml.sax"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, oodfdd.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_read_input_csv_variants(tmp_path):
    with_header = tmp_path / "h.csv"
    with_header.write_text("feature_0,feature_1,label,group\n1.0,2.0,0,normal\n")
    x = cli._read_input_csv(str(with_header))
    assert x.shape == (1, 2) and x[0, 1] == 2.0
    headerless = tmp_path / "r.csv"
    headerless.write_text("1.0,2.0\n3.0,4.0\n")
    x = cli._read_input_csv(str(headerless))
    assert x.shape == (2, 2) and x[1, 0] == 3.0
    malformed = tmp_path / "m.csv"
    malformed.write_text("a,b\n1.0,oops\n")
    with pytest.raises(cli.ConfigError):
        cli._read_input_csv(str(malformed))
    with pytest.raises(FileNotFoundError):
        cli._read_input_csv(str(tmp_path / "absent.csv"))
    infinite = tmp_path / "i.csv"
    infinite.write_text("feature_0,feature_1\n1.0,2.0\n-inf,4.0\n")
    with pytest.raises(cli.ConfigError, match="data row 2, column 'feature_0'"):
        cli._read_input_csv(str(infinite))


def test_read_input_csv_rejects_extra_cells(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2,3\n4,5,6,7\n")
    with pytest.raises(cli.ConfigError,
                       match="data row 2 has 4 cells, expected 3 like the first row"):
        cli._read_input_csv(str(path))
    path.write_text("feature_0,feature_1,label\n1,2,0\n3,4,0,extra\n")
    with pytest.raises(cli.ConfigError,
                       match="data row 2 has 4 cells, expected 3 like the header"):
        cli._read_input_csv(str(path))


# cells that stress the reader: non-finite spellings, quotes, NULs, separators
# inside cells, and fields longer than the csv module's 131072-character limit
_ODD_CELLS = ["nan", "-inf", "Infinity", "1e999", "", " ", "oops", "feature_0", "label",
              '"1.5"', '"2,5"', '"unterminated', 'a"b', "\x00", "1\x002", "1_0", "0x1p3",
              "1" * 400, "1" * 131073, "0." + "0" * 140000 + "1"]
# characters that matter to a number or CSV parser, next to arbitrary text
_ALPHABET = st.sampled_from(list("0123456789.+-eEinfa ,;\"'\t\x00\u00e9\u20ac\U0001f600"))
_CELL = st.one_of(st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
                  st.sampled_from(_ODD_CELLS), st.text(_ALPHABET, max_size=4),
                  st.text(max_size=4))
_ROWS = st.lists(st.lists(_CELL, min_size=1, max_size=5), min_size=1, max_size=6)


@st.composite
def _csv_bytes(draw):
    rows = draw(_ROWS)
    if draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(["feature_0", "feature_1", "feature_2",
                                                "label", "group", ""]),
                               min_size=1, max_size=5))
        rows = [header] + rows
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(",".join(row) for row in rows).encode()


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@given(content=st.one_of(st.binary(max_size=300), _csv_bytes()))
def test_read_input_csv_fuzz_returns_finite_matrix_or_config_error(tmp_path_factory,
                                                                    content):
    path = tmp_path_factory.mktemp("fuzz") / "rows.csv"
    path.write_bytes(content)
    try:
        x = cli._read_input_csv(str(path))
    except cli.ConfigError as exc:
        assert str(path) in str(exc)
        return
    assert x.dtype == np.float64 and x.ndim == 2 and np.isfinite(x).all()
    assert (np.abs(x) <= data.MAX_INPUT_MAGNITUDE).all()
    # the file parses, has no ragged row, and x holds its feature columns
    rows = [r for r in csv.reader(io.StringIO(content.decode("utf-8"), newline="")) if r]
    header = rows[0]
    assert all(len(row) == len(header) for row in rows)
    headerless = all(_is_number(cell) for cell in header)
    assert len(x) == len(rows) - (not headerless) >= 1
    assert x.shape[1] == (sum(c.startswith("feature_") for c in header) or len(header))
