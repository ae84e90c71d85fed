"""CLI behavior: config precedence, exit codes, artifacts, determinism."""

import filecmp
import json
import os

import numpy as np
import pytest

from oodfdd import cli, data


SMOKE = ["--epochs", "2", "--pretrain-epochs", "1", "--t-samples", "4",
         "--batch-size", "256"]


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
                   "--out", out, *SMOKE])
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
                   "--out", out, *SMOKE])
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
                   "--input", str(input_path), "--out", out, *SMOKE])
    assert rc == 0
    lines = open(os.path.join(out, "scores.csv")).read().splitlines()
    assert len(lines) == 1 + 3


def test_score_rejects_wrong_width(tmp_path, thyroid_dir, trained_dir):
    input_path = tmp_path / "narrow.csv"
    input_path.write_text("0.1,0.2\n")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--input", str(input_path), "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG


def test_report_emits_figures(tmp_path, thyroid_dir, trained_dir):
    out = str(tmp_path / "report")
    rc = cli.main(["report", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--out", out, *SMOKE])
    assert rc == 0
    names = set(_manifest_entries(out))
    assert "lda_augmented.svg" in names
    assert "score_matrix.csv" in names
    assert {"hist_normal.csv", "hist_fault_1.csv", "hist_incipient_1_1.csv"} <= names
    svg = open(os.path.join(out, "lda_augmented.svg")).read()
    assert svg.startswith("<?xml") and "</svg>" in svg
    matrix = open(os.path.join(out, "score_matrix.csv")).read().splitlines()
    assert matrix[0] == "group,score_0,score_1"


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


def test_gen_data_roundtrip(tmp_path):
    d = str(tmp_path / "gen")
    rc = cli.main(["gen-data", "--dataset", "thyroid", "--data-dir", d])
    assert rc == 0
    assert os.path.exists(os.path.join(d, "ann-train.data"))
    assert os.path.exists(os.path.join(d, "ann-test.data"))
    rc = cli.main(["gen-data", "--dataset", "chiller-surrogate", "--data-dir", d])
    assert rc == 0


def test_missing_data_exits_2(tmp_path):
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir",
                   str(tmp_path / "nope"), "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_MISSING_DATA


def test_missing_weights_exits_2(tmp_path, thyroid_dir):
    rc = cli.main(["evaluate", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", str(tmp_path / "nope.ofdd"),
                   "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_MISSING_DATA


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


def test_numeric_failure_exits_4(tmp_path, thyroid_dir):
    rc = cli.main(["train", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--lr", "inf", "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_NUMERIC


def _score_archive(tmp_path, thyroid_dir, blob):
    weights = tmp_path / "bad.ofdd"
    weights.write_bytes(blob)
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", str(weights), "--out", str(tmp_path / "o"), *SMOKE])
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


def test_score_rejects_non_finite_input(tmp_path, thyroid_dir, trained_dir, capsys):
    input_path = tmp_path / "nan.csv"
    input_path.write_text("0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,nan,0.4,0.5,0.6\n")
    rc = cli.main(["score", "--dataset", "thyroid", "--data-dir", thyroid_dir,
                   "--weights", os.path.join(trained_dir, "augmented.ofdd"),
                   "--input", str(input_path), "--out", str(tmp_path / "o"), *SMOKE])
    assert rc == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "non-finite" in err and "row 2" in err and "column 3" in err


def test_config_file_and_flag_precedence(tmp_path, thyroid_dir):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment settings\n"
        "dataset = thyroid\n"
        "alpha = 0.2\n"
        "latent_dim = 3\n"
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
    args = cli.make_parser().parse_args(["train", "--config", str(tmp_path / "absent.cfg")])
    with pytest.raises(cli.ConfigError):
        cli.build_config(args)


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
