"""Command line driver for the fault-detection experiments.

Subcommands cover the full workflow: generate surrogate data files, train a
single model, evaluate stored weights, score arbitrary rows, emit report
figures, and run the three-way model comparison. Every number the CLI
prints or writes is recomputable by calling the library with the same seed;
the CLI holds no state of its own beyond the artifact files it writes.

`train` calibrates the detection thresholds once, on the training normals,
and stores them in the weight archive with alpha, t_samples and the seed.
`evaluate` and `score` score from that record and never recalibrate:
`evaluate` splits the data with the archive's seed, and `score --input`
reads no dataset file.

Exit codes: 0 success, 2 missing data path, 3 bad configuration or usage
(including an input CSV that is not UTF-8 or not parseable as CSV, a data
row with more or fewer cells than the header, a non-numeric or non-finite
cell, input rows whose width differs from the archive's input_dim, and a
`--alpha`, `--t-samples` or `--seed` given to `evaluate` or `score` that
differs from the archive's), 4 numeric failure during training or
evaluation, 5 unreadable weight archive (a non-finite parameter or
threshold, an invalid calibration record and a version-1 archive included).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from . import data, experiments, model, report, train
from .detect import ThresholdSet
from .experiments import MODEL_ORDER, ExperimentConfig
from .nncore import NonFiniteError, derive_rng
from .uncertainty import mc_sample, write_histogram_csv

EXIT_MISSING_DATA = 2
EXIT_BAD_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_BAD_ARCHIVE = 5


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on usage errors; that code is reserved for
    # missing data here, so route usage problems through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


_INT_KEYS = frozenset({
    "latent_dim", "n_classes", "t_samples", "seed", "epochs", "pretrain_epochs",
    "batch_size", "n_per_class", "train_cap_per_class", "ambiguous_pairs",
})
_FLOAT_KEYS = frozenset({"dropout_rate", "alpha", "beta", "lr", "train_fraction"})
_LIST_KEYS = frozenset({"hidden_widths", "head_widths"})
_STR_KEYS = frozenset({"dataset", "model_kind", "decoder_activation"})
ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS


def _parse_width_list(raw: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}")


def parse_config_value(key: str, raw: str):
    raw = raw.strip()
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key} wants an integer, got {raw!r}")
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key} wants a number, got {raw!r}")
    if key in _LIST_KEYS:
        return _parse_width_list(raw)
    if key in _STR_KEYS:
        return raw
    raise ConfigError(f"unknown config key {key!r}")


def load_config_file(path) -> dict:
    """Flat key = value format; blank lines and # comments are ignored."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            values[key] = parse_config_value(key, raw)
    return values


def given_settings(args) -> dict:
    """Settings given explicitly, by the config file or by flags (flags win)."""
    given = load_config_file(args.config) if args.config else {}
    for key in sorted(ALL_KEYS):
        flag_val = getattr(args, key, None)
        if flag_val is None:
            continue
        if key in _LIST_KEYS and isinstance(flag_val, str):
            flag_val = _parse_width_list(flag_val)
        given[key] = flag_val
    return given


def build_config(args) -> ExperimentConfig:
    """Dataset defaults, overridden by the config file, overridden by flags."""
    overrides = given_settings(args)
    dataset = overrides.pop("dataset", None) or "thyroid"
    try:
        return experiments.config_for(dataset, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, names) -> str:
    """sha256sum-compatible listing of every artifact in the output directory."""
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        for name in sorted(names):
            fh.write(f"{_sha256(os.path.join(out_dir, name))}  {name}\n")
    return path


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_weights(path) -> tuple[model.PathwayNetwork, model.Calibration]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"weights archive not found: {path}")
    try:
        return model.load(path)
    except model.ArchiveError as exc:
        raise model.ArchiveError(f"{path}: {exc}") from exc


def _stream_for(net: model.PathwayNetwork) -> int:
    # keeps single-model commands on the same MC draws as cmd_compare
    return MODEL_ORDER.index(net.kind.value)


def cmd_gen_data(cfg, args) -> int:
    root = experiments.resolve_data_dir(args.data_dir)
    os.makedirs(root, exist_ok=True)
    if cfg.dataset == "thyroid":
        written = data.write_thyroid_surrogate(root, seed=cfg.seed)
        for name in sorted(written):
            print(f"wrote {written[name]}")
    elif cfg.dataset == "mnist":
        written = data.write_mnist_surrogate(root, seed=cfg.seed)
        for name in sorted(written):
            print(f"wrote {written[name]}")
    else:
        print("chiller surrogate is generated in-process at run time; no files to write")
    return 0


def cmd_train(cfg, args) -> int:
    train_ds, _ = experiments.load_dataset_pair(cfg, args.data_dir)
    net, history = experiments.train_one(cfg, train_ds)
    thr = experiments.calibrate_normals(net, train_ds.X[train_ds.y == 0], cfg,
                                        _stream_for(net))
    out = _out_dir(args)
    weights_name = f"{cfg.model_kind}.ofdd"
    model.save(net, os.path.join(out, weights_name),
               model.Calibration(thr.alpha, cfg.t_samples, cfg.seed,
                                 thr.clf_thresholds, thr.rec_threshold))
    train.write_history_csv(history, os.path.join(out, "history.csv"))
    write_manifest(out, [weights_name, "history.csv"])
    final = history[-1]
    print(f"trained {cfg.model_kind} on {cfg.dataset}: {len(history)} epochs, "
          f"final total loss {final.total_loss:.6f}")
    print(f"weights: {os.path.join(out, weights_name)}")
    return 0


def _archive_thresholds(args) -> tuple[model.PathwayNetwork, model.Calibration, ThresholdSet]:
    """The archived net, its calibration record (checked against the
    settings given) and the thresholds it stores."""
    net, cal = _load_weights(args.weights)
    _check_archive_settings(args, cal)
    return net, cal, ThresholdSet(cal.clf_thresholds, cal.rec_threshold, cal.alpha)


def cmd_evaluate(cfg, args) -> int:
    net, cal, thresholds = _archive_thresholds(args)
    cfg = replace(cfg, seed=cal.seed, t_samples=cal.t_samples)
    _, eval_ds = experiments.load_dataset_pair(cfg, args.data_dir)
    ev = experiments.evaluate_model(net, thresholds, eval_ds, cfg, stream=_stream_for(net))
    out = _out_dir(args)
    ev.report.to_csv(os.path.join(out, "metrics.csv"))
    ev.thresholds.to_csv(os.path.join(out, "thresholds.csv"))
    write_manifest(out, ["metrics.csv", "thresholds.csv"])
    for group, acc in ev.report.binary_acc.items():
        diag = ev.report.diag_acc.get(group)
        extra = "" if diag is None else f"  diagnostic {diag:.3f}"
        print(f"{group}: binary {acc:.3f}{extra}")
    return 0


def _read_input_csv(path) -> np.ndarray:
    """Feature rows from a UTF-8 CSV; uses feature_* columns when the header
    has them, otherwise every column is taken as a feature.

    Every data row must have as many cells as the header (as the first row,
    without a header), and every feature cell must be a finite number.  Any
    other file is a ConfigError that names it.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no rows")
    header = rows[0]
    try:
        [float(tok) for tok in header]
        headerless = True
    except ValueError:
        headerless = False
    feature_cols = [i for i, name in enumerate(header) if name.startswith("feature_")]
    if headerless or not feature_cols:
        feature_cols = list(range(len(header)))
    body = rows if headerless else rows[1:]

    def column(j: int) -> str:
        return f"column {j + 1}" if headerless else f"column {header[feature_cols[j]]!r}"

    x = np.empty((len(body), len(feature_cols)))
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise ConfigError(
                f"{path}: data row {r + 1} has {len(row)} cells, expected {len(header)} "
                f"like {'the first row' if headerless else 'the header'}")
        for j, i in enumerate(feature_cols):
            try:
                x[r, j] = float(row[i])
            except ValueError:
                raise ConfigError(f"{path}: non-numeric value {row[i]!r} in data row "
                                  f"{r + 1}, {column(j)}") from None
    if x.size == 0:
        raise ConfigError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        row, col = bad[0]
        raise ConfigError(
            f"{path}: non-finite value {x[row, col]} in data row {row + 1}, {column(col)}")
    return x


def _check_archive_settings(args, cal: model.Calibration) -> None:
    """An explicitly given alpha, t_samples or seed must match the archive's."""
    given = given_settings(args)
    for key in ("alpha", "t_samples", "seed"):
        if key in given and given[key] != getattr(cal, key):
            raise ConfigError(
                f"{key} {given[key]} was given, but archive {args.weights} was "
                f"calibrated with {key} {getattr(cal, key)}; retrain to change it")


def cmd_score(cfg, args) -> int:
    net, cal, thresholds = _archive_thresholds(args)
    if args.input:
        x = _read_input_csv(args.input)
        source = f"input {args.input}"
    else:
        # default rows are the calibration normals, so the printed flag rate
        # lands near alpha by construction
        train_ds, _ = experiments.load_dataset_pair(replace(cfg, seed=cal.seed),
                                                    args.data_dir)
        x = train_ds.X[train_ds.y == 0]
        source = f"{cfg.dataset} training data"
    if x.shape[1] != net.input_dim:
        raise ConfigError(f"{source} has {x.shape[1]} feature columns, but archive "
                          f"{args.weights} has input_dim {net.input_dim}")

    s = experiments.score_rows(net, x, thresholds, cal.t_samples, cal.seed, _stream_for(net))

    header = []
    columns = []
    if s.clf is not None:
        header += [f"score_{j}" for j in range(s.clf.shape[1])] + ["labels", "flagged"]
        label_strs = ["|".join(str(j) for j in np.nonzero(row)[0]) for row in s.b]
        columns += [*s.clf.T, label_strs, s.z.astype(int)]
    if s.rec is not None:
        header += ["rec_score", "rec_flagged"]
        columns += [s.rec, s.rec_flags.astype(int)]
    flagged = s.z if s.z is not None else s.rec_flags

    out = _out_dir(args)
    scores_path = os.path.join(out, "scores.csv")
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(x)):
            row = []
            for col in columns:
                v = col[i]
                row.append(v if isinstance(v, (str, int, np.integer)) else f"{v:.6f}")
            writer.writerow(row)
    thresholds.to_csv(os.path.join(out, "thresholds.csv"))
    write_manifest(out, ["scores.csv", "thresholds.csv"])
    print(f"scored {len(x)} rows; flag rate {float(np.mean(flagged)):.4f}")
    return 0


def _safe_name(tag: str) -> str:
    return tag.replace(":", "_").replace(".", "p")


def cmd_report(cfg, args) -> int:
    net, _ = _load_weights(args.weights)
    train_ds, eval_ds = experiments.load_dataset_pair(cfg, args.data_dir)
    out = _out_dir(args)
    names = []

    # discriminant projection fitted on in-distribution test rows only;
    # anything out of distribution is projected through the fitted map
    in_dist = np.array([not data.is_ood_tag(g) for g in eval_ds.group])
    z_in = experiments.latents(net, eval_ds.X[in_dist])
    z_ood = experiments.latents(net, eval_ds.X[~in_dist])
    labels_in = eval_ds.y[in_dist]
    out_dims = 2 if cfg.latent_dim >= 2 else 1
    proj = report.lda_project(z_in, labels_in, out_dims=out_dims)
    pts_in = proj.points
    pts_ood = proj.transform(z_ood) if len(z_ood) else np.zeros((0, out_dims))
    if out_dims == 1:
        pad = np.zeros((len(pts_in), 1))
        pts_in = np.hstack([pts_in, pad])
        pts_ood = np.hstack([pts_ood, np.zeros((len(pts_ood), 1))])
    points = np.vstack([pts_in, pts_ood])
    labels = np.array([f"class {int(v)}" for v in labels_in] + ["ood"] * len(pts_ood))
    svg_name = f"lda_{net.kind.value}.svg"
    report.emit_scatter_svg(points, labels, os.path.join(out, svg_name),
                            title=f"{cfg.dataset} latent discriminants ({net.kind.value})")
    names.append(svg_name)

    if net.head is not None:
        groups, matrix = report.score_matrix(net, eval_ds, cfg.t_samples,
                                             derive_rng(cfg.seed, 40))
        header = ["group"] + [f"score_{j}" for j in range(matrix.shape[1])]
        rows = [[g] + [f"{v:.6f}" for v in matrix[i]] for i, g in enumerate(groups)]
        report.emit_csv(header, rows, os.path.join(out, "score_matrix.csv"))
        names.append("score_matrix.csv")

    rng = derive_rng(cfg.seed, 41)
    for g in dict.fromkeys(eval_ds.group.tolist()):
        idx = int(np.flatnonzero(eval_ds.group == g)[0])
        sample = mc_sample(net, eval_ds.X[idx], cfg.t_samples, rng)
        pred = sample.classifier if sample.classifier is not None else sample.reconstruction
        hist_name = f"hist_{_safe_name(g)}.csv"
        write_histogram_csv(pred, os.path.join(out, hist_name))
        names.append(hist_name)

    write_manifest(out, names)
    print(f"report artifacts written to {out}: {len(names)} files")
    return 0


_THYROID_DISPLAY = {"normal": "normal", "incipient:1:1": "subnormal", "fault:1": "diseased"}


def _rename_rows(rows, mapping):
    return [[mapping.get(r[0], r[0])] + r[1:] for r in rows]


def cmd_compare(cfg, args) -> int:
    result = experiments.run_experiment(cfg, data_dir=args.data_dir)
    out = _out_dir(args)
    names = []
    mapping = _THYROID_DISPLAY if cfg.dataset == "thyroid" else {}

    header, rows = experiments.binary_table(result)
    rows = _rename_rows(rows, mapping)
    report.emit_csv(header, rows, os.path.join(out, "binary.csv"))
    names.append("binary.csv")
    print(",".join(header))
    for r in rows:
        print(",".join(str(c) for c in r))

    header, rows = experiments.diagnostic_table(result)
    report.emit_csv(header, _rename_rows(rows, mapping), os.path.join(out, "diagnostic.csv"))
    names.append("diagnostic.csv")
    header, rows = experiments.threshold_table(result)
    report.emit_csv(header, rows, os.path.join(out, "thresholds.csv"))
    names.append("thresholds.csv")
    header, rows = experiments.entropy_table(result)
    report.emit_csv(header, rows, os.path.join(out, "entropy.csv"))
    names.append("entropy.csv")

    severity = result.extras.get("severity_detection")
    if severity:
        header = ["model"] + [f"sl{s}" for s in (1, 2, 3, 4)]
        rows = [[name] + [f"{severity[name][s]:.6f}" for s in (1, 2, 3, 4)]
                for name in severity]
        report.emit_csv(header, rows, os.path.join(out, "severity.csv"))
        names.append("severity.csv")
    amb = result.extras.get("ambiguous_diag")
    unk = result.extras.get("unknown_detection")
    if amb or unk:
        rows = []
        for name in sorted(amb or {}):
            rows.append([name, "ambiguous_diag", f"{amb[name]:.6f}"])
        for name in sorted(unk or {}):
            for path_name, rate in sorted(unk[name].items()):
                rows.append([name, f"unknown_{path_name}", f"{rate:.6f}"])
        report.emit_csv(["model", "metric", "value"], rows,
                        os.path.join(out, "ood_metrics.csv"))
        names.append("ood_metrics.csv")

    write_manifest(out, names)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--dataset", choices=list(experiments.DATASETS))
    p.add_argument("--model-kind", dest="model_kind", choices=list(MODEL_ORDER))
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t-samples", dest="t_samples", type=int)
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--hidden-widths", dest="hidden_widths")
    p.add_argument("--head-widths", dest="head_widths")
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--decoder-activation", dest="decoder_activation",
                   choices=["identity", "sigmoid"])
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--n-classes", dest="n_classes", type=int)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--train-cap-per-class", dest="train_cap_per_class", type=int)
    p.add_argument("--ambiguous-pairs", dest="ambiguous_pairs", type=int)
    p.add_argument("--data-dir", dest="data_dir",
                   help="dataset directory (or OODFDD_DATA_DIR)")
    p.add_argument("--out", default="out", help="artifact output directory")


def make_parser() -> _Parser:
    parser = _Parser(prog="oodfdd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gen-data", cmd_gen_data, "write surrogate dataset files", ()),
        ("train", cmd_train, "train one model and archive its weights", ()),
        ("evaluate", cmd_evaluate, "evaluate stored weights on the test split",
         ("weights",)),
        ("score", cmd_score, "score rows and emit predicted label sets",
         ("weights", "input")),
        ("report", cmd_report, "emit projection figures, score matrices, histograms",
         ("weights",)),
        ("compare", cmd_compare, "train all three model kinds and tabulate them", ()),
    ]
    for name, fn, help_text, extra in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if "weights" in extra:
            p.add_argument("--weights", required=True, help="path to a weight archive")
        if "input" in extra:
            p.add_argument("--input",
                           help="CSV of rows to score (default: training normals)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (NonFiniteError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except model.ArchiveError as exc:
        print(f"error: unreadable weight archive {exc}", file=sys.stderr)
        return EXIT_BAD_ARCHIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
