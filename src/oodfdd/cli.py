"""Command line driver for the fault-detection experiments.

Subcommands cover the full workflow: generate surrogate data files, train a
single model, evaluate stored weights, score arbitrary rows, emit report
figures, and run the three-way model comparison. Every number the CLI
prints or writes is recomputable by calling the library with the same seed;
the CLI holds no state of its own beyond the artifact files it writes.

Every ExperimentConfig field is a settings flag (`--t-samples` for
t_samples) and a config-file key, typed by the field's annotation; a value
that does not parse is a configuration error naming the key.

`train` calibrates the detection thresholds once, on the training normals,
and stores them in the weight archive with alpha, t_samples and the seed.
`evaluate`, `score` and `report` take the seed and t_samples from that
record, and `evaluate` and `score` never recalibrate: `evaluate` splits the
data with the archive's seed, and `score --input` reads no dataset file.

Exit codes: 0 success, 2 missing data path, 3 bad configuration or usage
(including a value or encoder layout the config checks reject, before any
data is read; a non-numeric or non-finite value in a thyroid data file,
named with its file and line; an input CSV that is not UTF-8 or not
parseable as CSV, a data row with more or fewer cells than the header, a
non-numeric or non-finite cell; rows to score, from `--input` or a
dataset, whose width differs from the archive's input_dim; and a
`--alpha`, `--t-samples` or `--seed` given to `evaluate`, `score` or
`report` that differs from the archive's), 4 numeric failure during
training or evaluation (numpy raises on overflow, division by zero and
invalid operations in every command, as it does inside every library
entry point: `nncore.numeric_context`), 5 unreadable weight archive (a
non-finite parameter or threshold, an invalid calibration record and a
version-1 archive included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import os
import sys
import typing
from array import array
from dataclasses import replace

import numpy as np

from . import data, experiments, model, report, train
from .detect import ThresholdSet
from .experiments import ExperimentConfig
from .nncore import NonFiniteError, derive_rng, numeric_context
from .uncertainty import histogram_table, mc_sample

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


# every ExperimentConfig field is both a config-file key and a --flag
_SETTINGS = typing.get_type_hints(ExperimentConfig)
_WANTS = {int: "an integer", float: "a number", list: "comma-separated integers"}


def parse_config_value(key: str, raw: str):
    """`raw` typed by the hint of ExperimentConfig field `key`; width lists
    (`list` or `list | None`) are comma-separated integers."""
    if key not in _SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    hint = _SETTINGS[key]
    kind = list if list in (hint, *typing.get_args(hint)) else hint
    raw = raw.strip()
    try:
        if kind is list:
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key} wants {_WANTS[kind]}, got {raw!r}") from None


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
    given.update((key, getattr(args, key)) for key in _SETTINGS
                 if getattr(args, key) is not None)
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


_SURROGATE_WRITERS = {"thyroid": data.write_thyroid_surrogate,
                      "mnist": data.write_mnist_surrogate}


def cmd_gen_data(cfg, args) -> int:
    root = experiments.resolve_data_dir(args.data_dir)
    os.makedirs(root, exist_ok=True)
    if cfg.dataset not in _SURROGATE_WRITERS:
        print("chiller surrogate is generated in-process at run time; no files to write")
        return 0
    written = _SURROGATE_WRITERS[cfg.dataset](root, seed=cfg.seed)
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return 0


def cmd_train(cfg, args) -> int:
    train_ds, _ = experiments.load_dataset_pair(cfg, args.data_dir)
    normals = experiments.calibration_normals(train_ds)
    net, history = experiments.train_one(cfg, train_ds)
    thr = experiments.calibrate_normals(net, normals, cfg)
    out = _out_dir(args)
    weights_name = f"{cfg.model_kind}.ofdd"
    model.save(net, os.path.join(out, weights_name),
               model.Calibration(thr.alpha, cfg.t_samples, cfg.seed,
                                 thr.clf_thresholds, thr.rec_threshold))
    report.emit_csv(train.EpochLog._fields, history, os.path.join(out, "history.csv"))
    write_manifest(out, [weights_name, "history.csv"])
    final = history[-1]
    print(f"trained {cfg.model_kind} on {cfg.dataset}: {len(history)} epochs, "
          f"final total loss {final.total_loss:.6f}")
    print(f"weights: {os.path.join(out, weights_name)}")
    return 0


def _archive_thresholds(cfg, args) -> tuple[model.PathwayNetwork, ExperimentConfig,
                                             ThresholdSet]:
    """The archived net, cfg with the archive's seed and t_samples, and the
    thresholds the archive stores.  An alpha, t_samples or seed given
    explicitly must equal the archive's."""
    net, cal = _load_weights(args.weights)
    _check_archive_settings(args, cal)
    return (net, replace(cfg, seed=cal.seed, t_samples=cal.t_samples),
            ThresholdSet(cal.clf_thresholds, cal.rec_threshold, cal.alpha))


def cmd_evaluate(cfg, args) -> int:
    net, cfg, thresholds = _archive_thresholds(cfg, args)
    _, eval_ds = experiments.load_dataset_pair(cfg, args.data_dir)
    _check_width(eval_ds.X, f"{cfg.dataset} test data", net, args)
    ev = experiments.evaluate_model(net, thresholds, eval_ds, cfg)
    out = _out_dir(args)
    report.emit_csv(*experiments.group_table({"binary_accuracy": ev.report.binary_acc,
                                              "diagnostic_accuracy": ev.report.diag_acc}),
                    os.path.join(out, "metrics.csv"))
    _emit_thresholds(ev.thresholds, out)
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
    values = array("d")  # the feature cells of every data row, flat
    problem = None  # the first bad row, reported once the whole file read as CSV
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = (row for row in csv.reader(fh) if row)
            header = next(rows, None)
            if header is None:
                raise ConfigError(f"{path}: no rows")
            try:
                [float(tok) for tok in header]
                headerless = True
            except ValueError:
                headerless = False
            feature_cols = [i for i, name in enumerate(header)
                            if name.startswith("feature_")]
            if headerless or not feature_cols:
                feature_cols = list(range(len(header)))

            def column(j: int) -> str:
                return (f"column {j + 1}" if headerless
                        else f"column {header[feature_cols[j]]!r}")

            body = itertools.chain([header], rows) if headerless else rows
            for r, row in enumerate(body, 1):
                if problem is not None:
                    continue
                if len(row) != len(header):
                    problem = (f"data row {r} has {len(row)} cells, expected "
                               f"{len(header)} like "
                               f"{'the first row' if headerless else 'the header'}")
                    continue
                for j, i in enumerate(feature_cols):
                    try:
                        values.append(float(row[i]))
                    except ValueError:
                        problem = f"non-numeric value {row[i]!r} in data row {r}, {column(j)}"
                        break
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from None
    if problem is not None:
        raise ConfigError(f"{path}: {problem}")
    if not values:
        raise ConfigError(f"{path}: no data rows")
    x = np.frombuffer(values).reshape(-1, len(feature_cols))
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


def _check_width(x: np.ndarray, source: str, net: model.PathwayNetwork, args) -> None:
    """Rows to score must be as wide as the archived net's input."""
    if x.shape[1] != net.input_dim:
        raise ConfigError(f"{source} has {x.shape[1]} feature columns, but archive "
                          f"{args.weights} has input_dim {net.input_dim}")


def score_table(s) -> tuple[list[str], zip]:
    """scores.csv's header and rows for the scored rows `s`: the classifier
    scores, the predicted label set ('|'-joined channel indices) and its
    flag, then the reconstruction score and its flag, for each pathway the
    net has.  The cells are Python scalars, which format as fast as numpy's
    and to the same text."""
    header, columns = [], []
    if s.clf is not None:
        header += [f"score_{j}" for j in range(s.clf.shape[1])] + ["labels", "flagged"]
        labels = ["|".join(str(j) for j, on in enumerate(row) if on) for row in s.b.tolist()]
        columns += [*s.clf.T.tolist(), labels, s.z.astype(int).tolist()]
    if s.rec is not None:
        header += ["rec_score", "rec_flagged"]
        columns += [s.rec.tolist(), s.rec_flags.astype(int).tolist()]
    return header, zip(*columns)


def cmd_score(cfg, args) -> int:
    net, cfg, thresholds = _archive_thresholds(cfg, args)
    if args.input:
        x = _read_input_csv(args.input)
        source = f"input {args.input}"
    else:
        # default rows are the calibration normals, so the printed flag rate
        # lands near alpha by construction
        train_ds, _ = experiments.load_dataset_pair(cfg, args.data_dir)
        x = train_ds.X[train_ds.y == 0]
        source = f"{cfg.dataset} training data"
    _check_width(x, source, net, args)

    s = experiments.score_rows(net, x, thresholds, cfg.t_samples, cfg.seed)
    flagged = s.z if s.z is not None else s.rec_flags

    out = _out_dir(args)
    report.emit_csv(*score_table(s), os.path.join(out, "scores.csv"))
    _emit_thresholds(thresholds, out)
    write_manifest(out, ["scores.csv", "thresholds.csv"])
    print(f"scored {len(x)} rows; flag rate {float(np.mean(flagged)):.4f}")
    return 0


def _emit_thresholds(thresholds: ThresholdSet, out: str) -> None:
    """thresholds.csv: the alpha row, then one row per channel."""
    rows = [("alpha", thresholds.alpha), *thresholds.channels()]
    report.emit_csv(["channel", "threshold"], rows, os.path.join(out, "thresholds.csv"))


def _safe_name(tag: str) -> str:
    return tag.replace(":", "_").replace(".", "p")


def cmd_report(cfg, args) -> int:
    net, cfg, _ = _archive_thresholds(cfg, args)
    _, eval_ds = experiments.load_dataset_pair(cfg, args.data_dir)
    _check_width(eval_ds.X, f"{cfg.dataset} test data", net, args)
    out = _out_dir(args)
    names = []

    # discriminant projection fitted on in-distribution test rows only;
    # anything out of distribution is projected through the fitted map
    in_dist = np.array([not data.is_ood_tag(g) for g in eval_ds.group])
    z_in = experiments.latents(net, eval_ds.X[in_dist])
    z_ood = experiments.latents(net, eval_ds.X[~in_dist])
    labels_in = eval_ds.y[in_dist]
    out_dims = 2 if net.latent_dim >= 2 else 1
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
        rows = [[g, *matrix[i]] for i, g in enumerate(groups)]
        report.emit_csv(header, rows, os.path.join(out, "score_matrix.csv"))
        names.append("score_matrix.csv")

    rng = derive_rng(cfg.seed, 41)
    for g in dict.fromkeys(eval_ds.group.tolist()):
        idx = int(np.flatnonzero(eval_ds.group == g)[0])
        sample = mc_sample(net, eval_ds.X[idx], cfg.t_samples, rng)
        pred = sample.classifier if sample.classifier is not None else sample.reconstruction
        hist_name = f"hist_{_safe_name(g)}.csv"
        report.emit_csv(*histogram_table(pred), os.path.join(out, hist_name))
        names.append(hist_name)

    write_manifest(out, names)
    print(f"report artifacts written to {out}: {len(names)} files")
    return 0


_THYROID_DISPLAY = {"normal": "normal", "incipient:1:1": "subnormal", "fault:1": "diseased"}


def cmd_compare(cfg, args) -> int:
    result = experiments.run_experiment(cfg, data_dir=args.data_dir)
    out = _out_dir(args)
    mapping = _THYROID_DISPLAY if cfg.dataset == "thyroid" else {}
    tables = experiments.comparison_tables(result)
    for stem, (header, rows) in tables.items():
        rows = [[mapping.get(r[0], r[0]), *r[1:]] for r in rows]
        report.emit_csv(header, rows, os.path.join(out, f"{stem}.csv"))
        if stem == "binary":  # the headline table goes to stdout as well
            for line in [header, *rows]:
                print(",".join(str(c) for c in line))
    write_manifest(out, [f"{stem}.csv" for stem in tables])
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    for key in _SETTINGS:
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=functools.partial(parse_config_value, key))
    p.add_argument("--data-dir", dest="data_dir",
                   help="dataset directory (or OODFDD_DATA_DIR)")
    p.add_argument("--out", default="out", help="artifact output directory")


@functools.cache
def make_parser() -> _Parser:
    """The CLI's parser, built once per process: it is never mutated, and
    each `parse_args` returns a fresh namespace."""
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
        # overflow, division by zero and invalid operations raise
        # FloatingPointError (exit 4) whatever the warning filters are, also
        # in what a command runs outside the library's entry points
        with numeric_context():
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
