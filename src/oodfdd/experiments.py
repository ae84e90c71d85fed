"""The experiment pipeline: one protocol for every dataset.

`run_experiment` loads the configured dataset's training and evaluation
splits, trains three models from a shared seed (augmented,
classifier-only benchmark, autoencoder-only benchmark), calibrates
per-channel anomaly thresholds on the training normals, and evaluates
every available pathway on the held-out set. Two datasets add to that:
mnist appends latent interpolations, built with the trained augmented
model, to the evaluation set, and the result's extras hold detection by
severity level (chiller) or ambiguous-diagnosis and unknown-detection
rates (mnist). Results come back as plain dataclasses so callers (CLI,
tests) can pull out single numbers without re-running anything, and
`comparison_tables` formats every table `oodfdd compare` writes.

Each dataset's defaults are declared once, in `_DEFAULTS`; `config_for`
reads them and `DATASETS` lists their names.  The model kind is no
setting but an argument of `train_one`.  The network's shape is one
`model.Architecture`, which all three kinds share:
`ExperimentConfig.architecture` takes the layer widths, dropout rate and
decoder activation from the config, and the input width and class count
(largest label plus one) from the training split.

After `build` the three models share no state: each kind draws from its
own `derive_rng` streams. So `run_experiment` runs them in two lanes
(`_in_lanes`), forked once per run. This process trains the augmented
model, the longest job, then calibrates and evaluates it. One forked
worker trains and calibrates the classifier and the autoencoder in
MODEL_ORDER, then evaluates both and sends back only their parameter
buffers and `ModelEval`s, in one message. On thyroid and chiller the
evaluation rows are final before the fork. On mnist they are not: this
process builds the latent interpolations from its trained augmented
model and hands them to the worker, which takes them only after both
benchmarks are trained and calibrated, so each lane scores the same rows.
Two lanes are used when this process may run on at least two CPUs and
the platform can fork (`_lane_count`); otherwise the same steps run here
in MODEL_ORDER. Either way the results are bitwise the same.

`run_experiment` checks that the training split holds enough normals to
calibrate on (`calibration_normals`) before it trains anything, and so
does `oodfdd train`.

Every public entry point that trains or draws MC passes runs under
`nncore.numeric_context`, as every CLI command does: numpy raises
FloatingPointError on overflow, division by zero and invalid operations,
and BLAS runs one thread, so a seed gives the same outputs whatever
`OPENBLAS_NUM_THREADS` says.  `run_experiment` and `train_one` enter it
here; `evaluate_model` inherits it from `detect.score`.  The worker lane
inherits it through the fork.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import data
from .detect import (
    Sweep,
    calibrate,
    check_calibration_count,
    diagnostic_accuracies,
    group_binary_accuracies,
    precision_recall_sweep,
    score,
)
from .model import (
    Architecture,
    Calibration,
    ModelKind,
    PathwayNetwork,
    assemble,
    build,
    check_shape,
    taper_widths,
)
from .nncore import derive_rng, numeric_context, usable_cpus
from .train import TrainConfig, train
from .uncertainty import EntropyDecomposition, decompose_entropies, predictive_entropy

# each dataset's defaults, applied over those of ExperimentConfig
_DEFAULTS = {
    "thyroid": dict(latent_dim=2, hidden_widths=[16, 8, 2], alpha=0.1,
                    head_widths=[8], epochs=100, pretrain_epochs=20),
    "chiller-surrogate": dict(latent_dim=4, hidden_widths=[16, 8, 4], alpha=0.05,
                              head_widths=[8, 8], epochs=160, pretrain_epochs=40),
    "mnist": dict(latent_dim=8, alpha=0.05, head_widths=[8, 8],
                  decoder_activation="sigmoid", epochs=160, pretrain_epochs=40),
}

DATASETS = tuple(_DEFAULTS)

MODEL_ORDER = tuple(ModelKind)

# where between a normal and a fault latent code mnist's ambiguous rows lie
AMBIGUOUS_T = (0.4, 0.5, 0.6)

# (key, test, what the test wants) for the numeric settings; comparisons are
# written so that NaN fails them
_RULES = (
    ("alpha", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("t_samples", lambda v: v >= 2, "at least 2"),
    ("epochs", lambda v: v >= 1, "at least 1"),
    ("pretrain_epochs", lambda v: v >= 0, "non-negative"),
    ("seed", lambda v: v >= 0, "non-negative"),
    ("beta", lambda v: v >= 0.0, "non-negative"),
    ("batch_size", lambda v: v >= 1, "at least 1"),
    ("lr", lambda v: 0.0 < v and math.isfinite(v), "positive and finite"),
    ("n_per_class", lambda v: v >= 1, "at least 1"),
    ("train_fraction", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("train_cap_per_class", lambda v: v >= 1, "at least 1"),
    ("ambiguous_pairs", lambda v: v >= 0, "non-negative"),
)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    dataset: str = "thyroid"
    latent_dim: int = 2
    hidden_widths: list | None = None
    head_widths: list = field(default_factory=lambda: [8])
    dropout_rate: float = 0.2
    decoder_activation: str = "identity"
    alpha: float = 0.1
    t_samples: int = 100
    seed: int = 0
    beta: float = 1.0
    epochs: int = 100
    pretrain_epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    # chiller surrogate generation and split
    n_per_class: int = 400
    train_fraction: float = 0.5
    # per-digit training cap keeps image runs at desk scale
    train_cap_per_class: int = 400
    ambiguous_pairs: int = 40

    def validate(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        check_shape(self.latent_dim, self.hidden_widths, self.head_widths, self.dropout_rate,
                    self.decoder_activation, encoder_key="hidden_widths")
        for key, ok, wants in _RULES:
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"{key} must be {wants}, got {value!r}")
        return self

    def architecture(self, train_ds: data.LabeledDataset) -> Architecture:
        """The network shape on `train_ds`: its feature count is the input
        width, its largest label plus one the class count, and without
        hidden_widths the encoder tapers over `model.ENCODER_LAYERS` layers."""
        input_dim = train_ds.X.shape[1]
        widths = (taper_widths(input_dim, self.latent_dim)
                  if self.hidden_widths is None else list(self.hidden_widths))
        return Architecture(input_dim=input_dim, latent_dim=self.latent_dim,
                            n_classes=int(train_ds.y.max()) + 1, encoder_widths=widths,
                            head_widths=list(self.head_widths), dropout_rate=self.dropout_rate,
                            decoder_activation=self.decoder_activation)

    def train_config(self, kind: ModelKind) -> TrainConfig:
        """The augmented model trains `epochs` after `pretrain_epochs` of
        warm-up; a benchmark runs to convergence (early stopping) under the
        same epoch budget, without a warm-up."""
        cfg = TrainConfig(beta=self.beta, epochs=self.epochs,
                          pretrain_epochs=self.pretrain_epochs,
                          batch_size=self.batch_size, lr=self.lr, seed=self.seed)
        if kind == ModelKind.AUGMENTED:
            return cfg
        # a benchmark has no term for beta to weight
        return replace(cfg, beta=0.0, epochs=self.epochs + self.pretrain_epochs,
                       pretrain_epochs=0, early_stop=True)


def config_for(dataset: str, seed: int = 0, **overrides) -> ExperimentConfig:
    """The dataset's defaults with `overrides` applied, validated.  Each call
    builds its own width lists."""
    cfg = ExperimentConfig(dataset=dataset, seed=seed,
                           **copy.deepcopy(_DEFAULTS.get(dataset, {})))
    return replace(cfg, **overrides).validate()


thyroid_config = functools.partial(config_for, "thyroid")
chiller_config = functools.partial(config_for, "chiller-surrogate")
mnist_config = functools.partial(config_for, "mnist")


@dataclass
class ModelEval:
    """Per-pathway metrics for one trained model on one evaluation set."""

    thresholds: Calibration
    clf_binary: dict | None = None
    rec_binary: dict | None = None
    clf_diag: dict | None = None
    clf_flags: np.ndarray | None = None
    rec_flags: np.ndarray | None = None
    entropy: EntropyDecomposition | None = None
    entropies: np.ndarray | None = None
    ood_mean_entropy: float | None = None
    report: Sweep | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    nets: dict
    train_ds: data.LabeledDataset
    eval_ds: data.LabeledDataset
    evals: dict
    extras: dict = field(default_factory=dict)


def resolve_data_dir(data_dir: str | None) -> str:
    """CLI and library agree on where dataset files live."""
    return data_dir or os.environ.get("OODFDD_DATA_DIR") or "."


def evaluate_model(net: PathwayNetwork, cal: Calibration,
                   eval_ds: data.LabeledDataset) -> ModelEval:
    """Score every pathway the model has against the calibration `cal`,
    with its pass count and MC stream (`detect.score`)."""
    s = score(net, eval_ds.X, cal)
    ev = ModelEval(thresholds=cal, clf_flags=s.z, rec_flags=s.rec_flags)
    groups = eval_ds.group
    fault_flags = groups != "normal"

    if s.clf is not None:
        ev.clf_binary = group_binary_accuracies(s.z, groups)
        diag = diagnostic_accuracies(s.b, eval_ds.y)
        # rows of label 0 (normal, unknown) have no credit; a group
        # without a credited row is left out
        credited = ~np.isnan(diag)
        tags, means = data.group_means(diag[credited], groups[credited])
        ev.clf_diag = dict(zip(tags, means.tolist()))
        ev.entropies = predictive_entropy(s.moments.clf_mean)
        ev.entropy = decompose_entropies(ev.entropies, groups)
        ood = ev.entropies[data.ood_mask(groups)]
        ev.ood_mean_entropy = float(ood.mean()) if ood.size else None
    if s.rec is not None:
        ev.rec_binary = group_binary_accuracies(s.rec_flags, groups)
    # the sweep ranks rows by the reconstruction score where the net has a
    # decoder, else by the largest fault score of the head
    sweep_scores = s.rec if s.rec is not None else s.clf[:, 1:].max(axis=1)
    ev.report = precision_recall_sweep(sweep_scores, fault_flags)
    return ev


@numeric_context()
def train_one(cfg: ExperimentConfig, kind: ModelKind, train_ds: data.LabeledDataset):
    """Build and train a `kind` model; returns (net, history).
    A model without a classifier head trains on the normal rows alone."""
    net = build(kind, cfg.architecture(train_ds), cfg.seed)
    if net.head is None:
        train_ds = train_ds.select(train_ds.y == 0)
    return net, train(net, train_ds, cfg.train_config(kind))


def calibration_normals(train_ds: data.LabeledDataset) -> np.ndarray:
    """The training normals that thresholds are calibrated on.

    Fewer than `detect.MIN_CALIBRATION_EXAMPLES` of them raise calibration's
    ValueError here, so that callers can check before they train.
    """
    normals = train_ds.X[train_ds.y == 0]
    check_calibration_count(len(normals))
    return normals


def _lane_count() -> int:
    """2 when this process may run on two CPUs and the platform can fork; else 1."""
    import multiprocessing

    can_fork = "fork" in multiprocessing.get_all_start_methods()
    return 2 if usable_cpus() >= 2 and can_fork else 1


def _in_lanes(here, there) -> tuple:
    """(here(hand_over), there(take)), with `there` run beside `here`.

    `here` runs in this process and may pass one value to `there` by
    calling `hand_over(value)`; `there` gets it from `take()`, which waits
    for it. With two lanes `there` runs in a forked worker, which inherits
    what it reads and sends back only its result through a pipe; with one
    lane it runs here after `here`. A job that raises in the worker
    re-raises here with its type and message, a worker that dies raises a
    RuntimeError naming its exit code, a job that raises here terminates
    the worker, and the worker is joined before this returns.

    `hand_over` returns once the value is in the pipe: at once if it fits
    the pipe's buffer or the worker is waiting in `take`, else when the
    worker gets there. A worker that has failed or gone breaks the pipe;
    `hand_over` then returns quietly, and the worker's outcome tells why.
    """
    if _lane_count() < 2:
        handed = []
        first = here(handed.append)
        return first, there(handed.pop)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    take_end, hand_end = ctx.Pipe(duplex=False)
    receiver, sender = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_lane_worker, args=(there, take_end, hand_end, sender),
                         daemon=True)
    worker.start()
    take_end.close()
    sender.close()  # so that recv sees EOF once the worker has gone

    def hand_over(value):
        with contextlib.suppress(BrokenPipeError):
            hand_end.send(value)

    finished = False
    try:
        first = here(hand_over)
        hand_end.close()  # a worker still waiting to take sees EOF
        try:
            ok, value = receiver.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"worker lane exited with code {worker.exitcode} "
                               "before sending its results") from None
        if not ok:
            raise value
        finished = True
        return first, value
    finally:
        hand_end.close()
        receiver.close()
        if not finished:
            worker.terminate()
        worker.join()


def _lane_worker(there, take_end, hand_end, sender) -> None:
    """Body of the forked worker: run `there(take_end.recv)`, then send
    (True, its result) or, if it raises, (False, the exception).

    One message at the end, because a result larger than the pipe's buffer
    would block the worker until the caller's own job is done."""
    hand_end.close()  # so that take sees EOF if the calling process has gone
    try:
        outcome = (True, there(take_end.recv))
    except Exception as exc:
        outcome = (False, exc)
    # a caller still handing over gets a broken pipe instead of waiting on
    # a worker that is waiting for it to read the outcome
    take_end.close()
    sender.send(outcome)
    sender.close()


def load_dataset_pair(cfg: ExperimentConfig, data_dir: str | None = None):
    """Training split and base evaluation split for the configured dataset.

    The out-of-distribution rows of a training file (thyroid's subnormal
    class, mnist's unknown digits) are held out of training entirely, and
    mnist's training rows are capped per class. Thyroid and chiller features
    are z-scored on both sides with stats fitted on the training split's
    normal rows (`data.standardize_pair`); mnist pixels are left as loaded.
    Interpolated ambiguous examples are not part of the base pair; they
    depend on a trained model and `run_experiment` appends them.
    """
    cfg.validate()
    if cfg.dataset == "chiller-surrogate":
        full = data.gen_chiller_surrogate(seed=cfg.seed, n_per_class=cfg.n_per_class)
        train_raw, test_raw = data.split(full, cfg.train_fraction, seed=cfg.seed)
        return data.standardize_pair(train_raw, test_raw)
    root = resolve_data_dir(data_dir)
    if cfg.dataset == "thyroid":
        train_full, test = map(data.load_thyroid,
                               _dataset_files(root, "ann-train.data", "ann-test.data"))
    else:
        paths = _dataset_files(root, "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", gz=True)
        train_full = data.load_mnist(*paths[:2])
        test = data.load_mnist(*paths[2:])
    train_ds = train_full.select(~data.ood_mask(train_full.group))
    if cfg.dataset == "mnist":
        return _cap_per_class(train_ds, cfg.train_cap_per_class, cfg.seed), test
    return data.standardize_pair(train_ds, test)


def _dataset_files(root: str, *names: str, gz: bool = False) -> list:
    """Paths of the named files under root; with `gz`, a `.gz` twin stands
    in for a missing file."""
    paths = [os.path.join(root, name) for name in names]
    return [path + ".gz" if gz and not os.path.exists(path) and os.path.exists(path + ".gz")
            else path for path in paths]


@numeric_context()
def run_experiment(cfg: ExperimentConfig, data_dir: str | None = None) -> ExperimentResult:
    """The protocol of the module docstring on cfg.dataset."""
    train_ds, eval_ds = load_dataset_pair(cfg, data_dir)
    calib_x = calibration_normals(train_ds)
    lead, *benchmarks = MODEL_ORDER

    def trained(kind):
        return train_one(cfg, kind, train_ds)[0]

    def calibrated(net):
        return calibrate(net, calib_x, cfg.alpha, cfg.t_samples, cfg.seed)

    def lead_lane(hand_over):
        net = trained(lead)
        rows = eval_ds
        if cfg.dataset == "mnist":
            ambiguous = _make_ambiguous(net, eval_ds, cfg)
            hand_over(ambiguous)
            rows = _with_rows(eval_ds, ambiguous)
        return net, evaluate_model(net, calibrated(net), rows), rows

    def benchmark_lane(take):
        nets = {kind: trained(kind) for kind in benchmarks}
        cals = {kind: calibrated(net) for kind, net in nets.items()}
        rows = _with_rows(eval_ds, take()) if cfg.dataset == "mnist" else eval_ds
        return {kind: (net.params, evaluate_model(net, cals[kind], rows))
                for kind, net in nets.items()}

    (net, lead_eval, eval_ds), returned = _in_lanes(lead_lane, benchmark_lane)
    nets, evals = {lead: net}, {lead: lead_eval}
    for kind, (params, evals[kind]) in returned.items():
        # in the lead net's shape, which every kind shares
        nets[kind] = assemble(kind, net.arch, params)
    extras = {}
    if cfg.dataset == "chiller-surrogate":
        extras["severity_detection"] = {name: severity_detection(ev.clf_flags, eval_ds.group)
                                        for name, ev in evals.items()
                                        if ev.clf_flags is not None}
    elif cfg.dataset == "mnist":
        extras = _ood_rates(evals)
    return ExperimentResult(config=cfg, nets=nets, train_ds=train_ds,
                            eval_ds=eval_ds, evals=evals, extras=extras)


def _ood_rates(evals: dict) -> dict:
    """Per model: mean diagnostic accuracy over the ambiguous (incipient)
    groups, and each pathway's flag rate on the unknown rows, which is the
    unknown group's binary accuracy.  Ambiguous rows carry a fault label,
    so each of their groups has credit in `clf_diag`."""
    amb_diag, unknown_rates = {}, {}
    for name, ev in evals.items():
        if ev.clf_diag is not None:
            vals = [v for g, v in ev.clf_diag.items() if g.startswith("incipient:")]
            if vals:
                amb_diag[name] = float(np.mean(vals))
        rates = {path: binary["unknown"]
                 for path, binary in (("clf", ev.clf_binary), ("rec", ev.rec_binary))
                 if binary is not None and "unknown" in binary}
        if rates:
            unknown_rates[name] = rates
    return {"ambiguous_diag": amb_diag, "unknown_detection": unknown_rates}


def severity_detection(flags: np.ndarray, groups: np.ndarray) -> dict:
    """Mean detection rate at each severity level, pooled over fault types.

    Levels 1..3 come from incipient:<k>:<level> tags, level 4 from full
    faults. Normal and unknown rows are excluded; they have no severity.
    """
    tags, codes = np.unique(np.asarray(groups), return_inverse=True)
    levels = np.array([_severity_level(tag) for tag in tags.tolist()], dtype=np.intp)
    levels = levels[codes.reshape(-1)]
    graded = levels > 0
    found, rates = data.group_means(np.asarray(flags, dtype=bool)[graded], levels[graded])
    return dict(sorted(zip(found, rates.tolist())))


def _severity_level(tag: str) -> int:
    """1..3 from an incipient:<k>:<level> tag, 4 for a full fault, 0 for a
    tag without a severity; an incipient level outside 1..3 raises."""
    if tag.startswith("fault:"):
        return 4
    if not tag.startswith("incipient:"):
        return 0
    try:
        level = int(tag.split(":")[2])
    except (IndexError, ValueError):
        level = 0
    if not 1 <= level <= 3:
        raise ValueError(f"group tag {tag!r} has no severity level in 1..3")
    return level


def _cap_per_class(ds: data.LabeledDataset, cap: int, seed: int) -> data.LabeledDataset:
    rng = derive_rng(seed, 30)
    keep = np.zeros(len(ds), dtype=bool)
    for label in np.unique(ds.y):
        idx = np.flatnonzero(ds.y == label)
        if idx.size > cap:
            idx = np.sort(rng.choice(idx, size=cap, replace=False))
        keep[idx] = True
    return ds.select(keep)


def _with_rows(eval_ds: data.LabeledDataset,
               ambiguous: data.LabeledDataset | None) -> data.LabeledDataset:
    """The evaluation rows with the ambiguous rows, if any, stacked below."""
    if ambiguous is None:
        return eval_ds
    return data.LabeledDataset(X=np.vstack([eval_ds.X, ambiguous.X]),
                               y=np.concatenate([eval_ds.y, ambiguous.y]),
                               group=np.concatenate([eval_ds.group, ambiguous.group]))


def _make_ambiguous(net: PathwayNetwork, test: data.LabeledDataset,
                    cfg: ExperimentConfig) -> data.LabeledDataset | None:
    """Latent interpolations between test normals and each fault class:
    up to `cfg.ambiguous_pairs` random pairs a label, each side encoded with
    dropout off and (1-t) * z_normal + t * z_fault decoded for each t of
    AMBIGUOUS_T, tagged incipient:<label>:<t>."""
    rng = derive_rng(cfg.seed, 31)
    normal_x = test.X[test.group == "normal"]
    xs, labels, tags = [], [], []
    for label in range(1, net.arch.n_classes):
        fault_x = test.X[(test.y == label) & (test.group != "unknown")]
        m = min(len(normal_x), len(fault_x), cfg.ambiguous_pairs)
        if m == 0:
            continue
        ni = rng.choice(len(normal_x), size=m, replace=False)
        fi = rng.choice(len(fault_x), size=m, replace=False)
        z_normal = net.encoder.forward(normal_x[ni])
        z_fault = net.encoder.forward(fault_x[fi])
        for t in AMBIGUOUS_T:
            xs.append(net.decoder.forward((1.0 - t) * z_normal + t * z_fault))
            labels += [label] * m
            tags += [f"incipient:{label}:{t:g}"] * m
    if not xs:
        return None
    return data.LabeledDataset(X=np.vstack(xs), y=labels, group=np.asarray(tags))


def group_table(columns: dict):
    """One row per group tag and one column per entry of `columns` (header
    -> {group: value}); groups in first-seen order, a missing value blank."""
    groups = dict.fromkeys(g for values in columns.values() for g in values)
    rows = [[g] + [f"{v[g]:.6f}" if g in v else "" for v in columns.values()] for g in groups]
    return ["group", *columns], rows


def binary_table(result: ExperimentResult):
    """Per-group binary accuracy, one column per model/pathway pair."""
    return group_table({f"{name}_{path}": acc for name in MODEL_ORDER
                        for path, acc in (("clf", result.evals[name].clf_binary),
                                          ("rec", result.evals[name].rec_binary))
                        if acc is not None})


def diagnostic_table(result: ExperimentResult):
    """Per-group mean diagnostic accuracy for models with a classifier head."""
    return group_table({f"{name}_clf": result.evals[name].clf_diag for name in MODEL_ORDER
                        if result.evals[name].clf_diag is not None})


def threshold_table(result: ExperimentResult):
    """One threshold row per model and channel, mirroring calibration output."""
    return ["model", "channel", "threshold"], [
        [name, channel, f"{v:.6f}"] for name in MODEL_ORDER
        for channel, v in result.evals[name].thresholds.channels()]


def entropy_table(result: ExperimentResult):
    header = ["model", "P0", "P1_in", "P1_ood", "total", "ood_mean_entropy"]
    rows = []
    for name in MODEL_ORDER:
        ev = result.evals[name]
        if ev.entropy is None:
            continue
        e = ev.entropy
        ood = "" if ev.ood_mean_entropy is None else f"{ev.ood_mean_entropy:.6f}"
        rows.append([name, f"{e.P0:.6f}", f"{e.P1_in:.6f}", f"{e.P1_ood:.6f}",
                     f"{e.total:.6f}", ood])
    return header, rows


def comparison_tables(result: ExperimentResult) -> dict:
    """Every table `oodfdd compare` writes, as (header, rows) keyed by file
    stem: binary, diagnostic, thresholds and entropy, then severity and
    ood_metrics when the result's extras hold them (chiller, mnist)."""
    tables = {"binary": binary_table(result), "diagnostic": diagnostic_table(result),
              "thresholds": threshold_table(result), "entropy": entropy_table(result)}
    severity = result.extras.get("severity_detection")
    if severity:
        levels = (1, 2, 3, 4)
        tables["severity"] = (["model"] + [f"sl{s}" for s in levels],
                              [[name] + [f"{rates[s]:.6f}" for s in levels]
                               for name, rates in severity.items()])
    amb = result.extras.get("ambiguous_diag") or {}
    unk = result.extras.get("unknown_detection") or {}
    if amb or unk:
        rows = [[name, "ambiguous_diag", f"{amb[name]:.6f}"] for name in sorted(amb)]
        rows += [[name, f"unknown_{path}", f"{rate:.6f}"] for name in sorted(unk)
                 for path, rate in sorted(unk[name].items())]
        tables["ood_metrics"] = (["model", "metric", "value"], rows)
    return tables
