"""End-to-end experiment pipelines.

Each dataset runner trains three models from a shared seed (augmented,
classifier-only benchmark, autoencoder-only benchmark), calibrates
per-channel anomaly thresholds on the training normals, and evaluates
every available pathway on the held-out set. Results come back as plain
dataclasses so callers (CLI, tests) can pull out single numbers without
re-running anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import data
from .detect import (
    MetricsReport,
    Scores,
    ThresholdSet,
    calibrate,
    diagnostic_accuracies,
    group_binary_accuracies,
    precision_recall_sweep,
    score,
)
from .model import ModelKind, PathwayNetwork, build
from .nncore import derive_rng
from .train import TrainConfig, train_autoencoder, train_classifier, train_joint
from .uncertainty import (
    EntropyDecomposition,
    GROUP_OOD,
    decompose_entropies,
    group_bucket,
    predictive_entropy,
)

DATASETS = ("thyroid", "chiller-surrogate", "mnist")

MODEL_ORDER = ("augmented", "classifier", "autoencoder")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    dataset: str = "thyroid"
    model_kind: str = "augmented"
    latent_dim: int = 2
    hidden_widths: list | None = None
    head_widths: list = field(default_factory=lambda: [8])
    dropout_rate: float = 0.2
    n_classes: int = 2
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
    n_per_class: int = 150
    train_fraction: float = 0.5
    # per-digit training cap keeps image runs at desk scale
    train_cap_per_class: int = 400
    ambiguous_pairs: int = 40

    def validate(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        if self.model_kind not in MODEL_ORDER:
            raise ValueError(
                f"unknown model_kind {self.model_kind!r}, expected one of {MODEL_ORDER}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.t_samples < 2:
            raise ValueError("t_samples must be at least 2")
        if self.epochs < 1 or self.pretrain_epochs < 0:
            raise ValueError("epochs must be positive and pretrain_epochs non-negative")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.decoder_activation not in ("identity", "sigmoid"):
            raise ValueError(f"unknown decoder_activation {self.decoder_activation!r}, "
                             "expected identity or sigmoid")
        return self

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            beta=self.beta,
            epochs=self.epochs,
            pretrain_epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed,
        )

    def benchmark_config(self) -> TrainConfig:
        # benchmarks run to convergence under the same epoch budget
        return TrainConfig(
            beta=0.0,
            epochs=self.epochs + self.pretrain_epochs,
            pretrain_epochs=0,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed,
            early_stop=True,
        )


def thyroid_config(seed: int = 0, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(dataset="thyroid", latent_dim=2,
                           hidden_widths=[16, 8, 2], alpha=0.1, n_classes=2,
                           head_widths=[8], epochs=100, pretrain_epochs=20, seed=seed)
    return replace(cfg, **overrides).validate()


def chiller_config(seed: int = 0, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(dataset="chiller-surrogate", latent_dim=4,
                           hidden_widths=[16, 8, 4], alpha=0.05,
                           n_classes=7, head_widths=[8, 8], epochs=160,
                           pretrain_epochs=40, n_per_class=400, seed=seed)
    return replace(cfg, **overrides).validate()


def mnist_config(seed: int = 0, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(dataset="mnist", latent_dim=8, alpha=0.05, n_classes=5,
                           head_widths=[8, 8], decoder_activation="sigmoid",
                           epochs=160, pretrain_epochs=40, seed=seed)
    return replace(cfg, **overrides).validate()


def config_for(dataset: str, seed: int = 0, **overrides) -> ExperimentConfig:
    makers = {"thyroid": thyroid_config, "chiller-surrogate": chiller_config,
              "mnist": mnist_config}
    if dataset not in makers:
        raise ValueError(f"unknown dataset {dataset!r}, expected one of {DATASETS}")
    return makers[dataset](seed=seed, **overrides)


@dataclass
class ModelEval:
    """Per-pathway metrics for one trained model on one evaluation set."""

    kind: str
    thresholds: ThresholdSet
    clf_binary: dict | None = None
    rec_binary: dict | None = None
    clf_diag: dict | None = None
    clf_flags: np.ndarray | None = None
    rec_flags: np.ndarray | None = None
    entropy: EntropyDecomposition | None = None
    entropies: np.ndarray | None = None
    ood_mean_entropy: float | None = None
    report: MetricsReport | None = None


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
    if data_dir:
        return data_dir
    env = os.environ.get("OODFDD_DATA_DIR")
    return env if env else "."


def latents(net: PathwayNetwork, x: np.ndarray) -> np.ndarray:
    """Deterministic bottleneck activations, shared by reports and tests."""
    return net.encoder.forward(np.asarray(x, dtype=float))


def _mean_diag_by_group(diag: np.ndarray, groups: np.ndarray) -> dict:
    out = {}
    for g in dict.fromkeys(groups.tolist()):
        vals = diag[groups == g]
        vals = vals[~np.isnan(vals)]
        if vals.size:
            out[g] = float(vals.mean())
    return out


def _stream(net: PathwayNetwork) -> int:
    # one MC stream per model kind keeps the draws of different kinds
    # independent and gives a single-kind CLI command the pipeline's draws
    return MODEL_ORDER.index(net.kind.value)


def calibrate_normals(net: PathwayNetwork, calib_x: np.ndarray,
                      cfg: ExperimentConfig) -> ThresholdSet:
    """Thresholds from the calibration normals, MC draws from (seed, 20, kind stream).

    `oodfdd train` stores them in the weight archive, so they equal bitwise
    the thresholds `evaluate_models` computes for the same net and config.
    """
    return calibrate(net, calib_x, cfg.alpha, cfg.t_samples,
                     derive_rng(cfg.seed, 20, _stream(net)))


def score_rows(net: PathwayNetwork, x: np.ndarray, thresholds: ThresholdSet,
               t_samples: int, seed: int) -> Scores:
    """Scores and flags for x, MC draws from (seed, 22, kind stream)."""
    return score(net, x, thresholds, t_samples, derive_rng(seed, 22, _stream(net)))


def evaluate_model(net: PathwayNetwork, thresholds: ThresholdSet,
                   eval_ds: data.LabeledDataset, cfg: ExperimentConfig) -> ModelEval:
    """Score every pathway the model has against the given thresholds.

    The Monte Carlo draws are reproducible from cfg.seed and independent
    between model kinds; cfg.t_samples sets the pass count.
    """
    s = score_rows(net, eval_ds.X, thresholds, cfg.t_samples, cfg.seed)
    ev = ModelEval(kind=net.kind.value, thresholds=thresholds,
                   clf_flags=s.z, rec_flags=s.rec_flags)
    groups = eval_ds.group
    fault_flags = groups != "normal"

    sweep_scores = None
    if s.clf is not None:
        ev.clf_binary = group_binary_accuracies(s.z, groups)
        diag = diagnostic_accuracies(s.b, eval_ds.y)
        ev.clf_diag = _mean_diag_by_group(diag, groups)
        ev.entropies = predictive_entropy(s.moments.clf_mean)
        ev.entropy = decompose_entropies(ev.entropies, groups)
        buckets = np.array([group_bucket(g) for g in groups])
        ood = ev.entropies[buckets == GROUP_OOD]
        ev.ood_mean_entropy = float(ood.mean()) if ood.size else None
        sweep_scores = s.clf[:, 1:].max(axis=1)
    if s.rec is not None:
        ev.rec_binary = group_binary_accuracies(s.rec_flags, groups)
        sweep_scores = s.rec

    sweep_thr, prec, rec = precision_recall_sweep(sweep_scores, fault_flags)
    ev.report = MetricsReport(
        binary_acc=ev.rec_binary if ev.clf_binary is None else ev.clf_binary,
        diag_acc={} if ev.clf_diag is None else ev.clf_diag,
        thresholds=thresholds,
        sweep_thresholds=sweep_thr,
        precision=prec,
        recall=rec,
    )
    return ev


def _build_kwargs(cfg: ExperimentConfig, input_dim: int) -> dict:
    return dict(
        input_dim=input_dim,
        latent_dim=cfg.latent_dim,
        hidden_widths=cfg.hidden_widths,
        dropout_rate=cfg.dropout_rate,
        n_classes=cfg.n_classes,
        rng_seed=cfg.seed,
        head_widths=cfg.head_widths,
        decoder_activation=cfg.decoder_activation,
    )


def train_one(cfg: ExperimentConfig, train_ds: data.LabeledDataset):
    """Build and train the configured model kind; returns (net, history)."""
    net = build(ModelKind(cfg.model_kind), **_build_kwargs(cfg, train_ds.X.shape[1]))
    if cfg.model_kind == "augmented":
        history = train_joint(net, train_ds, cfg.train_config())
    elif cfg.model_kind == "classifier":
        history = train_classifier(net, train_ds, cfg.benchmark_config())
    else:
        history = train_autoencoder(net, train_ds.select(train_ds.y == 0),
                                    cfg.benchmark_config())
    return net, history


def train_models(cfg: ExperimentConfig, train_ds: data.LabeledDataset) -> dict:
    """Shared-seed builds so all three models start from identical encoders."""
    return {kind: train_one(replace(cfg, model_kind=kind), train_ds)[0]
            for kind in MODEL_ORDER}


def evaluate_models(nets: dict, train_ds: data.LabeledDataset,
                    eval_ds: data.LabeledDataset, cfg: ExperimentConfig) -> dict:
    """Calibrate each model on the training normals, then evaluate it."""
    calib_x = train_ds.X[train_ds.y == 0]
    evals = {}
    for name in MODEL_ORDER:
        thresholds = calibrate_normals(nets[name], calib_x, cfg)
        evals[name] = evaluate_model(nets[name], thresholds, eval_ds, cfg)
    return evals


def _load_thyroid_pair(cfg: ExperimentConfig, data_dir: str):
    train_path = os.path.join(data_dir, "ann-train.data")
    test_path = os.path.join(data_dir, "ann-test.data")
    for p in (train_path, test_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing dataset file: {p}")
    train_full = data.load_thyroid(train_path)
    test = data.load_thyroid(test_path, stats=train_full.feature_stats)
    # subnormal rows in the train file are held out of training entirely
    in_dist = np.array([not data.is_ood_tag(g) for g in train_full.group])
    return train_full.select(in_dist), test


def _load_mnist_pair(cfg: ExperimentConfig, data_dir: str):
    paths = {
        "train_images": os.path.join(data_dir, "train-images-idx3-ubyte"),
        "train_labels": os.path.join(data_dir, "train-labels-idx1-ubyte"),
        "test_images": os.path.join(data_dir, "t10k-images-idx3-ubyte"),
        "test_labels": os.path.join(data_dir, "t10k-labels-idx1-ubyte"),
    }
    for key, p in paths.items():
        if not os.path.exists(p) and not os.path.exists(p + ".gz"):
            raise FileNotFoundError(f"missing dataset file: {p}")
        if not os.path.exists(p):
            paths[key] = p + ".gz"
    train_full = data.load_mnist(paths["train_images"], paths["train_labels"])
    test = data.load_mnist(paths["test_images"], paths["test_labels"])
    in_dist = np.array([not data.is_ood_tag(g) for g in train_full.group])
    train_ds = _cap_per_class(train_full.select(in_dist), cfg.train_cap_per_class, cfg.seed)
    return train_ds, test


def load_dataset_pair(cfg: ExperimentConfig, data_dir: str | None = None):
    """Training split and base evaluation split for the configured dataset.

    Interpolated ambiguous examples are not part of the base pair; they
    depend on a trained model and are appended by the image pipeline.
    """
    cfg.validate()
    root = resolve_data_dir(data_dir)
    if cfg.dataset == "thyroid":
        return _load_thyroid_pair(cfg, root)
    if cfg.dataset == "mnist":
        return _load_mnist_pair(cfg, root)
    full = data.gen_chiller_surrogate(seed=cfg.seed, n_per_class=cfg.n_per_class)
    train_raw, test_raw = data.split(full, cfg.train_fraction, seed=cfg.seed)
    return data.standardize_pair(train_raw, test_raw)


def run_thyroid(cfg: ExperimentConfig, data_dir: str | None = None) -> ExperimentResult:
    cfg.validate()
    train_ds, eval_ds = _load_thyroid_pair(cfg, resolve_data_dir(data_dir))
    nets = train_models(cfg, train_ds)
    evals = evaluate_models(nets, train_ds, eval_ds, cfg)
    return ExperimentResult(config=cfg, nets=nets, train_ds=train_ds,
                            eval_ds=eval_ds, evals=evals)


def severity_detection(flags: np.ndarray, groups: np.ndarray) -> dict:
    """Mean detection rate at each severity level, pooled over fault types.

    Levels 1..3 come from incipient tags, level 4 from full faults. The
    unknown group is excluded; it has no severity.
    """
    rates = {}
    levels = {1: [], 2: [], 3: [], 4: []}
    for flag, g in zip(flags, groups):
        if g.startswith("incipient:"):
            sev = int(float(g.split(":")[2]))
            levels[sev].append(flag)
        elif g.startswith("fault:"):
            levels[4].append(flag)
    for sev, vals in levels.items():
        if vals:
            rates[sev] = float(np.mean(vals))
    return rates


def spearman(x, y) -> float:
    """Rank correlation; ties get midranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("spearman needs two equal-length vectors of size >= 2")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size, dtype=float)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        # average ranks within tied groups
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("spearman undefined for constant input")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def run_chiller(cfg: ExperimentConfig, data_dir: str | None = None) -> ExperimentResult:
    cfg.validate()
    train_ds, eval_ds = load_dataset_pair(cfg, data_dir)
    nets = train_models(cfg, train_ds)
    evals = evaluate_models(nets, train_ds, eval_ds, cfg)
    severity = {name: severity_detection(ev.clf_flags, eval_ds.group)
                for name, ev in evals.items() if ev.clf_flags is not None}
    return ExperimentResult(config=cfg, nets=nets, train_ds=train_ds,
                            eval_ds=eval_ds, evals=evals,
                            extras={"severity_detection": severity})


def _cap_per_class(ds: data.LabeledDataset, cap: int, seed: int) -> data.LabeledDataset:
    if cap <= 0:
        raise ValueError("per-class cap must be positive")
    rng = derive_rng(seed, 30)
    keep = np.zeros(len(ds), dtype=bool)
    for label in np.unique(ds.y):
        idx = np.flatnonzero(ds.y == label)
        if idx.size > cap:
            idx = np.sort(rng.choice(idx, size=cap, replace=False))
        keep[idx] = True
    return ds.select(keep)


def _make_ambiguous(net: PathwayNetwork, test: data.LabeledDataset,
                    cfg: ExperimentConfig) -> data.LabeledDataset | None:
    """Latent interpolations between test normals and each fault class."""
    rng = derive_rng(cfg.seed, 31)
    normal_x = test.X[test.group == "normal"]
    pieces = []
    for label in range(1, cfg.n_classes):
        fault_x = test.X[(test.y == label) & (test.group != "unknown")]
        m = min(len(normal_x), len(fault_x), cfg.ambiguous_pairs)
        if m == 0:
            continue
        ni = rng.choice(len(normal_x), size=m, replace=False)
        fi = rng.choice(len(fault_x), size=m, replace=False)
        pieces.append(data.gen_ambiguous(net, normal_x[ni], fault_x[fi],
                                         fault_label=label))
    if not pieces:
        return None
    out = pieces[0]
    for p in pieces[1:]:
        out = data.concat(out, p)
    return out


def run_mnist(cfg: ExperimentConfig, data_dir: str | None = None) -> ExperimentResult:
    cfg.validate()
    train_ds, test = load_dataset_pair(cfg, data_dir)
    nets = train_models(cfg, train_ds)
    ambiguous = _make_ambiguous(nets["augmented"], test, cfg)
    eval_ds = test if ambiguous is None else data.concat(test, ambiguous)
    evals = evaluate_models(nets, train_ds, eval_ds, cfg)

    extras = {}
    amb_mask = np.array([g.startswith("incipient:") for g in eval_ds.group])
    unk_mask = eval_ds.group == "unknown"
    amb_diag = {}
    unknown_rates = {}
    for name, ev in evals.items():
        if ev.clf_flags is not None and amb_mask.any():
            vals = [v for g, v in ev.clf_diag.items() if g.startswith("incipient:")]
            amb_diag[name] = float(np.mean(vals)) if vals else float("nan")
        rates = {}
        if ev.clf_flags is not None and unk_mask.any():
            rates["clf"] = float(ev.clf_flags[unk_mask].mean())
        if ev.rec_flags is not None and unk_mask.any():
            rates["rec"] = float(ev.rec_flags[unk_mask].mean())
        if rates:
            unknown_rates[name] = rates
    extras["ambiguous_diag"] = amb_diag
    extras["unknown_detection"] = unknown_rates
    return ExperimentResult(config=cfg, nets=nets, train_ds=train_ds,
                            eval_ds=eval_ds, evals=evals, extras=extras)


def run_experiment(cfg: ExperimentConfig, data_dir: str | None = None) -> ExperimentResult:
    runners = {"thyroid": run_thyroid, "chiller-surrogate": run_chiller,
               "mnist": run_mnist}
    cfg.validate()
    return runners[cfg.dataset](cfg, data_dir=data_dir)


def binary_table(result: ExperimentResult):
    """Per-group binary accuracy, one column per model/pathway pair."""
    cols = []
    accs = []
    for name in MODEL_ORDER:
        ev = result.evals[name]
        if ev.clf_binary is not None:
            cols.append(f"{name}_clf")
            accs.append(ev.clf_binary)
        if ev.rec_binary is not None:
            cols.append(f"{name}_rec")
            accs.append(ev.rec_binary)
    header = ["group"] + cols
    groups = list(dict.fromkeys(result.eval_ds.group.tolist()))
    rows = []
    for g in groups:
        rows.append([g] + [f"{a[g]:.6f}" if g in a else "" for a in accs])
    return header, rows


def diagnostic_table(result: ExperimentResult):
    """Per-group mean diagnostic accuracy for models with a classifier head."""
    cols = []
    diags = []
    for name in MODEL_ORDER:
        ev = result.evals[name]
        if ev.clf_diag is not None:
            cols.append(f"{name}_clf")
            diags.append(ev.clf_diag)
    header = ["group"] + cols
    keys = list(dict.fromkeys(k for d in diags for k in d))
    rows = [[g] + [f"{d[g]:.6f}" if g in d else "" for d in diags] for g in keys]
    return header, rows


def threshold_table(result: ExperimentResult):
    """One threshold row per model and channel, mirroring calibration output."""
    header = ["model", "channel", "threshold"]
    rows = []
    for name in MODEL_ORDER:
        ts = result.evals[name].thresholds
        if ts.clf_thresholds is not None:
            for j, v in enumerate(ts.clf_thresholds):
                rows.append([name, f"clf{j}", f"{v:.6f}"])
        if ts.rec_threshold is not None:
            rows.append([name, "rec", f"{ts.rec_threshold:.6f}"])
    return header, rows


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
