"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload builds its inputs from the seed in `setup`, then `run_pass`
drives the program once through its public entry points and returns the
timed operations, the rows they scored, an output digest and the augmented
model's flag rates.  Operations are timed with a `speedref.SpeedRef`,
which also gives the reference loop time over each, or by default with
`speedref.NoRef`, which gives none.  A pass that raises, returns a non-zero exit code or
writes malformed output has its operations marked failed.

Why these three:
- chiller-pipeline: the one pipeline where train, uncertainty and detect all
  work at scale (7-class softmax, 10200 evaluation rows at T=100), run on
  two seeds per pass.
- mnist-pipeline: widest layers and a sigmoid decoder, so matmuls and
  backward passes carry more of nncore than per-call overhead does.
- thyroid-score: the read-only serving path through ``oodfdd score``; no
  training runs, so training optimisations should not move it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from oodfdd import cli, data, experiments
from speedref import NoRef

NO_REF = NoRef()

REQUEST_ROWS = 500


@dataclass
class Op:
    ok: bool
    seconds: float
    ref_s: float | None  # reference loop time over the operation
    rows: int


@dataclass
class Pass:
    ops: list[Op]
    digest: str
    false_alarm_rate: float = 0.0
    ood_flag_rate: float = 0.0
    errors: list[str] = field(default_factory=list)


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _flag_rates(flags: np.ndarray, groups) -> tuple[float, float]:
    groups = np.asarray(groups).astype(str)
    normal = groups == "normal"
    ood = np.array([data.is_ood_tag(g) for g in groups])
    return float(flags[normal].mean()), float(flags[ood].mean())


class PipelineWorkload:
    """`experiments.run_experiment` on one dataset, once for each of `sweep`
    seeds derived from the workload seed; each run is one timed operation.

    Early stopping makes the training work depend on the seed.  On chiller
    the rows trained per run ranged 388k to 513k over seeds 0-9, so a sweep
    of two seeds per pass halves the variance that adds between workload
    seeds.  Mnist's ranged 432k to 462k, so it runs one seed.
    """

    def __init__(self, dataset: str, work_dir: str, seed: int, sweep: int = 1):
        seeds = [seed * sweep + j for j in range(sweep)]
        self.cfgs = [experiments.config_for(dataset, seed=s) for s in seeds]
        self.data_dirs = [None] * sweep
        if dataset == "mnist":
            self.data_dirs = [os.path.join(work_dir, f"data-seed{s}") for s in seeds]

    def setup(self) -> None:
        for cfg, data_dir in zip(self.cfgs, self.data_dirs):
            if data_dir is None:
                # chiller data is generated in process; set-up generates and
                # checks the same split the pipeline will see
                train_ds, eval_ds = experiments.load_dataset_pair(cfg)
                if not (np.isfinite(train_ds.X).all() and np.isfinite(eval_ds.X).all()):
                    raise RuntimeError("generated chiller data is not finite")
                continue
            os.makedirs(data_dir, exist_ok=True)
            rc = _quiet_cli(["gen-data", "--dataset", cfg.dataset, "--seed", cfg.seed,
                             "--data-dir", data_dir])
            if rc != 0:
                raise RuntimeError(f"gen-data exited {rc}")

    def warm_up(self) -> None:
        """Nothing: a pass takes 10 to 25 s, and set-up has run just before."""

    def run_pass(self, ref=NO_REF) -> Pass:
        ops, errors, flags, groups = [], [], [], []
        h = hashlib.sha256()
        for cfg, data_dir in zip(self.cfgs, self.data_dirs):
            mark = ref.mark()
            try:
                result = experiments.run_experiment(cfg, data_dir=data_dir)
            except Exception as exc:  # a failed operation, reported not raised
                ops.append(Op(False, *ref.since(mark), rows=0))
                errors.append(f"seed {cfg.seed}: {exc!r}")
                continue
            seconds, ref_s = ref.since(mark)
            n = len(result.eval_ds)
            errs = self._check(result, n, h)
            errors += [f"seed {cfg.seed}: {e}" for e in errs]
            ops.append(Op(not errs, seconds, ref_s, n))
            flags.append(result.evals["augmented"].clf_flags)
            groups.append(result.eval_ds.group)
            del result  # so that the next seed's run starts without it
        if errors:
            return Pass(ops, h.hexdigest(), errors=errors)
        fa, ood = _flag_rates(np.concatenate(flags), np.concatenate(groups))
        return Pass(ops, h.hexdigest(), fa, ood)

    @staticmethod
    def _check(result, n: int, h) -> list[str]:
        """Hash one run's outputs into `h`; return what is malformed."""
        errors = []
        for name in experiments.MODEL_ORDER:
            ev = result.evals[name]
            th = ev.thresholds
            parts = {
                "clf_thresholds": th.clf_thresholds,
                "rec_threshold": None if th.rec_threshold is None
                else np.array([th.rec_threshold]),
                "clf_flags": ev.clf_flags,
                "rec_flags": ev.rec_flags,
                "entropies": ev.entropies,
                "sweep_thresholds": ev.report.sweep_thresholds,
                "precision": ev.report.precision,
                "recall": ev.report.recall,
            }
            for key, arr in parts.items():
                h.update(f"{name}.{key}:".encode())
                if arr is None:
                    continue
                arr = np.ascontiguousarray(arr)
                h.update(arr.tobytes())
                if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                    errors.append(f"{name}.{key} is not finite")
                if key.endswith("flags") and len(arr) != n:
                    errors.append(f"{name}.{key} has {len(arr)} rows, expected {n}")
        return errors


class ScoreWorkload:
    """`oodfdd score` on 500-row request files against a trained archive."""

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "data")
        self.model_dir = os.path.join(work_dir, "model")
        self.req_dir = os.path.join(work_dir, "requests")
        self.out_dir = os.path.join(work_dir, "out")
        self.weights = os.path.join(self.model_dir, "augmented.ofdd")
        self.requests: list[tuple[str, np.ndarray]] = []  # (csv path, group tags)

    def setup(self) -> None:
        for d in (self.data_dir, self.req_dir, self.out_dir):
            os.makedirs(d, exist_ok=True)
        common = ["--dataset", "thyroid", "--seed", self.seed, "--data-dir", self.data_dir]
        if _quiet_cli(["gen-data", *common]) != 0:
            raise RuntimeError("gen-data failed")
        if _quiet_cli(["train", *common, "--model-kind", "augmented",
                       "--out", self.model_dir]) != 0:
            raise RuntimeError("train failed")
        cfg = experiments.thyroid_config(self.seed)
        _, test = experiments.load_dataset_pair(cfg, self.data_dir)
        self.requests = []
        for i, lo in enumerate(range(0, len(test), REQUEST_ROWS)):
            part = test.select(np.arange(lo, min(lo + REQUEST_ROWS, len(test))))
            path = os.path.join(self.req_dir, f"req{i:02d}.csv")
            part.to_csv(path)
            self.requests.append((path, part.group))

    def warm_up(self) -> None:
        """Score the first request once, untimed.  A failure here is not
        reported: the timed passes repeat the request and count it."""
        path, _ = self.requests[0]
        with contextlib.suppress(Exception):
            _quiet_cli(["score", "--dataset", "thyroid", "--seed", self.seed,
                        "--data-dir", self.data_dir, "--weights", self.weights,
                        "--input", path, "--out", os.path.join(self.out_dir, "warm-up")])

    def run_pass(self, ref=NO_REF) -> Pass:
        ops, errors, flags = [], [], []
        h = hashlib.sha256()
        for i, (path, groups) in enumerate(self.requests):
            out = os.path.join(self.out_dir, f"req{i:02d}")
            argv = ["score", "--dataset", "thyroid", "--seed", self.seed,
                    "--data-dir", self.data_dir, "--weights", self.weights,
                    "--input", path, "--out", out]
            mark = ref.mark()
            try:
                rc = _quiet_cli(argv)
            except Exception as exc:  # a failed operation, reported not raised
                rc = repr(exc)
            seconds, ref_s = ref.since(mark)
            if rc != 0:
                err = f"exit {rc}"
            else:
                try:
                    err = self._check(out, len(groups), h, flags)
                except (OSError, ValueError, IndexError) as exc:
                    err = f"unreadable output: {exc!r}"
            if err:
                errors.append(f"request {i}: {err}")
            ops.append(Op(not err, seconds, ref_s, len(groups)))
        if errors:
            return Pass(ops, h.hexdigest(), errors=errors)
        fa, ood = _flag_rates(np.concatenate(flags),
                              np.concatenate([g for _, g in self.requests]))
        return Pass(ops, h.hexdigest(), fa, ood)

    @staticmethod
    def _check(out: str, n_rows: int, h, flags: list) -> str:
        """Return an error message, or "" after hashing a well-formed output."""
        with open(os.path.join(out, "thresholds.csv"), "rb") as fh:
            thr_bytes = fh.read()
        with open(os.path.join(out, "scores.csv"), "rb") as fh:
            score_bytes = fh.read()
        thr_rows = list(csv.reader(io.StringIO(thr_bytes.decode())))[1:]
        if not thr_rows or not all(np.isfinite(float(v)) for _, v in thr_rows):
            return "thresholds missing or not finite"
        rows = list(csv.reader(io.StringIO(score_bytes.decode())))
        header, body = rows[0], rows[1:]
        if len(body) != n_rows:
            return f"scores.csv has {len(body)} rows, expected {n_rows}"
        score_cols = [j for j, c in enumerate(header) if "score" in c]
        scores = np.array([[float(r[j]) for j in score_cols] for r in body])
        if not np.isfinite(scores).all():
            return "scores not finite"
        flags.append(np.array([r[header.index("flagged")] == "1" for r in body]))
        h.update(thr_bytes)
        h.update(score_bytes)
        return ""


WORKLOADS = ("chiller-pipeline", "mnist-pipeline", "thyroid-score")


def make(name: str, work_dir: str, seed: int):
    if name == "chiller-pipeline":
        return PipelineWorkload("chiller-surrogate", work_dir, seed, sweep=2)
    if name == "mnist-pipeline":
        return PipelineWorkload("mnist", work_dir, seed)
    if name == "thyroid-score":
        return ScoreWorkload(work_dir, seed)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
