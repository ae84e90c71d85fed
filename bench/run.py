"""oodfdd benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chiller-pipeline --seed 0 --seconds 20 --trace 0

Workloads are listed in bench/workloads.py.  With ``--trace 0`` the run times
the workload's set-up (see `time_setup`), warms up, then repeats whole passes
of the workload for about ``--seconds`` (see `measure`), and prints the
end-to-end metrics.  With ``--trace 1`` it sets up once, runs one untraced
pass and one pass with the span tracer of bench/tracer.py installed, and
prints the per-layer metrics; ``--seconds`` is not used, and the two passes
must produce the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a run record: environment, seed, output digest, the measured times
behind the normalised time metrics (see bench/speedref.py), the operation
count behind the request tail, and the augmented model's flag rates.  Load
comes from this one process, one operation at a time (a closed loop with a
single client), and BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set-up is timed in SETUP_BLOCKS blocks of back-to-back set-ups lasting at
# least SETUP_BLOCK_S each, and setup_s is the median of the per-block means,
# each normalised by the speed reference sampled around its block.
SETUP_BLOCKS = 3
SETUP_BLOCK_S = 2.0

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "rows/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "success_frac": "frac",
}

# Public callables the per-layer metrics read.  One that no longer exists is
# reported as absent and its metrics read 0.
TRACED_CALLABLES = (
    "nncore.adam_step", "nncore.ensure_finite", "nncore.DenseLayer.forward",
    "nncore.DenseLayer.backward", "nncore.DenseLayer.backward_from_preactivation",
    "nncore.DropoutLayer.forward", "nncore.DropoutLayer.backward",
    "nncore.sigmoid", "nncore.softmax", "nncore.cross_entropy",
    "nncore.binary_cross_entropy", "nncore.mse", "nncore.masked_mse",
    "nncore.LayerStack.forward", "model.build", "model.load",
    "uncertainty.mc_classify_batch", "uncertainty.mc_reconstruct_batch",
    "uncertainty.predictive_entropy", "detect.calibrate_thresholds",
    "detect.group_binary_accuracies", "detect.binary_accuracy",
    "experiments.train_models", "experiments.evaluate_models", "cli.main",
)


def _pin_blas_threads() -> None:
    # must run before numpy is imported; the layers' matrices are at most
    # 196 wide, too small to gain from BLAS threads, and one thread is steadier
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no machine-readable config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def tail(values) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile; with ten samples or fewer, the maximum (percentile 100)."""
    v = sorted(values)
    n = len(v)
    if n > 10:
        return v[n - 11], 100.0 * (n - 10) / n
    return v[-1], 100.0


def time_setup(wl, ref) -> tuple[float, list[float]]:
    """Median over blocks of the normalised mean set-up time in each block;
    also the measured per-block means."""
    import speedref

    normalised, measured = [], []
    for _ in range(SETUP_BLOCKS):
        n, mark, t0 = 0, ref.mark(), time.perf_counter()
        while not n or time.perf_counter() - t0 < SETUP_BLOCK_S:
            wl.setup()
            n += 1
        seconds, ref_s = ref.since(mark)
        measured.append(seconds / n)
        normalised.append(speedref.normalised(seconds / n, ref_s))
    return statistics.median(normalised), measured


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the measured times behind them.

    Operation times are normalised to the reference speed (see
    bench/speedref.py).  `wall_s` is the median normalised pass and
    `rows_per_s` the median normalised rate.  The request latencies are the
    median normalised operation and the highest order statistic with at least
    ten operations above it; the record gives its percentile and the sample
    count.  The record also keeps the measured times.
    """
    import speedref

    ops = [op for p in passes for op in p.ops]
    op_s = [op.seconds for op in ops]
    norm_op_ms = [1000.0 * speedref.normalised(op.seconds, op.ref_s) for op in ops]
    pass_s = [_pass_wall(p) for p in passes]
    norm_s = [sum(speedref.normalised(op.seconds, op.ref_s) for op in p.ops)
              for p in passes]
    rows = [sum(op.rows for op in p.ops) for p in passes]
    tail_ms, tail_pct = tail(norm_op_ms)
    failed = sum(not op.ok for op in ops)
    values = {
        "wall_s": statistics.median(norm_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows_per_s": statistics.median(r / t for r, t in zip(rows, norm_s)),
        "request_p50_ms": statistics.median(norm_op_ms),
        "request_tail_ms": tail_ms,
        "success_frac": 1.0 - failed / len(ops),
    }
    record = {"passes": len(passes), "requests": len(ops),
              "tail_percentile": round(tail_pct, 2),
              "pass_s": pass_s, "measured_wall_s": statistics.median(pass_s),
              "measured_request_p50_ms": statistics.median(op_s) * 1000.0,
              "ref_s": [op.ref_s for op in ops],
              # per-operation times, so that tails can be pooled across runs
              "op_s": op_s}
    return values, record


def per_layer(tr, traced_wall: float, untraced_wall: float, quality) -> dict:
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    import numpy as np

    from tracer import outermost, self_times

    names, sid, start, end, parent = tr.arrays()
    dur = end - start
    own = self_times(start, end, parent)
    span_layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)[sid]

    def mask(*wanted):
        return np.isin(sid, [tr.ids[n] for n in wanted if n in tr.ids])

    def total(*wanted):
        return float(dur[outermost(mask(*wanted), parent)].sum())

    def calls(name):
        return int(mask(name).sum()) + tr.calls.get(name, 0)

    def busy(layer):
        return float(dur[outermost(span_layer == layer, parent)].sum())

    def self_s(layer):
        return float(own[span_layer == layer].sum())

    work = tr.work
    train_busy = busy("train")
    enc = work["uncertainty.encoder_rows.augmented"]
    outputs = (work["uncertainty.head_rows.augmented"]
               + work["uncertainty.decoder_rows.augmented"])
    s, n = "s", "count"
    return {
        "nncore.self_s": (self_s("nncore"), s),
        "nncore.adam_step.s": (total("nncore.adam_step"), s),
        "nncore.adam_step.calls": (calls("nncore.adam_step"), n),
        "nncore.ensure_finite.calls": (calls("nncore.ensure_finite"), n),
        "nncore.dense_forward.s": (total("nncore.DenseLayer.forward"), s),
        "nncore.dense_forward.calls": (calls("nncore.DenseLayer.forward"), n),
        "nncore.dropout.s": (total("nncore.DropoutLayer.forward",
                                   "nncore.DropoutLayer.backward"), s),
        "nncore.dense_backward.s": (total("nncore.DenseLayer.backward",
                                          "nncore.DenseLayer.backward_from_preactivation"), s),
        "nncore.activation.s": (total("nncore.sigmoid", "nncore.softmax"), s),
        "nncore.loss.s": (total("nncore.cross_entropy", "nncore.binary_cross_entropy",
                                "nncore.mse", "nncore.masked_mse"), s),
        "train.busy_s": (train_busy, s),
        "train.self_s": (self_s("train"), s),
        "train.epochs": (work["train.epochs"], n),
        "train.examples_per_s": (work["train.examples"] / train_busy if train_busy else 0.0,
                                 "rows/s"),
        "model.build_s": (total("model.build"), s),
        "model.load_s": (total("model.load"), s),
        "model.load.calls": (calls("model.load"), n),
        "model.encoder_rows": (work["model.encoder_rows"], n),
        "uncertainty.busy_s": (busy("uncertainty"), s),
        "uncertainty.mc_passes": (work["uncertainty.mc_passes"], n),
        # encoder passes per MC sample of the augmented model: each sample
        # needs one encoder pass that feeds both the head and the decoder
        "uncertainty.encoder_passes_per_sample": (2.0 * enc / outputs if outputs else 0.0,
                                                  "ratio"),
        "uncertainty.sample_tensor_mb": (tr.peaks.get("uncertainty.sample_tensor_mb", 0.0),
                                         "MB"),
        "uncertainty.entropy.calls": (calls("uncertainty.predictive_entropy"), n),
        "uncertainty.entropy.s": (total("uncertainty.predictive_entropy"), s),
        "detect.busy_s": (busy("detect"), s),
        "detect.calibration_rows": (work["detect.calibration_rows"], n),
        "detect.calibrate.calls": (calls("detect.calibrate_thresholds"), n),
        "detect.group_metrics.s": (total("detect.group_binary_accuracies",
                                         "detect.binary_accuracy"), s),
        "detect.false_alarm_rate": (quality[0], "frac"),
        "detect.ood_flag_rate": (quality[1], "frac"),
        "data.busy_s": (busy("data"), s),
        "data.rows_loaded": (work["data.rows_loaded"], n),
        "experiments.train_models_s": (total("experiments.train_models"), s),
        "experiments.evaluate_models_s": (total("experiments.evaluate_models"), s),
        "experiments.self_s": (self_s("experiments"), s),
        "cli.self_s": (self_s("cli"), s),
        "cli.requests": (calls("cli.main"), n),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }


def _pass_wall(p) -> float:
    return sum(op.seconds for op in p.ops)


def measure(wl, seconds: float, ref) -> list:
    """Whole passes, as many as bring the time measured closest to `seconds`.

    After each pass the run stops if one more pass of the mean length so far
    would overshoot `seconds` by more than stopping undershoots it.  At least
    one pass runs.  Every pass must reproduce the first pass's digest.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(ref))
        _mark_mismatch(passes[-1], passes[0].digest, f"pass {len(passes)}")
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def _mark_mismatch(p, reference: str, label: str) -> None:
    if p.digest != reference:
        for op in p.ops:
            op.ok = False
        p.errors.append(f"{label} digest {p.digest[:16]} != {reference[:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oodfdd
    import speedref
    import workloads
    from tracer import Tracer

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.make(args.workload, work_dir, args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}
    if args.trace:
        wl.setup()
        untraced = wl.run_pass()
        tr = Tracer()
        tr.install(oodfdd)
        try:
            traced = wl.run_pass()
        finally:
            tr.uninstall()
        _mark_mismatch(traced, untraced.digest, "traced pass")
        passes = [untraced, traced]
        quality = (untraced.false_alarm_rate, untraced.ood_flag_rate)
        values = per_layer(tr, _pass_wall(traced), _pass_wall(untraced), quality)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        record["absent"] = [n for n in TRACED_CALLABLES if n not in tr.wrapped]
        record["spans"] = len(tr.start)
        tr.dump(os.path.join(work_dir, "trace.npz"))
    else:
        with speedref.SpeedRef() as ref:
            setup_s, record["measured_setup_s"] = time_setup(wl, ref)
            wl.warm_up()
            passes = measure(wl, args.seconds, ref)
        values, measured = end_to_end(passes, setup_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record.update(measured)

    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    errors = [e for p in passes for e in p.errors]
    record.update({
        "digest": passes[0].digest,
        "false_alarm_rate": passes[0].false_alarm_rate,
        "ood_flag_rate": passes[0].ood_flag_rate,
        "errors": errors,
    })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
