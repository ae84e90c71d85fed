"""Span tracer that times oodfdd from outside, by wrapping its public callables.

`Tracer.install` replaces every public function and method that an oodfdd
layer module defines with a timing wrapper, in every oodfdd module namespace
that binds it (``cli`` imports ``mc_classify_batch`` and others by name, so
patching only the defining module would miss those calls).  Nothing under
``src/`` is edited; `Tracer.uninstall` puts the originals back.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans live in flat in-memory arrays and are
written out once, after the run.  A few helpers are called hundreds of
thousands of times per run; those get count-only wrappers so that tracing
does not swamp what it measures, and their time stays in the caller's self
time.

Probes attached to a handful of callables turn arguments and results into
work counts (rows through the encoder, epochs trained, calibration rows, ...)
at the same boundary where the span is recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# Module names double as layer names.  `report` is left out on purpose: no
# timed user path goes through it.
LAYERS = ("nncore", "model", "train", "uncertainty", "detect", "data",
          "experiments", "cli")

# Helpers hot enough that a span per call would dominate the traced run.
COUNT_ONLY = frozenset({
    "nncore.ensure_finite",
    "nncore.as_matrix",
    "nncore.DenseLayer.zero_grad",
    "nncore.DropoutLayer.zero_grad",
    "nncore.DenseLayer.params",
    "nncore.DropoutLayer.params",
    "data.is_ood_tag",
    "uncertainty.group_bucket",
    "uncertainty.expand_binary",
    "detect.diagnostic_accuracy",
})


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another on one thread, so the part
    of the parent they cover is the sum of their durations.  `parent[i]` is
    the index of span i's parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def outermost(member, parent) -> np.ndarray:
    """Mask of member spans with no member among their ancestors.

    Summing the durations of these spans gives the time a set of spans was
    busy without counting nested members twice.
    """
    member = np.asarray(member, dtype=bool)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(member), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        covered[live] |= member[anc[live]]
        anc[live] = parent[anc[live]]
    return member & ~covered


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else len(x)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counts for one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}  # span name -> index in names
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls: Counter = Counter()  # count-only helpers
        self.work: Counter = Counter()   # probe counters
        self.peaks: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._roles = weakref.WeakKeyDictionary()  # LayerStack -> (role, kind)
        self._patches: list[tuple[object, str, object]] = []
        self._probes = {
            "model.build": self._probe_build,
            "nncore.LayerStack.forward": self._probe_stack_forward,
            "uncertainty.mc_classify_batch": self._probe_mc_classify,
            "detect.calibrate_thresholds": self._probe_calibrate,
            "data.load_thyroid": self._probe_rows_loaded,
            "data.load_mnist": self._probe_rows_loaded,
            "data.gen_chiller_surrogate": self._probe_rows_loaded,
            "train.train_joint": self._probe_epochs,
            "train.train_classifier": self._probe_epochs,
            "train.train_autoencoder": self._probe_epochs,
        }

    # -- installing ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public callables of every layer module of `package`."""
        modules = {name: mod for name, mod in vars(package).items()
                   if inspect.ismodule(mod)
                   and mod.__name__ == f"{package.__name__}.{name}"}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, f"{layer}.{obj.__name__}", layer)
        # rebind in every oodfdd module, report included, so that a call
        # through any imported name reaches the wrapper
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = self._wrap(raw.__func__, f"{prefix}.{attr}", layer)
                self._patch(cls, attr, type(raw)(fn))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{prefix}.{attr}", layer))

    def _wrap(self, fn, name: str, layer: str):
        self.wrapped.add(name)
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        sid = self.ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        probe = self._probes.get(name)
        stack, depth = self._stack, self._depth
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            depth[layer] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[layer] -= 1
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return timed

    # -- probes --------------------------------------------------------------

    def _probe_build(self, args, kwargs, net) -> None:
        kind = net.kind.value
        for role in ("encoder", "head", "decoder"):
            stack = getattr(net, role)
            if stack is not None:
                self._roles[stack] = (role, kind)

    def _probe_stack_forward(self, args, kwargs, result) -> None:
        role, kind = self._roles.get(args[0], (None, None))
        if role is None:
            return
        rows = _rows(_arg(args, kwargs, 1, "x"))
        stochastic = bool(_arg(args, kwargs, 3, "stochastic", False))
        if role == "encoder":
            self.work["model.encoder_rows"] += rows
            if stochastic and self._depth["train"]:
                self.work["train.examples"] += rows
        if self._depth["uncertainty"]:
            self.work[f"uncertainty.{role}_rows.{kind}"] += rows
            if role == "encoder":
                self.work["uncertainty.mc_passes"] += 1

    def _probe_mc_classify(self, args, kwargs, result) -> None:
        net = args[0]
        t = _arg(args, kwargs, 2, "t")
        mb = t * _rows(_arg(args, kwargs, 1, "x")) * net.n_outputs * 8 / 1e6
        self.peaks["uncertainty.sample_tensor_mb"] = max(
            mb, self.peaks.get("uncertainty.sample_tensor_mb", 0.0))

    def _probe_calibrate(self, args, kwargs, result) -> None:
        clf = _arg(args, kwargs, 0, "clf_scores")
        rec = _arg(args, kwargs, 2, "rec_scores")
        self.work["detect.calibration_rows"] += len(clf if clf is not None else rec)

    def _probe_rows_loaded(self, args, kwargs, result) -> None:
        self.work["data.rows_loaded"] += len(result)

    def _probe_epochs(self, args, kwargs, history) -> None:
        self.work["train.epochs"] += len(history)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(names table, name index, start, end, parent) as numpy arrays."""
        return (self.names, np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32))

    def dump(self, path) -> None:
        """Write every span and counter to one .npz file."""
        names, sid, start, end, parent = self.arrays()
        meta = {"names": names, "calls": dict(self.calls), "work": dict(self.work),
                "peaks": self.peaks}
        np.savez_compressed(path, name=sid, start=start, end=end, parent=parent,
                            meta=np.array(json.dumps(meta)))
