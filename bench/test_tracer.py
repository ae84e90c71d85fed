"""Tests for the benchmark's tracer: span arithmetic, wrapping, absent callables.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import sys
import time
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, outermost, self_times  # noqa: E402

# root [0, 10] holds A [1, 4] and B [5, 9]; A holds A1 [2, 3]
START = [0.0, 1.0, 2.0, 5.0]
END = [10.0, 4.0, 3.0, 9.0]
PARENT = [-1, 0, 1, 0]


def test_self_time_subtracts_direct_children_only():
    assert self_times(START, END, PARENT).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    assert self_times(START, END, PARENT).sum() == END[0] - START[0]


def test_outermost_skips_members_nested_in_members():
    # A and A1 are members; A1 sits inside A, so only A and B count
    member = [False, True, True, True]
    assert outermost(member, PARENT).tolist() == [False, True, False, True]


def test_outermost_sees_through_non_member_ancestors():
    # root -> X -> Y -> Z with root and Z members: Z is covered by root
    parent = [-1, 0, 1, 2]
    member = [True, False, False, True]
    assert outermost(member, parent).tolist() == [True, False, False, False]


def _fake_package():
    """A package with an nncore layer and a cli that imports it by name."""
    pkg = types.ModuleType("fakepkg")
    nncore = types.ModuleType("fakepkg.nncore")
    cli = types.ModuleType("fakepkg.cli")

    def ensure_finite(x):
        return x

    def inner(x):
        return nncore.ensure_finite(x) + 1

    def outer(x):
        return nncore.inner(x) * 2

    for fn in (ensure_finite, inner, outer):
        fn.__module__ = nncore.__name__
        setattr(nncore, fn.__name__, fn)
    cli.outer = outer
    pkg.nncore, pkg.cli = nncore, cli
    return pkg


def test_install_wraps_every_binding_and_uninstall_restores():
    pkg = _fake_package()
    original = pkg.nncore.outer
    tr = Tracer()
    tr.install(pkg)
    assert pkg.cli.outer is pkg.nncore.outer is not original
    assert pkg.cli.outer(3) == 8
    tr.uninstall()
    assert pkg.cli.outer is pkg.nncore.outer is original

    names, sid, start, end, parent = tr.arrays()
    assert [names[i] for i in sid] == ["nncore.outer", "nncore.inner"]
    assert parent.tolist() == [-1, 0]
    assert (end >= start).all()
    # count-only helpers leave no span but are counted
    assert tr.calls["nncore.ensure_finite"] == 1


def test_absent_callable_is_reported_and_run_is_unaffected(tmp_path, monkeypatch):
    from oodfdd import experiments, model

    wl = workloads.make("chiller-pipeline", str(tmp_path), 0)
    wl.cfgs = [experiments.chiller_config(0, n_per_class=120, epochs=2,
                                          pretrain_epochs=1, t_samples=4)]
    wl.data_dirs = [None]
    untraced = wl.run_pass()
    assert not untraced.errors

    # the pipeline never loads an archive, so removing `load` stands in for a
    # public function that a later version of the program no longer has
    monkeypatch.delattr(model, "load")
    import oodfdd

    tr = Tracer()
    tr.install(oodfdd)
    try:
        traced = wl.run_pass()
    finally:
        tr.uninstall()

    assert traced.digest == untraced.digest
    assert "model.load" not in tr.wrapped
    assert [n for n in run.TRACED_CALLABLES if n not in tr.wrapped] == ["model.load"]
    metrics = run.per_layer(tr, 1.0, 1.0, (0.0, 0.0))
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [metrics[m["name"]][1] for m in BENCHMARK["per_layer"]] == [
        m["unit"] for m in BENCHMARK["per_layer"]]
    assert metrics["model.load.calls"][0] == 0
    assert metrics["model.load_s"][0] == 0.0
    assert metrics["uncertainty.encoder_passes_per_sample"][0] == pytest.approx(2.0)
    assert metrics["nncore.adam_step.calls"][0] > 0


def test_end_to_end_metrics_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("n, expected", [(5, (5.0, 100.0)), (11, (1.0, 100.0 / 11)),
                                         (20, (10.0, 50.0))])
def test_tail_keeps_ten_samples_above(n, expected):
    assert run.tail(np.arange(1.0, n + 1)) == expected


class _FixedPassWorkload:
    """Each pass advances a fake clock by `pass_s` seconds."""

    def __init__(self, clock, pass_s):
        self.clock, self.pass_s = clock, pass_s

    def run_pass(self, ref):
        self.clock[0] += self.pass_s
        return workloads.Pass([workloads.Op(True, self.pass_s, None, 1)], "digest")


@pytest.mark.parametrize("pass_s, expected", [(11.0, 2), (20.0, 1), (3.6, 7), (40.0, 1)])
def test_measure_runs_the_pass_count_closest_to_seconds(monkeypatch, pass_s, expected):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    passes = run.measure(_FixedPassWorkload(clock, pass_s), 25.0, workloads.NO_REF)
    assert len(passes) == expected
    assert not any(p.errors for p in passes)


def test_pass_times_are_normalised_to_the_reference_speed():
    import speedref

    # the first pass ran at half the reference speed, the others at full speed
    passes = [workloads.Pass([workloads.Op(True, s, ref, 100), workloads.Op(True, s, ref, 50)],
                             "d")
              for s, ref in ((4.0, 2 * speedref.REF_S), (1.5, speedref.REF_S),
                             (3.0, speedref.REF_S))]
    values, measured = run.end_to_end(passes, setup_s=1.0)
    assert values["wall_s"] == pytest.approx(4.0)  # median of 4.0, 3.0 and 6.0
    assert values["rows_per_s"] == pytest.approx(150 / 4.0)
    # operations of 2.0, 1.5 and 3.0 normalised seconds, two of each
    assert values["request_p50_ms"] == pytest.approx(2000.0)
    assert values["request_tail_ms"] == pytest.approx(3000.0)
    assert measured["measured_wall_s"] == 6.0
    assert measured["pass_s"] == [8.0, 3.0, 6.0]


def test_speed_reference_scales_measured_time():
    import speedref

    assert speedref.normalised(3.0, 2 * speedref.REF_S) == pytest.approx(1.5)


def test_timer_samples_are_averaged_and_their_time_taken_out(monkeypatch):
    import signal

    import speedref

    monkeypatch.setattr(speedref, "TICK_S", 0.05)
    with speedref.SpeedRef() as ref:
        mark = ref.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        seconds, ref_s = ref.since(mark)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ref.ticks) >= 3
    assert seconds == pytest.approx(0.5 - ref.tick_s, abs=0.05)
    assert min(ref.ticks) <= ref_s <= max([*ref.ticks, ref.latest, mark[0]])
