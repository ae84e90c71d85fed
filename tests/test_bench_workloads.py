"""One pass of each benchmark workload (`bench/workloads.py`), at smoke scale.

A workload reads fields of the program's results (`ModelEval.report`,
`.entropies`, `Calibration.clf_thresholds`) and its output files, so a
change that drops one of them fails here, not first in a benchmark run.
The pipelines train for the smoke budget of `bench/test_tracer.py`; the
score workload runs as shipped.
"""

import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import workloads  # noqa: E402

SMOKE = dict(epochs=2, pretrain_epochs=1, t_samples=4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_pass_of_each_workload_succeeds(name, tmp_path):
    wl = workloads.make(name, str(tmp_path), 0)
    if isinstance(wl, workloads.PipelineWorkload):
        wl.cfgs = [replace(cfg, **SMOKE, **({"n_per_class": 120}
                                            if cfg.dataset == "chiller-surrogate" else {}))
                   for cfg in wl.cfgs]
    wl.setup()
    p = wl.run_pass()
    assert p.errors == []
    assert p.ops and all(op.ok for op in p.ops)
    assert 0.0 <= p.false_alarm_rate <= 1.0
    assert 0.0 <= p.ood_flag_rate <= 1.0
