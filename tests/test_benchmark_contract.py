"""What the benchmark reads of the package must stay as it reads it.

`benchmarks/spans.py` replaces each (module, attribute) pair of its PATCHES
with a timing wrapper; a pair that no longer resolves breaks traced benchmark
runs (`benchmarks/run.py --trace 1`). `benchmarks/harness.py` builds its
held-out sets from `sample_batch`'s lists of `Sample`, trains with an empty
eval set, keeps the `ThetaRecord`s `train` returns, and certifies gradients
with `forward`, `backward` and `autograd.finite_diff_grad`. `backward` is a
one-row `backward_batch`, so the benchmark's `certify` and directional check
hold the training path's reverse pass to central differences. A traced round
runs every patch and inspector of `spans.py`, so one traced run must measure.
These tests read `benchmarks/` and change nothing there.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rotmole  # noqa: F401  (loads every module the table names)

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def test_span_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # spans imports its sibling checks
    spans = importlib.import_module("spans")
    assert spans.PATCHES
    missing = [
        (module, attr) for module, attr, _ in spans.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing


def test_harness_set_up_train_and_evaluate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    harness = importlib.import_module("harness")
    wl = harness.WORKLOADS["small-compare"].tiny()
    for arm in harness.setup(rotmole, wl, seed=3):
        assert type(arm.held_out) is list and arm.held_out
        for sample in arm.held_out:
            assert type(sample) is rotmole.Sample and type(sample.task_id) is int
            for v in (sample.x, sample.y):
                assert v.dtype == np.float64 and v.shape == (wl.d,)
        _, metrics, thetas = rotmole.train(
            arm.layer, arm.specs, arm.dataset, arm.train_cfg, arm.data_rng, []
        )
        assert metrics and thetas, arm.name
        for record in thetas:
            assert type(record) is rotmole.ThetaRecord
            assert type(record.step) is int and type(record.task_id) is int
        per_task = rotmole.evaluate(arm.layer, arm.held_out)
        assert list(per_task) == list(range(wl.n_task))
        assert all(type(v) is float for v in per_task.values())


def test_harness_certify_passes(monkeypatch):
    # The benchmark's certification trial, as `run_round` makes it: every arm
    # of the gradcheck-sweep workload (at its tiny size) certifies, and the
    # central differences cover exactly the layer's trainable arrays.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    harness = importlib.import_module("harness")
    checks = importlib.import_module("checks")
    wl = harness.WORKLOADS["gradcheck-sweep"].tiny()
    for name, config in harness.arm_configs(rotmole, wl, 4).items():
        trial = harness.certify(rotmole, config, rotmole.Rng(17))
        assert checks.fd_disagreement(**trial) <= 1.0, name
        names = list(rotmole.adapter.trainable_params(rotmole.init_adapter(config, rotmole.Rng(0))))
        assert list(trial["analytic"]) == names and list(trial["numeric"]) == names, name


# `measure` imports the package afresh (`harness.fresh_import`), which would
# replace the `rotmole` modules the other tests hold, so it runs in its own
# process. It leaves out `execute`'s checks: their verdicts depend on the
# round count (ROADMAP item 1).
TRACED_RUN = """
import json, math
import harness
wl = harness.WORKLOADS["wide-train"].tiny()
m = harness.measure(wl, seed=1, seconds=0.0, trace=True)
metrics = harness.per_layer(m.tracer, m.first_counts, m.rounds, wl, m.st.arms)
print(json.dumps({name: value for name, value in metrics.items() if math.isfinite(value)}))
"""


def test_traced_run_measures_every_per_layer_metric():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCHMARKS)]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    finite = json.loads(proc.stdout.splitlines()[-1])
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [n for n in names if n not in finite] == []
