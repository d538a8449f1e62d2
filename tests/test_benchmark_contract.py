"""What the benchmark reads of the package must stay as it reads it.

`benchmarks/spans.py` replaces each (module, attribute) pair of its PATCHES
with a timing wrapper; a pair that no longer resolves breaks traced benchmark
runs (`benchmarks/run.py --trace 1`). `benchmarks/harness.py` builds its
held-out sets from `sample_batch`'s lists of `Sample`, trains with an empty
eval set and keeps the `ThetaRecord`s `train` returns. These tests read
`benchmarks/` and change nothing there.
"""

import importlib
from pathlib import Path

import numpy as np

import rotmole  # noqa: F401  (loads every module the table names)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
