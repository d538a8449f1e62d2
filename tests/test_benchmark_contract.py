"""The names the benchmark's span timers patch must exist in the package.

`benchmarks/spans.py` replaces each (module, attribute) pair of its PATCHES
with a timing wrapper; a pair that no longer resolves breaks traced benchmark
runs (`benchmarks/run.py --trace 1`). This test reads that table and changes
nothing under `benchmarks/`.
"""

import importlib
from pathlib import Path

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
