"""`tools/ab_chunks.py` on stand-in packages and a stand-in clock.

No package is timed here: the tool's runs are about speed, not results.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  (loaded, as in any pytest run of the suite)
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_chunks.py"
spec = importlib.util.spec_from_file_location("ab_chunks", TOOL)
ab_chunks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_chunks)


def test_summary_medians_and_paired_ratios():
    times = {"parent": [2.0, 4.0, 3.0, 6.0, 5.0], "change": [1.0, 4.0, 2.0, 3.0, 4.0]}
    assert ab_chunks.summarize(times) == {
        "reps": 5,
        "parent_chunk_s": 4.0,
        "change_chunk_s": 3.0,
        # ratios 2, 1, 1.5, 2, 1.25: the median ratio is not the ratio of medians
        "ratio": {"median": 1.5, "q1": 1.25, "q3": 2.0},
    }


def fake_sides(calls, clock, seconds):
    """A side per name whose `train` records the call and advances `clock` by
    the side's chunk time."""
    def package(side):
        def train(layer, specs, dataset, train_cfg, data_rng, eval_samples):
            assert eval_samples == []
            calls.append((side, layer))
            clock[0] += seconds[side]
        return SimpleNamespace(train=train)

    arm = SimpleNamespace(layer="layer", specs=[], dataset=None, train_cfg=None, data_rng=None)
    return {side: (package(side), arm) for side in ab_chunks.SIDES}


def test_chunks_alternate_sides_after_an_untimed_warm_up(monkeypatch):
    clock, calls = [0.0], []
    monkeypatch.setattr(ab_chunks, "perf_counter", lambda: clock[0])
    sides = fake_sides(calls, clock, {"parent": 3.0, "change": 2.0})
    times = ab_chunks.time_chunks(sides, 3)
    assert [side for side, _ in calls] == ["change", "parent", "parent", "change",
                                           "change", "parent", "parent", "change"]
    assert times == {"parent": [3.0] * 3, "change": [2.0] * 3}


def test_main_prints_one_line_from_both_checkouts(tmp_path, monkeypatch, capsys):
    clock, calls, made = [0.0], [], []

    @contextlib.contextmanager
    def checkouts(rev):
        made.append(rev)
        yield [tmp_path / "parent", tmp_path / "change"]

    sides = fake_sides(calls, clock, {"parent": 3.0, "change": 2.0})
    packages = [sides[side][0] for side in ab_chunks.SIDES]

    def setup(rm, wl, seed):
        assert (wl, seed) == ("wl", ab_chunks.SEED)
        side = ab_chunks.SIDES[packages.index(rm)]
        return [SimpleNamespace(name=name, layer=(side, name), specs=[], dataset=None,
                                train_cfg=None, data_rng=None) for name in ab_chunks.ARMS]

    harness = SimpleNamespace(WORKLOADS={"wide-train": "wl"}, setup=setup)
    loaded = []
    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    monkeypatch.setattr(ab_chunks, "load_packages",
                        lambda *dirs: loaded.append(dirs) or (harness, packages))
    monkeypatch.setattr(ab_chunks, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(ab_chunks.signal, "signal", lambda *args: None)
    argv = ["--parent", "f3f1f25", "--workload", "wide-train", "--arm", "mlp", "--reps", "4"]
    assert ab_chunks.main(argv) == 0
    assert made == ["f3f1f25"] and loaded == [(tmp_path / "parent", tmp_path / "change")]
    assert {layer for _, layer in calls} == {("parent", "mlp"), ("change", "mlp")}
    assert all(side == layer[0] for side, layer in calls)
    assert json.loads(capsys.readouterr().out) == {
        "workload": "wide-train", "arm": "mlp", "parent": "f3f1f25", "reps": 4,
        "parent_chunk_s": 3.0, "change_chunk_s": 2.0,
        "ratio": {"median": 1.5, "q1": 1.5, "q3": 1.5},
    }


@pytest.mark.parametrize("flags", [
    ["--arm", "rotmole", "--reps", "0"],
    ["--arm", "rotmole", "--reps", "x"],
    ["--arm", "scaling_only", "--reps", "5"],
    ["--arm", "rotmole", "--reps", "5", "--workload", "wide-trian"],
    ["--arm", "rotmole"],
])
def test_main_rejects_bad_arguments_before_any_checkout(monkeypatch, capsys, flags):
    def checkouts(rev):
        raise AssertionError("a checkout was made")

    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    with pytest.raises(SystemExit) as exit_info:
        ab_chunks.main(["--parent", "f3f1f25", "--workload", "wide-train"] + flags)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err


def test_load_packages_refuses_once_numpy_is_loaded(tmp_path):
    path = list(sys.path)
    with pytest.raises(RuntimeError, match="BLAS"):
        ab_chunks.load_packages(tmp_path / "parent", tmp_path / "change")
    assert sys.path == path
