"""`tools/ab_chunks.py` on a stand-in harness, and on the real one.

The stand-in tests check the tool's order and arithmetic. `figures` is held
to what `harness.execute` reports of the same round. The smoke test runs one
tiny round per side of each workload through the real harness and package,
so a harness that no longer fits the tool fails here by running, not by
matching text.
"""

import contextlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  (loaded, as in any pytest run of the suite)
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
TOOL = ROOT / "tools" / "ab_chunks.py"
spec = importlib.util.spec_from_file_location("ab_chunks", TOOL)
ab_chunks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_chunks)

SPECS = [
    {"name": "rate", "unit": "samples/s", "better": "higher", "bound": 0.22},
    {"name": "time", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_summary_medians_and_paired_ratios():
    metrics = {
        "parent": [{"rate": r, "time": t} for r, t in [(1, 2), (4, 4), (2, 3), (3, 6), (4, 5)]],
        "change": [{"rate": r, "time": t} for r, t in [(2, 1), (4, 4), (3, 2), (6, 3), (5, 4)]],
    }
    metrics["change"].append({"time": 1})  # a rep whose every chunk diverged on the change
    metrics["parent"].append({"rate": 9, "time": 9})
    failed = {"parent": 0, "change": 3}
    assert ab_chunks.summarize(SPECS, metrics, failed) == {
        "reps": 6,
        "metrics": {
            # ratios 2, 1, 1.5, 2, 1.25: the median ratio is not the ratio of medians
            "rate": {"parent": 3, "change": 4, "ratio": {"median": 1.5, "q1": 1.25, "q3": 2.0},
                     "change_wins": 4},
            # parent / change, since lower is better: 2, 1, 1.5, 2, 1.25, 9
            "time": {"parent": 4.5, "change": 2.5,
                     "ratio": {"median": 1.75, "q1": 1.3125, "q3": 2.0}, "change_wins": 5},
        },
        "failed": failed,
    }


def fake_harness(calls):
    """A stand-in harness, and a stand-in package per side, whose rounds
    record which side ran them and fail one operation each."""
    def setup(rm, wl, seed):
        assert (wl, seed) == ("wl", ab_chunks.SEED)
        return [SimpleNamespace(name="rotmole", side=rm.side)]

    def run_state(rm, wl, seed, arms, probe, losses, thetas):
        assert (wl, seed, probe(), losses, thetas) == ("wl", ab_chunks.SEED, 1.0, [],
                                                      {"rotmole": []})
        return SimpleNamespace(rm=rm, arms=arms)

    def run_round(st, tracer):
        assert tracer is None and st.arms[0].side == st.rm.side
        calls.append(st.rm.side)
        return SimpleNamespace(side=st.rm.side, failed=1)

    harness = SimpleNamespace(WORKLOADS={"wide-train": "wl"}, setup=setup, RunState=run_state,
                              run_round=run_round)
    return harness, [SimpleNamespace(side=side) for side in ab_chunks.SIDES]


def fake_figures(seconds):
    """Figures of a round of side s that took `seconds[s]`."""
    return lambda harness, wl, arms, r: {
        "rotmole_train_samples_per_s": 1 / seconds[r.side], "floor_oracle_s": seconds[r.side]}


def test_chunks_alternate_sides_after_an_untimed_warm_up(monkeypatch):
    calls, seconds = [], {"parent": 3.0, "change": 2.0}
    harness, packages = fake_harness(calls)
    monkeypatch.setattr(ab_chunks, "figures", fake_figures(seconds))
    metrics, failed = ab_chunks.time_rounds(harness, "wl", packages, 3)
    assert calls == ["change", "parent", "parent", "change",
                     "change", "parent", "parent", "change"]
    assert metrics == {side: [{"rotmole_train_samples_per_s": 1 / s, "floor_oracle_s": s}] * 3
                       for side, s in seconds.items()}
    assert failed == {"parent": 3, "change": 3}  # the warm-up rounds' failures do not count


def test_main_prints_one_line_from_both_checkouts(tmp_path, monkeypatch, capsys):
    calls, made, loaded = [], [], []
    seconds = {"parent": 3.0, "change": 2.0}
    harness, packages = fake_harness(calls)

    @contextlib.contextmanager
    def checkouts(rev):
        made.append(rev)
        yield [tmp_path / "parent", tmp_path / "change"]

    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    monkeypatch.setattr(ab_chunks, "load_packages",
                        lambda *dirs: loaded.append(dirs) or (harness, packages))
    monkeypatch.setattr(ab_chunks, "figures", fake_figures(seconds))
    monkeypatch.setattr(ab_chunks.signal, "signal", lambda *args: None)
    code = ab_chunks.main(["--parent", "f3f1f25", "--workload", "wide-train", "--reps", "4"])
    assert code == 0
    assert made == ["f3f1f25"] and loaded == [(tmp_path / "parent", tmp_path / "change")]
    assert len(calls) == 2 * 5  # both sides, a warm-up and four timed rounds
    ratio = {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert json.loads(capsys.readouterr().out) == {
        "workload": "wide-train", "parent": "f3f1f25", "reps": 4,
        "metrics": {
            "rotmole_train_samples_per_s": {"parent": 1 / 3, "change": 1 / 2, "ratio": ratio,
                                            "change_wins": 4},
            "floor_oracle_s": {"parent": 3.0, "change": 2.0, "ratio": ratio, "change_wins": 4},
        },
        "failed": {"parent": 4, "change": 4},
    }


@pytest.mark.parametrize("workload", ["small-compare", "wide-train", "gradcheck-sweep"])
def test_figures_are_what_execute_reports_of_a_one_round_run(monkeypatch, tmp_path, workload):
    """`figures` derives the round's metrics as `harness.execute` derives a
    run's: here execute runs on a stand-in measurement of that one round,
    with its checks stubbed out, and must report the same numbers exactly."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    harness = importlib.import_module("harness")
    wl = harness.WORKLOADS[workload]
    arms = [SimpleNamespace(name=name, dataset=SimpleNamespace(batch_size=8 * (i + 1)),
                            held_out=[None] * (50 + 7 * i))
            for i, name in enumerate(harness.ARMS)]
    r = harness.Round(
        wall=9.0, slowness=1.0, traced=False,
        chunk_s={arm.name: [0.03 * (i + 1), 0.01, 0.02 * (i + 2)] for i, arm in enumerate(arms)},
        eval_s={arm.name: [0.004 + 0.001 * i, 0.005, 0.003] for i, arm in enumerate(arms)},
        eval_samples=0, floor_s=0.37, floor=1.0,
        trial_s={name: [0.2 + 0.1 * i, 0.15][:wl.gradcheck_trials]
                 for i, name in enumerate(wl.gradcheck_arms)},
        trial_params={name: 100 + 31 * i for i, name in enumerate(wl.gradcheck_arms)},
        gradcheck_params=0, final_mse={}, attempted=1, failed=0)
    monkeypatch.setattr(harness, "measure", lambda *args: harness.Measured(
        SimpleNamespace(arms=arms), [r], [0.5], None, {}, 9.0))
    monkeypatch.setattr(harness, "collect_evidence", lambda *args: None)
    monkeypatch.setattr(harness.checks, "run_checks", lambda ev: [])
    monkeypatch.setattr(harness.checks, "observed", lambda ev: {})
    reported = harness.execute(wl, ab_chunks.SEED, 0.0, False, tmp_path)["metrics"]
    figures = ab_chunks.figures(harness, wl, arms, r)
    assert set(reported) - set(figures) == {"setup_s", "peak_rss_mb"}
    assert figures == {name: reported[name]["value"] for name in figures}


def test_figures_leave_out_an_arm_whose_every_chunk_diverged():
    harness = SimpleNamespace(ARM_METRIC={"a": "a_rate", "b": "b_rate"},
                              held_out_sizes=lambda arms: {"sizes": len(arms)},
                              pooled_rate=lambda rounds, times, amounts: (times, amounts))
    wl = SimpleNamespace(chunk_steps=3)
    arms = [SimpleNamespace(name=name, dataset=SimpleNamespace(batch_size=4)) for name in "ab"]
    r = SimpleNamespace(chunk_s={"a": [], "b": [2.0, 6.0, 1.0]}, floor_s=0.5,
                        trial_params={"config": 7})
    assert ab_chunks.figures(harness, wl, arms, r) == {
        "b_rate": 3 * 4 / 2.0,  # the median chunk, not the mean
        "eval_samples_per_s": ("eval_s", {"sizes": 2}),
        "floor_oracle_s": 0.5,
        "gradcheck_params_per_s": ("trial_s", {"config": 7}),
    }


def test_main_reports_a_failed_checkout(monkeypatch, capsys):
    def checkouts(rev):
        raise subprocess.CalledProcessError(128, ["git", "archive", rev])

    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    monkeypatch.setattr(ab_chunks.signal, "signal", lambda *args: None)
    code = ab_chunks.main(["--parent", "no-such-rev", "--workload", "wide-train", "--reps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: git archive no-such-rev exited 128\n"


def test_sigterm_removes_the_checkouts(tmp_path, monkeypatch):
    """A SIGTERM while the rounds run unwinds through the checkouts' clean-up
    and exits 143."""
    handlers, removed = {}, []
    harness, packages = fake_harness([])

    @contextlib.contextmanager
    def checkouts(rev):
        try:
            yield [tmp_path / "parent", tmp_path / "change"]
        finally:
            removed.append(rev)

    def time_rounds(*args):
        handlers[ab_chunks.signal.SIGTERM](ab_chunks.signal.SIGTERM, None)
        raise AssertionError("the rounds ran on after SIGTERM")

    monkeypatch.setattr(ab_chunks.signal, "signal", handlers.__setitem__)
    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    monkeypatch.setattr(ab_chunks, "load_packages", lambda *dirs: (harness, packages))
    monkeypatch.setattr(ab_chunks, "time_rounds", time_rounds)
    with pytest.raises(SystemExit) as exit_info:
        ab_chunks.main(["--parent", "f3f1f25", "--workload", "wide-train", "--reps", "1"])
    assert exit_info.value.code == 143
    assert removed == ["f3f1f25"]


@pytest.mark.parametrize("flags", [
    ["--reps", "0"],
    ["--reps", "x"],
    ["--reps", "5", "--workload", "wide-trian"],
    [],
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


SMOKE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("ab_chunks", sys.argv[1])
ab_chunks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_chunks)
harness, packages = ab_chunks.load_packages(ab_chunks.bench_pairs.ROOT, ab_chunks.bench_pairs.ROOT)
wl = harness.WORKLOADS[sys.argv[2]].tiny()
print(json.dumps(ab_chunks.time_rounds(harness, wl, packages, 1)))
"""


@pytest.mark.parametrize("workload", ["small-compare", "wide-train", "gradcheck-sweep"])
def test_rounds_of_the_real_harness_give_every_timed_metric(workload):
    """One tiny round per side, run by the tool in a process with no numpy
    loaded: every end-to-end metric but set-up time and peak RSS, which no
    round measures, comes back finite and positive."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", SMOKE, str(TOOL), workload], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    metrics, failed = json.loads(proc.stdout.splitlines()[-1])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = {m["name"] for m in benchmark["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert len(timed) == 7
    for side in ab_chunks.SIDES:
        [figures] = metrics[side]
        assert set(figures) == timed
        assert all(math.isfinite(v) and v > 0 for v in figures.values())
    assert failed == {"parent": 0, "change": 0}
