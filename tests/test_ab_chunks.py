"""`tools/ab_chunks.py` on stand-in packages and a stand-in clock.

No package is timed here: the tool's runs are about speed, not results.
"""

import ast
import contextlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  (loaded, as in any pytest run of the suite)
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_chunks.py"
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


def fake_packages(calls, clock, seconds):
    """A stand-in package per side whose functions record each call and
    advance `clock` by the side's unit time."""
    def package(side):
        def record(*args):
            calls.append((side,) + args)
            clock[0] += seconds[side]

        def train(layer, specs, dataset, train_cfg, data_rng, eval_samples):
            record("train", layer, eval_samples)

        def analytic_baseline_floor(specs, dataset, n_mc):
            record("floor", specs, dataset, n_mc)

        return SimpleNamespace(train=train, analytic_baseline_floor=analytic_baseline_floor,
                               Rng=lambda seed: ["rng", side, seed])
    return {side: package(side) for side in ab_chunks.SIDES}


WL = SimpleNamespace(gradcheck_n=3, gradcheck_arms=("rotmole", "mlp"), gradcheck_trials=2)


def fake_harness(calls, clock, seconds, packages):
    """A stand-in harness whose set-up builds one arm per name for each
    stand-in package, and whose `certify` records the call."""
    def setup(rm, wl, seed):
        assert (wl, seed) == (WL, ab_chunks.SEED)
        side = ab_chunks.SIDES[list(packages.values()).index(rm)]
        return [SimpleNamespace(name=name, layer=(side, name), specs=("specs", side, name),
                                dataset=("data", side, name), train_cfg=None, data_rng=None)
                for name in ab_chunks.ARMS]

    def arm_configs(rm, wl, n):
        assert (wl, n) == (WL, WL.gradcheck_n)
        return {name: ("config", name) for name in ab_chunks.ARMS}

    def certify(rm, config, rng):
        side = ab_chunks.SIDES[list(packages.values()).index(rm)]
        calls.append((side, "certify", config, rng[2], len(rng) - 3))  # seed, earlier trials
        rng.append("drawn")  # a trial advances the generator it is given
        clock[0] += seconds[side]

    return SimpleNamespace(WORKLOADS={"wide-train": WL}, FLOOR_MC=10_000, setup=setup,
                           arm_configs=arm_configs, certify=certify)


def test_chunks_alternate_sides_after_an_untimed_warm_up(monkeypatch):
    clock, calls = [0.0], []
    monkeypatch.setattr(ab_chunks, "perf_counter", lambda: clock[0])
    seconds = {"parent": 3.0, "change": 2.0}

    def unit(side):
        def run():
            calls.append(side)
            clock[0] += seconds[side]
        return run

    units = {side: unit(side) for side in seconds}
    times = ab_chunks.time_chunks(units, 3)
    assert calls == ["change", "parent", "parent", "change",
                     "change", "parent", "parent", "change"]
    assert times == {"parent": [3.0] * 3, "change": [2.0] * 3}


def test_units_call_the_package_as_a_round_does():
    clock, calls = [0.0], []
    seconds = {"parent": 3.0, "change": 2.0}
    packages = fake_packages(calls, clock, seconds)
    harness = fake_harness(calls, clock, seconds, packages)
    rm = packages["change"]
    arm = {a.name: a for a in harness.setup(rm, WL, ab_chunks.SEED)}["mlp"]
    ab_chunks.unit(harness, rm, WL, "train", arm)()
    ab_chunks.unit(harness, rm, WL, "floor", arm)()
    certify = ab_chunks.unit(harness, rm, WL, "certify", None)
    certify()
    certify()
    names = [name for name in WL.gradcheck_arms for _ in range(WL.gradcheck_trials)]
    trials = [("change", "certify", ("config", name), ab_chunks.SEED + 2, earlier)
              for earlier, name in enumerate(names)]
    assert calls == [
        ("change", "train", ("change", "mlp"), []),
        ("change", "floor", ("specs", "change", "mlp"), ("data", "change", "mlp"), 10_000),
    ] + trials + trials  # each certify unit starts from a fresh generator


def run_main(tmp_path, monkeypatch, flags):
    """`main` on stand-in checkouts and packages, timed by a stand-in clock:
    its exit code, printed JSON line and recorded calls."""
    clock, calls, made, loaded = [0.0], [], [], []

    @contextlib.contextmanager
    def checkouts(rev):
        made.append(rev)
        yield [tmp_path / "parent", tmp_path / "change"]

    seconds = {"parent": 3.0, "change": 2.0}
    packages = fake_packages(calls, clock, seconds)
    harness = fake_harness(calls, clock, seconds, packages)
    monkeypatch.setattr(ab_chunks.bench_pairs, "checkouts", checkouts)
    monkeypatch.setattr(ab_chunks, "load_packages",
                        lambda *dirs: loaded.append(dirs) or (harness, list(packages.values())))
    monkeypatch.setattr(ab_chunks, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(ab_chunks.signal, "signal", lambda *args: None)
    code = ab_chunks.main(["--parent", "f3f1f25", "--workload", "wide-train"] + flags)
    assert made == ["f3f1f25"] and loaded == [(tmp_path / "parent", tmp_path / "change")]
    return code, calls


def test_main_prints_one_line_from_both_checkouts(tmp_path, monkeypatch, capsys):
    code, calls = run_main(tmp_path, monkeypatch, ["--arm", "mlp", "--reps", "4"])
    assert code == 0
    assert {call[:3] for call in calls} == {("parent", "train", ("parent", "mlp")),
                                            ("change", "train", ("change", "mlp"))}
    assert json.loads(capsys.readouterr().out) == {
        "workload": "wide-train", "arm": "mlp", "parent": "f3f1f25", "reps": 4,
        "parent_chunk_s": 3.0, "change_chunk_s": 2.0,
        "ratio": {"median": 1.5, "q1": 1.5, "q3": 1.5},
    }


@pytest.mark.parametrize("unit, per_unit", [
    ("floor", 1),
    ("certify", 4),  # two arms, two trials each
])
def test_main_times_floor_and_certify_units(tmp_path, monkeypatch, capsys, unit, per_unit):
    code, calls = run_main(tmp_path, monkeypatch, ["--unit", unit, "--reps", "2"])
    assert code == 0
    assert {call[1] for call in calls} == {unit}
    assert len(calls) == 2 * 3 * per_unit  # both sides, a warm-up and two timed units
    if unit == "floor":  # on the tasks of the set-up's first arm, as a round
        assert {call[2] for call in calls} == {("specs", side, ab_chunks.ARMS[0])
                                               for side in ab_chunks.SIDES}
    assert json.loads(capsys.readouterr().out) == {
        "workload": "wide-train", "unit": unit, "parent": "f3f1f25", "reps": 2,
        "parent_chunk_s": 3.0 * per_unit, "change_chunk_s": 2.0 * per_unit,
        "ratio": {"median": 1.5, "q1": 1.5, "q3": 1.5},
    }


@pytest.mark.parametrize("flags", [
    ["--arm", "rotmole", "--reps", "0"],
    ["--arm", "rotmole", "--reps", "x"],
    ["--arm", "scaling_only", "--reps", "5"],
    ["--arm", "rotmole", "--reps", "5", "--workload", "wide-trian"],
    ["--arm", "rotmole"],
    ["--reps", "5"],
    ["--unit", "floor", "--arm", "rotmole", "--reps", "5"],
    ["--unit", "train", "--reps", "5"],
    ["--unit", "certify", "--arm", "rotmole", "--reps", "5"],
    ["--unit", "oracle", "--arm", "rotmole", "--reps", "5"],
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


def test_certify_unit_copies_the_gradcheck_loop_of_a_round():
    """The certify unit copies `run_round`'s gradcheck loop, which lives under
    benchmarks/ and cannot be called alone: the round must still draw its
    trials, arm by arm, from one generator seeded at the set-up seed + 2."""
    source = (ROOT / "benchmarks" / "harness.py").read_text()
    tree = ast.parse(source)
    run_round = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "run_round")
    loop = ast.get_source_segment(source, run_round)
    steps = ["configs = arm_configs(rm, wl, wl.gradcheck_n)",
             "gc_rng = rm.Rng(st.seed + 2)",
             "for name in wl.gradcheck_arms:",
             "for _ in range(wl.gradcheck_trials):",
             "certify(rm, configs[name], gc_rng)"]
    at = [loop.index(step) for step in steps]
    assert at == sorted(at)
    assert "arms = setup(rm, wl, seed)" in source  # st.seed is the set-up's seed
