"""`tools/replay_rounds.py` on a stand-in harness.

No benchmark runs here: a replay of one round count takes a minute or more.
"""

import contextlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_rounds.py"
spec = importlib.util.spec_from_file_location("replay_rounds", TOOL)
replay_rounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_rounds)


def fake_harness(bad_rounds=()):
    """A harness whose run of R rounds fails the directional check when R is in `bad_rounds`."""
    calls = []

    def execute(wl, seed, seconds, trace, run_dir):
        rounds = harness.MIN_ROUNDS
        calls.append((wl, seed, seconds, trace, rounds))
        problems = ["mlp: directional rel err 2.1e-04"] if rounds in bad_rounds else []
        return {"correct": not problems, "attempted": 4, "failed": 0, "problems": problems,
                "rounds": rounds, "metrics": {}, "observed": {}}

    harness = SimpleNamespace(MIN_ROUNDS=2, WORKLOADS={"wide-train": "wl"}, execute=execute,
                              calls=calls)
    return harness


def test_replay_runs_exactly_the_rounds_untimed_and_untraced(tmp_path):
    harness = fake_harness(bad_rounds={12})
    assert replay_rounds.replay(harness, "wide-train", 11, 12, tmp_path) == {
        "rounds": 12, "correct": False, "failed": 0,
        "problems": ["mlp: directional rel err 2.1e-04"],
    }
    assert replay_rounds.replay(harness, "wide-train", 11, 13, tmp_path) == {
        "rounds": 13, "correct": True, "failed": 0, "problems": [],
    }
    assert harness.calls == [("wl", 11, 0.0, False, 12), ("wl", 11, 0.0, False, 13)]


@pytest.mark.parametrize("rev, bad, code", [
    (None, (), 0),
    ("0f60c57", (), 0),
    (None, {11, 13}, 1),
], ids=["working-tree", "rev", "a-failed-check"])
def test_main_prints_one_line_per_round_count(tmp_path, monkeypatch, capsys, rev, bad, code):
    harness = fake_harness(bad)
    (tmp_path / "benchmarks").mkdir()  # a checkout's layout
    made = []

    @contextlib.contextmanager
    def scratch_checkouts(**revs):
        made.append(revs)
        yield [tmp_path]

    monkeypatch.setattr(replay_rounds.bench_pairs, "scratch_checkouts", scratch_checkouts)
    monkeypatch.setattr(replay_rounds.bench_pairs, "load_harness", lambda checkout: harness)
    monkeypatch.setattr(replay_rounds.signal, "signal", lambda *args: None)
    argv = ["--workload", "wide-train", "--seed", "11", "--rounds", "10-13"]
    assert replay_rounds.main(argv + (["--rev", rev] if rev else [])) == code
    assert made == [{"tree": rev}]
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["rounds"] for line in lines] == [10, 11, 12, 13]
    assert [line["correct"] for line in lines] == [r not in bad for r in (10, 11, 12, 13)]
    assert all(set(line) == {"rounds", "correct", "failed", "problems"} for line in lines)
    assert (tmp_path / "benchmarks" / "runs").is_dir()


@pytest.mark.parametrize("flags", [
    ["--rounds", "0-3", "--seed", "1"],
    ["--rounds", "5-3", "--seed", "1"],
    ["--rounds", "x", "--seed", "1"],
    ["--rounds", "3", "--seed", "-1"],
    ["--rounds", "3", "--seed", "1", "--workload", "wide-trian"],
])
def test_main_rejects_bad_arguments_before_any_checkout(monkeypatch, capsys, flags):
    def scratch_checkouts(**revs):
        raise AssertionError("a checkout was made")

    monkeypatch.setattr(replay_rounds.bench_pairs, "scratch_checkouts", scratch_checkouts)
    with pytest.raises(SystemExit) as exit_info:
        replay_rounds.main(["--workload", "wide-train"] + flags)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err
