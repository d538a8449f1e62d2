"""The summary of `tools/bench_pairs.py`, on hand-made run records, its
checkouts of a throwaway git repository, the exits of its `main`, its
harness loader, and the start-up of every tool under `tools/`.

No benchmark runs here: the script's runs take minutes.
"""

import contextlib
import importlib.util
import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (loaded, as in any pytest run of the suite)
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "unit": "params/s", "better": "higher", "bound": 0.22},
    {"name": "time", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(rate, time, correct=True, failed=0, rounds=10, rss=None):
    out = {"correct": correct, "attempted": 4, "failed": failed,
           "metrics": {"rate": {"value": rate, "unit": "params/s"},
                       "time": {"value": time, "unit": "s"}},
           "rounds": rounds}
    if rss is not None:
        out["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return out


def test_summary_medians_quartiles_ratio_and_wins():
    rates = [(10.0, 12.0), (11.0, 13.0), (12.0, 12.0), (13.0, 15.0), (14.0, 16.0)]
    times = [(1.0, 0.5), (2.0, 2.5), (3.0, 3.0), (4.0, 3.5), (5.0, 4.5)]
    pairs = [{"seed": s, "parent": run(rp, tp), "change": run(rc, tc)}
             for s, ((rp, rc), (tp, tc)) in enumerate(zip(rates, times))]
    out = bench_pairs.summarize(pairs, METRICS)
    assert out["pairs"] == 5 and out["bad_runs"] == []
    rate = out["metrics"]["rate"]
    assert rate["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert rate["change"] == {"median": 13.0, "q1": 12.0, "q3": 15.0}
    assert rate["ratio"] == 13.0 / 12.0
    assert rate["change_wins"] == 4 and rate["pairs"] == 5  # the tie counts for neither
    time = out["metrics"]["time"]
    assert time["parent"]["median"] == 3.0 and time["change"]["median"] == 3.0
    assert time["change_wins"] == 3  # lower is better: 0.5, 3.5 and 4.5 win
    assert out["beyond_bound"] == []


def test_summary_reports_rounds_per_side():
    pairs = [{"seed": s, "parent": run(1.0, 1.0, rounds=rp), "change": run(1.0, 1.0, rounds=rc)}
             for s, (rp, rc) in enumerate([(20, 40), (22, 38), (24, 39), (26, 41), (28, 37)])]
    pairs.append({"seed": 9, "parent": run(1.0, 1.0, rounds=30), "change": {"error": "exit 1: "}})
    out = bench_pairs.summarize(pairs, METRICS)
    assert out["rounds"] == {
        "parent": {"median": 25.0, "q1": 22.5, "q3": 27.5},  # the failed pair's parent counts
        "change": {"median": 39, "q1": 38, "q3": 40},
    }
    assert [p["seed"] for p in out["per_pair"]] == [0, 1, 2, 3, 4, 9]
    assert out["per_pair"][1] == {"seed": 1, "parent": {"rounds": 22}, "change": {"rounds": 38}}
    assert out["per_pair"][5] == {"seed": 9, "parent": {"rounds": 30}, "change": {}}


def test_summary_lists_each_pairs_rounds_and_peak_rss():
    pairs = [
        {"seed": 3, "parent": run(1.0, 1.0, rounds=80, rss=58.5),
         "change": run(1.0, 1.0, rounds=92, rss=61.25)},
        {"seed": 4, "parent": run(1.0, 1.0, rounds=81), "change": {"error": "exit 1: "}},
    ]
    out = bench_pairs.summarize(pairs, METRICS)  # peak_rss_mb is not among METRICS
    assert out["per_pair"] == [
        {"seed": 3, "parent": {"rounds": 80, "peak_rss_mb": 58.5},
         "change": {"rounds": 92, "peak_rss_mb": 61.25}},
        {"seed": 4, "parent": {"rounds": 81}, "change": {}},  # what each run reported
    ]
    assert "peak_rss_mb" not in out["metrics"]


@pytest.mark.parametrize("rate, time, beyond", [
    (0.79, 1.0, []),  # 21% lower: within the 22% bound
    (0.77, 1.0, ["rate"]),  # 23% lower
    (1.0, 1.24, []),  # 24% higher, against a 25% bound
    (1.0, 1.26, ["time"]),
    (0.5, 2.0, ["rate", "time"]),
    (2.0, 0.5, []),  # better is never beyond a bound
])
def test_summary_lists_metrics_beyond_their_bound(rate, time, beyond):
    pairs = [{"seed": s, "parent": run(1.0, 1.0), "change": run(rate, time)} for s in range(3)]
    assert bench_pairs.summarize(pairs, METRICS)["beyond_bound"] == beyond


def test_summary_lists_failed_incorrect_and_missing_runs():
    pairs = [
        {"seed": 1, "parent": run(1.0, 1.0), "change": run(2.0, 1.0, correct=False)},
        {"seed": 2, "parent": run(1.0, 1.0, failed=1, rounds=12), "change": run(2.0, 1.0)},
        {"seed": 3, "parent": run(1.0, 1.0), "change": {"error": "exit 2: no source"}},
    ]
    out = bench_pairs.summarize(pairs, METRICS)
    assert out["bad_runs"] == [
        {"seed": 1, "side": "change", "rounds": 10, "correct": False, "failed": 0},
        {"seed": 2, "side": "parent", "rounds": 12, "correct": True, "failed": 1},
        {"seed": 3, "side": "change", "error": "exit 2: no source"},  # no result, no rounds
    ]
    # The pair with no result drops out of every metric.
    assert out["metrics"]["rate"]["pairs"] == 2
    assert out["metrics"]["rate"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_summary_of_one_pair():
    out = bench_pairs.summarize([{"seed": 7, "parent": run(2.0, 1.0), "change": run(3.0, 1.0)}],
                                METRICS)
    assert out["metrics"]["rate"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["metrics"]["rate"]["ratio"] == 1.5


@pytest.mark.parametrize("text, seeds", [
    ("31-34", [31, 32, 33, 34]), ("1,3,5-6", [1, 3, 5, 6]), ("7", [7]), (" 2, 4-5 ", [2, 4, 5]),
    ("0", [0]),  # the least seed
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["5-3", "-1", "x", "1,,2", "1-2-3"])
def test_parse_seeds_rejects(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


def test_run_side_reads_rounds_from_the_line_before_the_result(monkeypatch):
    result = run(2.0, 1.0)
    del result["rounds"]
    outputs = [
        json.dumps({"env": {}, "observed": {}, "rounds": 17}) + "\n" + json.dumps(result) + "\n",
        "no result\n",
    ]

    def fake_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 1, outputs.pop(0), "check failed: x\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_side(Path("."), "small-compare", 1, 30.0) == dict(result, rounds=17)
    assert bench_pairs.run_side(Path("."), "small-compare", 1, 30.0) == {
        "error": "exit 1: check failed: x"
    }


def test_run_side_keeps_the_failed_checks_of_an_incorrect_run(monkeypatch):
    correct, incorrect = run(2.0, 1.0), run(2.0, 1.0, correct=False)
    for result in (correct, incorrect):
        del result["rounds"]
    stderr = ("round 1\ncheck failed: rotmole_r2: directional rel err 1.64e-04\n"
              "check failed: mlp: no learning\n")
    outputs = [(correct, 0), (incorrect, 1)]

    def fake_run(args, **kwargs):
        result, code = outputs.pop(0)
        stdout = json.dumps({"rounds": 18}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(args, code, stdout, stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert "problems" not in bench_pairs.run_side(Path("."), "gradcheck-sweep", 8, 30.0)
    side = bench_pairs.run_side(Path("."), "gradcheck-sweep", 8, 30.0)
    problems = ["rotmole_r2: directional rel err 1.64e-04", "mlp: no learning"]
    assert side == dict(incorrect, rounds=18, problems=problems)
    out = bench_pairs.summarize([{"seed": 8, "parent": run(2.0, 1.0), "change": side}], METRICS)
    assert out["bad_runs"] == [
        {"seed": 8, "side": "change", "rounds": 18, "correct": False, "failed": 0,
         "problems": problems}
    ]


@pytest.mark.parametrize("change, code", [
    (run(1.0, 1.0), 0),
    (run(0.5, 1.0), 1),  # a metric beyond its bound
    (run(1.0, 1.0, correct=False), 1),
    (run(1.0, 1.0, failed=1), 1),
    ({"error": "exit 1: check failed: x"}, 1),
], ids=["clean", "beyond-bound", "incorrect", "failed", "no-result"])
def test_main_exits_1_on_a_bad_run_or_a_metric_beyond_its_bound(
    tmp_path, monkeypatch, capsys, change, code
):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "small-compare"}], "end_to_end": METRICS})
    )

    @contextlib.contextmanager
    def scratch_checkouts(**revs):
        assert revs == {"parent": "HEAD", "change": None}
        yield Path("parent"), Path("change")

    def run_side(checkout, workload, seed, seconds):
        return dict(change if checkout.name == "change" else run(1.0, 1.0))

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "scratch_checkouts", scratch_checkouts)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    argv = ["--parent", "HEAD", "--workload", "small-compare", "--seeds", "1-2", "--seconds", "1"]
    assert bench_pairs.main(argv) == code
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["pairs"] == 2
    assert bool(summary["bad_runs"] or summary["beyond_bound"]) == (code == 1)


@pytest.mark.parametrize("flags, message", [
    (["--workload", "wide-trian"], "'wide-trian'"),
    (["--seeds", "5-3"], "--seeds: bad range '5-3'"),
    (["--seeds", "x"], "--seeds: invalid literal"),
    (["--seconds", "x"], "--seconds: invalid float value: 'x'"),
    (["--seconds", "-5"], "--seconds must be a finite number >= 0, got -5.0"),
    (["--seconds", "nan"], "--seconds must be a finite number >= 0, got nan"),
    (["--seconds", "inf"], "--seconds must be a finite number >= 0, got inf"),
    (["--parent"], "--parent: expected one argument"),
], ids=["workload", "seed-range", "seed", "seconds", "seconds-negative", "seconds-nan",
        "seconds-inf", "no-parent"])
def test_main_rejects_bad_arguments_before_any_checkout(monkeypatch, capsys, flags, message):
    def scratch_checkouts(**revs):
        raise AssertionError("a checkout was made")

    monkeypatch.setattr(bench_pairs, "scratch_checkouts", scratch_checkouts)
    argv = ["--parent", "HEAD", "--workload", "small-compare", "--seeds", "1", "--seconds", "1"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv + flags)  # a repeated option's last value counts
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A throwaway git repository as `bench_pairs.ROOT`, with two committed
    files under `pkg/`, a BENCHMARK.json and an ignore rule; temporary
    directories go to `tmp_path / "scratch"`, so a test can see them removed."""
    root = tmp_path / "repo"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "kept.py").write_text("committed\n")
    (root / "pkg" / "gone.py").write_text("committed\n")
    (root / ".gitignore").write_text("*.log\n")
    (root / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "small-compare"}], "end_to_end": METRICS})
    )
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    (tmp_path / "scratch").mkdir()
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path / "scratch"))
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    return root


def files(directory):
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*")
                  if p.is_file())


def test_checkouts_hold_the_revision_and_the_working_tree(repo, tmp_path):
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "pkg" / "gone.py").unlink()  # deleted, not staged: git still lists it
    (repo / "new").mkdir()
    (repo / "new" / "untracked.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    with bench_pairs.scratch_checkouts(parent="HEAD", change=None) as (parent, change):
        assert parent.parent == change.parent
        assert parent.parent.parent == tmp_path / "scratch"
        assert files(parent) == [".gitignore", "BENCHMARK.json", "pkg/gone.py", "pkg/kept.py"]
        assert files(change) == [".gitignore", "BENCHMARK.json", "new/untracked.py",
                                 "pkg/kept.py"]
        assert (parent / "pkg" / "kept.py").read_text() == "committed\n"
        assert (change / "pkg" / "kept.py").read_text() == "edited\n"


def test_a_revision_and_the_same_working_tree_check_out_alike(repo):
    """Names, bytes and mode bits agree, and every file's mtime is the
    extraction's, not the working tree's."""
    (repo / "tool.sh").write_text("#!/bin/sh\n")
    (repo / "tool.sh").chmod(0o755)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "tool")
    for path in repo.rglob("*"):
        if ".git" not in path.parts:
            os.utime(path, (1e9, 1e9))  # 2001: long before any extraction
    start = int(time.time())
    with bench_pairs.scratch_checkouts(parent="HEAD", change=None) as (parent, change):
        sides = [{name: ((side / name).read_bytes(), stat.S_IMODE((side / name).stat().st_mode))
                  for name in files(side)} for side in (parent, change)]
        mtimes = [(side / name).stat().st_mtime for side in (parent, change)
                  for name in files(side)]
    assert sides[0] == sides[1]
    assert sorted(sides[0]) == [".gitignore", "BENCHMARK.json", "pkg/gone.py", "pkg/kept.py",
                                "tool.sh"]
    assert sides[0]["tool.sh"][1] & 0o100 and not sides[0]["pkg/kept.py"][1] & 0o100
    assert min(mtimes) >= start


def status(root):
    return subprocess.run(["git", "-C", str(root), "status", "--porcelain"], check=True,
                          capture_output=True, text=True).stdout


def test_a_working_tree_checkout_leaves_the_repository_as_it_was(repo):
    """An edited, an untracked and a deleted file: the checkout holds them,
    and `.git` (index, objects, refs), the files and `git status` are unchanged."""
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "new.py").write_text("untracked\n")
    status_before = status(repo)  # may refresh the index, so it runs first
    assert status_before == " D pkg/gone.py\n M pkg/kept.py\n?? new.py\n"
    before = {name: (repo / name).read_bytes() for name in files(repo)}
    assert {".git/index", ".git/HEAD"} <= before.keys()
    assert all(any(name.startswith(f".git/{d}/") for name in before) for d in ("objects", "refs"))
    with bench_pairs.scratch_checkouts(change=None) as (change,):
        assert files(change) == [".gitignore", "BENCHMARK.json", "new.py", "pkg/kept.py"]
        assert (change / "pkg" / "kept.py").read_text() == "edited\n"
    assert {name: (repo / name).read_bytes() for name in files(repo)} == before
    assert status(repo) == status_before


@pytest.mark.parametrize("error", [None, KeyError("body")], ids=["exit", "error"])
def test_checkouts_are_removed_on_exit_and_after_an_error(repo, tmp_path, error):
    with pytest.raises(KeyError) if error else contextlib.nullcontext():
        with bench_pairs.scratch_checkouts(parent="HEAD", change=None) as (parent, change):
            assert parent.is_dir() and change.is_dir()
            if error:
                raise error
    assert list((tmp_path / "scratch").iterdir()) == []


def test_main_reports_a_failed_checkout(repo, tmp_path, monkeypatch, capsys):
    """`git archive` of an unknown revision exits 128: main exits 2 with one
    stderr line, prints nothing to stdout and leaves no checkout behind."""
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    argv = ["--parent", "no-such-rev", "--workload", "small-compare", "--seeds", "1",
            "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: git -C {repo} archive no-such-rev^{{tree}} exited 128\n"
    assert list((tmp_path / "scratch").iterdir()) == []


def test_sigterm_during_the_pairs_removes_the_checkouts(repo, tmp_path, monkeypatch):
    """A SIGTERM while a run goes unwinds through the checkouts' clean-up and
    exits 143."""
    handlers, ran = {}, []

    def run_side(checkout, workload, seed, seconds):
        ran.append(checkout.name)
        assert checkout.is_dir()
        handlers[signal.SIGTERM](signal.SIGTERM, None)
        raise AssertionError("the pairs ran on after SIGTERM")

    monkeypatch.setattr(bench_pairs.signal, "signal", handlers.__setitem__)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    argv = ["--parent", "HEAD", "--workload", "small-compare", "--seeds", "1-2",
            "--seconds", "1"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 143
    assert ran == ["parent"]
    assert list((tmp_path / "scratch").iterdir()) == []


def test_load_harness_refuses_once_numpy_is_loaded(tmp_path):
    path = list(sys.path)
    with pytest.raises(RuntimeError, match="BLAS"):
        bench_pairs.load_harness(tmp_path)
    assert sys.path == path


@pytest.mark.parametrize("tool", sorted(TOOLS.glob("*.py")), ids=lambda tool: tool.stem)
def test_each_tool_starts(tool):
    """Each tool imports what it needs on its own, as run from a shell."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(tool), "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
