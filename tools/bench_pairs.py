"""Run alternating parent/change benchmark pairs and summarize them.

    python3 tools/bench_pairs.py --parent <rev> --workload W --seeds 31-40 --seconds 30

The change is this repository's working tree; the parent is <rev>. Both run
from one temporary directory, removed on exit (also after an error, Ctrl-C
or SIGTERM): the parent as `parent/`, unpacked from `git archive`, which
leaves the repository's git state alone, and the change as `change/`, a copy
of the working tree's tracked and untracked, not ignored, files. The two
paths have the same length. With the change run from the repository itself instead, an
A/A run (the same commit on both sides) read wide-train's rotmole_r2 rate
7.5% and its eval rate 4% apart, in every pair. For each seed both sides run
`benchmarks/run.py --trace 0`, and the side that runs first alternates from
seed to seed. Progress goes to stderr. The last stdout line
is one JSON object: for each end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the ratio of the medians (change over parent)
and the pairs the change wins (ties count for neither side); each side's
rounds as a median and quartiles; each pair's rounds and `peak_rss_mb` per
side, since the benchmark's memory follows its round count; the metrics
whose change median is worse than the parent's by more than their
BENCHMARK.json bound; and every run that read `correct: false` (with the
checks it failed) or `failed > 0`, or printed no result, with its rounds
when it printed a result: the benchmark's directional and learning checks
depend on the round count, so a failed run compares only with a parent run
of as many rounds. The exit code is 1 when
either of those two lists is non-empty, so a script that runs the pairs
stops there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK_FAILED = "check failed: "  # how benchmarks/run.py reports each failed check


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of integers and ranges such as 31-40."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        first, last = int(lo), int(hi or lo)
        if first < 0 or last < first:
            raise ValueError(f"bad range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: the quartiles of 1, 2, 3, 4, 5
    are 2 and 4)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Summary of run pairs.

    `pairs` holds one {"seed", "parent", "change"} per seed, where each side
    is the result object `benchmarks/run.py` prints last, or {"error": ...}
    for a run that printed none. `metrics` is BENCHMARK.json's `end_to_end`
    list. A metric is summarized over the pairs in which both sides report it.
    A metric is `beyond_bound` when the change's median is worse than the
    parent's by more than the metric's relative `bound`. `per_pair` gives
    each side's rounds and peak_rss_mb, where the run reported them.
    """
    out = {"pairs": len(pairs), "metrics": {}, "rounds": {}, "per_pair": [], "beyond_bound": [],
           "bad_runs": []}
    for spec in metrics:
        name, lower_better = spec["name"], spec["better"] == "lower"
        both = [
            (p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs
            if all(name in p[side].get("metrics", {}) for side in ("parent", "change"))
        ]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        wins = sum((b < a) if lower_better else (b > a) for a, b in both)
        summary = {"parent": spread(parent), "change": spread(change)}
        summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
        summary["change_wins"] = wins
        summary["pairs"] = len(both)
        out["metrics"][name] = summary
        worse = summary["ratio"] - 1.0 if lower_better else 1.0 - summary["ratio"]
        if worse > spec["bound"]:
            out["beyond_bound"].append(name)
    for side in ("parent", "change"):
        rounds = [p[side]["rounds"] for p in pairs if "rounds" in p[side]]
        if rounds:
            out["rounds"][side] = spread(rounds)
    for p in pairs:
        out["per_pair"].append({"seed": p["seed"], **{
            side: rounds_and_rss(p[side]) for side in ("parent", "change")
        }})
        for side in ("parent", "change"):
            run = p[side]
            if "error" in run or run.get("correct") is not True or run.get("failed", 0) > 0:
                out["bad_runs"].append({"seed": p["seed"], "side": side, **{
                    key: run[key] for key in ("rounds", "correct", "failed", "problems", "error")
                    if key in run
                }})
    return out


def rounds_and_rss(run: dict) -> dict:
    """The rounds and peak_rss_mb value of one run, those it reported."""
    found = {"rounds": run.get("rounds"),
             "peak_rss_mb": run.get("metrics", {}).get("peak_rss_mb", {}).get("value")}
    return {key: value for key, value in found.items() if value is not None}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its last stdout line, parsed,
    with the `rounds` of the line before it and, when it is not `correct`,
    the `problems` its `check failed: ` stderr lines name."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["rounds"] = json.loads(lines[-2])["rounds"]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exit {proc.returncode}: {tail}"}
    if result.get("correct") is not True:
        result["problems"] = [
            line.removeprefix(CHECK_FAILED) for line in proc.stderr.splitlines()
            if line.startswith(CHECK_FAILED)
        ]
    return result


@contextlib.contextmanager
def scratch_checkouts(**revs: str | None):
    """For each keyword, a directory of that name holding the files of its
    revision, or a copy of the working tree for None; the directories, in
    order, sit side by side in a temporary directory removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        for name, rev in revs.items():
            (tmp / name).mkdir()
            if rev is None:
                copy_working_tree(tmp / name)
            else:
                archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                         check=True, capture_output=True).stdout
                subprocess.run(["tar", "-x", "-C", str(tmp / name)], input=archive, check=True)
        yield [tmp / name for name in revs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into `dest`."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def checkouts(rev: str):
    """(parent, change): the files of `rev` and a copy of the working tree."""
    return scratch_checkouts(parent=rev, change=None)


def load_harness(checkout: Path):
    """The checkout's `benchmarks/harness` module, imported after the
    checkout's `benchmarks/run.py` has pinned every BLAS pool to one thread."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is loaded already: its BLAS pools can no longer be pinned")
    sys.path[:0] = [str(checkout / "benchmarks"), str(checkout / "src")]
    import run  # noqa: F401  (sets each BLAS thread variable to 1 on import)
    import harness

    return harness


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True, help="such as 31-40 or 1,3,5")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(f"--seeds: {e}")
    metrics = benchmark["end_to_end"]
    # SIGTERM unwinds like Ctrl-C, so the checkouts are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pairs = []
    try:
        with checkouts(args.parent) as (parent, change):
            for n, seed in enumerate(seeds):
                sides = {"parent": parent, "change": change}
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                pair = {"seed": seed}
                for side in order:
                    pair[side] = run_side(sides[side], args.workload, seed, args.seconds)
                    print(f"seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr)
                pairs.append(pair)
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)} exited {e.returncode}", file=sys.stderr)
        return 2
    summary = summarize(pairs, metrics)
    print(json.dumps(summary))
    return 1 if summary["bad_runs"] or summary["beyond_bound"] else 0


if __name__ == "__main__":
    sys.exit(main())
