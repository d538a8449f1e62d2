"""Replay a benchmark run at fixed round counts and print each verdict.

    python3 tools/replay_rounds.py --rev <rev> --workload W --seed 11 --rounds 10-20

The benchmark's directional and learning checks read the outputs of however
many rounds `benchmarks/run.py --seconds` fits, so a run's verdict can turn
on its round count alone. This tool runs `harness.execute` untraced with a
zero time budget and `harness.MIN_ROUNDS` set to each count R in turn, so
each run is exactly R rounds, checked as `benchmarks/run.py` checks them.
Compare a failed benchmark run with the same seed and rounds on the parent
commit: a verdict the parent shares there is not the change's.

The code runs from `git archive` of the tree of `--rev` (default: the working
tree's tracked and untracked, not ignored, files), unpacked in a temporary
directory removed on exit, as `tools/bench_pairs.py` makes each of its
checkouts. The harness's attribute is set in this process only; no file under
`benchmarks/` changes. Every BLAS pool is pinned to one thread by importing
the checkout's `benchmarks/run.py`, before numpy loads. Each R prints one JSON
line with `rounds`, `correct`, `failed` and `problems`. The exit code is 1
when some R read `correct: false` or `failed > 0`, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402


def replay(harness, workload: str, seed: int, rounds: int, run_dir: Path) -> dict:
    """The verdict of an untraced run of exactly `rounds` rounds."""
    harness.MIN_ROUNDS = rounds
    result = harness.execute(harness.WORKLOADS[workload], seed, 0.0, False, run_dir)
    return {key: result[key] for key in ("rounds", "correct", "failed", "problems")}


def main(argv=None) -> int:
    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to run (default: the working tree)")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", required=True, help="such as 10-20 or 3,5")
    args = parser.parse_args(argv)
    try:
        counts = bench_pairs.parse_seeds(args.rounds)  # lists and ranges, as --seeds takes
    except ValueError as e:
        parser.error(f"--rounds: {e}")
    if 0 in counts:
        parser.error("--rounds: a run has at least one round")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # SIGTERM unwinds like Ctrl-C, so the checkout is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    verdicts = []
    try:
        with bench_pairs.scratch_checkouts(tree=args.rev) as (tree,):
            harness = bench_pairs.load_harness(tree)
            run_dir = tree / "benchmarks" / "runs"
            run_dir.mkdir(exist_ok=True)
            for rounds in counts:
                verdicts.append(replay(harness, args.workload, args.seed, rounds, run_dir))
                print(json.dumps(verdicts[-1]), flush=True)
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)} exited {e.returncode}", file=sys.stderr)
        return 2
    return 0 if all(v["correct"] is True and v["failed"] == 0 for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
