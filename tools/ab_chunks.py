"""Time the parent's and the working tree's `train` chunks, alternating, in one process.

    python3 tools/ab_chunks.py --parent <rev> --workload wide-train --arm rotmole --reps 200

`benchmarks/run.py` divides each chunk time by a speed probe, and the probe's
work does not scale like every workload's chunks: it can read unchanged code
as faster or slower. This tool times the code alone, with no probe. It
imports the package of `--parent` and then the working tree's, each fresh,
into this one process, from checkouts made as `tools/bench_pairs.py` makes
them (a temporary directory, removed on exit). It builds the benchmark's
set-up of `--arm` on each (`harness.setup`, data seed `SEED`), runs one
untimed chunk per side, and then `--reps` timed pairs of chunks, each a
`train` call of the workload's `chunk_steps` steps with no evaluation list,
as a benchmark round runs them. The side that runs first alternates from
pair to pair. Every BLAS pool is pinned to one thread by importing the
working tree's `benchmarks/run.py` before numpy loads.

It prints one JSON line: each side's median chunk time in seconds, and the
median and quartiles of the paired ratio parent time / change time (above 1:
the change is faster). The exit code is 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402
import replay_rounds  # noqa: E402

ARMS = ("rotmole", "rotmole_r2", "scaling", "mlp")  # the arms `harness.setup` builds
SIDES = ("parent", "change")
SEED = 1  # the set-up's data seed


def load_packages(parent: Path, change: Path):
    """The change's harness, then the parent's and the change's package, each
    imported fresh; a package's functions keep its own modules after the next
    import replaces them in `sys.modules`."""
    harness = replay_rounds.load_harness(change)
    packages = []
    for checkout in (parent, change):
        src = str(checkout / "src")
        sys.path.insert(0, src)
        try:
            packages.append(harness.fresh_import())
        finally:
            sys.path.remove(src)
    return harness, packages


def time_chunks(sides: dict, reps: int) -> dict[str, list[float]]:
    """Seconds of each side's timed chunks; `sides` maps a side to (package, arm)."""
    times = {side: [] for side in SIDES}
    for rep in range(-1, reps):  # rep -1 warms both sides up, untimed
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            rm, arm = sides[side]
            t0 = perf_counter()
            rm.train(arm.layer, arm.specs, arm.dataset, arm.train_cfg, arm.data_rng, [])
            if rep >= 0:
                times[side].append(perf_counter() - t0)
    return times


def summarize(times: dict[str, list[float]]) -> dict:
    """Each side's median chunk time, and the spread of the paired ratios
    parent / change (`bench_pairs.spread`)."""
    ratios = [p / c for p, c in zip(times["parent"], times["change"])]
    return {
        "reps": len(ratios),
        "parent_chunk_s": statistics.median(times["parent"]),
        "change_chunk_s": statistics.median(times["change"]),
        "ratio": bench_pairs.spread(ratios),
    }


def main(argv=None) -> int:
    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--arm", required=True, choices=ARMS)
    parser.add_argument("--reps", type=int, required=True, help="timed pairs of chunks")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    # SIGTERM unwinds like Ctrl-C, so the checkouts are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with bench_pairs.checkouts(args.parent) as checkouts:
            harness, packages = load_packages(*checkouts)
            wl = harness.WORKLOADS[args.workload]
            sides = {}
            for side, rm in zip(SIDES, packages):
                arms = {arm.name: arm for arm in harness.setup(rm, wl, SEED)}
                sides[side] = (rm, arms[args.arm])
            times = time_chunks(sides, args.reps)
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)} exited {e.returncode}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "arm": args.arm, "parent": args.parent,
                      **summarize(times)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
