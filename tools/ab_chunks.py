"""Time the parent's and the working tree's benchmark units, alternating, in one process.

    python3 tools/ab_chunks.py --parent <rev> --workload wide-train --arm rotmole --reps 200
    python3 tools/ab_chunks.py --parent <rev> --workload small-compare --unit floor --reps 40
    python3 tools/ab_chunks.py --parent <rev> --workload gradcheck-sweep --unit certify --reps 20

`benchmarks/run.py` divides each unit's time by a speed probe, and the
probe's work does not scale like every workload's units: it can read
unchanged code as faster or slower. This tool times the code alone, with no
probe. It imports the package of `--parent` and then the working tree's,
each fresh, into this one process, from checkouts made as
`tools/bench_pairs.py` makes them (a temporary directory, removed on exit).
It builds the benchmark's set-up on each (`harness.setup`, data seed
`SEED`), runs one untimed unit per side, and then `--reps` timed pairs of
units, as a benchmark round runs them. `--unit` picks the unit:

- `train` (the default): a `train` call of the workload's `chunk_steps`
  steps on `--arm`, with no evaluation list;
- `floor`: `analytic_baseline_floor` at `harness.FLOOR_MC` samples on the
  tasks of the set-up's first arm, the floor a round times;
- `certify`: every `harness.certify` trial of the workload's gradcheck arms,
  from the generator a round starts them from, so each unit runs the same
  trials.

Only `train` takes `--arm`.

The side that runs first alternates from pair to pair. Every BLAS pool is
pinned to one thread by importing the working tree's `benchmarks/run.py`
before numpy loads.

It prints one JSON line: each side's median unit time in seconds (as
`parent_chunk_s` and `change_chunk_s`), and the median and quartiles of the
paired ratio parent time / change time (above 1: the change is faster). The
exit code is 2 on a usage error.
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
UNITS = ("train", "floor", "certify")
SEED = 1  # the set-up's data seed; a round's gradcheck generator starts at SEED + 2


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


def unit(harness, rm, wl, name: str, arm):
    """The timed unit `name` of package `rm` on workload `wl`, as a call with
    no arguments; `arm` is the set-up's arm it runs on, None for `certify`."""
    if name == "train":
        return lambda: rm.train(
            arm.layer, arm.specs, arm.dataset, arm.train_cfg, arm.data_rng, [])
    if name == "floor":
        return lambda: rm.analytic_baseline_floor(arm.specs, arm.dataset, harness.FLOOR_MC)
    configs = harness.arm_configs(rm, wl, wl.gradcheck_n)

    # A copy of the gradcheck loop of `run_round` in benchmarks/harness.py,
    # which a tool cannot call; test_ab_chunks.py checks that it still
    # seeds and orders its trials this way.
    def certify():
        rng = rm.Rng(SEED + 2)  # the same trials every unit, as every round
        for arm_name in wl.gradcheck_arms:
            for _ in range(wl.gradcheck_trials):
                harness.certify(rm, configs[arm_name], rng)

    return certify


def time_chunks(units: dict, reps: int) -> dict[str, list[float]]:
    """Seconds of each side's timed units; `units` maps a side to its unit."""
    times = {side: [] for side in SIDES}
    for rep in range(-1, reps):  # rep -1 warms both sides up, untimed
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            t0 = perf_counter()
            units[side]()
            if rep >= 0:
                times[side].append(perf_counter() - t0)
    return times


def summarize(times: dict[str, list[float]]) -> dict:
    """Each side's median unit time, and the spread of the paired ratios
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
    parser.add_argument("--unit", choices=UNITS, default="train", help="what each rep times")
    parser.add_argument("--arm", choices=ARMS, help="the arm of --unit train")
    parser.add_argument("--reps", type=int, required=True, help="timed pairs of units")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if (args.arm is None) == (args.unit == "train"):
        parser.error("--unit train needs --arm; --unit floor and certify take none")
    # SIGTERM unwinds like Ctrl-C, so the checkouts are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with bench_pairs.checkouts(args.parent) as checkouts:
            harness, packages = load_packages(*checkouts)
            wl = harness.WORKLOADS[args.workload]
            units = {}
            for side, rm in zip(SIDES, packages):
                arms = harness.setup(rm, wl, SEED)
                if args.unit == "floor":
                    arm = arms[0]  # a round's floor runs on its first arm's tasks
                else:
                    arm = {a.name: a for a in arms}.get(args.arm)
                units[side] = unit(harness, rm, wl, args.unit, arm)
            times = time_chunks(units, args.reps)
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)} exited {e.returncode}", file=sys.stderr)
        return 2
    label = {"workload": args.workload}
    if args.unit != "train":
        label["unit"] = args.unit
    if args.arm is not None:
        label["arm"] = args.arm
    print(json.dumps({**label, "parent": args.parent, **summarize(times)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
