"""Time the parent's and the working tree's benchmark rounds, alternating, in one process.

    python3 tools/ab_chunks.py --parent <rev> --workload wide-train --reps 40

`benchmarks/run.py` divides each unit's time by a speed probe, and the
probe's work does not scale like every workload's units: it can read
unchanged code as faster or slower. This tool times the code alone, with no
probe. It imports the package of `--parent` and then the working tree's,
each fresh, into this one process, from checkouts made as
`tools/bench_pairs.py` makes them (a temporary directory, removed on exit),
and runs both on the working tree's harness. Each side gets the benchmark's
set-up (`harness.setup`, data seed `SEED`) and a run state whose probe
always reads 1, so `harness.run_round` returns raw seconds. After one
untimed round per side, each of `--reps` reps runs one untraced round per
side; the side that runs first alternates from rep to rep. Every BLAS pool
is pinned to one thread by importing the working tree's `benchmarks/run.py`
before numpy loads.

From each round it derives the timed end-to-end metrics of BENCHMARK.json as
`harness.execute` derives them from a run's rounds: each arm's training rate
(from the median of the round's chunks), `eval_samples_per_s`,
`floor_oracle_s` and `gradcheck_params_per_s`. It prints one JSON line: for
each metric, each side's median, the median and quartiles of the paired
per-rep ratio, oriented by the metric's `better` so that above 1 the change
is better, and the reps the change wins; and each side's summed
`Round.failed`. The exit code is 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

SIDES = ("parent", "change")
SEED = 1  # the set-up's data seed


def load_packages(parent: Path, change: Path):
    """The change's harness, then the parent's and the change's package, each
    imported fresh; a package's functions keep its own modules after the next
    import replaces them in `sys.modules`."""
    harness = bench_pairs.load_harness(change)
    packages = []
    for checkout in (parent, change):
        src = str(checkout / "src")
        sys.path.insert(0, src)
        try:
            packages.append(harness.fresh_import())
        finally:
            sys.path.remove(src)
    return harness, packages


def figures(harness, wl, arms: list, r) -> dict:
    """The timed end-to-end metrics of round `r` of the arms `arms`."""
    out = {
        harness.ARM_METRIC[arm.name]:
            wl.chunk_steps * arm.dataset.batch_size / statistics.median(r.chunk_s[arm.name])
        for arm in arms if r.chunk_s[arm.name]  # empty when every chunk diverged
    }
    out["eval_samples_per_s"] = harness.pooled_rate([r], "eval_s", harness.held_out_sizes(arms))
    out["floor_oracle_s"] = r.floor_s
    out["gradcheck_params_per_s"] = harness.pooled_rate([r], "trial_s", r.trial_params)
    return out


def time_rounds(harness, wl, packages: list, reps: int):
    """Each side's metrics of its `reps` timed rounds on workload `wl`, and
    each side's summed failed operations; `packages` are the parent's and
    the change's."""
    states = {}
    for side, rm in zip(SIDES, packages):
        arms = harness.setup(rm, wl, SEED)
        states[side] = harness.RunState(rm, wl, SEED, arms, lambda: 1.0, [],
                                        {arm.name: [] for arm in arms})
    metrics = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    for rep in range(-1, reps):  # rep -1 warms both sides up, untimed
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            r = harness.run_round(states[side], None)
            if rep >= 0:
                metrics[side].append(figures(harness, wl, states[side].arms, r))
                failed[side] += r.failed
    return metrics, failed


def summarize(specs: list[dict], metrics: dict[str, list[dict]], failed: dict) -> dict:
    """For each metric of `specs` (BENCHMARK.json's `end_to_end` list) that
    both sides' rounds report: each side's median, the spread of the paired
    ratios (`bench_pairs.spread`), above 1 where the change is better, and
    the pairs the change wins."""
    out = {"reps": len(metrics["change"]), "metrics": {}, "failed": failed}
    for spec in specs:
        name = spec["name"]
        pairs = [(p[name], c[name]) for p, c in zip(metrics["parent"], metrics["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        ratios = [p / c if spec["better"] == "lower" else c / p for p, c in pairs]
        out["metrics"][name] = {
            "parent": statistics.median(p for p, _ in pairs),
            "change": statistics.median(c for _, c in pairs),
            "ratio": bench_pairs.spread(ratios),
            "change_wins": sum(ratio > 1 for ratio in ratios),
        }
    return out


def main(argv=None) -> int:
    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--reps", type=int, required=True, help="timed rounds per side")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    # SIGTERM unwinds like Ctrl-C, so the checkouts are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with bench_pairs.checkouts(args.parent) as checkouts:
            harness, packages = load_packages(*checkouts)
            metrics, failed = time_rounds(harness, harness.WORKLOADS[args.workload],
                                          packages, args.reps)
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)} exited {e.returncode}", file=sys.stderr)
        return 2
    summary = summarize(benchmark["end_to_end"], metrics, failed)
    print(json.dumps({"workload": args.workload, "parent": args.parent, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
