"""Prove that every output check of the benchmark can fail.

    python3 benchmarks/selfcheck.py

Runs each workload at a tiny size (two rounds, a traced one included), then
for each check confirms that it passes on the real outputs and reports a
problem once one deliberately wrong value is fed in. Has no timing bounds.
Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import run  # first: pins the BLAS threads before numpy loads

import copy  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import harness  # noqa: E402


def _off_by_relative(ev):
    label = next(iter(ev.forward_lib))
    ev.forward_lib[label][0] *= 1.0 + 1e-6


def _flip_gradient_entry(ev):
    item = ev.directional[0]
    # The entry whose term contributes most to the directional derivative.
    name = max(item["grads"], key=lambda n: np.max(np.abs(item["grads"][n] * item["direction"][n])))
    flat = item["grads"][name].reshape(-1)
    j = int(np.argmax(np.abs(flat * item["direction"][name].reshape(-1))))
    flat[j] = -flat[j]


def _flip_largest(grads):
    name = max(grads, key=lambda n: np.max(np.abs(grads[n])))
    flat = grads[name].reshape(-1)
    j = int(np.argmax(np.abs(flat)))
    flat[j] = -flat[j]


def _off_target(ev):
    j = int(np.argmin(ev.target_cond["rotmole_r2"]))  # the tightest tolerance
    ev.target_lib["rotmole_r2"][j] *= 1.0 + 1e-6


def _nudge_rerun(ev):
    label, first, again = ev.repeats[-1]
    again = dict(again)
    task = next(iter(again))
    again[task] = float(np.nextafter(again[task], np.inf))
    ev.repeats[-1] = (label, first, again)


def _learning_stalls(ev):
    arm = next(iter(ev.init_final))
    init, _ = ev.init_final[arm]
    ev.init_final[arm] = (init, init)


def _wrong_param_count(ev):
    prefix = next(iter(ev.cli_expected))
    ev.cli_expected[prefix] += 1


MUTATIONS = {
    "forward_matches_reference": _off_by_relative,
    "gradient_matches_central_difference": _flip_gradient_entry,
    "targets_match_reference": _off_target,
    "losses_finite": lambda ev: ev.losses.append(math.nan),
    "gates_sum_to_one": lambda ev: ev.gate_sums.__setitem__(0, ev.gate_sums[0] + 1e-11),
    "angles_in_open_interval": lambda ev: ev.angles.append(math.pi),
    "reruns_bit_identical": _nudge_rerun,
    "floor_between_zero_and_base_error": lambda ev: setattr(ev, "floor", ev.w0_error * 1.01),
    "scaling_only_not_below_floor": lambda ev: setattr(ev, "scaling_final", 0.8 * ev.floor),
    "every_arm_learns": _learning_stalls,
    "angle_summaries_account_for_records": lambda ev: setattr(ev, "theta_records", ev.theta_records + 1),
    "cli_paramcount_matches_arrays": _wrong_param_count,
}
SMALL_SHAPE_ONLY = ("scaling_only_not_below_floor", "every_arm_learns")


def main() -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    bad = 0
    for wl in harness.WORKLOADS.values():
        tiny = wl.tiny()
        m = harness.measure(tiny, seed=1, seconds=0.0, trace=True)
        layers = harness.per_layer(m.tracer, m.first_counts, m.rounds, tiny, m.st.arms)
        ev = harness.collect_evidence(m.st, m.rounds, run.RUN_DIR)
        print(f"{wl.name} (tiny: d={tiny.d}, {len(m.rounds)} rounds, "
              f"{len(layers)} per-layer metrics)")
        for name, check in checks.CHECKS.items():
            if name in SMALL_SHAPE_ONLY and not wl.learning_checks:
                print(f"  {name}: not applied at this shape")
                continue
            wrong = copy.deepcopy(ev)
            MUTATIONS[name](wrong)
            clean, caught = check(ev), check(wrong)
            ok = not clean and bool(caught)
            bad += not ok
            verdict = "ok" if ok else "BROKEN"
            detail = clean[0] if clean else (caught[0] if caught else "wrong value not reported")
            print(f"  {name}: {verdict} ({detail})")
        # The certification verdict decides which trials count as failed.
        trial = copy.deepcopy(ev.fd_trial)
        _flip_largest(trial["analytic"])
        ok = ev.fd_worst <= 1.0 < checks.fd_disagreement(**trial)
        bad += not ok
        print(f"  finite_difference_verdict: {'ok' if ok else 'BROKEN'} "
              f"(worst {ev.fd_worst:.3g} on real trials, "
              f"{checks.fd_disagreement(**trial):.3g} with one entry's sign flipped)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
