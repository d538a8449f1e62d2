import math

import numpy as np
import pytest

from rotmole.analysis import ThetaSummary, separation, summarize, summary_csv
from rotmole.numkit import ConfigError, Rng
from rotmole.trainer import ThetaRecord


def records_from(step, task_id, thetas):
    return [ThetaRecord(step, task_id, 0, t) for t in thetas]


def test_all_zero_snapshot():
    records = records_from(0, 0, [0.0] * 20)
    (summary,) = summarize(records, [0], n_bins=8)
    assert summary.mean == 0.0
    assert summary.std == 0.0
    assert summary.count == 20
    assert sum(summary.histogram) == 20
    # zero lands in the bin whose left edge is 0 (fifth of eight)
    assert summary.histogram[4] == 20


def test_two_point_population_std():
    records = records_from(3, 1, [-1.0, 1.0])
    (summary,) = summarize(records, [3], n_bins=4)
    assert summary.mean == 0.0
    assert summary.std == 1.0  # population convention, divide by count


def test_summaries_grouped_and_ordered():
    records = (
        records_from(0, 1, [0.5, 0.6])
        + records_from(0, 0, [-0.5])
        + records_from(10, 0, [0.1])
    )
    summaries = summarize(records, [0, 10], n_bins=4)
    assert [(s.step, s.task_id) for s in summaries] == [(0, 0), (0, 1), (10, 0)]


def test_histogram_edges():
    # bins are left-closed over [-pi, pi] and the last bin is right-closed,
    # so with two bins: -pi opens the first, 0 opens the second, pi closes it
    records = records_from(0, 0, [-math.pi, 0.0, math.pi])
    (summary,) = summarize(records, [0], n_bins=2)
    assert summary.histogram == (1, 2)


def test_missing_snapshot_warns_and_omits():
    records = records_from(5, 0, [0.2])
    with pytest.warns(UserWarning, match="step 7"):
        summaries = summarize(records, [5, 7], n_bins=4)
    assert [(s.step, s.task_id) for s in summaries] == [(5, 0)]


def test_summarize_rejects_tiny_bin_count():
    with pytest.raises(ConfigError):
        summarize(records_from(0, 0, [0.0]), [0], n_bins=1)


def test_histogram_permutation_invariant():
    rng = Rng(4)
    thetas = list(rng.uniforms(50, -3.0, 3.0))
    a = summarize(records_from(2, 0, thetas), [2], n_bins=10)
    b = summarize(records_from(2, 0, list(reversed(thetas))), [2], n_bins=10)
    assert a[0].histogram == b[0].histogram
    assert abs(a[0].mean - b[0].mean) < 1e-12


def test_mean_std_match_two_pass_computation():
    rng = Rng(9)
    thetas = list(rng.uniforms(101, -2.0, 2.0))
    (summary,) = summarize(records_from(1, 0, thetas), [1], n_bins=6)
    mean = sum(thetas) / len(thetas)
    std = math.sqrt(sum((t - mean) ** 2 for t in thetas) / len(thetas))
    assert abs(summary.mean - mean) < 1e-12
    assert abs(summary.std - std) < 1e-12


def test_separation_cases():
    same = records_from(0, 0, [0.3]) + records_from(0, 1, [0.3])
    assert separation(summarize(same, [0], n_bins=4), 0) == 0.0
    three = (
        records_from(0, 0, [-1.0])
        + records_from(0, 1, [0.0])
        + records_from(0, 2, [2.0])
    )
    assert separation(summarize(three, [0], n_bins=4), 0) == 1.0


def test_separation_is_measured_on_the_circle():
    # Means of -3 and 3 are 2 pi - 6 apart across the +-pi seam, not 6; a
    # third task at 0.1 is about 3 from either and does not set the minimum.
    records = (
        records_from(0, 0, [-3.0])
        + records_from(0, 1, [3.0])
        + records_from(0, 2, [0.1])
    )
    assert separation(summarize(records, [0], n_bins=4), 0) == 2 * math.pi - 6.0
    opposed = records_from(0, 0, [-math.pi / 2]) + records_from(0, 1, [math.pi / 2])
    assert separation(summarize(opposed, [0], n_bins=4), 0) == math.pi
    # An angle log is outside input: means of -4 and 4, past +-pi, are
    # 8 - 2 pi apart, not 8.
    wide = records_from(0, 0, [-4.0]) + records_from(0, 1, [4.0])
    assert separation(summarize(wide, [0], n_bins=4), 0) == 8.0 - 2 * math.pi


def test_separation_requires_two_tasks():
    with pytest.raises(ValueError):
        separation(summarize(records_from(0, 0, [0.1, 0.2]), [0], n_bins=4), 0)


def test_separation_of_summaries_matches_regrouped_records_bit_for_bit():
    # The per-task means of the records, regrouped in log order, as
    # separation computed them before it took summaries.
    rng = Rng(17)
    for _ in range(50):
        n_records = 2 + int(rng.uniforms(1, 0.0, 60.0)[0])
        thetas = rng.uniforms(n_records, -math.pi, math.pi)
        tasks = rng.uniforms(n_records, 0.0, 4.0).astype(int)
        steps = rng.uniforms(n_records, 0.0, 2.0).astype(int)
        records = [ThetaRecord(int(s), int(t), 0, float(x))
                   for s, t, x in zip(steps, tasks, thetas)]
        summaries = summarize(records, [0, 1], n_bins=6)
        for step in (0, 1):
            by_task = {}
            for r in records:
                if r.step == step:
                    by_task.setdefault(r.task_id, []).append(r.theta)
            if len(by_task) < 2:
                continue
            means = [float(np.mean(v)) for v in by_task.values()]
            gaps = [abs(a - b) for i, a in enumerate(means) for b in means[i + 1:]]
            gap = min(min(g, 2 * math.pi - g) for g in gaps)  # on the circle
            assert separation(summaries, step) == gap


def test_csv_format():
    summaries = [
        ThetaSummary(step=0, task_id=0, count=3, mean=0.123456789123, std=0.5,
                     histogram=(1, 2, 0)),
        ThetaSummary(step=9, task_id=1, count=2, mean=-1.0, std=0.25,
                     histogram=(0, 1, 1)),
    ]
    lines = summary_csv(summaries).splitlines()
    assert lines[0] == "step,task_id,count,mean,std,bin_0,bin_1,bin_2"
    assert lines[1] == "0,0,3,0.123456789,0.5,1,2,0"
    assert lines[2] == "9,1,2,-1,0.25,0,1,1"


def test_csv_rejects_empty():
    with pytest.raises(ValueError):
        summary_csv([])
