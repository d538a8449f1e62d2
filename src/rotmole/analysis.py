"""Grouping and summary statistics for logged rotation angles.

Angles recorded during training are grouped by (snapshot step, task) and
reduced to count, mean, population standard deviation, and a fixed-bin
histogram over [-pi, pi]. Growing per-task dispersion and growing gaps
between per-task means are the signatures of the rotation gate actually
specializing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import pi

import numpy as np

from .numkit import ConfigError
from .trainer import ThetaRecord


@dataclass(frozen=True)
class ThetaSummary:
    step: int
    task_id: int
    count: int
    mean: float
    std: float  # population convention (divide by count)
    histogram: tuple[int, ...]


def summarize(
    records: list[ThetaRecord], snapshot_steps: list[int], n_bins: int
) -> list[ThetaSummary]:
    """One summary per (snapshot step, task).

    Bins are uniform over [-pi, pi], left-closed, with the last bin closed on
    the right. Snapshot steps with no records are skipped with a warning.
    """
    if n_bins < 2:
        raise ConfigError(f"summarize: n_bins must be >= 2, got {n_bins}")
    edges = np.linspace(-pi, pi, n_bins + 1)
    summaries = []
    for step in snapshot_steps:
        at_step = [r for r in records if r.step == step]
        if not at_step:
            warnings.warn(f"no theta records at snapshot step {step}")
            continue
        for task in sorted({r.task_id for r in at_step}):
            values = np.array([r.theta for r in at_step if r.task_id == task])
            counts, _ = np.histogram(values, bins=edges)
            summaries.append(
                ThetaSummary(
                    step=step,
                    task_id=task,
                    count=values.size,
                    mean=float(values.mean()),
                    std=float(values.std()),
                    histogram=tuple(int(c) for c in counts),
                )
            )
    return summaries


def separation(summaries: list[ThetaSummary], step: int) -> float:
    """Smallest gap on the circle between per-task mean angles at one
    snapshot step: means of -3 and 3 are 2 pi - 6 apart, not 6."""
    by_task = {s.task_id: s.mean for s in summaries if s.step == step}
    if len(by_task) < 2:
        raise ValueError(f"separation: need >= 2 tasks at step {step}, got {len(by_task)}")
    means = list(by_task.values())
    gaps = [abs(a - b) % (2.0 * pi) for i, a in enumerate(means) for b in means[i + 1 :]]
    return min(min(gap, 2.0 * pi - gap) for gap in gaps)


def summary_csv(summaries: list[ThetaSummary]) -> str:
    """CSV rows: step,task_id,count,mean,std,bin_0,...,bin_{n-1} (9 significant digits)."""
    if not summaries:
        raise ValueError("summary_csv: no summaries to write")
    n_bins = len(summaries[0].histogram)
    header = "step,task_id,count,mean,std," + ",".join(f"bin_{i}" for i in range(n_bins))
    lines = [header]
    for s in summaries:
        bins = ",".join(str(c) for c in s.histogram)
        lines.append(f"{s.step},{s.task_id},{s.count},{s.mean:.9g},{s.std:.9g},{bins}")
    return "\n".join(lines) + "\n"
