"""Plain SGD training loop with linear learning-rate decay.

Each step draws one balanced batch, averages per-sample squared-error
gradients, and applies a single update. The frozen base matrix never moves.
Angles of a probed expert are snapshotted at logging steps for the
distribution analysis.

Training and evaluation run the whole batch at once through
adapter.forward_batch and autograd.backward_batch. Their results equal, bit
for bit, a loop of the per-sample forward and of the per-sample chain rule in
tests/oracle.py over the batch, which certifies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# forward is the per-sample oracle of the batched forward, backward a one-row
# backward_batch and not an oracle, and sample_batch the list form of
# draw_batch. These names and zero_gradients stay importable here because
# benchmarks/spans.py patches them on this module to time them.
from .adapter import AdapterLayer, _forward_batch, forward, trainable_params  # noqa: F401
from .autograd import backward, backward_batch, zero_gradients  # noqa: F401
from .numkit import ConfigError, Rng
from .synth import DatasetConfig, Sample, TaskSpec, _draw_batch, sample_batch  # noqa: F401


EVAL_BLOCK_VALUES = 16384  # entries of one (samples, d) array in `evaluate`


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lr0: float = 3e-4
    seed: int = 0
    eval_every: int = 100
    theta_log_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.lr0 < 0.0:
            raise ConfigError(f"lr0 must be >= 0, got {self.lr0}")
        if self.eval_every < 1 or self.theta_log_every < 1:
            raise ConfigError("eval_every and theta_log_every must be >= 1")
        if not 0 <= self.seed < 2**64:  # Rng keeps a seed's low 64 bits only
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    lr: float
    loss: float  # training-batch loss at this step, before the update
    per_task_mse: dict[int, float]  # evaluation after the update


@dataclass(frozen=True, slots=True)
class ThetaRecord:
    step: int
    task_id: int
    expert_index: int
    theta: float


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    if not 0 <= step < cfg.steps:
        raise ValueError(f"lr_schedule: step {step} outside [0, {cfg.steps})")
    return cfg.lr0 * (1.0 - step / cfg.steps)


def _row_mse(err: np.ndarray) -> np.ndarray:
    """Mean square of each row, as np.mean computes it for one vector."""
    return np.mean(err**2, axis=1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:  # a product's bits follow the strides too
    layout = a.dtype == b.dtype == np.float64 and (a.shape, a.strides) == (b.shape, b.strides)
    return layout and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def evaluate(layer: AdapterLayer, samples: list[Sample]) -> dict[int, float]:
    """Mean squared error per output component, grouped by task.

    Samples go through the batched forward in blocks of EVAL_BLOCK_VALUES / d,
    which bounds the size of its arrays; no row's result depends on the block.
    Each task's errors are summed in sample order, and only tasks present in
    `samples` get a key.
    """
    block = max(1, EVAL_BLOCK_VALUES // layer.config.d)
    mses = np.empty(len(samples))
    for start in range(0, len(samples), block):
        chunk = samples[start : start + block]
        y_hat, _ = _forward_batch(layer, np.array([s.x for s in chunk]), None)
        mses[start : start + len(chunk)] = _row_mse(y_hat - np.array([s.y for s in chunk]))
    task_ids = np.array([s.task_id for s in samples], dtype=np.intp)
    totals, counts = np.bincount(task_ids, weights=mses), np.bincount(task_ids)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), (totals[present] / counts[present]).tolist()))


def train(
    layer: AdapterLayer,
    specs: list[TaskSpec],
    data_cfg: DatasetConfig,
    train_cfg: TrainConfig,
    data_rng: Rng,
    eval_samples: list[Sample],
    probe_expert: int = 0,
) -> tuple[AdapterLayer, list[MetricsRecord], list[ThetaRecord]]:
    """Run the SGD loop in place; returns the layer with metrics and angle logs.

    `data_rng` supplies every batch, so the whole run is a pure function of
    the layer, the specs, and the rng state it arrives with. Raises
    TrainingDiverged on a non-finite training loss or held-out MSE, or when a
    parameter is not finite after the last update: under SGD a non-finite
    value never turns finite again, so one check at the end covers every step.
    When `layer.w0` has the layout and raw bits of the specs' W0* (-0.0 is
    not 0.0), each step computes W0 x once, for the targets and the prediction.
    """
    d = layer.config.d
    batch_size = data_cfg.batch_size
    metrics: list[MetricsRecord] = []
    thetas: list[ThetaRecord] = []
    params = trainable_params(layer)
    shared_w0 = bool(specs) and _same_bits(layer.w0, specs[0].w0_star)  # W0 is frozen
    for step in range(train_cfg.steps):
        task_ids, xs, ys, base = _draw_batch(specs, data_cfg, data_rng)
        y_hat, cache = _forward_batch(layer, xs, base if shared_w0 else None)
        err = y_hat - ys
        loss = 0.0
        for mse in _row_mse(err).tolist():  # summed in sample order, as floats
            loss += mse
        grads = backward_batch(layer, cache, 2.0 * err / (d * batch_size))
        if step % train_cfg.theta_log_every == 0 or step == train_cfg.steps - 1:
            rows, pos = np.nonzero(cache.selected == probe_expert)
            thetas.extend(
                ThetaRecord(step, task_id, probe_expert, theta)
                for task_id, theta in zip(task_ids[rows].tolist(), cache.theta[rows, pos].tolist())
            )
        loss /= batch_size
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite training loss at step {step}")
        lr = lr_schedule(step, train_cfg)
        for name in params:
            params[name] -= lr * grads[name]
        if step % train_cfg.eval_every == 0 or step == train_cfg.steps - 1:
            per_task_mse = evaluate(layer, eval_samples)
            if not all(map(math.isfinite, per_task_mse.values())):
                raise TrainingDiverged(f"non-finite held-out mse at step {step}")
            metrics.append(MetricsRecord(step, lr, loss, per_task_mse))
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise TrainingDiverged(f"non-finite parameters in '{name}' after the last update")
    return layer, metrics, thetas
