"""Synthetic multi-task regression data whose tasks differ only by a rotation.

All tasks share one frozen base matrix, one expert pair (A*, B*) and one plane
anchor q*; task t's target map rotates the low-rank intermediate by its own
angle phi_t inside the plane spanned by (A* x, q*). Inputs carry a one-hot
task suffix so a router conditioned on the input can tell tasks apart. With
fewer experts than tasks, a gate that can only scale a shared expert is stuck
at a loss floor, while a gate that can also rotate can fit every task; the
floor itself is certified by an independent grid-search oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import ConfigError, Matrix, Rng, Vector, kaiming_uniform, l2_norm, rowwise_matvec
from .rotation import apply_rotation, apply_rotations, build_plane, build_planes

FLOOR_RNG_SALT = 0x666C6F6F72  # decouples the oracle's sample stream from training data
FLOOR_ANGLE_STEP = 0.01
FLOOR_SCALE_STEP = 0.01
FLOOR_SCALE_MAX = 2.0

# Target construction. SIGNAL_GAIN scales the generating expert pair so that
# plain SGD at the standard small learning rate moves visibly within a few
# thousand steps. PLANE_MIX sets how far the low-rank intermediates spread
# around the plane anchor's axis: small enough that the rotated component has
# near-zero mean per task (a shared linear map cannot absorb it through the
# task-indicator inputs), large enough that plane construction stays well
# conditioned.
SIGNAL_GAIN = 6.0
PLANE_MIX = 0.5

# Most normals `sample_batch` takes from the rng in one call; splitting a
# draw leaves the stream as is and keeps the draw's arrays small at large d.
DRAW_BLOCK = 8192


@dataclass(frozen=True)
class DatasetConfig:
    d: int
    r: int
    n_task: int
    noise_std: float
    samples_per_task_per_batch: int
    phi_separation: float
    seed: int

    def __post_init__(self):
        if self.n_task < 1:
            raise ConfigError(f"n_task must be >= 1, got {self.n_task}")
        if self.d <= self.n_task:
            raise ConfigError(f"d={self.d} must exceed n_task={self.n_task}")
        if self.r < 2:
            raise ConfigError(f"r must be >= 2, got {self.r}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.samples_per_task_per_batch < 1:
            raise ConfigError("samples_per_task_per_batch must be >= 1")
        if self.phi_separation < 0.0:
            raise ConfigError(f"phi_separation must be >= 0, got {self.phi_separation}")

    @property
    def batch_size(self) -> int:
        return self.samples_per_task_per_batch * self.n_task


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    phi: float
    w0_star: Matrix  # (d, d), shared by all tasks
    a_star: Matrix  # (r, d), shared
    b_star: Matrix  # (d, r), shared
    q_star: Vector  # (r,), shared plane anchor


@dataclass(frozen=True)
class Sample:
    task_id: int
    x: Vector
    y: Vector


def make_rotation_separable_tasks(cfg: DatasetConfig, rng: Rng) -> list[TaskSpec]:
    """Shared generating parameters plus evenly spread task angles.

    Angles are centered on zero with consecutive spacing of exactly
    phi_separation, so two tasks at separation pi get phi = -pi/2 and +pi/2.

    A* is drawn rank-1 dominant along the anchor direction with its
    task-indicator columns zeroed, so every task sees the same intermediate
    distribution and the tasks differ by nothing but their rotation angle.
    """
    if cfg.n_task * cfg.phi_separation > 2.0 * math.pi:
        raise ConfigError(
            f"{cfg.n_task} task angles cannot be {cfg.phi_separation} rad apart "
            "inside one period"
        )
    w0_star = kaiming_uniform(cfg.d, cfg.d, rng)
    q_star = kaiming_uniform(1, cfg.r, rng)[0]
    q_hat = q_star / l2_norm(q_star)
    axis_row = kaiming_uniform(1, cfg.d, rng)[0]
    spread = kaiming_uniform(cfg.r, cfg.d, rng)
    axis_row[cfg.d - cfg.n_task :] = 0.0
    spread[:, cfg.d - cfg.n_task :] = 0.0
    a_star = SIGNAL_GAIN * (np.outer(q_hat, axis_row) + PLANE_MIX * spread)
    b_star = SIGNAL_GAIN * kaiming_uniform(cfg.d, cfg.r, rng)
    offset = (cfg.n_task - 1) / 2.0
    return [
        TaskSpec(t, (t - offset) * cfg.phi_separation, w0_star, a_star, b_star, q_star)
        for t in range(cfg.n_task)
    ]


def target_output(spec: TaskSpec, x: Vector) -> Vector:
    """Noiseless target: base map plus the task's rotated low-rank delta."""
    u = spec.a_star @ x
    plane = build_plane(u, spec.q_star)
    return spec.w0_star @ x + spec.b_star @ apply_rotation(u, plane, spec.phi)


def target_outputs(spec: TaskSpec, xs: Matrix, phis: Vector) -> Matrix:
    """Row j is `target_output` of xs[j] at angle phis[j], bit for bit.

    The generating arrays come from `spec`, whose own `phi` is not read, so
    one call serves rows of every task that shares them.
    """
    us = rowwise_matvec(spec.a_star, xs)
    planes = build_planes(us, spec.q_star)
    phis = phis.tolist()  # math's cos and sin, as apply_rotation takes them
    turned = apply_rotations(
        us, planes, np.array([math.cos(p) for p in phis]), np.array([math.sin(p) for p in phis])
    )
    return rowwise_matvec(spec.w0_star, xs) + rowwise_matvec(spec.b_star, turned)


def _draw_input(cfg: DatasetConfig, task_id: int, rng: Rng) -> Vector:
    x = np.zeros(cfg.d)
    x[: cfg.d - cfg.n_task] = rng.normals(cfg.d - cfg.n_task)
    x[cfg.d - cfg.n_task + task_id] = 1.0
    return x


def draw_batch(
    specs: list[TaskSpec], cfg: DatasetConfig, rng: Rng
) -> tuple[np.ndarray, Matrix, Matrix]:
    """One balanced batch as arrays: task ids (m,), inputs and targets (m, d).

    Tasks are interleaved round-robin, with exact equal counts. Row j
    draws its free input entries and then its output noise from `rng`. The
    batch takes all of its draws in a few large `normals` calls, which give
    the same stream, and its targets from one `target_outputs` call, so it
    equals a loop of `_draw_input` and `target_output` per sample. That call
    needs the specs to share their generating arrays, as the specs of
    `make_rotation_separable_tasks` do; other specs raise ValueError.
    """
    if not specs:
        raise ValueError("draw_batch: specs must be nonempty")
    shared = specs[0]
    if any(
        spec.w0_star is not shared.w0_star
        or spec.a_star is not shared.a_star
        or spec.b_star is not shared.b_star
        or spec.q_star is not shared.q_star
        for spec in specs
    ):
        raise ValueError("draw_batch: specs must share w0_star, a_star, b_star and q_star")
    free = cfg.d - cfg.n_task
    width = free + cfg.d  # normals drawn per sample
    per_task = cfg.samples_per_task_per_batch
    m = per_task * len(specs)
    draws = np.empty((m, width))
    step = max(1, DRAW_BLOCK // width)
    for start in range(0, m, step):
        block = draws[start : start + step]
        block[...] = rng.normals(block.size).reshape(block.shape)
    task_ids = np.array([spec.task_id for spec in specs] * per_task)
    phis = np.array([spec.phi for spec in specs] * per_task)
    xs = np.zeros((m, cfg.d))
    xs[:, :free] = draws[:, :free]
    xs[np.arange(m), free + task_ids] = 1.0
    ys = target_outputs(shared, xs, phis)
    ys += cfg.noise_std * draws[:, free:]
    return task_ids, xs, ys


def sample_batch(specs: list[TaskSpec], cfg: DatasetConfig, rng: Rng) -> list[Sample]:
    """`draw_batch` as a list of `Sample`s."""
    task_ids, xs, ys = draw_batch(specs, cfg, rng)
    return [Sample(task_id, x, y) for task_id, x, y in zip(task_ids.tolist(), xs, ys)]


def analytic_baseline_floor(specs: list[TaskSpec], cfg: DatasetConfig, n_mc: int) -> float:
    """Best mean squared error reachable by scaling alone, via grid search.

    The scaling-only family with a single shared expert can produce deltas
    s_t * B* R(angle) A* x for one shared angle and a nonnegative per-task
    scale s_t: it can modulate how much the shared direction contributes but
    cannot re-aim it per task. The oracle sweeps the shared angle over
    [-pi, pi) in 0.01 rad steps and each task's scale over [0, 2] in 0.01
    steps, scoring every grid point as the Monte-Carlo average of the
    per-component squared error over n_mc fresh noisy samples. Deliberately
    brute force so it shares nothing with the trainer it certifies.
    """
    if n_mc < 10**4:
        raise ConfigError(f"analytic_baseline_floor: n_mc must be >= 1e4, got {n_mc}")
    rng = Rng(cfg.seed ^ FLOOR_RNG_SALT)
    per_task = -(-n_mc // cfg.n_task)  # ceil division keeps tasks balanced

    # Candidate deltas decompose as cos(angle) * plain + sin(angle) * turned,
    # with plain = B* A* x and turned = B* (||A* x|| e2(x)).
    stats = []
    for spec in specs:
        acc = np.zeros(6)  # <rho,rho>, <rho,p>, <rho,t>, <p,p>, <p,t>, <t,t>
        for _ in range(per_task):
            x = _draw_input(cfg, spec.task_id, rng)
            rho = (
                target_output(spec, x)
                + cfg.noise_std * rng.normals(cfg.d)
                - spec.w0_star @ x
            )
            u = spec.a_star @ x
            plane = build_plane(u, spec.q_star)
            plain = spec.b_star @ u
            if plane.degenerate:
                turned = np.zeros(cfg.d)
            else:
                turned = spec.b_star @ (plane.u_norm * plane.e2)
            acc += [
                rho @ rho,
                rho @ plain,
                rho @ turned,
                plain @ plain,
                plain @ turned,
                turned @ turned,
            ]
        stats.append(acc / (per_task * cfg.d))

    angles = np.arange(-math.pi, math.pi, FLOOR_ANGLE_STEP)
    scales = np.arange(0.0, FLOOR_SCALE_MAX + 1e-12, FLOOR_SCALE_STEP)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    total = np.zeros(angles.shape[0])
    for rr, rp, rt, pp, pt, tt in stats:
        cross = cos_a * rp + sin_a * rt
        quad = cos_a**2 * pp + 2.0 * cos_a * sin_a * pt + sin_a**2 * tt
        errs = rr - 2.0 * np.outer(cross, scales) + np.outer(quad, scales**2)
        total += np.min(errs, axis=1)
    return float(np.min(total) / len(stats))
