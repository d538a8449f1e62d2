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

# Most normals `_draw_rows` takes from the rng in one call. Splitting a draw
# leaves the stream as is and keeps the arrays in cache (2-CPU Xeon: 32512
# values took 1.54 ms in one call, 1.17 ms in four).
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
        if not 0 <= self.seed < 2**64:  # Rng keeps a seed's low 64 bits only
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")

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
    """Noiseless target: base map plus the task's rotated low-rank delta, as
    the one-row `target_outputs` at the spec's own angle."""
    return target_outputs(spec, x[None, :], np.array([spec.phi]))[0]


def target_outputs(
    spec: TaskSpec, xs: Matrix, phis: Vector, *, base: Matrix | None = None
) -> Matrix:
    """Row j is the noiseless target of x = xs[j] at angle phis[j]:
    W0* x + B* R A* x, where R turns by phis[j] in the plane of (A* x, q*),
    or is the identity where that plane is degenerate. The per-sample
    formula in tests/oracle.py gives the same bits.

    The generating arrays come from `spec`, whose own `phi` is not read, so
    one call serves rows of every task that shares them. `base`, when given,
    stands in for the row-wise products W0* x of xs.
    """
    if base is None:
        base = rowwise_matvec(spec.w0_star, xs)
    us = rowwise_matvec(spec.a_star, xs)
    planes = build_planes(us, spec.q_star)
    phis = phis.tolist()  # math's cos and sin, as apply_rotation takes them
    turned = apply_rotations(
        us, planes, np.array([math.cos(p) for p in phis]), np.array([math.sin(p) for p in phis])
    )
    return base + rowwise_matvec(spec.b_star, turned)


def _draw_rows(cfg: DatasetConfig, task_ids: np.ndarray, rng: Rng) -> tuple[Matrix, Matrix]:
    """Inputs and output noise, (m, d) each, of samples of tasks `task_ids`.

    Sample j draws its d - n_task free input entries, then its d noise values,
    and its input's one-hot column is set. Drawing in calls of DRAW_BLOCK
    values gives the stream of one call per sample and part.
    """
    free = cfg.d - cfg.n_task
    m, width = len(task_ids), free + cfg.d
    size = max(DRAW_BLOCK, width)  # values per `normals` call, at least one sample's
    parts = [rng.normals(min(size, m * width - start)) for start in range(0, m * width, size)]
    # One part is used as is: copying it slowed the floor's loop by a few percent.
    draws = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(m, width)
    xs = np.zeros((m, cfg.d))
    xs[:, :free] = draws[:, :free]
    xs[np.arange(m), free + task_ids] = 1.0
    return xs, draws[:, free:]


def draw_batch(
    specs: list[TaskSpec], cfg: DatasetConfig, rng: Rng
) -> tuple[np.ndarray, Matrix, Matrix, Matrix]:
    """One balanced batch as arrays: task ids (m,), then inputs, targets and
    the targets' base products W0* x, (m, d) each.

    Tasks are interleaved round-robin, with exact equal counts. One
    `_draw_rows` call and one `target_outputs` pass equal a loop that draws
    and targets one sample at a time. The targets need the specs to share
    their generating arrays, as the specs of `make_rotation_separable_tasks`
    do; other specs raise ValueError.
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
    per_task = cfg.samples_per_task_per_batch
    task_ids = np.array([spec.task_id for spec in specs] * per_task)
    phis = np.array([spec.phi for spec in specs] * per_task)
    xs, noise = _draw_rows(cfg, task_ids, rng)
    base = rowwise_matvec(shared.w0_star, xs)
    ys = target_outputs(shared, xs, phis, base=base)
    ys += cfg.noise_std * noise
    return task_ids, xs, ys, base


def sample_batch(specs: list[TaskSpec], cfg: DatasetConfig, rng: Rng) -> list[Sample]:
    """`draw_batch` as a list of `Sample`s."""
    task_ids, xs, ys, _ = draw_batch(specs, cfg, rng)
    return [Sample(task_id, x, y) for task_id, x, y in zip(task_ids.tolist(), xs, ys)]


def _floor_sums(specs: list[TaskSpec], cfg: DatasetConfig, n_mc: int) -> Matrix:
    """Row t: task t's <rho,rho>, <rho,p>, <rho,t>, <p,p>, <p,t>, <t,t> over
    ceil(n_mc / n_task) fresh samples, divided by their count times d.

    A sample's residual off its base map is rho = delta + noise, so W0* x is
    never computed; p = B* A* x and t = B* (||A* x|| e2(x)) are its candidate
    directions. Each block of samples takes its draws in one `_draw_rows`
    call. The rest stays per sample, one vector at a time: u = A* x, its
    `build_plane`, the delta B* R(phi) u and the six sums, so they share no
    code with `target_outputs` and `build_planes`.
    """
    rng = Rng(cfg.seed ^ FLOOR_RNG_SALT)
    per_task = -(-n_mc // cfg.n_task)  # ceil division keeps tasks balanced
    step = max(1, DRAW_BLOCK // (2 * cfg.d - cfg.n_task))  # samples per `normals` call
    zero = np.zeros(cfg.d)
    stats = []
    for spec in specs:
        rr = rp = rt = pp = pt = tt = 0.0
        for start in range(0, per_task, step):
            m = min(step, per_task - start)
            xs, noises = _draw_rows(cfg, np.full(m, spec.task_id), rng)
            noises *= cfg.noise_std
            for x, noise in zip(xs, noises):
                u = spec.a_star.dot(x)
                plane = build_plane(u, spec.q_star)
                rho = spec.b_star.dot(apply_rotation(u, plane, spec.phi)) + noise
                plain = spec.b_star.dot(u)
                turned = zero if plane.degenerate else spec.b_star.dot(plane.u_norm * plane.e2)
                rr += rho.dot(rho)
                rp += rho.dot(plain)
                rt += rho.dot(turned)
                pp += plain.dot(plain)
                pt += plain.dot(turned)
                tt += turned.dot(turned)
        stats.append(np.array([rr, rp, rt, pp, pt, tt]) / (per_task * cfg.d))
    return np.array(stats)


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

    Targets and candidates share the base map W0* x, so each grid point's
    error needs only each task's six `_floor_sums`, taken off the base map.
    """
    if n_mc < 10**4:
        raise ConfigError(f"analytic_baseline_floor: n_mc must be >= 1e4, got {n_mc}")
    stats = _floor_sums(specs, cfg, n_mc)
    # A candidate delta is cos(angle) * p + sin(angle) * t, scaled per task.
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
