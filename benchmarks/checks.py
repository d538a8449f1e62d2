"""Reference computations and output checks for the benchmark.

Everything here is written apart from the package it checks: the reference
forward, the reference targets and the central difference use plain numpy on
the arrays a layer or task holds, and never call into `rotmole`. Each check
reads an `Evidence` record collected after a workload's timed rounds and
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Largest double below pi: the package keeps every emitted angle inside (-pi, pi).
ANGLE_LIMIT = float(np.nextafter(np.pi, 0.0))
DEGENERATE_EPS = 1e-8

FORWARD_RTOL = 1e-10
TARGET_RTOL = 1e-10  # times the plane's condition (see plane_condition)
GRADIENT_RTOL = 1e-4  # no looser than the package's own grad_check default
FD_STEP = 1e-5  # central-difference step, the package's grad_check default
GATE_SUM_ATOL = 1e-12
NOISE_RMS_BAND = (0.9, 1.1)
SCALING_FLOOR_SHARE = 0.9


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def plane_rotation(u: np.ndarray, anchor: np.ndarray, theta: float) -> np.ndarray:
    """Explicit r x r matrix turning u by theta toward the anchor in span(u, anchor),
    identity elsewhere.

    The basis comes from Gram-Schmidt of (u, anchor), at every r including 2,
    where the turning sense follows the anchor; an ill-posed plane (u or the
    anchor's residual shorter than DEGENERATE_EPS) gives the identity.
    """
    r = u.shape[0]
    u_len = math.sqrt(float(u @ u))
    if u_len <= DEGENERATE_EPS:
        return np.eye(r)
    e1 = u / u_len
    resid = anchor - float(anchor @ e1) * e1
    resid_len = math.sqrt(float(resid @ resid))
    if resid_len <= DEGENERATE_EPS:
        return np.eye(r)
    basis = np.stack([e1, resid / resid_len], axis=1)  # (r, 2)
    return np.eye(r) - basis @ basis.T + basis @ rotation_2d(theta) @ basis.T


@dataclass(frozen=True)
class RefRouting:
    selected: tuple[int, ...]
    g: np.ndarray
    theta: np.ndarray


def reference_forward(layer, x: np.ndarray, selected=None) -> tuple[np.ndarray, RefRouting]:
    """y = W0 x + sum over the top-k experts of g_i B_i R_i A_i x.

    Top-k is a stable sort on the softmax gate values (ties go to the lower
    index); g renormalizes the selected softmax values; theta is
    clamp(2 pi sigmoid(x . w_theta) - pi), written as pi * tanh(t / 2). R is
    the plane rotation toward the expert's anchor q, or at r = 2 the fixed
    2-D rotation. `selected` pins the expert set, as the package's
    force_selected does.
    """
    cfg, router = layer.config, layer.router
    if cfg.mode == "mlp_gate":
        logits = np.maximum(x @ router.mlp_w1, 0.0) @ router.mlp_w2
    else:
        logits = x @ router.w_g
    weights = np.exp(logits - np.max(logits))
    gates = weights / np.sum(weights)
    if selected is None:
        selected = tuple(int(i) for i in np.argsort(-gates, kind="stable")[: cfg.k])
    g = gates[list(selected)] / np.sum(gates[list(selected)])
    theta = np.zeros(len(selected))
    y = layer.w0 @ x
    for pos, i in enumerate(selected):
        u = layer.experts[i].a @ x
        if cfg.mode == "rotmole":
            t = float(x @ router.w_theta[:, i])
            theta[pos] = min(max(math.pi * math.tanh(t / 2.0), -ANGLE_LIMIT), ANGLE_LIMIT)
            if cfg.r == 2:
                u = rotation_2d(theta[pos]) @ u
            else:
                u = plane_rotation(u, router.q[i], theta[pos]) @ u
        y = y + g[pos] * (layer.experts[i].b @ u)
    return y, RefRouting(tuple(selected), g, theta)


def reference_target(spec, x: np.ndarray) -> np.ndarray:
    """Noiseless task target W0* x + B* R(phi_t) A* x with R as an explicit matrix."""
    u = spec.a_star @ x
    return spec.w0_star @ x + spec.b_star @ (plane_rotation(u, spec.q_star, spec.phi) @ u)


def plane_condition(u: np.ndarray, anchor: np.ndarray) -> float:
    """|anchor| over the length of its residual off u, at least 1.

    Rounding in a Gram-Schmidt plane basis grows by this factor, so two
    correct implementations of a plane rotation differ by about eps times it:
    at r = 2 an anchor within 1e-4 rad of u is common enough to matter.
    """
    e1 = u / math.sqrt(float(u @ u))
    resid = anchor - float(anchor @ e1) * e1
    return max(math.sqrt(float(anchor @ anchor) / float(resid @ resid)), 1.0)


def reference_batch_loss(layer, xs, ys, selections) -> float:
    """Mean over samples of the per-component squared error, expert sets pinned."""
    total = 0.0
    for x, y, sel in zip(xs, ys, selections):
        y_hat, _ = reference_forward(layer, x, sel)
        total += float(np.mean((y_hat - y) ** 2))
    return total / len(xs)


def central_difference(layer, params: dict, direction: dict, xs, ys, selections,
                       h: float = FD_STEP) -> float:
    """Derivative of the reference batch loss along `direction`, parameters
    moved in place through the live arrays in `params` and restored exactly."""
    saved = {name: arr.copy() for name, arr in params.items()}
    try:
        for name, arr in params.items():
            arr += h * direction[name]
        plus = reference_batch_loss(layer, xs, ys, selections)
        for name, arr in params.items():
            arr[...] = saved[name] - h * direction[name]
        minus = reference_batch_loss(layer, xs, ys, selections)
    finally:
        for name, arr in params.items():
            arr[...] = saved[name]
    return (plus - minus) / (2.0 * h)


def unit_direction(params: dict, rng: np.random.Generator) -> dict:
    """A random direction over every trainable scalar, unit length overall."""
    raw = {name: rng.standard_normal(arr.shape) for name, arr in params.items()}
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in raw.values()))
    return {name: v / norm for name, v in raw.items()}


def fd_disagreement(analytic: dict, numeric: dict, loss: float, d: int,
                    h: float = FD_STEP) -> float:
    """Worst entry of |a - b| / (GRADIENT_RTOL max(|a|, |b|) + atol); above 1 fails.

    atol = 2 d eps max(loss, 1) / h bounds the rounding a central difference of
    a d-term mean loss picks up. Without it, entries near zero fail on rounding
    alone: the package's grad_check (relative error with a 1e-8 floor) rejects
    correct gradients that way on some seeds at d = 32 and d = 256.
    """
    atol = 2.0 * d * np.finfo(float).eps * max(loss, 1.0) / h
    worst = 0.0
    for name, a in analytic.items():
        b = numeric[name]
        ratio = np.abs(a - b) / (GRADIENT_RTOL * np.maximum(np.abs(a), np.abs(b)) + atol)
        worst = max(worst, float(np.max(ratio)))
    return worst


def row_rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b|| / ||b|| per row."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return np.linalg.norm(a - b, axis=1) / np.maximum(np.linalg.norm(b, axis=1), 1e-300)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max over rows of ||a - b|| / ||b||."""
    return float(np.max(row_rel_err(a, b)))


# ---------------------------------------------------------------------------
# Evidence and checks
# ---------------------------------------------------------------------------


@dataclass
class Evidence:
    """Outputs of one workload run that the checks read."""

    forward_lib: dict = field(default_factory=dict)  # label -> (m, d) package outputs
    forward_ref: dict = field(default_factory=dict)  # label -> (m, d) reference outputs
    gate_sums: list = field(default_factory=list)
    angles: list = field(default_factory=list)  # routed and logged angles
    directional: list = field(default_factory=list)  # {label, grads, direction, numeric}
    target_lib: dict = field(default_factory=dict)  # arm -> (m, d) package targets
    target_ref: dict = field(default_factory=dict)  # arm -> (m, d) reference targets
    target_cond: dict = field(default_factory=dict)  # arm -> (m,) plane conditions
    noise_rms: float = 0.0
    noise_std: float = 0.0
    losses: list = field(default_factory=list)  # training losses and held-out MSEs
    repeats: list = field(default_factory=list)  # (label, first, again)
    floor: float = 0.0
    w0_error: float = 0.0
    learning: bool = False  # small shape only: progress and floor-bound checks
    scaling_final: float = 0.0
    init_final: dict = field(default_factory=dict)  # arm -> (initial MSE, final MSE)
    theta_records: int = 0
    summary_counts: list = field(default_factory=list)  # (count, histogram sum)
    cli_expected: dict = field(default_factory=dict)  # output line prefix -> value
    cli_output: str = ""
    cli_exit: int = 0
    fd_worst: float = 0.0  # largest fd_disagreement over all certification trials
    fd_trial: dict | None = None  # the last trial's inputs to fd_disagreement


def directional_rel_err(item: dict) -> float:
    analytic = sum(float(np.sum(item["grads"][n] * item["direction"][n])) for n in item["grads"])
    numeric = item["numeric"]
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def check_forward(ev: Evidence) -> list[str]:
    out = []
    for label, y in ev.forward_lib.items():
        err = rel_err(y, ev.forward_ref[label])
        if not err <= FORWARD_RTOL:
            out.append(f"{label}: forward differs from the reference by {err:.3g} relative")
    return out


def check_gradient(ev: Evidence) -> list[str]:
    out = []
    for item in ev.directional:
        err = directional_rel_err(item)
        if not err <= GRADIENT_RTOL:
            out.append(f"{item['label']}: directional derivative off by {err:.3g} relative")
    return out


def check_targets(ev: Evidence) -> list[str]:
    out = []
    for label, y in ev.target_lib.items():
        share = row_rel_err(y, ev.target_ref[label]) / (TARGET_RTOL * ev.target_cond[label])
        if not np.max(share) <= 1.0:
            j = int(np.argmax(share))
            out.append(f"{label}: noiseless target {j} differs from the reference by "
                       f"{share[j]:.3g} of its tolerance")
    lo, hi = NOISE_RMS_BAND
    if not lo * ev.noise_std <= ev.noise_rms <= hi * ev.noise_std:
        out.append(f"held-out noise rms {ev.noise_rms:.4g} is not about {ev.noise_std}")
    return out


def check_losses_finite(ev: Evidence) -> list[str]:
    bad = [v for v in ev.losses if not math.isfinite(v)]
    return [f"{len(bad)} non-finite training losses or MSEs"] if bad else []


def check_gate_sums(ev: Evidence) -> list[str]:
    worst = max((abs(s - 1.0) for s in ev.gate_sums), default=0.0)
    return [] if worst <= GATE_SUM_ATOL else [f"a routed gate sums to 1 {worst:+.3g}"]


def check_angles(ev: Evidence) -> list[str]:
    bad = [t for t in ev.angles if not -math.pi < t < math.pi]
    return [f"{len(bad)} angles outside (-pi, pi), e.g. {bad[0]!r}"] if bad else []


def check_repeats(ev: Evidence) -> list[str]:
    return [
        f"{label}: rerun gave {again!r}, first run {first!r}"
        for label, first, again in ev.repeats
        if first != again
    ]


def check_floor(ev: Evidence) -> list[str]:
    if 0.0 < ev.floor <= ev.w0_error:
        return []
    return [f"floor {ev.floor!r} is not in (0, W0x error {ev.w0_error!r}]"]


def check_scaling_floor(ev: Evidence) -> list[str]:
    if not ev.learning or ev.scaling_final >= SCALING_FLOOR_SHARE * ev.floor:
        return []
    return [f"scaling_only final MSE {ev.scaling_final!r} is below 0.9 x floor {ev.floor!r}"]


def check_learning(ev: Evidence) -> list[str]:
    if not ev.learning:
        return []
    return [
        f"{arm}: final held-out MSE {final!r} is not below its initial {init!r}"
        for arm, (init, final) in ev.init_final.items()
        if not final < init
    ]


def check_summaries(ev: Evidence) -> list[str]:
    out = []
    if sum(c for c, _ in ev.summary_counts) != ev.theta_records:
        out.append(f"angle summaries count {sum(c for c, _ in ev.summary_counts)} "
                   f"of {ev.theta_records} records")
    if any(c != h for c, h in ev.summary_counts):
        out.append("an angle histogram does not sum to its count")
    return out


def check_cli(ev: Evidence) -> list[str]:
    if ev.cli_exit != 0:
        return [f"rotmole paramcount exited {ev.cli_exit}"]
    lines = ev.cli_output.splitlines()
    out = []
    for prefix, value in ev.cli_expected.items():
        line = next((ln for ln in lines if ln.startswith(prefix)), "")
        words = line[len(prefix):].split()
        if not words or words[0] != str(value):
            out.append(f"paramcount printed {line!r}, expected {prefix}{value}")
    return out


CHECKS = {
    "forward_matches_reference": check_forward,
    "gradient_matches_central_difference": check_gradient,
    "targets_match_reference": check_targets,
    "losses_finite": check_losses_finite,
    "gates_sum_to_one": check_gate_sums,
    "angles_in_open_interval": check_angles,
    "reruns_bit_identical": check_repeats,
    "floor_between_zero_and_base_error": check_floor,
    "scaling_only_not_below_floor": check_scaling_floor,
    "every_arm_learns": check_learning,
    "angle_summaries_account_for_records": check_summaries,
    "cli_paramcount_matches_arrays": check_cli,
}


def run_checks(ev: Evidence) -> list[str]:
    return [f"{name}: {p}" for name, fn in CHECKS.items() for p in fn(ev)]


def observed(ev: Evidence) -> dict:
    """The largest errors seen, for the run record."""
    return {
        "forward_max_rel_err": max(
            (rel_err(y, ev.forward_ref[k]) for k, y in ev.forward_lib.items()), default=0.0
        ),
        "gradient_max_rel_err": max((directional_rel_err(i) for i in ev.directional), default=0.0),
        "target_max_rel_err": max(
            (rel_err(y, ev.target_ref[k]) for k, y in ev.target_lib.items()), default=0.0
        ),
        "gate_sum_max_abs_err": max((abs(s - 1.0) for s in ev.gate_sums), default=0.0),
        "fd_max_disagreement": ev.fd_worst,
        "learning_min_gain": min(
            ((init - final) / init for init, final in ev.init_final.values()), default=0.0
        ),
        "floor": ev.floor,
        "w0_error": ev.w0_error,
    }
