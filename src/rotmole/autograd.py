"""Analytic reverse-mode gradients for the adapter forward pass.

backward() differentiates one forward call exactly: through the expert
matrices, the in-plane rotation (including the Gram-Schmidt plane
construction), the angle gate's sigmoid, and the renormalized softmax of the
scaling gate. Top-k selection is a hard, non-differentiable switch: selected
experts get gradients through their softmax values, unselected experts get
exactly zero, and the finite-difference oracle freezes the selection so both
sides differentiate the same function.

Gradients are plain dicts keyed by the group names of
adapter.trainable_params ("a0", "b0", ..., "w_g", "w_theta", "q", "mlp_w1",
"mlp_w2").

backward_batch() differentiates one adapter.forward_batch call and returns
the sum of the per-row backward() dicts, bit for bit; backward() stays as its
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .adapter import (
    AdapterConfig,
    AdapterLayer,
    BatchCache,
    ExpertRows,
    ForwardCache,
    forward,
    init_adapter,
    trainable_params,
)
from .numkit import (
    ConfigError,
    Matrix,
    Rng,
    Vector,
    kaiming_uniform,
    rowwise_dot,
    rowwise_matvec,
    sigmoid,
    sum_rows,
)
from .rotation import build_plane, rotation_matrix_2d

Gradients = Dict[str, np.ndarray]

REL_ERR_FLOOR = 1e-8


def zero_gradients(layer: AdapterLayer) -> Gradients:
    return {name: np.zeros_like(arr) for name, arr in trainable_params(layer).items()}


def backward(layer: AdapterLayer, cache: ForwardCache, dl_dy: Vector) -> Gradients:
    """Chain dl_dy (the loss gradient at the output) back to every trainable array."""
    config = layer.config
    if cache.config != config:
        raise ValueError("backward: cache was produced by a layer with a different config")
    if dl_dy.shape != (config.d,) or cache.x.shape != (config.d,):
        raise ValueError("backward: gradient/input dimension does not match the layer")
    grads = zero_gradients(layer)
    decision = cache.decision
    x = cache.x
    k = len(decision.selected)
    gamma = np.zeros(k)  # dL/dg per selected expert

    for pos, i in enumerate(decision.selected):
        gamma[pos] = float(dl_dy @ cache.deltas[pos])
        g_i = float(decision.g[pos])
        rot = cache.rotated[pos]
        u = cache.us[pos]
        grads[f"b{i}"] += g_i * np.outer(dl_dy, rot)
        rot_bar = g_i * (layer.experts[i].b.T @ dl_dy)
        theta = float(decision.theta[pos])
        theta_bar = 0.0
        if config.mode != "rotmole":
            u_bar = rot_bar
        elif config.r == 2:
            c, s = math.cos(theta), math.sin(theta)
            theta_bar = float(
                rot_bar @ np.array([-s * u[0] - c * u[1], c * u[0] - s * u[1]])
            )
            u_bar = rotation_matrix_2d(theta).T @ rot_bar
        else:
            plane = cache.planes[pos]
            if plane.degenerate:
                u_bar = rot_bar
            else:
                e1, e2 = plane.e1, plane.e2
                norm_u, proj, resid_norm = plane.u_norm, plane.q_dot_e1, plane.resid_norm
                c, s = math.cos(theta), math.sin(theta)
                theta_bar = float(rot_bar @ (-s * u + (c * norm_u) * e2))
                e2_bar = (s * norm_u) * rot_bar
                norm_u_bar = s * float(rot_bar @ e2)
                resid_bar = (e2_bar - float(e2_bar @ e2) * e2) / resid_norm
                q_vec = layer.router.q[i]
                grads["q"][i] += resid_bar - float(resid_bar @ e1) * e1
                e1_bar = -float(resid_bar @ e1) * q_vec - proj * resid_bar
                u_bar = (
                    c * rot_bar
                    + norm_u_bar * e1
                    + (e1_bar - float(e1_bar @ e1) * e1) / norm_u
                )
        grads[f"a{i}"] += np.outer(u_bar, x)
        if config.mode == "rotmole" and theta_bar != 0.0:
            sig = sigmoid(float(cache.theta_logits[pos]))
            t_bar = theta_bar * 2.0 * math.pi * sig * (1.0 - sig)
            grads["w_theta"][:, i] += t_bar * x

    # Scaling gate. The full-softmax denominator cancels under renormalization,
    # so g is exactly a softmax over the selected logits alone: unselected
    # logits get an exact zero, selected ones the restricted-softmax jacobian.
    g = decision.g
    logits_bar = np.zeros(config.n)
    logits_bar[list(decision.selected)] = g * (gamma - float(g @ gamma))
    if config.mode == "mlp_gate":
        grads["mlp_w2"] += np.outer(cache.mlp_hidden, logits_bar)
        hidden_bar = layer.router.mlp_w2 @ logits_bar
        pre_bar = hidden_bar * (cache.mlp_pre > 0.0)
        grads["mlp_w1"] += np.outer(x, pre_bar)
    else:
        grads["w_g"] += np.outer(x, logits_bar)
    return grads


def backward_batch(layer: AdapterLayer, cache: BatchCache, dl_dy: Matrix) -> Gradients:
    """Sum over rows of `backward(layer, cache_j, dl_dy[j])`, bit for bit.

    Each expert's rows are differentiated as one stack, and every gradient
    array is one reduction over its terms in sample order, which is the order
    in which summing the per-row dicts adds them.
    """
    config = layer.config
    if cache.config != config:
        raise ValueError("backward_batch: cache was produced by a layer with a different config")
    if dl_dy.shape != cache.xs.shape:
        raise ValueError("backward_batch: gradient shape does not match the batch")
    grads = zero_gradients(layer)
    xs = cache.xs
    gamma = np.zeros(cache.selected.shape)  # dL/dg per row and selected expert
    for group in cache.groups:
        i, rows, pos = group.expert, group.rows, group.pos
        dy, x = dl_dy[rows], xs[rows]
        gamma[rows, pos] = rowwise_dot(dy, cache.deltas[rows, pos])
        g = cache.g[rows, pos]
        grads[f"b{i}"] += sum_rows(g[:, None, None] * (dy[:, :, None] * group.rotated[:, None, :]))
        rot_bar = g[:, None] * rowwise_matvec(layer.experts[i].b.T, dy)
        if config.mode != "rotmole":
            u_bar = rot_bar
        else:
            if config.r == 2:
                c, s, u = group.cos, group.sin, group.us
                turn = np.stack([-s * u[:, 0] - c * u[:, 1], c * u[:, 0] - s * u[:, 1]], axis=1)
                theta_bar = rowwise_dot(rot_bar, turn)
                u_bar = np.matmul(group.rotations.transpose(0, 2, 1), rot_bar[:, :, None])[:, :, 0]
            else:
                u_bar, theta_bar = _plane_backward(layer, group, rot_bar, grads)
            # Rows that backward() skips (theta_bar = 0) add exact zeros here.
            sig = cache.theta_sig[rows, pos]
            t_bar = theta_bar * 2.0 * math.pi * sig * (1.0 - sig)
            grads["w_theta"][:, i] += sum_rows(t_bar[:, None] * x)
        grads[f"a{i}"] += sum_rows(u_bar[:, :, None] * x[:, None, :])

    g = cache.g
    logits_bar = np.zeros((xs.shape[0], config.n))
    np.put_along_axis(
        logits_bar, cache.selected, g * (gamma - rowwise_dot(g, gamma)[:, None]), axis=1
    )
    # The gate-weight gradients are summed one column at a time, which keeps
    # the stack of terms at (rows, d). A w_g column takes only its expert's
    # rows: the other rows' terms are exact zeros, which leave the sum as is.
    if config.mode == "mlp_gate":
        grads["mlp_w2"] += sum_rows(cache.mlp_hidden[:, :, None] * logits_bar[:, None, :])
        hidden_bar = rowwise_matvec(layer.router.mlp_w2, logits_bar)
        pre_bar = hidden_bar * (cache.mlp_pre > 0.0)
        for j in range(pre_bar.shape[1]):
            grads["mlp_w1"][:, j] += sum_rows(xs * pre_bar[:, j : j + 1])
    else:
        for group in cache.groups:
            i, rows = group.expert, group.rows
            grads["w_g"][:, i] += sum_rows(xs[rows] * logits_bar[rows, i : i + 1])
    return grads


def _plane_backward(
    layer: AdapterLayer, group: ExpertRows, rot_bar: Matrix, grads: Gradients
) -> tuple[Matrix, Vector]:
    """Row-wise form of backward()'s path through the in-plane rotation and
    the Gram-Schmidt plane, for one expert's rows. Adds the anchor gradient
    into grads["q"]; returns dL/du and dL/dtheta per row. Degenerate rows
    rotate as the identity, so they pass rot_bar through and get no angle or
    anchor gradient."""
    u_bar = rot_bar.copy()
    theta_bar = np.zeros(rot_bar.shape[0])
    live = ~group.planes.degenerate
    if not live.any():
        return u_bar, theta_bar
    planes = group.planes
    e1, e2 = planes.e1[live], planes.e2[live]
    norm_u, proj = planes.u_norm[live, None], planes.q_dot_e1[live, None]
    resid_norm = planes.resid_norm[live, None]
    c, s = group.cos[live, None], group.sin[live, None]
    u, r_bar = group.us[live], rot_bar[live]
    q_vec = layer.router.q[group.expert]
    theta_bar[live] = rowwise_dot(r_bar, -s * u + (c * norm_u) * e2)
    e2_bar = (s * norm_u) * r_bar
    norm_u_bar = s * rowwise_dot(r_bar, e2)[:, None]
    resid_bar = (e2_bar - rowwise_dot(e2_bar, e2)[:, None] * e2) / resid_norm
    resid_e1 = rowwise_dot(resid_bar, e1)[:, None]
    grads["q"][group.expert] += sum_rows(resid_bar - resid_e1 * e1)
    e1_bar = -resid_e1 * q_vec - proj * resid_bar
    u_bar[live] = c * r_bar + norm_u_bar * e1 + (e1_bar - rowwise_dot(e1_bar, e1)[:, None] * e1) / norm_u
    return u_bar, theta_bar


def finite_diff_grad(
    loss_fn: Callable[[AdapterLayer], float], layer: AdapterLayer, h: float
) -> Gradients:
    """Central differences of loss_fn over every trainable scalar of the layer.

    Parameters are perturbed in place one at a time and restored, so loss_fn
    must be a pure function of the layer's current parameter values.
    """
    if h <= 0.0:
        raise ConfigError(f"finite_diff_grad: h must be positive, got {h}")
    grads: Gradients = {}
    for name, arr in trainable_params(layer).items():
        out = np.zeros_like(arr)
        flat, out_flat = arr.reshape(-1), out.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = loss_fn(layer)
            flat[j] = orig - h
            f_minus = loss_fn(layer)
            flat[j] = orig
            out_flat[j] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = out
    return grads


@dataclass(frozen=True)
class GroupReport:
    name: str
    max_rel_err: float
    n_params: int


@dataclass(frozen=True)
class CheckReport:
    groups: tuple[GroupReport, ...]
    passed: bool

    def to_doc(self) -> dict:
        return {
            "groups": [
                {"name": g.name, "max_rel_err": g.max_rel_err, "n_params": g.n_params}
                for g in self.groups
            ],
            "pass": self.passed,
        }


def near_degenerate(layer: AdapterLayer, x: Vector, margin: float = 10.0) -> bool:
    """True when a selected expert's rotation plane sits within `margin` times
    the degeneracy threshold: the hard identity switch makes gradients there
    meaningless, so checking inputs are resampled."""
    config = layer.config
    if config.mode != "rotmole" or config.r == 2:
        return False
    _, cache = forward(layer, x)
    limit = margin * config.eps_degenerate
    return any(
        build_plane(u, layer.router.q[i], limit).degenerate
        for u, i in zip(cache.us, cache.decision.selected)
    )


def grad_check(
    layer: AdapterLayer,
    x: Vector,
    target: Vector,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> CheckReport:
    """Compare backward() against central differences of a squared-error loss.

    Relative error per scalar is |a - b| / max(|a|, |b|, 1e-8); a group passes
    when its max stays below tol. The finite-difference side evaluates with the
    expert selection frozen to the unperturbed forward's choice.
    """
    d = layer.config.d
    y, cache = forward(layer, x)
    dl_dy = 2.0 * (y - target) / d
    analytic = backward(layer, cache, dl_dy)
    selected = cache.decision.selected

    def loss_fn(lay: AdapterLayer) -> float:
        y_pert, _ = forward(lay, x, force_selected=selected)
        return float(np.mean((y_pert - target) ** 2))

    numeric = finite_diff_grad(loss_fn, layer, h)
    groups = []
    passed = True
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
        max_rel = float(np.max(np.abs(a - b) / denom))
        groups.append(GroupReport(name, max_rel, a.size))
        passed = passed and max_rel < tol
    return CheckReport(tuple(groups), passed)


def randomize_layer(layer: AdapterLayer, rng: Rng) -> None:
    """Overwrite every trainable array with Kaiming-uniform draws.

    At the standard initialization B and the rotation gate are zero, which
    zeroes out most gradients; checks need a generic point.
    """
    config = layer.config
    for expert in layer.experts:
        expert.a[...] = kaiming_uniform(config.r, config.d, rng)
        expert.b[...] = kaiming_uniform(config.d, config.r, rng)
    router = layer.router
    if router.w_g is not None:
        router.w_g[...] = kaiming_uniform(config.n, config.d, rng).T
    if router.w_theta is not None:
        router.w_theta[...] = kaiming_uniform(config.n, config.d, rng).T
    if router.q is not None:
        router.q[...] = kaiming_uniform(config.n, config.r, rng)
    if router.mlp_w1 is not None:
        router.mlp_w1[...] = kaiming_uniform(config.mlp_hidden, config.d, rng).T
        router.mlp_w2[...] = kaiming_uniform(config.n, config.mlp_hidden, rng).T


def gradcheck_trials(
    config: AdapterConfig,
    trials: int,
    seed: int,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> list[CheckReport]:
    """Run grad_check on `trials` randomized layers and inputs."""
    rng = Rng(seed)
    reports = []
    for _ in range(trials):
        layer = init_adapter(config, rng)
        randomize_layer(layer, rng)
        x = rng.normals(config.d)
        while near_degenerate(layer, x):
            x = rng.normals(config.d)
        target = rng.normals(config.d)
        reports.append(grad_check(layer, x, target, h=h, tol=tol))
    return reports
