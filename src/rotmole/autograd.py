"""Analytic reverse-mode gradients for the adapter forward pass.

backward_batch() differentiates one adapter.forward_batch call exactly:
through the expert matrices, the in-plane rotation (including the
Gram-Schmidt plane construction), the angle gate's sigmoid, and the
renormalized softmax of the scaling gate. Top-k selection is a hard,
non-differentiable switch: selected experts get gradients through their
softmax values, unselected experts get exactly zero, and the
finite-difference oracle freezes the selection so both sides differentiate
the same function. It reads the batch's (row, expert) pairs sorted by expert
(adapter.ExpertRows): the angle gate and the plane backward run once over all
pairs, and a loop over experts keeps only the d-sized products and one
row-order sum per gradient array on each expert's slice.

Gradients are plain dicts keyed by the group names of
adapter.trainable_params ("a0", "b0", ..., "w_g", "w_theta", "q", "mlp_w1",
"mlp_w2").

backward() is a one-row backward_batch, so there is one reverse pass, the
one `train` runs, and grad_check(), which certifies backward() against
central differences, certifies the training path; its verdict,
compare_gradients(), allows for the rounding of the central difference. The
per-sample chain rule, the oracle of backward_batch, is in tests/oracle.py.
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
    draw_param,
    forward,
    forward_batch,
    init_adapter,
    trainable_params,
)
from .numkit import ConfigError, Matrix, Rng, Vector, rowwise_dot, rowwise_matvec, sum_rows

# sigmoid and rotation_matrix_2d are unused here. They stay importable because
# benchmarks/spans.py patches them on this module to time them.
from .numkit import sigmoid  # noqa: F401
from .rotation import DEGENERATE_EPS, rotation_matrix_2d  # noqa: F401

Gradients = Dict[str, np.ndarray]

REL_ERR_FLOOR = 1e-8  # denominator floor of the reported relative error
GRADCHECK_H = 1e-5  # central-difference step of grad_check
GRADCHECK_TOL = 1e-4  # grad_check's default relative tolerance


def zero_gradients(layer: AdapterLayer) -> Gradients:
    return {name: np.zeros_like(arr) for name, arr in trainable_params(layer).items()}


def backward(layer: AdapterLayer, cache: ForwardCache, dl_dy: Vector) -> Gradients:
    """Chain dl_dy (the loss gradient at the output) back to every trainable
    array, as `backward_batch` on the one-row batch of `cache.x`. A cache
    pinned by `force_selected` to a selection other than the layer's top-k
    is refused: the one-row batch would differentiate the top-k instead."""
    config = layer.config
    if cache.config != config:
        raise ValueError("backward: cache was produced by a layer with a different config")
    if dl_dy.shape != (config.d,) or cache.x.shape != (config.d,):
        raise ValueError("backward: gradient/input dimension does not match the layer")
    _, batch = forward_batch(layer, cache.x[None, :])
    if tuple(batch.selected[0].tolist()) != tuple(cache.decision.selected):
        raise ValueError(
            "backward: cache selection differs from the layer's top-k "
            "(pinned by force_selected to another expert set)"
        )
    return backward_batch(layer, batch, dl_dy[None, :])


def backward_batch(layer: AdapterLayer, cache: BatchCache, dl_dy: Matrix) -> Gradients:
    """Gradients of a batch: the sum over rows j of each row's gradients
    under dl_dy[j], bit for bit as summing the per-sample chain rule's dicts.

    Works on the expert-sorted pairs of `cache.pairs`. The angle gate and
    the plane backward run once over all pairs; a loop over experts does the
    d-sized products B_i^T dy and adds each gradient array up with one
    reduction over the expert's slice, in sample order, which is the order in
    which summing the per-row dicts adds the terms.
    """
    config = layer.config
    if cache.config != config:
        raise ValueError("backward_batch: cache was produced by a layer with a different config")
    if dl_dy.shape != cache.xs.shape:
        raise ValueError("backward_batch: gradient shape does not match the batch")
    grads = zero_gradients(layer)
    pairs = cache.pairs
    rows, order = pairs.rows, pairs.order
    # Each expert's rows of dy, x and the deltas are gathered inside the
    # loops, so no copy of the whole batch per pair is ever held.
    deltas = cache.deltas.reshape(-1, config.d)
    gamma = np.empty(cache.selected.shape)  # dL/dg per row and selected expert
    rot_bar = np.empty(pairs.us.shape)
    for i, span in pairs.spans:
        dy = dl_dy.take(rows[span], axis=0)
        gamma.put(order[span], rowwise_dot(dy, deltas.take(order[span], axis=0)))
        rot_bar[span] = rowwise_matvec(layer.experts[i].b.T, dy)
    logits_bar = cache.g * (gamma - rowwise_dot(cache.g, gamma)[:, None])  # (B, k)
    g = cache.g.take(order)
    rot_bar *= g[:, None]
    t_bar = q_bar = None
    if config.mode != "rotmole":
        u_bar = rot_bar
    else:
        if config.r == 2:
            c, s, u = pairs.cos, pairs.sin, pairs.us
            turn = np.stack([-s * u[:, 0] - c * u[:, 1], c * u[:, 0] - s * u[:, 1]], axis=1)
            theta_bar = rowwise_dot(rot_bar, turn)
            u_bar = np.matmul(pairs.rotations.transpose(0, 2, 1), rot_bar[:, :, None])[:, :, 0]
        else:
            qs = layer.router.q.take(pairs.experts, axis=0)
            u_bar, theta_bar, q_bar = _plane_backward(pairs, qs, rot_bar)
        # Pairs the per-sample chain rule skips (theta_bar = 0) add exact zeros.
        t_bar = theta_bar * 2.0 * math.pi * pairs.sig * (1.0 - pairs.sig)

    pair_logits_bar = logits_bar.take(order)
    for i, span in pairs.spans:
        dy, x = dl_dy.take(rows[span], axis=0), cache.xs.take(rows[span], axis=0)
        # (rows, r, d), not (rows, d, r): the same products, summed in the
        # same order, with a long inner axis.
        b_terms = g[span, None, None] * (pairs.rotated[span, :, None] * dy[:, None, :])
        grads[f"b{i}"] += sum_rows(b_terms).T
        grads[f"a{i}"] += sum_rows(u_bar[span, :, None] * x[:, None, :])
        if t_bar is not None:
            grads["w_theta"][:, i] += sum_rows(t_bar[span, None] * x)
        if q_bar is not None:
            grads["q"][i] += sum_rows(q_bar[span])
        if config.mode != "mlp_gate":
            # A w_g column takes only its expert's rows: the other rows'
            # terms are exact zeros, which leave the sum as is.
            grads["w_g"][:, i] += sum_rows(x * pair_logits_bar[span, None])

    if config.mode == "mlp_gate":
        # mlp_w1 is summed one column at a time, which keeps the stack of
        # terms at (rows, d).
        full_bar = np.zeros((cache.xs.shape[0], config.n))
        np.put_along_axis(full_bar, cache.selected, logits_bar, axis=1)
        grads["mlp_w2"] += sum_rows(cache.mlp_hidden[:, :, None] * full_bar[:, None, :])
        hidden_bar = rowwise_matvec(layer.router.mlp_w2, full_bar)
        pre_bar = hidden_bar * (cache.mlp_pre > 0.0)
        for j in range(pre_bar.shape[1]):
            grads["mlp_w1"][:, j] += sum_rows(cache.xs * pre_bar[:, j : j + 1])
    return grads


def _plane_backward(
    pairs: ExpertRows, qs: Matrix, rot_bar: Matrix
) -> tuple[Matrix, Vector, Matrix]:
    """Row-wise form of the per-sample path through the in-plane rotation and
    the Gram-Schmidt plane, over all pairs; `qs` holds each pair's anchor.
    Returns dL/du, dL/dtheta and the anchor gradient term per pair.
    Degenerate pairs rotate as the identity, so they pass rot_bar through and
    get exact zeros as angle and anchor terms."""
    u_bar = rot_bar.copy()
    theta_bar = np.zeros(rot_bar.shape[0])
    q_bar = np.zeros(rot_bar.shape)
    live = ~pairs.planes.degenerate
    planes = pairs.planes
    e1, e2 = planes.e1[live], planes.e2[live]
    norm_u, proj = planes.u_norm[live, None], planes.q_dot_e1[live, None]
    resid_norm = planes.resid_norm[live, None]
    c, s = pairs.cos[live, None], pairs.sin[live, None]
    u, r_bar = pairs.us[live], rot_bar[live]
    theta_bar[live] = rowwise_dot(r_bar, -s * u + (c * norm_u) * e2)
    e2_bar = (s * norm_u) * r_bar
    norm_u_bar = s * rowwise_dot(r_bar, e2)[:, None]
    resid_bar = (e2_bar - rowwise_dot(e2_bar, e2)[:, None] * e2) / resid_norm
    resid_e1 = rowwise_dot(resid_bar, e1)[:, None]
    q_bar[live] = resid_bar - resid_e1 * e1
    e1_bar = -resid_e1 * qs[live] - proj * resid_bar
    u_bar[live] = c * r_bar + norm_u_bar * e1 + (e1_bar - rowwise_dot(e1_bar, e1)[:, None] * e1) / norm_u
    return u_bar, theta_bar, q_bar


def finite_diff_grad(
    loss_fn: Callable[[AdapterLayer], float], layer: AdapterLayer, h: float
) -> Gradients:
    """Central differences of loss_fn over every trainable scalar of the layer.

    Parameters are perturbed in place one at a time and restored, so loss_fn
    must be a pure function of the layer's current parameter values. An
    array that is not C-contiguous, whose flat view is a copy the layer never
    sees, raises ValueError before loss_fn runs.
    """
    if h <= 0.0:
        raise ConfigError(f"finite_diff_grad: h must be positive, got {h}")
    params = trainable_params(layer)
    for name, arr in params.items():
        if not arr.flags.c_contiguous:
            raise ValueError(f"finite_diff_grad: '{name}' is not C-contiguous")
    grads: Gradients = {}
    two_h = 2.0 * h
    for name, arr in params.items():
        flat = arr.reshape(-1)
        diffs = []
        for j, orig in enumerate(flat.tolist()):
            flat[j] = orig + h
            f_plus = loss_fn(layer)
            flat[j] = orig - h
            f_minus = loss_fn(layer)
            flat[j] = orig
            diffs.append((f_plus - f_minus) / two_h)
        grads[name] = np.array(diffs, dtype=np.float64).reshape(arr.shape)
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


def near_degenerate(layer: AdapterLayer, x: Vector) -> bool:
    """True when a selected expert's rotation plane has |u| or an anchor
    residual within 10 times the degeneracy threshold, limit included: the
    hard identity switch makes gradients there meaningless, so checking
    inputs are resampled. The planes are those of the one-row
    `forward_batch`, which `backward` differentiates; a degenerate one is
    within the limit too."""
    config = layer.config
    if config.mode != "rotmole" or config.r == 2:
        return False
    planes = forward_batch(layer, x[None, :])[1].pairs.planes
    limit = 10.0 * DEGENERATE_EPS
    return bool(np.any((planes.u_norm <= limit) | (planes.resid_norm <= limit)))


def grad_check(
    layer: AdapterLayer,
    x: Vector,
    target: Vector,
    h: float = GRADCHECK_H,
    tol: float = GRADCHECK_TOL,
) -> CheckReport:
    """Compare backward(), a one-row backward_batch, against central
    differences of a squared-error loss.

    The finite-difference side evaluates with the expert selection frozen to
    the unperturbed forward's choice; `compare_gradients` gives the verdict.
    """
    d = layer.config.d
    y, cache = forward(layer, x)
    dl_dy = 2.0 * (y - target) / d
    analytic = backward(layer, cache, dl_dy)
    selected = cache.decision.selected

    def loss_fn(lay: AdapterLayer) -> float:
        # np.mean's own reduction and division, without its wrappers
        diff = forward(lay, x, force_selected=selected)[0] - target
        return float((diff * diff).sum() / d)

    numeric = finite_diff_grad(loss_fn, layer, h)
    return compare_gradients(analytic, numeric, loss_fn(layer), d, h, tol)


def compare_gradients(
    analytic: Gradients, numeric: Gradients, loss: float, d: int, h: float, tol: float
) -> CheckReport:
    """Verdict on analytic gradients against central differences of a d-term
    mean loss taken with step h.

    An entry passes when |a - b| <= tol * (max(|a|, |b|) + atol / GRADCHECK_TOL),
    where atol = 2 d eps max(loss, 1) / h bounds the rounding the central
    difference picks up. At the default tolerance this is
    tol * max(|a|, |b|) + atol, the bound of the benchmark's own gradient
    check; without the rounding term, entries near zero fail on rounding
    alone. The term scales with tol, so a zero tolerance still asks for exact
    agreement. Each group reports its largest relative error
    |a - b| / max(|a|, |b|, REL_ERR_FLOOR).
    """
    atol = 2.0 * d * np.finfo(float).eps * max(loss, 1.0) / h
    groups = []
    passed = True
    for name in analytic:
        a, b = analytic[name], numeric[name]
        largest = np.maximum(np.abs(a), np.abs(b))
        err = np.abs(a - b)
        max_rel = float(np.max(err / np.maximum(largest, REL_ERR_FLOOR)))
        groups.append(GroupReport(name, max_rel, a.size))
        passed = passed and bool(np.all(err <= tol * (largest + atol / GRADCHECK_TOL)))
    return CheckReport(tuple(groups), passed)


def randomize_layer(layer: AdapterLayer, rng: Rng) -> None:
    """Overwrite every trainable array, in `trainable_params` order, with its
    Kaiming-uniform draw (`adapter.draw_param`).

    At the standard initialization B and the rotation gate are zero, which
    zeroes out most gradients; checks need a generic point.
    """
    for name, arr in trainable_params(layer).items():
        arr[...] = draw_param(name, arr.shape, rng)


def gradcheck_trials(
    config: AdapterConfig,
    trials: int,
    seed: int,
    h: float = GRADCHECK_H,
    tol: float = GRADCHECK_TOL,
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
