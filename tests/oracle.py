"""Per-sample oracles of the batched paths, and the tests' bit comparison.

`backward`, the oracle of `autograd.backward_batch`, differentiates one
`adapter.forward` call one selected expert at a time: through the expert
matrices, the in-plane rotation (including the Gram-Schmidt plane
construction), the angle gate's sigmoid and the renormalized softmax of the
scaling gate. It takes only the input and the routing decision from the
`ForwardCache` and recomputes every other intermediate (`expert_terms`, the
angle-gate logit, the MLP gate's pre-activation) with `@` and the
per-sample rotation functions. It shares no code with `backward_batch`, so
`tests/test_batched.py` checks the batched reverse pass against an
independent computation, bit for bit, and not against itself. The package's
own `rotmole.backward` is a one-row `backward_batch`.

`target_output` is the per-sample target formula, the oracle of
`synth.target_outputs`, which the package's own `target_output` runs on one
row.
"""

from __future__ import annotations

import math

import numpy as np

from rotmole.adapter import AdapterLayer, ForwardCache
from rotmole.autograd import Gradients, zero_gradients
from rotmole.numkit import Vector, sigmoid
from rotmole.rotation import RotationPlane, apply_rotation, build_plane, rotation_matrix_2d
from rotmole.synth import TaskSpec


def same_bits(a, b) -> bool:
    """True when two float64 arrays have the same shape and bit patterns."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def expert_terms(
    layer: AdapterLayer, x: Vector, i: int, theta: float
) -> tuple[Vector, RotationPlane | None, Vector, Vector]:
    """Expert i's u = A_i x, its plane (None unless rotmole with r > 2), the
    vector rotated by theta and the delta B_i (rotated), as `forward` adds it."""
    config = layer.config
    expert = layer.experts[i]
    u = expert.a @ x
    plane = None
    if config.mode != "rotmole":
        rot = u
    elif config.r == 2:
        rot = rotation_matrix_2d(theta) @ u
    else:
        plane = build_plane(u, layer.router.q[i])
        rot = apply_rotation(u, plane, theta)
    return u, plane, rot, expert.b @ rot


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
        theta = float(decision.theta[pos])
        u, plane, rot, delta = expert_terms(layer, x, i, theta)
        gamma[pos] = float(dl_dy @ delta)
        g_i = float(decision.g[pos])
        grads[f"b{i}"] += g_i * np.outer(dl_dy, rot)
        rot_bar = g_i * (layer.experts[i].b.T @ dl_dy)
        theta_bar = 0.0
        if config.mode != "rotmole":
            u_bar = rot_bar
        elif config.r == 2:
            c, s = math.cos(theta), math.sin(theta)
            theta_bar = float(
                rot_bar @ np.array([-s * u[0] - c * u[1], c * u[0] - s * u[1]])
            )
            u_bar = rotation_matrix_2d(theta).T @ rot_bar
        elif plane.degenerate:
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
            sig = sigmoid(float(x @ layer.router.w_theta[:, i]))
            t_bar = theta_bar * 2.0 * math.pi * sig * (1.0 - sig)
            grads["w_theta"][:, i] += t_bar * x

    # Scaling gate. The full-softmax denominator cancels under renormalization,
    # so g is exactly a softmax over the selected logits alone: unselected
    # logits get an exact zero, selected ones the restricted-softmax jacobian.
    g = decision.g
    logits_bar = np.zeros(config.n)
    logits_bar[list(decision.selected)] = g * (gamma - float(g @ gamma))
    if config.mode == "mlp_gate":
        mlp_pre = x @ layer.router.mlp_w1
        grads["mlp_w2"] += np.outer(np.maximum(mlp_pre, 0.0), logits_bar)
        hidden_bar = layer.router.mlp_w2 @ logits_bar
        pre_bar = hidden_bar * (mlp_pre > 0.0)
        grads["mlp_w1"] += np.outer(x, pre_bar)
    else:
        grads["w_g"] += np.outer(x, logits_bar)
    return grads


def target_output(spec: TaskSpec, x: Vector) -> Vector:
    """Noiseless target of x for task `spec`: W0* x + B* R(phi) A* x, R
    turning in the plane of (A* x, q*), one vector at a time."""
    u = spec.a_star @ x
    turned = apply_rotation(u, build_plane(u, spec.q_star), spec.phi)
    return spec.w0_star @ x + spec.b_star @ turned
