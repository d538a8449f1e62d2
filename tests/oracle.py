"""The per-sample chain rule, kept as the oracle of `autograd.backward_batch`.

`backward` differentiates one `adapter.forward` call from its `ForwardCache`,
one selected expert at a time: through the expert matrices, the in-plane
rotation (including the Gram-Schmidt plane construction), the angle gate's
sigmoid and the renormalized softmax of the scaling gate. It shares no code
with `backward_batch`, so `tests/test_batched.py` checks the batched reverse
pass against an independent computation, bit for bit, and not against
itself. The package's own `rotmole.backward` is a one-row `backward_batch`.
"""

from __future__ import annotations

import math

import numpy as np

from rotmole.adapter import AdapterLayer, ForwardCache
from rotmole.autograd import Gradients, zero_gradients
from rotmole.numkit import Vector, sigmoid
from rotmole.rotation import rotation_matrix_2d


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
