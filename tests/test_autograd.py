import math

import numpy as np
import pytest

from rotmole import autograd
from rotmole.adapter import (
    AdapterConfig,
    forward,
    forward_batch,
    init_adapter,
    mlp_variant,
    route,
    trainable_params,
)
from rotmole.autograd import (
    GRADCHECK_H,
    GRADCHECK_TOL,
    backward,
    backward_batch,
    compare_gradients,
    finite_diff_grad,
    grad_check,
    gradcheck_trials,
    near_degenerate,
    randomize_layer,
    zero_gradients,
)
from rotmole.numkit import ConfigError, Rng, l2_norm
from rotmole.rotation import DEGENERATE_EPS, build_plane

from oracle import expert_terms


def make_layer(mode="rotmole", d=6, r=3, n=3, k=2, seed=7, randomize=True):
    config = AdapterConfig(
        d=d, r=r, n=n, k=k, mode=mode, mlp_hidden=4 if mode == "mlp_gate" else None
    )
    rng = Rng(seed)
    layer = init_adapter(config, rng)
    if randomize:
        randomize_layer(layer, rng)
    return layer, rng


def test_backward_zero_b_gates_get_no_gradient():
    # with B = 0 the adapter delta is identically zero, so the gates cannot
    # affect the loss yet; B itself still gets gradient
    layer, rng = make_layer(randomize=False)
    x, dl = rng.normals(6), rng.normals(6)
    _, cache = forward(layer, x)
    grads = backward(layer, cache, dl)
    assert np.all(grads["w_g"] == 0.0)
    assert np.all(grads["w_theta"] == 0.0)
    assert np.all(grads["q"] == 0.0)
    assert any(np.any(grads[f"b{i}"] != 0.0) for i in range(3))


def test_backward_rejects_mismatched_cache():
    layer, rng = make_layer()
    other, _ = make_layer(d=8, n=2, k=1, seed=3)
    _, cache = forward(layer, rng.normals(6))
    with pytest.raises(ValueError, match="different config"):
        backward(other, cache, np.zeros(8))


def test_backward_rejects_gradient_of_wrong_shape():
    layer, rng = make_layer()
    _, cache = forward(layer, rng.normals(6))
    with pytest.raises(ValueError, match="gradient/input dimension"):
        backward(layer, cache, np.zeros(5))


@pytest.mark.parametrize("mode, r", [("rotmole", 3), ("rotmole", 2), ("scaling_only", 3),
                                     ("mlp_gate", 3)])
def test_backward_refuses_a_cache_pinned_to_another_expert_set(mode, r):
    # backward differentiates the one-row batch of cache.x, which takes the
    # layer's own top-k; a cache pinned to another set would get its gradient.
    layer, rng = make_layer(mode=mode, r=r, n=4, k=2)
    x, dl = rng.normals(6), rng.normals(6)
    _, cache = forward(layer, x)
    top_k = cache.decision.selected
    other = tuple(i for i in range(4) if i not in top_k)
    _, pinned = forward(layer, x, force_selected=other)
    with pytest.raises(ValueError, match="differs from the layer's top-k"):
        backward(layer, pinned, dl)
    _, pinned = forward(layer, x, force_selected=top_k)
    grads, pinned_grads = backward(layer, cache, dl), backward(layer, pinned, dl)
    for name in grads:
        assert np.array_equal(grads[name].view(np.uint64), pinned_grads[name].view(np.uint64))


def test_backward_batch_rejects_mismatched_cache_or_gradient():
    layer, rng = make_layer()
    other, _ = make_layer(d=8, n=2, k=1, seed=3)
    _, cache = forward_batch(layer, rng.normals(5 * 6).reshape(5, 6))
    with pytest.raises(ValueError, match="different config"):
        backward_batch(other, cache, np.zeros((5, 8)))
    for dl_dy in (np.zeros((4, 6)), np.zeros(30)):
        with pytest.raises(ValueError, match="gradient shape does not match"):
            backward_batch(layer, cache, dl_dy)


def test_backward_unselected_experts_get_exact_zero():
    layer, rng = make_layer()
    x, dl = rng.normals(6), rng.normals(6)
    _, cache = forward(layer, x)
    grads = backward(layer, cache, dl)
    for i in range(3):
        if i not in cache.decision.selected:
            assert np.all(grads[f"a{i}"] == 0.0)
            assert np.all(grads[f"b{i}"] == 0.0)
            assert np.all(grads["w_g"][:, i] == 0.0)
            assert np.all(grads["w_theta"][:, i] == 0.0)
            assert np.all(grads["q"][i] == 0.0)


def test_backward_linearity():
    layer, rng = make_layer()
    x = rng.normals(6)
    _, cache = forward(layer, x)
    v1, v2 = rng.normals(6), rng.normals(6)
    a, b = 1.7, -0.3
    combined = backward(layer, cache, a * v1 + b * v2)
    parts = backward(layer, cache, v1), backward(layer, cache, v2)
    for name in combined:
        expected = a * parts[0][name] + b * parts[1][name]
        assert np.abs(combined[name] - expected).max() < 1e-10


def test_gate_gradient_sums_to_zero_over_selected():
    # g sums to one, so moving any single selected logit cannot change the sum:
    # the per-column gate gradients must cancel against each other
    layer, rng = make_layer(n=4, k=3)
    x = rng.normals(6)
    y, cache = forward(layer, x)
    # dL/dg_i alone: recover from logit gradients by dividing out softmax slope
    # instead, check sum_i d(sum g)/d(logit_j) = 0 via the identity that each
    # logit column of w_g receives x * l_bar_j; sum over selected of l_bar is 0
    grads = backward(layer, cache, rng.normals(6))
    col_coeffs = []
    nonzero = np.abs(x) > 1e-12
    for i in cache.decision.selected:
        ratio = grads["w_g"][nonzero, i] / x[nonzero]
        col_coeffs.append(ratio[0])
        assert np.abs(ratio - ratio[0]).max() < 1e-10  # rank-one structure
    assert abs(sum(col_coeffs)) < 1e-10


def test_finite_diff_quadratic_exact():
    layer, _ = make_layer(randomize=False)
    layer.router.w_g[0, 0] = 3.0

    def loss_fn(lay):
        return float(lay.router.w_g[0, 0]) ** 2

    grads = finite_diff_grad(loss_fn, layer, 1e-5)
    assert abs(grads["w_g"][0, 0] - 6.0) < 1e-9


def test_finite_diff_constant_loss_zero():
    layer, _ = make_layer()
    grads = finite_diff_grad(lambda lay: 42.0, layer, 1e-5)
    for arr in grads.values():
        assert np.all(arr == 0.0)


def test_finite_diff_rejects_bad_step():
    layer, _ = make_layer()
    with pytest.raises(ConfigError):
        finite_diff_grad(lambda lay: 0.0, layer, 0.0)


def test_finite_diff_restores_parameters():
    layer, rng = make_layer()
    before = {k: v.copy() for k, v in trainable_params(layer).items()}
    x, target = rng.normals(6), rng.normals(6)

    def loss_fn(lay):
        y, _ = forward(lay, x)
        return float(np.mean((y - target) ** 2))

    finite_diff_grad(loss_fn, layer, 1e-5)
    for k, v in trainable_params(layer).items():
        assert np.array_equal(v, before[k])


def test_finite_diff_refuses_an_array_that_is_not_c_contiguous():
    # Its flat view is a copy, so perturbing it would leave the layer as is
    # and read an exactly-zero gradient.
    layer, _ = make_layer()
    layer.router.w_g = np.asfortranarray(layer.router.w_g)
    calls = []
    with pytest.raises(ValueError, match="'w_g' is not C-contiguous"):
        finite_diff_grad(lambda lay: calls.append(lay) or 0.0, layer, 1e-5)
    assert calls == []


def test_grad_check_passes_all_modes():
    for mode in ("rotmole", "scaling_only", "mlp_gate"):
        layer, rng = make_layer(mode)
        report = grad_check(layer, rng.normals(6), rng.normals(6))
        assert report.passed, report.to_doc()


def test_grad_check_zero_tolerance_fails():
    layer, rng = make_layer()
    report = grad_check(layer, rng.normals(6), rng.normals(6), tol=0.0)
    assert not report.passed
    assert max(g.max_rel_err for g in report.groups) > 0.0


def test_grad_check_passes_correct_gradient_near_zero():
    # An entry of b2 sits near zero, where the central difference's rounding
    # gives it a relative error of 4.8e-3: only the rounding term passes it.
    config = AdapterConfig(d=32, r=4, n=4, k=2, mode="scaling_only")
    (report,) = gradcheck_trials(config, 1, seed=6)
    assert report.passed, report.to_doc()
    assert max(g.max_rel_err for g in report.groups) > GRADCHECK_TOL


def trial_gradients(config, seed):
    """Analytic and central-difference gradients, and the loss, of one
    grad_check trial at a generic point; then the layer, and the forward
    cache and output gradient that `backward` took."""
    rng = Rng(seed)
    layer = init_adapter(config, rng)
    randomize_layer(layer, rng)
    x, target = rng.normals(config.d), rng.normals(config.d)
    assert not near_degenerate(layer, x)
    y, cache = forward(layer, x)
    dl_dy = 2.0 * (y - target) / config.d
    analytic = backward(layer, cache, dl_dy)

    def loss_fn(lay):
        y_pert, _ = forward(lay, x, force_selected=cache.decision.selected)
        return float(np.mean((y_pert - target) ** 2))

    numeric = finite_diff_grad(loss_fn, layer, GRADCHECK_H)
    return analytic, numeric, float(np.mean((y - target) ** 2)), layer, cache, dl_dy


SWEEP_ARMS = [("rotmole", 4), ("rotmole", 2), ("scaling_only", 4), ("mlp_gate", 4)]


def sweep_config(mode, r):
    """The d=32, n=4, k=2 layer of one arm; mlp_gate is sized to match rotmole."""
    config = AdapterConfig(d=32, r=r, n=4, k=2, mode="rotmole" if mode == "mlp_gate" else mode)
    return mlp_variant(config) if mode == "mlp_gate" else config


@pytest.mark.parametrize("mode, r", SWEEP_ARMS)
def test_grad_check_fails_planted_bugs(mode, r):
    config = sweep_config(mode, r)
    analytic, numeric, loss, *_ = trial_gradients(config, seed=91)

    def verdict(grads):
        return compare_gradients(grads, numeric, loss, config.d, GRADCHECK_H, GRADCHECK_TOL).passed

    assert verdict(analytic)
    planted = 0
    for name, arr in analytic.items():
        j = int(np.argmax(np.abs(arr)))
        if arr.flat[j] == 0.0:  # an unselected expert: nothing to get wrong
            continue
        for factor in (-1.0, 1.0 + 1e-3):  # a flipped sign, an entry 0.1% off
            wrong = dict(analytic, **{name: arr.copy()})
            wrong[name].flat[j] *= factor
            assert not verdict(wrong), (name, factor)
        planted += 1
    assert planted == len(analytic) - 2 * (config.n - config.k)


def test_compare_gradients_holds_a_near_zero_entry_to_the_rounding_bound():
    # An entry whose true value is zero may differ by the central
    # difference's rounding, atol = 2 d eps max(loss, 1) / h, and no more.
    d, loss = 8, 3.0
    atol = 2.0 * d * np.finfo(float).eps * loss / GRADCHECK_H
    analytic = {"w": np.array([0.5, 0.0])}
    for off, passes in ((0.5 * atol, True), (2.0 * atol, False)):
        numeric = {"w": np.array([0.5, off])}
        report = compare_gradients(analytic, numeric, loss, d, GRADCHECK_H, GRADCHECK_TOL)
        assert report.passed is passes, off


def selected_plane(layer, cache, pos):
    """The rotation plane of the selected expert at `pos`, recomputed from
    the cache's input and decision."""
    i, theta = cache.decision.selected[pos], float(cache.decision.theta[pos])
    return expert_terms(layer, cache.x, i, theta)[1]


def plane_backward_terms(layer, cache, dl_dy, pos):
    """Two terms of backward()'s plane backward for the selected expert at
    `pos`, recomputed from the cache: the anchor term resid_bar -
    (resid_bar.e1) e1 that it adds to q[i], and the part
    (e1_bar - (e1_bar.e1) e1) / |u| of u_bar, as it reaches a_i."""
    i, plane = cache.decision.selected[pos], selected_plane(layer, cache, pos)
    e1, e2 = plane.e1, plane.e2
    rot_bar = float(cache.decision.g[pos]) * (layer.experts[i].b.T @ dl_dy)
    e2_bar = (math.sin(float(cache.decision.theta[pos])) * plane.u_norm) * rot_bar
    resid_bar = (e2_bar - float(e2_bar @ e2) * e2) / plane.resid_norm
    anchor = resid_bar - float(resid_bar @ e1) * e1
    e1_bar = -float(resid_bar @ e1) * layer.router.q[i] - plane.q_dot_e1 * resid_bar
    return anchor, np.outer((e1_bar - float(e1_bar @ e1) * e1) / plane.u_norm, cache.x)


def test_grad_check_fails_planted_plane_backward_bugs():
    config = sweep_config("rotmole", 4)
    analytic, numeric, loss, layer, cache, dl_dy = trial_gradients(config, seed=91)

    def verdict(grads):
        return compare_gradients(grads, numeric, loss, config.d, GRADCHECK_H, GRADCHECK_TOL).passed

    assert verdict(analytic)
    for pos, i in enumerate(cache.decision.selected):
        assert not selected_plane(layer, cache, pos).degenerate
        anchor, a_term = plane_backward_terms(layer, cache, dl_dy, pos)
        # One sample: q[i]'s gradient is the anchor term alone, bit for bit.
        assert np.array_equal(analytic["q"][i], anchor)
        for name, row, term in (("q", i, anchor), (f"a{i}", slice(None), a_term)):
            wrong = dict(analytic, **{name: analytic[name].copy()})
            wrong[name][row] -= term
            assert not verdict(wrong), name


# Per-group max_rel_err of gradcheck_trials(config, 2, seed=91), as reprs,
# which name each double exactly. Any change to forward, backward,
# finite_diff_grad or grad_check's loss that moves a bit of the certificate
# shows here. Recorded on numpy 2.4.6; regenerate only if numpy or the BLAS
# changes.
CERTIFICATE_GOLDENS = {
    ("rotmole", 4): [
        {
            "a0": "0.0", "b0": "0.0", "a1": "0.0", "b1": "0.0", "a2": "2.345282865838281e-09",
            "b2": "8.80168806106786e-09", "a3": "2.8625149513532224e-08",
            "b3": "6.737433272014961e-08", "w_g": "6.611237640755495e-10",
            "w_theta": "1.4290988926984379e-08", "q": "1.4685320473760433e-08",
        },
        {
            "a0": "0.0", "b0": "0.0", "a1": "1.3844506584679211e-08",
            "b1": "2.1043689728731767e-07", "a2": "1.3988072281512519e-08",
            "b2": "1.8081006787485189e-07", "a3": "0.0", "b3": "0.0",
            "w_g": "1.9210640605320317e-09", "w_theta": "9.277749659347928e-09",
            "q": "1.8742983440931444e-08",
        },
    ],
    ("rotmole", 2): [
        {
            "a0": "0.0", "b0": "0.0", "a1": "3.355975020640384e-09",
            "b1": "7.323566534754722e-07", "a2": "6.252901802415037e-09",
            "b2": "3.1253412935384955e-07", "a3": "0.0", "b3": "0.0",
            "w_g": "1.483489757827683e-07", "w_theta": "5.094630147609385e-09",
        },
        {
            "a0": "1.401716006774007e-06", "b0": "1.7856406655680976e-08",
            "a1": "2.42501109127513e-08", "b1": "2.4395637934174683e-08", "a2": "0.0",
            "b2": "0.0", "a3": "0.0", "b3": "0.0", "w_g": "2.88243829290568e-07",
            "w_theta": "1.0613000256693172e-07",
        },
    ],
    ("scaling_only", 4): [
        {
            "a0": "0.0", "b0": "0.0", "a1": "4.48278684551755e-09",
            "b1": "4.612022085855118e-08", "a2": "0.0", "b2": "0.0",
            "a3": "1.5189459438791023e-07", "b3": "1.9844273506681151e-07",
            "w_g": "9.749424046181395e-10",
        },
        {
            "a0": "1.7293592767689255e-08", "b0": "1.0121458240658876e-07",
            "a1": "1.3898916262201095e-07", "b1": "5.900679851142719e-07", "a2": "0.0",
            "b2": "0.0", "a3": "0.0", "b3": "0.0", "w_g": "2.1170958308161132e-08",
        },
    ],
    ("mlp_gate", 4): [
        {
            "a0": "7.56798497737689e-05", "b0": "2.130968470014873e-07", "a1": "0.0",
            "b1": "0.0", "a2": "1.410344414235476e-07", "b2": "7.003720033915283e-09",
            "a3": "0.0", "b3": "0.0", "mlp_w1": "4.9310071003249665e-06",
            "mlp_w2": "1.505083277092116e-10",
        },
        {
            "a0": "0.0", "b0": "0.0", "a1": "3.166311489867933e-09",
            "b1": "1.00397501084091e-08", "a2": "9.027046597133292e-10",
            "b2": "6.01308852773182e-08", "a3": "0.0", "b3": "0.0",
            "mlp_w1": "2.848796833299991e-08", "mlp_w2": "2.7136241135176265e-10",
        },
    ],
}


@pytest.mark.parametrize("mode, r", SWEEP_ARMS)
def test_gradcheck_trials_reproduce_certificate_goldens(mode, r):
    reports = gradcheck_trials(sweep_config(mode, r), 2, seed=91)
    assert all(report.passed for report in reports)
    got = [[(g.name, repr(g.max_rel_err)) for g in report.groups] for report in reports]
    assert got == [list(trial.items()) for trial in CERTIFICATE_GOLDENS[(mode, r)]]


def test_grad_check_report_groups_follow_mode():
    layer, rng = make_layer(r=2)
    report = grad_check(layer, rng.normals(6), rng.normals(6))
    names = {g.name for g in report.groups}
    assert "q" not in names
    assert "w_theta" in names
    sca, rng2 = make_layer("scaling_only")
    report2 = grad_check(sca, rng2.normals(6), rng2.normals(6))
    names2 = {g.name for g in report2.groups}
    assert "w_theta" not in names2 and "q" not in names2


def test_grad_check_report_json_shape():
    layer, rng = make_layer()
    doc = grad_check(layer, rng.normals(6), rng.normals(6)).to_doc()
    assert set(doc) == {"groups", "pass"}
    assert all(set(g) == {"name", "max_rel_err", "n_params"} for g in doc["groups"])


def test_degenerate_plane_gradient_convention():
    # force the selected expert's anchor parallel to A x: rotation is the
    # identity there and q / w_theta receive exactly zero gradient
    layer, rng = make_layer(n=1, k=1)
    x = rng.normals(6)
    u = layer.experts[0].a @ x
    layer.router.q[0] = 2.0 * u
    _, cache = forward(layer, x)
    assert selected_plane(layer, cache, 0).degenerate
    grads = backward(layer, cache, rng.normals(6))
    assert np.all(grads["q"] == 0.0)
    assert np.all(grads["w_theta"] == 0.0)
    # gradient through A behaves as if the rotation were the identity
    assert np.any(grads["a0"] != 0.0)


def test_near_degenerate_detection():
    layer, rng = make_layer(n=1, k=1)
    x = rng.normals(6)
    assert not near_degenerate(layer, x)
    layer.router.q[0] = layer.experts[0].a @ x  # parallel anchor
    assert near_degenerate(layer, x)


def test_near_degenerate_includes_its_limit():
    # |A_i x| or the anchor residual exactly at 10 * DEGENERATE_EPS counts as
    # near-degenerate, one ulp above it does not. x is a unit vector, so A x
    # is A's hand-set first column.
    limit = 10.0 * DEGENERATE_EPS
    layer, _ = make_layer(d=4, n=1, k=1)
    a, q = layer.experts[0].a, layer.router.q[0]
    a[...] = 0.0
    x = np.array([1.0, 0.0, 0.0, 0.0])
    for length, near in ((limit, True), (np.nextafter(limit, 1.0), False)):
        a[:, 0] = [length, 0.0, 0.0]
        q[...] = [0.0, 1.0, 0.0]
        assert l2_norm(a @ x) == length
        assert near_degenerate(layer, x) is near
        a[:, 0] = [1.0, 0.0, 0.0]
        q[...] = [5.0, length, 0.0]  # its residual off A x is (0, length, 0)
        assert build_plane(a @ x, q).resid_norm == length
        assert near_degenerate(layer, x) is near


def test_selection_freezing_blocks_unselected_influence():
    layer, rng = make_layer(n=4, k=1)
    x, target = rng.normals(6), rng.normals(6)
    _, cache = forward(layer, x)
    selected = cache.decision.selected

    def loss_fn(lay):
        y, _ = forward(lay, x, force_selected=selected)
        return float(np.mean((y - target) ** 2))

    base = loss_fn(layer)
    unselected = next(i for i in range(4) if i not in selected)
    layer.experts[unselected].b[...] += 10.0
    layer.router.w_g[:, unselected] += 5.0
    assert loss_fn(layer) == base


def test_gradcheck_trials_seeded_sweep():
    config = AdapterConfig(d=6, r=3, n=3, k=2, mode="rotmole")
    reports = gradcheck_trials(config, trials=4, seed=11)
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    again = gradcheck_trials(config, trials=4, seed=11)
    assert [r.to_doc() for r in reports] == [r.to_doc() for r in again]


def test_zero_gradients_shapes_mirror_layer():
    layer, _ = make_layer("mlp_gate")
    grads = zero_gradients(layer)
    params = trainable_params(layer)
    assert set(grads) == set(params)
    for name in grads:
        assert grads[name].shape == params[name].shape
        assert np.all(grads[name] == 0.0)


def _near_degenerate_oracle(layer, x):
    """Gram-Schmidt of (A_i x, q_i) for each selected expert, |u| and the
    anchor residual each compared against 1e-7."""
    for i in route(layer, x).selected:
        u = layer.experts[i].a @ x
        u_len = math.sqrt(u @ u)
        if u_len <= 1e-7:
            return True
        e1 = u / u_len
        q = layer.router.q[i]
        resid = q - (q @ e1) * e1
        if math.sqrt(resid @ resid) <= 1e-7:
            return True
    return False


def test_near_degenerate_matches_gram_schmidt_oracle():
    # Each layer sees a generic input, inputs scaled so that |A_i x| falls
    # on a log scale across [1e-9, 1e-6], and anchors set to a multiple of
    # A_i x plus an orthogonal residual of such a length.
    pairs = near = in_band = 0
    for seed in range(300):
        r, k = (3, 4)[seed % 2], 1 + seed % 2
        layer, rng = make_layer(r=r, n=3, k=k, seed=seed)
        for j in range(20):
            x = rng.normals(6)
            length = 10.0 ** rng.uniform(-9.0, -6.0)
            if j % 2 == 1:
                i = route(layer, x).selected[0]
                x = x * (length / np.linalg.norm(layer.experts[i].a @ x))
            elif j > 0:
                i = route(layer, x).selected[-1]
                u = layer.experts[i].a @ x
                e1 = u / np.linalg.norm(u)
                w = rng.normals(r)
                w -= (w @ e1) * e1
                layer.router.q[i] = rng.uniform(1.0, 2.0) * e1 + length * w / np.linalg.norm(w)
            expected = _near_degenerate_oracle(layer, x)
            assert near_degenerate(layer, x) == expected, (seed, j)
            pairs += 1
            near += expected
            in_band += j > 0 and 1e-8 < length <= 1e-7
    assert pairs == 6000
    assert 2000 < near < 5000
    assert in_band > 1000


def test_gradcheck_trials_resample_inputs_until_off_the_degenerate_set(monkeypatch):
    # The first two inputs count as near-degenerate: the trial must check
    # the third, and draw its target after it.
    config = AdapterConfig(d=6, r=3, n=2, k=1)
    screened, checked = [], []

    def near(layer, x):
        screened.append(x)
        return len(screened) <= 2

    def check(layer, x, target, **kwargs):
        checked.append((x, target))
        return grad_check(layer, x, target, **kwargs)

    monkeypatch.setattr(autograd, "near_degenerate", near)
    monkeypatch.setattr(autograd, "grad_check", check)
    (report,) = gradcheck_trials(config, 1, seed=5)
    rng = Rng(5)
    layer = init_adapter(config, rng)
    randomize_layer(layer, rng)
    draws = [rng.normals(6) for _ in range(4)]
    assert len(screened) == 3
    assert all(np.array_equal(a, b) for a, b in zip(screened, draws))
    assert np.array_equal(checked[0][0], draws[2]) and np.array_equal(checked[0][1], draws[3])
    assert report == grad_check(layer, draws[2], draws[3])
