import math

import numpy as np
import pytest

from rotmole.adapter import (
    AdapterConfig,
    forward,
    init_adapter,
    mlp_variant,
    route,
    trainable_params,
)
from rotmole.autograd import (
    GRADCHECK_H,
    GRADCHECK_TOL,
    backward,
    compare_gradients,
    finite_diff_grad,
    grad_check,
    gradcheck_trials,
    near_degenerate,
    randomize_layer,
    zero_gradients,
)
from rotmole.numkit import ConfigError, Rng


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
    with pytest.raises(ValueError):
        backward(other, cache, np.zeros(8))


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
    grad_check trial at a generic point."""
    rng = Rng(seed)
    layer = init_adapter(config, rng)
    randomize_layer(layer, rng)
    x, target = rng.normals(config.d), rng.normals(config.d)
    assert not near_degenerate(layer, x)
    y, cache = forward(layer, x)
    analytic = backward(layer, cache, 2.0 * (y - target) / config.d)

    def loss_fn(lay):
        y_pert, _ = forward(lay, x, force_selected=cache.decision.selected)
        return float(np.mean((y_pert - target) ** 2))

    numeric = finite_diff_grad(loss_fn, layer, GRADCHECK_H)
    return analytic, numeric, float(np.mean((y - target) ** 2))


@pytest.mark.parametrize("mode, r", [("rotmole", 4), ("rotmole", 2), ("scaling_only", 4), ("mlp_gate", 4)])
def test_grad_check_fails_planted_bugs(mode, r):
    config = AdapterConfig(d=32, r=r, n=4, k=2, mode="rotmole" if mode == "mlp_gate" else mode)
    if mode == "mlp_gate":
        config = mlp_variant(config)
    analytic, numeric, loss = trial_gradients(config, seed=91)

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
    assert cache.planes[0].degenerate
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
