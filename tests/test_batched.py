"""The batched training path against its per-sample oracle.

The batched forward, backward, sampler, training loop and evaluation must
reproduce the per-sample functions bit for bit, which is what keeps the
acceptance goldens exact. The per-sample backward is the chain rule in
tests/oracle.py. Arrays are compared on their raw bit patterns and
records on their reprs (a float's repr names its double exactly), because
== and np.array_equal take -0.0 and +0.0 as equal.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rotmole import adapter, synth, trainer
from rotmole.adapter import (
    THETA_LIMIT,
    AdapterConfig,
    forward,
    forward_batch,
    init_adapter,
    mlp_variant,
    route,
    trainable_params,
)
from rotmole.autograd import backward_batch, randomize_layer, zero_gradients
from rotmole.numkit import ConfigError, Rng, rowwise_matvec
from rotmole.rotation import apply_rotation, apply_rotations, build_plane, build_planes
from rotmole.synth import (
    DatasetConfig,
    Sample,
    draw_batch,
    make_rotation_separable_tasks,
    sample_batch,
    target_outputs,
)
from rotmole.trainer import (
    MetricsRecord,
    ThetaRecord,
    TrainConfig,
    evaluate,
    lr_schedule,
    train,
)

# The per-sample chain rule and target formula, not rotmole.backward and
# rotmole.target_output, which run the batched paths on one row and so are no
# independent oracles.
from oracle import backward, same_bits, target_output

# (d, n, k, n_task): the acceptance shape, k = 2 of 4 experts, k = 2 of 8
# experts, and k = n = 4, where every expert takes every row.
SHAPES = [(16, 1, 1, 2), (32, 4, 2, 4), (16, 8, 2, 4), (16, 4, 4, 4)]
ARMS = ["rotmole", "rotmole_r2", "scaling_only", "mlp_gate"]


def arm_config(arm, d, n, k):
    base = AdapterConfig(d=d, r=3, n=n, k=k, mode="rotmole")
    if arm == "rotmole_r2":
        return replace(base, r=2)
    if arm == "scaling_only":
        return replace(base, mode="scaling_only")
    if arm == "mlp_gate":
        return mlp_variant(base)
    return base


def random_layer(config, seed):
    rng = Rng(seed)
    layer = init_adapter(config, rng)
    randomize_layer(layer, rng)
    return layer


def per_sample(layer, xs, dl_dy):
    """Outputs, decisions and summed gradients from the per-sample oracle."""
    grads = zero_gradients(layer)
    ys, decisions = [], []
    for x, dl in zip(xs, dl_dy):
        y, cache = forward(layer, x)
        ys.append(y)
        decisions.append(cache.decision)
        sample_grads = backward(layer, cache, dl)
        for name in grads:
            grads[name] += sample_grads[name]
    return np.array(ys), decisions, grads


def assert_batch_matches_oracle(layer, xs, dl_dy):
    ys_ref, decisions, grads_ref = per_sample(layer, xs, dl_dy)
    ys, cache = forward_batch(layer, xs)
    assert same_bits(ys, ys_ref)
    assert same_bits(forward_batch(layer, xs, base=rowwise_matvec(layer.w0, xs))[0], ys)
    assert [tuple(row) for row in cache.selected.tolist()] == [d.selected for d in decisions]
    assert same_bits(cache.g, [d.g for d in decisions])
    assert same_bits(cache.theta, [d.theta for d in decisions])
    grads = backward_batch(layer, cache, dl_dy)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        assert same_bits(grads[name], grads_ref[name]), name
    return decisions, cache


# ---------------------------------------------------------------------------
# The pinned branch: finite differences run only `forward(..., force_selected=...)`
# ---------------------------------------------------------------------------


def assert_pinning_keeps_bits(layer, xs):
    """Pinning each row's own selection changes no bit of what `forward`
    returns: the output and the routing decision in its cache."""
    for x in xs:
        y, cache = forward(layer, x)
        y_pin, pinned = forward(layer, x, force_selected=cache.decision.selected)
        assert same_bits(y_pin, y)
        assert pinned.decision.selected == cache.decision.selected
        assert same_bits(pinned.decision.g, cache.decision.g)
        assert same_bits(pinned.decision.theta, cache.decision.theta)
        routed = route(layer, x, force_selected=cache.decision.selected)
        assert routed.selected == pinned.decision.selected
        assert same_bits(routed.g, pinned.decision.g)
        assert same_bits(routed.theta, pinned.decision.theta)


# ---------------------------------------------------------------------------
# Planted cases
# ---------------------------------------------------------------------------
# A case plants one edge into a random layer and into a batch that it draws
# from `rng`. It returns the batch and a check that the edge occurred, which
# takes the per-sample decisions and the batch cache. pyproject turns every
# RuntimeWarning into a failure, so no case may raise one.


def force_routing(layer, xs, always, never):
    """Make expert `always` rank first on every row and expert `never` last,
    through gate weights that read the input entry xs[:, 0], set to 1."""
    xs[:, 0] = 1.0
    router = layer.router
    if layer.config.mode == "mlp_gate":
        router.mlp_w1[:, 0] = 0.0
        router.mlp_w1[0, 0] = 1.0  # hidden unit 0 is 1 on every row
        weights = router.mlp_w2[0]
    else:
        weights = router.w_g[0]
    weights[always] = 12.0
    weights[never] = -12.0


def slice_sizes(cache):
    """Pairs per expert, in expert order."""
    sizes = [0] * cache.config.n
    for i, span in cache.pairs.spans:
        sizes[i] = span.stop - span.start
    return sizes


def normal_rows(rng, m, d):
    return rng.normals(m * d).reshape(m, d)


def random_rows(layer, rng):
    xs = normal_rows(rng, 24 + layer.config.n, layer.config.d)  # 64 rows fill 40 experts

    def every_expert_has_rows(decisions, cache):
        # A random MLP gate concentrates its routing: some experts take no row.
        assert all(slice_sizes(cache)) or layer.config.mode == "mlp_gate"

    return xs, every_expert_has_rows


def zero_and_parallel_anchor_rows(layer, rng):
    xs = normal_rows(rng, 16, layer.config.d)
    xs[0] = 0.0  # A_i x = 0: the plane has no first axis
    for i, expert in enumerate(layer.experts):
        layer.router.q[i] = 2.0 * (expert.a @ xs[1])  # q_i parallel to A_i x: no residual

    def rows_0_and_1_degenerate_with_a_live_angle(decisions, cache):
        pairs = cache.pairs
        assert pairs.planes.degenerate[pairs.rows <= 1].all()
        assert decisions[1].theta.any()  # the angle is live, only the plane is not

    return xs, rows_0_and_1_degenerate_with_a_live_angle


def all_anchors_zero(layer, rng):
    # Zero anchors leave no residual, so every pair's plane is degenerate
    # and the batched plane backward runs over zero live pairs.
    layer.router.q[...] = 0.0

    def every_plane_degenerate_with_live_angles(decisions, cache):
        assert cache.pairs.planes.degenerate.all()
        assert any(d.theta.any() for d in decisions)

    return normal_rows(rng, 16, layer.config.d), every_plane_degenerate_with_live_angles


def saturated_angles(layer, rng):
    xs = normal_rows(rng, 16, layer.config.d)
    xs[:8] *= 1e4  # angle-gate logits of order 1e4: the sigmoid saturates to 0 or 1

    def some_angle_at_the_limit(decisions, cache):
        assert any(abs(t) == THETA_LIMIT for d in decisions for t in d.theta)

    return xs, some_angle_at_the_limit


def top_k_tie(layer, rng):
    router = layer.router
    if layer.config.mode == "mlp_gate":
        router.mlp_w2[:, 2] = router.mlp_w2[:, 1]
    else:
        router.w_g[:, 2] = router.w_g[:, 1]
    xs = normal_rows(rng, 64, layer.config.d)
    xs[5] = 0.0  # every logit equal

    def expert_1_ahead_of_its_twin(decisions, cache):
        # The tie decides the selection: expert 1 ranks ahead of its twin,
        # which sits just outside the top k.
        assert any(1 in d.selected and 2 not in d.selected for d in decisions)
        assert decisions[5].selected == (0, 1)

    return xs, expert_1_ahead_of_its_twin


def many_way_ties(layer, rng):
    # One-hot rows read one row of w_g each: 16 logits from {0, 1, 2, 3},
    # so most rows rank several many-way ties, where only a stable sort
    # keeps route's order (lower index first).
    d, n, k = layer.config.d, layer.config.n, layer.config.k
    layer.router.w_g[...] = np.floor(4.0 * rng.floats(d * n)).reshape(d, n)
    xs = np.eye(d)

    def route_order_with_a_tie_at_the_cut(decisions, cache):
        for x, selected in zip(xs, cache.selected.tolist()):
            assert tuple(selected) == route(layer, x).selected
        logits = np.sort(layer.router.w_g, axis=1)[:, ::-1]
        assert np.any(logits[:, k - 1] == logits[:, k])

    return xs, route_order_with_a_tie_at_the_cut


def underflowed_softmax(layer, rng):
    # Logits 0, -900, -800, -1000: every softmax value but the first is 0.0,
    # so the runner-up is expert 1 by index, where the logits would pick 2.
    router, logits = layer.router, np.array([0.0, -900.0, -800.0, -1000.0])
    if layer.config.mode == "mlp_gate":
        router.mlp_w1[...] = 0.0
        router.mlp_w1[0, 0] = 1.0
        router.mlp_w2[...] = 0.0
        router.mlp_w2[0] = logits
    else:
        router.w_g[...] = 0.0
        router.w_g[0] = logits
    xs = normal_rows(rng, 16, layer.config.d)
    xs[:, 0] = 1.0

    def every_row_selects_0_and_1(decisions, cache):
        assert all(d.selected == (0, 1) for d in decisions)

    return xs, every_row_selects_0_and_1


def expert_with_every_row_and_one_with_none(layer, rng):
    n, k = layer.config.n, layer.config.k
    xs = normal_rows(rng, 32, layer.config.d)
    force_routing(layer, xs, always=2, never=5 % n)

    def full_and_empty_slices(decisions, cache):
        assert all(dec.selected[0] == 2 for dec in decisions)
        sizes = slice_sizes(cache)
        assert sizes[2] == 32 and sum(sizes) == 32 * k
        if k < n:  # at k = n every expert takes every row
            assert sizes[5] == 0

    return xs, full_and_empty_slices


def one_row(layer, rng):
    def k_slices_of_one(decisions, cache):
        assert slice_sizes(cache).count(1) == layer.config.k == sum(slice_sizes(cache))

    return normal_rows(rng, 1, layer.config.d), k_slices_of_one


def degenerate_rows_in_several_slices(layer, rng):
    config = layer.config
    xs = normal_rows(rng, 16 + 2 * config.n, config.d)
    xs[3] = 0.0  # every logit 0, and A_i x = 0 in every slice that holds row 3
    planted = {}
    if config.mode == "rotmole" and config.r > 2:
        # For each expert, turn its anchor parallel to A_i x of a row of its
        # own: that row's plane is degenerate in this slice alone.
        _, cache = forward_batch(layer, xs)
        for i, span in cache.pairs.spans:
            row = next(j for j in cache.pairs.rows[span].tolist() if j != 3 and j not in planted.values())
            layer.router.q[i] = 2.0 * (layer.experts[i].a @ xs[row])
            planted[i] = row

    def each_slice_holds_its_planted_row(decisions, cache):
        assert decisions[3].selected == tuple(range(config.k))
        if planted:
            pairs = cache.pairs
            for i, span in pairs.spans:
                degenerate_rows = set(pairs.rows[span][pairs.planes.degenerate[span]].tolist())
                assert degenerate_rows - {3} == {planted[i]}
            assert len(planted) >= 4

    return xs, each_slice_holds_its_planted_row


SHAPES_DNK = [shape[:3] for shape in SHAPES]
PAIR_SHAPES = [(16, 8, 2), (16, 4, 4)]
WIDE = [(16, 40, 4)]  # 4 of 40 experts; an entry here takes about 0.15 s, so fewer arms run
CASES = [  # (case, arms, (d, n, k) shapes)
    (random_rows, ARMS, SHAPES_DNK),
    (random_rows, ["rotmole", "rotmole_r2", "scaling_only"], WIDE),  # gates giving every expert rows
    (zero_and_parallel_anchor_rows, ["rotmole"], SHAPES_DNK),
    (all_anchors_zero, ["rotmole"], SHAPES_DNK),
    (saturated_angles, ["rotmole", "rotmole_r2"], [(16, 4, 2)]),
    (top_k_tie, ARMS, [(32, 4, 2)]),
    (many_way_ties, ["rotmole", "rotmole_r2", "scaling_only"], [(16, 16, 2), (16, 16, 4)]),
    (underflowed_softmax, ARMS, [(32, 4, 2)]),
    (expert_with_every_row_and_one_with_none, ARMS, PAIR_SHAPES + WIDE),
    (one_row, ARMS, PAIR_SHAPES + WIDE),
    (degenerate_rows_in_several_slices, ARMS, PAIR_SHAPES),
    (degenerate_rows_in_several_slices, ["rotmole"], WIDE),  # the arm whose planes it plants
]
SEEDS = [1, 2]


@pytest.mark.parametrize("case, arm, shape, seed", [
    pytest.param(case, arm, shape, seed,
                 id="{}-{}-d{}n{}k{}-seed{}".format(case.__name__, arm, *shape, seed))
    for case, arms, shapes in CASES for arm in arms for shape in shapes for seed in SEEDS
])
def test_planted_case_matches_oracle_and_pinning(case, arm, shape, seed):
    layer = random_layer(arm_config(arm, *shape), seed)
    rng = Rng(1000 + seed)  # a stream apart from every layer's
    xs, edge_occurred = case(layer, rng)
    dl_dy = normal_rows(rng, *xs.shape)
    decisions, cache = assert_batch_matches_oracle(layer, xs, dl_dy)
    assert_pinning_keeps_bits(layer, xs)
    edge_occurred(decisions, cache)


def test_build_planes_match_build_plane():
    rng = Rng(41)
    us = rng.normals(40 * 4).reshape(40, 4)
    own = rng.normals(40 * 4).reshape(40, 4)
    us[3] = 0.0
    us[7] = -3.0 * own[7]
    us[9] = 0.5 * own[0]
    for qs in (own, own[0]):  # an anchor per row, one for all rows
        planes = build_planes(us, qs)
        cos, sin = np.cos(np.arange(40.0)), np.sin(np.arange(40.0))
        turned = apply_rotations(us, planes, cos, sin)
        for j, u in enumerate(us):
            plane = build_plane(u, qs[j] if qs.ndim == 2 else qs)
            assert planes.degenerate[j] == plane.degenerate
            assert same_bits(turned[j], apply_rotation(u, plane, float(j)))
            if not plane.degenerate:
                assert same_bits(planes.e1[j], plane.e1)
                assert same_bits(planes.e2[j], plane.e2)
                assert same_bits(planes.u_norm[j], plane.u_norm)
                assert same_bits(planes.q_dot_e1[j], plane.q_dot_e1)
                assert same_bits(planes.resid_norm[j], plane.resid_norm)
        assert planes.degenerate[3]
    assert build_planes(us, own).degenerate[7] and not build_planes(us, own).degenerate[9]
    assert build_planes(us, qs).degenerate[9] and not build_planes(us, qs).degenerate[7]


def test_build_planes_rejects_anchors_of_other_shapes():
    for qs in (np.ones(4), np.ones((4, 3)), np.ones((5, 4))):
        with pytest.raises(ConfigError, match="an anchor per row or one for all"):
            build_planes(np.ones((5, 3)), qs)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def per_sample_batch(specs, cfg, rng):
    """`sample_batch` one sample at a time: its free inputs, then its noise."""
    free = cfg.d - cfg.n_task
    batch = []
    for _ in range(cfg.samples_per_task_per_batch):
        for spec in specs:
            x = np.zeros(cfg.d)
            x[:free] = rng.normals(free)
            x[free + spec.task_id] = 1.0
            y = target_output(spec, x) + cfg.noise_std * rng.normals(cfg.d)
            batch.append(Sample(spec.task_id, x, y))
    return batch


@pytest.mark.parametrize("draw_block", [8192, 40, 1])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_sample_batch_matches_per_sample_draws(r, draw_block, monkeypatch):
    monkeypatch.setattr(synth, "DRAW_BLOCK", draw_block)  # one draw, several, one per sample
    cfg = DatasetConfig(d=16, r=r, n_task=3, noise_std=0.05,
                        samples_per_task_per_batch=5, phi_separation=1.0, seed=51)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    a, b, c = Rng(52), Rng(52), Rng(52)
    for _ in range(20):
        batch, ref = sample_batch(specs, cfg, a), per_sample_batch(specs, cfg, b)
        task_ids, xs, ys, base = draw_batch(specs, cfg, c)
        assert [s.task_id for s in batch] == [s.task_id for s in ref] == task_ids.tolist()
        assert all(type(s.task_id) is int for s in batch)
        ref_xs, ref_ys = np.array([s.x for s in ref]), np.array([s.y for s in ref])
        assert same_bits([s.x for s in batch], ref_xs)
        assert same_bits([s.y for s in batch], ref_ys)
        assert same_bits(xs, ref_xs) and same_bits(ys, ref_ys)
        assert same_bits(base, rowwise_matvec(specs[0].w0_star, xs))
    assert a.next_u64() == b.next_u64() == c.next_u64()


def test_sample_batch_rejects_specs_with_own_generators():
    cfg = DatasetConfig(d=8, r=3, n_task=2, noise_std=0.0,
                        samples_per_task_per_batch=2, phi_separation=1.0, seed=56)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    for field in ("w0_star", "a_star", "b_star", "q_star"):
        own = [specs[0], replace(specs[1], **{field: getattr(specs[1], field).copy()})]
        rng = Rng(57)
        with pytest.raises(ValueError, match="share"):
            sample_batch(own, cfg, rng)
        with pytest.raises(ValueError, match="share"):
            draw_batch(own, cfg, rng)
        assert rng.next_u64() == Rng(57).next_u64()  # nothing drawn
    rng = Rng(57)
    with pytest.raises(ValueError, match="specs must be nonempty"):
        draw_batch([], cfg, rng)
    assert rng.next_u64() == Rng(57).next_u64()


def test_target_outputs_match_target_output():
    cfg = DatasetConfig(d=12, r=3, n_task=2, noise_std=0.0,
                        samples_per_task_per_batch=1, phi_separation=2.0, seed=53)
    spec = make_rotation_separable_tasks(cfg, Rng(cfg.seed))[1]
    xs = Rng(54).normals(30 * 12).reshape(30, 12)
    xs[4] = 0.0  # degenerate plane
    phis = Rng(55).uniforms(30, -math.pi, math.pi)  # a different angle on each row
    out = target_outputs(spec, xs, phis)
    assert same_bits(target_outputs(spec, xs, phis, base=rowwise_matvec(spec.w0_star, xs)), out)
    for x, phi, y in zip(xs, phis.tolist(), out):
        own = replace(spec, phi=phi)
        assert same_bits(y, target_output(own, x))
        assert same_bits(synth.target_output(own, x), y)  # the package's one-row form


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------


def per_sample_evaluate(layer, samples):
    totals, counts = {}, {}
    for s in samples:
        y_hat, _ = forward(layer, s.x)
        totals[s.task_id] = totals.get(s.task_id, 0.0) + float(np.mean((y_hat - s.y) ** 2))
        counts[s.task_id] = counts.get(s.task_id, 0) + 1
    return {t: totals[t] / counts[t] for t in sorted(totals)}


def per_sample_train(layer, specs, data_cfg, train_cfg, data_rng, eval_samples, probe=0):
    """The training loop one sample at a time, as the oracle of `train`."""
    d, batch_size = layer.config.d, data_cfg.batch_size
    metrics, thetas = [], []
    params = trainable_params(layer)
    for step in range(train_cfg.steps):
        batch = per_sample_batch(specs, data_cfg, data_rng)
        log_theta = step % train_cfg.theta_log_every == 0 or step == train_cfg.steps - 1
        grads = zero_gradients(layer)
        loss = 0.0
        for sample in batch:
            y_hat, cache = forward(layer, sample.x)
            err = y_hat - sample.y
            loss += float(np.mean(err**2))
            sample_grads = backward(layer, cache, 2.0 * err / (d * batch_size))
            for name in grads:
                grads[name] += sample_grads[name]
            if log_theta and probe in cache.decision.selected:
                pos = cache.decision.selected.index(probe)
                thetas.append(ThetaRecord(step, sample.task_id, probe,
                                          float(cache.decision.theta[pos])))
        loss /= batch_size
        lr = lr_schedule(step, train_cfg)
        for name in params:
            params[name] -= lr * grads[name]
        if step % train_cfg.eval_every == 0 or step == train_cfg.steps - 1:
            metrics.append(MetricsRecord(step, lr, loss, per_sample_evaluate(layer, eval_samples)))
    return metrics, thetas


# How a layer's W0 relates to the generator's W0*. `train` computes W0 x once
# per step for the targets and the prediction only when the two have the same
# raw bits in the same layout, so the signed-zero copy, equal in value, and the
# Fortran-ordered copy, whose products round differently, take the unshared path.
W0_RELATIONS = ["generator", "equal_copy", "fortran_copy", "signed_zero", "own"]


def relate_w0(relation, layer, w0_star):
    """Give `layer` a W0 in `relation` to `w0_star`: the array itself, a copy,
    a Fortran-ordered copy, a copy whose one planted 0.0 is -0.0, or the
    layer's own random W0."""
    if relation == "generator":
        layer.w0 = w0_star
    elif relation == "equal_copy":
        layer.w0 = w0_star.copy()
    elif relation == "fortran_copy":
        layer.w0 = np.asfortranarray(w0_star)
    elif relation == "signed_zero":
        w0_star[0, 0] = 0.0
        layer.w0 = w0_star.copy()
        layer.w0[0, 0] = -0.0


@pytest.mark.parametrize("relation", W0_RELATIONS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("arm", ARMS)
def test_train_and_evaluate_match_per_sample(arm, shape, relation):
    d, n, k, n_task = shape
    config = arm_config(arm, d, n, k)
    data_cfg = DatasetConfig(d=d, r=config.r, n_task=n_task, noise_std=0.01,
                             samples_per_task_per_batch=8, phi_separation=math.pi / n_task,
                             seed=61)
    train_cfg = TrainConfig(steps=4, lr0=1e-3, seed=62, eval_every=2, theta_log_every=2)
    runs = []
    for run_training in (train, per_sample_train):
        rng = Rng(data_cfg.seed)
        specs = make_rotation_separable_tasks(data_cfg, rng)
        eval_samples = per_sample_batch(specs, data_cfg, rng)
        layer = random_layer(config, seed=63)
        relate_w0(relation, layer, specs[0].w0_star)
        frozen = layer.w0.tobytes(), specs[0].w0_star.tobytes()
        out = run_training(layer, specs, data_cfg, train_cfg, rng, eval_samples)
        assert (layer.w0.tobytes(), specs[0].w0_star.tobytes()) == frozen
        metrics, thetas = out[1:] if run_training is train else out
        runs.append((layer, metrics, thetas, eval_samples, rng.next_u64()))
    (layer, metrics, thetas, held_out, state), (ref_layer, ref_metrics, ref_thetas, _, ref_state) = runs
    assert all(math.isfinite(m.loss) for m in metrics)
    assert repr(metrics) == repr(ref_metrics)
    assert repr(thetas) == repr(ref_thetas)
    assert len(thetas) > 0 and any(t.theta != 0.0 for t in thetas) == (config.mode == "rotmole")
    assert state == ref_state
    ref_params = trainable_params(ref_layer)
    for name, arr in trainable_params(layer).items():
        assert same_bits(arr, ref_params[name]), name
    assert repr(evaluate(layer, held_out)) == repr(per_sample_evaluate(layer, held_out))


@pytest.mark.parametrize("relation, products_per_step", [
    ("generator", 1), ("equal_copy", 1), ("fortran_copy", 2), ("signed_zero", 2), ("own", 2),
])
def test_train_shares_base_products_only_with_the_same_bits(monkeypatch, relation,
                                                            products_per_step):
    d, steps = 16, 3
    data_cfg = DatasetConfig(d=d, r=3, n_task=4, noise_std=0.01,
                             samples_per_task_per_batch=4, phi_separation=1.0, seed=81)
    rng = Rng(data_cfg.seed)
    specs = make_rotation_separable_tasks(data_cfg, rng)
    layer = random_layer(AdapterConfig(d=d, r=3, n=4, k=2, mode="rotmole"), seed=82)
    relate_w0(relation, layer, specs[0].w0_star)
    base_products = []

    def counting(m, xs):
        if m.shape == (d, d):
            base_products.append(m)
        return rowwise_matvec(m, xs)

    monkeypatch.setattr(synth, "rowwise_matvec", counting)
    monkeypatch.setattr(adapter, "rowwise_matvec", counting)
    train(layer, specs, data_cfg, TrainConfig(steps=steps, lr0=3e-4, seed=83), rng, [])
    assert len(base_products) == products_per_step * steps
    base_products.clear()
    idle = TrainConfig(steps=0, lr0=3e-4, seed=83)
    assert train(layer, specs, data_cfg, idle, rng, [])[1:] == ([], [])
    assert base_products == []


def test_train_on_empty_specs_fails_only_at_a_step():
    data_cfg = DatasetConfig(d=16, r=3, n_task=2, noise_std=0.01,
                             samples_per_task_per_batch=4, phi_separation=1.0, seed=84)
    layer = random_layer(AdapterConfig(d=16, r=3, n=2, k=1, mode="rotmole"), seed=85)
    assert train(layer, [], data_cfg, TrainConfig(steps=0, lr0=3e-4), Rng(86), [])[1:] == ([], [])
    with pytest.raises(ValueError, match="draw_batch: specs must be nonempty"):
        train(layer, [], data_cfg, TrainConfig(steps=2, lr0=3e-4), Rng(86), [])


def test_evaluate_in_blocks_matches_per_sample(monkeypatch):
    monkeypatch.setattr(trainer, "EVAL_BLOCK_VALUES", 16 * 10)  # 10 samples a block
    config = AdapterConfig(d=16, r=3, n=4, k=2, mode="rotmole")
    data_cfg = DatasetConfig(d=16, r=3, n_task=3, noise_std=0.01,
                             samples_per_task_per_batch=9, phi_separation=1.0, seed=71)
    rng = Rng(data_cfg.seed)
    samples = sample_batch(make_rotation_separable_tasks(data_cfg, rng), data_cfg, rng)
    layer = random_layer(config, seed=72)
    assert repr(evaluate(layer, samples)) == repr(per_sample_evaluate(layer, samples))


def test_evaluate_keys_only_present_tasks():
    config = AdapterConfig(d=16, r=3, n=2, k=1, mode="rotmole")
    data_cfg = DatasetConfig(d=16, r=3, n_task=3, noise_std=0.01,
                             samples_per_task_per_batch=4, phi_separation=1.0, seed=73)
    rng = Rng(data_cfg.seed)
    samples = sample_batch(make_rotation_separable_tasks(data_cfg, rng), data_cfg, rng)
    held_out = [s for s in samples if s.task_id != 1]  # task 1 absent, task 2 present
    layer = random_layer(config, seed=74)
    per_task = evaluate(layer, held_out)
    assert list(per_task) == [0, 2]
    assert all(type(t) is int and type(v) is float and math.isfinite(v)
               for t, v in per_task.items())
    assert repr(per_task) == repr(per_sample_evaluate(layer, held_out))


def test_theta_record_has_no_instance_dict():
    record = ThetaRecord(3, 1, 0, 0.25)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.theta = 0.5


def test_evaluate_empty_set():
    layer = init_adapter(AdapterConfig(d=4, r=2, n=1, k=1), Rng(0))
    assert evaluate(layer, []) == {}
