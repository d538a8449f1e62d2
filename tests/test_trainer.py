import ast
import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rotmole.adapter import (
    AdapterConfig,
    forward,
    init_adapter,
    layer_from_doc,
    layer_to_doc,
    load_layer,
    trainable_params,
)
from rotmole.autograd import randomize_layer
from rotmole.numkit import ConfigError, Rng
from rotmole.synth import DatasetConfig, make_rotation_separable_tasks, sample_batch
from rotmole.trainer import (
    ThetaRecord,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    lr_schedule,
    train,
)


def setup_run(steps=5, lr0=3e-4, noise_std=0.0, n=1, k=1, d=10, r=3, spt=4,
              data_seed=5, init_seed=9, mode="rotmole"):
    data_cfg = DatasetConfig(
        d=d, r=r, n_task=2, noise_std=noise_std,
        samples_per_task_per_batch=spt, phi_separation=math.pi, seed=data_seed,
    )
    train_cfg = TrainConfig(steps=steps, lr0=lr0, seed=init_seed,
                            eval_every=1, theta_log_every=1)
    rng = Rng(data_cfg.seed)
    specs = make_rotation_separable_tasks(data_cfg, rng)
    layer = init_adapter(
        AdapterConfig(d=d, r=r, n=n, k=k, mode=mode), Rng(train_cfg.seed)
    )
    layer.w0 = specs[0].w0_star.copy()
    eval_samples = sample_batch(specs, data_cfg, rng)
    return layer, specs, data_cfg, train_cfg, rng, eval_samples


def test_lr_schedule_points():
    cfg = TrainConfig(steps=10, lr0=0.5)
    assert lr_schedule(0, cfg) == 0.5
    assert lr_schedule(9, cfg) == 0.5 * (1 - 9 / 10)
    assert lr_schedule(5, cfg) == 0.25
    with pytest.raises(ValueError):
        lr_schedule(10, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=-1)
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, lr0=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, eval_every=0)


def test_zero_learning_rate_keeps_parameters():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(lr0=0.0)
    before = {k: v.copy() for k, v in trainable_params(layer).items()}
    train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    after = trainable_params(layer)
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_base_matrix_frozen_through_training():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=20)
    w0_before = layer.w0.copy()
    train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    assert np.array_equal(layer.w0, w0_before)


def test_training_deterministic():
    runs = []
    for _ in range(2):
        layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=15)
        _, metrics, thetas = train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
        runs.append((metrics, thetas))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_single_step_update_matches_hand_derived_gradient():
    # d=2 requires n_task < d, so use a 1-task dataset; n=k=1 and batch=1 keep
    # every quantity scalar enough to chain by hand
    data_cfg = DatasetConfig(
        d=3, r=2, n_task=1, noise_std=0.0,
        samples_per_task_per_batch=1, phi_separation=0.0, seed=31,
    )
    train_cfg = TrainConfig(steps=1, lr0=0.01, seed=17, eval_every=1, theta_log_every=1)
    rng = Rng(data_cfg.seed)
    specs = make_rotation_separable_tasks(data_cfg, rng)
    layer = init_adapter(AdapterConfig(d=3, r=2, n=1, k=1, mode="rotmole"), Rng(17))
    layer.w0 = specs[0].w0_star.copy()
    layer.experts[0].b[...] = Rng(1).normals(6).reshape(3, 2)
    eval_samples = sample_batch(specs, data_cfg, rng)

    # replay the batch the trainer will draw, then derive the update by hand
    probe_rng = Rng(data_cfg.seed)
    make_rotation_separable_tasks(data_cfg, probe_rng)
    sample_batch(specs, data_cfg, probe_rng)  # eval set draw
    (sample,) = sample_batch(specs, data_cfg, probe_rng)

    a = layer.experts[0].a.copy()
    b = layer.experts[0].b.copy()
    w_g = layer.router.w_g.copy()
    w_theta = layer.router.w_theta.copy()
    x, y_true = sample.x, sample.y
    t_logit = float(x @ w_theta[:, 0])
    sig = 1.0 / (1.0 + math.exp(-t_logit))
    theta = 2.0 * math.pi * sig - math.pi
    u = a @ x
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
    y_hat = layer.w0 @ x + b @ rot  # g = 1 for a single expert
    dl = 2.0 * (y_hat - y_true) / 3.0  # mean over d=3 components, batch of 1
    db = np.outer(dl, rot)
    rot_bar = b.T @ dl
    du = np.array(
        [c * rot_bar[0] + s * rot_bar[1], -s * rot_bar[0] + c * rot_bar[1]]
    )
    da = np.outer(du, x)
    theta_bar = float(rot_bar @ np.array([-s * u[0] - c * u[1], c * u[0] - s * u[1]]))
    dw_theta_col = theta_bar * 2.0 * math.pi * sig * (1.0 - sig) * x
    # one expert: g is pinned at 1, so the scaling gate gets zero gradient

    train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    lr = 0.01
    assert np.abs(layer.experts[0].b - (b - lr * db)).max() < 1e-14
    assert np.abs(layer.experts[0].a - (a - lr * da)).max() < 1e-14
    assert np.abs(layer.router.w_theta[:, 0] - (w_theta[:, 0] - lr * dw_theta_col)).max() < 1e-14
    assert np.array_equal(layer.router.w_g, w_g)


def test_metrics_record_steps_and_lr():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=5)
    _, metrics, _ = train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    assert [m.step for m in metrics] == [0, 1, 2, 3, 4]
    assert metrics[0].lr == train_cfg.lr0
    assert all(math.isfinite(m.loss) for m in metrics)


def test_theta_records_zero_at_step_zero_and_in_range():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=30)
    _, _, thetas = train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    assert thetas, "probe expert should be selected with n=1"
    for rec in thetas:
        assert -math.pi < rec.theta < math.pi
        if rec.step == 0:
            assert rec.theta == 0.0
    assert {rec.task_id for rec in thetas} == {0, 1}


def test_probe_expert_outside_the_layer_rejected_before_any_draw():
    for probe in (2, -1, 7):
        layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(n=2)
        twin = copy.deepcopy(rng)
        with pytest.raises(ValueError, match=rf"probe_expert={probe} outside \[0, n=2\)"):
            train(layer, specs, data_cfg, train_cfg, rng, eval_samples, probe_expert=probe)
        assert rng.next_u64() == twin.next_u64()  # no batch was drawn


def test_evaluate_exact_fit_and_purity():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(noise_std=0.0)
    layer.experts[0].a[...] = specs[0].a_star
    layer.experts[0].b[...] = specs[0].b_star
    layer.router.q[0, :] = specs[0].q_star
    d = data_cfg.d
    for spec in specs:
        p = (spec.phi + math.pi) / (2.0 * math.pi)
        layer.router.w_theta[d - 2 + spec.task_id, 0] = math.log(p / (1.0 - p))
    per_task = evaluate(layer, eval_samples)
    assert set(per_task) == {0, 1}
    assert all(v < 1e-16 for v in per_task.values())
    assert evaluate(layer, eval_samples) == per_task


def test_evaluate_untrained_matches_direct_statistic():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(noise_std=0.1)
    per_task = evaluate(layer, eval_samples)  # B = 0: prediction is w0 x
    for task in (0, 1):
        rows = [s for s in eval_samples if s.task_id == task]
        direct = float(
            np.mean([np.mean((s.y - layer.w0 @ s.x) ** 2) for s in rows])
        )
        assert abs(per_task[task] - direct) < 1e-12


def test_loss_non_increasing_under_small_lr():
    # stability smoke test on fixed seeds: noiseless data, lr small enough
    # that each step tracks the descent direction on the evaluation set
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(
        steps=10, lr0=1e-4, noise_std=0.0, spt=64
    )
    _, metrics, _ = train(layer, specs, data_cfg, train_cfg, rng, eval_samples)
    means = [sum(m.per_task_mse.values()) / 2 for m in metrics]
    for prev, nxt in zip(means, means[1:]):
        assert nxt <= prev


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_aborts_with_step():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=50)
    layer.experts[0].b[...] = 1e160  # guarantees a non-finite loss immediately
    layer.experts[0].a[...] = 1e160
    with pytest.raises(TrainingDiverged, match="step 0"):
        train(layer, specs, data_cfg, train_cfg, rng, eval_samples)


def test_theta_log_includes_final_step():
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(steps=7)
    cfg = TrainConfig(steps=7, lr0=1e-4, seed=9, eval_every=3, theta_log_every=3)
    _, metrics, thetas = train(layer, specs, data_cfg, cfg, rng, eval_samples)
    assert {m.step for m in metrics} == {0, 3, 6}
    assert {t.step for t in thetas} == {0, 3, 6}


def test_non_finite_parameter_after_last_update_aborts():
    # Expert 1's gate logit is always -1000 against expert 0's 0, so k = 1
    # never selects it: an infinite entry in b1 leaves every loss and
    # held-out MSE finite, and only the parameter check sees it.
    layer, specs, data_cfg, train_cfg, rng, eval_samples = setup_run(
        steps=3, n=2, k=1, mode="scaling_only"
    )
    layer.router.w_g[...] = 0.0
    layer.router.w_g[-2:, 1] = -1000.0  # the task-indicator inputs
    layer.experts[1].b[0, 0] = math.inf
    with pytest.raises(TrainingDiverged, match="'b1' after the last update"):
        train(layer, specs, data_cfg, train_cfg, rng, eval_samples)


@pytest.mark.parametrize("mode", ["scaling_only", "rotmole", "mlp_gate"])
def test_layer_and_task_arrays_stay_c_contiguous(mode, tmp_path):
    # The per-sample path's `.dot` products give the bits of `@` and of the
    # row-wise forms on C- or F-contiguous matrices only (test_numkit.py).
    def assert_c_contiguous(layer, when):
        for name, arr in {"w0": layer.w0, **trainable_params(layer)}.items():
            assert arr.flags.c_contiguous, (when, name)

    config = AdapterConfig(d=10, r=3, n=2, k=1, mode=mode,
                           mlp_hidden=5 if mode == "mlp_gate" else None)
    layer = init_adapter(config, Rng(3))
    assert_c_contiguous(layer, "init_adapter")
    doc = json.loads(json.dumps(layer_to_doc(layer)))
    assert_c_contiguous(layer_from_doc(doc), "layer_from_doc")
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(doc))
    assert_c_contiguous(load_layer(path), "load_layer")
    randomize_layer(layer, Rng(4))
    assert_c_contiguous(layer, "randomize_layer")

    data_cfg = DatasetConfig(d=10, r=3, n_task=2, noise_std=0.01, samples_per_task_per_batch=4,
                             phi_separation=math.pi, seed=5)
    rng = Rng(data_cfg.seed)
    specs = make_rotation_separable_tasks(data_cfg, rng)
    for spec in specs:
        for name in ("w0_star", "a_star", "b_star", "q_star"):
            assert getattr(spec, name).flags.c_contiguous, name
    train(layer, specs, data_cfg, TrainConfig(steps=2, lr0=1e-3, seed=6), rng, [])
    assert_c_contiguous(layer, "train")


def test_no_module_imports_a_private_name_of_a_sibling():
    # A private name is free to change with its own module; a sibling that
    # needs it should be served by a public function instead.
    src = Path(__file__).resolve().parents[1] / "src" / "rotmole"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rotmole"):
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
