import math
from dataclasses import replace

import numpy as np
import pytest

from rotmole import synth
from rotmole.adapter import AdapterConfig, forward, init_adapter
from rotmole.numkit import ConfigError, Rng
from rotmole.rotation import build_plane
from rotmole.synth import (
    DatasetConfig,
    analytic_baseline_floor,
    make_rotation_separable_tasks,
    sample_batch,
)

from oracle import target_output


def config(n_task=2, noise_std=0.0, sep=math.pi, spt=3, seed=11, d=16, r=3):
    return DatasetConfig(
        d=d,
        r=r,
        n_task=n_task,
        noise_std=noise_std,
        samples_per_task_per_batch=spt,
        phi_separation=sep,
        seed=seed,
    )


def test_dataset_config_validation():
    with pytest.raises(ConfigError):
        config(n_task=16)  # d must exceed n_task
    with pytest.raises(ConfigError):
        config(noise_std=-0.1)
    with pytest.raises(ConfigError):
        config(spt=0)


def test_single_task_angle_zero():
    specs = make_rotation_separable_tasks(config(n_task=1), Rng(11))
    assert len(specs) == 1
    assert specs[0].phi == 0.0


def test_two_tasks_symmetric_angles():
    specs = make_rotation_separable_tasks(config(), Rng(11))
    assert [s.task_id for s in specs] == [0, 1]
    assert specs[0].phi == -math.pi / 2
    assert specs[1].phi == math.pi / 2
    # generating parameters are shared objects
    assert specs[0].a_star is specs[1].a_star
    assert specs[0].w0_star is specs[1].w0_star


def test_separation_of_two_thirds_pi():
    specs = make_rotation_separable_tasks(config(sep=2 * math.pi / 3), Rng(1))
    assert abs(specs[0].phi + math.pi / 3) < 1e-15
    assert abs(specs[1].phi - math.pi / 3) < 1e-15


def test_infeasible_separation_rejected():
    with pytest.raises(ConfigError):
        make_rotation_separable_tasks(config(n_task=7, sep=1.0, d=16), Rng(1))


def test_generator_deterministic():
    a = make_rotation_separable_tasks(config(), Rng(42))
    b = make_rotation_separable_tasks(config(), Rng(42))
    assert np.array_equal(a[0].a_star, b[0].a_star)
    assert np.array_equal(a[0].b_star, b[0].b_star)
    assert np.array_equal(a[0].q_star, b[0].q_star)


def test_indicator_columns_inert():
    # A*'s task-indicator columns are zero: the low-rank intermediate depends
    # only on the feature block, so tasks differ by nothing but their angle
    specs = make_rotation_separable_tasks(config(), Rng(3))
    d, n_task = 16, 2
    assert np.all(specs[0].a_star[:, d - n_task :] == 0.0)


def test_batch_balance_and_interleaving():
    cfg = config(spt=3)
    specs = make_rotation_separable_tasks(cfg, Rng(5))
    batch = sample_batch(specs, cfg, Rng(6))
    assert len(batch) == 6
    assert [s.task_id for s in batch] == [0, 1, 0, 1, 0, 1]


def test_sample_one_hot_block():
    cfg = config()
    specs = make_rotation_separable_tasks(cfg, Rng(5))
    for sample in sample_batch(specs, cfg, Rng(6)):
        block = sample.x[16 - 2 :]
        assert sorted(block) == [0.0, 1.0]
        assert block[sample.task_id] == 1.0


def test_noiseless_samples_match_target_map():
    cfg = config(noise_std=0.0)
    specs = make_rotation_separable_tasks(cfg, Rng(5))
    for sample in sample_batch(specs, cfg, Rng(6)):
        expected = target_output(specs[sample.task_id], sample.x)
        assert np.array_equal(sample.y, expected)


def test_batches_deterministic():
    cfg = config(noise_std=0.3)
    specs = make_rotation_separable_tasks(cfg, Rng(5))
    a = sample_batch(specs, cfg, Rng(8))
    b = sample_batch(specs, cfg, Rng(8))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.y, sb.y)


def test_noiseless_consistency_hand_set_layer():
    # a layer holding the generating parameters, with gates pinned to the task
    # angles through the indicator block, reproduces every sample exactly
    cfg = config(noise_std=0.0, spt=8)
    rng = Rng(11)
    specs = make_rotation_separable_tasks(cfg, rng)
    layer = init_adapter(AdapterConfig(d=16, r=3, n=1, k=1, mode="rotmole"), Rng(0))
    layer.w0 = specs[0].w0_star.copy()
    layer.experts[0].a[...] = specs[0].a_star
    layer.experts[0].b[...] = specs[0].b_star
    layer.router.q[0, :] = specs[0].q_star
    for spec in specs:
        p = (spec.phi + math.pi) / (2.0 * math.pi)
        layer.router.w_theta[16 - 2 + spec.task_id, 0] = math.log(p / (1.0 - p))
    for sample in sample_batch(specs, cfg, rng):
        y, _ = forward(layer, sample.x)
        assert float(np.mean((y - sample.y) ** 2)) < 1e-16


def test_floor_requires_enough_samples():
    cfg = config()
    specs = make_rotation_separable_tasks(cfg, Rng(5))
    with pytest.raises(ConfigError):
        analytic_baseline_floor(specs, cfg, 100)


def test_floor_single_task_is_noise_limited():
    # one task: a unit scale at the task's own angle fits up to the angle
    # grid's 0.01 rad resolution, so with noise dominating that penalty the
    # floor is the noise variance
    cfg = config(n_task=1, noise_std=2.0, seed=21)
    specs = make_rotation_separable_tasks(cfg, Rng(21))
    floor = analytic_baseline_floor(specs, cfg, 10_000)
    assert abs(floor - 4.0) < 0.15
    assert floor > 0.0


def test_floor_opposed_rotations_strictly_positive():
    # opposite quarter-turn targets cannot both be matched by one direction:
    # even with zero label noise the floor stays far above zero. The exact
    # value is the grid-search oracle's recorded output for these seeds.
    cfg = config(noise_std=0.0, seed=33)
    specs = make_rotation_separable_tasks(cfg, Rng(33))
    floor = analytic_baseline_floor(specs, cfg, 10_000)
    assert floor > 1.0  # far above the (zero) noise level
    assert floor == 1141.658426447537


def test_floor_monotone_in_separation():
    seps = [0.0, 0.5, 1.0, math.pi / 2 * 2]
    floors = []
    for sep in seps:
        cfg = config(noise_std=0.0, sep=sep, seed=7)
        specs = make_rotation_separable_tasks(cfg, Rng(7))
        floors.append(analytic_baseline_floor(specs, cfg, 10_000))
    for lo, hi in zip(floors, floors[1:]):
        assert hi >= lo - 1e-9


def test_floor_deterministic():
    cfg = config(seed=13)
    specs = make_rotation_separable_tasks(cfg, Rng(13))
    assert analytic_baseline_floor(specs, cfg, 10_000) == analytic_baseline_floor(
        specs, cfg, 10_000
    )


# Floors as the oracle recorded them when it drew each sample's inputs and
# noise in two `normals` calls, as reprs, which name each double exactly.
# Block draws take the same stream, so they must give the same bits. The r=2
# entry was 1532.94932780176 while the residual was (W0* x + delta) + noise -
# W0* x; as delta + noise, which equals it in exact arithmetic, it moved in
# its last bits. The other floors kept theirs.
PINNED_FLOORS = [
    (dict(r=2, noise_std=0.1, seed=41), "1532.9493278017603"),
    (dict(r=4, d=40, n_task=3, sep=2.0, noise_std=0.1, seed=43), "1375.9081074453934"),
    (dict(n_task=1, noise_std=2.0, seed=21), "4.003722290040514"),
    (dict(d=8, n_task=3, sep=2.0, noise_std=0.5, seed=47), "567.4181659752273"),
]


@pytest.mark.parametrize("kwargs, expected", PINNED_FLOORS)
def test_floor_matches_recorded_value(kwargs, expected):
    cfg = config(**kwargs)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    assert repr(analytic_baseline_floor(specs, cfg, 10_000)) == expected


@pytest.mark.parametrize("draw_block", [40, 1])
def test_floor_same_for_any_draw_block(draw_block, monkeypatch):
    # d=8, n_task=3: 13 normals per sample and 3334 samples per task. A block
    # of 40 normals takes 3 samples and leaves a remainder block of one; a
    # block of 1 takes one sample per call. The default takes 630 per call.
    kwargs, expected = PINNED_FLOORS[3]
    cfg = config(**kwargs)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    monkeypatch.setattr(synth, "DRAW_BLOCK", draw_block)
    assert repr(analytic_baseline_floor(specs, cfg, 10_000)) == expected


def test_floor_with_every_plane_degenerate():
    # A zero anchor has no residual off any A* x, so every plane is
    # degenerate: the targets are unrotated, `turned` is zero, and the floor
    # is the noise variance 0.25 up to sampling.
    cfg = config(d=8, n_task=3, sep=2.0, noise_std=0.5, seed=47)
    zero = np.zeros(cfg.r)
    specs = [
        replace(spec, q_star=zero) for spec in make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    ]
    x = sample_batch(specs, cfg, Rng(1))[0].x
    assert build_plane(specs[0].a_star @ x, zero).degenerate
    assert repr(analytic_baseline_floor(specs, cfg, 10_000)) == "0.24795101527323973"


def test_floor_builds_one_plane_per_sample(monkeypatch):
    # Each sample's plane comes with its target's terms and serves the
    # candidate directions too: one `build_plane` per sample, ceil(n_mc /
    # n_task) samples per task, and the pinned bits all the same.
    kwargs, expected = PINNED_FLOORS[3]
    cfg = config(**kwargs)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    calls = 0

    def counted(u, q):
        nonlocal calls
        calls += 1
        return build_plane(u, q)

    monkeypatch.setattr(synth, "build_plane", counted)
    assert repr(analytic_baseline_floor(specs, cfg, 10_000)) == expected
    assert calls == cfg.n_task * math.ceil(10_000 / cfg.n_task) == 10_002


def test_floor_reads_no_base_map():
    # Targets and candidates share the base map W0* x, so the floor never
    # computes it: with every entry of W0* NaN it keeps its pinned bits.
    kwargs, expected = PINNED_FLOORS[3]
    cfg = config(**kwargs)
    specs = [
        replace(spec, w0_star=np.full((cfg.d, cfg.d), np.nan))
        for spec in make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    ]
    assert repr(analytic_baseline_floor(specs, cfg, 10_000)) == expected


# Each task's six normalized sums (rho.rho, rho.p, rho.t, p.p, p.t, t.t) of
# `synth._floor_sums`, as reprs: the floor's exact inputs, and the values a
# batched floor must reproduce. A config with a zero anchor has every plane
# degenerate, so its t sums are exactly zero.
FLOOR_SUMS = [
    (dict(r=2, noise_std=0.1, seed=41), False, [
        ["3065.8660317936524", "15.919606938421037", "-3065.824049860915",
         "3970.395735524681", "-15.919329456051052", "3065.7921071844826"],
        ["3105.9662038628762", "-8.08503535975633", "3105.9528105778513",
         "4013.5792531435004", "-8.140635934415437", "3105.949400238635"],
    ]),
    (dict(r=4, d=40, n_task=3, sep=2.0, noise_std=0.1, seed=43), False, [
        ["2055.591589969959", "-935.1825442761584", "-1832.631509663334",
         "2256.837206704776", "-4.376333412467987", "2017.4312936608255"],
        ["2254.5801880211066", "2254.571835354005", "-4.413802931788875",
         "2254.5734080116686", "-4.411813287316705", "2043.254555683279"],
        ["2072.117630593589", "-936.3531070516268", "1850.2503069100594",
         "2245.240325162388", "-2.194466730401066", "2033.7892897862962"],
    ]),
    (dict(d=8, n_task=3, sep=2.0, noise_std=0.5, seed=47), True, [
        ["923.8595645448346", "923.647060440825", "0.0", "923.6814165885818", "0.0", "0.0"],
        ["918.6967190048862", "918.585958874039", "0.0", "918.7229312366375", "0.0", "0.0"],
        ["913.487294847901", "913.2740032851871", "0.0", "913.3099875794862", "0.0", "0.0"],
    ]),
]


@pytest.mark.parametrize(
    "kwargs, zero_anchor, expected", FLOOR_SUMS, ids=["r2", "d40r4", "degenerate"]
)
def test_floor_sums_match_recorded_values(kwargs, zero_anchor, expected):
    cfg = config(**kwargs)
    specs = make_rotation_separable_tasks(cfg, Rng(cfg.seed))
    if zero_anchor:
        specs = [replace(spec, q_star=np.zeros(cfg.r)) for spec in specs]
    sums = synth._floor_sums(specs, cfg, 10_000)
    assert [[repr(value) for value in row] for row in sums.tolist()] == expected
