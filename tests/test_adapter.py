import json
import math

import numpy as np
import pytest

from rotmole import adapter, numkit
from rotmole.adapter import (
    MODES,
    AdapterConfig,
    count_trainable_routing_params,
    forward,
    forward_batch,
    init_adapter,
    layer_from_doc,
    layer_to_doc,
    load_layer,
    mlp_hidden_dim,
    mlp_variant,
    route,
    routing_param_count,
    trainable_params,
)
from rotmole.autograd import randomize_layer
from rotmole.numkit import ConfigError, Rng, ShapeError, softmax

from oracle import expert_terms, same_bits


def small_config(mode="rotmole", r=3, n=4, k=2, d=8):
    mlp_hidden = 5 if mode == "mlp_gate" else None
    return AdapterConfig(d=d, r=r, n=n, k=k, mode=mode, mlp_hidden=mlp_hidden)


def test_config_validation():
    with pytest.raises(ConfigError):
        AdapterConfig(d=4, r=1, n=2, k=1)
    with pytest.raises(ConfigError):
        AdapterConfig(d=4, r=2, n=2, k=3)
    with pytest.raises(ConfigError):
        AdapterConfig(d=4, r=2, n=2, k=1, mode="nope")
    with pytest.raises(ConfigError):
        AdapterConfig(d=4, r=2, n=2, k=1, mode="mlp_gate")  # needs mlp_hidden
    for mode in ("rotmole", "scaling_only"):
        with pytest.raises(ConfigError, match="mlp_hidden must be null outside mlp_gate mode: 5"):
            AdapterConfig(d=4, r=2, n=2, k=1, mode=mode, mlp_hidden=5)


def test_init_forward_equals_base_map():
    # B starts at zero, so the adapter delta vanishes for any input
    layer = init_adapter(small_config(), Rng(42))
    rng = Rng(1)
    for _ in range(10):
        x = rng.normals(8)
        y, _ = forward(layer, x)
        assert np.array_equal(y, layer.w0 @ x)


def test_init_angles_exactly_zero():
    layer = init_adapter(small_config(), Rng(42))
    rng = Rng(2)
    for _ in range(10):
        decision = route(layer, rng.normals(8))
        assert np.all(decision.theta == 0.0)


def test_init_same_seed_bit_identical():
    a = init_adapter(small_config(), Rng(7))
    b = init_adapter(small_config(), Rng(7))
    assert np.array_equal(a.w0, b.w0)
    for ea, eb in zip(a.experts, b.experts):
        assert np.array_equal(ea.a, eb.a)
        assert np.array_equal(ea.b, eb.b)
    assert np.array_equal(a.router.w_g, b.router.w_g)
    assert np.array_equal(a.router.q, b.router.q)


def test_route_hand_computed_gates():
    layer = init_adapter(small_config(), Rng(0))
    # logits are x . W_g; steer them through the first input coordinate
    layer.router.w_g[...] = 0.0
    layer.router.w_g[0, :] = [1.0, 2.0, 3.0, 4.0]
    decision = route(layer, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    assert decision.selected == (3, 2)
    e = math.e
    assert abs(decision.g[0] - e**4 / (e**4 + e**3)) < 1e-12
    assert abs(decision.g[1] - e**3 / (e**4 + e**3)) < 1e-12
    assert abs(float(decision.g.sum()) - 1.0) < 1e-12


def test_route_tie_break_lowest_index():
    layer = init_adapter(small_config(), Rng(0))
    layer.router.w_g[...] = 0.0  # all logits equal for any x
    decision = route(layer, Rng(5).normals(8))
    assert decision.selected == (0, 1)
    assert np.allclose(decision.g, [0.5, 0.5], atol=0)


def test_route_angle_closed_form():
    layer = init_adapter(small_config(), Rng(0))
    layer.router.w_theta[...] = 0.0
    layer.router.w_theta[0, :] = math.log(3.0)
    layer.router.w_g[...] = 0.0
    decision = route(layer, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    # sigmoid(ln 3) = 3/4 maps to pi/2
    assert abs(decision.theta[0] - math.pi / 2) < 1e-12


def test_route_shape_error():
    layer = init_adapter(small_config(), Rng(0))
    with pytest.raises(ShapeError):
        route(layer, np.zeros(7))


def test_forward_batch_shape_error():
    layer = init_adapter(small_config(), Rng(0))
    for xs in (np.zeros((3, 7)), np.zeros(8)):
        with pytest.raises(ShapeError, match="forward_batch: input shape"):
            forward_batch(layer, xs)


def test_route_angle_strictly_inside_period():
    layer = init_adapter(small_config(), Rng(0))
    layer.router.w_theta[...] = 0.0
    layer.router.w_theta[0, :] = 1000.0  # saturates the sigmoid to exactly 1.0
    decision = route(layer, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    assert np.all(decision.theta < math.pi)
    layer.router.w_theta[0, :] = -1000.0
    decision = route(layer, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    assert np.all(decision.theta > -math.pi)


def test_gate_logit_shift_invariance():
    layer = init_adapter(small_config(), Rng(9))
    rng = Rng(33)
    for _ in range(20):
        x = rng.normals(8)
        base = route(layer, x)
        shifted_layer = init_adapter(small_config(), Rng(9))
        # adding c to every logit = adding a rank-one update c * x_unit to W_g
        # is awkward; instead shift via an extra bias built from x itself
        c = rng.uniform(-5.0, 5.0)
        shifted_layer.router.w_g[...] = layer.router.w_g + c * np.outer(
            x / float(x @ x), np.ones(4)
        )
        shifted = route(shifted_layer, x)
        assert shifted.selected == base.selected
        assert np.abs(shifted.g - base.g).max() < 1e-12


def test_forward_rotation_off_matches_scaling_only():
    for r in (2, 3):
        rot_layer = init_adapter(small_config("rotmole", r=r), Rng(11))
        sca_layer = init_adapter(small_config("scaling_only", r=r), Rng(11))
        nonzero_b = Rng(99).normals(8 * r).reshape(8, r)
        for er, es in zip(rot_layer.experts, sca_layer.experts):
            er.b[...] = nonzero_b
            es.b[...] = nonzero_b
        rng = Rng(4)
        for _ in range(25):
            x = rng.normals(8)
            y_rot, _ = forward(rot_layer, x)
            y_sca, _ = forward(sca_layer, x)
            assert np.abs(y_rot - y_sca).max() < 1e-12


def test_forward_single_expert():
    config = AdapterConfig(d=6, r=2, n=1, k=1, mode="rotmole")
    layer = init_adapter(config, Rng(21))
    layer.experts[0].b[...] = Rng(50).normals(12).reshape(6, 2)
    x = Rng(3).normals(6)
    y, cache = forward(layer, x)
    assert cache.decision.g[0] == 1.0
    theta = float(cache.decision.theta[0])
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]]) @ (layer.experts[0].a @ x)
    expected = layer.w0 @ x + layer.experts[0].b @ rot
    assert np.abs(y - expected).max() < 1e-12


def test_forward_golden_dual_implementation():
    # Straight-line re-implementation of the layer map, building the full r x r
    # rotation matrix instead of the matrix-free path used by forward().
    config = small_config("rotmole", r=3, n=4, k=2, d=8)
    rng = Rng(42)
    layer = init_adapter(config, rng)
    for expert in layer.experts:
        expert.b[...] = rng.normals(8 * 3).reshape(8, 3)
    layer.router.w_theta[...] = rng.normals(8 * 4).reshape(8, 4) * 0.5
    x = rng.normals(8)

    logits = x @ layer.router.w_g
    s = np.exp(logits - logits.max())
    s /= s.sum()
    order = sorted(range(4), key=lambda i: (-s[i], i))[:2]
    sel = np.exp(logits[order] - logits[order].max())
    g = sel / sel.sum()
    y_ref = layer.w0 @ x
    for g_i, i in zip(g, order):
        theta = 2.0 * math.pi / (1.0 + math.exp(-float(x @ layer.router.w_theta[:, i]))) - math.pi
        u = layer.experts[i].a @ x
        e1 = u / np.linalg.norm(u)
        resid = layer.router.q[i] - float(layer.router.q[i] @ e1) * e1
        e2 = resid / np.linalg.norm(resid)
        basis = np.stack([e1, e2], axis=1)
        r2 = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        full = np.eye(3) - basis @ basis.T + basis @ r2 @ basis.T
        y_ref = y_ref + g_i * (layer.experts[i].b @ (full @ u))

    y, _ = forward(layer, x)
    assert np.abs(y - y_ref).max() < 1e-10


def test_forward_unselected_expert_is_inert():
    layer = init_adapter(small_config(), Rng(8))
    for expert in layer.experts:
        expert.b[...] = Rng(60).normals(24).reshape(8, 3)
    x = Rng(61).normals(8)
    y_before, cache = forward(layer, x)
    unselected = [i for i in range(4) if i not in cache.decision.selected]
    layer.experts[unselected[0]].b[...] = 123.456
    y_after, _ = forward(layer, x)
    assert np.array_equal(y_before, y_after)


def test_param_counts_formulas():
    d, n = 8, 4
    assert count_trainable_routing_params(small_config("scaling_only", r=2)) == d * n
    assert count_trainable_routing_params(small_config("rotmole", r=2)) == 2 * d * n
    assert (
        count_trainable_routing_params(small_config("rotmole", r=4))
        == 2 * d * n + 4 * n
    )
    mlp = small_config("mlp_gate", r=4)
    assert count_trainable_routing_params(mlp) == d * 5 + 5 * n


def test_param_counts_match_enumeration():
    for mode in ("scaling_only", "rotmole", "mlp_gate"):
        for r in (2, 3, 4):
            for n in (1, 4):
                config = small_config(mode, r=r, n=n, k=min(2, n))
                layer = init_adapter(config, Rng(1))
                assert routing_param_count(layer) == count_trainable_routing_params(config)
                # the layout table names the layer's arrays, in order, with their shapes
                built = [(name, arr.shape) for name, arr in trainable_params(layer).items()]
                assert built == list(adapter._param_shapes(config).items()), config


def test_trainable_params_excludes_frozen_base():
    layer = init_adapter(small_config(), Rng(1))
    names = set(trainable_params(layer))
    assert names == {"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "w_g", "w_theta", "q"}


def test_no_centers_at_rank_two():
    layer = init_adapter(small_config(r=2), Rng(1))
    assert layer.router.q is None


def test_mlp_hidden_dim():
    assert mlp_hidden_dim(AdapterConfig(d=4096, r=4, n=8, k=2)) == 16
    assert mlp_hidden_dim(AdapterConfig(d=8, r=4, n=4, k=2)) == 7
    # the rounding keeps the mlp gate within d + n parameters of the target
    for d, r, n in ((8, 4, 4), (32, 3, 5), (4096, 4, 8), (11, 2, 3)):
        config = AdapterConfig(d=d, r=r, n=n, k=1)
        mlp = mlp_variant(config)
        assert abs(count_trainable_routing_params(mlp) - (2 * d * n + r * n)) <= d + n


def test_mlp_hidden_dim_rank_two():
    # An r = 2 rotmole router has no anchors q: 2dn = 64 values at d=8, n=4,
    # which H = 5 matches with dH + Hn = 60.
    config = AdapterConfig(d=8, r=2, n=4, k=2)
    assert count_trainable_routing_params(config) == 64
    assert mlp_hidden_dim(config) == 5
    assert count_trainable_routing_params(mlp_variant(config)) == 60


def test_serialization_round_trip():
    for mode in ("scaling_only", "rotmole", "mlp_gate"):
        config = small_config(mode)
        layer = init_adapter(config, Rng(77))
        for expert in layer.experts:
            expert.b[...] = Rng(13).normals(8 * 3).reshape(8, 3)
        doc = json.loads(json.dumps(layer_to_doc(layer)))
        back = layer_from_doc(doc)
        assert back.config == layer.config
        assert np.array_equal(back.w0, layer.w0)
        for ea, eb in zip(layer.experts, back.experts):
            assert np.array_equal(ea.a, eb.a)
            assert np.array_equal(ea.b, eb.b)
        for name in ("w_g", "w_theta", "q", "mlp_w1", "mlp_w2"):
            a = getattr(layer.router, name)
            b = getattr(back.router, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)


def test_serialization_file_round_trip(tmp_path):
    layer = init_adapter(small_config(), Rng(123))
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer_to_doc(layer)) + "\n")  # as `rotmole train` writes it
    back = load_layer(path)
    assert np.array_equal(back.w0, layer.w0)
    y1, _ = forward(layer, Rng(9).normals(8))
    y2, _ = forward(back, Rng(9).normals(8))
    assert np.array_equal(y1, y2)


def _layer_doc(mode="rotmole"):
    return json.loads(json.dumps(layer_to_doc(init_adapter(small_config(mode), Rng(77)))))


def test_layer_file_missing_or_unknown_key_names_it(tmp_path):
    doc = _layer_doc()
    del doc["router"]["q"]
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"missing field 'router\.q'"):
        load_layer(path)
    doc = _layer_doc()
    doc["experts"][1]["c"] = None
    with pytest.raises(ConfigError, match=r"unknown layer field 'experts\.1\.c'"):
        layer_from_doc(doc)


def test_layer_file_part_not_an_object_rejected():
    with pytest.raises(ConfigError, match="^layer must be a JSON object$"):
        layer_from_doc([])
    doc = _layer_doc()
    doc["experts"][1] = [0.0]
    with pytest.raises(ConfigError, match=r"^layer field 'experts\.1' must be a JSON object$"):
        layer_from_doc(doc)
    for field in ("router", "w0"):
        doc = _layer_doc()
        doc[field] = "x"
        with pytest.raises(ConfigError, match=rf"^layer field '{field}' must be a JSON object$"):
            layer_from_doc(doc)


def test_layer_file_wrong_shape_rejected():
    doc = _layer_doc()
    doc["experts"][0]["b"] = {"rows": 3, "cols": 8, "data": [0.0] * 24}  # b0 is (8, 3)
    with pytest.raises(ConfigError, match=r"'experts\.0\.b' must be a 8x3 matrix"):
        layer_from_doc(doc)
    for bad in ("0.5", float("nan"), True):
        doc = _layer_doc()
        doc["w0"]["data"][0] = bad
        with pytest.raises(ConfigError, match=r"'w0\.data' must be a list of finite numbers"):
            layer_from_doc(doc)
    doc = _layer_doc()
    doc["experts"].pop()
    with pytest.raises(ConfigError, match="n=4 experts"):
        layer_from_doc(doc)
    doc = _layer_doc()
    doc["config"]["d"] = 2**20  # the layout is checked, never allocated: W0 would take 8 TiB
    with pytest.raises(ConfigError, match=r"'w0' must be a 1048576x1048576 matrix"):
        layer_from_doc(doc)


def test_layer_file_sizes_take_whole_numbers_only():
    # An n = 1 layer has an 8x1 w_g and a 1x3 q, and true == 1 in Python.
    layer = init_adapter(AdapterConfig(d=8, r=3, n=1, k=1), Rng(78))
    for name, key in (("w_g", "cols"), ("q", "rows")):
        doc = json.loads(json.dumps(layer_to_doc(layer)))
        doc["router"][name][key] = True
        with pytest.raises(ConfigError, match=rf"'router\.{name}\.{key}' must be a whole number, got true"):
            layer_from_doc(doc)
        doc["router"][name][key] = 1.0  # a whole float is taken as an int, as in configs
        assert np.array_equal(getattr(layer_from_doc(doc).router, name), getattr(layer.router, name))


def test_layer_file_draws_nothing(monkeypatch):
    # The loader takes the layout from the shape table, not from a throwaway
    # random layer.
    layers = [init_adapter(small_config(mode, r=r), Rng(79)) for mode in MODES for r in (2, 3)]
    docs = [json.loads(json.dumps(layer_to_doc(layer))) for layer in layers]

    def no_draw(*args):
        raise AssertionError("layer_from_doc drew a random matrix")

    monkeypatch.setattr(adapter, "kaiming_uniform", no_draw)
    for layer, doc in zip(layers, docs):
        back = layer_from_doc(doc)
        assert back.config == layer.config
        assert np.array_equal(back.w0, layer.w0)
        assert trainable_params(back).keys() == trainable_params(layer).keys()
        for name, arr in trainable_params(layer).items():
            assert np.array_equal(trainable_params(back)[name], arr), name


def test_layer_file_mlp_hidden_outside_mlp_gate_rejected(tmp_path):
    doc = _layer_doc()
    doc["config"]["mlp_hidden"] = 5
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"^config\.mlp_hidden must be null outside mlp_gate"):
        load_layer(path)


def test_layer_file_array_foreign_to_mode_rejected():
    doc = _layer_doc("scaling_only")
    doc["router"]["w_theta"] = _layer_doc("rotmole")["router"]["w_theta"]
    with pytest.raises(ConfigError, match=r"'router\.w_theta' must be null"):
        layer_from_doc(doc)


def test_gate_normalization_invariant():
    rng = Rng(55)
    for mode in ("scaling_only", "rotmole", "mlp_gate"):
        layer = init_adapter(small_config(mode), rng)
        for _ in range(20):
            decision = route(layer, rng.normals(8))
            assert abs(float(decision.g.sum()) - 1.0) < 1e-12
            assert np.all(decision.g > 0.0)
            assert len(set(decision.selected)) == len(decision.selected)


def test_load_layer_missing_file_names_path(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match=r"cannot read layer .*nope\.json") as info:
        load_layer(path)
    assert "\n" not in str(info.value)


def test_load_layer_invalid_json_names_path(tmp_path):
    path = tmp_path / "layer.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=r"layer .*layer\.json is not valid JSON") as info:
        load_layer(path)
    assert "\n" not in str(info.value)


def test_load_layer_not_utf8_names_path(tmp_path):
    path = tmp_path / "layer.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match=r"layer .*layer\.json is not valid UTF-8") as info:
        load_layer(path)
    assert "\n" not in str(info.value)


# At k = 1 the per-sample route sets the one gate to exactly 1 without a
# softmax; forward_batch keeps the general formula, so both must agree.
K1_CONFIGS = [small_config(mode, r=r, n=n, k=1) for mode in MODES for r in (2, 3, 4)
              for n in (1, 4)]


def random_k1_layer(config, seed=5):
    layer = init_adapter(config, Rng(seed))
    randomize_layer(layer, Rng(seed + 1))
    return layer


@pytest.mark.parametrize("config", K1_CONFIGS, ids=lambda c: f"{c.mode}-r{c.r}-n{c.n}")
def test_k1_gate_equals_the_softmax_of_its_logit(config):
    layer = random_k1_layer(config)
    xs = Rng(7).normals(6 * config.d).reshape(6, config.d)
    ys, bcache = forward_batch(layer, xs)
    for j, x in enumerate(xs):
        logits = adapter._gate_logits(layer, x)
        decision = route(layer, x)
        assert same_bits(decision.g, softmax(logits.take(decision.selected)))
        assert same_bits(decision.g, bcache.g[j]) and decision.selected == tuple(bcache.selected[j])
        y, cache = forward(layer, x)
        assert same_bits(cache.decision.g, decision.g) and same_bits(y, ys[j])
        for i in range(config.n):  # pinned to each expert, the own one included
            y_pinned, pinned = forward(layer, x, force_selected=(i,))
            assert same_bits(pinned.decision.g, softmax(logits.take((i,))))
            delta = expert_terms(layer, x, i, float(pinned.decision.theta[0]))[3]
            assert same_bits(y_pinned, layer.w0.dot(x) + 1.0 * delta)
            if (i,) == decision.selected:
                assert same_bits(y_pinned, y)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("mode", MODES)
def test_k1_nonfinite_logit_keeps_the_softmax_nan(mode, n, value):
    layer = random_k1_layer(small_config(mode, n=n, k=1))
    gate = layer.router.mlp_w2 if mode == "mlp_gate" else layer.router.w_g
    gate[:, n - 1] = value
    x = Rng(8).normals(8)
    with np.errstate(invalid="ignore", over="ignore"):
        logits = adapter._gate_logits(layer, x)
        expected = softmax(logits.take((n - 1,)))
        outputs = [forward(layer, x, force_selected=(n - 1,))]
        if n == 1:
            outputs.append(forward(layer, x))
    assert not math.isfinite(logits[n - 1]) and np.isnan(expected).all()
    for y, cache in outputs:
        assert same_bits(cache.decision.g, expected)
        assert np.isnan(y).all()


def test_pinned_k1_forward_takes_no_one_logit_softmax(monkeypatch):
    def softmax_of_several(logits):
        if logits.size == 1:
            raise AssertionError("softmax of a single logit")
        return numkit.softmax(logits)

    monkeypatch.setattr(adapter, "softmax", softmax_of_several)
    x = Rng(9).normals(8)
    for mode in MODES:
        layer = random_k1_layer(small_config(mode, n=4, k=1))
        for i in range(4):
            _, cache = forward(layer, x, force_selected=(i,))
            assert cache.decision.g.tolist() == [1.0]
