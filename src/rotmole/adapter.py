"""Routed low-rank adapter layer.

A layer is a frozen base matrix plus n low-rank experts (A_i, B_i) and a
router. The router always produces softmax scaling gates over all experts,
selects the top k, and renormalizes. In "rotmole" mode it additionally emits a
per-expert angle that rotates the expert's r-dimensional intermediate inside a
plane anchored at a learned center vector; "scaling_only" is the conventional
gate-values-only baseline, and "mlp_gate" swaps the linear scaling gate for a
two-layer MLP of matched trainable size.

`forward` handles one input and is the oracle of `forward_batch`, which
handles a batch and gives the same bits. It is also the inner loop of
gradient certification, two calls per certified scalar, so it is kept lean
without moving a bit (README, "Per-sample path"). The batch's (row, expert)
pairs are sorted by expert: a loop over experts runs only the d-sized
products on each expert's contiguous slice, and the rotation gate runs once
over all pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .numkit import (
    ConfigError,
    Matrix,
    Rng,
    ShapeError,
    Vector,
    from_doc,
    from_json,
    is_finite_number,
    kaiming_uniform,
    matvec,
    read_json,
    row_softmax,
    rowwise_matvec,
    rowwise_vecmat,
    sigmoid,
    softmax,
)
from .rotation import (
    PlaneBatch,
    RotationPlane,
    apply_rotation,
    apply_rotations,
    build_plane,
    build_planes,
    rotation_matrices_2d,
    rotation_matrix_2d,
)

MODES = ("scaling_only", "rotmole", "mlp_gate")

# Emitted angles stay strictly inside (-pi, pi) even when the sigmoid saturates.
THETA_LIMIT = float(np.nextafter(np.pi, 0.0))


@dataclass(frozen=True)
class AdapterConfig:
    d: int
    r: int
    n: int
    k: int
    mode: str = "rotmole"
    mlp_hidden: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.r < 2:
            raise ConfigError(f"r must be >= 2, got {self.r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"k must be in [1, n={self.n}], got {self.k}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "mlp_gate" and (self.mlp_hidden is None or self.mlp_hidden < 1):
            raise ConfigError(f"mlp_hidden must be positive in mlp_gate mode: {self.mlp_hidden}")


@dataclass
class LoraExpert:
    a: Matrix  # (r, d)
    b: Matrix  # (d, r)


@dataclass
class RouterParams:
    w_g: Matrix | None = None  # (d, n), absent in mlp_gate mode
    w_theta: Matrix | None = None  # (d, n), rotmole only
    q: Matrix | None = None  # (n, r) center vectors, rotmole with r > 2 only
    mlp_w1: Matrix | None = None  # (d, H), mlp_gate only
    mlp_w2: Matrix | None = None  # (H, n), mlp_gate only


@dataclass  # not frozen: a frozen dataclass costs about 1 us more per object
class RoutingDecision:
    selected: tuple[int, ...]  # k indices in descending gate order
    g: Vector  # k renormalized gate values, sum to 1
    theta: Vector  # k angles in radians, zeros outside rotmole mode


@dataclass
class AdapterLayer:
    config: AdapterConfig
    w0: Matrix  # (d, d), frozen
    experts: list[LoraExpert]
    router: RouterParams


@dataclass
class ForwardCache:
    """Every intermediate of one `forward` call. `backward` reads its input,
    selection and config; the per-sample oracle in tests/oracle.py the rest."""

    config: AdapterConfig
    x: Vector
    decision: RoutingDecision
    theta_logits: Vector  # raw rotation-gate logits for selected experts
    us: list[Vector]  # A_i x per selected expert
    planes: list[RotationPlane | None]
    rotated: list[Vector]
    deltas: list[Vector]  # B_i (rotated) per selected expert
    mlp_pre: Vector | None = None
    mlp_hidden: Vector | None = None


@dataclass
class ExpertRows:
    """A batch's (row, slot) pairs, sorted by expert, and what
    `forward_batch` computed for them.

    Each of the B rows of a batch selects k experts, which makes B*k pairs.
    They are stably sorted by expert, so each expert owns one contiguous
    slice of every per-pair array, with its rows in sample order.
    """

    spans: list[tuple[int, slice]]  # (expert, its slice) per expert with pairs, ascending
    experts: np.ndarray  # (B*k,) expert of each pair
    order: np.ndarray  # (B*k,) flat index of each pair into a (B, k) array
    rows: np.ndarray  # (B*k,) sample index of each pair
    us: Matrix  # (B*k, r) A_i x
    rotated: Matrix  # (B*k, r)
    sig: Vector | None = None  # rotmole: sigmoid of each pair's angle-gate logit
    cos: Vector | None = None  # rotmole: cos and sin of each pair's angle
    sin: Vector | None = None
    rotations: np.ndarray | None = None  # rotmole, r = 2: (B*k, 2, 2) matrices
    planes: PlaneBatch | None = None  # rotmole, r > 2


@dataclass
class BatchCache:
    """What the batched backward pass needs from one `forward_batch` call:
    per-row routing and deltas in (B, k) arrays, in each row's top-k order,
    and the per-pair results sorted by expert in `pairs`."""

    config: AdapterConfig
    xs: Matrix  # (B, d)
    selected: np.ndarray  # (B, k) expert indices, each row in descending gate order
    g: Matrix  # (B, k) renormalized gate values
    theta: Matrix  # (B, k) angles, zeros outside rotmole mode
    deltas: np.ndarray  # (B, k, d) B_i (rotated) per selected expert
    pairs: ExpertRows
    mlp_pre: Matrix | None = None
    mlp_hidden: Matrix | None = None


def count_trainable_routing_params(config: AdapterConfig) -> int:
    """Trainable router size: dn / 2dn / 2dn+rn / dH+Hn depending on mode."""
    d, r, n = config.d, config.r, config.n
    if config.mode == "scaling_only":
        return d * n
    if config.mode == "rotmole":
        return 2 * d * n + (r * n if r > 2 else 0)
    h = config.mlp_hidden
    return d * h + h * n


def mlp_hidden_dim(config: AdapterConfig) -> int:
    """Hidden width H that matches an MLP gate's size, dH + Hn, to the
    rotating router's."""
    target = count_trainable_routing_params(replace(config, mode="rotmole"))
    return max(1, int(math.floor(target / (config.d + config.n) + 0.5)))


def mlp_variant(config: AdapterConfig) -> AdapterConfig:
    """Size-equivalent MLP-gate configuration derived from `config`."""
    return replace(config, mode="mlp_gate", mlp_hidden=mlp_hidden_dim(config))


def draw_param(name: str, shape: tuple[int, int], rng: Rng) -> Matrix:
    """Kaiming-uniform draw of the `trainable_params` array `name`. The router
    maps are drawn as (out, in), for their fan-in, and stored transposed."""
    if name in ("w_g", "w_theta", "mlp_w1", "mlp_w2"):
        return np.ascontiguousarray(kaiming_uniform(shape[1], shape[0], rng).T)
    return kaiming_uniform(shape[0], shape[1], rng)


def init_adapter(config: AdapterConfig, rng: Rng) -> AdapterLayer:
    """Fresh layer: B and the rotation gate start at zero so the adapter delta
    and all angles are exactly zero; everything else is Kaiming-uniform."""
    d, r, n = config.d, config.r, config.n
    w0 = kaiming_uniform(d, d, rng)
    experts = [
        LoraExpert(a=draw_param(f"a{i}", (r, d), rng), b=np.zeros((d, r))) for i in range(n)
    ]
    router = RouterParams()
    if config.mode == "mlp_gate":
        h = config.mlp_hidden
        router.mlp_w1 = draw_param("mlp_w1", (d, h), rng)
        router.mlp_w2 = draw_param("mlp_w2", (h, n), rng)
    else:
        router.w_g = draw_param("w_g", (d, n), rng)
        if config.mode == "rotmole":
            router.w_theta = np.zeros((d, n))
            if r > 2:
                router.q = draw_param("q", (n, r), rng)
    return AdapterLayer(config, w0, experts, router)


def _gate_logits(layer: AdapterLayer, x: Vector):
    """Gate logits plus MLP intermediates (None outside mlp_gate mode)."""
    router = layer.router
    if layer.config.mode == "mlp_gate":
        pre = x @ router.mlp_w1
        hidden = np.maximum(pre, 0.0)
        return hidden @ router.mlp_w2, pre, hidden
    return x @ router.w_g, None, None


def _clamp_angle(theta: float) -> float:
    return min(max(theta, -THETA_LIMIT), THETA_LIMIT)


def _route_full(layer: AdapterLayer, x: Vector, force_selected=None):
    config = layer.config
    if x.ndim != 1 or x.shape[0] != config.d:
        raise ShapeError(f"route: input shape {x.shape} does not match d={config.d}")
    logits, mlp_pre, mlp_hidden = _gate_logits(layer, x)
    if force_selected is None:
        s = softmax(logits).tolist()
        order = sorted(range(config.n), key=lambda i: (-s[i], i))
        selected = tuple(order[: config.k])
    else:
        selected = tuple(force_selected)
    # Renormalizing the selected softmax values cancels the full denominator,
    # so compute g directly from the selected logits: same value, and exactly
    # independent of unselected logits.
    g = softmax(logits.take(selected))
    if config.mode == "rotmole":
        w_theta = layer.router.w_theta
        t_list = [float(x @ w_theta[:, i]) for i in selected]
        angles = [_clamp_angle(2.0 * math.pi * sigmoid(t) - math.pi) for t in t_list]
        theta_logits, theta = np.array(t_list), np.array(angles)
    else:
        theta_logits, theta = np.zeros(len(selected)), np.zeros(len(selected))
    decision = RoutingDecision(selected, g, theta)
    return decision, theta_logits, mlp_pre, mlp_hidden


def route(layer: AdapterLayer, x: Vector) -> RoutingDecision:
    """Top-k selection on scaling-gate values, renormalized, plus angles."""
    decision, _, _, _ = _route_full(layer, x)
    return decision


def forward(
    layer: AdapterLayer, x: Vector, *, force_selected=None
) -> tuple[Vector, ForwardCache]:
    """y = W0 x + sum over selected experts of g_i * B_i * rotate(A_i x).

    `force_selected` pins the expert set regardless of gate values; the
    finite-difference harness uses it to keep top-k selection fixed while
    parameters are perturbed.
    """
    config = layer.config
    decision, theta_logits, mlp_pre, mlp_hidden = _route_full(layer, x, force_selected)
    rotating = config.mode == "rotmole"
    y = matvec(layer.w0, x)
    us, planes, rotated, deltas = [], [], [], []
    for i, g_i, theta in zip(decision.selected, decision.g.tolist(), decision.theta.tolist()):
        expert = layer.experts[i]
        u = expert.a @ x
        plane = None
        if not rotating:
            rot = u
        elif config.r == 2:
            rot = rotation_matrix_2d(theta) @ u
        else:
            plane = build_plane(u, layer.router.q[i])
            rot = apply_rotation(u, plane, theta)
        delta = expert.b @ rot
        y += g_i * delta
        us.append(u)
        planes.append(plane)
        rotated.append(rot)
        deltas.append(delta)
    cache = ForwardCache(
        config=config,
        x=x,
        decision=decision,
        theta_logits=theta_logits,
        us=us,
        planes=planes,
        rotated=rotated,
        deltas=deltas,
        mlp_pre=mlp_pre,
        mlp_hidden=mlp_hidden,
    )
    return y, cache


def forward_batch(layer: AdapterLayer, xs: Matrix) -> tuple[Matrix, BatchCache]:
    """`forward` of every row of xs at once; row j of the output is
    `forward(layer, xs[j])[0]` bit for bit.

    The (row, slot) selections are sorted by expert (see `ExpertRows`), as
    Switch Transformer and MegaBlocks dispatch tokens. A loop over experts
    does only the d-sized products, each as one stacked product over the
    expert's slice: A_i x, the angle-gate logit and B_i (rotated). The logit
    stays a dot with the strided column `w_theta[:, i]`, which is what
    `forward` computes, so it keeps its bits. The r-dimensional angle gate,
    Gram-Schmidt planes and rotation run once over all pairs. Every product
    is a row-wise form of the one `forward` uses (see numkit), ranking is a
    stable sort of the same softmax values, and the angle gate's sigmoid,
    cosine and sine are taken per value with the same scalar functions, so
    the per-sample `forward` is the oracle of this path.
    """
    return _forward_batch(layer, xs, None)


def _forward_batch(layer: AdapterLayer, xs: Matrix, base: Matrix | None):
    """`forward_batch`, on `base` as the row-wise products W0 x of xs when given."""
    config = layer.config
    if xs.ndim != 2 or xs.shape[1] != config.d:
        raise ShapeError(f"forward_batch: input shape {xs.shape} does not match d={config.d}")
    router = layer.router
    mlp_pre = mlp_hidden = None
    if config.mode == "mlp_gate":
        mlp_pre = rowwise_vecmat(xs, router.mlp_w1)
        mlp_hidden = np.maximum(mlp_pre, 0.0)
        logits = rowwise_vecmat(mlp_hidden, router.mlp_w2)
    else:
        logits = rowwise_vecmat(xs, router.w_g)
    selected = np.argsort(-row_softmax(logits), axis=1, kind="stable")[:, : config.k]
    g = row_softmax(np.take_along_axis(logits, selected, axis=1))
    flat = selected.ravel()
    order = np.argsort(flat, kind="stable")  # pairs by expert, rows ascending within one
    counts = np.bincount(flat, minlength=config.n).tolist()
    ends = itertools.accumulate(counts)
    spans = [(i, slice(end - c, end)) for i, (c, end) in enumerate(zip(counts, ends)) if c]
    rows = order // config.k
    us = np.empty((order.size, config.r))
    # rotated is us itself outside rotmole mode
    pairs = ExpertRows(spans, flat[order], order, rows, us=us, rotated=us)
    theta = np.zeros(selected.shape)
    t_logits = np.empty(order.size)
    for i, span in spans:
        x = xs.take(rows[span], axis=0)
        us[span] = rowwise_matvec(layer.experts[i].a, x)
        if config.mode == "rotmole":
            t_logits[span] = rowwise_vecmat(x, router.w_theta[:, i : i + 1])[:, 0]
    if config.mode == "rotmole":
        pairs.sig = np.fromiter(map(sigmoid, t_logits.tolist()), float, order.size)
        angles = np.clip(2.0 * math.pi * pairs.sig - math.pi, -THETA_LIMIT, THETA_LIMIT)
        theta.put(order, angles)
        angles = angles.tolist()
        pairs.cos = np.fromiter(map(math.cos, angles), float, order.size)
        pairs.sin = np.fromiter(map(math.sin, angles), float, order.size)
        if config.r == 2:
            pairs.rotations = rotation_matrices_2d(pairs.cos, pairs.sin)
            pairs.rotated = np.matmul(pairs.rotations, us[:, :, None])[:, :, 0]
        else:
            pairs.planes = build_planes(us, router.q.take(pairs.experts, axis=0))
            pairs.rotated = apply_rotations(us, pairs.planes, pairs.cos, pairs.sin)
    deltas = np.empty((order.size, config.d))  # rows in (row, slot) order
    for i, span in spans:
        deltas[order[span]] = rowwise_matvec(layer.experts[i].b, pairs.rotated[span])
    deltas = deltas.reshape(selected.shape + (config.d,))
    ys = rowwise_matvec(layer.w0, xs) if base is None else base
    for p in range(config.k):
        ys = ys + g[:, p : p + 1] * deltas[:, p]
    cache = BatchCache(config, xs, selected, g, theta, deltas, pairs, mlp_pre, mlp_hidden)
    return ys, cache


# ---------------------------------------------------------------------------
# Parameter enumeration (shared by the optimizer and the gradient checker)
# ---------------------------------------------------------------------------


def trainable_params(layer: AdapterLayer) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed by group name.

    W0 is frozen and deliberately absent. Mutating the returned arrays mutates
    the layer.
    """
    out: dict[str, np.ndarray] = {}
    for i, expert in enumerate(layer.experts):
        out[f"a{i}"] = expert.a
        out[f"b{i}"] = expert.b
    out.update(_router_arrays(layer.router))
    return out


def _router_arrays(router: RouterParams) -> dict[str, np.ndarray]:
    """The router arrays the layer's mode has, in field order."""
    return {
        f.name: arr for f in fields(RouterParams) if (arr := getattr(router, f.name)) is not None
    }


def routing_param_count(layer: AdapterLayer) -> int:
    """Actual trainable value count in the router arrays."""
    return sum(arr.size for arr in _router_arrays(layer.router).values())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _encode_matrix(m: np.ndarray | None):
    if m is None:
        return None
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.flatten().tolist()}


def _members(doc, keys, where: str) -> list:
    """The values of a layer-document object that must hold exactly `keys`,
    in that order; `where` is the object's dotted name."""
    if not isinstance(doc, dict):
        raise ConfigError(f"layer field '{where}' must be a JSON object" if where
                          else "layer must be a JSON object")
    prefix = f"{where}." if where else ""
    for key in keys:
        if key not in doc:
            raise ConfigError(f"layer missing field '{prefix}{key}'")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown layer field '{prefix}{key}'")
    return [doc[key] for key in keys]


def _decode_matrix(obj, like: np.ndarray | None, where: str) -> np.ndarray | None:
    """The matrix `obj` of a layer document: null where the layout array
    `like` is None, else a matrix of like's shape."""
    if like is None:
        if obj is not None:
            raise ConfigError(f"layer field '{where}' must be null for this config")
        return None
    rows, cols, data = _members(obj, ("rows", "cols", "data"), where)
    rows = from_json(int, rows, f"layer field '{where}.rows'")
    cols = from_json(int, cols, f"layer field '{where}.cols'")
    if not isinstance(data, list) or not all(map(is_finite_number, data)):
        raise ConfigError(f"layer field '{where}.data' must be a list of finite numbers")
    if (rows, cols) != like.shape or len(data) != like.size:
        raise ConfigError(
            f"layer field '{where}' must be a {like.shape[0]}x{like.shape[1]} matrix, "
            f"got rows={rows}, cols={cols} and {len(data)} values"
        )
    return np.array(data, dtype=np.float64).reshape(like.shape)


def layer_to_doc(layer: AdapterLayer) -> dict:
    return {
        "config": asdict(layer.config),
        "w0": _encode_matrix(layer.w0),
        "experts": [
            {"a": _encode_matrix(e.a), "b": _encode_matrix(e.b)} for e in layer.experts
        ],
        "router": {
            f.name: _encode_matrix(getattr(layer.router, f.name)) for f in fields(RouterParams)
        },
    }


def layer_from_doc(doc) -> AdapterLayer:
    """Inverse of `layer_to_doc`. The document must hold the arrays that
    `init_adapter` gives its config, with the same shapes, and no others."""
    config, w0, experts, router = _members(doc, ("config", "w0", "experts", "router"), "")
    config = from_doc(AdapterConfig, config, "config")
    layer = init_adapter(config, Rng(0))  # the layout the document must match
    layer.w0 = _decode_matrix(w0, layer.w0, "w0")
    if not isinstance(experts, list) or len(experts) != config.n:
        raise ConfigError(f"layer field 'experts' must be a list of n={config.n} experts")
    for i, (expert, expert_doc) in enumerate(zip(layer.experts, experts)):
        a, b = _members(expert_doc, ("a", "b"), f"experts.{i}")
        expert.a = _decode_matrix(a, expert.a, f"experts.{i}.a")
        expert.b = _decode_matrix(b, expert.b, f"experts.{i}.b")
    names = [f.name for f in fields(RouterParams)]
    for name, obj in zip(names, _members(router, names, "router")):
        like = getattr(layer.router, name)
        setattr(layer.router, name, _decode_matrix(obj, like, f"router.{name}"))
    return layer


def load_layer(path) -> AdapterLayer:
    return layer_from_doc(read_json(path, "layer"))
