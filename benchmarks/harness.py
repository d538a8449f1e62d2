"""Workloads of the rotmole benchmark and the loop that times them.

A workload fixes one layer shape and the work done at it. Every run sets the
workload up several times (fresh import of the package, task construction,
held-out set, layer init) and then repeats whole rounds until the time is up.
One round trains each arm for a few chunks of steps, evaluating it on the
held-out set after each, runs the scaling-only floor oracle once and runs the
gradient-certification trials. Each end-to-end metric is built from medians
over every chunk, evaluation pass, floor call or trial of the run. After the
rounds, the outputs are checked against the reference computations in
`checks.py`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from spans import Tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPEATS = 9
CHUNKS = 4  # `train` calls per arm per round
MIN_ROUNDS = 2
NOISE_STD = 0.01
FLOOR_MC = 10_000  # the smallest sample count analytic_baseline_floor accepts
CHECK_SAMPLES = 32  # held-out inputs per arm compared with the reference forward
DIRECTION_SAMPLES = 8  # batch size of the directional-derivative check
PROBE_INPUTS = 64
PROBE_SEED = 20240611
# SpeedProbe medians on the reference machine (see README). They only set the
# scale, and must stay the same between commits whose figures are compared.
PROBE_REF_SMALL, PROBE_REF_WIDE, PROBE_REF_SWEEP = 2.4e-3, 4.4e-3, 2.7e-3


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    r: int
    n: int
    k: int
    n_task: int
    phi_separation: float
    per_task_batch: int
    lr0: float
    eval_per_task: int
    chunk_steps: int  # training steps per `train` call
    gradcheck_trials: int  # trials per gradcheck config per round
    gradcheck_arms: tuple[str, ...]
    gradcheck_n: int  # experts of the gradcheck layers (k stays the workload's)
    learning_checks: bool  # the small shape learns visibly within a run
    probe_ref_s: float  # SpeedProbe's time on the reference machine

    def tiny(self) -> "Workload":
        """Same structure at a size that runs in seconds (for the self-check)."""
        return replace(self, d=min(self.d, 24), eval_per_task=8, gradcheck_trials=1)


ARMS = ("rotmole", "rotmole_r2", "scaling", "mlp")
# Arms held to the learning-progress check. Not rotmole_r2: at r = 2 the
# generator's plane orientation (u turned toward q*) flips from sample to
# sample, so a fixed 2-D rotation cannot fit the tasks, and SGD noise can
# leave the held-out MSE above its start.
LEARNING_ARMS = ("rotmole", "scaling", "mlp")
ARM_METRIC = {
    "rotmole": "rotmole_train_samples_per_s",
    "rotmole_r2": "rotmole_r2_train_samples_per_s",
    "scaling": "scaling_train_samples_per_s",
    "mlp": "mlp_train_samples_per_s",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-compare", d=16, r=3, n=1, k=1, n_task=2, phi_separation=math.pi,
                 per_task_batch=32, lr0=1e-2, eval_per_task=256, chunk_steps=4,
                 gradcheck_trials=4, gradcheck_arms=ARMS, gradcheck_n=1, learning_checks=True,
                 probe_ref_s=PROBE_REF_SMALL),
        Workload("wide-train", d=256, r=4, n=8, k=2, n_task=4, phi_separation=math.pi / 2,
                 per_task_batch=16, lr0=3e-4, eval_per_task=64, chunk_steps=2,
                 gradcheck_trials=1, gradcheck_arms=("rotmole",), gradcheck_n=2,
                 learning_checks=False, probe_ref_s=PROBE_REF_WIDE),
        Workload("gradcheck-sweep", d=32, r=4, n=4, k=2, n_task=4, phi_separation=math.pi / 2,
                 per_task_batch=16, lr0=3e-4, eval_per_task=64, chunk_steps=1,
                 gradcheck_trials=4, gradcheck_arms=ARMS, gradcheck_n=4, learning_checks=False,
                 probe_ref_s=PROBE_REF_SWEEP),
    )
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def fresh_import():
    """Import the package from scratch, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "rotmole" or m.startswith("rotmole.")]:
        del sys.modules[name]
    return importlib.import_module("rotmole")


@dataclass
class Arm:
    name: str
    dataset: object  # DatasetConfig
    train_cfg: object  # TrainConfig
    specs: list
    held_out: list
    layer: object
    data_rng: object


def arm_configs(rm, wl: Workload, n: int | None = None) -> dict:
    base = rm.AdapterConfig(d=wl.d, r=wl.r, n=n or wl.n, k=wl.k, mode="rotmole")
    return {
        "rotmole": base,
        "rotmole_r2": replace(base, r=2),
        "scaling": replace(base, mode="scaling_only"),
        "mlp": rm.adapter.mlp_variant(base),
    }


def setup(rm, wl: Workload, seed: int) -> list[Arm]:
    """The `compare` flow's preparation, once per arm: tasks from the data seed,
    the held-out set from the same stream, the layer from the init seed with
    the generating base map as its frozen W0."""
    arms = []
    for name, adapter in arm_configs(rm, wl).items():
        dataset = rm.DatasetConfig(
            d=wl.d, r=adapter.r, n_task=wl.n_task, noise_std=NOISE_STD,
            samples_per_task_per_batch=wl.per_task_batch,
            phi_separation=wl.phi_separation, seed=seed,
        )
        data_rng = rm.Rng(dataset.seed)
        specs = rm.make_rotation_separable_tasks(dataset, data_rng)
        held_out = []
        for _ in range(math.ceil(wl.eval_per_task / wl.per_task_batch)):
            held_out.extend(rm.sample_batch(specs, dataset, data_rng))
        layer = rm.init_adapter(adapter, rm.Rng(seed + 1))
        layer.w0 = specs[0].w0_star.copy()
        train_cfg = rm.TrainConfig(
            steps=wl.chunk_steps, lr0=wl.lr0, seed=seed + 1,
            eval_every=wl.chunk_steps, theta_log_every=wl.chunk_steps,
        )
        arms.append(Arm(name, dataset, train_cfg, specs, held_out, layer, data_rng))
    return arms


# ---------------------------------------------------------------------------
# Timed rounds
# ---------------------------------------------------------------------------


class SpeedProbe:
    """How slow the machine runs right now, relative to the reference machine.

    A shared machine changes speed by up to 2x for seconds to minutes at a
    time, which no number of repeats inside one run averages out. So every
    timed unit is bracketed by this probe: fixed work of its own (`work`),
    which no check and no package code shares, so a change to either cannot
    move it. A call returns the probe's time over the workload's
    `probe_ref_s`, its time on the reference machine; timings are divided by
    it and rates multiplied.
    """

    def __init__(self, wl: Workload):
        rng = np.random.default_rng(PROBE_SEED)

        def mat(*shape):
            return rng.standard_normal(shape) / math.sqrt(shape[-1])

        self.k = wl.k
        self.w0, self.w_g, self.w_theta = mat(wl.d, wl.d), mat(wl.d, wl.n), mat(wl.d, wl.n)
        self.a, self.b, self.q = mat(wl.n, wl.r, wl.d), mat(wl.n, wl.d, wl.r), mat(wl.n, wl.r)
        self.xs = [rng.standard_normal(wl.d) for _ in range(PROBE_INPUTS)]
        self.ref_s = wl.probe_ref_s

    def __call__(self) -> float:
        t0 = perf_counter()
        self.work()
        return (perf_counter() - t0) / self.ref_s

    def work(self) -> None:
        """Per input, one forward of a fixed mixture of low-rank experts of the
        workload's shape, each expert's output turned in the plane of (A x, q):
        the same mix of small-array and interpreter work as the package's
        per-sample path."""
        for x in self.xs:
            logits = x @ self.w_g
            gates = np.exp(logits - np.max(logits))
            gates /= np.sum(gates)
            y = self.w0 @ x
            for i in np.argsort(-gates, kind="stable")[: self.k]:
                u = self.a[i] @ x
                theta = math.pi * math.tanh(float(x @ self.w_theta[:, i]) / 2.0)
                u_len = math.sqrt(float(u @ u))
                e1 = u / u_len
                e2 = self.q[i] - float(self.q[i] @ e1) * e1
                e2 /= math.sqrt(float(e2 @ e2))
                turned = u + u_len * ((math.cos(theta) - 1.0) * e1 + math.sin(theta) * e2)
                y += gates[i] * (self.b[i] @ turned)


@dataclass
class Round:
    wall: float  # seconds, as measured
    slowness: float  # median speed-probe reading of the round
    traced: bool
    # Normalized figures (see SpeedProbe) from here on.
    chunk_s: dict  # arm -> seconds of each of its training chunks
    eval_s: dict  # arm -> seconds of each of its held-out evaluation passes
    eval_samples: int
    floor_s: float
    floor: float
    trial_s: dict  # gradcheck config -> seconds of each of its trials
    trial_params: dict  # gradcheck config -> trainable scalars of one trial
    gradcheck_params: int
    final_mse: dict  # arm -> per-task MSE after this round's chunk
    attempted: int
    failed: int


@dataclass
class RunState:
    rm: object
    wl: Workload
    seed: int
    arms: list
    probe: SpeedProbe
    losses: list
    thetas: dict  # arm -> ThetaRecords
    fd_worst: float = 0.0
    fd_trial: dict | None = None


def certify(rm, config, rng) -> dict:
    """One gradient-certification trial, made as `gradcheck_trials` makes it:
    a randomized layer, an input off the degenerate set, a random target,
    `backward` and `finite_diff_grad` with the expert set pinned. The verdict
    is checks.fd_disagreement, not grad_check's (see there)."""
    d = config.d
    layer = rm.init_adapter(config, rng)
    rm.autograd.randomize_layer(layer, rng)
    x = rng.normals(d)
    while rm.autograd.near_degenerate(layer, x):
        x = rng.normals(d)
    target = rng.normals(d)
    y, cache = rm.forward(layer, x)
    analytic = rm.backward(layer, cache, 2.0 * (y - target) / d)
    selected = cache.decision.selected

    def loss_fn(lay) -> float:
        y_pert, _ = rm.forward(lay, x, force_selected=selected)
        return float(np.mean((y_pert - target) ** 2))

    numeric = rm.autograd.finite_diff_grad(loss_fn, layer, checks.FD_STEP)
    return {"analytic": analytic, "numeric": numeric,
            "loss": float(np.mean((y - target) ** 2)), "d": d}


def run_round(st: RunState, tracer: Tracer | None) -> Round:
    """Train every arm for CHUNKS chunks, evaluating it after each, then run
    the floor oracle and certify gradients.

    `train` gets an empty evaluation list, so its built-in evaluations cost
    nothing; the held-out pass after each chunk is timed on its own. The speed
    probe runs between consecutive timed units; each unit's times are divided
    by the mean slowness of the probes on either side of it.
    """
    rm, wl = st.rm, st.wl
    train, evaluate = rm.train, rm.evaluate
    if tracer is not None:
        tracer.install()
        train = tracer.wrap("trainer.train", train, phase="train")
        evaluate = tracer.wrap("trainer.evaluate", evaluate, phase="eval")
    attempted = failed = 0
    chunk_s = {arm.name: [] for arm in st.arms}
    eval_s = {arm.name: [] for arm in st.arms}
    trial_s = {name: [] for name in wl.gradcheck_arms}
    final_mse, trial_params = {}, {}
    eval_samples = gc_params = 0
    slowness = [st.probe()]

    def bracket() -> float:
        slowness.append(st.probe())
        return (slowness[-2] + slowness[-1]) / 2.0

    t_round = perf_counter()
    try:
        for _ in range(CHUNKS):
            for arm in st.arms:
                ops = wl.chunk_steps + 1  # steps, plus the held-out evaluation
                attempted += ops
                t0 = perf_counter()
                try:
                    _, metrics, thetas = train(
                        arm.layer, arm.specs, arm.dataset, arm.train_cfg, arm.data_rng, []
                    )
                except rm.TrainingDiverged:
                    failed += ops
                    bracket()
                    continue
                train_s = perf_counter() - t0
                t0 = perf_counter()
                mse = evaluate(arm.layer, arm.held_out)
                eval_seconds = perf_counter() - t0
                slow = bracket()
                chunk_s[arm.name].append(train_s / slow)
                eval_s[arm.name].append(eval_seconds / slow)
                eval_samples += len(arm.held_out)
                final_mse[arm.name] = mse
                st.losses.extend(m.loss for m in metrics)
                st.losses.extend(mse.values())
                st.thetas[arm.name].extend(thetas)

        if tracer is not None:
            tracer.phase = "floor"
        main = st.arms[0]
        attempted += 1
        t0 = perf_counter()
        floor = rm.analytic_baseline_floor(main.specs, main.dataset, FLOOR_MC)
        floor_s = (perf_counter() - t0) / bracket()

        if tracer is not None:
            tracer.phase = "gradcheck"
        configs = arm_configs(rm, wl, wl.gradcheck_n)
        gc_rng = rm.Rng(st.seed + 2)  # the same trials every round
        for name in wl.gradcheck_arms:
            elapsed = []
            for _ in range(wl.gradcheck_trials):
                t0 = perf_counter()
                trial = certify(rm, configs[name], gc_rng)
                elapsed.append(perf_counter() - t0)
                trial_params[name] = sum(a.size for a in trial["analytic"].values())
                gc_params += trial_params[name]
                worst = checks.fd_disagreement(**trial)
                st.fd_worst = max(st.fd_worst, worst)
                st.fd_trial = trial
                attempted += 1
                failed += not worst <= 1.0
            slow = bracket()
            trial_s[name].extend(t / slow for t in elapsed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "checks"
    return Round(
        wall=perf_counter() - t_round,
        slowness=statistics.median(slowness),
        traced=tracer is not None,
        chunk_s=chunk_s,
        eval_s=eval_s,
        eval_samples=eval_samples,
        floor_s=floor_s,
        floor=floor,
        trial_s=trial_s,
        trial_params=trial_params,
        gradcheck_params=gc_params,
        final_mse=final_mse,
        attempted=attempted,
        failed=failed,
    )


# ---------------------------------------------------------------------------
# Evidence for the output checks
# ---------------------------------------------------------------------------


def collect_evidence(st: RunState, rounds: list[Round], run_dir: Path) -> checks.Evidence:
    rm, wl, seed = st.rm, st.wl, st.seed
    ev = checks.Evidence(noise_std=NOISE_STD, learning=wl.learning_checks,
                         fd_worst=st.fd_worst, fd_trial=st.fd_trial)
    ev.losses = list(st.losses)
    rng = np.random.default_rng(seed)

    configs = arm_configs(rm, wl)
    for arm in st.arms:
        xs = [s.x for s in arm.held_out[:CHECK_SAMPLES]]
        compare_forward(rm, ev, f"trained {arm.name}", arm.layer, xs)
        # A randomized layer of the same config: B and the angle gate far from
        # zero, so the expert terms are a large share of y.
        layer = rm.init_adapter(configs[arm.name], rm.Rng(seed + 3))
        rm.autograd.randomize_layer(layer, rm.Rng(seed + 4))
        compare_forward(rm, ev, f"randomized {arm.name}", layer, xs)
        ev.angles.extend(t.theta for t in st.thetas[arm.name])
        batch = arm.held_out[: DIRECTION_SAMPLES]
        ev.directional.append(directional(rm, f"trained {arm.name}", arm.layer,
                                          [s.x for s in batch], [s.y for s in batch], rng))

    # One directional derivative per gradcheck config, at a randomized layer.
    configs = arm_configs(rm, wl, wl.gradcheck_n)
    for name in wl.gradcheck_arms:
        layer = rm.init_adapter(configs[name], rm.Rng(seed + 3))
        rm.autograd.randomize_layer(layer, rm.Rng(seed + 4))
        xs = [rng.standard_normal(wl.d) for _ in range(DIRECTION_SAMPLES)]
        ys = [rng.standard_normal(wl.d) for _ in range(DIRECTION_SAMPLES)]
        ev.directional.append(directional(rm, f"randomized {name}", layer, xs, ys, rng))

    noise = []
    for arm in st.arms:
        spec_of = {s.task_id: s for s in arm.specs}
        ev.target_lib[arm.name] = np.array(
            [rm.synth.target_output(spec_of[s.task_id], s.x) for s in arm.held_out])
        ev.target_ref[arm.name] = np.array(
            [checks.reference_target(spec_of[s.task_id], s.x) for s in arm.held_out])
        ev.target_cond[arm.name] = np.array(
            [checks.plane_condition(spec_of[s.task_id].a_star @ s.x, spec_of[s.task_id].q_star)
             for s in arm.held_out])
        noise.append(np.array([s.y for s in arm.held_out]) - ev.target_ref[arm.name])
    ev.noise_rms = float(np.sqrt(np.mean(np.concatenate(noise) ** 2)))

    main = st.arms[0]

    ev.floor = rounds[0].floor
    ev.repeats = [(f"floor, round {i}", rounds[0].floor, r.floor) for i, r in enumerate(rounds)]
    ev.w0_error = float(np.mean([np.mean((s.y - main.layer.w0 @ s.x) ** 2) for s in main.held_out]))

    # Rerun the first round's chunks of every arm from a fresh set-up with the same seed.
    again = setup(rm, wl, seed)
    for arm in again:
        initial = rm.evaluate(arm.layer, arm.held_out)
        for _ in range(CHUNKS):
            rm.train(arm.layer, arm.specs, arm.dataset, arm.train_cfg, arm.data_rng, [])
        first = rounds[0].final_mse.get(arm.name)
        ev.repeats.append((f"{arm.name} first round", first, rm.evaluate(arm.layer, arm.held_out)))
        if arm.name in LEARNING_ARMS:
            final = rounds[-1].final_mse.get(arm.name, {0: math.nan})
            ev.init_final[arm.name] = (statistics.fmean(initial.values()),
                                       statistics.fmean(final.values()))
    ev.scaling_final = ev.init_final["scaling"][1]

    records = st.thetas["rotmole"]
    steps = sorted({t.step for t in records})
    summaries = rm.summarize(records, steps, 24)
    ev.theta_records = len(records)
    ev.summary_counts = [(s.count, sum(s.histogram)) for s in summaries]

    ev.cli_exit, ev.cli_output = run_paramcount(rm, wl, run_dir)
    layers = {arm.name: arm.layer for arm in st.arms}
    ev.cli_expected = {
        "scaling_only routing params: ": router_size(layers["scaling"]),
        "rotmole routing params: ": router_size(layers["rotmole"]),
        "mlp_gate routing params: ": router_size(layers["mlp"]),
    }
    return ev


def compare_forward(rm, ev: checks.Evidence, label: str, layer, xs) -> None:
    """Package forward against the reference forward, plus routing properties."""
    lib, ref = [], []
    for x in xs:
        y, cache = rm.forward(layer, x)
        y_ref, routing = checks.reference_forward(layer, x)
        if tuple(cache.decision.selected) != routing.selected:
            y = np.full_like(y, np.nan)  # a different expert set is a mismatch
        lib.append(y)
        ref.append(y_ref)
        ev.gate_sums.append(float(np.sum(cache.decision.g)))
        ev.angles.extend(float(t) for t in cache.decision.theta)
    ev.forward_lib[label] = np.array(lib)
    ev.forward_ref[label] = np.array(ref)


def directional(rm, label, layer, xs, ys, rng) -> dict:
    """Analytic gradient of a batch loss, summed over backward calls, and the
    reference central difference of that loss along one random direction."""
    d = layer.config.d
    params = rm.adapter.trainable_params(layer)
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    selections = []
    for x, y in zip(xs, ys):
        y_hat, cache = rm.forward(layer, x)
        selections.append(tuple(cache.decision.selected))
        sample_grads = rm.backward(layer, cache, 2.0 * (y_hat - y) / (d * len(xs)))
        for name in grads:
            grads[name] += sample_grads[name]
    direction = checks.unit_direction(params, rng)
    numeric = checks.central_difference(layer, params, direction, xs, ys, selections)
    return {"label": label, "grads": grads, "direction": direction, "numeric": numeric}


def router_size(layer) -> int:
    router = layer.router
    arrays = (router.w_g, router.w_theta, router.q, router.mlp_w1, router.mlp_w2)
    return sum(a.size for a in arrays if a is not None)


def run_paramcount(rm, wl: Workload, run_dir: Path) -> tuple[int, str]:
    """`rotmole paramcount` on a config of the workload's shape."""
    cfg = {
        "adapter": {"d": wl.d, "r": wl.r, "n": wl.n, "k": wl.k, "mode": "rotmole"},
        "dataset": {"d": wl.d, "r": wl.r, "n_task": wl.n_task, "noise_std": NOISE_STD,
                    "samples_per_task_per_batch": wl.per_task_batch,
                    "phi_separation": wl.phi_separation, "seed": 0},
        "train": {"steps": 1},
        "output_dir": str(run_dir),
    }
    path = run_dir / f"{wl.name}-paramcount.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("rotmole.cli").main(["paramcount", "--config", str(path)])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def per_layer(tracer: Tracer, first_counts: dict, rounds: list[Round], wl: Workload,
              arms: list) -> dict:
    """Per-layer figures of the traced rounds; exact counts come from the
    first traced round alone, so they do not depend on how many rounds ran."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    steps = len(traced) * CHUNKS * wl.chunk_steps * len(arms)
    samples = len(traced) * CHUNKS * wl.chunk_steps * sum(a.dataset.batch_size for a in arms)
    t = tracer.get
    slow = statistics.median(r.slowness for r in traced)

    def chunk_total(rs: list) -> float:
        return sum(statistics.median(t for r in rs for t in r.chunk_s[a.name]) for a in arms)

    def per(seconds, base):
        """Microseconds per unit, normalized like the end-to-end timings."""
        return seconds * 1e6 / slow / base

    fwd_calls, _, fwd_self = t(None, "adapter.forward")
    eval_samples = sum(r.eval_samples for r in traced)
    gc_params = sum(r.gradcheck_params for r in traced)
    out = {
        "synth.sample_batch.self_us_per_sample": per(t("train", "synth.sample_batch")[2], samples),
        "synth.target_output.self_us_per_sample": per(t("train", "synth.target_output")[2], samples),
        "numkit.Rng.normals.us_per_sample": per(t("train", "numkit.Rng.normals")[1], samples),
        "numkit.Rng.normals.calls_per_sample": t("train", "numkit.Rng.normals")[0] / samples,
        "adapter.forward.self_us_per_call": per(fwd_self, fwd_calls),
        "adapter.forward.calls_per_sample": t("train", "adapter.forward")[0] / samples,
        "numkit.softmax.us_per_sample": per(t("train", "numkit.softmax")[1], samples),
        "numkit.softmax.calls_per_sample": t("train", "numkit.softmax")[0] / samples,
        "numkit.sigmoid.calls_per_sample": t("train", "numkit.sigmoid")[0] / samples,
        "rotation.build_plane.us_per_sample": per(t("train", "rotation.build_plane")[1], samples),
        "rotation.build_plane.calls_per_sample": t("train", "rotation.build_plane")[0] / samples,
        "rotation.apply_rotation.us_per_sample": per(t("train", "rotation.apply_rotation")[1], samples),
        "rotation.degenerate_planes": first_counts.get("rotation.degenerate_planes", 0),
        "adapter.clamped_angles": first_counts.get("adapter.clamped_angles", 0),
        "autograd.backward.self_us_per_sample": per(t("train", "autograd.backward")[2], samples),
        "autograd.zero_gradients.calls_per_step": t("train", "autograd.zero_gradients")[0] / steps,
        "autograd.zero_gradients.us_per_step": per(t("train", "autograd.zero_gradients")[1], steps),
        "trainer.train.self_us_per_sample": per(t("train", "trainer.train")[2], samples),
        "trainer.evaluate.us_per_sample": per(t("eval", "trainer.evaluate")[1], eval_samples),
        "autograd.finite_diff_grad.self_us_per_param": per(t("gradcheck", "autograd.finite_diff_grad")[2], gc_params),
        # Tracing's cost on the training path, from the arms' median chunk times.
        "trace.overhead_pct": 100.0 * (chunk_total(traced) / chunk_total(untraced) - 1.0),
    }
    return out


@dataclass
class Measured:
    st: RunState
    rounds: list
    setup_times: list
    tracer: Tracer | None
    first_counts: dict  # exact counts of the first traced round
    seconds: float


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Measured:
    """Set up SETUP_REPEATS times, then time whole rounds for `seconds`.

    A traced run alternates untraced and traced rounds, so the tracing
    overhead is measured on the same work in the same process.
    """
    probe = SpeedProbe(wl)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = perf_counter()
        rm = fresh_import()
        arms = setup(rm, wl, seed)
        elapsed = perf_counter() - t0
        setup_times.append(elapsed / ((before + probe()) / 2.0))

    st = RunState(rm, wl, seed, arms, probe, [], {arm.name: [] for arm in arms})
    tracer = Tracer() if trace else None
    first_counts: dict = {}
    rounds: list[Round] = []
    t_start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - t_start < seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(st, tracer if traced else None))
        if traced and not first_counts:
            first_counts = dict(tracer.counts)
    return Measured(st, rounds, setup_times, tracer, first_counts, perf_counter() - t_start)


def execute(wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Measure, check the outputs, and return the run's result and record."""
    m = measure(wl, seed, seconds, trace)
    rounds, arms = m.rounds, m.st.arms
    ev = collect_evidence(m.st, rounds, run_dir)
    problems = checks.run_checks(ev)
    timed = [r for r in rounds if not r.traced]
    if trace:
        metrics = per_layer(m.tracer, m.first_counts, rounds, wl, arms)
    else:
        # Medians over every chunk, pass and trial of the run: robust to the
        # bursts of slowdown a shared machine shows.
        metrics = {"setup_s": statistics.median(m.setup_times)}
        for arm in arms:
            chunks = [t for r in timed for t in r.chunk_s[arm.name]]
            if chunks:
                samples = wl.chunk_steps * arm.dataset.batch_size
                metrics[ARM_METRIC[arm.name]] = samples / statistics.median(chunks)
        metrics["eval_samples_per_s"] = pooled_rate(timed, "eval_s", held_out_sizes(arms))
        metrics["floor_oracle_s"] = statistics.median(r.floor_s for r in timed)
        metrics["gradcheck_params_per_s"] = pooled_rate(timed, "trial_s", timed[0].trial_params)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
        "observed": checks.observed(ev),
        "rounds": len(rounds),
        "measured_s": m.seconds,
        "setup_times_s": m.setup_times,
        "round_walls_s": [r.wall for r in rounds],
        "round_figures": [
            {**{arm: statistics.median(v) for arm, v in r.chunk_s.items() if v},
             "eval": pooled_rate([r], "eval_s", held_out_sizes(arms)), "floor_s": r.floor_s,
             "gradcheck": pooled_rate([r], "trial_s", r.trial_params), "slowness": r.slowness,
             "traced": r.traced}
            for r in rounds
        ],
    }


def held_out_sizes(arms: list) -> dict:
    return {arm.name: len(arm.held_out) for arm in arms}


def pooled_rate(rounds: list, times: str, amounts: dict) -> float:
    """Work per second over kinds of unit that differ in size and speed (the
    arms' evaluation passes, the configs' trials): the summed work of one unit
    of each kind over the summed median times. A median over all units at
    once would jump between kinds from run to run."""
    kinds = [k for k in amounts if any(getattr(r, times)[k] for r in rounds)]
    seconds = sum(statistics.median(t for r in rounds for t in getattr(r, times)[k]) for k in kinds)
    return sum(amounts[k] for k in kinds) / seconds


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics BENCHMARK.json lists."""
    spec = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}
