"""Command-line entry point: gradient checks, training runs, mode comparisons,
angle-distribution summaries, and parameter accounting.

All commands read a single JSON experiment config. Randomness flows from
exactly two seeds: train.seed initializes layers, dataset.seed drives task
construction, batches, and noise. Reruns of any command produce byte-identical
artifacts. Exit codes: 0 success, 1 check or training failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adapter import (
    AdapterConfig,
    AdapterLayer,
    count_trainable_routing_params,
    init_adapter,
    mlp_variant,
)
from .analysis import separation, summarize, summary_csv
from .autograd import GRADCHECK_H, GRADCHECK_TOL, gradcheck_trials
from .numkit import ConfigError, Rng, from_doc, read_json, to_doc
from .synth import (
    DatasetConfig,
    Sample,
    TaskSpec,
    analytic_baseline_floor,
    make_rotation_separable_tasks,
    sample_batch,
)
from .trainer import (
    MetricsRecord,
    ThetaRecord,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    train,
)

EVAL_SAMPLES_PER_TASK = 256
FLOOR_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    adapter: AdapterConfig
    dataset: DatasetConfig
    train: TrainConfig
    output_dir: str
    probe_expert: int = 0

    def __post_init__(self):
        if self.adapter.d != self.dataset.d:
            raise ConfigError(
                f"adapter.d={self.adapter.d} disagrees with dataset.d={self.dataset.d}"
            )
        if self.adapter.r != self.dataset.r:
            raise ConfigError(
                f"adapter.r={self.adapter.r} disagrees with dataset.r={self.dataset.r}"
            )
        if not 0 <= self.probe_expert < self.adapter.n:
            raise ConfigError(
                f"probe_expert={self.probe_expert} outside [0, n={self.adapter.n})"
            )


@dataclass
class ExperimentResult:
    layer: AdapterLayer
    metrics: list[MetricsRecord]
    thetas: list[ThetaRecord]
    specs: list[TaskSpec]
    final_per_task_mse: dict[int, float]

    @property
    def final_mean_mse(self) -> float:
        return sum(self.final_per_task_mse.values()) / len(self.final_per_task_mse)


def load_experiment_config(path) -> ExperimentConfig:
    return from_doc(ExperimentConfig, read_json(path, "config"))


def _mode_config(adapter: AdapterConfig, mode: str | None) -> AdapterConfig:
    if mode is None or mode == adapter.mode:
        return adapter
    if mode == "mlp_gate":
        return mlp_variant(adapter)
    return replace(adapter, mode=mode, mlp_hidden=None)


def run_experiment(config: ExperimentConfig, mode: str | None = None) -> ExperimentResult:
    """Initialize, generate data, train, evaluate: the shared experiment flow.

    The generating base map becomes the layer's frozen base, so the adapter
    delta is the only thing left to learn.
    """
    adapter_cfg = _mode_config(config.adapter, mode)
    layer = init_adapter(adapter_cfg, Rng(config.train.seed))
    data_rng = Rng(config.dataset.seed)
    specs = make_rotation_separable_tasks(config.dataset, data_rng)
    layer.w0 = specs[0].w0_star.copy()
    eval_samples: list[Sample] = []
    n_batches = math.ceil(EVAL_SAMPLES_PER_TASK / config.dataset.samples_per_task_per_batch)
    for _ in range(n_batches):
        eval_samples.extend(sample_batch(specs, config.dataset, data_rng))
    layer, metrics, thetas = train(
        layer, specs, config.dataset, config.train, data_rng, eval_samples,
        probe_expert=config.probe_expert,
    )
    final = metrics[-1].per_task_mse if metrics else evaluate(layer, eval_samples)
    return ExperimentResult(layer, metrics, thetas, specs, final)


@dataclass(frozen=True)
class LogHeader:
    """Line 1 of each log `train` writes: the run's two seeds."""

    type: str
    init_seed: int
    data_seed: int


def _seed_header(config: ExperimentConfig) -> dict:
    return to_doc(LogHeader("header", config.train.seed, config.dataset.seed))


def _jsonl(header: dict, records) -> str:
    return "".join(json.dumps(doc) + "\n" for doc in (header, *map(to_doc, records)))


def _artifacts(directory, *names: str) -> list[Path]:
    """The paths of a command's artifacts, checked before any work: the
    nearest existing part of `directory` must be a directory, and no artifact
    path may be an existing directory."""
    out = Path(directory)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir {directory}: {existing} is not a directory")
    paths = [out / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"{path} is a directory, not a file")
    return paths


def _write(files: dict[Path, str]) -> None:
    """Write each artifact's text, creating its directory first. The one
    place the package writes files."""
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def cmd_train(config: ExperimentConfig) -> int:
    metrics, thetas, layer = _artifacts(
        config.output_dir, "metrics.jsonl", "thetas.jsonl", "layer.json"
    )
    result = run_experiment(config)
    header = _seed_header(config)
    _write({
        metrics: _jsonl(header, result.metrics),
        thetas: _jsonl(header, result.thetas),
        layer: json.dumps(to_doc(result.layer)) + "\n",
    })
    for task, mse in result.final_per_task_mse.items():
        print(f"task {task}: final mse {mse:.6g}")
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    (out,) = _artifacts(config.output_dir, "compare.json")
    modes_doc = {}
    for mode in ("scaling_only", "mlp_gate", "rotmole"):
        result = run_experiment(config, mode=mode)
        mode_cfg = result.layer.config
        entry = {
            "routing_params": count_trainable_routing_params(mode_cfg),
            "final_per_task_mse": result.final_per_task_mse,
            "final_mean_mse": result.final_mean_mse,
        }
        if mode == "mlp_gate":
            entry["mlp_hidden"] = mode_cfg.mlp_hidden
        modes_doc[mode] = entry
        print(f"{mode}: mean mse {result.final_mean_mse:.6g}, "
              f"routing params {entry['routing_params']}")
    # Every run builds the same tasks from dataset.seed.
    floor = analytic_baseline_floor(result.specs, config.dataset, FLOOR_MC_SAMPLES)
    print(f"scaling-only floor (oracle): {floor:.6g}")
    doc = dict(_seed_header(config))
    doc.pop("type")
    doc["floor"] = floor
    doc["modes"] = modes_doc
    _write({out: json.dumps(doc, indent=2) + "\n"})
    return 0


def cmd_gradcheck(config: ExperimentConfig, trials: int, tol: float) -> int:
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol}")
    reports = gradcheck_trials(config.adapter, trials, seed=config.train.seed, tol=tol)
    all_pass = all(r.passed for r in reports)
    doc = {
        "trials": trials,
        "tol": tol,
        "h": GRADCHECK_H,
        "all_pass": all_pass,
        "reports": [r.to_doc() for r in reports],
    }
    print(json.dumps(doc, indent=2))
    return 0 if all_pass else 1


def cmd_paramcount(config: ExperimentConfig) -> int:
    adapter = config.adapter
    scaling = count_trainable_routing_params(_mode_config(adapter, "scaling_only"))
    rot = count_trainable_routing_params(_mode_config(adapter, "rotmole"))
    mlp_cfg = _mode_config(adapter, "mlp_gate")
    mlp = count_trainable_routing_params(mlp_cfg)
    print(f"d={adapter.d} r={adapter.r} n={adapter.n} k={adapter.k}")
    print(f"scaling_only routing params: {scaling}")
    print(f"rotmole routing params: {rot} (extra over scaling_only: {rot - scaling})")
    print(f"mlp_gate routing params: {mlp} (hidden dim: {mlp_cfg.mlp_hidden})")
    if adapter.k == 1:
        print("at k=1 the renormalized gate is exactly 1: w_g (mlp_gate: the MLP gate) "
              "is counted above but gets an exact-zero gradient")
    return 0


def _load_theta_records(path: Path) -> list[ThetaRecord]:
    records = []
    for ln, doc in read_json(path, "angle log", lines=True):
        try:
            if ln == 1 and isinstance(doc, dict) and doc.get("type") == "header":
                from_doc(LogHeader, doc, "header")
            else:
                records.append(from_doc(ThetaRecord, doc, "record"))
        except ConfigError as e:
            raise ConfigError(f"angle log {path}:{ln}: {e}") from None
    if not records:
        raise ConfigError(f"angle log {path} contains no theta records")
    return records


def cmd_analyze(thetas_path: str, snapshots: list[int], bins: int) -> int:
    path = Path(thetas_path)
    records = _load_theta_records(path)
    logged = sorted({r.step for r in records})
    if not set(snapshots) & set(logged):
        raise ConfigError(
            f"--snapshots {','.join(map(str, snapshots))} names no logged step; "
            f"{path} logs {len(logged)} steps from {logged[0]} to {logged[-1]}"
        )
    (out,) = _artifacts(path.parent, "summary.csv")
    summaries = summarize(records, snapshots, bins)
    _write({out: summary_csv(summaries)})
    for step in snapshots:
        tasks = {s.task_id for s in summaries if s.step == step}
        if len(tasks) >= 2:
            print(f"step {step}: separation {separation(summaries, step):.6g}")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotmole",
        description="Rotating mixture-of-low-rank-experts test bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=GRADCHECK_TOL)

    p = sub.add_parser("train", help="train one layer; write metrics, angle log, layer")
    p.add_argument("--config", required=True)

    p = sub.add_parser("compare", help="train all three gate modes on identical data")
    p.add_argument("--config", required=True)

    p = sub.add_parser("analyze", help="summarize a logged angle distribution")
    p.add_argument("--thetas", required=True)
    p.add_argument("--snapshots", required=True, help="comma-separated step numbers")
    p.add_argument("--bins", type=int, default=24)

    p = sub.add_parser("paramcount", help="print routing parameter counts per mode")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A diverging run overflows on its way to TrainingDiverged; its one-line
    # error says so, without numpy's warnings. Library calls still warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            if args.command == "gradcheck":
                return cmd_gradcheck(load_experiment_config(args.config), args.trials, args.tol)
            if args.command == "train":
                return cmd_train(load_experiment_config(args.config))
            if args.command == "compare":
                return cmd_compare(load_experiment_config(args.config))
            if args.command == "paramcount":
                return cmd_paramcount(load_experiment_config(args.config))
            # argparse admits no other command
            try:
                snapshots = [int(s) for s in args.snapshots.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(
                    f"--snapshots must be comma-separated integers, got {args.snapshots!r}"
                )
            return cmd_analyze(args.thetas, snapshots, args.bins)
        except ConfigError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except TrainingDiverged as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
