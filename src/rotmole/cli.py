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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .adapter import (
    AdapterConfig,
    AdapterLayer,
    count_trainable_routing_params,
    init_adapter,
    mlp_hidden_dim,
    mlp_variant,
    save_layer,
)
from .analysis import separation, summarize, write_summary_csv
from .autograd import GRADCHECK_H, GRADCHECK_TOL, gradcheck_trials
from .numkit import ConfigError, Rng, from_doc
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not valid UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    return from_doc(ExperimentConfig, doc)


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


def _seed_header(config: ExperimentConfig) -> dict:
    return {
        "type": "header",
        "init_seed": config.train.seed,
        "data_seed": config.dataset.seed,
    }


def _write_jsonl(path: Path, header: dict, records) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def cmd_train(config: ExperimentConfig) -> int:
    result = run_experiment(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _seed_header(config)
    _write_jsonl(out / "metrics.jsonl", header, map(asdict, result.metrics))
    _write_jsonl(out / "thetas.jsonl", header, map(asdict, result.thetas))
    save_layer(result.layer, out / "layer.json")
    for task, mse in result.final_per_task_mse.items():
        print(f"task {task}: final mse {mse:.6g}")
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    data_rng = Rng(config.dataset.seed)
    specs = make_rotation_separable_tasks(config.dataset, data_rng)
    floor = analytic_baseline_floor(specs, config.dataset, FLOOR_MC_SAMPLES)
    modes_doc = {}
    for mode in ("scaling_only", "mlp_gate", "rotmole"):
        result = run_experiment(config, mode=mode)
        mode_cfg = _mode_config(config.adapter, mode)
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
    print(f"scaling-only floor (oracle): {floor:.6g}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = dict(_seed_header(config))
    doc.pop("type")
    doc["floor"] = floor
    doc["modes"] = modes_doc
    (out / "compare.json").write_text(json.dumps(doc, indent=2) + "\n")
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
    print(f"d={adapter.d} r={adapter.r} n={adapter.n}")
    print(f"scaling_only routing params: {scaling}")
    print(f"rotmole routing params: {rot} (extra over scaling_only: {rot - scaling})")
    print(f"mlp_gate routing params: {mlp} (hidden dim: {mlp_hidden_dim(adapter)})")
    return 0


def _load_theta_records(path: Path) -> list[ThetaRecord]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not valid UTF-8: {e}")
    records = []
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{ln}: invalid JSON: {e}")
        if isinstance(doc, dict) and doc.get("type") == "header":
            continue
        try:
            records.append(from_doc(ThetaRecord, doc, "record"))
        except ConfigError as e:
            raise ConfigError(f"{path}:{ln}: {e}") from None
    if not records:
        raise ConfigError(f"{path} contains no theta records")
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
    summaries = summarize(records, snapshots, bins)
    out = path.parent / "summary.csv"
    write_summary_csv(summaries, out)
    for step in snapshots:
        tasks = {r.task_id for r in records if r.step == step}
        if len(tasks) >= 2:
            print(f"step {step}: separation {separation(records, step):.6g}")
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
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(load_experiment_config(args.config), args.trials, args.tol)
        if args.command == "train":
            return cmd_train(load_experiment_config(args.config))
        if args.command == "compare":
            return cmd_compare(load_experiment_config(args.config))
        if args.command == "paramcount":
            return cmd_paramcount(load_experiment_config(args.config))
        if args.command == "analyze":
            try:
                snapshots = [int(s) for s in args.snapshots.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"--snapshots must be comma-separated integers, got {args.snapshots!r}")
            return cmd_analyze(args.thetas, snapshots, args.bins)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
