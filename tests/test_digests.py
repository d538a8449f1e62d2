"""Every artifact the CLI writes, pinned by SHA-256.

For each config below: `train`'s metrics.jsonl, thetas.jsonl, layer.json and
stdout, and the report of a 3-trial `gradcheck`; for the first config also
`compare`'s compare.json and `analyze`'s summary.csv. The final held-out
MSEs are pinned as their repr, so a moved digest shows by how much a result
moved. Together the configs cover every gate mode, r = 2, 3 and 4, and
(n, k) = (1, 1), (4, 2) and (8, 2); the first draws 3 samples per task per
batch, which does not divide the 256 held-out samples per task.

A change meant to leave every output as it is must leave digests.json as it
is. A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_digests.py

and names each digest that moved, and why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from rotmole.cli import main

DIGESTS = Path(__file__).with_name("digests.json")
STEPS = 40

CONFIGS = {
    "rotmole-r3-n4k2": dict(mode="rotmole", d=8, r=3, n=4, k=2, n_task=2, spt=3, seed=11),
    "rotmole-r2-n8k2": dict(mode="rotmole", d=8, r=2, n=8, k=2, n_task=3, spt=2, seed=12),
    "rotmole-r4-n1k1": dict(mode="rotmole", d=8, r=4, n=1, k=1, n_task=2, spt=2, seed=13),
    "scaling_only-r4-n4k2": dict(mode="scaling_only", d=10, r=4, n=4, k=2, n_task=2, spt=2, seed=14),
    "mlp_gate-r3-n8k2": dict(mode="mlp_gate", d=8, r=3, n=8, k=2, n_task=2, spt=2,
                             mlp_hidden=5, seed=15),
}


def config_doc(name: str, out: Path) -> dict:
    c = CONFIGS[name]
    adapter = {key: c[key] for key in ("d", "r", "n", "k", "mode")}
    if "mlp_hidden" in c:
        adapter["mlp_hidden"] = c["mlp_hidden"]
    return {
        "adapter": adapter,
        "dataset": {"d": c["d"], "r": c["r"], "n_task": c["n_task"], "noise_std": 0.05,
                    "samples_per_task_per_batch": c["spt"], "phi_separation": 2.0,
                    "seed": c["seed"]},
        "train": {"steps": STEPS, "lr0": 2e-3, "seed": 31, "eval_every": 10,
                  "theta_log_every": 10},
        "output_dir": str(out),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> str:
    """stdout of one CLI command, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue()


def compute_digests(root: Path) -> dict[str, str]:
    """Digest of every pinned artifact, keyed '<config>/<artifact>'."""
    out = {}
    for name in CONFIGS:
        run_dir = root / name
        run_dir.mkdir()
        path = run_dir / "config.json"
        path.write_text(json.dumps(config_doc(name, run_dir / "out")))
        stdout = run(["train", "--config", str(path)])
        out[f"{name}/train stdout"] = sha256(stdout.encode())
        for artifact in ("metrics.jsonl", "thetas.jsonl", "layer.json"):
            out[f"{name}/{artifact}"] = sha256((run_dir / "out" / artifact).read_bytes())
        last = json.loads((run_dir / "out" / "metrics.jsonl").read_text().splitlines()[-1])
        out[f"{name}/final mse"] = repr(sorted(last["per_task_mse"].items()))
        report = run(["gradcheck", "--config", str(path), "--trials", "3"])
        out[f"{name}/gradcheck"] = sha256(report.encode())
    first = next(iter(CONFIGS))
    run_dir = root / first
    run(["analyze", "--thetas", str(run_dir / "out" / "thetas.jsonl"),
         "--snapshots", f"0,20,{STEPS - 1}", "--bins", "8"])
    out[f"{first}/summary.csv"] = sha256((run_dir / "out" / "summary.csv").read_bytes())
    path = run_dir / "compare-config.json"
    path.write_text(json.dumps(config_doc(first, run_dir / "compare")))
    stdout = run(["compare", "--config", str(path)])
    out[f"{first}/compare stdout"] = sha256(stdout.encode())
    out[f"{first}/compare.json"] = sha256((run_dir / "compare" / "compare.json").read_bytes())
    return out


PINNED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("digests"))


def test_pinned_artifacts_cover_every_config(digests):
    assert PINNED and sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_artifact_digest(digests, key):
    assert digests[key] == PINNED[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(compute_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
