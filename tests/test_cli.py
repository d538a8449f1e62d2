import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from rotmole import autograd, cli
from rotmole.adapter import AdapterConfig, load_layer, mlp_hidden_dim
from rotmole.cli import load_experiment_config, main
from rotmole.numkit import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, *, steps=3, spt=2, mode="rotmole", n=2, k=1, d=8, r=3,
                 n_task=2, probe=0, extra=None, name="config.json"):
    doc = {
        "adapter": {"d": d, "r": r, "n": n, "k": k, "mode": mode},
        "dataset": {
            "d": d,
            "r": r,
            "n_task": n_task,
            "noise_std": 0.01,
            "samples_per_task_per_batch": spt,
            "phi_separation": math.pi,
            "seed": 404,
        },
        "train": {
            "steps": steps,
            "lr0": 3e-4,
            "seed": 99,
            "eval_every": 2,
            "theta_log_every": 2,
        },
        "output_dir": str(tmp_path / "out"),
        "probe_expert": probe,
    }
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path)
    config = load_experiment_config(path)
    assert config.adapter.d == 8
    assert config.dataset.n_task == 2
    assert config.train.steps == 3


def test_load_config_missing_field_names_it(tmp_path):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    del doc["dataset"]["noise_std"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="dataset.noise_std"):
        load_experiment_config(path)


CLI_LOADERS = {  # kind: the command that reads it, before the path
    "config": ["train", "--config"],
    "angle log": ["analyze", "--snapshots", "0", "--thetas"],
}
FILE_FAULTS = {  # fault: (file bytes, start of the message for a JSON file, for an angle log)
    "missing": (None, "cannot read {}: ", "cannot read {}: "),
    "not UTF-8": (b"\xff\xfe{", "{} is not valid UTF-8: ", "{} is not valid UTF-8: "),
    "not JSON": (b"{not json", "{} is not valid JSON: ", "{}:2: invalid JSON: "),
    "duplicate key": (b'{"a": {"b": 1, "b": 2}}', "{}: duplicate key 'b'", "{}:2: duplicate key 'b'"),
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
@pytest.mark.parametrize("kind", ["config", "layer", "angle log"])
def test_unreadable_file_fails_in_one_line(tmp_path, capsys, kind, fault):
    """Each loader names the file's kind and path, and an angle log's line, in
    one line; through the CLI it exits 2. The angle log's fault is on line 2,
    after a header."""
    data, message, log_message = FILE_FAULTS[fault]
    path = tmp_path / "file.json"
    if data is not None:
        header = b'{"type": "header", "init_seed": 1, "data_seed": 2}\n'
        path.write_bytes(header + data if kind == "angle log" else data)
    expected = (log_message if kind == "angle log" else message).format(f"{kind} {path}")
    if kind == "layer":
        with pytest.raises(ConfigError) as info:
            load_layer(path)
        err = str(info.value).splitlines()
    else:
        assert main([*CLI_LOADERS[kind], str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        expected = f"error: {expected}"
    assert len(err) == 1 and err[0].startswith(expected), err


def test_load_config_cross_field_validation(tmp_path):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["dataset"]["d"] = 10
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="adapter.d"):
        load_experiment_config(path)


def test_whole_float_is_taken_as_int(tmp_path):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["train"]["steps"] = 3.0
    path.write_text(json.dumps(doc))
    steps = load_experiment_config(path).train.steps
    assert steps == 3 and type(steps) is int


def test_probe_expert_bounds(tmp_path):
    path = write_config(tmp_path, probe=5)
    with pytest.raises(ConfigError, match="probe_expert"):
        load_experiment_config(path)


@pytest.mark.parametrize("section, key, value, field", [
    ("train", "lr", 5.0, "train.lr"),  # unknown key in a section
    (None, "seed", 1, "seed"),  # unknown key at the top level
    ("train", "steps", 2.5, "train.steps"),
    ("train", "lr0", float("nan"), "train.lr0"),
    ("dataset", "noise_std", 10**400, "dataset.noise_std"),  # past the float range
    ("adapter", "k", True, "adapter.k"),
    ("adapter", "d", "8", "adapter.d"),
    ("adapter", "r", 2, "adapter.r"),  # disagrees with dataset.r
    ("dataset", "seed", 2**64, "dataset.seed"),  # would run as seed 0
    ("train", "seed", -1, "train.seed"),  # would run as seed 2^64 - 1
    ("adapter", "mlp_hidden", 5, "adapter.mlp_hidden"),  # only mlp_gate mode has the MLP
], ids=["train.lr", "top-level", "steps", "lr0", "noise_std", "k", "d", "r", "dataset.seed",
        "train.seed", "mlp_hidden"])
def test_bad_field_exit_2_names_it(tmp_path, capsys, section, key, value, field):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    (doc[section] if section else doc)[key] = value
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.search(rf"\b{re.escape(field)}\b", err[0]), err[0]
    assert not (tmp_path / "out").exists()


MUTANTS = [True, 2.5, -1, 0, "x", None, float("nan"), [], {}]


def test_mutated_configs_exit_0_or_2(tmp_path, monkeypatch, capsys):
    # output_dir "x" is valid and writes below the working directory.
    monkeypatch.chdir(tmp_path)
    base = json.loads(write_config(tmp_path).read_text())
    fields = [(section, key) for section in ("adapter", "dataset", "train")
              for key in base[section]]
    fields += [(None, "output_dir"), (None, "probe_expert")]
    assert len(fields) == 19
    path = tmp_path / "mutant.json"
    for section, key in fields:
        for value in MUTANTS:
            doc = copy.deepcopy(base)
            (doc[section] if section else doc)[key] = value
            path.write_text(json.dumps(doc))
            code = main(["train", "--config", str(path)])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 2), (section, key, value, err)
            assert len(err) == (1 if code == 2 else 0), (section, key, value, err)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = load_experiment_config(path)
    assert config.adapter.mode == "rotmole"
    assert config.train.steps == 3000


def config_defaults(cls, prefix=""):
    """Dotted name to default of every defaulted field of the config
    dataclass `cls` and of the config dataclasses it nests."""
    out = {}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            out.update(config_defaults(hints[f.name], f"{prefix}{f.name}."))
        elif f.default is not dataclasses.MISSING:
            out[prefix + f.name] = f.default
    return out


def test_readme_lists_every_config_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("Each optional field has one default:", 1)[1]
    listing = listing.split("Every other field", 1)[0]
    listed = {name: json.loads(value)
              for name, value in re.findall(r"`([\w.]+)`\s+`([^`]+)`", listing)}
    assert listed == config_defaults(cli.ExperimentConfig)


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    names = {}
    for block in blocks:  # in order: a block may use the names of the blocks before it
        exec(block, names)
    assert names["report"].passed


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_output_dir_not_a_directory_exit_2_before_any_work(tmp_path, capsys, command, below):
    blocker = tmp_path / "out"
    blocker.write_text("a file\n")
    path = write_config(tmp_path, extra={"output_dir": str(blocker / below)})
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: output_dir "), err
    assert captured.out == ""  # nothing trained
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "a file\n"


def _refuse_work(*args, **kwargs):
    raise AssertionError("run_experiment called")


@pytest.mark.parametrize("command, artifact", [
    ("train", "metrics.jsonl"),
    ("train", "thetas.jsonl"),
    ("train", "layer.json"),
    ("compare", "compare.json"),
])
def test_artifact_path_a_directory_exit_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, artifact
):
    monkeypatch.setattr(cli, "run_experiment", _refuse_work)
    blocker = tmp_path / "out" / artifact
    (blocker / "inside").mkdir(parents=True)
    path = write_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and str(blocker) in err[0], err
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_analyze_summary_path_a_directory_exit_2(tmp_path, capsys):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"step": 0, "task_id": 0, "expert_index": 0, "theta": 0.5}\n'
                      '{"step": 0, "task_id": 1, "expert_index": 0, "theta": -0.5}\n')
    blocker = tmp_path / "summary.csv"
    blocker.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and str(blocker) in err[0], err
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_train_writes_artifacts(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.jsonl").read_text().splitlines()
    header = json.loads(metrics[0])
    assert header == {"type": "header", "init_seed": 99, "data_seed": 404}
    steps = [json.loads(line)["step"] for line in metrics[1:]]
    assert steps == [0, 2]
    thetas = (out / "thetas.jsonl").read_text().splitlines()
    assert json.loads(thetas[0])["type"] == "header"
    layer = load_layer(out / "layer.json")
    assert layer.config.d == 8


def test_train_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "metrics.jsonl").read_bytes()
    first_layer = (tmp_path / "out" / "layer.json").read_bytes()
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "metrics.jsonl").read_bytes() == first
    assert (tmp_path / "out" / "layer.json").read_bytes() == first_layer


def test_train_zero_steps_writes_fresh_layer(tmp_path):
    path = write_config(tmp_path, steps=0)
    assert main(["train", "--config", str(path)]) == 0
    layer = load_layer(tmp_path / "out" / "layer.json")
    # untouched initialization: B and the rotation gate are all zeros
    for expert in layer.experts:
        assert np.all(expert.b == 0.0)
    assert np.all(layer.router.w_theta == 0.0)


def test_gradcheck_default_passes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["gradcheck", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == 20  # default trial count
    assert doc["h"] == 1e-5


def test_gradcheck_zero_tolerance_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["gradcheck", "--config", str(path), "--trials", "1", "--tol", "0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is False


# The four arms of a d=16, n=4, k=2 layer, as (mode, r); mlp_gate is sized
# to match rotmole's router.
PLANTED_ARMS = [("rotmole", 4), ("rotmole", 2), ("scaling_only", 4), ("mlp_gate", 4)]


def planted_gradcheck(tmp_path, capsys, mode, r):
    """`rotmole gradcheck --trials 3` on one arm; its exit code."""
    path = write_config(tmp_path, d=16, r=r, n=4, k=2, mode=mode)
    if mode == "mlp_gate":
        doc = json.loads(path.read_text())
        doc["adapter"]["mlp_hidden"] = mlp_hidden_dim(AdapterConfig(d=16, r=r, n=4, k=2))
        path.write_text(json.dumps(doc))
    code = main(["gradcheck", "--config", str(path), "--trials", "3"])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("mode, r", PLANTED_ARMS)
def test_gradcheck_fails_bugs_planted_in_the_training_backward(tmp_path, capsys, monkeypatch,
                                                              mode, r):
    # The CLI's certificate differentiates through backward_batch, the code
    # train runs: a bug planted there alone fails it.
    assert planted_gradcheck(tmp_path, capsys, mode, r) == 0
    matvec, plane_backward = autograd.rowwise_matvec, autograd._plane_backward

    def anchor_off(*args):
        u_bar, theta_bar, q_bar = plane_backward(*args)
        return u_bar, theta_bar, q_bar * (1.0 + 1e-3)

    with monkeypatch.context() as m:
        m.setattr(autograd, "rowwise_matvec", lambda *a: matvec(*a) * (1.0 + 1e-3))  # B_i^T dy
        assert planted_gradcheck(tmp_path, capsys, mode, r) == 1
    if (mode, r) == ("rotmole", 4):
        with monkeypatch.context() as m:
            m.setattr(autograd, "_plane_backward", anchor_off)
            assert planted_gradcheck(tmp_path, capsys, mode, r) == 1


def test_paramcount_output(tmp_path, capsys):
    path = write_config(tmp_path, d=8, n=4, r=4, k=2, spt=2)
    assert main(["paramcount", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scaling_only routing params: 32" in out
    assert "rotmole routing params: 80" in out
    assert "extra over scaling_only: 48" in out
    assert "hidden dim: 7" in out


def test_paramcount_prints_the_hidden_width_it_counts(tmp_path, capsys):
    # An mlp_gate config counts its own mlp_hidden, 16 * 3 + 3 * 2 = 54, not
    # the width matched to rotmole's count (4 here).
    path = write_config(tmp_path, d=16, r=3, n=2, k=1, mode="mlp_gate")
    doc = json.loads(path.read_text())
    doc["adapter"]["mlp_hidden"] = 3
    path.write_text(json.dumps(doc))
    assert main(["paramcount", "--config", str(path)]) == 0
    assert "mlp_gate routing params: 54 (hidden dim: 3)" in capsys.readouterr().out


@pytest.mark.parametrize("k", [1, 2])
def test_paramcount_names_k_and_the_idle_gate_at_k1(tmp_path, capsys, k):
    # At k=1 the one selected expert's renormalized gate is exactly 1, so the
    # gate's parameters are counted but never move; the count lines keep
    # their words, which the benchmark parses.
    path = write_config(tmp_path, d=8, n=4, r=4, k=k, spt=2)
    assert main(["paramcount", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"d=8 r=4 n=4 k={k}"
    assert [line.split(":")[0] for line in lines[1:4]] == [
        f"{mode} routing params" for mode in ("scaling_only", "rotmole", "mlp_gate")
    ]
    if k == 1:
        assert len(lines) == 5
        assert "w_g" in lines[4] and "MLP gate" in lines[4] and "exact-zero gradient" in lines[4]
    else:
        assert len(lines) == 4


def test_analyze_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, steps=5)
    assert main(["train", "--config", str(path)]) == 0
    thetas = tmp_path / "out" / "thetas.jsonl"
    code = main(["analyze", "--thetas", str(thetas), "--snapshots", "0,4", "--bins", "6"])
    assert code == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0] == "step,task_id,count,mean,std,bin_0,bin_1,bin_2,bin_3,bin_4,bin_5"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"0", "4"}
    # init snapshot: all angles exactly zero
    for row in rows:
        if row[0] == "0":
            assert row[3] == "0" and row[4] == "0"


def test_analyze_skips_blank_lines(tmp_path, capsys):
    records = [json.dumps({"step": 0, "task_id": t, "expert_index": 0, "theta": theta})
               for t, theta in ((0, 0.5), (1, -0.5), (0, 0.25))]
    thetas = tmp_path / "thetas.jsonl"
    summaries = []
    for text in ("\n".join(records) + "\n", "\n" + "\n\n".join(records) + "\n  \n"):
        thetas.write_text(text)
        assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0", "--bins", "4"]) == 0
        summaries.append((tmp_path / "summary.csv").read_bytes())
    assert summaries[0] == summaries[1]
    assert "step 0: separation" in capsys.readouterr().out


def test_analyze_prints_separation_per_snapshot_named(tmp_path, capsys):
    # A snapshot named twice is summarized and printed twice; its separation
    # is still the gap between two tasks, not between a task and itself.
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"step": 0, "task_id": 0, "expert_index": 0, "theta": 0.5}\n'
                      '{"step": 0, "task_id": 1, "expert_index": 0, "theta": -0.25}\n')
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0,0", "--bins", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["step 0: separation 0.75"] * 2


def test_analyze_empty_records_exit_2(tmp_path, capsys):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"type": "header", "init_seed": 1, "data_seed": 2}\n')
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2


def test_analyze_unlogged_snapshots_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, steps=20)
    doc = json.loads(path.read_text())
    doc["train"]["theta_log_every"] = 10
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 0
    capsys.readouterr()
    thetas = tmp_path / "out" / "thetas.jsonl"
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "5"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "--snapshots 5 names no logged step" in err and "2 steps from 0 to 10" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_analyze_bad_snapshots_exit_2(tmp_path):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"step": 0, "task_id": 0, "expert_index": 0, "theta": 0.0}\n')
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "a,b"]) == 2


@pytest.mark.parametrize("line, field", [
    ('{"step": 0, "task_id": 0, "expert_index": 0, "theta": "x"}', "record.theta"),
    ('{"step": 0, "task_id": 0, "expert_index": 0, "theta": null}', "record.theta"),
    ('{"step": 0, "task_id": 0, "theta": 0.5}', "record.expert_index"),
    ('[0, 0, 0, 0.5]', "record"),
    ('{"step": 0, "task_id": 0,', "invalid JSON"),
], ids=["string", "null", "missing", "list", "not-json"])
def test_analyze_bad_record_exit_2(tmp_path, capsys, line, field):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"type": "header", "init_seed": 1, "data_seed": 2}\n' + line + "\n")
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "thetas.jsonl:2: " in err[0] and re.search(rf"\b{re.escape(field)}\b", err[0]), err[0]


HEADER = '{"type": "header", "init_seed": 1, "data_seed": 2}'
RECORD = '{"step": 0, "task_id": 0, "expert_index": 0, "theta": 0.5}'


@pytest.mark.parametrize("lines, where, field", [
    ([HEADER.replace("2}", '2, "bogus": 3}'), RECORD], 1, "header.bogus"),
    ([HEADER, RECORD, HEADER], 3, "record.type"),  # a header belongs on line 1 only
    (["", HEADER, RECORD], 2, "record.type"),
    ([HEADER.replace('"init_seed": 1', '"init_seed": 1.5'), RECORD], 1, "header.init_seed"),
    ([HEADER.replace('"data_seed": 2', '"data_seed": true'), RECORD], 1, "header.data_seed"),
    ([HEADER.replace(', "data_seed": 2', ""), RECORD], 1, "header.data_seed"),
    ([HEADER, RECORD.replace("0.5}", '0.5, "theta": 0.7}')], 2, "duplicate key 'theta'"),
], ids=["extra-key", "late-header", "header-on-line-2", "fractional-seed", "bool-seed",
        "missing-seed", "duplicate-key"])
def test_analyze_bad_header_exit_2(tmp_path, capsys, lines, where, field):
    """The log's one header is line 1, exactly as `train` writes it."""
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"thetas.jsonl:{where}: " in err[0] and field in err[0], err[0]
    assert not (tmp_path / "summary.csv").exists()


def test_compare_single_task_control(tmp_path, capsys):
    # with one task there is nothing for rotation to separate: all three gate
    # modes track each other. Values recorded from the first run; with n=1 the
    # gate is pinned at 1 in every mode, so scaling_only and mlp_gate train
    # identically and rotmole differs only through its (inert-at-init) angles.
    path = write_config(tmp_path, steps=800, spt=8, n=1, k=1, n_task=1,
                        extra={"dataset": {
                            "d": 8, "r": 3, "n_task": 1, "noise_std": 0.05,
                            "samples_per_task_per_batch": 8,
                            "phi_separation": math.pi, "seed": 314,
                        },
                        "train": {"steps": 800, "lr0": 3e-4, "seed": 6,
                                  "eval_every": 400, "theta_log_every": 400}})
    assert main(["compare", "--config", str(path)]) == 0
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    means = {mode: doc["modes"][mode]["final_mean_mse"] for mode in doc["modes"]}
    assert max(means.values()) <= 2.0 * min(means.values())
    assert means["scaling_only"] == 749.9186171986198
    assert means["mlp_gate"] == 749.9186171986198
    assert means["rotmole"] == 739.3239015012161


def test_compare_writes_comparison(tmp_path, capsys):
    path = write_config(tmp_path, steps=4, spt=2, d=8, r=3, n=2, k=1)
    assert main(["compare", "--config", str(path)]) == 0
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert set(doc["modes"]) == {"scaling_only", "mlp_gate", "rotmole"}
    d, n, r = 8, 2, 3
    assert doc["modes"]["scaling_only"]["routing_params"] == d * n
    assert doc["modes"]["rotmole"]["routing_params"] == 2 * d * n + r * n
    mlp = doc["modes"]["mlp_gate"]["routing_params"]
    assert abs(mlp - doc["modes"]["rotmole"]["routing_params"]) <= d + n
    assert repr(doc["floor"]) == "1006.0957215997437"  # the oracle's recorded output
    assert doc["init_seed"] == 99 and doc["data_seed"] == 404


@pytest.mark.parametrize("lr0", [1e308, 1e306])
def test_diverged_train_exits_1_and_writes_nothing(tmp_path, capsys, lr0):
    # At 1e308 the first update leaves NaN in the held-out MSE, at 1e306 inf.
    path = write_config(tmp_path, steps=1)
    doc = json.loads(path.read_text())
    doc["train"]["lr0"] = lr0
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite held-out mse at step 0" in err[0], err
    assert not (tmp_path / "out").exists()


def test_diverging_train_prints_only_its_error(tmp_path):
    # Run as a command, so numpy's warnings would reach stderr under the
    # default filters rather than this suite's.
    path = write_config(tmp_path, d=16, steps=20)
    doc = json.loads(path.read_text())
    doc["train"]["lr0"] = 50.0
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "rotmole.cli", "train", "--config", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: non-finite held-out mse at step 4"], proc.stderr


def test_eps_degenerate_key_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["adapter"]["eps_degenerate"] = 1e-8
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "adapter.eps_degenerate" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"),
    ("--trials", "-1"),
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "-1"),
])
def test_gradcheck_bad_flag_exit_2(tmp_path, capsys, flag, value):
    path = write_config(tmp_path)
    assert main(["gradcheck", "--config", str(path), flag, value]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and flag in err[0], err
    assert captured.out == ""
