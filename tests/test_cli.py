import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rotmole.adapter import load_layer
from rotmole.cli import load_experiment_config, main
from rotmole.numkit import ConfigError


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


def test_load_config_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe{"


def test_load_config_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(NOT_UTF8)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "bad.json is not valid UTF-8" in err[0], err[0]


def test_load_config_cross_field_validation(tmp_path):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["dataset"]["d"] = 10
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="adapter.d"):
        load_experiment_config(path)


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
], ids=["train.lr", "top-level", "steps", "lr0", "noise_std", "k", "d"])
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


def test_paramcount_output(tmp_path, capsys):
    path = write_config(tmp_path, d=8, n=4, r=4, k=2, spt=2)
    assert main(["paramcount", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scaling_only routing params: 32" in out
    assert "rotmole routing params: 80" in out
    assert "extra over scaling_only: 48" in out
    assert "hidden dim: 7" in out


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


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", "--thetas", str(tmp_path / "nope.jsonl"),
                 "--snapshots", "0"]) == 2


def test_analyze_not_utf8_exit_2(tmp_path, capsys):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_bytes(NOT_UTF8)
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "thetas.jsonl is not valid UTF-8" in err[0], err[0]


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
], ids=["string", "null", "missing", "list"])
def test_analyze_bad_record_exit_2(tmp_path, capsys, line, field):
    thetas = tmp_path / "thetas.jsonl"
    thetas.write_text('{"type": "header", "init_seed": 1, "data_seed": 2}\n' + line + "\n")
    assert main(["analyze", "--thetas", str(thetas), "--snapshots", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "thetas.jsonl:2: " in err[0] and re.search(rf"\b{re.escape(field)}\b", err[0]), err[0]


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
    assert doc["floor"] > 0.0
    assert doc["init_seed"] == 99 and doc["data_seed"] == 404


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
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
