import hashlib
import json
import os

import numpy as np
import pytest

from discordlab import experiments
from discordlab.cli import dispatch
from discordlab.errors import InvalidParameterError


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_oracle_theta_regular_prints_json(capsys):
    assert dispatch(["oracle", "theta-regular", "--d", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"theta": 0.5}


def test_oracle_variants(capsys, tmp_path):
    assert dispatch(["oracle", "theta-rewiring", "--d", "3", "--nu", "1"]) == 0
    th = json.loads(capsys.readouterr().out)["theta"]
    assert 0.5 < th < 1.0
    assert dispatch(["oracle", "theta-directed", "--m1", "3", "--m2", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["theta"] == pytest.approx(1.5 ** 0.5)
    csv = tmp_path / "fd.csv"
    assert dispatch(["oracle", "fd", "--d", "3", "--t-max", "5",
                     "--points", "11", "--out", str(csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f_at_t_max"] < 1.0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 12
    assert dispatch(["oracle", "predict", "--u", "0.5", "--d", "3",
                     "--t", "0", "--n", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["discordant_fraction"] == pytest.approx(0.5)


def test_generate_roundtrip_and_manifest(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = dispatch(["generate", "--model", "rrg", "--n", "20", "--d", "3",
                   "--seed", "7", "--out", str(out), "--quiet"])
    assert rc == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"]["g.edges"] == sha(out)
    assert manifest["resolved"]["seed"] == 7
    # exactly one manifest next to the outputs
    assert [p.name for p in tmp_path.glob("manifest*")] == ["manifest.json"]


def test_simulate_trivial_consensus(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = dispatch(["simulate", "--model", "complete", "--n", "2", "--u", "1",
                   "--horizon", "1", "--samples", "3", "--seed", "1",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,heart_frac,discordant_frac"
    assert len(lines) == 4
    for ln in lines[1:]:
        _, h, d = ln.split(",")
        assert float(h) == 1.0 and float(d) == 0.0
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["consensus_time"] == 0.0


def test_simulate_determinism_bit_exact(tmp_path):
    argv = ["simulate", "--model", "rrg", "--n", "30", "--d", "3",
            "--u", "0.5", "--nu", "1.5", "--horizon", "3", "--samples", "7",
            "--seed", "42", "--quiet"]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        out = d / "t.csv"
        assert dispatch(argv + ["--out", str(out)]) == 0
        outs.append(sha(out))
    assert outs[0] == outs[1]


def test_simulate_from_graph_file(tmp_path):
    gfile = tmp_path / "g.edges"
    assert dispatch(["generate", "--model", "complete", "--n", "6",
                     "--seed", "3", "--out", str(gfile), "--quiet"]) == 0
    out = tmp_path / "t.csv"
    assert dispatch(["simulate", "--graph", str(gfile), "--u", "0.5",
                     "--horizon", "2", "--samples", "5", "--seed", "4",
                     "--out", str(out), "--quiet"]) == 0
    assert out.exists()


def test_rerun_reproduces_outputs(tmp_path):
    out = tmp_path / "t.csv"
    assert dispatch(["simulate", "--model", "rrg", "--n", "24", "--d", "3",
                     "--u", "0.5", "--horizon", "2", "--samples", "5",
                     "--seed", "11", "--out", str(out), "--quiet"]) == 0
    digest = sha(out)
    manifest = tmp_path / "manifest.json"
    assert manifest.exists()
    out.unlink()
    assert dispatch(["rerun", "--manifest", str(manifest)]) == 0
    assert sha(out) == digest


def test_rerun_reproduces_even_with_entropy_seed(tmp_path):
    out = tmp_path / "t.csv"
    assert dispatch(["simulate", "--model", "complete", "--n", "10",
                     "--u", "0.5", "--horizon", "1", "--samples", "4",
                     "--out", str(out), "--quiet"]) == 0  # seed from OS entropy
    digest = sha(out)
    assert dispatch(["rerun", "--manifest", str(tmp_path / "manifest.json")]) == 0
    assert sha(out) == digest


def test_coevolve_dense_csv_columns(tmp_path):
    out = tmp_path / "dense.csv"
    rc = dispatch(["coevolve", "--model", "dense", "--n", "60",
                   "--eta", "1.0", "--rho", "1.1", "--sc0", "1.5",
                   "--sc1", "0.5", "--sd0", "0.7", "--sd1", "2.0",
                   "--horizon", "1.0", "--samples", "11",
                   "--seed", "5", "--out", str(out), "--quiet"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,q,p,conc_edge,disc_edge,conc_nonedge,disc_nonedge"
    assert len(lines) == 12
    outcome = json.loads((tmp_path / "dense.csv.outcome.json").read_text())
    assert "verdict" in outcome


def test_coevolve_rewire_model(tmp_path):
    out = tmp_path / "rw.csv"
    rc = dispatch(["coevolve", "--model", "rewire-random", "--n", "40",
                   "--beta", "0.5", "--seed", "5", "--out", str(out),
                   "--quiet"])
    assert rc == 0
    outcome = json.loads((tmp_path / "rw.csv.outcome.json").read_text())
    assert outcome["verdict"] in ("CONSENSUS", "POLARISATION")


def test_ensemble_command_and_exit_codes(tmp_path):
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 60, "d": 3}, u=0.5, replicas=10,
        master_seed=9, horizon=2.0, sample_times=[0.0, 1.0, 2.0],
        comparison={"name": "discordance", "u": 0.5, "d": 3, "n": 60,
                    "tolerance": 0.2})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out_dir = tmp_path / "res"
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(out_dir), "--quiet"])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["comparison"]["passed"]
    obs = (out_dir / "observables.csv").read_text().splitlines()
    assert obs[0].startswith("t,mean_heart_frac")

    # an impossible tolerance must fail with exit code 3
    cfg.comparison["tolerance"] = 1e-9
    cfg_path.write_text(cfg.to_json())
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "res2"), "--quiet"])
    assert rc == 3


def test_ensemble_threads_identical(tmp_path):
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 40, "d": 3}, u=0.5, replicas=6,
        master_seed=21, horizon=2.0, sample_times=[1.0, 2.0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    digests = []
    for sub, threads in (("s1", "1"), ("s2", "2")):
        out_dir = tmp_path / sub
        assert dispatch(["ensemble", "--config", str(cfg_path),
                         "--out-dir", str(out_dir), "--threads", threads,
                         "--quiet"]) == 0
        digests.append(sha(out_dir / "observables.csv"))
    assert digests[0] == digests[1]


def test_exit_code_param_errors(tmp_path, capsys):
    assert dispatch(["oracle", "theta-regular", "--d", "1"]) == 2
    assert dispatch(["generate", "--model", "complete", "--n", "1",
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2
    assert dispatch(["simulate", "--bogus-flag"]) == 2
    assert dispatch(["nonsense"]) == 2


def test_exit_code_timeout(tmp_path):
    rc = dispatch(["simulate", "--model", "rrg", "--n", "60", "--d", "3",
                   "--u", "0.5", "--horizon", "50", "--samples", "3",
                   "--max-events", "5", "--seed", "2",
                   "--out", str(tmp_path / "t.csv"), "--quiet"])
    assert rc == 4


def test_help_exists_for_every_subcommand(capsys):
    for sub in ("generate", "simulate", "coevolve", "oracle", "ensemble",
                "rerun"):
        code = dispatch([sub, "--help"])
        assert code == 0
        assert "usage" in capsys.readouterr().out


def test_coevolve_dense_writes_final_edge_count(tmp_path):
    out = tmp_path / "dense.csv"
    assert dispatch(["coevolve", "--model", "dense", "--n", "40",
                     "--horizon", "0.5", "--samples", "6", "--seed", "3",
                     "--out", str(out), "--quiet"]) == 0
    outcome = json.loads((tmp_path / "dense.csv.outcome.json").read_text())
    last_p = float(out.read_text().splitlines()[-1].split(",")[2])
    assert outcome["final_edge_count"] == round(last_p * 40 * 39 / 2)
    assert outcome["final_edge_count"] > 0


@pytest.mark.parametrize("patch", [
    {"replicaz": 3},               # unknown key
    {"replicas": "3"},             # string for an int
    {"u": True},                   # boolean for a float
    {"model": ["rrg"]},            # list for a dict
    {"horizon": "never"},          # string for a float or null
])
def test_ensemble_bad_config_exits_2(tmp_path, capsys, patch):
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 20, "d": 3}, u=0.5, replicas=3,
        master_seed=1, horizon=1.0, sample_times=[1.0])
    data = json.loads(cfg.to_json())
    data.update(patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    with pytest.raises(InvalidParameterError):
        experiments.ExperimentConfig.from_json(cfg_path.read_text())
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "res"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", ['{"u": 0.5}', "{", "[1, 2]"])
def test_config_missing_keys_or_not_an_object(text):
    with pytest.raises(InvalidParameterError):
        experiments.ExperimentConfig.from_json(text)


@pytest.mark.parametrize("model", [
    {"family": "complete"},                  # no n
    {"family": "rrg", "n": 20},              # no d
    {"family": "er", "n": 20, "p": "x"},     # string for a float
    {"family": "dcm", "n": 20},              # neither d nor d_in/d_out
])
def test_ensemble_bad_model_spec_exits_2(tmp_path, capsys, model):
    cfg = experiments.ExperimentConfig(
        model=model, u=0.5, replicas=2, master_seed=1, horizon=1.0,
        sample_times=[1.0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "res"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_coevolve_dense_honours_max_events(tmp_path):
    rc = dispatch(["coevolve", "--model", "dense", "--n", "20",
                   "--horizon", "2", "--max-events", "5", "--seed", "1",
                   "--out", str(tmp_path / "dense.csv"), "--quiet"])
    assert rc == 4
