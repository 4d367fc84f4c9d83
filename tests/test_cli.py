import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import discordlab
from discordlab import experiments
from discordlab.cli import dispatch
from discordlab.errors import InvalidParameterError

from _deadline import deadline


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
    # a dcm of -1 vertices was written out as an empty graph
    assert dispatch(["generate", "--model", "dcm", "--n", "-1", "--d", "3",
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2
    assert dispatch(["simulate", "--bogus-flag"]) == 2
    assert dispatch(["nonsense"]) == 2
    run = ["simulate", "--model", "complete", "--n", "10", "--u", "0.5",
           "--horizon", "1", "--out", str(tmp_path / "s.csv"), "--quiet"]
    capsys.readouterr()
    # a negative cap used to end the run as a timeout (exit 4), and the
    # rate convention option is gone
    for extra in (["--max-events", "-1"], ["--rate-convention", "pair"]):
        assert dispatch(run + extra) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err


# the er sizes put C(n,2) past int64: p = 1e-30 spun forever, p = 1e-9
# leaked numpy's MemoryError ("3.55 PiB"); the dcm degree leaked
# OverflowError
@pytest.mark.parametrize("model", [
    ["er", "--n", "1000000000000", "--p", "1e-30"],
    ["er", "--n", "1000000000000", "--p", "1e-9"],
    ["dcm", "--n", "2", "--d", "1180591620717411303424"],
], ids=["er-p-1e-30", "er-p-1e-9", "dcm-d-2-70"])
def test_generate_huge_sizes_exit_2(tmp_path, capsys, model):
    with deadline(20.0):
        rc = dispatch(["generate", "--model", *model, "--seed", "1",
                       "--out", str(tmp_path / "g.edges"), "--quiet"])
    assert rc == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "g.edges").exists()


# numpy's "Maximum allowed size exceeded" leaked as a traceback (exit 1)
def test_dense_limit_step_count_past_int64_exits_2(capsys):
    rc = dispatch(["oracle", "dense-limit", "--t-max", "1", "--dt", "1e-300",
                   "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["theta-regular"],
    ["theta-rewiring", "--d", "3"],
    ["theta-directed", "--m1", "3"],
    ["fd", "--d", "3"],
    ["predict", "--u", "0.5", "--d", "3", "--t", "1"],
    ["dense-limit"],
    ["dense-limit", "--t-max", "nan"],
    ["fd", "--d", "3", "--t-max", "inf"],
    ["theta-rewiring", "--d", "3", "--nu", "nan"],
    ["theta-rewiring", "--d", "3", "--nu", "1", "--tol", "nan"],
    ["fd", "--d", "3", "--t-max", "1", "--tol", "nan"],
    ["fd", "--d", "3", "--t-max", "1", "--points", "-1"],
    ["predict", "--u", "0.5", "--d", "3", "--t", "1", "--n", "100",
     "--tol", "nan"],
    ["theta-directed", "--m1", "nan", "--m2", "9"],
    ["dense-limit", "--t-max", "1", "--eta", "nan"],
    ["dense-limit", "--t-max", "1", "--sc0", "nan"],
    ["dense-limit", "--t-max", "1", "--seed", "-1"],
], ids=["theta-regular", "theta-rewiring", "theta-directed", "fd",
        "predict", "dense-limit", "dense-limit-t-max-nan", "fd-t-max-inf",
        "theta-rewiring-nu-nan", "theta-rewiring-tol-nan", "fd-tol-nan",
        "fd-points-negative", "predict-tol-nan", "theta-directed-m1-nan",
        "dense-limit-eta-nan", "dense-limit-sc0-nan",
        "dense-limit-seed-negative"])
def test_oracle_bad_input_exits_2(capsys, argv):
    assert dispatch(["oracle", *argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_coevolve_negative_samples_exits_2(tmp_path, capsys):
    assert dispatch(["coevolve", "--model", "dense", "--n", "20",
                     "--horizon", "1", "--samples", "-1",
                     "--out", str(tmp_path / "d.csv"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# both flags were taken and ignored: rewire-random with --horizon 5
# --samples 3 ran to t = 8.82 and wrote 293 rows
@pytest.mark.parametrize("extra", [["--horizon", "5"], ["--samples", "3"]],
                         ids=["horizon", "samples"])
@pytest.mark.parametrize("argv", [
    ["rewire-random", "--beta", "2"],
    ["rewire-same", "--beta", "2"],
    ["holme-newman", "--m-edges", "60", "--beta", "0.5"],
], ids=["rewire-random", "rewire-same", "holme-newman"])
def test_coevolve_refuses_dense_only_flags(tmp_path, capsys, argv, extra):
    model, *flags = argv
    assert dispatch(["coevolve", "--model", model, "--n", "30", *flags,
                     *extra, "--seed", "1", "--out", str(tmp_path / "c.csv"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "dense only" in err and "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [
    ["dense", "--horizon", "1", "--sd1", "nan"],
    ["dense", "--horizon", "1", "--eta", "nan"],
    ["rewire-random", "--beta", "nan"],
    ["rewire-random", "--beta", "1", "--seed", "-1"],
    ["dense", "--horizon", "1", "--init", "iid", "--n", "-1"],
    ["rewire-random", "--beta", "1", "--max-events", "-1"],
    ["holme-newman", "--m-edges", "10", "--beta", "0.5",
     "--max-events", "-1"],
    ["dense", "--horizon", "1", "--max-events", "-1"],
], ids=["dense-sd1-nan", "dense-eta-nan", "rewire-random-beta-nan",
        "rewire-random-seed-negative", "dense-iid-n-negative",
        "rewire-random-max-events-negative",
        "holme-newman-max-events-negative", "dense-max-events-negative"])
def test_coevolve_bad_input_exits_2(tmp_path, capsys, argv):
    # a NaN weight acted as 0, a NaN eta spun to the event cap, a NaN beta
    # never adopted, a negative seed or size ended in numpy's ValueError,
    # and a negative cap stopped a run at once, as UNRESOLVED or a timeout
    model, *flags = argv
    assert dispatch(["coevolve", "--model", model, "--n", "20",
                     "--max-events", "1000", *flags,
                     "--out", str(tmp_path / "c.csv"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("patch", [
    {"master_seed": -1},
    {"comparison": {"name": "constant", "value": 0.5}},  # no tolerance
    {"comparison": {"name": "constant", "tolerance": 0.1}},  # no value
    {"comparison": {"name": "discordance", "d": 3, "n": 20,
                    "tolerance": 0.1}},  # no u
    {"comparison": {"name": "constant", "value": 0.5, "tolerance": 0.1,
                    "observable": "tau"}},
    {"max_events": -1},
    # found by the contract sweep: each wrote NaN or Infinity to
    # summary.json, with exit 3
    {"comparison": {"name": "constant", "value": 0.5,
                    "tolerance": math.nan}},
    {"comparison": {"name": "constant", "value": 0.5,
                    "tolerance": math.inf}},
    {"comparison": {"name": "constant", "value": 0.5, "tolerance": -1.0}},
    {"comparison": {"name": "constant", "value": -math.inf,
                    "tolerance": 0.1}},
    {"comparison": {"name": "constant", "value": math.nan,
                    "tolerance": 0.1}},
], ids=["negative_seed", "no_tolerance", "constant_no_value",
        "discordance_no_u", "unknown_observable", "negative_cap",
        "nan_tolerance", "infinite_tolerance", "negative_tolerance",
        "infinite_constant", "nan_constant"])
def test_ensemble_bad_run_spec_exits_2(tmp_path, capsys, patch):
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 20, "d": 3}, u=0.5, replicas=2,
        master_seed=1, horizon=1.0, sample_times=[1.0])
    for key, value in patch.items():
        setattr(cfg, key, value)
    with pytest.raises(InvalidParameterError):
        experiments.run_ensemble(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "res"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
    {"rate_convention": "pair"},   # a key of former configs
    {"sample_times": ["x"]},       # a string for a sample time
    {"sample_times": [None]},      # null for a sample time
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
    {"family": "dcm", "n": 20, "d_in": [1, 2], "d_out": [2, 1]},  # not n long
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


def test_coevolve_dense_without_samples_writes_strict_json(tmp_path):
    # with no sample the final heart fraction was written as NaN, which
    # is not JSON
    assert dispatch(["coevolve", "--model", "dense", "--n", "10",
                     "--horizon", "1", "--samples", "0", "--seed", "1",
                     "--out", str(tmp_path / "d.csv"), "--quiet"]) == 0
    text = (tmp_path / "d.csv.outcome.json").read_text()
    outcome = json.loads(text, parse_constant=_no_constant)
    assert outcome["final_heart_fraction"] is None


def test_ensemble_comparison_with_every_replica_timed_out_writes_strict_json(
        tmp_path):
    # the one replica times out before t = 2.5, so the ensemble mean there
    # is NaN; the sup deviation was written as NaN, which is not JSON
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 10, "d": 3}, u=0.5, replicas=1,
        master_seed=1, horizon=5.0, sample_times=[0.0, 2.5, 5.0],
        max_events=3,
        comparison={"name": "constant", "value": 0.3, "tolerance": 0.5})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = dispatch(["ensemble", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "res"), "--quiet"])
    assert rc == 3
    text = (tmp_path / "res" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_no_constant)
    assert summary["timed_out"] == [0]
    assert summary["comparison"]["sup_deviation"] is None
    assert summary["comparison"]["passed"] is False


def test_coevolve_dense_honours_max_events(tmp_path):
    rc = dispatch(["coevolve", "--model", "dense", "--n", "20",
                   "--horizon", "2", "--max-events", "5", "--seed", "1",
                   "--out", str(tmp_path / "dense.csv"), "--quiet"])
    assert rc == 4


_SIM_GRAPH = ["simulate", "--graph", "{f}", "--u", "0.5", "--horizon", "1",
              "--samples", "3", "--out", "{out}", "--quiet"]


@pytest.mark.parametrize("argv, text", [
    (_SIM_GRAPH, "# n=abc directed=0\n0 1\n"),
    (_SIM_GRAPH, "# nodes 5\n0 1\n"),
    (_SIM_GRAPH, "# n=3 directed=0\n0 1 2\n"),
    (_SIM_GRAPH, "# n=3 directed=0\n1\n"),
    (_SIM_GRAPH, None),  # no such file
    (["ensemble", "--config", "{f}", "--out-dir", "{out}", "--quiet"], None),
    (["rerun", "--manifest", "{f}", "--quiet"], None),
    (["rerun", "--manifest", "{f}", "--quiet"], '{"argv": ["oracle"]}'),
    (["rerun", "--manifest", "{f}", "--quiet"], "not json"),
    (["rerun", "--manifest", "{f}", "--quiet"],
     '{"argv_resolved": ["rerun", "--manifest", "{f}"]}'),
], ids=["header_n_abc", "header_no_equals", "three_ids", "lone_id",
        "missing_graph", "missing_config", "missing_manifest",
        "manifest_without_argv_resolved", "manifest_not_json",
        "manifest_reruns_itself"])
def test_bad_input_file_exits_2(tmp_path, capsys, argv, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text.replace("{f}", str(f)))
    rc = dispatch([a.format(f=f, out=tmp_path / "out") for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "rrg", "--n", "10", "--d", "3", "--u", "0.5"],
    ["coevolve", "--model", "dense", "--n", "10"],
], ids=["simulate", "coevolve-dense"])
def test_non_finite_horizon_exits_2_under_warnings_as_errors(tmp_path, argv,
                                                             value):
    # an infinite horizon reached np.linspace, whose RuntimeWarning ended
    # the call in a traceback (exit 1) under -W error
    src = str(Path(discordlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "discordlab.cli", *argv,
         f"--horizon={value}", "--out", str(tmp_path / "x.csv"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_process_pools_unloaded():
    code = ("import sys, discordlab.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    src = str(Path(discordlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


# ----------------------------------------------------------------------
# contract sweep: bad input exits 2, never with a traceback
# ----------------------------------------------------------------------

_BAD = st.sampled_from(["nan", "inf", "-inf", "0", "-1"])


def _flag(name, lo, hi):
    """``[name=value]`` with the value drawn from [lo, hi] (integers if
    both bounds are), or, one time in four, ``[]``: the flag left out."""
    good = st.integers(lo, hi) if isinstance(lo, int) and \
        isinstance(hi, int) else st.floats(lo, hi)
    return st.tuples(st.integers(0, 3), good).map(
        lambda kv: [f"{name}={kv[1]}"] if kv[0] < 3 else [])


def _flags(*specs):
    """Flags drawn by :func:`_flag`, with at most one of them set to NaN,
    +-inf, 0 or -1 instead."""
    def join(parts, spoiled):
        parts = list(parts)
        if spoiled is not None:
            i, value = spoiled
            parts[i] = [f"{specs[i][0]}={value}"]  # "=" lets "-inf" through
        return [x for part in parts for x in part]
    return st.builds(join, st.tuples(*(_flag(*spec) for spec in specs)),
                     st.none() | st.tuples(st.integers(0, len(specs) - 1),
                                           _BAD))


# every range keeps one call well under a second
_TOL = ("--tol", 1e-10, 1.0)
_RATES = [(f, 0.0, 10.0) for f in ("--eta", "--rho", "--sc0", "--sc1",
                                   "--sd0", "--sd1")]
_DENSITIES = [("--p0", 0.0, 1.0), ("--q0", 0.0, 1.0)]
_RUN = [("--n", 2, 12), ("--max-events", 0, 1000), ("--seed", 0, 99)]
# the flags each graph model reads
_GRAPHS = {"complete": [], "dcm": [("--d", 1, 4)], "er": [("--p", 0.0, 1.0)],
           "rrg": [("--d", 1, 4)]}
_SIM = [("--u", 0.0, 1.0), ("--horizon", 1e-2, 5.0), ("--samples", 2, 50),
        ("--max-events", 0, 10_000), ("--seed", 0, 99)]
# an ensemble config: small graphs, at most 4 replicas (below the lockstep
# threshold) and a bounded cap, with one key of the config, its model or
# its comparison spoiled
_MODELS = st.one_of(
    st.fixed_dictionaries({"family": st.just("complete"),
                           "n": st.integers(2, 12)}),
    *(st.fixed_dictionaries({"family": st.just(family),
                             "n": st.integers(2, 12), "d": st.integers(1, 4)})
      for family in ("rrg", "dcm")),
    st.fixed_dictionaries({"family": st.just("er"), "n": st.integers(2, 12),
                           "p": st.floats(0.0, 1.0)}))
_COMPARISONS = st.one_of(
    st.none(),
    st.fixed_dictionaries({"name": st.just("constant"),
                           "value": st.floats(0.0, 1.0),
                           "tolerance": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({"name": st.just("discordance"),
                           "u": st.floats(0.0, 1.0), "d": st.integers(1, 12),
                           "n": st.integers(1, 1000),
                           "tolerance": st.floats(0.0, 1.0)}))
_SPOILS = st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1]),
                    st.none())  # None: the key left out


@st.composite
def _ensemble_configs(draw):
    """The text of an ensemble config with one key spoiled."""
    horizon = draw(st.none() | st.floats(1e-2, 5.0))
    cfg = {
        "model": draw(_MODELS),
        "u": draw(st.floats(0.0, 1.0)),
        "replicas": draw(st.integers(1, 4)),
        "master_seed": draw(st.integers(0, 99)),
        "horizon": horizon,
        "sample_times": np.linspace(0.0, horizon or 5.0,
                                    draw(st.integers(0, 4))).tolist(),
        "nu": draw(st.floats(0.0, 10.0)),
        "adopt_from": draw(st.sampled_from(["out", "in"])),
        "max_events": draw(st.integers(0, 10_000)),
        "comparison": draw(_COMPARISONS),
    }
    # the config, its model or its comparison first, then one of its keys
    where = draw(st.sampled_from([cfg, cfg["model"], cfg["comparison"]]
                                 if cfg["comparison"] else [cfg, cfg["model"]]))
    key = draw(st.sampled_from(sorted(where)))
    value = draw(_SPOILS)
    if value is None:
        del where[key]
    else:
        where[key] = value
    return json.dumps(cfg)


_SWEEP = {
    **{f"generate {model}": _flags(("--n", 2, 30), *flags, ("--seed", 0, 99))
       for model, flags in _GRAPHS.items()},
    # only undirected graphs rewire
    **{f"simulate {model}": _flags(
        ("--n", 2, 30), *flags, *_SIM,
        *([] if model == "dcm" else [("--nu", 0.0, 10.0)]))
       for model, flags in _GRAPHS.items()},
    "oracle theta-regular": _flags(("--d", 1, 12)),
    "oracle theta-rewiring": _flags(("--d", 1, 12), ("--nu", 1e-2, 100.0),
                                    _TOL),
    "oracle theta-directed": _flags(("--m1", 0.0, 20.0),
                                    ("--m2", 0.0, 400.0)),
    "oracle fd": _flags(("--d", 1, 12), ("--t-max", 0.0, 50.0),
                        ("--points", 1, 201), _TOL),
    "oracle predict": _flags(("--u", 0.0, 1.0), ("--d", 1, 12),
                             ("--t", 0.0, 50.0), ("--n", 1, 1000), _TOL),
    "oracle dense-limit": _flags(("--t-max", 0.0, 50.0), ("--dt", 1e-2, 1.0),
                                 ("--seed", 0, 99), *_RATES, *_DENSITIES),
    "coevolve rewire-random": _flags(*_RUN, ("--beta", 1e-2, 50.0)),
    "coevolve rewire-same": _flags(*_RUN, ("--beta", 1e-2, 50.0)),
    "coevolve holme-newman": _flags(*_RUN, ("--m-edges", 0, 20),
                                    ("--beta", 0.0, 1.0)),
    "ensemble": _ensemble_configs(),
    "coevolve dense": st.tuples(
        _flags(*_RUN, ("--horizon", 0.0, 2.0), ("--samples", 0, 5),
               *_RATES, *_DENSITIES),
        st.sampled_from([[], ["--init", "iid"]])).map(lambda t: t[0] + t[1]),
}


def _no_constant(name):
    raise AssertionError(f"{name} in the output")


@pytest.mark.parametrize("command", sorted(_SWEEP))
def test_dispatch_sweep_exits_cleanly(command):
    """Each ``oracle`` subcommand, each ``coevolve`` model and ``generate``
    and ``simulate`` on each graph model, on drawn flags, and ``ensemble``
    on drawn configs: exit 0 or 2 (3 for a failed comparison, 4 for a run
    that hits its event cap) with no traceback.  An oracle's exit-0
    output, and every JSON file a command writes, is JSON with no NaN or
    inf."""
    codes = {"oracle": (0, 2), "generate": (0, 2),
             "ensemble": (0, 2, 3, 4)}.get(command.split()[0], (0, 2, 4))

    # an ensemble config has twice the keys of the other commands' flags
    @settings(max_examples=100 if command == "ensemble" else 40,
              derandomize=True, deadline=None)
    @given(_SWEEP[command])
    def sweep(drawn):
        if command == "ensemble":
            with open(cfg_path, "w") as fh:
                fh.write(drawn)
            argv = ["ensemble", "--config", cfg_path, "--out-dir", out_dir,
                    "--quiet"]
        else:
            argv = command.split() + drawn
        if argv[0] not in ("oracle", "ensemble"):
            argv[1:1] = ["--model"]
            argv += ["--out", os.path.join(out_dir, "c.csv"), "--quiet"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = dispatch(argv)
            except Exception as exc:  # a traceback from the command line
                raise AssertionError(f"{argv}: {exc!r}") from exc
        said = err.getvalue()
        assert code in codes and "Traceback" not in said, (argv, code, said)
        assert said.startswith("timeout: ") if code == 4 else \
            ("error: " in said) == (code == 2), (argv, code, said)
        if code == 0 and argv[0] == "oracle":
            json.loads(out.getvalue(), parse_constant=_no_constant)
        for name in os.listdir(out_dir):  # what this call wrote
            path = os.path.join(out_dir, name)
            if name.endswith(".json"):
                with open(path) as fh:
                    json.load(fh, parse_constant=_no_constant)
            os.remove(path)

    with tempfile.TemporaryDirectory() as out_dir, \
            tempfile.TemporaryDirectory() as cfg_dir, deadline(60.0):
        cfg_path = os.path.join(cfg_dir, "cfg.json")
        sweep()
