"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric is emitted with a unit,
that digests repeat for a seed and under tracing, and that each workload's
checks fail when they are fed a corrupted result.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ReplicaClock  # noqa: E402

E2E = ("setup_s", "vertex_time_per_ref", "wall_s", "replicas_per_s",
       "vertex_time_per_s", "replica_s_p50", "peak_rss_mb", "failed_frac")


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _digest(lines):
    return lines[0].split("digest=")[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_digests_and_checks(workload):
    lines, out = _bench(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == list(run.GATED)
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"} and m["value"] > 0
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[2:]
               if ln.startswith("  ") and ln.split()[0] in run.UNITS}
    for name in E2E:
        assert printed[name] == run.UNITS[name], name
    assert any(ln.startswith("  replica_s_tail") for ln in lines)

    again, _ = _bench(workload, 0)
    assert _digest(again) == _digest(lines)

    traced, tout = _bench(workload, 1)
    assert tout["correct"]
    assert _digest(traced) == _digest(lines)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(tout["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert tout["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == 90.0


@pytest.fixture(scope="module")
def tiny_rounds(tmp_path_factory):
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        work = cls(workloads.TINY[name], str(tmp_path_factory.mktemp(name)))
        rnd = work.run_round(3, 0, ReplicaClock())
        final = getattr(work, "final_checks", lambda _: [])([rnd])
        assert all(c.ok for c in rnd.checks + final), rnd.checks + final
        out[name] = (work, rnd)
    return out


def _fails(checks, name):
    return not {c.name: c.ok for c in checks}[name]


def test_short_time_checks_catch_corruption(tiny_rounds):
    _, rnd = tiny_rounds["short_time"]
    check = workloads.ShortTime.checks
    assert _fails(check({**rnd.outputs, "cli_exit": 3}), "cli_exit_0")
    er = rnd.outputs["er"]
    shifted = dataclasses.replace(
        er, mean={**er.mean, "discordant_frac": er.mean["discordant_frac"] - 0.2},
        samples={**er.samples, "heart_frac": er.samples["heart_frac"] + 0.3})
    bad = dataclasses.replace(rnd, outputs={**rnd.outputs, "er": shifted})
    assert _fails(check(bad.outputs), "er_d0")
    assert _fails(workloads.ShortTime.final_checks([bad]),
                  "er_heart_symmetry")


def test_diffusive_checks_catch_corruption(tiny_rounds):
    _, rnd = tiny_rounds["diffusive"]
    res = dict(rnd.outputs["res"])
    cpl = res["complete"]
    res["complete"] = dataclasses.replace(cpl, samples={
        **cpl.samples,
        "discordant_frac": cpl.samples["discordant_frac"] + 1e-9})
    dcm = res["dcm"]
    res["dcm"] = dataclasses.replace(dcm, samples={
        **dcm.samples, "heart_frac": 0 * dcm.samples["heart_frac"] + 0.9})
    homog = dataclasses.replace(
        rnd.outputs["homog"],
        mean_abs_residual=rnd.outputs["homog"].mean_abs_residual + 0.06)
    bad = workloads.Diffusive.checks({"res": res, "homog": homog})
    for name in ("complete_identity", "homogenisation"):
        assert _fails(bad, name), name
    bad_round = dataclasses.replace(rnd, outputs={"res": res})
    assert _fails(workloads.Diffusive.final_checks([bad_round]),
                  "dcm_heart_symmetry")


def test_consensus_checks_catch_corruption(tiny_rounds):
    work, rnd = tiny_rounds["rewiring_consensus"]
    out = rnd.outputs
    bad = work.checks({**out, "runs": out["runs"] + 1, "changed": 1})
    assert _fails(bad, "all_absorb") and _fails(bad, "graph_unchanged")
    slow = dataclasses.replace(rnd, outputs={**out, "taus": out["taus"] * 10})
    assert _fails(work.final_checks([slow]), "mean_tau_below_fw")
    assert not _fails(work.final_checks([rnd]), "mean_tau_below_fw")


def test_coevolution_checks_catch_corruption(tiny_rounds):
    _, rnd = tiny_rounds["coevolution"]
    out = rnd.outputs
    bad = workloads.Coevolution.checks({
        **out, "p_ode": out["p_ode"] + 0.05,
        "verdicts": out["verdicts"] + ["UNRESOLVED"]})
    assert _fails(bad, "dense_limit_pathwise")
    assert _fails(bad, "rewire_verdicts")


def test_refuses_tree_without_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short_time",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
