"""The four benchmark workloads, shaped like acceptance criteria 4, 5, 7 and
8/9, each with the correctness checks on its own outputs.

A workload is prepared once (configs, schedules, work directory: this is
set-up) and then run in rounds.  Round ``k`` uses master seed
``1000 * seed + k`` (mod 2**63), so a run with a given ``--seed`` always makes the same
inputs, round 0 included, whose digest identifies the outputs.

Parts that run to absorption (criterion-7 consensus runs, criterion-9
rewire-model runs) are sized by simulated time, not by run count: a round
keeps starting runs until their absorption times add up to a budget.  The
work in a round is then nearly the same for every seed and for every random
stream, so its wall time measures speed rather than the luck of the stream;
the number of runs is an output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from discordlab import cli, coevolution, dynamics, experiments, limits

FIG9 = dict(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)

# Round sizes.  Shapes (N, degrees, horizons, grids) follow the criteria;
# replica counts and budgets are sized so that a round takes a few seconds.
FULL = {
    "short_time": {"n": 1000, "rrg_replicas": 200, "er_n": 4000,
                   "er_replicas": 16},
    "diffusive": {"n": 500, "rrg_replicas": 16, "complete_replicas": 16,
                  "dcm_replicas": 8},
    "rewiring_consensus": {"n": 200, "nu": 10.0, "budget": 10.0},
    "coevolution": {"dense_n": 400, "horizon": 5.0, "rewire_n": 200,
                    "beta": 20.0, "budget": 240.0},
}

# Same code paths at sizes that finish in a second or two, for the smoke test.
TINY = {
    "short_time": {"n": 1000, "rrg_replicas": 20, "er_n": 600,
                   "er_replicas": 12},
    "diffusive": {"n": 60, "rrg_replicas": 12, "complete_replicas": 12,
                  "dcm_replicas": 12},
    "rewiring_consensus": {"n": 40, "nu": 10.0, "budget": 4.0},
    "coevolution": {"dense_n": 60, "horizon": 0.6, "rewire_n": 30,
                    "beta": 20.0, "budget": 5.0},
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Round:
    """One pass over a workload: timings, work done, checks, digest."""

    wall_s: float = 0.0
    runs: int = 0                 # simulation runs attempted
    failed_runs: int = 0          # runs that raised or timed out
    run_s: list = field(default_factory=list)  # latency of completed runs
    vertex_time: float = 0.0      # sum over runs of N x simulated time
    checks: list = field(default_factory=list)
    digest: str = ""
    notes: dict = field(default_factory=dict)  # reported, never gated
    outputs: dict = field(default_factory=dict)  # what checks and digest read


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


@contextmanager
def _timed(rnd: Round, tracer):
    """Time a round; under tracing, also open the round's root span."""
    with tracer.span("round", "bench") if tracer else nullcontext():
        t0 = time.perf_counter()
        yield
        rnd.wall_s = time.perf_counter() - t0


def _sub_seed(seed, k):
    return (1000 * seed + k) % 2**63  # numpy seeds must be >= 0


def _symmetric(name, results) -> Check:
    """Mean heart fraction within four 95% half-widths of 1/2 at every grid
    point, exact in expectation by opinion symmetry at u = 1/2.

    Pooled over the run's rounds: at diffusive times the heart fraction is
    near 0 or 1, and a handful of replicas all on one side would make a
    small-sample half-width meaningless.
    """
    results = [r for r in results if r is not None]
    if not results:
        return Check(name, False, "no result")
    h = np.vstack([r.samples["heart_frac"] for r in results])
    dev = np.abs(np.nanmean(h, axis=0) - 0.5)
    lim = 4 * experiments.Z95 * np.sqrt(np.nanvar(h, axis=0, ddof=1) / len(h))
    worst = float(np.max(dev / np.maximum(lim, 1e-300)))
    return Check(name, bool(np.all(dev <= lim)),
                 f"max |h-1/2| / 4CI = {worst:.3f} over {len(h)} replicas")


def _ensemble(cfg, clock, rnd: Round):
    """Run an ensemble; a raise fails all its replicas."""
    rnd.runs += cfg.replicas
    try:
        with clock.install():
            res = experiments.run_ensemble(cfg)
    except Exception as exc:  # counted, reported, and the round goes on
        rnd.failed_runs += cfg.replicas
        rnd.notes.setdefault("errors", []).append(repr(exc))
        clock.take()
        return None
    rnd.run_s += clock.take()
    horizon = cfg.horizon
    reached = np.where(np.isfinite(res.taus), res.taus, horizon)
    rnd.vertex_time += cfg.model["n"] * float(np.sum(reached))
    return res


def _arrays(res):
    return (res.samples["heart_frac"], res.samples["discordant_frac"],
            res.taus)


# ----------------------------------------------------------------------

class ShortTime:
    """Criterion 4 through the CLI, plus an Erdos-Renyi ensemble."""

    def __init__(self, spec, workdir):
        n = spec["n"]
        self.n = n
        self.grid = np.linspace(0.0, 5.0, 26).tolist()
        cfg = experiments.ExperimentConfig(
            model={"family": "rrg", "n": n, "d": 3}, u=0.5,
            replicas=spec["rrg_replicas"], master_seed=0, horizon=5.0,
            sample_times=self.grid,
            comparison={"name": "discordance", "u": 0.5, "d": 3, "n": n,
                        "tolerance": 0.02})
        self.cfg_path = os.path.join(workdir, "short_time.json")
        with open(self.cfg_path, "w") as fh:
            fh.write(cfg.to_json())
        self.out_dir = os.path.join(workdir, "short_time_out")
        self.rrg_replicas = spec["rrg_replicas"]
        er_n = spec["er_n"]
        self.er = experiments.ExperimentConfig(
            model={"family": "er", "n": er_n, "p": 3.0 / (er_n - 1)}, u=0.5,
            replicas=spec["er_replicas"], master_seed=0, horizon=5.0,
            sample_times=self.grid)
        self.graph_models = [cfg.model, self.er.model]

    def run_round(self, seed, k, clock, tracer=None) -> Round:
        rnd = Round()
        master = _sub_seed(seed, k)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with _timed(rnd, tracer):
            argv = ["ensemble", "--config", self.cfg_path, "--out-dir",
                    self.out_dir, "--seed", str(master), "--quiet"]
            rnd.runs += self.rrg_replicas
            try:
                with clock.install():
                    code = cli.dispatch(argv)
            except Exception as exc:  # its replicas fail below
                code = repr(exc)
            rnd.run_s += clock.take()
            try:
                summary_bytes, obs_bytes = (
                    Path(self.out_dir, f).read_bytes()
                    for f in ("summary.json", "observables.csv"))
            except OSError as exc:  # the CLI stopped before writing these
                rnd.failed_runs += self.rrg_replicas
                rnd.notes.setdefault("errors", []).append(repr(exc))
                summary_bytes = obs_bytes = b""
            summary = json.loads(summary_bytes or b"{}")
            reached = summary.get("consensus_reached", 0)
            rnd.vertex_time += self.n * (
                (summary.get("replicas", 0) - reached) * 5.0
                + reached * (summary.get("mean_tau") or 0.0))
            er = _ensemble(dataclasses.replace(self.er, master_seed=master),
                           clock, rnd)
            rnd.outputs = {"cli_exit": code, "er": er}
            rnd.checks = self.checks(rnd.outputs)
        rnd.notes["cli_sup_deviation"] = (
            summary.get("comparison") or {}).get("sup_deviation")
        rnd.notes["cli_bytes_written"] = sum(
            p.stat().st_size for p in Path(self.out_dir).iterdir()) \
            if os.path.isdir(self.out_dir) else 0
        rnd.digest = digest(obs_bytes, summary_bytes,
                            *(_arrays(er) if er else ()))
        return rnd

    @staticmethod
    def checks(out) -> list:
        er = out["er"]
        checks = [Check("cli_exit_0", out["cli_exit"] == 0,
                        f"exit code {out['cli_exit']} (criterion 4, tol 0.02)")]
        if er is None:
            return checks + [Check("er_d0", False, "no result")]
        d0 = float(er.mean["discordant_frac"][0])
        ci0 = float(er.ci_half["discordant_frac"][0])
        checks.append(Check("er_d0", abs(d0 - 0.5) <= 4 * ci0,
                            f"mean D0 = {d0:.4f}, 2u(1-u) = 0.5, CI {ci0:.4f}"))
        return checks

    @staticmethod
    def final_checks(rounds) -> list:
        return [_symmetric("er_heart_symmetry",
                           [r.outputs["er"] for r in rounds])]


class Diffusive:
    """Criterion 5: rrg and complete ensembles at diffusive times, plus a
    directed-configuration ensemble; theta fit and homogenisation check."""

    def __init__(self, spec, workdir):
        n = self.n = spec["n"]
        s_rrg = np.round(np.arange(0.2, 1.21, 0.1), 10)
        s_cpl = np.round(np.arange(0.05, 0.61, 0.05), 10)
        self.homog_times = [0.5 * n, 1.0 * n]

        def cfg(model, r, horizon, s):
            return experiments.ExperimentConfig(
                model=model, u=0.5, replicas=r, master_seed=0,
                horizon=horizon, sample_times=(s * n).tolist())
        self.cfgs = {
            "rrg": cfg({"family": "rrg", "n": n, "d": 3},
                       spec["rrg_replicas"], 1.3 * n, s_rrg),
            "complete": cfg({"family": "complete", "n": n},
                            spec["complete_replicas"], 0.7 * n, s_cpl),
            "dcm": cfg({"family": "dcm", "n": n, "d": 3},
                       spec["dcm_replicas"], 1.3 * n, s_rrg),
        }
        self.graph_models = [c.model for c in self.cfgs.values()]

    def run_round(self, seed, k, clock, tracer=None) -> Round:
        rnd = Round()
        master = _sub_seed(seed, k)
        with _timed(rnd, tracer):
            res = {name: _ensemble(dataclasses.replace(c, master_seed=master),
                                   clock, rnd)
                   for name, c in self.cfgs.items()}
            homog = None
            if res["rrg"] is not None:
                homog = experiments.homogenisation_check(
                    res["rrg"], coefficient=2 * limits.theta_regular(3),
                    times=self.homog_times)
            rnd.outputs = {"res": res, "homog": homog}
            rnd.checks = self.checks(rnd.outputs)
        for name in ("rrg", "complete"):
            if res[name] is not None:
                rnd.notes[f"theta_hat_{name}"] = \
                    experiments.estimate_theta(res[name]).theta
        rnd.digest = digest(*(a for r in res.values() if r is not None
                              for a in _arrays(r)))
        return rnd

    @staticmethod
    def checks(out) -> list:
        res, homog = out["res"], out["homog"]
        checks = []
        cpl = res["complete"]
        if cpl is None:
            checks.append(Check("complete_identity", False, "no result"))
        else:
            n = cpl.config.model["n"]
            h = cpl.samples["heart_frac"]
            err = float(np.max(np.abs(cpl.samples["discordant_frac"]
                                      - 2 * n / (n - 1) * h * (1 - h))))
            checks.append(Check("complete_identity", err <= 1e-12,
                                f"max |D - 2N/(N-1) h(1-h)| = {err:.2e}"))
        if homog is None:
            checks.append(Check("homogenisation", False, "no result"))
        else:
            worst = float(np.max(homog.mean_abs_residual))
            checks.append(Check("homogenisation", worst <= 0.05,
                                f"mean |residual| = {worst:.4f} <= 0.05"))
        return checks

    @staticmethod
    def final_checks(rounds) -> list:
        return [_symmetric(f"{name}_heart_symmetry",
                           [r.outputs["res"][name] for r in rounds])
                for name in ("rrg", "complete", "dcm")]


class RewiringConsensus:
    """Criterion 7: consensus_time with rewiring, every replica to
    absorption, until the round's sum of tau/N reaches the budget."""

    def __init__(self, spec, workdir):
        self.n = spec["n"]
        self.nu = spec["nu"]
        self.budget = spec["budget"]
        self.model = {"family": "rrg", "n": self.n, "d": 3}
        self.graph_models = [self.model]

    def run_round(self, seed, k, clock, tracer=None) -> Round:
        rnd = Round()
        master = _sub_seed(seed, k)
        taus = []
        changed = 0
        total = 0.0
        with _timed(rnd, tracer):
            while total < self.budget and rnd.failed_runs <= 10:
                t0 = time.perf_counter()
                rng = experiments.spawn_rng(master, rnd.runs)
                rnd.runs += 1
                g = experiments.build_graph(self.model, rng)
                before = (list(g.eu), list(g.ev), [list(a) for a in g.inc])
                state = dynamics.init_opinions_iid(g.n, 0.5, rng)
                try:
                    tau = dynamics.consensus_time(g, state, rng, nu=self.nu)
                except Exception as exc:  # counted, reported, round goes on
                    rnd.failed_runs += 1
                    rnd.notes.setdefault("errors", []).append(repr(exc))
                    continue
                rnd.run_s.append(time.perf_counter() - t0)
                changed += (g.eu, g.ev, g.inc) != before
                taus.append(tau)
                total += tau / self.n
            rnd.outputs = {"taus": np.asarray(taus), "runs": rnd.runs,
                           "changed": changed}
            rnd.checks = self.checks(rnd.outputs)
        rnd.vertex_time = self.n * float(np.sum(taus))
        rnd.digest = digest(np.asarray(taus), rnd.runs)
        return rnd

    @staticmethod
    def checks(out) -> list:
        absorbed = len(out["taus"])
        return [Check("all_absorb", absorbed == out["runs"],
                      f"{absorbed}/{out['runs']} runs absorbed"),
                Check("graph_unchanged", out["changed"] == 0,
                      f"{out['changed']} caller graphs modified")]

    def final_checks(self, rounds) -> list:
        """Pooled over the run's rounds, so that no round's early stop on
        one long replica decides it."""
        taus = np.concatenate([r.outputs["taus"] for r in rounds])
        bound = limits.fw_absorption_time(limits.theta_regular(3), 0.5)
        mean = float(np.mean(taus)) / self.n if len(taus) else math.inf
        return [Check("mean_tau_below_fw", mean < bound,
                      f"mean tau/N = {mean:.3f} < {bound:.3f} "
                      f"over {len(taus)} runs")]


class Coevolution:
    """Criterion 8 dense run against the pathwise dense limit, plus
    criterion-9 rewire-model runs until the sum of their absorption times
    reaches the budget."""

    def __init__(self, spec, workdir):
        self.n = spec["dense_n"]
        self.horizon = spec["horizon"]
        self.dt = 0.01
        self.sched = np.round(np.arange(0.0, self.horizon + 1e-9, self.dt), 10)
        self.s = coevolution.SwitchProbs(**FIG9)
        self.rewire_n = spec["rewire_n"]
        self.beta = spec["beta"]
        self.budget = spec["budget"]
        self.graph_models = [{"family": "er", "n": self.rewire_n, "p": 0.5}]

    def run_round(self, seed, k, clock, tracer=None) -> Round:
        rnd = Round()
        master = _sub_seed(seed, k)
        verdicts = []
        outcomes = []
        with _timed(rnd, tracer):
            t0 = time.perf_counter()
            rng = np.random.default_rng(master)
            rnd.runs += 1
            state = coevolution.init_positional(self.n, rng=rng)
            traj = coevolution.run_dense(state, 1.0, 1.1, self.s, self.horizon,
                                         self.sched, rng)
            rnd.run_s.append(time.perf_counter() - t0)
            rnd.vertex_time += self.n * self.horizon
            params = limits.DenseLimitParams(
                eta=1.0, rho=1.1, s=self.s, p0=float(traj.p[0]),
                q0=float(traj.q[0]))
            _, p_ode, _ = limits.integrate_dense_limit(
                params, self.dt, self.horizon, q_path=traj.q)
            total = 0.0
            r = 0
            while total < self.budget and rnd.failed_runs <= 10:
                t0 = time.perf_counter()
                rnd.runs += 1
                try:
                    outcome, _ = coevolution.run_rewire_model(
                        self.rewire_n, self.beta, coevolution.TO_RANDOM,
                        experiments.spawn_rng(master, r),
                        max_events=5_000_000)
                except Exception as exc:  # counted, reported, round goes on
                    rnd.failed_runs += 1
                    rnd.notes.setdefault("errors", []).append(repr(exc))
                    continue
                finally:
                    r += 1
                rnd.run_s.append(time.perf_counter() - t0)
                verdicts.append(outcome.verdict)
                outcomes.append((outcome.absorption_time,
                                 outcome.final_heart_fraction))
                if outcome.absorption_time is None:  # hit max_events
                    rnd.failed_runs += 1
                    break
                total += outcome.absorption_time
                rnd.vertex_time += self.rewire_n * outcome.absorption_time
            rnd.outputs = {"p": traj.p, "p_ode": p_ode, "verdicts": verdicts}
            rnd.checks = self.checks(rnd.outputs)
        i05 = int(np.searchsorted(self.sched, 0.5))
        rnd.notes["disc_edge_collapse"] = \
            1.0 - traj.disc_edge[i05] / traj.disc_edge[0]
        rnd.digest = digest(traj.q, traj.p, traj.disc_edge, p_ode,
                            *outcomes, *verdicts)
        return rnd

    @staticmethod
    def checks(out) -> list:
        sup = float(np.max(np.abs(out["p"] - out["p_ode"])))
        bad = [v for v in out["verdicts"]
               if v not in (coevolution.CONSENSUS, coevolution.POLARISATION)]
        return [Check("dense_limit_pathwise", sup <= 0.03,
                      f"sup |p - p_ode| = {sup:.4f} <= 0.03"),
                Check("rewire_verdicts", not bad,
                      f"{len(out['verdicts']) - len(bad)}/"
                      f"{len(out['verdicts'])} CONSENSUS or POLARISATION")]


WORKLOADS = {
    "short_time": ShortTime,
    "diffusive": Diffusive,
    "rewiring_consensus": RewiringConsensus,
    "coevolution": Coevolution,
}
