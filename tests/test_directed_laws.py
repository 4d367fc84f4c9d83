"""``run_voter_directed`` against the event-driven directed engine it ran on
before the literal clock (kept verbatim in ``_oracles`` as
``reference_directed``), on regular and mixed copying degrees, copying
from out- and from in-neighbours.

Two-sample tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes and seeds were fixed before the runs.  Runs to
consensus include graphs with two or more closed classes, where both
engines stop once two of them are unanimous and disagree; such a run counts
with an infinite consensus time.
"""

import math
import re

import numpy as np
import pytest
from scipy import stats

from discordlab import dynamics, graphs
from discordlab.errors import SimulationTimeout

from _deadline import deadline
from _oracles import reference_directed

ALPHA = 0.01

ENGINES = {"new": dynamics.run_voter_directed, "reference": reference_directed}

CASES = [("regular", "out"), ("regular", "in"), ("mixed", "out"),
         ("mixed", "in")]
IDS = [f"{kind}-{adopt_from}" for kind, adopt_from in CASES]


def _graph(kind, n, rng):
    """Every vertex copies 3 others, or out-degrees uniform in 1..4 with
    the in-degrees a permutation of them, so that both directions can
    copy."""
    if kind == "regular":
        return graphs.generate_directed_configuration([3] * n, [3] * n, rng)
    d_out = rng.integers(1, 5, n)
    return graphs.generate_directed_configuration(rng.permutation(d_out),
                                                  d_out, rng)


def _runs(engine, kind, adopt_from, n, horizon, sched, R, seed, **kw):
    """R runs of ``engine``, each with its graph and start; a run stopped by
    a timeout gives its ``partial`` and the message."""
    out = []
    for r in range(R):
        rng = np.random.default_rng([seed, r])
        g = _graph(kind, n, rng)
        st = dynamics.init_opinions_iid(n, 0.5, rng)
        try:
            out.append((ENGINES[engine](g, st, horizon, sched, rng,
                                        adopt_from=adopt_from, **kw), None))
        except SimulationTimeout as exc:
            out.append((exc.partial, str(exc)))
    return out


def _tau(run):
    traj, _ = run
    return math.inf if traj.consensus_time is None else traj.consensus_time


@pytest.mark.parametrize("kind, adopt_from", CASES, ids=IDS)
@deadline(120.0)
def test_consensus_law_matches_reference(kind, adopt_from):
    # tau (infinite where consensus became unreachable) and the flip count
    # at the end of the run
    R, n = 1000, 30
    new, ref = (_runs(e, kind, adopt_from, n, None, [], R, seed)
                for e, seed in (("new", 1), ("reference", 2)))
    for key in (_tau, lambda run: run[0].n_events):
        p = stats.ks_2samp([key(r) for r in new], [key(r) for r in ref]).pvalue
        assert p > ALPHA / 2, (kind, adopt_from, p)


@pytest.mark.parametrize("kind, adopt_from", CASES, ids=IDS)
@deadline(120.0)
def test_sampled_fractions_match_reference(kind, adopt_from):
    # heart and discordant fractions at each sample time of a finite
    # horizon, and the flip count at the horizon
    R, n, horizon = 600, 50, 30.0
    sched = [1.0, 5.0, 15.0, 30.0]
    new, ref = (_runs(e, kind, adopt_from, n, horizon, sched, R, seed)
                for e, seed in (("new", 3), ("reference", 4)))
    tests = 2 * len(sched) + 1
    for key in ("heart_frac", "discordant_frac"):
        a = np.array([getattr(tr, key) for tr, _ in new])
        b = np.array([getattr(tr, key) for tr, _ in ref])
        for k in range(len(sched)):
            p = stats.ks_2samp(a[:, k], b[:, k]).pvalue
            assert p > ALPHA / tests, (key, sched[k], p)
    p = stats.ks_2samp([tr.n_events for tr, _ in new],
                       [tr.n_events for tr, _ in ref]).pvalue
    assert p > ALPHA / tests, p


@pytest.mark.parametrize("kind, adopt_from", [("regular", "out"),
                                              ("mixed", "in")],
                         ids=["regular-out", "mixed-in"])
@deadline(120.0)
def test_finite_horizon_consensus_times_match_reference(kind, adopt_from):
    # an absorption inside a sample gap is placed there by a Beta draw
    R, n, horizon, sched = 800, 10, 40.0, [10.0, 20.0, 40.0]
    taus = [[_tau(r) for r in _runs(e, kind, adopt_from, n, horizon, sched,
                                    R, seed)]
            for e, seed in (("new", 13), ("reference", 14))]
    assert np.isinf(taus[0]).mean() < 0.3
    p = stats.ks_2samp(*taus).pvalue
    assert p > ALPHA, p


@pytest.mark.parametrize("kind, adopt_from", [("regular", "in"),
                                              ("mixed", "out")],
                         ids=["regular-in", "mixed-out"])
@deadline(120.0)
def test_cap_time_matches_reference(kind, adopt_from):
    # a cap hit on the unbounded last gap: its time is a Gamma draw.  Every
    # flip moves the heart count by one, so a cap of 5 comes before
    # consensus unless fewer than 6 vertices start in a minority; a run
    # whose closed classes disagree first stops with no cap (time inf)
    R, n, cap = 600, 40, 5
    times = []
    for e, seed in (("new", 5), ("reference", 6)):
        ts = []
        for tr, msg in _runs(e, kind, adopt_from, n, None, [], R, seed,
                             max_events=cap):
            assert msg is not None
            if msg.startswith("event cap"):
                assert tr.n_events == cap
                ts.append(float(re.search(r"at t=(\S+)", msg).group(1)))
            else:
                assert "unreachable" in msg and tr.n_events <= cap
                ts.append(math.inf)
        assert np.isfinite(ts).mean() > 0.8
        times.append(ts)
    p = stats.ks_2samp(*times).pvalue
    assert p > ALPHA, p


def test_directed_run_builds_no_adjacency_lists(monkeypatch):
    # the engine reads the graph's endpoint arrays only
    def boom(*args):
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(graphs, "_grouped", boom)
    rng = np.random.default_rng(11)
    for kind, adopt_from in CASES:
        g = _graph(kind, 40, rng)
        st = dynamics.init_opinions_iid(40, 0.5, rng)
        dynamics.run_voter_directed(g, st, 10.0, [1.0, 10.0], rng,
                                    adopt_from=adopt_from, check=True)
        with deadline():
            try:
                dynamics.consensus_time(g, st, rng)
            except SimulationTimeout:
                pass


def test_check_recounts_arcs_on_multigraphs():
    # self-loops and parallel arcs are common on 6 vertices; check= holds
    # the recount over arcs to count_discordant at every sample time
    sched = np.linspace(0.5, 20.0, 40).tolist()
    for seed in range(30):
        rng = np.random.default_rng([12, seed])
        d_out = rng.integers(1, 5, 6)
        g = graphs.generate_directed_configuration(rng.permutation(d_out),
                                                   d_out, rng)
        st = dynamics.init_opinions_iid(6, 0.5, rng)
        for adopt_from in ("out", "in"):
            traj = dynamics.run_voter_directed(g, st, 20.0, sched, rng,
                                               adopt_from=adopt_from,
                                               check=True)
            assert len(traj.times) == len(sched)
