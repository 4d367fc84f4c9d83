"""The literal-clock engine behind every undirected run off an implicit
K_n, with rewiring (``nu > 0``) and without (``nu = 0``), against the
event-driven engine it replaced (kept verbatim in ``_oracles`` as the
reference) and against exact laws.

Two-sample tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes and seeds were fixed before the runs.  Runs to
consensus at ``nu = 0`` are drawn on connected graphs only, where the
reference engine reaches consensus too.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from discordlab import dynamics, graphs
from discordlab.errors import SimulationTimeout

from _deadline import deadline
from _oracles import is_connected, reference_rewiring

ALPHA = 0.01


def _mixed(n, rng):
    """Configuration multigraph with degrees uniform in 2..5."""
    d = rng.integers(2, 6, n)
    d[0] += d.sum() % 2
    stubs = np.repeat(np.arange(n), d)[rng.permutation(d.sum())]
    return graphs.Graph(n, stubs[0::2], stubs[1::2])


def _graph(family, n, rng, connected=False):
    """A graph of ``family``; with ``connected``, the first connected one
    drawn from ``rng``."""
    while True:
        if family == "rrg":
            g = graphs.generate_random_regular(n, 3, rng)
        elif family == "er":
            g = graphs.generate_erdos_renyi(n, 2.0 / (n - 1), rng)
        else:
            g = _mixed(n, rng)
        if not connected or is_connected(g):
            return g


def _runs(engine, family, n, nu, horizon, sched, R, seed):
    out = []
    for r in range(R):
        rng = np.random.default_rng([seed, r])
        g = _graph(family, n, rng, connected=nu == 0 and horizon is None)
        st = dynamics.init_opinions_iid(n, 0.5, rng)
        with deadline():
            out.append(engine(g, st, nu, horizon, sched, rng))
    return out


def _cap_time(exc):
    return float(re.search(r"at t=(\S+)", str(exc)).group(1))


# ----------------------------------------------------------------------
# two-sample laws against the reference engine
# ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("family", ["rrg", "mixed"])
@pytest.mark.parametrize("conv, nu", [("pair", 10.0), ("edge", 5.0),
                                      ("pair", 0.0)])
def test_consensus_law_matches_reference(family, conv, nu):
    # tau and the event count (swaps plus flips) at absorption; the former
    # "edge" rate convention at nu was the one clock at 2 nu, so its cases
    # take seeds of their own, or they would replay the "pair" cases
    nu *= 2 if conv == "edge" else 1
    seed = 15 if conv == "edge" else 1
    R, n = 800, 40
    new = _runs(dynamics.run_voter_rewiring, family, n, nu, None, [], R, seed)
    ref = _runs(reference_rewiring, family, n, nu, None, [], R, seed + 1)
    for key in ("consensus_time", "n_events"):
        a = [getattr(tr, key) for tr in new]
        b = [getattr(tr, key) for tr in ref]
        p = stats.ks_2samp(a, b).pvalue
        assert p > ALPHA / 2, (key, np.mean(a), np.mean(b), p)


@pytest.mark.slow
@pytest.mark.parametrize("family, nu", [
    ("rrg", 4.0), ("mixed", 4.0), ("er", 4.0),
    ("rrg", 0.0), ("mixed", 0.0), ("er", 0.0)],
    ids=["rrg", "mixed", "er", "rrg-static", "mixed-static", "er-static"])
def test_sampled_fractions_match_reference(family, nu):
    # heart and discordant fractions at each sample time of a finite
    # horizon, and the event count at the horizon; ER(60, 2/59) has
    # isolated vertices, whose adoption proposals are nulls
    R, n, horizon = 500, 60, 30.0
    sched = [1.0, 5.0, 15.0, 30.0]
    new = _runs(dynamics.run_voter_rewiring, family, n, nu, horizon, sched,
                R, 3)
    ref = _runs(reference_rewiring, family, n, nu, horizon, sched, R, 4)
    tests = 2 * len(sched) + 1
    for key in ("heart_frac", "discordant_frac"):
        a = np.array([getattr(tr, key) for tr in new])
        b = np.array([getattr(tr, key) for tr in ref])
        for k in range(len(sched)):
            p = stats.ks_2samp(a[:, k], b[:, k]).pvalue
            assert p > ALPHA / tests, (key, sched[k], p)
    p = stats.ks_2samp([tr.n_events for tr in new],
                       [tr.n_events for tr in ref]).pvalue
    assert p > ALPHA / tests, p


def test_finite_horizon_consensus_times_match_reference():
    # an absorption inside a sample gap is placed there by a Beta draw
    R, n, horizon, sched = 600, 16, 60.0, [10.0, 30.0, 60.0]
    for nu in (4.0, 0.0):
        taus = []
        for engine, seed in ((dynamics.run_voter_rewiring, 13),
                             (reference_rewiring, 14)):
            runs = _runs(engine, "rrg", n, nu, horizon, sched, R, seed)
            taus.append([math.inf if tr.consensus_time is None
                         else tr.consensus_time for tr in runs])
        assert np.isinf(taus[0]).mean() < 0.2, nu
        p = stats.ks_2samp(*taus).pvalue
        assert p > ALPHA, (nu, p)


def test_cap_time_matches_reference():
    # a cap hit on the unbounded last gap: its time is a Gamma draw.  At
    # nu = 0 every event is a flip that moves the heart count by one, so a
    # cap of 5 comes before consensus unless fewer than 6 vertices start
    # in a minority
    R, n = 400, 40
    for nu, cap in ((10.0, 300), (0.0, 5)):
        times = {}
        for engine, seed in ((dynamics.run_voter_rewiring, 5),
                             (reference_rewiring, 6)):
            times[engine] = []
            for r in range(R):
                rng = np.random.default_rng([seed, r])
                g = graphs.generate_random_regular(n, 3, rng)
                st = dynamics.init_opinions_iid(n, 0.5, rng)
                with deadline(), pytest.raises(SimulationTimeout) as err:
                    engine(g, st, nu, None, [], rng, max_events=cap)
                assert err.value.partial.n_events == cap
                times[engine].append(_cap_time(err.value))
        p = stats.ks_2samp(*times.values()).pvalue
        assert p > ALPHA, (nu, p)


# ----------------------------------------------------------------------
# exact laws
# ----------------------------------------------------------------------

def test_degree_weighted_hearts_give_the_consensus_odds():
    # sum_v deg(v) xi_v is a martingale under voter moves and
    # degree-preserving swaps, so P(consensus = 1) = sum deg xi / 2m; at
    # nu = 0 on connected graphs only, where consensus is sure
    degs = [6, 6, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
    ops = [1, 1] + [0] * 10
    want = 12 / 28
    R = 4000
    for nu in (3.0, 0.0):
        ones = 0
        for r in range(R):
            rng = np.random.default_rng([7, r])
            while True:
                stubs = np.repeat(np.arange(12), degs)[rng.permutation(28)]
                g = graphs.Graph(12, stubs[0::2], stubs[1::2])
                if nu > 0 or is_connected(g):
                    break
            st = dynamics.OpinionState(list(ops))
            with deadline():
                traj = dynamics.run_voter_rewiring(
                    g, st, 2 * nu, None, [], rng, max_events=100_000)
            ones += traj.consensus_value
        sd = math.sqrt(want * (1 - want) / R)
        assert abs(ones / R - want) <= 4 * sd, (nu, ones / R)


def _frozen():
    # a path on 0..3, all diamonds, and an isolated heart: nothing can
    # flip, so every event is a swap
    g = graphs.Graph(5, [0, 1, 2], [1, 2, 3])
    return g, dynamics.OpinionState([0, 0, 0, 0, 1])


@pytest.mark.parametrize("conv, pair_rate", [("pair", 1 / 3), ("edge", 2 / 3)])
def test_swap_count_is_poisson_at_the_pair_rate(conv, pair_rate):
    # n_events counts swaps, not null proposals (one in m = 3 here): over
    # [0, 50] it is Poisson(pair_rate * C(3, 2) * 50), pair_rate = nu/(2m);
    # the former "edge" rate convention at nu was the one clock at 2 nu
    nu = 4.0 if conv == "edge" else 2.0
    g, st = _frozen()
    R, horizon = 1000, 50.0
    counts = [dynamics.run_voter_rewiring(
        g, st, nu, horizon, [horizon], np.random.default_rng([8, r])).n_events
        for r in range(R)]
    mean = pair_rate * 3 * horizon
    assert abs(np.mean(counts) - mean) <= 4 * math.sqrt(mean / R)
    assert 0.85 < np.var(counts) / mean < 1.15


def test_cap_is_hit_at_the_time_of_the_capped_event():
    # with swaps at total rate 1, the 20th comes at a Gamma(20, 1) time;
    # the partial trajectory holds the sample times before it and no other
    g, st = _frozen()
    sched = np.arange(1.0, 61.0).tolist()
    times = []
    for r in range(500):
        with pytest.raises(SimulationTimeout) as err:
            dynamics.run_voter_rewiring(g, st, 2.0, 60.0, sched,
                                        np.random.default_rng([9, r]),
                                        max_events=20)
        t = _cap_time(err.value)
        partial = err.value.partial
        assert partial.n_events == 20
        assert list(partial.times) == [x for x in sched if x < t]
        times.append(t)
    assert stats.kstest(times, stats.gamma(20).cdf).pvalue > ALPHA


# ----------------------------------------------------------------------
# consensus out of reach: components at nu = 0, isolated vertices at nu > 0
# ----------------------------------------------------------------------

def _two_triangles():
    return graphs.Graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])


def test_disagreeing_unanimous_components_stop_at_once(rng):
    # without swaps a component never hears from another: two unanimous
    # components that disagree leave consensus out of reach from t = 0
    st = dynamics.OpinionState([1, 1, 1, 0, 0, 0])
    for run in (dynamics.run_voter, dynamics.run_voter_rewiring):
        args = (0.0,) if run is dynamics.run_voter_rewiring else ()
        with deadline(), pytest.raises(SimulationTimeout,
                                        match="unreachable") as err:
            run(_two_triangles(), st, *args, None, [1.0], rng,
                max_events=10_000)
        assert err.value.partial.n_events == 0
        assert len(err.value.partial.times) == 0
    with deadline(), pytest.raises(SimulationTimeout, match="unreachable"):
        dynamics.consensus_time(_two_triangles(), st, rng, max_events=10_000)


def test_mixed_components_reach_consensus_or_stop_when_they_disagree():
    # each triangle settles on its own: the runs that settle both on one
    # opinion reach consensus, the others stop at the flip that settles
    # the second triangle on the other opinion
    st = dynamics.OpinionState([1, 0, 0, 1, 1, 0])
    outcomes = set()
    for seed in range(40):
        try:
            with deadline():
                traj = dynamics.run_voter(_two_triangles(), st, None, [],
                                          np.random.default_rng(seed),
                                          max_events=10_000)
            assert traj.consensus_time > 0 and traj.n_events < 10_000
            outcomes.add("consensus")
        except SimulationTimeout as exc:
            assert "unreachable" in str(exc)
            assert exc.partial.n_events < 10_000
            outcomes.add("unreachable")
    assert outcomes == {"consensus", "unreachable"}


def test_self_loop_only_vertex_is_its_own_component(rng):
    # vertex 2 has a self-loop and no other edge, so it never changes
    g = graphs.Graph(3, [0, 2], [1, 2])
    st = dynamics.OpinionState([1, 1, 0])
    with deadline(), pytest.raises(SimulationTimeout,
                                    match="unreachable") as err:
        dynamics.run_voter(g, st, None, [], rng, max_events=10_000)
    assert err.value.partial.n_events == 0
    # the edge settles on 0 (consensus) or on 1 (out of reach) at one flip
    st = dynamics.OpinionState([1, 0, 0])
    outcomes = set()
    for seed in range(40):
        try:
            with deadline():
                traj = dynamics.run_voter(g, st, None, [],
                                          np.random.default_rng(seed),
                                          max_events=10_000)
        except SimulationTimeout as exc:
            assert "unreachable" in str(exc)
            traj = exc.partial
            outcomes.add("unreachable")
        else:
            assert traj.consensus_value == 0
            outcomes.add("consensus")
        assert traj.n_events == 1
    assert outcomes == {"consensus", "unreachable"}


def test_frozen_finite_horizon_runs_return_the_constant_state(rng):
    st = dynamics.OpinionState([1, 1, 1, 0, 0, 0])
    traj = dynamics.run_voter(_two_triangles(), st, 20.0, [5.0, 20.0], rng,
                              max_events=10_000)
    assert traj.consensus_time is None and traj.n_events == 0
    assert list(traj.heart_frac) == [0.5, 0.5]
    assert list(traj.discordant_frac) == [0.0, 0.0]


def test_isolated_vertex_against_unanimous_rest_stops_at_once(rng):
    g, st = _frozen()
    with pytest.raises(SimulationTimeout) as err:
        dynamics.consensus_time(g, st, rng, nu=1.0, max_events=200_000)
    assert err.value.partial.n_events == 0
    # isolated vertices that disagree with each other
    g = graphs.Graph(6, [0, 1, 2], [1, 2, 3])
    st = dynamics.OpinionState([1, 0, 1, 1, 0, 1])
    with pytest.raises(SimulationTimeout) as err:
        dynamics.consensus_time(g, st, rng, nu=1.0, max_events=200_000)
    assert err.value.partial.n_events == 0


def test_isolated_vertex_runs_stop_when_the_rest_agrees():
    # a mixed path and an isolated heart: each run either reaches
    # consensus or stops as soon as the path is all diamonds
    g = graphs.Graph(5, [0, 1, 2], [1, 2, 3])
    st = dynamics.OpinionState([1, 0, 1, 0, 1])
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        try:
            tau = dynamics.consensus_time(g, st, rng, nu=1.0,
                                          max_events=200_000)
            assert tau > 0
            outcomes.add("consensus")
        except SimulationTimeout as exc:
            assert "unreachable" in str(exc)
            assert exc.partial.n_events < 1000
            outcomes.add("unreachable")
    assert outcomes == {"consensus", "unreachable"}


def test_isolated_vertex_finite_horizon_runs_on():
    g, st = _frozen()
    traj = dynamics.run_voter_rewiring(g, st, 1.0, 10.0, [5.0, 10.0],
                                       np.random.default_rng(1))
    assert traj.consensus_time is None and traj.n_events > 0
    assert list(traj.heart_frac) == [0.2, 0.2]
    assert list(traj.discordant_frac) == [0.0, 0.0]


# ----------------------------------------------------------------------
# the graph: untouched, or handed back
# ----------------------------------------------------------------------

def test_caller_graph_is_untouched():
    rng = np.random.default_rng(10)
    g = graphs.generate_random_regular(50, 3, rng)
    before = [a.copy() for a in g.endpoint_arrays()]
    st = dynamics.init_opinions_iid(50, 0.5, rng)
    dynamics.run_voter_rewiring(g, st, 5.0, 10.0, [5.0, 10.0], rng)
    after = g.endpoint_arrays()
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    lists = (list(g.eu), list(g.ev), [list(a) for a in g.inc])
    dynamics.consensus_time(g, st, rng, nu=5.0)
    assert (g.eu, g.ev, g.inc) == lists
    k = graphs.generate_complete(12)
    st = dynamics.init_opinions_iid(12, 0.5, rng)
    dynamics.run_voter_rewiring(k, st, 2.0, 5.0, [5.0], rng, check=True)
    assert k.implicit_complete and k.m == 66


def test_mutate_graph_hands_back_the_final_edges():
    rng = np.random.default_rng(11)
    g = _mixed(40, rng)
    degs = g.degrees()
    st = dynamics.init_opinions_iid(40, 0.5, rng)
    sched = [1.0, 2.0, 3.0]
    kept = dynamics.run_voter_rewiring(g, st, 5.0, 3.0, sched,
                                       np.random.default_rng(12))
    traj = dynamics.run_voter_rewiring(g, st, 5.0, 3.0, sched,
                                       np.random.default_rng(12),
                                       mutate_graph=True, check=True)
    assert np.array_equal(traj.heart_frac, kept.heart_frac)
    assert np.array_equal(traj.discordant_frac, kept.discordant_frac)
    assert traj.n_events == kept.n_events
    assert g.degrees() == degs


def test_swap_run_holds_no_fresh_int_per_proposal():
    # nu = 10 on 30,000 edges: about 95,000 proposals to t = 1, in blocks
    # of up to 16,384.  With a fresh int per slot and per proposal the run
    # peaked at 12.45 MiB; with its lists read through shared tables of
    # vertex and slot ids, at 8.49 MiB.
    rng = np.random.default_rng(5)
    g = graphs.generate_random_regular(20_000, 3, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    tracemalloc.start()
    try:
        dynamics.run_voter_rewiring(g, st, 10.0, 1.0, [0.0, 1.0], rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20
