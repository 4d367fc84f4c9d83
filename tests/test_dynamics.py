import itertools
import math

import numpy as np
import pytest

from discordlab import coevolution, dynamics, experiments, graphs, limits
from discordlab.errors import InvalidParameterError, SimulationTimeout

from _deadline import deadline
from _oracles import (bd_mean_absorption, complete_voter_mean_tau,
                      directed_lists)


# ----------------------------------------------------------------------
# initial conditions
# ----------------------------------------------------------------------

def test_init_extremes(rng):
    g = graphs.generate_complete(10)
    st0 = dynamics.init_opinions_iid(10, 0.0, rng)
    assert st0.heart_count == 0 and graphs.count_discordant(g, st0) == 0
    st1 = dynamics.init_opinions_iid(10, 1.0, rng)
    assert st1.heart_count == 10 and graphs.count_discordant(g, st1) == 0
    with pytest.raises(InvalidParameterError):
        dynamics.init_opinions_iid(10, 1.5, rng)


# each leaked a TypeError, from a comparison or from math.isnan
@pytest.mark.parametrize("call", [
    lambda g, st, rng: dynamics.run_voter(g, st, "x", [], rng),
    lambda g, st, rng: dynamics.run_voter(g, st, 1.0, [], rng,
                                          max_events="x"),
    lambda g, st, rng: dynamics.run_voter_rewiring(g, st, "x", 1.0, [], rng),
    lambda g, st, rng: dynamics.consensus_time(g, st, rng, nu="x"),
    lambda g, st, rng: dynamics.init_opinions_iid(5, "x", rng),
], ids=["horizon", "max-events", "nu", "consensus-nu", "u"])
def test_non_numeric_argument_is_refused(rng, call):
    g = graphs.generate_random_regular(10, 3, rng)
    st = dynamics.init_opinions_iid(10, 0.5, rng)
    with pytest.raises(InvalidParameterError):
        call(g, st, rng)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 4.5])
def test_init_refuses_a_size_that_is_no_integer(rng, bad):
    # NaN leaked a ValueError and inf an OverflowError from numpy
    with pytest.raises(InvalidParameterError):
        dynamics.init_opinions_iid(bad, 0.5, rng)
    assert dynamics.init_opinions_iid(np.int64(4), 1.0, rng).heart_count == 4


def test_init_complete_graph_mean_discordance():
    # iid Bernoulli(u): E[#discordant] = C(n,2) * 2u(1-u) exactly
    n, u, draws = 100, 0.5, 1000
    g = graphs.generate_complete(n)
    m = g.m
    fracs = []
    for seed in range(draws):
        st = dynamics.init_opinions_iid(n, u, np.random.default_rng(seed))
        fracs.append(graphs.count_discordant(g, st) / m)
    assert abs(np.mean(fracs) - 2 * u * (1 - u)) < 1.5e-3  # ~7 sigma


# ----------------------------------------------------------------------
# plain voter runs
# ----------------------------------------------------------------------

def test_consensus_start_is_constant(rng):
    g = graphs.generate_complete(6)
    st = dynamics.OpinionState([1] * 6)
    traj = dynamics.run_voter(g, st, 2.0, [0.0, 1.0, 2.0], rng, check=True)
    assert traj.consensus_time == 0.0
    assert traj.consensus_value == 1
    assert np.all(traj.heart_frac == 1.0)
    assert np.all(traj.discordant_frac == 0.0)


def test_empty_graph_rejected(rng):
    g = graphs.Graph(3)
    st = dynamics.OpinionState([0, 1, 0])
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter(g, st, 1.0, [], rng)


def test_schedule_validation(rng):
    g = graphs.generate_complete(4)
    st = dynamics.init_opinions_iid(4, 0.5, rng)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter(g, st, 1.0, [0.5, 0.5], rng)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter(g, st, 1.0, [0.5, 2.0], rng)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter(g, st, 1.0, [-0.5], rng)
    for grid in (["x"], [None], [10**400]):
        with pytest.raises(InvalidParameterError, match="numbers"):
            dynamics.run_voter(g, st, 1.0, grid, rng)


def test_two_vertex_consensus_is_exponential_rate_two():
    g = graphs.Graph(2, [0], [1])
    taus = []
    for i in range(10_000):
        st = dynamics.OpinionState([0, 1])
        taus.append(dynamics.consensus_time(g, st, np.random.default_rng(i)))
    assert abs(np.mean(taus) - 0.5) < 0.025  # within 5%


def test_complete_graph_matches_birth_death_chain():
    # embedded heart-count law equals the k(n-k)/(n-1) birth-death chain;
    # compare the general engine's mean absorption with the exact solve
    n, runs = 24, 1500
    exact = complete_voter_mean_tau(n)[n // 2]
    g = graphs.generate_erdos_renyi(n, 1.0, np.random.default_rng(0))
    taus = []
    for i in range(runs):
        st = dynamics.OpinionState([1] * (n // 2) + [0] * (n // 2))
        taus.append(dynamics.consensus_time(g, st, np.random.default_rng(40_000 + i)))
    se = np.std(taus) / math.sqrt(runs)
    assert abs(np.mean(taus) - exact) < 4 * se


def test_complete_fast_path_matches_birth_death_chain():
    n, runs = 100, 1200
    exact = complete_voter_mean_tau(n)[n // 2]
    g = graphs.generate_complete(n)
    taus = []
    for i in range(runs):
        st = dynamics.OpinionState([1] * (n // 2) + [0] * (n // 2))
        taus.append(dynamics.consensus_time(g, st, np.random.default_rng(90_000 + i)))
    se = np.std(taus) / math.sqrt(runs)
    assert abs(np.mean(taus) - exact) < 4 * se


def test_complete_graph_product_identity_pathwise(rng):
    # on K_n: #discordant == k(n-k) exactly along the whole path
    n = 9
    g = graphs.generate_erdos_renyi(n, 1.0, np.random.default_rng(3))
    st = dynamics.init_opinions_iid(n, 0.5, rng)
    sched = [0.1 * i for i in range(1, 120)]
    traj = dynamics.run_voter(g, st, 12.0, sched, rng, check=True)
    m = n * (n - 1) / 2
    for h, dfr in zip(traj.heart_frac, traj.discordant_frac):
        k = round(h * n)
        assert dfr == k * (n - k) / m


def test_heart_fraction_martingale():
    R, n, tgrid = 10_000, 60, [0.5, 2.0]
    g = graphs.generate_random_regular(n, 3, np.random.default_rng(8))
    means = np.zeros(len(tgrid))
    for i in range(R):
        rng = np.random.default_rng(200_000 + i)
        st = dynamics.init_opinions_iid(n, 0.5, rng)
        traj = dynamics.run_voter(g, st, 2.0, tgrid, rng)
        means += traj.heart_frac
    means /= R
    bound = 4 * math.sqrt(0.25 / R)
    assert np.all(np.abs(means - 0.5) <= bound)


def test_seed_determinism_byte_for_byte(rng):
    g = graphs.generate_random_regular(40, 3, np.random.default_rng(5))
    st = dynamics.init_opinions_iid(40, 0.5, np.random.default_rng(6))
    runs = []
    for _ in range(2):
        traj = dynamics.run_voter_rewiring(g, st, 2.5, 4.0, [1.0, 2.0, 4.0],
                                           np.random.default_rng(99))
        runs.append(traj)
    assert np.array_equal(runs[0].heart_frac, runs[1].heart_frac)
    assert np.array_equal(runs[0].discordant_frac, runs[1].discordant_frac)
    assert runs[0].consensus_time == runs[1].consensus_time
    assert runs[0].n_events == runs[1].n_events


def test_timeout_carries_partial_trajectory(rng):
    g = graphs.generate_random_regular(40, 3, np.random.default_rng(5))
    st = dynamics.init_opinions_iid(40, 0.5, np.random.default_rng(6))
    with pytest.raises(SimulationTimeout) as exc:
        dynamics.run_voter(g, st, 50.0, [0.0], rng, max_events=5)
    assert exc.value.partial.n_events == 5


def test_frozen_disconnected_graph_reports_timeout(rng):
    g = graphs.Graph(4, [0, 2], [1, 3])
    st = dynamics.OpinionState([1, 1, 0, 0])  # per-component consensus
    traj = dynamics.run_voter(g, st, 5.0, [1.0, 5.0], rng)
    assert traj.consensus_time is None
    assert np.all(traj.discordant_frac == 0.0)
    with deadline(), pytest.raises(SimulationTimeout):
        dynamics.consensus_time(g, st, rng)


# the state is frozen short of consensus from the start: the run played
# every one of its Poisson(n x horizon) proposals, and never returned at an
# infinite horizon
@pytest.mark.parametrize("horizon", [1e7, 1e30, math.inf])
def test_frozen_run_stops_drawing_at_any_horizon(rng, horizon):
    g = graphs.Graph(4, [0, 2], [1, 3])
    st = dynamics.OpinionState([0, 0, 1, 1])
    with deadline(5.0):
        traj = dynamics.run_voter(g, st, horizon, [0.0, 1.0, 1e6], rng,
                                  max_events=10)
    assert traj.heart_frac.tolist() == [0.5] * 3
    assert traj.discordant_frac.tolist() == [0.0] * 3
    assert traj.consensus_time is None and traj.n_events == 0


@pytest.mark.parametrize("horizon", [1e7, math.inf])
def test_frozen_directed_run_stops_drawing_at_any_horizon(rng, horizon):
    # two 2-cycles of opposite opinion
    g = graphs.DirectedGraph(4, [0, 1, 2, 3], [1, 0, 3, 2])
    st = dynamics.OpinionState([1, 1, 0, 0])
    with deadline(5.0):
        traj = dynamics.run_voter_directed(g, st, horizon, [0.0, 2.0], rng,
                                           max_events=10)
    assert traj.heart_frac.tolist() == [0.5] * 2
    assert traj.discordant_frac.tolist() == [0.0] * 2
    assert traj.consensus_time is None and traj.n_events == 0


def test_consensus_time_refuses_rewiring_on_a_directed_graph(rng):
    g = graphs.DirectedGraph(2, [0, 1], [1, 0])
    st = dynamics.OpinionState([1, 0])
    with pytest.raises(InvalidParameterError):
        dynamics.consensus_time(g, st, rng, nu=4.0)


def test_sparse_er_frozen_runs_time_out_instead_of_crashing():
    # ER(60, 1.5/60) is disconnected and non-regular: most runs freeze with
    # both opinions alive.  The float flip rate W can keep a rounding
    # residue after the last discordant edge is gone; the engine must stop
    # on the empty discordant set and report a timeout, not index into it.
    timeouts = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = graphs.generate_erdos_renyi(60, 1.5 / 60, rng)
        st = dynamics.init_opinions_iid(60, 0.5, rng)
        try:
            dynamics.consensus_time(g, st, rng)
        except SimulationTimeout:
            timeouts += 1
    assert timeouts >= 20


def test_directed_frozen_runs_time_out_instead_of_crashing():
    # mixed out-degrees take the same float-W path in the directed engine
    timeouts = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d_out = rng.integers(1, 4, 40).tolist()
        g = graphs.generate_directed_configuration(
            rng.permutation(d_out).tolist(), d_out, rng)
        st = dynamics.init_opinions_iid(40, 0.5, rng)
        try:
            dynamics.consensus_time(g, st, rng, max_events=20_000)
        except SimulationTimeout:
            timeouts += 1
    assert timeouts >= 1


def test_directed_consensus_stops_when_closed_classes_disagree(rng):
    # two 2-cycles of opposite opinion and a vertex copying from both:
    # consensus is out of reach from the start
    g = graphs.DirectedGraph(5, [0, 1, 2, 3, 4, 4], [1, 0, 3, 2, 0, 2])
    st = dynamics.OpinionState([1, 1, 0, 0, 1])
    with pytest.raises(SimulationTimeout) as err:
        dynamics.consensus_time(g, st, rng, max_events=100_000)
    assert err.value.partial.n_events < 100
    # mixed 2-cycles: each run either reaches consensus or stops as soon as
    # the two cycles settle on different opinions
    st = dynamics.OpinionState([1, 0, 0, 1, 1])
    outcomes = set()
    for seed in range(40):
        try:
            dynamics.consensus_time(g, st, np.random.default_rng(seed),
                                    max_events=100_000)
            outcomes.add("consensus")
        except SimulationTimeout as exc:
            assert exc.partial.n_events < 100
            outcomes.add("frozen")
    assert outcomes == {"consensus", "frozen"}


def test_directed_run_stops_once_two_unanimous_classes_disagree(rng):
    # vertices 0 and 1 copy only themselves and disagree, so consensus is
    # out of reach at t = 0, while the closed class {2, 3} is still mixed
    g = graphs.DirectedGraph(4, [0, 1, 2, 3], [0, 1, 3, 2])
    st = dynamics.OpinionState([1, 0, 1, 0])
    with pytest.raises(SimulationTimeout, match="unreachable") as err:
        dynamics.run_voter_directed(g, st, None, [], rng, max_events=10_000)
    assert err.value.partial.n_events == 0


def _closed_by_reachability(n, us, vs):
    reach = [{v} for v in range(n)]
    for _ in range(n):
        for u, v in zip(us, vs):
            reach[u] |= reach[v]
    classes = {frozenset(w for w in reach[v] if v in reach[w])
               for v in range(n)}
    return {c for c in classes if all(reach[v] <= c for v in c)}


def test_closed_classes_match_reachability():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        us = np.repeat(np.arange(n), rng.integers(1, 3, n)).tolist()
        vs = rng.integers(0, n, len(us)).tolist()
        want = _closed_by_reachability(n, us, vs)
        got = dynamics._closed_classes(n, us, vs)
        if len(want) < 2:
            assert got is None
            continue
        groups = {}
        for v, c in enumerate(got):
            groups.setdefault(c, set()).add(v)
        assert {frozenset(s) for c, s in groups.items() if c >= 0} == want
        assert set(groups.get(-1, ())) == set(range(n)) - set().union(*want)


def test_swaps_continue_without_discordant_edges(rng):
    # a path and a triangle, each unanimous but of opposite opinions: no
    # discordant edge and no consensus.  With nu > 0 the swap clock keeps
    # running, joins the two parts, and the run absorbs.
    g = graphs.Graph(5, [0, 2, 3, 4], [1, 3, 4, 2])
    st = dynamics.OpinionState([0, 0, 1, 1, 1])
    with pytest.raises(SimulationTimeout):
        dynamics.consensus_time(g, st, rng)
    for seed in range(20):
        tau = dynamics.consensus_time(g, st, np.random.default_rng(seed),
                                      nu=1.0)
        assert tau > 0


# ----------------------------------------------------------------------
# complete graph: implicit K_n against an explicit edge list
# ----------------------------------------------------------------------

def explicit_complete(n):
    """K_n with explicit endpoint arrays: the reference that the implicit
    K_n of generate_complete must match."""
    iu, iv = np.triu_indices(n, k=1)
    return graphs.Graph(n, iu, iv)


def test_complete_check_run_matches_explicit_edge_list():
    n = 12
    st = dynamics.init_opinions_iid(n, 0.5, np.random.default_rng(1))
    sched = [0.25 * i for i in range(1, 40)]
    runs = [dynamics.run_voter(g, st, 10.0, sched, np.random.default_rng(2),
                               check=True)
            for g in (graphs.generate_complete(n), explicit_complete(n))]
    assert np.array_equal(runs[0].heart_frac, runs[1].heart_frac)
    assert np.array_equal(runs[0].discordant_frac, runs[1].discordant_frac)
    assert runs[0].n_events == runs[1].n_events


def test_complete_rewiring_matches_explicit_edge_list():
    n = 10
    st = dynamics.init_opinions_iid(n, 0.5, np.random.default_rng(3))
    sched = [0.5 * i for i in range(1, 11)]
    g = graphs.generate_complete(n)
    runs = [dynamics.run_voter_rewiring(h, st, 2.0, 5.0, sched,
                                        np.random.default_rng(4), check=True)
            for h in (g, explicit_complete(n))]
    assert np.array_equal(runs[0].heart_frac, runs[1].heart_frac)
    assert np.array_equal(runs[0].discordant_frac, runs[1].discordant_frac)
    assert g.implicit_complete  # the engine rewired a copy

    gm = graphs.generate_complete(n)
    dynamics.run_voter_rewiring(gm, st, 2.0, 5.0, sched,
                                np.random.default_rng(4), mutate_graph=True)
    assert not gm.implicit_complete
    assert sorted(gm.degrees()) == [n - 1] * n


@deadline()
def test_complete_count_chain_only_while_implicit():
    # a K_n held as n alone runs the count chain until set_edges gives it
    # edges; reading its edges or lists leaves it so, and check=True takes
    # the per-edge engine
    n = 30
    st = dynamics.init_opinions_iid(n, 0.5, np.random.default_rng(5))
    g = graphs.generate_complete(n)
    graphs.count_discordant(g, st)
    graphs.edgelist_text(g)
    g.eu, g.ev, g.inc
    assert g.implicit_complete and g.copy().implicit_complete
    chain = dynamics.run_voter(g, st, 5.0, [5.0], np.random.default_rng(6))
    ref = dynamics.run_voter(explicit_complete(n), st, 5.0, [5.0],
                             np.random.default_rng(6))
    checked = dynamics.run_voter(g, st, 5.0, [5.0], np.random.default_rng(6),
                                 check=True)
    assert g.implicit_complete
    g.set_edges(*g.endpoint_arrays())
    assert not g.implicit_complete
    edge = dynamics.run_voter(g, st, 5.0, [5.0], np.random.default_rng(6))
    for run in (checked, edge):
        assert run.n_events == ref.n_events
        assert np.array_equal(run.heart_frac, ref.heart_frac)
    assert chain.n_events != ref.n_events


# ----------------------------------------------------------------------
# rewiring
# ----------------------------------------------------------------------

def test_rewiring_nu0_identical_to_plain_run():
    g = graphs.generate_random_regular(40, 3, np.random.default_rng(3))
    st = dynamics.init_opinions_iid(40, 0.5, np.random.default_rng(4))
    sched = [0.5, 1.0, 2.0, 3.0]
    a = dynamics.run_voter(g, st, 3.0, sched, np.random.default_rng(9))
    b = dynamics.run_voter_rewiring(g, st, 0.0, 3.0, sched,
                                    np.random.default_rng(9))
    assert np.array_equal(a.heart_frac, b.heart_frac)
    assert np.array_equal(a.discordant_frac, b.discordant_frac)
    assert a.consensus_time == b.consensus_time


def test_rewiring_bookkeeping_fuzz_and_degree_preservation():
    # >= 1e4 superposed events on a small multigraph with per-sample recounts
    n = 60
    g = graphs.generate_random_regular(n, 3, np.random.default_rng(44),
                                       policy="allow")
    before = sorted(g.degrees())
    gm = g.copy()
    st = dynamics.init_opinions_iid(n, 0.5, np.random.default_rng(45))
    sched = [0.1 * i for i in range(1, 201)]
    traj = dynamics.run_voter_rewiring(gm, st, 30.0, 20.0, sched,
                                       np.random.default_rng(46),
                                       mutate_graph=True, check=True)
    assert traj.n_events >= 10_000
    assert sorted(gm.degrees()) == before


@deadline()
def test_rewiring_nu0_on_implicit_complete_is_the_count_chain():
    # K_60 with unread edge lists: nu = 0 is run_voter, the heart-count
    # chain, and builds no lists
    st = dynamics.init_opinions_iid(60, 0.5, np.random.default_rng(7))
    sched = [1.0, 5.0, 20.0]
    g = graphs.generate_complete(60)
    a = dynamics.run_voter(g, st, 20.0, sched, np.random.default_rng(8))
    b = dynamics.run_voter_rewiring(g, st, 0.0, 20.0, sched,
                                    np.random.default_rng(8))
    assert g.implicit_complete
    assert np.array_equal(a.heart_frac, b.heart_frac)
    assert np.array_equal(a.discordant_frac, b.discordant_frac)
    assert (a.consensus_time, a.n_events) == (b.consensus_time, b.n_events)
    tau = dynamics.consensus_time(g, st, np.random.default_rng(9))
    assert tau == dynamics.run_voter(g, st, None, [],
                                     np.random.default_rng(9)).consensus_time
    assert g.implicit_complete


@deadline()
def test_opinion_length_is_checked_on_every_engine(rng):
    k = graphs.generate_complete(5)
    g = graphs.generate_random_regular(6, 3, rng)
    st = dynamics.OpinionState([1] * 7)
    runs = [lambda: dynamics.run_voter(k, st, 1.0, [1.0], rng),
            lambda: dynamics.run_voter(g, st, 1.0, [1.0], rng),
            lambda: dynamics.run_voter_rewiring(g, st, 0.0, 1.0, [1.0], rng),
            lambda: dynamics.run_voter_rewiring(g, st, 1.0, 1.0, [1.0], rng),
            lambda: dynamics.consensus_time(k, st, rng)]
    for run in runs:
        with pytest.raises(InvalidParameterError, match="opinion vector"):
            run()


# opinions other than 0 and 1 ran on: 0.5 everywhere flips nothing, so no
# cap counts a proposal and the run spun
def test_fractional_opinions_are_refused_without_a_hang(rng):
    g = graphs.generate_random_regular(10, 3, rng)
    with deadline(10.0), pytest.raises(InvalidParameterError,
                                       match="0 or 1"):
        dynamics.consensus_time(g, dynamics.OpinionState([0.5] * 10), rng,
                                max_events=1000)


# the heart count was sum(opinions), so both reported consensus at t = 0,
# with value 2 and -1
@pytest.mark.parametrize("ops", [[2] * 5 + [0] * 5, [-1] * 5 + [1] * 5],
                         ids=["two", "minus-one"])
@pytest.mark.parametrize("family", ["rrg", "complete"])
def test_opinions_outside_0_1_are_refused(rng, ops, family):
    g = graphs.generate_random_regular(10, 3, rng) if family == "rrg" \
        else graphs.generate_complete(10)
    with pytest.raises(InvalidParameterError, match="0 or 1"):
        dynamics.run_voter(g, dynamics.OpinionState(ops), 5.0, [0.0, 5.0],
                           rng)


# a TypeError leaked from the heart count
@pytest.mark.parametrize("family", ["rrg", "complete"])
def test_string_opinions_are_refused(rng, family):
    g = graphs.generate_random_regular(10, 3, rng) if family == "rrg" \
        else graphs.generate_complete(10)
    with pytest.raises(InvalidParameterError, match="0 or 1"):
        dynamics.run_voter(g, dynamics.OpinionState(["1"] * 5 + ["0"] * 5),
                           5.0, [0.0, 5.0], rng)


NAN = float("nan")


def _engine_run(engine, horizon, sched, max_events=10**9):
    """A run of ``engine`` with the given horizon, sample times and event
    cap."""
    rng = np.random.default_rng(21)
    if engine == "lockstep":
        cfg = experiments.ExperimentConfig(
            model={"family": "rrg", "n": 20, "d": 3}, u=0.5,
            replicas=experiments.LOCKSTEP_MIN_REPLICAS, master_seed=3,
            horizon=horizon, sample_times=sched, max_events=max_events)
        return experiments.run_ensemble(cfg)
    if engine == "dense":
        state = coevolution.init_positional(20, rng=rng)
        s = coevolution.SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)
        return coevolution.run_dense(state, 1.0, 1.0, s, horizon, sched, rng,
                                     max_events=max_events)
    if engine == "directed":
        g = graphs.generate_directed_configuration([3] * 20, [3] * 20, rng)
        st = dynamics.init_opinions_iid(20, 0.5, rng)
        return dynamics.run_voter_directed(g, st, horizon, sched, rng,
                                           max_events=max_events)
    g = (graphs.generate_complete(20) if engine == "complete-chain"
         else graphs.generate_random_regular(20, 3, rng))
    st = dynamics.init_opinions_iid(20, 0.5, rng)
    nu = 2.0 if engine == "rewiring" else 0.0
    return dynamics.run_voter_rewiring(g, st, nu, horizon, sched, rng,
                                       max_events=max_events)


_ENGINES = ["voter", "complete-chain", "rewiring", "directed", "lockstep",
            "dense"]


@pytest.mark.parametrize("engine", _ENGINES)
def test_nan_horizon_or_sample_time_is_rejected(engine):
    # a NaN horizon used to run on to consensus, and a NaN sample time to
    # drop out of the returned times
    for horizon, sched in ((NAN, [1.0, 2.0]), (3.0, [1.0, NAN]),
                           (3.0, [NAN])):
        with deadline(), pytest.raises(InvalidParameterError, match="NaN"):
            _engine_run(engine, horizon, sched)


@pytest.mark.parametrize("engine", _ENGINES)
def test_negative_event_cap_is_rejected(engine):
    # a cap of -1 used to end a run at once as a timeout at its cap, or
    # time out every replica of a lockstep ensemble; 0 still allows no event
    for cap in (-1, NAN):
        with deadline(), pytest.raises(InvalidParameterError,
                                       match="max_events must be >= 0"):
            _engine_run(engine, 3.0, [1.0, 2.0], max_events=cap)


def test_rewiring_validation(rng):
    g = graphs.Graph(2, [0], [1])
    st = dynamics.OpinionState([0, 1])
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_rewiring(g, st, 1.0, 1.0, [], rng)  # M < 2
    for nu in (-1.0, math.nan, math.inf):  # NaN and inf: numpy's ValueError
        with pytest.raises(InvalidParameterError):
            dynamics.run_voter_rewiring(g, st, nu, 1.0, [], rng)
    empty = graphs.Graph(2)
    for nu in (0.0, 1.0):
        with pytest.raises(InvalidParameterError, match="at least one edge"):
            dynamics.run_voter_rewiring(empty, st, nu, 1.0, [], rng)
    one = graphs.Graph(2, [0], [1])
    with pytest.raises(InvalidParameterError, match="at least two edges"):
        dynamics.run_voter_rewiring(one, st, 1.0, 1.0, [], rng)
    # without swaps, mutate_graph leaves the caller's graph as it is
    g = graphs.generate_random_regular(20, 3, rng)
    before = [a.copy() for a in g.endpoint_arrays()]
    st = dynamics.init_opinions_iid(20, 0.5, rng)
    dynamics.run_voter_rewiring(g, st, 0.0, 5.0, [5.0], rng,
                                mutate_graph=True)
    assert all(np.array_equal(a, b)
               for a, b in zip(before, g.endpoint_arrays()))


@pytest.mark.slow
def test_rewiring_discordance_plateau_tracks_continued_fraction():
    # time-averaged discordance over t in [5,10] vs 2u(1-u) theta_{d,r}
    # where r = nu (M-1)/(2M) ~ nu/2 is the rate at which an edge is
    # involved in swaps, damped by exp(-2 theta t / N); at nu = 20 an edge
    # is involved at about rate 10
    n, d, R = 1000, 3, 80
    sched = np.linspace(5.0, 10.0, 11)
    m = n * d // 2
    for nu, seed in ((10.0, 13_000), (20.0, 14_000)):
        vals = []
        for r in range(R):
            rng = experiments.spawn_rng(seed, r)
            g = graphs.generate_random_regular(n, d, rng)
            st = dynamics.init_opinions_iid(n, 0.5, rng)
            traj = dynamics.run_voter_rewiring(g, st, nu, 10.0, sched, rng)
            vals.append(traj.discordant_frac.mean())
        r_edge = nu / (2 * m) * (m - 1)
        th = limits.theta_rewiring(d, r_edge)
        pred = 0.5 * th * np.exp(-2 * th * sched / n).mean()
        assert abs(np.mean(vals) - pred) < 0.02, (nu, np.mean(vals), pred)


@pytest.mark.slow
def test_rewiring_speeds_consensus_small():
    n, R = 200, 40
    taus = {0.0: [], 10.0: []}
    for nu in taus:
        for r in range(R):
            rng = experiments.spawn_rng(4000 + int(nu), r)
            g = graphs.generate_random_regular(n, 3, rng)
            st = dynamics.init_opinions_iid(n, 0.5, rng)
            taus[nu].append(dynamics.consensus_time(g, st, rng, nu=nu))
    assert np.mean(taus[10.0]) < np.mean(taus[0.0])


# ----------------------------------------------------------------------
# directed voter
# ----------------------------------------------------------------------

def test_directed_two_cycle_exponential():
    g = graphs.DirectedGraph(2, [0, 1], [1, 0])
    taus = []
    for i in range(10_000):
        st = dynamics.OpinionState([0, 1])
        traj = dynamics.run_voter_directed(g, st, None, [], np.random.default_rng(i))
        taus.append(traj.consensus_time)
    assert abs(np.mean(taus) - 0.5) < 0.025


def test_directed_all_same_start_never_changes(rng):
    g = graphs.generate_directed_configuration([2] * 6, [2] * 6, rng)
    st = dynamics.OpinionState([1] * 6)
    traj = dynamics.run_voter_directed(g, st, 3.0, [1.0, 3.0], rng)
    assert traj.consensus_time == 0.0
    assert np.all(traj.heart_frac == 1.0)
    assert traj.n_events == 0


def test_directed_requires_positive_out_degree(rng):
    g = graphs.DirectedGraph(2, [0], [1])  # vertex 1 has out-degree 0
    st = dynamics.OpinionState([0, 1])
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_directed(g, st, 1.0, [], rng)
    # the same graph is fine when adopting from in-neighbours of each vertex
    g2 = graphs.DirectedGraph(2, [0, 0], [1, 1])
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_directed(g2, st, 1.0, [], rng, adopt_from="in")


def _directed_exact_mean_absorption(g, ops0):
    """Exact CTMC absorption time via a full 2^n generator built straight
    from the model definition (vertex at rate 1 adopts uniform out-arc)."""
    n = g.n
    out_adj = directed_lists(g)[0]
    heads = g.endpoint_arrays()[1].tolist()
    states = list(itertools.product([0, 1], repeat=n))
    index = {s: i for i, s in enumerate(states)}
    Q = np.zeros((2 ** n, 2 ** n))
    for s in states:
        i = index[s]
        if len(set(s)) == 1:
            continue
        for v in range(n):
            arcs = out_adj[v]
            for a in arcs:
                w = heads[a]
                if s[w] != s[v]:
                    t = list(s)
                    t[v] = s[w]
                    Q[i, index[tuple(t)]] += 1.0 / len(arcs)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    interior = [i for i, s in enumerate(states) if len(set(s)) != 1]
    A = Q[np.ix_(interior, interior)]
    T = np.linalg.solve(A, -np.ones(len(interior)))
    full = np.zeros(2 ** n)
    full[interior] = T
    return full[index[tuple(ops0)]]


def test_directed_engine_matches_exact_ctmc():
    g = graphs.DirectedGraph(4, [0, 1, 2, 3, 0, 2, 1, 3],
                             [1, 2, 3, 0, 2, 0, 3, 1])
    ops0 = [1, 0, 1, 0]
    exact = _directed_exact_mean_absorption(g, ops0)
    taus = []
    for i in range(4000):
        st = dynamics.OpinionState(list(ops0))
        traj = dynamics.run_voter_directed(g, st, None, [],
                                           np.random.default_rng(660_000 + i))
        taus.append(traj.consensus_time)
    se = np.std(taus) / math.sqrt(len(taus))
    assert abs(np.mean(taus) - exact) < 4 * se


@pytest.mark.slow
def test_directed_consensus_consistent_with_measured_diffusion():
    # the consensus-time scale must match the Fisher-Wright absorption
    # oracle evaluated at the diffusion constant measured from the decay of
    # the product moment (two independent routes through the same engine)
    N = 400
    sg = np.round(np.arange(0.05, 0.61, 0.05), 10)
    cfg = experiments.ExperimentConfig(
        model={"family": "dcm", "n": N, "d": 3}, u=0.5, replicas=200,
        master_seed=909, horizon=250.0, sample_times=(sg * N).tolist())
    est = experiments.estimate_theta(experiments.run_ensemble(cfg))
    taus = []
    for r in range(80):
        rng = experiments.spawn_rng(617, r)
        g = graphs.generate_directed_configuration([3] * N, [3] * N, rng)
        st = dynamics.OpinionState([1] * (N // 2) + [0] * (N // 2))
        taus.append(dynamics.consensus_time(g, st, rng))
    pred = limits.fw_absorption_time(est.theta, 0.5) * N
    assert 0.8 < np.mean(taus) / pred < 1.2
