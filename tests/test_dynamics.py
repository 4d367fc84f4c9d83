import itertools
import math

import numpy as np
import pytest

from discordlab import dynamics, experiments, graphs, limits
from discordlab.errors import InvalidParameterError, SimulationTimeout

from _oracles import bd_mean_absorption, complete_voter_mean_tau


def k4_cycle_graph(n):
    g = graphs.Graph(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


# ----------------------------------------------------------------------
# initial conditions
# ----------------------------------------------------------------------

def test_init_extremes(rng):
    g = graphs.generate_complete(10)
    st0 = dynamics.init_opinions_iid(10, 0.0, rng, g)
    assert st0.heart_count == 0 and st0.discordant_count == 0
    st1 = dynamics.init_opinions_iid(10, 1.0, rng, g)
    assert st1.heart_count == 10 and st1.discordant_count == 0
    with pytest.raises(InvalidParameterError):
        dynamics.init_opinions_iid(10, 1.5, rng)


def test_init_complete_graph_mean_discordance():
    # iid Bernoulli(u): E[#discordant] = C(n,2) * 2u(1-u) exactly
    n, u, draws = 100, 0.5, 1000
    g = graphs.generate_complete(n)
    m = g.m
    fracs = []
    for seed in range(draws):
        st = dynamics.init_opinions_iid(n, u, np.random.default_rng(seed), g)
        fracs.append(st.discordant_count / m)
    assert abs(np.mean(fracs) - 2 * u * (1 - u)) < 1.5e-3  # ~7 sigma


# ----------------------------------------------------------------------
# plain voter runs
# ----------------------------------------------------------------------

def test_consensus_start_is_constant(rng):
    g = graphs.generate_complete(6)
    st = dynamics.OpinionState([1] * 6, 6)
    traj = dynamics.run_voter(g, st, 2.0, [0.0, 1.0, 2.0], rng, check=True)
    assert traj.consensus_time == 0.0
    assert traj.consensus_value == 1
    assert np.all(traj.heart_frac == 1.0)
    assert np.all(traj.discordant_frac == 0.0)


def test_empty_graph_rejected(rng):
    g = graphs.Graph(3)
    st = dynamics.OpinionState([0, 1, 0], 1)
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


def test_two_vertex_consensus_is_exponential_rate_two():
    g = graphs.Graph(2)
    g.add_edge(0, 1)
    taus = []
    for i in range(10_000):
        st = dynamics.OpinionState([0, 1], 1)
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
        st = dynamics.OpinionState([1] * (n // 2) + [0] * (n // 2), n // 2)
        taus.append(dynamics.consensus_time(g, st, np.random.default_rng(40_000 + i)))
    se = np.std(taus) / math.sqrt(runs)
    assert abs(np.mean(taus) - exact) < 4 * se


def test_complete_fast_path_matches_birth_death_chain():
    n, runs = 100, 1200
    exact = complete_voter_mean_tau(n)[n // 2]
    g = graphs.generate_complete(n)
    taus = []
    for i in range(runs):
        st = dynamics.OpinionState([1] * (n // 2) + [0] * (n // 2), n // 2)
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
    g = graphs.Graph(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    st = dynamics.OpinionState([1, 1, 0, 0], 2)  # per-component consensus
    traj = dynamics.run_voter(g, st, 5.0, [1.0, 5.0], rng)
    assert traj.consensus_time is None
    assert np.all(traj.discordant_frac == 0.0)
    with pytest.raises(SimulationTimeout):
        dynamics.consensus_time(g, st, rng)


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


def test_swaps_continue_without_discordant_edges(rng):
    # a path and a triangle, each unanimous but of opposite opinions: no
    # discordant edge and no consensus.  With nu > 0 the swap clock keeps
    # running, joins the two parts, and the run absorbs.
    g = graphs.Graph(5, [0, 2, 3, 4], [1, 3, 4, 2])
    st = dynamics.OpinionState([0, 0, 1, 1, 1], 3)
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
    """K_n with its edge lists built up front: the reference that the
    implicit K_n of generate_complete must match."""
    iu, iv = np.triu_indices(n, k=1)
    return graphs.Graph(n, iu, iv, allows_self_loops=False,
                        allows_multi_edges=False)


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
    gm.check_consistency()
    assert sorted(gm.degrees()) == [n - 1] * n


def test_complete_count_chain_only_while_implicit():
    n = 30
    st = dynamics.init_opinions_iid(n, 0.5, np.random.default_rng(5))
    g = graphs.generate_complete(n)
    graphs.count_discordant(g, st)
    graphs.edgelist_text(g)
    assert g.implicit_complete and g.copy().implicit_complete
    chain = dynamics.run_voter(g, st, 5.0, [5.0], np.random.default_rng(6))
    assert g.implicit_complete
    g.inc  # reading the lists makes it an ordinary graph
    assert not g.implicit_complete
    edge = dynamics.run_voter(g, st, 5.0, [5.0], np.random.default_rng(6))
    ref = dynamics.run_voter(explicit_complete(n), st, 5.0, [5.0],
                             np.random.default_rng(6))
    assert edge.n_events == ref.n_events
    assert np.array_equal(edge.heart_frac, ref.heart_frac)
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
    gm.check_consistency()


def test_rewiring_validation(rng):
    g = graphs.Graph(2)
    g.add_edge(0, 1)
    st = dynamics.OpinionState([0, 1], 1)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_rewiring(g, st, 1.0, 1.0, [], rng)  # M < 2
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_rewiring(g, st, -1.0, 1.0, [], rng)
    g.add_edge(0, 1)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_rewiring(g, st, 1.0, 1.0, [], rng,
                                    rate_convention="both")


@pytest.mark.slow
def test_rewiring_discordance_plateau_tracks_continued_fraction():
    # time-averaged discordance over t in [5,10] vs 2u(1-u) theta_{d,r}
    # where r is the per-edge involvement rate realized by the convention
    # ("pair": r ~ nu/2, "edge": r ~ nu), damped by exp(-2 theta t / N)
    n, d, nu, R = 1000, 3, 10.0, 80
    sched = np.linspace(5.0, 10.0, 11)
    m = n * d // 2
    for conv, seed in (("pair", 13_000), ("edge", 14_000)):
        vals = []
        for r in range(R):
            rng = experiments.spawn_rng(seed, r)
            g = graphs.generate_random_regular(n, d, rng)
            st = dynamics.init_opinions_iid(n, 0.5, rng)
            traj = dynamics.run_voter_rewiring(g, st, nu, 10.0, sched, rng,
                                               rate_convention=conv)
            vals.append(traj.discordant_frac.mean())
        pair_rate = nu / (2 * m) if conv == "pair" else nu / m
        r_edge = pair_rate * (m - 1)
        th = limits.theta_rewiring(d, r_edge)
        pred = 0.5 * th * np.exp(-2 * th * sched / n).mean()
        assert abs(np.mean(vals) - pred) < 0.02, (conv, np.mean(vals), pred)


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
    g = graphs.DirectedGraph(2)
    g.add_arc(0, 1)
    g.add_arc(1, 0)
    taus = []
    for i in range(10_000):
        st = dynamics.OpinionState([0, 1], 1)
        traj = dynamics.run_voter_directed(g, st, None, [], np.random.default_rng(i))
        taus.append(traj.consensus_time)
    assert abs(np.mean(taus) - 0.5) < 0.025


def test_directed_all_same_start_never_changes(rng):
    g = graphs.generate_directed_configuration([2] * 6, [2] * 6, rng)
    st = dynamics.OpinionState([1] * 6, 6)
    traj = dynamics.run_voter_directed(g, st, 3.0, [1.0, 3.0], rng)
    assert traj.consensus_time == 0.0
    assert np.all(traj.heart_frac == 1.0)
    assert traj.n_events == 0


def test_directed_requires_positive_out_degree(rng):
    g = graphs.DirectedGraph(2)
    g.add_arc(0, 1)  # vertex 1 has out-degree 0
    st = dynamics.OpinionState([0, 1], 1)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_directed(g, st, 1.0, [], rng)
    # the same graph is fine when adopting from in-neighbours of each vertex
    g2 = graphs.DirectedGraph(2)
    g2.add_arc(0, 1)
    g2.add_arc(0, 1)
    with pytest.raises(InvalidParameterError):
        dynamics.run_voter_directed(g2, st, 1.0, [], rng, adopt_from="in")


def _directed_exact_mean_absorption(g, ops0):
    """Exact CTMC absorption time via a full 2^n generator built straight
    from the model definition (vertex at rate 1 adopts uniform out-arc)."""
    n = g.n
    states = list(itertools.product([0, 1], repeat=n))
    index = {s: i for i, s in enumerate(states)}
    Q = np.zeros((2 ** n, 2 ** n))
    for s in states:
        i = index[s]
        if len(set(s)) == 1:
            continue
        for v in range(n):
            arcs = g.out_adj[v]
            for a in arcs:
                w = g.heads[a]
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
    g = graphs.DirectedGraph(4)
    for t, h in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0), (1, 3), (3, 1)]:
        g.add_arc(t, h)
    ops0 = [1, 0, 1, 0]
    exact = _directed_exact_mean_absorption(g, ops0)
    taus = []
    for i in range(4000):
        st = dynamics.OpinionState(list(ops0), sum(ops0))
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
        st = dynamics.OpinionState([1] * (N // 2) + [0] * (N // 2), N // 2)
        taus.append(dynamics.consensus_time(g, st, rng))
    pred = limits.fw_absorption_time(est.theta, 0.5) * N
    assert 0.8 < np.mean(taus) / pred < 1.2
