import math
import tracemalloc

import numpy as np
import pytest

from discordlab import coevolution, graphs, limits
from discordlab.coevolution import (CONSENSUS, POLARISATION, UNRESOLVED,
                                    DenseState, SwitchProbs)
from discordlab.errors import InvalidParameterError, SimulationTimeout

from _oracles import (dense_recount, is_connected, oneshot_iid,
                      oneshot_positional)


def two_vertex_edge():
    return graphs.Graph(2, [0], [1])


# ----------------------------------------------------------------------
# rewire-to-random / rewire-to-same
# ----------------------------------------------------------------------

def test_rewire_model_all_same_absorbs_instantly(rng):
    out, traj = coevolution.run_rewire_model(
        10, 1.0, "TO_RANDOM", rng, initial_opinions=[1] * 10)
    assert out.verdict == CONSENSUS
    assert out.absorption_time == 0.0
    assert out.final_heart_fraction == 1.0


def test_rewire_model_two_vertices_exact_law():
    # n=2, opposite opinions, one edge, beta=1: per ring consensus w.p. 1/2,
    # polarisation (self-loop) w.p. 1/4, else unchanged; so
    # P(consensus) = 2/3 and E[tau] = 4/3 by exhaustive enumeration
    wins, taus = [], []
    for i in range(10_000):
        rng = np.random.default_rng(500_000 + i)
        out, _ = coevolution.run_rewire_model(
            2, 1.0, "TO_RANDOM", rng, initial_graph=two_vertex_edge(),
            initial_opinions=[0, 1])
        wins.append(out.verdict == CONSENSUS)
        taus.append(out.absorption_time)
    assert abs(np.mean(wins) - 2 / 3) < 0.02
    assert abs(np.mean(taus) - 4 / 3) < 0.06


def test_rewire_to_same_two_vertices_always_consensus():
    # the keeper is always the last of its opinion, so rewiring is a no-op
    # and only adoption (prob beta/2 per ring) can end the run
    taus = []
    for i in range(10_000):
        rng = np.random.default_rng(600_000 + i)
        out, _ = coevolution.run_rewire_model(
            2, 1.0, "TO_SAME", rng, initial_graph=two_vertex_edge(),
            initial_opinions=[0, 1])
        assert out.verdict == CONSENSUS
        taus.append(out.absorption_time)
    assert abs(np.mean(taus) - 2.0) < 0.08


def test_rewire_to_same_rewiring_never_creates_discordance():
    # with beta ~ 0 every event is a rewiring, which removes one discordant
    # edge and never adds one: the recorded discordance is non-increasing
    out, traj = coevolution.run_rewire_model(
        40, 1e-9, "TO_SAME", np.random.default_rng(7))
    assert np.all(np.diff(traj.discordant_frac) <= 1e-15)
    assert out.verdict == POLARISATION


def test_rewire_model_conserves_edges_and_flags_timeouts(rng):
    out, traj = coevolution.run_rewire_model(30, 0.5, "TO_RANDOM", rng,
                                             max_events=10)
    assert out.verdict == UNRESOLVED
    assert out.absorption_time is None
    g = graphs.generate_erdos_renyi(30, 0.5, np.random.default_rng(1))
    out2, _ = coevolution.run_rewire_model(
        30, 0.5, "TO_RANDOM", np.random.default_rng(2), initial_graph=g)
    assert out2.final_edge_count == g.m


def test_rewire_model_builds_no_incidence_lists(monkeypatch):
    # the engine keeps its own set incidence: neither its start graph nor
    # a caller's graph gets lists built, and the caller's edges stay put
    def boom(*args):
        raise AssertionError("incidence lists built")

    g = graphs.generate_erdos_renyi(30, 0.5, np.random.default_rng(1))
    before = [a.copy() for a in g.endpoint_arrays()]
    monkeypatch.setattr(graphs, "_grouped", boom)
    for variant in ("TO_RANDOM", "TO_SAME"):
        coevolution.run_rewire_model(30, 4.0, variant,
                                     np.random.default_rng(2),
                                     initial_graph=g)
        coevolution.run_rewire_model(30, 4.0, variant,
                                     np.random.default_rng(3))
    assert all(np.array_equal(a, b)
               for a, b in zip(before, g.endpoint_arrays()))


def test_rewire_model_small_beta_polarises_near_half():
    hits = 0
    for r in range(20):
        rng = np.random.default_rng(700_000 + r)
        out, _ = coevolution.run_rewire_model(100, 0.1, "TO_RANDOM", rng)
        f = out.final_heart_fraction
        if min(f, 1 - f) >= 0.25:
            hits += 1
    assert hits >= 16  # 80%


def test_rewire_model_validation(rng):
    with pytest.raises(InvalidParameterError):
        coevolution.run_rewire_model(1, 1.0, "TO_RANDOM", rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_rewire_model(5, 0.0, "TO_RANDOM", rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_rewire_model(5, 1.0, "sideways", rng)
    with pytest.raises(InvalidParameterError, match="max_events"):
        coevolution.run_rewire_model(5, 1.0, "TO_RANDOM", rng, max_events=-1)


# [2] * 5 + [0] * 5 ran to CONSENSUS with a final heart fraction of 1.0,
# and strings leaked a TypeError
@pytest.mark.parametrize("ops", [[2] * 5 + [0] * 5, ["1"] * 5 + ["0"] * 5],
                         ids=["two", "strings"])
@pytest.mark.parametrize("variant", ["TO_RANDOM", "TO_SAME"])
def test_rewire_model_refuses_opinions_outside_0_1(ops, variant):
    with pytest.raises(InvalidParameterError, match="0 or 1"):
        coevolution.run_rewire_model(10, 1.0, variant,
                                     np.random.default_rng(2),
                                     initial_opinions=ops)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 4.5, "5"])
def test_size_that_is_no_integer_is_refused(rng, bad):
    # each leaked a ValueError, TypeError or OverflowError; Holme-Newman
    # refused a NaN or infinite n as "edge count must be in [0, nan]",
    # leaked a TypeError for 4.5 and "5", and drew 5 edges for 4.5
    with pytest.raises(InvalidParameterError):
        coevolution.run_rewire_model(bad, 1.0, coevolution.TO_RANDOM, rng)
    with pytest.raises(InvalidParameterError):
        coevolution.init_positional(bad, rng=rng)
    with pytest.raises(InvalidParameterError,
                       match="vertex count must be an integer"):
        coevolution.run_holme_newman(bad, 2, 0.5, rng)
    with pytest.raises(InvalidParameterError,
                       match="edge count must be an integer"):
        coevolution.run_holme_newman(10, bad, 0.5, rng)
    assert coevolution.init_positional(np.int64(6), rng=rng).n == 6


@pytest.mark.parametrize("engine", ["rewire", "holme-newman"])
@pytest.mark.parametrize("graph_n, n", [(10, 5), (5, 10)],
                         ids=["graph-larger", "graph-smaller"])
def test_initial_graph_of_another_size_is_refused(rng, engine, graph_n, n):
    # the rewire model leaked an IndexError for a larger graph and counted
    # the missing vertices of a smaller one as isolated; Holme-Newman
    # refused both only through count_discordant's opinion-length message
    g = graphs.generate_complete(graph_n)
    with pytest.raises(InvalidParameterError,
                       match=f"initial_graph has {graph_n} vertices, "
                             f"but n = {n}"):
        if engine == "rewire":
            coevolution.run_rewire_model(n, 1.0, "TO_RANDOM", rng,
                                         initial_graph=g)
        else:
            coevolution.run_holme_newman(n, 0, 0.5, rng, initial_graph=g)


# ----------------------------------------------------------------------
# Holme-Newman
# ----------------------------------------------------------------------

def test_holme_newman_beta_one_freezes_opinions(rng):
    out, traj = coevolution.run_holme_newman(40, 80, 1.0, rng)
    assert np.all(traj.heart_frac == traj.heart_frac[0])
    assert out.verdict in (CONSENSUS, POLARISATION)
    assert out.final_edge_count == 80


def test_holme_newman_beta_zero_is_pure_voter_consensus():
    # no rewiring on a connected graph: plain discrete voter, consensus
    for seed in range(3):
        g = None
        for gs in range(50):
            cand = graphs.generate_gnm(30, 90, np.random.default_rng(1000 + gs))
            if is_connected(cand):
                g = cand
                break
        out, _ = coevolution.run_holme_newman(
            30, 90, 0.0, np.random.default_rng(2000 + seed), initial_graph=g)
        assert out.verdict == CONSENSUS


def test_holme_newman_sweep_emits_minority_curve():
    rows = []
    for beta in (0.1, 0.5, 0.9):
        fr = []
        for r in range(5):
            out, _ = coevolution.run_holme_newman(
                60, 120, beta, np.random.default_rng(3000 + r))
            f = out.final_heart_fraction
            assert out.verdict in (CONSENSUS, POLARISATION)
            fr.append(min(f, 1 - f))
        rows.append((beta, float(np.mean(fr))))
    print("holme-newman minority fraction by rewiring share:", rows)
    assert all(0.0 <= v <= 0.5 for _, v in rows)


def test_holme_newman_leaves_the_caller_graph(rng):
    # the engine rewires fresh lists read from the graph, never the graph
    g = graphs.generate_gnm(40, 80, rng)
    before = [a.copy() for a in g.endpoint_arrays()]
    out, traj = coevolution.run_holme_newman(40, 80, 0.9, rng,
                                             initial_graph=g)
    assert traj.n_events > 0 and out.verdict != coevolution.UNRESOLVED
    assert all(np.array_equal(a, b)
               for a, b in zip(before, g.endpoint_arrays()))
    assert g.is_simple()


def test_holme_newman_validation(rng):
    with pytest.raises(InvalidParameterError):
        coevolution.run_holme_newman(10, 5, 1.5, rng)
    with pytest.raises(InvalidParameterError, match="max_steps"):
        coevolution.run_holme_newman(10, 5, 0.5, rng, max_steps=-1)


# each leaked a TypeError, an AttributeError or a ValueError
@pytest.mark.parametrize("call", [
    lambda rng: coevolution.run_rewire_model(10, "x", "TO_RANDOM", rng),
    lambda rng: coevolution.run_rewire_model(10, 1.0, 3, rng),
    lambda rng: coevolution.run_holme_newman(10, 5, "x", rng),
    lambda rng: coevolution.DenseState(["a", "b"], np.zeros((2, 2), bool)),
    lambda rng: coevolution.DenseState.iid(5, "x", 0.5, rng),
    lambda rng: coevolution.run_dense(
        coevolution.DenseState.iid(5, 0.5, 0.5, rng), 1.0, 1.0,
        SwitchProbs(0.5, 1.5, 2.0, 0.7), "x", [], rng),
    lambda rng: coevolution.run_dense(
        coevolution.DenseState.iid(5, 0.5, 0.5, rng), "x", 1.0,
        SwitchProbs(0.5, 1.5, 2.0, 0.7), 1.0, [], rng),
], ids=["rewire-beta", "rewire-variant", "holme-newman-beta",
        "dense-opinions", "dense-iid-density", "dense-horizon",
        "dense-rate"])
def test_non_numeric_argument_is_refused(rng, call):
    with pytest.raises(InvalidParameterError):
        call(rng)


# ----------------------------------------------------------------------
# dense model
# ----------------------------------------------------------------------

FIG9 = SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def _pair_classes(st):
    return coevolution._pair_classes(st.n, st.heart_count, st.edge_count,
                                     st.edge_conc_count)


def test_dense_state_counts_and_recount(rng):
    st = DenseState.iid(40, 0.3, 0.5, rng)
    assert _pair_classes(st) == dense_recount(st.opinions, st.adj)
    assert sum(_pair_classes(st)) == st.n_pairs


def test_dense_state_holds_no_object_per_edge():
    # about 26,500 edges: with a set of (i, j) tuples and a dict of their
    # positions the constructor peaked near 5.3 MB under tracemalloc; the
    # matrices and counts alone take about 0.7 MB
    st = coevolution.init_positional(400, rng=np.random.default_rng(5))
    tracemalloc.start()
    try:
        DenseState(st.opinions, st.adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n", [2, 3, 57, 400, 1000])
@pytest.mark.parametrize("init", ["positional", "iid"])
def test_blocked_pair_draw_matches_one_shot(n, init):
    # C(400,2) and C(1000,2) span several row blocks of about 2^14 pairs;
    # the reference draws every pair with one rng.random(C(n,2))
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    if init == "positional":
        st = coevolution.init_positional(n, rng=rng)
        ops, adj = oneshot_positional(n, ref)
    else:
        st = DenseState.iid(n, 0.4, 0.5, rng)
        ops, adj = oneshot_iid(n, 0.4, 0.5, ref)
    assert np.array_equal(st.opinions, ops)
    assert np.array_equal(st.adj, adj)
    assert rng.random() == ref.random()
    iu, iv = np.triu_indices(n, k=1)
    assert st.edge_count == np.count_nonzero(adj[iu, iv])
    assert st.edge_conc_count == np.count_nonzero(adj[iu, iv]
                                                  & (ops[iu] == ops[iv]))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_layer_takes_a_few_bytes_per_pair():
    # one-shot draws peaked at 56 B per pair (init_positional) and 29
    # (DenseState.iid), and a run's edge lists at 41; the matrix alone
    # takes 2 B per pair
    n = 1000
    npairs = n * (n - 1) // 2
    st = coevolution.init_positional(n, rng=np.random.default_rng(1))
    assert _peak_bytes(lambda: coevolution.init_positional(
        n, rng=np.random.default_rng(1))) < 8 * npairs
    assert _peak_bytes(lambda: DenseState.iid(
        n, 0.4, 0.5, np.random.default_rng(1))) < 8 * npairs
    assert _peak_bytes(lambda: coevolution.run_dense(
        st, 1.0, 1.1, FIG9, 0.01, [0.0, 0.01],
        np.random.default_rng(2))) < 20 * npairs


def test_dense_starts_hold_one_matrix():
    # a start held its matrix and the state's copy of it, 4.1 B per pair
    # at n = 2000; the block temporaries add about 1 MB
    n = 2000
    npairs = n * (n - 1) // 2
    assert _peak_bytes(lambda: coevolution.init_positional(
        n, rng=np.random.default_rng(1))) < 3 * npairs
    assert _peak_bytes(lambda: DenseState.iid(
        n, 0.4, 0.5, np.random.default_rng(1))) < 3 * npairs


def test_checked_dense_run_takes_a_few_bytes_per_pair():
    # a pair-by-pair recount at every sample time peaked at 32.8 B per
    # pair; the run alone takes about 14
    n = 1000
    npairs = n * (n - 1) // 2
    st = coevolution.init_positional(n, rng=np.random.default_rng(1))
    assert _peak_bytes(lambda: coevolution.run_dense(
        st, 1.0, 1.1, FIG9, 0.01, [0.0, 0.01], np.random.default_rng(2),
        check=True)) < 20 * npairs


def test_dense_state_validation():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True  # asymmetric
    with pytest.raises(InvalidParameterError):
        DenseState([0, 1, 0], adj)
    adj2 = np.zeros((3, 3), dtype=bool)
    adj2[1, 1] = True
    with pytest.raises(InvalidParameterError):
        DenseState([0, 1, 0], adj2)
    # run_dense reads the opinion bytes as booleans
    with pytest.raises(InvalidParameterError, match="0 or 1"):
        DenseState([0, 2, 0], np.zeros((3, 3), dtype=bool))
    with pytest.raises(InvalidParameterError, match="1-D"):
        DenseState(np.zeros((1, 2)), np.zeros((1, 1), dtype=bool))
    for n in (3.5, math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="integer"):
            DenseState.iid(n, 0.5, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("opinions, entry", [
    ([0.5, 1.9, 0.0], 0.0), ([0, 1, 0], 0.3),
], ids=["fractional-opinions", "fractional-adjacency"])
def test_dense_state_refuses_entries_other_than_0_or_1(opinions, entry):
    # a cast once read the opinions [0.5, 1.9, 0] as [0, 1, 0] and an
    # adjacency entry 0.3 as an edge
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = entry
    with pytest.raises(InvalidParameterError, match="0 or 1"):
        DenseState(opinions, adj)


def test_init_positional_extremes(rng):
    zero = lambda x, y: np.zeros_like(x)
    one = lambda x, y: np.ones_like(x)
    st = coevolution.init_positional(30, zero, zero, rng)
    assert st.edge_count == 0
    st2 = coevolution.init_positional(30, one, one, rng)
    assert st2.edge_count == st2.n_pairs
    bad = lambda x, y: 1.5 * np.ones_like(x)
    with pytest.raises(InvalidParameterError):
        coevolution.init_positional(30, bad, zero, rng)
    nan = lambda x, y: np.full_like(x, np.nan)
    with pytest.raises(InvalidParameterError, match="profile leaves"):
        coevolution.init_positional(10, nan, zero, rng)
    # out of range on the last rows only, in the last of several blocks
    late = lambda x, y: np.where(x > 0.99, 1.5, 0.1)
    with pytest.raises(InvalidParameterError, match="discordant profile"):
        coevolution.init_positional(400, zero, late, rng)


def test_init_positional_conflict_density(rng):
    # discordant-connected density ~ (9/10)(2/3)(1/2) = 0.3
    st = coevolution.init_positional(1000, rng=rng)
    disc_edge = st.edge_disc / st.n_pairs
    assert abs(disc_edge - 0.3) < 0.02


def test_dense_frozen_graph_when_weights_zero(rng):
    zero = SwitchProbs(s_c1=0.0, s_c0=0.0, s_d1=0.0, s_d0=0.0)
    st = DenseState.iid(30, 0.4, 0.5, rng)
    p0 = st.edge_count / st.n_pairs
    traj = coevolution.run_dense(st, 1.0, 1.0, zero, 3.0,
                                 np.linspace(0, 3, 7), rng, check=True)
    assert np.all(traj.p == p0)  # graph frozen, opinions still move
    assert traj.q[0] != traj.q[-1] or traj.consensus_time is not None


def test_dense_frozen_opinions_relax_to_half():
    # eta=0, all weights 1/2: dp = rho (1-2p)/2 dt from p0=0.8 at t=5
    flat = SwitchProbs(s_c1=0.5, s_c0=0.5, s_d1=0.5, s_d0=0.5)
    st = DenseState.iid(400, 0.8, 0.5, np.random.default_rng(21))
    traj = coevolution.run_dense(st, 0.0, 1.0, flat, 5.0,
                                 np.linspace(0, 5, 11),
                                 np.random.default_rng(22))
    p0 = traj.p[0]
    pred = 0.5 + (p0 - 0.5) * math.exp(-2 * 1.0 * 0.5 * 5.0)
    assert abs(traj.p[-1] - pred) < 0.03


def test_dense_pair_class_fuzz(rng):
    st = DenseState.iid(50, 0.4, 0.5, rng)
    sched = np.linspace(0.0, 3.0, 31)
    traj = coevolution.run_dense(st, 1.0, 1.5, FIG9, 3.0, sched, rng,
                                 check=True)
    assert traj.n_events >= 10_000
    total = traj.conc_edge + traj.disc_edge + traj.conc_nonedge + traj.disc_nonedge
    assert np.allclose(total, 1.0, atol=1e-12)


def test_dense_q_is_martingale(rng):
    R, n = 1000, 30
    finals = []
    for i in range(R):
        r = np.random.default_rng(800_000 + i)
        st = DenseState.iid(n, 0.5, 0.5, r)
        traj = coevolution.run_dense(st, 1.0, 1.0, FIG9, 1.0, [1.0], r)
        finals.append(traj.q[0])
    assert abs(np.mean(finals) - 0.5) <= 4 * math.sqrt(0.25 / R)


def test_dense_boundary_weights_monotone_edges(rng):
    s0 = SwitchProbs(s_c1=0.5, s_c0=0.0, s_d1=2.0, s_d0=0.0)
    st = DenseState.iid(60, 0.6, 0.5, rng)
    traj = coevolution.run_dense(st, 1.0, 1.0, s0, 2.0,
                                 np.linspace(0, 2, 41), rng)
    assert np.all(np.diff(traj.p) <= 1e-15)


def test_run_dense_checks_the_state_and_leaves_it(rng):
    # the constructor checks the arrays, and no one can edit them after
    st = DenseState.iid(30, 0.4, 0.5, rng)
    ops, adj = st.opinions.copy(), st.adj.copy()
    coevolution.run_dense(st, 1.0, 1.0, FIG9, 2.0, [0.0, 2.0], rng)
    assert np.array_equal(st.opinions, ops) and np.array_equal(st.adj, adj)
    with pytest.raises(ValueError, match="read-only"):
        st.adj[0, 1] = not st.adj[0, 1]
    with pytest.raises(ValueError, match="read-only"):
        st.opinions[3] = 2
    assert np.array_equal(st.opinions, ops) and np.array_equal(st.adj, adj)


@pytest.mark.parametrize("start", ["constructor", "positional"])
def test_dense_state_arrays_are_read_only(start):
    # DenseState.iid is the state of the test above
    rng = np.random.default_rng(3)
    if start == "constructor":
        ops, adj = oneshot_iid(20, 0.4, 0.5, rng)
        st = DenseState(ops, adj)
        # the state holds copies: the caller's arrays stay its own
        adj[0, 1] = adj[1, 0] = not adj[0, 1]
        assert st.adj[0, 1] != adj[0, 1]
    else:
        st = coevolution.init_positional(20, rng=rng)
    for arr in (st.opinions, st.adj):
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 1
    assert st.heart_count == np.count_nonzero(st.opinions)
    assert _pair_classes(st) == dense_recount(st.opinions, st.adj)


def test_dense_validation(rng):
    st = DenseState.iid(10, 0.5, 0.5, rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_dense(st, -1.0, 1.0, FIG9, 1.0, [], rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_dense(st, 1.0, 1.0, FIG9, None, [], rng)
    for grid in (["x"], [None]):
        with pytest.raises(InvalidParameterError, match="numbers"):
            coevolution.run_dense(st, 1.0, 1.0, FIG9, 1.0, grid, rng)
    # the post-consensus chain cannot carry the edge count over a negative
    # or infinite gap
    for horizon in (-1.0, math.inf):
        with pytest.raises(InvalidParameterError, match="finite horizon"):
            coevolution.run_dense(st, 1.0, 1.0, FIG9, horizon, [], rng,
                                  max_events=100)
    with pytest.raises(InvalidParameterError):
        SwitchProbs(s_c1=-0.1, s_c0=0, s_d1=0, s_d0=0)


# ----------------------------------------------------------------------
# outcome classification
# ----------------------------------------------------------------------

def test_classify_outcome_cases():
    assert coevolution.classify_outcome(0, 5, 0) == CONSENSUS
    assert coevolution.classify_outcome(5, 5, 0) == CONSENSUS
    assert coevolution.classify_outcome(2, 5, 0) == POLARISATION
    assert coevolution.classify_outcome(2, 5, 3) == UNRESOLVED


def test_dense_timeout_carries_partial(rng):
    st = DenseState.iid(30, 0.4, 0.5, rng)
    sched = np.linspace(0.0, 50.0, 501)
    with pytest.raises(SimulationTimeout) as info:
        coevolution.run_dense(st, 1.0, 1.0, FIG9, 50.0, sched, rng,
                              max_events=2000)
    part = info.value.partial
    assert isinstance(part, coevolution.DenseTrajectory)
    assert part.n_events == 2000
    assert 0 < len(part.times) < len(sched)
    assert np.array_equal(part.times, sched[:len(part.times)])
    assert len(part.q) == len(part.p) == len(part.times)
    assert 0 <= part.final_edge_count <= st.n_pairs
