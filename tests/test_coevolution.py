import math

import numpy as np
import pytest

from discordlab import coevolution, graphs, limits
from discordlab.coevolution import (CONSENSUS, POLARISATION, UNRESOLVED,
                                    DenseState, SwitchProbs)
from discordlab.errors import InvalidParameterError, SimulationTimeout


def two_vertex_edge():
    g = graphs.Graph(2)
    g.add_edge(0, 1)
    return g


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
            if cand.is_connected():
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


def test_holme_newman_validation(rng):
    with pytest.raises(InvalidParameterError):
        coevolution.run_holme_newman(10, 5, 1.5, rng)


# ----------------------------------------------------------------------
# dense model
# ----------------------------------------------------------------------

FIG9 = SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def test_dense_state_counts_and_recount(rng):
    st = DenseState.iid(40, 0.3, 0.5, rng)
    assert st.pair_class_counts() == st.recount()
    assert sum(st.pair_class_counts()) == st.n_pairs


def test_dense_state_validation():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True  # asymmetric
    with pytest.raises(InvalidParameterError):
        DenseState([0, 1, 0], adj)
    adj2 = np.zeros((3, 3), dtype=bool)
    adj2[1, 1] = True
    with pytest.raises(InvalidParameterError):
        DenseState([0, 1, 0], adj2)


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


def test_init_positional_conflict_density(rng):
    # discordant-connected density ~ (9/10)(2/3)(1/2) = 0.3
    st = coevolution.init_positional(1000, rng=rng)
    disc_edge = st.pair_class_counts()[1] / st.n_pairs
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


def test_dense_validation(rng):
    st = DenseState.iid(10, 0.5, 0.5, rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_dense(st, -1.0, 1.0, FIG9, 1.0, [], rng)
    with pytest.raises(InvalidParameterError):
        coevolution.run_dense(st, 1.0, 1.0, FIG9, None, [], rng)
    with pytest.raises(InvalidParameterError):
        SwitchProbs(s_c1=-0.1, s_c0=0, s_d1=0, s_d0=0)


# ----------------------------------------------------------------------
# outcome classification
# ----------------------------------------------------------------------

def test_classify_outcome_cases(rng):
    assert coevolution.classify_outcome(0, 5, 0) == CONSENSUS
    assert coevolution.classify_outcome(5, 5, 0) == CONSENSUS
    assert coevolution.classify_outcome(2, 5, 0) == POLARISATION
    assert coevolution.classify_outcome(2, 5, 3) == UNRESOLVED
    st = DenseState.iid(12, 0.5, 0.5, rng)
    verdict = coevolution.classify_outcome(st)
    assert verdict in (CONSENSUS, POLARISATION, UNRESOLVED)


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
