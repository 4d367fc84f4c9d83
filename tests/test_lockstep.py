"""The lockstep ensemble path of ``run_ensemble`` against the single-run
engines it stands in for, on undirected (rrg, ER) and directed (dcm) graphs.
The exact directed laws are checked on both paths.

The two paths share graphs and starting opinions but not the random stream
of the dynamics, so they are compared in law: at every sample time a
two-sample Kolmogorov-Smirnov test and a paired t-test (the pairs share a
graph and a starting state) on heart and discordant fractions, and where
runs absorb, the same for consensus times.  Each case is one family of
tests at level ``ALPHA``, Bonferroni-corrected over its tests; the level
was fixed before any case was run.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from discordlab import _lockstep, dynamics, experiments, graphs
from discordlab.errors import InvalidParameterError

from _oracles import reference_lockstep

ALPHA = 0.01
R = 200
assert R >= experiments.LOCKSTEP_MIN_REPLICAS


def cfg_of(model, horizon=4.0, step=0.5, **over):
    base = dict(model=model, u=0.5, replicas=R, master_seed=4242,
                horizon=horizon,
                sample_times=np.arange(0.0, horizon + step / 2, step).tolist())
    base.update(over)
    return experiments.ExperimentConfig(**base)


def both_paths(cfg):
    """(lockstep result, single-run heart, disc, taus) for one config."""
    assert experiments._takes_lockstep(cfg)
    lock = experiments.run_ensemble(cfg)
    heart, disc, taus, _, _ = experiments._replica_ensemble(cfg, workers=1)
    return lock, heart, disc, taus


def law_pvalues(lock, heart, disc, taus):
    ps = []
    for got, ref in ((lock.samples["heart_frac"], heart),
                     (lock.samples["discordant_frac"], disc)):
        for k in range(1, got.shape[1]):  # t = 0 is identical, see below
            a, b = got[:, k], ref[:, k]
            ps.append(stats.ks_2samp(a, b, method="asymp").pvalue)
            if np.any(a != b):
                ps.append(stats.ttest_rel(a, b).pvalue)
    hit_a, hit_b = np.isfinite(lock.taus), np.isfinite(taus)
    if hit_a.any() or hit_b.any():
        table = [[hit_a.sum(), R - hit_a.sum()], [hit_b.sum(), R - hit_b.sum()]]
        ps.append(stats.fisher_exact(table).pvalue)
    if hit_a.sum() > 10 and hit_b.sum() > 10:
        ps.append(stats.ks_2samp(lock.taus[hit_a], taus[hit_b],
                                 method="asymp").pvalue)
    return np.asarray(ps)


def directed_paths(cfg):
    """Consensus times and values of the replicas of ``cfg`` on each path:
    the lockstep engine, and ``run_voter_directed`` replica by replica."""
    lock = experiments.run_ensemble(cfg)
    _, _, taus, values, _ = experiments._replica_ensemble(cfg, workers=1)
    return {"lockstep": (lock.taus, lock.consensus_values),
            "single-run": (taus, values)}


def exp_cdf(rate, horizon):
    """CDF of an Exp(rate) time conditioned on being at most ``horizon``."""
    return lambda t: -np.expm1(-rate * t) / -np.expm1(-rate * horizon)


CASES = {
    "rrg": cfg_of({"family": "rrg", "n": 60, "d": 3}),
    # mean degree 1.5: about a fifth of the vertices are isolated
    "er_isolated": cfg_of({"family": "er", "n": 100, "p": 1.5 / 99}, u=0.3),
    # the raw pairing multigraph keeps self-loops and multi-edges
    "rrg_allow": cfg_of({"family": "rrg", "n": 60, "d": 3,
                         "policy": "allow"}),
    # long enough for most replicas to reach consensus
    "rrg_absorbing": cfg_of({"family": "rrg", "n": 20, "d": 3},
                            horizon=120.0, step=10.0),
    # every copying degree is 3: a move is a uniform arc
    "dcm_out": cfg_of({"family": "dcm", "n": 60, "d": 3}),
    "dcm_in": cfg_of({"family": "dcm", "n": 60, "d": 3}, adopt_from="in"),
    # out-degrees 1 to 4, so a move is a uniform vertex and one of its
    # arcs; six in-hubs take most arcs, so copying the other way round
    # (from in-neighbours) has another law
    "dcm_mixed": cfg_of({"family": "dcm", "n": 60,
                         "d_in": [20] * 6 + [1] * 30 + [0] * 24,
                         "d_out": [1, 2, 3, 4] * 15}),
    "dcm_absorbing": cfg_of({"family": "dcm", "n": 20, "d": 3},
                            horizon=120.0, step=10.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_has_the_law_of_the_event_engines(case):
    lock, heart, disc, taus = both_paths(CASES[case])
    ps = law_pvalues(lock, heart, disc, taus)
    assert ps.min() >= ALPHA / len(ps), (case, ps.min(), len(ps))
    # the first row is the starting state, which both paths share
    assert np.array_equal(lock.samples["heart_frac"][:, 0], heart[:, 0])
    assert np.array_equal(lock.samples["discordant_frac"][:, 0], disc[:, 0])
    # a replica at consensus has its consensus time
    last = lock.samples["heart_frac"][:, -1]
    assert np.all(np.isfinite(lock.taus[(last == 0.0) | (last == 1.0)]))
    if case.endswith("_absorbing"):
        assert np.isfinite(lock.taus).mean() > 0.5
        hit = np.isfinite(lock.taus)
        assert np.all(lock.taus[hit] <= CASES[case].horizon)
        ends = lock.samples["heart_frac"][hit, -1]
        assert np.array_equal(ends, [float(v) for v in
                                     np.asarray(lock.consensus_values)[hit]])
        assert np.all(lock.samples["discordant_frac"][hit, -1] == 0.0)


def test_dcm_lockstep_builds_no_adjacency_lists(monkeypatch):
    # the lockstep path reads each replica's endpoint arrays only
    def boom(*args):
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(graphs, "_grouped", boom)
    for case in ("dcm_out", "dcm_in", "dcm_mixed"):
        cfg = replace(CASES[case], replicas=experiments.LOCKSTEP_MIN_REPLICAS)
        assert experiments._takes_lockstep(cfg)
        experiments.run_ensemble(cfg)


def test_same_master_seed_is_byte_identical():
    cfg = CASES["er_isolated"]
    a, b = experiments.run_ensemble(cfg), experiments.run_ensemble(cfg)
    for key in ("heart_frac", "discordant_frac"):
        assert a.samples[key].tobytes() == b.samples[key].tobytes()
    assert a.taus.tobytes() == b.taus.tobytes()


def assert_workers_do_not_change(cfg):
    assert experiments._takes_lockstep(cfg)
    serial = experiments.run_ensemble(cfg, workers=1)
    parallel = experiments.run_ensemble(cfg, workers=2)
    for key in ("heart_frac", "discordant_frac"):
        assert np.array_equal(serial.samples[key], parallel.samples[key])
    assert np.array_equal(serial.taus, parallel.taus, equal_nan=True)
    assert serial.consensus_values == parallel.consensus_values


def test_workers_do_not_change_the_result():
    assert_workers_do_not_change(CASES["rrg_absorbing"])


def test_workers_do_not_change_a_dcm_ensemble():
    assert_workers_do_not_change(replace(CASES["dcm_mixed"], replicas=16))


def test_the_rule():
    cfg = CASES["rrg"]
    assert experiments._takes_lockstep(cfg)
    n_min = experiments.LOCKSTEP_MIN_REPLICAS
    for over in ({"replicas": n_min - 1}, {"nu": 1.0}, {"horizon": None},
                 {"horizon": float("inf")},
                 {"model": {"family": "complete", "n": 60}}):
        assert not experiments._takes_lockstep(replace(cfg, **over)), over
    assert experiments._takes_lockstep(replace(cfg, replicas=n_min))
    for case in ("dcm_out", "dcm_in", "dcm_mixed"):
        assert experiments._takes_lockstep(replace(CASES[case],
                                                   replicas=n_min))


def test_timeouts_follow_the_event_engines():
    # about half of the replicas make their 75th flip by t = 4
    cfg = cfg_of({"family": "rrg", "n": 60, "d": 3}, max_events=75)
    lock, heart, disc, taus = both_paths(cfg)
    ref_out = np.isnan(heart[:, -1])
    got_out = np.zeros(R, dtype=bool)
    got_out[lock.timed_out] = True
    assert np.array_equal(got_out, np.isnan(lock.samples["heart_frac"][:, -1]))
    assert 0.2 < got_out.mean() < 0.9
    assert np.all(np.isnan(lock.taus[got_out]))
    # a timed-out row keeps the samples before its cap flip, then is NaN
    kept = np.isfinite(lock.samples["heart_frac"])
    assert np.all(np.diff(kept.astype(int), axis=1) <= 0)
    assert np.array_equal(kept, np.isfinite(lock.samples["discordant_frac"]))
    ps = [stats.fisher_exact([[got_out.sum(), R - got_out.sum()],
                              [ref_out.sum(), R - ref_out.sum()]]).pvalue,
          stats.ks_2samp(kept.sum(axis=1), np.isfinite(heart).sum(axis=1),
                         method="asymp").pvalue]
    assert min(ps) >= ALPHA / len(ps), ps


@pytest.mark.parametrize("max_events", [0, 1])
def test_cap_flip_that_freezes_or_absorbs_is_no_timeout(monkeypatch,
                                                        max_events):
    # two separate edges, one discordant: the only possible flip either
    # reaches consensus or freezes the state, and neither is a timeout; at
    # max_events=0 the cap comes first and every replica times out
    monkeypatch.setattr(experiments, "build_graph",
                        lambda model, rng: graphs.Graph(4, [0, 2], [1, 3]))
    monkeypatch.setattr(dynamics, "init_opinions_iid",
                        lambda n, u, rng: dynamics.OpinionState([1, 0, 1, 1]))
    cfg = cfg_of({"family": "er", "n": 4, "p": 0.5}, horizon=20.0, step=5.0,
                 max_events=max_events, replicas=1000)
    lock = experiments.run_ensemble(cfg)
    heart, disc, taus, values, timed_out = experiments._replica_ensemble(
        cfg, workers=1)
    if max_events == 0:
        assert lock.timed_out == timed_out == list(range(cfg.replicas))
        assert np.isnan(lock.samples["heart_frac"]).all()
        return
    assert lock.timed_out == timed_out == []
    absorbed = np.isfinite(lock.taus)
    assert np.all(lock.samples["heart_frac"][absorbed, -1] == 1.0)
    assert np.all(lock.samples["heart_frac"][~absorbed, -1] == 0.5)
    assert np.all(lock.samples["discordant_frac"][:, -1] == 0.0)
    # the flip comes at the first ring of vertex 0 or 1, after null steps of
    # vertices 2 and 3, and absorbs if vertex 1 rang first
    ps = [stats.binomtest(int(absorbed.sum()), cfg.replicas, 1 / 2).pvalue,
          stats.kstest(lock.taus[absorbed], exp_cdf(2.0, cfg.horizon)).pvalue]
    assert min(ps) >= ALPHA / len(ps), ps


def test_single_edge_consensus_time_is_exponential():
    # on one edge the first step of either end reaches consensus, so a
    # discordant start absorbs at the first ring of two rate-1 clocks
    cfg = cfg_of({"family": "rrg", "n": 2, "d": 1}, horizon=6.0, step=1.5,
                 replicas=1000)
    lock = experiments.run_ensemble(cfg)
    start = lock.samples["discordant_frac"][:, 0] == 1.0
    assert 400 < start.sum() < 600
    assert np.all(lock.taus[~start] == 0.0)
    assert np.all(np.isfinite(lock.taus[start]))
    p = stats.kstest(lock.taus[start], exp_cdf(2.0, cfg.horizon)).pvalue
    assert p >= ALPHA, p


def test_directed_two_cycle_absorbs_at_an_exp2_time(monkeypatch):
    # each end of a directed 2-cycle copies the other, so from opposite
    # opinions the first ring of either end absorbs, at the opinion of the
    # end that did not ring
    monkeypatch.setattr(experiments, "build_graph",
                        lambda model, rng: graphs.DirectedGraph(2, [0, 1],
                                                                [1, 0]))
    monkeypatch.setattr(dynamics, "init_opinions_iid",
                        lambda n, u, rng: dynamics.OpinionState([1, 0]))
    cfg = cfg_of({"family": "dcm", "n": 2, "d": 1}, horizon=6.0, step=1.5,
                 replicas=1000)
    for path, (taus, values) in directed_paths(cfg).items():
        assert np.all(np.isfinite(taus)), path
        ones = sum(v == 1 for v in values)
        assert ones + sum(v == 0 for v in values) == cfg.replicas, path
        ps = [stats.binomtest(ones, cfg.replicas, 1 / 2).pvalue,
              stats.kstest(taus, exp_cdf(2.0, cfg.horizon)).pvalue]
        assert min(ps) >= ALPHA / len(ps), (path, ps)


@pytest.mark.parametrize("adopt_from, tails, heads",
                         [("out", [0, 1], [1, 1]), ("in", [1, 1], [0, 1])])
def test_a_vertex_copies_only_along_its_own_arcs(monkeypatch, adopt_from,
                                                 tails, heads):
    # vertex 0 copies only vertex 1, and vertex 1 only itself through a
    # self-loop, so from opinions 0, 1 every run absorbs at 1 at the first
    # ring of vertex 0; copying the other way round could reach 0
    monkeypatch.setattr(experiments, "build_graph",
                        lambda model, rng: graphs.DirectedGraph(2, tails,
                                                                heads))
    monkeypatch.setattr(dynamics, "init_opinions_iid",
                        lambda n, u, rng: dynamics.OpinionState([0, 1]))
    cfg = cfg_of({"family": "dcm", "n": 2, "d": 1}, horizon=20.0, step=5.0,
                 replicas=1000, adopt_from=adopt_from)
    for path, (taus, values) in directed_paths(cfg).items():
        assert values == [1] * cfg.replicas, path
        p = stats.kstest(taus, exp_cdf(1.0, cfg.horizon)).pvalue
        assert p >= ALPHA, (path, p)


def test_cap_flip_on_a_path(monkeypatch):
    # on the path 0-1-2 starting 1,0,1 each vertex flips at rate 1; the
    # first flip is the middle one, which absorbs, with probability 1/3 and
    # otherwise reaches the cap max_events=1
    monkeypatch.setattr(experiments, "build_graph",
                        lambda model, rng: graphs.Graph(3, [0, 1], [1, 2]))
    monkeypatch.setattr(dynamics, "init_opinions_iid",
                        lambda n, u, rng: dynamics.OpinionState([1, 0, 1]))
    cfg = cfg_of({"family": "er", "n": 3, "p": 0.5}, horizon=20.0, step=5.0,
                 max_events=1, replicas=1000)
    lock = experiments.run_ensemble(cfg)
    absorbed = np.isfinite(lock.taus)
    assert np.array_equal(np.flatnonzero(~absorbed), lock.timed_out)
    assert all(lock.consensus_values[r] == 1 for r in np.flatnonzero(absorbed))
    ps = [stats.binomtest(int(absorbed.sum()), len(absorbed), 1 / 3).pvalue,
          stats.kstest(lock.taus[absorbed], exp_cdf(3.0, cfg.horizon)).pvalue]
    assert min(ps) >= ALPHA / len(ps), ps


def test_errors_match_the_event_engines():
    def message(cfg):
        with pytest.raises(InvalidParameterError) as err:
            experiments.run_ensemble(cfg)
        return str(err.value)

    dcm = {"family": "dcm", "n": 30, "d": 3}
    # a third of the vertices have in-degree 0, none out-degree 0
    lopsided = {"family": "dcm", "n": 30, "d_in": [3, 3, 0] * 10,
                "d_out": [2] * 30}
    for over in ({"model": {"family": "er", "n": 30, "p": 0.0}},
                 {"sample_times": [0.0, 2.0, 1.0]},
                 {"sample_times": [-1.0, 1.0]},
                 {"model": {**dcm, "d": 0}},
                 {"model": dcm, "adopt_from": "sideways"},
                 {"model": lopsided, "adopt_from": "in"},
                 {"model": {**lopsided, "d_in": [2] * 30,
                            "d_out": [3, 3, 0] * 10}}):
        cfg = replace(cfg_of({"family": "rrg", "n": 30, "d": 3}), **over)
        assert experiments._takes_lockstep(cfg)
        assert message(cfg) == message(replace(cfg, replicas=1)), over


# graphs of at most 8 vertices, where the steps of one pass often share a
# vertex
TINY_MODELS = [
    {"family": "rrg", "n": 8, "d": 3},
    {"family": "rrg", "n": 2, "d": 1},
    {"family": "rrg", "n": 6, "d": 2, "policy": "allow"},
    {"family": "er", "n": 8, "p": 0.4},
    {"family": "dcm", "n": 6, "d": 2},
    {"family": "dcm", "n": 6, "d_in": [3, 2, 2, 1, 1, 1],
     "d_out": [1, 2, 3, 1, 2, 1]},
]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(TINY_MODELS),
       replicas=st.integers(1, 24),
       horizon=st.floats(0.5, 12.0),
       max_events=st.one_of(st.integers(0, 40),
                            st.just(dynamics.DEFAULT_MAX_EVENTS)),
       adopt_from=st.sampled_from(["out", "in"]))
def test_lockstep_matches_the_pass_by_pass_reference(seed, model, replicas,
                                                     horizon, max_events,
                                                     adopt_from):
    # a small cap is within reach of some replica, which turns on the flip
    # count; the default cap never is
    cfg = cfg_of(model, horizon=horizon, replicas=replicas, master_seed=seed,
                 sample_times=[0.0, horizon / 3, 2 * horizon / 3, horizon],
                 max_events=max_events, adopt_from=adopt_from)
    got = experiments._lockstep_ensemble(cfg)
    with mock.patch.object(_lockstep, "run", reference_lockstep):
        want = experiments._lockstep_ensemble(cfg)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


class _Grabbed(Exception):
    pass


def packed_of(cfg):
    """The ``Packed`` that the lockstep path builds for ``cfg``, before any
    step, and each replica's graph, built again from its stream."""
    def grab(packed, *args):
        raise _Grabbed(packed)

    with mock.patch.object(_lockstep, "run", grab), \
            pytest.raises(_Grabbed) as got:
        experiments._lockstep_ensemble(cfg)
    gs = [experiments.build_graph(cfg.model,
                                  experiments.spawn_rng(cfg.master_seed, r))
          for r in range(cfg.replicas)]
    return got.value.args[0], gs


PACKS = {
    "rrg": cfg_of({"family": "rrg", "n": 40, "d": 3}, replicas=16),
    "er_isolated": CASES["er_isolated"],
    "rrg_allow": CASES["rrg_allow"],
    "dcm_mixed_out": CASES["dcm_mixed"],
    # the same degrees swapped, so that every vertex copies along an arc
    "dcm_mixed_in": cfg_of({"family": "dcm", "n": 60,
                            "d_in": [1, 2, 3, 4] * 15,
                            "d_out": [20] * 6 + [1] * 30 + [0] * 24},
                           adopt_from="in"),
    # about 4,500 edges a replica: three replicas to a recount chunk
    "er_chunks": cfg_of({"family": "er", "n": 3000, "p": 3.0 / 2999},
                        replicas=16),
    # one replica to a chunk, each with more than 2**16 vertices
    "er_wide": cfg_of({"family": "er", "n": 70_000, "p": 0.6 / 69_999},
                      replicas=16),
}


@pytest.mark.parametrize("case", sorted(PACKS))
def test_recount_and_copying_slots_match_brute_force(case):
    packed, gs = packed_of(PACKS[case])
    n, R = packed.n, packed.R
    if case == "er_isolated":
        assert not all(min(g.degrees()) for g in gs)
    if case == "rrg_allow":
        assert any(g.has_self_loop() for g in gs)
        assert any(g.has_multi_edge() for g in gs)
    if case.startswith("er_") and case != "er_isolated":
        assert len(packed.chunks) > 1
    rng = np.random.default_rng(8)
    for ops in (packed.ops.copy(), rng.integers(0, 2, R * n),
                np.repeat(rng.integers(0, 2, R), n)):
        packed.ops[:] = ops
        rows = ops.reshape(R, n)
        assert packed.discordant().tolist() == [
            graphs.count_discordant(g, row.tolist())
            for g, row in zip(gs, rows)]
        back = np.arange(R)[::-1]
        assert packed.hearts(back).tolist() == rows[back].sum(axis=1).tolist()
    if packed.regular:
        return
    # the copying slots of each vertex, in the order of ``ends``, then an
    # isolated vertex's one slot to itself
    ends = packed.ends
    if packed.step == 2:
        owner, other = ends[0::2], ends[1::2]
    else:
        owner, other = ends, ends.reshape(-1, 2)[:, ::-1].ravel()
    iso = np.flatnonzero(np.bincount(owner, minlength=R * n) == 0)
    owner = np.concatenate([owner, iso])
    other = np.concatenate([other, iso])
    assert np.array_equal(packed.nbr, other[np.argsort(owner, kind="stable")])
