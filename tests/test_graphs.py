import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discordlab import graphs
from discordlab.errors import InvalidParameterError

from _oracles import brute_discordant


class FixedRng:
    """Stub rng with a scripted .random() stream, for exact enumeration."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_complete_basic():
    g = graphs.generate_complete(7)
    assert g.m == 21
    g2 = graphs.generate_complete(2)
    assert list(g2.edges()) == [(0, 1)]
    g5 = graphs.generate_complete(5)
    assert g5.degrees() == [4] * 5
    assert sum(g5.degrees()) == 2 * g5.m
    g5.check_consistency()


def test_complete_rejects_small():
    with pytest.raises(InvalidParameterError):
        graphs.generate_complete(1)


def test_random_regular_counts(rng):
    g = graphs.generate_random_regular(8, 3, rng)
    assert g.m == 12
    assert g.degrees() == [3] * 8
    assert g.is_simple()
    g.check_consistency()


def test_random_regular_k4(rng):
    # the unique simple 3-regular graph on 4 vertices
    g = graphs.generate_random_regular(4, 3, rng, policy="reject")
    assert sorted(tuple(sorted(e)) for e in g.edges()) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_random_regular_validation(rng):
    with pytest.raises(InvalidParameterError):
        graphs.generate_random_regular(5, 3, rng)  # odd n*d
    with pytest.raises(InvalidParameterError):
        graphs.generate_random_regular(3, 3, rng)  # n <= d
    with pytest.raises(InvalidParameterError):
        graphs.generate_random_regular(8, 3, rng, policy="maybe")


def test_random_regular_large_connected():
    # random 3-regular graphs are a.a.s. connected; allow one failure in 30
    bad = 0
    for seed in range(30):
        g = graphs.generate_random_regular(1000, 3, np.random.default_rng(seed))
        assert g.degrees() == [3] * 1000
        if not g.is_connected():
            bad += 1
    assert bad <= 1


def test_random_regular_allow_policy_keeps_multigraph():
    # with policy="allow" some pairing on few vertices has loops or doubles
    seen_nonsimple = False
    for seed in range(40):
        g = graphs.generate_random_regular(6, 3, np.random.default_rng(seed),
                                           policy="allow")
        assert sorted(g.degrees()) == [3] * 6
        if not g.is_simple():
            seen_nonsimple = True
    assert seen_nonsimple


def test_cross_half_edge_density_concentrates():
    # uniform simple 3-regular: P(pair adjacent) ~ d/(n-1); count edges
    # between the fixed halves over seeds and compare with 3 sigma slack
    n, d, seeds = 200, 3, 40
    half = n // 2
    counts = []
    for seed in range(seeds):
        g = graphs.generate_random_regular(n, d, np.random.default_rng(100 + seed))
        c = sum(1 for u, v in g.edges() if (u < half) != (v < half))
        counts.append(c)
    expected = half * half * d / (n - 1)
    # negatively associated edges: var <= mean; add cushion for O(1/n) bias
    slack = 3 * math.sqrt(expected / seeds) + 2
    assert abs(np.mean(counts) - expected) <= slack


def test_directed_configuration_regular(rng):
    g = graphs.generate_directed_configuration([2, 2, 2, 2], [2, 2, 2, 2], rng)
    assert g.in_degrees() == [2, 2, 2, 2]
    assert g.out_degrees() == [2, 2, 2, 2]  # Eulerian: in == out everywhere


def test_directed_configuration_forced_cases(rng):
    g = graphs.generate_directed_configuration([1], [1], rng)
    assert list(g.arcs()) == [(0, 0)]
    g2 = graphs.generate_directed_configuration([0, 2], [1, 1], rng)
    assert sorted(g2.arcs()) == [(0, 1), (1, 1)]
    assert g2.in_degrees() == [0, 2]


def test_directed_configuration_validation(rng):
    with pytest.raises(InvalidParameterError):
        graphs.generate_directed_configuration([1, 2], [1, 1], rng)
    with pytest.raises(InvalidParameterError):
        graphs.generate_directed_configuration([1], [1, 0], rng)


def test_erdos_renyi_extremes(rng):
    assert graphs.generate_erdos_renyi(20, 0.0, rng).m == 0
    g = graphs.generate_erdos_renyi(20, 1.0, rng)
    assert g.m == 190
    with pytest.raises(InvalidParameterError):
        graphs.generate_erdos_renyi(20, 1.5, rng)


def test_erdos_renyi_edge_count_concentration():
    n = 1000
    n_pairs = n * (n - 1) // 2
    hits = 0
    for seed in range(20):
        g = graphs.generate_erdos_renyi(n, 0.5, np.random.default_rng(seed))
        if abs(g.m - n_pairs / 2) < 4 * math.sqrt(n_pairs / 4):
            hits += 1
    assert hits >= 19  # 4 sigma: essentially all seeds


@pytest.mark.parametrize("n", [2, 3, 50])
def test_erdos_renyi_p1_is_every_pair_in_order(n):
    g = graphs.generate_erdos_renyi(n, 1.0, np.random.default_rng(n))
    assert list(g.edges()) == list(itertools.combinations(range(n), 2))
    g.check_consistency()


def test_erdos_renyi_sparse_edge_count_mean_and_variance():
    # m ~ Binomial(C(n,2), p): mean Np, variance Np(1-p)
    n, p, seeds = 300, 0.004, 400
    n_pairs = n * (n - 1) // 2
    ms = np.array([graphs.generate_erdos_renyi(
        n, p, np.random.default_rng(5000 + s)).m for s in range(seeds)])
    mean, var = n_pairs * p, n_pairs * p * (1 - p)
    assert abs(ms.mean() - mean) <= 4 * math.sqrt(var / seeds)
    # sample variance of near-normal data: sd ~ var * sqrt(2/(seeds-1))
    assert abs(ms.var(ddof=1) - var) <= 4 * var * math.sqrt(2 / (seeds - 1))


def test_erdos_renyi_pair_inclusion_uniform():
    # chi-square over the 28 pairs of n=8: per-pair inclusion counts are
    # independent Binomial(R, p), so the statistic is ~ chi2(28)
    from scipy.stats import chi2
    n, p, reps = 8, 0.3, 3000
    pairs = list(itertools.combinations(range(n), 2))
    counts = dict.fromkeys(pairs, 0)
    for s in range(reps):
        g = graphs.generate_erdos_renyi(n, p, np.random.default_rng(s))
        edges = list(g.edges())
        assert edges == sorted(set(edges))  # simple, row-major order
        for e in edges:
            counts[e] += 1
    c = np.array([counts[e] for e in pairs], dtype=float)
    stat = float(np.sum((c - reps * p) ** 2) / (reps * p * (1 - p)))
    assert chi2.sf(stat, len(pairs)) > 1e-3


class ShortBatchRng:
    """Hands out at most ``cap`` geometric draws per call, so a generator
    must come back for more; the underlying stream is unchanged."""

    def __init__(self, seed, cap):
        self.rng = np.random.default_rng(seed)
        self.cap = cap
        self.calls = 0

    def geometric(self, p, size):
        self.calls += 1
        return self.rng.geometric(p, min(size, self.cap))


@pytest.mark.parametrize("p", [1.0, 1 - 1e-9, 0.999, 0.9, 0.05])
def test_erdos_renyi_skipping_runs_past_first_batch(p):
    # geometric draws are consumed in order, so cutting them into short
    # batches must give the same graph as one long batch
    n = 60
    for seed in range(5):
        short = ShortBatchRng(seed, cap=7)
        g = graphs.generate_erdos_renyi(n, p, short)
        ref = graphs.generate_erdos_renyi(n, p, np.random.default_rng(seed))
        assert short.calls > 1
        assert list(g.edges()) == list(ref.edges())
        assert g.is_simple()
    if p == 1.0:
        assert g.m == n * (n - 1) // 2


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_erdos_renyi_memory_is_linear():
    # about 1.5e5 edges; an all-pairs draw would take 5e9 uniforms (40 GB)
    peak = _peak_bytes(lambda: graphs.generate_erdos_renyi(
        10**5, 3e-5, np.random.default_rng(0)))
    assert peak < 100 * 2**20


def test_complete_build_allocates_no_edges():
    # eagerly built C(4000, 2) edge lists take over 1 GB
    from discordlab.experiments import build_graph
    peak = _peak_bytes(lambda: build_graph({"family": "complete", "n": 4000},
                                           None))
    assert peak < 2**20


def test_graph_bulk_constructor_matches_add_edge(rng):
    us = rng.integers(0, 15, 60)
    vs = rng.integers(0, 15, 60)
    bulk = graphs.Graph(15, us, vs)
    one_by_one = graphs.Graph(15)
    for u, v in zip(us.tolist(), vs.tolist()):
        one_by_one.add_edge(u, v)
    assert (bulk.eu, bulk.ev, bulk.inc) == \
        (one_by_one.eu, one_by_one.ev, one_by_one.inc)
    d = graphs.DirectedGraph(15, us, vs)
    d1 = graphs.DirectedGraph(15)
    for t, h in zip(us.tolist(), vs.tolist()):
        d1.add_arc(t, h)
    assert (d.tails, d.heads, d.out_adj, d.in_adj) == \
        (d1.tails, d1.heads, d1.out_adj, d1.in_adj)
    with pytest.raises(InvalidParameterError):
        graphs.Graph(3, [0, 3], [1, 1])
    with pytest.raises(InvalidParameterError):
        graphs.DirectedGraph(3, [0], [-1])
    with pytest.raises(InvalidParameterError):
        graphs.Graph(3, [0, 2], [1, 2], allows_self_loops=False)


def test_gnm_exact_count(rng):
    g = graphs.generate_gnm(30, 60, rng)
    assert g.m == 60
    assert g.is_simple()


# ----------------------------------------------------------------------
# rewiring and discordance
# ----------------------------------------------------------------------

def _path_graph(pairs, n):
    g = graphs.Graph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def test_rewire_swap_enumerates_both_matchings():
    for coin, expect in ((0.1, {(0, 2), (1, 3)}), (0.9, {(0, 3), (1, 2)})):
        g = _path_graph([(0, 1), (2, 3)], 4)
        graphs.rewire_swap(g, 0, 1, FixedRng([coin]))
        got = {tuple(sorted(e)) for e in g.edges()}
        assert got == expect
        g.check_consistency()


def test_rewire_swap_involution():
    g = _path_graph([(0, 1), (2, 3), (1, 2)], 4)
    before = sorted(tuple(sorted(e)) for e in g.edges())
    graphs.rewire_swap(g, 0, 1, FixedRng([0.2]))
    graphs.rewire_swap(g, 0, 1, FixedRng([0.2]))
    assert sorted(tuple(sorted(e)) for e in g.edges()) == before


def test_rewire_swap_validation(rng):
    g = _path_graph([(0, 1), (2, 3)], 4)
    with pytest.raises(InvalidParameterError):
        graphs.rewire_swap(g, 1, 1, rng)
    with pytest.raises(InvalidParameterError):
        graphs.rewire_swap(g, 0, 5, rng)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 40))
def test_rewire_swap_preserves_degrees(seed, n_swaps):
    rng = np.random.default_rng(seed)
    g = graphs.generate_random_regular(12, 3, rng, policy="allow")
    before = sorted(g.degrees())
    for _ in range(n_swaps):
        e1 = int(rng.integers(g.m))
        e2 = int(rng.integers(g.m - 1))
        if e2 >= e1:
            e2 += 1
        graphs.rewire_swap(g, e1, e2, rng)
    assert sorted(g.degrees()) == before
    g.check_consistency()


def test_count_discordant_basics():
    g = _path_graph([(0, 1), (1, 2), (2, 0)], 3)
    assert graphs.count_discordant(g, [1, 1, 1]) == 0
    assert graphs.count_discordant(g, [1, 0, 0]) == 2
    with pytest.raises(InvalidParameterError):
        graphs.count_discordant(g, [1, 0])


def test_count_discordant_complete_product():
    g = graphs.generate_complete(9)
    for k in range(10):
        ops = [1] * k + [0] * (9 - k)
        assert graphs.count_discordant(g, ops) == k * (9 - k)
    assert g.implicit_complete
    g.inc
    for k in range(10):  # same counts from the built edge lists
        ops = [1] * k + [0] * (9 - k)
        assert graphs.count_discordant(g, ops) == k * (9 - k)


def test_count_discordant_self_loops_and_multi(rng):
    g = graphs.Graph(3)
    g.add_edge(0, 0)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    assert graphs.count_discordant(g, [1, 0, 0]) == 2  # loop never discordant


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_count_discordant_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    g = graphs.generate_erdos_renyi(25, 0.2, rng)
    ops = (rng.random(25) < 0.5).astype(int).tolist()
    assert graphs.count_discordant(g, ops) == brute_discordant(g.edges(), ops)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_edgelist_roundtrip(tmp_path, rng):
    g = graphs.generate_random_regular(10, 3, rng)
    p = tmp_path / "g.edges"
    graphs.write_edgelist(g, p)
    g2 = graphs.read_edgelist(p)
    assert g2.n == g.n
    assert list(g2.edges()) == list(g.edges())
    text1 = graphs.edgelist_text(g)
    assert text1.splitlines()[0] == "# n=10 directed=0"


def test_edgelist_roundtrip_directed(tmp_path, rng):
    g = graphs.generate_directed_configuration([2, 1, 0], [1, 1, 1], rng)
    p = tmp_path / "g.arcs"
    graphs.write_edgelist(g, p)
    g2 = graphs.read_edgelist(p)
    assert isinstance(g2, graphs.DirectedGraph)
    assert list(g2.arcs()) == list(g.arcs())


def test_edgelist_complete_same_text_implicit_or_built(tmp_path):
    g = graphs.generate_complete(6)
    text = graphs.edgelist_text(g)
    graphs.write_edgelist(g, tmp_path / "k6.edges")
    assert g.implicit_complete
    g.eu  # build the lists
    assert graphs.edgelist_text(g) == text
    assert (tmp_path / "k6.edges").read_text() == text
    assert text.splitlines()[1:3] == ["0 1", "0 2"]
    assert len(text.splitlines()) == 1 + 15


def test_edgelist_rejects_headerless(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("0 1\n")
    with pytest.raises(InvalidParameterError):
        graphs.read_edgelist(p)
