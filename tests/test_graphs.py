import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discordlab import graphs
from discordlab.errors import InvalidParameterError

from _oracles import (brute_discordant, directed_lists, is_connected,
                      rewire_swap)


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
    assert g5.is_simple()


def test_complete_rejects_small():
    with pytest.raises(InvalidParameterError):
        graphs.generate_complete(1)


# each leaked a TypeError from comparing a string with a number
@pytest.mark.parametrize("call", [
    lambda rng: graphs.generate_erdos_renyi(10, "x", rng),
    lambda rng: graphs.generate_random_regular(10, "x", rng),
    lambda rng: graphs.generate_random_regular("x", 3, rng),
], ids=["er-p", "rrg-d", "rrg-n"])
def test_non_numeric_parameter_is_refused(rng, call):
    with pytest.raises(InvalidParameterError):
        call(rng)


# each leaked a ValueError, TypeError or OverflowError; G(n,m) refused a
# NaN or infinite n as "edge count must be in [0, nan]", leaked a
# TypeError for "6", and drew 5 edges for an edge count of 4.5
@pytest.mark.parametrize("bad", [math.nan, math.inf, 4.5, "6"])
def test_size_that_is_no_integer_is_refused(rng, bad):
    with pytest.raises(InvalidParameterError):
        graphs.generate_complete(bad)
    with pytest.raises(InvalidParameterError):
        graphs.generate_erdos_renyi(bad, 0.5, rng)
    with pytest.raises(InvalidParameterError):
        graphs.generate_directed_configuration([bad, 1], [bad, 1], rng)
    with pytest.raises(InvalidParameterError,
                       match="vertex count must be an integer"):
        graphs.generate_gnm(bad, 5, rng)
    with pytest.raises(InvalidParameterError,
                       match="edge count must be an integer"):
        graphs.generate_gnm(10, bad, rng)


# each leaked ValueError: "Maximum allowed size exceeded" or, where int64
# sums of degrees wrapped, "negative dimensions are not allowed"
def test_sizes_past_int64_are_refused(rng):
    with pytest.raises(InvalidParameterError):
        graphs.generate_random_regular(2**70, 2, rng)
    for d in ([2**62] * 2, np.array([2**62] * 2)):
        with pytest.raises(InvalidParameterError):
            graphs.generate_directed_configuration(d, d, rng)
    # with p = 0 no pair index is drawn, so any n gives the empty graph
    assert graphs.generate_erdos_renyi(2**40, 0.0, rng).m == 0


def test_integral_sizes_of_any_type_are_taken(rng):
    assert graphs.generate_complete(np.int64(5)).m == 10
    assert graphs.generate_complete(5.0).n == 5
    a = graphs.generate_erdos_renyi(np.int32(30), 0.2,
                                    np.random.default_rng(1))
    b = graphs.generate_erdos_renyi(30, 0.2, np.random.default_rng(1))
    assert np.array_equal(a.endpoint_arrays(), b.endpoint_arrays())
    for d in ([2, 1, 1], np.array([2, 1, 1], dtype=np.uint8), [2.0, 1, 1]):
        g = graphs.generate_directed_configuration(d, d,
                                                   np.random.default_rng(2))
        assert g.n == 3 and g.m == 4


def test_random_regular_counts(rng):
    g = graphs.generate_random_regular(8, 3, rng)
    assert g.m == 12
    assert g.degrees() == [3] * 8
    assert g.is_simple()


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
        if not is_connected(g):
            bad += 1
    assert bad <= 1


def _random_regular_by_unique(n, d, rng):
    """The simple rrg with the rejection check written with np.unique, as
    generate_random_regular had it: the reference for its sort check."""
    owner = np.repeat(np.arange(n), d)
    while True:
        stubs = owner[rng.permutation(n * d)]
        us, vs = stubs[0::2], stubs[1::2]
        if np.any(us == vs):
            continue
        key = np.minimum(us, vs).astype(np.int64) * n + np.maximum(us, vs)
        if len(np.unique(key)) != len(key):
            continue
        return graphs.Graph(n, us, vs)


@pytest.mark.parametrize("n,d", [(8, 3), (20, 4), (50, 3), (101, 4),
                                 (1000, 3)])
def test_random_regular_sort_check_keeps_the_graphs(n, d):
    for seed in range(40):
        g = graphs.generate_random_regular(n, d, np.random.default_rng(seed))
        ref = _random_regular_by_unique(n, d, np.random.default_rng(seed))
        assert (g.eu, g.ev, g.inc) == (ref.eu, ref.ev, ref.inc)


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
    tails, heads = g.endpoint_arrays()
    assert np.bincount(heads).tolist() == [2, 2, 2, 2]
    assert np.bincount(tails).tolist() == [2, 2, 2, 2]  # Eulerian: in == out


def test_directed_configuration_forced_cases(rng):
    g = graphs.generate_directed_configuration([1], [1], rng)
    assert list(g.arcs()) == [(0, 0)]
    g2 = graphs.generate_directed_configuration([0, 2], [1, 1], rng)
    assert sorted(g2.arcs()) == [(0, 1), (1, 1)]
    assert np.bincount(g2.endpoint_arrays()[1], minlength=2).tolist() == [0, 2]


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
    assert g.is_simple()


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
    inc = [[] for _ in range(15)]  # one edge at a time, in id order
    for e, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        inc[u].append(e)
        inc[v].append(e)
    assert (bulk.eu, bulk.ev, bulk.inc) == (us.tolist(), vs.tolist(), inc)
    d = graphs.DirectedGraph(15, us, vs)
    assert directed_lists(d) == tuple(
        [np.flatnonzero(ends == v).tolist() for v in range(15)]
        for ends in (us, vs))
    with pytest.raises(InvalidParameterError):
        graphs.Graph(3, [0, 3], [1, 1])
    with pytest.raises(InvalidParameterError):
        graphs.DirectedGraph(3, [0], [-1])


@pytest.mark.parametrize("cls", [graphs.Graph, graphs.DirectedGraph])
@pytest.mark.parametrize("n", [2.5, "3", math.nan, math.inf],
                         ids=["fraction", "string", "nan", "inf"])
def test_constructor_size_that_is_no_integer_is_refused(cls, n):
    # 2.5 made a graph on 2 vertices; "3" leaked a TypeError, NaN a
    # ValueError and inf an OverflowError
    with pytest.raises(InvalidParameterError,
                       match="vertex count must be an integer"):
        cls(n, [0], [1])
    assert cls(np.int64(3), [0], [1]).n == 3


def test_directed_lists_are_built_on_first_read(rng):
    # a DirectedGraph holds only its endpoint arrays; the adjacency lists
    # of the reference directed engine come from directed_lists
    for _ in range(20):
        n = int(rng.integers(1, 16))
        m = int(rng.integers(0, 60))
        tails, heads = rng.integers(0, n, m), rng.integers(0, n, m)
        g = graphs.DirectedGraph(n, tails, heads)
        twin = g.copy()
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
        for a, (t, h) in enumerate(zip(tails.tolist(), heads.tolist())):
            out_adj[t].append(a)
            in_adj[h].append(a)
        assert directed_lists(g) == directed_lists(twin) == (out_adj, in_adj)
        assert g.m == twin.m == m
        assert list(g.arcs()) == list(twin.arcs()) == list(zip(
            tails.tolist(), heads.tolist()))
        for a, b in zip(g.endpoint_arrays(), (tails, heads)):
            assert np.array_equal(a, b) and not a.flags.writeable


def test_gnm_exact_count(rng):
    g = graphs.generate_gnm(30, 60, rng)
    assert g.m == 60
    assert g.is_simple()


# ----------------------------------------------------------------------
# rewiring and discordance
# ----------------------------------------------------------------------

def _path_graph(pairs, n):
    us, vs = zip(*pairs)
    return graphs.Graph(n, us, vs)


def test_rewire_swap_enumerates_both_matchings():
    for coin, expect in ((0.1, {(0, 2), (1, 3)}), (0.9, {(0, 3), (1, 2)})):
        g = _path_graph([(0, 1), (2, 3)], 4)
        rewire_swap(g, 0, 1, FixedRng([coin]))
        got = {tuple(sorted(e)) for e in g.edges()}
        assert got == expect


def test_rewire_swap_involution():
    g = _path_graph([(0, 1), (2, 3), (1, 2)], 4)
    before = sorted(tuple(sorted(e)) for e in g.edges())
    rewire_swap(g, 0, 1, FixedRng([0.2]))
    rewire_swap(g, 0, 1, FixedRng([0.2]))
    assert sorted(tuple(sorted(e)) for e in g.edges()) == before


def test_rewire_swap_validation(rng):
    g = _path_graph([(0, 1), (2, 3)], 4)
    with pytest.raises(InvalidParameterError):
        rewire_swap(g, 1, 1, rng)
    with pytest.raises(InvalidParameterError):
        rewire_swap(g, 0, 5, rng)


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
        rewire_swap(g, e1, e2, rng)
    assert sorted(g.degrees()) == before


def test_count_discordant_basics():
    g = _path_graph([(0, 1), (1, 2), (2, 0)], 3)
    assert graphs.count_discordant(g, [1, 1, 1]) == 0
    assert graphs.count_discordant(g, [1, 0, 0]) == 2
    with pytest.raises(InvalidParameterError):
        graphs.count_discordant(g, [1, 0])


# count_discordant counted such vectors (0 and 9 on this graph), where
# every engine refuses them
@pytest.mark.parametrize("ops", [[0.5] * 10, ["x", "y"] * 5, [0, 2] * 5],
                         ids=["halves", "strings", "two"])
def test_count_discordant_refuses_opinions_other_than_0_or_1(ops):
    g = graphs.generate_random_regular(10, 3, np.random.default_rng(5))
    with pytest.raises(InvalidParameterError, match="each 0 or 1"):
        graphs.count_discordant(g, ops)


def test_count_discordant_complete_product():
    g = graphs.generate_complete(9)
    for k in range(10):
        ops = [1] * k + [0] * (9 - k)
        assert graphs.count_discordant(g, ops) == k * (9 - k)
    assert g.implicit_complete
    explicit = graphs.Graph(9, *g.endpoint_arrays())
    for k in range(10):  # same counts from the explicit endpoint arrays
        ops = [1] * k + [0] * (9 - k)
        assert graphs.count_discordant(explicit, ops) == k * (9 - k)


def test_count_discordant_self_loops_and_multi(rng):
    g = graphs.Graph(3, [0, 0, 0], [0, 1, 1])
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
    g2 = graphs.parse_edgelist(p.read_text())
    assert g2.n == g.n
    assert list(g2.edges()) == list(g.edges())
    text1 = graphs.edgelist_text(g)
    assert text1.splitlines()[0] == "# n=10 directed=0"


def test_edgelist_roundtrip_directed(tmp_path, rng):
    g = graphs.generate_directed_configuration([2, 1, 0], [1, 1, 1], rng)
    p = tmp_path / "g.arcs"
    graphs.write_edgelist(g, p)
    g2 = graphs.parse_edgelist(p.read_text())
    assert isinstance(g2, graphs.DirectedGraph)
    assert list(g2.arcs()) == list(g.arcs())


def test_edgelist_complete_same_text_implicit_or_built(tmp_path):
    g = graphs.generate_complete(6)
    text = graphs.edgelist_text(g)
    graphs.write_edgelist(g, tmp_path / "k6.edges")
    assert g.implicit_complete
    g.set_edges(*g.endpoint_arrays())  # the same edges, held explicitly
    assert not g.implicit_complete
    assert graphs.edgelist_text(g) == text
    assert (tmp_path / "k6.edges").read_text() == text
    assert text.splitlines()[1:3] == ["0 1", "0 2"]
    assert len(text.splitlines()) == 1 + 15


def test_edgelist_rejects_headerless(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("0 1\n")
    with pytest.raises(InvalidParameterError):
        graphs.parse_edgelist(p.read_text())


@pytest.mark.parametrize("text", [
    "# n=abc directed=0\n0 1\n",     # vertex count not an integer
    "# nodes 5\n0 1\n",              # header field without '='
    "# directed=0\n0 1\n",           # no vertex count
    "# n=3 directed=0\n0 1 2\n",     # three ids on an edge line
    "# n=3 directed=0\n1\n",         # a lone id
    "# n=6 directed=0\n0 1 2\n3 4 5\n",  # six ids that would pair up
    "# n=3 directed=0\n0 x\n",       # not an integer id
], ids=["n_abc", "no_equals", "no_n", "three_ids", "lone_id", "six_ids",
        "not_an_int"])
def test_parse_edgelist_rejects_malformed_text(text):
    with pytest.raises(InvalidParameterError):
        graphs.parse_edgelist(text)


# ----------------------------------------------------------------------
# edge lists: built fresh from the endpoint arrays on every read
# ----------------------------------------------------------------------

def _parsed(seed):
    rng = np.random.default_rng(seed)
    g = graphs.generate_random_regular(12, 3, rng, policy="allow")
    return graphs.parse_edgelist(graphs.edgelist_text(g))


_LAZY_BUILDS = {
    "rrg_reject": lambda s: graphs.generate_random_regular(
        30, 3, np.random.default_rng(s)),
    "rrg_allow": lambda s: graphs.generate_random_regular(
        20, 4, np.random.default_rng(s), policy="allow"),
    "er": lambda s: graphs.generate_erdos_renyi(
        40, 0.1, np.random.default_rng(s)),
    "er_p1": lambda s: graphs.generate_erdos_renyi(
        6, 1.0, np.random.default_rng(s)),
    "er_n1": lambda s: graphs.generate_erdos_renyi(
        1, 0.5, np.random.default_rng(s)),
    "gnm": lambda s: graphs.generate_gnm(20, 30, np.random.default_rng(s)),
    "parsed": _parsed,
    "complete": lambda s: graphs.generate_complete(7),
}


def _lists(g):
    return g.eu, g.ev, g.inc


def _no_list_build(monkeypatch):
    def boom(*args):
        raise AssertionError("edge lists were built")
    monkeypatch.setattr(graphs, "_grouped", boom)


@pytest.mark.parametrize("name", sorted(_LAZY_BUILDS))
def test_unread_graph_answers_like_a_read_one(name, monkeypatch):
    build = _LAZY_BUILDS[name]
    read = build(3)
    _lists(read)
    ops = (np.arange(read.n) % 3 == 0).astype(int).tolist()

    with monkeypatch.context() as mp:  # none of these build the lists
        _no_list_build(mp)
        assert build(3).m == read.m
        assert list(build(3).edges()) == list(read.edges())
        assert graphs.count_discordant(build(3), ops) == \
            graphs.count_discordant(read, ops)
        assert graphs.edgelist_text(build(3)) == graphs.edgelist_text(read)
        us, vs = build(3).endpoint_arrays()
        assert (us.tolist(), vs.tolist()) == (read.eu, read.ev)
        unread_copy = build(3).copy()

    assert _lists(build(3)) == _lists(read)
    assert _lists(unread_copy) == _lists(read)
    assert build(3).degrees() == read.degrees()
    # every build but the two pairing multigraphs promises a simple graph
    assert build(3).is_simple() or name in ("rrg_allow", "parsed")
    if read.n >= 2:
        g, ref = build(3), read.copy()
        for h in (g, ref):
            h.set_edges(h.eu + [0], h.ev + [1])
        assert _lists(g) == _lists(ref)
        assert g.m == read.m + 1 and g.inc[0][-1] == read.m
    if read.m >= 2:
        g, ref = build(3), read.copy()
        rewire_swap(g, 0, read.m - 1, np.random.default_rng(5))
        rewire_swap(ref, 0, read.m - 1, np.random.default_rng(5))
        assert _lists(g) == _lists(ref)


@pytest.mark.parametrize("name", sorted(_LAZY_BUILDS))
def test_editing_read_lists_leaves_the_graph(name):
    # each read builds fresh lists: only set_edges changes a graph
    g = _LAZY_BUILDS[name](3)
    before = [a.copy() for a in g.endpoint_arrays()]
    lists = _lists(g)
    eu, ev, inc = _lists(g)
    eu.append(0)
    ev.append(0)
    inc[0] += [g.m, g.m]
    if g.m:
        eu[0] = ev[0]
    assert all(np.array_equal(a, b)
               for a, b in zip(before, g.endpoint_arrays()))
    assert _lists(g) == lists and g.m == len(before[0])


def _eager_lists(n, us, vs):
    """The lists as the eager constructor filled them: ``_grouped`` on the
    interleaved endpoints at construction."""
    size = 2 * len(us)
    ends = np.empty(size, dtype=np.int64)
    ends[0::2] = us
    ends[1::2] = vs
    pos = np.sort(ends * size + np.arange(size)) % size
    flat = (np.arange(size) >> 1)[pos].tolist()
    cuts = [0] + np.cumsum(np.bincount(ends, minlength=n)).tolist()
    inc = [flat[a:b] for a, b in zip(cuts, cuts[1:])]
    return list(map(int, us)), list(map(int, vs)), inc


@pytest.mark.parametrize("name", ["rrg_reject", "rrg_allow", "er", "gnm",
                                  "parsed"])
def test_lazy_lists_equal_the_eager_fill(name):
    build = _LAZY_BUILDS[name]
    for seed in range(40):
        us, vs = build(seed).endpoint_arrays()
        g = build(seed)
        assert _lists(g) == _eager_lists(g.n, us, vs)


def test_graph_owns_its_endpoint_arrays():
    us = np.array([0, 1, 2], dtype=np.int64)
    vs = np.array([1, 2, 3], dtype=np.int64)
    g = graphs.Graph(4, us, vs)
    us[0] = 3
    vs[:] = 0
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):  # the stored arrays are read-only
        g.endpoint_arrays()[0][0] = 2
    assert (g.eu, g.ev) == ([0, 1, 2], [1, 2, 3])
