"""Graph models: complete, random regular (pairing model), directed
configuration model, Erdos-Renyi, plus degree-preserving edge swaps and
discordant-edge counting.

Conventions used throughout the package:

* Graphs are multigraphs by default: parallel edges are distinct edge ids,
  a self-loop occupies two incidence slots of its vertex (as in the
  half-edge pairing construction), so sum(deg) == 2*M always holds.
* Edge ids are stable: rewiring replaces endpoints in place, so Poisson
  clocks attached to edge ids stay attached through swaps.

Generator costs, for n vertices and m edges out:

* ``generate_complete``: O(n).  K_n stays implicit until something reads
  its edge lists (see :class:`Graph`); building them then costs O(n^2).
* ``generate_random_regular``: O(n*d) per pairing attempt; with
  ``policy="reject"`` the expected number of attempts is about
  exp((d^2 - 1)/4), a constant in n.
* ``generate_directed_configuration``: O(n + m).
* ``generate_erdos_renyi``: O(n + m) time and memory, by geometric skipping
  over the C(n,2) pair indices (Batagelj & Brandes, Phys. Rev. E 71,
  036113, 2005).
* ``generate_gnm``: O(n + m) expected while m is at most a constant
  fraction of C(n,2) (rejection of repeated pairs).

All of them fill the incidence lists in one bulk pass from the endpoint
arrays, with the same content and order as one ``add_edge`` per edge.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Graph",
    "DirectedGraph",
    "generate_complete",
    "generate_random_regular",
    "generate_directed_configuration",
    "generate_erdos_renyi",
    "generate_gnm",
    "rewire_swap",
    "count_discordant",
    "write_edgelist",
    "read_edgelist",
]


class Graph:
    """Mutable undirected multigraph addressed by stable edge ids.

    ``eu[e], ev[e]`` are the endpoints of edge id ``e``; ``inc[v]`` lists the
    edge ids incident to ``v`` (a self-loop id appears twice).  Endpoint
    replacement costs O(deg) for the incidence fix-up and nothing else.

    The K_n that :func:`generate_complete` returns holds no edge lists:
    ``m``, ``edges()`` and ``copy()`` answer from n alone, and the first read
    of ``eu``, ``ev`` or ``inc`` builds the lists in place.  From then on it
    is an ordinary graph that callers may mutate, so ``implicit_complete``
    turns False and stays False.
    """

    __slots__ = ("n", "_eu", "_ev", "_inc", "allows_self_loops",
                 "allows_multi_edges")

    def __init__(self, n, us=(), vs=(), *, allows_self_loops=True,
                 allows_multi_edges=True):
        """Graph on ``range(n)`` whose edge ``e`` joins ``us[e]`` and ``vs[e]``.

        The incidence lists come out as one ``add_edge`` per edge in id
        order would leave them, built in one pass.
        """
        if n < 0:
            raise InvalidParameterError("vertex count must be >= 0")
        self.n = int(n)
        self.allows_self_loops = allows_self_loops
        self.allows_multi_edges = allows_multi_edges
        self._set_edges(np.asarray(us, dtype=np.int64),
                        np.asarray(vs, dtype=np.int64))

    def _set_edges(self, us, vs):
        if len(us) != len(vs):
            raise InvalidParameterError("endpoint arrays differ in length")
        ends = np.empty(2 * len(us), dtype=np.int64)
        ends[0::2] = us
        ends[1::2] = vs
        if len(ends) and not (0 <= ends.min() and ends.max() < self.n):
            raise InvalidParameterError("endpoint out of range")
        if not self.allows_self_loops and np.any(us == vs):
            raise InvalidParameterError("self-loops are disabled on this graph")
        self._eu = us.tolist()
        self._ev = vs.tolist()
        self._inc = _grouped(self.n, ends, np.arange(len(ends)) >> 1)

    @property
    def implicit_complete(self) -> bool:
        """True while this is a K_n whose edge lists were never read."""
        return self._eu is None

    def _lists(self):
        if self._eu is None:
            self._set_edges(*np.triu_indices(self.n, k=1))
        return self._eu, self._ev, self._inc

    @property
    def eu(self) -> list[int]:
        return self._lists()[0]

    @property
    def ev(self) -> list[int]:
        return self._lists()[1]

    @property
    def inc(self) -> list[list[int]]:
        return self._lists()[2]

    @property
    def m(self) -> int:
        if self._eu is None:
            return self.n * (self.n - 1) // 2
        return len(self._eu)

    def add_edge(self, u, v) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"endpoint out of range: ({u}, {v})")
        if u == v and not self.allows_self_loops:
            raise InvalidParameterError("self-loops are disabled on this graph")
        eu, ev, inc = self._lists()
        e = len(eu)
        eu.append(u)
        ev.append(v)
        inc[u].append(e)
        inc[v].append(e)
        return e

    def endpoints(self, e):
        return self.eu[e], self.ev[e]

    def degree(self, v) -> int:
        return len(self.inc[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.inc]

    def edges(self):
        if self._eu is None:
            return itertools.combinations(range(self.n), 2)
        return zip(self._eu, self._ev)

    def copy(self) -> "Graph":
        g = Graph(self.n, allows_self_loops=self.allows_self_loops,
                  allows_multi_edges=self.allows_multi_edges)
        if self._eu is None:
            g._eu = g._ev = g._inc = None
        else:
            g._eu = list(self._eu)
            g._ev = list(self._ev)
            g._inc = [list(a) for a in self._inc]
        return g

    def has_self_loop(self) -> bool:
        return any(u == v for u, v in self.edges())

    def has_multi_edge(self) -> bool:
        seen = set()
        for u, v in self.edges():
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                return True
            seen.add(key)
        return False

    def is_simple(self) -> bool:
        return not self.has_self_loop() and not self.has_multi_edge()

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        eu, ev, inc = self._lists()
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            v = stack.pop()
            for e in inc[v]:
                w = ev[e] if eu[e] == v else eu[e]
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self.n

    def check_consistency(self):
        """Full rebuild check of the incidence structure and flags."""
        inc = self.inc
        if sum(len(a) for a in inc) != 2 * self.m:
            raise AssertionError("handshake violated: sum(deg) != 2M")
        rebuilt = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges()):
            rebuilt[u].append(e)
            rebuilt[v].append(e)
        for v in range(self.n):
            if sorted(rebuilt[v]) != sorted(inc[v]):
                raise AssertionError(f"incidence list of vertex {v} is stale")
        if not self.allows_self_loops and self.has_self_loop():
            raise AssertionError("self-loop present despite flag")
        if not self.allows_multi_edges and self.has_multi_edge():
            raise AssertionError("multi-edge present despite flag")


class DirectedGraph:
    """Directed multigraph; arc ids are stable, arcs point tail -> head."""

    __slots__ = ("n", "tails", "heads", "out_adj", "in_adj")

    def __init__(self, n, tails=(), heads=()):
        """Digraph on ``range(n)`` whose arc ``a`` points from ``tails[a]``
        to ``heads[a]``; the adjacency lists come out as one ``add_arc`` per
        arc in id order would leave them."""
        if n < 0:
            raise InvalidParameterError("vertex count must be >= 0")
        if len(tails) != len(heads):
            raise InvalidParameterError("endpoint arrays differ in length")
        self.n = int(n)
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if len(tails) and not (0 <= min(tails.min(), heads.min())
                               and max(tails.max(), heads.max()) < self.n):
            raise InvalidParameterError("endpoint out of range")
        ids = np.arange(len(tails))
        self.tails: list[int] = tails.tolist()
        self.heads: list[int] = heads.tolist()
        self.out_adj: list[list[int]] = _grouped(self.n, tails, ids)
        self.in_adj: list[list[int]] = _grouped(self.n, heads, ids)

    @property
    def m(self) -> int:
        return len(self.tails)

    def add_arc(self, tail, head) -> int:
        if not (0 <= tail < self.n and 0 <= head < self.n):
            raise InvalidParameterError(f"endpoint out of range: ({tail}, {head})")
        a = len(self.tails)
        self.tails.append(tail)
        self.heads.append(head)
        self.out_adj[tail].append(a)
        self.in_adj[head].append(a)
        return a

    def arcs(self):
        return zip(self.tails, self.heads)

    def out_degrees(self) -> list[int]:
        return [len(a) for a in self.out_adj]

    def in_degrees(self) -> list[int]:
        return [len(a) for a in self.in_adj]

    def copy(self) -> "DirectedGraph":
        g = DirectedGraph(self.n)
        g.tails = list(self.tails)
        g.heads = list(self.heads)
        g.out_adj = [list(a) for a in self.out_adj]
        g.in_adj = [list(a) for a in self.in_adj]
        return g


def _grouped(n, keys, ids) -> list[list[int]]:
    """For each v in range(n), the ``ids[i]`` with ``keys[i] == v`` in
    increasing i: the lists that appending ids[i] to list keys[i] for
    i = 0, 1, ... builds."""
    size = len(keys)
    # keys*size + i are distinct, so any sort orders equal keys by i
    pos = np.sort(keys * size + np.arange(size)) % size
    flat = ids[pos].tolist()
    cuts = [0] + np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [flat[a:b] for a, b in zip(cuts, cuts[1:])]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def generate_complete(n) -> Graph:
    """Simple graph on n >= 2 vertices with all C(n,2) edges, held
    implicitly: the edge lists are built on first read."""
    if n < 2:
        raise InvalidParameterError("complete graph needs n >= 2")
    g = Graph(n, allows_self_loops=False, allows_multi_edges=False)
    g._eu = g._ev = g._inc = None
    return g


def generate_random_regular(n, d, rng, policy="reject") -> Graph:
    """d-regular graph on n vertices via uniform half-edge pairing.

    policy="reject" resamples until the pairing is simple, which yields the
    uniform simple d-regular graph; policy="allow" returns the raw pairing
    multigraph.  Requires n*d even and n > d.
    """
    if d < 1:
        raise InvalidParameterError("degree must be >= 1")
    if n <= d:
        raise InvalidParameterError("need n > d")
    if (n * d) % 2 != 0:
        raise InvalidParameterError("n*d must be even")
    if policy not in ("reject", "allow"):
        raise InvalidParameterError(f"unknown policy {policy!r}")

    owner = np.repeat(np.arange(n), d)
    while True:
        stubs = owner[rng.permutation(n * d)]
        us = stubs[0::2]
        vs = stubs[1::2]
        if policy == "reject":
            if np.any(us == vs):
                continue
            key = np.minimum(us, vs).astype(np.int64) * n + np.maximum(us, vs)
            if len(np.unique(key)) != len(key):
                continue
        return Graph(n, us, vs, allows_self_loops=(policy == "allow"),
                     allows_multi_edges=(policy == "allow"))


def generate_directed_configuration(d_in, d_out, rng) -> DirectedGraph:
    """Directed configuration model: uniform pairing of out-stubs to in-stubs."""
    d_in = list(d_in)
    d_out = list(d_out)
    if len(d_in) != len(d_out):
        raise InvalidParameterError("in/out degree sequences differ in length")
    if any(x < 0 for x in d_in) or any(x < 0 for x in d_out):
        raise InvalidParameterError("degrees must be >= 0")
    if sum(d_in) != sum(d_out):
        raise InvalidParameterError("sum(d_in) must equal sum(d_out)")
    n = len(d_in)
    tails = np.repeat(np.arange(n), d_out)
    heads = np.repeat(np.arange(n), d_in)
    heads = heads[rng.permutation(len(heads))]
    return DirectedGraph(n, tails, heads)


def _bernoulli_indices(total, p, rng) -> np.ndarray:
    """Increasing indices in range(total), each present independently with
    probability p.  The gaps between successive indices are i.i.d.
    Geometric(p), so the cost is O(1 + p*total) rather than O(total).
    Each batch asks for the expected remaining count plus four standard
    deviations; a short batch only means another round of the loop."""
    parts = []
    last = -1
    while True:
        mean = (total - 1 - last) * p
        gaps = rng.geometric(p, int(mean + 4.0 * math.sqrt(mean)) + 1)
        pos = last + np.cumsum(gaps)
        if pos[-1] >= total:
            parts.append(pos[:np.searchsorted(pos, total)])
            return np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])


def generate_erdos_renyi(n, p, rng) -> Graph:
    """Each of the C(n,2) possible edges present independently with prob p.

    Pairs are indexed row-major, (0,1), (0,2), ..., (1,2), ..., so the edges
    come out in that order; p=1 gives every pair.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("edge probability must be in [0,1]")
    if n < 0:
        raise InvalidParameterError("vertex count must be >= 0")
    if n < 2 or p == 0.0:
        return Graph(n, allows_self_loops=False, allows_multi_edges=False)
    idx = _bernoulli_indices(n * (n - 1) // 2, p, rng)
    # row u holds the pairs (u, u+1), ..., (u, n-1) from index start[u] on
    rows = np.arange(n, dtype=np.int64)
    start = rows * (2 * n - rows - 1) // 2
    us = np.searchsorted(start, idx, side="right") - 1
    vs = idx - start[us] + us + 1
    return Graph(n, us, vs, allows_self_loops=False, allows_multi_edges=False)


def generate_gnm(n, m, rng) -> Graph:
    """Uniform simple graph with exactly m edges (G(n,m))."""
    n_pairs = n * (n - 1) // 2
    if not 0 <= m <= n_pairs:
        raise InvalidParameterError(f"edge count must be in [0, {n_pairs}]")
    chosen = {}  # insertion-ordered: edge ids follow the draw order
    while len(chosen) < m:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        chosen[(u, v)] = None
    pairs = np.array(list(chosen), dtype=np.int64).reshape(-1, 2)
    return Graph(n, pairs[:, 0], pairs[:, 1], allows_self_loops=False,
                 allows_multi_edges=False)


# ----------------------------------------------------------------------
# mutation and bookkeeping
# ----------------------------------------------------------------------

def rewire_swap(g: Graph, e1: int, e2: int, rng) -> None:
    """Swap endpoints of two edge slots, degree-preserving.

    Edges {a,b}, {c,d} become one of the crossed matchings {a,c},{b,d} or
    {a,d},{b,c}, each with probability 1/2.  Self-loops and multi-edges may
    be created; degrees never change.
    """
    if e1 == e2:
        raise InvalidParameterError("edge slots must differ")
    m = g.m
    if not (0 <= e1 < m and 0 <= e2 < m):
        raise InvalidParameterError("edge slot out of range")
    # crossed matchings may produce loops/parallel edges; they are kept
    g.allows_self_loops = True
    g.allows_multi_edges = True
    swap_endpoints(g.eu, g.ev, g.inc, e1, e2, rng.random() < 0.5)


def swap_endpoints(eu, ev, inc, e1, e2, first) -> None:
    """The swap behind :func:`rewire_swap`, on the raw lists: the second
    endpoint of ``e1`` trades places with the first endpoint of ``e2`` if
    ``first``, else with its second."""
    b = ev[e1]
    if first:
        x = eu[e2]
        eu[e2] = b
    else:
        x = ev[e2]
        ev[e2] = b
    ev[e1] = x
    inc[b].remove(e1)
    inc[x].append(e1)
    inc[x].remove(e2)
    inc[b].append(e2)


def count_discordant(g, opinions) -> int:
    """Number of edges whose endpoints hold different opinions.

    Parallel edges count once per edge id; self-loops are never discordant.
    Accepts a raw 0/1 sequence or anything with an ``.opinions`` attribute.
    """
    ops = getattr(opinions, "opinions", opinions)
    if len(ops) != g.n:
        raise InvalidParameterError("opinion vector length != vertex count")
    if isinstance(g, DirectedGraph):
        return sum(1 for t, h in g.arcs() if ops[t] != ops[h])
    return sum(1 for u, v in g.edges() if ops[u] != ops[v])


# ----------------------------------------------------------------------
# serialization: one "u v" pair per line under a "# n=<N> directed=<0|1>" header
# ----------------------------------------------------------------------

def edgelist_text(g) -> str:
    directed = isinstance(g, DirectedGraph)
    lines = [f"# n={g.n} directed={1 if directed else 0}"]
    pairs = g.arcs() if directed else g.edges()
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def write_edgelist(g, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(edgelist_text(g))


def parse_edgelist(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n=<N> directed=<0|1>' header")
    fields = dict(tok.split("=") for tok in lines[0][1:].split())
    n = int(fields["n"])
    directed = bool(int(fields.get("directed", "0")))
    pairs = np.array([ln.split() for ln in lines[1:]],
                     dtype=np.int64).reshape(-1, 2)
    if directed:
        return DirectedGraph(n, pairs[:, 0], pairs[:, 1])
    return Graph(n, pairs[:, 0], pairs[:, 1])


def read_edgelist(path):
    with open(path) as fh:
        return parse_edgelist(fh.read())
