"""Graph models: complete, random regular (pairing model), directed
configuration model, Erdos-Renyi, plus discordant-edge counting and edge
list files.

Conventions used throughout the package:

* Graphs are multigraphs: parallel edges are distinct edge ids, a
  self-loop occupies two incidence slots of its vertex (as in the
  half-edge pairing construction), so sum(deg) == 2*M always holds.
  ``Graph.is_simple`` reads off the edges whether a graph has neither.
* A graph is a value that the engines read: each engine edits its own
  copy of the endpoints, and only ``Graph.set_edges`` changes a graph.  A
  graph handed back by ``run_voter_rewiring(mutate_graph=True)`` is
  renumbered.

Generator costs, for n vertices and m edges out:

* ``generate_complete``: O(1).  Reading its edges costs O(n^2).
* ``generate_random_regular``: O(n*d) per pairing attempt; with
  ``policy="reject"`` the expected number of attempts is about
  exp((d^2 - 1)/4), a constant in n.
* ``generate_directed_configuration``: O(n + m).
* ``generate_erdos_renyi``: O(n + m) time and memory, by geometric skipping
  over the C(n,2) pair indices (Batagelj & Brandes, Phys. Rev. E 71,
  036113, 2005).
* ``generate_gnm``: O(n + m) expected while m is at most a constant
  fraction of C(n,2) (rejection of repeated pairs).

Both graph kinds share one base that holds n and two read-only endpoint
arrays (K_n only n), which is all the engines read; every reader of the
edges, here and in the engines, reads ``endpoint_arrays()``.  ``Graph.eu``,
``ev`` and ``inc`` build fresh lists from them on every read; see
:class:`Graph`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (InvalidParameterError, _INT64_MAX, _choice,
                     _opinion_list, _real, _size)

__all__ = [
    "Graph",
    "DirectedGraph",
    "generate_complete",
    "generate_random_regular",
    "generate_directed_configuration",
    "generate_erdos_renyi",
    "generate_gnm",
    "count_discordant",
    "write_edgelist",
]


class _EndpointArrays:
    """n vertices and two read-only endpoint arrays, the edges or arcs in
    id order: all that a graph of either kind holds."""

    __slots__ = ("n", "_ends")

    def __init__(self, n, us=(), vs=()):
        """The graph keeps read-only int64 copies of ``us`` and ``vs``,
        checked to be endpoints of equally many edges within ``range(n)``."""
        self.n = _size(n, "vertex count", 0)
        us, vs = (np.array(x, dtype=np.int64) for x in (us, vs))
        if len(us) != len(vs):
            raise InvalidParameterError("endpoint arrays differ in length")
        if len(us) and not (0 <= min(us.min(), vs.min())
                            and max(us.max(), vs.max()) < self.n):
            raise InvalidParameterError("endpoint out of range")
        us.flags.writeable = vs.flags.writeable = False
        self._ends = us, vs

    def endpoint_arrays(self):
        """``(us, vs)``: the endpoints of every edge or arc, in id order."""
        return self._ends

    @property
    def m(self) -> int:
        return len(self._ends[0])

    def copy(self):
        g = type(self)(self.n)
        g._ends = self._ends  # read-only, so both graphs may hold them
        return g

    def _pairs(self):
        """The ``(u, v)`` of every edge or arc in id order, as ints."""
        us, vs = self.endpoint_arrays()
        return zip(us.tolist(), vs.tolist())


class Graph(_EndpointArrays):
    """Undirected multigraph on ``range(n)`` whose edge ``e`` joins
    ``us[e]`` and ``vs[e]``, held as two read-only endpoint arrays; the K_n
    of :func:`generate_complete` is held as n alone, and
    ``implicit_complete`` is True until :meth:`set_edges` is called.

    ``eu[e], ev[e]`` are the endpoints of edge id ``e`` and ``inc[v]`` lists
    the edge ids at ``v`` in increasing order (a self-loop id twice).  Each
    read builds fresh lists, so editing them leaves the graph as it is;
    only :meth:`set_edges` replaces its edges.
    """

    __slots__ = ()

    @property
    def implicit_complete(self) -> bool:
        """True for the K_n of :func:`generate_complete`, held as n alone."""
        return self._ends is None

    def endpoint_arrays(self):
        if self._ends is None:
            return np.triu_indices(self.n, k=1)
        return self._ends

    @property
    def eu(self) -> list[int]:
        return self.endpoint_arrays()[0].tolist()

    @property
    def ev(self) -> list[int]:
        return self.endpoint_arrays()[1].tolist()

    @property
    def inc(self) -> list[list[int]]:
        ends = np.column_stack(self.endpoint_arrays()).ravel()  # u0, v0, ...
        return _grouped(self.n, ends, np.arange(len(ends)) >> 1)

    @property
    def m(self) -> int:
        n = self.n
        return n * (n - 1) // 2 if self._ends is None else len(self._ends[0])

    def set_edges(self, us, vs) -> None:
        """Make edge ``e`` join ``us[e]`` and ``vs[e]`` for every ``e``, as
        the constructor does."""
        self.__init__(self.n, us, vs)

    def degrees(self) -> list[int]:
        ends = np.concatenate(self.endpoint_arrays())
        return np.bincount(ends, minlength=self.n).tolist()

    edges = _EndpointArrays._pairs

    def has_self_loop(self) -> bool:
        us, vs = self.endpoint_arrays()
        return bool(np.any(us == vs))

    def has_multi_edge(self) -> bool:
        us, vs = self.endpoint_arrays()
        key = np.minimum(us, vs) * self.n + np.maximum(us, vs)
        return len(np.unique(key)) < len(key)

    def is_simple(self) -> bool:
        return not self.has_self_loop() and not self.has_multi_edge()


class DirectedGraph(_EndpointArrays):
    """Directed multigraph on ``range(n)`` whose arc ``a`` points from
    ``tails[a]`` to ``heads[a]``: ``DirectedGraph(n, tails, heads)``."""

    __slots__ = ()

    arcs = _EndpointArrays._pairs


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
    """Simple graph on n >= 2 vertices with all C(n,2) edges, held as n
    alone: its endpoint arrays are built on each read."""
    g = Graph(_size(n, "vertex count", 2))
    g._ends = None
    return g


def generate_random_regular(n, d, rng, policy="reject") -> Graph:
    """d-regular graph on n vertices via uniform half-edge pairing.

    policy="reject" resamples until the pairing is simple, which yields the
    uniform simple d-regular graph; policy="allow" returns the raw pairing
    multigraph.  Requires n*d even and n > d.
    """
    d = _size(d, "degree", 1)
    n = _size(n, "vertex count", d + 1)
    if (n * d) % 2 != 0:
        raise InvalidParameterError("n*d must be even")
    _choice(policy, "policy", ("reject", "allow"))
    _real(n * d, "stub count n*d", hi=_INT64_MAX)

    owner = np.repeat(np.arange(n, dtype=np.int64), d)
    while True:
        # the same array and draws as owner[rng.permutation(n * d)]
        stubs = rng.permutation(owner)
        us = stubs[0::2]
        vs = stubs[1::2]
        if policy == "reject":
            if (us == vs).any():
                continue
            key = np.minimum(us, vs) * n
            key += np.maximum(us, vs)
            key.sort()
            if (key[1:] == key[:-1]).any():
                continue
        return Graph(n, us, vs)


def generate_directed_configuration(d_in, d_out, rng) -> DirectedGraph:
    """Directed configuration model: uniform pairing of out-stubs to in-stubs."""
    if not (np.iterable(d_in) and np.iterable(d_out)):
        raise InvalidParameterError("degree sequences must be sequences")
    d_in, d_out = (np.asarray(list(d)) for d in (d_in, d_out))
    if len(d_in) != len(d_out):
        raise InvalidParameterError("in/out degree sequences differ in length")
    if d_in.dtype.kind not in "iu" or d_out.dtype.kind not in "iu":
        d_in, d_out = ([_size(x, "degree", 0, _INT64_MAX) for x in d]
                       for d in (d_in, d_out))
        d_in, d_out = (np.array(d, dtype=np.int64) for d in (d_in, d_out))
    if np.any(d_in < 0) or np.any(d_out < 0):
        raise InvalidParameterError("degrees must be >= 0")
    n = len(d_in)
    # int64 sums can wrap only if some degree exceeds 2**63 / n
    if n and max(d_in.max(), d_out.max()) > _INT64_MAX // n and max(
            sum(d_in.tolist()), sum(d_out.tolist())) > _INT64_MAX:
        raise InvalidParameterError("degrees must sum to below 2**63")
    if d_in.sum() != d_out.sum():
        raise InvalidParameterError("sum(d_in) must equal sum(d_out)")
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
    _real(p, "edge probability", 0, 1)
    n = _size(n, "vertex count", 0)
    if n < 2 or p == 0.0:
        return Graph(n)
    total = n * (n - 1) // 2
    _real(total, "pair count C(n,2) for p > 0", hi=_INT64_MAX)  # int64 ids
    idx = _bernoulli_indices(total, p, rng)
    # row u holds the pairs (u, u+1), ..., (u, n-1) from index start[u] on
    rows = np.arange(n, dtype=np.int64)
    start = rows * (2 * n - rows - 1) // 2
    us = np.searchsorted(start, idx, side="right") - 1
    vs = idx - start[us] + us + 1
    return Graph(n, us, vs)


def generate_gnm(n, m, rng) -> Graph:
    """Uniform simple graph with exactly m edges (G(n,m))."""
    n = _size(n, "vertex count", 0)
    m = _size(m, "edge count", 0, n * (n - 1) // 2)
    if m:  # vertex ids and edge counts are int64
        _real(max(n - 1, m), "largest vertex id or edge count", hi=_INT64_MAX)
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
    return Graph(n, pairs[:, 0], pairs[:, 1])


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------

def count_discordant(g, opinions) -> int:
    """Number of edges whose endpoints hold different opinions.

    Parallel edges count once per edge id; self-loops are never discordant.
    Takes n opinions, each 0 or 1, or anything with such ``.opinions``;
    anything else raises InvalidParameterError, as in the engines.
    """
    ops = np.array(_opinion_list(getattr(opinions, "opinions", opinions),
                                 g.n), dtype=np.int8)
    us, vs = g.endpoint_arrays()
    return int(np.count_nonzero(ops[us] != ops[vs]))


# ----------------------------------------------------------------------
# serialization: one "u v" pair per line under a "# n=<N> directed=<0|1>" header
# ----------------------------------------------------------------------

def edgelist_text(g) -> str:
    lines = [f"# n={g.n} directed={int(isinstance(g, DirectedGraph))}"]
    lines.extend(f"{u} {v}" for u, v in g._pairs())
    return "\n".join(lines) + "\n"


def write_edgelist(g, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(edgelist_text(g))


def parse_edgelist(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n=<N> directed=<0|1>' header")
    try:
        fields = dict(tok.split("=") for tok in lines[0][1:].split())
        n = int(fields["n"])
        directed = bool(int(fields.get("directed", "0")))
        rows = [ln.split() for ln in lines[1:]]
        # two ids on every line, or the reshape fails
        pairs = np.array(rows, dtype=np.int64).reshape(len(rows), 2)
    except (KeyError, ValueError) as exc:
        raise InvalidParameterError(f"malformed edge list: {exc!r}") from None
    if directed:
        return DirectedGraph(n, pairs[:, 0], pairs[:, 1])
    return Graph(n, pairs[:, 0], pairs[:, 1])
