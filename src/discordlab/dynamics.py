"""Exact voter dynamics on a static, rewired or directed graph.

Every run follows the literal clock (uniformization, Jensen 1953) on the
copying slots of its graph: the 2m edge stubs of an undirected graph,
perfectly matched (Bollobas 1980), whose degrees swaps never change, or the
m arcs of a directed one, each at the vertex that copies through it.
Proposals, drawn in numpy blocks, come at the constant rate
n + nu' m^2/2, nu' being the swap rate of one pair of edges (0 on a static
or directed graph): a uniform vertex copies through a uniform own slot, or
two uniform stubs s, t rematch {s,s'}, {t,t'} into {s,t}, {s',t'} (a null
when t is s or s').  A gap between sample times holds Poisson many
proposals, an event in it is placed by a Beta draw, and with no horizon the
K-th proposal comes at a Gamma(K) time.  An adoption that changes no
opinion is not an event.  A block reaches the Python loop as lists read
through shared tables of vertex and slot ids, so it makes no int of its
own.

On the K_n of ``generate_complete``, held as n alone, the heart count runs
as a birth-death chain instead, its jumps also drawn from ``rng`` in numpy
blocks.

Observables are recorded by carrying the state to each scheduled time
(piecewise constant between events).  Runs are deterministic given
(graph, seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, SimulationTimeout, _INT64_MAX,
                     _cap, _opinion_list, _real, _size, _times)
from .graphs import DirectedGraph, Graph, _grouped, count_discordant

__all__ = [
    "OpinionState",
    "Trajectory",
    "DEFAULT_MAX_EVENTS",
    "init_opinions_iid",
    "run_voter",
    "run_voter_directed",
    "run_voter_rewiring",
    "consensus_time",
]


DEFAULT_MAX_EVENTS = 10**9


@dataclass
class OpinionState:
    """Opinion vector (1 a heart, 0 a diamond) and its heart count."""

    opinions: list[int]

    @property
    def n(self) -> int:
        return len(self.opinions)

    @property
    def heart_count(self) -> int:
        return sum(self.opinions)


@dataclass
class Trajectory:
    """Sampled (heart fraction, discordant fraction) path.

    ``consensus_time`` is the absorption time if it was reached, else None;
    after it the discordant fraction is identically zero.
    """

    times: np.ndarray
    heart_frac: np.ndarray
    discordant_frac: np.ndarray
    consensus_time: float | None = None
    consensus_value: int | None = None
    n_events: int = 0


def init_opinions_iid(n, u, rng) -> OpinionState:
    """i.i.d. Bernoulli(u) hearts."""
    _real(u, "u", 0, 1)
    n = _size(n, "vertex count", 1, _INT64_MAX)
    return OpinionState((rng.random(n) < u).astype(np.int8).tolist())


class _Samples:
    """The (heart, discordant) fractions of a run carried to each schedule
    time.  ``next`` is the first time not yet recorded, inf once all are."""

    __slots__ = ("sched", "si", "next", "t", "h", "d")

    def __init__(self, schedule, horizon):
        self.sched = _times(schedule, horizon) + [math.inf]
        self.si = 0
        self.next = self.sched[0]
        self.t, self.h, self.d = [], [], []

    def record(self, limit, h, d):
        """Record (h, d) at every schedule time before ``limit``."""
        sched, si = self.sched, self.si
        while sched[si] < limit:
            self.t.append(sched[si])
            self.h.append(h)
            self.d.append(d)
            si += 1
        self.si = si
        self.next = sched[si]

    def traj(self, cons_t, cons_v, events) -> Trajectory:
        return _mk_traj(self.t, self.h, self.d, cons_t, cons_v, events)


# ----------------------------------------------------------------------
# the literal clock on copying slots: the stubs of an undirected graph,
# perfectly matched, or the arcs of a directed one
# ----------------------------------------------------------------------

# proposals drawn per numpy block: the first block, doubled up to the last
_FIRST_BLOCK, _MAX_BLOCK = 256, 1 << 14


def _literal_engine(g, state: OpinionState, nu, horizon, schedule, rng,
                    max_events, check, mutate_graph, adopt_from=None):
    """Every voter run off an implicit K_n: on an undirected graph, or on a
    :class:`DirectedGraph` when ``adopt_from`` is given.  Through slot
    ``s`` vertex ``owner_a[s]`` copies ``src_a[s]``; the slots are sorted
    by owner, and slot ``slots`` is a null (vertex 0 copying itself).

    Every list the loop reads is a take through one of two object arrays
    built once per run, the vertex ids and the slot ids, so it makes no int
    of its own: without swaps the vertices that copy and those they copy,
    with swaps the stubs ``S`` and ``T``, their owners and ``partner``."""
    max_events = _cap(max_events)
    n, m = g.n, g.m
    us, vs, deg = _copy_arcs(g, adopt_from)
    if nu > 0 and m < 2:
        raise InvalidParameterError("rewiring needs at least two edges")
    # sorted by owner, so that owner, off and deg never change under swaps
    order = np.argsort(us, kind="stable")
    owner_a, src_a = us[order], vs[order]
    ops = _opinion_list(state.opinions, n)
    samples = _Samples(schedule, horizon)
    slots = len(owner_a)
    per_edge = slots // m  # two stubs to an edge, one slot to an arc
    verts = np.arange(n, dtype=object)
    if nu > 0:
        # with swaps the matching changes: the stub at position i starts
        # matched to stub order[i] ^ 1, at position rank[order[i] ^ 1];
        # slot id -1 comes last, so that index -1 reads it
        rank = np.empty_like(order)
        rank[order] = np.arange(slots)
        sids = np.append(np.arange(slots + 1), -1).astype(object)
        owner = verts[owner_a].tolist() + [0]
        partner = sids[np.append(rank[order ^ 1], slots)].tolist()
    else:
        partner = None
        # the vertex that copies and the one copied through each slot
        copying = verts[np.append(owner_a, 0)]
        copied = verts[np.append(src_a, 0)]
    csr = None if deg.min() == deg.max() else (np.cumsum(deg) - deg, deg)
    pair_rate = nu / (2.0 * m)
    # a swap proposal is a null one time in m, so each pair of edges swaps
    # at pair_rate
    total = n + pair_rate * m * m / 2.0
    heart = sum(ops)

    # bound as defaults, so that the loop below reads ops, partner and n
    # as plain locals and not as cells of this closure
    def recount(verify, ops=ops, partner=partner, n=n):
        """Discordant edges now; with ``verify``, held to
        :func:`count_discordant`."""
        if partner is None:
            return _recount(ops, owner_a, src_a, per_edge,
                            g if verify else None)
        p = np.array(partner[:slots])
        return _recount(ops, owner_a, owner_a[p], 2,
                        _matching_graph(n, owner_a, p) if verify else None)

    classes = None
    if horizon is None:
        # classes that copy from no vertex outside them: without swaps the
        # closed classes of the copy graph (the components of an undirected
        # one), with them each isolated vertex and all the rest
        if nu == 0:
            cls = _closed_classes(n, owner_a, src_a)
        else:
            iso = deg == 0
            cls = (np.cumsum(iso) * iso).tolist() if iso.any() else None
        classes = None if cls is None else _Classes(cls, ops)

    S = T = cum = end = None
    # block size, next proposal in it, swap proposals in earlier blocks,
    # flips before it
    B = pos = swept = flips0 = flips = nulls = events = 0
    t0 = t_end = 0.0
    stops = samples.sched[:-1] + [math.inf if horizon is None else horizon]
    for stop in stops:
        if samples.next < stop:
            samples.record(stop, heart / n, recount(check) / m)
        gap = max(stop - t0, 0.0)
        # numpy's Poisson mean stops near 9.2e18; no run plays that many
        mu = total * gap
        K = rng.poisson(mu) if mu < 1e18 else math.inf
        j = 0  # proposals of this gap played
        while True:
            if heart == 0 or heart == n:
                end = "consensus"
            elif classes is not None and classes.split():
                end = "unreachable"
            elif nu == 0 and (events >= max_events or pos == B == _MAX_BLOCK
                              and flips == flips0) and not recount(False):
                # at the cap, or after a whole block of the largest size
                # flipped nothing: with no discordant slot left, it is final
                end = "frozen"
            elif events >= max_events:
                end = "cap"
            if end is not None or j >= K:
                break
            if pos == B:
                flips0 = flips
                swept += int(cum[-1]) if cum is not None else 0
                B = min(2 * B, _MAX_BLOCK) if B else _FIRST_BLOCK
                S, T, cum = _proposals(rng, B, n / total, n, slots, csr,
                                       partner is not None)
                if partner is None:
                    S, T = copying[S].tolist(), copied[S].tolist()
                else:
                    S, T = sids[S].tolist(), sids[T].tolist()
                pos = 0
            c = int(min(K - j, B - pos, max_events - events))
            si = iter(S[pos:pos + c])
            if partner is None:
                # vertex v copies vertex w
                for v, w in zip(si, T[pos:pos + c]):
                    x = ops[w]
                    if ops[v] != x:
                        ops[v] = x
                        flips += 1
                        heart += 1 if x else -1
                        if (heart == 0 or heart == n
                                or classes is not None and classes.flip(v, x)):
                            break
            else:
                # an adoption through stub s (t < 0), or the swap of stubs s, t
                for s, t in zip(si, T[pos:pos + c]):
                    if t < 0:
                        x = ops[owner[partner[s]]]
                        v = owner[s]
                        if ops[v] != x:
                            ops[v] = x
                            flips += 1
                            heart += 1 if x else -1
                            if (heart == 0 or heart == n or classes is not None
                                    and classes.flip(v, x)):
                                break
                    else:
                        s2 = partner[s]
                        if t == s or t == s2:
                            nulls += 1
                            continue
                        t2 = partner[t]
                        partner[s] = t
                        partner[t] = s
                        partner[s2] = t2
                        partner[t2] = s2
            played = c - si.__length_hint__()  # proposals the loop took
            pos += played
            j += played
            events = flips if cum is None else \
                flips - nulls + swept + int(cum[pos - 1])
        if end is not None:
            # the time of the j-th of the K proposals of this gap
            if j:
                t_end = t0 + (rng.gamma(j, 1.0 / total) if K == math.inf
                              else gap * rng.beta(j, K - j + 1))
            break
        t0 = stop
    cons = end == "consensus"
    if end in (None, "consensus", "frozen") and samples.next < math.inf:
        # consensus leaves no discordant edge
        d = 0 if cons and not check else recount(check)
        samples.record(math.inf, heart / n, d / m)
    if mutate_graph:
        g.set_edges(*_matched_edges(owner_a, np.array(partner[:slots])))
    if classes is not None:
        _check_classes(classes, samples, t_end, events)
    if end == "cap":
        raise SimulationTimeout(
            f"event cap {max_events} reached at t={t_end:.6g}",
            partial=samples.traj(None, None, events))
    return samples.traj(t_end if cons else None, ops[0] if cons else None,
                        events)


def _proposals(rng, size, pa, n, slots, csr, swaps):
    """``size`` proposals as int64 arrays: the slots ``S`` and, with
    ``swaps``, ``T`` and the running count of swaps (else ``None, None``).
    With probability ``pa`` an adoption through a uniform slot ``S`` of a
    uniform vertex (``T = -1``), through the null slot ``slots`` at a
    vertex with none; else a swap of the uniform stubs ``S`` and ``T``."""
    u, y = rng.random((2, size))
    # the adoption slot of every proposal, kept where u < pa (every one
    # without swaps, where pa == 1)
    if csr is None:
        a = (y * slots).astype(np.int64)
    else:
        off, deg = csr
        v = np.minimum((u * (n / pa)).astype(np.int64), n - 1)
        d = deg[v]
        a = np.where(d > 0, off[v] + (y * d).astype(np.int64), slots)
    if not swaps:
        return a, None, None
    adopt = u < pa
    # rounding in pa can carry this product to its upper bound; a pa that
    # rounds to 1 makes every proposal an adoption
    s = np.where(adopt, a, np.minimum(
        ((u - pa) * (slots / (1.0 - pa))).astype(np.int64), slots - 1)
        if pa < 1.0 else 0)
    # the stub T of a swap is y * slots, as ``a`` is on a regular graph
    t = a if csr is None else (y * slots).astype(np.int64)
    t[adopt] = -1
    return s, t, np.cumsum(t >= 0)


def _matched_edges(owner, partner):
    """Endpoint arrays of the edges of a stub matching."""
    first = np.flatnonzero(partner > np.arange(len(partner)))
    return owner[first], owner[partner[first]]


def _matching_graph(n, owner, partner) -> Graph:
    """The graph of the stub matching ``partner`` (an array), asserting
    that it is one."""
    i = np.arange(len(partner))
    if np.any(partner == i) or np.any(partner[partner] != i):
        raise AssertionError("stubs are not a perfect matching")
    return Graph(n, *_matched_edges(owner, partner))


def _recount(ops, owner, src, per_edge, graph=None) -> int:
    """Discordant edges: the slots ``s`` whose vertices ``owner[s]`` and
    ``src[s]`` (arrays) disagree, over the ``per_edge`` slots of an edge.
    With ``graph``, also assert that :func:`count_discordant` agrees."""
    o = np.array(ops, dtype=np.int8)
    d = int(np.count_nonzero(o[owner] != o[src])) // per_edge
    if graph is not None and d != count_discordant(graph, ops):
        raise AssertionError("discordance recount diverged")
    return d


def _mk_traj(out_t, out_h, out_d, cons_t, cons_v, events):
    return Trajectory(
        times=np.asarray(out_t, dtype=float),
        heart_frac=np.asarray(out_h, dtype=float),
        discordant_frac=np.asarray(out_d, dtype=float),
        consensus_time=cons_t,
        consensus_value=cons_v,
        n_events=events,
    )


def _voter_complete_engine(n, heart0, horizon, schedule, rng, max_events):
    """Heart-count chain on the simple complete graph.

    On K_n the heart count k jumps +-1 with equal odds after an
    Exp(2k(n-k)/(n-1)) holding time, and the discordant count is exactly
    k(n-k).  Jumps are drawn from ``rng`` in numpy blocks: the steps of the
    walk, cut at its first hit of 0 or n, then one holding time per step
    kept.
    """
    max_events = _cap(max_events)
    samples = _Samples(schedule, horizon)
    m = n * (n - 1) // 2
    hz = math.inf if horizon is None else horizon
    k, t, events, B = heart0, 0.0, 0, 0
    past = False  # the next jump comes after the horizon
    while 0 < k < n:
        if events >= max_events:
            raise SimulationTimeout(
                f"event cap {max_events} reached at t={t:.6g}",
                partial=samples.traj(None, None, events))
        if past:
            break
        B = min(2 * B, _MAX_BLOCK) if B else _FIRST_BLOCK
        path = k + np.cumsum(np.where(rng.random(B) < 0.5, 1, -1))
        hit = np.flatnonzero((path == 0) | (path == n))
        if hit.size:
            path = path[:hit[0] + 1]
        left = np.concatenate(([k], path[:-1]))  # the state each jump leaves
        times = t + np.cumsum(rng.standard_exponential(len(path))
                              / (2.0 * left * (n - left) / (n - 1)))
        c = int(np.searchsorted(times, hz, "right"))
        past = c < len(times)
        c = min(c, max_events - events)
        if c == 0:
            continue
        # a sample at time x shows the state after every jump at time <= x
        while samples.next < times[c - 1]:
            j = int(np.searchsorted(times, samples.next, "right"))
            kj = int(left[j])
            samples.record(times[j], kj / n, kj * (n - kj) / m)
        k, t, events = int(path[c - 1]), float(times[c - 1]), events + c
    samples.record(math.inf, k / n, k * (n - k) / m)
    cons = k == 0 or k == n
    return samples.traj(t if cons else None, int(k == n) if cons else None,
                        events)


def run_voter(g: Graph, state: OpinionState, horizon, schedule, rng, *,
              max_events=DEFAULT_MAX_EVENTS, check=False) -> Trajectory:
    """Voter model on a fixed graph: each vertex at rate 1 copies the opinion
    across a uniform incident edge slot (multi-edges weight adoption,
    self-loop slots are no-ops), on the literal clock.

    With ``horizon=None`` the run goes on until consensus, and raises
    :class:`SimulationTimeout` as soon as two connected components are
    unanimous and disagree.  A run to a horizon, ``math.inf`` too, whose
    state can no longer change stops drawing and returns that state up to
    the horizon.

    On a K_n held as n alone (``g.implicit_complete``) the heart-count
    chain runs instead, its jumps drawn from ``rng`` in numpy blocks, with
    no per-edge work; ``check=True`` takes the per-edge engine.
    """
    if isinstance(g, Graph) and g.implicit_complete and not check:
        heart = sum(_opinion_list(state.opinions, g.n))
        return _voter_complete_engine(g.n, heart, horizon, schedule, rng,
                                      max_events)
    return _literal_engine(g, state, 0.0, horizon, schedule, rng,
                           max_events, check, False)


def run_voter_rewiring(g: Graph, state: OpinionState, nu, horizon, schedule,
                       rng, *, max_events=DEFAULT_MAX_EVENTS, check=False,
                       mutate_graph=False) -> Trajectory:
    """Voter dynamics superposed with degree-preserving random edge swaps.

    Every unordered pair of the M edge slots swaps at rate nu/(2M), so a
    given edge is involved in swaps at rate nu(M-1)/(2M), which tends to
    nu/2.  The discordance plateau to compare against is therefore
    ``theta_rewiring(d, nu*(M-1)/(2*M))``, and an edge involved at about
    rate r takes nu = 2r.

    With nu=0 this is :func:`run_voter`, byte-identical on the same seed,
    and the graph is left as it is.  Otherwise, unless ``mutate_graph`` is
    set, the caller's graph is left untouched; with it, the graph is handed
    back with the final edges, renumbered.  With ``horizon=None`` the run
    raises :class:`SimulationTimeout` as soon as the isolated vertices
    disagree with each other or with all the rest.  The cost grows linearly
    with nu times the horizon: nu = 1e12 runs to ``max_events`` (1e9 by
    default, minutes) in a unit of time.
    """
    _real(nu, "rewiring rate", 0, math.inf)
    if nu == 0:
        return run_voter(g, state, horizon, schedule, rng,
                         max_events=max_events, check=check)
    return _literal_engine(g, state, nu, horizon, schedule, rng, max_events,
                           check, mutate_graph)


def run_voter_directed(g: DirectedGraph, state: OpinionState, horizon,
                       schedule, rng, *, adopt_from="out",
                       max_events=DEFAULT_MAX_EVENTS, check=False) -> Trajectory:
    """Directed voter model; discordance is counted over arcs.

    adopt_from="out": each vertex at rate 1 copies a uniform out-neighbour
    (so the tail of a discordant arc flips); "in" uses in-neighbours instead.

    The run takes the literal clock of :func:`run_voter`, on the arcs in
    their copying direction, and reads only the graph's endpoint arrays.
    With ``horizon=None`` the run goes on until consensus.  When the copy
    graph has two or more closed classes (strongly connected components that
    copy from no vertex outside them), consensus becomes unreachable once
    two of them are unanimous and disagree; the run then raises
    :class:`SimulationTimeout` at once, with the trajectory so far as
    ``partial``.  ``check=True`` holds the recount over arcs at each sample
    time to :func:`count_discordant`.
    """
    return _literal_engine(g, state, 0.0, horizon, schedule, rng,
                           max_events, check, False, adopt_from)


def _copy_arcs(g, adopt_from=None):
    """``(us, vs, degs)``, int64 arrays read from the graph's endpoint
    arrays: through copy slot ``a`` vertex ``us[a]`` copies ``vs[a]``, and
    ``v`` has ``degs[v]`` slots.  With ``adopt_from`` None they are the
    stubs of an undirected graph, edge ``e`` being stubs ``2e`` and
    ``2e + 1``; else the arcs, in their copying direction.  Raises
    InvalidParameterError on a graph with no edge or arc, an unknown
    ``adopt_from`` or a vertex that copies through no arc."""
    if g.n == 0 or g.m == 0:
        raise InvalidParameterError("graph must have at least one " + (
            "edge" if adopt_from is None else "arc"))
    tails, heads = g.endpoint_arrays()
    if adopt_from is None:
        us = np.column_stack((tails, heads)).ravel()
        return us, us.reshape(-1, 2)[:, ::-1].ravel(), np.bincount(
            us, minlength=g.n)
    if adopt_from == "out":
        us, vs = tails, heads
    elif adopt_from == "in":
        us, vs = heads, tails
    else:
        raise InvalidParameterError("adopt_from must be 'out' or 'in'")
    degs = np.bincount(us, minlength=g.n)
    if degs.min() == 0:
        raise InvalidParameterError(
            f"every vertex needs {adopt_from}-degree >= 1")
    return us, vs, degs


def _class_status(hearts, size) -> int:
    return 0 if hearts == 0 else 2 if hearts == size else 1


class _Classes:
    """Hearts per class of vertices (class -1: none), and how many classes
    are all-diamond, mixed and all-heart (``status`` 0, 1, 2).  A class
    copies from no vertex outside it, so a unanimous class stays so."""

    __slots__ = ("cls", "size", "hearts", "status")

    def __init__(self, cls, ops):
        self.cls = cls
        self.size = [0] * (max(cls) + 1)
        self.hearts = [0] * len(self.size)
        for v, c in enumerate(cls):
            if c >= 0:
                self.size[c] += 1
                self.hearts[c] += ops[v]
        self.status = [0, 0, 0]
        for h, size in zip(self.hearts, self.size):
            self.status[_class_status(h, size)] += 1

    def split(self) -> bool:
        """Whether two unanimous classes disagree."""
        return bool(self.status[0] and self.status[2])

    def flip(self, v, x) -> bool:
        """Count vertex ``v`` flipping to ``x``; then :meth:`split`."""
        c = self.cls[v]
        if c < 0:
            return False
        status, hearts, size = self.status, self.hearts, self.size[c]
        status[_class_status(hearts[c], size)] -= 1
        hearts[c] += 1 if x else -1
        status[_class_status(hearts[c], size)] += 1
        return bool(status[0] and status[2])


def _check_classes(classes, samples, t, events):
    """Raise once two unanimous classes disagree: consensus is then out of
    reach."""
    if classes.split():
        raise SimulationTimeout(
            f"consensus unreachable at t={t:.6g}: two classes that copy from "
            "no one outside them are unanimous and disagree",
            partial=samples.traj(None, None, events))


def _closed_classes(n, us, vs):
    """Closed class of each vertex in the copy graph ``us[a] -> vs[a]``
    (-1 outside every closed class), or None if there are fewer than two.

    The classes are the strongly connected components with no arc leaving
    them, found in O(n + m) by Kosaraju's two searches with explicit
    stacks: finish times on the graph, then components on its reverse.
    """
    a, b = (np.asarray(x, dtype=np.int64) for x in (us, vs))
    succ, pred = _grouped(n, a, b), _grouped(n, b, a)
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, nxt = work[-1]
            for w in nxt:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    comp = [-1] * n
    n_comp = 0
    for root in reversed(finished):
        if comp[root] >= 0:
            continue
        comp[root] = n_comp
        stack = [root]
        while stack:
            for w in pred[stack.pop()]:
                if comp[w] < 0:
                    comp[w] = n_comp
                    stack.append(w)
        n_comp += 1
    ca, cb = np.array(comp)[a], np.array(comp)[b]
    # the components that no arc leaves, in increasing id
    closed = np.setdiff1d(np.arange(n_comp), ca[ca != cb]).tolist()
    if len(closed) < 2:
        return None
    rank = {c: i for i, c in enumerate(closed)}
    return [rank.get(c, -1) for c in comp]


def consensus_time(g, state: OpinionState, rng, *,
                   max_events=DEFAULT_MAX_EVENTS, nu=0.0) -> float:
    """Run until absorption and return the consensus time.

    A state from which consensus is out of reach (possible on disconnected
    graphs) raises :class:`SimulationTimeout` rather than spinning.
    Rewiring (``nu != 0``) applies to undirected graphs only.
    """
    return _run_on(g, state, nu, None, [], rng,
                   max_events=max_events).consensus_time


def _run_on(g, state, nu, horizon, schedule, rng, *, adopt_from="out",
            max_events=DEFAULT_MAX_EVENTS) -> Trajectory:
    # the engine that g's type takes, looked up in this module's globals
    # at call time; a directed graph takes no rewiring
    if isinstance(g, DirectedGraph):
        if nu != 0.0:
            raise InvalidParameterError(
                "rewiring applies to undirected graphs only")
        return run_voter_directed(g, state, horizon, schedule, rng,
                                  adopt_from=adopt_from, max_events=max_events)
    return run_voter_rewiring(g, state, nu, horizon, schedule, rng,
                              max_events=max_events)
