"""Independent test oracles: exact birth-death absorption times, small
brute-force recounts, and the Monte Carlo runs on an explicit tree and of
Fisher-Wright paths that cross-check ``limits`` (both were ``limits``
functions), which avoid the package's own event engines and bookkeeping;
plus three former engines, kept verbatim as the references for the
two-sample law tests: the scalar heart-count chain that ran on an
implicit K_n before its jumps were drawn in numpy blocks, the event-driven
engine that ran every other undirected run before the literal-clock engine
replaced it (every ``nu > 0`` run first, then every ``nu = 0`` run), and
the event-driven directed engine that ran every ``run_voter_directed`` run
before the literal-clock engine took those over too.  The chain reproduces
the former K_n runs of ``run_voter`` seed for seed, at ``nu = 0`` the
undirected event-driven engine reproduces the other former ``run_voter``
runs, and ``reference_directed`` the former directed runs.

The undirected engine's slot bookkeeping is the former ``_sset`` format,
with the positions in a dict: ``refile`` files slots by their discordance
and ``weighted_drop`` removes them, both keeping the running weight in the
order the engine has always used.  It reads fresh edge and incidence
lists from the :class:`Graph` (``eu``, ``ev``, ``inc``), and its swaps
are ``swap_endpoints`` on those lists, so the graph is never changed;
``rewire_swap`` makes one swap on a whole graph and writes it back with
``Graph.set_edges``.  Both were ``graphs`` functions.  The directed
engine reads the out- and in-adjacency lists that ``directed_lists``
builds from a :class:`DirectedGraph`'s endpoint arrays, in the order the
former ``DirectedGraph.add_arc``, one arc at a time, left them.  It
weighs each discordant arc by the adoption rate of its copying end, with
the weighted ``_sset`` functions it used, kept here as ``weighted_build``
and ``weighted_toggle``.  The package's ``_sset.toggle`` must leave the same
members and positions as ``refile`` after a flip, and ``weighted_toggle``
the same weight too.

``SampleableSet`` is the dict-backed copy of the format that the TO_SAME
and Holme-Newman engines kept their opinion classes in, and the reference
for ``_sset.partition`` and ``_sset.move``, which replaced it.
``is_connected`` reads a graph's components off scipy.

``oneshot_positional`` and ``oneshot_iid`` are the dense initialisers as
they were before ``coevolution._pair_coins`` drew the pair coins in
row-major blocks: every pair at once, with one ``rng.random(C(n,2))``.
They return the opinions and the adjacency matrix, the reference for the
blocked draw.  ``dense_recount`` counts the four pair classes of a dense
state pair by pair, and ``reference_dense`` runs the dense model as a
Gillespie run over the pairs at their exact rates, the reference for the
law of ``run_dense``.  ``reference_rewire`` (a literal edge clock) and
``reference_holme_newman`` (adjacency multisets) transcribe the laws of
``run_rewire_model`` and ``run_holme_newman`` from their docstrings."""

import math
import random
from collections import Counter

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from discordlab._lockstep import _BLOCK_STEPS
from discordlab.coevolution import (TO_RANDOM, UNRESOLVED, AbsorptionOutcome,
                                    DenseTrajectory, classify_outcome,
                                    conflict_concordant_profile,
                                    conflict_discordant_profile)
from discordlab.dynamics import (DEFAULT_MAX_EVENTS, OpinionState, _Classes,
                                 _Samples, _check_classes, _closed_classes,
                                 _copy_arcs)
from discordlab.errors import InvalidParameterError, SimulationTimeout
from discordlab.experiments import EnsembleResult, _aggregate
from discordlab.graphs import DirectedGraph, Graph, count_discordant


def bd_mean_absorption(rates_up, rates_down):
    """Expected time to hit {0, N} for a birth-death chain on {0..N}, from
    every state, by solving the tridiagonal Green equation."""
    rates_up = np.asarray(rates_up, dtype=float)
    rates_down = np.asarray(rates_down, dtype=float)
    N = len(rates_up) - 1
    n = N - 1
    A = np.zeros((n, n))
    b = -np.ones(n)
    for i, k in enumerate(range(1, N)):
        lam, mu = rates_up[k], rates_down[k]
        A[i, i] = -(lam + mu)
        if i > 0:
            A[i, i - 1] = mu
        if i < n - 1:
            A[i, i + 1] = lam
    T = np.linalg.solve(A, b)
    return np.concatenate([[0.0], T, [0.0]])


def complete_voter_mean_tau(N):
    """Exact mean consensus times of the voter model heart count on the
    simple complete graph (rates k(N-k)/(N-1) both ways)."""
    k = np.arange(N + 1)
    r = k * (N - k) / (N - 1)
    return bd_mean_absorption(r, r)


def brute_discordant(edge_pairs, opinions):
    return sum(1 for u, v in edge_pairs if opinions[u] != opinions[v])


def is_connected(g):
    """Whether ``g`` has one connected component."""
    us, vs = g.endpoint_arrays()
    adj = sparse.coo_matrix((np.ones(g.m), (us, vs)), shape=(g.n, g.n))
    return csgraph.connected_components(adj, directed=False)[0] == 1


class SampleableSet:
    """The swap-with-tail format as an object, for sets of anything
    hashable, with the positions in a dict."""

    __slots__ = ("items", "pos")

    def __init__(self, iterable=()):
        self.items = []
        self.pos = {}
        for x in iterable:
            self.add(x)

    def __len__(self):
        return len(self.items)

    def add(self, x):
        """Insert x if it is not present."""
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x):
        """Remove x if present."""
        i = self.pos.pop(x, -1)
        if i >= 0:
            last = self.items.pop()
            if i < len(self.items):
                self.items[i] = last
                self.pos[last] = i

    def pick(self, rnd):
        """Uniform element, using rnd.random() (bias ~ len/2^53, negligible)."""
        return self.items[int(rnd.random() * len(self.items))]


# ----------------------------------------------------------------------
# Monte Carlo cross-checks of the limits oracles
# ----------------------------------------------------------------------

def meeting_time_tree_mc(d, times, n_pairs, rng, depth_cap=30):
    """Monte Carlo cross-check of the profile on an explicit truncated tree.

    Two rate-1 walkers start on the endpoints of an edge of a lazily built
    d-regular tree (vertices materialize their neighbours on first visit;
    beyond depth_cap no children are added, which is unreachable for the
    horizons used here).  Returns (survival estimates, standard errors) on
    the given time grid.  This is a deliberately independent route from
    ``limits.meeting_profile`` and shares none of its machinery.
    """
    if d < 3:
        raise InvalidParameterError("need degree d >= 3")
    grid = [float(t) for t in times]
    if any(t < 0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("times must be >= 0, strictly increasing")
    nt = len(grid)
    rnd = random.Random(int(rng.integers(1 << 63)))
    rr = rnd.random
    log = math.log
    survived = [0] * nt

    for _ in range(n_pairs):
        adj = [[1], [0]]
        depth = [0, 1]
        pa, pb = 0, 1
        t = 0.0
        ti = 0
        while True:
            t -= log(1.0 - rr()) * 0.5  # two rate-1 walkers: total rate 2
            while ti < nt and grid[ti] < t:
                survived[ti] += 1
                ti += 1
            if ti == nt:
                break
            move_a = rr() < 0.5
            pos = pa if move_a else pb
            other = pb if move_a else pa
            nbrs = adj[pos]
            if len(nbrs) < d and depth[pos] < depth_cap:
                dep = depth[pos] + 1
                while len(nbrs) < d:
                    nbrs.append(len(adj))
                    adj.append([pos])
                    depth.append(dep)
            new = nbrs[int(rr() * len(nbrs))]
            if new == other:
                break  # met; times >= t stay uncredited
            if move_a:
                pa = new
            else:
                pb = new

    surv = np.array(survived, dtype=float) / n_pairs
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 1e-300) / n_pairs)
    return surv, se


def fisher_wright_ensemble(theta, chi0, dt, t_max, n_paths, rng,
                           record_times=None):
    """Vectorized ensemble of Fisher-Wright paths.

    Returns (record_times, paths, absorption_times) where paths has shape
    (n_paths, len(record_times)) and absorption times are NaN for paths
    still in (0,1) at t_max.  Record times snap to the dt grid.
    """
    if not (0 < dt < math.inf and 0 < t_max < math.inf):
        raise InvalidParameterError("need finite dt > 0 and t_max > 0")
    if not (0 <= theta < math.inf and 0.0 <= chi0 <= 1.0):
        raise InvalidParameterError("need finite theta >= 0, chi0 in [0,1]")
    nsteps = int(round(t_max / dt))
    if record_times is None:
        record_times = np.linspace(0.0, nsteps * dt, 51)
    rec_steps = np.unique(np.clip(np.round(np.asarray(record_times) / dt),
                                  0, nsteps).astype(int))
    rec_of = {s: i for i, s in enumerate(rec_steps)}
    x = np.full(n_paths, float(chi0))
    tau = np.full(n_paths, np.nan)
    out = np.empty((n_paths, len(rec_steps)))
    if 0 in rec_of:
        out[:, rec_of[0]] = x
    c = 2.0 * theta * dt
    for step in range(1, nsteps + 1):
        z = rng.standard_normal(n_paths)
        x = np.clip(x + np.sqrt(c * x * (1.0 - x)) * z, 0.0, 1.0)
        newly = np.isnan(tau) & ((x == 0.0) | (x == 1.0))
        tau[newly] = step * dt
        if step in rec_of:
            out[:, rec_of[step]] = x
    return rec_steps * dt, out, tau


def ensemble_from_samples(times, heart, disc=None) -> EnsembleResult:
    """Per-replica sample arrays (R, T) wrapped as an EnsembleResult by the
    package's own aggregation, for feeding synthetic paths to the
    estimators."""
    heart = np.asarray(heart, dtype=float)
    disc = np.zeros_like(heart) if disc is None else np.asarray(disc, float)
    R = len(heart)
    samples = {"heart_frac": heart, "discordant_frac": disc}
    return EnsembleResult(times=np.asarray(times, dtype=float),
                          samples=samples, **_aggregate(samples, R),
                          replicas=R, taus=np.full(R, np.nan),
                          consensus_values=[None] * R, timed_out=[])


def directed_lists(g: DirectedGraph):
    """``(out_adj, in_adj)``: the arc ids out of and into each vertex, in
    increasing id order."""
    out_adj = [[] for _ in range(g.n)]
    in_adj = [[] for _ in range(g.n)]
    for a, (t, h) in enumerate(g.arcs()):
        out_adj[t].append(a)
        in_adj[h].append(a)
    return out_adj, in_adj


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
    eu, ev = g.eu, g.ev
    swap_endpoints(eu, ev, g.inc, e1, e2, rng.random() < 0.5)
    # set_edges keeps the loops and parallel edges a crossed matching makes
    g.set_edges(eu, ev)


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


# ----------------------------------------------------------------------
# the former one-shot dense initialisers
# ----------------------------------------------------------------------

def oneshot_positional(n, rng):
    """``init_positional(n, rng=rng)`` with the conflict profiles."""
    pos = np.arange(n) / n
    ops = (rng.random(n) < 0.5).astype(np.int8)
    iu, iv = np.triu_indices(n, k=1)
    pc = conflict_concordant_profile(pos[iu], pos[iv])
    pd = conflict_discordant_profile(pos[iu], pos[iv])
    prob = np.where(ops[iu] == ops[iv], pc, pd)
    adj = np.zeros((n, n), dtype=bool)
    keep = rng.random(len(iu)) < prob
    adj[iu[keep], iv[keep]] = True
    adj |= adj.T
    return ops, adj


def oneshot_iid(n, p0, q0, rng):
    """``DenseState.iid(n, p0, q0, rng)``."""
    ops = (rng.random(n) < q0).astype(np.int8)
    adj = np.zeros((n, n), dtype=bool)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p0
    adj[iu[keep], iv[keep]] = True
    adj |= adj.T
    return ops, adj


# ----------------------------------------------------------------------
# the dense model pair by pair
# ----------------------------------------------------------------------

def dense_recount(opinions, adj):
    """The four pair classes (edge_conc, edge_disc, nonedge_conc,
    nonedge_disc) of 0/1 opinions and a symmetric adjacency, counted pair
    by pair over i < j."""
    iu, iv = np.triu_indices(len(opinions), k=1)
    conn = adj[iu, iv]
    same = opinions[iu] == opinions[iv]
    return (int(np.count_nonzero(conn & same)),
            int(np.count_nonzero(conn & ~same)),
            int(np.count_nonzero(~conn & same)),
            int(np.count_nonzero(~conn & ~same)))


def reference_dense(state, eta, rho, s, horizon, schedule, rng):
    """The law of ``run_dense`` as a Gillespie run over the pairs i < j at
    their exact rates, with no thinning, no edge list and no chain after
    consensus: a connected discordant pair fires at rate eta in each
    direction (i adopts j's opinion, or j adopts i's), and every pair
    switches its connection at rate rho times the weight of its class.
    Each event is drawn from the vector of all 3 C(n,2) rates.  Returns a
    DenseTrajectory of the seven observables at each schedule time (the
    state just before the first event past it), the time of the first
    unanimity and ``n_events``, the events up to the horizon."""
    n = state.n
    ops = np.array(state.opinions)
    adj = np.array(state.adj)
    iu, iv = np.triu_indices(n, k=1)
    npairs = len(iu)
    heart = int(ops.sum())
    cons_t = 0.0 if heart in (0, n) else None
    sched = [float(x) for x in schedule]
    rows = []
    t = 0.0
    events = 0
    while True:
        conn = adj[iu, iv]
        conc = ops[iu] == ops[iv]
        weight = np.where(conn, np.where(conc, s.s_c1, s.s_d1),
                          np.where(conc, s.s_c0, s.s_d0))
        adopt = eta * (conn & ~conc)
        cum = np.cumsum(np.concatenate([rho * weight, adopt, adopt]))
        total = cum[-1]
        t_next = t + rng.exponential(1.0 / total) if total > 0 else math.inf
        while sched and sched[0] < t_next:
            rows.append((sched.pop(0), heart / n,
                         np.count_nonzero(conn) / npairs,
                         *(x / npairs for x in dense_recount(ops, adj))))
        if t_next > horizon:
            break
        t = t_next
        events += 1
        k = int(np.searchsorted(cum, rng.random() * total, side="right"))
        kind, pair = divmod(k, npairs)
        i, j = iu[pair], iv[pair]
        if kind == 0:
            adj[i, j] = adj[j, i] = not adj[i, j]
            continue
        if kind == 2:
            i, j = j, i
        ops[i] = ops[j]
        heart += 1 if ops[j] == 1 else -1
        if cons_t is None and heart in (0, n):
            cons_t = t
    cols = np.array(rows, dtype=float).reshape(-1, 7).T
    return DenseTrajectory(*cols, consensus_time=cons_t, n_events=events,
                           final_edge_count=int(adj.sum()) // 2)


def reference_rewire(n, beta, variant, rng, max_events=2_000_000):
    """The law of ``run_rewire_model`` on a literal edge clock (Durrett et
    al. 2012, "Graph fission in an evolving voter model"): from ER(n, 1/2),
    one coin per pair i < j, with fair-coin opinions, all m edges ring at
    rate 1, so time advances by Exp(m) per ring and the ringing edge is
    uniform.  A concordant ring is a null.  A discordant ring adopts with
    probability beta/n (a uniform endpoint takes the other's opinion);
    otherwise a uniform endpoint keeps the edge and it moves to a uniform
    vertex (TO_RANDOM) or to a uniform other vertex of the keeper's opinion
    (TO_SAME; none left is a no-op).  Edges are [u, v] lists and the
    discordant edges are recounted after every discordant ring.  Returns
    (AbsorptionOutcome, the number of discordant rings); reaching
    ``max_events`` discordant rings leaves the run UNRESOLVED."""
    iu, iv = np.triu_indices(n, k=1)
    coins = rng.random(len(iu)) < 0.5
    edges = [[int(u), int(v)] for u, v in zip(iu[coins], iv[coins])]
    ops = (rng.random(n) < 0.5).astype(int).tolist()
    m = len(edges)
    disc = sum(ops[u] != ops[v] for u, v in edges)
    t = 0.0
    rings = 0
    while disc and rings < max_events:
        t += rng.exponential(1.0 / m)
        e = edges[int(rng.random() * m)]
        if ops[e[0]] == ops[e[1]]:
            continue
        rings += 1
        if rng.random() < beta / n:
            a = int(rng.random() * 2)
            ops[e[a]] = ops[e[1 - a]]
        else:
            keep = e[int(rng.random() * 2)]
            if variant == TO_RANDOM:
                to = [int(rng.random() * n)]
            else:
                to = [x for x in range(n) if x != keep and ops[x] == ops[keep]]
            if to:
                e[:] = [keep, to[int(rng.random() * len(to))]]
        disc = sum(ops[u] != ops[v] for u, v in edges)
    heart = sum(ops)
    return AbsorptionOutcome(
        absorption_time=None if disc else t, final_heart_fraction=heart / n,
        final_edge_count=m,
        verdict=classify_outcome(heart, n, disc) if not disc else UNRESOLVED
    ), rings


def reference_holme_newman(n, m_edges, beta, rng, max_steps=10_000_000):
    """The law of ``run_holme_newman`` on adjacency multisets (Holme and
    Newman 2006, "Nonequilibrium phase transition in the coevolution of
    networks and opinions"): from a uniform simple graph with ``m_edges``
    edges, the pairs drawn without replacement, and fair-coin opinions,
    each step picks a uniform vertex v; unless v is isolated, it picks an
    edge at v with probability its multiplicity over v's degree.  With
    probability beta that edge moves from its far end to a uniform other
    vertex of v's opinion (none left is a no-op), otherwise v adopts the
    far end's opinion.  ``adj[v]`` is a Counter of v's neighbours, and the
    discordant edges are recounted after every step that changes the state.
    Returns (AbsorptionOutcome, the number of steps); reaching
    ``max_steps`` steps leaves the run UNRESOLVED."""
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.choice(len(iu), size=m_edges, replace=False)
    ops = (rng.random(n) < 0.5).astype(int).tolist()
    adj = [Counter() for _ in range(n)]
    for u, v in zip(iu[pick], iv[pick]):
        adj[u][v] += 1
        adj[v][u] += 1

    def discordant():
        return sum(k for v in range(n) for w, k in adj[v].items()
                   if ops[v] != ops[w]) // 2

    disc = discordant()
    steps = 0
    while disc and steps < max_steps:
        steps += 1
        v = int(rng.random() * n)
        nbrs = list(adj[v].elements())
        if not nbrs:
            continue
        far = nbrs[int(rng.random() * len(nbrs))]
        if rng.random() < beta:
            to = [x for x in range(n) if x != v and ops[x] == ops[v]]
            if to:
                w = to[int(rng.random() * len(to))]
                adj[v][far] -= 1
                adj[far][v] -= 1
                adj[v][w] += 1
                adj[w][v] += 1
                disc = discordant()
        elif ops[v] != ops[far]:
            ops[v] = ops[far]
            disc = discordant()
    heart = sum(ops)
    return AbsorptionOutcome(
        absorption_time=None if disc else float(steps),
        final_heart_fraction=heart / n, final_edge_count=m_edges,
        verdict=classify_outcome(heart, n, disc) if not disc else UNRESOLVED
    ), steps


def _derive_rnd(rng) -> random.Random:
    # one numpy draw seeds a stdlib generator; the hot loops then run on
    # random.Random, whose scalar draws are several times cheaper
    return random.Random(int(rng.integers(1 << 63)))


# ----------------------------------------------------------------------
# the former scalar heart-count chain on an implicit K_n
# ----------------------------------------------------------------------

def reference_complete_chain(n, heart0, horizon, schedule, rng, max_events):
    """Heart-count chain on the simple complete graph.

    On K_n the heart count jumps +-1, each at rate k(n-k)/(n-1), and the
    discordant count is exactly k(n-k); simulating the count directly has
    the same law as the per-edge engine with O(1) instead of O(n) work per
    event.
    """
    samples = _Samples(schedule, horizon)
    m = n * (n - 1) // 2
    rnd = _derive_rnd(rng)
    rnd_random = rnd.random
    k = heart0
    t = 0.0
    events = 0
    cons_t = cons_v = None
    if k == 0 or k == n:
        cons_t, cons_v = 0.0, (1 if k == n else 0)
    while 0 < k < n:
        if events >= max_events:
            raise SimulationTimeout(
                f"event cap {max_events} reached at t={t:.6g}",
                partial=samples.traj(cons_t, cons_v, events))
        total = 2.0 * k * (n - k) / (n - 1)
        t_next = t - math.log(1.0 - rnd_random()) / total
        if samples.next < t_next:
            samples.record(t_next, k / n, k * (n - k) / m)
        if horizon is not None and t_next > horizon:
            t = horizon
            break
        t = t_next
        events += 1
        k += 1 if rnd_random() < 0.5 else -1
        if k == 0 or k == n:
            cons_t, cons_v = t, (1 if k == n else 0)
    samples.record(math.inf, k / n, k * (n - k) / m)
    return samples.traj(cons_t, cons_v, events)


# ----------------------------------------------------------------------
# the former event-driven engine of voter dynamics with rewiring
# ----------------------------------------------------------------------

def reference_rewiring(g: Graph, state: OpinionState, nu, horizon, schedule,
                       rng, *, max_events=10**9):
    """``run_voter_rewiring`` as it ran on the event-driven engine (at
    ``nu = 0``, the former ``run_voter``), leaving ``g`` as it is."""
    n, m = g.n, g.m
    if n == 0 or m == 0:
        raise InvalidParameterError("graph must have at least one edge")
    if len(state.opinions) != n:
        raise InvalidParameterError("opinion vector length != vertex count")
    if nu < 0:
        raise InvalidParameterError("rewiring rate must be >= 0")
    if nu > 0 and m < 2:
        raise InvalidParameterError("rewiring needs at least two edges")
    samples = _Samples(schedule, horizon)

    eu, ev, inc = g.eu, g.ev, g.inc  # fresh lists, which the swaps edit
    ops = list(state.opinions)
    heart = sum(ops)
    degs = [len(a) for a in inc]
    pos_degs = [dd for dd in degs if dd > 0]
    dmin, dmax = min(pos_degs), max(pos_degs)
    regular = dmin == dmax
    per_slot = 2.0 / dmin  # flip rate carried by one discordant slot (regular case)
    wmax = 2.0 / dmin
    # slot {u,v} flips u at rate 1/deg(u) and v at rate 1/deg(v); on a
    # regular graph every slot carries per_slot and W is not kept
    inv = None if regular else [1.0 / dd if dd else 0.0 for dd in degs]
    disc_items: list[int] = []
    disc_pos: dict[int, int] = {}
    W = refile(range(m), disc_items, disc_pos, eu, ev, ops, inv, inv)

    rew_rate = 0.0
    if nu > 0:
        pair_rate = nu / (2.0 * m)
        rew_rate = pair_rate * (m * (m - 1) / 2.0)

    rnd = _derive_rnd(rng)
    rnd_random = rnd.random
    log = math.log
    m1 = m - 1
    hz = math.inf if horizon is None else horizon
    t = 0.0
    events = 0
    cons_t = None
    cons_v = None
    absorbed = heart == 0 or heart == n
    if absorbed:
        cons_t, cons_v = 0.0, ops[0]

    def flush(limit):
        samples.record(limit, heart / n, len(disc_items) / m)

    while True:
        nd = len(disc_items)
        # the float W can keep a rounding residue after the last discordant
        # slot is gone, so emptiness is decided on the integer count
        vr = per_slot * nd if regular else (W if nd else 0.0)
        total = vr + rew_rate
        if absorbed or total <= 0.0:
            # consensus freezes opinions and (under swaps) stays concordant;
            # a frozen non-consensus state has no discordant slots either way
            break
        if events >= max_events:
            raise SimulationTimeout(
                f"event cap {max_events} reached at t={t:.6g}",
                partial=samples.traj(cons_t, cons_v, events))
        t_next = t - log(1.0 - rnd_random()) / total
        if samples.next < t_next:
            flush(t_next)
        if t_next > hz:
            t = horizon
            break
        t = t_next
        events += 1
        if rnd_random() * total < vr:
            # adoption across a discordant slot
            if regular:
                e = disc_items[int(rnd_random() * nd)]
                u, v = eu[e], ev[e]
                wu = wv = 1.0
            else:
                while True:
                    e = disc_items[int(rnd_random() * len(disc_items))]
                    u, v = eu[e], ev[e]
                    wu = inv[u]
                    wv = inv[v]
                    if rnd_random() * wmax < wu + wv:
                        break
            flip = u if rnd_random() * (wu + wv) < wu else v
            other = v if flip == u else u
            newop = ops[other]
            ops[flip] = newop
            heart += 1 if newop == 1 else -1
            W = refile(inc[flip], disc_items, disc_pos, eu, ev, ops, inv, inv, W)
            if heart == 0 or heart == n:
                absorbed = True
                cons_t, cons_v = t, ops[0]
        else:
            # one swap: uniform unordered pair of slots, uniform crossed matching
            i = int(rnd_random() * m)
            j = int(rnd_random() * m1)
            if j >= i:
                j += 1
            pair = (i, j)
            if i in disc_pos or j in disc_pos:  # else drop is a no-op call
                W = weighted_drop(pair, disc_items, disc_pos, eu, ev, inv,
                                  inv, W)
            swap_endpoints(eu, ev, inc, i, j, rnd_random() < 0.5)
            W = refile(pair, disc_items, disc_pos, eu, ev, ops, inv, inv, W)

    flush(math.inf)
    return samples.traj(cons_t, cons_v, events)


def refile(slots, items, pos, us, vs, ops, wa=None, wb=None, w=0.0):
    """File each slot in ``slots``, in order, by its current discordance:
    a discordant non-member is appended, a concordant member removed.
    Returns ``w`` updated by the weights of the slots that moved."""
    for e in slots:
        if ops[us[e]] != ops[vs[e]]:
            if e not in pos:
                pos[e] = len(items)
                items.append(e)
                if wa is not None:
                    w += wa[us[e]] + wb[vs[e]]
        elif e in pos:
            i = pos.pop(e)
            last = items.pop()
            if i < len(items):
                items[i] = last
                pos[last] = i
            if wa is not None:
                w -= wa[us[e]] + wb[vs[e]]
    return w


def weighted_drop(slots, items, pos, us, vs, wa, wb, w):
    """Remove each member of ``slots``, in order, whatever its discordance,
    and return ``w`` less their weights ``wa[us[e]] + wb[vs[e]]`` (unchanged
    with ``wa=None``), subtracted in the order the reference engine has
    always used."""
    for e in slots:
        if e in pos:
            i = pos.pop(e)
            last = items.pop()
            if i < len(items):
                items[i] = last
                pos[last] = i
            if wa is not None:
                w -= wa[us[e]] + wb[vs[e]]
    return w


# ----------------------------------------------------------------------
# the former event-driven directed engine
# ----------------------------------------------------------------------

def reference_directed(g: DirectedGraph, state: OpinionState, horizon,
                       schedule, rng, *, adopt_from="out",
                       max_events=DEFAULT_MAX_EVENTS,
                       check=False):
    """Directed voter model; discordance is counted over arcs.

    adopt_from="out": each vertex at rate 1 copies a uniform out-neighbour
    (so the tail of a discordant arc flips); "in" uses in-neighbours instead.

    With ``horizon=None`` the run goes on until consensus.  When the copy
    graph has two or more closed classes (strongly connected components that
    copy from no vertex outside them), consensus becomes unreachable once
    two of them are unanimous and disagree; the run then raises
    :class:`SimulationTimeout` at once, with the trajectory so far as
    ``partial``.
    """
    n, m = g.n, g.m
    us, vs, degs = (a.tolist() for a in _copy_arcs(g, adopt_from))
    if len(state.opinions) != n:
        raise InvalidParameterError("opinion vector length != vertex count")
    samples = _Samples(schedule, horizon)
    ops = list(state.opinions)
    heart = sum(ops)
    dmin, dmax = min(degs), max(degs)
    regular = dmin == dmax
    wmax = 1.0 / dmin
    # a discordant arc flips us[a] at rate 1/deg(us[a]) and never vs[a]
    inv = None if regular else [1.0 / d for d in degs]
    inc = [o + i for o, i in zip(*directed_lists(g))]
    disc_items, disc_pos, W = weighted_build(us, vs, ops, inv)

    rnd = _derive_rnd(rng)
    rnd_random = rnd.random
    t = 0.0
    events = 0
    cons_t = cons_v = None
    absorbed = heart == 0 or heart == n
    if absorbed:
        cons_t, cons_v = 0.0, ops[0]
    cls = _closed_classes(n, us, vs) if horizon is None else None
    classes = None if cls is None else _Classes(cls, ops)
    if classes is not None:
        _check_classes(classes, samples, t, events)

    while True:
        nd = len(disc_items)
        vr = nd / dmin if regular else (W if nd else 0.0)
        if absorbed or vr <= 0.0:
            break
        if events >= max_events:
            raise SimulationTimeout(
                f"event cap {max_events} reached at t={t:.6g}",
                partial=samples.traj(cons_t, cons_v, events))
        t_next = t - math.log(1.0 - rnd_random()) / vr
        if samples.next < t_next:
            if check and nd != count_discordant(g, ops):
                raise AssertionError("discordance bookkeeping diverged")
            samples.record(t_next, heart / n, nd / m)
        if horizon is not None and t_next > horizon:
            t = horizon
            break
        t = t_next
        events += 1
        if regular:
            a = disc_items[int(rnd_random() * nd)]
        else:
            while True:
                a = disc_items[int(rnd_random() * len(disc_items))]
                if rnd_random() * wmax < inv[us[a]]:
                    break
        flip = us[a]
        newop = ops[vs[a]]
        ops[flip] = newop
        heart += 1 if newop == 1 else -1
        W = weighted_toggle(inc[flip], disc_items, disc_pos, us, vs, inv, W)
        if heart == 0 or heart == n:
            absorbed = True
            cons_t, cons_v = t, ops[0]
        elif classes is not None and classes.flip(flip, newop):
            _check_classes(classes, samples, t, events)

    samples.record(math.inf, heart / n, len(disc_items) / m)
    return samples.traj(cons_t, cons_v, events)


def weighted_build(us, vs, ops, wa=None):
    """``(items, pos, w)`` for the slots ``range(len(us))``: the discordant
    slots in id order, and the total of their weights summed in that
    order."""
    items = [e for e, (u, v) in enumerate(zip(us, vs)) if ops[u] != ops[v]]
    pos = [-1] * len(us)
    for i, e in enumerate(items):
        pos[e] = i
    w = 0.0
    if wa is not None:
        for e in items:
            w += wa[us[e]]
    return items, pos, w


def weighted_toggle(slots, items, pos, us, vs, wa=None, w=0.0):
    """Refile ``slots``, the slots at a vertex that has just flipped, in
    order: a member is removed, a non-member appended unless it is a
    self-loop.  Returns ``w`` updated by the weights of the slots that
    moved."""
    for e in slots:
        i = pos[e]
        if i >= 0:
            pos[e] = -1
            last = items.pop()
            if last != e:
                items[i] = last
                pos[last] = i
            if wa is not None:
                w -= wa[us[e]]
        elif us[e] != vs[e]:
            pos[e] = len(items)
            items.append(e)
            if wa is not None:
                w += wa[us[e]]
    return w


# ----------------------------------------------------------------------
# the lockstep ensemble engine, one step of one replica at a time
# ----------------------------------------------------------------------

def reference_lockstep(packed, sched, horizon, max_events, rng):
    """``_lockstep.run`` played one step of one replica at a time, pass by
    pass and, within a pass, replica by replica, on Python lists.

    It draws the same numbers in the same order: the step counts of every
    replica and gap, the moves of each block of passes from
    ``packed.moves``, and after each block a Beta draw for each replica
    that absorbed in it, in column order.  It stops a replica at the step
    that absorbs it or at the cap flip that times it out, so it needs
    neither opinion snapshots nor replays.  Returns what ``run`` returns.
    """
    n, R = packed.n, packed.R
    ops, ends, ecut = (a.tolist() for a in (packed.ops, packed.ends,
                                            packed.ecut))
    T = len(sched)
    bounds = [0.0, *sched, horizon]
    steps = rng.poisson(n * np.maximum(np.diff(bounds), 0.0),
                        size=(R, T + 1)).tolist()

    def discordant(r):
        return sum(ops[ends[2 * e]] != ops[ends[2 * e + 1]]
                   for e in range(ecut[r], ecut[r + 1]))

    heart_out = np.full((R, T), np.nan)
    disc_out = np.full((R, T), np.nan)
    tau = np.full(R, np.nan)
    value = np.full(R, -1, dtype=np.int8)
    timed_out = np.zeros(R, dtype=bool)
    heart = [sum(ops[r * n:(r + 1) * n]) for r in range(R)]
    live = [0 < h < n for h in heart]
    for r in range(R):
        if not live[r]:
            value[r] = heart[r] == n
            tau[r] = 0.0
            heart_out[r] = value[r]
            disc_out[r] = 0.0
        elif max_events <= 0 and discordant(r) > 0:
            timed_out[r] = True
            live[r] = False
    counting = max_events > 0 and any(
        live[r] and sum(steps[r]) >= max_events for r in range(R))
    flips = [0] * R
    frozen = [False] * R  # reached the cap on a flip that froze it

    for g in range(T + 1):
        order = sorted((r for r in range(R) if live[r]),
                       key=lambda r: -steps[r][g])
        p0 = 0
        while True:
            rem = [steps[r][g] - p0 for r in order if steps[r][g] > p0]
            k = len(rem)
            if k == 0:
                break
            B = min(rem[0], max(1, _BLOCK_STEPS // k))
            rows = order[:k]
            V, W = (a.tolist() for a in packed.moves(
                np.asarray(rows, dtype=np.intp), (B, k), rng))
            absorbed = []  # (column, step of the gap, opinion)
            for i in range(B):
                for c, r in enumerate(rows):
                    # an absorbed replica's steps change nothing
                    if i >= rem[c] or not live[r]:
                        continue
                    v, w = V[i][c], W[i][c]
                    if ops[v] == ops[w]:
                        continue
                    x = ops[v] = ops[w]
                    heart[r] += 1 if x else -1
                    flips[r] += 1
                    if heart[r] == 0 or heart[r] == n:
                        absorbed.append((r, c, p0 + i + 1, x))
                    elif counting and not frozen[r] and \
                            flips[r] == max_events:
                        if discordant(r):
                            timed_out[r] = True
                            live[r] = False
                        else:
                            frozen[r] = True
            for r, c, j, x in sorted(absorbed, key=lambda a: a[1]):
                K = steps[r][g]
                tau[r] = bounds[g] + (bounds[g + 1] - bounds[g]) * rng.beta(
                    j, K - j + 1)
                value[r] = x
                heart_out[r, g:] = x
                disc_out[r, g:] = 0.0
                live[r] = False
            p0 += B
            order = [r for r in order if live[r]]
        if g < T:
            for r in order:
                heart_out[r, g] = heart[r] / n
                disc_out[r, g] = discordant(r) / (ecut[r + 1] - ecut[r])
    return {"heart": heart_out, "disc": disc_out, "tau": tau,
            "value": value, "timed_out": timed_out}
