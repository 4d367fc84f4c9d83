"""Two-way feedback between opinions and graph: detach/reattach rewiring
models (rewire-to-random / rewire-to-same), the Holme-Newman step dynamics,
and the dense pairwise concordance-switching model, with
consensus/polarisation classification.

These dynamics absorb when no *connected discordant* pair is left, which can
happen with both opinions still present (polarisation), unlike the plain
voter model.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from ._sset import build, move, partition, toggle
from .dynamics import _mk_traj
from .errors import (InvalidParameterError, SimulationTimeout, _INT64_MAX,
                     _cap, _choice, _opinion_list, _real, _size, _times)
from .graphs import count_discordant, generate_erdos_renyi, generate_gnm
from .limits import SwitchProbs

__all__ = [
    "SwitchProbs",
    "DenseState",
    "DenseTrajectory",
    "AbsorptionOutcome",
    "CONSENSUS",
    "POLARISATION",
    "UNRESOLVED",
    "TO_RANDOM",
    "TO_SAME",
    "conflict_concordant_profile",
    "conflict_discordant_profile",
    "run_rewire_model",
    "run_holme_newman",
    "init_positional",
    "run_dense",
    "classify_outcome",
]

CONSENSUS = "CONSENSUS"
POLARISATION = "POLARISATION"
UNRESOLVED = "UNRESOLVED"

TO_RANDOM = "TO_RANDOM"
TO_SAME = "TO_SAME"


def _derive_rnd(rng) -> random.Random:
    # one numpy draw seeds a stdlib generator; the hot loops then run on
    # random.Random, whose scalar draws are several times cheaper
    return random.Random(int(rng.integers(1 << 63)))


@dataclass
class AbsorptionOutcome:
    absorption_time: float | None
    final_heart_fraction: float | None  # None: the run recorded no sample
    final_edge_count: int
    verdict: str


@dataclass
class DenseTrajectory:
    """Sampled densities of the dense co-evolution: q (hearts), p (edges),
    and the four pair classes, all normalized by C(n,2).  ``final_edge_count``
    is the edge count when the run stopped."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    conc_edge: np.ndarray
    disc_edge: np.ndarray
    conc_nonedge: np.ndarray
    disc_nonedge: np.ndarray
    consensus_time: float | None = None
    # proposals: opinion and pair ones before consensus, pair ones only
    # after it (unless check=True, which keeps counting both)
    n_events: int = 0
    final_edge_count: int = 0


def classify_outcome(heart, n, n_discordant) -> str:
    """CONSENSUS if one opinion died out, POLARISATION if both persist with
    no discordant connected pair, UNRESOLVED otherwise (horizon/step cap)."""
    if heart in (0, n):
        return CONSENSUS
    if n_discordant == 0:
        return POLARISATION
    return UNRESOLVED


# ----------------------------------------------------------------------
# detach/reattach rewiring on a sparse evolving graph
# ----------------------------------------------------------------------

class _Recorder:
    """Adaptive-stride trajectory recorder: keeps the samples at event
    counts 0, stride, 2*stride, ..., at most ~2*cap of them, by dropping
    every other one and doubling the stride."""

    def __init__(self, cap=2048):
        self.cap = cap
        self.stride = 1
        self.next = 0
        self.t = []
        self.h = []
        self.d = []

    def record(self, t, h, d):
        """Keep the sample at event count ``next`` and return the next
        count to keep.  The kept counts are the multiples of the stride; a
        thinning comes after an odd multiple of the old stride, so one old
        stride on is the next multiple of the new one."""
        self.t.append(t)
        self.h.append(h)
        self.d.append(d)
        self.next += self.stride
        if len(self.t) >= 2 * self.cap:
            del self.t[1::2]
            del self.h[1::2]
            del self.d[1::2]
            self.stride *= 2
        return self.next

    def finish(self, t, ops, heart, nd, m, events, resolved):
        """Record the final state (at most once per time) and return the
        run as (AbsorptionOutcome, Trajectory); unresolved runs carry no
        absorption time."""
        n = len(ops)
        if not self.t or self.t[-1] != t:
            self.t.append(t)
            self.h.append(heart / n)
            self.d.append(nd / m if m else 0.0)
        verdict = classify_outcome(heart, n, nd) if resolved else UNRESOLVED
        outcome = AbsorptionOutcome(
            absorption_time=t if resolved else None,
            final_heart_fraction=heart / n,
            final_edge_count=m,
            verdict=verdict,
        )
        consensus = verdict == CONSENSUS
        traj = _mk_traj(self.t, self.h, self.d,
                        t if (resolved and consensus) else None,
                        ops[0] if consensus else None, events)
        return outcome, traj


def _check_graph_size(g, n):
    if g.n != n:
        raise InvalidParameterError(
            f"initial_graph has {g.n} vertices, but n = {n}")


def run_rewire_model(n, beta, variant, rng, *, max_events=2_000_000,
                     initial_graph=None, initial_opinions=None):
    """Edge-clock co-evolution: start from ER(n, 1/2) with fair-coin opinions;
    each open edge rings at rate 1, but only discordant rings act.  A ring
    adopts with probability beta/n, otherwise a uniform endpoint keeps the
    edge and it reattaches to a uniform vertex drawn from all vertices
    (TO_RANDOM, self-loops possible) or from the other vertices sharing the
    keeper's opinion (TO_SAME; no-op if there are none).  When given,
    ``initial_graph`` and ``initial_opinions`` (n values, each 0 or 1)
    replace the random start.

    Returns (AbsorptionOutcome, Trajectory); hitting max_events yields
    verdict UNRESOLVED with the partial trajectory.  No rate scales the
    edge clock, so a run costs one step per discordant ring up to
    absorption; beta >= n adopts at every ring, so beta = 1e12 runs as n.
    """
    _real(beta, "beta", 0, strict=True)
    n = _size(n, "vertex count", 2)
    max_events = _cap(max_events)
    if isinstance(variant, str):
        variant = variant.upper().replace("-", "_")
    same = _choice(variant, "variant", (TO_RANDOM, TO_SAME)) == TO_SAME

    g = initial_graph if initial_graph is not None \
        else generate_erdos_renyi(n, 0.5, rng)
    _check_graph_size(g, n)
    if initial_opinions is not None:
        ops = _opinion_list(initial_opinions, n)
    else:
        ops = (rng.random(n) < 0.5).astype(np.int8).tolist()
    rr = _derive_rnd(rng).random

    # the engine edits fresh endpoint lists and keeps set incidence, so
    # the graph's incidence lists are never built
    eu, ev = g.eu, g.ev
    m = len(eu)
    inc = [set() for _ in range(n)]
    for e in range(m):
        inc[eu[e]].add(e)
        inc[ev[e]].add(e)
    heart = sum(ops)
    if same:
        by_op, op_pos = partition(ops)
    disc_items, disc_pos = build(eu, ev, ops)

    adopt_p = beta / n
    t = 0.0
    events = 0
    rec = _Recorder()
    record = rec.record
    log = math.log
    kept = record(0.0, heart / n, len(disc_items) / m if m else 0.0)
    resolved = True
    while disc_items:
        if events >= max_events:
            resolved = False
            break
        nd = len(disc_items)
        t -= log(1.0 - rr()) / nd
        e = disc_items[int(rr() * nd)]
        u, v = eu[e], ev[e]
        if rr() < adopt_p:
            if rr() < 0.5:
                flip, other = u, v
            else:
                flip, other = v, u
            old = ops[flip]
            ops[flip] = ops[other]
            heart += 1 if ops[other] == 1 else -1
            if same:
                move(flip, by_op[old], by_op[1 - old], op_pos)
            toggle(inc[flip], disc_items, disc_pos, eu, ev)
        else:
            if rr() < 0.5:
                keep, lose = u, v
            else:
                keep, lose = v, u
            if not same:
                w = int(rr() * n)
            else:
                cand = by_op[ops[keep]]
                # a keeper that is the last of its opinion has nowhere to
                # reattach: w = lose leaves e as it is
                w = keep if len(cand) > 1 else lose
                while w == keep:
                    w = cand[int(rr() * len(cand))]
            if w != lose:
                inc[lose].discard(e)
                inc[w].add(e)
                eu[e] = keep
                ev[e] = w
            if ops[keep] == ops[w]:  # else e is still the discordant slot it was
                i = disc_pos[e]
                disc_pos[e] = -1
                last = disc_items.pop()
                if last != e:
                    disc_items[i] = last
                    disc_pos[last] = i
        events += 1
        if events == kept:
            kept = record(t, heart / n, len(disc_items) / m)

    return rec.finish(t, ops, heart, len(disc_items), m, events, resolved)


def run_holme_newman(n, m_edges, beta, rng, *, max_steps=10_000_000,
                     initial_graph=None):
    """Discrete-time co-evolution: per step a uniform vertex either rewires
    one of its edges to a uniform same-opinion vertex (prob beta) or adopts
    across a uniform incident edge (prob 1-beta).  Isolated picks are no-ops.
    Time is counted in steps; stops when no discordant edge remains.
    """
    _real(beta, "beta", 0, 1)
    n = _size(n, "vertex count", 1, _INT64_MAX)
    max_steps = _cap(max_steps, "max_steps")
    g = initial_graph if initial_graph is not None \
        else generate_gnm(n, m_edges, rng)
    _check_graph_size(g, n)
    ops = (rng.random(n) < 0.5).astype(np.int8).tolist()
    rr = _derive_rnd(rng).random

    eu, ev, inc = g.eu, g.ev, g.inc  # fresh lists: the engine edits them
    m = g.m
    heart = sum(ops)
    by_op, op_pos = partition(ops)
    # no draw reads which edges are discordant, only how many
    nd = count_discordant(g, ops)

    steps = 0
    rec = _Recorder()
    record = rec.record
    kept = record(0.0, heart / n, nd / m if m else 0.0)
    resolved = True
    while nd:
        if steps >= max_steps:
            resolved = False
            break
        steps += 1
        v = int(rr() * n)
        dv = len(inc[v])
        if dv:
            e = inc[v][int(rr() * dv)]
            other = ev[e] if eu[e] == v else eu[e]
            if rr() < beta:
                cand = by_op[ops[v]]
                if len(cand) > 1:
                    w = v
                    while w == v:
                        w = cand[int(rr() * len(cand))]
                    if w != other:
                        inc[other].remove(e)
                        inc[w].append(e)
                        eu[e] = v
                        ev[e] = w
                    if ops[v] != ops[other]:  # e was discordant
                        nd -= 1
            elif ops[v] != ops[other]:
                old = ops[v]
                # each edge at v that is not a self-loop changes discordance
                for f in inc[v]:
                    if eu[f] != ev[f]:
                        nd += 1 if ops[eu[f]] == ops[ev[f]] else -1
                ops[v] = ops[other]
                heart += 1 if ops[other] == 1 else -1
                move(v, by_op[old], by_op[1 - old], op_pos)
        if steps == kept:
            kept = record(float(steps), heart / n, nd / m)

    return rec.finish(float(steps), ops, heart, nd, m, steps, resolved)


# ----------------------------------------------------------------------
# dense pairwise model
# ----------------------------------------------------------------------

class DenseState:
    """Opinions plus a symmetric adjacency bit matrix, both read-only, with
    the heart, edge and connected-concordant counts, from which the other
    pair classes (connected/disconnected x concordant/discordant) follow.

    The constructor checks and copies the arrays once and counts them with
    row sums, and :func:`run_dense` trusts what a state holds.  The matrix
    takes one byte per ordered pair, 2 B per vertex pair, and the
    constructor peaks at about 4 B per vertex pair; the starts hand their
    fresh matrix over with no check and no copy.  :func:`run_dense` builds
    its edge list, integer pair ids, from the matrix.
    """

    def __init__(self, opinions, adj):
        self._hold(*_checked(opinions, adj))

    def _hold(self, opinions, adj) -> "DenseState":
        # fresh int8 opinions and a bool matrix, valid and held by no one
        # else: the starts come here straight from __new__
        opinions.flags.writeable = adj.flags.writeable = False
        self.opinions, self.adj, self.n = opinions, adj, len(opinions)
        self.heart_count, self.edge_count, self.edge_conc_count = \
            _counts(opinions, adj)
        return self

    @classmethod
    def iid(cls, n, p0, q0, rng) -> "DenseState":
        """Independent coins: hearts with prob q0, one ``rng.random(n)``,
        then edges with prob p0, drawn by :func:`_pair_coins` as if by one
        ``rng.random(C(n,2))`` over the pairs i < j in row-major order.
        Peaks at about 2 B per vertex pair, the matrix the state holds,
        plus about 1 MB for one block."""
        n = _size(n, "vertex count", 2, _INT64_MAX)
        _real(p0, "p0", 0, 1)
        _real(q0, "q0", 0, 1)
        ops = (rng.random(n) < q0).astype(np.int8)
        return cls.__new__(cls)._hold(
            ops, _pair_coins(n, lambda iu, iv: p0, rng))

    @property
    def n_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_disc(self) -> int:
        return self.edge_count - self.edge_conc_count


def _checked(opinions, adj):
    """Fresh int8 and bool copies of ``opinions`` and ``adj``, checked to
    be 0/1 opinions and a symmetric n x n 0/1 adjacency with no self-pair."""
    try:
        opinions, adj = np.asarray(opinions), np.asarray(adj)
        # compared before the cast, which would read 0.5 as 0 and 0.3 as True
        ops_binary, adj_binary = (np.all((a == 0) | (a == 1))
                                  for a in (opinions, adj))
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "opinions and adjacency must be arrays of numbers") from None
    if opinions.ndim != 1:
        raise InvalidParameterError("opinions must be a 1-D array")
    n = len(opinions)
    if adj.shape != (n, n):
        raise InvalidParameterError("adjacency must be n x n")
    if not ops_binary:
        raise InvalidParameterError("opinions must be 0 or 1")
    if not adj_binary:
        raise InvalidParameterError("adjacency entries must be 0 or 1")
    opinions = opinions.astype(np.int8)
    adj = adj.astype(bool, order="C")
    if np.any(adj != adj.T):
        raise InvalidParameterError("adjacency must be symmetric")
    if np.any(np.diag(adj)):
        raise InvalidParameterError("no self-pairs in the dense model")
    return opinions, adj


# pairs per block of _pair_coins; blocks are whole rows of the upper triangle
_PAIR_BLOCK = 1 << 14


def _pair_coins(n, prob, rng):
    """An n x n symmetric adjacency of independent pair coins.  The pairs
    i < j are taken in row-major order, in blocks of whole rows of about
    ``_PAIR_BLOCK`` pairs: ``prob(iu, iv)`` gives a block's edge
    probabilities (an array over its pairs, or a scalar) and may raise, and
    one ``rng.random`` call draws its coins.  So the doubles and the rng
    state are those of one ``rng.random(C(n,2))`` over all pairs, while
    the temporaries stay within one block.  Each block sets both
    triangles of the matrix."""
    adj = np.zeros((n, n), dtype=bool)
    # first pair of each row: start[n-1] = C(n,2), as row n-1 has no pair
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=start[1:])
    i0 = 0
    while i0 < n - 1:
        i1 = min(int(np.searchsorted(start, start[i0] + _PAIR_BLOCK)), n - 1)
        rows = np.arange(i0, i1)
        lens = n - 1 - rows
        iu = np.repeat(rows, lens)
        # pair k of row i joins i and i + 1 + (k - start[i])
        iv = np.arange(start[i0], start[i1]) \
            - np.repeat(start[i0:i1] - rows - 1, lens)
        p = prob(iu, iv)  # first: a profile that raises draws no coins
        keep = rng.random(len(iu)) < p
        iu, iv = iu[keep], iv[keep]
        adj[iu, iv] = True
        adj[iv, iu] = True
        i0 = i1
    return adj


def _counts(opinions, adj):
    """Hearts, edges and concordant edges of 0/1 opinions and a symmetric
    adjacency, from row sums with no temporary matrix: every edge is in
    two rows."""
    hearts = opinions.view(bool)
    deg = adj.sum(axis=1, dtype=np.int64)
    hn = adj.sum(axis=1, dtype=np.int64, where=hearts)
    same = np.where(hearts, hn, deg - hn)
    return (int(np.count_nonzero(hearts)), int(deg.sum()) // 2,
            int(same.sum()) // 2)


def _pair_classes(n, heart, ecount, econc):
    """The four pair-class counts (edge_conc, edge_disc, nonedge_conc,
    nonedge_disc), which sum to C(n,2), from the heart, edge and
    connected-concordant counts."""
    nc = heart * (heart - 1) // 2 + (n - heart) * (n - heart - 1) // 2 - econc
    return econc, ecount - econc, nc, n * (n - 1) // 2 - ecount - nc


def conflict_concordant_profile(x, y):
    """Connection probability (1/10)(1-|x-y|) for same-opinion pairs."""
    return 0.1 * (1.0 - np.abs(x - y))


def conflict_discordant_profile(x, y):
    """Connection probability (9/10)(1-|x-y|) for opposite-opinion pairs;
    together with the concordant profile this starts the graph in conflict
    with the switching dynamics, forcing an initial collapse."""
    return 0.9 * (1.0 - np.abs(x - y))


def init_positional(n, concordant_profile=None, discordant_profile=None,
                    rng=None) -> DenseState:
    """Place vertices at i/n on [0,1], draw fair-coin opinions, and connect
    each pair independently with the profile value for its positions and
    concordance.  Profiles take two position arrays and must map into [0,1].

    The opinions come from one ``rng.random(n)``.  The pairs i < j are
    drawn by :func:`_pair_coins`, in row-major blocks of about 2^14 pairs,
    with the doubles and end state of one ``rng.random(C(n,2))``; each
    block's profile values are checked just before its draw.  A start
    peaks at about 2 B per vertex pair, the matrix the state holds, plus
    about 1 MB for one block's temporaries.
    """
    if rng is None:
        raise InvalidParameterError("rng is required")
    n = _size(n, "vertex count", 2, _INT64_MAX)
    cprof = concordant_profile or conflict_concordant_profile
    dprof = discordant_profile or conflict_discordant_profile
    pos = np.arange(n) / n
    ops = (rng.random(n) < 0.5).astype(np.int8)

    def prob(iu, iv):
        x, y = pos[iu], pos[iv]
        pc = np.asarray(cprof(x, y), dtype=float)
        pd = np.asarray(dprof(x, y), dtype=float)
        for name, arr in (("concordant", pc), ("discordant", pd)):
            if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
                raise InvalidParameterError(f"{name} profile leaves [0,1]")
        return np.where(ops[iu] == ops[iv], pc, pd)

    return DenseState.__new__(DenseState)._hold(ops,
                                                _pair_coins(n, prob, rng))


def run_dense(state: DenseState, eta, rho, s: SwitchProbs, horizon, schedule,
              rng, *, max_events=10**9, check=False) -> DenseTrajectory:
    """Dense co-evolution: vertices rethink opinions at rate eta times their
    degree (adopting a uniform neighbour), pairs rethink their connection at
    rate rho with class-dependent switch weights.

    Degree-proportional vertex choice plus uniform-neighbour adoption is
    realized as a uniform ordered edge draw.  Weights above 1 run the pair
    stream at rate rho*C(n,2)*max_weight with acceptance s/max_weight.
    Consensus freezes the opinions but the pair flow continues to the
    horizon.  The input state is not mutated.

    The run copies the state's opinions and adjacency matrix into
    bytearrays, with numpy views over the same bytes: a pair step reads and
    writes single bytes, and a flip counts the flipped vertex's row, its
    degree and its heart neighbours, through the views.  An opinion step
    draws from the edges as a table of pair ids i*n + j (i < j), row-major
    at the start, with a table of positions indexed by id; a toggle
    appends an id or moves the last into the hole, in the format of
    ``_sset``.  Both tables are ``array('i')`` (``'q'`` once n^2 passes
    2^31 - 1), so the run takes about 2 B per vertex pair for the matrix,
    8 for the positions and 4 per edge, and peaks near 14 B per vertex
    pair on the positional start.  The run copies the state's read-only
    arrays once and starts from the state's counts.

    Once the opinions are unanimous every pair is concordant, and each
    pair's connection is an independent two-state chain: it is added at
    rate a = rho*s_c0 and removed at rate b = rho*s_c1.  The run then
    leaves the event loop and carries the edge count E over each gap of
    length d to the next sample time and to the horizon exactly, as
    Bin(E, pi + (1-pi)e^(-lam d)) + Bin(C(n,2) - E, pi(1 - e^(-lam d)))
    with lam = a + b and pi = a/lam (E stays put when lam = 0), drawn from
    ``rng``.  ``n_events`` counts every proposal before consensus and only
    the pair proposals after it, one Poisson(rho*C(n,2)*max_weight*d) draw
    per gap; a gap that crosses ``max_events`` raises SimulationTimeout
    with the samples before it.  ``check=True`` keeps the event loop to the
    horizon and, at every sample time, recounts the hearts, edges and
    concordant edges from the views against the maintained ones.  The
    cost grows linearly with rho times the horizon: rho = 1e12 runs to
    ``max_events`` (1e9 by default, minutes) in a unit of time.
    """
    _real(eta, "eta", 0, math.inf)
    _real(rho, "rho", 0, math.inf)
    n = _size(state.n, "vertex count", 2)
    max_events = _cap(max_events)
    sched = _times(schedule, horizon)
    if horizon is None or not 0.0 <= horizon < math.inf:
        raise InvalidParameterError("dense runs need a finite horizon >= 0")

    npairs = n * (n - 1) // 2
    opb = bytearray(state.opinions)
    adjb = bytearray(state.adj)
    opv = np.frombuffer(opb, dtype=np.int8)
    adj = np.frombuffer(adjb, dtype=bool).reshape(n, n)
    hearts = opv.view(bool)
    count = np.count_nonzero
    code = "i" if n * n <= 2**31 - 1 else "q"
    ids = np.flatnonzero(np.triu(adj, k=1)).astype(code)
    edge_items = array(code, [0]) * len(ids)
    # a stale position is never read: adjb says which pairs are edges
    edge_pos = array(code, [-1]) * (n * n)
    # each view dies with its statement: an array with a live view can
    # neither grow nor shrink
    np.frombuffer(edge_items, dtype=code)[:] = ids
    np.frombuffer(edge_pos, dtype=code)[ids] = np.arange(len(ids), dtype=code)
    heart, ecount, econc = \
        state.heart_count, state.edge_count, state.edge_conc_count

    envelope = max(1.0, s.max_weight)
    pair_total = rho * npairs * envelope
    rr = _derive_rnd(rng).random

    rows = []  # one per sample time, in DenseTrajectory's field order
    si = 0
    t = 0.0
    events = 0
    cons_t = 0.0 if heart in (0, n) else None
    chain = cons_t is not None and not check

    def flush(limit):
        nonlocal si
        counts = (heart, ecount, econc)
        kept = _pair_classes(n, *counts)
        while si < len(sched) and sched[si] < limit:
            rows.append((sched[si], heart / n, ecount / npairs,
                         *(x / npairs for x in kept)))
            if check and _counts(opv, adj) != counts:
                raise AssertionError(f"pair-class bookkeeping diverged: "
                                     f"{_counts(opv, adj)} != {counts}")
            si += 1

    while not chain:
        vertex_total = 2.0 * eta * ecount
        total = vertex_total + pair_total
        if total <= 0.0:
            break
        if events >= max_events:
            raise SimulationTimeout(
                f"dense run exceeded max_events={max_events} at t={t:.6g}",
                partial=_dense_traj(rows, cons_t, events, ecount))
        t_next = t - math.log(1.0 - rr()) / total
        if si < len(sched) and sched[si] < t_next:
            flush(t_next)
        if t_next > horizon:
            t = horizon
            break
        t = t_next
        events += 1
        if rr() * total < vertex_total:
            # opinion rethink: uniform ordered edge, tail adopts head
            i, j = divmod(edge_items[int(rr() * ecount)], n)
            if rr() < 0.5:
                i, j = j, i
            oi = opb[i]
            oj = opb[j]
            if oi != oj:
                # the old opinion's share of the row: econc loses the
                # concordant edges at i and gains the discordant ones
                row = adj[i]
                deg = count(row)
                hn = count(row & hearts)
                econc += deg - 2 * (hn if oi else deg - hn)
                opb[i] = oj
                heart += 1 if oj == 1 else -1
                if heart in (0, n):
                    cons_t = t
                    chain = not check
        else:
            i = int(rr() * n)
            j = int(rr() * (n - 1))
            if j >= i:
                j += 1
            ij = i * n + j
            connected = adjb[ij]
            conc = opb[i] == opb[j]
            if connected:
                w = s.s_c1 if conc else s.s_d1
            else:
                w = s.s_c0 if conc else s.s_d0
            if w > 0.0 and rr() * envelope < w:
                ji = j * n + i
                e = ij if i < j else ji
                if connected:
                    adjb[ij] = adjb[ji] = 0
                    ecount -= 1
                    econc -= 1 if conc else 0
                    k = edge_pos[e]
                    last = edge_items.pop()
                    if last != e:
                        edge_items[k] = last
                        edge_pos[last] = k
                else:
                    adjb[ij] = adjb[ji] = 1
                    ecount += 1
                    econc += 1 if conc else 0
                    edge_pos[e] = len(edge_items)
                    edge_items.append(e)

    if chain:
        a, b = rho * s.s_c0, rho * s.s_c1
        lam = a + b
        for u in sched[si:] + [horizon]:
            gap = u - t
            mu = pair_total * gap
            # numpy draws a Poisson mean only up to about 9.2e18, and no
            # run gets through that many events
            k = int(rng.poisson(mu)) if mu < 1e18 else math.inf
            if events + k > max_events:
                raise SimulationTimeout(
                    f"dense run exceeded max_events={max_events} after "
                    f"t={t:.6g}",
                    partial=_dense_traj(rows, cons_t, max_events, ecount))
            events += k
            if lam > 0.0:
                gone = -math.expm1(-lam * gap)
                ecount = int(rng.binomial(ecount, 1.0 - b / lam * gone)) \
                    + int(rng.binomial(npairs - ecount, a / lam * gone))
            econc = ecount
            t = u
            flush(math.nextafter(u, math.inf))

    flush(math.inf)
    return _dense_traj(rows, cons_t, events, ecount)


def _dense_traj(rows, cons_t, events, ecount) -> DenseTrajectory:
    cols = np.array(rows, dtype=float).reshape(-1, 7).T.copy()
    return DenseTrajectory(*cols, consensus_time=cons_t, n_events=events,
                           final_edge_count=ecount)
