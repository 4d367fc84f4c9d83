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
from dataclasses import dataclass

import numpy as np

from ._sset import SampleableSet, drop, refile
from .dynamics import _derive_rnd, _mk_traj, _prepared_schedule
from .errors import InvalidParameterError, SimulationTimeout
from .graphs import generate_erdos_renyi, generate_gnm
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


@dataclass
class AbsorptionOutcome:
    absorption_time: float | None
    final_heart_fraction: float
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
    n_events: int = 0
    final_edge_count: int = 0


def classify_outcome(state_or_heart, n_vertices=None, n_discordant=None) -> str:
    """CONSENSUS if one opinion died out, POLARISATION if both persist with
    no discordant connected pair, UNRESOLVED otherwise (horizon/step cap)."""
    if isinstance(state_or_heart, DenseState):
        heart = state_or_heart.heart_count
        n = state_or_heart.n
        disc = state_or_heart.edge_disc
    else:
        heart, n, disc = state_or_heart, n_vertices, n_discordant
    if heart in (0, n):
        return CONSENSUS
    if disc == 0:
        return POLARISATION
    return UNRESOLVED


# ----------------------------------------------------------------------
# detach/reattach rewiring on a sparse evolving graph
# ----------------------------------------------------------------------

class _Recorder:
    """Adaptive-stride trajectory recorder: keeps at most ~2*cap samples by
    doubling the stride, always including the first sample."""

    def __init__(self, cap=2048):
        self.cap = cap
        self.stride = 1
        self.count = 0
        self.t = []
        self.h = []
        self.d = []

    def maybe(self, t, h, d):
        if self.count % self.stride == 0:
            self.t.append(t)
            self.h.append(h)
            self.d.append(d)
            if len(self.t) >= 2 * self.cap:
                self.t = self.t[::2]
                self.h = self.h[::2]
                self.d = self.d[::2]
                self.stride *= 2
        self.count += 1

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


def run_rewire_model(n, beta, variant, rng, *, max_events=2_000_000,
                     initial_graph=None, initial_opinions=None):
    """Edge-clock co-evolution: start from ER(n, 1/2) with fair-coin opinions;
    each open edge rings at rate 1, but only discordant rings act.  A ring
    adopts with probability beta/n, otherwise a uniform endpoint keeps the
    edge and it reattaches to a uniform vertex drawn from all vertices
    (TO_RANDOM, self-loops possible) or from the other vertices sharing the
    keeper's opinion (TO_SAME; no-op if there are none).

    Returns (AbsorptionOutcome, Trajectory); hitting max_events yields
    verdict UNRESOLVED with the partial trajectory.
    """
    if beta <= 0:
        raise InvalidParameterError("beta must be > 0")
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    variant = variant.upper().replace("-", "_")
    if variant not in (TO_RANDOM, TO_SAME):
        raise InvalidParameterError(f"unknown variant {variant!r}")

    g = initial_graph.copy() if initial_graph is not None \
        else generate_erdos_renyi(n, 0.5, rng)
    if initial_opinions is not None:
        ops = list(initial_opinions)
        if len(ops) != n:
            raise InvalidParameterError("opinion vector length != n")
    else:
        ops = (rng.random(n) < 0.5).astype(np.int8).tolist()
    rnd = _derive_rnd(rng)
    rr = rnd.random

    eu, ev = g.eu, g.ev
    m = g.m
    inc = [set() for _ in range(n)]
    for e in range(m):
        inc[eu[e]].add(e)
        inc[ev[e]].add(e)
    heart = sum(ops)
    by_op = (SampleableSet(v for v in range(n) if ops[v] == 0),
             SampleableSet(v for v in range(n) if ops[v] == 1))
    disc_items, disc_pos = [], {}
    refile(range(m), disc_items, disc_pos, eu, ev, ops)

    adopt_p = beta / n
    t = 0.0
    events = 0
    rec = _Recorder()
    maybe = rec.maybe
    log = math.log
    maybe(0.0, heart / n, len(disc_items) / m if m else 0.0)
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
            flip, other = (u, v) if rr() < 0.5 else (v, u)
            old = ops[flip]
            ops[flip] = ops[other]
            heart += 1 if ops[other] == 1 else -1
            by_op[old].discard(flip)
            by_op[1 - old].add(flip)
            refile(inc[flip], disc_items, disc_pos, eu, ev, ops)
        else:
            keep, lose = (u, v) if rr() < 0.5 else (v, u)
            if variant == TO_RANDOM:
                w = int(rr() * n)
            else:
                cand = by_op[ops[keep]]
                if len(cand) == 1:
                    # keeper is the last of its opinion: nowhere to reattach
                    events += 1
                    maybe(t, heart / n, len(disc_items) / m)
                    continue
                w = keep
                while w == keep:
                    w = cand.pick(rnd)
            if w != lose:
                inc[lose].discard(e)
                inc[w].add(e)
                eu[e] = keep
                ev[e] = w
            if ops[keep] == ops[w]:  # else e is still the discordant slot it was
                drop((e,), disc_items, disc_pos, eu, ev)
        events += 1
        maybe(t, heart / n, len(disc_items) / m)

    return rec.finish(t, ops, heart, len(disc_items), m, events, resolved)


def run_holme_newman(n, m_edges, beta, rng, *, max_steps=10_000_000,
                     initial_graph=None):
    """Discrete-time co-evolution: per step a uniform vertex either rewires
    one of its edges to a uniform same-opinion vertex (prob beta) or adopts
    across a uniform incident edge (prob 1-beta).  Isolated picks are no-ops.
    Time is counted in steps; stops when no discordant edge remains.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError("beta must be in [0,1]")
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    g = initial_graph.copy() if initial_graph is not None \
        else generate_gnm(n, m_edges, rng)
    ops = (rng.random(n) < 0.5).astype(np.int8).tolist()
    rnd = _derive_rnd(rng)
    rr = rnd.random

    eu, ev, inc = g.eu, g.ev, g.inc
    m = g.m
    heart = sum(ops)
    by_op = (SampleableSet(v for v in range(n) if ops[v] == 0),
             SampleableSet(v for v in range(n) if ops[v] == 1))
    disc_items, disc_pos = [], {}
    refile(range(m), disc_items, disc_pos, eu, ev, ops)

    steps = 0
    rec = _Recorder()
    maybe = rec.maybe
    maybe(0.0, heart / n, len(disc_items) / m if m else 0.0)
    resolved = True
    while disc_items:
        if steps >= max_steps:
            resolved = False
            break
        steps += 1
        v = int(rr() * n)
        dv = len(inc[v])
        if dv == 0:
            maybe(float(steps), heart / n, len(disc_items) / m)
            continue
        e = inc[v][int(rr() * dv)]
        other = ev[e] if eu[e] == v else eu[e]
        if rr() < beta:
            cand = by_op[ops[v]]
            if len(cand) > 1:
                w = v
                while w == v:
                    w = cand.pick(rnd)
                if w != other:
                    inc[other].remove(e)
                    inc[w].append(e)
                    eu[e] = v
                    ev[e] = w
                if e in disc_pos:  # e now joins two vertices of one opinion
                    drop((e,), disc_items, disc_pos, eu, ev)
        elif ops[v] != ops[other]:
            old = ops[v]
            ops[v] = ops[other]
            heart += 1 if ops[other] == 1 else -1
            by_op[old].discard(v)
            by_op[1 - old].add(v)
            refile(inc[v], disc_items, disc_pos, eu, ev, ops)
        maybe(float(steps), heart / n, len(disc_items) / m)

    return rec.finish(float(steps), ops, heart, len(disc_items), m, steps,
                      resolved)


# ----------------------------------------------------------------------
# dense pairwise model
# ----------------------------------------------------------------------

class DenseState:
    """Opinions plus a symmetric adjacency bit matrix with maintained pair
    class counts (connected/disconnected x concordant/discordant).

    Only heart_count, edge count and the connected-concordant count are
    updated per event; the other classes follow arithmetically from them,
    which keeps flips O(n) and pair toggles O(1).
    """

    def __init__(self, opinions, adj):
        opinions = np.asarray(opinions, dtype=np.int8)
        adj = np.asarray(adj, dtype=bool)
        n = len(opinions)
        if adj.shape != (n, n):
            raise InvalidParameterError("adjacency must be n x n")
        if np.any(adj != adj.T):
            raise InvalidParameterError("adjacency must be symmetric")
        if np.any(np.diag(adj)):
            raise InvalidParameterError("no self-pairs in the dense model")
        self.opinions = opinions.copy()
        self.adj = adj.copy()
        self.n = n
        self.heart_count = int(np.count_nonzero(self.opinions == 1))
        self.degrees = self.adj.sum(axis=1).astype(np.int64)
        iu, iv = np.nonzero(np.triu(self.adj, k=1))
        self.edges = SampleableSet(zip(iu.tolist(), iv.tolist()))
        self.edge_count = len(self.edges)
        same = self.opinions[iu] == self.opinions[iv]
        self.edge_conc_count = int(np.count_nonzero(same))

    @classmethod
    def iid(cls, n, p0, q0, rng) -> "DenseState":
        """Independent fair pair coins: edges with prob p0, hearts with q0."""
        if not (0.0 <= p0 <= 1.0 and 0.0 <= q0 <= 1.0):
            raise InvalidParameterError("densities must be in [0,1]")
        ops = (rng.random(n) < q0).astype(np.int8)
        adj = np.zeros((n, n), dtype=bool)
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < p0
        adj[iu[keep], iv[keep]] = True
        adj |= adj.T
        return cls(ops, adj)

    @property
    def n_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_disc(self) -> int:
        return self.edge_count - self.edge_conc_count

    def pair_class_counts(self):
        """(edge_conc, edge_disc, nonedge_conc, nonedge_disc); sums to C(n,2)."""
        return _pair_classes(self.n, self.heart_count, self.edge_count,
                             self.edge_conc_count)

    def recount(self):
        """Brute-force recount of the four pair classes from the matrices,
        in the order of :meth:`pair_class_counts`."""
        iu, iv = np.triu_indices(self.n, k=1)
        conn = self.adj[iu, iv]
        same = self.opinions[iu] == self.opinions[iv]
        return (int(np.count_nonzero(conn & same)),
                int(np.count_nonzero(conn & ~same)),
                int(np.count_nonzero(~conn & same)),
                int(np.count_nonzero(~conn & ~same)))

    def copy(self) -> "DenseState":
        return DenseState(self.opinions, self.adj)


def _pair_classes(n, heart, ecount, econc):
    """The four pair-class counts from the heart, edge and connected-
    concordant counts, in the order of DenseState.pair_class_counts."""
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
    """
    if rng is None:
        raise InvalidParameterError("rng is required")
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    cprof = concordant_profile or conflict_concordant_profile
    dprof = discordant_profile or conflict_discordant_profile
    pos = np.arange(n) / n
    ops = (rng.random(n) < 0.5).astype(np.int8)
    iu, iv = np.triu_indices(n, k=1)
    pc = np.asarray(cprof(pos[iu], pos[iv]), dtype=float)
    pd = np.asarray(dprof(pos[iu], pos[iv]), dtype=float)
    for name, arr in (("concordant", pc), ("discordant", pd)):
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise InvalidParameterError(f"{name} profile leaves [0,1]")
    prob = np.where(ops[iu] == ops[iv], pc, pd)
    adj = np.zeros((n, n), dtype=bool)
    keep = rng.random(len(iu)) < prob
    adj[iu[keep], iv[keep]] = True
    adj |= adj.T
    return DenseState(ops, adj)


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
    """
    if eta < 0 or rho < 0:
        raise InvalidParameterError("rates must be >= 0")
    if state.n < 2:
        raise InvalidParameterError("need n >= 2")
    if horizon is None:
        raise InvalidParameterError("dense runs need a finite horizon")
    sched = _prepared_schedule(schedule, horizon)

    st = state.copy()
    n = st.n
    npairs = st.n_pairs
    ops = st.opinions
    adj = st.adj
    degrees = st.degrees
    edges = st.edges
    heart = st.heart_count
    ecount = st.edge_count
    econc = st.edge_conc_count

    envelope = max(1.0, s.max_weight)
    pair_total = rho * npairs * envelope
    rnd = _derive_rnd(rng)
    rr = rnd.random

    out = {k: [] for k in ("t", "q", "p", "ce", "de", "cn", "dn")}
    si = 0
    t = 0.0
    events = 0
    cons_t = None
    if heart in (0, n):
        cons_t = 0.0

    def flush(limit):
        nonlocal si
        kept = _pair_classes(n, heart, ecount, econc)
        ec, ed, nc, nd = kept
        while si < len(sched) and sched[si] < limit:
            out["t"].append(sched[si])
            out["q"].append(heart / n)
            out["p"].append(ecount / npairs)
            out["ce"].append(ec / npairs)
            out["de"].append(ed / npairs)
            out["cn"].append(nc / npairs)
            out["dn"].append(nd / npairs)
            if check and st.recount() != kept:
                raise AssertionError(f"pair-class bookkeeping diverged: "
                                     f"{st.recount()} != {kept}")
            si += 1

    while True:
        vertex_total = 2.0 * eta * ecount
        total = vertex_total + pair_total
        if total <= 0.0:
            break
        if events >= max_events:
            raise SimulationTimeout(
                f"dense run exceeded max_events={max_events} at t={t:.6g}",
                partial=_dense_traj(out, cons_t, events, ecount))
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
            i, j = edges.pick(rnd)
            if rr() < 0.5:
                i, j = j, i
            oi = int(ops[i])
            oj = int(ops[j])
            if oi != oj:
                nb = adj[i]
                c_same_old = int(np.count_nonzero(ops[nb] == oi))
                econc += int(degrees[i]) - 2 * c_same_old
                ops[i] = oj
                heart += 1 if oj == 1 else -1
                if heart in (0, n) and cons_t is None:
                    cons_t = t
        else:
            i = int(rr() * n)
            j = int(rr() * (n - 1))
            if j >= i:
                j += 1
            connected = adj[i, j]
            conc = ops[i] == ops[j]
            if connected:
                w = s.s_c1 if conc else s.s_d1
            else:
                w = s.s_c0 if conc else s.s_d0
            if w > 0.0 and rr() * envelope < w:
                key = (i, j) if i < j else (j, i)
                if connected:
                    adj[i, j] = adj[j, i] = False
                    degrees[i] -= 1
                    degrees[j] -= 1
                    ecount -= 1
                    econc -= 1 if conc else 0
                    edges.discard(key)
                else:
                    adj[i, j] = adj[j, i] = True
                    degrees[i] += 1
                    degrees[j] += 1
                    ecount += 1
                    econc += 1 if conc else 0
                    edges.add(key)

    flush(math.inf)
    return _dense_traj(out, cons_t, events, ecount)


def _dense_traj(out, cons_t, events, ecount) -> DenseTrajectory:
    return DenseTrajectory(
        times=np.asarray(out["t"]),
        q=np.asarray(out["q"]),
        p=np.asarray(out["p"]),
        conc_edge=np.asarray(out["ce"]),
        disc_edge=np.asarray(out["de"]),
        conc_nonedge=np.asarray(out["cn"]),
        disc_nonedge=np.asarray(out["dn"]),
        consensus_time=cons_t,
        n_events=events,
        final_edge_count=ecount,
    )
