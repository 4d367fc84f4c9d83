"""Exact event-driven voter dynamics on a (possibly rewired) graph.

The simulation is Gillespie on the embedded jump chain of the *effective*
process: only state-changing events are scheduled.  A vertex adoption along
a concordant edge changes nothing, so the voter stream is driven by the
discordant edge slots, each slot {u,v} firing a flip of u at rate 1/deg(u)
and of v at rate 1/deg(v).  This has exactly the law of "every vertex at
rate 1 copies a uniform incident edge slot" after discarding no-ops, and it
keeps long consensus runs tractable.  Rewiring clocks are aggregated into a
single Poisson stream with a uniform pair draw per event, which is exact by
superposition.

Observables are recorded by carrying the state to each scheduled time
(piecewise constant between events).  Runs are deterministic given
(graph, seed, parameters).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._sset import drop, refile
from .errors import InvalidParameterError, SimulationTimeout
from .graphs import DirectedGraph, Graph, count_discordant, swap_endpoints

__all__ = [
    "OpinionState",
    "Trajectory",
    "REWIRE_RATE_CONVENTION",
    "DEFAULT_MAX_EVENTS",
    "init_opinions_iid",
    "run_voter",
    "run_voter_directed",
    "run_voter_rewiring",
    "consensus_time",
]


DEFAULT_MAX_EVENTS = 10**9

# Rewiring clock convention.  "pair" is the literal reading: every unordered
# pair of edge slots swaps at rate nu/(2M), so a given edge is involved at
# rate (M-1)*nu/(2M) -> nu/2.  "edge" doubles the pair rate to nu/M so the
# per-edge involvement rate tends to nu, the normalisation under which the
# continued-fraction constant theta_{d,nu} describes the plateau.  The
# factor-2 ambiguity is deliberate and surfaced here rather than resolved
# silently.
REWIRE_RATE_CONVENTION = "pair"


@dataclass
class OpinionState:
    """Opinion vector plus maintained counts."""

    opinions: list[int]
    heart_count: int
    discordant_count: int | None = None

    @property
    def n(self) -> int:
        return len(self.opinions)


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


def init_opinions_iid(n, u, rng, g=None) -> OpinionState:
    """i.i.d. Bernoulli(u) hearts; counts filled in (discordance iff g given)."""
    if not 0.0 <= u <= 1.0:
        raise InvalidParameterError("u must be in [0,1]")
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    ops = (rng.random(n) < u).astype(np.int8).tolist()
    disc = count_discordant(g, ops) if g is not None else None
    return OpinionState(opinions=ops, heart_count=sum(ops), discordant_count=disc)


def _prepared_schedule(schedule, horizon):
    sched = [float(x) for x in schedule]
    if any(x < 0 for x in sched):
        raise InvalidParameterError("schedule times must be >= 0")
    if horizon is not None and any(x > horizon for x in sched):
        raise InvalidParameterError("schedule times must lie in [0, horizon]")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise InvalidParameterError("schedule must be strictly increasing")
    return sched


def _derive_rnd(rng) -> random.Random:
    # one numpy draw seeds a stdlib generator; the hot loops then run on
    # random.Random, whose scalar draws are several times cheaper
    return random.Random(int(rng.integers(1 << 63)))


class _Samples:
    """The (heart, discordant) fractions of a run carried to each schedule
    time.  ``next`` is the first time not yet recorded, inf once all are."""

    __slots__ = ("sched", "si", "next", "t", "h", "d")

    def __init__(self, schedule, horizon):
        self.sched = _prepared_schedule(schedule, horizon) + [math.inf]
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
# undirected engine (voter + optional rewiring superposition)
# ----------------------------------------------------------------------

def _voter_engine(g: Graph, state: OpinionState, nu, horizon, schedule, rng,
                  rate_convention, max_events, check, mutate_graph):
    n, m = g.n, g.m
    if n == 0 or m == 0:
        raise InvalidParameterError("graph must have at least one edge")
    if len(state.opinions) != n:
        raise InvalidParameterError("opinion vector length != vertex count")
    if nu < 0:
        raise InvalidParameterError("rewiring rate must be >= 0")
    if nu > 0 and m < 2:
        raise InvalidParameterError("rewiring needs at least two edges")
    if rate_convention not in ("pair", "edge"):
        raise InvalidParameterError(f"unknown rate convention {rate_convention!r}")
    samples = _Samples(schedule, horizon)

    if nu > 0:
        if not mutate_graph:
            g = g.copy()
        g.allows_self_loops = True
        g.allows_multi_edges = True
    eu, ev, inc = g.eu, g.ev, g.inc
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
        pair_rate = nu / (2.0 * m) if rate_convention == "pair" else nu / m
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
        nd = len(disc_items)
        if check and nd != count_discordant(g, ops):
            raise AssertionError("discordance bookkeeping diverged")
        samples.record(limit, heart / n, nd / m)

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
                W = drop(pair, disc_items, disc_pos, eu, ev, inv, inv, W)
            swap_endpoints(eu, ev, inc, i, j, rnd_random() < 0.5)
            W = refile(pair, disc_items, disc_pos, eu, ev, ops, inv, inv, W)

    flush(math.inf)
    return samples.traj(cons_t, cons_v, events)


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


def run_voter(g: Graph, state: OpinionState, horizon, schedule, rng, *,
              max_events=DEFAULT_MAX_EVENTS, check=False) -> Trajectory:
    """Voter model on a fixed graph: each vertex at rate 1 copies the opinion
    across a uniform incident edge slot (multi-edges weight adoption,
    self-loop slots are no-ops).

    On a K_n whose edge lists were never read (``g.implicit_complete``) the
    heart-count chain runs instead, in O(1) per event; ``check=True`` takes
    the per-edge engine, which builds the lists.
    """
    if isinstance(g, Graph) and g.implicit_complete and not check:
        return _voter_complete_engine(g.n, sum(state.opinions), horizon,
                                      schedule, rng, max_events)
    return _voter_engine(g, state, 0.0, horizon, schedule, rng,
                         "pair", max_events, check, mutate_graph=False)


def run_voter_rewiring(g: Graph, state: OpinionState, nu, horizon, schedule,
                       rng, *, rate_convention=REWIRE_RATE_CONVENTION,
                       max_events=DEFAULT_MAX_EVENTS, check=False,
                       mutate_graph=False) -> Trajectory:
    """Voter dynamics superposed with degree-preserving random edge swaps.

    With nu=0 this is byte-identical to :func:`run_voter` on the same seed.
    Unless ``mutate_graph`` is set the caller's graph is left untouched.
    """
    return _voter_engine(g, state, nu, horizon, schedule, rng,
                         rate_convention, max_events, check, mutate_graph)


def run_voter_directed(g: DirectedGraph, state: OpinionState, horizon,
                       schedule, rng, *, adopt_from="out",
                       max_events=DEFAULT_MAX_EVENTS, check=False) -> Trajectory:
    """Directed voter model; discordance is counted over arcs.

    adopt_from="out": each vertex at rate 1 copies a uniform out-neighbour
    (so the tail of a discordant arc flips); "in" uses in-neighbours instead.
    """
    n, m = g.n, g.m
    if n == 0 or m == 0:
        raise InvalidParameterError("graph must have at least one arc")
    if len(state.opinions) != n:
        raise InvalidParameterError("opinion vector length != vertex count")
    if adopt_from not in ("out", "in"):
        raise InvalidParameterError("adopt_from must be 'out' or 'in'")
    samples = _Samples(schedule, horizon)

    # us[a] is the end of arc a that copies the other end vs[a]
    if adopt_from == "out":
        us, vs, degs = g.tails, g.heads, g.out_degrees()
    else:
        us, vs, degs = g.heads, g.tails, g.in_degrees()
    if any(d == 0 for d in degs):
        raise InvalidParameterError(
            f"every vertex needs {adopt_from}-degree >= 1")
    ops = list(state.opinions)
    heart = sum(ops)
    dmin, dmax = min(degs), max(degs)
    regular = dmin == dmax
    wmax = 1.0 / dmin
    # a discordant arc flips us[a] at rate 1/deg(us[a]) and never vs[a]
    inv = None if regular else [1.0 / d for d in degs]
    zero = None if regular else [0.0] * n
    inc = [o + i for o, i in zip(g.out_adj, g.in_adj)]
    disc_items: list[int] = []
    disc_pos: dict[int, int] = {}
    W = refile(range(m), disc_items, disc_pos, us, vs, ops, inv, zero)

    rnd = _derive_rnd(rng)
    rnd_random = rnd.random
    t = 0.0
    events = 0
    cons_t = cons_v = None
    absorbed = heart == 0 or heart == n
    if absorbed:
        cons_t, cons_v = 0.0, ops[0]

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
        W = refile(inc[flip], disc_items, disc_pos, us, vs, ops, inv, zero, W)
        if heart == 0 or heart == n:
            absorbed = True
            cons_t, cons_v = t, ops[0]

    samples.record(math.inf, heart / n, len(disc_items) / m)
    return samples.traj(cons_t, cons_v, events)


def consensus_time(g, state: OpinionState, rng, *,
                   max_events=DEFAULT_MAX_EVENTS, nu=0.0,
                   rate_convention=REWIRE_RATE_CONVENTION) -> float:
    """Run until absorption and return the consensus time.

    A frozen non-consensus state (possible on disconnected graphs) cannot
    reach consensus; that is reported as a timeout rather than spinning.
    """
    if isinstance(g, DirectedGraph):
        traj = run_voter_directed(g, state, None, [], rng, max_events=max_events)
    elif nu > 0:
        traj = run_voter_rewiring(g, state, nu, None, [], rng,
                                  rate_convention=rate_convention,
                                  max_events=max_events)
    else:
        traj = run_voter(g, state, None, [], rng, max_events=max_events)
    if traj.consensus_time is None:
        raise SimulationTimeout("dynamics froze without consensus "
                                "(graph disconnected?)", partial=traj)
    return traj.consensus_time
