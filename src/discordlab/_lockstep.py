"""Lockstep voter ensembles: the replicas of an ensemble on static graphs,
undirected (rrg, ER) or directed (dcm), stepped together in numpy under the
literal clock.

Every vertex carries a rate-1 clock and, when it rings, copies the opinion
across a uniform one of its copying slots: any incident edge slot of an
undirected graph, or on a directed graph an arc that leaves it (it copies a
uniform out-neighbour) or, with ``adopt_from="in"``, enters it.  Steps that
change nothing are kept.  The steps of a replica on N vertices then form a
Poisson process of rate N whose sequence of moves does not depend on the
step times (uniformization, Jensen 1953).  So the number of steps between
two sample times is Poisson(N * gap), drawn up front, and the state at a
sample time is the state after that many steps.  This is the law of the
single-run engines in :mod:`dynamics`, ``run_voter`` and
``run_voter_directed``, which run the same literal clock one replica and
one proposal at a time; the random stream differs.

When every copying degree is equal, a move is a uniform copying slot: a
uniform half-edge, or a uniform arc read in its copying direction.
Otherwise it is a uniform vertex and a uniform slot of it, through a CSR of
the copying slots, sorted stably by owner one chunk of replicas at a time.

A pass does one step for every replica that has steps left in the current
gap.  Within a gap the replicas are ordered by step count, so the replicas
of a pass are a prefix, and the moves of a block of passes are drawn and
resolved to vertex indices in bulk.  A pass is one gather and one scatter,
and so is a pair of passes that every replica of the block takes, unless
a replica's second step in it reads or writes the vertex its first step
wrote; such a pair is played pass by pass (see ``_passes``).  Heart counts
are recounted at the end of each block.  A replica whose heart count is
within reach of 0 or N in a block (or, when the event cap is within reach,
of its cap) has its opinions copied first; if the block ends with it
absorbed (or past its cap) the block is replayed for it alone, which finds
the exact step.  Discordant edges are recounted at each sample time, one
chunk of whole replicas at a time: one ``take`` of the opinions at the
chunk's endpoints, whose two bytes per edge are read as one 16-bit word.
"""

from __future__ import annotations

import numpy as np

# moves drawn per block, and endpoints per chunk of replicas for the recount
# (one ``take``, which copies the int32 ids to intp indices) and the CSR
# sort: bound the temporary index arrays (8 bytes an entry)
_BLOCK_STEPS = 1 << 15
# passes played by one gather and one scatter where no replica's steps in
# them conflict
_FUSED = 2


class Packed:
    """R replica graphs on n vertices each, with their opinions, in flat
    arrays.  Vertex ``v`` of replica ``r`` is ``r * n + v``; edge ``e`` of
    replica ``r`` joins ``ends[2e]`` and ``ends[2e + 1]`` for
    ``ecut[r] <= e < ecut[r + 1]``.  Either end of an edge copies the
    other; with ``directed`` the edges are arcs packed as (copying end,
    copied end), and only ``ends[2e]`` copies ``ends[2e + 1]``."""

    def __init__(self, n, ends, ecut, ops, directed=False):
        self.n = n
        self.R = len(ecut) - 1
        self.ends = ends      # int32, global vertex ids
        self.ecut = ecut      # int64, edge offsets per replica
        self.ops = ops        # int8, R * n opinions
        # copying ends are every ``step``-th entry of ``ends``
        self.step = 2 if directed else 1
        # ranges r:s of replicas, each one replica or as many whole replicas
        # as have ``_BLOCK_STEPS`` endpoints between them
        self.chunks, r = [], 0
        while r < self.R:
            s = max(r + 1, int(np.searchsorted(
                ecut, ecut[r] + _BLOCK_STEPS // 2, side="right")) - 1)
            self.chunks.append((r, s))
            r = s
        deg = np.empty(self.R * n, dtype=np.int32)
        for r, s in self.chunks:
            deg[r * n:s * n] = np.bincount(
                ends[2 * ecut[r]:2 * ecut[s]:self.step] - r * n,
                minlength=(s - r) * n)
        self.regular = bool(deg.min() == deg.max())
        if not self.regular:
            # CSR of the copying slots of each vertex, in the order of
            # ``ends``; an isolated vertex gets one slot to itself, so that
            # its steps are no-ops like a self-loop's.  Chunks hold disjoint
            # ranges of ids, so a stable sort by owner within each chunk
            # gives the order of one over the whole pack
            self.deg = np.maximum(deg, 1)
            self.off = np.concatenate([[0], np.cumsum(self.deg)[:-1]])
            self.nbr = np.empty(self.off[-1] + self.deg[-1], dtype=np.int32)
            iso = np.flatnonzero(deg == 0).astype(np.int32)
            for r, s in self.chunks:
                lo, hi = 2 * ecut[r], 2 * ecut[s]
                if directed:
                    owner, other = ends[lo:hi:2], ends[lo + 1:hi:2]
                else:
                    owner = ends[lo:hi]
                    other = owner.reshape(-1, 2)[:, ::-1].ravel()
                i, j = np.searchsorted(iso, (r * n, s * n))
                owner = np.concatenate([owner, iso[i:j]]) - r * n
                if (s - r) * n <= 1 << 16:
                    # numpy sorts 16-bit keys stably by radix
                    owner = owner.astype(np.uint16)
                at = self.off[r * n]
                self.nbr[at:at + len(owner)] = np.concatenate(
                    [other, iso[i:j]])[np.argsort(owner, kind="stable")]

    def discordant(self) -> np.ndarray:
        """Discordant edges of every replica (self-loops never are)."""
        out = np.empty(self.R, dtype=np.int64)
        ecut = self.ecut
        for r, s in self.chunks:
            # the opinions of an edge's ends, 0/1 bytes side by side, read
            # as one 16-bit word: 1 or 256 (in either byte order) when they
            # differ
            pair = self.ops.take(
                self.ends[2 * ecut[r]:2 * ecut[s]]).view(np.uint16)
            out[r:s] = np.add.reduceat((pair == 1) | (pair == 256),
                                       ecut[r:s] - ecut[r], dtype=np.int64)
        return out

    def hearts(self, rows) -> np.ndarray:
        return np.count_nonzero(self.ops.reshape(self.R, self.n)[rows], axis=1)

    def moves(self, rows, shape, rng):
        """Copying and copied vertex of one step of each replica in ``rows``
        (one column per replica), for ``shape[0]`` passes."""
        n = self.n
        if self.regular:
            # a uniform copying end (a half-edge, or the first end of an
            # arc) is a uniform vertex and a uniform slot of it
            half = rng.integers(
                0, 2 * (self.ecut[1] - self.ecut[0]) // self.step, shape)
            if self.step > 1:
                half *= self.step
            half += 2 * self.ecut[rows]
            copying = self.ends.take(half).astype(np.intp)
            half ^= 1
            return copying, self.ends.take(half).astype(np.intp)
        v = rng.integers(0, n, shape)
        v += rows * n
        slot = (rng.random(shape) * self.deg.take(v)).astype(np.intp)
        slot += self.off.take(v)
        return v, self.nbr.take(slot).astype(np.intp)


def run(packed: Packed, sched, horizon, max_events, rng) -> dict:
    """Step every replica of ``packed`` to ``horizon`` and record heart and
    discordant fractions at the times ``sched``.

    Returns per-replica arrays: ``heart`` and ``disc`` (R, T), NaN after a
    timeout; ``tau`` (NaN where no consensus); ``value`` (the consensus
    opinion, -1 where none) and ``timed_out``.  A replica times out, as in
    the single-run engines, when its ``max_events``-th effective flip comes
    at or before the horizon, does not absorb and does not freeze it.
    """
    n, R, ops = packed.n, packed.R, packed.ops
    ops2d = ops.reshape(R, n)
    T = len(sched)
    bounds = np.array([0.0, *sched, horizon])
    m = np.diff(packed.ecut)
    # a negative horizon with no sample times leaves no time to step in
    steps = rng.poisson(n * np.maximum(np.diff(bounds), 0.0),
                        size=(R, T + 1))

    heart_out = np.full((R, T), np.nan)
    disc_out = np.full((R, T), np.nan)
    tau = np.full(R, np.nan)
    value = np.full(R, -1, dtype=np.int8)
    timed_out = np.zeros(R, dtype=bool)
    heart = packed.hearts(slice(None))
    live = (heart > 0) & (heart < n)
    agreed = ~live  # consensus from the start
    value[agreed] = heart[agreed] == n
    tau[agreed] = 0.0
    heart_out[agreed] = value[agreed, None]
    disc_out[agreed] = 0.0
    # flips are counted only while some live replica can still reach the cap
    flips = np.zeros(R, dtype=np.int64)
    if max_events <= 0:
        # the cap is reached before the first step, unless nothing can flip
        timed_out = live & (packed.discordant() > 0)
        live &= ~timed_out
    counting = max_events > 0 and bool(
        np.any(steps[live].sum(axis=1) >= max_events))

    def settle(r, g, p0, V, W, snap, h, f):
        """Replay replica ``r``'s moves ``V, W`` of the block from passes
        ``p0`` on of gap ``g``, from its opinions ``snap``, heart count ``h``
        and flip count ``f``: finish it at its absorbing step, or at its cap
        flip unless that flip froze it."""
        o = snap.tolist()
        base = r * n
        for s, (v, w) in enumerate(zip((V - base).tolist(),
                                       (W - base).tolist())):
            x = o[w]
            if o[v] == x:
                continue
            o[v] = x
            h += 1 if x else -1
            f += 1
            if h == 0 or h == n:
                j, K = p0 + s + 1, steps[r, g]
                tau[r] = bounds[g] + (bounds[g + 1] - bounds[g]) * rng.beta(
                    j, K - j + 1)
                value[r] = x
                heart_out[r, g:] = x
                disc_out[r, g:] = 0.0
                live[r] = False
                return
            if counting and f == max_events:
                lo, hi = 2 * packed.ecut[r], 2 * packed.ecut[r + 1]
                pair = np.asarray(o, dtype=np.int8)[packed.ends[lo:hi] - base]
                if np.any(pair[0::2] != pair[1::2]):
                    timed_out[r] = True
                    live[r] = False
                else:
                    flips[r] = -np.iinfo(np.int64).max  # frozen: no more flips
                return

    for g in range(T + 1):
        order = np.flatnonzero(live)
        K = steps[order, g]
        by_steps = np.argsort(-K, kind="stable")
        order, K = order[by_steps], K[by_steps]
        p0 = 0
        while True:
            k = int(np.count_nonzero(K > p0))
            if k == 0:
                break
            rows, rem = order[:k], K[:k] - p0
            B = int(min(rem[0], max(1, _BLOCK_STEPS // k)))
            rem = np.minimum(rem, B)
            V, W = packed.moves(rows, (B, k), rng)
            h0 = heart[rows]
            near = np.minimum(h0, n - h0) <= rem
            if counting:
                f0 = flips[rows]
                near |= f0 + rem >= max_events
                fl = np.zeros(_FUSED * k, dtype=np.int64)
            near = np.flatnonzero(near)
            snaps = ops2d[rows[near]]
            if counting:
                for v, w in _passes(V, W, rem):
                    new = ops[w]
                    fl[:len(v)] += new != ops[v]
                    ops[v] = new
                flips[rows] += fl.reshape(_FUSED, k).sum(axis=0)
            else:
                for v, w in _passes(V, W, rem):
                    ops[v] = ops[w]
            heart[rows] = packed.hearts(rows)
            for c, snap in zip(near, snaps):
                r = rows[c]
                if (heart[r] == 0 or heart[r] == n
                        or (counting and flips[r] >= max_events)):
                    settle(r, g, p0, V[:rem[c], c], W[:rem[c], c], snap,
                           int(h0[c]), int(f0[c]) if counting else 0)
            p0 += B
            keep = live[order]
            if not keep.all():
                order, K = order[keep], K[keep]
        if g < T:
            disc = packed.discordant()
            heart_out[live, g] = heart[live] / n
            disc_out[live, g] = disc[live] / m[live]
    return {"heart": heart_out, "disc": disc_out, "tau": tau,
            "value": value, "timed_out": timed_out}


def _passes(V, W, rem):
    """The (copying, copied) vertices of the passes of a block, in order,
    for replicas with ``rem`` steps in it, in decreasing order.

    The first ``rem[-1]`` passes, which every replica takes, go in groups
    of ``_FUSED``, each group as one pair of arrays of all its steps,
    unless two steps of one replica in it conflict: a later step writes or
    reads the vertex an earlier one wrote.  A conflicting group,
    the full passes left over and the narrower tail passes go one pass at
    a time.  A later step may write a vertex an earlier one read, since
    the gather comes before the scatter; and the replicas hold disjoint
    vertices, so a fused group writes no vertex twice."""
    B, k = V.shape
    full = int(rem[-1])
    G = full // _FUSED
    Vg = V[:G * _FUSED].reshape(G, _FUSED, k)
    Wg = W[:G * _FUSED].reshape(G, _FUSED, k)
    clash = np.zeros((G, k), dtype=bool)
    for j in range(1, _FUSED):
        for i in range(j):
            clash |= (Vg[:, j] == Vg[:, i]) | (Wg[:, j] == Vg[:, i])
    for v, w, c in zip(Vg.reshape(G, _FUSED * k), Wg.reshape(G, _FUSED * k),
                       clash.any(axis=1).tolist()):
        if c:
            yield from zip(v.reshape(_FUSED, k), w.reshape(_FUSED, k))
        else:
            yield v, w
    yield from zip(V[G * _FUSED:full], W[G * _FUSED:full])
    # replicas in pass i: those with more than i steps left
    widths = k - np.searchsorted(rem[::-1], np.arange(full, B), side="right")
    for i, w in enumerate(widths.tolist(), full):
        yield V[i, :w], W[i, :w]
