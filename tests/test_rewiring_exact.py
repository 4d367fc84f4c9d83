"""The swap engine of ``run_voter_rewiring`` against its exact law on two
tiny graphs.

With swaps, the state is a perfect matching of the 2m labelled stubs
together with the opinions.  On 4 vertices with 8 stubs that is 105 x 16
states, few enough to build the generator from the documented rates and
solve it with ``numpy.linalg.solve``:

- each vertex with a stub copies at rate 1 through a uniform stub of its
  own, the owner of the stub it is matched to (a self-loop copies itself);
- each unordered pair of edges swaps at rate nu/(2m), into either of its
  two rematchings with equal odds.

The exact mean consensus time and P(hearts win) from a fixed start then
hold the runs: the sample mean of the consensus time, and the share of
runs won by hearts, each within K standard errors.  The 2-regular graph
runs on the position layout, the graph of degrees 1, 2, 2 and 3 on the
stub-partner table of an irregular graph.  K, R and the seeds were fixed
before any run.
"""

import itertools
import math

import numpy as np
import pytest

from discordlab import dynamics, graphs

from _deadline import deadline

K = 4.0
R = 6000
NU = 4.0

CASES = {
    # the 4-cycle, one heart: P(hearts win) = 1/4
    "two-regular": ([0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 0, 0], 271),
    # degrees 1, 2, 2, 3, hearts at the first two: P(hearts win) = 3/8
    "degrees-1223": ([0, 1, 1, 2], [3, 2, 3, 3], [1, 1, 0, 0], 272),
}


def _matchings(stubs):
    """Every perfect matching of the tuple ``stubs``, as tuples of pairs."""
    if not stubs:
        yield ()
        return
    a, rest = stubs[0], stubs[1:]
    for k, b in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1:]):
            yield ((a, b),) + m


def _partner(pairs, size):
    p = [0] * size
    for a, b in pairs:
        p[a], p[b] = b, a
    return tuple(p)


def exact_law(us, vs, ops, nu):
    """Exact (mean consensus time, P(hearts win)) of the voter model with
    stub swaps on the graph with edges ``us[e]``-``vs[e]``, from the
    opinions ``ops``: the generator on (stub matching x opinions), solved
    on its transient states."""
    n = len(ops)
    degs = np.bincount(us + vs, minlength=n).tolist()
    owner = [v for v in range(n) for _ in range(degs[v])]
    size = len(owner)
    m = size // 2
    mats = [_partner(ms, size) for ms in _matchings(tuple(range(size)))]
    index = {p: k for k, p in enumerate(mats)}
    X = 1 << n
    Q = np.zeros((len(mats) * X, len(mats) * X))
    for k, p in enumerate(mats):
        edges = [(a, p[a]) for a in range(size) if a < p[a]]
        swaps = []
        for (a, a2), (b, b2) in itertools.combinations(edges, 2):
            for new in (((a, b), (a2, b2)), ((a, b2), (a2, b))):
                q = list(p)
                for s, t in new:
                    q[s], q[t] = t, s
                swaps.append(index[tuple(q)])
        for x in range(X):
            i = k * X + x
            for s in range(size):
                v, w = owner[s], owner[p[s]]
                if (x >> v & 1) != (x >> w & 1):
                    Q[i, i ^ (1 << v)] += 1.0 / degs[v]
            for k2 in swaps:
                Q[i, k2 * X + x] += nu / (4.0 * m)
    Q[np.diag_indices_from(Q)] = -Q.sum(axis=1)
    x = np.arange(len(Q)) % X
    live = (x != 0) & (x != X - 1)
    A = -Q[np.ix_(live, live)]
    tau = np.linalg.solve(A, np.ones(len(A)))
    win = np.linalg.solve(A, Q[np.ix_(live, x == X - 1)].sum(axis=1))
    # the start: each edge takes the next free stub of each end
    free = [sum(degs[:v]) for v in range(n)]
    pairs = []
    for u, v in zip(us, vs):
        a = free[u]
        free[u] += 1
        pairs.append((a, free[v]))
        free[v] += 1
    start = index[_partner(pairs, size)] * X + sum(
        b << v for v, b in enumerate(ops))
    at = np.flatnonzero(live).tolist().index(start)
    return float(tau[at]), float(win[at])


@pytest.mark.parametrize("case", sorted(CASES))
def test_swap_engine_matches_the_exact_law(case):
    us, vs, ops, seed = CASES[case]
    want_tau, want_win = exact_law(us, vs, ops, NU)
    g = graphs.Graph(len(ops), us, vs)
    taus, wins = [], 0
    with deadline(60.0):
        for r in range(R):
            traj = dynamics.run_voter_rewiring(
                g, dynamics.OpinionState(list(ops)), NU, None, [],
                np.random.default_rng([seed, r]))
            taus.append(traj.consensus_time)
            wins += traj.consensus_value
    se_tau = np.std(taus, ddof=1) / math.sqrt(R)
    assert abs(np.mean(taus) - want_tau) <= K * se_tau, \
        (np.mean(taus), want_tau, se_tau)
    se_win = math.sqrt(want_win * (1 - want_win) / R)
    assert abs(wins / R - want_win) <= K * se_win, (wins / R, want_win)


def test_exact_law_gives_the_degree_weighted_odds():
    # sum_v deg(v) xi_v is a martingale under voter moves and swaps, so
    # P(hearts win) = sum deg xi / 2m: a check of the generator itself
    for us, vs, ops, _ in CASES.values():
        degs = np.bincount(us + vs, minlength=len(ops))
        want = float(np.dot(degs, ops)) / (2 * len(us))
        assert exact_law(us, vs, ops, NU)[1] == pytest.approx(want, abs=1e-9)
