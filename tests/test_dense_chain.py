"""The post-consensus phase of ``run_dense``.  Once the opinions are
unanimous every pair is concordant, and each pair's connection is an
independent two-state chain: it is added at rate a = rho*s_c0 and removed
at rate b = rho*s_c1.  An unchecked run leaves its event loop there and
carries the edge count to each sample time and to the horizon with two
binomial draws; ``check=True`` keeps the event loop to the horizon.  These
tests hold the chain to the exact law of the pair stream and to the event
loop.

Moments are held to their exact values within 4 standard errors, and
two-sample tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes and seeds were fixed before the runs.  Every run is
time-bounded, so that a run that spins fails instead of hanging.
"""

import math

import numpy as np
import pytest
from scipy import stats

from discordlab import coevolution
from discordlab.coevolution import DenseState, SwitchProbs
from discordlab.errors import SimulationTimeout

from _deadline import deadline

pytestmark = pytest.mark.slow

ALPHA = 0.01
FIG9 = SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def _unanimous(n, p0, rng):
    """An iid start with density p0 and every vertex a heart or every
    vertex not, by a fair coin."""
    return DenseState.iid(n, p0, float(rng.random() < 0.5), rng)


def test_unanimous_start_follows_the_binomial_law():
    # from an iid unanimous start each pair is an independent two-state
    # chain started connected with probability p0, so E_t ~ Bin(C(n,2), p_t)
    # with p_t = pi + (p0 - pi) exp(-lam t); the pair proposals of the run
    # are Poisson(rho C(n,2) max_weight horizon)
    R, n, p0, eta, rho = 2000, 20, 0.3, 1.0, 0.8
    sched, horizon = [0.2, 1.0], 1.5
    npairs = n * (n - 1) // 2
    a, b = rho * FIG9.s_c0, rho * FIG9.s_c1
    lam, pi = a + b, a / (a + b)
    edges = np.empty((R, len(sched)))
    events = np.empty(R)
    with deadline(60.0):
        for r in range(R):
            rng = np.random.default_rng([15, r])
            tr = coevolution.run_dense(_unanimous(n, p0, rng), eta, rho, FIG9,
                                       horizon, sched, rng)
            assert tr.consensus_time == 0.0
            assert np.all(tr.disc_edge == 0) and np.all(tr.disc_nonedge == 0)
            assert np.array_equal(tr.conc_edge, tr.p)
            edges[r] = tr.p * npairs
            events[r] = tr.n_events
    for k, t in enumerate(sched):
        pt = pi + (p0 - pi) * math.exp(-lam * t)
        mean = npairs * pt
        var = npairs * pt * (1 - pt)
        mu4 = var * (1 + 3 * (npairs - 2) * pt * (1 - pt))
        x = edges[:, k]
        assert abs(x.mean() - mean) <= 4 * math.sqrt(var / R), (t, x.mean())
        assert abs(x.var(ddof=1) - var) <= 4 * math.sqrt((mu4 - var**2) / R), \
            (t, x.var(ddof=1), var)
    mu = rho * npairs * FIG9.max_weight * horizon
    assert abs(events.mean() - mu) <= 4 * math.sqrt(mu / R)


def _mixed_runs(check, seed, R=400, n=30, horizon=3.0):
    out = []
    for r in range(R):
        rng = np.random.default_rng([seed, r])
        state = coevolution.init_positional(n, rng=rng)
        with deadline():
            out.append(coevolution.run_dense(
                state, 1.0, 1.0, FIG9, horizon, [1.0, 2.0, horizon], rng,
                check=check))
    return out


def test_mixed_start_matches_the_event_loop():
    # positional starts at n = 30 reach consensus at t ~ 1.2 in the median,
    # so the unchecked runs spend part of their time on the chain and the
    # checked ones on the event loop
    chain = _mixed_runs(False, 16)
    loop = _mixed_runs(True, 17)
    npairs = 30 * 29 // 2
    for runs in (chain, loop):
        mid = [tr.consensus_time is not None and 0.0 < tr.consensus_time < 3.0
               for tr in runs]
        assert np.mean(mid) >= 0.5
        for tr in runs:
            assert round(tr.p[-1] * npairs) == tr.final_edge_count
    for k in range(3):
        a = [tr.p[k] for tr in chain]
        b = [tr.p[k] for tr in loop]
        p = stats.ks_2samp(a, b).pvalue
        assert p > ALPHA / 3, (k, np.mean(a), np.mean(b), p)


@pytest.mark.parametrize("start", ["unanimous", "mixed"])
def test_cap_crossed_after_consensus_raises_with_partial(start):
    sched = np.linspace(0.0, 100.0, 101)
    rng = np.random.default_rng(18)
    if start == "unanimous":
        # pair proposals come at 190 * 2 = 380 per unit time
        state, cap = _unanimous(20, 0.4, rng), 2000
    else:
        # consensus costs a few thousand events, then 870 per unit time
        state, cap = coevolution.init_positional(30, rng=rng), 30_000
    with deadline(), pytest.raises(SimulationTimeout) as info:
        coevolution.run_dense(state, 1.0, 1.0, FIG9, 100.0, sched, rng,
                              max_events=cap)
    part = info.value.partial
    assert part.consensus_time is not None
    assert part.n_events == cap
    assert 0 < len(part.times) < len(sched)
    assert np.array_equal(part.times, sched[:len(part.times)])
    assert len(part.q) == len(part.p) == len(part.disc_edge) == len(part.times)
    assert part.final_edge_count == round(part.p[-1] * state.n_pairs)


def test_gap_past_numpy_poisson_range_times_out():
    # a Poisson mean above about 9.2e18 is a ValueError in numpy; a gap
    # that long outlasts any cap, as it would on the event loop
    rng = np.random.default_rng(20)
    state = _unanimous(10, 0.5, rng)
    with deadline(), pytest.raises(SimulationTimeout) as info:
        coevolution.run_dense(state, 1.0, 1.0, FIG9, 1e30, [0.0, 1.0], rng)
    part = info.value.partial
    assert part.n_events == 10**9
    assert np.array_equal(part.times, [0.0, 1.0])


@pytest.mark.parametrize("s_c1", [0.5, 0.0])
def test_no_edge_is_added_after_consensus_when_s_c0_is_zero(s_c1):
    # with s_c0 = 0 a concordant pair is never connected, so p cannot rise
    # once the opinions are unanimous; with s_c1 = 0 too it stays put
    s = SwitchProbs(s_c1=s_c1, s_c0=0.0, s_d1=2.0, s_d0=0.7)
    sched = np.linspace(0.0, 4.0, 41)
    reached = 0
    for r in range(40):
        rng = np.random.default_rng([19, r])
        state = coevolution.init_positional(30, rng=rng)
        with deadline():
            tr = coevolution.run_dense(state, 1.0, 1.0, s, 4.0, sched, rng)
        if tr.consensus_time is None:
            continue
        reached += 1
        after = tr.p[tr.times >= tr.consensus_time]
        if s_c1 > 0:
            assert np.all(np.diff(after) <= 0)
        else:
            assert np.all(after == after[0])
    assert reached >= 20
