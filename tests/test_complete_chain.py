"""The heart-count chain on an implicit K_n, whose jumps are drawn in numpy
blocks, against the exact law of the chain and against the scalar chain it
replaced (kept verbatim in ``_oracles`` as the reference).  The cap, horizon
and ``partial=`` tests run on both engines.

Statistical tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes and seeds were fixed before the runs.  Every test runs
under a deadline, so that a chain that spins fails instead of hanging.
"""

import itertools
import re

import numpy as np
import pytest
from scipy import linalg, stats

from discordlab import dynamics
from discordlab.errors import SimulationTimeout

from _deadline import deadline
from _oracles import reference_complete_chain

ALPHA = 0.01
NO_CAP = 10**9
ENGINES = {"blocks": dynamics._voter_complete_engine,
           "reference": reference_complete_chain}


def _rng(*seed):
    return np.random.default_rng(list(seed))


def _generator(n):
    """Generator of the heart count on {0..n}: k -> k +- 1, each at rate
    k(n-k)/(n-1)."""
    k = np.arange(n + 1)
    r = k * (n - k) / (n - 1)
    q = np.diag(r[:-1], 1) + np.diag(r[1:], -1)
    return q - np.diag(q.sum(axis=1))


def _pooled(obs, exp, least=5.0):
    """The cells expected fewer than ``least`` times pooled into one, which
    joins the smallest other cell if it is still below ``least``."""
    small = exp < least
    obs = np.append(obs[~small], obs[small].sum())
    exp = np.append(exp[~small], exp[small].sum())
    if exp[-1] < least:
        i = int(np.argmin(exp[:-1]))
        obs[i] += obs[-1]
        exp[i] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    return obs, exp


def _cap_time(exc):
    return float(re.search(r"at t=(\S+)", str(exc)).group(1))


@deadline(60.0)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_heart_count_has_the_exact_law_at_fixed_times(engine):
    # chi-square of the heart count at each time against row k0 of expm(Qt)
    n, k0, times, R = 10, 3, [0.3, 1.0, 3.0], 20_000
    counts = np.zeros((len(times), n + 1))
    for r in range(R):
        tr = ENGINES[engine](n, k0, times[-1], times, _rng(10, r), NO_CAP)
        k = np.rint(tr.heart_frac * n).astype(int)
        counts[np.arange(len(times)), k] += 1
    q = _generator(n)
    for row, t in zip(counts, times):
        obs, exp = _pooled(row, R * linalg.expm(q * t)[k0])
        p = stats.chisquare(obs, exp * (R / exp.sum())).pvalue
        assert p > ALPHA / len(times), (t, p)


@deadline(60.0)
def test_consensus_law_matches_reference():
    # tau, the jumps to absorption and the heart count at times that fall
    # in the first, second and later blocks of most runs
    n, k0, R, sched = 40, 20, 2000, [10.0, 25.0, 60.0]
    runs = {name: [engine(n, k0, None, sched, _rng(seed, r), NO_CAP)
                   for r in range(R)]
            for seed, (name, engine) in enumerate(ENGINES.items())}
    a, b = runs["blocks"], runs["reference"]
    samples = {"consensus_time": lambda tr: tr.consensus_time,
               "n_events": lambda tr: tr.n_events}
    for i, x in enumerate(sched):
        samples[f"heart at t={x}"] = lambda tr, i=i: tr.heart_frac[i]
    for key, get in samples.items():
        p = stats.ks_2samp([get(tr) for tr in a], [get(tr) for tr in b]).pvalue
        assert p > ALPHA / len(samples), (key, p)


@deadline(60.0)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_cap_stops_at_the_capped_jump(engine):
    # below, at and across the ends of the first two blocks (256, 768); a
    # run to a horizon just before or after the named time, on the same
    # stream, saw one jump less or exactly the cap
    run = ENGINES[engine]
    n, k0 = 200, 100
    sched = np.linspace(0.25, 12.0, 48).tolist()
    for cap in (1, 100, 255, 256, 257, 767, 768, 769, 1000):
        with pytest.raises(SimulationTimeout) as err:
            run(n, k0, None, sched, _rng(11, cap), cap)
        partial = err.value.partial
        assert partial.n_events == cap
        t_cap = _cap_time(err.value)  # to 6 significant digits
        lo, hi = t_cap * (1 - 1e-5), t_cap * (1 + 1e-5)
        below = run(n, k0, lo, [x for x in sched if x <= lo] + [lo],
                    _rng(11, cap), NO_CAP)
        above = run(n, k0, hi, [hi], _rng(11, cap), NO_CAP)
        assert (below.n_events, above.n_events) == (cap - 1, cap), cap
        # partial= holds the schedule times before the capped jump
        size = sum(x < t_cap for x in sched)
        assert np.array_equal(partial.times, sched[:size])
        assert np.array_equal(partial.heart_frac, below.heart_frac[:size])
        assert partial.consensus_time is None


@deadline(60.0)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_jump_on_the_horizon_or_at_the_cap_is_applied(engine):
    # the absorbing jump's time is exact: with the horizon on it, or the
    # cap at its count, the run ends as the run to consensus did; a horizon
    # one ulp earlier stops one jump short.  The seeds are the first few,
    # plus those that absorb at jump 256, the last of the first block.
    run = ENGINES[engine]
    n, k0 = 30, 14  # even: every run absorbs at an even jump
    ends = {s: run(n, k0, None, [], _rng(12, s), NO_CAP) for s in range(2000)}
    at_block_end = [s for s, tr in ends.items() if tr.n_events == 256]
    assert at_block_end
    for s in [0, 1, 2, 3, 4] + at_block_end[:4]:
        end = ends[s]
        tau, v = end.consensus_time, end.consensus_value
        at = run(n, k0, tau, [tau / 2, tau], _rng(12, s), NO_CAP)
        capped = run(n, k0, None, [tau / 2, tau], _rng(12, s), end.n_events)
        for tr in (at, capped):
            assert (tr.consensus_time, tr.consensus_value, tr.n_events) == \
                (tau, v, end.n_events)
            assert (tr.heart_frac[-1], tr.discordant_frac[-1]) == (v, 0.0)
        assert np.array_equal(at.heart_frac, capped.heart_frac)
        early = np.nextafter(tau, 0.0)
        before = run(n, k0, early, [tau / 2, early], _rng(12, s), NO_CAP)
        assert before.consensus_time is None
        assert before.n_events == end.n_events - 1
        assert before.heart_frac[-1] in (1 / n, (n - 1) / n)
        assert before.heart_frac[0] == at.heart_frac[0]


@deadline(60.0)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_unanimous_start_is_consensus_at_time_zero(engine):
    run = ENGINES[engine]
    n, sched = 7, [0.0, 1.0, 2.0]
    for k0, horizon, cap in itertools.product((0, n), (None, 2.0),
                                              (0, NO_CAP)):
        tr = run(n, k0, horizon, sched, _rng(13), cap)
        assert (tr.consensus_time, tr.consensus_value, tr.n_events) == \
            (0.0, int(k0 == n), 0)
        assert list(tr.heart_frac) == [k0 / n] * 3
        assert list(tr.discordant_frac) == [0.0] * 3
    # an interior start under a cap of 0 stops before its first jump
    with pytest.raises(SimulationTimeout, match=r"at t=0$") as err:
        run(n, 3, 2.0, sched, _rng(13), 0)
    assert err.value.partial.n_events == 0
    assert len(err.value.partial.times) == 0
