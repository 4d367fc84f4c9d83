"""The shared discordant-slot primitive against brute force, its weighted
copies in ``_oracles`` (which the reference directed engine uses) along
with it, the opinion classes against the dict-backed set they replaced,
and the package layering it depends on."""

import ast
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from discordlab._sset import build, move, partition, toggle
from _oracles import (SampleableSet, brute_discordant, refile, swap_endpoints,
                      weighted_build, weighted_toggle)

# |w - fsum of member weights| <= REL_TOL * (weight of every slot): the
# running total is a chain of float additions and subtractions of terms no
# larger than that scale, so its error stays many orders below this bound
REL_TOL = 1e-9


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    us, vs = draw(ends), draw(ends)
    # a slot weighs its copying end us[e], as a directed arc does
    wa = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    ops = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    slot, vertex = st.integers(0, m - 1), st.integers(0, n - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("flip"), vertex),
        st.tuples(st.just("move"), slot, st.booleans(), vertex),
        st.tuples(st.just("swap"), slot, slot, st.booleans()),
        st.tuples(st.just("drop"), st.lists(slot, max_size=4)),
    ), max_size=40))
    return us, vs, wa, ops, steps


def _incidence(n, us, vs):
    """Slot ids at each vertex, a self-loop twice, as ``Graph.inc``."""
    inc = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(us, vs)):
        inc[u].append(e)
        inc[v].append(e)
    return inc


def _check(items, pos, us, wa, w, members):
    assert sorted(items) == sorted(members)
    assert sum(i >= 0 for i in pos) == len(items)
    assert all(items[pos[e]] == e for e in items)
    scale = math.fsum(wa[u] for u in us)
    exact = math.fsum(wa[us[e]] for e in items)
    assert abs(w - exact) <= REL_TOL * scale


def _discordant(us, vs, ops):
    members = {e for e in range(len(us)) if ops[us[e]] != ops[vs[e]]}
    assert len(members) == brute_discordant(zip(us, vs), ops)
    return members


def _remove(slots, items, pos, us, vs, wa, w, plain):
    """Weighted removal of the members of ``slots``, in order: a toggle of
    one member removes it.  ``plain`` is the unweighted set, kept alongside
    by the package's ``toggle``."""
    for e in slots:
        if pos[e] >= 0:
            w = weighted_toggle((e,), items, pos, us, vs, wa, w)
            toggle((e,), *plain, us, vs)
    return w


def _file(slots, items, pos, us, vs, ops, wa, w, plain):
    """Append the discordant non-members of ``slots``, in order: a toggle
    of one absent slot that is not a self-loop appends it."""
    for e in slots:
        if pos[e] < 0 and ops[us[e]] != ops[vs[e]]:
            w = weighted_toggle((e,), items, pos, us, vs, wa, w)
            toggle((e,), *plain, us, vs)
    return w


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scenarios())
def test_build_toggle_drop_and_endpoint_edits_match_brute_force(case):
    # the weighted oracle copies and the package's functions side by side
    us, vs, wa, ops, steps = case
    us, vs, ops = list(us), list(vs), list(ops)
    inc = _incidence(len(ops), us, vs)
    items, pos, w = weighted_build(us, vs, ops, wa)
    plain = build(us, vs, ops)
    _check(items, pos, us, wa, w, _discordant(us, vs, ops))
    for step in steps:
        if step[0] == "flip":
            v = step[1]
            ops[v] ^= 1
            w = weighted_toggle(inc[v], items, pos, us, vs, wa, w)
            toggle(inc[v], *plain, us, vs)
        elif step[0] == "move":
            _, e, first, x = step
            w = _remove((e,), items, pos, us, vs, wa, w, plain)
            ends = us if first else vs
            inc[ends[e]].remove(e)
            inc[x].append(e)
            ends[e] = x
            w = _file((e,), items, pos, us, vs, ops, wa, w, plain)
        elif step[0] == "swap":
            _, i, j, first = step
            if i == j:
                continue
            w = _remove((i, j), items, pos, us, vs, wa, w, plain)
            swap_endpoints(us, vs, inc, i, j, first)
            w = _file((i, j), items, pos, us, vs, ops, wa, w, plain)
        else:
            slots = step[1]
            kept = set(items) - set(slots)
            w = _remove(slots, items, pos, us, vs, wa, w, plain)
            _check(items, pos, us, wa, w, kept)
            w = _file(slots, items, pos, us, vs, ops, wa, w, plain)
        assert plain == (items, pos)
        _check(items, pos, us, wa, w, _discordant(us, vs, ops))


@st.composite
def flip_runs(draw):
    """A random multigraph (self-loops and parallel slots are common on so
    few vertices), opinions, no weights or the weights of the copying ends,
    and a sequence of flips."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    us, vs = draw(ends), draw(ends)
    ops = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    wa = None
    if draw(st.booleans()):
        wa = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    flips = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return us, vs, ops, wa, flips


@settings(max_examples=300, derandomize=True, deadline=None)
@given(flip_runs())
def test_toggle_after_a_flip_is_refile_bit_for_bit(case):
    # the package's toggle keeps refile's members and positions, and the
    # weighted oracle copy its weight too
    us, vs, ops, wa, flips = case
    ops = list(ops)
    m = len(us)
    inc = _incidence(len(ops), us, vs)
    # refile weighs wa[us[e]] + wb[vs[e]]; adding 0.0 leaves a float as it is
    wb = None if wa is None else [0.0] * len(ops)
    ref_items, ref_pos = [], {}
    ref_w = refile(range(m), ref_items, ref_pos, us, vs, ops, wa, wb)
    items, pos = build(us, vs, ops)
    w_items, w_pos, w = weighted_build(us, vs, ops, wa)
    for v in [None, *flips]:
        if v is not None:
            ops[v] ^= 1
            ref_w = refile(inc[v], ref_items, ref_pos, us, vs, ops, wa, wb,
                           ref_w)
            toggle(inc[v], items, pos, us, vs)
            w = weighted_toggle(inc[v], w_items, w_pos, us, vs, wa, w)
        assert items == w_items == ref_items
        assert pos == w_pos == [ref_pos.get(e, -1) for e in range(m)]
        assert w.hex() == ref_w.hex()


def test_count_only_mode_keeps_no_weight():
    # the package's set keeps members and positions, and no weight
    us, vs, ops = [0, 1, 2], [1, 2, 0], [0, 1, 1]
    items, pos = build(us, vs, ops)
    assert items == [0, 2]
    # vertex 1 flips: its slots 0 and 1 change discordance
    assert toggle([0, 1], items, pos, us, vs) is None
    assert items == [2, 1] and pos == [-1, 1, 0]
    # a toggle of one member removes it, as an endpoint edit does
    toggle((2,), items, pos, us, vs)
    assert items == [1] and pos == [-1, 0, -1]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12).flatmap(
    lambda ops: st.tuples(st.just(ops), st.lists(
        st.tuples(st.integers(0, len(ops) - 1), st.floats(0.0, 0.999)),
        max_size=40))))
def test_partition_and_move_keep_the_sampleable_sets(case):
    # the opinion classes of the TO_SAME and Holme-Newman engines: the same
    # members in the same order, so the same vertex at every draw
    ops, flips = case
    ops = list(ops)
    ref = tuple(SampleableSet(v for v in range(len(ops)) if ops[v] == x)
                for x in (0, 1))
    by_op, pos = partition(ops)
    for v, r in [(None, 0.0), *flips]:
        if v is not None:
            old = ops[v]
            ops[v] = 1 - old
            move(v, by_op[old], by_op[1 - old], pos)
            ref[old].discard(v)
            ref[1 - old].add(v)
        for x in (0, 1):
            assert by_op[x] == ref[x].items
            assert all(pos[w] == ref[x].pos[w] for w in by_op[x])
            if by_op[x]:
                drawn = by_op[x][int(r * len(by_op[x]))]
                assert drawn == ref[x].pick(type("R", (), {
                    "random": lambda self: r})())


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discordlab"


def _package_imports(module):
    """The package modules that ``module`` imports, read from its syntax."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "discordlab":
                    continue
                base = base.partition(".")[2]
            found.update([base] if base else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.split(".")[0] == "discordlab")
    return found


def test_oracles_import_only_errors_and_sset_nothing():
    assert _package_imports("limits") == {"errors"}
    assert _package_imports("_sset") == set()
