"""The shared discordant-slot primitive against brute force, and the
package layering it depends on."""

import ast
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from discordlab._sset import SampleableSet, drop, refile
from discordlab.graphs import swap_endpoints

from _oracles import brute_discordant

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
    wa = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    # directed arcs weigh only their copying end; undirected slots both
    wb = [0.0] * n if draw(st.booleans()) else wa
    ops = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    slot, vertex = st.integers(0, m - 1), st.integers(0, n - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("flip"), vertex),
        st.tuples(st.just("move"), slot, st.booleans(), vertex),
        st.tuples(st.just("swap"), slot, slot, st.booleans()),
        st.tuples(st.just("drop"), st.lists(slot, max_size=4)),
    ), max_size=40))
    return us, vs, wa, wb, ops, steps


def _check(items, pos, us, vs, wa, wb, w, members):
    assert sorted(items) == sorted(members)
    assert len(pos) == len(items)
    assert all(items[pos[e]] == e for e in items)
    scale = math.fsum(wa[u] + wb[v] for u, v in zip(us, vs))
    exact = math.fsum(wa[us[e]] + wb[vs[e]] for e in items)
    assert abs(w - exact) <= REL_TOL * scale


def _discordant(us, vs, ops):
    members = {e for e in range(len(us)) if ops[us[e]] != ops[vs[e]]}
    assert len(members) == brute_discordant(zip(us, vs), ops)
    return members


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scenarios())
def test_refile_drop_and_endpoint_edits_match_brute_force(case):
    us, vs, wa, wb, ops, steps = case
    us, vs, ops = list(us), list(vs), list(ops)
    inc = [[] for _ in ops]
    for e, (u, v) in enumerate(zip(us, vs)):
        inc[u].append(e)
        inc[v].append(e)
    items, pos = [], {}
    w = refile(range(len(us)), items, pos, us, vs, ops, wa, wb)
    _check(items, pos, us, vs, wa, wb, w, _discordant(us, vs, ops))
    for step in steps:
        if step[0] == "flip":
            v = step[1]
            ops[v] ^= 1
            w = refile(inc[v], items, pos, us, vs, ops, wa, wb, w)
        elif step[0] == "move":
            _, e, first, x = step
            w = drop((e,), items, pos, us, vs, wa, wb, w)
            ends = us if first else vs
            inc[ends[e]].remove(e)
            inc[x].append(e)
            ends[e] = x
            w = refile((e,), items, pos, us, vs, ops, wa, wb, w)
        elif step[0] == "swap":
            _, i, j, first = step
            if i == j:
                continue
            w = drop((i, j), items, pos, us, vs, wa, wb, w)
            swap_endpoints(us, vs, inc, i, j, first)
            w = refile((i, j), items, pos, us, vs, ops, wa, wb, w)
        else:
            slots = step[1]
            kept = set(items) - set(slots)
            w = drop(slots, items, pos, us, vs, wa, wb, w)
            _check(items, pos, us, vs, wa, wb, w, kept)
            w = refile(slots, items, pos, us, vs, ops, wa, wb, w)
        _check(items, pos, us, vs, wa, wb, w, _discordant(us, vs, ops))


def test_count_only_mode_keeps_no_weight():
    us, vs, ops = [0, 1, 2], [1, 2, 0], [0, 1, 1]
    items, pos = [], {}
    assert refile(range(3), items, pos, us, vs, ops) == 0.0
    assert items == [0, 2]
    assert drop((0,), items, pos, us, vs) == 0.0
    assert items == [2] and pos == {2: 0}


def test_sampleable_set_add_discard_pick():
    s = SampleableSet([3, 1, 4, 1])
    assert list(s) == [3, 1, 4] and len(s) == 3
    s.discard(3)
    s.discard(9)
    assert list(s) == [4, 1] and 3 not in s and 4 in s
    assert s.pick(type("R", (), {"random": lambda self: 0.99})()) == 1


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
