"""The swap-with-tail sets of the co-evolution engines, with O(1)
sampling: the discordant slots of ``run_rewire_model`` and the two
opinion classes of its TO_SAME variant and of ``run_holme_newman``.

Format: a list ``items`` of the members plus a list ``pos`` indexed by
id, ``pos[e]`` being the index of ``e`` in its list (in a slot set, -1
when ``e`` is absent).  Insertion appends; removal moves the last element
into the hole, so membership changes and uniform draws are O(1) (the
swap-with-tail trick of the epidemic-simulation literature).  Member order
is part of the random stream: a uniform draw indexes ``items``, so the
engine must insert and remove in the same sequence to reproduce a run.
``run_dense`` keeps its edges in this format inline, with pair ids as the
slots.  The opinion classes share one ``pos``: a vertex is in one of them.

A slot ``e`` joins vertices ``us[e]`` and ``vs[e]`` and belongs to the set
exactly while ``ops[us[e]] != ops[vs[e]]``.  ``build`` files every slot
once at the start of a run.  After that the set changes only at a
flip, through ``toggle``, and at an endpoint edit that makes the slot
concordant, where the engine removes it inline: when a vertex flips, every
slot at it that is not a self-loop changes discordance, so ``toggle`` reads
no opinions.
"""


# The batch functions below take the lists as arguments and inline the
# insertion and removal: a call per slot costs the engines several percent.

def build(us, vs, ops):
    """``(items, pos)`` for the slots ``range(len(us))``: the discordant
    slots in id order."""
    items = [e for e, (u, v) in enumerate(zip(us, vs)) if ops[u] != ops[v]]
    pos = [-1] * len(us)
    for i, e in enumerate(items):
        pos[e] = i
    return items, pos


def toggle(slots, items, pos, us, vs):
    """Refile ``slots``, the slots at a vertex that has just flipped, in
    order: a member is removed, a non-member appended unless it is a
    self-loop."""
    for e in slots:
        i = pos[e]
        if i >= 0:
            pos[e] = -1
            last = items.pop()
            if last != e:
                items[i] = last
                pos[last] = i
        elif us[e] != vs[e]:
            pos[e] = len(items)
            items.append(e)


def partition(ops):
    """``(by_op, pos)`` for the vertices ``range(len(ops))`` of 0/1
    opinions: ``by_op[x]`` lists the vertices of opinion ``x`` in id order,
    and ``pos[v]`` is the index of ``v`` in its list."""
    by_op = ([], [])
    pos = [0] * len(ops)
    for v, x in enumerate(ops):
        members = by_op[x]
        pos[v] = len(members)
        members.append(v)
    return by_op, pos


def move(v, src, dst, pos):
    """Take vertex ``v`` out of list ``src`` and append it to ``dst``."""
    i = pos[v]
    last = src.pop()
    if last != v:
        src[i] = last
        pos[last] = i
    pos[v] = len(dst)
    dst.append(v)
