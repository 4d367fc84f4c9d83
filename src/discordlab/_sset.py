"""The discordant-slot set that ``run_rewire_model`` keeps, to draw a
uniform discordant edge, and its O(1) sampling.

Format: a list ``items`` of the member slots plus a list ``pos`` indexed by
slot id, ``pos[e]`` being the index of ``e`` in ``items`` or -1 when ``e``
is absent.  Insertion appends; removal moves the last element into the
hole, so membership changes and uniform draws are O(1) (the swap-with-tail
trick of the epidemic-simulation literature).  Member order is part of the
random stream: a uniform draw indexes ``items``, so the engine must
insert and remove in the same sequence to reproduce a run.  ``run_dense``
keeps its edges in this format inline, with pair ids as the slots.

A slot ``e`` joins vertices ``us[e]`` and ``vs[e]`` and belongs to the set
exactly while ``ops[us[e]] != ops[vs[e]]``.  ``build`` files every slot
once at the start of a run.  After that the set changes only at a
flip, through ``toggle``, and at an endpoint edit that makes the slot
concordant, where the engine removes it inline: when a vertex flips, every
slot at it that is not a self-loop changes discordance, so ``toggle`` reads
no opinions.
"""


class SampleableSet:
    """The same swap-with-tail format as an object, for sets of anything
    hashable (the vertices of one opinion in the rewire and Holme-Newman
    models), with the positions in a dict."""

    __slots__ = ("items", "pos")

    def __init__(self, iterable=()):
        self.items = []
        self.pos = {}
        for x in iterable:
            self.add(x)

    def __len__(self):
        return len(self.items)

    def add(self, x):
        """Insert x if it is not present."""
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x):
        """Remove x if present."""
        i = self.pos.pop(x, -1)
        if i >= 0:
            last = self.items.pop()
            if i < len(self.items):
                self.items[i] = last
                self.pos[last] = i

    def pick(self, rnd):
        """Uniform element, using rnd.random() (bias ~ len/2^53, negligible)."""
        return self.items[int(rnd.random() * len(self.items))]


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

