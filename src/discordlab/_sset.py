"""The discordant-slot set every event engine keeps, and its O(1) sampling.

Format: a list ``items`` plus a dict ``pos`` mapping each member to its
index in ``items``.  Insertion appends; removal moves the last element into
the hole, so membership changes and uniform draws are O(1) (the swap-with-
tail trick of the epidemic-simulation literature).  Member order is part of
the random stream: a uniform draw indexes ``items``, so every engine must
insert and remove in the same sequence to reproduce a run.

A slot ``e`` joins vertices ``us[e]`` and ``vs[e]`` and belongs to the set
exactly while ``ops[us[e]] != ops[vs[e]]``.  When slots carry unequal rates,
slot ``e`` weighs ``wa[us[e]] + wb[vs[e]]`` and the batch functions keep the
running total ``w`` of member weights; with ``wa=None`` only the count is
kept.
"""


class SampleableSet:
    """The same format as an object, for sets of anything hashable (vertices
    of one opinion, the edges of the dense model)."""

    __slots__ = ("items", "pos")

    def __init__(self, iterable=()):
        self.items = []
        self.pos = {}
        for x in iterable:
            self.add(x)

    def __len__(self):
        return len(self.items)

    def __contains__(self, x):
        return x in self.pos

    def __iter__(self):
        return iter(self.items)

    def add(self, x):
        """Insert x if it is not present."""
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x):
        """Remove x if present."""
        drop((x,), self.items, self.pos, None, None)

    def pick(self, rnd):
        """Uniform element, using rnd.random() (bias ~ len/2^53, negligible)."""
        return self.items[int(rnd.random() * len(self.items))]


# The batch functions below take the lists as arguments and inline the
# insertion and removal: a call per slot costs the engines several percent.

def refile(slots, items, pos, us, vs, ops, wa=None, wb=None, w=0.0):
    """File each slot in ``slots``, in order, by its current discordance:
    a discordant non-member is appended, a concordant member removed.
    Returns ``w`` updated by the weights of the slots that moved."""
    for e in slots:
        if ops[us[e]] != ops[vs[e]]:
            if e not in pos:
                pos[e] = len(items)
                items.append(e)
                if wa is not None:
                    w += wa[us[e]] + wb[vs[e]]
        elif e in pos:
            i = pos.pop(e)
            last = items.pop()
            if i < len(items):
                items[i] = last
                pos[last] = i
            if wa is not None:
                w -= wa[us[e]] + wb[vs[e]]
    return w


def drop(slots, items, pos, us, vs, wa=None, wb=None, w=0.0):
    """Remove each member of ``slots``, in order, whatever its discordance
    (before its endpoints are edited).  Returns ``w`` less their weights."""
    for e in slots:
        if e in pos:
            i = pos.pop(e)
            last = items.pop()
            if i < len(items):
                items[i] = last
                pos[last] = i
            if wa is not None:
                w -= wa[us[e]] + wb[vs[e]]
    return w
