"""Exact search for cycles of a prescribed length.

The search walks a twin-compressed quotient of the input graph: vertices
with identical open neighborhoods (necessarily nonadjacent) or identical
closed neighborhoods (necessarily adjacent) are interchangeable on any
cycle, so they collapse into one class, named by its least vertex and
carried with a multiplicity budget; isolated vertices form no class.
Adjacency between classes is all-or-nothing, so a quotient row is a host
row masked to the classes' least vertices, with no re-indexing, and the
walk, equal to the vertex search, skips its symmetric branching on twins.

Within the quotient the search is plain backtracking: anchor at each
class in turn and extend by ascending least vertex. A static capacity
bound skips anchors: an independent class can occupy at most floor(L/2)
positions of a cycle of length L, and the anchor's reach (the classes not
below it that it reaches through such classes) must hold L vertices. A
later anchor inside a failed reach has a reach inside it, so it fails too
and is skipped without a BFS or a capacity sum of its own. The first
anchor met in a quotient component is its least class, whose reach is
the whole component, so a component that fails costs one BFS. A node visits
one bitmask of classes: its quotient row AND the classes with
multiplicity left AND those whose BFS distance back to the anchor fits
the steps left.

Two exact bounds cut only subtrees that hold no cycle, so they change no
answer and the walk's order, and only ever save nodes. Both are set up
when the first anchor passes the capacity bound:

- Block bound (Tarjan 1972): every cycle lies inside one block, so if
  the largest block of the graph has fewer than L vertices there is none.
- Separator bound (Chvatal 1973): take U0, the largest class of >= 2
  pairwise non-adjacent twins, and T, the classes adjacent to it. A cycle
  through t vertices of T falls into at most t paths in G - T, so if |T|
  plus the |T| largest components of G - T have fewer than L vertices,
  there is none. During the walk, each U0 vertex still to be placed
  needs T vertices on both sides, so a node is cut when its steps left
  outnumber the T and other vertices still free plus as many U0 vertices
  as those T vertices can separate.

``complement_cycle_through`` answers the narrower question the arrows
scan asks of each new vertex, a cycle through one given vertex inside a
vertex mask, in the complement of the rows it is given, by a plain DFS on
bitmasks: the free complement neighbours of c inside ``allowed`` are
``allowed & ~(rows[c] | used)``, so no complement is built. No quotient,
no relabelling, no core peel and no distance layers: on the scan's small
masks, pruning that cuts only dead branches costs more than it saves.
One check does pay: when the mask holds exactly as many vertices as the
cycle, the cycle uses them all, and a vertex with fewer than two
neighbours inside settles None in one pass over the mask, with no walk.
The scan's rim tests often have such masks (a hub of degree exactly m),
and the peel's repeated passes would only matter on larger masks. The
walk's last two steps are one loop, not two levels of calls: most nodes
that deep are dead ends, and a call per candidate was most of their cost.
The first cycle met closes at a neighbour of v above the path's second
vertex (its reverse would have been met first otherwise), so the walk
needs no test of direction. It recurses through the module-level
``_complement_walk``, so a call builds no closure and leaves the cyclic
collector nothing, and it counts its nodes down in a plain int that the
caller hands in and gets back. ``find_cycle_of_length``'s walk is a
closure on a ``Budget``, made once per anchor that passes the capacity
bound; it drops its own name when the anchor's walk ends, exhausted or
not, so refcounting frees it and the collector finds nothing there either.
"""

from __future__ import annotations

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The backtracking node budget ran out; the answer is unknown, not 'absent'."""


class Budget:
    """Mutable node counter shared by all searches of one logical call:
    ``DEFAULT_NODE_BUDGET`` nodes, read when built, unless ``nodes`` is given
    (only ``contains_wheel`` and ``is_good_coloring`` take a ``node_budget``)."""

    __slots__ = ("remaining",)

    def __init__(self, nodes=None):
        self.remaining = DEFAULT_NODE_BUDGET if nodes is None else nodes


def twin_reps(rows, n: int) -> list:
    """For each vertex v, the smallest u whose row agrees with v's outside
    {u, v}: equal open rows (false twins) or closed rows (true twins). No v
    has both a false twin u and a true twin q (q in N(v) = N(u) puts u in
    N[q] = N[v]), so this is a partition and only the first vertex of an
    open row needs the closed-row lookup."""
    open_rows, closed_rows = {}, {}
    reps = []
    for v in range(n):
        rep = open_rows.setdefault(rows[v], v)
        if rep == v:
            rep = closed_rows.setdefault(rows[v] | (1 << v), v)
        reps.append(rep)
    return reps


def twin_classes(rows, n: int) -> list:
    """Twin classes of the non-isolated vertices, each a sorted vertex list,
    ordered by smallest member: ``twin_reps``'s partition without the class
    of isolated vertices. Only the benchmark tracer's class counter and the
    tests call it; the cycle search builds the same partition as masks."""
    reps = twin_reps(rows, n)
    classes = {}
    for v in range(n):
        if rows[v]:
            classes.setdefault(reps[v], []).append(v)
    return list(classes.values())


def blocks(rows, n: int):
    """Tarjan's blocks: (each block as a vertex mask, in the order the DFS
    closes them; the mask of cut vertices). Blocks are the maximal
    2-connected subgraphs and the bridges; isolated vertices form none.

    A vertex's neighbours seen when it is discovered are its DFS ancestors
    (an undirected DFS has no cross edges), so its low point starts as
    their least discovery time, the parent's included: a child u of p then
    closes a block exactly when low[u] >= disc[p].
    """
    disc = [0] * n
    low = [0] * n
    seen = 0
    clock = 0
    out = []
    cuts = 0
    for root in range(n):
        if (seen >> root) & 1 or not rows[root]:
            continue
        seen |= 1 << root
        clock += 1
        disc[root] = low[root] = clock
        stack = [root]
        opened = [root]  # discovered vertices whose block is still open
        root_blocks = 0
        while stack:
            u = stack[-1]
            fresh = rows[u] & ~seen
            if fresh:
                w = (fresh & -fresh).bit_length() - 1
                seen |= 1 << w
                clock += 1
                disc[w] = least = clock
                m = rows[w] & seen
                while m:
                    b = m & -m
                    m ^= b
                    d = disc[b.bit_length() - 1]
                    if d < least:
                        least = d
                low[w] = least
                stack.append(w)
                opened.append(w)
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1]
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                block = 1 << p
                while True:
                    x = opened.pop()
                    block |= 1 << x
                    if x == u:
                        break
                out.append(block)
                if p == root:
                    root_blocks += 1
                else:
                    cuts |= 1 << p
        if root_blocks >= 2:
            cuts |= 1 << root
    return out, cuts


def components(rows, mask: int) -> list:
    """The components of the subgraph induced on ``mask``, each a vertex
    mask, ordered by least vertex."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            layer = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                layer |= rows[low.bit_length() - 1]
            frontier = layer & mask & ~comp
            comp |= frontier
        mask ^= comp
        out.append(comp)
    return out


def _separator_weights(rows, reps, members, step, length):
    """Chvatal's separator count on the largest class U0 of >= 2 pairwise
    non-adjacent twins, whose neighbours are exactly the classes T: each
    U0 vertex on a cycle sits between two T vertices, so a cycle holds at
    most as many U0 vertices as T vertices. Returns None when that already
    rules out every cycle of ``length``, else the walk's weight at each
    class's least vertex: +1 in U0, -1 in T, 0 elsewhere (all 0 without U0).

    The static test: a cycle through t >= 1 vertices of T splits into at
    most t paths, each inside a component of G - T, so it has at most |T|
    plus the |T| largest components' vertices; a cycle avoiding T lies in
    one component, and T is not empty.
    """
    weight = [0] * len(rows)
    u0, most = None, 1  # U0: the first class of the largest size above 1
    for c in reps:
        if members[c].bit_count() > most and not (step[c] >> c) & 1:
            u0, most = c, members[c].bit_count()
    if u0 is None:
        return weight
    weight[u0] = 1
    tverts = rest = 0
    for c in reps:
        if (step[u0] >> c) & 1:
            weight[c] = -1
            tverts |= members[c]
        else:
            rest |= members[c]
    sizes = sorted((c.bit_count() for c in components(rows, rest)), reverse=True)
    t = tverts.bit_count()
    return None if t + sum(sizes[:t]) < length else weight


def find_cycle_of_length(rows, n: int, length: int, budget: Budget | None = None):
    """First cycle on exactly ``length`` distinct vertices, or None.

    Deterministic: anchors ascend, extensions ascend by each class's least
    vertex, and witnesses assign each class's vertices in increasing order.
    The block and separator bounds (see the module notes) may answer None
    before any node is drawn from ``budget``.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if length > n:
        return None
    if budget is None:
        budget = Budget()

    # twin_classes' partition in one pass over the non-isolated rows: a class
    # is named by its least vertex r, members[r] is its vertex mask, and
    # ``classes`` is the mask of the r
    open_rows, closed_rows = {}, {}
    reps = []
    classes = 0
    members = [0] * n
    for v in range(n):
        row = rows[v]
        if not row:
            continue
        r = open_rows.get(row)
        if r is None:
            r = open_rows[row] = closed_rows.setdefault(row | 1 << v, v)
            if r == v:
                reps.append(v)
                classes |= 1 << v
        members[r] |= 1 << v
    # step[r]: the classes adjacent to r's, r too for adjacent twins;
    # caps[r]: how many places of the cycle r's class can fill
    half = length // 2
    step = [0] * n
    sizes = [0] * n
    caps = [0] * n
    for r in reps:
        size = sizes[r] = members[r].bit_count()
        if rows[r] & members[r]:
            step[r], caps[r] = rows[r] & classes | 1 << r, size
        else:
            step[r], caps[r] = rows[r] & classes, min(size, half)
    weight = None  # per class: +1 in U0, -1 in T, else 0 (see _separator_weights)
    dead = 0  # classes inside the reach of an anchor that failed capacity: they fail too

    for anchor in reps:
        if (dead >> anchor) & 1:
            continue
        # within[d]: the classes >= anchor at BFS distance <= d from it
        geq = -(1 << anchor)
        reach = frontier = 1 << anchor
        within = [reach]
        capacity = 0
        while frontier:
            layer = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                c = low.bit_length() - 1
                layer |= step[c]
                capacity += caps[c]
            frontier = layer & geq & ~reach
            reach |= frontier
            within.append(reach)
        if capacity < length:
            dead |= reach
            continue
        within += [reach] * (length - len(within))
        if weight is None:
            if max((b.bit_count() for b in blocks(rows, n)[0]), default=0) < length:
                return None
            weight = _separator_weights(rows, reps, members, step, length)
            if weight is None:
                return None

        # slack: how many of reach's vertices the cycle leaves out; excess:
        # U0's vertices left minus T's. A path from c back to the anchor
        # takes at most t + [c and anchor both in T] of U0's u vertices, so
        # the steps left need excess <= slack + [c and anchor both in T].
        slack = -length
        excess = 0
        m = reach
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            slack += sizes[c]
            excess += weight[c] * sizes[c]
        excess -= weight[anchor]
        limit = slack + (weight[anchor] < 0)
        budgets = sizes[:]
        budgets[anchor] -= 1
        path = []  # filled in reverse as a found cycle unwinds

        def dfs(c, remaining, avail, excess):
            # avail: classes with multiplicity left; remaining: steps to close
            budget.remaining -= 1
            if budget.remaining < 0:
                raise SearchBudgetExceeded(
                    f"cycle search exceeded its node budget (length {length})"
                )
            if not remaining:
                return (step[c] >> anchor) & 1
            if excess > (limit if weight[c] < 0 else slack):
                return False
            cand = step[c] & avail & within[remaining]
            while cand:
                low = cand & -cand
                cand ^= low
                nxt = low.bit_length() - 1
                budgets[nxt] -= 1
                if dfs(nxt, remaining - 1, avail if budgets[nxt] else avail ^ low, excess - weight[nxt]):
                    path.append(nxt)
                    return True
                budgets[nxt] += 1
            return False

        try:
            found = dfs(anchor, length - 1, -1 if budgets[anchor] else ~(1 << anchor), excess)
        finally:
            del dfs  # dfs holds a reference to itself: drop it so refcounting frees it
        if found:
            cycle = []
            for c in [anchor] + path[::-1]:
                cycle.append((members[c] & -members[c]).bit_length() - 1)
                members[c] &= members[c] - 1  # each class's least unused vertex
            return tuple(cycle)
    return None


def complement_cycle_through(rows, v: int, allowed: int, length: int, left: int, path: list) -> int:
    """Look for the first cycle on exactly ``length`` vertices through v
    inside the vertex mask ``allowed`` of the complement of ``rows``, and
    append it, from v, to the empty list ``path``; ``path`` stays empty
    when there is none. Returns the nodes left of ``left``.

    A plain DFS from v (see the module notes) that extends by ascending
    vertex. It draws a node at v and one at each vertex it extends to until
    two vertices short of the cycle, and raises SearchBudgetExceeded when
    that would take more than ``left``. It draws none when v is not in
    ``allowed``, when ``allowed`` holds fewer than ``length`` vertices, or
    when it holds exactly ``length`` and one of them has fewer than two
    neighbours inside it.
    """
    size = allowed.bit_count()
    if not (allowed >> v) & 1 or size < length:
        return left
    if size == length:
        # the cycle must use every vertex of ``allowed``
        m = allowed
        while m:
            low = m & -m
            m ^= low
            if (allowed & ~(rows[low.bit_length() - 1] | low)).bit_count() < 2:
                return left
    used = 1 << v
    left = _complement_walk(rows, allowed, allowed & ~(rows[v] | used), v, used, length - 1, left, path)
    if path:
        path.append(v)
        path.reverse()
    return left


def _complement_walk(rows, allowed, ends, c, used, steps, left, path):
    """The walk's node at c, the last vertex placed, with ``used`` the
    path's vertices and ``steps`` vertices still to place, the last one of
    v's free ``ends``. Appends the rest of the cycle found, if any, to
    ``path`` in reverse; returns the nodes left."""
    left -= 1
    if left < 0:
        length = used.bit_count() + steps
        raise SearchBudgetExceeded(f"cycle search exceeded its node budget (length {length})")
    cand = allowed & ~(rows[c] | used)
    if steps == 2:
        # the last two steps: the least u that has a closer, then its least closer
        closers = ends & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            shut = closers & ~(rows[u] | low)
            if shut:
                path += ((shut & -shut).bit_length() - 1, u)
                break
        return left
    steps -= 1
    while cand:
        low = cand & -cand
        cand ^= low
        u = low.bit_length() - 1
        left = _complement_walk(rows, allowed, ends, u, used | low, steps, left, path)
        if path:
            path.append(u)
            return left
    return left
