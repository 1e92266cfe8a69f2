"""Isomorph-free generation of degree-bounded graphs (orderly algorithm).

Canonical form. A labeling of a graph is scored by the tuple
(w_1, ..., w_{n-1}) where w_j encodes the adjacency of vertex j to
vertices 0..j-1 (bit p set iff j ~ p). The canonical labeling maximizes
this tuple lexicographically. Because all of column j's bits depend only
on the first j+1 vertices, the first k words of a canonical labeling are
canonical for the induced prefix graph; deleting the last vertex of a
canonical graph yields a canonical graph, and generation can proceed by
extending canonical graphs one vertex at a time, keeping exactly the
children that are themselves canonical. Each isomorphism class therefore
appears exactly once, with no cross-level bookkeeping.

The canonicity test is backtracking over orderings that tie the target
word-for-word, aborting as soon as any ordering beats it; interchangeable
vertices (equal rows ignoring their mutual bits, so swapping them is an
automorphism) are pruned to one representative per node, using the twin
partition ``_cycles.twin_reps`` that the cycle engine shares. The canonical
form reuses this test: it relabels by the prefix that beats the current
labeling (unplaced vertices after it, in index order) until none does.

The child loop works on raw row tuples and settles most children before
any search runs. A child is its parent plus a new vertex with
neighbourhood S. Placing the new vertex at position j (ordering 0..j-1,
new, j..k-1) ties the labeling's words below j and gives position j the
word S restricted to vertices below j; when that beats vertex j's own word
for any j, the child is not canonical (insertion bound), and the child
loop never builds it. Each remaining child meets a caller's
labeling-free ``reject`` test before the canonicity test, so a hereditary
prune such as the arrows scan's wheel test spares the canonicity proof of
every child it drops. ``reject`` answers with a mask of parent vertices
its reason rests on: a sibling whose neighbourhood misses that mask is
dropped for the same reason, unbuilt and untested.
"""

from __future__ import annotations

from ._cycles import twin_reps
from .core import Graph

__all__ = ["is_canonical", "canonical_form", "is_isomorphic", "enumerate_degree_bounded"]


def _improvement(rows, n: int):
    """None iff this labeling lex-maximizes the column-word tuple; else the
    ``pos`` array (position of each vertex, -1 if unplaced) of the first
    ordering prefix found whose words beat the labeling's."""
    if n <= 1:
        return None
    pos = [-1] * n
    rep = twin_reps(rows, n)

    def attempt(depth, placed_mask, unplaced):
        # True = no ordering in this subtree beats the target labeling
        target = rows[depth] & ((1 << depth) - 1)
        ties = []
        seen = 0
        m = unplaced
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            w = 0
            nb = rows[u] & placed_mask
            while nb:
                nlow = nb & -nb
                w |= 1 << pos[nlow.bit_length() - 1]
                nb ^= nlow
            if w > target:
                pos[u] = depth
                return False
            if w == target and not (seen >> rep[u]) & 1:
                # unplaced twins have equal words: one per class suffices
                seen |= 1 << rep[u]
                ties.append(u)
        if depth == n - 1:
            return True
        for u in ties:
            bu = 1 << u
            pos[u] = depth
            if not attempt(depth + 1, placed_mask | bu, unplaced ^ bu):
                return False
            pos[u] = -1
        return True

    # position 0 carries no word: every vertex ties there
    return None if attempt(0, 0, (1 << n) - 1) else pos


def is_canonical(rows, n: int) -> bool:
    """True iff this labeling lex-maximizes the column-word tuple."""
    return _improvement(rows, n) is None


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    while (pos := _improvement(g.rows, g.n)) is not None:
        # the beating prefix first, then the unplaced vertices in index order;
        # the word tuple strictly increases, so this ends at the lex-max labeling
        rest = max(pos) + 1
        for v in range(g.n):
            if pos[v] < 0:
                pos[v] = rest
                rest += 1
        g = g.relabel(pos)
    return g


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_form(a) == canonical_form(b)


def _candidates(rows, dmax: int):
    """The new vertex's neighbourhoods S worth trying on the nonempty prefix
    ``rows``, descending: at most ``dmax`` vertices, none of degree ``dmax`` already, and none that the insertion bound rules
    out, that is, none with S & (2^j - 1) > rows[j] & (2^j - 1) for some j.

    Bits are chosen from the top down. ``tight`` holds the j whose
    comparison is still tied on the bits chosen so far. Rows are symmetric,
    so bit p of rows[j] is bit j of rows[p]: a 1 at bit p keeps every tied j
    tied iff all of them are adjacent to p (else S beats rows[j] there), and
    a 0 leaves tied only those not adjacent to p."""
    k = len(rows)
    unsaturated = 0
    for v in range(k):
        if rows[v].bit_count() < dmax:
            unsaturated |= 1 << v
    out = []

    def descend(p, subset, room, tight):
        while p >= 0:
            row = rows[p]
            if p + 1 < k:
                tight |= 1 << (p + 1)
            if room and (unsaturated >> p) & 1 and not tight & ~row:
                descend(p - 1, subset | 1 << p, room - 1, tight)
            tight &= ~row
            p -= 1
        out.append(subset)

    descend(k - 1, 0, dmax, 0)
    return out


def _extensions(rows, order: int, dmax: int, prune=None, reject=None):
    """The canonical prefix ``rows`` itself once it has ``order`` vertices;
    else its canonical, kept children, descending by neighborhood bitmask,
    each extended depth-first.

    ``reject(child)`` sees every child's raw rows before the canonicity
    test and answers with a bitmask of parent vertices, 0 to keep the
    child. A nonzero mask drops the child and vouches for its siblings:
    every sibling whose neighbourhood misses the mask would be dropped too,
    so none of them is built. ``reject`` must therefore not depend on the
    labeling. ``prune(child)`` sees only the canonical children; True drops
    the child and its subtree.
    """
    k = len(rows)
    if k == order:
        yield rows
        return
    bit_k = 1 << k
    blocked = []
    for subset in _candidates(rows, dmax):
        if any(not subset & t for t in blocked):
            continue
        child = list(rows)
        child.append(subset)
        m = subset
        while m:
            low = m & -m
            child[low.bit_length() - 1] |= bit_k
            m ^= low
        child = tuple(child)
        if reject is not None:
            t = reject(child)
            if t:
                blocked.append(t)
                continue
        if not is_canonical(child, k + 1):
            continue
        if prune is None or not prune(child):
            yield from _extensions(child, order, dmax, prune, reject)


def enumerate_degree_bounded(order: int, dmax: int, prune=None):
    """One representative per isomorphism class of graphs with the given
    order and maximum degree <= dmax, in a fixed deterministic order.

    ``prune``, when given, is called with every canonical graph the search
    builds, from the root on min(order, 1) vertices (so also the order-0
    graph) up to the target order; returning True discards that graph and
    its entire extension subtree.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if dmax < 0:
        raise ValueError(f"degree bound must be >= 0, got {dmax}")
    root = (0,) * min(order, 1)
    on_rows = None if prune is None else lambda rows: prune(Graph._of(len(rows), rows))
    if on_rows is None or not on_rows(root):
        for rows in _extensions(root, order, dmax, on_rows):
            yield Graph._of(order, rows)
