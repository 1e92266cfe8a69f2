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

The child loop works on raw row tuples. It skips, unbuilt, every child
whose new word below the last vertex beats that vertex's word (swapping
the two would beat the labeling), and it offers each remaining child to a
caller's labeling-free ``reject`` test before the canonicity test, so a
hereditary prune such as the arrows scan's wheel test spares the
canonicity proof of every child it drops.
"""

from __future__ import annotations

from itertools import chain

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


def _candidates(rows):
    """The new vertex's neighbourhoods worth trying on the nonempty prefix
    ``rows``, descending. Those whose word below the last vertex beats that
    vertex's word are left out: swapping the two beats the labeling (swap
    bound)."""
    top = 1 << (len(rows) - 1)
    word = rows[-1] & (top - 1)
    return chain(range(top | word, top - 1, -1), range(word, -1, -1))


def _extensions(rows, order: int, dmax: int, prune=None, reject=None):
    """The canonical prefix ``rows`` itself once it has ``order`` vertices;
    else its canonical, kept children, descending by neighborhood bitmask,
    each extended depth-first.

    ``reject(child)`` sees every child's raw rows before the canonicity
    test, ``prune(child)`` only the canonical ones; True from either drops
    the child and its subtree. ``reject`` must therefore not depend on the
    labeling.
    """
    k = len(rows)
    if k == order:
        yield rows
        return
    saturated = 0
    for v in range(k):
        if rows[v].bit_count() >= dmax:
            saturated |= 1 << v
    bit_k = 1 << k
    for subset in _candidates(rows):
        if subset & saturated or subset.bit_count() > dmax:
            continue
        child = list(rows)
        child.append(subset)
        m = subset
        while m:
            low = m & -m
            child[low.bit_length() - 1] |= bit_k
            m ^= low
        child = tuple(child)
        if reject is not None and reject(child):
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
