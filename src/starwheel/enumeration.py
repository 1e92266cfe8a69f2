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
word-for-word, aborting as soon as any ordering beats it. Each node
compares the words of all unplaced vertices with the target at once, on
vertex masks: walking the placed positions from the most significant down,
it narrows the mask of vertices still tied and collects those that beat
the target, in O(depth) mask steps with no word built. Interchangeable
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
every child it drops.

Sibling rules. A child dropped for a reason that rests on a few parent
vertices vouches for its later siblings: the child loop filters its list
of remaining neighbourhoods once per dropped child, and the siblings it
filters out are never built or tested. The wheel rule keeps only the S'
with S' & t nonzero: ``reject`` answers with a mask t of parent vertices
such that every sibling missing t is rejected for the same reason (the
arrows scan's complement wheel meets the new vertex only through its
non-edges to t, which every such sibling keeps). The canonicity rule
keeps only the S' with S' & need != need: a rejected child's canonicity
test names an ordering prefix whose words beat the labeling's at its
last position. When that position lies below the new vertex's position
k, the target words it is compared with do not depend on S, and on any
sibling with S' & prefix holding need = S & prefix the prefix's words
only gain bits, so the same prefix beats that sibling too (R. C. Read's
"Every one a winner" argument). Every beating prefix of a
child of a canonical parent holds the new vertex, as prefixes of parent
vertices alone tie the parent at best; the canonicity test therefore tries
the new vertex first among each node's ties, so rejections end shallow,
on small masks that many siblings share.

Symmetry bound. An automorphism σ of the parent maps S to σ(S), and the
ordering σ^-1(0), ..., σ^-1(k-1) ties the parent's words, so if σ(S) > S,
or σ(S) beats rows[j] below some insertion position j, the child is not
canonical (σ = identity is the insertion bound). The automorphisms come
from the parent's own canonicity proof: when ``is_canonical`` accepts, it
hands on its twin partition, whose transpositions are automorphisms, and
the orderings its backtrack completed with every word tied. The child
loop picks a twin only together with the next higher vertex of its class,
checks the other automorphisms on each neighbourhood left, and drops the
children they beat before ``reject`` or the canonicity test runs. Each
proof travels with its graph, so a subtree's root needs no second test.

Replaying the parent's search. An accepting test also records its search:
one int per backtrack node below the root, in visiting order, packing the
node's depth d and order[d-1], the vertex placed last; a completed
ordering whose words all tie sits at depth n. The child loop hands each
child its parent's proof. At a node of the child's search whose prefix
holds parent vertices only, the target words and the parent vertices'
words are the parent's, so those vertices tie exactly as they did in the
parent and none beats; only the new vertex v's word is new. When v keeps
every parent twin class whole (the child's twin partition, less v, is the
parent's), the test walks the parent's record and keeps only v's word
along the path: a beat by v rejects the child with that prefix, a tie
runs the plain backtrack below with v placed there, on the parent
vertices off the path (rebuilt from the path only then), and the rest of
the node is the parent's recorded branches. If v joins a parent twin class
as a twin, v is tried first at every node where that class ties, so the
class's recorded branch is skipped, as the plain search dedupes it. The
walked entries and the new nodes form the child's own record. A child
that splits a parent twin class needs a branch per part where the parent
recorded one, so it, like every test without a parent, runs the plain
search, which stays the reference. The verdict is the same either way;
as the walk meets the ties in the parent's visiting order and picks twin
representatives as the parent did, the beating prefix it names and the
automorphisms it lists may differ.
"""

from __future__ import annotations

from ._cycles import twin_reps
from .core import Graph

__all__ = ["is_canonical", "canonical_form", "is_isomorphic", "enumerate_degree_bounded"]


# a record entry packs a backtrack node's depth and the vertex placed last
_DEPTH_SHIFT = 16
_VERTEX = (1 << _DEPTH_SHIFT) - 1


def _improvement(rows, n: int, proof=None, parent=None):
    """None iff this labeling lex-maximizes the column-word tuple; else the
    ``pos`` array (position of each vertex, -1 if unplaced) of the first
    ordering prefix found whose words beat the labeling's. Each node fails
    at its lowest beating vertex, else tries its ties with the last vertex
    first and the rest ascending. A given ``proof`` list gets what
    ``is_canonical`` describes; a ``parent`` proof is replayed when it
    applies (see "Replaying the parent's search")."""
    if n <= 1:
        if proof is not None:
            proof += (list(range(n)), [], [n << _DEPTH_SHIFT] if n else [])
        return None
    rep = twin_reps(rows, n)
    last = 1 << (n - 1)
    order = [0] * n  # order[i]: the vertex placed at position i
    record = []  # the search's nodes below the root, in visiting order
    leaves = None if proof is None else []

    def attempt(depth, unplaced):
        # the length of the first prefix found that beats the target
        # labeling, 0 if no ordering in this subtree does
        target = rows[depth]
        # compare every unplaced vertex's word with the target at once, from
        # the most significant position down: ``tie`` holds the vertices
        # whose word agrees with the target so far, ``beat`` those whose
        # word has a 1 at the first position where it differs (a 0 loses)
        tie = unplaced
        beat = 0
        i = depth - 1
        while tie and i >= 0:
            nb = rows[order[i]]
            if (target >> i) & 1:
                tie &= nb
            else:
                beat |= tie & nb
                tie &= ~nb
            i -= 1
        if beat:
            order[depth] = (beat & -beat).bit_length() - 1
            return depth + 1
        if depth == n - 1:
            if tie:
                # every word ties the target: this ordering is an automorphism
                order[depth] = u = tie.bit_length() - 1
                record.append(n << _DEPTH_SHIFT | u)
                if leaves is not None:
                    leaves.append(order[:])
            return 0
        # the new (last) vertex first, then ascending (see "Sibling rules")
        seen = 0
        entry = (depth + 1) << _DEPTH_SHIFT
        while tie:
            low = tie & last or tie & -tie
            tie ^= low
            u = low.bit_length() - 1
            if (seen >> rep[u]) & 1:
                continue  # unplaced twins have equal words: one per class suffices
            seen |= 1 << rep[u]
            order[depth] = u
            record.append(entry | u)
            found = attempt(depth + 1, unplaced ^ low)
            if found:
                return found
        return 0

    def replay(entries):
        # the parent's accepted search with the new vertex v unplaced: only
        # v's word can beat or tie anew at each of its nodes
        v = n - 1
        nbrs = rows[v]
        twin = rep[v]  # v itself unless v joins a parent class
        targets = [row & ((1 << d) - 1) for d, row in enumerate(rows)]
        words = [0] * n  # v's word at each depth of the current path
        append = record.append
        order[0] = v
        append(1 << _DEPTH_SHIFT | v)
        found = attempt(1, last - 1)  # at the root v ties, as every vertex does
        if found:
            return found
        skip = n
        for e in entries:
            d = e >> _DEPTH_SHIFT
            if d > skip:
                continue
            u = e & _VERTEX
            if rep[u] == twin:
                skip = d  # v's twin: explored through v already
                continue
            skip = n
            order[d - 1] = u
            append(e)
            word = words[d - 1]
            if (nbrs >> u) & 1:
                word |= 1 << (d - 1)
            words[d] = word
            target = targets[d]
            if word < target:
                continue
            order[d] = v
            if word > target:
                return d + 1
            if d == v:
                append(n << _DEPTH_SHIFT | v)
                if leaves is not None:
                    leaves.append(order[:])
            else:
                append((d + 1) << _DEPTH_SHIFT | v)
                unplaced = last - 1  # the parent vertices off the path
                for w in order[:d]:
                    unplaced ^= 1 << w
                found = attempt(d + 1, unplaced)
                if found:
                    return found
        return 0

    if parent is not None and rep[:-1] == parent[0]:
        found = replay(parent[2])
    else:
        # position 0 carries no word: every vertex ties there
        found = attempt(0, (1 << n) - 1)
    del attempt  # attempt holds a reference to itself: drop it so refcounting frees it
    if not found:
        if proof is not None:
            identity = list(range(n))
            maps = []
            for leaf in leaves:
                if leaf != identity:
                    inverse = [0] * n
                    for i, v in enumerate(leaf):
                        inverse[v] = i
                    maps.append(inverse)
            proof += (rep, maps, record)
        return None
    pos = [-1] * n
    for i in range(found):
        pos[order[i]] = i
    if proof is not None:
        proof.append(sum(1 << order[i] for i in range(found)))
    return pos


def is_canonical(rows, n: int, proof=None, parent=None) -> bool:
    """True iff this labeling lex-maximizes the column-word tuple.

    When True and a ``proof`` list is given, three things the test already
    has are appended to it: the twin partition (``_cycles.twin_reps``), a
    list of non-identity automorphisms, the orderings whose words all tie
    the labeling's, and the record of the search. Each automorphism is kept
    as its inverse map: an ordering that places vertex order[i] at position
    i is stored as v -> i. The record holds one int per backtrack node below
    the root, in visiting order: the node's depth d shifted left by
    ``_DEPTH_SHIFT``, or'ed with order[d-1], the vertex placed last; a
    completed ordering whose words all tie sits at depth n.

    When False and a ``proof`` list is given, the vertex mask of the
    ordering prefix that beats the labeling is appended: the vertices at
    positions 0..p, where p, one less than the mask's popcount, is the
    position at which the prefix's word beats the labeling's.

    ``parent``, when given, is the proof of ``rows`` without its last
    vertex, recorded by an accepting test. The test then replays the
    parent's record instead of repeating its search whenever the last
    vertex keeps every parent twin class whole; the verdict is the same
    either way."""
    return _improvement(rows, n, proof, parent) is None


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


def _candidates(rows, dmax: int, twins=None):
    """The new vertex's neighbourhoods S worth trying on the nonempty prefix
    ``rows``, descending: at most ``dmax`` vertices, none of degree ``dmax``
    already, and none that the insertion bound rules out, that is, none
    with S & (2^j - 1) > rows[j] & (2^j - 1) for some j. Given the prefix's
    twin partition ``twins`` (``twin_reps``), also none that holds a vertex
    but not the next higher vertex of its twin class: swapping the two
    would raise S.

    Bits are chosen from the top down. ``tight`` holds the j whose
    comparison is still tied on the bits chosen so far. Rows are symmetric,
    so bit p of rows[j] is bit j of rows[p]: a 1 at bit p keeps every tied j
    tied iff all of them are adjacent to p (else S beats rows[j] there), and
    a 0 leaves tied only those not adjacent to p."""
    k = len(rows)
    # needs[p]: the bits S must already hold to take p, that is, p's next
    # higher twin; p's own bit, which S cannot hold yet, when p has degree dmax
    needs = [0] * k
    if twins is not None:
        nearest = [0] * k
        for v in range(k - 1, -1, -1):
            needs[v] = nearest[twins[v]]
            nearest[twins[v]] = 1 << v
    for v in range(k):
        if rows[v].bit_count() >= dmax:
            needs[v] = 1 << v
    out = []

    def descend(p, subset, room, tight):
        while p >= 0:
            row = rows[p]
            if p + 1 < k:
                tight |= 1 << (p + 1)
            if room and not needs[p] & ~subset and not tight & ~row:
                descend(p - 1, subset | 1 << p, room - 1, tight)
            tight &= ~row
            p -= 1
        out.append(subset)

    descend(k - 1, 0, dmax, 0)
    del descend  # descend holds a reference to itself: drop it so refcounting frees it
    return out


def _moved_above(rows, subset, maps) -> bool:
    """True iff some automorphism σ in ``maps`` (each a list v -> σ(v)) of
    the canonical prefix ``rows`` proves the child with neighbourhood
    ``subset`` non-canonical: σ(S) > S, or σ(S) beats rows[j] below some
    insertion position j. ``subset`` must pass the insertion bound: then a
    σ(S) < S can beat only the positions j up to the highest bit where σ(S)
    and S differ, as above it σ(S) stays below S."""
    for sigma in maps:
        image = 0
        m = subset
        while m:
            low = m & -m
            image |= 1 << sigma[low.bit_length() - 1]
            m ^= low
        if image > subset:
            return True
        for j in range(1, (image ^ subset).bit_length()):
            below = (1 << j) - 1
            if image & below > rows[j] & below:
                return True
    return False


def _extensions(rows, order: int, dmax: int, kept, reject=None, proof=None):
    """The canonical prefix ``rows`` itself once it has ``order`` vertices;
    else its canonical, kept children, descending by neighborhood bitmask,
    each extended depth-first. Each comes as (rows, proof), with the proof
    ``is_canonical`` recorded for it. ``proof`` is the prefix's own; None
    leaves its children to the insertion bound and the plain search. Each
    child's canonicity test gets ``proof`` as its parent. ``kept[j]`` gains
    1 for each canonical child on j vertices kept, before its subtree is
    searched; the prefix itself is never counted.

    A dropped child vouches for its later siblings: the neighbourhoods
    still to try are filtered once, and those filtered out are never built.
    ``reject(child)`` sees every child's raw rows before the canonicity
    test and answers with a bitmask t of parent vertices, 0 to keep the
    child; a nonzero t drops the child and every later S with S & t == 0,
    so ``reject`` must not depend on the labeling. A child the canonicity
    test rejects at a position below its new vertex k drops every later S
    that holds need = its own S & the beating prefix's vertex mask.
    """
    k = len(rows)
    if k == order:
        yield rows, proof
        return
    twins, maps, _ = proof or (None, (), None)
    bit_k = 1 << k
    todo = _candidates(rows, dmax, twins)[::-1]  # ascending: pop the largest S
    while todo:
        subset = todo.pop()
        if maps and _moved_above(rows, subset, maps):
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
                todo = [s for s in todo if s & t]
                continue
        child_proof = []
        if not is_canonical(child, k + 1, child_proof, proof):
            placed = child_proof[0]
            if placed.bit_count() <= k:
                need = subset & placed
                todo = [s for s in todo if s & need != need]
            continue
        kept[k + 1] += 1
        yield from _extensions(child, order, dmax, kept, reject, child_proof)


def enumerate_degree_bounded(order: int, dmax: int):
    """One representative per isomorphism class of graphs with the given
    order and maximum degree <= dmax, each in its canonical labeling, in a
    fixed deterministic order.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if dmax < 0:
        raise ValueError(f"degree bound must be >= 0, got {dmax}")
    for rows, _ in _extensions((0,) * min(order, 1), order, dmax, [0] * (order + 1)):
        yield Graph._of(order, rows)
