"""Bit-packed simple graphs: the value type, named families, structural queries.

Vertices are dense indices 0..n-1. Adjacency is one Python int per vertex,
bit v of ``rows[u]`` set iff u ~ v. Graphs are immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

from collections import deque

from . import _cycles
from ._record import Frozen


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(Frozen):
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} has neighbor bits outside [0, {n})")
            if (row >> u) & 1:
                raise ValueError(f"vertex {u} is adjacent to itself")
        for u, row in enumerate(rows):
            for v in _bits(row):
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self._fill(n, rows)

    @classmethod
    def _of(cls, n: int, rows: tuple) -> "Graph":
        """Trusted constructor for rows the library built itself: a tuple of
        n loop-free, symmetric rows inside [0, n). Nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._of(n, tuple(rows))

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple:
        return tuple(_bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self):
        """All edges (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._of(self.n, tuple((full ^ row) & ~(1 << u) for u, row in enumerate(self.rows)))

    def disjoint_union(self, other: "Graph") -> "Graph":
        shift = self.n
        return Graph._of(self.n + other.n, self.rows + tuple(row << shift for row in other.rows))

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph induced on ``vertices``, relabeled by increasing original index."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("vertex out of range")
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            for w in _bits(self.rows[v]):
                if w in index:
                    rows[index[v]] |= 1 << index[w]
        return Graph._of(len(vs), tuple(rows))

    def relabel(self, perm) -> "Graph":
        """Image under the permutation ``perm`` (vertex v becomes perm[v])."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        rows = [0] * self.n
        for u in range(self.n):
            pu = perm[u]
            for v in _bits(self.rows[u]):
                rows[pu] |= 1 << perm[v]
        return Graph._of(self.n, tuple(rows))

    # -- value semantics: equality, hash and pickling come from Frozen -----

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges())})"


# -- named families --------------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph._of(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    full = (1 << n) - 1
    return Graph._of(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """K_{1,n}: center is vertex 0, leaves are 1..n."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def wheel(m: int) -> Graph:
    """W_m: rim cycle 0..m-1 in cyclic order plus hub vertex m joined to all."""
    if m < 3:
        raise ValueError(f"wheel needs m >= 3, got {m}")
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m) for i in range(m)]
    return Graph.from_edges(m + 1, edges)


# -- degree summaries --------------------------------------------------------


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.rows), default=0)


def min_degree(g: Graph) -> int:
    return min((row.bit_count() for row in g.rows), default=0)


# -- connectivity ------------------------------------------------------------


def components(g: Graph) -> list:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    seen = 0
    out = []
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(tuple(_bits(comp)))
    return out


def is_bipartite(g: Graph):
    """A bipartition (X, Y) as sorted tuples, or None.

    The smallest vertex of each component goes to X.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in _bits(g.rows[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    xs = tuple(v for v in range(g.n) if color[v] == 0)
    ys = tuple(v for v in range(g.n) if color[v] == 1)
    return (xs, ys)


def _block_decomposition(g: Graph):
    """Block decomposition by ``_cycles.blocks``: (blocks as sorted vertex
    tuples, in increasing order; cut vertex set). Blocks are the maximal
    2-connected subgraphs and the bridges; isolated vertices form no block.
    """
    masks, cuts = _cycles.blocks(g.rows, g.n)
    return sorted(tuple(_bits(b)) for b in masks), frozenset(_bits(cuts))


def blocks(g: Graph) -> list:
    return _block_decomposition(g)[0]


def cut_vertices(g: Graph) -> frozenset:
    return _block_decomposition(g)[1]


def is_two_connected(g: Graph) -> bool:
    """True iff g has >= 3 vertices, is connected, and has no cut vertex."""
    if g.n < 3:
        return False
    if len(components(g)) != 1:
        return False
    return not _block_decomposition(g)[1]


# -- shortest cycles ----------------------------------------------------------


def girth(g: Graph):
    """Length of a shortest cycle, or None for forests.

    BFS from every root; for each non-tree edge (u, w) the closed walk
    root->u->w->root has length dist[u]+dist[w]+1 and always contains a
    cycle no longer than that, with equality achieved for roots on a
    shortest cycle.
    """
    best = None
    dist = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        for v in range(g.n):
            dist[v] = -1
        dist[root] = 0
        parent[root] = -1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for v in _bits(g.rows[u]):
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def circumference(g: Graph, node_budget=None):
    """Length of a longest cycle, or None for forests.

    Exhaustive search, exact; intended for small orders (<= ~16). The node
    budget is shared across the whole call and exhaustion raises, never
    returning a wrong answer.
    """
    if girth(g) is None:
        return None
    budget = _cycles.Budget(node_budget)
    for length in range(g.n, 2, -1):
        if _cycles.find_cycle_of_length(g.rows, g.n, length, budget) is not None:
            return length
    raise AssertionError("girth found a cycle but circumference did not")
