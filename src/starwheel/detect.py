"""Detectors for the two Ramsey targets and cycle-spectrum queries.

"Contains" always means subgraph containment, not induced: a star K_{1,n}
is present iff some vertex has degree >= n, and a wheel W_m is present iff
some hub vertex has a cycle C_m inside the subgraph induced on its
neighborhood. Witness selection is deterministic (smallest indices first)
so fixtures are stable.
"""

from __future__ import annotations

from ._cycles import (
    Budget,
    SearchBudgetExceeded,
    find_cycle_of_length,
    find_cycle_through,
    find_cycle_within,
)
from ._record import Frozen
from .core import Graph

__all__ = [
    "StarWitness",
    "WheelWitness",
    "SearchBudgetExceeded",
    "contains_star",
    "contains_wheel",
    "wheel_through",
    "has_cycle_of_length",
    "cycle_spectrum",
    "is_pancyclic",
    "is_weakly_pancyclic",
]


class StarWitness(Frozen):
    """A K_{1,n} subgraph: center joined to n distinct leaves."""

    __slots__ = ("center", "leaves")

    def __init__(self, center: int, leaves: tuple):
        self._fill(center, leaves)

    def validate(self, g: Graph, n: int) -> bool:
        leaves = set(self.leaves)
        return (
            len(self.leaves) == n
            and len(leaves) == n
            and self.center not in leaves
            and all(g.has_edge(self.center, v) for v in leaves)
        )

    def __str__(self):
        return f"star center={self.center} leaves={','.join(map(str, self.leaves))}"


class WheelWitness(Frozen):
    """A W_m subgraph: hub joined to every vertex of an m-cycle rim."""

    __slots__ = ("hub", "rim")

    def __init__(self, hub: int, rim: tuple):
        self._fill(hub, rim)

    def validate(self, g: Graph, m: int) -> bool:
        rim = self.rim
        if len(rim) != m or len(set(rim)) != m or self.hub in rim:
            return False
        if not all(g.has_edge(self.hub, v) for v in rim):
            return False
        return all(g.has_edge(rim[i], rim[(i + 1) % m]) for i in range(m))

    def neighbourhood(self, v: int) -> int:
        """Bitmask of the vertices this wheel joins to its vertex v: the
        rim when v is the hub, else the hub and v's two rim neighbours."""
        rim = self.rim
        if v == self.hub:
            return sum(1 << u for u in rim)
        i = rim.index(v)
        return 1 << self.hub | 1 << rim[i - 1] | 1 << rim[(i + 1) % len(rim)]

    def __str__(self):
        return f"wheel hub={self.hub} rim={','.join(map(str, self.rim))}"


def contains_star(g: Graph, n: int):
    """A StarWitness iff max degree >= n, else None.

    The center is the smallest-index vertex of maximum degree; the leaves
    are its n smallest-index neighbors.
    """
    if n < 1:
        raise ValueError(f"star leaf count must be >= 1, got {n}")
    best = -1
    center = -1
    for v in range(g.n):
        d = g.rows[v].bit_count()
        if d > best:
            best = d
            center = v
    if best < n:
        return None
    return StarWitness(center, g.neighbors(center)[:n])


def has_cycle_of_length(g: Graph, length: int, node_budget=None):
    """A cycle on exactly ``length`` distinct vertices, or None.

    Exhaustive backtracking (see _cycles); raises SearchBudgetExceeded
    rather than ever returning a wrong answer.
    """
    return find_cycle_of_length(g.rows, g.n, length, Budget(node_budget))


def contains_wheel(g: Graph, m: int, node_budget=None):
    """A WheelWitness for W_m, or None.

    Hubs are tried in increasing index (degree >= m is a mandatory
    pre-filter); the rim is the first cycle found by the deterministic
    search on the hub's neighborhood, in g's own labels: the search gets
    g's rows restricted to the neighborhood, every other vertex isolated.
    """
    if m < 3:
        raise ValueError(f"wheel rim length must be >= 3, got {m}")
    budget = Budget(node_budget)
    for hub in range(g.n):
        nbrs = g.rows[hub]
        if nbrs.bit_count() < m:
            continue
        hood = [0] * g.n
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            hood[v] = g.rows[v] & nbrs
        found = find_cycle_of_length(hood, g.n, m, budget)
        if found is not None:
            return WheelWitness(hub, found)
    return None


def wheel_through(rows, v: int, m: int, node_budget=None):
    """A WheelWitness for a W_m that uses vertex v, or None, on raw rows.

    v is either the hub, tried first (a C_m inside N(v)), or on the rim of
    a hub h in N(v), tried ascending: h needs degree >= m and v two rim
    neighbours in N(v) & N(h), and the rim is a C_m through v inside N(h).
    All searches draw on one budget. Every W_m of g either uses v or lies
    in g - v, so when g - v has none this decides whether g has one.
    """
    if m < 3:
        raise ValueError(f"wheel rim length must be >= 3, got {m}")
    budget = Budget(node_budget)
    nbrs = rows[v]
    if nbrs.bit_count() >= m:
        found = find_cycle_within(rows, nbrs, m, budget)
        if found is not None:
            return WheelWitness(v, found)
    hubs = nbrs
    while hubs:
        low = hubs & -hubs
        hubs ^= low
        hub = low.bit_length() - 1
        around = rows[hub]
        if around.bit_count() < m or (around & nbrs).bit_count() < 2:
            continue
        found = find_cycle_through(rows, v, around, m, budget)
        if found is not None:
            return WheelWitness(hub, found)
    return None


def cycle_spectrum(g: Graph, node_budget=None) -> set:
    """The set of cycle lengths present in g (empty for forests)."""
    budget = Budget(node_budget)
    return {
        length
        for length in range(3, g.n + 1)
        if find_cycle_of_length(g.rows, g.n, length, budget) is not None
    }


def is_pancyclic(g: Graph, node_budget=None) -> bool:
    """Cycles of every length from 3 through the order."""
    return cycle_spectrum(g, node_budget) == set(range(3, g.n + 1))


def is_weakly_pancyclic(g: Graph, node_budget=None) -> bool:
    """Cycles of every length from girth through circumference; forests vacuously."""
    spectrum = cycle_spectrum(g, node_budget)
    return not spectrum or spectrum == set(range(min(spectrum), max(spectrum) + 1))
