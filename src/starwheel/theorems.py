"""Executable hypothesis => conclusion oracles for the classical cycle
theorems (Dirac, Brandt et al., Jackson) and the mechanized verification of
the lower-bound construction, plus a fuzz harness over graph corpora.

A Counterexample verdict from a published theorem indicts this package's
detectors, not the theorem: the fuzz harness treats it as a build-failing
event and serializes the offending graph. Degree conditions involving
halves are checked in cleared-denominator integer form. Each query's cycle
searches share one ``_cycles.DEFAULT_NODE_BUDGET``; exhaustion raises.
"""

from __future__ import annotations

from . import graph6
from ._record import Frozen, Record
from .construct import lower_bound_witness, theta
from .core import (
    Graph,
    components,
    circumference,
    girth,
    is_bipartite,
    is_two_connected,
    min_degree,
)
from .detect import contains_star, contains_wheel, has_cycle_of_length, is_weakly_pancyclic
from .enumeration import enumerate_degree_bounded

__all__ = [
    "HYPOTHESIS_NOT_MET",
    "CONCLUSION_HOLDS",
    "COUNTEREXAMPLE",
    "Verdict",
    "check_dirac",
    "check_brandt",
    "check_jackson",
    "verify_construction",
    "FuzzSummary",
    "fuzz",
    "DEFAULT_CHECKS",
]

HYPOTHESIS_NOT_MET = "hypothesis-not-met"
CONCLUSION_HOLDS = "conclusion-holds"
COUNTEREXAMPLE = "counterexample"


class Verdict(Frozen):
    __slots__ = ("status", "witness", "detail")

    def __init__(self, status: str, witness: object = None, detail: str = ""):
        self._fill(status, witness, detail)

    @property
    def holds(self) -> bool:
        return self.status == CONCLUSION_HOLDS


def check_dirac(g: Graph) -> Verdict:
    """Dirac: every 2-connected graph has circumference >= min(2*delta, nu)."""
    if not is_two_connected(g):
        return Verdict(HYPOTHESIS_NOT_MET)
    c = circumference(g)
    need = min(2 * min_degree(g), g.n)
    if c is not None and c >= need:
        return Verdict(CONCLUSION_HOLDS, witness=c)
    return Verdict(COUNTEREXAMPLE, witness=c, detail=f"circumference {c} < {need}")


def check_brandt(g: Graph) -> Verdict:
    """Brandt et al.: a non-bipartite graph with 3*delta >= nu + 2 is weakly
    pancyclic with girth 3 or 4."""
    if is_bipartite(g) is not None or 3 * min_degree(g) < g.n + 2:
        return Verdict(HYPOTHESIS_NOT_MET)
    low = girth(g)
    if low not in (3, 4):
        return Verdict(COUNTEREXAMPLE, detail=f"girth {low} not in {{3, 4}}")
    if not is_weakly_pancyclic(g):
        return Verdict(COUNTEREXAMPLE, detail="cycle spectrum has a gap")
    return Verdict(CONCLUSION_HOLDS, witness=low)


def check_jackson(g: Graph, xs, ys) -> Verdict:
    """Jackson: a bipartite graph with sides X, Y, 2 <= |X| <= |Y|, in which
    every x in X has d(x) >= |X| and 2*d(x) >= |Y| + 2, has a cycle through
    all of X (equivalently, of length 2|X|)."""
    xs = tuple(sorted(xs))
    ys = tuple(sorted(ys))
    if sorted(xs + ys) != list(range(g.n)) or set(xs) & set(ys):
        return Verdict(HYPOTHESIS_NOT_MET, detail="not a partition")
    xmask = sum(1 << v for v in xs)
    ymask = sum(1 << v for v in ys)
    if any(g.rows[v] & xmask for v in xs) or any(g.rows[v] & ymask for v in ys):
        return Verdict(HYPOTHESIS_NOT_MET, detail="internal edges")
    if not 2 <= len(xs) <= len(ys):
        return Verdict(HYPOTHESIS_NOT_MET)
    if any(g.degree(x) < len(xs) or 2 * g.degree(x) < len(ys) + 2 for x in xs):
        return Verdict(HYPOTHESIS_NOT_MET)
    # a cycle of length 2|X| alternates sides, so it covers X exactly
    found = has_cycle_of_length(g, 2 * len(xs))
    if found is not None:
        return Verdict(CONCLUSION_HOLDS, witness=found)
    return Verdict(COUNTEREXAMPLE, detail=f"no cycle of length {2 * len(xs)}")


def verify_construction(n: int, m: int) -> Verdict:
    """Mechanize the lower-bound proof on the constructed witness: the order
    claim, star-freeness, complement wheel-freeness, and the component-size
    claim for the regular graph the witness was built from."""
    w = lower_bound_witness(n, m)  # raises on hypothesis violation
    t = theta(n, m)
    expected = 2 * n + m // 2 - t - 1
    if w.n != expected:
        return Verdict(COUNTEREXAMPLE, witness=w, detail=f"order {w.n} != {expected}")
    star = contains_star(w, n)
    if star is not None:
        return Verdict(COUNTEREXAMPLE, witness=star, detail=f"witness contains K_{{1,{n}}}")
    wheel = contains_wheel(w.complement(), m)
    if wheel is not None:
        return Verdict(COUNTEREXAMPLE, witness=wheel, detail=f"complement contains W_{m}")
    h_order = n + m // 2 - t - 1
    h = w.induced_subgraph(range(h_order)).complement()
    oversized = [c for c in components(h) if len(c) > m - 1]
    if oversized:
        return Verdict(COUNTEREXAMPLE, witness=h, detail=f"regular part has a component of order > {m - 1}")
    if any(h.degree(v) != m // 2 - 1 for v in range(h.n)):
        return Verdict(COUNTEREXAMPLE, witness=h, detail=f"regular part is not {m // 2 - 1}-regular")
    return Verdict(CONCLUSION_HOLDS, witness=w)


# -- fuzzing ------------------------------------------------------------------


def _bipartitions(g: Graph):
    """All side assignments (X, Y) of a bipartite graph, each once: every
    component's 2-coloring can flip, and flipping them all swaps X and Y."""
    base = is_bipartite(g)
    if base is None:
        return
    # each component's smallest vertex is in base's X side
    in_y = set(base[1])
    comps = components(g)
    for flips in range(1 << len(comps)):
        xs = []
        ys = []
        for i, comp in enumerate(comps):
            flip = (flips >> i) & 1
            for v in comp:
                (ys if (v in in_y) ^ flip else xs).append(v)
        yield tuple(sorted(xs)), tuple(sorted(ys))


def _fuzz_dirac(g):
    yield check_dirac(g)


def _fuzz_brandt(g):
    yield check_brandt(g)


def _fuzz_jackson(g):
    for xs, ys in _bipartitions(g):
        yield check_jackson(g, xs, ys)


DEFAULT_CHECKS = {
    "dirac": _fuzz_dirac,
    "brandt": _fuzz_brandt,
    "jackson": _fuzz_jackson,
}


class FuzzSummary(Record):
    __slots__ = ("graphs", "tallies", "counterexample")

    def __init__(
        self,
        graphs: int = 0,
        tallies: dict | None = None,  # check name -> {status: count}
        counterexample: tuple | None = None,  # (check name, Graph, Verdict)
    ):
        self._fill(graphs, {} if tallies is None else tallies, counterexample)

    @property
    def clean(self) -> bool:
        return self.counterexample is None

    def lines(self):
        out = [f"graphs={self.graphs}"]
        for name in sorted(self.tallies):
            t = self.tallies[name]
            out.append(
                f"{name} {HYPOTHESIS_NOT_MET}={t.get(HYPOTHESIS_NOT_MET, 0)}"
                f" {CONCLUSION_HOLDS}={t.get(CONCLUSION_HOLDS, 0)}"
                f" {COUNTEREXAMPLE}={t.get(COUNTEREXAMPLE, 0)}"
            )
        if self.counterexample is None:
            out.append("no counterexamples")
        else:
            name, g, verdict = self.counterexample
            out.append(
                f"counterexample check={name} graph={graph6.to_graph6_str(g)} detail={verdict.detail}"
            )
        return out


def fuzz(graphs, checks=None) -> FuzzSummary:
    """Run every oracle over a corpus of graphs.

    Aborts at the first Counterexample (recording it); any such verdict is
    a build-failing event.
    """
    checks = DEFAULT_CHECKS if checks is None else checks
    summary = FuzzSummary(tallies={name: {} for name in checks})
    for g in graphs:
        summary.graphs += 1
        for name, runner in checks.items():
            tally = summary.tallies[name]
            for verdict in runner(g):
                tally[verdict.status] = tally.get(verdict.status, 0) + 1
                if verdict.status == COUNTEREXAMPLE:
                    summary.counterexample = (name, g, verdict)
                    return summary
    return summary


def fuzz_all_graphs(max_order: int, checks=None) -> FuzzSummary:
    """Fuzz over every isomorphism class with 1 <= nu <= max_order."""
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    def corpus():
        for order in range(1, max_order + 1):
            yield from enumerate_degree_bounded(order, order - 1)

    return fuzz(corpus(), checks)
