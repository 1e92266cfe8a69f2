"""The R(K_{1,n}, W_m) formula table, goodness certification, and exact
computation of small star-wheel Ramsey numbers by isomorph-free search.

A graph g is a *good coloring* for (n, m) when g contains no K_{1,n} and
its complement contains no W_m; a good coloring of order N certifies
R > N. ``arrows(N)`` is the statement that no good coloring of order N
exists. Since deleting a vertex of a good coloring leaves a good coloring,
arrows is upward monotone, and R is the smallest N with arrows(N).

The search space is pruned up front to max degree <= n-1 (degree >= n is
itself the star certificate), and an enumeration subtree is abandoned as
soon as the complement of its prefix graph contains W_m: induced
subgraphs of the complement persist under extension, so nothing good is
lost. From the root on, the test runs on raw rows before canonicity and
looks only for wheels through the new vertex (see ``_scan_hooks``).
Enumeration order is fixed and documented (see enumeration), making
reports reproducible byte for byte and independent of the worker count.
"""

from __future__ import annotations

import time

from ._record import Frozen, Record
from .construct import lower_bound_witness, theta
from .core import Graph
from .detect import StarWitness, WheelWitness, contains_star, contains_wheel, wheel_through
from .enumeration import _extensions, enumerate_degree_bounded

__all__ = [
    "Bound",
    "EXACT",
    "LOWER_ONLY",
    "formula",
    "Goodness",
    "is_good_coloring",
    "SearchReport",
    "arrows",
    "RamseySearch",
    "compute_ramsey",
    "enumerate_degree_bounded",
]

EXACT = "exact"
LOWER_ONLY = "lower-only"

_SOURCE_PRECEDENCE = ("ThHa", "ThHaBaAs", "ThSuBa", "ThExactly", "M6M8Remark")


class Bound(Frozen):
    """A value from the formula table with its provenance."""

    __slots__ = ("value", "status", "source")

    def __init__(self, value: int, status: str, source: str):
        self._fill(value, status, source)

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def formula(n: int, m: int) -> Bound:
    """The complete known formula table for R(K_{1,n}, W_m).

    Exact for every (n, m) except even m with 10 <= m <= n+1, where only
    the lower bound 2n + m/2 - theta is known. Overlapping theorem cases
    are checked to agree at runtime.
    """
    if n < 2:
        raise ValueError(f"n >= 2 required, got n={n}")
    if m < 3:
        raise ValueError(f"m >= 3 required, got m={m}")

    cases = {}
    if m >= 2 * n:
        cases["ThHa"] = n + m - 1 if n % 2 == 0 and m % 2 == 0 else n + m
    if m % 2 == 1 and m <= 2 * n - 1:
        cases["ThHaBaAs"] = 3 * n + 1
    if m == 4:
        cases["ThSuBa"] = 2 * n + 1 if n % 2 == 0 else 2 * n + 3
    if m % 2 == 0 and n + 2 <= m <= 2 * n - 2:
        cases["ThExactly"] = 2 * n + m // 2 - theta(n, m)
    if m in (6, 8) and m <= 2 * n - 2:
        cases["M6M8Remark"] = 2 * n + m // 2 - theta(n, m)

    if cases:
        values = set(cases.values())
        if len(values) != 1:
            raise AssertionError(f"theorem cases disagree at (n={n}, m={m}): {cases}")
        source = next(s for s in _SOURCE_PRECEDENCE if s in cases)
        return Bound(values.pop(), EXACT, source)

    # residual gap: even m >= 10 with m <= n+1; the ThLower hypothesis holds
    if not (m % 2 == 0 and 10 <= m <= n + 1):
        raise AssertionError(f"no formula case covers (n={n}, m={m})")
    return Bound(2 * n + m // 2 - theta(n, m), LOWER_ONLY, "ThLower")


class Goodness(Frozen):
    """Outcome of a goodness check; falsy when a target was found."""

    __slots__ = ("good", "violation")

    def __init__(self, good: bool, violation: StarWitness | WheelWitness | None = None):
        self._fill(good, violation)

    def __bool__(self) -> bool:
        return self.good


def is_good_coloring(g: Graph, n: int, m: int, node_budget=None) -> Goodness:
    """True iff g has no K_{1,n} and complement(g) has no W_m."""
    if m < 3:
        raise ValueError(f"m >= 3 required, got m={m}")
    witness = contains_star(g, n)
    if witness is not None:
        return Goodness(False, witness)
    witness = contains_wheel(g.complement(), m, node_budget)
    if witness is not None:
        return Goodness(False, witness)
    return Goodness(True)


class SearchReport(Frozen):
    """Outcome of one arrows(N) scan.

    Serialized line format: ``n m N outcome count elapsed_ms`` (stable
    field order); timing is suppressed to ``-`` unless requested, keeping
    reports byte-identical across runs and worker counts. ``survivors``
    maps each level from 2 on to the number of canonical graphs of that
    order the wheel prune kept, target-order graphs included, up to the
    first good coloring; it is not part of the line, is the same for every
    worker count, and is empty when nothing was enumerated. Equality
    compares ``survivors`` too; the hash leaves it out.
    """

    __slots__ = ("n", "m", "order", "outcome", "enumerated", "elapsed_ms", "witness", "survivors")

    def __init__(
        self,
        n: int,
        m: int,
        order: int,
        outcome: str,  # "arrows-holds" | "good-graph-found"
        enumerated: int,
        elapsed_ms: float,
        witness: Graph | None = None,
        survivors: dict | None = None,
    ):
        self._fill(n, m, order, outcome, enumerated, elapsed_ms, witness, {} if survivors is None else survivors)

    def __hash__(self):
        return hash(self._fields()[:-1])

    @property
    def holds(self) -> bool:
        return self.outcome == "arrows-holds"

    def to_line(self, timing: bool = False) -> str:
        t = format(self.elapsed_ms, ".0f") if timing else "-"
        return f"{self.n} {self.m} {self.order} {self.outcome} {self.enumerated} {t}"


# Unused: the scan prunes through ``_scan_hooks``. The name stays only
# because the benchmark tracer looks it up when it installs its hooks.
_wheel_prune = None


def _new_vertex_wheel(rows, m: int, node_budget):
    """A W_m through the last vertex of ``rows`` in their complement, or
    None, on raw rows."""
    k = len(rows)
    full = (1 << k) - 1
    comp = [full ^ row ^ (1 << u) for u, row in enumerate(rows)]
    return wheel_through(comp, k - 1, m, node_budget)


def _scan_hooks(order: int, m: int, node_budget):
    """The scan's per-level kept counts and its ``_extensions`` hooks
    ``count`` and ``reject``, shared by the roots and every subtree.

    Every parent has a W_m-free complement (the root trivially, each deeper
    parent by this test), so a child's complement has a W_m iff it has one
    through the new vertex v. ``reject`` tests that on the child's raw rows,
    with one ``node_budget`` per child. The wheel found joins v in the
    complement only to the parent vertices of its ``neighbourhood(v)``, so
    ``_extensions`` filters every later sibling adjacent to none of them
    out of its list, untested (its wheel rule).
    """
    kept = [0] * (order + 1)

    def reject(rows):
        k = len(rows)
        if k <= m or k >= order:
            return 0
        found = _new_vertex_wheel(rows, m, node_budget)
        return 0 if found is None else found.neighbourhood(k - 1)

    def count(rows):
        kept[len(rows)] += 1
        return False

    return kept, count, reject


def _scan_task(args):
    """Scan one frontier subtree for a good coloring (worker-safe): the
    count of target-order graphs tested, the first good one's rows or None,
    and the canonical graphs kept per level. A SearchBudgetExceeded
    propagates to the caller. The root comes with the proof its canonicity
    test recorded, so it is not tested again.

    A target-order graph's parent passed ``reject`` or has at most m
    vertices, so its complement is W_m-free, and the graph's complement
    has a W_m iff it has one through the new vertex: on at most m vertices
    it has none, else ``reject``'s test decides, on the raw rows.
    """
    root_rows, root_proof, order, n, m, node_budget = args
    kept, count, reject = _scan_hooks(order, m, node_budget)
    tested = 0
    for rows, _ in _extensions(root_rows, order, n - 1, count, reject, root_proof):
        tested += 1
        if order <= m or _new_vertex_wheel(rows, m, node_budget) is None:
            return tested, rows, kept
    return tested, None, kept


def arrows(order: int, n: int, m: int, workers: int = 1, node_budget=None) -> SearchReport:
    """Decide whether every graph on ``order`` vertices yields K_{1,n} or a
    complement W_m: returns the first good coloring in enumeration order as
    a counterexample, else arrows-holds.

    Only graphs with max degree <= n-1 are scanned (anything denser
    contains the star outright). Results, including the enumerated count,
    are deterministic and independent of ``workers``.
    """
    if n < 2:
        raise ValueError(f"n >= 2 required, got n={n}")
    if m < 3:
        raise ValueError(f"m >= 3 required, got m={m}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    started = time.perf_counter()

    # one scan task per kept canonical graph on ``split`` vertices
    kept, count, reject = _scan_hooks(order, m, node_budget)
    split = order if order <= 1 else min(6, order - 1)
    roots = _extensions((0,) * min(order, 1), split, n - 1, count, reject)
    tasks = [(rows, proof, order, n, m, node_budget) for rows, proof in roots]

    total = 0
    witness_rows = None
    pool = None
    if workers > 1 and len(tasks) > 1:
        # imported here: it brings in logging and traceback, which a serial
        # scan or a plain `import starwheel` never needs
        from concurrent import futures

        pool = futures.ProcessPoolExecutor(min(workers, len(tasks)))
    try:
        # both re-raise a task's SearchBudgetExceeded, in task order
        results = map(_scan_task, tasks) if pool is None else pool.map(_scan_task, tasks)
        for tested, rows, task_kept in results:
            total += tested
            for level, c in enumerate(task_kept):
                kept[level] += c
            if rows is not None:
                witness_rows = rows
                break
    finally:
        if pool is not None:
            # drop queued subtrees and let running ones finish: never kill a
            # worker, as one killed while holding a queue lock hangs the pool
            pool.shutdown(cancel_futures=True)

    elapsed = (time.perf_counter() - started) * 1000.0
    # children only: the root itself is never counted
    survivors = {level: c for level, c in enumerate(kept) if c}
    if witness_rows is not None:
        witness = Graph._of(order, witness_rows)
        return SearchReport(n, m, order, "good-graph-found", total, elapsed, witness, survivors)
    return SearchReport(n, m, order, "arrows-holds", total, elapsed, survivors=survivors)


def _witness_shortcut(order: int, n: int, m: int) -> SearchReport | None:
    """A certified lower-bound witness replaces the scan at its own order."""
    if m % 2 != 0 or not 6 <= m <= 2 * n - 2:
        return None
    if order != 2 * n + m // 2 - theta(n, m) - 1:
        return None
    started = time.perf_counter()
    witness = lower_bound_witness(n, m)
    if not is_good_coloring(witness, n, m):
        return None
    elapsed = (time.perf_counter() - started) * 1000.0
    return SearchReport(n, m, order, "good-graph-found", 0, elapsed, witness)


class RamseySearch(Record):
    """Outcome of a Ramsey-number computation."""

    __slots__ = ("n", "m", "ramsey_number", "reports", "extremal", "enumerated", "elapsed_ms")

    def __init__(
        self,
        n: int,
        m: int,
        ramsey_number: int | None,
        reports: list,
        extremal: Graph | None,
        enumerated: int,
        elapsed_ms: float,
    ):
        self._fill(n, m, ramsey_number, reports, extremal, enumerated, elapsed_ms)

    @property
    def decided(self) -> bool:
        return self.ramsey_number is not None


def compute_ramsey(n: int, m: int, max_order: int | None = None, workers: int = 1, node_budget=None) -> RamseySearch:
    """Smallest N <= max_order with arrows(N, n, m), by exhaustive search.

    Scanning starts at formula(n, m).value - 1, where the lower-bound
    witness of the construction module certifies the good side without
    enumeration whenever its hypothesis applies. Upward monotonicity of
    arrows makes the first arrows-holds order the Ramsey number.
    """
    bound = formula(n, m)
    if max_order is None:
        max_order = bound.value
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    started = time.perf_counter()
    reports = []

    def run(order: int) -> SearchReport:
        report = _witness_shortcut(order, n, m) or arrows(order, n, m, workers, node_budget)
        reports.append(report)
        return report

    value = None
    extremal = None
    order = max(0, min(bound.value - 1, max_order))
    report = run(order)
    if report.holds:
        # formula said R > order; walk down to re-establish the floor
        while order > 0:
            order -= 1
            report = run(order)
            if not report.holds:
                extremal = report.witness
                value = order + 1
                break
        else:
            value = 0
    else:
        extremal = report.witness
        order += 1
        while order <= max_order:
            report = run(order)
            if report.holds:
                value = order
                break
            extremal = report.witness
            order += 1

    elapsed = (time.perf_counter() - started) * 1000.0
    total = sum(r.enumerated for r in reports)
    return RamseySearch(n, m, value, reports, extremal, total, elapsed)
