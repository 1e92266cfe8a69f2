"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

from _oracles import naive_cycle_spectrum, random_graph
from starwheel import graph6
from starwheel.construct import regular_bounded_components, theta
from starwheel.core import components, max_degree
from starwheel.detect import contains_star
from starwheel.detect import cycle_spectrum as spectrum
from starwheel.ramsey import EXACT, LOWER_ONLY, compute_ramsey, formula, is_good_coloring
from starwheel.theorems import fuzz, verify_construction

SPOT_VALUES = {
    (2, 4): 5,
    (5, 4): 13,
    (4, 5): 13,
    (4, 6): 11,
    (6, 8): 15,
    (9, 18): 27,
    (20, 10): 45,
}

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
    except BaseException:
        print(f"criterion {number} ({description}): FAIL "
              f"after {time.perf_counter() - start:.2f}s", flush=True)
        raise
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s "
          f"(budget {budget_seconds:.0f}s)", flush=True)


def test_criterion_1_formula_table():
    with criterion(1, "formula table", 1.0):
        for n in range(2, 31):
            for m in range(3, 71):
                bound = formula(n, m)
                assert bound.value > 0
                # every applicable theorem case must agree exactly
                applicable = {}
                if m >= 2 * n:
                    applicable["ThHa"] = n + m - 1 if n % 2 == 0 and m % 2 == 0 else n + m
                if m % 2 == 1 and 3 <= m <= 2 * n - 1:
                    applicable["ThHaBaAs"] = 3 * n + 1
                if m == 4:
                    applicable["ThSuBa"] = 2 * n + 1 if n % 2 == 0 else 2 * n + 3
                if m % 2 == 0 and 6 <= m <= 2 * n - 2 and (m in (6, 8) or m >= n + 2):
                    applicable["exact-even"] = 2 * n + m // 2 - theta(n, m)
                if applicable:
                    assert bound.status == EXACT
                    assert set(applicable.values()) == {bound.value}, (n, m)
                else:
                    assert bound.status == LOWER_ONLY
        for (n, m), value in SPOT_VALUES.items():
            assert formula(n, m).value == value
        assert formula(20, 10).status == LOWER_ONLY


def test_criterion_2_lemma_verification():
    with criterion(2, "k-regular graphs with bounded components", 5.0):
        checked = 0
        for k in range(0, 9):
            for n in range(k + 1, 41):
                if k % 2 == 1 and n % 2 == 1:
                    continue
                g = regular_bounded_components(k, n)
                assert g.n == n
                assert all(g.degree(v) == k for v in range(n)), (k, n)
                assert all(len(c) <= 2 * k + 1 for c in components(g)), (k, n)
                checked += 1
        assert checked > 200


def test_criterion_3_mechanized_lower_bound():
    with criterion(3, "mechanized lower-bound construction", 120.0):
        for n in range(4, 11):
            for m in range(6, 2 * n - 1, 2):
                verdict = verify_construction(n, m)
                assert verdict.holds, (n, m, verdict)


def test_criterion_4_exact_ramsey_numbers():
    with criterion(4, "exact Ramsey numbers by search", 60.0):
        budgets = {(2, 4): 1.0, (2, 5): 1.0, (3, 4): 1.0, (3, 5): 1.0, (4, 6): 10.0}
        expected = {(2, 4): 5, (2, 5): 7, (3, 4): 9, (3, 5): 10, (4, 6): 11}
        for (n, m), value in expected.items():
            start = time.perf_counter()
            result = compute_ramsey(n, m)
            elapsed = time.perf_counter() - start
            assert result.ramsey_number == value, (n, m, result.ramsey_number)
            assert elapsed < budgets[(n, m)], (n, m, elapsed)
            assert result.extremal.n == value - 1
            assert is_good_coloring(result.extremal, n, m)
        # the lower side of (4,6) comes from the witness, within a second
        result = compute_ramsey(4, 6)
        first = result.reports[0]
        assert first.order == 10 and first.outcome == "good-graph-found"
        assert first.enumerated == 0 and first.elapsed_ms < 1000.0
        assert is_good_coloring(first.witness, 4, 6)


def test_criterion_5_detector_oracle_equivalence(corpus_by_order):
    with criterion(5, "detector vs naive oracle over nu <= 8", 600.0):
        for order, expected in CLASS_COUNTS.items():
            assert len(corpus_by_order[order]) == expected, order
        mismatches = 0
        for order, graphs in corpus_by_order.items():
            for g in graphs:
                if spectrum(g) != naive_cycle_spectrum(g):
                    mismatches += 1
                delta = max_degree(g)
                for n in range(1, order + 2):
                    if (contains_star(g, n) is not None) != (delta >= n):
                        mismatches += 1
        assert mismatches == 0


def test_criterion_6_theorem_fuzz(corpus_by_order):
    with criterion(6, "theorem fuzz over nu <= 8", 900.0):
        everything = [g for order in sorted(corpus_by_order) for g in corpus_by_order[order]]
        summary = fuzz(everything)
        assert summary.clean, summary.counterexample
        assert summary.graphs == sum(CLASS_COUNTS.values())
        for name in ("dirac", "brandt", "jackson"):
            assert summary.tallies[name].get("counterexample", 0) == 0
            assert summary.tallies[name].get("conclusion-holds", 0) > 0


def test_criterion_7_thread_determinism():
    with criterion(7, "search output is thread-count independent", 300.0):
        outputs = []
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "starwheel.cli", "search", "3", "5",
                 "--threads", threads],
                capture_output=True,
                timeout=250,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def test_criterion_8_graph6_round_trip(corpus_by_order):
    with criterion(8, "graph6 round trip", 300.0):
        for graphs in corpus_by_order.values():
            for g in graphs:
                assert graph6.from_graph6(graph6.to_graph6(g)) == g
        rng = random.Random(2024)
        for _ in range(10_000):
            g = random_graph(rng, rng.randrange(0, 63))
            assert graph6.from_graph6(graph6.to_graph6(g)) == g
