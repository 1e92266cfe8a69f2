import ast
import gc
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

import starwheel
from _oracles import naive_contains_wheel
from starwheel import _cycles, detect, enumeration, ramsey
from starwheel.construct import lower_bound_witness, theta
from starwheel.core import Graph, complete, empty_graph, max_degree
from starwheel.detect import (
    SearchBudgetExceeded,
    StarWitness,
    contains_wheel,
    has_cycle_of_length,
    wheel_through,
)
from starwheel.enumeration import canonical_form, is_canonical
from starwheel.graph6 import from_graph6
from starwheel.ramsey import (
    EXACT,
    LOWER_ONLY,
    arrows,
    compute_ramsey,
    formula,
    is_good_coloring,
)


def hasmawati(n, m):
    return n + m - 1 if n % 2 == 0 and m % 2 == 0 else n + m


def surahmat_baskoro(n):
    return 2 * n + 1 if n % 2 == 0 else 2 * n + 3


def _capped_families(order, n, m):
    """Per surviving parent, its degree-capped children as (new vertex's
    neighbourhood, complement, whether the complement has a W_m, the
    new-vertex witness). Parents: canonical, degree-capped graphs with
    W_m-free complements, level by level, decided by contains_wheel."""
    parents = [(0,)]
    while parents and len(parents[0]) < order:
        k = len(parents[0]) + 1
        level = []
        for rows in parents:
            saturated = {u for u in range(k - 1) if rows[u].bit_count() >= n - 1}
            family = []
            for nbrs in range(1 << (k - 1)):
                members = {u for u in range(k - 1) if (nbrs >> u) & 1}
                if len(members) > n - 1 or members & saturated:
                    continue
                child = tuple(row | (u in members) << (k - 1) for u, row in enumerate(rows))
                child += (nbrs,)
                comp = Graph._of(k, child).complement()
                expected = contains_wheel(comp, m) is not None
                family.append((nbrs, comp, expected, wheel_through(comp.rows, k - 1, m)))
                if not expected and is_canonical(child, k):
                    level.append(child)
            yield family
        parents = level


class TestFormula:
    @pytest.mark.parametrize(
        "n,m,value,status,source",
        [
            (2, 4, 5, EXACT, "ThHa"),
            (5, 4, 13, EXACT, "ThSuBa"),
            (4, 5, 13, EXACT, "ThHaBaAs"),
            (4, 6, 11, EXACT, "ThExactly"),
            (6, 8, 15, EXACT, "ThExactly"),
            (9, 18, 27, EXACT, "ThHa"),
            (20, 10, 45, LOWER_ONLY, "ThLower"),
            (10, 6, 23, EXACT, "M6M8Remark"),
            (12, 8, 27, EXACT, "M6M8Remark"),
        ],
    )
    def test_spot_values(self, n, m, value, status, source):
        bound = formula(n, m)
        assert (bound.value, bound.status, bound.source) == (value, status, source)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            formula(1, 4)
        with pytest.raises(ValueError):
            formula(2, 2)

    def test_sweep_agrees_with_every_applicable_theorem(self):
        for n in range(2, 31):
            for m in range(3, 71):
                bound = formula(n, m)
                applicable = []
                if m >= 2 * n:
                    applicable.append(hasmawati(n, m))
                if m % 2 == 1 and 3 <= m <= 2 * n - 1:
                    applicable.append(3 * n + 1)
                if m == 4:
                    applicable.append(surahmat_baskoro(n))
                if m % 2 == 0 and 6 <= m <= 2 * n - 2 and (m in (6, 8) or m >= n + 2):
                    applicable.append(2 * n + m // 2 - theta(n, m))
                if applicable:
                    assert bound.status == EXACT
                    assert all(v == bound.value for v in applicable), (n, m)
                else:
                    # the residual gap: even m >= 10 with m <= n+1
                    assert bound.status == LOWER_ONLY
                    assert m % 2 == 0 and 10 <= m <= n + 1
                    assert bound.value == 2 * n + m // 2 - theta(n, m)
                if m % 2 == 0 and 6 <= m <= 2 * n - 2:
                    # never below the proven lower bound
                    assert bound.value >= 2 * n + m // 2 - theta(n, m)


class TestGoodness:
    def test_empty_graph_is_good_for_tiny_targets(self):
        # complement K_3 has only 3 < 4 vertices, so no W_3
        assert is_good_coloring(empty_graph(3), 2, 3)

    def test_witness_is_good(self):
        assert is_good_coloring(lower_bound_witness(4, 6), 4, 6)

    def test_star_violation(self):
        verdict = is_good_coloring(complete(5), 4, 4)
        assert not verdict
        assert isinstance(verdict.violation, StarWitness)
        assert verdict.violation.validate(complete(5), 4)

    def test_wheel_violation(self):
        verdict = is_good_coloring(empty_graph(7), 3, 6)
        assert not verdict
        assert verdict.violation.validate(empty_graph(7).complement(), 6)

    @pytest.mark.parametrize(
        "n,m,pair,expected",
        [
            (17, 20, (32, 42), "good"),
            (17, 22, (13, 19), (13, (11, 27, 12, 28, 14, 29, 15, 30, 16, 31, 17, 32, 18, 33, 19, 34, 24, 35, 25, 36, 26, 37))),
            (28, 16, (1, 3), (1, (3, 34, 5, 35, 6, 36, 7, 37, 8, 38, 9, 39, 10, 40, 11, 41))),
            (17, 16, (6, 8), (6, (0, 24, 1, 25, 2, 26, 8, 27, 10, 28, 11, 29, 12, 30, 13, 31))),
            (29, 8, (36, 50), "good"),
            (8, 12, (12, 19), "good"),
        ],
    )
    def test_budgeted_verdicts_on_flipped_witnesses(self, n, m, pair, expected):
        # flipped lower-bound witnesses under the budget of 10**5. The first
        # two exhaust even 3 * 10**7 nodes without the cycle search's block
        # and separator bounds; with them the first is settled before any
        # node and the second finds its wheel in 58 nodes
        rows = list(lower_bound_witness(n, m).rows)
        u, v = pair
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        g = Graph(len(rows), rows)
        verdict = is_good_coloring(g, n, m, node_budget=10**5)
        if expected == "good":
            assert verdict
        else:
            assert (verdict.violation.hub, verdict.violation.rim) == expected
            assert verdict.violation.validate(g.complement(), m)

    def test_budget_still_runs_out_past_both_bounds(self):
        # the (19, 18) witness with three pairs flipped, drawn by a seeded
        # search for inputs that still exhaust: neither bound settles its
        # hubs, 10**5 nodes run out, and only a budget of millions finds a
        # wheel, so the exhaustion boundary stays pinned
        rows = list(lower_bound_witness(19, 18).rows)
        for u, v in [(37, 42), (27, 30), (8, 19)]:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        with pytest.raises(SearchBudgetExceeded):
            is_good_coloring(Graph(len(rows), rows), 19, 18, node_budget=10**5)

    def test_default_budget_is_the_cycle_engines(self, monkeypatch):
        # the (6, 8) witness with one pair flipped is bad on the default
        # budget; _cycles.DEFAULT_NODE_BUDGET, the one name Budget() reads,
        # bounds it, and the package exports no copy that would not
        g = from_graph6("M?~uf_??G@_F?N?N_")
        assert not is_good_coloring(g, 6, 8)
        assert not hasattr(starwheel, "DEFAULT_NODE_BUDGET")
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(SearchBudgetExceeded):
            is_good_coloring(g, 6, 8)


class TestArrows:
    def test_counterexample_at_4_2_4(self):
        report = arrows(4, 2, 4)
        assert report.outcome == "good-graph-found"
        assert report.witness == Graph.from_edges(4, [(0, 1), (2, 3)])  # 2*K_2
        assert is_good_coloring(report.witness, 2, 4)

    def test_holds_at_5_2_4(self):
        assert arrows(5, 2, 4).holds

    def test_counterexample_at_10_4_6(self):
        from starwheel.enumeration import is_isomorphic

        report = arrows(10, 4, 6)
        assert report.outcome == "good-graph-found"
        assert is_good_coloring(report.witness, 4, 6)
        # the first good coloring found is the constructed witness class
        assert is_isomorphic(report.witness, lower_bound_witness(4, 6))

    def test_monotone_in_order(self):
        for n, m, r in [(2, 4, 5), (2, 5, 7), (3, 4, 9)]:
            seen_holds = False
            for order in range(1, r + 2):
                holds = arrows(order, n, m).holds
                if seen_holds:
                    assert holds, (n, m, order)
                seen_holds = seen_holds or holds
                assert holds == (order >= r)

    def test_monotone_at_headline_case(self):
        # R(K_{1,4}, W_6) = 11: the threshold sits between 10 and 11
        for order, expect_holds in [(9, False), (10, False), (11, True), (12, True)]:
            assert arrows(order, 4, 6).holds == expect_holds

    def test_deterministic_across_workers(self):
        a = arrows(9, 3, 4, workers=1)
        b = arrows(9, 3, 4, workers=4)
        assert (a.outcome, a.enumerated, a.witness) == (b.outcome, b.enumerated, b.witness)

    @pytest.mark.parametrize(
        "order,survivors",
        [(0, {}), (1, {}), (2, {2: 1}), (3, {2: 2, 3: 1}), (4, {2: 2, 3: 2, 4: 1})],
    )
    def test_smallest_orders_pinned(self, order, survivors):
        # (n, m) = (2, 4) below R = 5: the first graph enumerated is good;
        # at orders 0 and 1 the root is the target and nothing is kept
        report = arrows(order, 2, 4)
        assert (report.outcome, report.enumerated, report.survivors) == ("good-graph-found", 1, survivors)

    @pytest.mark.parametrize(
        "order,n,m,survivors",
        [
            (11, 4, 6, {2: 2, 3: 4, 4: 11, 5: 23, 6: 62, 7: 102, 8: 104, 9: 20, 10: 3, 11: 3}),
            (9, 4, 4, {2: 2, 3: 4, 4: 11, 5: 20, 6: 44, 7: 45, 8: 27, 9: 68}),
            (11, 3, 8, {2: 2, 3: 4, 4: 7, 5: 11, 6: 19, 7: 29, 8: 46, 9: 24, 10: 5, 11: 5}),
            (13, 4, 7, {2: 2, 3: 4, 4: 11, 5: 23, 6: 62, 7: 150, 8: 279, 9: 182, 10: 34, 11: 1, 12: 1, 13: 1}),
            (13, 5, 6, {2: 2, 3: 4, 4: 11, 5: 34, 6: 122, 7: 462, 8: 1579, 9: 2863, 10: 1454, 11: 88, 12: 5, 13: 5}),
            # m <= 5: the wheel prune already acts at the root levels
            (13, 4, 5, {2: 2, 3: 4, 4: 11, 5: 23, 6: 54, 7: 77, 8: 70, 9: 19, 10: 6, 11: 1, 12: 1, 13: 1}),
            (9, 3, 4, {2: 2, 3: 4, 4: 7, 5: 8, 6: 8, 7: 3, 8: 1, 9: 1}),
        ],
    )
    def test_survivors_per_level_pinned(self, order, n, m, survivors):
        # canonical graphs the wheel prune keeps, per level; any change to
        # pruning or canonicity that drops or adds a subtree moves these
        assert arrows(order, n, m).survivors == survivors

    def test_canonicity_calls_pinned(self, monkeypatch):
        # the symmetry bound cuts the canonicity tests of the order-13 scan
        # of R(K_{1,4}, W_7) = 13 from 1,676 to 1,069, and the siblings a
        # rejection vouches for cut them to 958; losing either moves the
        # rejected calls, not the accepted ones or the survivors. A test
        # that replays its parent's search meets the parent's ties in the
        # parent's order, so a rejection may name another beating prefix,
        # vouch for other siblings, and leave 957
        calls = []
        test = enumeration.is_canonical

        def counted(*args):
            accepted = test(*args)
            calls.append(accepted)
            return accepted

        monkeypatch.setattr(enumeration, "is_canonical", counted)
        report = arrows(13, 4, 7)
        assert report.survivors[8] == 279
        assert (len(calls), sum(calls)) == (957, 750)

    def test_wheel_tests_pinned(self, monkeypatch):
        # the new-vertex wheel tests of the same scan, the one target-order
        # graph's included; the count moves if a witness changes, and with
        # it the siblings its wheel rule drops, or if the canonicity
        # rejections vouch for other siblings
        calls = []
        test = ramsey._complement_wheel_through

        def counted(*args):
            calls.append(args[1])
            return test(*args)

        monkeypatch.setattr(ramsey, "_complement_wheel_through", counted)
        report = arrows(13, 4, 7)
        assert report.survivors[8] == 279
        assert len(calls) == 1690

    @pytest.mark.parametrize("order,n,m,nodes", [(13, 4, 7, 15008), (13, 5, 6, 192901)])
    def test_wheel_test_nodes_pinned(self, monkeypatch, order, n, m, nodes):
        # the nodes all walks of a scan's wheel tests draw: the count moves
        # if the walk's order or its node accounting changes
        drawn = []
        walk = detect.complement_cycle_through

        def counted(rows, v, allowed, length, left, path):
            rest = walk(rows, v, allowed, length, left, path)
            drawn.append(left - rest)
            return rest

        monkeypatch.setattr(detect, "complement_cycle_through", counted)
        assert arrows(order, n, m).holds
        assert sum(drawn) == nodes

    @pytest.mark.parametrize("order,n,m,most", [(13, 4, 7, 1186), (11, 4, 6, 168)])
    def test_budget_boundary_pinned(self, monkeypatch, order, n, m, most):
        # the most nodes one wheel test of the scan draws, on a default
        # budget read afresh for each test: one node fewer raises
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", most - 1)
        with pytest.raises(SearchBudgetExceeded):
            arrows(order, n, m)
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", most)
        assert arrows(order, n, m).holds

    @pytest.mark.slow
    def test_survivors_per_level_pinned_at_5_8(self):
        # the order-14 scan of R(K_{1,5}, W_8) = 14, a case of the paper's
        # theorem; about a minute serially, so outside the default run
        report = arrows(14, 5, 8)
        assert report.to_line() == "5 8 14 arrows-holds 3 -"
        assert report.survivors == {
            2: 2, 3: 4, 4: 11, 5: 34, 6: 122, 7: 510, 8: 2590,
            9: 12918, 10: 42469, 11: 35868, 12: 1695, 13: 3, 14: 3,
        }

    @pytest.mark.parametrize("order,n,m", [(11, 4, 6), (12, 4, 5), (9, 4, 4)])
    def test_survivors_independent_of_workers(self, order, n, m):
        serial = arrows(order, n, m, workers=1)
        pooled = arrows(order, n, m, workers=2)
        assert serial.survivors and serial.survivors == pooled.survivors
        assert serial.to_line() == pooled.to_line()

    @pytest.mark.parametrize("order,n,m", [(11, 4, 6), (10, 4, 6)])
    def test_spawned_workers_agree_with_serial(self, monkeypatch, order, n, m):
        # spawned workers share no memory with the parent: each task must
        # carry its root's rows and proof (twin partition, maps) by pickle
        from concurrent import futures

        pool = futures.ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        pools = []

        def spawning(workers):
            pools.append(pool(workers, mp_context=spawn))
            return pools[-1]

        monkeypatch.setattr(futures, "ProcessPoolExecutor", spawning)
        serial = arrows(order, n, m, workers=1)
        spawned = arrows(order, n, m, workers=2)
        assert len(pools) == 1
        assert serial.survivors and serial.survivors == spawned.survivors
        assert serial.to_line() == spawned.to_line()
        assert serial.witness == spawned.witness

    @pytest.mark.parametrize("order,n,m", [(9, 4, 4), (11, 4, 6), (11, 3, 8), (13, 4, 7)])
    def test_new_vertex_wheel_is_exact(self, order, n, m):
        # the scan drops a child when its complement has a W_m through the
        # new vertex; with a W_m-free parent that must be exactly "has a W_m"
        checked = 0
        for family in _capped_families(order, n, m):
            for _, comp, expected, found in family:
                assert (found is not None) == expected, (comp.rows, m)
                if found is not None:
                    assert found.validate(comp, m) and comp.n - 1 in (found.hub, *found.rim)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("order,n,m", [(9, 4, 4), (11, 4, 6), (11, 3, 8), (13, 4, 7)])
    def test_sibling_masks_are_sound(self, order, n, m):
        # a witness through the new vertex v joins v only to the parent
        # vertices of its neighbourhood(v); every sibling that avoids them all
        # has a W_m in its complement too, so the scan may drop it untested
        covered = 0
        for family in _capped_families(order, n, m):
            for _, comp, _, found in family:
                if found is None:
                    continue
                v = comp.n - 1
                mask = found.neighbourhood(v)
                assert ramsey._new_vertex_wheel(comp.complement().rows, m) == mask
                wheel = {found.hub, *found.rim}
                assert mask and mask & comp.rows[v] == mask
                assert all(u in wheel - {v} for u in range(v) if (mask >> u) & 1)
                for nbrs, _, expected, _ in family:
                    if not nbrs & mask:
                        assert expected, (comp.rows, nbrs, mask)
                        covered += 1
        assert covered > 1000

    @pytest.mark.parametrize("order,n,m,graphs", [(9, 4, 4, 68), (11, 4, 6, 3), (11, 3, 8, 5)])
    def test_target_order_test_agrees_with_full_test(self, order, n, m, graphs):
        # the scan tests a target-order graph only for a complement W_m
        # through its new vertex; its parent's complement is W_m-free, so
        # that agrees with contains_wheel over every hub
        reject = ramsey._wheel_reject(order, m)
        tested = 0
        for rows, _ in enumeration._extensions((0,), order, n - 1, [0] * (order + 1), reject):
            full = contains_wheel(Graph._of(order, rows).complement(), m)
            assert (not ramsey._new_vertex_wheel(rows, m)) == (full is None), rows
            tested += 1
        assert tested == graphs == arrows(order, n, m).enumerated

    @pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 4)])
    def test_agrees_with_naive_oracle(self, corpus_by_order, n, m):
        for order, graphs in corpus_by_order.items():
            good = [
                g for g in graphs
                if max_degree(g) <= n - 1 and not naive_contains_wheel(g.complement(), m)
            ]
            report = arrows(order, n, m)
            assert report.holds == (not good), (order, n, m)
            if good:
                # pruned subtrees hold no good graph, so the scan meets the
                # first good class of the corpus first
                assert report.witness == good[0], (order, n, m)
                assert max_degree(report.witness) <= n - 1
                assert not naive_contains_wheel(report.witness.complement(), m)

    def test_budget_exhaustion_propagates(self, monkeypatch):
        # each child's wheel test draws on a fresh default budget; the roots
        # survive this one, a scan task runs out, so the pooled test below
        # sees the exception cross from a worker
        scan = ramsey._scan_task
        raised = []

        def scan_task(args):
            try:
                return scan(args)
            except SearchBudgetExceeded:
                raised.append(args[0])
                raise

        monkeypatch.setattr(ramsey, "_scan_task", scan_task)
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", 50)
        with pytest.raises(SearchBudgetExceeded):
            arrows(11, 4, 6)
        assert raised

    def test_budget_exhaustion_propagates_from_pool(self, tmp_path):
        # in a subprocess, so that a pool that fails to shut down fails the
        # timeout; from a script file, whose top level every worker runs
        # under any start method, so each has the small budget
        script = tmp_path / "exhaust.py"
        script.write_text(
            "from starwheel import _cycles\n"
            "from starwheel.detect import SearchBudgetExceeded\n"
            "from starwheel.ramsey import arrows\n"
            "_cycles.DEFAULT_NODE_BUDGET = 50\n"
            "if __name__ == '__main__':\n"
            "    try:\n"
            "        arrows(11, 4, 6, workers=2)\n"
            "    except SearchBudgetExceeded:\n"
            "        print('exhausted')\n"
        )
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"exhausted\n"

    @pytest.mark.parametrize("order,n,m,holds", [(11, 4, 6, True), (12, 4, 5, False)])
    def test_leaves_no_cyclic_garbage(self, no_gc, order, n, m, holds):
        # the scan's recursive helpers drop their references to themselves
        # when done, so refcounting frees all the scan makes and the cyclic
        # collector finds nothing, whether the scan ends or stops early
        assert arrows(order, n, m).holds == holds
        assert gc.collect() == 0

    def test_import_loads_no_pool_module(self):
        # concurrent.futures pulls in logging and traceback; only a pooled
        # scan needs it, so importing the library must not load it
        script = "import sys, starwheel\nprint('concurrent.futures' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    def test_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, and compiles
        # each decorated class in every fresh interpreter; the result types
        # are plain slotted classes instead
        script = "import sys, starwheel\nprint('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False False\n"

    def test_pool_early_stop_does_not_hang(self):
        # a witness in the first subtree stops the pooled scan at once; each
        # stop shuts the pool down, which must never block
        script = (
            "from starwheel.ramsey import arrows\n"
            "lines = {arrows(12, 4, 5, workers=2).to_line() for _ in range(100)}\n"
            "print(*lines)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"4 5 12 good-graph-found 1 -\n"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            arrows(4, 1, 4)
        with pytest.raises(ValueError):
            arrows(4, 2, 2)
        with pytest.raises(ValueError):
            arrows(-1, 2, 4)


class TestExtremalColorings:
    # every good coloring on R-1 vertices, up to isomorphism, as the scan's
    # own tree lists them: the wheel test runs at every level up to R-1
    @pytest.mark.parametrize(
        "n,m,order,classes,children",
        [(4, 4, 8, 27, 68), (4, 5, 12, 1, 1), (4, 6, 10, 3, 3), (4, 7, 12, 1, 1), (3, 8, 10, 5, 5), (5, 6, 12, 5, 5)],
    )
    def test_class_counts_and_core_lemma(self, n, m, order, classes, children):
        assert formula(n, m).value == order + 1
        listed = list(enumeration._extensions((0,), order, n - 1, [0] * (order + 1), ramsey._wheel_reject(order + 1, m)))
        graphs = [Graph._of(order, rows) for rows, _ in listed]
        assert len(graphs) == classes
        assert all(is_good_coloring(g, n, m) for g in graphs)
        assert len({canonical_form(g) for g in graphs}) == classes
        for g in graphs:
            # the core lemma: outside N[v] of a maximum-degree vertex v lies
            # a graph of max degree <= d whose complement has no C_m, since
            # v would be the hub of a complement W_m on it
            d = max_degree(g)
            for v in range(order):
                if g.degree(v) < d:
                    continue
                core = g.induced_subgraph([u for u in range(order) if u != v and not g.has_edge(u, v)])
                assert core.n == order - 1 - d and max_degree(core) <= d, (g.rows, v)
                assert has_cycle_of_length(core.complement(), m) is None, (g.rows, v)
        # the canonical children of the listed graphs are the graphs that
        # the order-R scan tests, and it finds a complement W_m in each
        tested = sum(
            1
            for rows, proof in listed
            for _ in enumeration._extensions(rows, order + 1, n - 1, [0] * (order + 2), None, proof)
        )
        report = arrows(order + 1, n, m)
        assert report.holds and tested == children == report.enumerated


class TestComputeRamsey:
    @pytest.mark.parametrize("n,m,expected", [(2, 4, 5), (2, 5, 7), (3, 4, 9)])
    def test_small_values(self, n, m, expected):
        result = compute_ramsey(n, m)
        assert result.ramsey_number == expected == formula(n, m).value
        assert result.extremal.n == expected - 1
        assert is_good_coloring(result.extremal, n, m)
        # the decisive pair of reports: a counterexample then arrows-holds
        assert result.reports[-2].outcome == "good-graph-found"
        assert result.reports[-1].holds

    @pytest.mark.parametrize("n,m,expected", [(2, 4, 5), (3, 4, 9)])
    def test_walks_down_when_the_formula_overshoots(self, monkeypatch, n, m, expected):
        # a bound two too high: arrows holds at its order - 1, and the
        # search walks down to the first order that has a good coloring
        monkeypatch.setattr(ramsey, "formula", lambda n, m: ramsey.Bound(expected + 2, EXACT, "test"))
        result = compute_ramsey(n, m)
        assert result.ramsey_number == expected
        assert result.extremal.n == expected - 1
        assert is_good_coloring(result.extremal, n, m)
        assert [r.order for r in result.reports] == [expected + 1, expected, expected - 1]
        assert [r.holds for r in result.reports] == [True, True, False]

    def test_ceiling_reported(self):
        result = compute_ramsey(4, 6, max_order=9)
        assert not result.decided
        assert result.ramsey_number is None
        assert result.extremal is not None and result.extremal.n == 9

    def test_negative_max_order_rejected(self):
        with pytest.raises(ValueError, match="max_order must be >= 0, got -1"):
            compute_ramsey(4, 4, max_order=-1)

    def test_witness_shortcut_used(self):
        result = compute_ramsey(4, 6)
        first = result.reports[0]
        assert first.order == 10 and first.enumerated == 0
        assert first.witness == lower_bound_witness(4, 6)
        assert is_good_coloring(first.witness, 4, 6)

    def test_report_lines_are_stable(self):
        result = compute_ramsey(2, 4)
        lines = [r.to_line() for r in result.reports]
        assert lines == ["2 4 4 good-graph-found 1 -", "2 4 5 arrows-holds 3 -"]
        timed = result.reports[0].to_line(timing=True)
        assert timed.split()[:5] == ["2", "4", "4", "good-graph-found", "1"]
        assert timed.split()[5] != "-"


def test_no_assert_statements_in_the_library():
    # result guards must survive python -O, which strips assert statements
    offenders = []
    for path in sorted(Path(starwheel.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
