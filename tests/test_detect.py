import hashlib
import random
from functools import reduce
from itertools import chain, combinations

import pytest

from _oracles import (
    code_to_graph,
    naive_contains_wheel,
    naive_cycle_spectrum,
    naive_has_cycle,
    naive_wheel_through,
    random_graph,
    random_permutation,
    reference_find_cycle_of_length,
    reference_find_cycle_through,
    reference_indexed_find_cycle_of_length,
)
from starwheel import _cycles, detect, ramsey
from starwheel._cycles import (
    DEFAULT_NODE_BUDGET,
    Budget,
    blocks,
    components,
    complement_cycle_through,
    find_cycle_of_length,
    twin_classes,
    twin_reps,
)
from starwheel.construct import lower_bound_witness
from starwheel.core import Graph, circumference, complete, cycle, empty_graph, max_degree, path, star, wheel
from starwheel.detect import (
    SearchBudgetExceeded,
    WheelWitness,
    _complement_wheel_through,
    _neighbourhood,
    contains_star,
    contains_wheel,
    cycle_spectrum,
    has_cycle_of_length,
    is_pancyclic,
    is_weakly_pancyclic,
    wheel_through,
)
from starwheel.theorems import fuzz

K33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
# 4x4 grid: bipartite and twin-free, so proving an odd length absent takes
# real backtracking
GRID = Graph.from_edges(
    16,
    [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)],
)


class TestStar:
    def test_absent_in_cycle(self):
        assert contains_star(cycle(5), 3) is None

    def test_star_itself(self):
        found = contains_star(star(4), 4)
        assert found.center == 0 and found.leaves == (1, 2, 3, 4)
        assert found.validate(star(4), 4)

    def test_complete(self):
        found = contains_star(complete(5), 4)
        assert found is not None and found.validate(complete(5), 4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            contains_star(cycle(3), 0)

    def test_matches_max_degree_characterization(self, corpus_by_order):
        for order in (4, 5, 6):
            for g in corpus_by_order[order]:
                for n in range(1, order + 1):
                    found = contains_star(g, n)
                    assert (found is not None) == (max_degree(g) >= n)
                    if found is not None:
                        assert found.validate(g, n)


class TestCycleSearch:
    def test_examples(self):
        assert has_cycle_of_length(complete(4), 4) is not None
        assert has_cycle_of_length(cycle(6), 4) is None
        assert has_cycle_of_length(K33, 5) is None  # bipartite, no odd cycle
        assert has_cycle_of_length(K33, 6) is not None

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            has_cycle_of_length(complete(4), 2)

    def test_witness_is_a_cycle(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(3, 10))
            for length in range(3, g.n + 1):
                found = has_cycle_of_length(g, length)
                if found is None:
                    continue
                assert len(found) == length and len(set(found)) == length
                assert all(
                    g.has_edge(found[i], found[(i + 1) % length]) for i in range(length)
                )

    def test_isolated_vertices_change_no_search(self):
        # isolated vertices form no twin class, so appending them leaves the
        # cycle and the node count as they were, and prepending only shifts labels
        hoods = []
        for n, m, (u, v) in [(5, 6, (0, 3)), (8, 10, (3, 17))]:
            rows = list(lower_bound_witness(n, m).rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            h = Graph(len(rows), rows).complement()
            hub = next(x for x in range(h.n) if h.degree(x) >= m)
            hoods.append((h.induced_subgraph(h.neighbors(hub)), m))
        for g, length in [(K33, 6), (wheel(6), 6), (wheel(6), 5)] + hoods:
            base, extra = Budget(), Budget()
            found = find_cycle_of_length(g.rows, g.n, length, base)
            padded = g.disjoint_union(empty_graph(3))
            assert find_cycle_of_length(padded.rows, padded.n, length, extra) == found
            assert extra.remaining == base.remaining
            shifted, extra = empty_graph(3).disjoint_union(g), Budget()
            moved = find_cycle_of_length(shifted.rows, shifted.n, length, extra)
            assert moved == (None if found is None else tuple(x + 3 for x in found))
            assert extra.remaining == base.remaining

    def test_budget_exhaustion_is_an_error(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(_cycles, "DEFAULT_NODE_BUDGET", 50)
            with pytest.raises(SearchBudgetExceeded):
                has_cycle_of_length(GRID, 15)
        assert has_cycle_of_length(GRID, 15) is None  # default budget suffices

    @pytest.mark.parametrize(
        "query",
        [lambda g: has_cycle_of_length(g, 15), cycle_spectrum, circumference, lambda g: fuzz([g])],
        ids=["has_cycle_of_length", "cycle_spectrum", "circumference", "fuzz"],
    )
    def test_default_budget_bounds_queries_without_a_knob(self, query, monkeypatch):
        # these queries take no node_budget: _cycles.DEFAULT_NODE_BUDGET,
        # read by every Budget(), is the one name that bounds them
        query(GRID)
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(SearchBudgetExceeded):
            query(GRID)


class TestReferenceCycleSearch:
    """find_cycle_of_length against the per-class loop of _oracles, which
    has neither the block nor the separator bound: the same witness, and
    never more nodes drawn from the budget. The bounds only cut subtrees
    without a cycle and keep the walk's order, so they can only save nodes.
    """

    @staticmethod
    def inputs():
        rng = random.Random(67)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(3, 13))
            for length in range(3, g.n + 1):
                yield g.rows, g.n, length
        # the twin-heavy hub neighbourhoods contains_wheel searches when the
        # witnesses are certified, in the host's labels
        for n, m in [(5, 6), (6, 8), (7, 10)]:
            h = lower_bound_witness(n, m).complement()
            for nbrs in h.rows:
                if nbrs.bit_count() >= m:
                    hood = [row & nbrs if (nbrs >> v) & 1 else 0 for v, row in enumerate(h.rows)]
                    for length in range(3, nbrs.bit_count() + 1):
                        yield hood, h.n, length

    def test_same_witness_and_nodes(self):
        for rows, n, length in self.inputs():
            ours, theirs = Budget(), Budget()
            found = find_cycle_of_length(rows, n, length, ours)
            assert found == reference_find_cycle_of_length(rows, n, length, theirs)
            assert ours.remaining >= theirs.remaining, (rows, length)
            nodes = DEFAULT_NODE_BUDGET - ours.remaining
            if nodes:
                short = Budget(nodes - 1)
                with pytest.raises(SearchBudgetExceeded):
                    find_cycle_of_length(rows, n, length, short)
                assert short.remaining == -1


def planted_twin_graphs(rng, count):
    """Seeded graphs of order 3..14 made of planted twin classes of sizes
    1..6, each a clique (true twins) or independent (false twins), joined
    class to class at random, with isolated vertices, under a random
    labelling, so that a class's later members often sit above other
    classes' least vertices. Every third graph starts with two independent classes of one
    size larger than every other independent class, so two classes tie for
    the separator bound's U0."""
    for i in range(count):
        n = 3 + i % 12
        left = n - rng.randrange(n // 3 + 1)
        classes = []  # (size, adjacent twins)
        if i % 3 == 0 and left >= 4:
            top = rng.randrange(2, min(6, left // 2) + 1)
            classes += [(top, False), (top, False)]
            left -= 2 * top
        else:
            top = 7  # above every size: no independent class is capped
        while left:
            size = rng.randrange(1, min(6, left) + 1)
            clique = rng.random() < 0.5
            if not clique and size >= top:
                size = top - 1
            classes.append((size, clique))
            left -= size
        labels = rng.sample(range(n), n)
        rows = [0] * n
        groups = []
        for size, clique in classes:
            group = [labels.pop() for _ in range(size)]
            groups.append(group)
            if clique:
                for u, v in combinations(group, 2):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        p = rng.uniform(0.3, 0.9)
        for a, b in combinations(groups, 2):
            if rng.random() < p:
                for u in a:
                    for v in b:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
        yield rows, n


class TestIndexedCycleSearch:
    """find_cycle_of_length against its class-indexed form in _oracles,
    which walks the same quotient with class indices in place of each
    class's least vertex: the same answer and the same nodes drawn, or the
    same exhaustion, at the reference's node count N and at N - 1."""

    @staticmethod
    def outcome(search, rows, n, length, nodes):
        budget = Budget(nodes)
        try:
            found = search(rows, n, length, budget)
        except SearchBudgetExceeded:
            found = "exhausted"
        return found, budget.remaining

    def test_same_answers_and_nodes_on_planted_twins(self):
        for rows, n in planted_twin_graphs(random.Random(2201), 600):
            for length in range(3, n + 1):
                theirs = Budget()
                reference_indexed_find_cycle_of_length(rows, n, length, theirs)
                nodes = DEFAULT_NODE_BUDGET - theirs.remaining
                for budget in (nodes, nodes - 1):
                    assert self.outcome(find_cycle_of_length, rows, n, length, budget) == self.outcome(
                        reference_indexed_find_cycle_of_length, rows, n, length, budget
                    ), (rows, length, budget)


class TestCycleSearchPin:
    """The answer and the nodes drawn of every find_cycle_of_length call on
    a fixed corpus, hashed. The digest was recorded before the capacity
    bound ruled out whole quotient components through their least anchor,
    when every anchor ran its own BFS and capacity sum; the skip must
    change no witness and no node count."""

    DIGEST = "220ee8c19bbc12bb081b4cc1bf5867a58f82d5779093ce815cf45afc3d619222"
    CALLS = 6280

    @staticmethod
    def inputs(order7):
        # hub neighbourhoods of the witnesses' complements, as built and
        # with seeded pairs flipped, in the host's labels
        rng = random.Random(1919)
        for n, m in [(5, 6), (6, 8), (7, 10), (7, 8)]:
            base = lower_bound_witness(n, m).rows
            copies = [list(base)]
            for _ in range(3):
                rows = list(base)
                u, v = rng.sample(range(len(rows)), 2)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                copies.append(rows)
            for rows in copies:
                h = Graph(len(rows), rows).complement()
                for nbrs in h.rows:
                    if nbrs.bit_count() >= m:
                        hood = [row & nbrs if (nbrs >> v) & 1 else 0 for v, row in enumerate(h.rows)]
                        for length in sorted({3, m - 1, m, m + 1}):
                            yield hood, h.n, length
        for g in order7:
            for length in range(3, 8):
                yield g.rows, g.n, length
        # quotients of several components, where components that fail the
        # capacity bound (a star, K_{2,4}) come before, between and after
        # the ones that hold cycles
        k24 = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(4)])
        parts = {"star": star(5), "k24": k24, "c6": cycle(6), "k4": complete(4), "k33": K33}
        for names in [
            ("star", "c6"),
            ("c6", "star"),
            ("k24", "star", "c6"),
            ("c6", "k24", "star"),
            ("star", "k33", "k24"),
            ("k4", "star", "c6", "k24"),
        ]:
            g = reduce(Graph.disjoint_union, [parts[name] for name in names])
            for length in range(3, g.n + 1):
                yield g.rows, g.n, length

    def test_answers_and_nodes_pinned(self, corpus_by_order):
        digest = hashlib.sha256()
        calls = 0
        for rows, n, length in self.inputs(corpus_by_order[7]):
            budget = Budget()
            found = find_cycle_of_length(rows, n, length, budget)
            digest.update(repr((found, DEFAULT_NODE_BUDGET - budget.remaining)).encode())
            calls += 1
        assert (digest.hexdigest(), calls) == (self.DIGEST, self.CALLS)


def random_queries(rng, graphs):
    """(rows, v, allowed, length) on seeded random graphs of order 3..10,
    with the full mask, a random one and v's closed neighbourhood."""
    for _ in range(graphs):
        n = rng.randrange(3, 11)
        g = random_graph(rng, n, rng.uniform(0.5, 0.85))
        full = (1 << n) - 1
        for v in range(n):
            for allowed in (full, rng.getrandbits(n) | 1 << v, g.rows[v] | 1 << v):
                for length in range(3, n + 1):
                    yield g.rows, v, allowed, length


def scan_queries(rng, graphs):
    """(rows, v, allowed, length) like the scan's rim tests: complements of
    seeded graphs of maximum degree <= 4 on 7..13 vertices, with masks of
    exactly ``length`` or ``length + 1`` vertices around v, lengths 3..8."""
    for _ in range(graphs):
        n = rng.randrange(7, 14)
        capped = [0] * n
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        for u, w in pairs:
            if capped[u].bit_count() < 4 and capped[w].bit_count() < 4 and rng.random() < 0.6:
                capped[u] |= 1 << w
                capped[w] |= 1 << u
        full = (1 << n) - 1
        rows = [full ^ row ^ 1 << u for u, row in enumerate(capped)]
        for length in range(3, min(8, n - 1) + 1):
            for size in (length, length + 1):
                for v in rng.sample(range(n), 3):
                    others = rng.sample([u for u in range(n) if u != v], size - 1)
                    yield rows, v, sum(1 << u for u in others) | 1 << v, length


def complemented(rows):
    full = (1 << len(rows)) - 1
    return [full ^ row ^ 1 << u for u, row in enumerate(rows)]


def walk(rows, v, allowed, length, nodes=DEFAULT_NODE_BUDGET):
    """complement_cycle_through on the complement of ``rows``, so a cycle
    of ``rows`` itself: the cycle found or None, and the nodes drawn."""
    path = []
    left = complement_cycle_through(complemented(rows), v, allowed, length, nodes, path)
    return (tuple(path) if path else None), nodes - left


def preorder_nodes(rows, v, allowed, length, found):
    """The nodes the walk must draw, counted by brute force: none when it
    settles the query by size or degree, else one per simple path from v
    inside ``allowed`` on at most length - 2 vertices that comes no later
    in the walk's preorder (ascending tuples) than the found cycle's first
    length - 2 vertices, every such path when there is no cycle."""
    size = allowed.bit_count()
    if not (allowed >> v) & 1 or size < length:
        return 0
    inside = [u for u in range(len(rows)) if (allowed >> u) & 1]
    if size == length and any((rows[u] & allowed).bit_count() < 2 for u in inside):
        return 0
    stop = None if found is None else found[: length - 2]
    count = 0
    stack = [(v,)]
    while stack:
        p = stack.pop()
        if stop is not None and p > stop:
            continue
        count += 1
        if len(p) < length - 2:
            stack += [p + (u,) for u in reversed(inside) if (rows[p[-1]] >> u) & 1 and u not in p]
    return count


class TestCycleThroughPin:
    """The answer and the nodes drawn of every walk on a fixed seeded
    corpus, hashed; the walk is handed the complement of each query's rows,
    so it looks for cycles of the rows themselves. A change to the walk's
    order or to its node count moves it."""

    DIGEST = "0d3d5c38ed12ea5153347b18da9f3fb21eea61f8fdf367d66deaa6fd01c30259"
    CALLS = 5004

    def test_answers_and_nodes_pinned(self):
        digest = hashlib.sha256()
        calls = 0
        queries = chain(scan_queries(random.Random(2121), 40), random_queries(random.Random(2122), 40))
        for rows, v, allowed, length in queries:
            digest.update(repr(walk(rows, v, allowed, length)).encode())
            calls += 1
        assert (digest.hexdigest(), calls) == (self.DIGEST, self.CALLS)


class TestCycleBounds:
    """The block and separator bounds of find_cycle_of_length: exact (the
    reference, which has neither, agrees on every answer and never draws
    fewer nodes), and each one alone settles a family before any node."""

    @staticmethod
    def assert_no_worse_than_reference(rows, n, length):
        ours, theirs = Budget(), Budget()
        found = find_cycle_of_length(rows, n, length, ours)
        assert found == reference_find_cycle_of_length(rows, n, length, theirs), (rows, length)
        assert ours.remaining >= theirs.remaining, (rows, length)

    @pytest.mark.parametrize(
        "strides",
        [
            pytest.param({3: 1, 4: 1, 5: 1, 6: 13, 7: 997}, id="sampled"),
            # 1,632,250 inputs, about 3 minutes
            pytest.param({3: 1, 4: 1, 5: 1, 6: 1, 7: 7}, id="every-graph-to-order-6", marks=pytest.mark.slow),
        ],
    )
    def test_small_labelled_graphs(self, strides):
        # every stride-th labelled graph of each order, by edge code, at every length
        for n, stride in strides.items():
            for code in range(0, 1 << n * (n - 1) // 2, stride):
                rows = code_to_graph(code, n).rows
                for length in range(3, n + 1):
                    self.assert_no_worse_than_reference(rows, n, length)

    def test_joins_with_an_independent_set(self):
        # the shape of the witnesses' complements: a small graph joined to
        # an independent set, with up to two pairs flipped
        rng = random.Random(71)
        for _ in range(150):
            small = random_graph(rng, rng.randrange(1, 7))
            g = join(small, empty_graph(rng.randrange(2, 14 - small.n)))
            rows = list(g.rows)
            for _ in range(rng.randrange(3)):
                u, v = rng.sample(range(g.n), 2)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            for length in range(3, g.n + 1):
                self.assert_no_worse_than_reference(rows, g.n, length)

    def test_block_bound_alone(self):
        # two K_{L-1} sharing a vertex: enough vertices and capacity for a
        # C_L, but every block has L - 1 vertices. Its twin classes are all
        # cliques, so the separator bound has no U0 to count.
        for length in range(4, 9):
            n = 2 * length - 3
            left, right = range(length - 1), range(length - 2, n)
            g = Graph.from_edges(n, list(combinations(left, 2)) + list(combinations(right, 2)))
            assert all(len(ms) == 1 or g.has_edge(*ms[:2]) for ms in twin_classes(g.rows, n))
            ours, theirs = Budget(), Budget()
            assert find_cycle_of_length(g.rows, n, length, ours) is None
            assert reference_find_cycle_of_length(g.rows, n, length, theirs) is None
            assert ours.remaining == DEFAULT_NODE_BUDGET > theirs.remaining

    def test_separator_bound_alone(self):
        # K_t joined to an independent (t+2)-set with one edge inside it, at
        # L = 2t + 2 = the order: 2-connected, so the block bound cannot
        # help, but the t + 2 vertices of the set away from the edge each
        # need two of the t clique vertices
        for t in range(2, 6):
            length = 2 * t + 2
            g = join(complete(t), Graph.from_edges(t + 2, [(0, 1)]))
            assert max(b.bit_count() for b in blocks(g.rows, g.n)[0]) == g.n == length
            ours, theirs = Budget(), Budget()
            assert find_cycle_of_length(g.rows, g.n, length, ours) is None
            assert reference_find_cycle_of_length(g.rows, g.n, length, theirs) is None
            assert ours.remaining == DEFAULT_NODE_BUDGET > theirs.remaining


class TestWheel:
    def test_wheel_in_itself(self):
        found = contains_wheel(wheel(6), 6)
        assert found.hub == 6 and sorted(found.rim) == list(range(6))
        assert found.validate(wheel(6), 6)

    def test_w4_in_k5(self):
        found = contains_wheel(complete(5), 4)
        assert found is not None and found.validate(complete(5), 4)

    def test_no_w5_in_w6(self):
        assert contains_wheel(wheel(6), 5) is None

    def test_neighbourhood_is_the_row_in_the_wheel(self):
        # W_6 is exactly its own wheel, so what it joins to each vertex is
        # that vertex's row, wherever the rim starts and whichever way it runs
        g = wheel(6)
        for rim in [(0, 1, 2, 3, 4, 5), (3, 2, 1, 0, 5, 4)]:
            for v in range(7):
                assert _neighbourhood(6, rim, v) == WheelWitness(6, rim).neighbourhood(v) == g.rows[v]

    def test_precondition(self):
        with pytest.raises(ValueError):
            contains_wheel(complete(5), 2)

    def test_matches_naive_oracle(self, corpus_by_order):
        for g in corpus_by_order[6]:
            for m in (3, 4, 5):
                found = contains_wheel(g, m)
                assert (found is not None) == naive_contains_wheel(g, m)
                if found is not None:
                    assert found.validate(g, m)

    def test_random_against_oracle(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(4, 9))
            for m in (3, 4, 5, 6):
                assert (contains_wheel(g, m) is not None) == naive_contains_wheel(g, m)


class TestWheelThrough:
    def test_random_against_oracle(self):
        rng = random.Random(47)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(4, 9), rng.choice([0.5, 0.7, 0.85]))
            for m in (3, 4, 5, 6):
                for v in range(g.n):
                    found = wheel_through(g.rows, v, m)
                    assert (found is not None) == naive_wheel_through(g, v, m), (g.rows, v, m)
                    if found is not None:
                        assert found.validate(g, m) and v in (found.hub, *found.rim)

    def test_witness_wraps_the_raw_search(self):
        # the scan reads the raw hub and rim off the complement of its rows;
        # the public witness is built from the same search
        rng = random.Random(59)
        hits = 0
        for _ in range(80):
            g = random_graph(rng, rng.randrange(4, 10), rng.choice([0.5, 0.7, 0.85]))
            for m in (3, 4, 5, 6):
                for v in range(g.n):
                    rim = []
                    hub = _complement_wheel_through(complemented(g.rows), v, m, rim)
                    if hub < 0:
                        assert rim == [] and wheel_through(g.rows, v, m) is None
                    else:
                        assert wheel_through(g.rows, v, m) == WheelWitness(hub, tuple(rim))
                        hits += 1
        assert hits > 100

    def test_wheel_itself_from_every_vertex(self):
        g = wheel(6)
        for v in range(7):
            found = wheel_through(g.rows, v, 6)
            assert found.hub == 6 and found.validate(g, 6)
        assert all(wheel_through(g.rows, v, 5) is None for v in range(7))

    def test_precondition(self):
        with pytest.raises(ValueError):
            wheel_through(complete(5).rows, 0, 2)

    def test_budget_exhaustion_is_an_error(self, monkeypatch):
        g = complete(7)
        monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", 3)
        with pytest.raises(SearchBudgetExceeded):
            wheel_through(g.rows, 0, 6)


class TestCycleThrough:
    def test_random_against_oracle(self):
        rng = random.Random(53)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(3, 9))
            full = (1 << g.n) - 1
            for length in range(3, g.n + 1):
                # anchored at each vertex in turn, among those not below it
                anchored = any(walk(g.rows, v, full & -(1 << v), length)[0] for v in range(g.n))
                assert anchored == (length in naive_cycle_spectrum(g))
                for v in range(g.n):
                    through, _ = walk(g.rows, v, full, length)
                    expected = any(
                        naive_has_cycle(g.induced_subgraph(vs), length)
                        for vs in combinations(range(g.n), length)
                        if v in vs
                    )
                    assert (through is not None) == expected, (g.rows, v, length)
                    if through is not None:
                        assert len(set(through)) == length and through[0] == v
                        assert all(g.has_edge(through[i - 1], through[i]) for i in range(length))

    def test_same_cycle_as_the_pruned_walk(self):
        # the 2-core peel and distance layers it dropped cut only branches
        # that close no cycle, so the first cycle found is the same; the
        # scan's rim tests walk complements of degree-capped graphs inside
        # masks of about the cycle's size
        queries = chain(random_queries(random.Random(71), 60), scan_queries(random.Random(2111), 300))
        for rows, v, allowed, length in queries:
            expected = reference_find_cycle_through(rows, v, allowed, length, Budget())
            assert walk(rows, v, allowed, length)[0] == expected, (rows, v, allowed, length)

    def test_same_cycle_and_nodes_on_the_complement(self):
        # the walk on rows finds the reference's cycle on their complement,
        # and draws one node per path of its preorder, counted by brute force
        queries = chain(random_queries(random.Random(2131), 25), scan_queries(random.Random(2132), 80))
        for rows, v, allowed, length in queries:
            comp = complemented(rows)
            path = []
            nodes = DEFAULT_NODE_BUDGET - complement_cycle_through(rows, v, allowed, length, DEFAULT_NODE_BUDGET, path)
            found = tuple(path) or None
            assert found == reference_find_cycle_through(comp, v, allowed, length, Budget()), (rows, v, allowed, length)
            assert nodes == preorder_nodes(comp, v, allowed, length, found), (rows, v, allowed, length)

    def test_same_cycles_as_the_pruned_walk_in_a_scan(self, monkeypatch):
        # every walk of the order-13 scan of R(K_{1,4}, W_7) = 13, and every
        # wheel test's raw hub and rim once the reference walk stands in for it
        walks, tests = [], []
        step, test = complement_cycle_through, ramsey._complement_wheel_through

        def recorded_walk(rows, v, allowed, length, left, path):
            left = step(rows, v, allowed, length, left, path)
            walks.append(((complemented(rows), v, allowed, length), tuple(path) or None))
            return left

        def recorded_test(rows, v, m, rim):
            hub = test(rows, v, m, rim)
            tests.append(((rows, v, m), hub, tuple(rim)))
            return hub

        def reference_walk(rows, v, allowed, length, left, path):
            path += reference_find_cycle_through(complemented(rows), v, allowed, length, Budget()) or ()
            return left

        monkeypatch.setattr(detect, "complement_cycle_through", recorded_walk)
        monkeypatch.setattr(ramsey, "_complement_wheel_through", recorded_test)
        assert ramsey.arrows(13, 4, 7).survivors[8] == 279
        assert len(tests) == 1690 and len(walks) > 1000
        for args, found in walks:
            assert reference_find_cycle_through(*args, Budget()) == found, args
        monkeypatch.setattr(detect, "complement_cycle_through", reference_walk)
        for args, hub, rim in tests:
            again = []
            assert (test(*args, again), tuple(again)) == (hub, rim), args

    def test_early_none_draws_no_node(self):
        g = complete(6)
        # v outside the mask, and a mask with fewer than ``length`` vertices
        assert walk(g.rows, 0, 0b111110, 3, 0) == (None, 0)
        assert walk(g.rows, 0, 0b001111, 5, 0) == (None, 0)
        # a mask of exactly ``length`` vertices, one of them (a path's end,
        # or an isolated vertex) with fewer than two neighbours inside
        assert walk(path(6).rows, 0, 0b011111, 5, 0) == (None, 0)
        assert walk(cycle(6).rows, 2, 0b011111, 5, 0) == (None, 0)
        k5 = complete(5).disjoint_union(empty_graph(1))
        assert walk(k5.rows, 0, 0b100111, 4, 0) == (None, 0)
        with pytest.raises(SearchBudgetExceeded):
            walk(g.rows, 0, 0b011111, 5, 0)
        with pytest.raises(SearchBudgetExceeded):
            walk(cycle(6).rows, 2, 0b111111, 6, 0)

    @pytest.mark.parametrize("length", [3, 4, 6])
    def test_budget_one_node_short_raises(self, length):
        # the walk draws a node at v and at each vertex above its last two
        # steps: one fewer raises, and exactly that many gives the same answer
        k34 = Graph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)])
        for g in (complete(7), k34, wheel(6), cycle(7), path(7)):
            full = (1 << g.n) - 1
            found, nodes = walk(g.rows, 0, full, length)
            assert nodes >= 1, (g.rows, length)
            with pytest.raises(SearchBudgetExceeded):
                walk(g.rows, 0, full, length, nodes - 1)
            assert walk(g.rows, 0, full, length, nodes) == (found, nodes)

    def test_stays_inside_the_mask(self):
        # wheel(6) minus the hub: the rim alone is the only 6-cycle
        g = wheel(6)
        rim = (1 << 6) - 1
        assert walk(g.rows, 0, rim, 6)[0] == (0, 1, 2, 3, 4, 5)
        assert walk(g.rows, 0, rim, 5)[0] is None
        assert all(walk(g.rows, v, rim ^ 1, 5)[0] is None for v in range(1, 6))


class TestSpectrum:
    def test_examples(self):
        assert cycle_spectrum(complete(5)) == {3, 4, 5}
        assert is_pancyclic(complete(5))
        assert cycle_spectrum(cycle(6)) == {6}
        assert is_weakly_pancyclic(cycle(6)) and not is_pancyclic(cycle(6))
        assert cycle_spectrum(wheel(5)) == {3, 4, 5, 6}
        assert is_pancyclic(wheel(5))
        assert cycle_spectrum(path(4)) == set()
        assert is_weakly_pancyclic(path(4))  # vacuous for forests

    def test_against_naive_oracle_small_corpus(self, corpus_by_order):
        for order in (4, 5, 6):
            for g in corpus_by_order[order]:
                assert cycle_spectrum(g) == naive_cycle_spectrum(g)

    def test_against_naive_oracle_random(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(0, 9))
            assert cycle_spectrum(g) == naive_cycle_spectrum(g)


class TestInvariance:
    def test_isomorphism_invariance(self):
        rng = random.Random(53)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(2, 9))
            h = g.relabel(random_permutation(rng, g.n))
            for n in (1, 2, 3):
                assert (contains_star(g, n) is None) == (contains_star(h, n) is None)
            for m in (3, 4, 5):
                assert (contains_wheel(g, m) is None) == (contains_wheel(h, m) is None)
            assert cycle_spectrum(g) == cycle_spectrum(h)

    def test_edge_monotonicity(self):
        rng = random.Random(59)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(4, 9), p=0.5)
            non_edges = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            bigger = Graph.from_edges(g.n, list(g.edges()) + [(u, v)])
            for n in (2, 3):
                if contains_star(g, n) is not None:
                    assert contains_star(bigger, n) is not None
            for m in (3, 4):
                if contains_wheel(g, m) is not None:
                    assert contains_wheel(bigger, m) is not None
                if contains_wheel(bigger, m) is None:
                    assert contains_wheel(g, m) is None


def join(a: Graph, b: Graph) -> Graph:
    """All-edges join: complement of the disjoint union of complements."""
    return a.complement().disjoint_union(b.complement()).complement()


class TestTwinHeavyGraphs:
    """Structured inputs exercising the twin-compressed search hardest."""

    def cases(self):
        from starwheel.core import complete, cycle, empty_graph, path, star

        yield join(complete(3), empty_graph(5))        # K_3 + independent 5
        yield join(empty_graph(4), empty_graph(5))     # K_{4,5}
        yield join(cycle(4), empty_graph(4))
        yield join(complete(2), join(empty_graph(3), complete(2)))
        yield complete(4).disjoint_union(complete(4))
        yield complete(3).disjoint_union(empty_graph(3)).complement()
        yield join(path(3), cycle(5))
        yield star(7)
        yield join(star(3), empty_graph(4))
        yield complete(8)
        yield cycle(3).disjoint_union(cycle(3)).disjoint_union(cycle(3))

    def test_spectrum_matches_naive_oracle(self):
        for g in self.cases():
            assert cycle_spectrum(g) == naive_cycle_spectrum(g), g

    def test_wheels_match_naive_oracle(self):
        for g in self.cases():
            for m in (3, 4, 5, 6):
                found = contains_wheel(g, m)
                assert (found is not None) == naive_contains_wheel(g, m), (g, m)
                if found is not None:
                    assert found.validate(g, m)

    def test_alternation_obstruction(self):
        # K_j joined to a large independent set: long cycles need to
        # alternate, so lengths beyond 2j are impossible
        for j in (2, 3, 4):
            g = join(complete(j), Graph(8, (0,) * 8))
            expected = set(range(3, 2 * j + 1))
            assert cycle_spectrum(g) == expected, (j, cycle_spectrum(g))


class TestTwinPartition:
    """``twin_reps`` against the definition: u, v are twins when their rows
    agree outside {u, v}."""

    def graphs(self):
        rng = random.Random(2024)
        for order in range(13):
            for _ in range(30):
                isolated = rng.randrange(min(order, 2) + 1)
                yield random_graph(rng, order - isolated).disjoint_union(empty_graph(isolated))
        yield from (complete(k) for k in range(6))
        yield from (empty_graph(k) for k in range(4))
        yield K33
        for n, m in [(4, 6), (5, 8), (6, 8), (7, 12)]:
            yield lower_bound_witness(n, m).complement()

    def test_reps_are_smallest_twins(self):
        for g in self.graphs():
            rows, n = g.rows, g.n
            expected = [
                min(u for u in range(n) if rows[u] & ~(1 << v) == rows[v] & ~(1 << u))
                for v in range(n)
            ]
            assert twin_reps(rows, n) == expected, g

    def test_classes_group_non_isolated_vertices_by_rep(self):
        for g in self.graphs():
            reps = twin_reps(g.rows, g.n)
            groups = {}
            for v in range(g.n):
                if g.rows[v]:
                    groups.setdefault(reps[v], []).append(v)
            expected = sorted(groups.values(), key=lambda ms: ms[0])
            assert twin_classes(g.rows, g.n) == expected, g


class TestComponents:
    """``components`` against networkx's components of the induced
    subgraph, in the same order: by least vertex."""

    def test_matches_networkx_on_induced_subgraphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2025)
        for _ in range(120):
            isolated = rng.randrange(3)
            g = random_graph(rng, rng.randrange(13 - isolated), p=rng.choice([0.1, 0.2, 0.4]))
            g = g.disjoint_union(empty_graph(isolated))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            full = (1 << g.n) - 1
            masks = [0, full, *(1 << v for v in range(g.n)), *(rng.getrandbits(g.n) for _ in range(4))]
            for mask in masks:
                verts = [v for v in range(g.n) if (mask >> v) & 1]
                parts = sorted(nx.connected_components(h.subgraph(verts)), key=min)
                expected = [sum(1 << v for v in part) for part in parts]
                assert components(g.rows, mask) == expected, (g.rows, mask)


class TestDeterministicWitnesses:
    """Witness selection is part of the contract; freeze it."""

    def test_fixed_cycle_witnesses(self):
        assert has_cycle_of_length(complete(4), 4) == (0, 1, 2, 3)
        assert has_cycle_of_length(cycle(6), 6) == (0, 1, 2, 3, 4, 5)
        k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert has_cycle_of_length(k33, 6) == (0, 3, 1, 4, 2, 5)

    def test_fixed_wheel_witnesses(self):
        assert contains_wheel(wheel(6), 6) == contains_wheel(wheel(6), 6)
        found = contains_wheel(wheel(6), 6)
        assert found.hub == 6 and found.rim == (0, 1, 2, 3, 4, 5)
        found = contains_wheel(complete(5), 3)
        assert found.hub == 0 and found.rim == (1, 2, 3)

    @pytest.mark.parametrize(
        "n,m,pair,hub,rim,nodes",
        [
            (5, 6, (0, 3), 0, (1, 7, 2, 8, 3, 9), 7),
            (6, 8, (2, 6), 2, (0, 8, 1, 9, 3, 10, 6, 11), 10),
            (7, 10, (0, 6), 0, (1, 11, 2, 12, 3, 13, 4, 14, 6, 15), 13),
            (7, 8, (5, 6), 5, (1, 10, 3, 11, 2, 12, 6, 13), 9),
            (8, 12, (5, 9), 5, (0, 12, 1, 13, 2, 14, 3, 15, 4, 16, 9, 17), 16),
            (9, 14, (6, 10), 6, (0, 15, 1, 16, 2, 17, 3, 18, 4, 19, 5, 20, 10, 21), 19),
            (6, 8, (0, 12), None, None, 0),
            (7, 10, (8, 15), None, None, 0),
            (8, 10, (3, 17), None, None, 0),
        ],
    )
    def test_flipped_witness_wheels_and_their_work(self, n, m, pair, hub, rim, nodes):
        # one pair of the lower-bound witness toggled; the wheel search in its
        # complement must return exactly this wheel and draw exactly `nodes`
        # nodes. The wheel-free ones are settled by the block and separator
        # bounds before any node is drawn.
        rows = list(lower_bound_witness(n, m).rows)
        u, v = pair
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        h = Graph(len(rows), rows).complement()
        found = contains_wheel(h, m, node_budget=nodes)
        if hub is None:
            assert found is None
        else:
            assert (found.hub, found.rim) == (hub, rim)
            assert found.validate(h, m)
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                contains_wheel(h, m, node_budget=nodes - 1)

    def test_budgeted_runs_agree_with_oracle_when_they_finish(self, monkeypatch):
        rng = random.Random(79)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(4, 9))
            for length in (4, 5, 6):
                monkeypatch.setattr(_cycles, "DEFAULT_NODE_BUDGET", rng.choice([3, 10, 100]))
                try:
                    found = has_cycle_of_length(g, length)
                except SearchBudgetExceeded:
                    continue
                oracle = None
                from _oracles import naive_has_cycle

                oracle = naive_has_cycle(g, length)
                assert (found is not None) == oracle
