import random

import pytest

from _oracles import (
    brute_isomorphic,
    naive_circumference,
    naive_girth,
    random_graph,
    random_permutation,
)
from starwheel.core import (
    Graph,
    blocks,
    circumference,
    complete,
    components,
    cut_vertices,
    cycle,
    empty_graph,
    girth,
    is_bipartite,
    is_two_connected,
    path,
    star,
    wheel,
)


class TestFamilies:
    def test_wheel3_is_k4(self):
        assert brute_isomorphic(wheel(3), complete(4))
        assert wheel(3).n == 4 and wheel(3).edge_count() == 6

    def test_star_degree_sequence(self):
        g = star(4)
        assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 1, 4]
        assert g.degree(0) == 4  # center is vertex 0

    def test_wheel6_shape(self):
        g = wheel(6)
        assert g.n == 7 and g.edge_count() == 12
        assert g.degree(6) == 6
        assert all(g.degree(v) == 3 for v in range(6))

    @pytest.mark.parametrize("bad", [lambda: cycle(2), lambda: wheel(2), lambda: star(0),
                                     lambda: complete(-1), lambda: path(-2)])
    def test_family_preconditions(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (1, 2))  # loop at 1
        with pytest.raises(ValueError):
            Graph(1, (2,))  # out of range
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_immutable(self):
        g = cycle(3)
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(AttributeError):
            del g.n


class TestComplementAndUnion:
    def test_complement_of_complete(self):
        assert complete(5).complement() == empty_graph(5)

    def test_complement_c5_selfcomplementary(self):
        assert brute_isomorphic(cycle(5).complement(), cycle(5))

    def test_complement_two_triangles_is_k33(self):
        two_c3 = cycle(3).disjoint_union(cycle(3))
        k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert brute_isomorphic(two_c3.complement(), k33)

    def test_complement_involution_and_degrees(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(0, 10))
            assert g.complement().complement() == g
            for v in range(g.n):
                assert g.complement().degree(v) == g.n - 1 - g.degree(v)

    def test_disjoint_union(self):
        g = cycle(4)
        assert empty_graph(0).disjoint_union(g) == g
        u = cycle(3).disjoint_union(cycle(4))
        assert u.n == 7 and u.edge_count() == 7 and len(components(u)) == 2
        # labeling: first block keeps indices, second is shifted
        assert u.has_edge(0, 1) and u.has_edge(3, 4) and not u.has_edge(2, 3)

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 12))
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


class TestInducedSubgraph:
    def test_identity(self):
        g = wheel(5)
        assert g.induced_subgraph(range(g.n)) == g

    def test_wheel_rim_is_cycle(self):
        assert wheel(6).induced_subgraph(range(6)) == cycle(6)

    def test_complete_restriction(self):
        assert complete(5).induced_subgraph([1, 3, 4]) == complete(3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complete(3).induced_subgraph([0, 3])


class TestRelabel:
    @pytest.mark.parametrize(
        "g,perm",
        [
            (Graph.from_edges(4, [(0, 1)]), [0, 1, 1, 1]),
            (empty_graph(3), [5, 5, 5]),
            (cycle(4), [1, 0, 3, 2, 9]),
            (empty_graph(2), [-1, 0]),
            (path(3), [0, 1]),
        ],
    )
    def test_rejects_non_permutations(self, g, perm):
        with pytest.raises(ValueError):
            g.relabel(perm)


class TestConnectivity:
    def test_cut_vertex_of_path(self):
        assert cut_vertices(path(3)) == frozenset({1})

    def test_bipartition_of_even_cycle(self):
        sides = is_bipartite(cycle(6))
        assert sides is not None
        assert sorted(map(len, sides)) == [3, 3]
        assert is_bipartite(cycle(5)) is None

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert blocks(g) == [(0, 1, 2), (2, 3, 4)]
        assert cut_vertices(g) == frozenset({2})

    def test_components_partition(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(0, 12), p=0.2)
            comps = components(g)
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(g.n))
            where = {v: i for i, comp in enumerate(comps) for v in comp}
            for u, v in g.edges():
                assert where[u] == where[v]

    def test_blocks_cover_each_edge_once(self):
        rng = random.Random(4)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 11), p=rng.choice([0.2, 0.4, 0.6]))
            bl = blocks(g)
            cover = {}
            for i, verts in enumerate(bl):
                sub = g.induced_subgraph(verts)
                for a, b in sub.edges():
                    e = (verts[a], verts[b])
                    cover[e] = cover.get(e, 0) + 1
            assert sorted(cover) == sorted(g.edges())
            assert all(c == 1 for c in cover.values())
            # a vertex is a cut vertex iff it lies in >= 2 blocks
            tally = {}
            for verts in bl:
                for v in verts:
                    tally[v] = tally.get(v, 0) + 1
            assert cut_vertices(g) == frozenset(v for v, c in tally.items() if c >= 2)

    def test_two_connected(self):
        assert is_two_connected(cycle(3))
        assert is_two_connected(wheel(6))
        assert not is_two_connected(path(4))
        assert not is_two_connected(complete(2))
        assert not is_two_connected(cycle(3).disjoint_union(cycle(3)))
        assert not is_two_connected(cycle(4).disjoint_union(empty_graph(1)))
        assert not is_two_connected(empty_graph(3))


class TestGirthCircumference:
    def test_examples(self):
        assert girth(complete(4)) == 3
        assert circumference(complete(4)) == 4
        assert girth(path(5)) is None and circumference(path(5)) is None
        assert circumference(cycle(3).disjoint_union(cycle(4))) == 4

    def test_cycle_has_girth_equal_circumference(self):
        for n in range(3, 10):
            assert girth(cycle(n)) == circumference(cycle(n)) == n

    def test_against_naive_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(0, 9))
            low, high = girth(g), circumference(g)
            assert low == naive_girth(g)
            assert high == naive_circumference(g)
            assert (low is None) == (high is None)
            if low is not None:
                assert low <= high

    def test_isomorphism_invariance(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 9))
            h = g.relabel(random_permutation(rng, g.n))
            assert girth(g) == girth(h)
            assert circumference(g) == circumference(h)


class TestAgainstNetworkx:
    """Second independent reference for the structural queries."""

    def test_random_graphs_agree(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(97)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(1, 11))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            spectrum = {len(c) for c in nx.simple_cycles(h) if len(c) >= 3}
            reference_girth = nx.girth(h)
            if reference_girth == float("inf"):
                reference_girth = None
            assert girth(g) == reference_girth
            assert circumference(g) == (max(spectrum) if spectrum else None)
            assert len(components(g)) == nx.number_connected_components(h)
            assert (is_bipartite(g) is not None) == nx.is_bipartite(h)
            assert cut_vertices(g) == frozenset(nx.articulation_points(h))
            # networkx counts K_2 as biconnected; a 2-connected graph here has >= 3 vertices
            assert is_two_connected(g) == (g.n >= 3 and nx.is_biconnected(h))
            assert sorted(map(sorted, blocks(g))) == sorted(
                sorted(b) for b in nx.biconnected_components(h) if len(b) >= 2
            )
