import random
from itertools import combinations

import pytest

from _oracles import (
    brute_isomorphic,
    code_to_graph,
    labeled_class_representatives,
    random_graph,
    random_permutation,
    reference_improvement,
)
from starwheel.construct import lower_bound_witness
from starwheel.core import max_degree
from starwheel.enumeration import (
    _candidates,
    _improvement,
    canonical_form,
    enumerate_degree_bounded,
    is_canonical,
    is_isomorphic,
)


class TestCanonicalForm:
    def test_one_canonical_labeling_per_class(self):
        # exhaustive over all labeled graphs with nu <= 5
        for n in range(6):
            nbits = n * (n - 1) // 2
            canonical = sum(
                1 for code in range(1 << nbits) if is_canonical(code_to_graph(code, n).rows, n)
            )
            assert canonical == len(labeled_class_representatives(n))

    def test_relabeling_invariance(self):
        rng = random.Random(61)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 9))
            h = g.relabel(random_permutation(rng, g.n))
            assert canonical_form(g) == canonical_form(h)

    def test_idempotent(self):
        rng = random.Random(67)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(0, 9))
            cf = canonical_form(g)
            assert is_canonical(cf.rows, cf.n)
            assert canonical_form(cf) == cf

    @pytest.mark.parametrize("n,m", [(5, 6), (6, 8), (7, 10), (8, 12), (11, 6)])
    def test_twin_heavy_witnesses_above_order_8(self, n, m):
        # orders 12..24; the K_n block and the regular complement are full of twins
        g = lower_bound_witness(n, m)
        assert g.n > 8
        rng = random.Random(73 + n)
        forms = {canonical_form(g.relabel(random_permutation(rng, g.n))) for _ in range(3)}
        assert len(forms) == 1
        cf = forms.pop()
        assert cf == canonical_form(g)
        assert is_canonical(cf.rows, cf.n)

    def test_is_isomorphic_against_brute_force(self):
        rng = random.Random(71)
        for _ in range(80):
            n = rng.randrange(1, 7)
            a = random_graph(rng, n)
            b = random_graph(rng, n)
            assert is_isomorphic(a, b) == brute_isomorphic(a, b)
            assert is_isomorphic(a, a.relabel(random_permutation(rng, n)))


def _check_improvement(rows, n):
    """_improvement agrees with the reference backtrack, and a prefix it
    names ties the labeling's words and beats it at its last position."""
    pos = _improvement(rows, n)
    assert pos == reference_improvement(rows, n), rows
    if pos is None:
        return
    order = sorted((p, v) for v, p in enumerate(pos) if p >= 0)
    assert [p for p, _ in order] == list(range(len(order)))
    for depth, (_, v) in enumerate(order):
        word = sum(1 << i for i, (_, u) in enumerate(order[:depth]) if (rows[v] >> u) & 1)
        target = rows[depth] & ((1 << depth) - 1)
        if depth < len(order) - 1:
            assert word == target, (rows, depth)
        else:
            assert word > target, (rows, depth)


class TestImprovement:
    def test_every_child_up_to_seven_vertices(self, corpus_by_order):
        for k in range(1, 7):
            for g in corpus_by_order[k]:
                for nbrs in range(1 << k):
                    child = tuple(row | (nbrs >> u & 1) << k for u, row in enumerate(g.rows))
                    _check_improvement(child + (nbrs,), k + 1)

    def test_random_graphs(self):
        rng = random.Random(79)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 13))
            _check_improvement(g.rows, g.n)

    @pytest.mark.parametrize("n,m", [(5, 6), (6, 8), (7, 10)])
    def test_relabelled_witnesses(self, n, m):
        g = lower_bound_witness(n, m)
        rng = random.Random(83 + n)
        for _ in range(3):
            h = g.relabel(random_permutation(rng, g.n))
            _check_improvement(h.rows, h.n)


class TestEnumeration:
    @pytest.mark.parametrize(
        "order,dmax,expected",
        [(4, 3, 11), (5, 2, 11), (3, 0, 1), (0, 0, 1), (1, 0, 1), (5, 4, 34), (6, 5, 156)],
    )
    def test_counts(self, order, dmax, expected):
        assert sum(1 for _ in enumerate_degree_bounded(order, dmax)) == expected

    def test_counts_against_labeled_oracle(self):
        for n in range(1, 7):
            for dmax in range(n):
                ours = sum(1 for _ in enumerate_degree_bounded(n, dmax))
                oracle = len(labeled_class_representatives(n, dmax))
                assert ours == oracle, (n, dmax)

    def test_seven_vertex_count_against_labeled_oracle(self):
        ours = sum(1 for _ in enumerate_degree_bounded(7, 6))
        assert ours == len(labeled_class_representatives(7)) == 1044

    def test_seven_vertex_capped_count_against_labeled_oracle(self):
        # the degree cap of the (4, 6) search
        ours = sum(1 for _ in enumerate_degree_bounded(7, 3))
        assert ours == len(labeled_class_representatives(7, 3)) == 150

    def test_exhaustive_canonicity_at_six(self):
        nbits = 15
        count = sum(
            1 for code in range(1 << nbits) if is_canonical(code_to_graph(code, 6).rows, 6)
        )
        assert count == 156

    def test_outputs_are_canonical_distinct_and_capped(self):
        seen = set()
        for g in enumerate_degree_bounded(6, 3):
            assert g.n == 6 and max_degree(g) <= 3
            assert is_canonical(g.rows, g.n)
            assert g.rows not in seen
            seen.add(g.rows)

    def test_pairwise_non_isomorphic(self):
        graphs = list(enumerate_degree_bounded(5, 4))
        for a, b in combinations(graphs, 2):
            assert not brute_isomorphic(a, b)

    def test_every_class_is_hit(self):
        produced = {g.rows for g in enumerate_degree_bounded(5, 4)}
        for rep in labeled_class_representatives(5):
            assert canonical_form(rep).rows in produced

    def test_deterministic_order(self):
        first = [g.rows for g in enumerate_degree_bounded(6, 3)]
        second = [g.rows for g in enumerate_degree_bounded(6, 3)]
        assert first == second

    def test_prune_kills_subtrees(self):
        everything = list(enumerate_degree_bounded(5, 4))
        nothing = list(enumerate_degree_bounded(5, 4, prune=lambda g: True))
        assert nothing == []
        # pruning graphs with an edge leaves exactly the edgeless class
        edgeless_only = list(
            enumerate_degree_bounded(5, 4, prune=lambda g: g.edge_count() > 0)
        )
        assert len(edgeless_only) == 1 and edgeless_only[0].edge_count() == 0
        assert len(everything) == 34

    def test_swap_bound_skips_only_non_canonical_children(self, corpus_by_order):
        # every child of every canonical graph on up to 7 vertices: a
        # neighbourhood the child loop leaves out never gives a canonical child
        skipped = 0
        for k in range(1, 8):
            for g in corpus_by_order[k]:
                tried = _candidates(g.rows, k)  # no vertex reaches degree k
                assert tried == sorted(set(tried), reverse=True)
                assert set(tried) <= set(range(1 << k))
                for nbrs in set(range(1 << k)).difference(tried):
                    child = tuple(row | (nbrs >> u & 1) << k for u, row in enumerate(g.rows))
                    child += (nbrs,)
                    assert not is_canonical(child, k + 1), (g.rows, nbrs)
                    skipped += 1
        assert skipped >= 111232

    @pytest.mark.parametrize("dmax", [1, 2, 3, None])
    def test_candidates_follow_their_definition(self, corpus_by_order, dmax):
        # the top-down walk gives exactly the capped neighbourhoods that no
        # insertion position beats, descending
        for k in range(1, 8):
            for g in corpus_by_order[k]:
                cap = k if dmax is None else dmax
                saturated = sum(1 << u for u in range(k) if g.rows[u].bit_count() >= cap)
                expected = [
                    nbrs for nbrs in range(1 << k)[::-1]
                    if nbrs.bit_count() <= cap and not nbrs & saturated
                    and all(nbrs & ((1 << j) - 1) <= g.rows[j] & ((1 << j) - 1) for j in range(k))
                ]
                assert _candidates(g.rows, cap) == expected, (g.rows, cap)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_degree_bounded(-1, 2))
        with pytest.raises(ValueError):
            list(enumerate_degree_bounded(3, -1))
