import hashlib

import pytest

from _oracles import brute_isomorphic
from starwheel.construct import (
    circulant,
    lower_bound_witness,
    regular_bounded_components,
    regular_small,
    theta,
)
from starwheel.core import (
    Graph,
    complete,
    components,
    cycle,
    is_bipartite,
    max_degree,
)
from starwheel.detect import contains_star, contains_wheel
from starwheel.ramsey import is_good_coloring


def is_regular(g: Graph, k: int) -> bool:
    return all(g.degree(v) == k for v in range(g.n))


class TestCirculant:
    def test_offsets_one_is_cycle(self):
        assert circulant(7, 1) == cycle(7)

    def test_full_offsets_is_complete(self):
        assert circulant(5, 2) == complete(5)

    def test_nine_two(self):
        g = circulant(9, 2)
        assert g.n == 9 and is_regular(g, 4)
        assert len(components(g)) == 1

    def test_edgeless(self):
        assert circulant(4, 0).edge_count() == 0

    def test_rotation_invariance(self):
        for n, s in [(7, 1), (9, 2), (11, 3), (8, 2)]:
            g = circulant(n, s)
            rotated = g.relabel([(v + 1) % n for v in range(n)])
            assert rotated == g

    def test_collision_rejected(self):
        with pytest.raises(ValueError):
            circulant(4, 2)


class TestRegularSmall:
    def test_examples(self):
        assert regular_small(3, 4) == complete(4)
        assert regular_small(2, 5) == cycle(5)
        g = regular_small(3, 6)
        assert is_regular(g, 3)
        assert g == circulant(6, 1).complement()

    def test_range_and_parity(self):
        with pytest.raises(ValueError):
            regular_small(3, 3)  # n < k+1
        with pytest.raises(ValueError):
            regular_small(2, 8)  # n > 2k+1
        with pytest.raises(ValueError):
            regular_small(3, 5)  # both odd

    def test_all_valid_inputs(self):
        for k in range(0, 9):
            for n in range(k + 1, 2 * k + 2):
                if k % 2 == 1 and n % 2 == 1:
                    continue
                assert is_regular(regular_small(k, n), k), (k, n)


class TestRegularBoundedComponents:
    # each remainder branch of the case analysis, separately

    def test_even_k_remainder_zero(self):
        g = regular_bounded_components(2, 10)  # q=2, r=0: 2 copies of C_5
        assert [len(c) for c in components(g)] == [5, 5]
        assert is_regular(g, 2)

    def test_even_k_small_remainder(self):
        g = regular_bounded_components(2, 7)  # q=1, r=2: C_3 + C_4
        assert [len(c) for c in components(g)] == [3, 4]
        assert is_regular(g, 2)

    def test_even_k_large_remainder(self):
        g = regular_bounded_components(2, 9)  # q=1, r=4: C_5 + C_4
        assert [len(c) for c in components(g)] == [5, 4]
        assert is_regular(g, 2)

    def test_odd_k_remainder_zero(self):
        g = regular_bounded_components(3, 12)  # q=2, r=0: 2 copies on 6
        assert [len(c) for c in components(g)] == [6, 6]
        assert is_regular(g, 3)

    def test_odd_k_small_remainder(self):
        g = regular_bounded_components(3, 8)  # q=1, r=2: two K_4
        assert [len(c) for c in components(g)] == [4, 4]
        assert is_regular(g, 3)
        assert brute_isomorphic(g.induced_subgraph(range(4)), complete(4))

    def test_odd_k_large_remainder(self):
        g = regular_bounded_components(3, 10)  # q=1, r=4: orders 6 and 4
        assert [len(c) for c in components(g)] == [6, 4]
        assert is_regular(g, 3)

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            regular_bounded_components(3, 5)
        with pytest.raises(ValueError):
            regular_bounded_components(5, 9)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            regular_bounded_components(3, 3)

    def test_small_range_delegates(self):
        assert regular_bounded_components(2, 5) == cycle(5)

    def test_exhaustive_small(self):
        # every k <= 11 and n < 80: defined iff n > k and k or n is even,
        # and the 663 graphs built keep the rows they had when the even-k
        # and odd-k case analyses were written out separately
        built = []
        for k in range(12):
            for n in range(80):
                if n <= k or k % 2 == 1 and n % 2 == 1:
                    with pytest.raises(ValueError):
                        regular_bounded_components(k, n)
                    continue
                g = regular_bounded_components(k, n)
                assert g.n == n
                assert is_regular(g, k), (k, n)
                assert all(len(c) <= 2 * k + 1 for c in components(g)), (k, n)
                built.append(g.rows)
        assert len(built) == 663
        digest = hashlib.sha256(repr(built).encode()).hexdigest()
        assert digest == "18cb196e044a9d239b155ba59ab15897641ff3ed6cf2cb43a49c7a2ef1e5acc5"


class TestTheta:
    def test_values(self):
        assert theta(4, 6) == 0  # m/2 = 3 odd
        assert theta(4, 8) == 1
        assert theta(5, 8) == 0  # n odd

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            theta(4, 7)


class TestLowerBoundWitness:
    def test_4_6_shape(self):
        g = lower_bound_witness(4, 6)
        assert g.n == 10
        assert max_degree(g) == 3
        comps = components(g)
        assert sorted(len(c) for c in comps) == [4, 6]
        big = g.induced_subgraph(comps[0])
        small = g.induced_subgraph(comps[1])
        # complement(2*C_3) = K_{3,3}, then a K_4
        sides = is_bipartite(big)
        assert sides is not None and sorted(map(len, sides)) == [3, 3]
        assert big.edge_count() == 9
        assert small == complete(4)
        assert is_good_coloring(g, 4, 6)

    def test_6_8_shape(self):
        g = lower_bound_witness(6, 8)
        assert g.n == 14  # theta = 1
        comps = components(g)
        assert sorted(len(c) for c in comps) == [6, 8]
        big = g.induced_subgraph(comps[0])
        sides = is_bipartite(big)
        assert sides is not None and sorted(map(len, sides)) == [4, 4]
        assert big.edge_count() == 16
        assert g.induced_subgraph(comps[1]) == complete(6)
        assert is_good_coloring(g, 6, 8)

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            lower_bound_witness(4, 8)  # m > 2n-2
        with pytest.raises(ValueError):
            lower_bound_witness(10, 7)  # odd m
        with pytest.raises(ValueError):
            lower_bound_witness(3, 4)  # m < 6

    def test_structure_across_range(self):
        for n in range(4, 11):
            for m in range(6, 2 * n - 1, 2):
                g = lower_bound_witness(n, m)
                t = theta(n, m)
                assert g.n == 2 * n + m // 2 - t - 1
                assert max_degree(g) == n - 1
                assert contains_star(g, n) is None
                assert contains_wheel(g.complement(), m) is None
