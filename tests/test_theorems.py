import random

import pytest

from _oracles import random_graph, random_permutation
from starwheel import theorems
from starwheel.construct import lower_bound_witness
from starwheel.core import Graph, complete, cycle, path, wheel
from starwheel.detect import StarWitness, WheelWitness
from starwheel.theorems import (
    CONCLUSION_HOLDS,
    COUNTEREXAMPLE,
    HYPOTHESIS_NOT_MET,
    Verdict,
    check_brandt,
    check_dirac,
    check_jackson,
    fuzz,
    fuzz_all_graphs,
    verify_construction,
)

K33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
K24 = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(4)])


class TestDirac:
    def test_complete(self):
        verdict = check_dirac(complete(4))
        assert verdict.holds and verdict.witness == 4  # c = 4 >= min(6, 4)

    def test_not_two_connected(self):
        assert check_dirac(path(4)).status == HYPOTHESIS_NOT_MET

    def test_cycle(self):
        verdict = check_dirac(cycle(5))
        assert verdict.holds and verdict.witness == 5  # c = 5 >= min(4, 5)


class TestBrandt:
    def test_complete(self):
        verdict = check_brandt(complete(4))
        assert verdict.holds and verdict.witness == 3

    def test_low_degree(self):
        assert check_brandt(cycle(5)).status == HYPOTHESIS_NOT_MET

    def test_bipartite_excluded(self):
        assert check_brandt(K33).status == HYPOTHESIS_NOT_MET

    def test_wheel5(self):
        verdict = check_brandt(wheel(5))
        assert verdict.holds  # delta = 3 >= (6+2)/3, spectrum {3..6}, girth 3


class TestJackson:
    def test_k33(self):
        verdict = check_jackson(K33, (0, 1, 2), (3, 4, 5))
        assert verdict.holds and len(verdict.witness) == 6

    def test_k24_small_side(self):
        verdict = check_jackson(K24, (0, 1), (2, 3, 4, 5))
        assert verdict.holds and len(verdict.witness) == 4

    def test_cycle6_alternating(self):
        assert check_jackson(cycle(6), (0, 2, 4), (1, 3, 5)).status == HYPOTHESIS_NOT_MET

    def test_not_a_partition(self):
        assert check_jackson(K33, (0, 1), (3, 4, 5)).status == HYPOTHESIS_NOT_MET
        assert check_jackson(complete(4), (0, 1), (2, 3)).status == HYPOTHESIS_NOT_MET

    def test_size_orientation(self):
        # |X| > |Y| is a hypothesis failure, not an error
        assert check_jackson(K24, (2, 3, 4, 5), (0, 1)).status == HYPOTHESIS_NOT_MET


class TestVerifyConstruction:
    @pytest.mark.parametrize("n,m", [(4, 6), (6, 8), (5, 6), (7, 10)])
    def test_holds(self, n, m):
        assert verify_construction(n, m).holds

    def test_hypothesis_violation_is_an_error(self):
        with pytest.raises(ValueError):
            verify_construction(3, 6)

    @staticmethod
    def _flipped(n, m, u, v):
        rows = list(lower_bound_witness(n, m).rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(len(rows), rows)

    def test_star_counterexample(self, monkeypatch):
        # in the (6, 8) witness complement(H) has degree 4 and K_6 degree 5,
        # so the added edge (0, 13) gives vertex 13 a K_{1,6}
        assert not lower_bound_witness(6, 8).has_edge(0, 13)
        bad = self._flipped(6, 8, 0, 13)
        monkeypatch.setattr(theorems, "lower_bound_witness", lambda n, m: bad)
        verdict = verify_construction(6, 8)
        assert verdict.status == COUNTEREXAMPLE
        assert isinstance(verdict.witness, StarWitness) and verdict.witness.center == 13
        assert verdict.witness.validate(bad, 6)
        assert verdict.detail == "witness contains K_{1,6}"

    def test_wheel_counterexample(self, monkeypatch):
        # the edge (2, 6) removed puts a W_8 with hub 2 in the complement
        # (the wheel pinned in test_detect)
        bad = self._flipped(6, 8, 2, 6)
        monkeypatch.setattr(theorems, "lower_bound_witness", lambda n, m: bad)
        verdict = verify_construction(6, 8)
        assert verdict.status == COUNTEREXAMPLE
        assert isinstance(verdict.witness, WheelWitness)
        assert (verdict.witness.hub, verdict.witness.rim) == (2, (0, 8, 1, 9, 3, 10, 6, 11))
        assert verdict.detail == "complement contains W_8"


class TestInvariance:
    def test_status_is_isomorphism_invariant(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(3, 8))
            perm = random_permutation(rng, g.n)
            h = g.relabel(perm)
            assert check_dirac(g).status == check_dirac(h).status
            assert check_brandt(g).status == check_brandt(h).status
            from starwheel.core import is_bipartite

            sides = is_bipartite(g)
            if sides is not None:
                xs, ys = sides
                verdict = check_jackson(g, xs, ys)
                mapped = check_jackson(h, [perm[v] for v in xs], [perm[v] for v in ys])
                assert verdict.status == mapped.status


class TestFuzz:
    def test_small_corpus_is_clean_with_nonzero_tallies(self):
        summary = fuzz_all_graphs(5)
        assert summary.clean
        assert summary.graphs == 1 + 2 + 4 + 11 + 34
        for name in ("dirac", "brandt", "jackson"):
            assert summary.tallies[name][CONCLUSION_HOLDS] > 0
            assert summary.tallies[name].get(COUNTEREXAMPLE, 0) == 0

    def test_empty_corpus(self):
        summary = fuzz([])
        assert summary.clean and summary.graphs == 0
        assert all(not t for t in summary.tallies.values())
        assert summary.lines()[-1] == "no counterexamples"

    def test_corrupted_check_aborts_and_revalidates(self):
        def broken(g):
            if g.n == 3 and g.edge_count() == 3:
                yield Verdict(COUNTEREXAMPLE, detail="deliberately broken")
            else:
                yield Verdict(HYPOTHESIS_NOT_MET)

        corpus = [path(3), cycle(3), complete(4)]
        summary = fuzz(corpus, checks={"broken": broken, "dirac": lambda g: [check_dirac(g)]})
        assert not summary.clean
        name, graph, verdict = summary.counterexample
        assert name == "broken" and graph == cycle(3)
        # aborted immediately: K_4 was never reached
        assert summary.graphs == 2
        # the counterexample re-validates: rerunning reproduces the violation
        rerun = list(broken(graph))[0]
        assert rerun.status == COUNTEREXAMPLE and rerun.detail == verdict.detail
        assert any(line.startswith("counterexample check=broken") for line in summary.lines())
