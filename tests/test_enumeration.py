import gc
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
from starwheel import enumeration
from starwheel._cycles import twin_reps
from starwheel.construct import lower_bound_witness
from starwheel.core import Graph, complete, cycle, max_degree
from starwheel.ramsey import arrows
from starwheel.enumeration import (
    _DEPTH_SHIFT,
    _candidates,
    _improvement,
    _moved_above,
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


def _proof(rows, n):
    """The twin partition and automorphisms is_canonical records for the
    canonical labeling ``rows``."""
    proof = []
    assert is_canonical(rows, n, proof), rows
    twins, maps = proof[:2]
    return twins, maps


def _child(rows, k, nbrs):
    """The rows of ``rows`` plus a new vertex k with neighbourhood ``nbrs``."""
    return tuple(row | (nbrs >> u & 1) << k for u, row in enumerate(rows)) + (nbrs,)


def _twin_closed(rows, k, nbrs):
    """For every twin pair u < v, found pairwise, ``nbrs`` holds u only
    together with v."""
    return all(
        (nbrs >> v) & 1 or not (nbrs >> u) & 1
        for u in range(k)
        for v in range(u + 1, k)
        if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v)
    )


def _check_improvement(rows, n):
    """_improvement agrees with the reference backtrack, and a prefix it
    names ties the labeling's words and beats it at its last position."""
    pos = _improvement(rows, n)
    assert pos == reference_improvement(rows, n), rows
    if pos is not None:
        _check_prefix(rows, pos)


def _check_prefix(rows, pos):
    """The ordering prefix of the ``pos`` array ties the labeling's words
    and beats it at its last position."""
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
                    _check_improvement(_child(g.rows, k, nbrs), k + 1)

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

    def test_leaves_no_cyclic_garbage(self, no_gc):
        # the candidate and canonicity searches drop their references to
        # themselves when done, so refcounting frees all they make
        assert sum(1 for _ in enumerate_degree_bounded(8, 3)) == 424
        assert gc.collect() == 0

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

    def test_swap_bound_skips_only_non_canonical_children(self, corpus_by_order):
        # every child of every canonical graph on up to 7 vertices: a
        # neighbourhood the child loop leaves out never gives a canonical child
        skipped = 0
        for k in range(1, 8):
            for g in corpus_by_order[k]:
                twins, _ = _proof(g.rows, k)
                tried = _candidates(g.rows, k, twins)  # no vertex reaches degree k
                assert tried == sorted(set(tried), reverse=True)
                assert set(tried) <= set(range(1 << k))
                for nbrs in set(range(1 << k)).difference(tried):
                    assert not is_canonical(_child(g.rows, k, nbrs), k + 1), (g.rows, nbrs)
                    skipped += 1
        assert skipped >= SKIPPED_UP_TO_SEVEN

    @pytest.mark.parametrize("dmax", [1, 2, 3, None])
    def test_candidates_follow_their_definition(self, corpus_by_order, dmax):
        # the top-down walk gives exactly the capped neighbourhoods that no
        # insertion position beats, descending; given the twin partition,
        # exactly those of them that hold each twin only with its higher twins
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
                twins, _ = _proof(g.rows, k)
                closed = [nbrs for nbrs in expected if _twin_closed(g.rows, k, nbrs)]
                assert _candidates(g.rows, cap, twins) == closed, (g.rows, cap)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_degree_bounded(-1, 2))
        with pytest.raises(ValueError):
            list(enumerate_degree_bounded(3, -1))


# children of the canonical graphs of order 1..7 that the insertion and twin
# bounds leave out, every neighbourhood counted
SKIPPED_UP_TO_SEVEN = 120261
# of the children the insertion bound keeps, those the symmetry bound drops
DROPPED_UP_TO_SEVEN = 15227


def _check_symmetry_bound(rows, k, rng=None, sample=None):
    """Every map recorded for the canonical ``rows`` is a non-identity
    automorphism, and every neighbourhood that passes the insertion bound
    but not the symmetry bound (the twin condition or a recorded map) gives
    a child that the reference backtrack rejects; with ``rng``, only a
    ``sample`` of those children meets the backtrack. Returns (maps, dropped)."""
    twins, maps = _proof(rows, k)
    g = Graph(k, rows)
    for sigma in maps:
        assert sigma != list(range(k)) and g.relabel(sigma) == g, (rows, sigma)
    kept = set(_candidates(rows, k, twins))
    dropped = [
        nbrs for nbrs in _candidates(rows, k) if nbrs not in kept or _moved_above(rows, nbrs, maps)
    ]
    checked = dropped if rng is None or len(dropped) <= sample else rng.sample(dropped, sample)
    for nbrs in checked:
        assert reference_improvement(_child(rows, k, nbrs), k + 1) is not None, (rows, nbrs)
    return len(maps), len(dropped)


def _symmetric_graph(rng):
    """A seeded graph on 2..12 vertices with automorphisms beyond its twins:
    a circulant, copies of a small graph, or a graph with duplicated
    vertices, each complemented at random."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randrange(3, 13)
        steps = [d for d in range(1, n // 2 + 1) if rng.random() < 0.5]
        g = Graph.from_edges(n, [(v, (v + d) % n) for v in range(n) for d in steps])
    elif kind == 1:
        h = random_graph(rng, rng.randrange(1, 5))
        g = h
        for _ in range(rng.randrange(1, 12 // h.n)):
            g = g.disjoint_union(h)
    else:
        g = random_graph(rng, rng.randrange(2, 8))
        while g.n < 12 and rng.random() < 0.8:
            v = rng.randrange(g.n)
            adjacent = rng.random() < 0.5  # a true twin, else a false one
            rows = list(g.rows) + [g.rows[v] | (1 << v if adjacent else 0)]
            for u in range(g.n):
                if (rows[-1] >> u) & 1:
                    rows[u] |= 1 << g.n
            g = Graph(g.n + 1, rows)
    return g.complement() if rng.random() < 0.5 else g


class TestSymmetryBound:
    def test_every_graph_up_to_seven_vertices(self, corpus_by_order):
        total_maps = dropped = 0
        for k in range(1, 8):
            for g in corpus_by_order[k]:
                maps, skipped = _check_symmetry_bound(g.rows, k)
                total_maps += maps
                dropped += skipped
        assert total_maps > 0
        assert dropped == DROPPED_UP_TO_SEVEN

    def test_seeded_symmetric_graphs_up_to_twelve(self):
        rng = random.Random(89)
        total_maps = dropped = 0
        for _ in range(200):
            g = canonical_form(_symmetric_graph(rng))
            maps, skipped = _check_symmetry_bound(g.rows, g.n, rng, 20)
            total_maps += maps
            dropped += skipped
        assert total_maps > 0 and dropped > 0

    @pytest.mark.parametrize("g", [cycle(8), complete(5), complete(3).disjoint_union(complete(3))])
    def test_named_graphs(self, g):
        cf = canonical_form(g)
        _check_symmetry_bound(cf.rows, cf.n)

    def test_trivial_orders(self):
        for n in range(2):
            assert _proof((0,) * n, n) == (list(range(n)), [])


# children of the canonical graphs of order 1..7, past the insertion bound,
# that the prefix of a rejected sibling proves non-canonical
COVERED_UP_TO_SEVEN = 10977


class TestRejectionSiblings:
    def test_every_graph_up_to_seven_vertices(self, corpus_by_order):
        # a child rejected with a beat below the new vertex's position k
        # records the vertices the beating prefix placed; every sibling that
        # holds the child's neighbourhood on that prefix is beaten by it too
        covered = 0
        for k in range(1, 8):
            for g in corpus_by_order[k]:
                candidates = _candidates(g.rows, k)
                beaten = set()
                for nbrs in candidates:
                    child = _child(g.rows, k, nbrs)
                    proof = []
                    if is_canonical(child, k + 1, proof):
                        continue
                    (placed,) = proof
                    pos = _improvement(child, k + 1)
                    assert placed == sum(1 << v for v, p in enumerate(pos) if p >= 0), (g.rows, nbrs)
                    if placed.bit_count() <= k:
                        need = nbrs & placed
                        beaten.update(s for s in candidates if s & need == need and s != nbrs)
                for nbrs in beaten:
                    assert reference_improvement(_child(g.rows, k, nbrs), k + 1) is not None, (g.rows, nbrs)
                covered += len(beaten)
        assert covered == COVERED_UP_TO_SEVEN


def _check_replay(rows, n, parent):
    """The test that replays ``parent``, the proof of ``rows`` without its
    last vertex, gives the plain search's verdict. A rejection's prefix
    beats the labeling at its last position; an acceptance records the
    same twin partition, automorphisms under ``relabel``, and as many
    backtrack nodes as the plain search, twin choices aside. Returns
    (whether the record was replayed, the proof or None)."""
    proof = []
    pos = _improvement(rows, n, proof, parent)
    plain = []
    assert (pos is None) == (_improvement(rows, n, plain) is None), rows
    replayed = twin_reps(rows, n)[:-1] == parent[0]
    if pos is not None:
        _check_prefix(rows, pos)
        return replayed, None
    twins, maps, record = proof
    g = Graph(n, rows)
    for sigma in maps:
        assert sigma != list(range(n)) and g.relabel(sigma) == g, (rows, sigma)
    assert twins == plain[0] and len(record) == len(plain[2]), rows
    assert max(e >> _DEPTH_SHIFT for e in record) == n, rows
    return replayed, proof


def _canonical_graph(rng):
    """A seeded canonical graph on 7..12 vertices and its degree cap dmax,
    3..6: grown from one vertex by a random canonical child at a time,
    among the neighbourhoods ``_candidates`` gives for dmax."""
    order = rng.randrange(7, 13)
    dmax = rng.randrange(3, 7)
    rows = (0,)
    while len(rows) < order:
        k = len(rows)
        tried = _candidates(rows, dmax)
        rng.shuffle(tried)
        rows = next(c for c in (_child(rows, k, s) for s in tried) if is_canonical(c, k + 1))
    return rows, dmax


class TestReplay:
    def test_every_child_up_to_seven_vertices(self, corpus_by_order):
        # every graph of order <= 6 as parent with every neighbourhood, and
        # the children of each accepted child on a fixed stride
        counts = [0, 0]
        for k in range(1, 7):
            for g in corpus_by_order[k]:
                parent = []
                assert is_canonical(g.rows, k, parent)
                for nbrs in range(1 << k):
                    child = _child(g.rows, k, nbrs)
                    replayed, proof = _check_replay(child, k + 1, parent)
                    counts[replayed] += 1
                    if proof is None:
                        continue
                    for grand in range(nbrs % 5, 1 << (k + 1), 5):
                        replayed, _ = _check_replay(_child(child, k + 1, grand), k + 2, proof)
                        counts[replayed] += 1
        assert min(counts) > 1000, counts

    def test_seeded_graphs_up_to_twelve(self):
        rng = random.Random(97)
        counts = [0, 0]
        for _ in range(300):
            rows, dmax = _canonical_graph(rng)
            k = len(rows)
            parent = []
            assert is_canonical(rows, k, parent)
            tried = _candidates(rows, dmax)
            for _ in range(40):
                replayed, _ = _check_replay(_child(rows, k, rng.choice(tried)), k + 1, parent)
                counts[replayed] += 1
        assert min(counts) > 1000, counts

    def test_every_call_of_a_scan(self, monkeypatch):
        # the order-13 scan of R(K_{1,4}, W_7) = 13 passes each child its
        # parent's proof
        test = enumeration.is_canonical
        counts = [0, 0]

        def checked(rows, n, proof=None, parent=None):
            if parent is not None:
                replayed, _ = _check_replay(rows, n, parent)
                counts[replayed] += 1
            return test(rows, n, proof, parent)

        monkeypatch.setattr(enumeration, "is_canonical", checked)
        report = arrows(13, 4, 7)
        assert report.survivors[8] == 279
        assert min(counts) > 50, counts
