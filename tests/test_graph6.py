import hashlib
import random

import networkx as nx
import pytest

from _oracles import random_graph, reference_from_graph6, reference_to_graph6
from starwheel import graph6
from starwheel.construct import lower_bound_witness, theta
from starwheel.core import Graph, complete, cycle, empty_graph, path, star, wheel


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestEncoding:
    def test_k4(self):
        assert graph6.to_graph6(complete(4)) == b"C~"

    def test_single_vertex(self):
        assert graph6.to_graph6(Graph(1, (0,))) == b"@"

    def test_empty_graph(self):
        assert graph6.to_graph6(empty_graph(0)) == b"?"

    def test_against_networkx(self):
        rng = random.Random(19)
        graphs = [complete(4), cycle(5), path(6), wheel(6), star(3), empty_graph(7)]
        graphs += [random_graph(rng, rng.randrange(0, 20)) for _ in range(120)]
        for g in graphs:
            reference = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
            assert graph6.to_graph6(g) == reference

    def test_decode_networkx_output(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 25))
            data = nx.to_graph6_bytes(to_networkx(g), header=True).strip()
            assert graph6.from_graph6(data) == g  # includes the >>graph6<< header

    def test_max_order_rejected(self):
        with pytest.raises(ValueError):
            graph6.to_graph6(empty_graph(63))


class TestRoundTrip:
    def test_families(self):
        for g in [complete(6), cycle(7), path(5), star(4), wheel(8), empty_graph(0), empty_graph(1)]:
            assert graph6.from_graph6(graph6.to_graph6(g)) == g

    def test_random_up_to_62(self):
        rng = random.Random(31)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 63))
            assert graph6.from_graph6(graph6.to_graph6(g)) == g

    def test_relabeling_noop(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 15))
            assert graph6.to_graph6(g) == graph6.to_graph6(g.relabel(list(range(g.n))))


class TestMalformed:
    def test_byte_out_of_range(self):
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(bytes([62]))
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(b"C" + bytes([127]))

    def test_truncated_and_padded(self):
        data = graph6.to_graph6(complete(5))
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(data[:-1])
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(data + b"?")

    def test_order_too_large(self):
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(bytes([63 + 63]))

    def test_nonzero_padding(self):
        # C_5 needs 10 adjacency bits; the last two bits of the second
        # body byte are padding and must be zero
        data = bytearray(graph6.to_graph6(cycle(5)))
        data[-1] += 1
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(bytes(data))

    def test_empty_input(self):
        with pytest.raises(graph6.Graph6Error):
            graph6.from_graph6(b"")


# Every (n, m) with even 6 <= m <= 2n-2 whose lower-bound witness, of order
# 2n + m/2 - theta - 1, fits the short form: the benchmark's certify cases.
CERTIFY_CASES = [
    (n, m)
    for n in range(4, graph6.MAX_ORDER)
    for m in range(6, 2 * n - 1, 2)
    if 2 * n + m // 2 - theta(n, m) - 1 <= graph6.MAX_ORDER
]
# sha256 of the lines to_graph6(lower_bound_witness(n, m)) + b"\n" over
# CERTIFY_CASES, as the bit-serial codec wrote them; this is also the
# stdout of `starwheel construct --witness n m` over those cases in turn.
WITNESS_BYTES_SHA256 = "745d7addfaca5343f656129e95513fee8986d87f1d740d5e245f30806ab82f33"


def flip_pair(data: bytes, u: int, v: int) -> bytes:
    """graph6 bytes with the adjacency of u < v toggled, bit by bit."""
    index = v * (v - 1) // 2 + u
    out = bytearray(data)
    k = 1 + index // 6
    out[k] = ((out[k] - 63) ^ (1 << (5 - index % 6))) + 63
    return bytes(out)


def decoded(decode, data):
    try:
        g = decode(data)
    except graph6.Graph6Error as exc:
        return "error", str(exc)
    return g.n, g.rows


def assert_same_decoding(data):
    assert decoded(graph6.from_graph6, data) == decoded(reference_from_graph6, data), data


def assert_same_codec(g: Graph):
    data = graph6.to_graph6(g)
    assert data == reference_to_graph6(g)
    assert graph6.from_graph6(data) == g
    assert_same_decoding(data)


class TestAgainstBitSerialReference:
    def test_every_order_at_densities_zero_half_and_one(self):
        rng = random.Random(41)
        for n in range(graph6.MAX_ORDER + 1):
            for g in (empty_graph(n), random_graph(rng, n, 0.5), complete(n)):
                assert_same_codec(g)

    def test_random_graphs(self):
        rng = random.Random(43)
        for _ in range(1500):
            assert_same_codec(random_graph(rng, rng.randrange(graph6.MAX_ORDER + 1)))

    def test_certify_witnesses_and_flipped_copies(self):
        rng = random.Random(47)
        assert len(CERTIFY_CASES) == 257
        for n, m in CERTIFY_CASES:
            g = lower_bound_witness(n, m)
            assert_same_codec(g)
            u, v = sorted(rng.sample(range(g.n), 2))
            flipped = flip_pair(graph6.to_graph6(g), u, v)
            assert graph6.from_graph6(flipped).has_edge(u, v) != g.has_edge(u, v)
            assert_same_decoding(flipped)

    def test_witness_bytes_are_pinned(self):
        lines = b"".join(graph6.to_graph6(lower_bound_witness(n, m)) + b"\n" for n, m in CERTIFY_CASES)
        assert hashlib.sha256(lines).hexdigest() == WITNESS_BYTES_SHA256

    def test_every_nonzero_padding_pattern(self):
        rng = random.Random(53)
        for n in range(2, graph6.MAX_ORDER + 1):
            spare = -(n * (n - 1) // 2) % 6
            data = graph6.to_graph6(random_graph(rng, n))
            for pattern in range(1, 1 << spare):
                padded = data[:-1] + bytes([data[-1] + pattern])
                assert decoded(graph6.from_graph6, padded) == ("error", "nonzero padding bits")
                assert_same_decoding(padded)

    def test_out_of_range_byte_at_first_middle_and_last(self):
        rng = random.Random(59)
        for n in (0, 1, 2, 7, 30, 62):
            data = graph6.to_graph6(random_graph(rng, n))
            for at in sorted({0, len(data) // 2, len(data) - 1}):
                for byte in (0, 10, 32, 62, 127, 200, 255):
                    bad = data[:at] + bytes([byte]) + data[at + 1:]
                    assert decoded(graph6.from_graph6, bad)[0] == "error"
                    assert_same_decoding(bad)
                assert_same_decoding(data[:at] + b"~" + data[at + 1:])
            # the first bad byte is the one named
            assert_same_decoding(b"\x01" + data[1:-1] + b"\xff")

    def test_malformed_order_and_length(self):
        for data in (b"", b"   ", bytes([63 + 63]), b"~", b"C", b"C~?", b"D?", b"@?", b"?", b"@"):
            assert_same_decoding(data)

    def test_str_bytes_and_bytearray_with_header_and_whitespace(self):
        rng = random.Random(61)
        for n in (0, 1, 5, 13, 62):
            data = graph6.to_graph6(random_graph(rng, n))
            for framed in (data, b">>graph6<<" + data, b" \t" + data + b"\n", b"\n>>graph6<<" + data + b"\r\n"):
                for value in (framed, bytearray(framed), framed.decode("ascii")):
                    assert decoded(graph6.from_graph6, value) == decoded(graph6.from_graph6, data)
                    assert_same_decoding(value)
