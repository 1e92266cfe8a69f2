"""Bit-exact graph6 codec for graphs on at most 62 vertices (short form only).

Format: one byte n+63, then the upper-triangle adjacency bits in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian six bits per byte,
each byte offset by 63 and the last byte zero-padded. An optional leading
``>>graph6<<`` header is accepted on input and never emitted.
"""

from __future__ import annotations

from .core import Graph

_HEADER = b">>graph6<<"
MAX_ORDER = 62


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def to_graph6(g: Graph) -> bytes:
    if g.n > MAX_ORDER:
        raise ValueError(f"graph6 short form supports at most {MAX_ORDER} vertices, got {g.n}")
    out = [g.n + 63]
    acc = 0
    filled = 0
    for col in range(1, g.n):
        row = g.rows[col]
        for i in range(col):
            acc = (acc << 1) | ((row >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = 0
                filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return bytes(out)


def from_graph6(data) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string")
    for byte in data:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside the graph6 range [63, 126]")
    n = data[0] - 63
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the short-form limit {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    body = data[1:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"expected {(nbits + 5) // 6} adjacency bytes for order {n}, got {len(body)}"
        )
    bits = []
    for byte in body:
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    rows = [0] * n
    index = 0
    for col in range(1, n):
        for i in range(col):
            if bits[index]:
                rows[i] |= 1 << col
                rows[col] |= 1 << i
            index += 1
    if any(bits[index:]):
        raise Graph6Error("nonzero padding bits")
    return Graph._of(n, tuple(rows))


def to_graph6_str(g: Graph) -> str:
    return to_graph6(g).decode("ascii")


def iter_graph6_lines(lines):
    """Decode an iterable of graph6 text lines, skipping blank ones."""
    for line in lines:
        line = line.strip()
        if line:
            yield from_graph6(line)
