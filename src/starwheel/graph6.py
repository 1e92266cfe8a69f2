"""Bit-exact graph6 codec for graphs on at most 62 vertices (short form only).

Format: one byte n+63, then the upper-triangle adjacency bits in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian six bits per byte,
each byte offset by 63 and the last byte zero-padded. An optional leading
``>>graph6<<`` header is accepted on input and never emitted.

Both directions handle the whole stream at once, never one bit at a time.
Six bits of a big-endian stream are one base64 digit, so ``binascii``
packs them and ``bytes.translate`` maps the base64 alphabet to the bytes
63..126 and back. The encoder ORs each column's lower row into one int in
column order, the pair (0,1) at bit 0, and reverses its bit string once.
The decoder reverses the stream once, lays it out as an n x n block of
lower rows, and reads each upper row as a stride-n slice of the block.
"""

from __future__ import annotations

import binascii

from .core import Graph

_HEADER = b">>graph6<<"
MAX_ORDER = 62
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def to_graph6(g: Graph) -> bytes:
    n = g.n
    if n > MAX_ORDER:
        raise ValueError(f"graph6 short form supports at most {MAX_ORDER} vertices, got {n}")
    nbits = n * (n - 1) // 2
    stream = 0
    offset = 0
    for col, row in enumerate(g.rows):
        stream |= (row & ((1 << col) - 1)) << offset
        offset += col
    spare = -nbits % 24
    packed = int(format(stream, f"0{nbits}b")[::-1], 2) << spare
    digits = binascii.b2a_base64(packed.to_bytes((nbits + spare) // 8, "big"), newline=False)
    return bytes([n + 63]) + digits[: (nbits + 5) // 6].translate(_B64_TO_G6)


def from_graph6(data) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string")
    bad = data.translate(None, _G6)
    if bad:
        raise Graph6Error(f"byte {bad[0]} outside the graph6 range [63, 126]")
    n = data[0] - 63
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the short-form limit {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    body = data[1:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"expected {(nbits + 5) // 6} adjacency bytes for order {n}, got {len(body)}"
        )
    digits = body.translate(_G6_TO_B64)
    packed = binascii.a2b_base64(digits + b"A" * (-len(digits) % 4))
    spare = 8 * len(packed) - nbits
    value = int.from_bytes(packed, "big")
    if value & ((1 << spare) - 1):
        raise Graph6Error("nonzero padding bits")
    # the lower rows of columns n-1 down to 0, most significant bit first
    bits = format(value >> spare, f"0{nbits}b")[::-1]
    # an n x n block whose line k is the lower row of vertex n-1-k; the
    # block's stride-n column k is then that vertex's upper row
    flat = "".join([bits[nbits - col * (col + 1) // 2:nbits - col * (col - 1) // 2].rjust(n, "0")
                    for col in reversed(range(n))])
    rows = [int(flat[k:k * n:n] + flat[k * n + k:k * n + n], 2) for k in range(n)]
    return Graph._of(n, tuple(reversed(rows)))


def to_graph6_str(g: Graph) -> str:
    return to_graph6(g).decode("ascii")


def iter_graph6_lines(lines):
    """Decode an iterable of graph6 text lines, skipping blank ones."""
    for line in lines:
        line = line.strip()
        if line:
            yield from_graph6(line)
