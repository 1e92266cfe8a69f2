"""Constructions: circulants, k-regular graphs with bounded components, and
the lower-bound witness graph for the star-wheel Ramsey problem.

The bounded-component construction follows a fixed case analysis on
n mod (2k+1) (k even) or n mod 2k (k odd), assembling disjoint unions of
small regular blocks; each remainder branch is exercised separately in the
tests since an off-by-one here silently breaks regularity.
"""

from __future__ import annotations

from .core import Graph, complete, empty_graph


def circulant(n: int, s: int) -> Graph:
    """Circulant graph: vertex i joined to i±1, ..., i±s (mod n).

    2s-regular and connected for s >= 1; edgeless for s = 0. Requires
    n >= 2s+1 so the 2s offsets hit distinct vertices.
    """
    if s < 0:
        raise ValueError(f"offset count must be >= 0, got {s}")
    if n <= 2 * s:
        raise ValueError(f"circulant needs n >= 2s+1 (n={n}, s={s})")
    rows = [0] * n
    for i in range(n):
        for off in range(1, s + 1):
            rows[i] |= 1 << ((i + off) % n)
            rows[i] |= 1 << ((i - off) % n)
    return Graph._of(n, tuple(rows))


def regular_small(k: int, n: int) -> Graph:
    """A k-regular graph on n vertices for k+1 <= n <= 2k+1.

    Even k: the circulant with s = k/2. Odd k (then n must be even): the
    complement of the (n-1-k)-regular circulant.
    """
    if not k + 1 <= n <= 2 * k + 1:
        raise ValueError(f"regular_small needs k+1 <= n <= 2k+1 (k={k}, n={n})")
    if k % 2 == 0:
        return circulant(n, k // 2)
    if n % 2 != 0:
        raise ValueError(f"k odd and n odd is impossible (k={k}, n={n})")
    return circulant(n, (n - 1 - k) // 2).complement()


def regular_bounded_components(k: int, n: int) -> Graph:
    """A k-regular graph on n vertices, every component of order <= 2k+1.

    Requires n >= k+1 and k or n even. Components appear in construction
    order: the large blocks first, then the order-(k+1) block, then the
    remainder block.
    """
    if n <= k:
        raise ValueError(f"regular graph needs n >= k+1 (k={k}, n={n})")
    if k % 2 == 1 and n % 2 == 1:
        raise ValueError(f"k and n are both odd (k={k}, n={n}); k or n must be even")
    if n <= 2 * k + 1:
        return regular_small(k, n)

    if k % 2 == 0:
        q, r = divmod(n, 2 * k + 1)
        if r == 0:
            orders = [2 * k + 1] * q
        elif r >= k + 1:
            orders = [2 * k + 1] * q + [r]
        else:
            # 1 <= r <= k: one big block is traded for k+1 and k+r
            orders = [2 * k + 1] * (q - 1) + [k + 1, k + r]
    else:
        q, r = divmod(n, 2 * k)
        # n even and 2qk even force r even
        if r == 0:
            orders = [2 * k] * q
        elif r >= k + 1:
            orders = [2 * k] * q + [r]
        else:
            # 2 <= r <= k-1: one big block is traded for k+1 and k+r-1
            orders = [2 * k] * (q - 1) + [k + 1, k + r - 1]

    g = empty_graph(0)
    for order in orders:
        g = g.disjoint_union(regular_small(k, order))
    return g


def theta(n: int, m: int) -> int:
    """Parity constant: 1 iff both n and m/2 are even, else 0."""
    if m % 2 != 0:
        raise ValueError(f"theta is defined for even m only, got m={m}")
    return 1 if n % 2 == 0 and (m // 2) % 2 == 0 else 0


def lower_bound_witness(n: int, m: int) -> Graph:
    """The good coloring of order 2n + m/2 - theta - 1 for even 6 <= m <= 2n-2.

    Built as complement(H) followed by a K_n block, where H is an
    (m/2-1)-regular graph of order n + m/2 - theta - 1 whose components
    have order at most m-1. The result has maximum degree n-1 (so no
    K_{1,n}) and a W_m-free complement.
    """
    if m % 2 != 0:
        raise ValueError(f"m must be even, got m={m}")
    if m < 6:
        raise ValueError(f"m >= 6 required, got m={m}")
    if m > 2 * n - 2:
        raise ValueError(f"m <= 2n-2 required (n={n}, m={m})")
    t = theta(n, m)
    degree = m // 2 - 1
    order = n + m // 2 - t - 1
    # the construction silently needs this parity; fail loudly if it ever breaks
    if degree % 2 == 1 and order % 2 == 1:
        raise AssertionError(f"odd degree {degree} on odd order {order} at (n={n}, m={m})")
    h = regular_bounded_components(degree, order)
    return h.complement().disjoint_union(complete(n))
