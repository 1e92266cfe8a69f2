"""Workload inputs for the starwheel benchmark, made from the seed alone.

Importing this module imports starwheel; ``build`` then makes one
workload's inputs. The benchmark times exactly that, in a fresh
interpreter, as its set-up cost.
"""

from __future__ import annotations

import random

from starwheel.construct import theta
from starwheel.graph6 import MAX_ORDER

# (n, m) -> R(K_{1,n}, W_m), from the paper's table; the search must agree.
LADDER = {(4, 4): 9, (4, 5): 13, (4, 6): 11, (4, 7): 13, (3, 8): 11}
# Same shape as the R(K_{1,5}, W_8) frontier: n = 5, even m, a witness on
# the lower side and an exhaustive arrows-holds scan on the upper side.
FRONTIER = {(5, 6): 13}
SMOKE_LADDER = {(4, 4): 9, (3, 8): 11}
SMOKE_FRONTIER = {(4, 6): 11}
SMOKE_CERTIFY_CASES = 12

CERTIFY_BUDGET = 10**5

# The witness is complement(H) on vertices 0..h-1 followed by a K_n block.
# Each case gets one flipped copy; its pair lies across the two parts, inside
# H or inside K_n, in this fixed rotation over the cases. The seed picks the
# pair within its part. Drawing the part at random as well would change the
# share of budget-exhausting flips (mostly inside K_n) from seed to seed, and
# with it every timing.
PARTS = ("across", "inside_h", "across", "inside_k", "inside_h")


def witness_order(n: int, m: int) -> int:
    return 2 * n + m // 2 - theta(n, m) - 1


def certify_cases() -> list:
    """Every (n, m) with even 6 <= m <= 2n-2 whose witness fits graph6."""
    return [
        (n, m)
        for n in range(4, MAX_ORDER)
        for m in range(6, 2 * n - 1, 2)
        if witness_order(n, m) <= MAX_ORDER
    ]


def certify_instances(seed: int, smoke: bool = False) -> list:
    """(n, m, pair) triples: each witness as built (pair None) and one copy
    with the vertex pair ``pair`` flipped."""
    rng = random.Random(seed)
    cases = certify_cases()
    if smoke:
        cases = cases[:SMOKE_CERTIFY_CASES]
    out = []
    for i, (n, m) in enumerate(cases):
        order = witness_order(n, m)
        h = order - n
        part = PARTS[i % len(PARTS)]
        if part == "inside_h":
            u, v = rng.sample(range(h), 2)
        elif part == "inside_k":
            u, v = rng.sample(range(h, order), 2)
        else:
            u, v = rng.randrange(h), rng.randrange(h, order)
        out.append((n, m, None))
        out.append((n, m, (min(u, v), max(u, v))))
    return out


def build(workload: str, seed: int, smoke: bool = False):
    """The inputs of one workload: (n, m) -> expected R for the searches,
    the instance list for ``certify``."""
    if workload == "ladder":
        return dict(SMOKE_LADDER if smoke else LADDER)
    if workload == "frontier":
        return dict(SMOKE_FRONTIER if smoke else FRONTIER)
    if workload == "certify":
        return certify_instances(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
