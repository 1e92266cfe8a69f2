"""Independent oracles for the test suite.

Everything here is deliberately naive and separate from the library's own
algorithms: cycle queries enumerate vertex subsets and cyclic orders,
isomorphism is permutation search, and class counting marks whole orbits
of labeled graphs. The canonicity backtrack is kept in a per-vertex form,
which builds each unplaced vertex's word bit by bit, the cycle search
in a per-class form, which tests each candidate class bit by bit, and
again as it walked its quotient by class index, the through-vertex
walk with the 2-core peel and distance layers it once had, and the graph6
codec as it once packed and unpacked its stream one bit at a time.
"""

from itertools import combinations, permutations
import random

import numpy as np

from starwheel._cycles import Budget, SearchBudgetExceeded, blocks, twin_classes
from starwheel.core import Graph
from starwheel.graph6 import _HEADER, MAX_ORDER, Graph6Error


def naive_has_cycle(g: Graph, length: int) -> bool:
    rows = g.rows
    for subset in combinations(range(g.n), length):
        first = subset[0]
        for perm in permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue  # each cyclic order once per direction
            prev = first
            ok = True
            for v in perm:
                if not (rows[prev] >> v) & 1:
                    ok = False
                    break
                prev = v
            if ok and (rows[prev] >> first) & 1:
                return True
    return False


def naive_cycle_spectrum(g: Graph) -> set:
    return {length for length in range(3, g.n + 1) if naive_has_cycle(g, length)}


def naive_girth(g: Graph):
    spectrum = naive_cycle_spectrum(g)
    return min(spectrum) if spectrum else None


def naive_circumference(g: Graph):
    spectrum = naive_cycle_spectrum(g)
    return max(spectrum) if spectrum else None


def naive_contains_wheel(g: Graph, m: int) -> bool:
    for hub in range(g.n):
        nbrs = g.neighbors(hub)
        if len(nbrs) < m:
            continue
        if naive_has_cycle(g.induced_subgraph(nbrs), m):
            return True
    return False


def naive_wheel_through(g: Graph, v: int, m: int) -> bool:
    """Some W_m of g has v as its hub or on its rim."""
    for hub in range(g.n):
        nbrs = g.neighbors(hub)
        if hub != v and v not in nbrs:
            continue
        for rim in combinations(nbrs, m):
            if (hub == v or v in rim) and naive_has_cycle(g.induced_subgraph(rim), m):
                return True
    return False


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search; keep to n <= 8."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    for perm in permutations(range(a.n)):
        if a.relabel(perm) == b:
            return True
    return False


def reference_improvement(rows, n: int):
    """What ``enumeration._improvement`` answers, one vertex word at a time:
    None iff the labeling lex-maximizes the column-word tuple, else the
    position of each vertex (-1 if unplaced) in the first ordering prefix
    found, in the same backtrack order, whose words beat the labeling's.
    Each node fails at its lowest beating vertex, else tries its ties with
    the last vertex first and the rest ascending, one per twin class in
    that order. Twins (rows equal outside the pair) are found pairwise
    here."""
    if n <= 1:
        return None
    rep = [
        min(u for u in range(n) if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v))
        for v in range(n)
    ]
    pos = [-1] * n

    def attempt(depth, placed_mask, unplaced):
        # True = no ordering in this subtree beats the target labeling
        target = rows[depth] & ((1 << depth) - 1)
        tied = []
        for u in range(n):
            if not (unplaced >> u) & 1:
                continue
            w = 0
            for p in range(n):
                if (placed_mask >> p) & 1 and (rows[u] >> p) & 1:
                    w |= 1 << pos[p]
            if w > target:
                pos[u] = depth
                return False
            if w == target:
                tied.append(u)
        if depth == n - 1:
            return True
        ties = []
        seen = set()
        for u in sorted(tied, key=lambda u: u != n - 1):
            if rep[u] not in seen:
                # unplaced twins have equal words: one per class suffices
                seen.add(rep[u])
                ties.append(u)
        for u in ties:
            pos[u] = depth
            if not attempt(depth + 1, placed_mask | 1 << u, unplaced & ~(1 << u)):
                return False
            pos[u] = -1
        return True

    # position 0 carries no word: every vertex ties there
    return None if attempt(0, 0, (1 << n) - 1) else pos


def reference_find_cycle_of_length(rows, n: int, length: int, budget):
    """What ``_cycles.find_cycle_of_length`` answers, drawing the same nodes
    from ``budget``: the quotient walk that tests each adjacent class's
    multiplicity and BFS distance one bit at a time. Twin classes are
    found pairwise here, isolated vertices left out."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if length > n:
        return None
    by_rep = {}
    for v in range(n):
        if rows[v]:
            rep = min(u for u in range(n) if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v))
            by_rep.setdefault(rep, []).append(v)
    classes = list(by_rep.values())
    k = len(classes)
    reps = [ms[0] for ms in classes]
    qadj = [0] * k
    selfloop = [False] * k
    for i in range(k):
        members = classes[i]
        if len(members) >= 2 and (rows[members[0]] >> members[1]) & 1:
            selfloop[i] = True
        row = rows[reps[i]]
        for j in range(i + 1, k):
            if (row >> reps[j]) & 1:
                qadj[i] |= 1 << j
                qadj[j] |= 1 << i
    sizes = [len(ms) for ms in classes]
    half = length // 2

    for anchor in range(k):
        geq = ~((1 << anchor) - 1)
        # component of the anchor among classes >= anchor, with BFS distances
        dist = [float("inf")] * k
        dist[anchor] = 0
        frontier = [anchor]
        allowed = 1 << anchor
        d = 0
        while frontier:
            d += 1
            nxt = []
            for c in frontier:
                reach = qadj[c] & geq & ~allowed
                allowed |= reach
                m = reach
                while m:
                    low = m & -m
                    c2 = low.bit_length() - 1
                    dist[c2] = d
                    nxt.append(c2)
                    m ^= low
            frontier = nxt

        capacity = 0
        total = 0
        m = allowed
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            capacity += sizes[c] if selfloop[c] else min(sizes[c], half)
            total += sizes[c]
        if capacity < length:
            continue

        budgets = sizes[:]
        budgets[anchor] -= 1
        path = [anchor]
        total -= 1

        def dfs(c, t, total):
            budget.remaining -= 1
            if budget.remaining < 0:
                raise SearchBudgetExceeded(
                    f"cycle search exceeded its node budget (length {length})"
                )
            if t == length:
                return bool((qadj[c] >> anchor) & 1) or (c == anchor and selfloop[c])
            remaining = length - t
            if total < remaining:
                return False
            cand = qadj[c] & allowed
            if selfloop[c]:
                cand |= 1 << c
            m = cand
            while m:
                low = m & -m
                nxt = low.bit_length() - 1
                m ^= low
                if budgets[nxt] == 0 or dist[nxt] > remaining:
                    continue
                budgets[nxt] -= 1
                path.append(nxt)
                if dfs(nxt, t + 1, total - 1):
                    return True
                path.pop()
                budgets[nxt] += 1
            return False

        if dfs(anchor, 1, total):
            members = [iter(ms) for ms in classes]
            return tuple(next(members[c]) for c in path)
    return None


def _indexed_quotient(rows, classes):
    """Class adjacency masks over class indices, with its own bit for a
    class of adjacent twins."""
    k = len(classes)
    reps = [ms[0] for ms in classes]
    step = [0] * k
    for i in range(k):
        members = classes[i]
        if len(members) >= 2 and (rows[members[0]] >> members[1]) & 1:
            step[i] |= 1 << i
        row = rows[reps[i]]
        for j in range(i + 1, k):
            if (row >> reps[j]) & 1:
                step[i] |= 1 << j
                step[j] |= 1 << i
    return step


def _indexed_separator_weights(rows, classes, step, length):
    """The separator bound's set-up over class indices: None when it rules
    out every cycle of ``length``, else each class index's weight, +1 in
    U0, -1 in T, 0 elsewhere."""
    k = len(classes)
    weight = [0] * k
    u0 = None
    for c in range(k):
        if len(classes[c]) >= 2 and not (step[c] >> c) & 1:
            if u0 is None or len(classes[c]) > len(classes[u0]):
                u0 = c
    if u0 is None:
        return weight
    weight[u0] = 1
    tverts = rest = 0
    for c in range(k):
        mask = sum(1 << v for v in classes[c])
        if (step[u0] >> c) & 1:
            weight[c] = -1
            tverts |= mask
        else:
            rest |= mask
    sizes = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            layer = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                layer |= rows[low.bit_length() - 1]
            frontier = layer & rest & ~comp
            comp |= frontier
        rest ^= comp
        sizes.append(comp.bit_count())
    t = tverts.bit_count()
    sizes.sort(reverse=True)
    return None if t + sum(sizes[:t]) < length else weight


def reference_indexed_find_cycle_of_length(rows, n: int, length: int, budget: Budget | None = None):
    """``_cycles.find_cycle_of_length`` as it was when it walked the twin
    quotient by class index: ``twin_classes`` lists the classes, the
    quotient is built pair by pair, and every mask of the walk is over
    class indices. The same answers and the same nodes drawn from
    ``budget`` as the walk over representatives' vertex masks."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if length > n:
        return None
    if budget is None:
        budget = Budget()

    classes = twin_classes(rows, n)
    step = _indexed_quotient(rows, classes)
    k = len(classes)
    sizes = [len(ms) for ms in classes]
    half = length // 2
    weight = None  # per class: +1 in U0, -1 in T, else 0 (see _indexed_separator_weights)
    dead = 0  # classes inside the reach of an anchor that failed capacity: they fail too

    for anchor in range(k):
        if (dead >> anchor) & 1:
            continue
        # within[r]: the classes >= anchor at BFS distance <= r from it
        geq = -1 << anchor
        reach = frontier = 1 << anchor
        within = [reach]
        while frontier:
            layer = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                layer |= step[low.bit_length() - 1]
            frontier = layer & geq & ~reach
            reach |= frontier
            within.append(reach)

        capacity = 0
        m = reach
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            capacity += sizes[c] if (step[c] >> c) & 1 else min(sizes[c], half)
        if capacity < length:
            dead |= reach
            continue
        within += [reach] * (length - len(within))
        if weight is None:
            if max((b.bit_count() for b in blocks(rows, n)[0]), default=0) < length:
                return None
            weight = _indexed_separator_weights(rows, classes, step, length)
            if weight is None:
                return None

        # slack: how many of reach's vertices the cycle leaves out; excess:
        # U0's vertices left minus T's. A path from c back to the anchor
        # takes at most t + [c and anchor both in T] of U0's u vertices, so
        # the steps left need excess <= slack + [c and anchor both in T].
        slack = -length
        excess = 0
        m = reach
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            slack += sizes[c]
            excess += weight[c] * sizes[c]
        excess -= weight[anchor]
        limit = slack + (weight[anchor] < 0)
        budgets = sizes[:]
        budgets[anchor] -= 1
        path = []  # filled in reverse as a found cycle unwinds

        def dfs(c, remaining, avail, excess):
            # avail: classes with multiplicity left; remaining: steps to close
            budget.remaining -= 1
            if budget.remaining < 0:
                raise SearchBudgetExceeded(
                    f"cycle search exceeded its node budget (length {length})"
                )
            if not remaining:
                return (step[c] >> anchor) & 1
            if excess > (limit if weight[c] < 0 else slack):
                return False
            cand = step[c] & avail & within[remaining]
            while cand:
                low = cand & -cand
                cand ^= low
                nxt = low.bit_length() - 1
                budgets[nxt] -= 1
                if dfs(nxt, remaining - 1, avail if budgets[nxt] else avail ^ low, excess - weight[nxt]):
                    path.append(nxt)
                    return True
                budgets[nxt] += 1
            return False

        if dfs(anchor, length - 1, -1 if budgets[anchor] else ~(1 << anchor), excess):
            members = [iter(ms) for ms in classes]
            return tuple(next(members[c]) for c in [anchor] + path[::-1])
    return None


def reference_find_cycle_through(rows, v: int, allowed: int, length: int, budget):
    """What ``_cycles.complement_cycle_through`` answers when handed the
    complement of ``rows``: the same walk from v, though it closes each
    cycle in one direction only, on the 2-core of ``allowed`` and only to
    vertices whose BFS distance back to v fits the steps left. Both
    prunings cut only branches that cannot close a cycle, and the first
    cycle met closes in that direction anyway, so it is the same. Its nodes
    are not comparable with the walk's: it may answer None before drawing
    from ``budget`` where the walk does not, but each of its calls draws a
    node, the last two steps' included, where the walk closes them in one.
    """
    while True:
        core = allowed
        m = allowed
        while m:
            low = m & -m
            m ^= low
            if (rows[low.bit_length() - 1] & allowed).bit_count() < 2:
                core ^= low
        if core == allowed:
            break
        allowed = core
    if not (allowed >> v) & 1:
        return None
    # near[d]: vertices within distance d of v, for d = 0 .. length - 1
    reach = frontier = 1 << v
    near = [reach]
    while len(near) < length:
        layer = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            layer |= rows[low.bit_length() - 1]
        frontier = layer & allowed & ~reach
        reach |= frontier
        near.append(reach)
    if reach.bit_count() < length:
        return None
    ends = near[1] & ~near[0]
    path = [v]

    def dfs(c, used, t):
        # t vertices on the path, c the last; a vertex added now must be
        # within length - t steps of v to close the cycle in time
        budget.remaining -= 1
        if budget.remaining < 0:
            raise SearchBudgetExceeded(f"cycle search exceeded its node budget (length {length})")
        if t == length - 1:
            cand = rows[c] & ends & ~used & ~((2 << path[1]) - 1)
        else:
            cand = rows[c] & near[length - t] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            path.append(u)
            if t + 1 == length or dfs(u, used | low, t + 1):
                return True
            path.pop()
        return False

    return tuple(path) if dfs(v, 1 << v, 1) else None


def _pair_index(n):
    pairs = list(combinations(range(n), 2))
    return pairs, {p: i for i, p in enumerate(pairs)}


def graph_code(g: Graph) -> int:
    pairs, _ = _pair_index(g.n)
    code = 0
    for b, (i, j) in enumerate(pairs):
        if g.has_edge(i, j):
            code |= 1 << b
    return code


def code_to_graph(code: int, n: int) -> Graph:
    pairs, _ = _pair_index(n)
    rows = [0] * n
    for b, (i, j) in enumerate(pairs):
        if (code >> b) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows)


def labeled_class_representatives(n: int, dmax=None):
    """One labeled representative per isomorphism class, by orbit marking.

    Walks all 2^C(n,2) labeled graphs in numeric order; each unseen code
    starts a class and its whole permutation orbit is marked. Feasible for
    n <= 7 (the n = 7 orbit marking is vectorised with numpy).
    """
    pairs, pidx = _pair_index(n)
    nbits = len(pairs)
    perms = list(permutations(range(n)))
    # bit b of the relabeled code comes from bit posmap[p][b] of the original
    posmap = np.zeros((len(perms), max(nbits, 1)), dtype=np.int64)
    for ip, perm in enumerate(perms):
        for b, (i, j) in enumerate(pairs):
            a, c = perm[i], perm[j]
            if a > c:
                a, c = c, a
            posmap[ip][pidx[(a, c)]] = b
    weights = 1 << np.arange(max(nbits, 1), dtype=np.int64)
    seen = np.zeros(1 << nbits, dtype=bool)
    reps = []
    for code in range(1 << nbits):
        if seen[code]:
            continue
        bits = (code >> np.arange(max(nbits, 1), dtype=np.int64)) & 1
        orbit = (bits[posmap] * weights).sum(axis=1)
        seen[orbit] = True
        g = code_to_graph(code, n)
        if dmax is None or all(g.degree(v) <= dmax for v in range(n)):
            reps.append(g)
    return reps


def random_graph(rng: random.Random, n: int, p: float = None) -> Graph:
    if p is None:
        p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def random_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def reference_to_graph6(g: Graph) -> bytes:
    """``graph6.to_graph6`` as it shifted in one adjacency bit at a time."""
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


def reference_from_graph6(data) -> Graph:
    """``graph6.from_graph6`` as it unpacked a list with one entry per bit."""
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
