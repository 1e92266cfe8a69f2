"""Per-layer tracing for the starwheel benchmark.

``Tracer.install`` replaces starwheel's public functions, at the names
their callers look them up by, with wrappers that count calls and measure
self time: a span's duration minus the spans opened inside it. Time spent
in the wrappers' own bookkeeping is charged to no layer. ``uninstall``
puts the originals back. Only serial runs are traced: the wrappers do not
reach into forked pool workers.

Counters that do not depend on the hardware are kept beside the times:
canonical survivors per level of each ``arrows`` scan, cycle-search nodes
(drawn from the ``Budget`` each search is given) and twin classes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from starwheel import _cycles, construct, core, detect, enumeration, graph6, ramsey


class Layer:
    __slots__ = ("calls", "failed", "self_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.layers = defaultdict(Layer)
        self.counts = Counter()
        # "n m order" of an arrows scan -> level -> count
        self.accepted = defaultdict(Counter)
        self.pruned = defaultdict(Counter)
        self._scan = None
        self._stack = []  # open spans: [name, seconds covered by child spans]
        self._saved = []

    # -- installing -------------------------------------------------------

    def install(self):
        wheel = self._span("ramsey.wheel", ramsey.contains_wheel, after=self._wheel_hit)
        witness = self._span("construct.witness", construct.lower_bound_witness)
        self._patch(enumeration, "is_canonical", self._span("enumeration.canon", enumeration.is_canonical, after=self._canon))
        self._patch(ramsey, "arrows", self._span("ramsey.arrows", ramsey.arrows, before=self._enter_scan))
        self._patch(ramsey, "_scan_task", self._span("ramsey.scan", ramsey._scan_task))
        self._patch(ramsey, "_wheel_prune", self._counting_prune(ramsey._wheel_prune))
        self._patch(ramsey, "contains_wheel", wheel)
        self._patch(ramsey, "contains_star", self._span("detect.star", ramsey.contains_star))
        self._patch(ramsey, "lower_bound_witness", witness)
        self._patch(construct, "lower_bound_witness", witness)
        self._patch(detect, "find_cycle_of_length", self._span(
            "cycles.find", detect.find_cycle_of_length, before=self._cycle_start, after=self._cycle_end))
        self._patch(core.Graph, "__init__", self._span("core.init", core.Graph.__init__))
        self._patch(core.Graph, "complement", self._span("core.complement", core.Graph.complement))
        self._patch(core.Graph, "induced_subgraph", self._span("core.induced_subgraph", core.Graph.induced_subgraph))
        self._patch(graph6, "to_graph6", self._span("graph6.encode", graph6.to_graph6, after=self._encoded))
        self._patch(graph6, "from_graph6", self._span("graph6.decode", graph6.from_graph6))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        layer = self.layers[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            state = before(args) if before else None
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                layer.calls += 1
                layer.self_s += elapsed - frame[1]
                if not ok:
                    layer.failed += 1
                if after:
                    after(args, result, state)
                if stack:
                    stack[-1][1] += perf_counter() - entered

        return wrapper

    def _counting_prune(self, make_prune):
        def wheel_prune(n, m, order, node_budget):
            prune = make_prune(n, m, order, node_budget)

            def counted(g):
                if prune(g):
                    self.pruned[self._scan][g.n] += 1
                    return True
                return False

            return counted

        return wheel_prune

    # -- hooks (their time is charged to no layer) --------------------------

    def _enter_scan(self, args):
        order, n, m = args[:3]
        self._scan = f"{n} {m} {order}"

    def _canon(self, args, accepted, state):
        if accepted:
            self.counts["enumeration.canon_accepted"] += 1
            self.accepted[self._scan][args[1]] += 1

    def _wheel_hit(self, args, witness, state):
        if witness is not None:
            self.counts["ramsey.wheel_hits"] += 1

    def _cycle_start(self, args):
        rows, n = args[0], args[1]
        budget = args[3] if len(args) > 3 else None
        self.counts["cycles.vertices"] += n
        self.counts["cycles.twin_classes"] += len(_cycles.twin_classes(rows, n))
        if self._stack and self._stack[-1][0] == "ramsey.wheel":
            self.counts["detect.wheel_hubs"] += 1
        return budget, None if budget is None else budget.remaining

    def _cycle_end(self, args, found, state):
        budget, remaining = state
        if budget is not None:
            self.counts["cycles.nodes"] += remaining - budget.remaining
        if found is not None:
            self.counts["cycles.found"] += 1

    def _encoded(self, args, data, state):
        if data is not None:
            self.counts["graph6.bytes"] += len(data)

    # -- results -------------------------------------------------------------

    def survivors(self) -> dict:
        """Canonical children kept (not pruned), per scan and level."""
        out = {}
        for scan in sorted(self.accepted):
            acc, pr = self.accepted[scan], self.pruned[scan]
            out[scan] = {str(level): acc[level] - pr[level] for level in sorted(acc)}
        return out

    def counters(self) -> dict:
        """Every count the run made; identical for identical inputs."""
        out = {f"{name}.calls": layer.calls for name, layer in sorted(self.layers.items())}
        out.update({f"{name}.failed": layer.failed for name, layer in sorted(self.layers.items())})
        out.update(sorted(self.counts.items()))
        out["survivors"] = self.survivors()
        return out

    def self_seconds(self) -> dict:
        return {name: layer.self_s for name, layer in self.layers.items()}
