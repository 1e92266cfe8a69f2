"""The starwheel benchmark: one command, three workloads, every answer checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process and one client, and the next
call starts only after the previous one returns. A pass calls every
operation of the workload once; passes repeat until ``--seconds`` would be
exceeded (at least one pass runs).

  ladder    compute_ramsey(n, m, workers=1) on (4,4), (4,5), (4,6), (4,7)
            and (3,8): many short scans.
  frontier  compute_ramsey(5, 6, workers=1): a witness at order 12 and an
            exhaustive arrows-holds scan at order 13.
  certify   construct --witness | certify for the 257 cases with even
            6 <= m <= 2n-2 and witness order <= 62, each witness as built
            and once with a vertex pair flipped (the seed picks the pairs):
            lower_bound_witness, to_graph6, from_graph6, then
            is_good_coloring(node_budget=10**5).

Every workload runs serially. With workers=2, compute_ramsey's fork pool
hangs in Pool.terminate on a few calls in a thousand, at random; a run
could not count those failures steadily.

Each pass runs in a child forked from this process, which has imported
everything already. A call that does not return within the workload's
deadline is a failed operation: the child and any processes it started
are killed and the run goes on.

With ``--trace 0`` the run measures end to end. On a shared virtual
machine with 2 vCPUs the speed of a vCPU drifts by 20% and more within
seconds, and the two drift apart, so every time is scaled to a reference
speed: a pass runs under SpeedProbe, which times a fixed reference loop in
the same thread every 50 ms, and each call's time is multiplied by the
loop's nominal time over the median of the samples taken during the call
(or, for a short call, the nine nearest to it). The unscaled medians are
printed beside them. With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics (see
tracer.py) and the tracing overhead, unscaled.

Every answer is checked outside the timed region: search results against
the paper's values, extremal graphs with is_good_coloring, star and wheel
witnesses by validation, and the deterministic counters (search reports,
survivors per level, certify verdicts) against record.json. A wrong answer
exits 1. A call that hangs is a failed operation, not a wrong answer.
``certify`` gives is_good_coloring a node budget, and SearchBudgetExceeded
is that call's specified answer when the budget runs out: the verdict
"exhausted", the same on every run of a seed and checked against the
record like the others. It is not a failed operation; the line
``error_rate`` counts exhausted and hung calls together.

The lines before the last describe the run; the last line of stdout is a
JSON object with the keys correct, attempted, failed and metrics.
``--smoke`` shrinks every workload. ``--write-record`` adds this run's
counters to record.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORD = os.path.join(HERE, "record.json")
WORKLOADS = ("ladder", "frontier", "certify")
SETUP_REPEATS = 11
TAIL_BEYOND = 10
# The speed probe: every PROBE_PERIOD seconds of a pass, a timer signal runs
# REF_LOOP iterations of a fixed pure-Python loop in the measured thread.
# REF_S is the loop's nominal time; reported times are scaled to that speed.
PROBE_PERIOD = 0.05
REF_LOOP = 6000
REF_S = 0.0005
PROBE_MIN_SAMPLES = 9
# seconds one call may take before it counts as hung: far above the slowest
# call seen (ladder 0.8 s, certify 0.3 s, frontier 30 s traced)
DEADLINE = {"ladder": 5.0, "certify": 10.0, "frontier": 120.0}
# Passes run in forked children: they inherit the imported modules and the
# workload's closures, and this process starts no threads that fork could copy.
FORK = multiprocessing.get_context("fork")


def parse_args(argv):
    p = argparse.ArgumentParser(description="starwheel benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink the workload")
    p.add_argument("--write-record", action="store_true", help="add this run's counters to record.json")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.smoke and args.write_record:
        p.error("--write-record records full workloads only")
    return args


def import_starwheel():
    """Import starwheel from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "starwheel", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import starwheel

    if os.path.dirname(os.path.dirname(os.path.abspath(starwheel.__file__))) != SRC:
        return None
    return starwheel


# -- environment -------------------------------------------------------------


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class StartMethods:
    """Records the start method of every multiprocessing context requested
    while active: the pool's, whatever the library asks for."""

    def __init__(self):
        self.used = set()
        self._real = multiprocessing.get_context

    def __enter__(self):
        def get_context(method=None):
            ctx = self._real(method)
            self.used.add(ctx.get_start_method())
            return ctx

        multiprocessing.get_context = get_context
        return self

    def __exit__(self, *exc):
        multiprocessing.get_context = self._real


# -- measuring ----------------------------------------------------------------


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def ref_loop() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    start = perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


class SpeedProbe:
    """Samples the speed of the CPU the measured thread runs on: a timer
    signal runs the reference loop in that thread, between the program's own
    steps, every PROBE_PERIOD seconds. ``stolen`` is the wall time spent in
    the handler, which the caller subtracts from what it measured."""

    def __init__(self):
        self.samples = []  # (when, seconds the reference loop took)
        self.stolen = 0.0
        self._old = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, ref_loop()))
        self.stolen += perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < PROBE_MIN_SAMPLES:  # a pass shorter than a few periods
            self.samples.append((perf_counter(), ref_loop()))

    def factor(self, start: float, end: float) -> float:
        """Multiplier that scales a time measured from ``start`` to ``end``
        to the reference speed: from the samples taken in that interval, or
        if there are too few, the PROBE_MIN_SAMPLES nearest to its middle."""
        near = [d for when, d in self.samples if start <= when <= end]
        if len(near) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:PROBE_MIN_SAMPLES]]
        return REF_S / statistics.median(near)


def measure_setup(workload: str, seed: int, smoke: bool) -> tuple:
    """(times, raw times) of fresh interpreters that import starwheel and
    build the workload's inputs. Each time is scaled to the reference speed
    by the reference loop run just before and just after it."""
    code = (
        f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import inputs; "
        f"inputs.build({workload!r}, {seed}, {smoke})"
    )
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        refs = [ref_loop() for _ in range(PROBE_MIN_SAMPLES)]
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - start)
        refs += [ref_loop() for _ in range(PROBE_MIN_SAMPLES)]
        times.append(raw[-1] * REF_S / statistics.median(refs))
    return times, raw


def _pass_in_child(bench, traced, record, conn):
    """Child side of a pass: stream (key, seconds, exhausted) per call, then a
    summary with the checks and counters, made outside the timed region.

    An untraced pass runs under the speed probe; its times exclude the
    probe's own and are raw, the summary's ``factor`` scales them. A traced
    pass runs without it, so that no layer is charged for the probe."""
    os.setpgrp()  # the parent kills the whole group, pool workers included
    budget_error = bench.sw.SearchBudgetExceeded
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
    probe = None if traced else SpeedProbe()
    samples = []
    spans = []
    with StartMethods() as methods:
        if tracer:
            tracer.install()
        try:
            gc.collect()
            if probe:
                probe.__enter__()
            cpu = cpu_seconds()
            start = perf_counter()
            for key, op in bench.ops():
                stolen = probe.stolen if probe else 0.0
                t = perf_counter()
                try:
                    outcome = op()
                except budget_error as exc:
                    outcome = exc
                spans.append((t, perf_counter()))
                seconds = spans[-1][1] - t - ((probe.stolen - stolen) if probe else 0.0)
                samples.append((key, seconds, outcome))
                conn.send((key, seconds, isinstance(outcome, budget_error)))
            wall = perf_counter() - start
            cpu = cpu_seconds() - cpu
            if probe:
                wall -= probe.stolen
                cpu -= probe.stolen  # the reference loop is pure computation
        finally:
            if probe:
                probe.__exit__()
            if tracer:
                tracer.uninstall()
    counters = bench.counters(samples)
    # each call's time is scaled by its own factor; the pass's wall and CPU
    # time by the mean of those, weighted by time
    factors = [probe.factor(*span) if probe else 1.0 for span in spans]
    busy = sum(seconds for _, seconds, _ in samples)
    conn.send({
        "wall": wall,
        "cpu": cpu,
        "factors": factors,
        "factor": sum(f * seconds for f, (_, seconds, _) in zip(factors, samples)) / busy if busy else 1.0,
        "errors": bench.check(samples, record),
        "counters": counters,
        "traced": {**tracer.counters(), "enumerated": counters.get("enumerated", 0)} if tracer else None,
        "self_s": tracer.self_seconds() if tracer else None,
        "start_methods": sorted(methods.used),
    })
    conn.close()


def _kill_group(child):
    """Kill a pass's child and every process in its group, and wait for them."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.join()
    for _ in range(50):  # the pool workers, orphaned now, are reaped by init
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


class Pass:
    """One pass, every operation called once in order, in a forked child.

    ``samples`` holds (key, seconds, exhausted) per call that returned or
    raised; ``summary`` is None when a call hung (its key is ``hung``) or
    the child died."""

    def __init__(self, bench, traced, record, deadline):
        self.traced = traced
        self.samples = []
        self.summary = None
        self.hung = None
        recv, send = FORK.Pipe(duplex=False)
        child = FORK.Process(target=_pass_in_child, args=(bench, traced, record, send))
        child.start()
        send.close()
        keys = [key for key, _ in bench.ops()]
        try:
            while self.summary is None:
                if not recv.poll(deadline):
                    self.hung = keys[len(self.samples)] if len(self.samples) < len(keys) else "checks"
                    break
                msg = recv.recv()
                if isinstance(msg, dict):
                    self.summary = msg
                else:
                    self.samples.append(msg)
        except EOFError:
            pass
        finally:
            recv.close()
            if self.summary is None:
                _kill_group(child)
            child.join()


def tail(latencies):
    """(label, value, samples beyond): the highest whole percentile with at
    least TAIL_BEYOND samples beyond it (nearest rank), else the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return f"p{p}", xs[rank - 1], n - rank
    return "max", xs[-1], 0


# -- workloads ----------------------------------------------------------------


class Search:
    """ladder and frontier: compute_ramsey on fixed (n, m) cases, serially."""

    def __init__(self, sw, expected):
        self.sw = sw
        self.expected = expected

    def ops(self):
        ramsey = self.sw.ramsey
        return [((n, m), lambda n=n, m=m: ramsey.compute_ramsey(n, m, workers=1)) for n, m in self.expected]

    def check(self, samples, record) -> list:
        errors = []
        for (n, m), _, result in samples:
            if isinstance(result, Exception):
                continue
            want = self.expected[(n, m)]
            if result.ramsey_number != want:
                errors.append(f"R({n},{m}) = {result.ramsey_number}, expected {want}")
                continue
            g = result.extremal
            if g is None or g.n != want - 1 or not self.sw.is_good_coloring(g, n, m):
                errors.append(f"R({n},{m}): extremal graph is not a good coloring of order {want - 1}")
            lines = [r.to_line() for r in result.reports]
            recorded = record.get("reports", {}).get(f"{n} {m}")
            if recorded is not None and lines != recorded:
                errors.append(f"R({n},{m}): reports {lines} differ from record {recorded}")
        return errors

    def counters(self, samples) -> dict:
        done = [((n, m), r) for (n, m), _, r in samples if not isinstance(r, Exception)]
        return {
            "reports": {f"{n} {m}": [rep.to_line() for rep in r.reports] for (n, m), r in done},
            "enumerated": sum(r.enumerated for _, r in done),
        }


def flip_pair(data: bytes, u: int, v: int) -> bytes:
    """graph6 bytes with the adjacency of u < v toggled."""
    index = v * (v - 1) // 2 + u
    out = bytearray(data)
    k = 1 + index // 6
    out[k] = ((out[k] - 63) ^ (1 << (5 - index % 6))) + 63
    return bytes(out)


def instance_key(n, m, pair) -> str:
    return f"{n} {m}" if pair is None else f"{n} {m} {pair[0]} {pair[1]}"


class Certify:
    """construct --witness | certify, on every witness and a flipped copy."""

    def __init__(self, sw, instances, budget):
        self.sw = sw
        self.instances = instances
        self.budget = budget

    def ops(self):
        return [((n, m, pair), lambda n=n, m=m, pair=pair: self.certify(n, m, pair)) for n, m, pair in self.instances]

    def certify(self, n, m, pair):
        sw = self.sw
        data = sw.graph6.to_graph6(sw.construct.lower_bound_witness(n, m))
        if pair is not None:
            data = flip_pair(data, *pair)
        g = sw.graph6.from_graph6(data)
        return g, sw.ramsey.is_good_coloring(g, n, m, node_budget=self.budget)

    def verdict(self, outcome) -> str:
        if isinstance(outcome, self.sw.SearchBudgetExceeded):
            return "exhausted"
        _, goodness = outcome
        if goodness:
            return "good"
        return "star" if isinstance(goodness.violation, self.sw.StarWitness) else "wheel"

    def check(self, samples, record) -> list:
        errors = []
        recorded = record.get("verdicts", {})
        for (n, m, pair), _, outcome in samples:
            key = instance_key(n, m, pair)
            verdict = self.verdict(outcome)
            if pair is None and verdict != "good":
                errors.append(f"witness {key} certified {verdict}, expected good")
            if verdict == "star":
                g, goodness = outcome
                if not goodness.violation.validate(g, n):
                    errors.append(f"{key}: invalid star witness {goodness.violation}")
            elif verdict == "wheel":
                g, goodness = outcome
                if not goodness.violation.validate(g.complement(), m):
                    errors.append(f"{key}: invalid wheel witness {goodness.violation}")
            was = recorded.get(key)
            if was not in (None, "exhausted", verdict):
                errors.append(f"{key}: verdict {verdict}, recorded {was}")
        return errors

    def counters(self, samples) -> dict:
        verdicts = {instance_key(*key): self.verdict(outcome) for key, _, outcome in samples}
        return {"verdicts": verdicts, "tally": dict(sorted(Counter(verdicts.values()).items()))}


# -- per-layer metrics ----------------------------------------------------------


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(c: dict, s: dict) -> dict:
    """per_layer metric -> (value, unit), from one traced pass's counters
    ``c`` and the median self seconds ``s`` of each span."""

    def calls(span):
        return c.get(f"{span}.calls", 0)

    accepted = c.get("enumeration.canon_accepted", 0)
    hits = c.get("ramsey.wheel_hits", 0)
    return {
        "enumeration.canon_calls": (calls("enumeration.canon"), "count"),
        "enumeration.canon_accepted": (accepted, "count"),
        "enumeration.canon_accept_ratio": (_ratio(accepted, calls("enumeration.canon")), "ratio"),
        "enumeration.canon_self_s": (s["enumeration.canon"], "s"),
        "enumeration.survivors": (sum(sum(lv.values()) for lv in c["survivors"].values()), "count"),
        "ramsey.wheel_tests": (calls("ramsey.wheel"), "count"),
        "ramsey.wheel_hits": (hits, "count"),
        "ramsey.wheel_hit_ratio": (_ratio(hits, calls("ramsey.wheel")), "ratio"),
        "ramsey.wheel_self_s": (s["ramsey.wheel"], "s"),
        "ramsey.arrows_calls": (calls("ramsey.arrows"), "count"),
        "ramsey.roots": (calls("ramsey.scan"), "count"),
        "ramsey.enumerated": (c.get("enumerated", 0), "count"),
        "ramsey.scan_self_s": (s["ramsey.arrows"] + s["ramsey.scan"], "s"),
        "detect.star_calls": (calls("detect.star"), "count"),
        "detect.star_self_s": (s["detect.star"], "s"),
        "detect.wheel_hubs": (c.get("detect.wheel_hubs", 0), "count"),
        "cycles.find_calls": (calls("cycles.find"), "count"),
        "cycles.find_self_s": (s["cycles.find"], "s"),
        "cycles.found_ratio": (_ratio(c.get("cycles.found", 0), calls("cycles.find")), "ratio"),
        "cycles.nodes": (c.get("cycles.nodes", 0), "count"),
        "cycles.twin_ratio": (_ratio(c.get("cycles.twin_classes", 0), c.get("cycles.vertices", 0)), "ratio"),
        "cycles.budget_exhausted": (c.get("cycles.find.failed", 0), "count"),
        "core.graph_inits": (calls("core.init"), "count"),
        "core.graph_init_self_s": (s["core.init"], "s"),
        "core.complement_calls": (calls("core.complement"), "count"),
        "core.complement_self_s": (s["core.complement"], "s"),
        "core.induced_subgraph_calls": (calls("core.induced_subgraph"), "count"),
        "core.induced_subgraph_self_s": (s["core.induced_subgraph"], "s"),
        "graph6.encode_self_s": (s["graph6.encode"], "s"),
        "graph6.decode_self_s": (s["graph6.decode"], "s"),
        "graph6.bytes": (c.get("graph6.bytes", 0), "bytes"),
        "construct.witness_calls": (calls("construct.witness"), "count"),
        "construct.witness_self_s": (s["construct.witness"], "s"),
    }


# -- the run ---------------------------------------------------------------------


def load_record() -> dict:
    try:
        with open(RECORD) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def write_record(record: dict, workload: str, seed: int, counters: dict, traced: dict | None, shares: dict | None):
    record.setdefault("reports", {}).update(counters.get("reports", {}))
    record.setdefault("verdicts", {}).update(counters.get("verdicts", {}))
    if traced is not None:
        record.setdefault("survivors", {}).update(traced["survivors"])
        record.setdefault("cycles_nodes", {})[nodes_key(workload, seed)] = traced.get("cycles.nodes", 0)
        record.setdefault("shares", {})[workload] = shares
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=0, sort_keys=True)
        f.write("\n")


def nodes_key(workload: str, seed: int) -> str:
    """cycles.nodes depends on the seed only through certify's flips."""
    return f"certify {seed}" if workload == "certify" else workload


def check_traced(record: dict, workload: str, seed: int, smoke: bool, traced: dict) -> tuple:
    """(errors, notes) for a traced pass's counters against the record."""
    errors, notes = [], []
    recorded = record.get("survivors", {})
    for scan, levels in traced["survivors"].items():
        want = recorded.get(scan)
        if want is None:
            notes.append(f"survivors {scan}: not in the record")
        elif levels != want:
            errors.append(f"survivors {scan}: {levels} differ from record {want}")
    nodes = record.get("cycles_nodes", {}).get(nodes_key(workload, seed))
    if nodes is not None and not smoke:
        notes.append(f"cycles.nodes {traced.get('cycles.nodes', 0)} (record {nodes})")
    return errors, notes


def emit(line: str):
    print(line, flush=True)


def end_to_end(setup: tuple, passes: list) -> dict:
    """The end-to-end metrics, every time scaled to the reference speed by
    the factors its pass measured (the calls of a pass that hung have none
    and take the median factor of the other passes)."""
    plain = [p.summary for p in passes if p.summary]
    factors = [s["factor"] for s in plain]
    fallback = statistics.median(factors)
    latencies = []
    for p in passes:
        scale = p.summary["factors"] if p.summary else [fallback] * len(p.samples)
        latencies += [seconds * f for (_, seconds, _), f in zip(p.samples, scale)]
    label, tail_s, beyond = tail(latencies)
    setup_s, setup_raw = setup
    emit(f"# setup_s: median of {len(setup_s)} fresh interpreters; "
         f"solve_s, cpu_s: median of {len(plain)} complete passes")
    emit(f"# latency over {len(latencies)} calls that returned or raised: p50, and {label} with {beyond} beyond it")
    emit(f"# times are scaled to the reference speed; speed factors {min(factors):.3f}..{max(factors):.3f}, "
         f"unscaled medians setup_s {statistics.median(setup_raw):.6g} solve_s "
         f"{statistics.median(s['wall'] for s in plain):.6g}")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (statistics.median(s["wall"] * s["factor"] for s in plain), "s"),
        "cpu_s": (statistics.median(s["cpu"] * s["factor"] for s in plain), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(plain: list, traced: list) -> tuple:
    """(metrics, shares of traced wall time by layer)."""
    traced_wall = statistics.median(s["wall"] for s in traced)
    plain_wall = statistics.median(s["wall"] for s in plain)
    selfs = {name: statistics.median(s["self_s"][name] for s in traced) for name in traced[0]["self_s"]}
    metrics = layer_metrics(traced[0]["traced"], selfs)
    metrics["trace.solve_s"] = (traced_wall, "s")
    metrics["trace.untraced_solve_s"] = (plain_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    shares = {name: round(v / traced_wall, 4) for name, (v, _) in metrics.items() if name.endswith("self_s")}
    emit(f"# traced run: {len(traced)} traced and {len(plain)} untraced serial passes")
    for scan, levels in traced[0]["traced"]["survivors"].items():
        emit(f"# survivors {scan}: " + " ".join(f"{lv}:{k}" for lv, k in levels.items()))
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        emit(f"# share of traced wall {name} {share:.1%}")
    return metrics, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    sw = import_starwheel()
    if sw is None:
        print(f"perfbench: no starwheel package in {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    import inputs

    cores = nproc()
    record = load_record()
    data = inputs.build(args.workload, args.seed, args.smoke)
    if args.workload == "certify":
        bench = Certify(sw, data, inputs.CERTIFY_BUDGET)
    else:
        bench = Search(sw, data)

    emit(f"# starwheel benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} smoke={int(args.smoke)} operations/pass={len(data)}")
    setup = None if args.trace else measure_setup(args.workload, args.seed, args.smoke)

    deadline = DEADLINE[args.workload]
    passes = []
    start = perf_counter()
    while True:
        step = perf_counter()
        for traced in (False, True) if args.trace else (False,):
            passes.append(Pass(bench, traced, record, deadline))
        step = perf_counter() - step
        if perf_counter() - start + step > args.seconds:
            break

    plain = [p.summary for p in passes if p.summary and not p.traced]
    traced = [p.summary for p in passes if p.summary and p.traced]
    errors = [e for s in plain + traced for e in s["errors"]]
    errors += [f"a pass ended without a result after {len(p.samples)} calls"
               for p in passes if p.summary is None and p.hung is None]
    samples = [s for p in passes for s in p.samples]
    hung = [p.hung for p in passes if p.hung is not None]
    attempted = len(samples) + len(hung)
    failed = len(hung)
    exhausted = sum(e for _, _, e in samples)
    methods = ",".join(sorted({m for s in plain + traced for m in s["start_methods"]}))

    emit(f"# env python={sys.implementation.name} {sys.version.split()[0]} nproc={cores} git={git_sha()} "
         f"start_method={methods or 'none (no pool; default ' + multiprocessing.get_start_method() + ')'}")
    for key in hung:
        emit(f"# hung: call {key} did not return within {deadline:g} s; its pass was killed")
    if not plain or (args.trace and not traced):
        for error in errors + ["no pass completed"]:
            print(f"perfbench: WRONG: {error}", file=sys.stderr)
        return 1
    counters = plain[0]["counters"]
    if any(s["counters"] != counters for s in plain + traced):
        errors.append("results differ between passes of the same inputs")

    notes = []
    traced_counters = shares = None
    if args.trace:
        traced_counters = traced[0]["traced"]
        if any(s["traced"] != traced_counters for s in traced):
            errors.append("traced counters differ between passes of the same inputs")
        more, notes = check_traced(record, args.workload, args.seed, args.smoke, traced_counters)
        errors += more
        metrics, shares = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup, passes)
    for name, (value, unit) in metrics.items():
        emit(f"{name} {value:.6g} {unit}")
    emit(f"error_rate {(exhausted + failed) / attempted:.6g} ratio  "
         f"# of {attempted} calls, {exhausted} exhausted their node budget and {failed} hung")
    for case, lines in counters.get("reports", {}).items():
        emit(f"# reports {case}: " + " | ".join(lines))
    if "tally" in counters:
        emit("# verdicts " + " ".join(f"{k}:{v}" for k, v in counters["tally"].items()) + " (one pass)")
    for note in notes:
        emit(f"# {note}")
    for error in errors:
        print(f"perfbench: WRONG: {error}", file=sys.stderr)
    if args.write_record and not errors:
        write_record(record, args.workload, args.seed, counters, traced_counters, shares)
        emit(f"# wrote {os.path.relpath(RECORD, ROOT)}")
    emit(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
