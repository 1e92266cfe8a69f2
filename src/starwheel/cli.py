"""Command-line surface: formula lookups, constructions, certification,
exhaustive search, structural analysis, and theorem fuzzing.

Exit codes: 0 success/verified, 1 property-failed/undecided, 2 usage or
parse error, 130 interrupted (Ctrl-C). stdout is byte-stable for fixed
inputs and flags (timings go to stderr); graph interchange is graph6, one
graph per line.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import graph6
from ._cycles import SearchBudgetExceeded
from .construct import lower_bound_witness, regular_bounded_components
from .core import blocks, components, max_degree, min_degree
from .detect import cycle_spectrum
from .ramsey import compute_ramsey, formula, is_good_coloring
from .theorems import DEFAULT_CHECKS, fuzz, fuzz_all_graphs


def _threads(value) -> int:
    if value is not None:
        if value < 1:
            raise ValueError(f"--threads must be >= 1, got {value}")
        return value
    env = os.environ.get("STARWHEEL_THREADS")
    if env is None:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"STARWHEEL_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


def _cmd_formula(args) -> int:
    bound = formula(args.n, args.m)
    print(f"{bound.value} {bound.status} {bound.source}")
    return 0


def _cmd_construct(args) -> int:
    if args.witness is not None:
        g = lower_bound_witness(*args.witness)
    else:
        g = regular_bounded_components(*args.regular)
    print(graph6.to_graph6_str(g))
    return 0


def _cmd_certify(args) -> int:
    if args.n < 1:
        raise ValueError(f"n >= 1 required, got n={args.n}")
    if args.m < 3:
        raise ValueError(f"m >= 3 required, got m={args.m}")
    any_bad = False
    for g in graph6.iter_graph6_lines(sys.stdin):
        verdict = is_good_coloring(g, args.n, args.m)
        if verdict:
            print("good")
        else:
            any_bad = True
            print(f"bad {verdict.violation}")
    return 1 if any_bad else 0


def _cmd_search(args) -> int:
    result = compute_ramsey(args.n, args.m, args.max_order, workers=_threads(args.threads))
    for report in result.reports:
        print(report.to_line())
        print(report.to_line(timing=True), file=sys.stderr)
        if report.witness is not None:
            print(graph6.to_graph6_str(report.witness))
    name = f"R(K_{{1,{args.n}}},W_{args.m})"
    if result.decided:
        print(f"{name} = {result.ramsey_number}")
        return 0
    ceiling = args.max_order if args.max_order is not None else formula(args.n, args.m).value
    print(f"{name} > {ceiling}")
    return 1


def _render_spectrum(spectrum) -> str:
    if not spectrum:
        return "-"
    xs = sorted(spectrum)
    runs = []
    start = prev = xs[0]
    for x in xs[1:]:
        if x == prev + 1:
            prev = x
            continue
        runs.append((start, prev))
        start = prev = x
    runs.append((start, prev))
    return ",".join(f"{a}..{b}" if b > a else f"{a}" for a, b in runs)


def _cmd_analyze(args) -> int:
    for g in graph6.iter_graph6_lines(sys.stdin):
        spectrum = cycle_spectrum(g)
        low = min(spectrum) if spectrum else None
        high = max(spectrum) if spectrum else None
        print(
            f"nu={g.n}"
            f" size={g.edge_count()}"
            f" delta={min_degree(g)}"
            f" Delta={max_degree(g)}"
            f" components={len(components(g))}"
            f" blocks={len(blocks(g))}"
            f" girth={'-' if low is None else low}"
            f" circ={'-' if high is None else high}"
            f" spectrum={_render_spectrum(spectrum)}"
        )
    return 0


def _cmd_fuzz(args) -> int:
    if args.corpus is not None:
        with open(args.corpus, "r", encoding="ascii") as handle:
            corpus = list(graph6.iter_graph6_lines(handle))
        summary = fuzz(corpus, DEFAULT_CHECKS)
    else:
        summary = fuzz_all_graphs(args.max_order, DEFAULT_CHECKS)
    for line in summary.lines():
        print(line)
    return 0 if summary.clean else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starwheel",
        description="Star-versus-wheel Ramsey numbers: formulas, constructions, certification, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="evaluate the R(K_{1,n},W_m) formula table")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("construct", help="emit a construction as graph6")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", nargs=2, type=int, metavar=("N", "M"),
                       help="lower-bound witness graph for (n, m)")
    group.add_argument("--regular", nargs=2, type=int, metavar=("K", "ORDER"),
                       help="k-regular graph with components of order <= 2k+1")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="check graph6 lines on stdin for goodness")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="compute R(K_{1,n},W_m) by exhaustive search")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("analyze", help="structural report for graph6 lines on stdin")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fuzz", help="run the theorem oracles over a corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-order", type=int, metavar="ORDER", help="every graph on at most ORDER vertices")
    group.add_argument("--corpus", metavar="FILE", help="file of graph6 lines")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
