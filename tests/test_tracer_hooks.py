"""The benchmark's tracer (perfbench/tracer.py) patches library functions
by name. A rename that breaks its hooks would only show in a traced bench
run; this guard shows it in the default test run."""

import importlib.util
from pathlib import Path

from starwheel import enumeration, ramsey
from starwheel.construct import lower_bound_witness
from starwheel.core import Graph
from starwheel.ramsey import compute_ramsey, is_good_coloring

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_survivors_match_reports_and_uninstall_restores():
    originals = (ramsey._wheel_prune, ramsey.arrows, enumeration.is_canonical)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        results = [compute_ramsey(n, m) for n, m in [(4, 4), (4, 5), (3, 4)]]
    finally:
        tracer.uninstall()
    expected = {
        f"{r.n} {r.m} {r.order}": {str(level): c for level, c in r.survivors.items()}
        for result in results
        for r in result.reports
    }
    assert expected and tracer.survivors() == expected
    assert (ramsey._wheel_prune, ramsey.arrows, enumeration.is_canonical) == originals


def test_tracer_counts_the_certify_paths_cycle_nodes():
    # the (6, 8) witness with the pair (2, 6) toggled, as pinned in
    # test_detect's test_flipped_witness_wheels_and_their_work: its
    # complement's wheel search draws exactly 10 nodes. The tracer reads a
    # search's Budget as its fourth positional argument, so a detect call
    # that passed it by keyword would count 0.
    rows = list(lower_bound_witness(6, 8).rows)
    rows[2] ^= 1 << 6
    rows[6] ^= 1 << 2
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        verdict = is_good_coloring(Graph(len(rows), rows), 6, 8, node_budget=10**5)
    finally:
        tracer.uninstall()
    assert not verdict and str(verdict.violation) == "wheel hub=2 rim=0,8,1,9,3,10,6,11"
    assert tracer.counts["cycles.nodes"] == 10
