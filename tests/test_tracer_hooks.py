"""The benchmark's tracer (perfbench/tracer.py) patches library functions
by name. A rename that breaks its hooks would only show in a traced bench
run; this guard shows it in the default test run."""

import importlib.util
from pathlib import Path

from starwheel import enumeration, ramsey
from starwheel.ramsey import compute_ramsey

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
