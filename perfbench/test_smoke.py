"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def invoke(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke(root, workload, trace):
    return invoke(root, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = smoke(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    assert printed == {**declared, "error_rate": "ratio"}


def _import_run():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import run
        import starwheel
    finally:
        del sys.path[:2]
    return run, starwheel


def test_flip_pair_toggles_exactly_one_adjacency():
    run, sw = _import_run()
    g = sw.wheel(7)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            h = sw.from_graph6(run.flip_pair(sw.to_graph6(g), u, v))
            diff = {(a, b) for a in range(g.n) for b in range(a + 1, g.n) if g.has_edge(a, b) != h.has_edge(a, b)}
            assert diff == {(u, v)}


def test_the_speed_probe_scales_by_the_samples_nearest_the_interval():
    run, _ = _import_run()
    probe = run.SpeedProbe()
    # the reference loop runs at half speed from t = 10 to t = 19
    probe.samples = [(float(t), run.REF_S * (2 if 10 <= t < 20 else 1)) for t in range(30)]
    assert probe.factor(10, 19) == 0.5
    assert probe.factor(0, 3) == 1.0  # too few samples inside: the nine nearest
    assert probe.factor(25.5, 25.6) == 1.0


def test_the_speed_probe_samples_while_it_is_active():
    run, _ = _import_run()
    with run.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= run.PROBE_MIN_SAMPLES
    assert 0 < probe.stolen < 0.3
    assert probe.factor(0, time.perf_counter()) > 0


def _copy_checkout(dest, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    out = smoke(tmp_path, "ladder", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_a_counter_that_differs_from_the_record_is_a_wrong_answer(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "record.json"
    record = json.loads(path.read_text())
    record["reports"]["4 4"] = ["4 4 8 good-graph-found 999 -", "4 4 9 arrows-holds 999 -"]
    path.write_text(json.dumps(record))
    out = smoke(tmp_path, "ladder", 0)
    assert out.returncode == 1
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is False
    assert "differ from record" in out.stderr


def _sleep(_):
    time.sleep(60)


def test_a_hung_call_is_a_failure_and_its_pool_is_killed():
    run, sw = _import_run()

    class Hangs:
        def __init__(self):
            self.sw = sw

        def ops(self):
            def hang():
                with multiprocessing.get_context("fork").Pool(2) as pool:
                    pool.map(_sleep, range(2))

            return [("fast", lambda: None), ("hang", hang), ("never", lambda: None)]

        def check(self, samples, record):
            return []

        def counters(self, samples):
            return {}

    started = time.monotonic()
    p = run.Pass(Hangs(), False, {}, deadline=1.0)
    assert time.monotonic() - started < 30
    assert p.summary is None
    assert p.hung == "hang"
    assert [(key, failed) for key, _, failed in p.samples] == [("fast", False)]
