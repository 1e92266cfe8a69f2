import io
import subprocess
import sys

import pytest

import starwheel as sw
from starwheel.cli import main
from starwheel.theorems import CONCLUSION_HOLDS, COUNTEREXAMPLE, DEFAULT_CHECKS, Verdict, check_dirac


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestFormula:
    def test_exact(self, capsys):
        code, out, _ = run_cli(["formula", "4", "6"], capsys=capsys)
        assert code == 0 and out == "11 exact ThExactly\n"

    def test_lower_only(self, capsys):
        code, out, _ = run_cli(["formula", "20", "10"], capsys=capsys)
        assert code == 0 and out == "45 lower-only ThLower\n"

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["formula", "1", "4"], capsys=capsys)
        assert code == 2 and "n >= 2" in err


class TestConstruct:
    def test_regular(self, capsys):
        code, out, _ = run_cli(["construct", "--regular", "2", "7"], capsys=capsys)
        assert code == 0
        g = sw.from_graph6(out.strip())
        assert sorted(len(c) for c in sw.components(g)) == [3, 4]
        assert all(g.degree(v) == 2 for v in range(7))

    def test_witness(self, capsys):
        code, out, _ = run_cli(["construct", "--witness", "4", "6"], capsys=capsys)
        assert code == 0
        assert sw.from_graph6(out.strip()) == sw.lower_bound_witness(4, 6)

    def test_parity_violation_names_inequality(self, capsys):
        code, _, err = run_cli(["construct", "--regular", "3", "5"], capsys=capsys)
        assert code == 2 and "both odd" in err

    def test_witness_violation(self, capsys):
        code, _, err = run_cli(["construct", "--witness", "4", "8"], capsys=capsys)
        assert code == 2 and "2n-2" in err


class TestCertify:
    def test_good(self, monkeypatch, capsys):
        line = sw.to_graph6_str(sw.lower_bound_witness(4, 6))
        code, out, _ = run_cli(["certify", "4", "6"], line + "\n", monkeypatch, capsys)
        assert code == 0 and out == "good\n"

    def test_bad_star(self, monkeypatch, capsys):
        line = sw.to_graph6_str(sw.complete(5))
        code, out, _ = run_cli(["certify", "4", "4"], line + "\n", monkeypatch, capsys)
        assert code == 1
        assert out.startswith("bad star center=0")

    def test_bad_wheel(self, monkeypatch, capsys):
        line = sw.to_graph6_str(sw.empty_graph(7))
        code, out, _ = run_cli(["certify", "3", "6"], line + "\n", monkeypatch, capsys)
        assert code == 1 and out.startswith("bad wheel hub=")

    def test_bad_wheel_witness_is_pinned(self, monkeypatch, capsys):
        # the (6, 8) lower-bound witness with the pair (2, 6) toggled
        code, out, _ = run_cli(["certify", "6", "8"], "M?~uf_??G@_F?N?N_\n", monkeypatch, capsys)
        assert code == 1 and out == "bad wheel hub=2 rim=0,8,1,9,3,10,6,11\n"

    def test_garbage(self, monkeypatch, capsys):
        code, _, err = run_cli(["certify", "4", "6"], "garbage\n", monkeypatch, capsys)
        assert code == 2 and "error:" in err

    def test_mixed_lines_exit_1(self, monkeypatch, capsys):
        lines = (
            sw.to_graph6_str(sw.lower_bound_witness(4, 6))
            + "\n"
            + sw.to_graph6_str(sw.complete(11))
            + "\n"
        )
        code, out, _ = run_cli(["certify", "4", "6"], lines, monkeypatch, capsys)
        assert code == 1
        assert out.splitlines()[0] == "good"
        assert out.splitlines()[1].startswith("bad")


class TestComposition:
    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(4, 9) for m in range(6, 2 * n - 1, 2)]
    )
    def test_construct_pipes_into_certify(self, n, m, monkeypatch, capsys):
        code, out, _ = run_cli(["construct", "--witness", str(n), str(m)], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["certify", str(n), str(m)], out, monkeypatch, capsys)
        assert code == 0 and out == "good\n"

    @pytest.mark.parametrize("k,order", [(2, 7), (3, 8), (4, 13), (6, 40)])
    def test_construct_regular_roundtrips_through_analyze(self, k, order, monkeypatch, capsys):
        code, out, _ = run_cli(["construct", "--regular", str(k), str(order)], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["analyze"], out, monkeypatch, capsys)
        assert code == 0
        assert f"nu={order}" in out and f"delta={k} Delta={k}" in out


class TestSearch:
    def test_r_2_4(self, capsys):
        code, out, err = run_cli(["search", "2", "4"], capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2 4 4 good-graph-found 1 -"
        assert lines[1] == "C`"  # 2*K_2
        assert lines[2] == "2 4 5 arrows-holds 3 -"
        assert lines[3] == "R(K_{1,2},W_4) = 5"
        # timings go to stderr
        assert err.splitlines()[0].split()[:5] == ["2", "4", "4", "good-graph-found", "1"]

    def test_r_3_5(self, capsys):
        code, out, _ = run_cli(["search", "3", "5"], capsys=capsys)
        assert code == 0 and out.splitlines()[-1] == "R(K_{1,3},W_5) = 10"

    def test_ceiling_exit_1(self, capsys):
        code, out, _ = run_cli(["search", "4", "6", "--max-order", "9"], capsys=capsys)
        assert code == 1
        assert out.splitlines()[-1] == "R(K_{1,4},W_6) > 9"

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "2", "4", "--max-order", "soon"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestAnalyze:
    def test_wheel(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["analyze"], sw.to_graph6_str(sw.wheel(6)) + "\n", monkeypatch, capsys
        )
        assert code == 0
        assert out.strip() == (
            "nu=7 size=12 delta=3 Delta=6 components=1 blocks=1 girth=3 circ=7 spectrum=3..7"
        )

    def test_forest(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["analyze"], sw.to_graph6_str(sw.path(4)) + "\n", monkeypatch, capsys
        )
        assert code == 0
        assert "girth=- circ=- spectrum=-" in out

    def test_two_components(self, monkeypatch, capsys):
        g = sw.cycle(3).disjoint_union(sw.cycle(4))
        code, out, _ = run_cli(["analyze"], sw.to_graph6_str(g) + "\n", monkeypatch, capsys)
        assert code == 0
        assert "components=2" in out and "circ=4" in out

    def test_malformed(self, monkeypatch, capsys):
        code, _, err = run_cli(["analyze"], "!!!\n", monkeypatch, capsys)
        assert code == 2 and "error:" in err


class TestFuzz:
    def test_clean(self, capsys):
        code, out, _ = run_cli(["fuzz", "--max-order", "5"], capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "graphs=52"
        assert out.splitlines()[-1] == "no counterexamples"

    def test_tallies_pinned(self, capsys):
        code, out, _ = run_cli(["fuzz", "--max-order", "6"], capsys=capsys)
        assert code == 0
        assert out == (
            "graphs=208\n"
            "brandt hypothesis-not-met=184 conclusion-holds=24 counterexample=0\n"
            "dirac hypothesis-not-met=138 conclusion-holds=70 counterexample=0\n"
            "jackson hypothesis-not-met=379 conclusion-holds=9 counterexample=0\n"
            "no counterexamples\n"
        )

    def test_empty(self, capsys):
        code, out, _ = run_cli(["fuzz", "--max-order", "0"], capsys=capsys)
        assert code == 0 and out.splitlines()[0] == "graphs=0"

    def test_corpus_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(sw.to_graph6_str(g) for g in [sw.complete(4), sw.cycle(5), sw.path(3)])
            + "\n"
        )
        code, out, _ = run_cli(["fuzz", "--corpus", str(corpus)], capsys=capsys)
        assert code == 0 and out.splitlines()[0] == "graphs=3"

    def test_sabotaged_check_fails_the_run(self, monkeypatch, capsys):
        def overclaiming_dirac(g, node_budget):
            # claims one more than Dirac's bound min(2*delta, nu) on the longest cycle
            verdict = check_dirac(g, node_budget)
            if verdict.status == CONCLUSION_HOLDS and verdict.witness <= min(2 * sw.min_degree(g), g.n):
                verdict = Verdict(COUNTEREXAMPLE, witness=verdict.witness, detail="overclaimed bound")
            yield verdict

        monkeypatch.setattr("starwheel.cli.DEFAULT_CHECKS", dict(DEFAULT_CHECKS, dirac=overclaiming_dirac))
        code, out, _ = run_cli(["fuzz", "--max-order", "4"], capsys=capsys)
        assert code == 1
        assert any(line.startswith("counterexample check=dirac") for line in out.splitlines())

    def test_missing_corpus_file(self, capsys):
        code, _, err = run_cli(["fuzz", "--corpus", "/nonexistent/corpus.g6"], capsys=capsys)
        assert code == 2 and "error:" in err


class TestDeterminism:
    def test_threads_env_fallback(self):
        import os

        env = dict(os.environ, STARWHEEL_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "starwheel.cli", "search", "2", "4"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines()[-1] == "R(K_{1,2},W_4) = 5"

    def test_search_byte_identical_across_threads(self):
        runs = {}
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "starwheel.cli", "search", "3", "5", "--threads", threads],
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0
            runs[threads] = proc.stdout
        assert runs["1"] == runs["8"]


class TestInterrupt:
    def test_ctrl_c_exits_130_without_traceback(self):
        import signal
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "starwheel.cli", "search", "5", "8", "--threads", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            time.sleep(2)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert b"Traceback" not in err and b"interrupted" in err

    @pytest.mark.parametrize("whole_group", [True, False], ids=["group", "main"])
    def test_ctrl_c_stops_a_pooled_search(self, whole_group):
        # a terminal's Ctrl-C reaches the whole process group, workers
        # included; a kill from elsewhere may reach the main process alone.
        # The (5,8) scan at order 14 runs for a minute with two workers.
        import os
        import signal
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "starwheel.cli", "search", "5", "8", "--threads", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            time.sleep(1)
            if whole_group:
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            # the workers share the search's new process group: none is left
            try:
                os.killpg(proc.pid, 0)
                left_behind = True
            except ProcessLookupError:
                left_behind = False
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 130
        assert b"Traceback" not in err and b"interrupted" in err
        assert not left_behind


class TestParameterValidation:
    def test_certify_rejects_bad_parameters_even_on_empty_input(self, monkeypatch, capsys):
        code, _, err = run_cli(["certify", "0", "5"], "", monkeypatch, capsys)
        assert code == 2 and "n >= 1" in err
        code, _, err = run_cli(["certify", "4", "2"], "", monkeypatch, capsys)
        assert code == 2 and "m >= 3" in err

    def test_search_rejects_bad_parameters(self, capsys):
        code, _, err = run_cli(["search", "1", "6"], capsys=capsys)
        assert code == 2 and "n >= 2" in err
