"""Command-line checks driven in process through main(argv)."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from minigp import harness
from minigp.cli import main
from minigp.lang import Fail, Interp
from minigp.encoding import MalformedConfigGraph, dec
from minigp.turing import tm_run
from util import fixture_machine, from_text, unary

FIXTURES = str(Path(__file__).resolve().parent.parent / "fixtures")
SPACE_FILLER = """\
input,rule_calls,tm_steps,restarts,peak_graph_space,tape_squares_used,\
final_c,final_b,uniform_space,log_space,peak_nodes
0,7131,43,1,121,43,3,27,121,160,32
10,37908,86,2,343,86,4,81,343,616,88
110,51209,129,2,346,129,4,81,346,623,89
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_counter_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "verify", f"{FIXTURES}/count.tm",
                               "--input", "1111")
        assert code == 0
        assert "no divergence" in out

    def test_filler_restarts_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", f"{FIXTURES}/filler.tm",
                               "--input", "0")
        assert code == 0
        assert "restarts=1" in out
        assert "no divergence" in out

    def test_zero_step_budget_checks_no_step(self, capsys):
        code, out, _ = run_cli(capsys, "verify", f"{FIXTURES}/stamp.tm",
                               "--input", "10", "--max-steps", "0")
        assert code == 0
        assert "steps_checked=0" in out.splitlines()
        assert "no divergence" in out

    def test_oracle_error_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", f"{FIXTURES}/count.tm",
                               "--input", "00")
        assert code == 1
        assert "verification failed" in out
        assert "no divergence" not in out


class TestRunAndExec:
    def test_run_prints_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "run", f"{FIXTURES}/empty.tm",
                               "--input", "1")
        assert code == 0
        for line in ("final_c=2", "final_b=9", "restarts=0"):
            assert line in out.splitlines()

    def test_run_and_exec_report_the_same_work_tape(self, capsys):
        work = {}
        for sub in ("run", "exec"):
            code, out, _ = run_cli(capsys, sub, f"{FIXTURES}/stamp.tm",
                                   "--input", unary(3))
            assert code == 0
            work[sub] = re.search(r"work='([012]*)'", out).group(1)
        assert work["run"] == work["exec"] == "110110110"

    def test_trace_streams_steps(self, capsys):
        code, out, _ = run_cli(capsys, "run", f"{FIXTURES}/stamp.tm",
                               "--input", unary(1), "--trace")
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("step ")]) == 3

    def test_dump_graph_decodes_to_final_config(self, capsys, tmp_path):
        dump = tmp_path / "final.graph"
        code, out, _ = run_cli(capsys, "run", f"{FIXTURES}/stamp.tm",
                               "--input", unary(2), "--dump-graph", str(dump))
        assert code == 0
        final, _, _ = tm_run(fixture_machine("stamp"), unary(2), 100)
        got, k = dec(from_text(dump.read_text()))
        assert got == final
        assert k == 0

    @pytest.mark.parametrize("argv", [("verify", "--input", "0"),
                                      ("run", "--input", "0"),
                                      ("space", "--inputs", "0")])
    def test_mode_defaults_to_efficient(self, capsys, monkeypatch, argv):
        modes = []
        init = Interp.__init__

        def spy(self, **kwargs):
            modes.append(kwargs.get("mode"))
            init(self, **kwargs)

        monkeypatch.setattr(Interp, "__init__", spy)
        code, _, _ = run_cli(capsys, argv[0], f"{FIXTURES}/stamp.tm",
                             *argv[1:])
        assert code == 0
        assert modes == ["efficient"]

    def test_semantic_mode_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", f"{FIXTURES}/empty.tm",
                               "--input", "1", "--mode", "semantic")
        assert code == 0
        assert "final_b=9" in out


GEN_SHA256 = {
    "count": "a7c6e32eb8b31c15865c79d8a49f1a7d33149dfa45cc044bae178d897ec5e818",
    "empty": "d4688c4b1e18c6bd011fd22d7df75273d376f1cdc29bdbea13f2c8d5a5184ac9",
    "filler": "13b40e1d794a61a5d529267fb27377d58b4a5ffb326650d07cb9baaeb653c641",
    "ones": "6fbdc6f5940c63e4cfe50f72cf3d950fee9ee02aa13f953a9cd58693cb8a6b0d",
    "stamp": "c5f21500b5a019e116be64be29995bc550de8492a5214f6ceaca1248bcb3e5aa",
    "sweep": "ef91c1521771df20e8985494269ff575e8ccf5b02f3a0ee12f1b894c9f9a71c1",
}


class TestGen:
    def test_listing_then_rules(self, capsys):
        code, out, _ = run_cli(capsys, "gen", f"{FIXTURES}/empty.tm")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("Main = setup;")
        assert "rule setup" in out
        assert "interface" in out

    @pytest.mark.parametrize("path", sorted(Path(FIXTURES).glob("*.tm")),
                             ids=lambda p: p.stem)
    def test_output_pinned(self, capsys, path):
        """The sha256 of the whole gen output, for every fixture machine."""
        code, out, _ = run_cli(capsys, "gen", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[path.stem]


class TestBenchAndSpace:
    def test_space_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["space", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "(default efficient)" in out
        assert "(default 10000)" in out

    def test_space_table(self, capsys):
        code, out, _ = run_cli(capsys, "space", f"{FIXTURES}/stamp.tm",
                               "--inputs", "0,10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("input,rule_calls,")
        assert len(lines) == 3
        assert lines[1].startswith("0,") and lines[2].startswith("10,")

    @staticmethod
    def count_compiles(monkeypatch) -> list:
        compiled = []
        gen_sim = harness.gen_sim

        def counting(m):
            compiled.append(m)
            return gen_sim(m)

        monkeypatch.setattr(harness, "gen_sim", counting)
        return compiled

    def test_space_compiles_once(self, capsys, monkeypatch):
        compiled = self.count_compiles(monkeypatch)
        code, out, _ = run_cli(capsys, "space", f"{FIXTURES}/filler.tm",
                               "--inputs", "0,10,110")
        assert code == 0
        assert len(compiled) == 1
        assert out == SPACE_FILLER

    def test_space_checks_every_input_first(self, capsys, monkeypatch):
        compiled = self.count_compiles(monkeypatch)
        code, out, err = run_cli(capsys, "space", f"{FIXTURES}/filler.tm",
                                 "--inputs", "10,12")
        assert code == 2
        assert "'12'" in err and out == ""
        assert compiled == []


def undecodable(g):
    raise MalformedConfigGraph("patched dec")


class TestErrors:
    @pytest.mark.parametrize("argv, broken_dec, code, message", [
        (["exec", "no-such-file.tm", "--input", "1"], False, 2, "error:"),
        (["exec", "{tmp}/latin1.tm", "--input", "1"], False, 2, "utf-8"),
        (["exec", "{tmp}/header.tm", "--input", "1"], False, 2, "line 1"),
        (["exec", "{tmp}/twice.tm", "--input", "1"], False, 2,
         "line 2: repeated start"),
        (["exec", "{fix}/count.tm", "--input", "21"], False, 2, "over 0/1"),
        (["exec", "{fix}/count.tm", "--input", "00"], False, 1, "input head"),
        (["run", "{fix}/stamp.tm", "--input", "0", "--max-rule-calls", "10"],
         False, 1, "budget 10"),
        (["run", "{fix}/stamp.tm", "--input", "0"], True, 1, "patched dec"),
        (["run", "{fix}/stamp.tm", "--input", "0", "--trace"], True, 1,
         "patched dec"),
        (["verify", "{fix}/stamp.tm", "--input", "0"], True, 1, ""),
        (["verify", "{fix}/stamp.tm", "--input", "0"], False, 0, ""),
        (["exec", "{fix}/stamp.tm", "--input", "0", "--max-steps", "-1"],
         False, 2, "step budget"),
        (["run", "{fix}/stamp.tm", "--input", "0", "--max-steps", "-1"],
         False, 2, "step budget"),
        (["run", "{fix}/stamp.tm", "--input", "0", "--max-rule-calls", "-3"],
         False, 2, "rule-call budget"),
        (["verify", "{fix}/stamp.tm", "--input", "10", "--max-steps", "-2"],
         False, 2, "step budget"),
    ], ids=["missing-file", "not-utf8", "bad-header", "repeated-header",
            "bad-input", "input-overflow", "rule-budget", "run-undecodable",
            "trace-undecodable", "verify-undecodable", "verify-clean",
            "exec-negative-steps", "run-negative-steps",
            "run-negative-rule-calls", "verify-negative-steps"])
    def test_exit_codes(self, capsys, monkeypatch, tmp_path, argv, broken_dec,
                        code, message):
        """2 for bad input or an unreadable file, 1 for a RunError."""
        (tmp_path / "latin1.tm").write_bytes("start: 0 # é\n".encode("latin-1"))
        (tmp_path / "header.tm").write_text("start: x\naccept: 1\n")
        (tmp_path / "twice.tm").write_text("start: 0\nstart: 5\naccept: 1\n")
        if broken_dec:
            monkeypatch.setattr(harness, "dec", undecodable)
        got, _, err = run_cli(capsys, *(a.format(tmp=tmp_path, fix=FIXTURES)
                                        for a in argv))
        assert got == code
        assert message in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "exec", "no-such-file.tm",
                               "--input", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_input_string(self, capsys):
        code, _, err = run_cli(capsys, "exec", f"{FIXTURES}/count.tm",
                               "--input", "21")
        assert code == 2
        assert "over 0/1" in err

    def test_unparsable_machine_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.tm"
        bad.write_text("start: 0\naccept: 1\nnot a transition\n")
        code, _, err = run_cli(capsys, "exec", str(bad), "--input", "1")
        assert code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_exec_overflow_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "exec", f"{FIXTURES}/count.tm",
                               "--input", "00")
        assert code == 1
        assert "error:" in err

    def test_failed_simulation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(Interp, "run", lambda self, program, g: Fail())
        code, _, err = run_cli(capsys, "run", f"{FIXTURES}/stamp.tm",
                               "--input", "0")
        assert code == 1
        assert "error: simulator run failed" in err
