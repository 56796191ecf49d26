"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import CliError, main, parse_invocation, parse_test
from repro.core import Invocation


class TestParsing:
    def test_bare_method(self):
        assert parse_invocation("TryTake") == Invocation("TryTake")

    def test_method_with_literal_args(self):
        assert parse_invocation("Add(200)") == Invocation("Add", (200,))
        assert parse_invocation("Put('k', 2)") == Invocation("Put", ("k", 2))
        assert parse_invocation("Flag(True)") == Invocation("Flag", (True,))

    def test_whitespace_tolerated(self):
        assert parse_invocation("  Add( 1 ) ") == Invocation("Add", (1,))

    @pytest.mark.parametrize("bad", ["", "1+2", "Add(x)", "Add(k=1)", "a.b()"])
    def test_bad_invocations_rejected(self, bad):
        with pytest.raises(CliError):
            parse_invocation(bad)

    def test_parse_matrix(self):
        test = parse_test("Add(1); TryTake | TryTake")
        assert test.n_threads == 2
        assert test.columns[0] == (Invocation("Add", (1,)), Invocation("TryTake"))
        assert test.columns[1] == (Invocation("TryTake"),)

    def test_parse_matrix_with_init_final(self):
        test = parse_test("TryTake", init="Add(1); Add(2)", final="Count")
        assert test.init == (Invocation("Add", (1,)), Invocation("Add", (2,)))
        assert test.final == (Invocation("Count"),)

    def test_empty_matrix_rejected(self):
        with pytest.raises(CliError):
            parse_test(" | ")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BlockingCollection" in out
        assert "root causes:" in out

    def test_list_verbose_shows_alphabet(self, capsys):
        assert main(["list", "-v"]) == 0
        assert "Enqueue(10)" in capsys.readouterr().out

    def test_check_pass_returns_zero(self, capsys):
        code = main(
            ["check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue"]
        )
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_check_fail_returns_one(self, capsys):
        code = main(
            ["check", "BlockingCollection", "--version", "pre", "--cause", "D"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "TryTake" in out

    def test_check_random_strategy(self, capsys):
        code = main(
            [
                "check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue",
                "--strategy", "random", "--schedules", "40",
            ]
        )
        assert code == 0

    def test_check_with_minimize(self, capsys):
        code = main(
            [
                "check", "SemaphoreSlim", "--version", "pre", "--cause", "B",
                "--minimize",
            ]
        )
        assert code == 1
        assert "minimal failing dimension" in capsys.readouterr().out

    def test_check_unknown_class(self, capsys):
        assert main(["check", "NoSuchClass", "--test", "X"]) == 64
        assert "error" in capsys.readouterr().err

    def test_check_missing_test(self, capsys):
        assert main(["check", "ConcurrentQueue"]) == 64

    def test_check_unknown_cause(self, capsys):
        assert main(["check", "ConcurrentQueue", "--cause", "Z"]) == 64

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["check", "ConcurrentQueue", "--no-such-flag"]) == 64
        assert "error" in capsys.readouterr().err

    def test_observations_to_stdout(self, capsys):
        code = main(
            ["observations", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue"]
        )
        assert code == 0
        assert "<observationset" in capsys.readouterr().out

    def test_observations_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "obs.xml")
        code = main(
            [
                "observations", "ConcurrentQueue",
                "--test", "Enqueue(1) | TryDequeue", "-o", path,
            ]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            assert "<observationset" in handle.read()

    def test_campaign_single_class(self, capsys):
        code = main(
            [
                "campaign", "Lazy", "--versions", "pre", "--samples", "1",
                "--rows", "2", "--cols", "2", "--schedules", "60",
            ]
        )
        out = capsys.readouterr().out
        assert "Lazy" in out
        assert code == 1  # the pre version carries bug G


class TestReproduceCommand:
    def test_reproduce_writes_report(self, capsys, tmp_path):
        path = str(tmp_path / "report.md")
        code = main(
            [
                "reproduce", "--samples", "1", "--rows", "1", "--cols", "2",
                "--schedules", "40", "-o", path,
            ]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            report = handle.read()
        assert "# Line-Up reproduction report" in report
        assert "Table 1" in report and "Table 2" in report
        assert "Section 5.6" in report and "Section 6" in report
        # The triage table must show the strict/relaxed split.
        assert "| ConcurrentBag | beta | H | nondeterministic | FAIL | PASS |" in report


BAG = ["check", "ConcurrentBag", "--relaxed", "--test", "Add(1); TryTake | TryTake"]


class TestRelaxedCheck:
    """``check --relaxed`` goes through the shared check driver: every
    flag that drives the one phase-2 loop composes with it."""

    def test_cause_h_is_excused_and_strict_still_fails(self, capsys):
        assert main(["check", "ConcurrentBag", "--cause", "H", "--relaxed"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert main(["check", "ConcurrentBag", "--cause", "H"]) == 1

    def test_a_real_bug_survives_relaxation(self, capsys):
        code = main(
            ["check", "ManualResetEvent", "--version", "pre", "--cause", "A",
             "--relaxed"]
        )
        assert code == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_json_is_one_document(self, capsys):
        import json

        assert main(BAG + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] == "PASS"
        assert document["phase2"]["judged"] <= document["phase2"]["executions"]
        assert document["reduction"]["equivalence_classes"] > 0

    def test_reduction_line_reports_what_ran(self, capsys):
        assert main(BAG + ["--reduction", "dpor"]) == 0
        assert (
            "reduction: dpor — 33 schedules explored, 33 equivalence classes, "
            "35 pruned" in capsys.readouterr().out
        )

    def test_deadline_ends_exhausted_with_the_partial_report(self, capsys):
        assert main(BAG + ["--deadline", "0.000001"]) == 2
        out = capsys.readouterr().out
        assert "verdict: EXHAUSTED" in out
        assert "exploration incomplete" in out

    def test_execution_cap_is_reported_as_incomplete(self, capsys):
        import json

        assert main(BAG + ["--max-executions", "5", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["phase2"]["executions"] == 5
        assert document["phase2"]["complete"] is False

    def test_dump_traces_writes_one_file(self, capsys, tmp_path):
        assert main(BAG + ["--dump-traces", str(tmp_path)]) == 0
        (trace,) = tmp_path.iterdir()
        assert trace.name.endswith(".trace.jsonl") and trace.stat().st_size > 0

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--checkpoint", "ck.json"], "--checkpoint"),
            (["--minimize"], "--minimize"),
            (["--shards", "2"], "--shards"),
            (["--model", "queue"], "--backend monitor"),
        ],
    )
    def test_what_does_not_compose_is_rejected_by_name(
        self, flags, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(BAG + flags) == 64
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
