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

    def test_a_truncated_pass_says_so(self, capsys):
        gate = ["check", "ConcurrentQueue", "--test",
                "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue"]
        assert main(gate + ["--max-executions", "100"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert (
            "note: phase 2 stopped at its execution cap after 100 executions "
            "(--max-executions)" in out
        )
        assert main(gate[:3] + ["Enqueue(1) | TryDequeue"]) == 0
        assert "note:" not in capsys.readouterr().out
        # A FAIL stops at its first violation: that is no truncation.
        assert main(["check", "Lazy", "--version", "pre", "--cause", "G"]) == 1
        assert "note:" not in capsys.readouterr().out

    def test_a_campaign_past_the_serial_cap_is_exhausted_not_failed(
        self, capsys
    ):
        # 4x3 tests have tens of thousands of serial executions; the
        # campaign enumerates at most 2000, and judges none of them.
        code = main(
            ["campaign", "ConcurrentQueue", "--versions", "beta",
             "--samples", "1", "--rows", "4", "--cols", "3", "--seed", "1",
             "--schedules", "50"]
        )
        lines = capsys.readouterr().out.splitlines()
        (row,) = [line.split() for line in lines if line.startswith("Concurrent")]
        assert code == 2
        assert len(row) == 15
        # hist max, fail, pass, crash, sched
        assert [row[i] for i in (5, 7, 8, 9, 12)] == ["2000", "0", "0", "0", "0"]
        assert lines[-1].startswith("note: 1 test(s) EXHAUSTED")


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

    def test_dump_traces_writes_one_file_per_judged_history(
        self, capsys, tmp_path
    ):
        import json

        assert main(BAG + ["--dump-traces", str(tmp_path), "--json"]) == 0
        judged = json.loads(capsys.readouterr().out)["phase2"]["judged"]
        (directory,) = tmp_path.iterdir()
        traces = list(directory.iterdir())
        assert len(traces) == judged > 0
        assert all(
            trace.name.endswith(".trace.jsonl") and trace.stat().st_size > 0
            for trace in traces
        )

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--checkpoint", "ck.json"], "--checkpoint"),
            (["--minimize"], "--minimize"),
            (["--shards", "2"], "--shards"),
            (["--model", "queue"], "--model"),
        ],
    )
    def test_what_does_not_compose_is_rejected_by_name(
        self, flags, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(BAG + flags) == 64
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


QUEUE = ["check", "ConcurrentQueue", "--test", "Enqueue(10); TryDequeue | Enqueue(20); TryDequeue"]
BUFFER_SHARDED = [
    "check", "BoundedBuffer", "--provider", "repro.exec.faults",
    "--version", "beta", "--test", "Put(1); Take | TryTake",
    "--shards", "2", "--workers", "1",
]
REDUCED_NOTE = "is not proven history-complete at this bound"


def _notes(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("note:")]


class TestReducedPassNote:
    """A PASS under sleep sets or DPOR is not printed as a complete one."""

    @pytest.mark.parametrize("reduction, judged", [("sleep", 483), ("dpor", 481)])
    def test_check_report_notes_a_reduced_pass(self, capsys, reduction, judged):
        assert main(QUEUE + ["--reduction", reduction]) == 0
        (note,) = _notes(capsys.readouterr().out)
        assert f"--reduction {reduction} {REDUCED_NOTE}" in note
        assert f"judges {judged} of the 499 histories" in note

    def test_sharded_report_notes_a_reduced_pass(self, capsys):
        assert main(BUFFER_SHARDED + ["--reduction", "dpor"]) == 0
        (note,) = _notes(capsys.readouterr().out)
        assert f"--reduction dpor {REDUCED_NOTE}" in note

    @pytest.mark.parametrize("command", [QUEUE, BUFFER_SHARDED])
    def test_an_unreduced_pass_carries_no_note(self, capsys, command):
        assert main(command + ["--reduction", "none"]) == 0
        assert _notes(capsys.readouterr().out) == []


class TestTwoSamplers:
    """Phase 2 explores with DFS or samples at random; the retired PCT
    and iterative-bounding samplers are usage errors."""

    @pytest.mark.parametrize("strategy", ["pct", "iterative"])
    def test_a_retired_strategy_is_a_usage_error(self, strategy, capsys):
        assert main(QUEUE + ["--strategy", strategy]) == 64
        assert f"invalid choice: '{strategy}'" in capsys.readouterr().err

    def test_a_reduction_needs_dfs(self, capsys):
        assert main(QUEUE + ["--strategy", "random", "--reduction", "dpor"]) == 64
        assert "--reduction dpor requires --strategy dfs" in capsys.readouterr().err


class TestShardedRefusals:
    """What sharding cannot do is refused in one place, the swarm
    runner; ``check --shards`` turns its message into exit 64."""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--strategy", "random"], "'random' is not shardable"),
            (["--model", "queue"], "the observations backend only"),
            (["--dump-traces", "dump"], "--dump-traces is not supported"),
        ],
    )
    def test_check_shards_refuses_by_name(
        self, flags, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(QUEUE + ["--shards", "2"] + flags) == 64
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOneJsonWriter:
    """``check --shards --json`` is ``check --json``'s document plus the
    keys only a swarm has."""

    SWARM_ONLY = {
        "subject", "crash_reports", "swarm", "reduction.classes_rediscovered",
    }

    @staticmethod
    def _keys(document: dict, prefix: str = "") -> set[str]:
        keys = set()
        for key, value in document.items():
            keys.add(prefix + key)
            if isinstance(value, dict):
                keys |= TestOneJsonWriter._keys(value, f"{prefix}{key}.")
        return keys

    def test_the_shared_sections_have_the_same_keys(self, capsys):
        import json

        single = BUFFER_SHARDED[: BUFFER_SHARDED.index("--shards")] + ["--json"]
        assert main(single) == 0
        check = json.loads(capsys.readouterr().out)
        assert main(BUFFER_SHARDED + ["--json"]) == 0
        sharded = json.loads(capsys.readouterr().out)

        swarm_only = {
            key for key in self._keys(sharded)
            if key in self.SWARM_ONLY or key.split(".")[0] in self.SWARM_ONLY
        }
        assert self._keys(sharded) - swarm_only == self._keys(check)
        for key in ("exhausted_reason", "phase1.complete", "phase2.seconds",
                    "phase2.exhausted_reason"):
            assert key in self._keys(check)
        for section, name in (("phase2", "executions"), ("phase2", "full"),
                              ("phase2", "stuck"), ("phase2", "divergent"),
                              ("reduction", "equivalence_classes")):
            assert sharded[section][name] == check[section][name]
        assert sharded["phase2"]["seconds"] == sharded["swarm"]["cpu_seconds"]
