"""CLI integration of the monitor backend and the monitor subcommand."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.monitor import DumpTraceWriter, load_trace

from .conftest import call, hist, ret

QUEUE_TEST = {"columns": [[{"method": "Enqueue", "args": "(1,)"}],
                          [{"method": "TryDequeue", "args": "()"}]]}


def write_dump(directory, *histories, subject="ConcurrentQueue(pre)"):
    """*histories* as dump files 1, 2, ...; returns their paths."""
    writer = DumpTraceWriter(str(directory), subject, QUEUE_TEST, sessions=2)
    for number, history in enumerate(histories, start=1):
        writer.write(number, history)
    return dumped(directory)


def dumped(directory):
    """The files of the one dump under *directory*, in execution order."""
    (subdir,) = os.listdir(directory)
    names = sorted(os.listdir(os.path.join(directory, subdir)),
                   key=lambda name: int(name.split(".")[0]))
    return [os.path.join(directory, subdir, name) for name in names]


def write_queue_traces(directory, *, include_violation: bool) -> list[str]:
    good = hist(
        call(0, 0, "Enqueue", 1),
        call(1, 0, "TryDequeue"),
        ret(0, 0),
        ret(1, 0, 1),
    )
    bad = hist(
        call(0, 0, "Enqueue", 1), ret(0, 0),
        call(1, 0, "TryDequeue"), ret(1, 0, "Fail"),
    )
    return write_dump(directory, good, *([bad] if include_violation else []))


class TestMonitorSubcommand:
    def test_pass(self, tmp_path, capsys):
        paths = write_queue_traces(tmp_path, include_violation=False)
        assert main(["monitor", *paths, "--model", "queue"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS (1 ok, 0 violating, 0 exhausted)" in out

    def test_fail_renders_violation(self, tmp_path, capsys):
        paths = write_queue_traces(tmp_path, include_violation=True)
        assert main(["monitor", *paths, "--model", "queue"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL (1 ok, 1 violating, 0 exhausted)" in out
        assert "Diagnosis:" in out
        assert "sequential model" in out

    def test_verbose_lists_every_history(self, tmp_path, capsys):
        paths = write_queue_traces(tmp_path, include_violation=True)
        main(["monitor", *paths, "--model", "queue", "-v"])
        out = capsys.readouterr().out
        assert f"{paths[0]}: OK" in out
        assert f"{paths[1]}: FAIL" in out

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        paths = write_queue_traces(tmp_path, include_violation=False)
        assert main(["monitor", *paths, "--model", "deque"]) == 64

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["monitor", str(tmp_path / "absent.jsonl"), "--model", "queue"]
        ) == 64

    def test_configuration_cap_gives_exhausted(self, tmp_path, capsys):
        # An empty dequeue is outside the queue's closed form, so auto
        # sends this history to the search, which the cap stops.
        (path,) = write_dump(tmp_path, hist(
            call(0, 0, "Enqueue", 1), call(1, 0, "TryDequeue"),
            ret(0, 0), ret(1, 0, "Fail"),
        ))
        code = main(["monitor", path, "--model", "queue",
                     "--max-configurations", "1"])
        assert code == 2
        assert "EXHAUSTED" in capsys.readouterr().out
        assert main(["monitor", path, "--model", "queue"]) == 0

    def test_the_first_line_names_no_engine(self, tmp_path, capsys):
        paths = write_queue_traces(tmp_path, include_violation=False)
        main(["monitor", *paths, "--model", "queue"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (
            "Monitoring 1 histories of ConcurrentQueue(pre) against model "
            "'queue'"
        )


class TestOneModelJudge:
    """``auto`` is the only engine a command runs: the flag that chose
    another one is gone from every command that had it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue",
             "--model", "queue", "--monitor-engine", "wgl"],
            ["monitor", "TRACE", "--model", "queue", "--monitor-engine", "wgl"],
            ["monitor", "TRACE", "--model", "queue", "--engine", "wgl"],
            ["live", "--monitor-engine", "wgl"],
            ["live", "--engine", "wgl"],
            ["watch", "TRACE", "--monitor-engine", "wgl"],
            ["watch", "TRACE", "--engine", "wgl"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_the_engine_flags_are_usage_errors(self, argv, tmp_path, capsys):
        (path,) = write_queue_traces(tmp_path, include_violation=False)
        argv = [path if arg == "TRACE" else arg for arg in argv]
        assert main(argv) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_watch_and_monitor_agree_on_stuck_dumps(self, tmp_path, capsys):
        # Dumps that ended stuck: both commands judge the blocked decs
        # with the online engine's end-of-history step.  The counter
        # blocks dec at zero, which justifies the first dump's two
        # pending decs; in the second the count is 1, so nothing does.
        justified = hist(call(0, 0, "inc"), ret(0, 0), call(1, 0, "dec"),
                         call(0, 1, "dec"), ret(0, 1), call(0, 2, "dec"),
                         stuck=True)
        unjustified = hist(call(0, 0, "inc"), ret(0, 0), call(1, 0, "dec"),
                           stuck=True)
        for history, code in ((justified, 0), (unjustified, 1)):
            directory = tmp_path / str(code)
            (path,) = write_dump(directory, history, subject="Counter")
            for command in ("watch", "monitor"):
                assert main([command, path, "--model", "counter"]) == code
            out = capsys.readouterr().out
            if code:
                assert "blocked forever" in out
                assert "Erroneous blocking: operation [dec()" in out

    def test_a_model_blocking_verdict_claims_no_serial_execution(
        self, tmp_path, capsys
    ):
        # The monitor judges a stuck dump against the model alone: its
        # report says which model states it searched, and never speaks
        # of serial executions, which it did not run.
        unjustified = hist(call(0, 0, "inc"), ret(0, 0), call(1, 0, "dec"),
                           stuck=True)
        (path,) = write_dump(tmp_path, unjustified, subject="Counter")
        assert main(["monitor", path, "--model", "counter"]) == 1
        out = capsys.readouterr().out
        assert "no linearization of the completed operations leaves the " \
            "sequential model in a state that blocks" in out
        assert "serial execution" not in out


class TestCheckBackendFlag:
    """``--model NAME`` alone selects the monitor backend."""

    def test_monitor_backend_skips_phase1(self, capsys):
        code = main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue", "--model", "queue"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "phase 1: 0 serial executions" in out

    def test_model_implies_monitor_backend(self, capsys):
        code = main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue", "--model", "queue"]
        )
        assert code == 0
        assert "phase 1: 0 serial executions" in capsys.readouterr().out

    def test_monitor_backend_finds_figure1_bug(self, capsys):
        code = main(
            ["check", "ConcurrentQueue", "--version", "pre", "--cause", "D",
             "--model", "queue"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "no linearization of this history is an execution" in out

    def test_backend_monitor_requires_model(self, capsys):
        """The monitor backend is ``--model``: no flag repeats it."""
        code = main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue", "--backend", "monitor"]
        )
        assert code == 64
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_monitor_rejects_checkpoint(self, tmp_path, capsys):
        code = main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue",
             "--model", "queue",
             "--checkpoint", str(tmp_path / "ck.json")]
        )
        assert code == 64


class TestDumpTraces:
    def test_check_dumps_a_reloadable_trace(self, tmp_path, capsys):
        directory = str(tmp_path / "traces")
        code = main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue",
             "--dump-traces", directory, "--json"]
        )
        assert code == 0
        judged = json.loads(capsys.readouterr().out)["phase2"]["judged"]
        paths = dumped(directory)
        assert len(paths) == judged > 1
        for path in paths:
            trace = load_trace(path)
            assert trace.subject == "ConcurrentQueue(beta)"
            assert len(trace.histories[0].events) > 0
            assert trace.test is not None
            assert trace.live.outcome == "complete"

    def test_dumped_trace_monitors_clean_end_to_end(self, tmp_path, capsys):
        directory = str(tmp_path / "traces")
        main(
            ["check", "ConcurrentQueue",
             "--test", "Enqueue(1) | TryDequeue", "--model", "queue",
             "--dump-traces", directory]
        )
        capsys.readouterr()
        assert main(["monitor", *dumped(directory), "--model", "queue"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_failing_history_is_annotated(self, tmp_path, capsys):
        directory = str(tmp_path / "traces")
        code = main(
            ["check", "ConcurrentQueue", "--version", "pre", "--cause", "D",
             "--model", "queue", "--dump-traces", directory]
        )
        assert code == 1
        ends = [
            json.loads(open(path).read().splitlines()[-1])
            for path in dumped(directory)
        ]
        assert {"e": "end", "outcome": "complete", "verdict": "FAIL"} in ends

    def test_campaign_parser_accepts_dump_traces(self):
        # Regression: cmd_campaign reads args.dump_traces, so the campaign
        # subparser must define the option.
        args = build_parser().parse_args(
            ["campaign", "ConcurrentQueue", "--dump-traces", "/tmp/t"]
        )
        assert args.dump_traces == "/tmp/t"
