"""CLI robustness: deadlines, checkpoints, resume, graceful shutdown.

The SIGTERM test is the acceptance scenario of the resilient-exploration
work: a campaign killed mid-flight must leave a valid checkpoint, exit
with code 130, and a ``resume`` must reach the same per-row statistics an
uninterrupted run produces.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Row fields that are deterministic (times are not).
STABLE_ROW_FIELDS = (
    "class_name",
    "version",
    "methods",
    "tests_run",
    "tests_passed",
    "tests_failed",
    "histories_avg",
    "histories_max",
    "stuck_tests",
    "causes_found",
    "min_dimensions",
)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _run_cli(args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_cli_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _stable_rows(checkpoint_path):
    with open(checkpoint_path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [
        {field: row.get(field) for field in STABLE_ROW_FIELDS}
        for row in document["finished_rows"]
    ]


class TestDeadlineAndResume:
    def test_deadline_exhausts_with_exit_2_and_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        code = main(
            [
                "check", "ConcurrentQueue",
                "--test", "Enqueue(10); TryDequeue | Enqueue(20); TryDequeue",
                "--deadline", "0.001", "--checkpoint", path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "EXHAUSTED" in out
        assert "resume" in out
        assert os.path.exists(path)

    def test_resume_completes_the_exhausted_check(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        assert main(
            [
                "check", "ConcurrentQueue",
                "--test", "Enqueue(10) | TryDequeue",
                "--deadline", "0.001", "--checkpoint", path,
            ]
        ) == 2
        capsys.readouterr()
        code = main(["resume", path, "--deadline", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out

    def test_resume_without_fresh_deadline_honours_total_budget(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "ck.json")
        assert main(
            [
                "check", "ConcurrentQueue",
                "--test", "Enqueue(10) | TryDequeue",
                "--deadline", "0.001", "--checkpoint", path,
            ]
        ) == 2
        capsys.readouterr()
        # The original 1 ms wall-clock budget is already spent.
        assert main(["resume", path]) == 2

    def test_nonpositive_deadline_is_usage_error(self, capsys):
        code = main(
            ["check", "ConcurrentQueue", "--test", "Enqueue(1)", "--deadline", "0"]
        )
        assert code == 64

    def test_resume_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.json")]) == 64
        assert "error" in capsys.readouterr().err

    def test_resume_corrupt_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        path.write_text('{"format": "lineup-checkpoint", "ver')
        assert main(["resume", str(path)]) == 64


class TestNumericFlags:
    """Numeric flags are checked by the parser: a bad value is a usage
    error naming the flag, never a traceback (exit 1 means a violation)
    and never a verdict over nothing."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["watch", "TRACE", "--follow", "--poll-interval", "-1"],
             "--poll-interval"),
            (["check", "ConcurrentQueue", "--test", "Enqueue(1)",
              "--watchdog", "-1"], "--watchdog"),
            (["campaign", "ConcurrentQueue", "--samples", "-1"], "--samples"),
            (["check", "ConcurrentQueue", "--test", "Enqueue(1)|TryDequeue",
              "--max-executions", "-3"], "--max-executions"),
        ],
        ids=["poll-interval", "watchdog", "samples", "max-executions"],
    )
    def test_an_out_of_range_value_is_a_usage_error(
        self, argv, flag, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert f"argument {flag}: must be" in captured.err
        assert "verdict" not in captured.out

    def test_a_negative_preemption_bound_still_means_unbounded(self, capsys):
        def phase2(*flags):
            argv = ["check", "ConcurrentQueue", "--test",
                    "Enqueue(1); TryDequeue | TryDequeue", "--json", *flags]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["phase2"]

        bounded, unbounded = phase2(), phase2("--preemption-bound", "-1")
        assert unbounded["complete"]
        assert unbounded["executions"] > bounded["executions"]


class TestSwarmResume:
    def test_a_stopped_sharded_check_resumes_to_the_single_process_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        """``resume`` of a ``check --shards`` checkpoint: the gate test,
        stopped once its shards are planned (the stop flag reads the
        shard files off disk, so no lease ever finishes first), resumed
        to the exact schedules and classes of one process."""
        from repro.command import SignalStop

        checkpoint = str(tmp_path / "swarm.json")
        with monkeypatch.context() as patch:
            patch.setattr(
                SignalStop, "__call__",
                lambda self: os.path.exists(checkpoint + ".shard-0.json"),
            )
            code = main(
                ["check", "ConcurrentQueue",
                 "--test", "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue",
                 "--shards", "2", "--workers", "2", "--checkpoint", checkpoint]
            )
        out = capsys.readouterr().out
        assert code == 130 and "incomplete: interrupted" in out
        assert main(["resume", checkpoint, "--deadline", "60"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert re.search(r"phase 2: 3747 schedules across \d+ shards", out)
        assert "classes: 1446 distinct" in out


BUFFER = [
    "BoundedBuffer", "--provider", "repro.exec.faults", "--version", "beta",
    "--test", "Put(1); Take | TryTake",
]


class TestOneWayBackIn:
    """``resume`` re-enters the command that wrote the checkpoint."""

    def test_a_provider_check_resumes_as_its_own_class(
        self, tmp_path, capsys, monkeypatch
    ):
        """The checkpoint names the provider module, so the resume finds
        the fault provider's BoundedBuffer (not in the default registry)
        and ends at the counts of an uninterrupted run."""
        from repro.command import SignalStop

        checkpoint = str(tmp_path / "ck.json")
        polls = []
        with monkeypatch.context() as patch:
            # Interrupt once phase 2 has started (phase 1 runs 3 executions).
            patch.setattr(
                SignalStop, "__call__",
                lambda self: polls.append(1) or len(polls) > 10,
            )
            code = main(["check", *BUFFER, "--checkpoint", checkpoint])
        assert code == 130
        document = json.loads(Path(checkpoint).read_text())
        assert document["phase"] == "phase2"
        assert document["subject"] == {
            "cls": "BoundedBuffer", "version": "beta",
            "provider": "repro.exec.faults",
        }
        capsys.readouterr()
        assert main(["resume", checkpoint]) == 0
        out = capsys.readouterr().out
        assert "Resuming check of BoundedBuffer(beta)" in out
        assert "phase 2: 51 concurrent executions (25 full, 26 stuck)" in out

    def test_a_sharded_check_stopped_in_phase_1_names_no_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        """The swarm writes nothing before its shards are planned, so no
        resume command is printed for a file that does not exist."""
        from repro.command import SignalStop

        checkpoint = str(tmp_path / "swarm.json")
        with monkeypatch.context() as patch:
            patch.setattr(SignalStop, "__call__", lambda self: True)
            code = main(
                ["check", *BUFFER, "--shards", "2", "--checkpoint", checkpoint]
            )
        out = capsys.readouterr().out
        assert code == 130 and "incomplete: interrupted" in out
        assert not os.path.exists(checkpoint)
        assert "resume" not in out

    def test_a_shard_result_file_names_what_to_resume(self, tmp_path, capsys):
        import shutil

        fixtures = REPO_ROOT / "tests" / "fixtures" / "checkpoints" / "swarm"
        shutil.copytree(fixtures, tmp_path / "swarm")
        shard = str(tmp_path / "swarm" / "swarm.json.shard-0.json")
        assert main(["resume", shard]) == 64
        err = capsys.readouterr().err
        assert "swarm shard-result file" in err
        assert "resume the swarm checkpoint" in err
        assert "checkpoint.json" in err and "subject info" not in err


class TestJsonIsOneDocument:
    """A stopped ``--json`` run names its resume command on stderr, so
    stdout stays one JSON document."""

    def test_a_stopped_check(self, tmp_path, capsys, monkeypatch):
        from repro.command import SignalStop

        checkpoint = str(tmp_path / "ck.json")
        polls = []
        with monkeypatch.context() as patch:
            patch.setattr(
                SignalStop, "__call__",
                lambda self: polls.append(1) or len(polls) > 10,
            )
            code = main(
                ["check", "ConcurrentQueue", "--test",
                 "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue",
                 "--strategy", "random", "--checkpoint", checkpoint, "--json"]
            )
        captured = capsys.readouterr()
        assert code == 130
        assert json.loads(captured.out)["verdict"] == "EXHAUSTED"
        assert f"continue with: python -m repro resume {checkpoint}" in captured.err

    def test_a_stopped_sharded_check(self, tmp_path, capsys, monkeypatch):
        from repro.command import SignalStop

        checkpoint = str(tmp_path / "swarm.json")
        with monkeypatch.context() as patch:
            patch.setattr(
                SignalStop, "__call__",
                lambda self: os.path.exists(checkpoint + ".shard-0.json"),
            )
            code = main(
                ["check", *BUFFER, "--shards", "2", "--checkpoint", checkpoint,
                 "--json"]
            )
        captured = capsys.readouterr()
        assert code == 130
        assert json.loads(captured.out)["verdict"] == "EXHAUSTED"
        assert f"continue with: python -m repro resume {checkpoint}" in captured.err


class TestRetiredGeneration:
    """Coverage-guided generation left the tool (EXPERIMENTS.md,
    "Detection count"): its checkpoints, its command and its campaign
    flags are each refused by name, in one line, with exit 64."""

    def test_a_generation_checkpoint_is_refused_by_name(self, tmp_path, capsys):
        from repro.core.checkpoint import FORMAT, VERSION

        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "format": FORMAT, "version": VERSION, "kind": "generate",
            "subject": {"cls": "Lazy", "version": "pre", "provider": None},
            "generate": {"budget": 300, "seed": 1}, "meter": None,
        }))
        assert main(["resume", str(path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "generation is retired" in captured.err
        assert "'campaign CLASS'" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "Lazy", "--version", "pre", "--budget", "300"],
            ["campaign", "Lazy", "--versions", "pre", "--generate"],
            ["campaign", "Lazy", "--versions", "pre", "--budget", "300"],
        ],
        ids=["generate", "campaign-generate", "campaign-budget"],
    )
    def test_the_generation_commands_are_usage_errors(self, argv, capsys):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: repro")


class TestClosedStdout:
    """A reader that stops early (``list -v | head -2``) ends the output,
    not the run: no traceback, and the exit code is the verdict's."""

    def test_a_closed_pipe_leaves_stderr_empty(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list", "-v"],
            env=_cli_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the child writes: its first write fails
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


class TestShardCount:
    def test_header_and_report_name_the_same_shards(self, capsys):
        """One requested shard on two workers: work stealing re-splits it
        onto the idle worker, and both lines say one shard, the report
        adding the re-split."""
        assert main(
            ["check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue",
             "--shards", "1", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Checking ConcurrentQueue(beta) across 1 shard on:" in out
        assert re.search(
            r"^phase 2: 53 schedules across 1 shard \+ 1 re-split \(2 leases\)",
            out, re.M,
        )
        assert len(re.findall(r"^  shard \d+: PASS", out, re.M)) == 2


class TestGracefulShutdown:
    CAMPAIGN_ARGS = [
        "campaign", "all", "--versions", "beta",
        "--samples", "2", "--rows", "2", "--cols", "3",
        "--schedules", "80", "--seed", "7",
    ]

    @pytest.mark.skipif(
        sys.platform == "win32", reason="POSIX signals required"
    )
    def test_sigterm_checkpoint_resume_matches_uninterrupted_run(self, tmp_path):
        interrupted_ck = str(tmp_path / "interrupted.json")
        reference_ck = str(tmp_path / "reference.json")

        # Uninterrupted reference run.
        reference = _run_cli(self.CAMPAIGN_ARGS + ["--checkpoint", reference_ck])
        assert reference.returncode == 1, reference.stdout + reference.stderr

        # Interrupted run: SIGTERM as soon as the first checkpoint lands.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CAMPAIGN_ARGS,
             "--checkpoint", interrupted_ck],
            env=_cli_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 120
        while not os.path.exists(interrupted_ck):
            assert proc.poll() is None, proc.stdout.read()
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=120)
        if proc.returncode != 130:
            # The campaign won the race and finished before the signal
            # landed; the graceful-shutdown path was not exercised.
            pytest.skip(f"campaign finished before SIGTERM (exit {proc.returncode})")
        assert "partial" in output

        with open(interrupted_ck, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["kind"] == "campaign"
        assert len(document["finished_rows"]) < len(document["plan"])

        # Resume must complete the plan and agree with the reference row
        # for row (times excluded — they are the one nondeterministic bit).
        resumed = _run_cli(["resume", interrupted_ck])
        assert resumed.returncode == 1, resumed.stdout + resumed.stderr
        assert _stable_rows(interrupted_ck) == _stable_rows(reference_ck)


class TestExitCodeContract:
    """The exit-code tables in the docs are pinned to the single source.

    ``repro.cli.EXIT_CODE_MEANINGS`` is the contract; README.md and
    docs/ROBUSTNESS.md each carry a human-facing table of it.  These
    tests fail whenever a code is added, removed or renumbered in one
    place without the others following — the drift guard promised by
    the comment on ``EXIT_CODE_MEANINGS``.
    """

    @staticmethod
    def _doc_table(path):
        """Parse ``| `CODE` | meaning |`` rows following an exit-code header."""
        text = (REPO_ROOT / path).read_text(encoding="utf-8")
        rows = {}
        in_table = False
        for line in text.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].lower() == "exit code":
                in_table = True
                continue
            if in_table:
                if len(cells) != 2 or set(cells[0]) <= {"-"}:
                    if cells == [""] or len(cells) != 2:
                        in_table = False
                    continue
                code = cells[0].strip("`")
                if code.isdigit():
                    rows[int(code)] = cells[1]
        return rows

    def test_readme_table_matches_exactly(self):
        from repro.cli import EXIT_CODE_MEANINGS

        table = self._doc_table("README.md")
        assert table == EXIT_CODE_MEANINGS

    def test_robustness_table_covers_every_code(self):
        from repro.cli import EXIT_CODE_MEANINGS

        table = self._doc_table("docs/ROBUSTNESS.md")
        assert set(table) == set(EXIT_CODE_MEANINGS)
        # ROBUSTNESS.md elaborates each meaning rather than quoting it,
        # so pin the canonical vocabulary instead of the exact string:
        # every significant word of the canonical meaning must survive.
        for code, meaning in EXIT_CODE_MEANINGS.items():
            doc_row = table[code].lower()
            for word in re.findall(r"[A-Za-z]{4,}", meaning):
                assert word.lower() in doc_row, (
                    f"docs/ROBUSTNESS.md row for exit {code} lost the word "
                    f"{word!r} from the canonical meaning {meaning!r}"
                )

    def test_help_epilog_lists_every_code(self):
        from repro.cli import EXIT_CODE_MEANINGS, _EXIT_CODE_HELP

        for code, meaning in EXIT_CODE_MEANINGS.items():
            assert f"{code} = {meaning}" in _EXIT_CODE_HELP
