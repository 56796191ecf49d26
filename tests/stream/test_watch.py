"""watch_trace / watch_sharded / the ``lineup watch`` subcommand."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.cli import (
    EXIT_FAIL,
    EXIT_LAGGED,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from repro.core.events import Invocation, Response
from repro.monitor import get_model
from repro.monitor import trace as trace_module
from repro.monitor.trace import LiveTraceWriter, TraceError
from repro.stream import (
    StreamChecker,
    TraceTailer,
    WatchConfig,
    watch_sharded,
    watch_trace,
)
from repro.stream.stats import StatsEmitter
from repro.stream.watch import _feed_pass

from .test_tail import swap_after_next_stat


def ok(value=None) -> Response:
    return Response("ok", value)


def write_register_trace(path, fail=False, finalize="drained"):
    writer = LiveTraceWriter(path, sessions=2, model="register")
    writer.record_call(0, 0, Invocation("write", (1,)), 0.0)
    writer.record_return(0, 0, ok(None), 0.1)
    writer.record_call(1, 0, Invocation("read", ()), 0.2)
    writer.record_return(1, 0, ok(9 if fail else 1), 0.3)
    if finalize:
        writer.finalize(finalize, 0.4)
    else:
        writer.close()
    return path


class TestWatchTrace:
    def test_finished_trace_passes(self, tmp_path):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        result = watch_trace(path, get_model("register"))
        assert result.verdict == "PASS"
        assert result.finalized and result.outcome == "drained"
        assert result.stats["maxrss_kb"] > 0
        assert result.events_per_sec > 0

    def test_finished_trace_fails_with_counterexample(self, tmp_path):
        path = write_register_trace(str(tmp_path / "t.jsonl"), fail=True)
        result = watch_trace(path, get_model("register"))
        assert result.verdict == "FAIL"
        assert result.counterexample

    def test_missing_file_without_follow_raises(self, tmp_path):
        with pytest.raises(TraceError, match="no such trace"):
            watch_trace(str(tmp_path / "nope.jsonl"), get_model("register"))

    def test_follow_never_created_file_raises_not_passes(self, tmp_path):
        # A typo'd path must not idle-timeout into a 0-event PASS.
        with pytest.raises(TraceError, match="no such trace"):
            watch_trace(
                str(tmp_path / "nope.jsonl"),
                get_model("register"),
                WatchConfig(follow=True, idle_timeout=0.1, poll_interval=0.02),
            )

    def test_unfinalized_trace_reports_not_finalized(self, tmp_path):
        path = write_register_trace(str(tmp_path / "t.jsonl"), finalize=None)
        result = watch_trace(path, get_model("register"))
        assert result.verdict == "PASS"
        assert not result.finalized and result.outcome is None

    def test_follow_consumes_concurrent_writer(self, tmp_path):
        path = str(tmp_path / "t.jsonl")

        def write_slowly():
            writer = LiveTraceWriter(path, sessions=1, model="counter")
            for i in range(20):
                writer.record_call(0, i, Invocation("inc", ()), float(i))
                time.sleep(0.005)
                writer.record_return(0, i, ok(None), float(i) + 0.5)
            writer.finalize("drained", 99.0)

        thread = threading.Thread(target=write_slowly)
        thread.start()
        try:
            result = watch_trace(
                path,
                get_model("counter"),
                WatchConfig(follow=True, idle_timeout=10.0, poll_interval=0.01),
            )
        finally:
            thread.join()
        assert result.verdict == "PASS"
        assert result.finalized
        assert result.stats["retired"] == 20

    def test_follow_online_fail_stops_before_end_marker(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        barrier = threading.Event()

        def write_buggy():
            writer = LiveTraceWriter(path, sessions=2, model="register")
            writer.record_call(0, 0, Invocation("write", (1,)), 0.0)
            writer.record_return(0, 0, ok(None), 0.1)
            writer.record_call(1, 0, Invocation("read", ()), 0.2)
            writer.record_return(1, 0, ok(7), 0.3)  # impossible
            barrier.wait(10.0)  # end marker only after the watcher verdict
            writer.finalize("drained", 1.0)

        thread = threading.Thread(target=write_buggy)
        thread.start()
        try:
            result = watch_trace(
                path,
                get_model("register"),
                WatchConfig(follow=True, idle_timeout=10.0, poll_interval=0.01),
            )
        finally:
            barrier.set()
            thread.join()
        assert result.verdict == "FAIL"
        assert not result.finalized  # the FAIL beat the end marker

    def test_follow_idle_timeout_on_dead_writer(self, tmp_path):
        # A writer that crashed mid-record: torn tail, no end marker.
        path = str(tmp_path / "t.jsonl")
        write_register_trace(path, finalize=None)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"e": "c", "t": 5')  # torn
        result = watch_trace(
            path,
            get_model("register"),
            WatchConfig(follow=True, idle_timeout=0.2, poll_interval=0.02),
        )
        assert result.verdict == "PASS"
        assert result.torn and not result.finalized

    def test_lag_budget_exceeded_is_lagged(self, tmp_path):
        path = write_register_trace(str(tmp_path / "t.jsonl"), finalize=None)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"e": "c", "t": 5')  # permanent torn backlog
        result = watch_trace(
            path,
            get_model("register"),
            WatchConfig(follow=True, lag_budget=0.1, poll_interval=0.02),
        )
        assert result.verdict == "LAGGED"
        assert result.lag_exceeded

    def test_truncation_restarts_from_zero(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        # A long unfinalized prefix, so the rewrite genuinely shrinks the
        # file past the watcher's consumed offset.
        writer = LiveTraceWriter(path, sessions=1, model="register")
        for i in range(200):
            writer.record_call(0, i, Invocation("write", (i,)), 0.0)
            writer.record_return(0, i, ok(None), 0.0)
        writer.close()

        def truncate_then_rewrite():
            time.sleep(0.1)
            write_register_trace(path)  # reopens with "w": truncation

        thread = threading.Thread(target=truncate_then_rewrite)
        thread.start()
        try:
            result = watch_trace(
                path,
                get_model("register"),
                WatchConfig(follow=True, idle_timeout=5.0, poll_interval=0.02),
            )
        finally:
            thread.join()
        assert result.restarts >= 1
        assert result.verdict == "PASS" and result.finalized

    def test_rotation_restarts_from_zero(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_register_trace(path, finalize=None)

        def rotate():
            time.sleep(0.1)
            os.rename(path, path + ".old")
            write_register_trace(path)

        thread = threading.Thread(target=rotate)
        thread.start()
        try:
            result = watch_trace(
                path,
                get_model("register"),
                WatchConfig(follow=True, idle_timeout=5.0, poll_interval=0.02),
            )
        finally:
            thread.join()
        assert result.restarts >= 1
        assert result.verdict == "PASS" and result.finalized

    def test_rotation_between_the_stat_and_the_read_restarts(
        self, tmp_path, monkeypatch
    ):
        # Pass 1 drains an unfinalized PASS prefix; the file is rotated
        # while pass 2 is looking at it.  The watcher must neither choke
        # on the new file read from the old offset nor keep the old
        # verdict: it restarts and reports what the new file says.
        path = write_register_trace(str(tmp_path / "t.jsonl"), finalize=None)
        replacement = write_register_trace(str(tmp_path / "new.jsonl"), fail=True)
        with open(replacement, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        swap_after_next_stat(monkeypatch, path, *lines, skip=1, calls=("fstat",))
        result = watch_trace(
            path,
            get_model("register"),
            WatchConfig(follow=True, idle_timeout=5.0, poll_interval=0.01),
        )
        assert result.restarts == 1
        assert result.verdict == "FAIL" and result.counterexample
        # A fresh checker read the new file from its first byte.
        assert result.stats["events"] == 5 and result.stats["returns"] == 2

    def test_stats_show_the_backlog_draining(self, tmp_path, monkeypatch):
        # One record per block while a long file is caught up on, not one
        # at the end.
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        monkeypatch.setattr(trace_module, "READ_BLOCK_BYTES", 96)
        blocks = -(-os.path.getsize(path) // 96)
        assert blocks >= 4
        stats_path = str(tmp_path / "stats.jsonl")
        result = watch_trace(
            path,
            get_model("register"),
            WatchConfig(stats_out=stats_path, stats_interval=0.0),
        )
        with open(stats_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) >= blocks
        backlogs = [record["backlog_bytes"] for record in records]
        assert backlogs == sorted(backlogs, reverse=True)
        assert backlogs[0] > 0 and backlogs[-1] == 0
        events = [record["events"] for record in records]
        assert events == sorted(events) and events[0] < events[-1]
        # The final record is the end-of-session one, as before.
        final = records[-1]
        assert final["events"] == result.stats["events"] == 6
        assert final["verdict"] == "PASS" and final["finalized"]

    def test_early_fail_reads_a_prefix_not_the_file(self, tmp_path):
        # A violation at operation 51 of 20 000: reading stops within one
        # block of the failing line, with the verdict and counterexample
        # the same file gives when it ends right after that line.
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(
            path, sessions=1, model="register", flush_every_n=4096
        )
        for i in range(10_000):
            writer.record_call(0, 2 * i, Invocation("write", (i,)), 0.0)
            writer.record_return(0, 2 * i, ok(None), 0.0)
            writer.record_call(0, 2 * i + 1, Invocation("read", ()), 0.0)
            writer.record_return(0, 2 * i + 1, ok(-1 if i == 25 else i), 0.0)
        writer.finalize("drained", 1.0)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        failing_line = 1 + 4 * 25 + 4  # header, 25 clean rounds, the bad read
        end_of_failing_line = sum(map(len, lines[:failing_line]))

        tailer = TraceTailer(path)
        checker = StreamChecker(get_model("register"))
        assert _feed_pass(tailer, checker, StatsEmitter(None)) == (True, True)
        assert checker.counters.events == failing_line
        assert (
            end_of_failing_line
            <= tailer.offset
            <= end_of_failing_line + trace_module.READ_BLOCK_BYTES
        )
        assert tailer.offset < os.path.getsize(path) / 10

        result = watch_trace(path, get_model("register"))
        prefix = str(tmp_path / "prefix.jsonl")
        with open(prefix, "wb") as handle:
            handle.writelines(lines[:failing_line])
        short = watch_trace(prefix, get_model("register"))
        assert result.verdict == short.verdict == "FAIL"
        assert result.counterexample == short.counterexample
        assert result.stats["events"] == short.stats["events"] == failing_line
        assert not result.finalized

    def test_global_op_restarts_unpartitioned(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=2, model="dict")
        writer.record_call(0, 0, Invocation("TryAdd", ("a",)), 0.0)
        writer.record_return(0, 0, ok(True), 0.1)
        writer.record_call(1, 0, Invocation("Count", ()), 0.2)
        writer.record_return(1, 0, ok(1), 0.3)
        writer.finalize("drained", 0.4)
        result = watch_trace(path, get_model("dict"))
        assert result.verdict == "PASS"
        assert result.restarts == 1
        assert not result.partitioned

    def test_stats_rate_never_negative_across_a_restart(self, tmp_path):
        # 3 000 keyed operations, then a global Count: the watch restarts
        # unpartitioned with a fresh checker, whose event count starts
        # from zero again — and so must the rate's baseline.
        path = str(tmp_path / "t.jsonl")
        model = get_model("dict")
        state = model.initial_state()
        writer = LiveTraceWriter(
            path, sessions=4, model="dict", flush_every_n=4096
        )
        methods = ("TryAdd", "ContainsKey", "TryRemove", "TryGetValue")
        for n in range(3_000):
            invocation = Invocation(methods[n % 4], (f"k{n % 64:02d}",))
            state, response = model.apply(state, invocation)
            writer.record_call(n % 4, n // 4, invocation, float(n))
            writer.record_return(n % 4, n // 4, response, float(n))
        _, response = model.apply(state, Invocation("Count", ()))
        writer.record_call(0, 750, Invocation("Count", ()), 3000.0)
        writer.record_return(0, 750, response, 3000.0)
        writer.finalize("drained", 3001.0)
        stats_path = str(tmp_path / "stats.jsonl")
        result = watch_trace(
            path, model, WatchConfig(stats_out=stats_path, stats_interval=0.0)
        )
        assert result.verdict == "PASS" and result.restarts == 1
        with open(stats_path, encoding="utf-8") as handle:
            rates = [json.loads(line)["ingested_per_sec"] for line in handle]
        assert len(rates) > 2
        assert all(rate >= 0 for rate in rates), rates

    def test_stats_out_written(self, tmp_path):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        stats_path = str(tmp_path / "stats.jsonl")
        watch_trace(
            path,
            get_model("register"),
            WatchConfig(stats_out=stats_path),
        )
        lines = [
            json.loads(line)
            for line in open(stats_path, encoding="utf-8")
            if line.strip()
        ]
        assert lines  # at least the final sample
        sample = lines[-1]
        for key in ("ts", "shard", "ingested_per_sec", "maxrss_kb",
                    "frontier", "retired", "verdict"):
            assert key in sample


class TestWatchSharded:
    def write_dict_trace(self, path, keys=6, rounds=5, fail_key=None):
        writer = LiveTraceWriter(path, sessions=keys, model="dict")
        for rnd in range(rounds):
            for k in range(keys):
                op = rnd * 2
                writer.record_call(
                    k, op, Invocation("TryAdd", (f"k{k}",)), 0.0
                )
                writer.record_return(k, op, ok(rnd == 0), 0.0)
                key = f"k{k}"
                expect = True
                if fail_key == key and rnd == rounds - 1:
                    expect = False  # impossible: the key is present
                writer.record_call(
                    k, op + 1, Invocation("ContainsKey", (key,)), 0.0
                )
                writer.record_return(k, op + 1, ok(expect), 0.0)
        writer.finalize("drained", 1.0)

    def test_sharded_pass(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self.write_dict_trace(path)
        result = watch_sharded(
            path, "dict", WatchConfig(shards=2), workers=2
        )
        assert result.verdict == "PASS"
        assert result.finalized
        assert len(result.shard_results) == 2
        assert result.stats["cells"] == 6

    def test_sharded_fail_carries_counterexample(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self.write_dict_trace(path, fail_key="k1")
        result = watch_sharded(
            path, "dict", WatchConfig(shards=2), workers=2
        )
        assert result.verdict == "FAIL"
        assert result.counterexample

    def test_sharded_global_op_falls_back_unpartitioned(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = LiveTraceWriter(path, sessions=2, model="dict")
        writer.record_call(0, 0, Invocation("TryAdd", ("a",)), 0.0)
        writer.record_return(0, 0, ok(True), 0.1)
        writer.record_call(1, 0, Invocation("Count", ()), 0.2)
        writer.record_return(1, 0, ok(1), 0.3)
        writer.finalize("drained", 0.4)
        result = watch_sharded(
            path, "dict", WatchConfig(shards=2), workers=2
        )
        assert result.verdict == "PASS"
        assert not result.partitioned  # the in-process fallback ran
        assert any(
            r.get("verdict") == "UNSOUND-PARTITION"
            for r in result.shard_results
        )


class TestWatchCli:
    def test_watch_pass_exit_zero(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        code = main(["watch", path, "--model", "register"])
        assert code == EXIT_PASS
        assert "PASS" in capsys.readouterr().out

    def test_watch_fail_exit_one(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"), fail=True)
        code = main(["watch", path, "--model", "register"])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out and "no linearization" in out

    def test_watch_defaults_model_from_header(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        code = main(["watch", path])
        assert code == EXIT_PASS
        assert "register" in capsys.readouterr().out

    def test_monitor_defaults_model_like_watch(self, tmp_path, capsys):
        # The two commands that check the same file take the same arguments.
        path = write_register_trace(str(tmp_path / "t.jsonl"), fail=True)
        assert main(["monitor", path]) == main(["watch", path]) == EXIT_FAIL
        assert "model 'register'" in capsys.readouterr().out
        # An explicit --model still wins over the header's.
        assert main(["monitor", path, "--model", "nonsense"]) == EXIT_USAGE

    def test_monitor_without_a_header_model_needs_the_flag(
        self, tmp_path, capsys
    ):
        from repro.monitor import TraceWriter

        path = str(tmp_path / "v1.jsonl")
        TraceWriter(path, n_threads=1).close()
        assert main(["monitor", path]) == main(["watch", path]) == EXIT_USAGE
        assert "--model NAME is required" in capsys.readouterr().err

    def test_watch_json_output(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        code = main(["watch", path, "--json"])
        assert code == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PASS"
        assert payload["model"] == "register"
        assert payload["stats"]["events"] > 0

    def test_watch_lagged_exit_code(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"), finalize=None)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"e": "c"')  # permanent torn backlog
        code = main(
            [
                "watch", path, "--model", "register",
                "--follow", "--lag-budget", "0.1",
                "--poll-interval", "0.02",
            ]
        )
        assert code == EXIT_LAGGED
        assert "LAGGED" in capsys.readouterr().out

    def test_watch_unknown_model_usage_error(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        code = main(["watch", path, "--model", "nonsense"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, invocation",
        [
            # Raised by the step, at the return; by partition_key, at the call.
            (["watch"], Invocation("Frob", ("k0",))),
            (["watch"], Invocation("TryAdd", ())),
            (["watch", "--shards", "2"], Invocation("Frob", ("k0",))),
            (["watch", "--shards", "2"], Invocation("TryAdd", ())),
            (["monitor"], Invocation("Frob", ("k0",))),
            (["monitor"], Invocation("TryAdd", ())),
            (
                ["check", "ConcurrentQueue", "--backend", "monitor",
                 "--model", "register", "--test"],
                Invocation("Enqueue", (1,)),
            ),
        ],
    )
    def test_a_model_that_cannot_read_the_input_is_a_usage_error(
        self, command, invocation, tmp_path, capsys
    ):
        # Not a FAIL (exit 1, which an uncaught ModelError used to give),
        # and not a CRASHED shard: one line naming the operation.
        if command[0] == "check":
            argv = command + [f"{invocation} | TryDequeue"]
        else:
            path = str(tmp_path / "t.jsonl")
            writer = LiveTraceWriter(path, sessions=2, model="dict")
            writer.record_call(0, 0, Invocation("TryAdd", ("k1",)), 0.0)
            writer.record_return(0, 0, ok(True), 0.1)
            writer.record_call(1, 0, invocation, 0.2)
            writer.record_return(1, 0, ok(True), 0.3)
            writer.finalize("drained", 0.4)
            argv = [command[0], path, *command[1:]]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"does not understand {invocation}" in err
        if command[0] == "watch":
            line = b'{"e":"r","t":1' if invocation.args else b'{"e":"c","t":1'
            with open(path, "rb") as handle:
                offset = handle.read().index(line)
            assert f"{path!r} at byte offset {offset}:" in err

    def test_watch_missing_model_and_header_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        code = main(["watch", path])
        assert code == EXIT_USAGE

    def test_watch_shards_on_unpartitionable_model_usage_error(
        self, tmp_path, capsys
    ):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        code = main(["watch", path, "--model", "register", "--shards", "2"])
        assert code == EXIT_USAGE

    def test_watch_stats_out(self, tmp_path, capsys):
        path = write_register_trace(str(tmp_path / "t.jsonl"))
        stats_path = str(tmp_path / "stats.jsonl")
        code = main(
            ["watch", path, "--model", "register", "--stats-out", stats_path]
        )
        assert code == EXIT_PASS
        assert os.path.exists(stats_path)
