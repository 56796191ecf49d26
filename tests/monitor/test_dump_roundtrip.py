"""A ``--dump-traces`` dump round-trips: one file per judged history.

``check`` writes the history of every execution its judge ran on as a
finished recording, numbered by execution.  Loading a file back must
give that history event for event, with the same ``stuck`` and
``divergent``, and every judge must say of it what it said of the
original.  ``watch`` on a file of a complete dump says what ``monitor``
says; a dump that ended stuck is ``monitor``'s alone
(``test_cli_monitor.py``).
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import SystemUnderTest, check
from repro.cli import main, parse_test
from repro.core import checker as checker_module
from repro.core.budget import ExplorationBudget
from repro.core.checker import CheckConfig
from repro.core.checkpoint import Checkpointer, load_checkpoint, parse_check_state
from repro.core.history import History
from repro.monitor import DumpTraceWriter, get_model, load_trace, monitor_history
from repro.structures import get_class

from .conftest import call, ret
from .test_cli_monitor import dumped


def subject(class_name):
    entry = get_class(class_name)
    return SystemUnderTest(entry.factory("beta"), f"{entry.name}(beta)")


def check_and_load(monkeypatch, tmp_path, class_name, matrix):
    """Run ``check`` with a dump; return the result, what the judge saw
    (``(history, outcome, ok)`` in order), the judge, and the loaded
    dump files in execution order."""
    judged = []
    judges = []
    default_judge = checker_module._default_judge

    def recording_judge(cfg, observations, test):
        judge = default_judge(cfg, observations, test)
        judges.append(judge)

        def record(history, outcome):
            violation = judge(history, outcome)
            judged.append((history, outcome, violation is None))
            return violation

        return record

    monkeypatch.setattr(checker_module, "_default_judge", recording_judge)
    config = CheckConfig(dump_traces=str(tmp_path))
    result = check(subject(class_name), parse_test(matrix), config)
    traces = [load_trace(path) for path in dumped(tmp_path)]
    return result, judged, judges[0], traces


@pytest.mark.parametrize(
    "class_name, matrix, model, stuck",
    [
        ("ConcurrentQueue", "Enqueue(1) | TryDequeue", "queue", 0),
        # 7 of 33 executions are stuck; 3 of the 8 judged histories.
        ("SemaphoreSlim", "Wait | Wait; Release", None, 3),
    ],
)
def test_each_judged_history_round_trips(
    monkeypatch, tmp_path, class_name, matrix, model, stuck
):
    result, judged, judge, traces = check_and_load(
        monkeypatch, tmp_path, class_name, matrix
    )
    assert len(traces) == len(judged) == result.phase2_judged > 1
    for (history, outcome, ok), trace in zip(judged, traces):
        (loaded,) = trace.histories
        assert loaded.events == history.events
        assert (loaded.stuck, loaded.divergent) == (
            history.stuck, history.divergent
        )
        assert loaded == history
        assert (judge(loaded, outcome) is None) == ok
        if model is not None:
            queue = get_model(model)
            assert monitor_history(loaded, queue).ok == (
                monitor_history(history, queue).ok
            )
    assert sum(trace.histories[0].stuck for trace in traces) == stuck


def test_a_divergent_history_round_trips(tmp_path):
    history = History(
        [call(0, 0, "inc"), ret(0, 0), call(1, 0, "dec")],
        n_threads=2,
        stuck=True,
        divergent=True,
    )
    writer = DumpTraceWriter(str(tmp_path), "Counter", {}, sessions=2)
    writer.write(7, history)
    (path,) = dumped(tmp_path)
    assert path.endswith("7.trace.jsonl")
    trace = load_trace(path)
    assert trace.live.outcome == "divergent"
    (loaded,) = trace.histories
    assert loaded == history and loaded.divergent


@pytest.mark.parametrize(
    "flags, codes",
    [
        (["--test", "Enqueue(1) | TryDequeue"], {0}),
        (["--version", "pre", "--cause", "D", "--model", "queue"], {0, 1}),
    ],
)
def test_watch_gives_monitors_verdict_on_a_complete_dump(
    tmp_path, capsys, flags, codes
):
    main(["check", "ConcurrentQueue", *flags, "--dump-traces", str(tmp_path)])
    seen = set()
    for path in dumped(tmp_path):
        code = main(["monitor", path, "--model", "queue"])
        assert main(["watch", path, "--model", "queue"]) == code
        seen.add(code)
    assert seen == codes
    capsys.readouterr()


def test_a_resumed_check_continues_the_numbering(tmp_path):
    test = parse_test("Enqueue(1) | TryDequeue")
    whole = check(subject("ConcurrentQueue"), test,
                  CheckConfig(dump_traces=str(tmp_path / "whole")))
    # Trip the budget a few executions into phase 2, then resume.
    checkpoint = str(tmp_path / "ck.json")
    config = CheckConfig(
        dump_traces=str(tmp_path / "resumed"),
        budget=ExplorationBudget(max_executions=whole.phase1.executions + 5),
    )
    interrupted = check(subject("ConcurrentQueue"), test, config,
                        checkpointer=Checkpointer(checkpoint, every_executions=1))
    assert interrupted.exhausted and interrupted.phase2_executions > 0
    _test, saved, resume = parse_check_state(load_checkpoint(checkpoint))
    resumed = check(subject("ConcurrentQueue"), test,
                    replace(saved, budget=None), resume=resume)
    assert resumed.phase2_executions == whole.phase2_executions
    # The PASS memo is not checkpointed, so the second session judges
    # again some histories the first one passed: a superset of the files.
    texts = [
        {os.path.basename(path): open(path).read() for path in dumped(tmp_path / name)}
        for name in ("whole", "resumed")
    ]
    assert len(texts[1]) == resumed.phase2_judged > len(texts[0])
    assert texts[0].items() <= texts[1].items()
