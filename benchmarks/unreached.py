"""List the ``src/repro`` functions that no product drive reaches.

Runs this script's own drives — ``DRIVES``, modelled on the command-line
smoke steps of ``.github/workflows/ci.yml``, and every ``examples/*.py`` —
each in a fresh interpreter under a ``sys.settrace`` call hook, then lists
every function of ``src/repro`` whose code never ran in any of them.
``DRIVES`` is not a copy of CI's steps: it runs one buggy live seed where
CI loops over four, and runs the live recorders and ``watch --follow`` one
after the other with a short idle timeout.  ``tests/core/test_unreached.py``
keeps it in step with CI's subcommands, classes and options.

The hook is a ``sitecustomize`` module this script writes to a scratch
directory put first on ``PYTHONPATH``, so every interpreter a drive
starts records what it calls: the CLI itself, spawned workers, and forked
workers (which leave through ``os._exit``, so the hook records there as
well as at exit, and on a SIGTERM nobody else handles).  A process that
is SIGKILLed records nothing; the live reference SUT of the ``kill``
chaos drive is one.

Every unreached function must be one of three things.  A product path
with no drive gets a drive here and a CI step.  Code no product path
needs is deleted, or moved under ``tests/`` when a test uses it as a
reference.  What a deterministic drive cannot reach, or must not remove,
is named in ``JUSTIFIED`` with its reason, whose first word is its class
(``CLASSES``): safety code, a reference tests compare against, the
porting API of docs/PORTING.md, or what ``perfbench/`` builds by name.
The report lists the justified entries apart from the rest.

Usage::

    PYTHONPATH=src python benchmarks/unreached.py [--out unreached.txt]

Exits 1 when a drive fails or times out, or when an unreached function
is not in ``JUSTIFIED``; the list is written either way.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

GATE = "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue"
QUEUE_3X3 = (
    "Enqueue(1); TryDequeue; Enqueue(2) | TryDequeue; Enqueue(3); TryDequeue"
    " | Enqueue(4); TryDequeue; TryDequeue"
)
BUFFER = [
    "BoundedBuffer", "--provider", "repro.exec.faults", "--version", "beta",
    "--test", "Put(1); Take | TryTake",
]
LAZY_CAMPAIGN = [
    "campaign", "Lazy", "--versions", "pre", "--samples", "4", "--rows", "2",
    "--cols", "2", "--schedules", "60", "--seed", "5",
]
#: The coop engine end to end: a seeded bug found on it, in process
#: and on workers.
COOP_CAMPAIGN = [
    "campaign", "Lazy", "--versions", "pre", "--engine", "coop", "--samples", "1",
    "--seed", "1",
]
LIVE = ["live", "--model", "counter", "--sessions", "4"]
#: perfbench's trace generator, as CI's stream steps call it.
GEN_TRACES = (
    "import sys; sys.path.insert(0, sys.argv[1]); from gen_traces import generate; "
    "generate(sys.argv[2], sys.argv[3], int(sys.argv[4]), seed=1)"
)
PERFBENCH = os.path.join(REPO, "perfbench")
#: CI's two counter dumps that ended stuck: ``stuck-justified`` (the
#: pending decs block at zero) and ``stuck-unjustified`` (at one).
STUCK_DUMPS = (
    "from repro.core.events import Event, Invocation, Response; "
    "from repro.core.history import History; "
    "from repro.monitor import DumpTraceWriter; "
    "c = lambda t, i, m: Event.call(t, i, Invocation(m, ())); "
    "r = lambda t, i: Event.ret(t, i, Response('ok', None)); "
    "[DumpTraceWriter(f'stuck-{name}', 'Counter', {}, 2).write("
    "1, History(events, n_threads=2, stuck=True)) for name, events in ("
    "('justified', [c(0, 0, 'inc'), r(0, 0), c(1, 0, 'dec'), c(0, 1, 'dec'), "
    "r(0, 1), c(0, 2, 'dec')]), "
    "('unjustified', [c(0, 0, 'inc'), r(0, 0), c(1, 0, 'dec')]))]"
)
BUGGY = LIVE + [
    "--variant", "buggy", "--ops", "15", "--seed", "0", "--race-window", "0.02",
]
#: CI's restart step: the keyed trace, then a global Count no
#: interleaving explains, so the watch restarts unpartitioned and FAILs.
KEYED_COUNT = GEN_TRACES + (
    "; p = sys.argv[2]; lines = open(p).read().splitlines()[:-1] + ["
    "'{\"e\":\"c\",\"t\":0,\"i\":100000,\"m\":\"Count\",\"a\":\"()\"}', "
    "'{\"e\":\"r\",\"t\":0,\"i\":100000,\"k\":\"ok\",\"v\":\"-1\"}']; "
    "open(p, 'w').write('\\n'.join(lines) + '\\n')"
)
#: CI's "One model step": the window trace with one method misspelled.
RENAMED = GEN_TRACES + (
    "; lines = open(sys.argv[2]).readlines()[:8]; "
    "lines[1] = lines[1].replace('\"m\":\"Enqueue\"', '\"m\":\"Enqueu\"'); "
    "open('stream-renamed.trace.jsonl', 'w').writelines(lines)"
)

#: (name, argv): a CLI drive's argv after ``python -m repro``, or a
#: script's (``-c`` or a path) after ``python``.  Each names the CI step
#: it is modelled on.  Drives share one work directory and run in order:
#: ``monitor`` and ``watch`` read the traces earlier drives wrote.
DRIVES: list[tuple[str, list[str]]] = [
    ("partition pins: check --json", ["check", "ConcurrentQueue", "--test", GATE, "--json"]),
    ("partition pins: check --reduction dpor",
     ["check", "ConcurrentQueue", "--test", GATE, "--json", "--reduction", "dpor"]),
    ("partition pins: campaign",
     ["campaign", "ConcurrentQueue", "--versions", "beta", "--samples", "1", "--seed", "1"]),
    ("partition pins: observations",
     ["observations", "ConcurrentQueue", "--test",
      "IsEmpty; ToArray; TryPeek | TryPeek; TryPeek; Count | Enqueue(10); Count; Enqueue(20)",
      "-o", "observations-3x3.xml"]),
    ("phase 1 by state: a 3x3 queue test",
     ["check", "ConcurrentQueue", "--test", QUEUE_3X3, "--strategy", "random",
      "--schedules", "20", "--seed", "1", "--json"]),
    ("phase 1 by state: a subject it cannot key",
     ["check", "OpaqueRegister", "--provider", "repro.exec.faults", "--test",
      "Set(1); Get | Get; Set(1)", "--json"]),
    *[
        (f"seven root causes: {cls} {cause}",
         ["check", cls, "--version", "pre", "--cause", cause])
        for cls, cause in (
            ("ManualResetEvent", "A"), ("SemaphoreSlim", "B"),
            ("CountdownEvent", "C"), ("ConcurrentQueue", "D"),
            ("ConcurrentDictionary", "E"), ("ConcurrentStack", "F"),
            ("Lazy", "G"),
        )
    ],
    ("the paper's evaluation", ["reproduce", "-o", "RESULTS.md"]),
    ("one check: --relaxed", ["check", "ConcurrentBag", "--cause", "H", "--relaxed", "--json"]),
    ("one engine: --dump-traces",
     ["check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue", "--dump-traces", "dump"]),
    ("one engine: monitor", ["monitor", "dump/*/*.trace.jsonl", "--model", "queue"]),
    ("one engine: watch", ["watch", "dump/*/1.trace.jsonl", "--model", "queue"]),
    ("one engine: check --model",
     ["check", "ConcurrentQueue", "--version", "pre", "--cause", "D", "--model", "queue"]),
    ("one engine: write stuck dumps", ["-c", STUCK_DUMPS]),
    *[
        (f"one engine: {command} the {name} stuck dump",
         [command, f"stuck-{name}/*/1.trace.jsonl", "--model", "counter"])
        for name in ("justified", "unjustified")
        for command in ("watch", "monitor")
    ],
    ("capped phase 1: campaign",
     ["campaign", "ConcurrentQueue", "--versions", "beta", "--samples", "2", "--rows", "4",
      "--cols", "3", "--seed", "1", "--schedules", "50"]),
    ("capped phase 1: --max-executions",
     ["check", "ConcurrentQueue", "--test", GATE, "--max-executions", "100"]),
    ("sharded CLI smoke", ["check", *BUFFER, "--shards", "4", "--workers", "2"]),
    ("live: correct SUT under chaos",
     LIVE + ["--variant", "correct", "--ops", "20", "--chaos", "drop,disconnect,latency",
             "--chaos-seed", "1", "--trace-out", "live-correct.trace.jsonl"]),
    ("live: killed SUT",
     LIVE + ["--variant", "correct", "--ops", "40", "--chaos", "drop,kill",
             "--kill-after-events", "60", "--trace-out", "live-killed.trace.jsonl"]),
    ("live: buggy SUT", BUGGY + ["--trace-out", "live-buggy.trace.jsonl"]),
    ("live: offline re-check", ["monitor", "live-buggy.trace.jsonl", "--model", "counter"]),
    ("stream: watch --follow",
     ["watch", "live-buggy.trace.jsonl", "--model", "counter", "--follow",
      "--idle-timeout", "5"]),
    ("stream: monitor without --model", ["monitor", "live-buggy.trace.jsonl"]),
    ("stream: correct SUT, latency only",
     LIVE + ["--variant", "correct", "--ops", "20", "--chaos", "latency",
             "--chaos-seed", "1", "--trace-out", "stream-correct.trace.jsonl"]),
    ("stream: watch under the lag budget",
     ["watch", "stream-correct.trace.jsonl", "--model", "counter", "--follow",
      "--lag-budget", "30", "--idle-timeout", "5"]),
    ("stream: generate a keyed trace",
     ["-c", GEN_TRACES, PERFBENCH, "keyed.trace.jsonl", "keyed", "3000"]),
    ("stream: watch --json --stats-out",
     ["watch", "keyed.trace.jsonl", "--json", "--stats-out", "keyed.stats.jsonl",
      "--stats-interval", "0"]),
    ("stream: generate a window trace",
     ["-c", GEN_TRACES, PERFBENCH, "window.trace.jsonl", "window", "40"]),
    ("stream: watch a window trace", ["watch", "window.trace.jsonl", "--json"]),
    ("coop engine: campaign", COOP_CAMPAIGN),
    ("coop engine: isolated campaign", COOP_CAMPAIGN + ["--isolate", "--workers", "2"]),
    ("every kind resumes: check",
     ["check", *BUFFER, "--checkpoint", "resume-check.json", "--deadline", "0.0001"]),
    ("every kind resumes: resume a check",
     ["resume", "resume-check.json", "--deadline", "60"]),
    ("every kind resumes: check --shards",
     ["check", "ConcurrentQueue", "--test", GATE, "--shards", "2",
      "--checkpoint", "resume-swarm.json", "--deadline", "0.2"]),
    ("every kind resumes: resume a swarm",
     ["resume", "resume-swarm.json", "--deadline", "60"]),
    ("every kind resumes: campaign",
     ["campaign", "ConcurrentQueue", "--versions", "beta", "--samples", "1", "--seed", "1",
      "--checkpoint", "resume-campaign.json", "--deadline", "0.0001"]),
    ("every kind resumes: resume a campaign",
     ["resume", "resume-campaign.json", "--deadline", "60"]),
    ("campaign parity: in-process", LAZY_CAMPAIGN),
    ("campaign parity: isolated", LAZY_CAMPAIGN + ["--isolate", "--workers", "1"]),
    ("every product path: list", ["list", "-v"]),
    ("every product path: a usage error",
     ["check", "ConcurrentQueue", "--test", GATE, "--strategy", "pct"]),
    ("every product path: the note of a reduced PASS",
     ["check", "ConcurrentQueue", "--test", GATE, "--reduction", "dpor"]),
    ("every product path: a nondeterministic specification",
     ["check", "NondetRegister", "--provider", "repro.exec.faults", "--test", "Get; Get | Get"]),
    ("every product path: one shard, re-split",
     ["check", "ConcurrentQueue", "--test", "Enqueue(1) | TryDequeue", "--shards", "1"]),
    ("every product path: a worker-killing shard",
     ["check", "RacyCounter", "--provider", "repro.exec.faults", "--test", "Incr | Incr",
      "--shards", "2", "--max-retries", "1", "--report-dir", "quarantine"]),
    ("every product path: an opaque probe",
     ["check", "RacyCounter", "--provider", "repro.exec.faults", "--test", "Incr | Incr",
      "--shards", "4", "--max-retries", "0", "--report-dir", "opaque"]),
    ("one document: check --shards --lease --json",
     ["check", "BoundedBuffer", "--provider", "repro.exec.faults", "--version", "beta",
      "--test", "Put(1); Size | TryTake", "--shards", "2", "--lease", "8", "--json"]),
    ("every product path: the stack model",
     ["check", "ConcurrentStack", "--version", "pre", "--test",
      "Push(10); Push(20) | TryPop; ToArray", "--model", "stack"]),
    ("one document: a stopped check --json",
     ["check", "ConcurrentQueue", "--test", GATE, "--strategy", "random",
      "--checkpoint", "random.json", "--deadline", "0.1", "--json"]),
    ("one document: resume the sampled check", ["resume", "random.json", "--deadline", "60"]),
    ("one document: a stopped check --shards --json",
     ["check", "ConcurrentQueue", "--test", GATE, "--shards", "2", "--checkpoint", "swarm.json",
      "--deadline", "0.2", "--json"]),
    ("one document: a stopped reduced check",
     ["check", "ConcurrentQueue", "--test", GATE, "--reduction", "sleep",
      "--checkpoint", "sleep.json", "--deadline", "0.1"]),
    ("one document: resume the reduced check", ["resume", "sleep.json", "--deadline", "60"]),
    *[
        (f"live: the {model} model",
         ["live", "--model", model, "--sessions", "2", "--ops", "10",
          "--trace-out", f"live-{model}.trace.jsonl", "--json"])
        for model in ("queue", "register")
    ],
    ("stream: write the keyed trace with a global Count",
     ["-c", KEYED_COUNT, PERFBENCH, "keyed-count.trace.jsonl", "keyed", "3000"]),
    ("stream: a restart",
     ["watch", "keyed-count.trace.jsonl", "--json", "--stats-out", "keyed-count.stats.jsonl",
      "--stats-interval", "0"]),
    ("one model step: write a misspelled trace",
     ["-c", RENAMED, PERFBENCH, "window-40.trace.jsonl", "window", "40"]),
    ("one model step: an unknown method", ["watch", "stream-renamed.trace.jsonl"]),
]

#: Drives that end on another exit code than ``_EXPECTED``'s: a usage
#: error (64) and a CRASHED verdict (70) are what they exist to show.
EXPECTED_EXIT = {
    "every product path: a usage error": 64,
    "every product path: a worker-killing shard": 70,
    "every product path: an opaque probe": 70,
    "one model step: an unknown method": 64,
}

#: Written to the scratch directory as ``sitecustomize.py``.
HOOK = '''\
import atexit, os, signal, sys, threading

_out = os.environ.get("UNREACHED_OUT")
if _out:
    _root = os.environ["UNREACHED_ROOT"]
    _seen = {}

    def _hook(frame, event, arg, _seen=_seen, _id=id):
        code = frame.f_code
        _seen[_id(code)] = code

    def _dump():
        lines = {
            f"{code.co_filename}\\t{code.co_firstlineno}\\n"
            for code in list(_seen.values())
            if code.co_filename.startswith(_root)
        }
        with open(os.path.join(_out, f"{os.getpid()}.calls"), "a") as handle:
            handle.writelines(lines)

    _exit = os._exit

    def _traced_exit(status):
        try:
            _dump()
        finally:
            _exit(status)

    def _on_term(signum, frame):
        _dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(_dump)
    os._exit = _traced_exit
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_term)
    sys.settrace(_hook)
    threading.settrace(_hook)
'''


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` for every
    function in the package; a decorated function starts at its first
    decorator, as its code object does."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (name, child.end_lineno - first + 1)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            walk(ast.parse(handle.read()), path, "")
    return found


#: The classes of a justified entry: its reason starts with one of
#: these and a colon.
CLASSES = ("safety", "reference", "porting API", "perfbench")

#: ``path::qualified name`` (the path relative to ``src/repro``) -> why
#: no drive reaches the function and it stays.
JUSTIFIED: dict[str, str] = {
    "cli.py::parse_test": (
        "perfbench: perfbench/layers.py builds its tests with it; the "
        "command line parses --test, --init and --final part by part "
        "(cli._columns, cli._sequence)"
    ),
    "command.py::SignalStop._handle": (
        "safety: the SIGINT/SIGTERM handler; no drive sends a signal "
        "(tests/core/test_cli_robustness.py does)"
    ),
    "core/campaign.py::row_from_dict": (
        "safety: restores the finished rows of a campaign stopped between "
        "rows; the drives' deadline stops it inside its first row"
    ),
    **dict.fromkeys(
        [
            "exec/faults.py::_fault_dir",
            "exec/faults.py::GoodRegister.__init__",
            "exec/faults.py::GoodRegister.Get",
            "exec/faults.py::GoodRegister.Set",
            "exec/faults.py::CrashingRegister.Boom",
            "exec/faults.py::FreezingRegister.Freeze",
            "exec/faults.py::AllocatingRegister.Hog",
            "exec/faults.py::ExitingRegister.Quit",
            "exec/faults.py::FlakyRegister.__init__",
            "exec/faults.py::FlakyRegister.Get",
            "exec/faults.py::RacyCounter.Get",
        ],
        "safety: a hostile (or control) subject of the crash-containment "
        "tests, importable by provider name in a worker",
    ),
    "exec/supervisor.py::_Worker.kill": (
        "safety: kills a worker that stopped answering its heartbeats"
    ),
    "exec/supervisor.py::WorkerPool._spawn_failed": (
        "safety: a worker that cannot be started"
    ),
    "live/refsut.py::_Server.handle_error": (
        "safety: silences the tracebacks of connections the chaos modes "
        "drop"
    ),
    "monitor/trace.py::TraceDecoder._no_open_call": (
        "safety: rejects a trace whose return has no open call"
    ),
    "runtime/core.py::SchedulerCore._record_crash": (
        "safety: a logical thread that crashed outside an operation"
    ),
    **dict.fromkeys(
        [
            "runtime/core.py::SchedulerCore._mark_divergent",
            "runtime/scheduler.py::Scheduler._finish_divergent",
            "runtime/watchdog.py::interrupt_thread",
        ],
        "safety: the watchdog cutting off an operation that never yields",
    ),
    "runtime/core.py::SchedulerCore._stalled": (
        "safety: the stall detector of the watchdog"
    ),
    "runtime/watchdog.py::WatchdogConfig.__post_init__": (
        "safety: validates a watchdog configuration built in code"
    ),
    "stream/tail.py::TraceTailer.reset": (
        "safety: a followed trace that was rotated or truncated"
    ),
    **dict.fromkeys(
        [
            "analysis/vector_clock.py::VectorClock.__eq__",
            "analysis/vector_clock.py::VectorClock.__hash__",
            "core/history.py::History.__eq__",
            "core/history.py::History.__hash__",
            "reduction/fingerprint.py::FingerprintSet.__eq__",
            "runtime/core.py::Decision.__eq__",
            "runtime/core.py::Decision.__hash__",
            "runtime/core.py::Decision.__repr__",
            "runtime/memory.py::AccessRecord.__eq__",
            "runtime/memory.py::AccessRecord.__hash__",
            "runtime/memory.py::AccessRecord.__repr__",
        ],
        "reference: the equality (and its failure message) tests compare "
        "these values by",
    ),
    "core/witness.py::brute_force_full_witness": (
        "reference: the exhaustive witness search the indexed one is tested "
        "against"
    ),
    **dict.fromkeys(
        [
            "monitor/wgl.py::MonitorCounterexample.describe",
            "monitor/wgl.py::StuckMonitorResult.ok",
            "monitor/wgl.py::_predecessors",
            "monitor/wgl.py::_observed_answers",
            "monitor/wgl.py::wgl_check",
            "monitor/wgl.py::check_stuck_history_model",
            "monitor/wgl.py::_blocks_somewhere",
        ],
        "reference: the Wing-Gong-Lowe search the online closure is tested "
        "against",
    ),
    **dict.fromkeys(
        [
            "monitor/models.py::SetModel.initial_state",
            "monitor/models.py::SetModel.step",
        ],
        "reference: the set model's single-state step, which the closure "
        "tests compare step_set with; no shipped class speaks its alphabet",
    ),
    "monitor/trace.py::scan_trace": (
        "reference: the whole-file scan the tailer's batches are tested "
        "against"
    ),
    "_lazy.py::lazy_exports.<locals>.__dir__": (
        "porting API: dir(repro) lists the lazily imported public names"
    ),
    **dict.fromkeys(
        [
            "runtime/env.py::Runtime.choose",
            "runtime/env.py::Runtime.spin_wait",
            "runtime/env.py::Runtime.spin_until",
            "runtime/core.py::SchedulerCore.spin_wait",
            "runtime/core.py::SchedulerCore._progress",
            "runtime/locks.py::Lock.wait_for",
            "runtime/monitor.py::Monitor.pulse",
            "runtime/memory.py::AtomicCell.exchange",
            "runtime/memory.py::AtomicCell.decrement",
            "runtime/memory.py::SharedList.set",
            "runtime/memory.py::SharedList.clear",
            "runtime/memory.py::SharedDict.__len__",
            "runtime/memory.py::SharedDict.snapshot",
        ],
        "porting API: a primitive of docs/PORTING.md's menu that no shipped "
        "class uses",
    ),
    **dict.fromkeys(
        [
            "runtime/locks.py::Lock.held",
            "runtime/locks.py::Lock.holder",
            "runtime/monitor.py::Monitor.held",
            "runtime/monitor.py::Monitor.waiting_count",
        ],
        "porting API: reads a primitive's state for a port's own test "
        "assertions (docs/PORTING.md)",
    ),
    **dict.fromkeys(
        [
            "monitor/models.py::SequentialModel.initial_state",
            "monitor/models.py::SequentialModel.step",
            "monitor/models.py::SequentialModel.compact",
            "monitor/models.py::SequentialModel.count",
        ],
        "porting API: what a new model defines or inherits "
        "(docs/MONITORING.md); every shipped model overrides it",
    ),
    **dict.fromkeys(
        [
            "monitor/trace.py::LiveTraceWriter.flush",
            "monitor/trace.py::LiveTraceWriter.__enter__",
            "monitor/trace.py::LiveTraceWriter.__exit__",
        ],
        "porting API: a recorder of one's own writes its trace through "
        "LiveTraceWriter (docs/LIVE.md)",
    ),
    "monitor/dispatch.py::_reference": (
        'perfbench: perfbench/layers.py calls monitor_history(engine="wgl") '
        "until ROADMAP item 3"
    ),
    "stream/tail.py::TraceTailer.poll": (
        "perfbench: perfbench/layers.py times the tailer through poll()"
    ),
    **dict.fromkeys(
        [
            "runtime/coop.py::CoopScheduler.schedule_point",
            "runtime/coop.py::CoopScheduler.block_until",
            "runtime/coop.py::CoopScheduler.choose",
            "runtime/coop.py::CoopScheduler.yield_point",
            "runtime/coop.py::CoopScheduler.spin_wait",
            "runtime/coop.py::CoopScheduler._uncooperative",
            "runtime/coop.py::CoopScheduler._arm_watchdog",
            "runtime/coop.py::CoopScheduler._disarm_watchdog",
            "runtime/coop.py::CoopScheduler._watchdog_loop",
            "runtime/coopc.py::_effect",
            "runtime/coopc.py::_construct",
            "runtime/coopc.py::coop_callkw",
            "runtime/coopc.py::_init_entry",
            "runtime/coopc.py::_Rewriter.visit_FunctionDef",
            "runtime/coopc.py::_Rewriter.visit_AsyncFunctionDef",
            "runtime/coopc.py::_Rewriter.visit_Lambda",
            "runtime/coopc.py::_Rewriter.visit_ClassDef",
            "runtime/coopc.py::_Rewriter.visit_ListComp",
            "runtime/coopc.py::_Rewriter.visit_SetComp",
            "runtime/coopc.py::_Rewriter.visit_DictComp",
            "runtime/coopc.py::_Rewriter.visit_GeneratorExp",
            "runtime/coopc.py::_Rewriter._lower_comp",
            "runtime/coopc.py::coopify_body.<locals>._opaque",
            "runtime/coopc.py::coopify_body.<locals>._plain",
        ],
        "perfbench: the coop engine, which perfbench/layers.py builds by "
        "name, until ROADMAP item 4 decides it",
    ),
}


def qualified(path: str, name: str) -> str:
    """The ``JUSTIFIED`` key of function *name* of file *path*."""
    return f"{os.path.relpath(path, PACKAGE)}::{name}"


#: Seconds a drive may run before it is killed.  Its exit code is then
#: recorded as ``TIMED_OUT`` (coreutils ``timeout``'s), a failure.
DRIVE_TIMEOUT = 600
TIMED_OUT = 124


def run_drives(drives, hook_dir: str, calls_dir: str, work: str) -> list[tuple]:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([hook_dir, SRC]),
        "UNREACHED_OUT": calls_dir,
        "UNREACHED_ROOT": PACKAGE + os.sep,
    }
    ran = []
    for name, argv in drives:
        if argv[0] == "-c" or argv[0].endswith(".py"):
            command = [sys.executable, *argv]
        else:
            command = [sys.executable, "-m", "repro"]
            for arg in argv:  # expand the trace globs as CI's shell does
                matches = glob.glob(os.path.join(work, arg)) if "*" in arg else []
                command += sorted(os.path.relpath(m, work) for m in matches) or [arg]
        started = time.monotonic()
        try:
            code = subprocess.run(
                command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=DRIVE_TIMEOUT,
            ).returncode
        except subprocess.TimeoutExpired:
            code = TIMED_OUT
        ran.append((name, code, time.monotonic() - started))
        print(f"  exit {code:3d}  {time.monotonic() - started:6.1f}s  {name}", flush=True)
    return ran


def reached(calls_dir: str) -> set[tuple[str, int]]:
    seen = set()
    for path in glob.glob(os.path.join(calls_dir, "*.calls")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                filename, first = line.rstrip("\n").split("\t")
                seen.add((filename, int(first)))
    return seen


#: Exit codes a drive is expected to end with: 1 is a FAIL the drive
#: exists to find, 2 an EXHAUSTED it exists to show.
_EXPECTED = (0, 1, 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="unreached.txt", help="report path")
    args = parser.parse_args(argv)

    examples = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    drives = DRIVES + [
        (f"example: {os.path.basename(path)}", [path]) for path in examples
    ]
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir, calls_dir, work = (
            os.path.join(scratch, name) for name in ("hook", "calls", "work")
        )
        for directory in (hook_dir, calls_dir, work):
            os.mkdir(directory)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        print(f"running {len(drives)} drives under the call hook")
        ran = run_drives(drives, hook_dir, calls_dir, work)
        seen = reached(calls_dir)

    table = functions()
    missing = sorted(key for key in table if key not in seen)
    lines_missing = sum(table[key][1] for key in missing)
    reasons = {key: JUSTIFIED.get(qualified(key[0], table[key][0])) for key in missing}
    unjustified = [key for key in missing if reasons[key] is None]
    by_class = {
        cls: sum(1 for r in reasons.values() if r and r.startswith(cls + ":"))
        for cls in CLASSES
    }
    lines = [
        f"# {len(missing)} of {len(table)} functions in src/repro "
        f"({lines_missing} lines) unreached by {len(ran)} drives, "
        f"{len(unjustified)} of them unjustified",
        "# justified: " + ", ".join(f"{cls} {n}" for cls, n in by_class.items()),
        "# drives (exit code, seconds, name):",
        *(f"#   {code:3d} {seconds:6.1f}s {name}" for name, code, seconds in ran),
    ]

    def entry(key) -> str:
        name, size = table[key]
        return f"{os.path.relpath(key[0], REPO)}:{key[1]} {name} ({size} lines)"

    lines += ["", "# unjustified: drive, delete or justify each (see the docstring)"]
    lines += [entry(key) for key in unjustified]
    lines += ["", "# justified"]
    lines += [f"{entry(key)}: {reasons[key]}" for key in missing if reasons[key]]
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(lines[0].lstrip("# "))
    print(f"list written to {args.out}")
    failed = [
        name for name, code, _ in ran
        if code not in ((EXPECTED_EXIT[name],) if name in EXPECTED_EXIT else _EXPECTED)
    ]
    if failed:
        print(f"drives that failed: {failed}", file=sys.stderr)
    for key in unjustified:
        print(f"unjustified: {entry(key)}", file=sys.stderr)
    return 1 if failed or unjustified else 0


if __name__ == "__main__":
    sys.exit(main())
