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

Each entry is a lead, not a verdict: a function only tests reach is a
test fixture or dead, but a function reached only by a drive CI does not
run (a resume path, an error branch) is neither.  The report names the
drives it ran, so a list is read against them.

Usage::

    PYTHONPATH=src python benchmarks/unreached.py [--out unreached.txt]

Exits 1 when a drive fails or times out; the list is written either way.
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
BUFFER = [
    "BoundedBuffer", "--provider", "repro.exec.faults", "--version", "beta",
    "--test", "Put(1); Take | TryTake",
]
LAZY_CAMPAIGN = [
    "campaign", "Lazy", "--versions", "pre", "--samples", "4", "--rows", "2",
    "--cols", "2", "--schedules", "60", "--seed", "5",
]
GENERATE = [
    "generate", "Lazy", "--version", "pre", "--engine", "coop", "--seed", "1",
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
    ("generate: seeded bug", GENERATE + ["--budget", "300", "--corpus-dir", "corpus"]),
    ("generate: resume from corpus", GENERATE + ["--budget", "600", "--corpus-dir", "corpus"]),
    ("generate: isolated", GENERATE + ["--budget", "300", "--isolate", "--workers", "2"]),
    ("every kind resumes: check",
     ["check", *BUFFER, "--checkpoint", "resume-check.json", "--deadline", "0.0001"]),
    ("every kind resumes: resume a check",
     ["resume", "resume-check.json", "--deadline", "60"]),
    ("every kind resumes: check --shards",
     ["check", *BUFFER, "--shards", "2", "--checkpoint", "resume-swarm.json",
      "--deadline", "0.05"]),
    ("every kind resumes: resume a swarm",
     ["resume", "resume-swarm.json", "--deadline", "60"]),
    ("every kind resumes: campaign",
     ["campaign", "ConcurrentQueue", "--versions", "beta", "--samples", "1", "--seed", "1",
      "--checkpoint", "resume-campaign.json", "--deadline", "0.0001"]),
    ("every kind resumes: resume a campaign",
     ["resume", "resume-campaign.json", "--deadline", "60"]),
    ("every kind resumes: generate",
     GENERATE + ["--budget", "300", "--corpus-dir", "resume-corpus", "--deadline", "0.0001"]),
    ("every kind resumes: resume a generation",
     ["resume", "resume-corpus/corpus.json", "--deadline", "60"]),
    ("campaign parity: in-process", LAZY_CAMPAIGN),
    ("campaign parity: isolated", LAZY_CAMPAIGN + ["--isolate", "--workers", "1"]),
]

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
    lines = [
        f"# {len(missing)} of {len(table)} functions in src/repro "
        f"({lines_missing} lines) unreached by {len(ran)} drives",
        "# Each entry is a lead, not a verdict (see benchmarks/unreached.py).",
        "# drives (exit code, seconds, name):",
        *(f"#   {code:3d} {seconds:6.1f}s {name}" for name, code, seconds in ran),
        "",
    ]
    for path, first in missing:
        name, size = table[(path, first)]
        lines.append(f"{os.path.relpath(path, REPO)}:{first} {name} ({size} lines)")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(lines[0].lstrip("# "))
    print(f"list written to {args.out}")
    failed = [name for name, code, _ in ran if code not in _EXPECTED]
    if failed:
        print(f"drives that failed: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
