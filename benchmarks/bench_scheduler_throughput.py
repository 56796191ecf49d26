"""Microbenchmarks of the model-checking substrate itself.

Grounds the cost model quoted in EXPERIMENTS.md and docs/PERFORMANCE.md:
what one execution costs, how serial mode compares to concurrent mode,
how the cost scales with thread count — and, as a standalone script, a
head-to-head of the two scheduler engines.

``python benchmarks/bench_scheduler_throughput.py`` runs the same
exhaustive (unbounded-DFS) explorations on the baton and coop engines
across four registry subjects, twice each:

* **solo** — one exploration at a time, an otherwise idle machine; this
  measures raw per-schedule cost, where the baton engine's semaphore
  handoffs are cheapest (the woken thread gets a core immediately).
* **contended** — several explorations in parallel worker processes,
  the ``campaign``/swarm configuration; here every baton handoff is a
  real OS wakeup competing for cores, which is where the zero-thread
  engine pulls ahead.

* **serial** — phase 1 of a sampled 3×3 ``ConcurrentQueue`` test (1 680
  serial executions) as ``TestHarness.run_serial`` runs it, on the serial
  driver, against the same enumeration hosted on each engine
  (``execute(..., serial=True)``, the driver's reference).

Both engines must produce exactly the same schedule count and the same
distinct decision-trace set per subject (the differential suite's
invariant, re-checked on every benchmark run); the script exits nonzero
on any divergence, if the coop engine fails the speedup gate
(contended ratio >= 1.0, solo ratio >= 0.9), or if the serial driver
synthesizes a different history set than an engine or is less than 1.5x
as fast.  Results go to ``BENCH_scheduler.json`` via ``benchlib``
(schema in docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # script mode: make src/ importable without env
    _SRC = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.runtime import DFSStrategy, RandomStrategy, Runtime

# ---------------------------------------------------------------------------
# Head-to-head subjects: registry structures driven bare (no TestHarness),
# so the measurement isolates scheduler throughput.  Bodies live in this
# file (the coop compiler needs retrievable source).


def _queue_program(rt):
    from repro.structures.concurrent_queue import ConcurrentQueue

    def factory():
        q = ConcurrentQueue(rt)
        out = []

        def enq():
            q.Enqueue(1)
            out.append(("e", q.TryDequeue()))

        def deq():
            q.Enqueue(2)
            out.append(("d", q.TryDequeue()))

        return [enq, deq]

    return factory


def _buffer_program(rt):
    from repro.structures.bounded_buffer import BoundedBuffer

    def factory():
        b = BoundedBuffer(rt, capacity=1)

        def put():
            b.Put(1)
            b.Put(2)

        def take():
            b.Take()
            b.Take()

        return [put, take]

    return factory


def _stack_program(rt):
    from repro.structures.concurrent_stack import ConcurrentStack

    def factory():
        s = ConcurrentStack(rt)
        out = []

        def pusher():
            s.Push(1)
            out.append(s.TryPop())

        def popper():
            s.Push(2)
            out.append(s.TryPop())

        return [pusher, popper]

    return factory


def _semaphore_program(rt):
    from repro.structures.semaphore_slim import SemaphoreSlim

    def factory():
        sem = SemaphoreSlim(rt, initial=1)

        def worker():
            sem.Wait()
            sem.Release()
            sem.Wait()
            sem.Release()

        return [worker, worker]

    return factory


PROGRAMS = {
    "ConcurrentQueue": _queue_program,
    "BoundedBuffer": _buffer_program,
    "ConcurrentStack": _stack_program,
    "SemaphoreSlim": _semaphore_program,
}

#: Subjects whose contended throughput is measured (and gated in CI).
CONTENDED_SUBJECTS = ("ConcurrentQueue", "BoundedBuffer")

ENGINES = ("baton", "coop")


def _explore_once(engine: str, subject: str):
    """One exhaustive exploration; returns (schedules, seconds, traces)."""
    import time

    from repro.runtime import make_scheduler

    sched = make_scheduler(engine)
    try:
        rt = Runtime(sched)
        factory = PROGRAMS[subject](rt)
        schedules = 0
        traces = set()
        t0 = time.perf_counter()
        for outcome in sched.explore(factory, DFSStrategy()):
            schedules += 1
            traces.add(tuple(d.chosen for d in outcome.decisions))
        seconds = time.perf_counter() - t0
    finally:
        sched.shutdown()
    return schedules, seconds, traces


def _measure_solo(engine: str, subject: str, rounds: int):
    """Best-of-*rounds* solo measurement (max rate; counts must agree)."""
    best = None
    for _ in range(rounds):
        schedules, seconds, traces = _explore_once(engine, subject)
        if best is None or seconds < best[1]:
            best = (schedules, seconds, traces)
    return best


def _measure_contended(engine: str, subject: str, processes: int):
    """Aggregate rate of *processes* parallel explorations (subprocesses).

    Each worker re-executes this file with ``--worker`` and reports its
    own schedule count and inner wall time; the aggregate rate divides
    total schedules by the slowest worker (they start together).
    """
    import subprocess
    import sys as _sys

    procs = [
        subprocess.Popen(
            [_sys.executable, os.path.abspath(__file__),
             "--worker", engine, subject],
            stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        for _ in range(processes)
    ]
    counts, times = [], []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"contended worker failed: {out!r}")
        schedules, seconds = out.split()
        counts.append(int(schedules))
        times.append(float(seconds))
    if len(set(counts)) != 1:
        raise RuntimeError(f"contended workers diverged: {counts}")
    return counts[0], sum(counts) / max(times)


def run_head_to_head(quick: bool, processes: int):
    """Measure all subjects on both engines; returns (rows, failures)."""
    subjects = list(CONTENDED_SUBJECTS) if quick else list(PROGRAMS)
    solo_rounds = 1 if quick else 3
    rows = []
    failures = []
    for subject in subjects:
        per_engine = {}
        for engine in ENGINES:
            schedules, seconds, traces = _measure_solo(
                engine, subject, solo_rounds
            )
            per_engine[engine] = {
                "schedules": schedules,
                "distinct_traces": len(traces),
                "solo_seconds": round(seconds, 4),
                "solo_schedules_per_sec": round(schedules / seconds, 1),
                "_traces": traces,
            }
        baton, coop = per_engine["baton"], per_engine["coop"]
        if baton["schedules"] != coop["schedules"]:
            failures.append(
                f"{subject}: schedule counts diverge "
                f"(baton {baton['schedules']}, coop {coop['schedules']})"
            )
        if baton.pop("_traces") != coop.pop("_traces"):
            failures.append(f"{subject}: distinct decision traces diverge")
        if subject in CONTENDED_SUBJECTS:
            for engine in ENGINES:
                count, rate = _measure_contended(engine, subject, processes)
                if count != per_engine[engine]["schedules"]:
                    failures.append(
                        f"{subject}: contended {engine} count {count} != "
                        f"solo {per_engine[engine]['schedules']}"
                    )
                per_engine[engine]["contended_schedules_per_sec"] = round(
                    rate, 1
                )
        speedup = {
            "solo": round(
                coop["solo_schedules_per_sec"]
                / baton["solo_schedules_per_sec"],
                3,
            )
        }
        if "contended_schedules_per_sec" in coop:
            speedup["contended"] = round(
                coop["contended_schedules_per_sec"]
                / baton["contended_schedules_per_sec"],
                3,
            )
        rows.append(
            {
                "subject": subject,
                "schedules": baton["schedules"],
                "distinct_traces": baton["distinct_traces"],
                "engines": per_engine,
                "speedup": speedup,
            }
        )
    return rows, failures


#: The serial row: the driver must beat the engine-hosted reference by this.
SERIAL_SPEEDUP_GATE = 1.5


def run_serial_row(rounds: int):
    """Phase 1 on the serial driver vs. hosted on each engine.

    Returns (row, failures); times are best-of-*rounds* per execution.
    """
    import time

    from repro.core import SystemUnderTest, TestHarness
    from repro.core.spec import ObservationSet
    from repro.core.testcase import sample_tests
    from repro.structures.registry import get_class

    entry = get_class("ConcurrentQueue")
    subject = SystemUnderTest(entry.factory("beta"), "ConcurrentQueue(beta)")
    test = sample_tests(
        list(entry.invocations), 3, 3, 1, seed=1, init=entry.init
    )[0]

    def hosted(harness):
        observations = ObservationSet(test.n_threads)
        for outcome in harness.scheduler.explore(
            lambda: harness._bodies(test), DFSStrategy(None), serial=True
        ):
            observations.add(
                harness.history_from_outcome(outcome, test).to_serial()
            )
        return observations

    def best(run):
        seconds, observations = None, None
        for _ in range(rounds):
            t0 = time.perf_counter()
            observations = run()
            elapsed = time.perf_counter() - t0
            seconds = elapsed if seconds is None else min(seconds, elapsed)
        return seconds, {h.tokens() for h in observations}

    row = {"test": str(test), "engines": {}}
    failures = []
    for engine in ENGINES:
        with TestHarness(subject, engine=engine) as harness:
            driver_s, driver = best(lambda: harness.run_serial(test)[0])
            oracle_s, oracle = best(lambda: hosted(harness))
        row["executions"] = len(driver)
        row["engines"][engine] = {
            "serial_us_per_execution": round(driver_s / len(driver) * 1e6, 1),
            "hosted_us_per_execution": round(oracle_s / len(oracle) * 1e6, 1),
            "speedup": round(oracle_s / driver_s, 3),
        }
        if driver != oracle:
            failures.append(f"serial: driver and {engine} history sets differ")
        if oracle_s / driver_s < SERIAL_SPEEDUP_GATE:
            failures.append(
                f"serial: driver only {oracle_s / driver_s:.2f}x the "
                f"{engine}-hosted reference (< {SERIAL_SPEEDUP_GATE}x)"
            )
    if row["executions"] != 1680:
        failures.append(f"serial: {row['executions']} histories, expected 1680")
    return row, failures


def print_table(rows):
    print(
        f"\n{'subject':>16s} {'schedules':>9s} "
        f"{'baton/s':>8s} {'coop/s':>8s} {'solo':>6s} "
        f"{'baton/s':>8s} {'coop/s':>8s} {'cont.':>6s}"
    )
    for row in rows:
        baton = row["engines"]["baton"]
        coop = row["engines"]["coop"]
        cont = ""
        if "contended" in row["speedup"]:
            cont = (
                f"{baton['contended_schedules_per_sec']:8.0f} "
                f"{coop['contended_schedules_per_sec']:8.0f} "
                f"{row['speedup']['contended']:5.2f}x"
            )
        print(
            f"{row['subject']:>16s} {row['schedules']:9d} "
            f"{baton['solo_schedules_per_sec']:8.0f} "
            f"{coop['solo_schedules_per_sec']:8.0f} "
            f"{row['speedup']['solo']:5.2f}x {cont}"
        )


def main(argv=None) -> int:
    import argparse

    import benchlib

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: the two gated subjects, one round")
    parser.add_argument("--processes", type=int, default=None,
                        help="parallel workers for the contended mode "
                             "(default: max(4, 2*cpu_count))")
    parser.add_argument("--out", default="BENCH_scheduler.json",
                        help="perf snapshot path")
    parser.add_argument("--worker", nargs=2, metavar=("ENGINE", "SUBJECT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        engine, subject = args.worker
        schedules, seconds, _ = _explore_once(engine, subject)
        print(schedules, seconds)
        return 0

    processes = args.processes or max(4, 2 * (os.cpu_count() or 1))
    rows, failures = run_head_to_head(args.quick, processes)
    print_table(rows)
    serial, serial_failures = run_serial_row(1 if args.quick else 3)
    failures.extend(serial_failures)
    print(f"\nserial ({serial['executions']} executions of {serial['test']}):")
    for engine, cell in serial["engines"].items():
        print(
            f"  {engine:>5s}: driver {cell['serial_us_per_execution']:6.1f} us, "
            f"hosted {cell['hosted_us_per_execution']:6.1f} us "
            f"({cell['speedup']:.2f}x)"
        )

    # The speedup gate: the coop engine must win outright under
    # contention (its reason to exist) and stay within noise of the
    # baton engine solo.
    for row in rows:
        solo = row["speedup"]["solo"]
        if solo < 0.9:
            failures.append(
                f"{row['subject']}: coop solo ratio {solo:.2f}x < 0.9x"
            )
        contended = row["speedup"].get("contended")
        if contended is not None and contended < 1.0:
            failures.append(
                f"{row['subject']}: coop contended ratio "
                f"{contended:.2f}x < 1.0x"
            )

    benchlib.write_snapshot(
        args.out,
        "scheduler",
        {
            "mode": "quick" if args.quick else "full",
            "contended_processes": processes,
            "subjects": rows,
            "serial": serial,
        },
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "\nsmoke PASS: engines agree on every subject; coop wins contended; "
        "serial driver beats both hosts"
    )
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (baton engine via the shared fixture).


def _program(runtime, n_threads, ops_per_thread):
    def factory():
        cell = runtime.atomic(0, "cell")

        def body():
            for _ in range(ops_per_thread):
                cell.add(1)

        return [body] * n_threads

    return factory


def test_single_execution_cost(benchmark, scheduler):
    """One 2-thread, 6-op execution, repeated: the per-execution floor."""
    runtime = Runtime(scheduler)
    factory = _program(runtime, 2, 3)

    def run_once():
        scheduler.execute(factory(), RandomStrategy(executions=1, seed=1))

    benchmark.pedantic(run_once, rounds=200, iterations=1)


def test_serial_vs_concurrent_exploration(benchmark, scheduler):
    """Exhaustively explore the same program in both modes."""
    import time

    runtime = Runtime(scheduler)

    def run():
        rows = []
        for serial in (True, False):
            factory = _program(runtime, 2, 2)
            strategy = DFSStrategy(preemption_bound=None if serial else 2)
            count = 0
            t0 = time.perf_counter()
            for _outcome in scheduler.explore(factory, strategy, serial=serial):
                count += 1
            rows.append((serial, count, time.perf_counter() - t0))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("=== substrate: serial vs concurrent exploration (2 threads x 2 raw atomic adds) ===")
    for serial, count, seconds in rows:
        mode = "serial" if serial else "concurrent (PB=2)"
        per = seconds / count * 1e6
        print(f"  {mode:18s}: {count:5d} executions in {seconds * 1000:7.1f} ms "
              f"({per:6.0f} us each)")
    serial_count = rows[0][1]
    concurrent_count = rows[1][1]
    assert serial_count < concurrent_count  # phase 1 is the smaller space


def test_scaling_with_thread_count(benchmark, scheduler):
    """Random-walk throughput as logical threads grow."""
    import time

    runtime = Runtime(scheduler)

    def run():
        rows = []
        for n_threads in (1, 2, 3, 4):
            factory = _program(runtime, n_threads, 2)
            strategy = RandomStrategy(executions=200, seed=1)
            t0 = time.perf_counter()
            while strategy.more():
                scheduler.execute(factory(), strategy)
            rows.append((n_threads, time.perf_counter() - t0))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("=== substrate: 200 random executions by thread count ===")
    for n_threads, seconds in rows:
        print(f"  {n_threads} threads: {seconds * 1000:7.1f} ms "
              f"({seconds / 200 * 1e6:6.0f} us/execution)")
    # Cost grows with threads (more handoffs) but stays in the same order
    # of magnitude — the substrate does not fall off a cliff.
    assert rows[-1][1] < rows[0][1] * 25


if __name__ == "__main__":
    raise SystemExit(main())
