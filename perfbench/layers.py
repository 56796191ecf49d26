"""The traced in-process pass: per-layer metrics from spans recorded here.

Spans are recorded from this file, around the calls into each layer's
public functions — nothing inside ``src/`` is instrumented.  A span is
(name, start, end, parent) plus the workload it belongs to; spans stay in
memory and are written to ``perfbench/out/trace-<scope>.jsonl`` when the
pass ends.  A layer's self time is its spans minus their children.

The pass has two parts:

* **probes** — micro-measurements that do not depend on the workload
  (interpreter start and import, both scheduler engines driven bare, the
  reductions, the worker pool and its frames).  Scope ``probes``.
* **one traced pass per workload** — the workload's own work done
  in-process: the check workloads re-walk phase 1 and phase 2 themselves
  and must reproduce the pinned counts; ``check_sharded`` calls
  ``swarm_check``; the watch workloads tail, feed and re-check their
  trace.  A layer the workload never calls reads 0 (0 calls, 0 s).
  Each is done twice, tracer off then on: ``trace.overhead_share``.

A probe that cannot import or call its target reports ``null`` with a
reason instead of failing the run.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

from gen_traces import KEYS, SHAPES, generate
from proc import child_env, one_cpu
from workloads import BUGS, CAMPAIGN_SCHEDULES, TEST_PINS, TESTS, WATCH_CONFIG_CAP

#: name -> (unit, better, scope).  Scope "probes" metrics are measured on
#: every traced pass; scope "workload" metrics come from the traced pass
#: of the workload at hand and read 0 where it bypasses the layer.
LAYER_METRICS = {
    "cli.interp_s": ("s", "lower", "probes"),
    "cli.import_s": ("s", "lower", "probes"),
    "runtime.coopc.compile_s": ("s", "lower", "probes"),
    "runtime.baton.us_per_schedule": ("us", "lower", "probes"),
    "runtime.coop.us_per_schedule": ("us", "lower", "probes"),
    "runtime.decisions_per_schedule": ("count", "lower", "probes"),
    "runtime.baton.serial_us_per_execution": ("us", "lower", "probes"),
    "runtime.coop.serial_us_per_execution": ("us", "lower", "probes"),
    "runtime.random.us_per_schedule": ("us", "lower", "probes"),
    "core.harness.self_us_per_schedule": ("us", "lower", "probes"),
    "reduction.sleep.us_per_schedule": ("us", "lower", "probes"),
    "reduction.dpor.us_per_schedule": ("us", "lower", "probes"),
    "reduction.dpor.schedules": ("count", "lower", "probes"),
    "reduction.dpor.pruned": ("count", "higher", "probes"),
    "exec.spawn_s": ("s", "lower", "probes"),
    "exec.roundtrip_ms": ("ms", "lower", "probes"),
    "exec.frame.encode_us": ("us", "lower", "probes"),
    "exec.frame.decode_us": ("us", "lower", "probes"),
    "core.phase1.s": ("s", "lower", "workload"),
    "core.phase2.explore_s": ("s", "lower", "workload"),
    "core.witness.us_per_history": ("us", "lower", "workload"),
    "core.witness.histories": ("count", "lower", "workload"),
    "reduction.fingerprint.us_per_execution": ("us", "lower", "workload"),
    "reduction.classes": ("count", "lower", "workload"),
    "core.report.render_s": ("s", "lower", "workload"),
    "core.check.total_s": ("s", "lower", "workload"),
    "core.check.layers_cover": ("ratio", "higher", "workload"),
    "swarm.partition_probes": ("count", "lower", "workload"),
    "swarm.leases": ("count", "lower", "workload"),
    "swarm.requeues": ("count", "lower", "workload"),
    "swarm.rediscovered_share": ("ratio", "lower", "workload"),
    "swarm.cpu_over_wall": ("ratio", "higher", "workload"),
    "swarm.shard_skew": ("ratio", "lower", "workload"),
    "stream.tail.us_per_event": ("us", "lower", "workload"),
    "stream.decode.us_per_event": ("us", "lower", "workload"),
    "stream.engine.self_us_per_event": ("us", "lower", "workload"),
    "stream.cells": ("count", "lower", "workload"),
    "monitor.incremental.us_per_op": ("us", "lower", "workload"),
    "monitor.incremental.configs_per_op": ("count", "lower", "workload"),
    "monitor.incremental.max_live_configs": ("count", "lower", "workload"),
    "monitor.incremental.max_frontier": ("count", "lower", "workload"),
    "monitor.incremental.max_retirement_lag": ("count", "lower", "workload"),
    "monitor.wgl.us_per_op": ("us", "lower", "workload"),
    "monitor.trace.load_s": ("s", "lower", "workload"),
    "trace.overhead_share": ("ratio", "lower", "workload"),
}

NOT_CALLED = "layer not called by this workload"
ROUNDTRIP_TASKS = 50
WGL_PROBE_OPS = 1_000


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.index)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent])

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory spans of one scope; written out only by :meth:`write`."""

    def __init__(self, scope: str, enabled: bool = True) -> None:
        self.scope = scope
        self.enabled = enabled
        self.spans: list = []  #: [name, start, end, parent index or None]
        self.stack: list = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            duration = end - start
            out[name] = (calls + 1, total + duration, own + duration - child_time[index])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "workload": self.scope, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


class Collector:
    """Metric values of one scope; a failed probe gives nulls with a reason."""

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self.values: dict = {}
        self.reasons: dict = {}
        self.problems: list = []

    def probe(self, names: tuple, function, *args) -> None:
        """Run *function*; it returns {metric: value} for *names*."""
        try:
            got = function(*args)
        except Exception as exc:  # the pass must go on: null + reason
            traceback.print_exc(file=sys.stderr)
            for name in names:
                self.values[name] = None
                self.reasons[name] = f"{type(exc).__name__}: {exc}"
            return
        for name in names:
            self.values[name] = got[name]

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{self.scope}: {what}: got {got!r}, expected {want!r}")

    def rendered(self, scope: str) -> dict:
        out = {}
        for name, (unit, _, metric_scope) in LAYER_METRICS.items():
            if metric_scope != scope:
                continue
            if name in self.values:
                entry = {"value": self.values[name], "unit": unit}
                if name in self.reasons:
                    entry["reason"] = self.reasons[name]
            else:
                entry = {"value": 0.0, "unit": unit, "reason": NOT_CALLED}
            out[name] = entry
        return out


def timed(function, *args):
    """(result, seconds) of one call, garbage of the previous one collected first."""
    gc.collect()
    started = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - started


# -- probes ------------------------------------------------------------------


def probe_cli(env: dict, samples: int) -> dict:
    def median_seconds(code: str) -> float:
        times = []
        for _ in range(samples):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    interp = median_seconds("pass")
    return {
        "cli.interp_s": interp,
        "cli.import_s": median_seconds("import repro.cli") - interp,
    }


def _queue_subject():
    from repro import SystemUnderTest
    from repro.structures.registry import get_class

    entry = get_class("ConcurrentQueue")
    return entry, SystemUnderTest(entry.factory("beta"), "ConcurrentQueue(beta)")


def _bare_factory(runtime, scheduler, test):
    """The test's columns on a bare ConcurrentQueue: no harness, no history.

    The boundary schedule point before each operation is the one the
    harness places, so the decision tree — and the schedule count — is
    the harness's own.
    """
    from repro.structures.concurrent_queue import ConcurrentQueue

    columns = [
        [(inv.method, inv.args) for inv in test.column(thread)]
        for thread in range(test.n_threads)
    ]

    def factory():
        queue = ConcurrentQueue(runtime)

        def make_body(column):
            def body():
                for method, args in column:
                    scheduler.schedule_point(boundary=True)
                    getattr(queue, method)(*args)

            return body

        return [make_body(column) for column in columns]

    return factory


def _explore_bare(engine: str, test) -> tuple[int, float, int]:
    from repro.runtime import DFSStrategy, Runtime, make_scheduler

    scheduler = make_scheduler(engine)
    try:
        factory = _bare_factory(Runtime(scheduler), scheduler, test)
        schedules = decisions = 0
        started = time.perf_counter()
        for outcome in scheduler.explore(factory, DFSStrategy(2)):
            schedules += 1
            decisions += len(outcome.decisions)
        return schedules, time.perf_counter() - started, decisions
    finally:
        scheduler.shutdown()


def probe_runtime(collector: Collector, test_name: str) -> dict:
    from repro import CheckConfig
    from repro.cli import parse_test
    from repro.core.harness import TestHarness
    from repro.runtime import DFSStrategy

    test = parse_test(TESTS[test_name])
    pinned = TEST_PINS[test_name][1]
    baton_n, baton_s, decisions = _explore_bare("baton", test)
    coop_n, coop_first_s, _ = _explore_bare("coop", test)  # compiles the bodies
    _, coop_s, _ = _explore_bare("coop", test)
    collector.expect("bare baton schedules", baton_n, pinned)
    collector.expect("bare coop schedules", coop_n, pinned)

    _, subject = _queue_subject()
    default_engine = CheckConfig().engine
    with TestHarness(subject, engine=default_engine) as harness:
        started = time.perf_counter()
        harness_n = sum(1 for _ in harness.explore_concurrent(test, DFSStrategy(2)))
        harness_s = time.perf_counter() - started
    collector.expect("harness schedules", harness_n, pinned)
    bare_us = {"baton": baton_s / baton_n, "coop": coop_s / coop_n}[default_engine] * 1e6
    return {
        "runtime.coopc.compile_s": coop_first_s - coop_s,
        "runtime.baton.us_per_schedule": baton_s / baton_n * 1e6,
        "runtime.coop.us_per_schedule": coop_s / coop_n * 1e6,
        "runtime.decisions_per_schedule": decisions / baton_n,
        "core.harness.self_us_per_schedule": harness_s / harness_n * 1e6 - bare_us,
    }


def probe_serial_and_random(collector: Collector, seed: int, executions: int) -> dict:
    from repro.core.harness import TestHarness
    from repro.core.testcase import sample_tests
    from repro.runtime import RandomStrategy

    entry, subject = _queue_subject()
    test = sample_tests(list(entry.invocations), 3, 3, 1, seed=seed, init=entry.init)[0]
    out = {}
    for engine in ("baton", "coop"):
        with TestHarness(subject, engine=engine) as harness:
            started = time.perf_counter()
            _, stats = harness.run_serial(test, max_executions=executions)
            seconds = time.perf_counter() - started
        collector.expect(f"{engine} serial executions", stats.executions, executions)
        out[f"runtime.{engine}.serial_us_per_execution"] = seconds / executions * 1e6
    with TestHarness(subject) as harness:
        strategy = RandomStrategy(CAMPAIGN_SCHEDULES, seed=seed)
        started = time.perf_counter()
        schedules = sum(1 for _ in harness.explore_concurrent(test, strategy))
        seconds = time.perf_counter() - started
    collector.expect("random schedules", schedules, CAMPAIGN_SCHEDULES)
    out["runtime.random.us_per_schedule"] = seconds / schedules * 1e6
    return out


def probe_reductions(test_name: str) -> dict:
    from repro.cli import parse_test
    from repro.core.harness import TestHarness
    from repro.runtime.strategies import dfs_with_reduction

    test = parse_test(TESTS[test_name])
    _, subject = _queue_subject()
    out = {}
    for mode in ("sleep", "dpor"):
        with TestHarness(subject) as harness:
            strategy = dfs_with_reduction(mode, None)
            started = time.perf_counter()
            schedules = sum(1 for _ in harness.explore_concurrent(test, strategy))
            seconds = time.perf_counter() - started
        out[f"reduction.{mode}.us_per_schedule"] = seconds / schedules * 1e6
    out["reduction.dpor.schedules"] = schedules
    out["reduction.dpor.pruned"] = strategy.pruned
    return out


def probe_exec(collector: Collector, workdir: str, classes: int) -> dict:
    from repro import CheckConfig
    from repro.cli import parse_test
    from repro.core.checkpoint import config_to_dict, test_to_dict
    from repro.exec import PoolConfig, WorkerPool
    from repro.exec.protocol import decode_frame, encode_frame
    from repro.exec.supervisor import TaskSpec

    test = test_to_dict(parse_test("Enqueue(1)"))
    config = config_to_dict(CheckConfig())

    def task(index: int) -> TaskSpec:
        return TaskSpec(index, "ConcurrentQueue", "beta", test, config)

    started = time.perf_counter()
    with WorkerPool(PoolConfig(
        workers=2, report_dir=os.path.join(workdir, "exec-probe")
    )) as pool:
        first, _ = pool.run([task(0)])
        spawn_s = time.perf_counter() - started
        started = time.perf_counter()
        outcomes, _ = pool.run([task(i) for i in range(ROUNDTRIP_TASKS)])
        roundtrip_s = time.perf_counter() - started
    collector.expect("pool verdicts", {o.verdict for o in first + outcomes}, {"PASS"})
    collector.expect("pool outcomes", len(outcomes), ROUNDTRIP_TASKS)

    # A shard-sized message: one result carrying a digest per class.
    message = {
        "type": "result", "index": 0, "verdict": "PASS",
        "fingerprints": [f"{n:040x}" for n in range(classes)],
    }
    rounds = 20
    started = time.perf_counter()
    for _ in range(rounds):
        frame = encode_frame(message)
    encode_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(rounds):
        decoded = decode_frame(frame)
    decode_s = time.perf_counter() - started
    collector.expect("frame round trip", decoded, message)
    return {
        "exec.spawn_s": spawn_s,
        "exec.roundtrip_ms": roundtrip_s / ROUNDTRIP_TASKS * 1e3,
        "exec.frame.encode_us": encode_s / rounds * 1e6,
        "exec.frame.decode_us": decode_s / rounds * 1e6,
    }


# -- the check workloads: re-walk phase 1 and phase 2 --------------------------


def check_cases(name: str, sizes: dict, seed: int) -> list:
    """(subject, test, config, pinned phase-2 count or None) as the CLI builds them."""
    from repro import CheckConfig, SystemUnderTest
    from repro.cli import parse_test
    from repro.core.testcase import sample_tests
    from repro.structures.registry import get_class

    if name == "check_exhaustive":
        _, subject = _queue_subject()
        return [(subject, parse_test(TESTS[sizes["test"]]), CheckConfig(),
                 TEST_PINS[sizes["test"]][1])]
    if name == "check_bugsuite":
        cases = []
        for cls, tag, _, phase2 in BUGS:
            entry = get_class(cls)
            cause = next(c for c in entry.causes if c.tag == tag)
            subject = SystemUnderTest(entry.factory("pre"), f"{cls}(pre)")
            cases.append((subject, cause.witness_test, CheckConfig(), phase2))
        return cases
    entry, subject = _queue_subject()  # campaign_random
    config = CheckConfig(
        phase2_strategy="random", phase2_executions=CAMPAIGN_SCHEDULES,
        seed=seed, max_serial_executions=2000,
    )
    tests = sample_tests(
        list(entry.invocations), 3, 3, sizes["samples"], seed=seed, init=entry.init
    )
    return [(subject, test, config, CAMPAIGN_SCHEDULES) for test in tests]


def walk_checks(cases: list, tracer: Tracer) -> dict:
    """Phase 1 and phase 2 of every case, a span around each layer call."""
    from repro.core.harness import TestHarness
    from repro.core.witness import check_full_history, check_stuck_history
    from repro.reduction import FingerprintSet, execution_fingerprint

    counts = {"phase2": [], "classes": 0, "failed": 0}
    for subject, test, config, _ in cases:
        with TestHarness(
            subject, max_steps=config.max_steps, engine=config.engine
        ) as harness:
            with tracer.span("core.phase1"):
                observations, _ = harness.run_serial(
                    test, max_executions=config.max_serial_executions
                )
            executions = 0
            fingerprints = FingerprintSet()
            violated = not observations.is_deterministic
            if not violated:
                explored = harness.explore_concurrent(
                    test, config.make_phase2_strategy(),
                    max_executions=config.max_concurrent_executions,
                )
                try:
                    while not violated:
                        with tracer.span("core.phase2.explore"):
                            item = next(explored, None)
                        if item is None:
                            break
                        history, outcome = item
                        executions += 1
                        with tracer.span("reduction.fingerprint"):
                            fingerprints.add(execution_fingerprint(outcome))
                        with tracer.span("core.witness"):
                            if history.stuck:
                                ok = check_stuck_history(history, observations).ok
                            else:
                                ok = check_full_history(history, observations) is not None
                        violated = not ok
                finally:
                    explored.close()
            counts["phase2"].append(executions)
            counts["classes"] += len(fingerprints)
            counts["failed"] += violated
    return counts


def trace_check_workload(name: str, sizes: dict, seed: int, collector: Collector,
                         tracer: Tracer) -> None:
    from repro import check
    from repro.core.report import render_check_result

    cases = check_cases(name, sizes, seed)
    results, check_total = timed(
        lambda: [check(subject, test, config) for subject, test, config, _ in cases]
    )
    _, untraced = timed(walk_checks, cases, Tracer(name, enabled=False))
    counts, traced = timed(walk_checks, cases, tracer)
    for result in results:
        with tracer.span("core.report"):
            render_check_result(result)

    collector.expect("phase-2 executions (walk)", counts["phase2"],
                     [pinned for *_, pinned in cases])
    collector.expect("phase-2 executions (check)",
                     [r.phase2_executions for r in results], counts["phase2"])
    collector.expect("classes (walk vs check)", counts["classes"],
                     sum(r.equivalence_classes for r in results))
    collector.expect("failing cases", counts["failed"],
                     sum(1 for r in results if r.failed))
    if name == "check_exhaustive":
        collector.expect("classes", counts["classes"], TEST_PINS[sizes["test"]][2])

    nothing = (0, 0.0, 0.0)
    totals = tracer.totals()
    phase1_s = totals["core.phase1"][1]
    explore_s = totals.get("core.phase2.explore", nothing)[1]
    witness_calls, witness_s, _ = totals.get("core.witness", nothing)
    print_calls, print_s, _ = totals.get("reduction.fingerprint", nothing)
    collector.values.update({
        "core.phase1.s": phase1_s,
        "core.phase2.explore_s": explore_s,
        "core.witness.us_per_history": witness_s / max(witness_calls, 1) * 1e6,
        "core.witness.histories": witness_calls,
        "reduction.fingerprint.us_per_execution": print_s / max(print_calls, 1) * 1e6,
        "reduction.classes": counts["classes"],
        "core.report.render_s": totals["core.report"][1],
        "core.check.total_s": check_total,
        "core.check.layers_cover":
            (phase1_s + explore_s + print_s + witness_s) / check_total,
        "trace.overhead_share": traced / untraced - 1.0,
    })


# -- check_sharded: the coordinator call, workers are other processes ---------


def trace_sharded(sizes: dict, workdir: str, collector: Collector,
                  tracer: Tracer) -> None:
    from repro import CheckConfig
    from repro.cli import parse_test
    from repro.exec import PoolConfig
    from repro.swarm import SwarmConfig, swarm_check, swarm_result_to_dict

    test = parse_test(TESTS[sizes["test"]])
    _, phase2, classes = TEST_PINS[sizes["test"]]

    def once(active: Tracer, tag: str):
        with active.span("swarm.check"):
            return swarm_check(
                "ConcurrentQueue", "beta", test, CheckConfig(),
                swarm=SwarmConfig(shards=2),
                pool_config=PoolConfig(
                    workers=2, report_dir=os.path.join(workdir, f"swarm-{tag}")
                ),
            )

    _, untraced = timed(once, Tracer("check_sharded", enabled=False), "untraced")
    result, traced = timed(once, tracer, "traced")
    document = swarm_result_to_dict(result)
    collector.expect("verdict", document["verdict"], "PASS")
    collector.expect("phase-2 executions", document["phase2"]["executions"], phase2)
    collector.expect("classes", document["reduction"]["equivalence_classes"], classes)
    swarm = document["swarm"]
    shard_seconds = [shard["seconds"] for shard in swarm["shards"]]
    collector.values.update({
        "swarm.partition_probes": swarm["partition_probes"],
        "swarm.leases": swarm["leases"],
        "swarm.requeues": swarm["requeues"],
        "swarm.rediscovered_share":
            document["reduction"]["classes_rediscovered"] / classes,
        "swarm.cpu_over_wall": swarm["cpu_seconds"] / swarm["wall_seconds"],
        "swarm.shard_skew": max(shard_seconds) / statistics.mean(shard_seconds),
        "reduction.classes": classes,
        "trace.overhead_share": traced / untraced - 1.0,
    })


# -- the watch workloads: tail, feed, and the monitors fed directly ------------


def watch_once(path: str, model, tracer: Tracer):
    from repro.stream import StreamChecker
    from repro.stream.tail import TraceTailer

    checker = StreamChecker(
        model, partition=model.partitionable, max_configurations=WATCH_CONFIG_CAP
    )
    tailer = TraceTailer(path)
    with tracer.span("stream.tail"):
        segments = tailer.poll()
    with tracer.span("stream.engine"):
        for segment in segments:
            checker.feed(segment.obj)
    return checker, len(segments)


def trace_watch(shape: str, ops: int, seed: int, path: str, workdir: str,
                collector: Collector, tracer: Tracer) -> None:
    from repro.monitor import get_model
    from repro.monitor.dispatch import monitor_history
    from repro.monitor.incremental import IncrementalChecker
    from repro.monitor.trace import load_trace

    model = get_model(SHAPES[shape][0])
    _, untraced = timed(watch_once, path, model, Tracer(shape, enabled=False))
    (checker, lines), traced = timed(watch_once, path, model, tracer)
    stats = checker.stats()
    collector.expect("verdict", stats["verdict"], "PASS")
    collector.expect("retired", stats["retired"], ops)
    collector.expect("cells", stats["cells"], KEYS if model.partitionable else 1)

    with open(path, encoding="utf-8") as handle:
        text = handle.read().splitlines()
    with tracer.span("stream.decode"):
        for line in text:
            json.loads(line)

    # The online monitor alone: pre-decoded events, routed to one checker
    # per key exactly as the stream engine routes them.
    events = load_trace(path).histories[0].events
    cells: dict = {}
    cell_of: dict = {}
    with tracer.span("monitor.incremental"):
        for event in events:
            key = (event.thread, event.op_index)
            if event.is_call:
                cell = (model.partition_key(event.invocation)
                        if model.partitionable else None)
                cell_of[key] = cell
                if cell not in cells:
                    cells[cell] = IncrementalChecker(
                        model, max_configurations=WATCH_CONFIG_CAP
                    )
                cells[cell].on_call(event.thread, event.op_index, event.invocation)
            elif not cells[cell_of.pop(key)].on_return(
                event.thread, event.op_index, event.response
            ):
                collector.problems.append(f"{shape}: incremental monitor said FAIL")
                break
    configurations = sum(c.configurations for c in cells.values())
    collector.expect("incremental configurations vs stream engine",
                     configurations, stats["configurations"])

    # Offline reference on the first WGL_PROBE_OPS operations: the same
    # seed and a smaller count give a prefix of the full trace.
    prefix_ops = min(ops, WGL_PROBE_OPS)
    prefix = os.path.join(workdir, f"{shape}-prefix.jsonl")
    generate(prefix, shape, prefix_ops, seed)
    with tracer.span("monitor.trace.load"):
        history = load_trace(prefix).histories[0]
    with tracer.span("monitor.wgl"):
        verdict = monitor_history(history, model, engine="wgl")
    collector.expect("offline WGL verdict", verdict.ok, True)

    seconds = {name: total for name, (_, total, _) in tracer.totals().items()}
    incremental_s = seconds["monitor.incremental"]
    collector.values.update({
        "stream.tail.us_per_event": seconds["stream.tail"] / lines * 1e6,
        "stream.decode.us_per_event": seconds["stream.decode"] / lines * 1e6,
        "stream.engine.self_us_per_event":
            (seconds["stream.engine"] - incremental_s) / lines * 1e6,
        "stream.cells": stats["cells"],
        "monitor.incremental.us_per_op": incremental_s / ops * 1e6,
        "monitor.incremental.configs_per_op": configurations / ops,
        "monitor.incremental.max_live_configs":
            max(c.max_live_configs for c in cells.values()),
        "monitor.incremental.max_frontier":
            max(c.max_frontier for c in cells.values()),
        "monitor.incremental.max_retirement_lag":
            max(c.max_retirement_lag for c in cells.values()),
        "monitor.wgl.us_per_op": seconds["monitor.wgl"] / prefix_ops * 1e6,
        "monitor.trace.load_s": seconds["monitor.trace.load"],
        "trace.overhead_share": traced / untraced - 1.0,
    })


# -- the pass ------------------------------------------------------------------


def traced_pass(names: list, sizes: dict, seed: int, traces: dict,
                workdir: str, out_dir: str) -> dict:
    """Probes, then one traced pass per workload; span files written last.

    Like the CLI runs, everything is pinned to one CPU except what needs
    two: the worker-pool probe and the ``check_sharded`` pass.
    """
    tracers = []
    metrics = {}
    problems = []

    probes = Collector("probes")
    tracer = Tracer("probes")
    tracers.append(tracer)
    test_name = sizes["test"]
    for names_of, function, args in (
        (("cli.interp_s", "cli.import_s"), probe_cli,
         (child_env(workdir), sizes["cli_samples"])),
        (("runtime.coopc.compile_s", "runtime.baton.us_per_schedule",
          "runtime.coop.us_per_schedule", "runtime.decisions_per_schedule",
          "core.harness.self_us_per_schedule"), probe_runtime, (probes, test_name)),
        (("runtime.baton.serial_us_per_execution",
          "runtime.coop.serial_us_per_execution", "runtime.random.us_per_schedule"),
         probe_serial_and_random, (probes, seed, sizes["serial_probe"])),
        (("reduction.sleep.us_per_schedule", "reduction.dpor.us_per_schedule",
          "reduction.dpor.schedules", "reduction.dpor.pruned"),
         probe_reductions, (sizes["reduction_test"],)),
        (("exec.spawn_s", "exec.roundtrip_ms", "exec.frame.encode_us",
          "exec.frame.decode_us"), probe_exec,
         (probes, workdir, TEST_PINS[test_name][2])),
    ):
        with tracer.span(function.__name__), one_cpu(function is not probe_exec):
            probes.probe(names_of, function, *args)
    metrics["probes"] = probes.rendered("probes")
    problems += probes.problems

    for name in names:
        collector = Collector(name)
        tracer = Tracer(name)
        tracers.append(tracer)
        if name == "check_sharded":
            call = (trace_sharded, (sizes, workdir, collector, tracer))
        elif name in ("watch_keyed", "watch_window"):
            shape = name.split("_")[1]
            call = (trace_watch, (shape, sizes[f"{shape}_ops"], seed, traces[shape],
                                  workdir, collector, tracer))
        else:
            call = (trace_check_workload, (name, sizes, seed, collector, tracer))
        function, args = call
        try:
            with one_cpu(name != "check_sharded"):
                function(*args)
        except Exception as exc:  # the pass must go on: nulls + reason
            traceback.print_exc(file=sys.stderr)
            for metric, (_, _, scope) in LAYER_METRICS.items():
                if scope == "workload":
                    collector.values[metric] = None
                    collector.reasons[metric] = f"{type(exc).__name__}: {exc}"
        metrics[name] = collector.rendered("workload")
        problems += collector.problems

    # Spans are written only now, after every timed region has ended.
    span_files = []
    for tracer in tracers:
        path = os.path.join(out_dir, f"trace-{tracer.scope}.jsonl")
        tracer.write(path)
        span_files.append(os.path.relpath(path, os.path.dirname(out_dir)))
    for problem in problems:
        print(f"TRACED PASS: {problem}", file=sys.stderr)
    return {
        "metrics": metrics, "correct": not problems,
        "problems": problems, "span_files": span_files,
    }


def main(argv: list) -> int:
    """``layers.py SPEC.json``: the pass ``run.py`` starts as a process."""
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = traced_pass(spec["names"], spec["sizes"], spec["seed"], spec["traces"],
                         spec["workdir"], spec["out_dir"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
