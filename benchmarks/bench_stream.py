"""Streaming-monitor benchmark: online throughput, bounded memory, shards.

Sections, written to ``BENCH_stream.json`` via ``benchlib``:

* **throughput** — a long v2 counter trace fed through
  :class:`repro.stream.StreamChecker`; asserts the single-shard engine
  sustains at least 10^4 checked operations per second (the acceptance
  floor of the streaming-monitor work).
* **bounded_memory** — the product path, :func:`repro.stream.watch_trace`
  (tailer, decoder, engine), over one generator at 1x and 10x length,
  both far longer than the concurrency window; asserts ``max_frontier``
  equals the window (retirement works) and that ten times the trace
  costs at most 1.5x the peak of traced Python memory — what a watch
  holds is the window plus one read block, not the backlog.  The RSS
  high-water of an untraced 10x run is recorded beside it.
* **time_to_fail** — the 10x trace with a violation 1 % in: seconds to
  the FAIL and bytes of the file consumed (a prefix, within one block).
* **decode** — ``TraceDecoder`` events per second over per-key traces
  with 16 and with 10 000 distinct keys, i.e. with the literal memo
  hitting and missing; asserts the missing case stays within 0.9x of
  decoding the same lines with plain ``ast.literal_eval``.  Beside it,
  recorded only: the rate with the decoder's intern tables off as well,
  and the parse-inclusive rate — the trace file read and parsed by
  :func:`iter_trace`, then decoded.
* **closure** — what one return's closure costs where closures are
  large: the perfbench ``window`` trace (queue, four overlapping
  sessions, ~420 configurations per operation) through
  :class:`~repro.monitor.incremental.IncrementalChecker` and through the
  flat-set implementation it replaced (``tests/stream/reference.py``),
  alternating.  Asserts equal configuration counts and at least 4x the
  reference's speed; records model steps per configuration and, on the
  same trace at two lengths, what the *offline* search costs per
  operation — that one is quadratic in trace length, so which of the two
  is faster depends on where the trace is cut.
* **shard_scaling** — a per-key dictionary trace checked in-process
  (the single-shard baseline) and then fanned across the worker pool
  at increasing shard counts.  Verdicts and cell counts are asserted
  equal; wall-clock per configuration is recorded, not asserted —
  near-linear scaling is only expected up to the machine's core count,
  and on a single-core CI runner the sharded rows mostly measure pool
  supervision overhead (the snapshot is the artifact).

``--quick`` shrinks every section for the CI smoke job.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

from repro.core.events import Invocation, Response
from repro.monitor import get_model
from repro.monitor import trace as trace_module
from repro.monitor.incremental import IncrementalChecker
from repro.monitor.models import SequentialModel
from repro.monitor.trace import (
    LiveTraceWriter,
    TraceDecoder,
    iter_trace,
    load_trace,
)
from repro.monitor.wgl import wgl_check
from repro.stream import StreamChecker, WatchConfig, watch_sharded, watch_trace

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Section sizes per mode.  The quick trace is still long enough that an
#: engine leaking state per retired operation would blow its assertions.
MODES = {
    "quick": {
        "throughput_ops": 5_000,
        "memory_ops": 2_000,
        "decode_ops": 20_000,
        "window": 4,
        "keys": 8,
        "rounds": 50,
        "shard_counts": [2],
    },
    "full": {
        "throughput_ops": 50_000,
        "memory_ops": 20_000,
        "decode_ops": 100_000,
        "window": 4,
        "keys": 16,
        "rounds": 400,
        "shard_counts": [2, 4],
    },
}

THROUGHPUT_FLOOR_PER_SEC = 10_000
#: Ten times the trace may cost this much more peak memory, no more.
MEMORY_GROWTH_CEILING = 1.5
#: The memo's miss path against no memo at all, as a rate ratio.
DECODE_MISS_FLOOR = 0.9
DECODE_KEYS = (16, 10_000)
#: The closure row: perfbench's gate size, and the bucketed closure
#: against the flat reference as a rate ratio.  7.4–7.7x on this host
#: since models step in plain answers (4.5x before); the reference itself
#: reads ~4 % slower than it did, its ``apply`` now being derived from
#: ``step``.  The floor sits below what the previous closure reached.
CLOSURE_OPS = 1_000
CLOSURE_SPEEDUP_FLOOR = 4.0
#: Trace lengths at which the offline search is timed on the same trace.
CLOSURE_OFFLINE_OPS = (300, 1_000)


def ok(value=None) -> Response:
    return Response("ok", value)


def write_counter_trace(
    path: str, ops: int, window: int, fail_round: int | None = None
) -> None:
    """``ops`` increments from ``window`` threads, all windows full.

    Every round opens all ``window`` calls before closing any, so the
    frontier is pinned at exactly ``window`` — ``inc`` returns ok(None)
    under every interleaving, keeping the trace valid by construction.
    In round *fail_round* thread 0 instead reads a count of -1, which no
    interleaving of increments explains.
    """
    writer = LiveTraceWriter(
        path, sessions=window, model="counter", flush_every_n=1_000
    )
    op_index = [0] * window
    rounds = ops // window
    for rnd in range(rounds):
        bad = rnd == fail_round
        for thread in range(window):
            method = "get" if bad and thread == 0 else "inc"
            writer.record_call(
                thread, op_index[thread], Invocation(method, ()), 0.0
            )
        for thread in range(window):
            value = -1 if bad and thread == 0 else None
            writer.record_return(thread, op_index[thread], ok(value), 0.0)
            op_index[thread] += 1
    writer.finalize("drained", 1.0)


def write_dict_trace(path: str, keys: int, rounds: int) -> None:
    """One session per key cycling add / contains / remove."""
    writer = LiveTraceWriter(
        path, sessions=keys, model="dict", flush_every_n=1_000
    )
    for rnd in range(rounds):
        for k in range(keys):
            base = rnd * 3
            key = f"key-{k}"
            for offset, (inv, resp) in enumerate(
                [
                    (Invocation("TryAdd", (key,)), ok(True)),
                    (Invocation("ContainsKey", (key,)), ok(True)),
                    # TryRemove yields the removed value (= the key, by
                    # the model's value-defaulting convention).
                    (Invocation("TryRemove", (key,)), ok(key)),
                ]
            ):
                writer.record_call(k, base + offset, inv, 0.0)
                writer.record_return(k, base + offset, resp, 0.0)
    writer.finalize("drained", 1.0)


def feed_file(checker: StreamChecker, path: str) -> float:
    """Line-at-a-time feed, JSON parse included — that is what a live
    follower pays per event, and nothing but the checker accumulates."""
    t0 = time.perf_counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not checker.feed(json.loads(line)):
                break
    return time.perf_counter() - t0


def bench_throughput(tmp, ops: int, window: int) -> dict:
    path = os.path.join(tmp, "throughput.jsonl")
    write_counter_trace(path, ops, window)
    checker = StreamChecker(get_model("counter"))
    seconds = feed_file(checker, path)
    assert checker.verdict == "PASS", checker.verdict
    done = checker.counters.returns
    per_sec = done / seconds if seconds else float("inf")
    assert per_sec >= THROUGHPUT_FLOOR_PER_SEC, (
        f"single-shard throughput {per_sec:.0f} ops/s is below the "
        f"{THROUGHPUT_FLOOR_PER_SEC} floor"
    )
    return {
        "ops": done,
        "window": window,
        "seconds": seconds,
        "ops_per_sec": per_sec,
    }


def bench_bounded_memory(tmp, ops: int, window: int) -> dict:
    model = get_model("counter")
    paths = {}
    for scale in (1, 10):
        paths[scale] = os.path.join(tmp, f"memory-{scale}x.jsonl")
        write_counter_trace(paths[scale], ops * scale, window)

    def watch(scale: int):
        stats_path = os.path.join(tmp, f"memory-{scale}x.stats.jsonl")
        if os.path.exists(stats_path):
            os.unlink(stats_path)
        t0 = time.perf_counter()
        # A stat line per read block: live_configs sampled all along.
        result = watch_trace(
            paths[scale],
            model,
            WatchConfig(stats_out=stats_path, stats_interval=0.0),
        )
        seconds = time.perf_counter() - t0
        assert result.verdict == "PASS" and result.finalized, result
        assert result.stats["returns"] == ops * scale, result.stats
        # Retirement keeps the frontier at the concurrency window and
        # drains it completely once the writer's windows close.
        assert result.stats["max_frontier"] == window, result.stats
        assert result.stats["frontier"] == 0, result.stats
        with open(stats_path, encoding="utf-8") as handle:
            samples = [json.loads(line) for line in handle]
        return result, seconds, samples

    def traced_peak(scale: int) -> int:
        tracemalloc.start()
        try:
            watch(scale)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Untraced first: ru_maxrss is a process-wide high-water mark and
    # tracemalloc's own tables would count towards it.
    result, seconds, samples = watch(10)
    peak_1x, peak_10x = traced_peak(1), traced_peak(10)
    assert peak_10x <= MEMORY_GROWTH_CEILING * peak_1x, (
        f"10x the trace cost {peak_10x / peak_1x:.2f}x the peak memory "
        f"({peak_1x} -> {peak_10x} bytes): the watch is holding the backlog"
    )
    return {
        "ops_1x": ops,
        "ops_10x": result.stats["returns"],
        "window": window,
        "seconds_10x": seconds,
        "max_frontier": result.stats["max_frontier"],
        "max_live_configs": max(s["live_configs"] for s in samples),
        "max_retirement_lag": result.stats["max_retirement_lag"],
        "memory_kb_high_water_10x": result.stats["maxrss_kb"],
        "traced_peak_bytes_1x": peak_1x,
        "traced_peak_bytes_10x": peak_10x,
        "peak_growth_10x": peak_10x / peak_1x,
    }


def bench_time_to_fail(tmp, ops: int, window: int) -> dict:
    path = os.path.join(tmp, "fail.jsonl")
    rounds = ops // window
    write_counter_trace(path, ops, window, fail_round=rounds // 100)
    stats_path = os.path.join(tmp, "fail.stats.jsonl")
    t0 = time.perf_counter()
    result = watch_trace(
        path, get_model("counter"), WatchConfig(stats_out=stats_path)
    )
    seconds = time.perf_counter() - t0
    assert result.verdict == "FAIL" and result.counterexample, result
    with open(stats_path, encoding="utf-8") as handle:
        final = [json.loads(line) for line in handle][-1]
    size = os.path.getsize(path)
    consumed = size - final["backlog_bytes"]
    # 1 % of the file plus the block the failing line sits in.
    assert consumed <= size // 100 + 2 * trace_module.READ_BLOCK_BYTES, (
        f"a FAIL 1 % in consumed {consumed} of {size} bytes"
    )
    return {
        "ops": ops,
        "fail_at_op": rounds // 100 * window,
        "seconds_to_fail": seconds,
        "events_consumed": result.stats["events"],
        "bytes_consumed": consumed,
        "file_bytes": size,
    }


def bench_decode(tmp, ops: int) -> dict:
    """Decode rates, memo hitting (16 keys) and missing (10 000).

    Decoder-only (parsed lines in) with and without the literal memo,
    and with neither it nor the intern tables; and parse-inclusive: trace
    bytes in, checker input out — :func:`iter_trace` then the decoder,
    what ``watch`` pays before its router.
    """

    def trace_for(keys: int) -> str:
        path = os.path.join(tmp, f"decode-{keys}.jsonl")
        writer = LiveTraceWriter(
            path, sessions=1, model="dict", flush_every_n=1_000
        )
        for n in range(ops):
            key = f"key-{n % keys}"
            writer.record_call(0, n, Invocation("TryAdd", (key,)), 0.0)
            writer.record_return(0, n, ok(key), 0.0)
        writer.close()
        return path

    def seconds(objs: list[dict]) -> float:
        decoder = TraceDecoder()
        t0 = time.perf_counter()
        for obj in objs:
            decoder.feed(obj)
        return time.perf_counter() - t0

    def parse_seconds(path: str) -> float:
        decoder = TraceDecoder()
        t0 = time.perf_counter()
        for segment in iter_trace(path):
            decoder.feed(segment.obj)
        return time.perf_counter() - t0

    plain_literal = mock.patch.object(trace_module, "_literal", ast.literal_eval)
    no_interning = mock.patch.object(trace_module, "_remember", lambda *_: None)
    row: dict = {"ops": ops}
    for keys in DECODE_KEYS:
        path = trace_for(keys)
        with open(path, encoding="utf-8") as handle:
            objs = [json.loads(line) for line in handle]
        memo = plain = bare = parse = float("inf")
        for _ in range(4):  # alternating, best of: the ratio is asserted
            memo = min(memo, seconds(objs))
            with plain_literal:
                plain = min(plain, seconds(objs))
                with no_interning:
                    bare = min(bare, seconds(objs))
            parse = min(parse, parse_seconds(path))
        row[f"events_per_sec_{keys}_keys"] = len(objs) / memo
        row[f"plain_events_per_sec_{keys}_keys"] = len(objs) / plain
        # Recorded, not asserted: neither the memo nor the intern tables.
        row[f"bare_events_per_sec_{keys}_keys"] = len(objs) / bare
        row[f"parse_events_per_sec_{keys}_keys"] = len(objs) / parse
    missing = row[f"events_per_sec_{DECODE_KEYS[-1]}_keys"]
    plain = row[f"plain_events_per_sec_{DECODE_KEYS[-1]}_keys"]
    assert missing >= DECODE_MISS_FLOOR * plain, (
        f"with {DECODE_KEYS[-1]} distinct keys the memo decodes "
        f"{missing:.0f} events/s, under {DECODE_MISS_FLOOR}x the "
        f"{plain:.0f} of plain literal_eval"
    )
    return row


class _CountingModel(SequentialModel):
    """A model that counts its steps (the reference's ``apply`` is one)."""

    def __init__(self, model) -> None:
        self.model = model
        self.steps = 0

    def initial_state(self):
        return self.model.initial_state()

    def step(self, state, invocation):
        self.steps += 1
        return self.model.step(state, invocation)


def bench_closure(tmp) -> dict:
    """Bucketed closure vs the flat reference on the perfbench window trace."""
    for path in (os.path.join(_ROOT, "perfbench"), _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from gen_traces import generate  # perfbench: the watch_window generator
    from tests.stream.reference import ReferenceChecker

    model = get_model("queue")

    def events_of(ops: int):
        # One seed and a smaller count give a prefix of the longer trace.
        path = os.path.join(tmp, f"window-{ops}.jsonl")
        generate(path, "window", ops, 1)
        return load_trace(path).histories[0]

    events = events_of(CLOSURE_OPS).events

    def run(checker_class, checked_model=model):
        checker = checker_class(checked_model)
        t0 = time.perf_counter()
        for event in events:
            if event.is_call:
                checker.on_call(event.thread, event.op_index, event.invocation)
            else:
                assert checker.on_return(
                    event.thread, event.op_index, event.response
                )
        return checker, time.perf_counter() - t0

    bucketed = flat = float("inf")
    for _ in range(4):  # alternating, best of: the ratio is asserted
        new, seconds = run(IncrementalChecker)
        bucketed = min(bucketed, seconds)
        old, seconds = run(ReferenceChecker)
        flat = min(flat, seconds)
    assert new.configurations == old.configurations, (
        f"bucketed closure explored {new.configurations} configurations, "
        f"the flat reference {old.configurations}"
    )
    assert new.max_live_configs == old.max_live_configs
    speedup = flat / bucketed
    assert speedup >= CLOSURE_SPEEDUP_FLOOR, (
        f"bucketed closure is {speedup:.2f}x the flat reference, "
        f"under the {CLOSURE_SPEEDUP_FLOOR}x floor"
    )

    def steps_per_config(checker_class) -> float:
        counting = _CountingModel(model)
        checker, _ = run(checker_class, counting)
        return counting.steps / checker.configurations

    row = {
        "ops": CLOSURE_OPS,
        "configurations": new.configurations,
        "configs_per_op": new.configurations / CLOSURE_OPS,
        "max_live_configs": new.max_live_configs,
        "us_per_op": bucketed / CLOSURE_OPS * 1e6,
        "us_per_config": bucketed / new.configurations * 1e6,
        "model_steps_per_config": steps_per_config(IncrementalChecker),
        "reference_us_per_op": flat / CLOSURE_OPS * 1e6,
        "reference_us_per_config": flat / old.configurations * 1e6,
        "reference_model_steps_per_config": steps_per_config(ReferenceChecker),
        "speedup_vs_reference": speedup,
    }
    for ops in CLOSURE_OFFLINE_OPS:
        history = events_of(ops)
        offline = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert wgl_check(history, model).ok
            offline = min(offline, time.perf_counter() - t0)
        row[f"offline_wgl_us_per_op_{ops}_ops"] = offline / ops * 1e6
    return row


def bench_shard_scaling(tmp, keys: int, rounds: int, shard_counts) -> dict:
    path = os.path.join(tmp, "dict.jsonl")
    write_dict_trace(path, keys, rounds)

    t0 = time.perf_counter()
    baseline = watch_trace(path, get_model("dict"), WatchConfig())
    baseline_seconds = time.perf_counter() - t0
    assert baseline.verdict == "PASS", baseline.verdict
    assert baseline.stats["cells"] == keys, baseline.stats

    rows = []
    for shards in shard_counts:
        t0 = time.perf_counter()
        result = watch_sharded(
            path, "dict", WatchConfig(shards=shards), workers=shards
        )
        seconds = time.perf_counter() - t0
        assert result.verdict == baseline.verdict, result.verdict
        assert result.stats["cells"] == keys, result.stats
        rows.append(
            {
                "shards": shards,
                "seconds": seconds,
                "events_per_sec": result.stats["events"] / seconds
                if seconds
                else 0.0,
                "max_frontier": result.stats["max_frontier"],
            }
        )
    return {
        "keys": keys,
        "events": baseline.stats["events"],
        "baseline": {
            "seconds": baseline_seconds,
            "events_per_sec": baseline.events_per_sec,
        },
        "sharded": rows,
    }


def print_report(payload: dict) -> None:
    tp = payload["throughput"]
    print(
        f"throughput: {tp['ops']} ops in {tp['seconds']:.3f}s "
        f"= {tp['ops_per_sec']:,.0f} ops/s (floor {THROUGHPUT_FLOOR_PER_SEC:,})"
    )
    mem = payload["bounded_memory"]
    print(
        f"bounded memory: {mem['ops_1x']} -> {mem['ops_10x']} ops, max "
        f"frontier {mem['max_frontier']} (= window), max live configs "
        f"{mem['max_live_configs']}, traced peak {mem['traced_peak_bytes_1x']} "
        f"-> {mem['traced_peak_bytes_10x']} bytes ({mem['peak_growth_10x']:.2f}x, "
        f"ceiling {MEMORY_GROWTH_CEILING}x), rss high-water "
        f"{mem['memory_kb_high_water_10x']} KiB"
    )
    ttf = payload["time_to_fail"]
    print(
        f"time to fail: violation at op {ttf['fail_at_op']} of {ttf['ops']} "
        f"found in {ttf['seconds_to_fail']:.3f}s after {ttf['bytes_consumed']} "
        f"of {ttf['file_bytes']} bytes"
    )
    dec = payload["decode"]
    for keys in DECODE_KEYS:
        print(
            f"decode, {keys:>6} keys: "
            f"{dec[f'events_per_sec_{keys}_keys']:10,.0f} ev/s with the memo, "
            f"{dec[f'plain_events_per_sec_{keys}_keys']:10,.0f} without, "
            f"{dec[f'bare_events_per_sec_{keys}_keys']:10,.0f} without "
            f"interning too, "
            f"{dec[f'parse_events_per_sec_{keys}_keys']:10,.0f} parse-inclusive"
        )
    closure = payload["closure"]
    offline = ", ".join(
        f"{closure[f'offline_wgl_us_per_op_{ops}_ops']:.0f} at {ops} ops"
        for ops in CLOSURE_OFFLINE_OPS
    )
    print(
        f"closure: {closure['configs_per_op']:.1f} configs/op, max live "
        f"{closure['max_live_configs']}: bucketed {closure['us_per_op']:.0f} "
        f"us/op ({closure['us_per_config']:.2f} us/config, "
        f"{closure['model_steps_per_config']:.2f} model steps/config), flat "
        f"reference {closure['reference_us_per_op']:.0f} us/op "
        f"({closure['reference_model_steps_per_config']:.2f} steps/config) = "
        f"{closure['speedup_vs_reference']:.2f}x (floor "
        f"{CLOSURE_SPEEDUP_FLOOR}x); offline WGL us/op on the same trace: "
        f"{offline}"
    )
    scaling = payload["shard_scaling"]
    print(
        f"shard scaling over {scaling['events']} events, "
        f"{scaling['keys']} cells:"
    )
    print(
        f"  {'in-process':>10s} {scaling['baseline']['seconds']:8.2f}s "
        f"{scaling['baseline']['events_per_sec']:10,.0f} ev/s"
    )
    for row in scaling["sharded"]:
        print(
            f"  {str(row['shards']) + ' shards':>10s} {row['seconds']:8.2f}s "
            f"{row['events_per_sec']:10,.0f} ev/s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small traces, CI smoke")
    parser.add_argument("--shards", type=int, nargs="*", default=None,
                        help="shard counts to measure")
    parser.add_argument("--out", default="BENCH_stream.json",
                        help="perf snapshot path (default BENCH_stream.json)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    sizes = MODES[mode]
    shard_counts = args.shards if args.shards else sizes["shard_counts"]

    with tempfile.TemporaryDirectory(prefix="bench-stream-") as tmp:
        # Memory first: getrusage's maxrss is a process-wide high-water
        # mark, so the bounded-memory evidence must be collected before
        # any other section can inflate it.
        memory = bench_bounded_memory(tmp, sizes["memory_ops"], sizes["window"])
        payload = {
            "mode": mode,
            "throughput": bench_throughput(
                tmp, sizes["throughput_ops"], sizes["window"]
            ),
            "bounded_memory": memory,
            "time_to_fail": bench_time_to_fail(
                tmp, 10 * sizes["memory_ops"], sizes["window"]
            ),
            "decode": bench_decode(tmp, sizes["decode_ops"]),
            "closure": bench_closure(tmp),
            "shard_scaling": bench_shard_scaling(
                tmp, sizes["keys"], sizes["rounds"], shard_counts
            ),
        }

    print_report(payload)

    import benchlib

    benchlib.write_snapshot(args.out, "stream", payload)
    print(f"\nsmoke PASS: snapshot written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
