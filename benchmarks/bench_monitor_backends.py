"""Monitor engines head-to-head: the online engine vs the WGL reference.

Three questions:

1. **Backend** — on a live subject, how does the two-phase check
   (synthesize a spec serially, then witness-search) compare with
   model-based monitoring (no phase 1 at all)?
2. **Engine** — on per-key and producer/consumer workloads, what does
   the online engine every command decides with (the closure of
   :mod:`repro.monitor.incremental`, one history at a time) cost next
   to the whole-history Wing–Gong–Lowe search it is tested against?
3. **Product** — how long does ``lineup monitor`` take, process start to
   exit code, on the perfbench trace shapes (``window`` at 300, 1 000
   and 3 000 operations, ``keyed`` at 40 000) and on the 499 files the
   gate test dumps?

Shape asserted: the online engine agrees with WGL on every verdict (the
synthetic workloads and every gate-dump history), and every ``monitor``
row is a PASS.

``python benchmarks/bench_monitor_backends.py --quick`` runs a reduced
version as a CI smoke test (no pytest-benchmark needed: the window
traces at 300 and 1 000 operations and the gate dump); with no flag it
runs the full EXPERIMENTS.md workload.
"""

from __future__ import annotations

import glob
import os
import random
import subprocess
import sys
import tempfile
import time

from repro.core.events import Event, Invocation, Response
from repro.core.history import History
from repro.monitor import get_model, load_trace, monitor_history

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The gate test of the class-partition pins: 499 judged histories.
GATE = "Enqueue(1); TryDequeue | Enqueue(2) | TryDequeue"

DICT = get_model("dict")
QUEUE = get_model("queue")


# ---------------------------------------------------------------------------
# Workload generators (synthetic histories, correct by construction).


def per_key_dict_history(
    n_threads: int, rounds: int, seed: int, violate: bool = False
) -> History:
    """Each thread hammers its own key; all calls of a round overlap.

    The layered overlap is the adversarial case for the whole-history
    search.  A passing history is cheap for every engine (the DFS walks
    straight down a witness), so *violating* histories — where the
    search must exhaust the configuration space to prove the FAIL — are
    where the partition pays off: with ``violate`` one response is
    corrupted, and the whole-history refutation multiplies across
    threads while the per-key engines refute one small cell.
    """
    rng = random.Random(seed)
    model = DICT
    states = {t: model.initial_state() for t in range(n_threads)}
    events: list[Event] = []
    for r in range(rounds):
        invocations = {}
        for t in range(n_threads):
            method = rng.choice(
                ["TryAdd", "TryRemove", "TryGetValue", "ContainsKey"]
            )
            args = (f"k{t}", r) if method == "TryAdd" else (f"k{t}",)
            invocations[t] = Invocation(method, args)
            events.append(Event.call(t, r, invocations[t]))
        for t in range(n_threads):
            states[t], response = model.apply(states[t], invocations[t])
            if violate and t == 0 and r == rounds // 2:
                response = Response.of("poison")  # matches no model response
            events.append(Event.ret(t, r, response))
    return History(events, n_threads=n_threads)


def long_queue_history(n_values: int, seed: int) -> History:
    """A 2-thread producer/consumer run with overlapping enqueue/dequeue."""
    rng = random.Random(seed)
    events: list[Event] = []
    queued: list[int] = []
    produced = consumed = 0
    p_index = c_index = 0
    while consumed < n_values:
        if produced < n_values and (not queued or rng.random() < 0.5):
            events.append(Event.call(0, p_index, Invocation("Enqueue", (produced,))))
            events.append(Event.ret(0, p_index, Response.of(None)))
            queued.append(produced)
            produced += 1
            p_index += 1
        else:
            value = queued.pop(0)
            events.append(Event.call(1, c_index, Invocation("TryDequeue", ())))
            events.append(Event.ret(1, c_index, Response.of(value)))
            consumed += 1
            c_index += 1
    return History(events, n_threads=2)


ENGINES = ("online", "wgl")


def run_engines(histories, model):
    """Check every history with both engines; return per-engine totals."""
    totals = {}
    verdicts = {}
    for engine in ENGINES:
        monitor_history(histories[0], model, engine=engine)  # imports
        t0 = time.perf_counter()
        configurations = 0
        oks = []
        for history in histories:
            verdict = monitor_history(history, model, engine=engine)
            configurations += verdict.configurations
            oks.append(verdict.ok)
        totals[engine] = {
            "seconds": time.perf_counter() - t0,
            "configurations": configurations,
        }
        verdicts[engine] = oks
    assert verdicts["online"] == verdicts["wgl"], "online disagrees with wgl"
    return totals


def dict_workload(n_histories: int, n_threads: int, rounds: int):
    # Half the histories carry a single-cell violation (see the
    # generator's docstring): the refutations are where the engines part.
    return [
        per_key_dict_history(n_threads, rounds, seed, violate=seed % 2 == 1)
        for seed in range(n_histories)
    ]


def queue_workload(n_histories: int, n_values: int):
    return [long_queue_history(n_values, seed) for seed in range(n_histories)]


def print_table(title: str, totals: dict) -> None:
    print(f"\n=== {title} ===")
    print(f"{'engine':14s} {'configurations':>14s} {'ms':>9s}")
    for name, row in totals.items():
        print(
            f"{name:14s} {row['configurations']:14d} "
            f"{row['seconds'] * 1000:9.1f}"
        )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points.


def test_engines_on_per_key_dict_workload(benchmark):
    from conftest import once

    histories = dict_workload(n_histories=20, n_threads=5, rounds=5)
    totals = once(benchmark, run_engines, histories, DICT)
    print_table("per-key dict workload (5 threads x 5 rounds, 20 histories)", totals)


def test_engines_on_long_queue_histories(benchmark):
    from conftest import once

    histories = queue_workload(n_histories=10, n_values=120)
    totals = once(benchmark, run_engines, histories, QUEUE)
    print_table("producer/consumer queue (120 values, 10 histories)", totals)


def test_backends_on_live_subject(benchmark, scheduler):
    """Two-phase check vs the monitor backend on the same subject/test."""
    from conftest import once

    from repro.core import CheckConfig, FiniteTest, SystemUnderTest, check
    from repro.structures import get_class

    entry = get_class("ConcurrentQueue")
    test = FiniteTest.of(
        [
            [Invocation("Enqueue", (1,)), Invocation("TryDequeue", ())],
            [Invocation("Enqueue", (2,)), Invocation("TryDequeue", ())],
        ]
    )

    def run_both():
        out = {}
        for backend, config in (
            ("observations", CheckConfig()),
            ("monitor", CheckConfig(model="queue")),
        ):
            subject = SystemUnderTest(entry.factory("beta"), "ConcurrentQueue(beta)")
            t0 = time.perf_counter()
            result = check(subject, test, config, scheduler=scheduler)
            out[backend] = {
                "seconds": time.perf_counter() - t0,
                "verdict": result.verdict,
                "phase1_executions": result.phase1.executions,
            }
        return out

    out = once(benchmark, run_both)
    assert out["observations"]["verdict"] == out["monitor"]["verdict"] == "PASS"
    assert out["monitor"]["phase1_executions"] == 0
    print("\n=== backends on ConcurrentQueue(beta), 2x2 test ===")
    for backend, row in out.items():
        print(
            f"{backend:14s} verdict={row['verdict']} "
            f"phase1={row['phase1_executions']:4d} "
            f"{row['seconds'] * 1000:8.1f} ms"
        )


# ---------------------------------------------------------------------------
# The product: `lineup monitor`, process start to exit code.


def monitor_seconds(paths: list[str]) -> float:
    """Wall time of one ``lineup monitor`` run, asserting its PASS."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "monitor", *paths, "--model",
         "dict" if "keyed" in paths[0] else "queue"],
        env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    return seconds


def product_rows(workdir: str, quick: bool) -> list[tuple[str, float]]:
    """``monitor`` on the perfbench trace shapes and the gate dump."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from gen_traces import generate

    shapes = [("window", 300), ("window", 1_000)]
    if not quick:
        shapes += [("window", 3_000), ("keyed", 40_000)]
    rows = []
    for shape, ops in shapes:
        path = os.path.join(workdir, f"{shape}-{ops}.trace.jsonl")
        generate(path, shape, ops, 1)
        rows.append((f"{shape} trace, {ops} ops", monitor_seconds([path])))
    dump = os.path.join(workdir, "gate")
    subprocess.run(
        [sys.executable, "-m", "repro", "check", "ConcurrentQueue", "--test",
         GATE, "--dump-traces", dump],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, check=True,
    )
    paths = sorted(glob.glob(os.path.join(dump, "*", "*.trace.jsonl")))
    # Every gate history, verdict for verdict, against the reference.
    histories = [load_trace(path).histories[0] for path in paths]
    run_engines(histories, QUEUE)
    rows.append((f"gate dump, {len(paths)} files", monitor_seconds(paths)))
    return rows


# ---------------------------------------------------------------------------
# Stand-alone smoke mode for CI (no pytest, no benchmark plugin).


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload: a fast CI smoke test",
    )
    args = parser.parse_args(argv)

    if args.quick:
        dict_histories = dict_workload(n_histories=5, n_threads=4, rounds=4)
        queue_histories = queue_workload(n_histories=3, n_values=40)
    else:
        dict_histories = dict_workload(n_histories=20, n_threads=5, rounds=5)
        queue_histories = queue_workload(n_histories=10, n_values=120)

    print_table(
        f"per-key dict workload ({len(dict_histories)} histories)",
        run_engines(dict_histories, DICT),
    )
    print_table(
        f"producer/consumer queue ({len(queue_histories)} histories)",
        run_engines(queue_histories, QUEUE),
    )
    with tempfile.TemporaryDirectory() as workdir:
        rows = product_rows(workdir, args.quick)
    print("\n=== lineup monitor, process start to exit code ===")
    for name, seconds in rows:
        print(f"{name:28s} {seconds:8.2f} s")
    print("\nsmoke PASS: online agrees with WGL on every verdict")
    return 0


if __name__ == "__main__":
    sys.exit(main())
