"""perfbench: process start to exit code for ``lineup check`` / ``campaign`` / ``watch``.

Every workload is run as CLI subprocesses (``python -m repro ...`` with
``PYTHONPATH=src`` and default flags), closed loop, one client: the next
run starts when the previous one exits.  Each run's output is checked
against the workload's pinned exit code, verdict and counts.

Two ways to run it::

    python perfbench/run.py --seed 1 [--trace] [--quick] [--repeats N]

runs all six workloads ``--repeats`` times each, round-robin, at the
``full`` sizes, prints every metric by name and writes the result JSON
that ``perfbench/compare.py`` reads.  And::

    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

is the time-boxed form named in ``BENCHMARK.json``: one workload at the
``gate`` sizes, run again and again for S seconds, and as the last line
of stdout one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced in-process pass (``--trace 1``).

See ``perfbench/README.md`` for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from gen_traces import HERE, SRC, generate
from proc import (
    SPIN_REFERENCE_S, become_subreaper, reap_children, run_cli, run_to_end, spin,
)
from workloads import PROFILES, WORKLOADS, Workload

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: name -> (unit, better); the first five are the ones ``BENCHMARK.json``
#: bounds (they exist on every workload), the rest only the full mode prints.
#: Every time but ``wall_raw_s`` is divided by its run's ``host_slowdown``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "work_per_s": ("1/s", "higher"),
    "executions_per_s": ("1/s", "higher"),
    "events_per_s": ("1/s", "higher"),
    "first_fail_s": ("s", "lower"),
    "first_fail_p90_s": ("s", "lower"),
    "wall_raw_s": ("s", "lower"),
    "host_slowdown": ("ratio", "lower"),
}
GATED = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "work_per_s")

SETUP_REPEATS = 5
TRACED_PASS_TIMEOUT_S = 1500.0


class HostSpeed:
    """A spin before and after each timed thing: how slow the host was around it."""

    def __init__(self) -> None:
        self.edge = spin()

    def slowdown_since_last(self) -> float:
        """Spin again; the mean of this spin and the previous one ÷ the reference."""
        after = spin()
        slowdown = (self.edge + after) / 2.0 / SPIN_REFERENCE_S
        self.edge = after
        return slowdown


def run_once(commands: list, rundir: str, pinned: bool) -> dict:
    """One run of a workload (for the bug suite: one round of its seven).

    Returns the run's sample; ``problems`` is non-empty when an exit code,
    verdict or pinned count was wrong — such a run contributes no timing.
    """
    os.makedirs(rundir)
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "work": 0,
              "process_s": [], "problems": []}
    try:
        for index, command in enumerate(commands):
            run = run_cli(command.argv, rundir, f"cmd{index}", pinned)
            work, problems = command.check(run["stdout"])
            if run["exit_code"] != command.exit_code:
                problems.insert(0, f"exit code: got {run['exit_code']}, "
                                   f"expected {command.exit_code}")
            if problems:
                sample["problems"].append({
                    "argv": list(command.argv),
                    "problems": problems,
                    "stdout_tail": run["stdout"][-1500:],
                    "stderr_tail": run["stderr"][-1500:],
                })
            sample["wall_s"] += run["wall_s"]
            sample["cpu_s"] += run["cpu_s"]
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], run["peak_rss_mb"])
            sample["work"] += work
            sample["process_s"].append(run["wall_s"])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return sample


def set_up(workload: Workload, sizes: dict, seed: int, directory: str) -> dict:
    """Everything before the first timed run; returns the trace paths.

    A fresh directory, a warm-up ``python -m repro list`` (compiles and
    caches the ``.pyc`` files), and the workload's generated traces.
    """
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    warm = run_cli(("list",), directory, "warmup")
    if warm["exit_code"] != 0:
        raise RuntimeError(f"warm-up 'repro list' failed:\n{warm['stderr'][-1500:]}")
    traces = {}
    shape = workload.trace_shape
    if shape is not None:
        ops = sizes[f"{shape}_ops"]
        traces[shape] = os.path.join(directory, f"{shape}.jsonl")
        generate(traces[shape], shape, ops, seed)
    return traces


def summarise(values: list) -> dict | None:
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "min": ordered[0], "max": ordered[-1], "n": len(ordered),
    }


def percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(workload: Workload, setup_samples: list, samples: list) -> dict:
    """The metrics of one workload from its good samples (failed runs give none)."""
    good = [s for s in samples if not s["problems"]]
    rate = [s["work"] / s["wall_s"] for s in good]
    metrics = {
        "setup_s": summarise(setup_samples),
        "wall_s": summarise([s["wall_s"] for s in good]),
        "cpu_s": summarise([s["cpu_s"] for s in good]),
        "peak_rss_mb": summarise([s["peak_rss_mb"] for s in good]),
        "work_per_s": summarise(rate),
        "executions_per_s": summarise(rate) if workload.work_unit == "executions" else None,
        "events_per_s": summarise(rate) if workload.work_unit == "events" else None,
        "first_fail_s": None,
        "first_fail_p90_s": None,
        "wall_raw_s": summarise([s["wall_raw_s"] for s in good]),
        "host_slowdown": summarise([s["host_slowdown"] for s in good]),
    }
    if workload.name == "check_bugsuite" and good:
        # The seven bugs take different times by design, so the median is
        # taken per round first: its quartiles then show run-to-run spread,
        # not the spread between bugs.  The p90 is over every single check.
        metrics["first_fail_s"] = summarise(
            [statistics.median(s["process_s"]) for s in good]
        )
        first_fails = [t for s in good for t in s["process_s"]]
        p90 = percentile(first_fails, 0.9)
        metrics["first_fail_p90_s"] = {
            "median": p90, "q1": p90, "q3": p90,
            "min": p90, "max": p90, "n": len(first_fails),
        }
    return metrics


def measure(names: list, profile: str, seed: int, *, repeats: int | None,
            seconds: float | None, trace: bool) -> dict:
    """Set up, run the workloads round-robin, and (with *trace*) the traced pass.

    A workload is done after ``repeats × runs_per_repeat`` runs, or — in
    the time-boxed form — once its runs have filled *seconds*; a traced
    time-boxed invocation makes no end-to-end runs at all.
    """
    sizes = PROFILES[profile]
    session = os.path.join(OUT, f"session-{os.getpid()}")
    result = {"workloads": {}, "layers": None}
    try:
        host = HostSpeed()
        setup_samples = {name: [] for name in names}
        traces = {}
        for name in names:
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                made = set_up(WORKLOADS[name], sizes, seed, os.path.join(session, name))
                raw = time.perf_counter() - started
                setup_samples[name].append(raw / host.slowdown_since_last())
            traces.update(made)

        samples = {name: [] for name in names}
        busy = {name: 0.0 for name in names}
        longest = {name: 0.0 for name in names}

        def done(name: str) -> bool:
            if seconds is not None:
                # Time-boxed: no run is started that would end past the box.
                return trace or (bool(samples[name])
                                 and busy[name] + longest[name] > seconds)
            return len(samples[name]) >= repeats * WORKLOADS[name].runs_per_repeat

        while not all(done(name) for name in names):
            for name in names:  # round-robin, so drift hits all workloads alike
                if done(name):
                    continue
                workload = WORKLOADS[name]
                started = time.perf_counter()
                sample = run_once(
                    workload.commands(sizes, seed, traces),
                    os.path.join(session, name, f"run-{len(samples[name])}"),
                    pinned=not (workload.parallel and sizes["parallel_free"]),
                )
                slowdown = host.slowdown_since_last()
                sample["host_slowdown"] = slowdown
                sample["wall_raw_s"] = sample["wall_s"]
                sample["wall_s"] /= slowdown
                sample["cpu_s"] /= slowdown
                sample["process_s"] = [t / slowdown for t in sample["process_s"]]
                took = time.perf_counter() - started
                busy[name] += took
                longest[name] = max(longest[name], took)
                samples[name].append(sample)
                for problem in sample["problems"]:
                    print(f"FAILED RUN {name}: {json.dumps(problem, indent=2)}",
                          file=sys.stderr)

        for name in names:
            failed = sum(1 for s in samples[name] if s["problems"])
            result["workloads"][name] = {
                "attempted": len(samples[name]),
                "failed": failed,
                "failed_share": failed / len(samples[name]) if samples[name] else 0.0,
                "metrics": end_to_end(WORKLOADS[name], setup_samples[name], samples[name]),
            }
        if trace:
            result["layers"] = traced_pass(names, sizes, seed, traces, session)
    finally:
        shutil.rmtree(session, ignore_errors=True)
    return result


def traced_pass(names: list, sizes: dict, seed: int, traces: dict, session: str) -> dict:
    """``layers.traced_pass`` in a process of its own, waited for to the end.

    The pass starts worker pools in-process; their helper processes end
    only after the process that started them, so that process is not
    this one.
    """
    spec_path = os.path.join(session, "traced-spec.json")
    result_path = os.path.join(session, "traced-result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"names": names, "sizes": sizes, "seed": seed, "traces": traces,
                   "workdir": session, "out_dir": OUT, "result": result_path}, handle)
    exit_code, _, _ = run_to_end(
        [sys.executable, os.path.join(HERE, "layers.py"), spec_path],
        cwd=ROOT, env=dict(os.environ), stdout=sys.stderr, stderr=sys.stderr,
        pinned=False, timeout_s=TRACED_PASS_TIMEOUT_S,
    )
    if exit_code != 0:
        raise RuntimeError(f"the traced pass ended with exit code {exit_code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def header(args: argparse.Namespace, profile: str) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    src_lines = 0
    for directory, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    src_lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": args.seed,
        "profile": profile,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "src_lines": src_lines,
    }


def print_tables(result: dict) -> None:
    print(f"{'workload':<18}{'metric':<20}{'unit':<6}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'min':>12}{'max':>12}{'n':>5}")
    for name, entry in result["workloads"].items():
        for metric, (unit, _) in END_TO_END.items():
            summary = entry["metrics"][metric]
            if summary is None:
                print(f"{name:<18}{metric:<20}{unit:<6}{'null':>12}")
                continue
            print(f"{name:<18}{metric:<20}{unit:<6}" + "".join(
                f"{summary[key]:>12.4f}" for key in ("median", "q1", "q3", "min", "max")
            ) + f"{summary['n']:>5}")
        print(f"{name:<18}{'failed_share':<20}{'ratio':<6}{entry['failed_share']:>12.4f}"
              f"   ({entry['failed']} of {entry['attempted']} runs)")
    if result["layers"] is not None:
        import layers

        print()
        print(f"{'scope':<18}{'layer metric':<44}{'unit':<7}{'value':>14}")
        for scope, metrics in result["layers"]["metrics"].items():
            for metric, value in metrics.items():
                if value.get("reason") == layers.NOT_CALLED:
                    continue  # reads 0; kept in the JSON, not worth a row
                shown = "null" if value["value"] is None else f"{value['value']:.6g}"
                reason = f"   ({value['reason']})" if value.get("reason") else ""
                print(f"{scope:<18}{metric:<44}{value['unit']:<7}{shown:>14}{reason}")


def contract_line(name: str, result: dict, traced: bool) -> dict:
    """The one JSON object the time-boxed form prints last."""
    entry = result["workloads"][name]
    if traced:
        merged = {}
        for metrics in result["layers"]["metrics"].values():
            merged.update(metrics)
        values = {k: {"value": v["value"], "unit": v["unit"]} for k, v in merged.items()}
        nulls = sum(1 for v in values.values() if v["value"] is None)
        return {
            "correct": result["layers"]["correct"] and nulls == 0,
            "attempted": len(values), "failed": nulls, "metrics": values,
        }
    values = {}
    for metric in GATED:
        summary = entry["metrics"][metric]
        values[metric] = {
            "value": None if summary is None else summary["median"],
            "unit": END_TO_END[metric][0],
        }
    return {
        "correct": entry["failed"] == 0 and entry["attempted"] > 0,
        "attempted": max(entry["attempted"], 1),
        "failed": entry["failed"],
        "metrics": values,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the generated traces and 'campaign --seed'")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload and print the one-line JSON")
    parser.add_argument("--seconds", type=float,
                        help="time-boxed form: gate sizes, repeat each workload "
                             "until its runs fill this many seconds")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per workload when not time-boxed "
                             "(check_bugsuite: 3 rounds per repeat)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced in-process pass (per-layer metrics); "
                             "time-boxed, it replaces the end-to-end runs")
    parser.add_argument("--quick", action="store_true",
                        help="1 repeat at the quick sizes (< 40 s; the self-test)")
    parser.add_argument("--out", help="where to write the result JSON "
                                      "(default perfbench/out/result-seed<N>.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.quick:
        profile, args.repeats, args.seconds = "quick", 1, None
    elif args.seconds is not None:
        profile = "gate"
    else:
        profile = "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)

    become_subreaper()
    result = {"header": header(args, profile)}
    try:
        result.update(measure(
            names, profile, args.seed, repeats=args.repeats, seconds=args.seconds,
            trace=bool(args.trace),
        ))
    finally:
        reap_children()  # nothing this process started outlives it
    out_path = args.out or os.path.join(OUT, f"result-seed{args.seed}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result["header"]))
    print_tables(result)
    print(f"result written to {os.path.relpath(out_path, os.getcwd())}")

    failed = sum(entry["failed"] for entry in result["workloads"].values())
    traced_ok = result["layers"] is None or result["layers"]["correct"]
    if args.workload:
        print(json.dumps(contract_line(args.workload, result, bool(args.trace))))
    return 0 if failed == 0 and traced_ok else 1


if __name__ == "__main__":
    sys.exit(main())
