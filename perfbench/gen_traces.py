"""Seeded v2 live traces that are linearizable by construction.

The trace is written in rounds.  In each round every one of the ``S``
sessions *calls* (call events, in a seeded random order), then every
operation *takes effect* atomically on one shared model state
(``model.apply``, in a second random order), then every session
*returns* the response computed there (return events, in a third random
order).  All ``S`` operations of a round overlap in the file while their
effects are totally ordered, so the apply order is a witness
linearization and the concurrency window is pinned at ``S``.  Same seed
→ byte-identical file.

Rounds, not a free-running random walk over sessions: on the queue model
the checker's work grows as 2^k in the number of adjacent ambiguous
enqueues, so a free walk made the configuration count — and the run time
— differ by 16 % (IQR/median) between seeds.  With rounds the seed
changes which session does what and in which order, and the amount of
work stays put.

Two shapes, one per ``watch_*`` workload:

* ``keyed``  — ``dict`` model, per-key operations over ``KEYS`` keys
  (TryAdd / ContainsKey / TryRemove / TryGetValue).  Partitionable: the
  watcher splits it into one cell per key, ~1 configuration per op.
* ``window`` — ``queue`` model cycling 8 ``Enqueue(distinct)`` then 12
  ``TryDequeue`` (40 % / 60 %; the last four find the queue empty).  Not
  partitionable: two rounds of four overlapping enqueues leave 4!·4!
  candidate queue orders for the dequeues to resolve, ~420
  configurations per op.

Run as a script it checks its own determinism:
``python perfbench/gen_traces.py`` exits 0 when two calls with one seed
give byte-identical files and another seed changes them.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

SESSIONS = 4
KEYS = 64
_KEYED_METHODS = ("TryAdd", "ContainsKey", "TryRemove", "TryGetValue")
_WINDOW_CYCLE = ("Enqueue",) * 8 + ("TryDequeue",) * 12


def _keyed_op(rng: random.Random, n: int) -> tuple[str, tuple]:
    # The first KEYS operations touch every key once, so the number of
    # partition cells is exactly KEYS whatever the seed.
    if n < KEYS:
        return "TryAdd", (f"k{n:02d}",)
    return rng.choice(_KEYED_METHODS), (f"k{rng.randrange(KEYS):02d}",)


def _window_op(rng: random.Random, n: int) -> tuple[str, tuple]:
    method = _WINDOW_CYCLE[n % len(_WINDOW_CYCLE)]
    return method, ((n,) if method == "Enqueue" else ())


#: shape → (model name, function choosing operation number n)
SHAPES = {
    "keyed": ("dict", _keyed_op),
    "window": ("queue", _window_op),
}


def generate(path: str, shape: str, ops: int, seed: int) -> int:
    """Write one finalized trace of *ops* operations; returns its event count."""
    from repro.core.events import Invocation
    from repro.monitor import get_model
    from repro.monitor.trace import LiveTraceWriter

    model_name, pick = SHAPES[shape]
    model = get_model(model_name)
    rng = random.Random(f"{shape}:{seed}")
    state = model.initial_state()
    writer = LiveTraceWriter(
        path, sessions=SESSIONS, model=model_name, flush_every_n=4096
    )
    op_index = [0] * SESSIONS
    started = 0
    step = 0
    while started < ops:
        width = min(SESSIONS, ops - started)
        sessions = rng.sample(range(SESSIONS), width)
        invocations = {}
        for session in sessions:
            method, args = pick(rng, started)
            started += 1
            step += 1
            invocations[session] = Invocation(method, args)
            writer.record_call(
                session, op_index[session], invocations[session], float(step)
            )
        responses = {}
        for session in rng.sample(sessions, width):
            state, responses[session] = model.apply(state, invocations[session])
        for session in rng.sample(sessions, width):
            step += 1
            writer.record_return(
                session, op_index[session], responses[session], float(step)
            )
            op_index[session] += 1
    events = writer.events
    writer.finalize("drained", float(step + 1))
    return events


def selfcheck() -> int:
    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)

    def contents(seed: int) -> dict:
        out = {}
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for shape in SHAPES:
                path = os.path.join(tmp, f"{shape}.jsonl")
                generate(path, shape, 500, seed)
                with open(path, "rb") as handle:
                    out[shape] = handle.read()
        return out

    first, again, other = contents(1), contents(1), contents(2)
    ok = True
    for shape in SHAPES:
        same = first[shape] == again[shape]
        differs = first[shape] != other[shape]
        print(f"{shape}: same seed identical={same}, other seed differs={differs}")
        ok = ok and same and differs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(selfcheck())
