"""The Wing–Gong–Lowe search and the blocking check (repro.monitor.wgl)."""

from __future__ import annotations

import pytest

from repro.monitor import MonitorLimitError, get_model, monitor_history
from repro.monitor.wgl import check_stuck_history_model, wgl_check

from .conftest import call, hist, ret, serial_events

QUEUE = get_model("queue")
COUNTER = get_model("counter")


class TestFullHistories:
    def test_empty_history_passes(self):
        result = wgl_check(hist(n=1), QUEUE)
        assert result.ok and result.witness == ()

    def test_serial_correct_history_passes_with_witness(self):
        events = serial_events(
            (0, 0, "Enqueue", 1, None),
            (0, 1, "TryDequeue", 1),
            (0, 2, "TryDequeue", "Fail"),
        )
        result = wgl_check(hist(*events, n=1), QUEUE)
        assert result.ok
        assert [op.invocation.method for op, _ in result.witness] == [
            "Enqueue", "TryDequeue", "TryDequeue",
        ]
        assert [resp.value for _, resp in result.witness] == [None, 1, "Fail"]

    def test_overlap_allows_reordering(self):
        # B's dequeue overlaps A's enqueue, so observing the value is fine.
        history = hist(
            call(0, 0, "Enqueue", 5),
            call(1, 0, "TryDequeue"),
            ret(0, 0),
            ret(1, 0, 5),
        )
        assert wgl_check(history, QUEUE).ok

    def test_real_time_order_is_enforced(self):
        # The dequeue *completes* before the enqueue begins: FAIL.
        history = hist(
            call(1, 0, "TryDequeue"),
            ret(1, 0, 5),
            call(0, 0, "Enqueue", 5),
            ret(0, 0),
        )
        result = wgl_check(history, QUEUE)
        assert not result.ok
        assert result.counterexample is not None

    def test_wrong_value_fails_with_counterexample(self):
        history = hist(
            *serial_events((0, 0, "Enqueue", 1, None), (0, 1, "Enqueue", 2, None)),
            call(1, 0, "TryDequeue"),
            ret(1, 0, 2),  # FIFO says 1
        )
        result = wgl_check(history, QUEUE)
        assert not result.ok
        text = result.counterexample.describe()
        assert "deepest linearizable prefix" in text
        assert "model would" in text

    def test_pending_op_may_take_effect(self):
        # The Enqueue never returned, yet its value was dequeued: the
        # pending op must be allowed to linearize.
        history = hist(
            call(0, 0, "Enqueue", 5),
            call(1, 0, "TryDequeue"),
            ret(1, 0, 5),
            stuck=True,
        )
        assert wgl_check(history, QUEUE).ok

    def test_pending_op_may_stay_out(self):
        history = hist(
            call(0, 0, "Enqueue", 5),
            call(1, 0, "TryDequeue"),
            ret(1, 0, "Fail"),
            stuck=True,
        )
        assert wgl_check(history, QUEUE).ok


class TestConfigurationCache:
    def test_commuting_ops_stay_polynomial(self):
        # n concurrent enqueues of distinct values have n! interleavings
        # but far fewer (set, state) configurations; the memo must dedupe
        # aggressively enough to keep the count small.
        n = 6
        events = [call(t, 0, "Enqueue", t) for t in range(n)]
        events += [ret(t, 0) for t in range(n)]
        deq = [
            e
            for t in range(n)
            for e in (call(t, 1, "TryDequeue"), ret(t, 1, t))
        ]
        history = hist(*events, *deq, n=n)
        result = wgl_check(history, QUEUE)
        assert result.ok
        assert result.configurations < 5000

    def test_limit_raises(self):
        n = 6
        events = [call(t, 0, "Enqueue", t) for t in range(n)]
        events += [ret(t, 0) for t in range(n)]
        history = hist(*events, n=n)
        with pytest.raises(MonitorLimitError):
            wgl_check(history, QUEUE, max_configurations=3)
        # The online engine caps one return's closure; a dropped cell is
        # no verdict either.
        with pytest.raises(MonitorLimitError):
            monitor_history(history, QUEUE, max_configurations=3)


class TestBlockingCheck:
    def test_justified_block_counter_dec_at_zero(self):
        history = hist(call(0, 0, "dec"), n=1, stuck=True)
        assert check_stuck_history_model(history, COUNTER).ok

    def test_unjustified_block_after_inc(self):
        # inc completed, so the counter is positive everywhere dec could
        # linearize: the hang is a violation.
        history = hist(
            call(0, 0, "inc"),
            ret(0, 0),
            call(0, 1, "dec"),
            n=1,
            stuck=True,
        )
        result = check_stuck_history_model(history, COUNTER)
        assert not result.ok
        assert result.failed is not None
        assert result.failed.invocation.method == "dec"

    def test_total_model_never_justifies_blocking(self):
        history = hist(call(0, 0, "TryDequeue"), n=1, stuck=True)
        result = check_stuck_history_model(history, QUEUE)
        assert not result.ok

    def test_completed_inc_forces_wakeup(self):
        # dec overlaps an inc, but the inc *completed* — every stuck
        # serial witness places it before the pending dec, where dec no
        # longer blocks.  Staying blocked is a missed wakeup.
        history = hist(
            call(0, 0, "inc"),
            call(1, 0, "dec"),
            ret(0, 0),
            n=2,
            stuck=True,
        )
        assert not check_stuck_history_model(history, COUNTER).ok

    def test_other_pending_ops_do_not_unjustify(self):
        # Two concurrent decs on a zero counter: each H[e] drops the other
        # pending call, leaving a plain dec-blocks-at-zero justification.
        history = hist(
            call(0, 0, "dec"),
            call(1, 0, "dec"),
            n=2,
            stuck=True,
        )
        assert check_stuck_history_model(history, COUNTER).ok
