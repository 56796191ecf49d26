"""One campaign driver, two executors: they must tell the same story.

``run_campaign_plan`` is written against the ``run(tasks, ...) ->
(outcomes, stop_reason)`` contract alone, so the in-process
:class:`InlineExecutor` and a sandboxed :class:`WorkerPool` have to
produce the same Table 2 row and the same checkpoint documents for the
same class/version/seed — and a checkpoint written by either (including
the pre-unification in-process format, whose summaries were a *list*)
has to resume through that one driver to the row of an uninterrupted
run.
"""

from __future__ import annotations

import pytest

from repro.core.budget import ExplorationControl
from repro.core.campaign import parse_campaign_state, run_campaign_plan
from repro.core.checker import CheckConfig
from repro.core.checkpoint import Checkpointer, load_checkpoint, save_checkpoint
from repro.exec import InlineExecutor, WorkerPool

PARAMS = {"samples": 4, "rows": 2, "cols": 2, "schedules": 60, "seed": 5}
CONFIG = CheckConfig(
    phase2_strategy="random",
    phase2_executions=PARAMS["schedules"],
    seed=PARAMS["seed"],
    max_serial_executions=2000,
)

#: The row columns that are a function of (class, version, seed) alone.
DETERMINISTIC = (
    "tests_run", "tests_passed", "tests_failed", "stuck_tests",
    "histories_avg", "histories_max",
    "schedules_explored", "schedules_pruned",
)


class RecordingCheckpointer(Checkpointer):
    """Keeps every document it writes, so mid-campaign states compare."""

    def __init__(self, path: str) -> None:
        super().__init__(path, every_executions=1)
        self.documents: list[dict] = []

    def save(self, state: dict) -> None:
        super().save(state)
        self.documents.append(load_checkpoint(self.path))


class RecordingExecutor:
    """Notes which tasks the driver asked for, then delegates."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.inline = inner.inline
        self.ran: list[int] = []
        self.prior_retries: dict | None = None

    def run(self, tasks, **kwargs):
        self.ran.extend(task.index for task in tasks)
        self.prior_retries = kwargs.get("prior_retries")
        return self.inner.run(tasks, **kwargs)


def drive(plan, executor, checkpointer=None, document=None):
    finished, resume_current = (), None
    if document is not None:
        _plan, finished, _params, resume_current = parse_campaign_state(document)
    rows, stop_reason, quarantined = run_campaign_plan(
        plan,
        PARAMS,
        CONFIG,
        executor,
        control=ExplorationControl(),
        checkpointer=checkpointer,
        finished_rows=finished,
        resume_current=resume_current,
    )
    assert stop_reason is None
    assert quarantined == []
    return rows


def shape(value):
    """*value* with every leaf replaced by its type: the document's form.

    The curated-cause columns are left out: validating them runs the
    subject in the driver's process, so only an inline run fills them.
    """
    if isinstance(value, dict):
        return {
            key: shape(item)
            for key, item in value.items()
            if key not in ("causes_found", "min_dimensions")
        }
    if isinstance(value, list):
        return [shape(item) for item in value]
    return type(value).__name__


@pytest.mark.parametrize(
    "name,version", [("Lazy", "pre"), ("SemaphoreSlim", "beta")]
)
def test_inline_and_pool_agree(name, version, pool_config, tmp_path):
    plan = [(name, version)]
    inline_ckpt = RecordingCheckpointer(str(tmp_path / "inline.json"))
    pool_ckpt = RecordingCheckpointer(str(tmp_path / "pool.json"))
    with InlineExecutor() as executor:
        (inline_row,) = drive(plan, executor, inline_ckpt)
    with WorkerPool(pool_config(workers=1)) as executor:
        (pool_row,) = drive(plan, executor, pool_ckpt)

    assert inline_row.tests_run == PARAMS["samples"]
    for column in DETERMINISTIC:
        assert getattr(pool_row, column) == getattr(inline_row, column), column

    # One document per finished test plus the finished-row one; a single
    # worker finishes tests in order, so the sequences line up.
    assert len(inline_ckpt.documents) == PARAMS["samples"] + 1
    assert len(pool_ckpt.documents) == len(inline_ckpt.documents)
    for ours, theirs in zip(inline_ckpt.documents, pool_ckpt.documents):
        assert shape(ours) == shape(theirs)
        if ours["current"] is not None:
            mine, other = ours["current"], theirs["current"]
            assert list(mine["summaries"]) == list(other["summaries"])
            for index, summary in mine["summaries"].items():
                for key in ("verdict", "histories", "stuck_histories",
                            "schedules_explored"):
                    assert other["summaries"][index][key] == summary[key]


@pytest.mark.parametrize("written_by", ["in-process", "isolated"])
def test_old_checkpoints_resume_to_the_uninterrupted_row(
    written_by, pool_config, tmp_path
):
    plan = [("Lazy", "pre")]
    reference_ckpt = RecordingCheckpointer(str(tmp_path / "reference.json"))
    with InlineExecutor() as executor:
        (reference,) = drive(plan, executor, reference_ckpt)
    # The state after two of the four tests: index-keyed summaries, plus
    # crash-retry counters when a pool wrote it.  (The positional list
    # that in-process campaigns once wrote is refused by name; see
    # tests/core/test_campaign.py.)
    document = reference_ckpt.documents[1]
    summaries = document["current"]["summaries"]
    assert sorted(summaries) == ["0", "1"]
    if written_by == "in-process":
        inner = InlineExecutor()
    else:
        document["current"]["retries"] = {"2": 1}
        inner = WorkerPool(pool_config(workers=1))
    path = str(tmp_path / "old.json")
    save_checkpoint(path, document)

    with inner:
        executor = RecordingExecutor(inner)
        (resumed,) = drive(plan, executor, document=load_checkpoint(path))

    assert executor.ran == [2, 3]  # finished tests are not re-run
    assert executor.prior_retries == (
        {} if written_by == "in-process" else {2: 1}
    )
    for column in DETERMINISTIC:
        assert getattr(resumed, column) == getattr(reference, column), column
