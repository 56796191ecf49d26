"""End-to-end generation campaigns: discovery, dedup, checkpoint, resume.

These run real two-phase checks against the Table 1 registry (``coop``
engine, small budgets) — the campaign loop is only trustworthy if its
coverage signal comes from genuine executions.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.checker import CheckConfig
from repro.core.checkpoint import CheckpointError, Checkpointer, load_checkpoint
from repro.generate import (
    GenerateConfig,
    GenerationReport,
    parse_generate_state,
    run_generation_campaign,
)
from repro.structures import get_class

#: Small-but-real check settings: the coop engine keeps executions cheap,
#: DFS phase 2 keeps them deterministic.
CONFIG = CheckConfig(engine="coop")


def _campaign(version: str, **generate_overrides) -> GenerationReport:
    overrides = {"budget": 250, "seed": 1, **generate_overrides}
    return run_generation_campaign(
        get_class("Lazy"), version, CONFIG, GenerateConfig(**overrides)
    )


@pytest.fixture(scope="module")
def lazy_pre_report() -> GenerationReport:
    """One shared guided campaign against the seeded Lazy pre bug."""
    return _campaign("pre")


class TestDiscovery:
    def test_finds_the_seeded_bug(self, lazy_pre_report):
        report = lazy_pre_report
        assert report.verdict == "FAIL"
        assert report.failures
        assert report.first_failure_executions is not None
        assert report.first_failure_executions <= report.executions

    def test_budget_consumption_is_not_an_early_stop(self, lazy_pre_report):
        # Running the execution budget down is the plan, not a problem.
        assert lazy_pre_report.stop_reason is None

    def test_discovery_curve_is_monotone(self, lazy_pre_report):
        curve = lazy_pre_report.curve
        assert curve, "a campaign that found a bug must have found classes"
        assert all(
            curve[i][0] <= curve[i + 1][0] and curve[i][1] < curve[i + 1][1]
            for i in range(len(curve) - 1)
        )
        assert curve[-1][1] == lazy_pre_report.classes

    def test_corpus_entries_all_earned_coverage(self, lazy_pre_report):
        assert 0 < lazy_pre_report.corpus_size <= lazy_pre_report.candidates

    def test_correct_version_passes(self):
        report = _campaign("beta", budget=60)
        assert report.verdict == "PASS"
        assert not report.failures
        assert report.stop_reason is None


class TestDedup:
    def test_each_root_cause_reported_once(self):
        verdicts = []
        report = run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=400, seed=1),
            on_candidate=lambda index, verdict: verdicts.append(verdict),
        )
        failing_candidates = verdicts.count("FAIL")
        total_hits = sum(f["count"] for f in report.failures.values())
        assert failing_candidates == total_hits
        assert total_hits == len(report.failures) + report.duplicate_failures
        # The mutation loop re-derives the bug from the corpus, so the
        # same root cause is hit by more than one candidate — exactly
        # what dedup exists to collapse.
        assert report.duplicate_failures > 0


class TestReportShape:
    def test_to_dict_is_json_shaped(self, lazy_pre_report):
        data = lazy_pre_report.to_dict()
        assert data["class"] == "Lazy"
        assert data["version"] == "pre"
        assert data["unique_failures"] == len(data["failures"])
        for failure in data["failures"]:
            assert {"fingerprint", "kind", "description", "test", "matrix",
                    "count", "candidate", "executions"} <= set(failure)
        assert data["curve"] == [list(p) for p in lazy_pre_report.curve]

    def test_deadline_stop_is_exhausted(self):
        report = run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=None, seed=1, deadline=1e-9),
        )
        assert report.stop_reason == "deadline"
        assert report.verdict == "EXHAUSTED"
        assert report.candidates == 0


class TestConvergence:
    def test_tiny_space_runs_dry(self):
        # A 1×1 bound over a one-method alphabet admits a handful of
        # matrices; the campaign must notice and stop, not spin.
        report = run_generation_campaign(
            get_class("Lazy"),
            "beta",
            CONFIG,
            GenerateConfig(
                budget=10_000, seed=0, seeds=1, max_rows=1, max_cols=1,
                dry_limit=20,
            ),
        )
        assert report.converged
        assert report.candidates < 10


class TestCheckpointAndResume:
    def test_checkpoint_roundtrips(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        report = run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=120, seed=1),
            checkpointer=Checkpointer(path, every_executions=1),
        )
        document = load_checkpoint(path)
        assert document["kind"] == "generate"
        config, generate, resume = parse_generate_state(document)
        assert generate.budget == 120
        assert resume.candidates == report.candidates
        assert resume.executions == report.executions
        assert len(resume.fingerprints) == report.classes
        assert set(resume.failures) == set(report.failures)
        assert config.engine == "coop"

    def test_resume_never_reruns_a_completed_candidate(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        first = run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=100, seed=1),
            checkpointer=Checkpointer(path, every_executions=1),
        )
        document = load_checkpoint(path)
        config, generate, resume = parse_generate_state(document)
        boundary = resume.next_candidate
        resumed_indexes: list[int] = []
        resumed = run_generation_campaign(
            get_class("Lazy"),
            "pre",
            config,
            replace(generate, budget=200),
            resume=resume,
            checkpointer=Checkpointer(path, every_executions=1),
            on_candidate=lambda index, verdict: resumed_indexes.append(index),
        )
        assert resumed_indexes, "the doubled budget must buy new candidates"
        assert min(resumed_indexes) >= boundary
        assert resumed.candidates == first.candidates + len(resumed_indexes)
        assert resumed.executions > first.executions

    def test_resumed_stream_is_a_prefix_of_the_fresh_one(self, tmp_path):
        # Interrupt-at-100 + resume-to-200 must plan the same candidate
        # sequence as a single uninterrupted budget-200 run: the stream
        # is a function of (seed, corpus history), never of how many
        # sessions produced it.
        path = str(tmp_path / "corpus.json")
        run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=100, seed=1),
            checkpointer=Checkpointer(path, every_executions=1),
        )
        config, generate, resume = parse_generate_state(load_checkpoint(path))
        run_generation_campaign(
            get_class("Lazy"),
            "pre",
            config,
            replace(generate, budget=200),
            resume=resume,
            checkpointer=Checkpointer(path, every_executions=1),
        )
        resumed_doc = load_checkpoint(path)

        fresh_path = str(tmp_path / "fresh.json")
        run_generation_campaign(
            get_class("Lazy"),
            "pre",
            CONFIG,
            GenerateConfig(budget=200, seed=1),
            checkpointer=Checkpointer(fresh_path, every_executions=1),
        )
        fresh_doc = load_checkpoint(fresh_path)

        shared = min(len(resumed_doc["seen"]), len(fresh_doc["seen"]))
        assert shared > 0
        assert resumed_doc["seen"][:shared] == fresh_doc["seen"][:shared]
        # The resumed run re-pays the candidate the budget interrupted,
        # so it may fold slightly fewer; what it did fold must agree.
        static = lambda entry: (entry["test"], entry["new_classes"], entry["added_at"])
        shared_corpus = min(len(resumed_doc["corpus"]), len(fresh_doc["corpus"]))
        assert [static(e) for e in resumed_doc["corpus"][:shared_corpus]] == [
            static(e) for e in fresh_doc["corpus"][:shared_corpus]
        ]

    def test_corrupt_checkpoint_raises_named_error(self):
        with pytest.raises(CheckpointError, match="generate"):
            parse_generate_state(
                {"kind": "generate", "corpus": "junk", "seen": []}
            )
        with pytest.raises(CheckpointError, match="generate"):
            parse_generate_state(
                {"kind": "generate", "seen": [{"bad": "dict"}]}
            )


class TestGenerateConfig:
    def test_roundtrip(self):
        generate = GenerateConfig(
            budget=77, seeds=2, seed=9, max_rows=2, max_cols=4,
            deadline=1.5, batch=8, dry_limit=33,
        )
        assert GenerateConfig.from_dict(generate.to_dict()) == generate

    def test_needs_at_least_one_seed(self):
        with pytest.raises(ValueError):
            run_generation_campaign(
                get_class("Lazy"), "pre", CONFIG, GenerateConfig(seeds=0)
            )


class TestCli:
    """``generate`` and ``campaign --generate`` through the command line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "ConcurrentQueue", "--version", "pre"],
            ["campaign", "ConcurrentQueue", "--versions", "pre", "--generate"],
        ],
        ids=["generate", "campaign-generate"],
    )
    def test_a_budget_spent_before_any_candidate_is_exhausted(
        self, argv, capsys
    ):
        # The first candidate needs about 152 executions: the budget trips
        # inside it, nothing is folded, and nothing was judged.
        from repro.cli import main

        assert main([*argv, "--budget", "100", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        assert "verdict: EXHAUSTED" in out and "verdict: PASS" not in out
        assert "generation: 0 candidates" in out
        assert "--budget" in out

    def test_campaign_generate_runs_one_campaign_per_plan_entry(self, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "Lazy", "--versions", "pre,beta", "--generate",
             "--budget", "300", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1  # the seeded pre bug is found; a FAIL wins the plan
        assert out.count("generation campaign: Lazy(") == 2
        pre, beta = out.split("generation campaign: Lazy(beta)")
        assert "Lazy(pre)" in pre and "verdict: FAIL" in pre
        assert "verdict: PASS" in beta
