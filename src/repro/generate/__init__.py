"""Coverage-guided scenario generation (the ``lineup generate`` subsystem).

Where :func:`repro.core.testcase.sample_tests` implements the paper's
uniform ``RandomCheck`` sampling, this package implements its
fuzzing-era successor: candidates are *grown* by seeded mutation from a
corpus of tests that previously reached new Mazurkiewicz execution
equivalence classes (the fingerprint machinery of
:mod:`repro.reduction.fingerprint` acting as the coverage map), and
failures are deduplicated by root-cause fingerprint so a bug is
reported once rather than once per schedule.

Modules:

* :mod:`repro.generate.mutate` — seeded mutation operators over test
  matrices, deterministic across processes and start methods;
* :mod:`repro.generate.corpus` — the corpus store with energy-weighted
  parent scheduling (recently-productive entries are favoured);
* :mod:`repro.generate.dedup` — root-cause failure bucketing;
* :mod:`repro.generate.campaign` — the generation loop, checkpoint
  state, and the isolated (worker-pool) dispatch path;
* :mod:`repro.generate.worker` — the ``kind="generate"`` task entry
  point run inside sandboxed workers.

See ``docs/GENERATION.md`` for the full design.
"""

from repro.generate.campaign import (
    GenerateConfig,
    GenerateResume,
    GenerationReport,
    parse_generate_state,
    run_generation_campaign,
)
from repro.generate.corpus import Corpus, CorpusEntry
from repro.generate.dedup import failure_record, root_cause_fingerprint
from repro.generate.mutate import MUTATION_OPS, MutationEngine, candidate_rng

__all__ = [
    "Corpus",
    "CorpusEntry",
    "GenerateConfig",
    "GenerateResume",
    "GenerationReport",
    "MUTATION_OPS",
    "MutationEngine",
    "candidate_rng",
    "failure_record",
    "parse_generate_state",
    "root_cause_fingerprint",
    "run_generation_campaign",
]
