"""Campaign-level identity: family scheduling never changes a record.

The mutation campaign's observable output — the (design, mutant, assertion)
record stream — must equal what the per-mutant reference
(:mod:`per_mutant`, one design batch per mutant) records, and reruns over a
store written by one path must resume cleanly under the other.  The
mutation log is the one durable record of a mutant verdict: none reaches
the verdict cache's file.
"""

from __future__ import annotations

from typing import Dict, List

import per_mutant
import pytest

from repro.bench.corpus import get_corpus
from repro.core.scheduler import SchedulerConfig, VerificationService
from repro.core.store import RunStore
from repro.fpv.engine import EngineConfig
from repro.mining import mine_verified_assertions
from repro.mutate import MutationCampaign, MutationConfig

_ENGINE = EngineConfig(
    max_states=1024,
    max_transitions=60_000,
    max_input_bits=8,
    max_state_bits=12,
    max_path_evaluations=60_000,
    fallback_cycles=96,
    fallback_seeds=2,
    backend="vectorized",
)

_DESIGN_NAMES = ["d_flip_flop", "counter", "mod6_counter", "debouncer3"]


@pytest.fixture(scope="module")
def workload():
    corpus = get_corpus("assertionbench-mutation")
    designs = [corpus.design(name) for name in _DESIGN_NAMES]
    with VerificationService(SchedulerConfig(engine=_ENGINE)) as service:
        assertions: Dict[str, List[str]] = {}
        for design in designs:
            mined = mine_verified_assertions(design)
            candidates = [a.to_sva(include_assert=True) for a in mined[:6]]
            verdicts = service.check_design(design, candidates)
            assertions[design.name] = [
                text for text, proof in zip(candidates, verdicts) if proof.is_pass
            ][:3]
    return designs, assertions


def _records(designs, assertions, config, store=None):
    with VerificationService(SchedulerConfig(engine=_ENGINE)) as service:
        campaign = MutationCampaign(service, store=store, config=config)
        summary = campaign.run(designs, assertions)
    return _keyed(summary.records)


def _keyed(records):
    return {record.key: (record.outcome, record.status, record.complete) for record in records}


def test_family_and_per_mutant_campaigns_record_identically(workload, monkeypatch):
    designs, assertions = workload
    config = MutationConfig(limit_per_design=6)
    family = _records(designs, assertions, config)
    monkeypatch.setattr(VerificationService, "check_families", per_mutant.check_families)
    reference = _records(designs, assertions, config)
    assert family
    assert family == reference


def test_family_campaign_resumes_from_per_mutant_store(tmp_path, workload, monkeypatch):
    designs, assertions = workload
    config = MutationConfig(limit_per_design=6)
    store = RunStore(tmp_path / "run")
    with monkeypatch.context() as patch:
        patch.setattr(VerificationService, "check_families", per_mutant.check_families)
        reference = _records(designs, assertions, config, store=store)
    # A family rerun over the same store replays every record from the log.
    resumed = _records(designs, assertions, config, store=RunStore(tmp_path / "run"))
    assert resumed == reference


def test_mutant_verdicts_are_recorded_once(tmp_path, workload):
    """Mutant verdicts land in the mutation log only, and a rerun replays it."""
    designs, assertions = workload
    config = MutationConfig(limit_per_design=6)
    store = RunStore(tmp_path / "run")
    with VerificationService(SchedulerConfig(engine=_ENGINE), cache=store.verdict_cache()) as service:
        for design in designs:  # golden verdicts still go to the verdict cache
            service.check_design(design, assertions[design.name])
        verdict_lines = store.verdict_cache().path.read_text().splitlines()
        summary = MutationCampaign(service, store=store, config=config).run(designs, assertions)
    assert summary.records
    # verdicts.jsonl gains no line for any mutant design.
    assert store.verdict_cache().path.read_text().splitlines() == verdict_lines

    rerun_store = RunStore(tmp_path / "run")
    with VerificationService(
        SchedulerConfig(engine=_ENGINE), cache=rerun_store.verdict_cache()
    ) as service:
        rerun = MutationCampaign(service, store=rerun_store, config=config).run(
            designs, assertions
        )
        assert service.run_stats()["verdict_cache"]["misses"] == 0
    assert _keyed(rerun.records) == _keyed(summary.records)
