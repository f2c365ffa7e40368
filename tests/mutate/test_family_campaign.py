"""Campaign-level identity: family scheduling never changes a record.

The mutation campaign's observable output — the (design, mutant, assertion)
record stream — must be unchanged by family batching and the witness
pre-screen, and reruns over a store written by one mode must resume cleanly
under the other.
"""

from __future__ import annotations

from typing import Dict, List

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
    return {
        record.key: (record.outcome, record.status, record.complete)
        for record in summary.records
    }


def test_family_and_per_mutant_campaigns_record_identically(workload):
    designs, assertions = workload
    family = _records(designs, assertions, MutationConfig(limit_per_design=6))
    reference = _records(
        designs,
        assertions,
        MutationConfig(limit_per_design=6, family_batching=False),
    )
    assert family
    assert family == reference


def test_family_campaign_resumes_from_per_mutant_store(tmp_path, workload):
    designs, assertions = workload
    store = RunStore(tmp_path / "run")
    reference = _records(
        designs,
        assertions,
        MutationConfig(limit_per_design=6, family_batching=False),
        store=store,
    )
    # A family-batched rerun over the same store replays every record from
    # the log (the throughput knob is excluded from the config identity).
    resumed = _records(designs, assertions, MutationConfig(limit_per_design=6), store=store)
    assert resumed == reference
