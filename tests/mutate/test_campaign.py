"""Tests for the mutation campaign stage and its durable log."""

from __future__ import annotations

import pytest

from repro.core.scheduler import SchedulerConfig, VerificationService
from repro.core.store import RunStore
from repro.fpv.engine import EngineConfig
from repro.fpv.result import ProofResult, ProofStatus
from repro.hdl.design import Design
from repro.mutate import (
    MutationCampaign,
    MutationConfig,
    MutationRecord,
    MutationSummary,
    classify_outcome,
)

_COUNTER = """\
module small_counter(clk, rst, en, count, wrap);
  input clk, rst, en;
  output [2:0] count;
  output wrap;
  reg [2:0] count;
  assign wrap = count == 7;
  always @(posedge clk or posedge rst)
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
endmodule
"""

#: A behavioural assertion (killable) and a tautology (unkillable).
_STRONG = "(rst == 1) |-> (count == 0);"
_TAUTOLOGY = "(count >= 0) |-> (count == count);"


@pytest.fixture()
def counter():
    return Design.from_source(_COUNTER, category="sequential")


@pytest.fixture()
def service():
    with VerificationService(SchedulerConfig(engine=EngineConfig())) as svc:
        yield svc


class TestClassifyOutcome:
    @pytest.mark.parametrize(
        "status, complete, expected",
        [
            (ProofStatus.CEX, True, "killed"),
            (ProofStatus.PROVEN, True, "survived"),
            (ProofStatus.VACUOUS, True, "survived"),
            (ProofStatus.PROVEN, False, "timeout"),
            (ProofStatus.VACUOUS, False, "timeout"),
            (ProofStatus.ERROR, True, "error"),
        ],
    )
    def test_four_way_mapping(self, status, complete, expected):
        proof = ProofResult(status=status, complete=complete)
        assert classify_outcome(proof) == expected


class TestCampaign:
    def test_strong_assertion_outkills_tautology(self, counter, service):
        campaign = MutationCampaign(service, config=MutationConfig(limit_per_design=12))
        summary = campaign.run([counter], {counter.name: [_STRONG, _TAUTOLOGY]})
        scores = {score.assertion: score for score in summary.scores()}
        strong = scores[" ".join(_STRONG.split())]
        tautology = scores[" ".join(_TAUTOLOGY.split())]
        assert strong.killed > 0
        assert tautology.killed == 0
        assert tautology.kill_rate == 0.0
        assert strong.kill_rate > tautology.kill_rate

    def test_designs_without_passing_assertions_are_skipped(self, counter, service):
        campaign = MutationCampaign(service)
        summary = campaign.run([counter], {})
        assert len(summary) == 0

    def test_weak_ranking_orders_by_kill_rate(self, counter, service):
        campaign = MutationCampaign(service, config=MutationConfig(limit_per_design=12))
        summary = campaign.run([counter], {counter.name: [_STRONG, _TAUTOLOGY]})
        weak = summary.weak_assertions(limit=2, min_mutants=1)
        assert weak[0].assertion == " ".join(_TAUTOLOGY.split())
        assert weak[0].kill_rate <= weak[-1].kill_rate

    def test_weak_ranking_never_ranks_undecided_assertions(self):
        record = dict(
            design_name="d", design_fingerprint="f", category="c",
            operator="bin-swap", site=0, description="", mutant_fingerprint="m",
            status="proven", engine="explicit-state", complete=False,
        )
        summary = MutationSummary.from_records(
            [
                MutationRecord(assertion="a_timeout", outcome="timeout", **record),
                MutationRecord(assertion="a_killed", outcome="killed",
                               **{**record, "site": 1, "status": "cex"}),
            ]
        )
        weak = summary.weak_assertions(min_mutants=0)
        assert [score.assertion for score in weak] == ["a_killed"]

    def test_category_distribution_buckets_by_design_category(self, counter, service):
        campaign = MutationCampaign(service, config=MutationConfig(limit_per_design=8))
        summary = campaign.run([counter], {counter.name: [_STRONG]})
        distribution = summary.category_distribution()
        assert list(distribution) == ["sequential"]
        assert distribution["sequential"]["assertions"] == 1


class TestDurability:
    def test_records_stream_to_mutations_jsonl_and_resume(self, counter, tmp_path):
        store = RunStore(tmp_path / "run")
        config = MutationConfig(limit_per_design=10)
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store.verdict_cache()
        ) as svc:
            summary = MutationCampaign(svc, store, config).run(
                [counter], {counter.name: [_STRONG]}
            )
        assert store.mutations_path.exists()
        first = {record.key: record.outcome for record in summary.records}
        assert first

        # A rerun over the same store replays the log: identical summary,
        # no re-enumeration (the design marker short-circuits it).
        store2 = RunStore(tmp_path / "run")
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store2.verdict_cache()
        ) as svc2:
            campaign = MutationCampaign(svc2, store2, config)
            resumed = campaign.run(
                [counter],
                {counter.name: [_STRONG]},
                progress=lambda message: pytest.fail(
                    f"resume re-enumerated a completed design: {message}"
                ),
            )
        assert {record.key: record.outcome for record in resumed.records} == first
        assert svc2.cache.stats()["misses"] == 0

        # A crash mid-append tears the log's trailing record (here the
        # design's completion marker): the rerun scans the design again,
        # finds every verdict record in the log, and ends at the identical
        # kill table.
        log = store.mutations_path
        data = log.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        log.write_bytes(data[: start + (len(data) - start) // 2])
        store3 = RunStore(tmp_path / "run")
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store3.verdict_cache()
        ) as svc3:
            torn = MutationCampaign(svc3, store3, config).run(
                [counter], {counter.name: [_STRONG]}
            )
        assert {record.key: record.outcome for record in torn.records} == first
        assert torn.scores() == summary.scores()
        assert torn.outcome_counts() == summary.outcome_counts()

    def test_marker_with_different_config_rescans(self, counter, tmp_path):
        store = RunStore(tmp_path / "run")
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store.verdict_cache()
        ) as svc:
            small = MutationCampaign(
                svc, store, MutationConfig(limit_per_design=4)
            ).run([counter], {counter.name: [_STRONG]})
            # A rerun with a larger cap must not be satisfied by the old
            # marker: it re-enumerates and scores the additional mutants.
            large = MutationCampaign(
                svc, store, MutationConfig(limit_per_design=10)
            ).run([counter], {counter.name: [_STRONG]})
        assert len(large) > len(small)

    def test_summary_scope_is_the_current_sweep(self, counter, tmp_path):
        store = RunStore(tmp_path / "run")
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store.verdict_cache()
        ) as svc:
            wide = MutationCampaign(
                svc, store, MutationConfig(limit_per_design=10)
            ).run([counter], {counter.name: [_STRONG]})
            # A narrower rerun must report only its own 4-mutant sweep even
            # though the log still holds the earlier 10-mutant records.
            narrow = MutationCampaign(
                svc, store, MutationConfig(limit_per_design=4)
            ).run([counter], {counter.name: [_STRONG]})
        assert len(wide) == 10
        assert len(narrow) == 4
        assert {r.key for r in narrow.records} <= {r.key for r in wide.records}

    def test_log_round_trips_through_store(self, counter, tmp_path):
        store = RunStore(tmp_path / "run")
        with VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store.verdict_cache()
        ) as svc:
            MutationCampaign(svc, store, MutationConfig(limit_per_design=6)).run(
                [counter], {counter.name: [_STRONG, _TAUTOLOGY]}
            )
        records, markers = RunStore(tmp_path / "run").load_mutation_log()
        assert records
        assert counter.name in markers
        marker = markers[counter.name]
        assert marker["stats"]["viable"] > 0
        rebuilt = MutationSummary.from_records(records)
        assert {score.assertion for score in rebuilt.scores()} == {
            " ".join(_STRONG.split()),
            " ".join(_TAUTOLOGY.split()),
        }
