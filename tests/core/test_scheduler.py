"""Tests for the verification scheduler and the verdict cache accounting."""

from __future__ import annotations

import os
import zlib

import pytest
from faults import (
    CRASH_MARKER_ENV,
    design_batch_always_failing,
    design_batch_crashing_once,
    family_job_crashing_once,
)

from repro.core import SchedulerConfig, VerdictCache, VerificationService, scheduler
from repro.core.scheduler import _design_key, is_batch_failure
from repro.fpv import EngineConfig, FormalEngine, ProofStatus
from repro.fpv.result import ProofResult
from repro.hdl import Design
from repro.mutate import enumerate_mutants, operator_names

_FAST_ENGINE = EngineConfig(
    max_states=1024,
    max_transitions=60_000,
    max_input_bits=8,
    max_state_bits=12,
    max_path_evaluations=60_000,
    fallback_cycles=96,
    fallback_seeds=1,
)


_TWIN_SOURCE = """
module twin(clk, rst, q);
  input clk, rst;
  output reg q;
  always @(posedge clk or posedge rst)
    if (rst)
      q <= 0;
    else
      q <= {next};
endmodule
// {salt}
"""


def _proven() -> ProofResult:
    return ProofResult(status=ProofStatus.PROVEN)


class TestVerdictCache:
    def test_miss_is_counted_in_get_even_without_put(self):
        # Regression: misses used to be counted in put(), so a lookup that
        # missed but never stored a verdict drifted the accounting.
        cache = VerdictCache()
        assert cache.get("d", "a == 1") is None
        assert cache.get("d", "a == 1") is None
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 2}

    def test_hits_and_misses_balance_get_calls(self):
        cache = VerdictCache()
        cache.get("d", "x")
        cache.put("d", "x", _proven())
        cache.get("d", "x")
        cache.get("d", "y")
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 2}
        assert stats["hits"] + stats["misses"] == 3

    def test_whitespace_normalised_keys(self):
        cache = VerdictCache()
        cache.put("d", "a  ==  1", _proven())
        assert cache.get("d", "a == 1") is not None
        assert len(cache) == 1

    def test_put_does_not_count_a_miss(self):
        cache = VerdictCache()
        cache.put("d", "x", _proven())
        assert cache.stats()["misses"] == 0


@pytest.fixture(scope="module")
def small_jobs(corpus):
    jobs = []
    for name in ("counter", "arb2", "mod10_counter", "updown_counter4"):
        design = corpus.design(name)
        out = design.model.outputs[0]
        mask = design.model.signals[out].mask
        jobs.append(
            (design, [f"({out} <= {mask});", f"({out} == {mask});", "garbage ==>"])
        )
    return jobs


class TestVerificationService:
    def test_matches_direct_engine_batches(self, small_jobs):
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        results = service.check_many(small_jobs)
        for (design, assertions), verdicts in zip(small_jobs, results):
            expected = FormalEngine(design, _FAST_ENGINE).check_batch(assertions)
            assert [v.status for v in verdicts] == [e.status for e in expected]
            assert [v.complete for v in verdicts] == [e.complete for e in expected]

    def test_parallel_results_deterministic_and_ordered(self, small_jobs):
        serial = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        expected = serial.check_many(small_jobs)
        with VerificationService(
            SchedulerConfig(engine=_FAST_ENGINE, workers=2)
        ) as parallel:
            got = parallel.check_many(small_jobs)
        assert [[v.status for v in batch] for batch in got] == [
            [v.status for v in batch] for batch in expected
        ]

    def test_cache_fronts_the_engine(self, small_jobs):
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        first = service.check_many(small_jobs)
        stats_after_first = service.cache.stats()
        second = service.check_many(small_jobs)
        stats_after_second = service.cache.stats()
        assert [[v.status for v in b] for b in first] == [
            [v.status for v in b] for b in second
        ]
        # Second pass resolves everything from the cache: no new entries.
        assert stats_after_second["entries"] == stats_after_first["entries"]
        assert stats_after_second["hits"] > stats_after_first["hits"]

    def test_duplicates_within_a_batch_are_proved_once(self, corpus):
        design = corpus.design("counter")
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        results = service.check_design(
            design, ["(count <= 15);", "(count   <=   15);", "(count <= 15);"]
        )
        assert len(results) == 3
        assert all(r.status is ProofStatus.PROVEN for r in results)
        assert service.cache.stats()["entries"] == 1

    def test_check_single_assertion(self, corpus):
        design = corpus.design("counter")
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        result = service.check(design, "(count <= 15);")
        assert result.status is ProofStatus.PROVEN

    def test_close_is_idempotent(self, small_jobs):
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=2))
        service.check_many(small_jobs)
        service.close()
        service.close()

    def test_same_named_designs_keep_their_own_verdicts(self):
        # The salts make the two sources collide under crc32, the 32-bit
        # checksum design keys used to carry.
        stuck_source = _TWIN_SOURCE.format(next="q", salt="MWftNJKP")
        toggling_source = _TWIN_SOURCE.format(next="~q", salt="Ytd9TjJp")
        assert zlib.crc32(stuck_source.encode()) == zlib.crc32(toggling_source.encode())
        stuck = Design.from_source(stuck_source, name="twin")
        toggling = Design.from_source(toggling_source, name="twin")
        assert _design_key(stuck) != _design_key(toggling)
        service = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        for _ in range(2):
            batches = service.check_many([(stuck, ["(q == 0);"]), (toggling, ["(q == 0);"])])
            assert [batch[0].status for batch in batches] == [ProofStatus.PROVEN, ProofStatus.CEX]
        assert service.check(toggling, "(q == 0);").status is ProofStatus.CEX


def _verdict_matrix(batches):
    return [[(v.status, v.complete, v.reason) for v in batch] for batch in batches]


two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the worker pool needs two cores"
)


class TestWorkerFailures:
    @two_cores
    def test_crashed_worker_gives_the_clean_matrix(self, small_jobs, tmp_path, monkeypatch):
        follow_up = [(design, ["(1 == 1);"]) for design, _ in small_jobs]
        clean = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        expected = _verdict_matrix(clean.check_many(small_jobs))
        expected_follow_up = _verdict_matrix(clean.check_many(follow_up))
        marker = tmp_path / "crashed"
        monkeypatch.setenv(CRASH_MARKER_ENV, str(marker))
        monkeypatch.setattr(scheduler, "_check_design_batch", design_batch_crashing_once)
        with VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=2)) as service:
            got = _verdict_matrix(service.check_many(small_jobs))
            assert marker.exists()
            # The broken pool was dropped: the next dispatch gets a fresh one.
            assert _verdict_matrix(service.check_many(follow_up)) == expected_follow_up
        assert got == expected

    @two_cores
    def test_crashed_family_worker_gives_the_clean_matrix(self, corpus, tmp_path, monkeypatch):
        design = corpus.design("counter")
        mutants, _ = enumerate_mutants(design, operator_names(), limit=4)
        jobs = [(design, mutants, ["(count <= 15);", "(count != 9);"])]
        clean = VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1))
        expected = [_verdict_matrix(layer) for layer in clean.check_families(jobs)]
        marker = tmp_path / "crashed"
        monkeypatch.setenv(CRASH_MARKER_ENV, str(marker))
        monkeypatch.setattr(scheduler, "_check_family_job", family_job_crashing_once)
        with VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=2)) as service:
            got = [_verdict_matrix(layer) for layer in service.check_families(jobs)]
        assert marker.exists()
        assert got == expected

    @two_cores
    def test_batch_failing_twice_gives_error_verdicts(self, small_jobs, monkeypatch):
        monkeypatch.setattr(scheduler, "_check_design_batch", design_batch_always_failing)
        with VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=2)) as service:
            results = service.check_many(small_jobs)
            # Failures are not cached: a later run tries again.
            assert service.cache.stats()["entries"] == 0
        for (design, assertions), verdicts in zip(small_jobs, results):
            assert len(verdicts) == len(assertions)
            for verdict in verdicts:
                assert verdict.status is ProofStatus.ERROR
                assert is_batch_failure(verdict)
                assert verdict.design_name == design.name
                assert "injected batch failure" in verdict.reason

    def test_failing_batch_raises_without_workers(self, small_jobs, monkeypatch):
        """In-process dispatch has nothing to retry: the exception propagates."""
        monkeypatch.setattr(scheduler, "_check_design_batch", design_batch_always_failing)
        with VerificationService(SchedulerConfig(engine=_FAST_ENGINE, workers=1)) as service:
            with pytest.raises(RuntimeError, match="injected batch failure"):
                service.check_many(small_jobs)
