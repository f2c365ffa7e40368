"""Persistent reachability cache: store round-trips and scheduler warm-up."""

from __future__ import annotations

import threading

from repro.core import RunStore, SchedulerConfig, VerificationService
from repro.core.store import PersistentReachabilityCache
from repro.fpv import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    enumerate_reachable,
    reachability_key,
)
from repro.fpv.transition import ReachabilityResult, TransitionSystem


def _reach(design, **caps):
    system = TransitionSystem(design, max_input_bits=12)
    return enumerate_reachable(system, **caps)


class TestReachabilityCache:
    def test_hit_and_miss_accounting(self, counter_design):
        cache = ReachabilityCache()
        key = reachability_key(counter_design, EngineConfig())
        assert cache.get(key) is None
        cache.put(key, _reach(counter_design))
        assert cache.get(key) is not None
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_key_covers_caps_and_source(self, counter_design, corpus):
        base = reachability_key(counter_design, EngineConfig())
        assert base != reachability_key(counter_design, EngineConfig(max_states=7))
        assert base != reachability_key(corpus.design("arb2"), EngineConfig())

    def test_engine_uses_cache(self, counter_design):
        cache = ReachabilityCache()
        first = FormalEngine(counter_design, reachability_cache=cache)
        verdict = first.check("(count <= 15);")
        assert verdict.is_pass
        assert len(cache) == 1
        # a second engine replays the cached result instead of re-walking
        second = FormalEngine(counter_design, reachability_cache=cache)
        second.check("(count <= 15);")
        assert cache.hits >= 1
        assert second.reachability_snapshot().states == first.reachability_snapshot().states


class TestPersistentReachabilityCache:
    def test_round_trip(self, tmp_path, counter_design):
        path = tmp_path / "reachability.jsonl"
        cache = PersistentReachabilityCache(path)
        key = reachability_key(counter_design, EngineConfig())
        result = _reach(counter_design)
        cache.put(key, result)
        cache.close()

        reloaded = PersistentReachabilityCache(path)
        assert reloaded.loaded_entries == 1
        got = reloaded.get(key)
        assert got is not None
        assert got.states == result.states
        assert got.complete == result.complete
        assert got.transitions_explored == result.transitions_explored

    def test_incomplete_results_persist_too(self, tmp_path, counter_design):
        path = tmp_path / "reachability.jsonl"
        cache = PersistentReachabilityCache(path)
        key = ("fp", 5, 9, 12)
        cache.put(key, _reach(counter_design, max_states=5, max_transitions=9))
        cache.close()
        got = PersistentReachabilityCache(path).get(key)
        assert got is not None and not got.complete

    def test_equal_put_appends_nothing(self, tmp_path, counter_design):
        path = tmp_path / "reachability.jsonl"
        cache = PersistentReachabilityCache(path)
        key = reachability_key(counter_design, EngineConfig())
        cache.put(key, _reach(counter_design))
        cache.put(key, _reach(counter_design))
        cache.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        reloaded = PersistentReachabilityCache(path)
        assert reloaded.loaded_entries == 1
        assert reloaded.get(key) == _reach(counter_design)

    def test_concurrent_equal_puts_append_one_line(self, tmp_path, counter_design):
        path = tmp_path / "reachability.jsonl"
        cache = PersistentReachabilityCache(path)
        key = reachability_key(counter_design, EngineConfig())
        result = _reach(counter_design)
        start = threading.Barrier(8)

        def put():
            start.wait()
            cache.put(key, result)

        threads = [threading.Thread(target=put) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "reachability.jsonl"
        path.write_text('{"design": "x", "max_states": 1\n', encoding="utf-8")
        cache = PersistentReachabilityCache(path)
        assert cache.loaded_entries == 0

    def test_run_store_owns_one_instance(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.reachability_cache() is store.reachability_cache()
        store.close()


class TestSchedulerWarmup:
    def test_service_populates_and_replays(self, tmp_path, counter_design):
        store = RunStore(tmp_path / "run")
        config = SchedulerConfig(engine=EngineConfig(), workers=1)
        with VerificationService(
            config, reachability_cache=store.reachability_cache()
        ) as service:
            service.check_design(counter_design, ["(count <= 15);"])
        assert len(store.reachability_cache()) == 1
        store.close()

        # a fresh process-equivalent: new store object over the same dir
        warm = RunStore(tmp_path / "run")
        cache = warm.reachability_cache()
        assert cache.loaded_entries == 1
        with VerificationService(config, reachability_cache=cache) as service:
            results = service.check_design(counter_design, ["(count <= 15);"])
        assert results[0].is_pass
        assert cache.hits >= 1
        warm.close()

    def test_preloaded_result_not_rewritten(self, tmp_path, counter_design):
        store = RunStore(tmp_path / "run")
        cache = store.reachability_cache()
        config = SchedulerConfig(engine=EngineConfig(), workers=1)
        with VerificationService(config, reachability_cache=cache) as service:
            service.check_design(counter_design, ["(count <= 15);"])
            service.check_design(counter_design, ["(count >= 0);"])
        # second batch replayed the cached result: still exactly one line
        lines = [
            line
            for line in cache.path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        store.close()

    def test_runtime_adopts_store_reachability_cache(self, tmp_path):
        from repro.core import CampaignRuntime
        from repro.core.runtime import PipelineConfig

        store = RunStore(tmp_path / "adopt")
        service = VerificationService(
            SchedulerConfig(engine=EngineConfig()), cache=store.verdict_cache()
        )
        runtime = CampaignRuntime(
            config=PipelineConfig(), service=service, store=store
        )
        assert service.reachability_cache is store.reachability_cache()
        runtime.close()
        store.close()

    def test_preload_round_trips_through_engine(self, counter_design):
        result = _reach(counter_design)
        engine = FormalEngine(counter_design)
        engine.preload_reachability(result)
        assert engine.check("(count <= 15);").is_pass
        assert engine.reachability_snapshot() is result

    def test_results_identical_with_and_without_cache(self, counter_design):
        cold = FormalEngine(counter_design).check("(count <= 15);")
        cache = ReachabilityCache()
        FormalEngine(counter_design, reachability_cache=cache).check("(count <= 15);")
        warm = FormalEngine(counter_design, reachability_cache=cache).check(
            "(count <= 15);"
        )
        assert (cold.status, cold.complete, cold.states_explored) == (
            warm.status,
            warm.complete,
            warm.states_explored,
        )


def test_reachability_result_shape(counter_design):
    result = _reach(counter_design)
    assert isinstance(result, ReachabilityResult)
    assert result.count == 16 and result.complete
