"""Tests for the corpus registry, build memoization, and design sharding."""

from __future__ import annotations

import pytest

from repro.bench import (
    DEFAULT_CORPUS,
    SMOKE_CORPUS,
    TEST_SPECS,
    TRAINING_SPECS,
    AssertionBenchCorpus,
    CorpusRegistry,
    build_cache_stats,
    get_corpus,
    list_corpora,
    register_corpus,
)
from repro.hdl.design import source_fingerprint


class TestRegistry:
    def test_default_corpus_is_registered(self):
        names = [entry.name for entry in list_corpora()]
        assert DEFAULT_CORPUS in names and SMOKE_CORPUS in names

    def test_get_corpus_builds_full_benchmark(self):
        corpus = get_corpus(DEFAULT_CORPUS)
        assert len(corpus.names("train")) == 5
        assert len(corpus.names("test")) == 100

    def test_smoke_corpus_is_small(self):
        corpus = get_corpus(SMOKE_CORPUS)
        assert len(corpus.names("train")) == 5
        assert len(corpus.names("test")) == 6

    def test_unknown_corpus_raises_with_known_names(self):
        with pytest.raises(KeyError, match="assertionbench"):
            get_corpus("nonexistent")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = CorpusRegistry()
        registry.register("x", AssertionBenchCorpus)
        with pytest.raises(ValueError):
            registry.register("x", AssertionBenchCorpus)
        registry.register("x", AssertionBenchCorpus, replace=True)
        assert "x" in registry

    def test_register_corpus_is_visible_through_get(self):
        register_corpus(
            "test-only-tiny",
            lambda: AssertionBenchCorpus(TRAINING_SPECS + TEST_SPECS[:1]),
            "one test design",
            replace=True,
        )
        assert len(get_corpus("test-only-tiny").names("test")) == 1


class TestBuildMemoization:
    def test_design_objects_are_shared_across_corpora(self):
        first = AssertionBenchCorpus()
        second = AssertionBenchCorpus()
        assert first.design("counter") is second.design("counter")
        assert first.design("arb2") is second.design("arb2")

    def test_builders_run_at_most_once_per_spec(self):
        corpus = AssertionBenchCorpus()
        corpus.design("counter")
        before = build_cache_stats()
        corpus.design("counter")
        AssertionBenchCorpus().design("counter")
        after = build_cache_stats()
        assert after == before

    def test_registry_shard_shares_builds_with_full_corpus(self):
        full = get_corpus(DEFAULT_CORPUS)
        shard = get_corpus(DEFAULT_CORPUS, shard=(0, 4))
        name = shard.names("test")[0]
        assert shard.design(name) is full.design(name)


class TestDesignIdentity:
    def test_fingerprint_is_stable(self):
        # Run dirs, verdict caches and reachability caches are keyed by this
        # hash; a different value would orphan every stored result.
        design = get_corpus("assertionbench-control").design("arb2")
        assert design.fingerprint == "da96102c3fd721ff"
        assert source_fingerprint(design.source) == design.fingerprint


class TestSharding:
    def test_shards_partition_the_test_split(self):
        corpus = AssertionBenchCorpus()
        shards = [corpus.shard(index, 4) for index in range(4)]
        test_names = [name for shard in shards for name in shard.names("test")]
        assert sorted(test_names) == sorted(corpus.names("test"))
        assert len(test_names) == len(set(test_names))

    def test_every_shard_keeps_all_training_designs(self):
        corpus = AssertionBenchCorpus()
        for index in range(3):
            assert corpus.shard(index, 3).names("train") == corpus.names("train")

    def test_shard_sizes_differ_by_at_most_one(self):
        corpus = AssertionBenchCorpus()
        sizes = [len(corpus.shard(index, 3).names("test")) for index in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_identity(self):
        corpus = AssertionBenchCorpus()
        assert corpus.shard(0, 1).names() == corpus.names()

    def test_invalid_shard_arguments(self):
        corpus = AssertionBenchCorpus()
        with pytest.raises(ValueError):
            corpus.shard(3, 3)
        with pytest.raises(ValueError):
            corpus.shard(0, 0)
