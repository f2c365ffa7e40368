"""AssertionBench: the design corpus, corpus registry, knowledge base, and ICEs."""

from .corpus import (
    CORPUS_REGISTRY,
    DEFAULT_CORPUS,
    SMOKE_CORPUS,
    TEST_SPECS,
    TRAINING_SPECS,
    AssertionBenchCorpus,
    CorpusEntry,
    CorpusRegistry,
    CorpusSpec,
    build_cache_stats,
    build_design,
    get_corpus,
    list_corpora,
    load_corpus,
    register_corpus,
)
from .icl import IclExampleSet, build_icl_examples
from .knowledge import DesignKnowledge, DesignKnowledgeBase

__all__ = [
    "AssertionBenchCorpus",
    "CORPUS_REGISTRY",
    "CorpusEntry",
    "CorpusRegistry",
    "CorpusSpec",
    "DEFAULT_CORPUS",
    "DesignKnowledge",
    "DesignKnowledgeBase",
    "IclExampleSet",
    "SMOKE_CORPUS",
    "TEST_SPECS",
    "TRAINING_SPECS",
    "build_cache_stats",
    "build_design",
    "build_icl_examples",
    "get_corpus",
    "list_corpora",
    "load_corpus",
    "register_corpus",
]
