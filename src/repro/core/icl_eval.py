"""COTS in-context-learning evaluation campaign (paper Figures 4, 6, 7).

Runs every simulated COTS model at every k-shot setting over the test-design
set and aggregates the Pass/CEX/Error accuracy per (model, k).  Execution
goes through the :class:`~repro.core.runtime.CampaignRuntime`: generation
and verification overlap per design, and when a
:class:`~repro.core.store.RunStore` is supplied the campaign checkpoints
after every design and resumes past committed (design, model, k) cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..bench.corpus import AssertionBenchCorpus
from ..bench.icl import IclExampleSet, build_icl_examples
from ..bench.knowledge import DesignKnowledgeBase
from ..hdl.design import Design
from ..llm.cots import AssertionGenerator, SimulatedCotsLLM
from ..llm.profiles import COTS_PROFILES, ModelProfile
from .metrics import EvaluationMatrix
from .pipeline import EvaluationPipeline, PipelineConfig
from .runtime import CampaignRuntime
from .scheduler import VerificationService
from .store import RunStore


@dataclass
class IclEvaluationConfig:
    """Configuration of the COTS evaluation campaign."""

    k_values: Sequence[int] = (1, 5)
    num_test_designs: Optional[int] = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


class IclEvaluator:
    """Evaluate a set of generators on the benchmark (Figure 4 pipeline)."""

    def __init__(
        self,
        corpus: Optional[AssertionBenchCorpus] = None,
        knowledge: Optional[DesignKnowledgeBase] = None,
        examples: Optional[IclExampleSet] = None,
        config: Optional[IclEvaluationConfig] = None,
        service: Optional[VerificationService] = None,
        store: Optional[RunStore] = None,
    ):
        self.corpus = corpus or AssertionBenchCorpus()
        self.knowledge = knowledge or DesignKnowledgeBase()
        self.config = config or IclEvaluationConfig()
        self.examples = examples or build_icl_examples(self.corpus, self.knowledge)
        self.runtime = CampaignRuntime(
            config=self.config.pipeline, service=service, store=store
        )
        self.pipeline = EvaluationPipeline(runtime=self.runtime)

    # -- generators -----------------------------------------------------------------

    def default_generators(self) -> List[SimulatedCotsLLM]:
        """The four COTS models of the paper, sharing this evaluator's knowledge."""
        return [SimulatedCotsLLM(profile, self.knowledge) for profile in COTS_PROFILES]

    # -- evaluation ------------------------------------------------------------------

    def test_designs(self) -> List[Design]:
        return self.corpus.test_designs(limit=self.config.num_test_designs)

    def evaluate(
        self,
        generators: Optional[Sequence[AssertionGenerator]] = None,
        designs: Optional[Sequence[Design]] = None,
    ) -> EvaluationMatrix:
        """Evaluate all generators at all configured k values (resumable)."""
        generators = list(generators) if generators is not None else self.default_generators()
        designs = list(designs) if designs is not None else self.test_designs()
        return self.runtime.run_campaign(
            generators, self.config.k_values, designs, self.examples
        )


def evaluate_cots_models(
    num_test_designs: Optional[int] = 20,
    k_values: Sequence[int] = (1, 5),
    profiles: Optional[Sequence[ModelProfile]] = None,
    knowledge: Optional[DesignKnowledgeBase] = None,
) -> EvaluationMatrix:
    """Convenience wrapper: run the Figure 6/7 campaign on a design subset."""
    evaluator = IclEvaluator(
        knowledge=knowledge,
        config=IclEvaluationConfig(k_values=tuple(k_values), num_test_designs=num_test_designs),
    )
    generators = None
    if profiles is not None:
        generators = [SimulatedCotsLLM(profile, evaluator.knowledge) for profile in profiles]
    return evaluator.evaluate(generators)
