"""AssertionLLM: the fine-tuned assertion-generation model (paper Section VI).

The real AssertionLLM is a CodeLLaMa 2 / LLaMa3-70B checkpoint fine-tuned for
20 epochs on design/assertion pairs drawn from AssertionBench.  Offline, we
substitute a *trainable statistical generator*: fine-tuning fits

* a template distribution (implication flavour, antecedent size, temporal
  depth) over the training assertions,
* signal-role statistics (how often antecedent atoms test inputs vs state
  registers, and consequents test outputs vs state),
* an n-gram fluency model over the training assertion token streams,

and the generator uses those learned statistics to pick and shape candidates
for an unseen design.  The residual error behaviour of the underlying
foundation model (how often output is still syntactically broken or
semantically wrong after fine-tuning) is calibrated against the paper's
Figure 9, interpolated by how much training data the tuner actually saw —
with no training data the model behaves exactly like its foundation profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bench.knowledge import DesignKnowledgeBase
from ..hdl.design import Design
from ..sva.model import OVERLAPPED, Assertion
from .cots import GenerationContext, SimulatedCotsLLM
from .decoding import DecodingConfig, GenerationResult
from .profiles import FINETUNED_PROFILES, ModelProfile, OutcomeMix
from .prompt import Prompt
from .tokenizer import NgramModel


@dataclass
class TrainingExample:
    """One fine-tuning sample: a design and its formally verified assertions."""

    design: Design
    assertions: List[Assertion] = field(default_factory=list)


@dataclass
class LearnedStatistics:
    """What fine-tuning extracted from the training set."""

    num_examples: int = 0
    num_assertions: int = 0
    implication_counts: Dict[str, int] = field(default_factory=dict)
    antecedent_size_counts: Dict[int, int] = field(default_factory=dict)
    temporal_depth_counts: Dict[int, int] = field(default_factory=dict)
    antecedent_role_counts: Dict[str, int] = field(default_factory=dict)
    consequent_role_counts: Dict[str, int] = field(default_factory=dict)
    ngram: Optional[NgramModel] = None

    def implication_preference(self) -> str:
        """The implication flavour most common in the training data."""
        if not self.implication_counts:
            return OVERLAPPED
        return max(self.implication_counts, key=self.implication_counts.get)


def _signal_role(design: Design, name: str) -> str:
    model = design.model
    if name in model.inputs:
        return "input"
    if name in model.outputs:
        return "output"
    if name in set(model.state_regs):
        return "state"
    return "wire"


def learn_statistics(dataset: List[TrainingExample], ngram_order: int = 3) -> LearnedStatistics:
    """Fit the template/role/n-gram statistics from the training examples."""
    stats = LearnedStatistics(ngram=NgramModel(order=ngram_order))
    texts: List[str] = []
    for example in dataset:
        stats.num_examples += 1
        for assertion in example.assertions:
            stats.num_assertions += 1
            stats.implication_counts[assertion.implication] = (
                stats.implication_counts.get(assertion.implication, 0) + 1
            )
            size = len(assertion.antecedent)
            stats.antecedent_size_counts[size] = stats.antecedent_size_counts.get(size, 0) + 1
            depth = assertion.temporal_depth
            stats.temporal_depth_counts[depth] = stats.temporal_depth_counts.get(depth, 0) + 1
            for term in assertion.antecedent:
                for name in term.signals():
                    role = _signal_role(example.design, name)
                    stats.antecedent_role_counts[role] = (
                        stats.antecedent_role_counts.get(role, 0) + 1
                    )
            for term in assertion.consequent:
                for name in term.signals():
                    role = _signal_role(example.design, name)
                    stats.consequent_role_counts[role] = (
                        stats.consequent_role_counts.get(role, 0) + 1
                    )
            texts.append(assertion.to_sva(include_assert=False))
    if texts and stats.ngram is not None:
        stats.ngram.fit(texts)
    return stats


class AssertionLLM(SimulatedCotsLLM):
    """Fine-tuned assertion generator built on top of a foundation profile."""

    def __init__(
        self,
        foundation: ModelProfile,
        statistics: LearnedStatistics,
        competence: float,
        knowledge: Optional[DesignKnowledgeBase] = None,
    ):
        tuned_profile = FINETUNED_PROFILES.get(foundation.name)
        if tuned_profile is None:
            raise KeyError(
                f"no fine-tuned calibration available for foundation {foundation.name!r}"
            )
        self.foundation = foundation
        self.statistics = statistics
        self.competence = max(0.0, min(1.0, competence))
        blended = self._blend_profile(foundation, tuned_profile, self.competence)
        super().__init__(blended, knowledge)
        self.name = tuned_profile.name

    # -- profile blending ------------------------------------------------------------

    @staticmethod
    def _blend_profile(
        foundation: ModelProfile, tuned: ModelProfile, competence: float
    ) -> ModelProfile:
        """Interpolate outcome mixes between the foundation and tuned anchors.

        ``competence`` 0.0 reproduces the untouched foundation behaviour;
        1.0 reproduces the fully fine-tuned calibration (Figure 9).
        """
        mixes = {}
        for k in sorted(set(foundation.mixes) | set(tuned.mixes)):
            base = foundation.mix_for(k)
            target = tuned.mix_for(k)
            valid = base.valid + competence * (target.valid - base.valid)
            cex = base.cex + competence * (target.cex - base.cex)
            error = max(0.0, 1.0 - valid - cex)
            mixes[k] = OutcomeMix(valid=valid, cex=cex, error=error)
        return ModelProfile(
            name=tuned.name,
            family=tuned.family,
            parameters_billion=tuned.parameters_billion,
            context_window=tuned.context_window,
            mixes=mixes,
            off_language_probability=tuned.off_language_probability
            + (1.0 - competence) * foundation.off_language_probability,
            empty_generation_probability=(1.0 - competence)
            * foundation.empty_generation_probability,
            unfixable_error_bias=tuned.unfixable_error_bias,
            assertions_per_design=tuned.assertions_per_design,
            fine_tuned=True,
        )

    # -- generation refinements ------------------------------------------------------------

    def generate(self, prompt: Prompt, config: DecodingConfig) -> GenerationResult:
        result = super().generate(prompt, config)
        if self.statistics.ngram is None or not result.lines:
            return result
        # Re-rank the emitted candidates by fluency under the learned n-gram
        # model: the fine-tuned model prefers phrasings it saw in training.
        scored = sorted(
            result.lines,
            key=lambda line: -self.statistics.ngram.sequence_logprob(line),
        )
        result.lines = scored
        return result

    def _emit_valid(self, context: GenerationContext) -> str:
        """Prefer pool assertions matching the learned template distribution."""
        if context.pool:
            preference = self.statistics.implication_preference()
            matching = [a for a in context.pool if a.implication == preference]
            pool = matching or context.pool
            assertion = context.rng.choice(pool)
            return self._render(assertion, context, allow_soft_noise=False)
        return self._render_tautology(context)


def describe_model(model: AssertionLLM) -> Dict[str, object]:
    """Structured summary of a fine-tuned model (used by reports and tests)."""
    return {
        "name": model.name,
        "foundation": model.foundation.name,
        "competence": model.competence,
        "training_examples": model.statistics.num_examples,
        "training_assertions": model.statistics.num_assertions,
        "implication_preference": model.statistics.implication_preference(),
        "vocabulary": model.statistics.ngram.vocabulary_size if model.statistics.ngram else 0,
    }
