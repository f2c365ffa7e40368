"""Experiment registry and one-call reproduction entry point.

``ExperimentSuite`` wires the corpus, knowledge base, ICE pool, and both
evaluation campaigns together behind a single object so that the examples,
the benchmark harness, and EXPERIMENTS.md regeneration all share one cached
set of expensive artefacts (mined assertions, FPV verdicts).

When ``SuiteConfig.run_dir`` is set the suite becomes durable: both
campaigns checkpoint per-design cells into the run directory's
:class:`~repro.core.store.RunStore`, the shared
:class:`~repro.core.scheduler.VerificationService` fronts the store's
persistent verdict cache, and re-running the suite over the same directory
resumes — committed cells load from disk and already-proved verdicts replay
from the cache.  The suite's manifest (config hash over corpus, design
counts, and k values) guards against resuming with a different setup.

The experiment identifiers match DESIGN.md's per-experiment index
(E1 = Figure 3, E2 = Table I, E3-E6 = Figure 6, E7-E8 = Figure 7,
E9-E10 = Figure 9, E11 = Observations, E13 = ICE construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.corpus import DEFAULT_CORPUS, get_corpus
from ..bench.icl import IclExampleSet, build_icl_examples
from ..bench.knowledge import DesignKnowledgeBase
from ..llm.profiles import CODELLAMA_2, COTS_PROFILES, LLAMA3_70B
from .finetune_eval import FinetuneCampaignResult, FinetuneEvaluationConfig, FinetuneEvaluator
from .icl_eval import IclEvaluationConfig, IclEvaluator
from .metrics import EvaluationMatrix
from .observations import ObservationCheck, all_observations
from .pipeline import PipelineConfig
from .scheduler import SchedulerConfig, VerificationService, default_workers
from .store import RunStore
from .reports import (
    FigureSeries,
    TableReport,
    accuracy_matrix_report,
    corpus_summary,
    figure3_design_sizes,
    figure6_accuracy,
    figure7_model_comparison,
    figure9_finetuned,
    ice_statistics,
    table1_design_details,
)


@dataclass
class SuiteConfig:
    """How much of the benchmark to run, and where to persist it.

    The full paper-scale campaign uses all 100 test designs; the default here
    uses a representative subset so the whole suite regenerates in minutes on
    a laptop.  Set ``num_cots_designs=None`` for the full run.
    """

    num_cots_designs: Optional[int] = 16
    num_finetune_designs: Optional[int] = 24
    k_values: Sequence[int] = (1, 5)
    #: FPV worker processes shared by every campaign (1 = in-process;
    #: defaults to the REPRO_FPV_WORKERS environment variable).
    fpv_workers: int = field(default_factory=default_workers)
    #: Registered corpus to evaluate (see :mod:`repro.bench.corpus`).
    corpus: str = DEFAULT_CORPUS
    #: Optional (index, count) test-design shard for multi-worker campaigns.
    shard: Optional[Tuple[int, int]] = None
    #: Optional run directory; when set, campaigns checkpoint into a
    #: :class:`RunStore` and re-running the suite resumes from it.
    run_dir: Optional[str] = None


@dataclass
class SuiteResults:
    """Everything the suite produced, keyed for report generation."""

    cots_matrix: Optional[EvaluationMatrix] = None
    finetune_campaign: Optional[FinetuneCampaignResult] = None
    figures: Dict[str, FigureSeries] = field(default_factory=dict)
    tables: Dict[str, TableReport] = field(default_factory=dict)
    observations: List[ObservationCheck] = field(default_factory=list)


class ExperimentSuite:
    """Run and cache every experiment of the reproduction."""

    def __init__(self, config: Optional[SuiteConfig] = None):
        self.config = config or SuiteConfig()
        self.corpus = get_corpus(self.config.corpus, shard=self.config.shard)
        self.knowledge = DesignKnowledgeBase()
        self.store: Optional[RunStore] = (
            RunStore(self.config.run_dir) if self.config.run_dir else None
        )
        # One scheduler for every campaign: both evaluation flows share the
        # worker pool and the verdict cache, so an assertion generated by a
        # COTS model and again by a fine-tuned model is only proved once.
        # With a run directory the cache is the store's persistent one.
        self.service = VerificationService(
            SchedulerConfig(
                engine=PipelineConfig().engine, workers=self.config.fpv_workers
            ),
            cache=self.store.verdict_cache() if self.store is not None else None,
            reachability_cache=(
                self.store.reachability_cache() if self.store is not None else None
            ),
        )
        if self.store is not None:
            self.store.begin_run(self._manifest_config())
        self._examples: Optional[IclExampleSet] = None
        self._cots_matrix: Optional[EvaluationMatrix] = None
        self._finetune_campaign: Optional[FinetuneCampaignResult] = None

    def _manifest_config(self) -> Dict:
        return {
            "suite": {
                "corpus": self.config.corpus,
                "shard": list(self.config.shard) if self.config.shard else None,
                "num_cots_designs": self.config.num_cots_designs,
                "num_finetune_designs": self.config.num_finetune_designs,
                "k_values": list(self.config.k_values),
            }
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self, mark_complete: bool = True) -> None:
        """Shut down the shared worker pool; optionally stamp the run done."""
        if self.store is not None:
            if mark_complete:
                self.store.finish_run()
            self.store.close()
        self.service.close()

    def __enter__(self) -> "ExperimentSuite":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A crashed suite must not advertise its run directory as complete —
        # leaving it "running" is what lets a later suite resume it.
        self.close(mark_complete=exc_type is None)

    # -- shared artefacts -------------------------------------------------------------

    @property
    def examples(self) -> IclExampleSet:
        if self._examples is None:
            self._examples = build_icl_examples(self.corpus, self.knowledge)
        return self._examples

    # -- corpus experiments (E1, E2, E13) --------------------------------------------------

    def experiment_figure3(self) -> TableReport:
        """E1: design-size characterisation."""
        return figure3_design_sizes(self.corpus)

    def experiment_table1(self) -> TableReport:
        """E2: representative design details."""
        return table1_design_details(self.corpus)

    def experiment_corpus_summary(self) -> TableReport:
        return corpus_summary(self.corpus)

    def experiment_ice(self) -> TableReport:
        """E13: in-context example construction statistics."""
        return ice_statistics(self.examples)

    # -- COTS campaign (E3-E8) ----------------------------------------------------------------

    def cots_matrix(self) -> EvaluationMatrix:
        if self._cots_matrix is None:
            evaluator = IclEvaluator(
                corpus=self.corpus,
                knowledge=self.knowledge,
                examples=self.examples,
                config=IclEvaluationConfig(
                    k_values=tuple(self.config.k_values),
                    num_test_designs=self.config.num_cots_designs,
                ),
                service=self.service,
                store=self.store,
            )
            self._cots_matrix = evaluator.evaluate()
        return self._cots_matrix

    def experiment_figure6(self) -> Dict[str, FigureSeries]:
        """E3-E6: per-model accuracy at each k."""
        matrix = self.cots_matrix()
        return {
            profile.name: figure6_accuracy(matrix, profile.name)
            for profile in COTS_PROFILES
        }

    def experiment_figure7(self) -> Dict[int, FigureSeries]:
        """E7-E8: cross-model comparison per k."""
        matrix = self.cots_matrix()
        return {k: figure7_model_comparison(matrix, k) for k in self.config.k_values}

    # -- fine-tuned campaign (E9, E10) ------------------------------------------------------------

    def finetune_campaign(self) -> FinetuneCampaignResult:
        if self._finetune_campaign is None:
            evaluator = FinetuneEvaluator(
                corpus=self.corpus,
                knowledge=self.knowledge,
                examples=self.examples,
                config=FinetuneEvaluationConfig(
                    k_values=tuple(self.config.k_values),
                    num_designs=self.config.num_finetune_designs,
                ),
                service=self.service,
                store=self.store,
            )
            self._finetune_campaign = evaluator.evaluate([CODELLAMA_2, LLAMA3_70B])
        return self._finetune_campaign

    def experiment_figure9(self) -> Dict[str, FigureSeries]:
        """E9-E10: fine-tuned AssertionLLM accuracy."""
        return figure9_finetuned(self.finetune_campaign().matrix)

    # -- one-call reproduction -------------------------------------------------------------------------

    def run_all(self, include_finetune: bool = True) -> SuiteResults:
        """Run every experiment and collect reports."""
        results = SuiteResults()
        results.tables["figure3"] = self.experiment_figure3()
        results.tables["table1"] = self.experiment_table1()
        results.tables["corpus_summary"] = self.experiment_corpus_summary()
        results.tables["ice"] = self.experiment_ice()
        results.cots_matrix = self.cots_matrix()
        for name, figure in self.experiment_figure6().items():
            results.figures[f"figure6:{name}"] = figure
        for k, figure in self.experiment_figure7().items():
            results.figures[f"figure7:{k}-shot"] = figure
        results.tables["cots_accuracy"] = accuracy_matrix_report(
            results.cots_matrix, "COTS accuracy matrix (Figures 6 and 7)"
        )
        if include_finetune:
            campaign = self.finetune_campaign()
            results.finetune_campaign = campaign
            for name, figure in self.experiment_figure9().items():
                results.figures[f"figure9:{name}"] = figure
            results.tables["finetuned_accuracy"] = accuracy_matrix_report(
                campaign.matrix, "Fine-tuned AssertionLLM accuracy matrix (Figure 9)"
            )
            results.observations = all_observations(results.cots_matrix, campaign.matrix)
        else:
            results.observations = all_observations(results.cots_matrix, None)
        return results


def run_reproduction(
    num_cots_designs: Optional[int] = 16,
    num_finetune_designs: Optional[int] = 24,
    include_finetune: bool = True,
    run_dir: Optional[str] = None,
) -> SuiteResults:
    """Convenience wrapper used by the examples and the benchmark harness."""
    with ExperimentSuite(
        SuiteConfig(
            num_cots_designs=num_cots_designs,
            num_finetune_designs=num_finetune_designs,
            run_dir=run_dir,
        )
    ) as suite:
        return suite.run_all(include_finetune=include_finetune)
