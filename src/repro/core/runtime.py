"""The durable campaign runtime: streaming generate → verify over a run store.

:class:`CampaignRuntime` is the single execution engine behind every
evaluation campaign (COTS ICL, fine-tuned AssertionLLM, the experiment
suite, and the ``python -m repro`` CLI).  It executes the paper's
generate → correct → verify loop (Figures 4/8) as *overlapping stages*:

* **Stage 1 (caller thread)** — build the k-shot prompt, run the generator,
  and pass each emitted line through the syntax corrector.
* **Stage 2 (verifier thread)** — discharge the design's surviving
  assertions as one batched call on the
  :class:`~repro.core.scheduler.VerificationService` (which itself fans
  design batches across FPV worker processes).

While design *N*'s batch is in flight on the verifier, generation for design
*N+1* proceeds — the LLM and the FPV engine are never idle waiting on each
other, and results are still assembled in deterministic design order.

When the runtime is given a :class:`~repro.core.store.RunStore` it becomes
*durable*: every completed cell — one (model, k, design) evaluation — is
committed to the store's outcome shards before the next design finishes, FPV
verdicts persist in the store's content-addressed verdict cache, and a rerun
over the same store **resumes**: committed cells are loaded instead of
re-evaluated, and re-generated assertions of uncommitted cells replay their
verdicts from the persistent cache instead of re-proving them.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..fpv.engine import EngineConfig
from ..fpv.result import ProofResult, error_result
from ..hdl.design import Design
from ..llm.cots import AssertionGenerator
from ..llm.decoding import DecodingConfig
from ..llm.prompt import InContextExample, PromptBuilder
from ..sva.corrector import SyntaxCorrector
from ..sva.errors import SvaError
from ..sva.model import Assertion
from ..sva.parser import parse_assertion, split_assertion_lines
from .metrics import (
    AssertionOutcome,
    DesignEvaluation,
    EvaluationMatrix,
    ModelKshotResult,
    categorize,
)
from .scheduler import (
    SchedulerConfig,
    VerificationService,
    default_workers,
)
from .store import RunStore

__all__ = [
    "CampaignRuntime",
    "PipelineConfig",
    "campaign_config",
]


@dataclass
class PipelineConfig:
    """Knobs of the generate → correct → verify loop."""

    use_syntax_corrector: bool = True
    resolve_signal_names: bool = True
    decoding: DecodingConfig = field(default_factory=DecodingConfig)
    engine: EngineConfig = field(
        default_factory=lambda: EngineConfig(
            max_states=2048,
            max_transitions=120_000,
            max_input_bits=10,
            max_state_bits=14,
            max_path_evaluations=120_000,
            fallback_cycles=256,
            fallback_seeds=2,
        )
    )
    #: FPV worker processes (1 = in-process; defaults to REPRO_FPV_WORKERS,
    #: matching SchedulerConfig.workers and SuiteConfig.fpv_workers).
    workers: int = field(default_factory=default_workers)


@dataclass
class _PreparedLine:
    """One generated line after correction/parsing, awaiting its verdict."""

    raw: str
    corrected: str
    correction_applied: bool
    assertion: Optional[Assertion]


def campaign_config(
    generators: Sequence[AssertionGenerator],
    k_values: Sequence[int],
    designs: Sequence[Design],
    config: PipelineConfig,
    use_corrector: Optional[bool] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """The manifest payload identifying a campaign for exact-resume checks.

    Everything that changes campaign *results* is included — models, k
    values, design sources, engine budgets, decoding, corrector — while
    throughput-only knobs (worker counts) are deliberately left out so a
    resume on different hardware still matches.  The evaluation backend is
    excluded for the same reason: backends are bit-identical by contract
    (enforced by the backend-equivalence suite), so e.g. ``repro mutate
    --backend vectorized`` may resume a campaign that ran compiled.
    """
    engine = dataclasses.asdict(config.engine)
    engine.pop("backend", None)
    payload: Dict = {
        "models": [generator.name for generator in generators],
        "k_values": list(k_values),
        "designs": [
            {"name": design.name, "source": design.fingerprint}
            for design in designs
        ],
        "engine": engine,
        "decoding": dataclasses.asdict(config.decoding),
        "use_syntax_corrector": (
            config.use_syntax_corrector if use_corrector is None else use_corrector
        ),
        "resolve_signal_names": config.resolve_signal_names,
    }
    if extra:
        payload.update(extra)
    return payload


class CampaignRuntime:
    """Execute evaluation campaigns as a streaming, durable dataflow."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        service: Optional[VerificationService] = None,
        store: Optional[RunStore] = None,
        max_inflight: Optional[int] = None,
    ):
        self._config = config or PipelineConfig()
        self._store = store
        self._prompt_builder = PromptBuilder()
        self._max_inflight = max_inflight
        self._owns_service = service is None
        if service is None:
            cache = store.verdict_cache() if store is not None else None
            reachability = store.reachability_cache() if store is not None else None
            service = VerificationService(
                SchedulerConfig(
                    engine=self._config.engine, workers=self._config.workers
                ),
                cache=cache,
                reachability_cache=reachability,
            )
        elif store is not None:
            if service.cache is not store.verdict_cache():
                # Silently accepting this pair would break the durability
                # contract: verdicts would never reach the store's persistent
                # cache, so an interrupted cell would re-prove everything.
                raise ValueError(
                    "explicit service must be fronted by the store's verdict "
                    "cache: construct it with "
                    "VerificationService(..., cache=store.verdict_cache())"
                )
            if service.reachability_cache is not store.reachability_cache():
                # Reachability is a semantics-neutral cache, so a mismatch is
                # repaired rather than rejected: adopt the store's persistent
                # one so warm reruns still skip the BFS.
                service.use_reachability_cache(store.reachability_cache())
        self._service = service

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down the verification service if this runtime created it."""
        if self._owns_service:
            self._service.close()

    def __enter__(self) -> "CampaignRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def service(self) -> VerificationService:
        return self._service

    @property
    def cache(self):
        return self._service.cache

    @property
    def store(self) -> Optional[RunStore]:
        return self._store

    # -- campaign entry points ----------------------------------------------------

    def run_campaign(
        self,
        generators: Sequence[AssertionGenerator],
        k_values: Sequence[int],
        designs: Sequence[Design],
        examples,
        use_corrector: Optional[bool] = None,
    ) -> EvaluationMatrix:
        """Evaluate every (model, k) sweep; resume skips committed cells.

        ``examples`` is an :class:`~repro.bench.icl.IclExampleSet` (anything
        with ``for_k``).  Manifest bookkeeping is the campaign driver's job
        (CLI / suite) — this method only streams cells and checkpoints them.
        """
        designs = list(designs)
        matrix = EvaluationMatrix()
        for generator in generators:
            for k in k_values:
                result = ModelKshotResult(model_name=generator.name, k=k)
                result.designs.extend(
                    self.evaluate_stream(
                        generator, designs, examples.for_k(k), k, use_corrector
                    )
                )
                matrix.add(result)
        return matrix

    def evaluate_stream(
        self,
        generator: AssertionGenerator,
        designs: Sequence[Design],
        examples: Sequence[InContextExample],
        k: int,
        use_corrector: Optional[bool] = None,
    ) -> List[DesignEvaluation]:
        """One (model, k) sweep over ``designs`` with overlapped stages.

        Committed cells are served from the run store without generation or
        verification; fresh cells are checkpointed the moment their verdicts
        land.  Results are in input design order regardless of overlap.
        """
        designs = list(designs)
        completed = self._store.completed_cells() if self._store is not None else {}
        evaluations: List[Optional[DesignEvaluation]] = [None] * len(designs)

        def replay(index: int, design: Design, marker) -> bool:
            if marker is None:
                return False
            evaluation = DesignEvaluation(design_name=design.name)
            evaluation.outcomes.extend(self._store.load_marked(marker))
            evaluations[index] = evaluation
            return True

        def commit(index: int, design: Design, lines, verdicts) -> None:
            evaluation = self._assemble(
                generator.name, k, design, lines, verdicts, use_corrector
            )
            if self._store is not None:
                self._store.record_cell(
                    generator.name, k, design.name, evaluation.outcomes
                )
            evaluations[index] = evaluation

        # Overlap only pays when verification leaves this interpreter: with
        # in-process FPV (one worker) both stages are GIL-bound, so a second
        # thread just adds switching overhead — run the loop inline instead.
        stage_width = self._service.effective_workers()
        if stage_width <= 1:
            for index, design in enumerate(designs):
                if replay(index, design, completed.get((generator.name, k, design.name))):
                    continue
                lines = self._prepare_lines(generator, design, examples, use_corrector)
                assertions = [
                    line.assertion for line in lines if line.assertion is not None
                ]
                commit(index, design, lines, self._service.check_design(design, assertions))
            return evaluations  # type: ignore[return-value]

        # One verifier thread per FPV worker: each thread's design batch
        # lands on its own pool process, so streaming keeps the same fan-out
        # the old whole-sweep check_many had while generation for design N+1
        # overlaps verification of design N.
        inflight: Deque[Tuple[int, Design, List[_PreparedLine], Future]] = deque()

        def drain_one() -> None:
            index, design, lines, future = inflight.popleft()
            commit(index, design, lines, future.result())

        window = self._max_inflight if self._max_inflight is not None else max(
            4, 2 * stage_width
        )
        window = max(1, window)
        verifier = ThreadPoolExecutor(
            max_workers=stage_width, thread_name_prefix="repro-verify"
        )
        try:
            for index, design in enumerate(designs):
                if replay(index, design, completed.get((generator.name, k, design.name))):
                    continue
                lines = self._prepare_lines(generator, design, examples, use_corrector)
                assertions = [
                    line.assertion for line in lines if line.assertion is not None
                ]
                future = verifier.submit(
                    self._service.check_design, design, assertions
                )
                inflight.append((index, design, lines, future))
                # Keep the window bounded and commit cells promptly: drain
                # everything already verified, then block only when the
                # verifier is more than the window behind.
                while inflight and (
                    len(inflight) > window or inflight[0][3].done()
                ):
                    drain_one()
            while inflight:
                drain_one()
        finally:
            verifier.shutdown(wait=False, cancel_futures=True)
        return evaluations  # type: ignore[return-value]

    # -- generation / correction ----------------------------------------------------

    def _corrector_enabled(self, use_corrector: Optional[bool]) -> bool:
        return (
            self._config.use_syntax_corrector if use_corrector is None else use_corrector
        )

    def _prepare_lines(
        self,
        generator: AssertionGenerator,
        design: Design,
        examples: Sequence[InContextExample],
        use_corrector: Optional[bool],
    ) -> List[_PreparedLine]:
        prompt = self._prompt_builder.build(list(examples), design)
        generation = generator.generate(prompt, self._config.decoding)
        lines = split_assertion_lines(generation.text)

        corrector = (
            SyntaxCorrector(design=design, resolve_signals=self._config.resolve_signal_names)
            if self._corrector_enabled(use_corrector)
            else None
        )

        prepared: List[_PreparedLine] = []
        for raw in lines:
            if corrector is not None:
                correction = corrector.correct(raw)
                prepared.append(
                    _PreparedLine(
                        raw=raw,
                        corrected=correction.corrected,
                        correction_applied=bool(correction.applied_rules),
                        assertion=correction.assertion,
                    )
                )
            else:
                try:
                    assertion = parse_assertion(raw)
                except SvaError:
                    assertion = None
                prepared.append(
                    _PreparedLine(
                        raw=raw,
                        corrected=raw,
                        correction_applied=False,
                        assertion=assertion,
                    )
                )
        return prepared

    # -- verdict assembly -----------------------------------------------------------

    def _assemble(
        self,
        model_name: str,
        k: int,
        design: Design,
        lines: List[_PreparedLine],
        verdicts: List[ProofResult],
        use_corrector: Optional[bool],
    ) -> DesignEvaluation:
        evaluation = DesignEvaluation(design_name=design.name)
        queue = iter(verdicts)
        for line in lines:
            if line.assertion is None:
                proof = error_result(
                    "assertion could not be parsed"
                    + (" after correction" if self._corrector_enabled(use_corrector) else ""),
                    design.name,
                )
            else:
                proof = next(queue)
            evaluation.outcomes.append(
                AssertionOutcome(
                    design_name=design.name,
                    model_name=model_name,
                    k=k,
                    raw_text=line.raw,
                    corrected_text=line.corrected,
                    category=categorize(proof),
                    proof=proof,
                    correction_applied=line.correction_applied,
                )
            )
        return evaluation
