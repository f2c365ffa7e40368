"""Tests for the durable campaign runtime: streaming, checkpointing, resume."""

from __future__ import annotations

import os

import pytest
from faults import (
    CRASH_MARKER_ENV,
    FAILING_DESIGN_ENV,
    design_batch_crashing_once,
    design_batch_failing_for_one_design,
    family_job_always_failing,
    tear_trailing_record,
)

from repro.core import (
    CampaignRuntime,
    EvaluationMatrix,
    EvaluationPipeline,
    PipelineConfig,
    ResumeMismatchError,
    RunStore,
    SchedulerConfig,
    VerificationService,
    campaign_config,
    scheduler,
)
from repro.fpv import EngineConfig
from repro.llm import GPT_35, GPT_4O, SimulatedCotsLLM
from repro.mutate import MutationCampaign, MutationConfig

_FAST_ENGINE = EngineConfig(
    max_states=1024,
    max_transitions=60_000,
    max_input_bits=8,
    max_state_bits=12,
    max_path_evaluations=60_000,
    fallback_cycles=96,
    fallback_seeds=1,
)


def _fast_config() -> PipelineConfig:
    return PipelineConfig(engine=_FAST_ENGINE, workers=1)


def _matrix_signature(matrix: EvaluationMatrix):
    """Order-sensitive content fingerprint of a whole evaluation matrix."""
    signature = {}
    for model_name in matrix.model_names:
        for k, result in matrix.results[model_name].items():
            signature[(model_name, k)] = [
                (
                    evaluation.design_name,
                    [
                        (o.raw_text, o.corrected_text, o.category, o.correction_applied)
                        for o in evaluation.outcomes
                    ],
                )
                for evaluation in result.designs
            ]
    return signature


two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the worker pool needs two cores"
)


@pytest.fixture(scope="module")
def campaign_designs(corpus):
    return corpus.test_designs(limit=5)


@pytest.fixture(scope="module")
def generators(knowledge):
    return [SimulatedCotsLLM(GPT_4O, knowledge), SimulatedCotsLLM(GPT_35, knowledge)]


@pytest.fixture(scope="module")
def reference_matrix(generators, campaign_designs, icl_examples):
    """The uninterrupted, store-less campaign everything else must match."""
    with CampaignRuntime(config=_fast_config()) as runtime:
        return runtime.run_campaign(generators, (1,), campaign_designs, icl_examples)


class TestStreaming:
    def test_streaming_matches_pipeline_facade(
        self, generators, campaign_designs, icl_examples, reference_matrix
    ):
        """The EvaluationPipeline facade and the runtime agree exactly."""
        with EvaluationPipeline(config=_fast_config()) as pipeline:
            evaluations = pipeline.evaluate_designs(
                generators[0], campaign_designs, icl_examples.for_k(1), k=1
            )
        expected = reference_matrix.get(generators[0].name, 1)
        assert [e.design_name for e in evaluations] == [
            e.design_name for e in expected.designs
        ]
        assert [
            [(o.raw_text, o.category) for o in e.outcomes] for e in evaluations
        ] == [
            [(o.raw_text, o.category) for o in e.outcomes] for e in expected.designs
        ]

    def test_streaming_bounded_window(self, generators, campaign_designs, icl_examples):
        """A window of 1 still yields complete, ordered results."""
        with CampaignRuntime(config=_fast_config(), max_inflight=1) as runtime:
            evaluations = runtime.evaluate_stream(
                generators[0], campaign_designs, icl_examples.for_k(1), 1
            )
        assert [e.design_name for e in evaluations] == [d.name for d in campaign_designs]
        assert all(e.outcomes for e in evaluations)

    def test_overlapped_workers_match_inline(
        self, generators, campaign_designs, icl_examples, reference_matrix, tmp_path
    ):
        """The threaded multi-worker path agrees with the inline path exactly."""
        config = PipelineConfig(engine=_FAST_ENGINE, workers=2)
        store = RunStore(tmp_path / "overlap")
        with CampaignRuntime(config=config, store=store) as runtime:
            matrix = runtime.run_campaign(
                generators, (1,), campaign_designs, icl_examples
            )
        assert _matrix_signature(matrix) == _matrix_signature(reference_matrix)
        assert len(store.completed_cells()) == 2 * len(campaign_designs)

    @two_cores
    def test_crashed_worker_gives_the_clean_matrix(
        self, generators, campaign_designs, icl_examples, reference_matrix, tmp_path,
        monkeypatch,
    ):
        """A worker killed mid-campaign costs a retry, not the campaign."""
        marker = tmp_path / "crashed"
        monkeypatch.setenv(CRASH_MARKER_ENV, str(marker))
        monkeypatch.setattr(scheduler, "_check_design_batch", design_batch_crashing_once)
        config = PipelineConfig(engine=_FAST_ENGINE, workers=2)
        with CampaignRuntime(config=config) as runtime:
            matrix = runtime.run_campaign(
                generators, (1,), campaign_designs, icl_examples
            )
        assert marker.exists()
        assert _matrix_signature(matrix) == _matrix_signature(reference_matrix)


class TestFailedBatches:
    """A batch that fails in a worker and again in-process is never committed."""

    @two_cores
    def test_failed_cells_stay_uncommitted_and_a_resume_fills_them(
        self, tmp_path, knowledge, campaign_designs, icl_examples, reference_matrix,
        monkeypatch,
    ):
        run_dir = tmp_path / "run"
        config = PipelineConfig(engine=_FAST_ENGINE, workers=2)
        failing = campaign_designs[0].name
        monkeypatch.setenv(FAILING_DESIGN_ENV, failing)
        monkeypatch.setattr(
            scheduler, "_check_design_batch", design_batch_failing_for_one_design
        )
        store = RunStore(run_dir)
        with CampaignRuntime(config=config, store=store) as runtime:
            runtime.run_campaign(
                [SimulatedCotsLLM(GPT_4O, knowledge), SimulatedCotsLLM(GPT_35, knowledge)],
                (1,),
                campaign_designs,
                icl_examples,
            )
        committed = {design for _, _, design in store.completed_cells()}
        assert committed == {design.name for design in campaign_designs} - {failing}
        assert len(store.completed_cells()) == 2 * (len(campaign_designs) - 1)

        monkeypatch.undo()
        resumed_store = RunStore(run_dir)
        with CampaignRuntime(config=config, store=resumed_store) as runtime:
            matrix = runtime.run_campaign(
                [SimulatedCotsLLM(GPT_4O, knowledge), SimulatedCotsLLM(GPT_35, knowledge)],
                (1,),
                campaign_designs,
                icl_examples,
            )
        assert _matrix_signature(matrix) == _matrix_signature(reference_matrix)
        assert len(resumed_store.completed_cells()) == 2 * len(campaign_designs)

    @two_cores
    def test_failed_mutant_sweep_is_not_logged_and_a_rerun_fills_it(
        self, tmp_path, corpus, monkeypatch
    ):
        design = corpus.design("counter")
        assertions = {design.name: ["(count <= 15);", "(count != 9);"]}
        mutation = MutationConfig(limit_per_design=4)
        scheduler_config = SchedulerConfig(engine=_FAST_ENGINE, workers=2)

        def sweep(store):
            with VerificationService(
                scheduler_config, cache=store.verdict_cache()
            ) as service:
                return MutationCampaign(service, store, mutation).run([design], assertions)

        reference = sweep(RunStore(tmp_path / "clean"))
        monkeypatch.setattr(scheduler, "_check_family_job", family_job_always_failing)
        failed = sweep(RunStore(tmp_path / "run"))
        assert failed.records and all(record.outcome == "error" for record in failed.records)
        assert RunStore(tmp_path / "run").load_mutation_log() == ([], {})

        monkeypatch.undo()
        rerun = sweep(RunStore(tmp_path / "run"))
        assert {r.key: r.outcome for r in rerun.records} == {
            r.key: r.outcome for r in reference.records
        }
        records, markers = RunStore(tmp_path / "run").load_mutation_log()
        assert len(records) == len(rerun.records) and design.name in markers


class _InterruptingStore(RunStore):
    """A RunStore whose commit log 'crashes' after a fixed number of cells."""

    def __init__(self, root, fail_after: int):
        super().__init__(root)
        self._commits_left = fail_after

    def record_cell(self, model_name, k, design_name, outcomes):
        if self._commits_left == 0:
            # Simulated kill -9 between a cell's verification (verdicts are
            # already in the persistent cache) and its commit marker.
            raise KeyboardInterrupt("simulated crash")
        super().record_cell(model_name, k, design_name, outcomes)
        self._commits_left -= 1


class TestKillAndResume:
    def test_interrupted_campaign_resumes_to_identical_matrix(
        self, tmp_path, knowledge, campaign_designs, icl_examples, reference_matrix
    ):
        run_dir = tmp_path / "run"
        generators = [SimulatedCotsLLM(GPT_4O, knowledge), SimulatedCotsLLM(GPT_35, knowledge)]

        # Phase 1: crash after 3 committed cells (mid-sweep for model 1).
        crashing = _InterruptingStore(run_dir, fail_after=3)
        runtime = CampaignRuntime(config=_fast_config(), store=crashing)
        with pytest.raises(KeyboardInterrupt):
            runtime.run_campaign(generators, (1,), campaign_designs, icl_examples)
        runtime.close()

        committed = RunStore(run_dir).completed_cells()
        assert len(committed) == 3
        # Verdicts of the crashed (uncommitted) cell survived in the cache.
        cached = len(RunStore(run_dir).verdict_cache())
        assert cached > 0
        # The crash also tore the verdict log's last record mid-write.
        tear_trailing_record(run_dir / "verdicts.jsonl")
        assert len(RunStore(run_dir).verdict_cache()) == cached - 1

        # Phase 2: fresh process — new store, runtime, service, generators.
        resumed_store = RunStore(run_dir)
        fresh_generators = [
            SimulatedCotsLLM(GPT_4O, knowledge),
            SimulatedCotsLLM(GPT_35, knowledge),
        ]
        with CampaignRuntime(config=_fast_config(), store=resumed_store) as resumed:
            matrix = resumed.run_campaign(
                fresh_generators, (1,), campaign_designs, icl_examples
            )
            stats = resumed.cache.stats()

        # The resumed matrix is identical to an uninterrupted run...
        assert _matrix_signature(matrix) == _matrix_signature(reference_matrix)
        # ...with already-proved verdicts served from the persistent cache.
        assert stats["hits"] > 0

        # Every cell is now committed; a third pass re-runs nothing.
        assert len(resumed_store.completed_cells()) == 2 * len(campaign_designs)

    def test_completed_run_replays_without_generation(
        self, tmp_path, knowledge, campaign_designs, icl_examples, reference_matrix
    ):
        run_dir = tmp_path / "complete"
        generator = SimulatedCotsLLM(GPT_4O, knowledge)
        with CampaignRuntime(config=_fast_config(), store=RunStore(run_dir)) as runtime:
            first = runtime.run_campaign([generator], (1,), campaign_designs, icl_examples)

        class _Exploding(SimulatedCotsLLM):
            def generate(self, prompt, config):
                raise AssertionError("generation must not run for committed cells")

        replayer = _Exploding(GPT_4O, knowledge)
        with CampaignRuntime(config=_fast_config(), store=RunStore(run_dir)) as runtime:
            replayed = runtime.run_campaign([replayer], (1,), campaign_designs, icl_examples)
        assert _matrix_signature(replayed) == _matrix_signature(first)
        assert _matrix_signature(replayed) == {
            key: value
            for key, value in _matrix_signature(reference_matrix).items()
            if key[0] == GPT_4O.name
        }


class TestServiceStoreWiring:
    def test_mismatched_service_and_store_are_rejected(self, tmp_path):
        from repro.core import SchedulerConfig, VerificationService

        store = RunStore(tmp_path / "wiring")
        detached = VerificationService(SchedulerConfig(engine=_FAST_ENGINE))
        with pytest.raises(ValueError, match="verdict cache"):
            CampaignRuntime(config=_fast_config(), service=detached, store=store)

    def test_service_fronted_by_store_cache_is_accepted(self, tmp_path):
        from repro.core import SchedulerConfig, VerificationService

        store = RunStore(tmp_path / "wiring-ok")
        service = VerificationService(
            SchedulerConfig(engine=_FAST_ENGINE), cache=store.verdict_cache()
        )
        runtime = CampaignRuntime(config=_fast_config(), service=service, store=store)
        assert runtime.cache is store.verdict_cache()


class TestManifestGuard:
    def test_changed_campaign_is_rejected(
        self, tmp_path, knowledge, campaign_designs, icl_examples
    ):
        store = RunStore(tmp_path / "guard")
        generator = SimulatedCotsLLM(GPT_4O, knowledge)
        config = _fast_config()
        payload = campaign_config([generator], (1,), campaign_designs, config)
        store.begin_run(payload)

        shrunk = campaign_config([generator], (1,), campaign_designs[:2], config)
        with pytest.raises(ResumeMismatchError):
            RunStore(tmp_path / "guard").begin_run(shrunk)

    def test_worker_count_does_not_change_identity(
        self, knowledge, campaign_designs
    ):
        generator = SimulatedCotsLLM(GPT_4O, knowledge)
        one = campaign_config(
            [generator], (1,), campaign_designs, PipelineConfig(workers=1)
        )
        four = campaign_config(
            [generator], (1,), campaign_designs, PipelineConfig(workers=4)
        )
        assert one == four
