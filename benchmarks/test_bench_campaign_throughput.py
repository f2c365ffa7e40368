"""Campaign benchmark: the durable streaming runtime end to end.

Three phases over the same (models x k x designs) workload:

* **serial** — the pre-refactor campaign loop: generate + correct every
  design of a sweep first, then discharge everything in one blocking
  ``check_many`` call.  No stage overlap, no durability.
* **cold**   — the streaming :class:`~repro.core.runtime.CampaignRuntime`
  over a fresh run directory: generation for design N+1 overlaps
  verification of design N, every cell is committed to the store, verdicts
  land in the persistent cache.
* **warm**   — a second runtime over the same run directory: every cell is
  already committed, so the campaign replays from the outcome shards with
  zero generation and zero FPV.

The measured wall times are written to ``BENCH_campaign_throughput.json``
(CI uploads the file as an artifact).  The assertions pin the PR's
acceptance bar: warm >= 5x faster than cold, and the streaming cold run no
slower than the old serial loop (within noise).  Set ``REPRO_SMOKE=1`` for
a reduced run that only sanity-checks the plumbing.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path
from typing import List


from repro.core import CampaignRuntime, PipelineConfig, RunStore
from repro.core import scheduler as scheduler_module
from repro.core.metrics import EvaluationMatrix, ModelKshotResult
from repro.fpv import EngineConfig
from repro.llm import GPT_35, GPT_4O, SimulatedCotsLLM

_SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"

_DESIGNS = (
    ["watchdog4", "pwm4", "mod10_counter", "updown_counter4"]
    if _SMOKE
    else [
        "watchdog4", "pwm4", "eth_clockgen", "mod10_counter",
        "updown_counter4", "gray_counter4", "lfsr8", "debouncer3",
        "counter8", "shift_reg8", "seq_detect_1011", "traffic_light",
    ]
)
_K_VALUES = (1,) if _SMOKE else (1, 5)

_ENGINE = EngineConfig(
    max_states=2048,
    max_transitions=120_000,
    max_input_bits=10,
    max_state_bits=14,
    max_path_evaluations=120_000,
    fallback_cycles=128 if _SMOKE else 512,
    fallback_seeds=2,
)

#: Smoke mode only checks the plumbing; ratios need a real workload.  The
#: cold-vs-serial bound carries slack for shared-runner noise — the paired,
#: interleaved min-of-N timing below removes most of it, not all.
_MIN_WARM_SPEEDUP = None if _SMOKE else 5.0
_MAX_COLD_VS_SERIAL = None if _SMOKE else 1.2

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign_throughput.json"


def _config() -> PipelineConfig:
    return PipelineConfig(engine=_ENGINE)


def _generators(suite):
    return [
        SimulatedCotsLLM(GPT_4O, suite.knowledge),
        SimulatedCotsLLM(GPT_35, suite.knowledge),
    ]


def _reset_engine_cache() -> None:
    # In-process FPV engines memoize reachability sweeps per design; clear
    # them between phases so each phase pays the same cold-engine cost.
    scheduler_module._WORKER_ENGINES.clear()


def _matrix_signature(matrix: EvaluationMatrix):
    return {
        (model, k): [
            (evaluation.design_name, [(o.raw_text, o.category) for o in evaluation.outcomes])
            for evaluation in result.designs
        ]
        for model, per_model in matrix.results.items()
        for k, result in per_model.items()
    }


def _serial_campaign(suite, designs, examples) -> EvaluationMatrix:
    """The pre-refactor loop: full-sweep generation, then one batched verify."""
    matrix = EvaluationMatrix()
    with CampaignRuntime(config=_config()) as runtime:
        for generator in _generators(suite):
            for k in _K_VALUES:
                prepared = [
                    (design, runtime._prepare_lines(generator, design, examples.for_k(k), None))
                    for design in designs
                ]
                jobs = [
                    (design, [line.assertion for line in lines if line.assertion is not None])
                    for design, lines in prepared
                ]
                verdict_batches = runtime.service.check_many(jobs)
                result = ModelKshotResult(model_name=generator.name, k=k)
                for (design, lines), verdicts in zip(prepared, verdict_batches):
                    result.designs.append(
                        runtime._assemble(generator.name, k, design, lines, verdicts, None)
                    )
                matrix.add(result)
    return matrix


def _streaming_campaign(suite, designs, examples, run_dir) -> EvaluationMatrix:
    store = RunStore(run_dir)
    with CampaignRuntime(config=_config(), store=store) as runtime:
        return runtime.run_campaign(_generators(suite), _K_VALUES, designs, examples)


def test_campaign_throughput(suite, tmp_path_factory):
    designs = [suite.corpus.design(name) for name in _DESIGNS]
    examples = suite.examples
    base_dir = tmp_path_factory.mktemp("campaign")
    cells = 2 * len(_K_VALUES) * len(designs)
    repetitions = 1 if _SMOKE else 3

    # Pre-mine the shared knowledge base so the first timed phase does not
    # pay the one-time assertion-mining cost the others then reuse.
    for design in designs:
        suite.knowledge.verified_assertions(design)

    def timed(phase):
        _reset_engine_cache()
        # Start every phase on a collected heap: otherwise a full collection
        # of what earlier tests left (~0.1 s in a full suite run, against
        # 0.5-0.7 s phases) lands in whichever phase crosses the threshold.
        gc.collect()
        start = time.perf_counter()
        result = phase()
        return result, time.perf_counter() - start

    # Interleave serial/cold/warm repetitions so a machine load spike hits
    # every phase alike, then take each phase's best; each cold repetition
    # streams into its own fresh run directory and warms it for the replay.
    serial_times: List[float] = []
    cold_times: List[float] = []
    warm_times: List[float] = []
    for repetition in range(repetitions):
        run_dir = base_dir / f"run{repetition}"
        serial_matrix, elapsed = timed(
            lambda: _serial_campaign(suite, designs, examples)
        )
        serial_times.append(elapsed)
        cold_matrix, elapsed = timed(
            lambda: _streaming_campaign(suite, designs, examples, run_dir)
        )
        cold_times.append(elapsed)
        warm_matrix, elapsed = timed(
            lambda: _streaming_campaign(suite, designs, examples, run_dir)
        )
        warm_times.append(elapsed)
    serial_s, cold_s, warm_s = min(serial_times), min(cold_times), min(warm_times)
    # Adjacent serial/cold measurements see the same machine load, so their
    # paired ratio is far less noisy than a ratio of independent minima.
    paired_ratios = [s / c for s, c in zip(serial_times, cold_times)]

    # Durability and overlap must not change a single verdict.
    assert _matrix_signature(cold_matrix) == _matrix_signature(serial_matrix)
    assert _matrix_signature(warm_matrix) == _matrix_signature(serial_matrix)

    warm_speedup = cold_s / warm_s if warm_s else float("inf")
    streaming_vs_serial = statistics.median(paired_ratios)
    report = {
        "benchmark": "campaign_throughput",
        "designs": _DESIGNS,
        "models": [GPT_4O.name, GPT_35.name],
        "k_values": list(_K_VALUES),
        "cells": cells,
        "workers": os.environ.get("REPRO_FPV_WORKERS", "1"),
        "smoke": _SMOKE,
        "serial_loop_s": round(serial_s, 3),
        "streaming_cold_s": round(cold_s, 3),
        "streaming_warm_s": round(warm_s, 3),
        "warm_speedup": round(warm_speedup, 2),
        "streaming_vs_serial_speedup": round(streaming_vs_serial, 2),
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\ncampaign throughput: serial {serial_s:.2f}s, cold {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({warm_speedup:.1f}x warm speedup, "
        f"{streaming_vs_serial:.2f}x streaming vs serial, {cells} cells)"
    )

    if _MIN_WARM_SPEEDUP is not None:
        assert warm_speedup >= _MIN_WARM_SPEEDUP, (
            f"warm rerun only {warm_speedup:.2f}x faster than cold "
            f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s)"
        )
    if _MAX_COLD_VS_SERIAL is not None:
        assert streaming_vs_serial >= 1.0 / _MAX_COLD_VS_SERIAL, (
            f"streaming cold run {cold_s:.2f}s slower than serial loop "
            f"{serial_s:.2f}s (paired ratio {streaming_vs_serial:.3f})"
        )
