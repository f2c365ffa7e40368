"""FPV kernel benchmark: the vectorized backend vs the compiled backend.

One engine per design, one worker, one batched ``check_batch`` per design —
the same full-corpus sweep on both backends, so the measured ratio isolates
the array-oriented kernel (vectorized BFS, truth-matrix obligation sweep,
batched falsification traces) from scheduling effects.  A second pass
measures the warm-rerun effect of the persistent reachability cache.

Results are written to ``BENCH_fpv_kernel.json`` (CI uploads it as an
artifact).  ``REPRO_SMOKE=1`` shrinks the workload to the explicit-state
corpus subset and gates on parity (>= 1.0x): a smoke regression below parity
means the vectorized path stopped paying for itself and fails the job.  The
full run gates on >= 5x.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.corpus import get_corpus
from repro.fpv import EngineConfig, FormalEngine, ReachabilityCache
from repro.hdl.design import Design
from repro.sim import COMPILED, VECTORIZED
from repro.sim.vector import PLAN_FALLBACK, plan_model

_SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"

_CORPUS = "assertionbench-fpv-kernel" if _SMOKE else "assertionbench"
_PER_DESIGN = 4 if _SMOKE else 6
#: Smoke gates on parity (a regression below 1.0x fails CI); the full sweep
#: must hold the 5x target of the vectorized-kernel work.
_MIN_SPEEDUP = 1.0 if _SMOKE else 5.0

#: Designs the vectorized path used to refuse before the multi-limb
#: lowering landed (wide buses, wide intermediates, memories).
#: They are timed as their own subset: this set must never fall back again,
#: and the multi-limb path must beat the compiled backend on it.
_FORMER_FALLBACK_SET = [
    "mtx_trps_4x4",
    "mtx_trps_8x8_dpsra",
    "mtx_trps_12x12",
    "fht_1d_x8",
    "fht_1d_x16",
    "decoder64",
    "ca_prng",
    "fifo_mem8",
    "ge_prng_mid",
    "register_file16",
]
_MIN_FALLBACK_SET_SPEEDUP = 0.0 if _SMOKE else 1.2

_ENGINE_KWARGS = dict(
    fallback_cycles=128 if _SMOKE else 256,
    fallback_seeds=2,
)

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fpv_kernel.json"


def _assertions(design: Design, count: int) -> List[str]:
    """Distinct, well-formed assertions exercising depth-0..2 obligations."""
    model = design.model
    out = (model.outputs or list(model.signals))[0]
    mask = model.signals[out].mask
    inputs = model.non_clock_inputs
    texts = []
    for j in range(count):
        bound = max(0, mask - (j % max(mask, 1)))
        if not inputs:
            texts.append(f"({out} <= {bound});")
            continue
        inp = inputs[j % len(inputs)]
        if j % 3 == 0:
            texts.append(f"({inp} >= 0) |-> ({out} <= {bound});")
        elif j % 3 == 1:
            texts.append(f"({inp} == 0) |=> ({out} <= {bound});")
        else:
            texts.append(f"({inp} == 0) ##1 ({inp} == 0) |=> ({out} <= {bound});")
    return texts


def _sweep(
    jobs: List[Tuple[Design, List[str]]],
    backend: str,
    reachability_cache: ReachabilityCache = None,
) -> Tuple[List[List], float, List[float]]:
    start = time.perf_counter()
    results = []
    per_design = []
    for design, texts in jobs:
        design_start = time.perf_counter()
        engine = FormalEngine(
            design,
            EngineConfig(backend=backend, **_ENGINE_KWARGS),
            reachability_cache=reachability_cache,
        )
        results.append(engine.check_batch(texts))
        per_design.append(time.perf_counter() - design_start)
    return results, time.perf_counter() - start, per_design


def _plan_census(designs) -> Tuple[Dict[str, str], Dict[str, int], Dict[str, int]]:
    """Plan per design, per-plan design counts, and fallback-reason histogram."""
    by_design: Dict[str, str] = {}
    plans: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    for design in designs:
        plan = plan_model(design.model)
        by_design[design.name] = plan.plan
        plans[plan.plan] = plans.get(plan.plan, 0) + 1
        if plan.plan == PLAN_FALLBACK:
            reasons[plan.reason] = reasons.get(plan.reason, 0) + 1
    return by_design, plans, reasons


def test_fpv_kernel_speedup():
    corpus = get_corpus(_CORPUS)
    jobs = [
        (design, _assertions(design, _PER_DESIGN)) for design in corpus.all_designs()
    ]
    total = sum(len(texts) for _, texts in jobs)

    compiled, compiled_s, _ = _sweep(jobs, COMPILED)
    vectorized, vectorized_s, vectorized_per_design = _sweep(jobs, VECTORIZED)

    # The speedup must not come from changed semantics.
    for (design, _), base_batch, fast_batch in zip(jobs, compiled, vectorized):
        assert [r.status for r in base_batch] == [r.status for r in fast_batch], design.name
        assert [r.complete for r in base_batch] == [r.complete for r in fast_batch], design.name
        assert [r.engine for r in base_batch] == [r.engine for r in fast_batch], design.name

    # Warm rerun: a shared reachability cache removes every BFS on pass two.
    cache = ReachabilityCache()
    _sweep(jobs, VECTORIZED, reachability_cache=cache)
    _, warm_s, _ = _sweep(jobs, VECTORIZED, reachability_cache=cache)

    # Lowering census: which plan every design of the sweep corpus *and* the
    # wide-operand corpus gets.  Since the multi-limb kernel landed this must
    # be fallback-free — a nonzero count means a design silently dropped back
    # to the scalar per-seed loop.
    wide_corpus = get_corpus("assertionbench-wide")
    census_designs = list(corpus.all_designs()) + list(wide_corpus.all_designs())
    plan_by_design, plan_counts, reason_histogram = _plan_census(census_designs)
    per_plan: Dict[str, Dict] = {}
    for (design, texts), elapsed in zip(jobs, vectorized_per_design):
        bucket = per_plan.setdefault(
            plan_by_design[design.name],
            {"designs": 0, "assertions": 0, "vectorized_s": 0.0},
        )
        bucket["designs"] += 1
        bucket["assertions"] += len(texts)
        bucket["vectorized_s"] += elapsed
    for bucket in per_plan.values():
        bucket["vectorized_s"] = round(bucket["vectorized_s"], 3)
        bucket["assertions_per_s"] = round(
            bucket["assertions"] / bucket["vectorized_s"], 1
        ) if bucket["vectorized_s"] else float("inf")

    # The former fallback set (wide buses, memories, wide intermediates) now
    # lowers through limb columns; time it as its own subset so a regression
    # back to scalar fallback shows up as a ratio collapse, not just a census
    # delta.
    full_corpus = corpus if not _SMOKE else get_corpus("assertionbench")
    fallback_jobs = [
        (design, _assertions(design, _PER_DESIGN))
        for design in (full_corpus.design(name) for name in _FORMER_FALLBACK_SET)
    ]
    fb_compiled, fb_compiled_s, _ = _sweep(fallback_jobs, COMPILED)
    fb_vectorized, fb_vectorized_s, _ = _sweep(fallback_jobs, VECTORIZED)
    for (design, _), base_batch, fast_batch in zip(fallback_jobs, fb_compiled, fb_vectorized):
        assert [r.status for r in base_batch] == [r.status for r in fast_batch], design.name
    fallback_set_speedup = (
        fb_compiled_s / fb_vectorized_s if fb_vectorized_s else float("inf")
    )

    speedup = compiled_s / vectorized_s if vectorized_s else float("inf")
    warm_speedup = vectorized_s / warm_s if warm_s else float("inf")
    report: Dict = {
        "benchmark": "fpv_kernel",
        "corpus": _CORPUS,
        "designs": len(jobs),
        "assertions": total,
        "workers": 1,
        "smoke": _SMOKE,
        "compiled_s": round(compiled_s, 3),
        "vectorized_s": round(vectorized_s, 3),
        "speedup": round(speedup, 2),
        "vectorized_warm_s": round(warm_s, 3),
        "warm_reachability_speedup": round(warm_speedup, 2),
        "reachability_cache": cache.stats(),
        "lowering": {
            "census_designs": len(census_designs),
            "plans": {plan: plan_counts[plan] for plan in sorted(plan_counts)},
            "fallback_designs": plan_counts.get(PLAN_FALLBACK, 0),
            "reason_histogram": reason_histogram,
            "per_plan": {plan: per_plan[plan] for plan in sorted(per_plan)},
        },
        "fallback_set": {
            "designs": list(_FORMER_FALLBACK_SET),
            "compiled_s": round(fb_compiled_s, 3),
            "vectorized_s": round(fb_vectorized_s, 3),
            "speedup": round(fallback_set_speedup, 2),
        },
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    plan_line = ", ".join(f"{count} {plan}" for plan, count in sorted(plan_counts.items()))
    print(
        f"\nfpv kernel speedup: {speedup:.2f}x "
        f"({compiled_s:.2f}s compiled → {vectorized_s:.2f}s vectorized, "
        f"{len(jobs)} designs × {_PER_DESIGN} assertions, 1 worker); "
        f"warm reachability rerun {warm_speedup:.2f}x; "
        f"lowering census: {plan_line}; "
        f"former-fallback set {fallback_set_speedup:.2f}x"
    )

    assert plan_counts.get(PLAN_FALLBACK, 0) == 0, reason_histogram
    assert speedup >= _MIN_SPEEDUP, (
        f"expected ≥{_MIN_SPEEDUP}x speedup, measured {speedup:.2f}x "
        f"(compiled {compiled_s:.2f}s, vectorized {vectorized_s:.2f}s)"
    )
    assert fallback_set_speedup >= _MIN_FALLBACK_SET_SPEEDUP, (
        f"expected ≥{_MIN_FALLBACK_SET_SPEEDUP}x on the former fallback set, "
        f"measured {fallback_set_speedup:.2f}x"
    )
