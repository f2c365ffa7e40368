"""Parallel evaluation scheduler: the third layer of the verification backend.

The :class:`VerificationService` is the single entry point through which the
evaluation pipeline, the experiment suite, and the benchmark harness
discharge generated assertions:

1. queued assertions are grouped by design,
2. each design's batch is checked with one call to
   :meth:`~repro.fpv.engine.FormalEngine.check_batch` (one shared state-space
   sweep / one shared trace set per design),
3. design-level batches are dispatched across a ``ProcessPoolExecutor`` when
   more than one worker is configured, with deterministic result ordering,
4. a verdict cache keyed by (design name, normalised assertion text) fronts
   design-level batches; mutant families
   (:meth:`~VerificationService.check_families`) skip it, since the mutation
   log is the durable record of every mutant verdict.

With workers configured, a batch whose worker raises or dies is re-run
in-process once; a crashed worker breaks the whole pool, so the pool is
dropped and every batch it still held is re-run too.  A batch that fails
in-process as well gets one ``error`` verdict per assertion, naming the
failure (see :func:`is_batch_failure`).  Those verdicts are not cached, and
the run store does not commit a cell or mutant sweep that holds one, so a
resume verifies it again.  Without workers a failing batch raises, as any
in-process call does.

The cache is process-safe by construction: worker processes never see it —
lookups happen before dispatch and verdicts are stored after collection, all
in the parent process, under a lock so concurrent submitting threads cannot
corrupt the accounting.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..fpv.engine import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    reachability_key,
)
from ..fpv.transition import ReachabilityResult
from ..hdl.design import Design
from ..fpv.result import ProofResult, ProofStatus
from ..sva.model import Assertion

if TYPE_CHECKING:
    # Imported where the pool is made: it loads ``multiprocessing``, which a
    # one-worker verb never needs.
    from concurrent.futures import ProcessPoolExecutor

AssertionLike = Union[str, Assertion]
#: One unit of schedulable work: a design plus the assertions queued for it.
VerificationJob = Tuple[Design, Sequence[AssertionLike]]
#: One family unit: the golden design, its mutants (anything exposing
#: ``.design``, e.g. :class:`repro.mutate.operators.Mutant`), and the
#: assertions to score every mutant against.
FamilyJob = Tuple[Design, Sequence, Sequence[AssertionLike]]

_WORKERS_ENV_VAR = "REPRO_FPV_WORKERS"


def default_workers() -> int:
    """Worker count from ``REPRO_FPV_WORKERS`` (default 1 = in-process)."""
    try:
        return max(1, int(os.environ.get(_WORKERS_ENV_VAR, "1")))
    except ValueError:
        return 1


@dataclass
class SchedulerConfig:
    """Knobs of the verification scheduler."""

    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Number of worker processes; 1 runs everything in-process.
    workers: int = field(default_factory=default_workers)


class VerdictCache:
    """Cache of FPV verdicts keyed by (design name, assertion text).

    Thread-safe: lookups, stores, and the hit/miss accounting are guarded by
    one lock.  A lookup that misses counts as a miss immediately (whether or
    not a verdict is later stored), so ``hits + misses`` equals the number of
    ``get`` calls.
    """

    def __init__(self):
        self._verdicts: Dict[tuple, ProofResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(design_name: str, text: str) -> tuple:
        return (design_name, " ".join(text.split()))

    def get(self, design_name: str, text: str) -> Optional[ProofResult]:
        with self._lock:
            result = self._lookup(self._key(design_name, text))
            if result is not None:
                self.hits += 1
            else:
                self.misses += 1
        return result

    def _lookup(self, key: tuple) -> Optional[ProofResult]:
        """The verdict stored under ``key``; the caller holds the lock."""
        return self._verdicts.get(key)

    def put(self, design_name: str, text: str, result: ProofResult) -> None:
        with self._lock:
            self._verdicts[self._key(design_name, text)] = result

    def put_many(self, items: Sequence[Tuple[str, str, ProofResult]]) -> None:
        """Store a batch of verdicts under one lock acquisition.

        Persistent subclasses override this to amortise their write+flush
        over the whole batch — the streaming runtime commits one design's
        verdicts at a time, and a flush per verdict is measurable against
        the per-cell budget.
        """
        with self._lock:
            for design_name, text, result in items:
                self._verdicts[self._key(design_name, text)] = result

    def stats(self) -> Dict[str, int]:
        """Snapshot of the cache accounting."""
        with self._lock:
            return {
                "entries": len(self._verdicts),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._verdicts)


# -- worker-side entry point ---------------------------------------------------

def _design_key(design: Design) -> str:
    """Identify a design by name *and* source content hash.

    Keying on the name alone would hand back verdicts (or worker-side
    engines) from a different design that happens to share it; the hash is
    the same :attr:`~repro.hdl.design.Design.fingerprint` the reachability
    and mutation records are keyed by.
    """
    return f"{design.name}:{design.fingerprint}"


#: Engines are cached per worker process so repeated batches against the same
#: design reuse its reachability set and fallback traces.
_WORKER_ENGINES: Dict[tuple, FormalEngine] = {}
_WORKER_ENGINE_LIMIT = 64


def _engine_for(design: Design, config: EngineConfig) -> FormalEngine:
    key = (_design_key(design), dataclasses.astuple(config))
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        if len(_WORKER_ENGINES) >= _WORKER_ENGINE_LIMIT:
            _WORKER_ENGINES.clear()
        engine = FormalEngine(design, config)
        _WORKER_ENGINES[key] = engine
    return engine


def _check_design_batch(
    design: Design,
    assertions: Sequence[AssertionLike],
    config: EngineConfig,
    reachability: Optional[ReachabilityResult] = None,
) -> Tuple[List[ProofResult], Optional[ReachabilityResult], Dict[str, int], Optional[Dict[str, str]]]:
    """Check one design-level batch (runs in a worker process or inline).

    ``reachability`` warm-starts the engine from a cached reachable-state
    set; the second return slot carries back a freshly computed one (None
    when it was preloaded or never needed), so the parent process can
    persist it regardless of which worker explored the design.  The fourth
    slot reports which vector lowering the design got (None on scalar
    backends), so the parent can aggregate per-plan and fallback stats.
    """
    engine = _engine_for(design, config)
    if reachability is not None:
        engine.preload_reachability(reachability)
    before = engine.step_cache_stats()
    results = engine.check_batch(assertions)
    after = engine.step_cache_stats()
    step_stats = {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
    }
    snapshot = None if reachability is not None else engine.reachability_snapshot()
    return results, snapshot, step_stats, engine.lowering_info()


def _check_family_job(
    golden: Design,
    mutant_designs: Sequence[Design],
    assertions: Sequence[AssertionLike],
    config: EngineConfig,
    preloads: Dict,
) -> Tuple[List[List[ProofResult]], Dict, Dict[str, int]]:
    """Check one whole mutant family (runs in a worker process or inline).

    ``preloads`` seeds a worker-local reachability cache with the parent's
    cached sets (golden and mutants alike); every set the family sweep
    computes fresh rides back in the second slot so the parent can persist
    it.  The third slot carries the family sweep's counters.
    """
    from ..fpv.incremental import FamilyStats, check_family

    cache = ReachabilityCache()
    for key, result in preloads.items():
        cache.put(key, result)
    stats = FamilyStats()
    verdicts = check_family(
        golden,
        mutant_designs,
        assertions,
        config,
        cache,
        stats=stats,
    )
    fresh = {
        key: result
        for key, result in cache.entries().items()
        if key not in preloads
    }
    return verdicts, fresh, stats.as_dict()


# -- the service ----------------------------------------------------------------


class VerificationService:
    """Schedule assertion batches over designs, workers, and the cache."""

    def __init__(
        self,
        config: Optional[SchedulerConfig] = None,
        cache: Optional[VerdictCache] = None,
        reachability_cache: Optional[ReachabilityCache] = None,
    ):
        self._config = config or SchedulerConfig()
        # `cache or ...` would drop a supplied-but-empty cache: VerdictCache
        # defines __len__, so a fresh (persistent) cache is falsy.
        self._cache = cache if cache is not None else VerdictCache()
        #: Reachable-state sets keyed by design fingerprint + engine caps.
        #: Lives in the parent process: preloads ride along with dispatched
        #: batches, freshly computed sets ride back with the results, so the
        #: cache warms up regardless of worker count.
        self._reachability_cache = (
            reachability_cache if reachability_cache is not None else ReachabilityCache()
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Aggregated counters from family-batched mutation dispatch and the
        #: scalar successor-row memos; guarded by one lock — streaming campaigns
        #: dispatch from several verifier threads concurrently.
        self._stats_lock = threading.Lock()
        self._family_stats: Dict[str, int] = {}
        self._step_stats: Dict[str, int] = {}
        #: Per-design vector-lowering outcomes, keyed by design name:
        #: {"plan": ..., "reason": ...} as reported by the engine's planner.
        self._lowering_stats: Dict[str, Dict[str, str]] = {}

    @property
    def config(self) -> SchedulerConfig:
        return self._config

    @property
    def cache(self) -> VerdictCache:
        return self._cache

    @property
    def reachability_cache(self) -> ReachabilityCache:
        return self._reachability_cache

    def use_reachability_cache(self, cache: ReachabilityCache) -> None:
        """Swap in a (typically persistent) reachability cache.

        Safe at any point: the cache only affects where reachable-state sets
        are remembered, never verdicts.  The campaign runtime calls this so
        a caller-supplied service still persists reachability into the run
        store.
        """
        self._reachability_cache = cache

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.effective_workers())
            return self._pool

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool; the next dispatch starts a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_batches(self, fn: Callable, calls: List[tuple]) -> List[object]:
        """Run ``fn(*args)`` for every args tuple; outcomes in call order.

        Without workers the calls run in-process and an exception propagates.
        With workers they go to the pool; a call whose worker raised or died
        is re-run in-process once, and if that raises too the exception is
        the call's outcome.
        """
        if self.effective_workers() <= 1:
            return [fn(*args) for args in calls]
        from concurrent.futures.process import BrokenProcessPool

        pool = self._get_pool()
        try:
            futures: List = [pool.submit(fn, *args) for args in calls]
        except RuntimeError:
            # Broken, or shut down by another thread that found it broken.
            self._drop_pool(pool)
            futures = [None] * len(calls)
        outcomes: List[object] = []
        for args, future in zip(calls, futures):
            if future is not None:
                try:
                    outcomes.append(future.result())
                    continue
                except BrokenProcessPool:
                    self._drop_pool(pool)
                except Exception:
                    pass
            try:
                outcomes.append(fn(*args))
            except Exception as error:
                outcomes.append(error)
        return outcomes

    # -- public API ----------------------------------------------------------------

    def check(self, design: Design, assertion: AssertionLike) -> ProofResult:
        """Check a single assertion against one design (cache-fronted)."""
        return self.check_design(design, [assertion])[0]

    def check_design(
        self, design: Design, assertions: Sequence[AssertionLike]
    ) -> List[ProofResult]:
        """Check one design's batch; results are in input order."""
        return self.check_many([(design, assertions)])[0]

    def check_many(self, jobs: Sequence[VerificationJob]) -> List[List[ProofResult]]:
        """Check many design-level batches, fanning out across workers.

        Returns one verdict list per job, aligned with the input: result
        ordering is deterministic regardless of worker count or completion
        order.  Cached verdicts are reused; each distinct (design, normalised
        text) pair is proved at most once, even when repeated within a batch.
        """
        jobs = [(design, list(assertions)) for design, assertions in jobs]

        # Resolve from the cache and collect the per-design misses.  Designs
        # are grouped by name + source fingerprint so two different designs
        # sharing a name never land in one batch.  The slot table maps every
        # (job, position) to the key that will eventually hold its verdict.
        pending: Dict[str, Dict[tuple, ProofResult]] = {}
        misses: Dict[str, Tuple[Design, List[AssertionLike], List[tuple]]] = {}
        slots: List[List[tuple]] = []
        design_keys: List[str] = []
        for design, assertions in jobs:
            design_key = _design_key(design)
            design_keys.append(design_key)
            job_slots: List[tuple] = []
            design_pending = pending.setdefault(design_key, {})
            for assertion in assertions:
                key = VerdictCache._key(design_key, _assertion_text(assertion))
                job_slots.append(key)
                if key in design_pending:
                    continue
                cached = self._cache.get(*key)
                if cached is not None:
                    design_pending[key] = cached
                    continue
                design_pending[key] = None  # type: ignore[assignment]
                design_jobs = misses.setdefault(design_key, (design, [], []))
                design_jobs[1].append(assertion)
                design_jobs[2].append(key)
            slots.append(job_slots)

        self._dispatch(list(misses.values()), pending)

        return [
            [pending[design_key][key] for key in job_slots]
            for design_key, job_slots in zip(design_keys, slots)
        ]

    def check_families(self, jobs: Sequence[FamilyJob]) -> List[List[List[ProofResult]]]:
        """Check mutant families, one family per worker task.

        Returns, per job, one verdict list per mutant aligned with the job's
        assertion order.  Every mutant is verified: mutant verdicts bypass
        the verdict cache, since the mutation log is their one durable
        record and a rerun replays it before any cell reaches this service.
        Reachability sets — the golden design's and every mutant's — ride
        the same parent-process cache as design-level dispatch.
        """
        engine_config = self._config.engine
        workers = self.effective_workers()
        #: (job index, golden, shard mutant designs, texts, preloads)
        shards: List[Tuple[int, Design, List[Design], List[str], Dict]] = []
        for job_index, (golden, mutants, assertions) in enumerate(jobs):
            designs = [mutant.design for mutant in mutants]
            texts = [_assertion_text(assertion) for assertion in assertions]
            preloads: Dict = {}
            for design in [golden] + designs:
                key = reachability_key(design, engine_config)
                hit = self._reachability_cache.get(key)
                if hit is not None:
                    preloads[key] = hit
            # A family is the semantic unit, but not the scheduling unit:
            # the mutation campaign hands over one family at a time, so a
            # single job is sliced along its mutant axis to keep every
            # worker busy.  Each member's verdicts depend on that member
            # alone, so slicing never changes a result.
            count = max(1, min(len(designs), workers // len(jobs)))
            if count > 1:
                # Pay the golden BFS once in the parent instead of once per
                # shard; every shard then preloads the same set.
                key = reachability_key(golden, engine_config)
                if key not in preloads:
                    engine = FormalEngine(golden, engine_config, self._reachability_cache)
                    explored = engine.explore_reachability()
                    if explored is not None:
                        preloads[key] = explored
            size = max(1, -(-len(designs) // count))
            for start in range(0, len(designs), size):
                shards.append(
                    (job_index, golden, designs[start : start + size], texts, preloads)
                )

        outcomes = self._run_batches(
            _check_family_job,
            [
                (golden, designs, texts, engine_config, preloads)
                for _, golden, designs, texts, preloads in shards
            ],
        )
        results: List[List[List[ProofResult]]] = [[] for _ in jobs]
        for (job_index, _, designs, texts, _), outcome in zip(shards, outcomes):
            if isinstance(outcome, Exception):
                results[job_index].extend(
                    [_failed_batch_result(design, text, outcome) for text in texts]
                    for design in designs
                )
                continue
            verdicts, fresh, family_stats = outcome
            for key, result in fresh.items():
                self._reachability_cache.put(key, result)
            self._merge_family_stats(family_stats)
            results[job_index].extend(verdicts)
        return results

    def _merge_family_stats(self, family_stats: Dict[str, int]) -> None:
        with self._stats_lock:
            for key, value in family_stats.items():
                self._family_stats[key] = self._family_stats.get(key, 0) + value

    def family_stats(self) -> Dict[str, int]:
        """Aggregated family-sweep counters across every dispatched family."""
        with self._stats_lock:
            return dict(self._family_stats)

    def _merge_step_stats(self, step_stats: Dict[str, int]) -> None:
        with self._stats_lock:
            for key, value in step_stats.items():
                self._step_stats[key] = self._step_stats.get(key, 0) + value

    def step_cache_stats(self) -> Dict[str, int]:
        """Scalar step-cache hits/misses aggregated across dispatched batches.

        Counts the memoised successor rows of
        :meth:`~repro.fpv.transition.TransitionSystem.successors` (one row
        per state, covering the scalar sweeps and tiny-frontier BFS slices):
        rows served from the memo and rows computed, regardless of which
        worker process ran the batch.
        """
        with self._stats_lock:
            return dict(self._step_stats)

    def _merge_lowering_info(self, info: Optional[Dict[str, str]]) -> None:
        if not info:
            return
        design = info.get("design", "")
        with self._stats_lock:
            self._lowering_stats[design] = {
                "plan": info.get("plan", ""),
                "reason": info.get("reason", ""),
            }

    def lowering_stats(self) -> Dict[str, object]:
        """Aggregated vector-lowering plan census across dispatched designs.

        Reports how many designs landed on each lowering plan, how many fell
        all the way back to the scalar path, and the per-design fallback
        reasons — the observability face of the per-design planner in
        :func:`repro.sim.vector.plan_model`.
        """
        with self._stats_lock:
            per_design = {name: dict(info) for name, info in self._lowering_stats.items()}
        plans: Dict[str, int] = {}
        fallback_reasons: Dict[str, str] = {}
        for name, info in sorted(per_design.items()):
            plan = info.get("plan", "")
            plans[plan] = plans.get(plan, 0) + 1
            if plan == "fallback":
                fallback_reasons[name] = info.get("reason", "")
        return {
            "plans": plans,
            "fallback_designs": plans.get("fallback", 0),
            "fallback_reasons": fallback_reasons,
        }

    def run_stats(self) -> Dict[str, Dict[str, int]]:
        """Everything observable about this service's caches, in one place."""
        return {
            "verdict_cache": self._cache.stats(),
            "reachability_cache": self._reachability_cache.stats(),
            "step_cache": self.step_cache_stats(),
            "family": self.family_stats(),
            "lowering": self.lowering_stats(),
        }

    # -- dispatch -------------------------------------------------------------------

    def effective_workers(self) -> int:
        """Configured workers clamped to the core count.

        More workers than cores just adds fork/pickle overhead; clamping lets
        a 4-worker config degrade gracefully on small machines.  Streaming
        callers size their verifier stage to this number.
        """
        return min(self._config.workers, os.cpu_count() or 1)

    def _dispatch(
        self,
        batches: List[Tuple[Design, List[AssertionLike], List[tuple]]],
        pending: Dict[str, Dict[tuple, ProofResult]],
    ) -> None:
        if not batches:
            return
        engine_config = self._config.engine
        reach_keys = [
            reachability_key(design, engine_config) for design, _, _ in batches
        ]
        preloads = [self._reachability_cache.get(key) for key in reach_keys]
        # Single-batch calls still go to the pool when workers are configured:
        # the streaming runtime submits one design per call from several
        # threads, and running those inline would serialise them on the GIL.
        outcomes = self._run_batches(
            _check_design_batch,
            [
                (design, assertions, engine_config, preload)
                for (design, assertions, _), preload in zip(batches, preloads)
            ],
        )
        stored: List[Tuple[str, str, ProofResult]] = []
        for (design, assertions, keys), reach_key, preload, outcome in zip(
            batches, reach_keys, preloads, outcomes
        ):
            design_pending = pending[_design_key(design)]
            if isinstance(outcome, Exception):
                for key, assertion in zip(keys, assertions):
                    design_pending[key] = _failed_batch_result(design, assertion, outcome)
                continue
            results, snapshot, step_stats, lowering = outcome
            self._merge_step_stats(step_stats)
            self._merge_lowering_info(lowering)
            if snapshot is not None and preload is None:
                self._reachability_cache.put(reach_key, snapshot)
            for key, result in zip(keys, results):
                design_pending[key] = result
                stored.append((key[0], key[1], result))
        if stored:
            self._cache.put_many(stored)


#: ``ProofResult.engine`` of the verdicts a failed batch leaves behind.
BATCH_FAILURE_ENGINE = "scheduler"


def is_batch_failure(result: ProofResult) -> bool:
    """Whether ``result`` stands in for a batch that failed, not a proof.

    Such a verdict says nothing about the assertion: durable logs must not
    commit it, so a resume verifies the assertion again.
    """
    return result.engine == BATCH_FAILURE_ENGINE


def _failed_batch_result(
    design: Design, assertion: AssertionLike, error: Exception
) -> ProofResult:
    """The ``error`` verdict of an assertion whose batch failed in-process."""
    return ProofResult(
        status=ProofStatus.ERROR,
        assertion=assertion if isinstance(assertion, Assertion) else None,
        design_name=design.name,
        reason=f"verification batch failed: {type(error).__name__}: {error}",
        engine=BATCH_FAILURE_ENGINE,
    )


def _assertion_text(assertion: AssertionLike) -> str:
    if isinstance(assertion, Assertion):
        return assertion.to_sva(include_assert=False)
    return assertion
