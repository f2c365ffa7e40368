"""Formal property verification engine.

This is the reproduction's stand-in for Cadence JasperGold (Figure 4, step 4
of the paper): given a design and an assertion it returns one of the four
verdicts of Figure 2 — proven, vacuous, counterexample, or error.

Two proof strategies are used:

* **Exhaustive explicit-state checking** — when the design's free-input space
  is enumerable and the reachable state set fits within the configured caps,
  the engine enumerates every reachable state and every input path of the
  assertion's temporal depth.  The verdict is then *complete*: PROVEN means
  the assertion holds on all reachable behaviour, VACUOUS means its
  antecedent can never match, CEX comes with a concrete witness path.
* **Simulation falsification** — for designs beyond those caps the engine
  runs long constrained-random simulations and checks the assertion on the
  traces.  A violation still yields a genuine CEX; the absence of violations
  yields a *bounded* PROVEN/VACUOUS verdict (``ProofResult.complete`` False),
  mirroring how bounded proofs are reported by commercial tools.

The engine is *batched*: :meth:`FormalEngine.check_batch` is the core
primitive.  It sweeps the reachable state × input space **once** per design
and advances every pending assertion's antecedent/consequent obligations
together: each visited state's successor row
(:meth:`~repro.fpv.transition.TransitionSystem.successors`, every input
valuation's settled environment and next state) is computed once and shared
across the whole batch.  Per-assertion evaluation budgets and verdict
semantics are identical to checking each assertion alone; :meth:`check` and
:meth:`check_all` are thin wrappers over a batch of one / the full batch.

With the ``vectorized`` backend the sweep is *array-oriented*: the design is
lowered to the NumPy kernel of :mod:`repro.sim.vector`, the whole reachable
state × input grid is advanced in a handful of ``step_packed`` calls, and
every assertion proposition becomes a boolean truth matrix.  One runner
decides every obligation on that table: a forward array pass over the truth
matrices (:func:`_deep_plan`) yields the exact budget charge, the triggered
flag and the refuting pairs, which decide every obligation that cannot be
refuted and every refutable depth-0 one; only deep obligations that refute
run the scalar sweep's path search, on table lookups.  Budgets, verdicts,
and counterexample trigger cycles are identical to the scalar backends,
which remain the reference oracles (any design or term the lowering rejects
transparently falls back to the scalar sweep).

Reachability results can be shared across engines and processes through a
:class:`ReachabilityCache` keyed by design fingerprint + engine caps — warm
campaign reruns then skip the BFS entirely (see
:meth:`repro.core.store.RunStore.reachability_cache`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..hdl.design import Design
from ..hdl.errors import HdlError
from ..sim.compile import VECTORIZED, default_backend, make_evaluator
from ..sim.eval import EvalError
from ..sim.simulator import Simulator
from ..sim.stimulus import RandomStimulus, ResetSequenceStimulus
from ..sva.checker import bind
from ..sva.errors import SvaError
from ..sva.model import Assertion, SequenceTerm
from ..sva.parser import parse_assertion
from .result import Counterexample, ProofResult, ProofStatus, error_result
from .trace_check import TraceChecker
from .transition import ReachabilityResult, State, TransitionSystem, enumerate_reachable

if TYPE_CHECKING:
    import numpy as np


@dataclass
class EngineConfig:
    """Resource limits and fallback parameters for the FPV engine."""

    max_states: int = 8192
    max_transitions: int = 400_000
    max_input_bits: int = 12
    #: Designs with more state bits than this go straight to simulation
    #: falsification (explicit-state reachability would not terminate within
    #: the caps anyway, so the attempt is not worth its cost).
    max_state_bits: int = 16
    max_path_evaluations: int = 400_000
    fallback_cycles: int = 1500
    fallback_seeds: int = 3
    reset_cycles: int = 2
    #: Evaluation backend: "vectorized", "compiled", "interpreted", or None
    #: for the process-wide default (see
    #: :func:`repro.sim.compile.default_backend`).
    backend: Optional[str] = None


def fallback_stimuli(config: EngineConfig) -> List[ResetSequenceStimulus]:
    """The falsification stimuli an engine simulates for one design.

    The single source of truth for the recipe: the family verifier batches
    these exact stimuli through the family kernel and preloads the traces,
    so any change here automatically changes both paths together.
    """
    return [
        ResetSequenceStimulus(
            RandomStimulus(seed=seed), reset_cycles=config.reset_cycles
        )
        for seed in range(config.fallback_seeds)
    ]


#: Cache key for one design's reachability: source fingerprint plus every
#: engine cap that shapes the exploration.  The evaluation backend is
#: deliberately excluded — all backends produce identical reachable sets, so
#: a warm cache serves every backend.
ReachabilityKey = Tuple[str, int, int, int]


def reachability_key(design: Design, config: EngineConfig) -> ReachabilityKey:
    return (
        design.fingerprint,
        config.max_states,
        config.max_transitions,
        config.max_input_bits,
    )


class ReachabilityCache:
    """Thread-safe in-memory cache of per-design reachability results."""

    def __init__(self):
        self._results: Dict[ReachabilityKey, ReachabilityResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: ReachabilityKey) -> Optional[ReachabilityResult]:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self.hits += 1
            else:
                self.misses += 1
        return result

    def put(self, key: ReachabilityKey, result: ReachabilityResult) -> None:
        with self._lock:
            self._results[key] = result

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._results), "hits": self.hits, "misses": self.misses}

    def entries(self) -> Dict[ReachabilityKey, ReachabilityResult]:
        """Snapshot of every cached result (worker round-trip support)."""
        with self._lock:
            return dict(self._results)

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)


class _Pending:
    """A consequent failure observed on the current path, awaiting completion.

    The failure only becomes a counterexample if the remaining antecedent
    terms can still match on some continuation of the path (otherwise the
    evaluation attempt never triggers and the failure is moot).  ``path``
    holds the scalar sweep's environments, or the table search's
    (state index, input index) pairs, whose environments are only
    materialised if the failure survives as a counterexample.
    """

    __slots__ = ("term", "path", "completed")

    def __init__(self, term: str, path: list):
        self.term = term
        self.path = path
        self.completed = False


class _Obligation:
    """Per-assertion state carried through one batched exhaustive sweep.

    The antecedent/consequent/disable propositions are pre-lowered to truth
    kernels at batch start, so the sweep's inner loop is free of evaluator
    dispatch: ``antecedent[offset]`` is a tuple of callables, ``consequent``
    pairs each callable with the term's source text for CEX reporting.  The
    raw expression trees are kept alongside for the vectorized sweep, which
    lowers them to truth *matrices* instead.
    """

    #: Slots fixed by the assertion, shared by every :meth:`restart`.
    _DERIVED = (
        "index",
        "assertion",
        "antecedent",
        "consequent",
        "disable",
        "antecedent_exprs",
        "consequent_exprs",
        "disable_expr",
        "depth",
    )
    __slots__ = _DERIVED + (
        "budget_used",
        "budget_exhausted",
        "triggered",
        "decided",
        "witness",
        "error",
    )

    def __init__(self, index: int, assertion: Assertion, term_fn):
        self.index = index
        self.assertion = assertion
        self.antecedent_exprs = {
            offset: tuple(term.expr for term in terms)
            for offset, terms in _terms_by_offset(assertion.antecedent).items()
        }
        self.consequent_exprs = {
            offset: tuple((term.expr, str(term.expr)) for term in terms)
            for offset, terms in _terms_by_offset(
                assertion.consequent_terms_absolute()
            ).items()
        }
        self.disable_expr = assertion.disable_iff
        self.antecedent = {
            offset: tuple(term_fn(expr) for expr in exprs)
            for offset, exprs in self.antecedent_exprs.items()
        }
        self.consequent = {
            offset: tuple((term_fn(expr), text) for expr, text in pairs)
            for offset, pairs in self.consequent_exprs.items()
        }
        self.disable = (
            term_fn(assertion.disable_iff) if assertion.disable_iff is not None else None
        )
        self.depth = assertion.temporal_depth
        self._reset()

    def _reset(self) -> None:
        """Clear the per-run state: budget, verdict, witness."""
        self.budget_used = 0
        self.budget_exhausted = False
        self.triggered = False
        self.decided = False
        self.witness: Optional[Tuple[List[Dict[str, int]], str]] = None
        self.error: Optional[str] = None

    def restart(self) -> "_Obligation":
        """A fresh obligation for the same assertion.

        Shares every assertion-derived field (term expressions, lowered
        kernels, depth) and starts the per-run state afresh, so a family
        member's table run skips re-deriving what depends on the assertion
        alone.
        """
        clone = _Obligation.__new__(_Obligation)
        for name in self._DERIVED:
            setattr(clone, name, getattr(self, name))
        clone._reset()
        return clone

    def term_exprs(self):
        """Every proposition the sweep must evaluate for this obligation."""
        for exprs in self.antecedent_exprs.values():
            yield from exprs
        for pairs in self.consequent_exprs.values():
            for expr, _ in pairs:
                yield expr
        if self.disable_expr is not None:
            yield self.disable_expr

    def fail(self, message: str) -> None:
        self.error = message
        self.decided = True

    def refute(self, witness: Tuple[List[Dict[str, int]], str]) -> None:
        self.witness = witness
        self.decided = True


class FormalEngine:
    """Check batches of assertions against one design."""

    def __init__(
        self,
        design: Design,
        config: Optional[EngineConfig] = None,
        reachability_cache: Optional[ReachabilityCache] = None,
    ):
        self._design = design
        self._config = config or EngineConfig()
        self._backend = self._config.backend or default_backend()
        self._system = TransitionSystem(
            design,
            max_input_bits=self._config.max_input_bits,
            backend=self._backend,
        )
        self._evaluator = make_evaluator(design.model, self._backend)
        self._checker = TraceChecker(design.model, backend=self._backend)
        self._reachability: Optional[ReachabilityResult] = None
        #: The error a failed reachability walk raised; re-raised instead of
        #: walking again for every assertion of the batch.
        self._reachability_error: Optional[HdlError] = None
        self._reachability_cache = reachability_cache
        self._fallback_traces: Optional[List] = None
        self._table = None
        self._table_built = False

    @property
    def design(self) -> Design:
        return self._design

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def backend(self) -> str:
        return self._backend

    def lowering_info(self) -> Optional[Dict[str, str]]:
        """Which vector lowering this design got, and why fallbacks happened.

        ``None`` on scalar backends.  On the vectorized backend returns
        ``{"design", "plan", "reason"}`` where ``plan`` is the representation
        the planner picked (``soa``/``multilimb``) or ``fallback`` when both
        lowerings refused, with ``reason`` carrying the per-strategy refusal
        messages.
        """
        plan = self._system.lowering_plan()
        if plan is None:
            return None
        return {
            "design": self._design.name,
            "plan": plan.plan,
            "reason": plan.reason,
        }

    # -- public API ----------------------------------------------------------------

    def check(self, assertion_or_text: Union[str, Assertion]) -> ProofResult:
        """Check one assertion (text or parsed) and return its verdict."""
        return self.check_batch([assertion_or_text])[0]

    def check_all(
        self, assertions: Iterable[Union[str, Assertion]]
    ) -> List[ProofResult]:
        """Check a batch of assertions (alias of :meth:`check_batch`)."""
        return self.check_batch(assertions)

    def check_batch(
        self, assertions: Iterable[Union[str, Assertion]]
    ) -> List[ProofResult]:
        """Check a batch of assertions with one shared state-space sweep.

        Returns one :class:`ProofResult` per input, in input order.  Verdicts
        (status, completeness, counterexample trigger cycle) are identical to
        checking each assertion on its own.
        """
        items = list(assertions)
        results: List[Optional[ProofResult]] = [None] * len(items)
        exhaustive: List[_Obligation] = []
        by_simulation: List[Tuple[int, Assertion]] = []

        bound, failures = self.parse_and_bind(items)
        for index, assertion, message in failures:
            results[index] = error_result(message, self._design.name, assertion)

        for index, assertion in bound:
            try:
                if self._can_check_exhaustively(assertion):
                    exhaustive.append(_Obligation(index, assertion, self._term_fn))
                else:
                    by_simulation.append((index, assertion))
            except EvalError as exc:
                results[index] = error_result(
                    f"evaluation error: {exc}", self._design.name, assertion
                )
            except HdlError as exc:
                results[index] = error_result(
                    f"elaboration error: {exc}", self._design.name, assertion
                )

        if exhaustive:
            by_simulation.extend(self._run_exhaustive_batch(exhaustive, results))

        for index, assertion in by_simulation:
            try:
                results[index] = self._check_by_simulation(assertion)
            except EvalError as exc:
                results[index] = error_result(
                    f"evaluation error: {exc}", self._design.name, assertion
                )
            except HdlError as exc:
                results[index] = error_result(
                    f"elaboration error: {exc}", self._design.name, assertion
                )

        return results  # type: ignore[return-value]

    # -- parsing --------------------------------------------------------------------

    def parse_and_bind(
        self, items: Sequence[Union[str, Assertion]]
    ) -> Tuple[List[Tuple[int, Assertion]], List[Tuple[int, Optional[Assertion], str]]]:
        """Parse and bind a batch against this design.

        Returns ``(bound, failures)``: the ``(index, assertion)`` pairs ready
        to check, and ``(index, assertion or None, message)`` for every item
        that failed to parse or bind.  The transition system's observation
        set is narrowed to the bound assertions' signals *before* the first
        reachability walk, so BFS and the scalar sweep memoise a handful of
        values per transition instead of a full environment copy.
        """
        bound: List[Tuple[int, Assertion]] = []
        failures: List[Tuple[int, Optional[Assertion], str]] = []
        observed: set = set()
        for index, item in enumerate(items):
            if isinstance(item, Assertion):
                assertion = item
            else:
                try:
                    assertion = parse_assertion(item)
                except SvaError as exc:
                    failures.append((index, None, f"syntax error: {exc}"))
                    continue
            report = bind(assertion, self._design)
            if not report.ok:
                failures.append((index, assertion, "; ".join(report.messages)))
                continue
            observed |= assertion.signals()
            bound.append((index, assertion))
        if bound:
            self._system.observe(observed)
        return bound, failures

    # -- strategy selection ------------------------------------------------------------

    def _enumerable(self) -> bool:
        """Whether explicit-state search is ever attempted on this design."""
        return (
            self._system.can_enumerate_inputs
            and self._system.state_bits <= self._config.max_state_bits
        )

    def _can_check_exhaustively(
        self,
        assertion: Assertion,
        reachability: Optional[ReachabilityResult] = None,
    ) -> bool:
        """The exhaustive-budget gate.

        ``reachability`` defaults to this design's own reachable set; the
        family verifier passes a mutant's delta-walk result instead (a
        mutant shares the golden design's input space and state layout).
        """
        if not self._enumerable():
            return False
        if reachability is None:
            reachability = self._reachable()
        if not reachability.complete:
            return False
        # Rough cost estimate: every reachable state starts one evaluation
        # attempt that fans out over the input space for each cycle of depth.
        depth = assertion.temporal_depth + 1
        cost = reachability.count * (self._system.input_space_size ** min(depth, 2))
        return cost <= self._config.max_path_evaluations * 4

    # -- reachability ---------------------------------------------------------------

    def preload_reachability(self, result: ReachabilityResult) -> None:
        """Adopt a previously-computed reachability result (cache warm-up)."""
        if self._reachability is None:
            self._reachability = result

    def preload_fallback_traces(self, traces: List) -> None:
        """Adopt pre-simulated falsification traces (family batch warm-up).

        The traces must be exactly what :meth:`_fallback_trace_set` would
        simulate — same stimuli, cycle count, and reset sequence — which the
        family verifier guarantees by batching the family's members through
        the one shared kernel.
        """
        if self._fallback_traces is None:
            self._fallback_traces = traces

    def reachability_snapshot(self) -> Optional[ReachabilityResult]:
        """The reachability result computed (or adopted) so far, if any."""
        return self._reachability

    def step_cache_stats(self) -> Dict[str, int]:
        """Snapshot of the transition system's successor-row memo.

        ``hits``/``misses`` count rows served and computed; ``entries``
        counts the transitions the rows hold.
        """
        return self._system.step_cache_info()

    def explore_reachability(self) -> Optional[ReachabilityResult]:
        """Compute (and cache) the reachable set, if exhaustive search could use it.

        Returns ``None`` without exploring when the design can never be
        checked exhaustively (input space not enumerable, too many state
        bits) — the same guard :meth:`check_batch` applies before its first
        reachability walk, so this never caches a degenerate result the
        normal path would not produce.  The scheduler calls it in the parent
        process before slicing a family across workers, so the shards all
        preload one BFS instead of each re-running it.
        """
        return self._reachable() if self._enumerable() else None

    def _reachable(self) -> ReachabilityResult:
        if self._reachability_error is not None:
            raise self._reachability_error.with_traceback(None)
        if self._reachability is None:
            key = None
            if self._reachability_cache is not None:
                key = reachability_key(self._design, self._config)
                cached = self._reachability_cache.get(key)
                if cached is not None:
                    self._reachability = cached
                    return cached
            try:
                self._reachability = enumerate_reachable(
                    self._system,
                    max_states=self._config.max_states,
                    max_transitions=self._config.max_transitions,
                )
            except HdlError as exc:  # EvalError included
                self._reachability_error = exc
                raise
            if key is not None:
                self._reachability_cache.put(key, self._reachability)
        return self._reachability

    # -- batched exhaustive explicit-state checking ------------------------------------

    def _transition_table(self, reachability: ReachabilityResult):
        """The dense (states × inputs) table, or None on the scalar backends."""
        if not self._table_built:
            self._table_built = True
            kernel = self._system.vector_kernel()
            if (
                kernel is not None
                and getattr(kernel, "packable", True)
                and reachability.complete
            ):
                from .table import TransitionTable

                self._table = TransitionTable(self._system, kernel, reachability)
        return self._table

    def _run_exhaustive_batch(
        self,
        obligations: List[_Obligation],
        results: List[Optional[ProofResult]],
    ) -> List[Tuple[int, Assertion]]:
        """Sweep the reachable space once, advancing every obligation together.

        Fills ``results`` for every obligation the sweep decides; returns the
        (index, assertion) pairs whose budget was exhausted and that must fall
        back to bounded simulation checking.
        """
        reachability = self._reachable()

        scalar_obligations = obligations
        table = self._transition_table(reachability)
        if table is not None:
            vectorized = [
                obligation
                for obligation in obligations
                if all(table.can_lower(expr) for expr in obligation.term_exprs())
            ]
            if vectorized:
                self._run_vectorized_obligations(vectorized, table)
                chosen = set(map(id, vectorized))
                scalar_obligations = [
                    obligation
                    for obligation in obligations
                    if id(obligation) not in chosen
                ]

        if scalar_obligations:
            for state in reachability.states:
                carriers = [
                    (obligation, None)
                    for obligation in scalar_obligations
                    if not obligation.decided and not obligation.budget_exhausted
                ]
                if not carriers:
                    break
                self._sweep(state, 0, [], carriers)

        fallback: List[Tuple[int, Assertion]] = []
        for obligation in obligations:
            if obligation.budget_exhausted:
                fallback.append((obligation.index, obligation.assertion))
                continue
            results[obligation.index] = self._exhaustive_result(
                obligation, reachability
            )
        return fallback

    # -- the vectorized sweep ----------------------------------------------------------

    def _run_vectorized_obligations(self, obligations: List[_Obligation], table) -> None:
        """Decide obligations on the dense table (verdicts identical to scalar)."""
        terms: List = []
        for obligation in obligations:
            terms.extend(obligation.term_exprs())
        table.ensure_terms(terms)
        for obligation in obligations:
            self._run_table_obligation(obligation, table)

    def _run_table_obligation(self, obligation: _Obligation, table) -> None:
        """Decide one fresh obligation on a dense table.

        A closed-form array pass over the truth matrices first decides
        whether any refuting path exists and what the full search would
        charge (see :func:`_deep_plan`).  Obligations with no refutation are
        decided (or declared exhausted) straight from that plan.  A
        refutable depth-0 obligation refutes at the first refuting
        (state, input) pair in row-major order, which is the order the
        search charges in: pair ``f`` costs ``f + 1`` evaluations, so the
        budget runs out first when that passes the limit.  Only deep
        refutable obligations run the depth-first search, which stops at
        its first refutation.  Verdicts, witnesses, budget exhaustion, and
        the triggered flag are identical to running the search everywhere.
        """
        import numpy as np

        limit = self._config.max_path_evaluations
        plan = _deep_plan(obligation, table, limit)
        refutable = plan.refutable
        if refutable and obligation.depth > 0:
            self._vec_deep_recursive(obligation, table)
            return
        first = int(np.argmax(plan.refuting)) if refutable else None
        charges = plan.charges if first is None else first + 1
        if charges > limit:
            obligation.budget_used = limit + 1
            obligation.budget_exhausted = True
            return
        obligation.budget_used = charges
        if first is None:
            obligation.triggered = plan.triggered
            return
        pair = divmod(first, table.num_inputs)
        failed = next(
            text
            for expr, text in obligation.consequent_exprs[0]
            if not table.truth(expr)[pair]
        )
        obligation.refute((table.env_rows([pair], self._system.observed_signals), failed))

    def _vec_deep_recursive(self, obligation: _Obligation, table) -> None:
        """The table depth-first search (deep obligations that refute).

        Mirrors :meth:`_sweep` exactly (same input order, budget charges,
        pending/completion protocol) with truth-matrix lookups in place of
        expression evaluation and index pairs in place of environments.
        """
        antecedent = {
            offset: tuple(table.truth_rows(expr) for expr in exprs)
            for offset, exprs in obligation.antecedent_exprs.items()
        }
        consequent = {
            offset: tuple((table.truth_rows(expr), text) for expr, text in pairs)
            for offset, pairs in obligation.consequent_exprs.items()
        }
        disable = (
            table.truth_rows(obligation.disable_expr)
            if obligation.disable_expr is not None
            else None
        )
        next_rows = table.next_rows()
        num_inputs = table.num_inputs
        limit = self._config.max_path_evaluations

        for s_index in range(table.num_states):
            if obligation.decided or obligation.budget_exhausted:
                break
            self._vec_sweep(
                obligation,
                s_index,
                0,
                [],
                None,
                antecedent,
                consequent,
                disable,
                next_rows,
                num_inputs,
                limit,
                table,
            )

    def _vec_sweep(
        self,
        obligation: _Obligation,
        s_index: int,
        offset: int,
        path: List[Tuple[int, int]],
        pending: Optional[_Pending],
        antecedent,
        consequent,
        disable,
        next_rows,
        num_inputs: int,
        limit: int,
        table,
    ) -> None:
        depth = obligation.depth
        ant_here = antecedent.get(offset)
        cons_here = consequent.get(offset)
        next_row = next_rows[s_index]
        for i in range(num_inputs):
            if obligation.decided or obligation.budget_exhausted:
                return
            obligation.budget_used += 1
            if obligation.budget_used > limit:
                obligation.budget_exhausted = True
                return
            if offset == 0 and disable is not None and disable[s_index][i]:
                continue
            if ant_here is not None:
                matched = True
                for rows in ant_here:
                    if not rows[s_index][i]:
                        matched = False
                        break
                if not matched:
                    continue
            carried = pending
            born: Optional[_Pending] = None
            if carried is None and cons_here is not None:
                for rows, text in cons_here:
                    if not rows[s_index][i]:
                        carried = _Pending(text, path + [(s_index, i)])
                        born = carried
                        break
            if offset == depth:
                obligation.triggered = True
                if carried is not None:
                    carried.completed = True
            else:
                self._vec_sweep(
                    obligation,
                    next_row[i],
                    offset + 1,
                    path + [(s_index, i)],
                    carried,
                    antecedent,
                    consequent,
                    disable,
                    next_rows,
                    num_inputs,
                    limit,
                    table,
                )
            if (
                born is not None
                and born.completed
                and not obligation.decided
                and not obligation.budget_exhausted
            ):
                cycles = table.env_rows(born.path, self._system.observed_signals)
                obligation.refute((cycles, born.term))

    # -- the scalar sweep --------------------------------------------------------------

    def _sweep(
        self,
        state: State,
        offset: int,
        path: List[Dict[str, int]],
        carriers: List[Tuple[_Obligation, Optional[_Pending]]],
    ) -> None:
        """One node of the shared depth-first search over input choices.

        ``carriers`` holds every obligation still exploring this path, paired
        with its pending consequent failure (if any).  Budgets are charged per
        (obligation, input) exactly as a standalone check would, so budget
        exhaustion is assertion-local and order-identical to ``check()``.
        """
        limit = self._config.max_path_evaluations
        row = self._system.successors(state)
        for position in range(len(self._system.input_grid)):
            alive: List[Tuple[_Obligation, Optional[_Pending]]] = []
            for obligation, pending in carriers:
                if obligation.decided or obligation.budget_exhausted:
                    continue
                obligation.budget_used += 1
                if obligation.budget_used > limit:
                    obligation.budget_exhausted = True
                    continue
                alive.append((obligation, pending))
            if not alive:
                return
            try:
                step = row.at(position)
            except HdlError as exc:  # EvalError included
                for obligation, _ in alive:
                    obligation.fail(f"evaluation error: {exc}")
                return
            env = step.env
            next_carriers: List[Tuple[_Obligation, Optional[_Pending]]] = []
            born: List[Tuple[_Obligation, _Pending]] = []
            for obligation, pending in alive:
                try:
                    if offset == 0 and obligation.disable is not None and obligation.disable(env):
                        continue
                    antecedent = obligation.antecedent.get(offset)
                    if antecedent is not None:
                        matched = True
                        for term in antecedent:
                            if not term(env):
                                matched = False
                                break
                        if not matched:
                            continue
                    if pending is None:
                        consequent = obligation.consequent.get(offset)
                        if consequent is not None:
                            for term, text in consequent:
                                if not term(env):
                                    pending = _Pending(text, path + [env])
                                    born.append((obligation, pending))
                                    break
                except EvalError as exc:
                    obligation.fail(f"evaluation error: {exc}")
                    continue
                if offset == obligation.depth:
                    obligation.triggered = True
                    if pending is not None:
                        pending.completed = True
                else:
                    next_carriers.append((obligation, pending))
            if next_carriers:
                self._sweep(step.next_state, offset + 1, path + [env], next_carriers)
            # A failure born at this node becomes a counterexample once some
            # continuation completed the antecedent match (the subtree has now
            # been fully explored, mirroring the standalone search's budget).
            for obligation, pending in born:
                if (
                    pending.completed
                    and not obligation.decided
                    and not obligation.budget_exhausted
                ):
                    obligation.refute((pending.path, pending.term))

    def _exhaustive_result(
        self, obligation: _Obligation, reachability: ReachabilityResult
    ) -> ProofResult:
        return assemble_exhaustive_result(
            obligation, reachability, self._design.name, self._system
        )

    def _term_fn(self, expr):
        """Lower a proposition to a truth kernel for the sweep's inner loop."""
        return self._evaluator.compile(expr)

    # -- simulation falsification -------------------------------------------------------

    def _fallback_trace_set(self) -> List:
        """Build (once) and cache the random traces used for falsification.

        All assertions checked against this design share the same traces, so
        batch verification of a candidate set costs one simulation per seed
        rather than one per assertion.  On the vectorized backend, where
        :func:`~repro.sim.vector.batch_simulation_pays`, every seed's trace
        is a lane of one batch; elsewhere each seed runs on the scalar
        simulator.  The traces are bit-for-bit identical either way.
        """
        if self._fallback_traces is None:
            stimuli = fallback_stimuli(self._config)
            cycles = self._config.fallback_cycles
            if self._backend == VECTORIZED:
                from ..sim.vector import batch_simulation_pays, simulate_batch

                kernel = None

                def lower():
                    nonlocal kernel
                    kernel = self._system.vector_kernel()
                    return None if kernel is None else (kernel.plan_name, len(stimuli))

                model = self._design.model
                if batch_simulation_pays(model, len(stimuli), lower):
                    self._fallback_traces = simulate_batch(model, stimuli, cycles, kernel)
            if self._fallback_traces is None:
                # One simulator (one set of compiled kernels) for every seed:
                # each run starts from reset.
                simulator = Simulator(self._design, backend=self._backend)
                self._fallback_traces = [
                    simulator.run(cycles=cycles, stimulus=stimulus) for stimulus in stimuli
                ]
        return self._fallback_traces

    def _check_by_simulation(self, assertion: Assertion) -> ProofResult:
        checker = self._checker
        triggers = 0
        depth = assertion.temporal_depth
        for seed, trace in enumerate(self._fallback_trace_set()):
            result = checker.check(assertion, trace)
            triggers += result.triggers
            if result.violations:
                start = result.first_violation
                window = trace.window(start, depth + 1)
                cycles = [window.row(i) for i in range(window.num_cycles)]
                return ProofResult(
                    status=ProofStatus.CEX,
                    assertion=assertion,
                    design_name=self._design.name,
                    counterexample=Counterexample(
                        cycles=cycles,
                        trigger_cycle=start,
                        failed_term=result.failed_terms[0],
                    ),
                    reason=f"counterexample found by simulation (seed {seed})",
                    engine="simulation",
                    complete=True,
                    depth=depth,
                )
        status = ProofStatus.PROVEN if triggers else ProofStatus.VACUOUS
        reason = (
            "no violation in bounded random simulation"
            if triggers
            else "antecedent never matched in bounded random simulation"
        )
        return ProofResult(
            status=status,
            assertion=assertion,
            design_name=self._design.name,
            reason=reason,
            engine="simulation",
            complete=False,
            depth=depth,
        )


def assemble_exhaustive_result(
    obligation: _Obligation,
    reachability: ReachabilityResult,
    design_name: str,
    system: TransitionSystem,
) -> ProofResult:
    """Turn one decided exhaustive obligation into its :class:`ProofResult`.

    Shared by :class:`FormalEngine` and the family verifier so a mutant's
    result is assembled exactly like a standalone check's.
    """
    assertion = obligation.assertion
    if obligation.error is not None:
        return error_result(obligation.error, design_name, assertion)
    if obligation.witness is not None:
        cycles, failed_term = obligation.witness
        # Canonicalise witness cycles to this assertion's signals (plus
        # state and inputs), in model signal order: identical whether the
        # assertion was checked solo or in a batch, across all three
        # backends, and whatever the string hash seed.
        keep = set(assertion.signals())
        keep.update(system.state_names)
        keep.update(system.input_names)
        names = [name for name in system.model.signals if name in keep]
        return ProofResult(
            status=ProofStatus.CEX,
            assertion=assertion,
            design_name=design_name,
            counterexample=Counterexample(
                cycles=[
                    {name: cycle[name] for name in names if name in cycle}
                    for cycle in cycles
                ],
                trigger_cycle=0,
                failed_term=failed_term,
            ),
            reason="counterexample found by explicit-state search",
            engine="explicit-state",
            complete=True,
            states_explored=reachability.count,
            depth=obligation.depth,
        )
    status = ProofStatus.PROVEN if obligation.triggered else ProofStatus.VACUOUS
    reason = (
        "holds on all reachable states"
        if obligation.triggered
        else "antecedent unreachable on all reachable states"
    )
    return ProofResult(
        status=status,
        assertion=assertion,
        design_name=design_name,
        reason=reason,
        engine="explicit-state",
        complete=True,
        states_explored=reachability.count,
        depth=obligation.depth,
    )


@dataclass
class _DeepPlan:
    """Closed-form summary of one obligation's full path search.

    ``charges`` is exactly what the depth-first sweep would charge if it ran
    to completion without deciding (clamped just past the budget limit, so
    overflow past the cap is indistinguishable from "exhausted" — which is
    all the caller needs).  ``triggered`` is whether any evaluation attempt
    completes at all.  ``refuting`` marks the (state, input) pairs at the
    final offset where a completing attempt carries or incurs a consequent
    failure (``None`` when every path is gated out earlier).
    """

    charges: int
    triggered: bool
    refuting: Optional["np.ndarray"] = None

    @property
    def refutable(self) -> bool:
        """Whether any completed attempt fails a consequent term."""
        return self.refuting is not None and bool(self.refuting.any())


def _deep_plan(obligation: _Obligation, table, limit: int) -> _DeepPlan:
    """Analyse an obligation's whole path space with array ops.

    The sweep's DFS explores paths ``state --i0--> state' --i1--> ...`` of
    the assertion's temporal depth, gated per offset by the antecedent truth
    matrices (plus ``disable_iff`` at offset 0).  Three facts about the full
    search are order-independent and therefore computable by forward
    propagation over the dense tables, one level at a time:

    * the number of path nodes per level (every node charges the whole input
      grid), giving the exact budget charge of an undecided sweep;
    * per-state reachability of the path frontier, split by whether some
      consequent term already failed along the way (one "fail" bit);
    * at the final offset: whether any gated attempt completes (triggered)
      and whether any completing attempt carries or incurs a consequent
      failure (a refutation exists).
    """
    import numpy as np

    depth = obligation.depth
    S, I = table.shape
    true_matrix = None

    def gate(offset: int):
        exprs = obligation.antecedent_exprs.get(offset, ())
        matrix = None
        for expr in exprs:
            truth = table.truth(expr)
            matrix = truth if matrix is None else (matrix & truth)
        if offset == 0 and obligation.disable_expr is not None:
            disabled = table.truth(obligation.disable_expr)
            matrix = ~disabled if matrix is None else (matrix & ~disabled)
        if matrix is None:
            nonlocal true_matrix
            if true_matrix is None:
                true_matrix = np.ones((S, I), dtype=bool)
            return true_matrix
        return matrix

    def cons_fail(offset: int):
        pairs = obligation.consequent_exprs.get(offset, ())
        matrix = None
        for expr, _ in pairs:
            failed = ~table.truth(expr)
            matrix = failed if matrix is None else (matrix | failed)
        return matrix  # None means "no consequent terms at this offset"

    next_index = None
    clamp = limit + 1
    counts = np.ones(S, dtype=np.int64)  # paths per state at this level
    reach_ok = np.ones(S, dtype=bool)  # frontier with no failure yet
    reach_fail = np.zeros(S, dtype=bool)  # frontier carrying a failure
    charges = 0

    for offset in range(depth + 1):
        charges = min(charges + int(counts.sum()) * I, clamp)
        gate_matrix = gate(offset)
        fail_matrix = cons_fail(offset)
        if offset == depth:
            ok_attempts = gate_matrix & reach_ok[:, None]
            fail_attempts = gate_matrix & reach_fail[:, None]
            triggered = bool(ok_attempts.any() or fail_attempts.any())
            refuting = (
                fail_attempts
                if fail_matrix is None
                else fail_attempts | (ok_attempts & fail_matrix)
            )
            return _DeepPlan(charges=charges, triggered=triggered, refuting=refuting)

        if next_index is None:
            next_index = np.asarray(table.next_rows(), dtype=np.int64)

        # Path counts: every gated (node, input) pair spawns one child node.
        spawned = np.bincount(
            next_index.ravel(),
            weights=(counts[:, None] * gate_matrix).ravel(),
            minlength=S,
        )
        counts = np.minimum(spawned, clamp).astype(np.int64)

        # Frontier reachability with the one-bit failure flag.
        ok_pairs = gate_matrix & reach_ok[:, None]
        fail_pairs = gate_matrix & reach_fail[:, None]
        if fail_matrix is not None:
            fail_pairs = fail_pairs | (ok_pairs & fail_matrix)
            ok_pairs = ok_pairs & ~fail_matrix
        next_ok = np.zeros(S, dtype=bool)
        next_fail = np.zeros(S, dtype=bool)
        next_ok[next_index[ok_pairs]] = True
        next_fail[next_index[fail_pairs]] = True
        reach_ok, reach_fail = next_ok, next_fail
        if not reach_ok.any() and not reach_fail.any() and not counts.any():
            # Every path is gated out before reaching the final offset.
            return _DeepPlan(charges=charges, triggered=False)

    raise AssertionError("unreachable: the final offset always returns")


def _terms_by_offset(terms: Sequence[SequenceTerm]) -> Dict[int, List[SequenceTerm]]:
    by_offset: Dict[int, List[SequenceTerm]] = {}
    for term in terms:
        by_offset.setdefault(term.offset, []).append(term)
    return by_offset


def check_assertion(
    design: Design,
    assertion_or_text: Union[str, Assertion],
    config: Optional[EngineConfig] = None,
) -> ProofResult:
    """Convenience wrapper: check one assertion against one design."""
    return FormalEngine(design, config).check(assertion_or_text)
