"""Family-batched formal verification: one vectorized pass for a mutant family.

The mutation stage multiplies the FPV workload by the mutant count, yet each
mutant differs from its golden design at exactly one ``(operator, site)``.
:func:`check_family` exploits that: the golden design and all of its mutants
are lowered into one :class:`~repro.sim.vector.FamilyKernel`, and the whole
``(mutants × reachable states × input grid)`` space is advanced in a handful
of batched kernel calls instead of one full engine run per mutant.

Everything else is the engine's own machinery: parse/bind, the exhaustive
budget gate and the obligation runners come from
:class:`~repro.fpv.engine.FormalEngine`, each mutant's obligations run on an
:class:`~repro.fpv.table.ObligationTable` stepped through the family kernel
with that mutant's id, and both BFS walks are
:func:`~repro.fpv.transition.walk`.  On top of the shared sweep:

* **Delta reachability** — each mutant's breadth-first reachable-state walk
  reads its outgoing rows from the family's precomputed next-state tables,
  seeded from the golden reachable set: only states that escape the golden
  set cost new kernel work.  Order, transition counts, and truncation points
  are identical to the mutant's own BFS, and results land in the shared
  :class:`~repro.fpv.engine.ReachabilityCache` under each member's own key.
* **Obligation memoisation** — the proposition truth matrices are built once
  per family; a mutant whose matrices (and next-state table) are identical
  to the golden design's inherits the golden obligation verdict outright,
  re-materialising only the witness environments.

Every :class:`~repro.fpv.result.ProofResult` field, counterexample cycles
included, equals what ``FormalEngine(mutant).check_batch`` returns.
Mutants that cannot ride the family kernel — structure mismatches,
un-lowerable variant expressions, or a non-vectorized backend — are checked
by that per-mutant engine directly, and so are assertions the family path
leaves undecided (an incomplete golden reachable set, an exhausted budget,
a term the family kernel cannot lower).  Those members' falsification
traces are batched through the family kernel where
:func:`~repro.sim.vector.batch_simulation_pays`; otherwise each member's
engine simulates its own on the compiled scalar loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hdl.design import Design
from ..hdl.errors import HdlError
from ..sim.compile import VECTORIZED, default_backend
from ..sim.eval import EvalError
from ..sim.vector import (
    PLAN_MULTILIMB, FamilyKernel, FamilyLowering, batch_simulation_pays, lower_family
)
from ..sva.model import Assertion
from .engine import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    _Obligation,
    assemble_exhaustive_result,
    error_result,
    fallback_stimuli,
    reachability_key,
)
from .result import ProofResult
from .table import ObligationTable, PackedStateIndex, can_lower
from .transition import ReachabilityResult, TransitionSystem, walk

__all__ = ["FamilyStats", "check_family"]

#: Upper bound on family-kernel lanes per call (members × states × inputs).
_SWEEP_CHUNK_LANES = 1 << 18

#: Retained per-member table bytes before the member axis is chunked.
_MEMBER_CHUNK_BYTES = 64 << 20


def _null_term_fn(expr):
    """Obligation term hook for table-only sweeps (kernels never called)."""
    return None


class FamilyStats:
    """Counters describing how one family sweep discharged its work."""

    def __init__(self) -> None:
        self.members = 0
        self.family_members = 0
        self.family_soa_members = 0
        self.family_multilimb_members = 0
        self.fallback_members = 0
        self.memo_reused = 0
        self.delta_escape_states = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# The family sweep: shared truth matrices + per-member next tables
# ---------------------------------------------------------------------------


class _FamilySweep:
    """Chunked family-kernel sweep over golden reachable states × inputs."""

    def __init__(
        self,
        system: TransitionSystem,
        kernel: FamilyKernel,
        reachability: ReachabilityResult,
    ):
        self.system = system
        self.kernel = kernel
        self.num_states = reachability.count
        grid = system.input_grid
        self.num_inputs = len(grid)
        self.packed_states = np.asarray(
            [kernel.pack_state(state) for state in reachability.states],
            dtype=np.int64,
        )
        self.packed_grid = kernel.pack_input_grid(grid)
        self.index = PackedStateIndex(
            self.packed_states, sum(kernel.state_widths)
        )

    def golden_rows(self, packed: np.ndarray) -> np.ndarray:
        """Golden reachable index of each packed state, or -1."""
        return self.index.indices(packed)

    def member_step(self, member: int):
        """``step_packed`` of one family member (its id on every lane)."""

        def step(packed_states: np.ndarray, packed_inputs: np.ndarray):
            members = np.full(len(packed_states), member, dtype=np.int64)
            return self.kernel.step_packed(packed_states, packed_inputs, members)

        return step

    def sweep(
        self, members: Sequence[int], exprs: Sequence
    ) -> Tuple[Dict[int, np.ndarray], Dict[Tuple[int, object], np.ndarray]]:
        """One chunked pass serving several members at once.

        Returns ``(next_packed, truths)`` where ``next_packed[member]`` is the
        (states × inputs) packed next-state table and
        ``truths[(member, expr)]`` the boolean truth matrix.
        """
        S, I = self.num_states, self.num_inputs
        members = list(members)
        kernels = [(expr, self.kernel.exprs.compile(expr)) for expr in exprs]
        next_packed = {member: np.empty((S, I), dtype=np.int64) for member in members}
        truths = {
            (member, expr): np.empty((S, I), dtype=bool)
            for member in members
            for expr in exprs
        }
        per_state = max(len(members) * I, 1)
        chunk_states = max(1, _SWEEP_CHUNK_LANES // per_state)
        members_arr = np.asarray(members, dtype=np.int64)
        for start in range(0, S, chunk_states):
            stop = min(start + chunk_states, S)
            count = stop - start
            lanes_per_member = count * I
            member_col = np.repeat(members_arr, lanes_per_member)
            states_rep = np.tile(
                np.repeat(self.packed_states[start:stop], I), len(members)
            )
            inputs_tiled = np.tile(self.packed_grid, count * len(members))
            env, nxt = self.kernel.step_packed(states_rep, inputs_tiled, member_col)
            nxt = nxt.reshape(len(members), count, I)
            for position, member in enumerate(members):
                next_packed[member][start:stop] = nxt[position]
            for expr, expr_kernel in kernels:
                values = self.kernel.bool_lanes(expr_kernel(env), len(member_col))
                values = values.reshape(len(members), count, I)
                for position, member in enumerate(members):
                    truths[(member, expr)][start:stop] = values[position]
        return next_packed, truths

    def member_rows(
        self, member: int, packed_states: Sequence[int], exprs: Sequence
    ) -> Tuple[np.ndarray, Dict[object, np.ndarray]]:
        """Next rows + truth rows for states outside the golden set."""
        count = len(packed_states)
        num_inputs = self.num_inputs
        lanes = count * num_inputs
        states_rep = np.repeat(np.asarray(packed_states, dtype=np.int64), num_inputs)
        inputs_tiled = np.tile(self.packed_grid, count)
        env, nxt = self.member_step(member)(states_rep, inputs_tiled)
        truths: Dict[object, np.ndarray] = {}
        for expr in exprs:
            values = self.kernel.bool_lanes(self.kernel.exprs.compile(expr)(env), lanes)
            truths[expr] = values.reshape(count, num_inputs)
        return nxt.reshape(count, num_inputs), truths


# ---------------------------------------------------------------------------
# Delta reachability
# ---------------------------------------------------------------------------


class _MemberReachability:
    """One mutant's reachable set, walked over the family's tables."""

    def __init__(
        self,
        result: ReachabilityResult,
        order_packed: List[int],
        extra_rows: Dict[int, np.ndarray],
        matches_golden: bool,
    ):
        self.result = result
        self.order_packed = order_packed
        #: next-state rows of states outside the golden reachable set.
        self.extra_rows = extra_rows
        #: True when the walk produced exactly the golden order (no escapes,
        #: no re-ordering, no truncation differences).
        self.matches_golden = matches_golden


def _delta_reachability(
    sweep: _FamilySweep,
    member: int,
    next_packed: np.ndarray,
    max_states: int,
    max_transitions: int,
) -> _MemberReachability:
    """Mutant BFS replayed over precomputed tables, seeded by the golden set.

    States inside the golden reachable set read their outgoing row straight
    from the family sweep; escapes batch one family-kernel call per BFS
    chunk.  :func:`walk` makes the discovery order, transition counts, and
    truncation points identical to running the BFS on the mutant alone.
    """
    kernel = sweep.kernel
    extra_rows: Dict[int, np.ndarray] = {}

    def successors(chunk: List[int]) -> np.ndarray:
        packed = np.asarray(chunk, dtype=np.int64)
        rows = sweep.golden_rows(packed)
        inside = rows >= 0
        flat = np.empty((len(chunk), sweep.num_inputs), dtype=np.int64)
        flat[inside] = next_packed[rows[inside]]
        escapes = packed[~inside].tolist()
        if escapes:
            escape_rows, _ = sweep.member_rows(member, escapes, ())
            flat[~inside] = escape_rows
            extra_rows.update(zip(escapes, escape_rows))
        return flat.ravel()

    order, complete, transitions = walk(
        kernel.pack_state(sweep.system.initial_state()),
        successors,
        sweep.num_inputs,
        sum(kernel.state_widths),
        max_states,
        max_transitions,
    )
    result = ReachabilityResult(
        states=[kernel.unpack_state(packed) for packed in order],
        complete=complete,
        frontier_exhausted=complete,
        transitions_explored=transitions,
    )
    matches = (
        complete
        and not extra_rows
        and order == sweep.packed_states.tolist()
    )
    return _MemberReachability(result, order, extra_rows, matches)


# ---------------------------------------------------------------------------
# Per-member obligation tables
# ---------------------------------------------------------------------------


class _MemberTable(ObligationTable):
    """Obligation table of one family member (member 0 is the golden design).

    Rows are the member's reachable states in its own reachability order;
    every lane is stepped through the family kernel with this member's id.
    The next-state table and truth matrices come from the family sweep:
    states inside the golden set gather their precomputed rows, escape
    states carry the rows computed during the delta walk.
    """

    def __init__(
        self,
        sweep: _FamilySweep,
        member: int,
        order_packed,
        extra_rows: Dict[int, np.ndarray],
        next_packed: np.ndarray,
        truths: Dict[Tuple[int, object], np.ndarray],
        exprs: Sequence,
        index: Optional[PackedStateIndex] = None,
    ) -> None:
        super().__init__(
            sweep.kernel,
            sweep.member_step(member),
            np.asarray(order_packed, dtype=np.int64),
            sweep.packed_grid,
            sweep.system.model.signals,
            index,
        )
        golden_rows = sweep.golden_rows(self._packed_states)
        inside = golden_rows >= 0
        gather = golden_rows[inside]
        escapes = self._packed_states[~inside].tolist()
        rows = np.empty(self.shape, dtype=np.int64)
        rows[inside] = next_packed[gather]
        escape_truths: Dict[object, np.ndarray] = {}
        if escapes:
            rows[~inside] = np.stack([extra_rows[packed] for packed in escapes])
            if exprs:
                _, escape_truths = sweep.member_rows(member, escapes, exprs)
        self._set_next_packed(rows)
        for expr in exprs:
            matrix = np.empty(self.shape, dtype=bool)
            matrix[inside] = truths[(member, expr)][gather]
            if escapes:
                matrix[~inside] = escape_truths[expr]
            self._truth[expr] = matrix


# ---------------------------------------------------------------------------
# The family verifier
# ---------------------------------------------------------------------------


def check_family(
    golden: Design,
    mutants: Sequence[Design],
    assertions: Sequence,
    config: Optional[EngineConfig] = None,
    reachability_cache: Optional[ReachabilityCache] = None,
    stats: Optional[FamilyStats] = None,
) -> List[List[ProofResult]]:
    """Check ``assertions`` against every mutant of one design family.

    Returns one verdict list per mutant, each aligned with ``assertions``.
    Every verdict — the entire :class:`ProofResult`, counterexample cycles
    included — is bit-identical to
    ``FormalEngine(mutant, config).check_batch(assertions)``.
    """
    config = config or EngineConfig()
    mutants = list(mutants)
    items = list(assertions)
    stats = stats if stats is not None else FamilyStats()
    stats.members += len(mutants)
    if not mutants:
        return []

    backend = config.backend or default_backend()
    lowering: Optional[FamilyLowering] = None
    if backend == VECTORIZED and items:
        lowering = lower_family(golden.model, [mutant.model for mutant in mutants])

    results: List[Optional[List[ProofResult]]] = [None] * len(mutants)

    def run_fallback(position: int) -> None:
        engine = FormalEngine(mutants[position], config, reachability_cache)
        results[position] = engine.check_batch(items)

    if lowering is None:
        for position in range(len(mutants)):
            run_fallback(position)
        stats.fallback_members += len(mutants)
        return results  # type: ignore[return-value]

    family_positions = lowering.accepted()
    accepted = set(family_positions)
    for position in range(len(mutants)):
        if position not in accepted:
            run_fallback(position)
            stats.fallback_members += 1

    if family_positions:
        rescued = 0
        try:
            _check_family_fast(
                golden,
                mutants,
                items,
                config,
                reachability_cache,
                lowering,
                family_positions,
                results,
                stats,
            )
        except (EvalError, HdlError, KeyError, ValueError):
            # The per-mutant engines are the reference; any family-path
            # surprise falls back to them wholesale.
            for position in family_positions:
                if results[position] is None:
                    run_fallback(position)
                    stats.fallback_members += 1
                    rescued += 1
        family_count = len(family_positions) - rescued
        stats.family_members += family_count
        if lowering.plan == PLAN_MULTILIMB:
            stats.family_multilimb_members += family_count
        else:
            stats.family_soa_members += family_count
    return results  # type: ignore[return-value]


def _check_family_fast(
    golden: Design,
    mutants: List[Design],
    items: List,
    config: EngineConfig,
    reachability_cache: Optional[ReachabilityCache],
    lowering: FamilyLowering,
    family_positions: List[int],
    results: List[Optional[List[ProofResult]]],
    stats: FamilyStats,
) -> None:
    golden_engine = FormalEngine(golden, config, reachability_cache)

    # -- parse / bind once for the whole family --------------------------------
    member_results: Dict[int, List[Optional[ProofResult]]] = {
        position: [None] * len(items) for position in family_positions
    }
    bound, failures = golden_engine.parse_and_bind(items)
    for index, assertion, message in failures:
        for position in family_positions:
            member_results[position][index] = error_result(
                message, mutants[position].name, assertion
            )

    golden_reach = (
        golden_engine.explore_reachability()
        if getattr(lowering.kernel, "packable", True)
        else None
    )
    # (position, assertion indices, reachability) left to the member's engine.
    sim_pending: List[Tuple[int, List[int], Optional[ReachabilityResult]]] = []
    if not bound:
        pass  # every verdict is already a parse or bind error
    elif golden_reach is None or not golden_reach.complete:
        # The golden set cannot seed the delta walk: the member engines check
        # everything, with falsification traces still batched below.
        indices = [index for index, _ in bound]
        sim_pending = [(position, indices, None) for position in family_positions]
    else:
        sim_pending = _sweep_members(
            golden_engine, mutants, bound, config, reachability_cache,
            lowering, family_positions, golden_reach, member_results, stats,
        )

    # -- leftover assertions: per-member engines, traces batched where it pays --
    traces: Dict[int, List] = {}
    lanes = len(sim_pending) * config.fallback_seeds
    if sim_pending and batch_simulation_pays(
        golden.model, lanes, lambda: (lowering.plan, lanes)
    ):
        traces = _family_fallback_traces(
            lowering, [position for position, _, _ in sim_pending], config
        )
    for position, indices, reach_result in sim_pending:
        engine = FormalEngine(mutants[position], config, reachability_cache)
        if reach_result is not None:
            engine.preload_reachability(reach_result)
        if position in traces:
            engine.preload_fallback_traces(traces[position])
        verdicts = engine.check_batch([items[i] for i in indices])
        for index, verdict in zip(indices, verdicts):
            member_results[position][index] = verdict

    for position in family_positions:
        results[position] = member_results[position]  # type: ignore[assignment]


def _sweep_members(
    golden_engine: FormalEngine,
    mutants: List[Design],
    bound: List[Tuple[int, Assertion]],
    config: EngineConfig,
    reachability_cache: Optional[ReachabilityCache],
    lowering: FamilyLowering,
    family_positions: List[int],
    golden_reach: ReachabilityResult,
    member_results: Dict[int, List[Optional[ProofResult]]],
    stats: FamilyStats,
) -> List[Tuple[int, List[int], Optional[ReachabilityResult]]]:
    """Decide every member's exhaustive obligations on the family tables.

    Fills ``member_results``; returns the (position, indices, reachability)
    entries whose assertions the member's own engine must check.
    """
    system = golden_engine._system
    sweep = _FamilySweep(system, lowering.kernel, golden_reach)

    # -- obligations on the golden design (member 0) ----------------------------
    golden_obligations: Dict[int, _Obligation] = {}
    obligation_errors: Dict[int, str] = {}
    for index, assertion in bound:
        try:
            obligation = _Obligation(index, assertion, golden_engine._term_fn)
        except EvalError as exc:
            obligation_errors[index] = f"evaluation error: {exc}"
            continue
        except HdlError as exc:
            obligation_errors[index] = f"elaboration error: {exc}"
            continue
        if all(can_lower(sweep.kernel, expr) for expr in obligation.term_exprs()):
            golden_obligations[index] = obligation
    exprs = list(
        dict.fromkeys(
            expr
            for obligation in golden_obligations.values()
            for expr in obligation.term_exprs()
        )
    )
    # Golden tables back the memo comparisons for every member.
    golden_next, golden_truths = sweep.sweep([0], exprs)
    golden_next0 = golden_next[0]
    golden_table = _MemberTable(
        sweep, 0, sweep.packed_states, {}, golden_next0, golden_truths, exprs,
        index=sweep.index,
    )
    for obligation in golden_obligations.values():
        golden_engine._run_table_obligation(obligation, golden_table)

    # -- per-member work, chunked along the member axis -------------------------
    bytes_per_member = sweep.num_states * sweep.num_inputs * (8 + max(len(exprs), 1))
    chunk_size = max(1, _MEMBER_CHUNK_BYTES // max(bytes_per_member, 1))
    sim_pending: List[Tuple[int, List[int], Optional[ReachabilityResult]]] = []

    for chunk_start in range(0, len(family_positions), chunk_size):
        chunk_positions = family_positions[chunk_start : chunk_start + chunk_size]
        chunk_members = [lowering.member_ids[p] for p in chunk_positions]
        next_packed, truths = sweep.sweep(chunk_members, exprs)
        for position, member in zip(chunk_positions, chunk_members):
            mutant = mutants[position]
            reach = _delta_reachability(
                sweep, member, next_packed[member],
                config.max_states, config.max_transitions,
            )
            stats.delta_escape_states += len(reach.extra_rows)
            if reachability_cache is not None:
                reachability_cache.put(
                    reachability_key(mutant, config), reach.result
                )
            leftover: List[int] = []
            member_table: Optional[_MemberTable] = None
            tables_match = reach.matches_golden and np.array_equal(
                next_packed[member], golden_next0
            )
            for index, assertion in bound:
                # Same order as the engine: the budget gate first, then the
                # obligation's own errors, then the table run.
                if not golden_engine._can_check_exhaustively(assertion, reach.result):
                    leftover.append(index)
                    continue
                if index in obligation_errors:
                    member_results[position][index] = error_result(
                        obligation_errors[index], mutant.name, assertion
                    )
                    continue
                obligation_g = golden_obligations.get(index)
                if obligation_g is None:  # a term the family kernel cannot lower
                    leftover.append(index)
                    continue
                if tables_match and all(
                    np.array_equal(truths[(member, expr)], golden_truths[(0, expr)])
                    for expr in obligation_g.term_exprs()
                ):
                    if obligation_g.witness is not None and member_table is None:
                        member_table = _MemberTable(
                            sweep, member, reach.order_packed, reach.extra_rows,
                            next_packed[member], truths, exprs,
                        )
                    outcome = _memo_result(
                        obligation_g, member_table, reach.result, mutant.name, system
                    )
                    if outcome is None:
                        leftover.append(index)  # golden exhausted its budget
                    else:
                        member_results[position][index] = outcome
                        stats.memo_reused += 1
                    continue
                if member_table is None:
                    member_table = _MemberTable(
                        sweep, member, reach.order_packed, reach.extra_rows,
                        next_packed[member], truths, exprs,
                    )
                obligation_m = _Obligation(index, assertion, _null_term_fn)
                golden_engine._run_table_obligation(obligation_m, member_table)
                if obligation_m.budget_exhausted:
                    leftover.append(index)
                else:
                    member_results[position][index] = assemble_exhaustive_result(
                        obligation_m, reach.result, mutant.name,
                        system.state_names, system.input_names,
                    )
            if leftover:
                sim_pending.append((position, leftover, reach.result))
    return sim_pending


def _memo_result(
    obligation_g: _Obligation,
    member_table: Optional[_MemberTable],
    reach: ReachabilityResult,
    design_name: str,
    system: TransitionSystem,
) -> Optional[ProofResult]:
    """Reuse the golden verdict for a member with identical tables.

    The obligation outcome is a deterministic function of the truth
    matrices, next-state table, and engine budgets — all equal here — so the
    decision transfers wholesale; only a counterexample's environments are
    re-materialised through the member's lanes (``member_table`` is only
    needed — and only built by the caller — in that case).  Returns ``None``
    when the golden obligation exhausted its budget (the member then falls
    back to bounded simulation on its *own* traces, exactly like the
    per-mutant path).
    """
    if obligation_g.budget_exhausted:
        return None
    clone = _Obligation(obligation_g.index, obligation_g.assertion, _null_term_fn)
    clone.triggered = obligation_g.triggered
    clone.error = obligation_g.error
    clone.decided = obligation_g.decided
    if obligation_g.witness is not None:
        if obligation_g.witness_pairs is None or member_table is None:
            return None  # pragma: no cover - vectorized refutes always set pairs
        cycles = member_table.env_rows(
            obligation_g.witness_pairs, system.observed_signals
        )
        clone.witness = (cycles, obligation_g.witness[1])
    return assemble_exhaustive_result(
        clone, reach, design_name, system.state_names, system.input_names
    )


def _family_fallback_traces(
    lowering: FamilyLowering,
    positions: List[int],
    config: EngineConfig,
) -> Dict[int, List]:
    """Falsification traces for several members, stepped as one batch.

    Bit-for-bit what each member's own
    :meth:`FormalEngine._fallback_trace_set` would simulate — same stimuli,
    cycles, and reset sequence — so preloading them changes nothing but the
    wall clock.
    """
    stimuli = fallback_stimuli(config)
    members = [lowering.member_ids[position] for position in positions]
    traces = lowering.kernel.family_simulate(
        members, stimuli, config.fallback_cycles
    )
    return {position: traces[row] for row, position in enumerate(positions)}
