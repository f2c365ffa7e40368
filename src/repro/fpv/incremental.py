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
with that mutant's id, and every BFS is the one packed wave walk of
:func:`~repro.fpv.transition.walk_rounds`.  On top of the shared sweep:

* **Delta reachability** — each mutant's breadth-first reachable-state walk
  reads its outgoing rows from the family's precomputed next-state tables,
  seeded from the golden reachable set: only states that escape the golden
  set cost new kernel work.  The walks of one member chunk run in lockstep
  rounds: each round advances every live walk by one frontier chunk, and
  one kernel call steps all of their escape states, evaluating the
  obligation propositions on the same lanes so the member tables need not
  step an escape state again (a walk whose rows would pass the member
  chunk's byte budget drops them, and its table steps them once more).
  Order, transition counts, and truncation points are identical to the
  mutant's own BFS, and results land in the shared
  :class:`~repro.fpv.engine.ReachabilityCache` under each member's own key.
* **Member tables** — the proposition truth matrices and next-state rows of
  every member over the golden reachable states come from one batched
  kernel call per member chunk; each member's table gathers its rows from
  them (plus its walk's escape rows) and runs the engine's one table
  runner.

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
from .table import ObligationTable, PackedStateIndex, can_lower, step_rows
from .transition import ReachabilityResult, TransitionSystem, visited_bytes, walk_rounds

__all__ = ["FamilyStats", "check_family"]

#: Bytes one member chunk may hold: its sweep tables and visited sets, then
#: the escape rows its lockstep walks keep for the member tables.
_MEMBER_CHUNK_BYTES = 64 << 20


class FamilyStats:
    """Counters describing how one family sweep discharged its work."""

    def __init__(self) -> None:
        self.members = 0
        self.family_members = 0
        self.family_soa_members = 0
        self.family_multilimb_members = 0
        self.fallback_members = 0
        self.delta_escape_states = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# The golden reachable space, packed once per family
# ---------------------------------------------------------------------------


class _FamilySweep:
    """The golden reachable states and input grid, packed for the family kernel."""

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


# ---------------------------------------------------------------------------
# Delta reachability
# ---------------------------------------------------------------------------


class _MemberWalk:
    """One mutant's BFS replayed over the family tables, seeded by the golden set.

    A :func:`walk_rounds` generator advanced one frontier chunk per
    lockstep round (:func:`_walk_members`).  States inside the golden
    reachable set read their outgoing row straight from the family sweep;
    escape states are stepped by the round's shared kernel call, and their
    next and truth rows are kept, in expansion order, for the member's
    obligation table — unless the chunk's byte budget runs out or the walk
    ends incomplete (the budget gate then refuses the member's table), in
    which case the walk drops them.  The discovery order, transition counts,
    and truncation points are identical to running the BFS on the mutant
    alone.
    """

    def __init__(
        self,
        sweep: _FamilySweep,
        member: int,
        next_packed: np.ndarray,
        max_states: int,
        max_transitions: int,
    ) -> None:
        kernel = sweep.kernel
        self.member = member
        self._sweep = sweep
        self._next_packed = next_packed
        self._rounds = walk_rounds(
            kernel.pack_state(sweep.system.initial_state()),
            sweep.num_inputs,
            sum(kernel.state_widths),
            max_states,
            max_transitions,
        )
        self._chunk: List[int] = next(self._rounds)
        self._flat: Optional[np.ndarray] = None
        self._outside: Optional[np.ndarray] = None
        self._escape_blocks: Optional[
            List[Tuple[np.ndarray, Dict[object, np.ndarray]]]
        ] = []
        #: Bytes of the escape rows kept for the member's table.
        self.kept_bytes = 0
        #: How many escape states the walk expanded.
        self.escape_states = 0
        self.result: Optional[ReachabilityResult] = None
        self.order_packed: List[int] = []

    def gather(self) -> np.ndarray:
        """Fill the chunk's rows from the golden tables; return its escapes."""
        packed = np.asarray(self._chunk, dtype=np.int64)
        rows = self._sweep.golden_rows(packed)
        outside = rows < 0
        flat = np.empty((len(packed), self._sweep.num_inputs), dtype=np.int64)
        flat[~outside] = self._next_packed[rows[~outside]]
        self._flat, self._outside = flat, outside
        return packed[outside]

    def advance(
        self,
        escape_next: np.ndarray,
        escape_truths: Dict[object, np.ndarray],
        keep: bool,
    ) -> bool:
        """Send the chunk's successors; ``False`` once the walk has returned.

        ``keep`` says whether the chunk's escape rows fit the budget; once
        one chunk's do not, the walk keeps none of its rows.
        """
        if len(escape_next):
            self._flat[self._outside] = escape_next
            self.escape_states += len(escape_next)
            if keep and self._escape_blocks is not None:
                # Copies, so the round's shared row arrays are not pinned.
                truths = {expr: rows.copy() for expr, rows in escape_truths.items()}
                self._escape_blocks.append((escape_next.copy(), truths))
                self.kept_bytes += escape_next.nbytes + sum(t.nbytes for t in truths.values())
            else:
                self.drop_rows()
        try:
            self._chunk = self._rounds.send(self._flat.ravel())
        except StopIteration as stop:
            order, complete, transitions = stop.value
            kernel = self._sweep.kernel
            self.result = ReachabilityResult(
                states=[kernel.unpack_state(packed) for packed in order],
                complete=complete,
                frontier_exhausted=complete,
                transitions_explored=transitions,
            )
            self.order_packed = order
            if not complete:
                self.drop_rows()
            return False
        return True

    def drop_rows(self) -> None:
        """Free the kept escape rows; the member's table steps them again."""
        self._escape_blocks = None
        self.kept_bytes = 0

    def expanded_escapes(
        self, exprs: Sequence
    ) -> Optional[Tuple[np.ndarray, Dict[object, np.ndarray]]]:
        """Every expanded escape state's next rows and truth rows, in order.

        A complete walk expands its states in discovery order, so these
        align with the escape states of ``order_packed``.  ``None`` once the
        walk has dropped its rows.
        """
        if not self._escape_blocks:
            return None
        return (
            np.concatenate([rows for rows, _ in self._escape_blocks]),
            {
                expr: np.concatenate([truths[expr] for _, truths in self._escape_blocks])
                for expr in exprs
            },
        )


def _walk_members(
    sweep: _FamilySweep,
    walks: Sequence[_MemberWalk],
    exprs: Sequence,
    keep_bytes: int,
) -> None:
    """Run member walks to completion in lockstep rounds.

    Each round advances every live walk by one frontier chunk and steps the
    escape states of all of them in one :func:`~repro.fpv.table.step_rows`
    call, which also evaluates the obligation ``exprs`` on those lanes.
    The walks together keep at most ``keep_bytes`` of escape rows: a walk
    whose next rows would pass it drops all of its own.
    """
    row_bytes = sweep.num_inputs * (8 + len(exprs))
    live = list(walks)
    while live:
        escapes = [walk.gather() for walk in live]
        counts = [len(states) for states in escapes]
        next_rows = np.empty((0, sweep.num_inputs), dtype=np.int64)
        truths: Dict[object, np.ndarray] = {}
        if any(counts):
            members = np.repeat(
                np.asarray([walk.member for walk in live], dtype=np.int64), counts
            )
            next_rows, truths = step_rows(
                sweep.kernel, np.concatenate(escapes), sweep.packed_grid, exprs, members
            )
        still_live = []
        offset = 0
        kept = sum(walk.kept_bytes for walk in walks)
        for walk, count in zip(live, counts):
            block = slice(offset, offset + count)
            offset += count
            keep = kept + count * row_bytes <= keep_bytes
            kept -= walk.kept_bytes
            if walk.advance(
                next_rows[block],
                {expr: rows[block] for expr, rows in truths.items()},
                keep,
            ):
                still_live.append(walk)
            kept += walk.kept_bytes
        live = still_live


# ---------------------------------------------------------------------------
# Per-member obligation tables
# ---------------------------------------------------------------------------


class _MemberTable(ObligationTable):
    """Obligation table of one family member.

    Rows are the member's reachable states in its own reachability order
    (``walk``'s); every lane is stepped through the family kernel with the
    walk's member id.  ``next_packed`` and ``truths`` are the member's rows
    over the golden reachable states: states inside the golden set gather
    them, escape states take the rows their delta walk stepped, or are
    stepped again here if the walk dropped them.
    """

    def __init__(
        self,
        sweep: _FamilySweep,
        walk: _MemberWalk,
        next_packed: np.ndarray,
        truths: Dict[object, np.ndarray],
        exprs: Sequence,
    ) -> None:
        super().__init__(
            sweep.kernel,
            np.asarray(walk.order_packed, dtype=np.int64),
            sweep.packed_grid,
            sweep.system.model.signals,
            walk.member,
        )
        golden_rows = sweep.golden_rows(self._packed_states)
        inside = golden_rows >= 0
        gather = golden_rows[inside]
        rows = np.empty(self.shape, dtype=np.int64)
        rows[inside] = next_packed[gather]
        escape_truths: Dict[object, np.ndarray] = {}
        if not inside.all():
            escapes = walk.expanded_escapes(exprs)
            if escapes is None:
                states = self._packed_states[~inside]
                escapes = step_rows(
                    sweep.kernel, states, sweep.packed_grid, exprs,
                    self._members(len(states)),
                )
            rows[~inside], escape_truths = escapes
        self._set_next_packed(rows)
        for expr in exprs:
            matrix = np.empty(self.shape, dtype=bool)
            matrix[inside] = truths[expr][gather]
            if escape_truths:
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

    # -- obligations, derived once on the golden design ------------------------
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

    # -- per-member work, chunked along the member axis -------------------------
    bytes_per_member = _member_bytes(sweep, len(exprs), config.max_states)
    chunk_size = max(1, _MEMBER_CHUNK_BYTES // bytes_per_member)
    sim_pending: List[Tuple[int, List[int], Optional[ReachabilityResult]]] = []
    S = sweep.num_states

    for chunk_start in range(0, len(family_positions), chunk_size):
        chunk_positions = family_positions[chunk_start : chunk_start + chunk_size]
        chunk_members = [lowering.member_ids[p] for p in chunk_positions]
        # Every golden reachable state under each member: one block of rows
        # per member, all in one step_rows call.
        next_rows, truth_rows = step_rows(
            sweep.kernel,
            np.tile(sweep.packed_states, len(chunk_members)),
            sweep.packed_grid,
            exprs,
            np.repeat(np.asarray(chunk_members, dtype=np.int64), S),
        )
        blocks = [slice(k * S, (k + 1) * S) for k in range(len(chunk_members))]
        walks = [
            _MemberWalk(
                sweep, member, next_rows[block],
                config.max_states, config.max_transitions,
            )
            for member, block in zip(chunk_members, blocks)
        ]
        keep_bytes = max(0, _MEMBER_CHUNK_BYTES - len(chunk_members) * bytes_per_member)
        _walk_members(sweep, walks, exprs, keep_bytes)
        for position, walk, block in zip(chunk_positions, walks, blocks):
            mutant = mutants[position]
            reach = walk.result
            stats.delta_escape_states += walk.escape_states
            if reachability_cache is not None:
                reachability_cache.put(reachability_key(mutant, config), reach)
            leftover: List[int] = []
            member_table: Optional[_MemberTable] = None
            for index, assertion in bound:
                # Same order as the engine: the budget gate first, then the
                # obligation's own errors, then the table run.
                if not golden_engine._can_check_exhaustively(assertion, reach):
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
                if member_table is None:
                    member_table = _MemberTable(
                        sweep,
                        walk,
                        next_rows[block],
                        {expr: rows[block] for expr, rows in truth_rows.items()},
                        exprs,
                    )
                obligation_m = obligation_g.restart()
                golden_engine._run_table_obligation(obligation_m, member_table)
                if obligation_m.budget_exhausted:
                    leftover.append(index)
                else:
                    member_results[position][index] = assemble_exhaustive_result(
                        obligation_m, reach, mutant.name, system
                    )
            walk.drop_rows()
            if leftover:
                sim_pending.append((position, leftover, reach))
    return sim_pending


def _member_bytes(sweep: _FamilySweep, num_exprs: int, max_states: int) -> int:
    """A member's fixed share of the chunk budget: its sweep tables (next
    rows and one truth matrix per expression over the golden states) and
    its walk's visited set."""
    return sweep.num_states * sweep.num_inputs * (8 + max(num_exprs, 1)) + visited_bytes(
        sum(sweep.kernel.state_widths), max_states
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
