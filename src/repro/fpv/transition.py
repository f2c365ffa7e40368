"""Finite transition system extracted from an elaborated RTL model.

The FPV engine explores the design as a finite-state machine whose state is
the vector of register values and whose transitions are labelled by primary
input valuations.  This module provides the state encoding, input-space
enumeration, and the single-cycle image computation shared by reachability
analysis and path checking.

Two evaluation strategies coexist:

* the scalar path (:meth:`TransitionSystem.successors`) computes one
  state's settled environments and next states for the whole input grid
  through the interpreted or compiled backend, memoised per state in a
  bounded cache of successor rows;
* the vectorized path (:meth:`TransitionSystem.vector_kernel`) lowers the
  model to the NumPy structure-of-arrays kernel of :mod:`repro.sim.vector`
  and advances the whole BFS frontier × input grid in one
  ``step_packed`` call.  :func:`enumerate_reachable` uses it automatically
  when the system was built with the ``vectorized`` backend, reproducing the
  scalar exploration order exactly (same state order, same transition
  counts, same truncation points).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..hdl.design import Design
from ..hdl.elaborate import RtlModel
from ..hdl.errors import HdlError
from ..sim.compile import VECTORIZED, CombSettle, default_backend, make_evaluator, make_executor

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

State = Tuple[int, ...]
InputVector = Tuple[int, ...]

#: How many rows a full successor memo drops at once.  Bounded FIFO eviction:
#: a mid-BFS cap evicts the oldest eighth of the memoised states instead of
#: dumping the entire working set.
_EVICTION_FRACTION = 8


@dataclass(frozen=True)
class TransitionStep:
    """One explored transition: the settled environment and the next state.

    When the owning system has an observation set (:meth:`TransitionSystem.
    observe`), ``env`` is restricted to the observed signals; otherwise it is
    the full settled environment.
    """

    env: Dict[str, int]
    next_state: State


class SuccessorRow(list):
    """The transitions out of one state, one :class:`TransitionStep` per
    input valuation in :attr:`TransitionSystem.input_grid` order.  Rows are
    shared: do not mutate a row or its environments.

    A step that raises ends the row: the row then holds the steps before it
    and keeps the exception.  Read steps through :meth:`at`, which raises
    that exception at the position where it happened, so a caller that stops
    earlier (a decided obligation, an exhausted budget, a truncated walk)
    never sees it.
    """

    __slots__ = ("_error",)

    def __init__(self, steps: List[TransitionStep], error: Optional[HdlError] = None):
        super().__init__(steps)
        self._error = error

    def at(self, position: int) -> TransitionStep:
        """The step at ``position``, or the exception that ended the row there."""
        if position == len(self) and self._error is not None:
            raise self._error.with_traceback(None)
        return self[position]


class TransitionSystem:
    """State-space view of one design."""

    def __init__(self, design_or_model, max_input_bits: int = 14, backend: Optional[str] = None):
        if isinstance(design_or_model, Design):
            self._model: RtlModel = design_or_model.model
        else:
            self._model = design_or_model
        self._backend = backend or default_backend()
        self._evaluator = make_evaluator(self._model, self._backend)
        self._executor = make_executor(self._model, self._evaluator)
        self._settler = CombSettle(self._model, self._evaluator, self._executor)
        self._state_names: List[str] = list(self._model.state_regs)
        self._input_names: List[str] = list(self._model.non_clock_inputs)
        self._max_input_bits = max_input_bits
        #: Successor rows by state, oldest first; bounded by the number of
        #: transitions they hold.
        self._rows: Dict[State, SuccessorRow] = {}
        self._rows_held = 0
        self._rows_limit = 200_000
        self._row_hits = 0
        self._row_misses = 0
        #: Signals kept in memoised/returned step environments; None = all.
        self._observed: Optional[frozenset] = None
        self._input_grid: Optional[Tuple[InputVector, ...]] = None
        self._input_dicts: Optional[List[Dict[str, int]]] = None
        self._kernel = None
        self._kernel_built = False
        self._plan = None

    # -- basic properties -------------------------------------------------------

    @property
    def model(self) -> RtlModel:
        return self._model

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def state_names(self) -> List[str]:
        return self._state_names

    @property
    def input_names(self) -> List[str]:
        return self._input_names

    @property
    def state_bits(self) -> int:
        return sum(self._model.signals[name].width for name in self._state_names)

    @property
    def input_bits(self) -> int:
        return sum(self._model.signals[name].width for name in self._input_names)

    @property
    def input_space_size(self) -> int:
        size = 1
        for name in self._input_names:
            size *= self._model.signals[name].max_value + 1
        return size

    @property
    def can_enumerate_inputs(self) -> bool:
        return self.input_bits <= self._max_input_bits

    # -- the vectorized kernel --------------------------------------------------

    def vector_kernel(self):
        """The NumPy :class:`~repro.sim.vector.VectorKernel`, or ``None``.

        Only systems built with the ``vectorized`` backend lower a kernel;
        models every lowering strategy rejects (or a missing NumPy) quietly
        fall back to the scalar path.  :meth:`lowering_plan` reports which
        representation the planner picked and why fallbacks happened.
        """
        if not self._kernel_built:
            self._kernel_built = True
            if self._backend == VECTORIZED:
                try:
                    from ..sim.vector import plan_model
                except ImportError:  # pragma: no cover - numpy not installed
                    plan_model = None
                if plan_model is not None:
                    self._plan = plan_model(self._model)
                    self._kernel = self._plan.kernel
        return self._kernel

    def lowering_plan(self):
        """The :class:`~repro.sim.vector.LoweringPlan` behind
        :meth:`vector_kernel`, or ``None`` for scalar backends."""
        self.vector_kernel()
        return self._plan

    # -- state encoding -----------------------------------------------------------

    def initial_state(self) -> State:
        values = []
        for name in self._state_names:
            signal = self._model.signals[name]
            values.append(self._model.initial_values.get(name, 0) & signal.mask)
        return tuple(values)

    def state_dict(self, state: State) -> Dict[str, int]:
        return dict(zip(self._state_names, state))

    def encode_state(self, values: Dict[str, int]) -> State:
        return tuple(values.get(name, 0) for name in self._state_names)

    # -- input enumeration -----------------------------------------------------------

    @property
    def input_grid(self) -> Tuple[InputVector, ...]:
        """Every input valuation as a tuple, in enumeration order.

        Computed once per system and shared by :meth:`enumerate_inputs`,
        reachability analysis, and the vectorized kernel — the old code
        regenerated the full grid of dicts for every visited state.
        """
        if self._input_grid is None:
            if not self._input_names:
                self._input_grid = ((),)
            else:
                ranges = [
                    range(self._model.signals[name].max_value + 1)
                    for name in self._input_names
                ]
                self._input_grid = tuple(itertools.product(*ranges))
        return self._input_grid

    def input_dicts(self) -> List[Dict[str, int]]:
        """The input grid as shared name->value dicts (do not mutate)."""
        if self._input_dicts is None:
            names = self._input_names
            self._input_dicts = [dict(zip(names, combo)) for combo in self.input_grid]
        return self._input_dicts

    def enumerate_inputs(self) -> Iterator[Dict[str, int]]:
        """Yield every input valuation (clock excluded).

        The yielded dicts are shared, precomputed instances; treat them as
        read-only.  Systems whose input space is not enumerable fall back to
        a lazy product so callers can still stream a prefix without
        materialising the grid.
        """
        if not self.can_enumerate_inputs:
            names = self._input_names
            ranges = [
                range(self._model.signals[name].max_value + 1) for name in names
            ]
            for combo in itertools.product(*ranges):
                yield dict(zip(names, combo))
            return
        yield from self.input_dicts()

    # -- observation (step projection) ------------------------------------------

    def observe(self, names) -> None:
        """Restrict step environments to ``names`` (plus state/inputs).

        The FPV engine calls this with the union of signals its current
        assertion batch references, so the successor memo stores a handful
        of values per transition instead of a full environment.  Widening the
        observation set drops every memoised row (their environments are
        too narrow); narrowing it is a no-op.
        """
        wanted = (frozenset(names) & frozenset(self._model.signals)) | frozenset(
            self._state_names
        ) | frozenset(self._input_names)
        if self._observed is not None and wanted <= self._observed:
            return
        if self._observed is None:
            self._observed = wanted
        else:
            self._observed = self._observed | wanted
        self._rows.clear()
        self._rows_held = 0

    @property
    def observed_signals(self) -> Optional[frozenset]:
        return self._observed

    # -- image computation ----------------------------------------------------------

    def settle(self, state: State, inputs: Dict[str, int]) -> Dict[str, int]:
        """Return the full settled environment for (state, inputs)."""
        env = {name: 0 for name in self._model.signals}
        env.update(self.state_dict(state))
        for name, value in inputs.items():
            env[name] = value & self._model.signals[name].mask
        for clock in self._model.clocks:
            if clock in env:
                env[clock] = 0
        self._settle_comb(env)
        return env

    def step(self, state: State, inputs: Dict[str, int]) -> TransitionStep:
        """Compute the settled environment and the post-clock next state.

        One uncached transition, projected to the observed signal set (see
        :meth:`observe`), for one-off callers.  Sweeps over every input
        valuation of a state use the memoised :meth:`successors` instead.
        """
        return self._project(self._compute_step(state, inputs))

    def successors(self, state: State) -> SuccessorRow:
        """Every transition out of ``state``, in :attr:`input_grid` order.

        Rows are memoised per state: the FPV engine revisits the same states
        many times while checking a batch of assertions.  Environments are
        projected to the observed signal set (see :meth:`observe`), and a
        memo holding more than its limit of transitions evicts its oldest
        eighth of states.  Only call this on systems whose inputs can be
        enumerated.
        """
        row = self._rows.get(state)
        if row is not None:
            self._row_hits += 1
            return row
        self._row_misses += 1
        steps: List[TransitionStep] = []
        error = None
        try:
            for inputs in self.input_dicts():
                steps.append(self._project(self._compute_step(state, inputs)))
        except HdlError as exc:  # EvalError included
            error = exc.with_traceback(None)
        row = SuccessorRow(steps, error)
        held = len(row)
        if held <= self._rows_limit:
            while self._rows_held + held > self._rows_limit:
                evict = max(1, len(self._rows) // _EVICTION_FRACTION)
                for old in list(itertools.islice(self._rows, evict)):
                    self._rows_held -= len(self._rows.pop(old))
            self._rows[state] = row
            self._rows_held += held
        return row

    def step_cache_info(self) -> Dict[str, int]:
        """Size/limit/hit-rate snapshot of the successor memo.

        ``entries`` counts the transitions the memoised rows hold; ``hits``
        and ``misses`` count rows served from the memo and rows computed.
        """
        return {
            "entries": self._rows_held,
            "limit": self._rows_limit,
            "hits": self._row_hits,
            "misses": self._row_misses,
            "env_signals": (
                len(self._observed)
                if self._observed is not None
                else len(self._model.signals)
            ),
        }

    def _project(self, step: TransitionStep) -> TransitionStep:
        if self._observed is None:
            return step
        env = step.env
        return TransitionStep(
            env={name: env[name] for name in self._observed if name in env},
            next_state=step.next_state,
        )

    def _compute_step(self, state: State, inputs: Dict[str, int]) -> TransitionStep:
        env = self.settle(state, inputs)
        next_values: Dict[str, int] = {}
        for process in self._model.seq_processes:
            self._executor.run_sequential(
                process.body, env, next_values, targets=process.targets
            )
        next_state_values = dict(zip(self._state_names, state))
        for name in self._state_names:
            if name in next_values:
                next_state_values[name] = next_values[name]
        return TransitionStep(env=env, next_state=self.encode_state(next_state_values))

    def _settle_comb(self, env: Dict[str, int], max_iterations: int = 64) -> None:
        # Combinational loops are rejected at simulation time; the engine treats
        # a non-settling design conservatively by keeping the last environment.
        self._settler.run(env, max_iterations)


@dataclass
class ReachabilityResult:
    """Result of (possibly bounded) reachable-state enumeration."""

    states: List[State]
    complete: bool
    frontier_exhausted: bool
    transitions_explored: int

    @property
    def count(self) -> int:
        return len(self.states)


def enumerate_reachable(
    system: TransitionSystem,
    max_states: int = 20000,
    max_transitions: int = 2_000_000,
) -> ReachabilityResult:
    """Breadth-first reachable-state enumeration from the initial state.

    Exploration is exact (every input valuation) when the input space is small
    enough to enumerate; otherwise the result is marked incomplete and the
    caller should fall back to simulation-based checking.  Systems with a
    vectorized kernel run the BFS as batched array ops; the discovery order,
    transition counts, and truncation points are identical to the scalar
    walk.
    """
    if not system.can_enumerate_inputs:
        return ReachabilityResult(
            states=[system.initial_state()],
            complete=False,
            frontier_exhausted=False,
            transitions_explored=0,
        )

    kernel = system.vector_kernel()
    if kernel is not None and getattr(kernel, "packable", True):
        return _enumerate_reachable_vectorized(
            system, kernel, max_states, max_transitions
        )

    initial = system.initial_state()
    visited = {initial}
    order: List[State] = [initial]
    frontier: List[State] = [initial]
    transitions = 0
    complete = True
    positions = range(len(system.input_grid))

    while frontier:
        next_frontier: List[State] = []
        for state in frontier:
            row = system.successors(state)
            for position in positions:
                transitions += 1
                if transitions > max_transitions:
                    return ReachabilityResult(order, False, False, transitions)
                next_state = row.at(position).next_state
                if next_state not in visited:
                    visited.add(next_state)
                    order.append(next_state)
                    next_frontier.append(next_state)
                    if len(order) >= max_states:
                        return ReachabilityResult(order, False, False, transitions)
        frontier = next_frontier

    return ReachabilityResult(order, complete, True, transitions)


#: Below this many lanes a kernel call's per-op dispatch overhead exceeds the
#: scalar step cost; chain-like state spaces (LFSRs, counters) whose frontier
#: is one or two states run those slices through the memoised scalar rows.
_BFS_MIN_VECTOR_LANES = 64
#: Widest packed state whose visited store is a dense boolean array.
_DENSE_VISITED_BITS = 24
#: Rough bytes per state of the set-based visited store (slot + int object).
_SET_VISITED_BYTES = 64


def walk_rounds(
    initial: int,
    num_inputs: int,
    state_bits: int,
    max_states: int,
    max_transitions: int,
) -> Generator[List[int], "np.ndarray", Tuple[List[int], bool, int]]:
    """Wave BFS over packed states, order-identical to the scalar walk.

    A generator: it yields each frontier chunk (a list of packed states)
    and must be sent that chunk's flat next-state array — ``num_inputs``
    packed next states per chunk state, in chunk order.  Its return value
    (``StopIteration.value``) is the scalar walk's ``(order, complete,
    transitions explored)``.  The generator owns the visited set (a dense
    array at ≤ 24 state bits), the discovery order, the chunking (whole
    states, at most :data:`~repro.sim.vector.LANE_BUDGET` lanes per chunk
    where a state's row fits), and both truncation points, so every packed
    BFS — one design's through :func:`walk`, and the family members' delta
    walks, advanced in lockstep one chunk per round — explores identically.
    """
    import numpy as np

    from ..sim.vector import rows_per_call

    if state_bits <= _DENSE_VISITED_BITS:
        visited = np.zeros(1 << state_bits, dtype=bool)
        visited[initial] = True

        def unseen(flat):
            return ~visited[flat]

        def mark(value: int) -> None:
            visited[value] = True
    else:
        seen = {initial}

        def unseen(flat):
            return np.fromiter(
                (value not in seen for value in flat.tolist()),
                dtype=bool,
                count=len(flat),
            )

        mark = seen.add
    order: List[int] = [initial]
    frontier: List[int] = [initial]
    transitions = 0
    chunk_states = rows_per_call(num_inputs)

    while frontier:
        next_frontier: List[int] = []
        for start in range(0, len(frontier), chunk_states):
            chunk = frontier[start : start + chunk_states]
            lanes = len(chunk) * num_inputs
            allowed = max_transitions - transitions
            truncated = allowed < lanes
            flat = yield chunk
            if truncated:
                flat = flat[:allowed]
            new_mask = unseen(flat)
            if new_mask.any():
                positions = np.nonzero(new_mask)[0]
                candidates = flat[positions]
                _, first_index = np.unique(candidates, return_index=True)
                for k in np.sort(first_index).tolist():
                    value = int(candidates[k])
                    mark(value)
                    order.append(value)
                    next_frontier.append(value)
                    if len(order) >= max_states:
                        # Same return point as the scalar walk: the pair that
                        # discovered the capping state.
                        return order, False, transitions + int(positions[k]) + 1
            if truncated:
                return order, False, max_transitions + 1
            transitions += lanes
        frontier = next_frontier
    return order, True, transitions


def visited_bytes(state_bits: int, max_states: int) -> int:
    """Upper bound on the bytes of one :func:`walk_rounds` visited store."""
    if state_bits <= _DENSE_VISITED_BITS:
        return 1 << state_bits
    return max_states * _SET_VISITED_BYTES


def walk(
    initial: int,
    successors: Callable[[List[int]], "np.ndarray"],
    num_inputs: int,
    state_bits: int,
    max_states: int,
    max_transitions: int,
) -> Tuple[List[int], bool, int]:
    """:func:`walk_rounds` driven by ``successors(chunk)``, one chunk at a time."""
    rounds = walk_rounds(initial, num_inputs, state_bits, max_states, max_transitions)
    chunk = next(rounds)  # the frontier starts non-empty
    while True:
        flat = successors(chunk)
        try:
            chunk = rounds.send(flat)
        except StopIteration as stop:
            return stop.value


def _enumerate_reachable_vectorized(
    system: TransitionSystem,
    kernel,
    max_states: int,
    max_transitions: int,
) -> ReachabilityResult:
    """Array-oriented BFS: :func:`walk` over the design's kernel."""
    import numpy as np

    pack_state = kernel.pack_state
    unpack_state = kernel.unpack_state
    grid = system.input_grid
    num_inputs = len(grid)
    packed_grid = kernel.pack_input_grid(grid)

    def successors(chunk: List[int]) -> np.ndarray:
        if len(chunk) * num_inputs < _BFS_MIN_VECTOR_LANES:
            # Tiny frontier: per-op kernel dispatch would cost more than
            # the memoised scalar rows.  Same rows, same order.
            flat: List[int] = []
            for packed in chunk:
                row = system.successors(unpack_state(packed))
                flat.extend(
                    pack_state(row.at(position).next_state) for position in range(num_inputs)
                )
            return np.asarray(flat, dtype=np.int64)
        states_rep = np.repeat(np.asarray(chunk, dtype=np.int64), num_inputs)
        _, next_packed = kernel.step_packed(
            states_rep, np.tile(packed_grid, len(chunk))
        )
        return next_packed

    order, complete, transitions = walk(
        pack_state(system.initial_state()),
        successors,
        num_inputs,
        sum(kernel.state_widths),
        max_states,
        max_transitions,
    )
    return ReachabilityResult(
        states=[unpack_state(packed) for packed in order],
        complete=complete,
        frontier_exhausted=complete,
        transitions_explored=transitions,
    )
