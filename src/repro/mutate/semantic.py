"""Semantic difference detection between a golden design and a mutant.

Mutation analysis is only meaningful over mutants that *can* be killed: a
mutant that no longer elaborates is stillborn, and a mutant that is
semantically equivalent to the golden design (the mutation landed on dead or
redundant logic) would count as "survived" against every assertion and
silently depress kill rates.  :func:`semantic_difference` is the filter the
operator library runs on every candidate: it returns a concrete
:class:`DifferenceWitness` — a reachable state and input assignment (or a
stimulus cycle) on which the two designs disagree — or ``None`` when no
difference is detectable.

Two strategies, mirroring the FPV engine's proof strategies:

* **Reachable-state sweep** — when the golden design's input space is
  enumerable and its reachable set fits the caps, both designs are stepped
  from every golden-reachable state under every input vector and compared
  signal-by-signal (settled environment *and* next state).  Finding no
  difference here is a complete equivalence argument over the golden
  design's reachable space, because both machines start from the same
  initial state and agree on every transition out of every reachable state.
* **Lockstep simulation** — beyond those caps, both designs run the same
  constrained-random stimulus (identical seeds, reset sequence) and their
  traces are compared cycle-by-cycle.  No difference within the bounded run
  means the candidate is *treated* as equivalent (the standard conservative
  choice in mutation analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..fpv.transition import TransitionSystem, enumerate_reachable
from ..hdl.design import Design
from ..sim.compile import VECTORIZED
from ..sim.simulator import Simulator
from ..sim.stimulus import RandomStimulus, ResetSequenceStimulus
from ..sim.trace import Trace

__all__ = [
    "DifferenceWitness",
    "SemanticContext",
    "WITNESS_CYCLES",
    "semantic_difference",
    "witness_stimulus",
]

#: Bounded lockstep-simulation budget of the semantic filter.  The constants
#: and the stimulus recipe below are the single source of truth for
#: replaying a witness trace.
WITNESS_CYCLES = 96
WITNESS_RESET_CYCLES = 2
WITNESS_SEEDS = 2

#: Caps of the reachable-state sweep: beyond them the filter falls back to
#: lockstep simulation.
SWEEP_MAX_STATES = 1024
SWEEP_MAX_TRANSITIONS = 40_000
SWEEP_BUDGET = 60_000


def witness_stimulus(seed: int) -> ResetSequenceStimulus:
    """The stimulus a difference witness's trace was recorded under."""
    return ResetSequenceStimulus(
        RandomStimulus(seed=seed), reset_cycles=WITNESS_RESET_CYCLES
    )


@dataclass(frozen=True)
class DifferenceWitness:
    """Where a mutant observably diverges from its golden design."""

    signal: str
    golden_value: int
    mutant_value: int
    method: str  # 'state-sweep' | 'simulation'
    #: Register assignment the divergence was observed from (state sweep).
    state: Dict[str, int] = field(default_factory=dict)
    #: Input assignment driving the diverging evaluation (state sweep).
    inputs: Dict[str, int] = field(default_factory=dict)
    #: Stimulus cycle of the divergence (simulation) — 0 for the sweep.
    cycle: int = 0
    #: Stimulus seed the divergence was observed under (simulation) — lets
    #: the witness trace be replayed (:func:`witness_stimulus`).
    seed: int = 0

    def describe(self) -> str:
        where = (
            f"cycle {self.cycle}"
            if self.method == "simulation"
            else f"state {self.state} inputs {self.inputs}"
        )
        return (
            f"{self.signal}: golden={self.golden_value} "
            f"mutant={self.mutant_value} at {where} [{self.method}]"
        )


class SemanticContext:
    """Per-golden-design state shared across every mutant comparison.

    A design typically spawns tens of mutants; the golden transition system,
    its reachable set, and its reference simulation traces are identical for
    all of them, so the context computes each exactly once.  Only the mutant
    side is rebuilt per comparison.
    """

    def __init__(self, golden: Design):
        self.golden = golden
        # The filter is backend-neutral (every backend enumerates the same
        # reachable set, bit for bit), so it always asks for the vectorized
        # walk; systems the lowering rejects — or a missing NumPy — fall
        # back to the scalar step transparently.
        self._system = TransitionSystem(golden, backend=VECTORIZED)
        self._reachability = None
        self._sweep_feasible = False
        if self._system.can_enumerate_inputs:
            reachability = enumerate_reachable(
                self._system, max_states=SWEEP_MAX_STATES, max_transitions=SWEEP_MAX_TRANSITIONS
            )
            budget = reachability.count * max(self._system.input_space_size, 1)
            if reachability.complete and budget <= SWEEP_BUDGET:
                self._reachability = reachability
                self._sweep_feasible = True
        self._golden_traces: Optional[List[Trace]] = None

    def difference(self, mutant: Design) -> Optional[DifferenceWitness]:
        """Find a reachable divergence of ``mutant`` from the golden design.

        Returns a :class:`DifferenceWitness`, or ``None`` when the two
        designs are equivalent on the golden design's reachable space
        (complete sweep) or indistinguishable within the bounded simulation
        budget.
        """
        if self._sweep_feasible:
            return self._sweep_difference(mutant)
        return self._simulation_difference(mutant)

    def differences(self, mutants: Sequence[Design]) -> List[Optional[DifferenceWitness]]:
        """:meth:`difference` for a whole candidate batch in one family sweep.

        Candidates that share the golden design's AST skeleton are lowered
        into one :class:`~repro.sim.vector.FamilyKernel` and compared against
        the golden design together — every (reachable state × input) pair,
        or every simulated cycle, for all of them in one batched kernel pass.
        The lockstep comparison batches only where
        :func:`~repro.sim.vector.batch_simulation_pays`.  Other candidates,
        and those the lowering rejects, run the scalar :meth:`difference`.
        Witnesses (signal, values, location, method) are bit-identical to
        the scalar comparison either way.
        """
        try:
            from ..sim.vector import batch_simulation_pays, lower_family
        except ImportError:  # pragma: no cover - numpy not installed
            return [self.difference(mutant) for mutant in mutants]

        lowering = None

        def lower():
            nonlocal lowering
            lowering = lower_family(self.golden.model, [mutant.model for mutant in mutants])
            accepted = lowering.accepted() if lowering is not None else []
            return (lowering.plan, len(accepted) * WITNESS_SEEDS) if accepted else None

        if self._sweep_feasible:  # the reachable-space sweep batches at any size
            pays = bool(mutants) and lower() is not None
        else:
            pays = batch_simulation_pays(self.golden.model, len(mutants) * WITNESS_SEEDS, lower)
        found: Dict[int, Optional[DifferenceWitness]] = {}
        if pays:
            accepted = lowering.accepted()
            batched = (
                self._sweep_differences_batched
                if self._sweep_feasible
                else self._simulation_differences_batched
            )(lowering, accepted)
            found = {position: batched.get(position) for position in accepted}
        return [
            found[position] if position in found else self.difference(mutant)
            for position, mutant in enumerate(mutants)
        ]

    def _sweep_differences_batched(self, lowering, accepted) -> Dict[int, DifferenceWitness]:
        """Complete reachable-space comparison of many mutants in one pass.

        States are split into chunks of whole input rows and each chunk's
        members into groups, so no kernel call holds more than
        :data:`~repro.sim.vector.LANE_BUDGET` lanes: the golden design is
        stepped once per state chunk, then every member group on the same
        lanes.  A member's witness is its first differing lane in (state,
        input) order, however the lanes are split.
        """
        import numpy as np

        from ..sim.vector import GOLDEN_MEMBER, rows_per_call

        kernel = lowering.kernel
        system = self._system
        states = self._reachability.states
        grid = system.input_grid
        num_inputs = len(grid)
        packed_states = np.asarray([kernel.pack_state(state) for state in states], dtype=np.int64)
        packed_grid = kernel.pack_input_grid(grid)
        input_dicts = system.input_dicts()
        signals = list(self.golden.model.signals)

        found: Dict[int, DifferenceWitness] = {}
        active = [(position, lowering.member_ids[position]) for position in accepted]
        chunk_states = rows_per_call(num_inputs)
        for start in range(0, len(states), chunk_states):
            if not active:
                break
            stop = min(start + chunk_states, len(states))
            lanes_per = (stop - start) * num_inputs
            states_rep = np.repeat(packed_states[start:stop], num_inputs)
            inputs_tiled = np.tile(packed_grid, stop - start)
            golden_env, golden_next = kernel.step_packed(
                states_rep, inputs_tiled, np.full(lanes_per, GOLDEN_MEMBER, dtype=np.int64)
            )
            group_size = rows_per_call(lanes_per)
            still_active = []
            for group_start in range(0, len(active), group_size):
                group = active[group_start : group_start + group_size]
                members = np.asarray([member for _, member in group], dtype=np.int64)
                env, nxt = kernel.step_packed(
                    np.tile(states_rep, len(group)),
                    np.tile(inputs_tiled, len(group)),
                    np.repeat(members, lanes_per),
                )
                for row, (position, member) in enumerate(group):
                    lo = row * lanes_per
                    diff_any = nxt[lo : lo + lanes_per] != golden_next
                    for signal in signals:
                        # Lanes are the last axis; multi-limb columns add a limb axis.
                        differs = env[signal][..., lo : lo + lanes_per] != golden_env[signal]
                        diff_any |= differs.reshape(-1, lanes_per).any(axis=0)
                    if not diff_any.any():
                        still_active.append((position, member))
                        continue
                    lane = int(np.argmax(diff_any))
                    golden_row = kernel.env_row(golden_env, lane, signals)
                    mutant_row = kernel.env_row(env, lo + lane, signals)
                    # The first differing signal, else the first differing
                    # register of the next state.
                    differences = [(name, golden_row[name], mutant_row[name]) for name in signals]
                    differences += zip(
                        kernel.state_names,
                        kernel.unpack_state(int(golden_next[lane])),
                        kernel.unpack_state(int(nxt[lo + lane])),
                    )
                    signal, golden_value, mutant_value = next(
                        difference for difference in differences if difference[1] != difference[2]
                    )
                    found[position] = DifferenceWitness(
                        signal=signal,
                        golden_value=golden_value,
                        mutant_value=mutant_value,
                        method="state-sweep",
                        state=system.state_dict(states[start + lane // num_inputs]),
                        inputs=dict(input_dicts[lane % num_inputs]),
                    )
            active = still_active
        return found

    def _simulation_differences_batched(
        self, lowering, accepted
    ) -> Dict[int, DifferenceWitness]:
        """Bounded lockstep comparison with all mutant traces in one batch."""
        stimuli = [self._stimulus(seed) for seed in range(WITNESS_SEEDS)]
        members = [lowering.member_ids[position] for position in accepted]
        member_traces = lowering.kernel.family_simulate(members, stimuli, WITNESS_CYCLES)
        found: Dict[int, DifferenceWitness] = {}
        for row, position in enumerate(accepted):
            for seed in range(WITNESS_SEEDS):
                golden_trace = self._golden_trace(seed)
                mutant_trace = member_traces[row][seed]
                witness = self._trace_difference(golden_trace, mutant_trace, seed)
                if witness is not None:
                    found[position] = witness
                    break
        return found

    def _trace_difference(
        self, golden_trace: Trace, mutant_trace: Trace, seed: int
    ) -> Optional[DifferenceWitness]:
        """First cycle-level divergence between two traces (scalar order)."""
        span = min(golden_trace.num_cycles, mutant_trace.num_cycles)
        for cycle in range(span):
            golden_row = golden_trace.row(cycle)
            mutant_row = mutant_trace.row(cycle)
            for signal, golden_value in golden_row.items():
                mutant_value = mutant_row.get(signal, 0)
                if golden_value != mutant_value:
                    return DifferenceWitness(
                        signal=signal,
                        golden_value=golden_value,
                        mutant_value=mutant_value,
                        method="simulation",
                        inputs={
                            name: mutant_row.get(name, 0)
                            for name in self.golden.model.non_clock_inputs
                        },
                        cycle=cycle,
                        seed=seed,
                    )
        return None

    # -- complete reachable-state sweep -----------------------------------------

    def _sweep_difference(self, mutant: Design) -> Optional[DifferenceWitness]:
        golden_system = self._system
        mutant_system = TransitionSystem(mutant)
        signals = list(self.golden.model.signals)
        for state in self._reachability.states:
            state_values = golden_system.state_dict(state)
            mutant_state = mutant_system.encode_state(state_values)
            golden_row = golden_system.successors(state)
            for position, inputs in enumerate(golden_system.input_dicts()):
                golden_step = golden_row.at(position)
                mutant_step = mutant_system.step(mutant_state, inputs)
                for signal in signals:
                    golden_value = golden_step.env.get(signal, 0)
                    mutant_value = mutant_step.env.get(signal, 0)
                    if golden_value != mutant_value:
                        return DifferenceWitness(
                            signal=signal,
                            golden_value=golden_value,
                            mutant_value=mutant_value,
                            method="state-sweep",
                            state=dict(state_values),
                            inputs=dict(inputs),
                        )
                golden_next = golden_system.state_dict(golden_step.next_state)
                mutant_next = mutant_system.state_dict(mutant_step.next_state)
                if golden_next != mutant_next:
                    signal = next(
                        name
                        for name, value in golden_next.items()
                        if mutant_next.get(name) != value
                    )
                    return DifferenceWitness(
                        signal=signal,
                        golden_value=golden_next[signal],
                        mutant_value=mutant_next.get(signal, 0),
                        method="state-sweep",
                        state=dict(state_values),
                        inputs=dict(inputs),
                    )
        return None

    # -- bounded lockstep simulation --------------------------------------------

    def _stimulus(self, seed: int) -> ResetSequenceStimulus:
        return witness_stimulus(seed)

    def _golden_trace(self, seed: int) -> Trace:
        if self._golden_traces is None:
            self._golden_traces = [
                Simulator(self.golden).run(cycles=WITNESS_CYCLES, stimulus=self._stimulus(s))
                for s in range(WITNESS_SEEDS)
            ]
        return self._golden_traces[seed]

    def _simulation_difference(self, mutant: Design) -> Optional[DifferenceWitness]:
        for seed in range(WITNESS_SEEDS):
            golden_trace = self._golden_trace(seed)
            mutant_trace = Simulator(mutant).run(
                cycles=WITNESS_CYCLES, stimulus=self._stimulus(seed)
            )
            witness = self._trace_difference(golden_trace, mutant_trace, seed)
            if witness is not None:
                return witness
        return None


def semantic_difference(golden: Design, mutant: Design) -> Optional[DifferenceWitness]:
    """One-shot wrapper over :class:`SemanticContext` for a single mutant."""
    return SemanticContext(golden).difference(mutant)
