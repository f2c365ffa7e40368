"""One lane budget bounds every chunked kernel call, and no output depends on it.

:data:`repro.sim.vector.LANE_BUDGET` caps the lanes of each batched kernel
call that splits a large batch: dense table rows (``step_rows``), packed BFS
chunks (``walk_rounds``), the semantic filter's reachable-space sweep (split
along states *and* family members) and flat settles of cycle-independent
traces.  Lanes are independent, so every result must equal the default
budget's under tiny budgets that force every split, on the SoA and the
multi-limb lowerings alike.  A spy checks that no chunked call holds more
lanes than the budget, unless a single row is itself wider.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.corpus import get_corpus
from repro.core.scheduler import SchedulerConfig, VerificationService
from repro.fpv.engine import EngineConfig
from repro.fpv.table import step_rows
from repro.fpv.transition import TransitionSystem, enumerate_reachable, walk
from repro.hdl import ast
from repro.mining import mine_verified_assertions
from repro.mutate.operators import enumerate_mutants
from repro.mutate.semantic import SemanticContext
from repro.sim import vector
from repro.sim.limb import MultiLimbKernel
from repro.sim.stimulus import RandomStimulus, ResetSequenceStimulus
from repro.sim.vector import GOLDEN_MEMBER, MUTANT_COLUMN, VectorKernel, lower_family

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mutate"))
import per_mutant  # noqa: E402

#: Tiny budgets: one lane, a width that divides no input grid, and a few rows.
BUDGETS = [1, 7, 64]

#: Corpus of each design used here that the mutation corpus does not hold.
_CORPUS_OF = {
    "decoder64": "assertionbench",
    "barrel_shifter8": "assertionbench",
    "wide_cmp80": "assertionbench-wide",
}


def _design(name):
    return get_corpus(_CORPUS_OF.get(name, "assertionbench-mutation")).design(name)


def _family(design, limit=10):
    candidates, _ = enumerate_mutants(design, semantic_filter=False, limit=limit)
    lowering = lower_family(design.model, [c.design.model for c in candidates])
    assert lowering is not None
    members = [GOLDEN_MEMBER] + [lowering.member_ids[p] for p in lowering.accepted()]
    assert len(members) > 2, design.name
    return candidates, lowering, members


@pytest.fixture
def step_spy(monkeypatch):
    """Lane count and distinct member count of every ``step_packed`` call."""
    calls = []
    step_packed = VectorKernel.step_packed

    def spy(self, states, inputs, members=None):
        distinct = 1 if members is None else len(np.unique(members))
        calls.append((len(states), distinct))
        return step_packed(self, states, inputs, members)

    monkeypatch.setattr(VectorKernel, "step_packed", spy)
    return calls


def _set_budget(monkeypatch, budget):
    monkeypatch.setattr(vector, "LANE_BUDGET", budget)


def _assert_within_budget(calls, budget, row_width):
    assert calls
    assert max(lanes for lanes, _ in calls) <= max(budget, row_width), (budget, row_width)


# ---------------------------------------------------------------------------
# Dense table rows
# ---------------------------------------------------------------------------


def _table_inputs(name, kind):
    design = _design(name)
    system = TransitionSystem(design, backend="compiled")
    states = enumerate_reachable(system).states
    model = design.model
    exprs = [assign.value for assign in model.assigns]
    exprs += [ast.Identifier(reg) for reg in model.state_regs]
    if kind == "family":
        _, lowering, members = _family(design, limit=6)
        kernel = lowering.kernel
        packed = np.asarray([kernel.pack_state(s) for s in states], dtype=np.int64)
        member_col = np.repeat(np.asarray(members, dtype=np.int64), len(packed))
        packed = np.tile(packed, len(members))
    else:
        kernel = VectorKernel(model) if kind == "soa" else MultiLimbKernel(model)
        packed = np.asarray([kernel.pack_state(s) for s in states], dtype=np.int64)
        member_col = None
    return kernel, packed, kernel.pack_input_grid(system.input_grid), exprs, member_col


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "name, kind",
    [("watchdog4", "soa"), ("watchdog4", "multilimb"), ("counter", "family")],
)
def test_step_rows_match_default_budget(monkeypatch, step_spy, name, kind, budget):
    kernel, packed, grid, exprs, members = _table_inputs(name, kind)
    next_ref, truths_ref = step_rows(kernel, packed, grid, exprs, members)
    _set_budget(monkeypatch, budget)
    step_spy.clear()
    next_rows, truths = step_rows(kernel, packed, grid, exprs, members)
    assert np.array_equal(next_rows, next_ref)
    for expr in exprs:
        assert np.array_equal(truths[expr], truths_ref[expr]), expr
    _assert_within_budget(step_spy, budget, len(grid))
    assert len(step_spy) > 1


# ---------------------------------------------------------------------------
# Packed BFS
# ---------------------------------------------------------------------------


def _kernel_walk(kernel, system, max_states, max_transitions):
    """:func:`walk` stepped by ``kernel`` alone (no tiny-frontier scalar rows)."""
    grid = kernel.pack_input_grid(system.input_grid)

    def successors(chunk):
        states = np.repeat(np.asarray(chunk, dtype=np.int64), len(grid))
        return kernel.step_packed(states, np.tile(grid, len(chunk)))[1]

    return walk(
        kernel.pack_state(system.initial_state()),
        successors,
        len(grid),
        sum(kernel.state_widths),
        max_states,
        max_transitions,
    )


def _caps(system):
    """Default caps, and caps that truncate mid-walk on a state and on a
    transition count that is no multiple of the input grid."""
    full = enumerate_reachable(system)
    assert full.complete
    count, inputs = full.count, system.input_space_size
    return [
        (1024, 40_000),
        (count // 2 + 1, 40_000),
        (1024, (count * inputs) // 2 + 3),
    ]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "name, kind",
    [("gray_counter6", "soa"), ("debouncer3", "multilimb"), ("watchdog4", "soa")],
)
def test_walk_matches_default_budget(monkeypatch, step_spy, name, kind, budget):
    design = _design(name)
    system = TransitionSystem(design, backend="compiled")
    kernel = VectorKernel(design.model) if kind == "soa" else MultiLimbKernel(design.model)
    caps = _caps(system)
    reference = [_kernel_walk(kernel, system, *cap) for cap in caps]
    assert any(not complete for _, complete, _ in reference)
    _set_budget(monkeypatch, budget)
    step_spy.clear()
    for cap, expected in zip(caps, reference):
        order, complete, transitions = _kernel_walk(kernel, system, *cap)
        assert (order, complete, transitions) == expected, cap
        scalar = enumerate_reachable(system, max_states=cap[0], max_transitions=cap[1])
        assert [kernel.unpack_state(packed) for packed in order] == scalar.states
        assert (complete, transitions) == (scalar.complete, scalar.transitions_explored)
    _assert_within_budget(step_spy, budget, system.input_space_size)


@pytest.mark.parametrize("budget", BUDGETS)
def test_vectorized_reachability_matches_default_budget(monkeypatch, budget):
    design = _design("updown_counter4")
    system = TransitionSystem(design, backend="vectorized")
    caps = [(1024, 40_000), (9, 40_000), (1024, 16 * 256 // 2 + 3)]
    reference = [enumerate_reachable(system, max_states=s, max_transitions=t) for s, t in caps]
    _set_budget(monkeypatch, budget)
    for (states, transitions), expected in zip(caps, reference):
        result = enumerate_reachable(
            TransitionSystem(design, backend="vectorized"),
            max_states=states,
            max_transitions=transitions,
        )
        assert result == expected


# ---------------------------------------------------------------------------
# The semantic filter's reachable-space sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "name", ["seq_detect_110", "mod6_counter", "updown_counter4", "decoder64"]
)
def test_semantic_differences_match_default_budget(monkeypatch, step_spy, name, budget):
    design = _design(name)
    candidates, _, members = _family(design, limit=12)
    mutants = [candidate.design for candidate in candidates]
    reference = SemanticContext(design).differences(mutants)
    assert any(witness is not None for witness in reference)
    if name in ("seq_detect_110", "mod6_counter"):
        # Some witnesses lie past the first state chunk of a tiny budget.
        system = TransitionSystem(design)
        initial = system.state_dict(system.initial_state())
        assert any(w is not None and w.state != initial for w in reference)
    default_group = max(distinct for _, distinct in step_spy)
    context = SemanticContext(design)
    _set_budget(monkeypatch, budget)
    step_spy.clear()
    assert context.differences(mutants) == reference
    _assert_within_budget(step_spy, budget, context._system.input_space_size)
    # The family was split along members, not only along states; at the
    # default budget too, for updown_counter4 (16 states x 256 inputs).
    assert max(distinct for _, distinct in step_spy) < default_group
    if name == "updown_counter4":
        assert default_group < len(members) - 1


# ---------------------------------------------------------------------------
# Flat settles of cycle-independent traces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", BUDGETS + [2 * 2 * 24 + 5])
@pytest.mark.parametrize("name", ["barrel_shifter8", "wide_cmp80"])
def test_flat_simulate_batch_matches_default_budget(monkeypatch, name, budget):
    design = _design(name)
    _, lowering, members = _family(design, limit=6)
    stimuli = [
        ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2) for seed in range(2)
    ]
    cycles = 24
    reference = lowering.kernel.family_simulate(members, stimuli, cycles)
    settles = []
    settle = lowering.kernel.settle

    def counting(env, *args):
        assert MUTANT_COLUMN in env
        settles.append(lowering.kernel.env_lanes(env))
        return settle(env, *args)

    monkeypatch.setattr(lowering.kernel, "settle", counting)
    _set_budget(monkeypatch, budget)
    traces = lowering.kernel.family_simulate(members, stimuli, cycles)
    assert [[t.data for t in row] for row in traces] == [
        [t.data for t in row] for row in reference
    ]
    assert max(settles) <= max(budget, len(stimuli) * cycles)
    assert len(settles) > 1


# ---------------------------------------------------------------------------
# Family verification against the per-mutant oracle
# ---------------------------------------------------------------------------

_ENGINE = EngineConfig(
    max_states=1024,
    max_transitions=60_000,
    max_input_bits=8,
    max_state_bits=12,
    max_path_evaluations=60_000,
    fallback_cycles=96,
    fallback_seeds=2,
    backend="vectorized",
)


@pytest.fixture(scope="module")
def family_jobs():
    jobs = []
    for name in ["counter", "debouncer3", "updown_counter4"]:
        design = _design(name)
        texts = [a.to_sva(include_assert=True) for a in mine_verified_assertions(design)[:4]]
        mutants, _ = enumerate_mutants(design, limit=6)
        jobs.append((design, mutants, texts))
    return jobs


@pytest.mark.parametrize("budget", BUDGETS)
def test_check_families_match_per_mutant_oracle(monkeypatch, family_jobs, budget):
    with VerificationService(SchedulerConfig(engine=_ENGINE, workers=1)) as service:
        reference = per_mutant.check_families(service, family_jobs)
    _set_budget(monkeypatch, budget)
    with VerificationService(SchedulerConfig(engine=_ENGINE, workers=1)) as service:
        family = service.check_families(family_jobs)
    assert family == reference
    assert sum(len(verdicts) for job in family for verdicts in job) > 50
