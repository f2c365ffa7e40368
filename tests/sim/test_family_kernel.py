"""The family kernel is lane-for-lane identical to per-mutant kernels.

A :class:`FamilyKernel` lane carrying member id ``m`` must behave exactly
like the standalone :class:`VectorKernel` of that member's model — settled
environments, packed next states, and whole simulation traces — for every
member at once, under arbitrary (also unreachable) state/input patterns.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.corpus import get_corpus
from repro.mutate.operators import enumerate_mutants
from repro.sim import vector as vector_module
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus, ResetSequenceStimulus
from repro.sim.vector import (
    GOLDEN_MEMBER,
    VectorKernel,
    comb_cycle_independent,
    lower_family,
    pack_tuple,
)

_DESIGN_NAMES = [
    "counter", "updown_counter4", "mod6_counter", "seq_detect_110", "mux4_w2",
    # cycle-independent: family_simulate settles these as one flat batch
    "barrel_shifter8", "comparator8",
]

_CORPUS = get_corpus("assertionbench")


@pytest.fixture(scope="module")
def lowered_families():
    families = []
    for name in _DESIGN_NAMES:
        design = _CORPUS.design(name)
        mutants, _ = enumerate_mutants(design, limit=6)
        if not mutants:
            continue
        lowering = lower_family(design.model, [m.design.model for m in mutants])
        if lowering is None:
            continue
        families.append((design, mutants, lowering))
    assert families
    return families


def _random_lanes(kernel, rng, lanes):
    states = [
        pack_tuple([rng.randrange(1 << width) for width in kernel.state_widths],
                   kernel.state_widths)
        for _ in range(lanes)
    ]
    inputs = [
        pack_tuple([rng.randrange(1 << width) for width in kernel.input_widths],
                   kernel.input_widths)
        for _ in range(lanes)
    ]
    return np.asarray(states, dtype=np.int64), np.asarray(inputs, dtype=np.int64)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_family_step_matches_per_member_kernels(lowered_families, seed):
    rng = random.Random(seed)
    design, mutants, lowering = lowered_families[rng.randrange(len(lowered_families))]
    kernel = lowering.kernel
    states, inputs = _random_lanes(kernel, rng, lanes=16)

    env_golden, next_golden = kernel.step_packed(
        states, inputs, np.full(16, GOLDEN_MEMBER, dtype=np.int64)
    )
    solo_golden = VectorKernel(design.model)
    env_ref, next_ref = solo_golden.step_packed(states, inputs)
    assert np.array_equal(next_golden, next_ref)
    for name in design.model.signals:
        assert np.array_equal(env_golden[name], env_ref[name])

    position = rng.randrange(len(mutants))
    member = lowering.member_ids[position]
    if member is None:
        return
    env_member, next_member = kernel.step_packed(
        states, inputs, np.full(16, member, dtype=np.int64)
    )
    solo = VectorKernel(mutants[position].design.model)
    env_solo, next_solo = solo.step_packed(states, inputs)
    assert np.array_equal(next_member, next_solo)
    for name in design.model.signals:
        assert np.array_equal(env_member[name], env_solo[name])

    # A mixed-member batch resolves every lane to its own member.
    members = np.asarray(
        [member if lane % 2 else GOLDEN_MEMBER for lane in range(16)], dtype=np.int64
    )
    env_mixed, next_mixed = kernel.step_packed(states, inputs, members)
    expected_next = np.where(members == member, next_solo, next_ref)
    assert np.array_equal(next_mixed, expected_next)


def test_family_simulate_matches_scalar_simulator(lowered_families):
    for design, mutants, lowering in lowered_families:
        members, designs = [], []
        for position, mutant in enumerate(mutants):
            if lowering.member_ids[position] is not None:
                members.append(lowering.member_ids[position])
                designs.append(mutant.design)
        members = [GOLDEN_MEMBER] + members
        designs = [design] + designs
        stimuli = [
            ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2)
            for seed in range(2)
        ]
        traces = lowering.kernel.family_simulate(members, stimuli, cycles=24)
        for row, member_design in enumerate(designs):
            for seed in range(2):
                reference = Simulator(member_design).run(
                    cycles=24,
                    stimulus=ResetSequenceStimulus(
                        RandomStimulus(seed=seed), reset_cycles=2
                    ),
                )
                batched = traces[row][seed]
                for cycle in range(24):
                    assert batched.row(cycle) == reference.row(cycle)


# ---------------------------------------------------------------------------
# The flat path: cycle-independent families settle as one batch
# ---------------------------------------------------------------------------

_STIMULI = [
    ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2) for seed in range(2)
]


def _family_members(name, limit=6):
    design = _CORPUS.design(name)
    mutants, _ = enumerate_mutants(design, limit=limit)
    lowering = lower_family(design.model, [m.design.model for m in mutants])
    assert lowering is not None
    members, designs = [GOLDEN_MEMBER], [design]
    for position, mutant in enumerate(mutants):
        if lowering.member_ids[position] is not None:
            members.append(lowering.member_ids[position])
            designs.append(mutant.design)
    assert len(members) > 2, name
    return lowering, members, designs


def _assert_matches_scalar(traces, designs, cycles):
    for row, member_design in enumerate(designs):
        for seed, stimulus in enumerate(_STIMULI):
            reference = Simulator(member_design, backend="compiled").run(
                cycles=cycles, stimulus=stimulus
            )
            assert traces[row][seed].data == reference.data, (member_design.name, seed)


def _count_settles(monkeypatch, kernel):
    calls = []
    settle = kernel.settle

    def counting(env, *args):
        calls.append(kernel.env_lanes(env))
        return settle(env, *args)

    monkeypatch.setattr(kernel, "settle", counting)
    return calls


def test_cycle_independent_family_settles_once_per_member_chunk(monkeypatch):
    lowering, members, designs = _family_members("barrel_shifter8")
    calls = _count_settles(monkeypatch, lowering.kernel)
    lowering.kernel.family_simulate(members, _STIMULI, cycles=24)
    assert calls == [len(members) * len(_STIMULI) * 24]


@pytest.mark.parametrize("cap_members, per_chunk", [(0.5, 1), (2.5, 2)])
def test_flat_lane_cap_chunks_by_whole_members(monkeypatch, cap_members, per_chunk):
    lowering, members, designs = _family_members("barrel_shifter8")
    cycles = 24
    per_member = len(_STIMULI) * cycles
    # A cap below one member's lanes still settles that member whole.
    monkeypatch.setattr(vector_module, "LANE_BUDGET", int(cap_members * per_member))
    calls = _count_settles(monkeypatch, lowering.kernel)
    traces = lowering.kernel.family_simulate(members, _STIMULI, cycles)
    chunks = [members[i : i + per_chunk] for i in range(0, len(members), per_chunk)]
    assert calls == [len(chunk) * per_member for chunk in chunks]
    _assert_matches_scalar(traces, designs, cycles)


def test_always_star_family_matches_on_stepped_path(monkeypatch):
    lowering, members, designs = _family_members("mux4_w2")
    assert designs[0].model.comb_processes
    assert not comb_cycle_independent(designs[0].model)
    calls = _count_settles(monkeypatch, lowering.kernel)
    traces = lowering.kernel.family_simulate(members, _STIMULI, cycles=24)
    # One initial settle, then one per cycle over member x stimulus lanes.
    assert calls == [len(members) * len(_STIMULI)] * 25
    _assert_matches_scalar(traces, designs, 24)
