"""Family-batched verification is bit-identical to the per-mutant path.

``check_family`` must be semantically invisible: for every mutant of every
design, the family sweep's :class:`ProofResult`s — status, reason, engine,
completeness, explored-state counts, and counterexample cycles — equal what
a standalone :class:`FormalEngine` produces for that mutant alone, and the
delta-reachability walk reproduces the mutant's own BFS exactly.  Families
that cannot ride the kernel (compiled backend, foreign members) must fall
back without changing a single verdict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.corpus import get_corpus
from repro.fpv.engine import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    reachability_key,
)
from repro.fpv import incremental
from repro.fpv.incremental import FamilyStats, check_family
from repro.fpv.transition import TransitionSystem, enumerate_reachable, walk
from repro.hdl.design import Design
from repro.mining import mine_verified_assertions
from repro.mutate.operators import enumerate_mutants
from repro.mutate.semantic import semantic_difference
from repro.sim import vector
from repro.sim.vector import lower_family

_ENGINE = EngineConfig(
    max_states=2048,
    max_transitions=120_000,
    max_input_bits=10,
    max_state_bits=14,
    max_path_evaluations=120_000,
    fallback_cycles=128,
    fallback_seeds=2,
    backend="vectorized",
)

_DESIGN_NAMES = [
    "d_flip_flop",
    "counter",
    "updown_counter4",
    "mod6_counter",
    "seq_detect_110",
    "gray_counter4",
]


def _proof_key(proof):
    cex = None
    if proof.counterexample is not None:
        cex = (
            tuple(tuple(sorted(cycle.items())) for cycle in proof.counterexample.cycles),
            proof.counterexample.trigger_cycle,
            proof.counterexample.failed_term,
        )
    return (
        proof.status,
        proof.design_name,
        proof.reason,
        proof.engine,
        proof.complete,
        proof.states_explored,
        proof.depth,
        cex,
    )


@pytest.fixture(scope="module")
def corpus():
    return get_corpus("assertionbench-mutation")


@pytest.fixture(scope="module")
def families(corpus):
    built = []
    for name in _DESIGN_NAMES:
        design = corpus.design(name)
        mined = mine_verified_assertions(design)
        texts = [assertion.to_sva(include_assert=True) for assertion in mined[:5]]
        mutants, _ = enumerate_mutants(design, limit=8)
        if texts and mutants:
            built.append((design, mutants, texts))
    assert built, "corpus produced no verifiable families"
    return built


def test_family_verdicts_bit_identical_over_corpus(families):
    compared = 0
    for design, mutants, texts in families:
        cache = ReachabilityCache()
        family = check_family(
            design,
            [mutant.design for mutant in mutants],
            texts,
            _ENGINE,
            cache,
        )
        for mutant, verdicts in zip(mutants, family):
            solo = FormalEngine(mutant.design, _ENGINE).check_batch(texts)
            for family_proof, solo_proof in zip(verdicts, solo):
                assert _proof_key(family_proof) == _proof_key(solo_proof)
                compared += 1
    assert compared > 50


def _golden_walk(design, max_states, max_transitions):
    system = TransitionSystem(
        design, max_input_bits=_ENGINE.max_input_bits, backend="compiled"
    )
    return enumerate_reachable(
        system, max_states=max_states, max_transitions=max_transitions
    )


#: Caps derived from each golden design's own complete BFS: the golden walk
#: still completes (so members take the delta path), while any member that
#: reaches more states or needs more transitions truncates — on its first
#: extra state, three transitions into its first extra row, or exactly on
#: the row boundary where the golden walk ends (a multiple of the grid).
_DELTA_CAPS = {
    "engine-caps": lambda golden: (_ENGINE.max_states, _ENGINE.max_transitions),
    "states+1": lambda golden: (golden.count + 1, _ENGINE.max_transitions),
    "transitions+3": lambda golden: (
        _ENGINE.max_states, golden.transitions_explored + 3
    ),
    "row-boundary": lambda golden: (
        _ENGINE.max_states, golden.transitions_explored
    ),
}


@pytest.mark.parametrize("caps", sorted(_DELTA_CAPS))
def test_delta_reachability_matches_per_mutant_bfs(families, caps):
    truncated = 0
    for design, mutants, texts in families:
        golden = _golden_walk(design, _ENGINE.max_states, _ENGINE.max_transitions)
        if not golden.complete:
            continue
        max_states, max_transitions = _DELTA_CAPS[caps](golden)
        config = EngineConfig(
            **{
                **vars(_ENGINE),
                "max_states": max_states,
                "max_transitions": max_transitions,
            }
        )
        assert _golden_walk(design, max_states, max_transitions).complete
        cache = ReachabilityCache()
        check_family(
            design,
            [mutant.design for mutant in mutants],
            texts,
            config,
            cache,
        )
        entries = cache.entries()
        checked = 0
        for mutant in mutants:
            key = reachability_key(mutant.design, config)
            if key not in entries:
                continue  # simulation-only member: no BFS on either path
            mutant_system = TransitionSystem(
                mutant.design, max_input_bits=config.max_input_bits, backend="compiled"
            )
            scalar = enumerate_reachable(
                mutant_system,
                max_states=config.max_states,
                max_transitions=config.max_transitions,
            )
            delta = entries[key]
            assert delta.states == scalar.states
            assert delta.complete == scalar.complete
            assert delta.frontier_exhausted == scalar.frontier_exhausted
            assert delta.transitions_explored == scalar.transitions_explored
            checked += 1
            truncated += not scalar.complete
        assert checked
    if caps != "engine-caps":
        assert truncated, "no member walk truncated under these caps"


def _per_member_escape_states(design, golden_states, config):
    """Escape states one member's own :func:`walk` expands: frontier states
    outside the golden reachable set, counted as each chunk is stepped."""
    system = TransitionSystem(
        design, max_input_bits=config.max_input_bits, backend="compiled"
    )
    ids, states = {}, []

    def intern(state):
        if state not in ids:
            ids[state] = len(states)
            states.append(state)
        return ids[state]

    inputs = system.input_dicts()
    escapes = 0

    def successors(chunk):
        nonlocal escapes
        escapes += sum(states[i] not in golden_states for i in chunk)
        return np.asarray(
            [intern(system.step(states[i], d).next_state) for i in chunk for d in inputs],
            dtype=np.int64,
        )

    # Interned ids are not packed states: > 24 bits selects the set-based
    # visited store, which accepts any int.
    walk(intern(system.initial_state()), successors, len(inputs), 64,
         config.max_states, config.max_transitions)
    return escapes


@pytest.mark.parametrize("caps", sorted(_DELTA_CAPS))
def test_lockstep_member_walks_match_per_member_walks(families, caps, monkeypatch):
    """Member walks advanced in lockstep, several member chunks per family
    and members finishing in different rounds, give every member its own
    BFS and count the same expanded escape states as per-member walks."""
    chunks = []
    member_bytes, walk_members = incremental._member_bytes, incremental._walk_members

    def three_per_chunk(sweep, num_exprs, max_states):
        # Size the member axis to three members per chunk before it is split.
        share = member_bytes(sweep, num_exprs, max_states)
        monkeypatch.setattr(incremental, "_MEMBER_CHUNK_BYTES", 3 * share)
        return share

    def recording_walk_members(sweep, walks, exprs, keep_bytes):
        chunks.append([walk.member for walk in walks])
        return walk_members(sweep, walks, exprs, keep_bytes)

    rounds = {}
    advance = incremental._MemberWalk.advance

    def counting_advance(self, *args):
        rounds[id(self)] = rounds.get(id(self), 0) + 1
        return advance(self, *args)

    monkeypatch.setattr(incremental, "_member_bytes", three_per_chunk)
    monkeypatch.setattr(incremental, "_walk_members", recording_walk_members)
    monkeypatch.setattr(incremental._MemberWalk, "advance", counting_advance)

    walked = escaped = 0
    for design, mutants, texts in families:
        golden = _golden_walk(design, _ENGINE.max_states, _ENGINE.max_transitions)
        if not golden.complete:
            continue
        max_states, max_transitions = _DELTA_CAPS[caps](golden)
        config = EngineConfig(
            **{**vars(_ENGINE), "max_states": max_states, "max_transitions": max_transitions}
        )
        designs = [mutant.design for mutant in mutants]
        chunks.clear()
        rounds.clear()
        cache, stats = ReachabilityCache(), FamilyStats()
        check_family(design, designs, texts, config, cache, stats)
        assert len(chunks) >= 2 and max(map(len, chunks)) >= 2, chunks
        entries = cache.entries()
        for mutant in designs:
            scalar = enumerate_reachable(
                TransitionSystem(
                    mutant, max_input_bits=config.max_input_bits, backend="compiled"
                ),
                max_states=config.max_states,
                max_transitions=config.max_transitions,
            )
            delta = entries[reachability_key(mutant, config)]
            assert delta.states == scalar.states
            assert delta.complete == scalar.complete
            assert delta.frontier_exhausted == scalar.frontier_exhausted
            assert delta.transitions_explored == scalar.transitions_explored
        golden_states = set(golden.states)
        accepted = lower_family(design.model, [mutant.model for mutant in designs]).accepted()
        assert stats.delta_escape_states == sum(
            _per_member_escape_states(designs[position], golden_states, config)
            for position in accepted
        )
        walked += len(set(rounds.values())) > 1
        escaped += stats.delta_escape_states
    assert walked, "no family had member walks of different lengths"
    assert escaped, "no member walk left the golden reachable set"


@pytest.mark.parametrize("caps", ["engine-caps", "states+1"])
def test_member_walks_keep_escape_rows_within_chunk_budget(families, caps, monkeypatch):
    """With every member in one chunk and room left for three escape rows,
    the lockstep walks never keep more than that: a walk whose rows would
    pass it drops them and its table steps them again, a truncated walk
    keeps none, and every verdict still equals the mutant's own engine."""
    state = {"phase": None, "budget": None, "group": []}
    seen = {"kept": 0, "dropped": 0, "restepped": 0}
    member_bytes, step_rows = incremental._member_bytes, incremental.step_rows
    walk_members, advance = incremental._walk_members, incremental._MemberWalk.advance
    member_table = incremental._MemberTable.__init__

    def tight_budget(sweep, num_exprs, max_states):
        share = member_bytes(sweep, num_exprs, max_states)
        row_bytes = sweep.num_inputs * (8 + num_exprs)
        budget = len(designs) * share + 3 * row_bytes
        monkeypatch.setattr(incremental, "_MEMBER_CHUNK_BYTES", budget)
        return share

    def counting_step_rows(*args):
        seen["restepped"] += state["phase"] == "table"
        return step_rows(*args)

    def watched_member_table(self, *args, **kwargs):
        state["phase"] = "table"
        try:
            member_table(self, *args, **kwargs)
        finally:
            state["phase"] = None

    def watched_walk_members(sweep_, walks, exprs, keep_bytes):
        state.update(phase="walk", budget=keep_bytes, group=list(walks))
        try:
            return walk_members(sweep_, walks, exprs, keep_bytes)
        finally:
            state["phase"] = None

    def watched_advance(self, *args):
        live = advance(self, *args)
        kept = sum(walk.kept_bytes for walk in state["group"])
        assert kept <= state["budget"]
        seen["kept"] = max(seen["kept"], kept)
        if not live:
            if not self.result.complete:
                assert self.kept_bytes == 0
            elif self.escape_states and not self.kept_bytes:
                seen["dropped"] += 1
        return live

    monkeypatch.setattr(incremental, "_member_bytes", tight_budget)
    monkeypatch.setattr(incremental, "step_rows", counting_step_rows)
    monkeypatch.setattr(incremental._MemberTable, "__init__", watched_member_table)
    monkeypatch.setattr(incremental, "_walk_members", watched_walk_members)
    monkeypatch.setattr(incremental._MemberWalk, "advance", watched_advance)

    for design, mutants, texts in families:
        golden = _golden_walk(design, _ENGINE.max_states, _ENGINE.max_transitions)
        if not golden.complete:
            continue
        max_states, max_transitions = _DELTA_CAPS[caps](golden)
        config = EngineConfig(
            **{**vars(_ENGINE), "max_states": max_states, "max_transitions": max_transitions}
        )
        designs = [mutant.design for mutant in mutants]
        family = check_family(design, designs, texts, config, ReachabilityCache())
        for mutant, verdicts in zip(designs, family):
            solo = FormalEngine(mutant, config).check_batch(texts)
            assert [_proof_key(proof) for proof in verdicts] == [
                _proof_key(proof) for proof in solo
            ]
    assert seen["kept"], "no walk kept escape rows"
    assert seen["dropped"] and seen["restepped"], seen


def test_compiled_backend_family_falls_back_identically(families):
    design, mutants, texts = families[0]
    compiled = EngineConfig(**{**vars(_ENGINE), "backend": "compiled"})
    stats = FamilyStats()
    fallback = check_family(
        design,
        [mutant.design for mutant in mutants],
        texts,
        compiled,
        stats=stats,
    )
    assert stats.fallback_members == len(mutants)
    vectorized = check_family(
        design,
        [mutant.design for mutant in mutants],
        texts,
        _ENGINE,
    )
    for fallback_verdicts, vector_verdicts in zip(fallback, vectorized):
        for fallback_proof, vector_proof in zip(fallback_verdicts, vector_verdicts):
            assert _proof_key(fallback_proof) == _proof_key(vector_proof)


def test_foreign_member_rejected_and_checked_by_engine(families, corpus):
    design, mutants, texts = families[0]
    foreign = corpus.design("mod10_counter")
    assert foreign.name != design.name
    stats = FamilyStats()
    family = check_family(
        design,
        [mutants[0].design, foreign],
        texts,
        _ENGINE,
        stats=stats,
    )
    assert stats.fallback_members == 1
    solo = FormalEngine(foreign, _ENGINE).check_batch(texts)
    for family_proof, solo_proof in zip(family[1], solo):
        assert _proof_key(family_proof) == _proof_key(solo_proof)


# ---------------------------------------------------------------------------
# Semantic-filter and engine caps that diverge
# ---------------------------------------------------------------------------

_BIG_COUNTER = """
module bigcnt(clk, rst, en, ok);
  input clk, rst, en;
  output ok;
  reg [10:0] count;
  assign ok = count < 2048;
  always @(posedge clk or posedge rst)
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
endmodule
"""

_BIG_ENGINE = EngineConfig(
    max_states=4096,
    max_transitions=200_000,
    max_input_bits=4,
    max_state_bits=12,
    max_path_evaluations=120_000,
    fallback_cycles=128,
    fallback_seeds=2,
    backend="vectorized",
)


def test_simulation_witness_mutant_matches_solo_engine():
    """A mutant the semantic filter could only tell apart by simulation (its
    state space is past the filter's sweep cap) is still proved exhaustively
    by the engine; the family verdict equals the solo one in every field."""
    golden = Design.from_source(_BIG_COUNTER, name="bigcnt")
    from repro.mutate.operators import apply_mutation, mutation_sites

    site = next(
        site
        for site in mutation_sites(golden, ["stuck-driver"])
        if "stuck-at-0" in site.description and "ok" in site.description
    )
    mutant = apply_mutation(golden, site.operator, site.index)
    witness = semantic_difference(golden, mutant)
    assert witness is not None and witness.method == "simulation"

    text = "assert property (@(posedge clk) (en == 1) |=> (ok == 1));"
    stats = FamilyStats()
    family = check_family(golden, [mutant], [text], _BIG_ENGINE, stats=stats)[0][0]
    assert stats.family_members == 1

    solo = FormalEngine(mutant, _BIG_ENGINE).check_batch([text])[0]
    assert solo.is_fail and solo.complete and solo.engine == "explicit-state"
    assert _proof_key(family) == _proof_key(solo)


# ---------------------------------------------------------------------------
# Trace routing: batched only where batch_simulation_pays
# ---------------------------------------------------------------------------

_WIDE_ENGINE = EngineConfig(**{**vars(_ENGINE), "fallback_cycles": 64})

_WIDE_TEXTS = {
    # Sequential multi-limb: member engines simulate their own traces.
    "wide_counter128": [
        "assert property (@(posedge clk) (wrapped == 1) |-> (gray == 0));",
        "assert property (@(posedge clk) (rst == 1) |=> (count == 0));",
        "assert property (@(posedge clk) (en == 1) |=> (wrapped == 0));",
        "assert property (@(posedge clk) (count[0] == 1) |-> (gray[0] == 1));",
    ],
    # Cycle-independent multi-limb: one flat family settle.
    "wide_cmp80": [
        "assert property ((a[1] == 1) |-> (eq == 0));",
        "assert property ((lt == 1) |-> (ge == 0));",
        "assert property ((a[0] == 1) |=> (eq == 0));",
        "assert property ((lt == 0) |-> (maxv == a));",
    ],
}


@pytest.mark.parametrize("name, batched", [("wide_counter128", False), ("wide_cmp80", True)])
def test_wide_family_routing_matches_solo_engines(monkeypatch, name, batched):
    design = get_corpus("assertionbench-wide").design(name)
    mutants, _ = enumerate_mutants(design, limit=8)
    texts = _WIDE_TEXTS[name]
    calls = []
    family_simulate = vector._FamilyMixin.family_simulate

    def counting(self, members, stimuli, cycles):
        calls.append(len(members))
        return family_simulate(self, members, stimuli, cycles)

    monkeypatch.setattr(vector._FamilyMixin, "family_simulate", counting)
    stats = FamilyStats()
    family = check_family(
        design, [mutant.design for mutant in mutants], texts, _WIDE_ENGINE, stats=stats
    )
    assert stats.family_multilimb_members == len(mutants)
    assert bool(calls) is batched
    statuses = set()
    for mutant, verdicts in zip(mutants, family):
        solo = FormalEngine(mutant.design, _WIDE_ENGINE).check_batch(texts)
        for family_proof, solo_proof in zip(verdicts, solo):
            assert _proof_key(family_proof) == _proof_key(solo_proof)
            statuses.add(family_proof.status)
    assert len(statuses) > 1, statuses  # a CEX and a bounded pass at least


def test_unbatched_engine_lowers_no_kernel(monkeypatch):
    """A design that will not batch its traces decides so from the model."""
    design = get_corpus("assertionbench-wide").design("wide_counter128")
    lowered = []
    plan_model = vector.plan_model

    def counting(model):
        lowered.append(model.name)
        return plan_model(model)

    monkeypatch.setattr(vector, "plan_model", counting)
    proofs = FormalEngine(design, _WIDE_ENGINE).check_batch(_WIDE_TEXTS[design.name])
    assert all(proof.engine == "simulation" for proof in proofs)
    assert not lowered
