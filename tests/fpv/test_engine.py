"""Unit tests for the formal property verification engine."""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.fpv import (
    EngineConfig,
    FormalEngine,
    ProofStatus,
    TransitionSystem,
    check_assertion,
    enumerate_reachable,
)
from repro.sim.eval import EvalError


@pytest.fixture(scope="module")
def arb2_engine(arb2_design):
    return FormalEngine(arb2_design)


@pytest.fixture(scope="module")
def counter_engine(counter_design):
    return FormalEngine(counter_design)


class TestVerdicts:
    def test_proven_assertion(self, arb2_engine):
        result = arb2_engine.check("(req1 == 1 && req2 == 0) |-> (gnt1 == 1);")
        assert result.status is ProofStatus.PROVEN
        assert result.complete
        assert result.is_pass

    def test_cex_assertion_with_witness(self, arb2_engine):
        result = arb2_engine.check(
            "(req2 == 0 && gnt_ == 1) ##1 (req1 == 1) |=> (gnt1 == 1);"
        )
        assert result.status is ProofStatus.CEX
        assert result.counterexample is not None
        assert result.counterexample.length >= 3
        assert "gnt1" in result.counterexample.cycles[0]

    def test_vacuous_assertion(self, arb2_engine):
        result = arb2_engine.check("(gnt_ == 3) |-> (gnt1 == 1);")
        assert result.status is ProofStatus.VACUOUS
        assert result.is_pass

    def test_unknown_signal_is_error(self, arb2_engine):
        result = arb2_engine.check("(phantom == 1) |-> (gnt1 == 1);")
        assert result.status is ProofStatus.ERROR

    def test_syntax_error_is_error(self, arb2_engine):
        result = arb2_engine.check("not really sva ===>")
        assert result.status is ProofStatus.ERROR

    def test_counter_invariant_proven(self, counter_engine):
        result = counter_engine.check("(count <= 15)")
        assert result.is_pass

    def test_counter_increment_property(self, counter_engine):
        result = counter_engine.check("(en == 1 && count == 3) |=> (count == 4);")
        assert result.status is ProofStatus.CEX or result.status is ProofStatus.PROVEN
        # with async reset sampled as an input, reset can pre-empt the increment,
        # so the engine must find the counterexample where rst is asserted
        assert result.status is ProofStatus.CEX

    def test_counter_increment_with_reset_guard(self, counter_engine):
        result = counter_engine.check(
            "(rst == 0 && en == 1 && count == 3) ##1 (rst == 0) |-> (count == 4);"
        )
        assert result.status is ProofStatus.PROVEN

    def test_combinational_design_checks(self, adder_design):
        result = check_assertion(adder_design, "(a == 3 && b == 2) |-> (sum == 5);")
        assert result.status is ProofStatus.PROVEN
        result = check_assertion(adder_design, "(a == 15 && b == 1) |-> (carry == 0);")
        assert result.status is ProofStatus.CEX

    def test_check_all_batch(self, arb2_engine):
        results = arb2_engine.check_all(
            ["(req1 == 1 && req2 == 0) |-> (gnt1 == 1);", "garbage in"]
        )
        assert [r.status for r in results] == [ProofStatus.PROVEN, ProofStatus.ERROR]

    def test_summary_text(self, arb2_engine):
        result = arb2_engine.check("(req1 == 1 && req2 == 0) |-> (gnt1 == 1);")
        assert "PROVEN" in result.summary()


class TestSimulationFallback:
    def test_large_state_design_uses_simulation(self, corpus):
        design = corpus.design("shift_reg32")
        engine = FormalEngine(
            design, EngineConfig(max_state_bits=8, fallback_cycles=128, fallback_seeds=1)
        )
        result = engine.check("(shift_en == 0) |=> (stages[0] == stages[0]);")
        assert result.engine == "simulation"
        assert result.is_pass
        assert not result.complete

    def test_simulation_can_find_cex(self, corpus):
        design = corpus.design("shift_reg32")
        engine = FormalEngine(
            design, EngineConfig(max_state_bits=8, fallback_cycles=256, fallback_seeds=2)
        )
        result = engine.check("(shift_en == 1) |=> (stages[0] == 0);")
        assert result.status is ProofStatus.CEX


class TestTransitionSystem:
    def test_reachability_of_counter(self, counter_design):
        system = TransitionSystem(counter_design)
        reachability = enumerate_reachable(system)
        assert reachability.complete
        assert reachability.count == 16

    def test_initial_state_uses_initial_values(self, counter_design):
        system = TransitionSystem(counter_design)
        assert system.initial_state() == (0,)

    def test_step_advances_state(self, counter_design):
        system = TransitionSystem(counter_design)
        step = system.step((3,), {"rst": 0, "en": 1})
        assert step.next_state == (4,)
        assert step.env["count"] == 3

    def test_step_cache_consistency(self, counter_design):
        system = TransitionSystem(counter_design)
        first = system.step((2,), {"rst": 0, "en": 1})
        second = system.step((2,), {"rst": 0, "en": 1})
        assert first.next_state == second.next_state
        assert first.env == second.env
        # the memoised row holds the same transition at that input's position
        position = system.input_dicts().index({"rst": 0, "en": 1})
        memoised = system.successors((2,))[position]
        assert memoised.next_state == first.next_state
        assert memoised.env == first.env

    def test_input_enumeration_size(self, counter_design):
        system = TransitionSystem(counter_design)
        assert system.input_space_size == 4
        assert len(list(system.enumerate_inputs())) == 4

    def test_verdict_counterexample_format(self, arb2_engine):
        result = arb2_engine.check(
            "(req2 == 0 && gnt_ == 1) ##1 (req1 == 1) |=> (gnt1 == 1);"
        )
        table = result.counterexample.format(["req1", "req2", "gnt1"])
        assert "req1" in table and "cycle" in table


class TestStepErrorPosition:
    """A transition that raises is handled only where a search reaches it.

    One (state, input) pair of arb2 raises ``EvalError``: obligations whose
    search reaches it get an error verdict, obligations decided earlier keep
    their verdicts, and a reachability walk cut before it never sees it.
    """

    FAILING_STATE = (1,)
    FAILING_INPUTS = {"rst": 0, "req1": 1, "req2": 1}

    DECIDED_EARLIER = [
        "(req1 == 0 && req2 == 0) |-> (gnt1 == 1);",  # refuted on the first pair
        "(req1 == 1) |-> (gnt2 == 1);",  # refuted in the initial state's row
        # Refuted in state 1's row, on a pair ahead of the failing one.
        "(req1 == 0) |-> (gnt_ == 0);",
    ]
    REACHING = [
        "(req1 == 1 && req2 == 0) |-> (gnt1 == 1);",  # proven: sweeps everything
        # Its first matching attempt steps into state 1 and sweeps its row.
        "(req1 == 1 && req2 == 0) |=> (gnt_ == 1);",
    ]

    def fail_at_pair(self, monkeypatch):
        original = TransitionSystem._compute_step

        def compute_step(system, state, inputs):
            if state == self.FAILING_STATE and inputs == self.FAILING_INPUTS:
                raise EvalError("injected failure")
            return original(system, state, inputs)

        monkeypatch.setattr(TransitionSystem, "_compute_step", compute_step)

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_sweep_fails_only_obligations_reaching_the_pair(
        self, arb2_design, backend, monkeypatch
    ):
        config = EngineConfig(backend=backend)
        batch = self.DECIDED_EARLIER + self.REACHING
        reference = FormalEngine(arb2_design, config).check_batch(batch)
        # The walk itself would reach the failing pair: explore beforehand.
        reachability = enumerate_reachable(TransitionSystem(arb2_design, backend=backend))
        self.fail_at_pair(monkeypatch)
        engine = FormalEngine(arb2_design, config)
        engine.preload_reachability(reachability)
        results = engine.check_batch(batch)
        for got, want in zip(results[: len(self.DECIDED_EARLIER)], reference):
            assert got.status is want.status is ProofStatus.CEX
            assert got.counterexample.cycles == want.counterexample.cycles
        for result in results[len(self.DECIDED_EARLIER) :]:
            assert result.status is ProofStatus.ERROR
            assert result.reason == "evaluation error: injected failure"

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_reachability_cut_before_the_pair_does_not_raise(
        self, arb2_design, backend, monkeypatch
    ):
        self.fail_at_pair(monkeypatch)
        system = TransitionSystem(arb2_design, backend=backend)
        grid = system.input_dicts()
        # The scalar walk finishes the initial state's row first.
        before = len(grid) + grid.index(self.FAILING_INPUTS)
        result = enumerate_reachable(system, max_transitions=before)
        assert not result.complete
        assert result.transitions_explored == before + 1
        assert result.states == [(0,), self.FAILING_STATE]
        with pytest.raises(EvalError, match="injected failure"):
            enumerate_reachable(system, max_transitions=before + 1)


class TestFailedReachabilityWalk:
    """A reachability walk that raises runs once per batch, not per assertion."""

    BATCH = [
        "(req1 == 1 && req2 == 0) |-> (gnt1 == 1);",
        "(req2 == 0 && gnt_ == 1) ##1 (req1 == 1) |=> (gnt1 == 1);",
        "(gnt_ == 3) |-> (gnt1 == 1);",
    ]

    @pytest.mark.parametrize("backend", ["compiled", "vectorized"])
    def test_walk_runs_once_and_fails_every_assertion(
        self, arb2_design, backend, monkeypatch
    ):
        engine_module = importlib.import_module("repro.fpv.engine")
        calls = []

        def failing_walk(system, **caps):
            calls.append(system)
            raise EvalError("injected walk failure")

        monkeypatch.setattr(engine_module, "enumerate_reachable", failing_walk)
        results = FormalEngine(arb2_design, EngineConfig(backend=backend)).check_batch(
            self.BATCH
        )
        assert len(calls) == 1
        for result in results:
            assert result.status is ProofStatus.ERROR
            assert result.reason == "evaluation error: injected walk failure"


_CEX_KEYS_SCRIPT = """
import json, sys
from repro.bench.corpus import get_corpus
from repro.fpv import EngineConfig, FormalEngine
design = get_corpus("assertionbench-mutation").design("d_flip_flop")
engine = FormalEngine(design, EngineConfig(backend=sys.argv[1]))
result = engine.check("(d == 1) |=> (q == 0);")
print(json.dumps([list(cycle) for cycle in result.counterexample.cycles]))
"""


@pytest.mark.parametrize("backend", ["compiled", "vectorized"])
def test_counterexample_key_order_ignores_the_string_hash_seed(backend):
    """CEX cycles list their signals in model order under any hash seed."""
    orders = []
    for seed in ("1", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", _CEX_KEYS_SCRIPT, backend],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
        orders.append(json.loads(completed.stdout))
    assert orders[0] == orders[1]
    assert orders[0][0] == ["rst", "en", "d", "q"]
