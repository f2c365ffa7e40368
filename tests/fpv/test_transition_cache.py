"""Successor-row memo: projection, invalidation, eviction; the input grid."""

from __future__ import annotations

import pytest

from repro.fpv import TransitionSystem
from repro.hdl import Design
from repro.sim import EvalError

# A 5-bit counter: 32 states, so a 16-row memo can overflow.
_COUNTER5_SOURCE = """
module counter5(clk, rst, en, count);
  input clk, rst, en;
  output [4:0] count;
  reg [4:0] count;
  always @(posedge clk or posedge rst)
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
endmodule
"""

#: Position of ``{"rst": 0, "en": 1}`` in the counters' input grid.
_COUNT_UP = 1


@pytest.fixture(scope="module")
def counter5_design():
    return Design.from_source(_COUNTER5_SOURCE, name="counter5")


class TestInputGrid:
    def test_grid_computed_once_and_ordered(self, counter_design):
        system = TransitionSystem(counter_design)
        grid = system.input_grid
        assert grid is system.input_grid  # cached instance
        # itertools.product order: last input varies fastest
        assert len(grid) == system.input_space_size
        assert grid[0] == tuple(0 for _ in system.input_names)

    def test_enumerate_inputs_reuses_shared_dicts(self, counter_design):
        system = TransitionSystem(counter_design)
        first = list(system.enumerate_inputs())
        second = list(system.enumerate_inputs())
        assert first == second
        assert all(a is b for a, b in zip(first, second))  # shared, not rebuilt

    def test_grid_matches_legacy_enumeration(self, counter_design):
        system = TransitionSystem(counter_design)
        names = system.input_names
        from_grid = [dict(zip(names, combo)) for combo in system.input_grid]
        assert from_grid == list(system.enumerate_inputs())


class TestSuccessorRow:
    def test_row_raises_its_error_at_the_failing_position(self, counter_design, monkeypatch):
        original = TransitionSystem._compute_step

        def compute_step(system, state, inputs):
            if inputs == {"rst": 0, "en": 1}:
                raise EvalError("injected failure")
            return original(system, state, inputs)

        monkeypatch.setattr(TransitionSystem, "_compute_step", compute_step)
        system = TransitionSystem(counter_design)
        row = system.successors((3,))
        assert len(row) == _COUNT_UP
        assert row.at(0).next_state == (3,)
        for _ in range(2):  # the memoised row raises every time it is reached
            with pytest.raises(EvalError, match="injected failure"):
                system.successors((3,)).at(_COUNT_UP)


class TestStepCacheProjection:
    def test_unobserved_step_returns_full_env(self, counter_design):
        system = TransitionSystem(counter_design)
        signals = set(counter_design.model.signals)
        assert set(system.step((3,), {"rst": 0, "en": 1}).env) == signals
        assert all(set(step.env) == signals for step in system.successors((3,)))

    def test_observed_step_projects_env(self, counter_design):
        system = TransitionSystem(counter_design)
        system.observe({"count"})
        row = system.successors((3,))
        expected = {"count"} | set(system.state_names) | set(system.input_names)
        expected &= set(counter_design.model.signals)
        assert len(row) == len(system.input_grid)
        assert all(set(step.env) == expected for step in row)
        assert set(system.step((3,), {"rst": 0, "en": 1}).env) == expected
        # the hit path serves the same row
        again = system.successors((3,))
        assert system.step_cache_info()["hits"] == 1
        assert [step.env for step in again] == [step.env for step in row]
        assert [step.next_state for step in again] == [step.next_state for step in row]

    def test_widening_observation_invalidates_entries(self, counter_design):
        system = TransitionSystem(counter_design)
        system.observe({"count"})
        system.successors((1,))
        assert system.step_cache_info()["entries"] == len(system.input_grid)
        system.observe({"count", "clk"})
        assert system.step_cache_info()["entries"] == 0
        row = system.successors((1,))
        assert system.step_cache_info()["misses"] == 2
        assert all("clk" in step.env for step in row)

    def test_narrower_observation_is_a_noop(self, counter_design):
        system = TransitionSystem(counter_design)
        system.observe({"count", "clk"})
        row = system.successors((1,))
        system.observe({"count"})  # subset: rows survive
        assert system.step_cache_info()["entries"] == len(system.input_grid)
        assert system.successors((1,)) is row

    def test_widening_never_serves_narrow_rows(self, arb2_design):
        """Rows built under a narrow observation set are dropped, not reused."""
        system = TransitionSystem(arb2_design)
        system.observe({"gnt_"})
        narrow = system.successors((1,))
        assert all("gnt1" not in step.env for step in narrow)
        system.observe({"gnt1"})
        widened = system.successors((1,))
        for position, inputs in enumerate(system.input_dicts()):
            env = widened[position].env
            assert "gnt1" in env
            assert env["gnt1"] == system.settle((1,), inputs)["gnt1"]


class TestStepCacheEviction:
    def test_full_cache_evicts_oldest_fraction_not_everything(self, counter5_design):
        system = TransitionSystem(counter5_design)
        width = len(system.input_grid)
        system._rows_limit = 16 * width
        # fill the memo with sixteen distinct rows
        for state in range(16):
            system.successors((state,))
        assert system.step_cache_info()["entries"] == 16 * width
        # one more row evicts the oldest eighth of the states, not all of them
        system.successors((16,))
        info = system.step_cache_info()
        assert info["entries"] == (16 - 16 // 8 + 1) * width
        assert info["misses"] == 17
        # the newest rows are still memoised and serve identical data
        recent = system.successors((15,))
        assert system.step_cache_info()["misses"] == 17
        assert recent[_COUNT_UP].next_state == (16,)
        # the oldest ones are gone
        system.successors((0,))
        assert system.step_cache_info()["misses"] == 18

    def test_eviction_preserves_correctness(self, counter_design):
        system = TransitionSystem(counter_design)
        system._rows_limit = 2 * len(system.input_grid)
        results = {}
        for state in range(8):
            results[state] = [step.next_state for step in system.successors((state,))]
        assert system.step_cache_info()["entries"] <= system._rows_limit
        for state in range(8):
            row = system.successors((state,))
            assert [step.next_state for step in row] == results[state]
            assert row[_COUNT_UP].next_state == ((state + 1) % 16,)
