"""Wide-operand FPV equivalence: multi-limb lowering vs the scalar backends.

The wide corpus exists precisely because the packed SoA representation
cannot hold its signals; every design here lowers through 32-bit limb
columns instead.  The engine-level contract is the same as for narrow
designs: identical verdicts, identical counterexample cycles, identical
reachable-state order and truncation points, regardless of backend or of
which lowering plan the planner picked.  A narrow ``**`` design pins the
transition-*table* path through the limb kernel (wide designs skip
reachability on state-bit caps, so they alone would never cover it).
"""

from __future__ import annotations

import pytest

from repro.bench.corpus import get_corpus
from repro.fpv import EngineConfig, FormalEngine, TransitionSystem, enumerate_reachable
from repro.hdl import Design
from repro.sim import vector
from repro.sim.vector import PLAN_FALLBACK, PLAN_MULTILIMB, plan_model

_ENGINE_KWARGS = dict(
    max_states=1024,
    max_transitions=60_000,
    max_path_evaluations=60_000,
    fallback_cycles=64,
    fallback_seeds=2,
)


@pytest.fixture(scope="module")
def wide_corpus():
    return get_corpus("assertionbench-wide")


def _verdict_key(result):
    cex = None
    if result.counterexample is not None:
        cex = (
            result.counterexample.trigger_cycle,
            result.counterexample.failed_term,
            tuple(tuple(sorted(cycle.items())) for cycle in result.counterexample.cycles),
        )
    return (result.status, result.complete, result.engine, result.states_explored, cex)


def _assertions(design, count=3):
    model = design.model
    out = (model.outputs or list(model.signals))[0]
    mask = model.signals[out].mask
    inputs = model.non_clock_inputs
    texts = []
    for j in range(count):
        bound = max(0, mask - (j % max(mask, 1)))
        if not inputs:
            texts.append(f"({out} <= {bound});")
            continue
        inp = inputs[j % len(inputs)]
        if j % 3 == 0:
            texts.append(f"({inp} >= 0) |-> ({out} <= {bound});")
        elif j % 3 == 1:
            texts.append(f"({inp} == 0) |=> ({out} <= {bound});")
        else:
            texts.append(f"({inp} == 0) ##1 ({inp} == 0) |=> ({out} <= {bound});")
    return texts


class TestWideCorpusVerdicts:
    def test_every_wide_design_plans_multilimb(self, wide_corpus):
        for design in wide_corpus.all_designs():
            plan = plan_model(design.model)
            assert plan.plan == PLAN_MULTILIMB, (design.name, plan.plan, plan.reason)

    def test_verdicts_and_counterexamples_match_compiled(self, wide_corpus):
        disagreements = []
        for design in wide_corpus.all_designs():
            batch = _assertions(design)
            per_backend = {}
            for backend in ("compiled", "vectorized"):
                engine = FormalEngine(
                    design, EngineConfig(backend=backend, **_ENGINE_KWARGS)
                )
                per_backend[backend] = [
                    _verdict_key(r) for r in engine.check_batch(batch)
                ]
            if per_backend["vectorized"] != per_backend["compiled"]:
                disagreements.append(design.name)
        assert not disagreements, disagreements

    def test_engine_reports_multilimb_lowering(self, wide_corpus):
        design = wide_corpus.design("wide_counter100")
        engine = FormalEngine(design, EngineConfig(backend="vectorized", **_ENGINE_KWARGS))
        engine.check_batch(_assertions(design, 1))
        info = engine.lowering_info()
        assert info == {
            "design": design.name,
            "plan": PLAN_MULTILIMB,
            "reason": "",
        }

    def test_forced_fallback_still_agrees_and_is_reported(self, wide_corpus, monkeypatch):
        """With the planner pinned to SoA the wide design cannot lower; the
        engine must fall back to the scalar path, report the per-strategy
        refusal, and still return the compiled verdicts bit-for-bit.
        """
        design = wide_corpus.design("wide_accum96")
        batch = _assertions(design)
        compiled = [
            _verdict_key(r)
            for r in FormalEngine(
                design, EngineConfig(backend="compiled", **_ENGINE_KWARGS)
            ).check_batch(batch)
        ]
        monkeypatch.setattr(vector, "_PLAN_BUILDERS", {"soa": vector._build_soa})
        engine = FormalEngine(design, EngineConfig(backend="vectorized", **_ENGINE_KWARGS))
        vectorized = [_verdict_key(r) for r in engine.check_batch(batch)]
        assert vectorized == compiled
        info = engine.lowering_info()
        assert info is not None
        assert info["plan"] == PLAN_FALLBACK
        assert "soa" in info["reason"]

    def test_scalar_backend_reports_no_lowering(self, wide_corpus):
        design = wide_corpus.design("wide_cmp100")
        engine = FormalEngine(design, EngineConfig(backend="compiled", **_ENGINE_KWARGS))
        assert engine.lowering_info() is None


_POW_FSM_SOURCE = """\
module powfsm(clk, rst, e, q, hi, low);
  input clk, rst;
  input [1:0] e;
  output reg [7:0] q;
  output hi, low;
  always @(posedge clk or posedge rst) begin
    if (rst)
      q <= 8'd3;
    else
      q <= (q ** e) + 8'd1;
  end
  assign hi = q[7];
  assign low = q < 8'd16;
endmodule
"""


class TestPowerTablePath:
    """A narrow ``**`` design: SoA refuses, multi-limb builds the dense table.

    8 state bits and 2 input bits sit comfortably inside the packing caps, so
    the vectorized engine takes the transition-*table* route through the limb
    kernel — the only place its packed ``step_packed`` image feeds BFS.
    """

    @pytest.fixture(scope="module")
    def pow_design(self):
        return Design.from_source(_POW_FSM_SOURCE, name="powfsm")

    def test_plans_multilimb(self, pow_design):
        plan = plan_model(pow_design.model)
        assert plan.plan == PLAN_MULTILIMB
        assert "soa" in plan.attempts

    def test_reachability_order_identical(self, pow_design):
        reference = None
        for backend in ("interpreted", "compiled", "vectorized"):
            system = TransitionSystem(pow_design, max_input_bits=12, backend=backend)
            assert system.can_enumerate_inputs
            result = enumerate_reachable(system, max_states=2048, max_transitions=60_000)
            key = (
                result.states,
                result.complete,
                result.frontier_exhausted,
                result.transitions_explored,
            )
            if reference is None:
                reference = key
            else:
                assert key == reference, backend

    # (2048, 320) cuts exactly on a row boundary: 40 rows of the 8-valuation grid.
    @pytest.mark.parametrize("caps", [(7, 10_000), (2048, 33), (5, 41), (2048, 320)])
    def test_truncated_reachability_identical(self, pow_design, caps):
        variants = set()
        for backend in ("interpreted", "compiled", "vectorized"):
            system = TransitionSystem(pow_design, max_input_bits=12, backend=backend)
            result = enumerate_reachable(
                system, max_states=caps[0], max_transitions=caps[1]
            )
            variants.add(
                (
                    tuple(result.states),
                    result.complete,
                    result.transitions_explored,
                )
            )
        assert len(variants) == 1, (caps, variants)

    def test_verdicts_identical(self, pow_design):
        batch = [
            "(q <= 255);",
            "(e == 0) |=> (q == 2);",
            "(rst == 0) |-> (q >= 1);",
        ]
        per_backend = {}
        for backend in ("interpreted", "compiled", "vectorized"):
            engine = FormalEngine(
                pow_design, EngineConfig(backend=backend, **_ENGINE_KWARGS)
            )
            per_backend[backend] = [_verdict_key(r) for r in engine.check_batch(batch)]
        assert per_backend["vectorized"] == per_backend["compiled"]
        assert per_backend["compiled"] == per_backend["interpreted"]
