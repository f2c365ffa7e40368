"""Three-backend equivalence: vectorized vs compiled vs interpreted.

The vectorized kernel must be semantically invisible: identical reachable
state sets (same order, same transition counts), identical settled
environments, and identical FPV verdicts — status, completeness, engine, and
counterexample cycles — on every corpus design.  The hypothesis suite
hammers the settle/step image computation on a purpose-built design whose
signal widths sit on the masking edges (33-bit registers, variable shifts,
modulo/division by zero).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpv import EngineConfig, FormalEngine, TransitionSystem, enumerate_reachable
from repro.hdl import Design
from repro.sim import BACKENDS

_EDGE_SOURCE = """
module edgewidths(clk, rst, a, sh, q33, ymod, ydiv, yshl, yshr, ysra, ybit);
  input clk, rst;
  input [4:0] a;
  input [5:0] sh;
  output [32:0] q33;
  output [4:0] ymod, ydiv;
  output [32:0] yshl;
  output [4:0] yshr, ysra;
  output ybit;
  reg [32:0] q33;
  assign ymod = a % sh[2:0];
  assign ydiv = a / sh[2:0];
  assign yshl = q33 << sh;
  assign yshr = a >> sh;
  assign ysra = a >>> sh[1:0];
  assign ybit = q33[sh];
  always @(posedge clk or posedge rst)
    if (rst)
      q33 <= 0;
    else
      q33 <= q33 + {a, sh, a, sh, a, sh} - a;
endmodule
"""


@pytest.fixture(scope="module")
def edge_design():
    return Design.from_source(_EDGE_SOURCE, name="edgewidths")


@pytest.fixture(scope="module")
def edge_systems(edge_design):
    return {backend: TransitionSystem(edge_design, backend=backend) for backend in BACKENDS}


class TestEdgeWidthImages:
    def test_kernel_lowers(self, edge_systems):
        assert edge_systems["vectorized"].vector_kernel() is not None

    @settings(max_examples=150, deadline=None)
    @given(
        state=st.integers(0, (1 << 33) - 1),
        a=st.integers(0, 31),
        sh=st.integers(0, 63),
    )
    def test_settle_and_step_agree(self, edge_systems, state, a, sh):
        inputs = {"a": a, "sh": sh}
        reference = None
        for backend in BACKENDS:
            system = edge_systems[backend]
            env = system.settle((state,), inputs)
            step = system.step((state,), inputs)
            if reference is None:
                reference = (env, step.next_state)
            else:
                assert env == reference[0], backend
                assert step.next_state == reference[1], backend
        # the kernel's batched image must match the scalar images lane-wise
        kernel = edge_systems["vectorized"].vector_kernel()
        import numpy as np

        env_cols, next_cols = kernel.step_batch(
            {"q33": np.asarray([state], dtype=np.int64)},
            {"a": np.asarray([a], dtype=np.int64), "sh": np.asarray([sh], dtype=np.int64)},
            1,
        )
        assert kernel.env_row(env_cols, 0) == reference[0]
        assert int(next_cols["q33"][0]) == reference[1][0]


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


_CORPUS_ENGINE_KWARGS = dict(
    max_states=1024,
    max_transitions=60_000,
    max_path_evaluations=60_000,
    fallback_cycles=64,
    fallback_seeds=2,
)


class TestCorpusVerdictEquivalence:
    def test_all_backends_agree_on_every_design(self, corpus):
        """Whole-corpus sweep: one verdict triple per design × assertion."""
        disagreements = []
        for design in corpus.all_designs():
            batch = _assertions(design)
            per_backend = {}
            for backend in BACKENDS:
                engine = FormalEngine(
                    design, EngineConfig(backend=backend, **_CORPUS_ENGINE_KWARGS)
                )
                per_backend[backend] = [
                    _verdict_key(r) for r in engine.check_batch(batch)
                ]
            for backend in ("compiled", "vectorized"):
                if per_backend[backend] != per_backend["interpreted"]:
                    disagreements.append((design.name, backend))
        assert not disagreements, disagreements

    @pytest.mark.parametrize(
        "name",
        ["arb2", "counter", "traffic_light", "watchdog4", "seq_detect_1011", "lfsr8"],
    )
    def test_reachability_identical(self, corpus, name):
        design = corpus.design(name)
        reference = None
        for backend in BACKENDS:
            system = TransitionSystem(design, max_input_bits=12, backend=backend)
            if not system.can_enumerate_inputs:
                continue
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
                assert key == reference, (name, backend)

    @pytest.mark.parametrize("limit", [1, 2, 5, 6, 7, 9, 17, 33, 64, 1000])
    def test_budget_boundaries_identical(self, corpus, limit):
        """Tight path-evaluation budgets cut off at the same pair everywhere.

        Regression: the vectorized depth-0 walk must refute a violation that
        falls inside the remaining budget at a state even when the rest of
        that state's input row would have exhausted it (the scalar sweep
        decides the obligation before the next input is charged).  The
        second batch gates depth-0 and deep attempts with ``disable iff``;
        without it, the proven ones would be refuted.
        """
        design = corpus.design("arb2")
        batches = [
            [
                "(req1 == 1 && req2 == 0) |-> (gnt1 == 1);",
                "(req1 == 1) |-> (gnt2 == 1);",  # refutable at depth 0
                "(req2 == 0 && gnt_ == 1) ##1 (req1 == 1) |=> (gnt1 == 1);",
            ],
            [
                "disable iff (req2) (req1 == 1) |-> (gnt2 == 1);",  # refutable
                # Refutable on the ninth pair (second state, first input).
                "disable iff (gnt_ == 0) (req1 == 0) |-> (gnt2 == 1);",
                "disable iff (req2 == 1) (req1 == 1) |-> (gnt1 == 1);",  # proven
                "disable iff (req1) (req1 == 1) |-> (gnt2 == 1);",  # vacuous
                "disable iff (req1) (req2 == 1) |=> (gnt_ == 0);",  # proven, deep
                "disable iff (req2) (req1 == 1) ##1 (req2 == 1) |-> (gnt1 == 1);",
            ],
        ]
        for batch in batches:
            per_backend = {}
            for backend in BACKENDS:
                engine = FormalEngine(
                    design,
                    EngineConfig(
                        backend=backend,
                        max_path_evaluations=limit,
                        fallback_cycles=48,
                        fallback_seeds=1,
                    ),
                )
                per_backend[backend] = [_verdict_key(r) for r in engine.check_batch(batch)]
            assert per_backend["compiled"] == per_backend["interpreted"], limit
            assert per_backend["vectorized"] == per_backend["interpreted"], limit

    @pytest.mark.parametrize("limit", [32767, 32768, 67583, 67584])
    def test_watchdog_budget_boundaries_identical(self, corpus, limit):
        """Budget edges of watchdog4 (32 reachable states × 64 inputs).

        Below 32768 the exhaustive gate sends the deep obligations to
        simulation; a proven depth-1 obligation charges exactly 67584.  The
        compiled and interpreted sweeps share the memoised successor rows,
        so the vectorized table runner is the independent oracle here.
        """
        design = corpus.design("watchdog4")
        batch = [
            "(kick == 1) |=> (count == 0);",
            "(kick == 1) |=> (!(count == 0));",
            "(timeout == 1) |-> (bite == 0);",
            "(kick == 1) |=> (bite == 0);",
        ]
        per_backend = {}
        for backend in BACKENDS:
            engine = FormalEngine(
                design,
                EngineConfig(
                    backend=backend,
                    max_path_evaluations=limit,
                    fallback_cycles=48,
                    fallback_seeds=1,
                ),
            )
            per_backend[backend] = [_verdict_key(r) for r in engine.check_batch(batch)]
        assert per_backend["compiled"] == per_backend["interpreted"], limit
        assert per_backend["vectorized"] == per_backend["interpreted"], limit

    def test_truncated_reachability_identical(self, corpus):
        """Caps that bite mid-walk truncate at the same transition.

        ``(2048, 192)`` cuts exactly on a row boundary: three whole rows of
        watchdog4's 64-valuation input grid.
        """
        design = corpus.design("watchdog4")
        keys = []
        for backend in BACKENDS:
            system = TransitionSystem(design, max_input_bits=12, backend=backend)
            for caps in ((7, 10_000), (2048, 33), (5, 41), (2048, 192)):
                result = enumerate_reachable(
                    system, max_states=caps[0], max_transitions=caps[1]
                )
                keys.append(
                    (
                        backend,
                        caps,
                        tuple(result.states),
                        result.complete,
                        result.transitions_explored,
                    )
                )
        by_caps = {}
        for backend, caps, *rest in keys:
            by_caps.setdefault(caps, set()).add(tuple(rest))
        for caps, variants in by_caps.items():
            assert len(variants) == 1, (caps, variants)
