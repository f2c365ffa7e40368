"""Vectorized (NumPy) backend: equivalence with the scalar backends.

The vector lowering must agree with the tree-walking interpreter bit-for-bit
on every expression it accepts: the property-based tests generate random
expression trees and random *batches* of environments and compare lanes
against per-environment interpreter runs.  The simulation tests compare
whole batched traces against one scalar run per stimulus, and the lowering
tests pin down which models are accepted vs. refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import get_corpus
from repro.hdl import Design, ast
from repro.sim import (
    CombinationalLoopError,
    EvalError,
    ExprEvaluator,
    RandomStimulus,
    ResetSequenceStimulus,
    Simulator,
    WalkingOnesStimulus,
    stack_stimuli,
)
from repro.sim.vector import (
    PLAN_MULTILIMB,
    PLAN_SOA,
    UnsupportedForVectorization,
    VectorKernel,
    batch_simulation_pays,
    comb_cycle_independent,
    lower_model,
    pack_columns,
    plan_model,
    simulate_batch,
    unpack_columns,
)

# adder_design signals: a[3:0], b[3:0], sum[3:0], carry, total[4:0]
_SIGNAL_WIDTHS = {"a": 4, "b": 4, "sum": 4, "carry": 1, "total": 5}

_BINOPS = [
    "+", "-", "*", "/", "%", "&", "|", "^",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||",
    "<<", ">>", "<<<", ">>>",
]
_UNOPS = ["~", "!", "-", "&", "|", "^"]

_atoms = st.one_of(
    st.sampled_from([ast.Identifier(name) for name in _SIGNAL_WIDTHS]),
    st.integers(0, 31).map(ast.Number),
    st.tuples(st.integers(0, 31), st.integers(1, 6)).map(
        lambda t: ast.Number(t[0], t[1])
    ),
)


def _part_select(t):
    base, hi, lo = t
    if hi < lo:
        hi, lo = lo, hi
    return ast.PartSelect(base, ast.Number(hi), ast.Number(lo))


_exprs = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(_BINOPS), children, children).map(
            lambda t: ast.Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(_UNOPS), children).map(
            lambda t: ast.Unary(t[0], t[1])
        ),
        st.tuples(children, children, children).map(
            lambda t: ast.Ternary(t[0], t[1], t[2])
        ),
        st.tuples(children, st.integers(0, 5)).map(
            lambda t: ast.BitSelect(t[0], ast.Number(t[1]))
        ),
        st.tuples(children, st.integers(0, 5), st.integers(0, 5)).map(_part_select),
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: ast.Concat(tuple(parts))
        ),
        st.tuples(st.integers(0, 3), children).map(
            lambda t: ast.Replicate(ast.Number(t[0]), t[1])
        ),
    ),
    max_leaves=12,
)

_env_batches = st.lists(
    st.fixed_dictionaries(
        {name: st.integers(0, (1 << width) - 1) for name, width in _SIGNAL_WIDTHS.items()}
    ),
    min_size=1,
    max_size=5,
)


@pytest.fixture(scope="module")
def adder_kernel(adder_design):
    kernel = lower_model(adder_design.model)
    assert kernel is not None
    return kernel


class TestExpressionLanes:
    @settings(max_examples=300, deadline=None)
    @given(expr=_exprs, envs=_env_batches)
    def test_random_expression_lanes_agree(self, adder_design, adder_kernel, expr, envs):
        interp = ExprEvaluator(adder_design.model)
        try:
            vec = adder_kernel.exprs.compile(expr)
        except UnsupportedForVectorization:
            # The lowering may refuse ('**', overly wide intermediates); the
            # scalar backends stay authoritative for those.
            return
        except EvalError:
            with pytest.raises(EvalError):
                for env in envs:
                    interp.eval(expr, dict(env))
            return
        cols = {
            name: np.asarray([env[name] for env in envs], dtype=np.int64)
            for name in _SIGNAL_WIDTHS
        }
        out = vec(cols)
        lanes = (
            out.tolist() if isinstance(out, np.ndarray) else [int(out)] * len(envs)
        )
        expected = [interp.eval(expr, dict(env)) for env in envs]
        assert lanes == expected, ast.render_expr(expr) if hasattr(ast, "render_expr") else str(expr)

    def test_shift_mask_of_overwide_declared_width(self, adder_design, adder_kernel):
        # A concat of width-less constants declares 64 bits even though its
        # value fits trivially; the '>>' lowering must not build a mask no
        # int64 lane can hold (regression: OverflowError at kernel time).
        expr = ast.Binary(
            op=">>",
            left=ast.Ternary(
                cond=ast.Identifier(name="a"),
                then=ast.Identifier(name="a"),
                otherwise=ast.Concat(parts=(ast.Number(value=0), ast.Number(value=0))),
            ),
            right=ast.Identifier(name="a"),
        )
        vec = adder_kernel.exprs.compile(expr)
        interp = ExprEvaluator(adder_design.model)
        envs = [{name: 0 for name in _SIGNAL_WIDTHS}, {name: 1 for name in _SIGNAL_WIDTHS}]
        cols = {
            name: np.asarray([env[name] for env in envs], dtype=np.int64)
            for name in _SIGNAL_WIDTHS
        }
        lanes = np.asarray(vec(cols)).tolist()
        assert lanes == [interp.eval(expr, dict(env)) for env in envs]

    def test_zero_replicate_of_overwide_operand(self, adder_design, adder_kernel):
        # Zero copies are 0 in every lane, even of a 64-bit operand
        # (regression: the replicate mask overflowed the int64 lanes).
        overwide = ast.Ternary(
            cond=ast.Identifier(name="a"),
            then=ast.Identifier(name="a"),
            otherwise=ast.Concat(parts=(ast.Number(value=0), ast.Number(value=0))),
        )
        zero = ast.Number(value=0)
        interp = ExprEvaluator(adder_design.model)
        envs = [{name: value for name in _SIGNAL_WIDTHS} for value in (0, 1)]
        cols = {name: np.asarray([0, 1], dtype=np.int64) for name in _SIGNAL_WIDTHS}
        for expr in (
            ast.Replicate(count=zero, value=overwide),
            ast.Ternary(
                cond=zero,
                then=ast.Number(value=0, width=1),
                otherwise=ast.Replicate(count=zero, value=ast.Identifier(name="a")),
            ),
        ):
            lanes = np.asarray(adder_kernel.exprs.compile(expr)(cols)).tolist()
            assert lanes == [interp.eval(expr, dict(env)) for env in envs] == [0, 0]


class TestPacking:
    def test_pack_unpack_round_trip(self):
        cols = {
            "x": np.asarray([3, 1, 7], dtype=np.int64),
            "y": np.asarray([0, 5, 2], dtype=np.int64),
        }
        packed = pack_columns(cols, ["x", "y"], [3, 3])
        assert packed.tolist() == [3, 1 | (5 << 3), 7 | (2 << 3)]
        unpacked = unpack_columns(packed, ["x", "y"], [3, 3])
        assert unpacked["x"].tolist() == [3, 1, 7]
        assert unpacked["y"].tolist() == [0, 5, 2]

    def test_zero_field_packing_keeps_lanes(self):
        packed = pack_columns({}, [], [], lanes=4)
        assert packed.tolist() == [0, 0, 0, 0]


class TestLowering:
    def test_every_corpus_design_lowers(self, corpus):
        # Since the multi-limb strategy landed, no corpus design falls back to
        # the scalar path.
        for design in corpus.all_designs():
            plan = plan_model(design.model)
            assert plan.plan != "fallback", (design.name, plan.reason)
        # Wide-bus designs that the packed SoA representation refuses now
        # lower through limb columns instead of returning None.
        wide = plan_model(corpus.design("mtx_trps_4x4").model)
        assert wide.plan == "multilimb"
        assert lower_model(corpus.design("mtx_trps_4x4").model).plan_name == "multilimb"

    def test_power_operator_refuses_soa_but_lowers_multilimb(self):
        design = Design.from_source(
            "module p(input [3:0] a, output [3:0] y);\n"
            "  assign y = a ** 2;\nendmodule\n"
        )
        # The packed SoA kernel still refuses '**'; the planner routes the
        # model to the multi-limb kernel instead.
        with pytest.raises(UnsupportedForVectorization):
            VectorKernel(design.model)
        from repro.sim.vector import plan_model

        assert plan_model(design.model).plan == "multilimb"


class TestStimulusMatrix:
    def test_matrix_matches_vectors(self, corpus):
        model = corpus.design("counter").model
        stim = ResetSequenceStimulus(RandomStimulus(seed=3), reset_cycles=2)
        matrix = stim.matrix(model, 20)
        vectors = list(
            ResetSequenceStimulus(RandomStimulus(seed=3), reset_cycles=2).vectors(model, 20)
        )
        for name in model.non_clock_inputs:
            expected = [v.get(name, 0) & model.signals[name].mask for v in vectors]
            assert matrix[name].tolist() == expected

    def test_stack_shape_and_lanes(self, corpus):
        model = corpus.design("counter").model
        stimuli = [RandomStimulus(seed=s) for s in range(3)]
        stacked = stack_stimuli(stimuli, model, 10)
        for name in model.non_clock_inputs:
            assert stacked[name].shape == (10, 3)
            lane1 = RandomStimulus(seed=1).matrix(model, 10)[name]
            assert stacked[name][:, 1].tolist() == lane1.tolist()


class TestBatchedSimulation:
    @pytest.mark.parametrize(
        "name",
        ["counter", "arb2", "lfsr8", "uart_tx", "rca8", "comparator8", "shift_reg8"],
    )
    def test_batch_matches_scalar_traces(self, corpus, name):
        design = corpus.design(name)
        stimuli = [
            ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2)
            for seed in range(3)
        ]
        batched = simulate_batch(design.model, stimuli, 40)
        for seed, trace in enumerate(batched):
            scalar = Simulator(design, backend="compiled").run(
                cycles=40,
                stimulus=ResetSequenceStimulus(RandomStimulus(seed=seed), reset_cycles=2),
            )
            assert trace.signals == scalar.signals
            for signal in trace.signals:
                assert trace.column(signal) == scalar.column(signal), (name, seed, signal)

    def test_walking_ones_matches_scalar(self, corpus):
        design = corpus.design("gray_encoder4")
        batched = simulate_batch(design.model, [WalkingOnesStimulus()], 16)
        scalar = Simulator(design).run(cycles=16, stimulus=WalkingOnesStimulus())
        for signal in scalar.signals:
            assert batched[0].column(signal) == scalar.column(signal)

    def test_comb_cycle_independence_classification(self, corpus):
        # acyclic assign-only networks: independent
        for name in ("comparator8", "barrel_shifter8", "hamming_encoder"):
            assert comb_cycle_independent(corpus.design(name).model), name
        # sequential design: never independent
        assert not comb_cycle_independent(corpus.design("counter").model)
        # name-level feedback (ripple carry reads its own carry vector):
        # conservatively treated as dependent even though bits are acyclic
        assert not comb_cycle_independent(corpus.design("rca8").model)

    @pytest.mark.parametrize(
        "corpus_name, name, lanes, pays",
        [
            ("assertionbench", "comparator8", 2, True),  # cycle-independent SoA
            ("assertionbench-wide", "wide_cmp80", 2, True),  # cycle-independent limbs
            ("assertionbench", "counter", 2, False),  # sequential SoA, few lanes
            ("assertionbench", "counter", 15, False),
            ("assertionbench", "counter", 16, True),  # sequential SoA, break-even
            ("assertionbench-wide", "wide_counter128", 2, False),  # sequential limbs
            ("assertionbench-wide", "wide_accum96", 64, False),
        ],
    )
    def test_batch_simulation_routing(self, corpus_name, name, lanes, pays):
        model = get_corpus(corpus_name).design(name).model
        lowered = []

        def lower():
            plan = plan_model(model).plan
            lowered.append(plan)
            return plan, lanes

        assert batch_simulation_pays(model, lanes, lower) is pays
        # Only a bound that would pay on the SoA plan lowers the design, and
        # a sequential design with a signal too wide for SoA never lowers.
        soa_stepped = lanes >= 16 and not corpus_name.endswith("wide")
        assert bool(lowered) is (comb_cycle_independent(model) or soa_stepped)
        if lowered:
            assert lowered == [PLAN_MULTILIMB if corpus_name.endswith("wide") else PLAN_SOA]

    def test_batch_simulation_routing_uses_lowered_lanes(self, corpus):
        # The lanes the lowering reports decide, not the bound: a family
        # whose rejected members leave too few lanes runs unbatched.
        model = corpus.design("counter").model
        assert not batch_simulation_pays(model, 16, lambda: (PLAN_SOA, 8))
        assert not batch_simulation_pays(model, 16, lambda: None)
        assert batch_simulation_pays(corpus.design("comparator8").model, 2, lambda: (PLAN_SOA, 2))
        assert not batch_simulation_pays(corpus.design("comparator8").model, 2, lambda: None)

    def test_combinational_loop_raises_like_scalar(self):
        source = (
            "module osc(input a, output y);\n"
            "  wire w;\n"
            "  assign w = ~w | a;\n"
            "  assign y = w;\nendmodule\n"
        )
        design = Design.from_source(source)
        with pytest.raises(CombinationalLoopError):
            Simulator(design).run(cycles=4, stimulus=RandomStimulus(seed=0))
        with pytest.raises(CombinationalLoopError):
            simulate_batch(design.model, [RandomStimulus(seed=0)], 4)
