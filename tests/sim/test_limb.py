"""Multi-limb lowering: equivalence with the scalar backends past 64 bits.

The limb kernel holds every signal as 32-bit limb columns, so it must agree
bit-for-bit with the tree-walking interpreter on arbitrarily wide values —
including exactly the widths the packed int64 representation cannot hold
(63/64/65 bits), shift amounts at and past the operand width, compare
operands straddling the int64 sign bit, and the ``**`` operator no other
vector lowering accepts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import get_corpus
from repro.hdl import Design, ast
from repro.mutate.operators import enumerate_mutants
from repro.sim import EvalError, ExprEvaluator, RandomStimulus, Simulator
from repro.sim.compile import CompiledEvaluator
from repro.sim.limb import (
    LimbExprCompiler,
    MultiLimbKernel,
    _from_object,
    _to_object,
    limbs_for,
)
from repro.sim.vector import (
    GOLDEN_MEMBER,
    PLAN_MULTILIMB,
    UnsupportedForVectorization,
    lower_family,
    plan_model,
    simulate_batch,
)

_WIDE_SOURCE = """\
module widesigs(w63, w64, w65, wd, nar, b, y);
  input [62:0] w63;
  input [63:0] w64;
  input [64:0] w65;
  input [99:0] wd;
  input [3:0] nar;
  input b;
  output y;
  assign y = b;
endmodule
"""

_SIGNAL_WIDTHS = {"w63": 63, "w64": 64, "w65": 65, "wd": 100, "nar": 4, "b": 1}

_BINOPS = [
    "+", "-", "*", "/", "%", "**", "&", "|", "^",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||",
    "<<", ">>", "<<<", ">>>",
]
_UNOPS = ["~", "!", "-", "&", "|", "^"]

_atoms = st.one_of(
    st.sampled_from([ast.Identifier(name) for name in _SIGNAL_WIDTHS]),
    st.integers(0, 31).map(ast.Number),
    st.tuples(st.integers(0, (1 << 70) - 1), st.integers(1, 100)).map(
        lambda t: ast.Number(t[0] & ((1 << t[1]) - 1), t[1])
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
        st.tuples(children, st.integers(0, 101)).map(
            lambda t: ast.BitSelect(t[0], ast.Number(t[1]))
        ),
        st.tuples(children, st.integers(0, 101), st.integers(0, 101)).map(
            _part_select
        ),
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: ast.Concat(tuple(parts))
        ),
        st.tuples(st.integers(0, 2), children).map(
            lambda t: ast.Replicate(ast.Number(t[0]), t[1])
        ),
    ),
    max_leaves=10,
)


def _signal_values(width):
    mask = (1 << width) - 1
    boundary = sorted(
        {
            0,
            1,
            mask,
            mask - 1,
            mask >> 1,
            (1 << (width - 1)) & mask,
            ((1 << 63) - 1) & mask,
            (1 << 63) & mask,
            (1 << 64) & mask,
        }
    )
    return st.one_of(st.sampled_from(boundary), st.integers(0, mask))


_env_batches = st.lists(
    st.fixed_dictionaries(
        {name: _signal_values(width) for name, width in _SIGNAL_WIDTHS.items()}
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def wide_design():
    return Design.from_source(_WIDE_SOURCE)


@pytest.fixture(scope="module")
def limb_compiler(wide_design):
    return LimbExprCompiler(wide_design.model)


def _limb_cols(envs, model):
    cols = {}
    for name, signal in model.signals.items():
        values = np.asarray([env.get(name, 0) for env in envs], dtype=object)
        cols[name] = _from_object(values, limbs_for(signal.width))
    return cols


def _lanes(out, count):
    values = _to_object(np.asarray(out)).tolist()
    if len(values) == 1 and count > 1:
        return values * count
    return [int(v) for v in values]


class TestLimbExpressionLanes:
    @settings(max_examples=300, deadline=None)
    @given(expr=_exprs, envs=_env_batches)
    def test_random_expression_lanes_agree(self, wide_design, limb_compiler, expr, envs):
        interp = ExprEvaluator(wide_design.model)
        try:
            vec = limb_compiler.compile(expr)
        except UnsupportedForVectorization:
            return
        except EvalError:
            with pytest.raises(EvalError):
                for env in envs:
                    interp.eval(expr, dict(env))
            return
        cols = _limb_cols(envs, wide_design.model)
        lanes = _lanes(vec(cols), len(envs))
        expected = [interp.eval(expr, dict(env)) for env in envs]
        assert lanes == expected, str(expr)

    @pytest.mark.parametrize("name", ["w63", "w64", "w65", "wd"])
    @pytest.mark.parametrize("op", ["+", "-", "*", "<", "<=", ">", ">=", "==", "!="])
    def test_boundary_arithmetic_and_compares(self, wide_design, limb_compiler, name, op):
        width = _SIGNAL_WIDTHS[name]
        mask = (1 << width) - 1
        interp = ExprEvaluator(wide_design.model)
        expr = ast.Binary(op, ast.Identifier(name), ast.Identifier("wd"))
        vec = limb_compiler.compile(expr)
        specials = [0, 1, mask - 1, mask, mask >> 1, (1 << 63) & mask, ((1 << 63) - 1) & mask]
        envs = [
            {**{k: 0 for k in _SIGNAL_WIDTHS}, name: a, "wd": b}
            for a in specials
            for b in [0, 1, (1 << 63) - 1, 1 << 63, 1 << 64, (1 << 100) - 1]
        ]
        cols = _limb_cols(envs, wide_design.model)
        assert _lanes(vec(cols), len(envs)) == [
            interp.eval(expr, dict(env)) for env in envs
        ]

    @pytest.mark.parametrize("op", ["<<", ">>", "<<<", ">>>"])
    def test_shift_by_width_and_beyond(self, wide_design, limb_compiler, op):
        interp = ExprEvaluator(wide_design.model)
        expr = ast.Binary(op, ast.Identifier("w65"), ast.Identifier("nar"))
        wide_amount = ast.Binary(op, ast.Identifier("wd"), ast.Identifier("w64"))
        for tree, amounts in ((expr, [0, 1, 14, 15]), (wide_amount, [0, 63, 64, 65, 100, 101, (1 << 64) - 1])):
            vec = limb_compiler.compile(tree)
            envs = [
                {
                    **{k: 0 for k in _SIGNAL_WIDTHS},
                    "w65": (1 << 65) - 1,
                    "wd": (1 << 100) - 1,
                    "nar": amount if amount < 16 else 15,
                    "w64": amount,
                }
                for amount in amounts
            ]
            cols = _limb_cols(envs, wide_design.model)
            assert _lanes(vec(cols), len(envs)) == [
                interp.eval(tree, dict(env)) for env in envs
            ]

    def test_power_and_division_by_zero(self, wide_design, limb_compiler):
        interp = ExprEvaluator(wide_design.model)
        for op in ("**", "/", "%"):
            expr = ast.Binary(op, ast.Identifier("w65"), ast.Identifier("nar"))
            vec = limb_compiler.compile(expr)
            envs = [
                {**{k: 0 for k in _SIGNAL_WIDTHS}, "w65": base, "nar": exp}
                for base in [0, 1, 2, (1 << 65) - 1, 1 << 64]
                for exp in [0, 1, 2, 7, 15]
            ]
            cols = _limb_cols(envs, wide_design.model)
            assert _lanes(vec(cols), len(envs)) == [
                interp.eval(expr, dict(env)) for env in envs
            ], op

    def test_huge_exponent_is_bounded(self, wide_design, limb_compiler):
        # ``**`` is modular in the reference backends too: a 100-bit exponent
        # must not build the unbounded power before masking.
        expr = ast.Binary("**", ast.Identifier("w65"), ast.Identifier("wd"))
        exponent = (1 << 100) - 1
        envs = [
            {**{k: 0 for k in _SIGNAL_WIDTHS}, "w65": base, "wd": exponent}
            for base in [0, 1, 3, (1 << 64) + 5, (1 << 65) - 1]
        ]
        expected = [pow(env["w65"], exponent, 1 << 100) for env in envs]
        started = time.perf_counter()
        for evaluator in (ExprEvaluator(wide_design.model), CompiledEvaluator(wide_design.model)):
            assert [evaluator.eval(expr, dict(env)) for env in envs] == expected
        assert time.perf_counter() - started < 5.0
        cols = _limb_cols(envs, wide_design.model)
        assert _lanes(limb_compiler.compile(expr)(cols), len(envs)) == expected

    def test_zero_width_product_and_power(self, wide_design, limb_compiler):
        # Zero copies make a zero-width operand; its product and power are
        # 0, like the interpreter's ``pow(x, y, 1)``.
        empty = ast.Replicate(ast.Number(0), ast.Identifier("w63"))
        env = {k: 1 for k in _SIGNAL_WIDTHS}
        interp = ExprEvaluator(wide_design.model)
        cols = _limb_cols([env], wide_design.model)
        for op in ("*", "**"):
            expr = ast.Binary(op, empty, empty)
            lanes = _lanes(limb_compiler.compile(expr)(cols), 1)
            assert lanes == [interp.eval(expr, dict(env))] == [0], op

    def test_wide_divisor_object_fallback(self, wide_design, limb_compiler):
        interp = ExprEvaluator(wide_design.model)
        for op in ("/", "%"):
            expr = ast.Binary(op, ast.Identifier("wd"), ast.Identifier("w65"))
            vec = limb_compiler.compile(expr)
            envs = [
                {**{k: 0 for k in _SIGNAL_WIDTHS}, "wd": a, "w65": b}
                for a in [0, (1 << 100) - 1, 1 << 99]
                for b in [0, 1, (1 << 64) + 1, (1 << 65) - 1]
            ]
            cols = _limb_cols(envs, wide_design.model)
            assert _lanes(vec(cols), len(envs)) == [
                interp.eval(expr, dict(env)) for env in envs
            ], op


#: A narrow control FSM: SoA-planned, so only a direct build runs the limb
#: kernel on it.
_FSM_SOURCE = """\
module ctrlfsm(clk, rst, a, b, state, flag, ones, y0, y1, y2, y3);
  input clk, rst, a, b;
  output reg [1:0] state;
  output reg flag;
  output [1:0] ones;
  output y0, y1, y2, y3;
  reg p0, p1, p2, p3;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      state <= 2'd0;
      flag <= 1'b0;
      p0 <= 1'b0;
      p1 <= 1'b0;
      p2 <= 1'b1;
      p3 <= 1'b0;
    end else begin
      case (state)
        2'd0: state <= a ? 2'd1 : 2'd0;
        2'd1: state <= b ? 2'd2 : 2'd1;
        2'd2: state <= (a & b) ? 2'd3 : 2'd0;
        default: state <= 2'd0;
      endcase
      flag <= (state == 2'd3) | (a ^ b);
      p0 <= a ^ p1;
      p1 <= b & p2;
      p2 <= p3 | a;
      p3 <= ~p0;
    end
  end
  assign ones = {1'b0, a} + {1'b0, b};
  assign y0 = p0 ^ p2;
  assign y1 = p1 & flag;
  assign y2 = state < 2'd2;
  assign y3 = state[1];
endmodule
"""


class TestLimbSimulation:
    @pytest.mark.parametrize(
        "name",
        ["wide_counter100", "wide_accum96", "wide_checksum96", "pow_lfsr72", "wide_shift80", "wide_mux96"],
    )
    def test_batch_matches_scalar_traces(self, name):
        design = get_corpus("assertionbench-wide").design(name)
        plan = plan_model(design.model)
        assert plan.plan == PLAN_MULTILIMB
        stimuli = [RandomStimulus(seed=seed) for seed in range(3)]
        batched = simulate_batch(design.model, stimuli, 30, kernel=plan.kernel)
        for seed, trace in enumerate(batched):
            scalar = Simulator(design, backend="compiled").run(
                cycles=30, stimulus=RandomStimulus(seed=seed)
            )
            for signal in trace.signals:
                assert trace.column(signal) == scalar.column(signal), (name, seed, signal)

    def test_narrow_control_fsm_matches_scalar_traces(self):
        design = Design.from_source(_FSM_SOURCE)
        kernel = MultiLimbKernel(design.model)
        stimuli = [RandomStimulus(seed=seed) for seed in range(2)]
        batched = simulate_batch(design.model, stimuli, 30, kernel=kernel)
        for seed, trace in enumerate(batched):
            scalar = Simulator(design, backend="compiled").run(
                cycles=30, stimulus=RandomStimulus(seed=seed)
            )
            for signal in trace.signals:
                assert trace.column(signal) == scalar.column(signal), (seed, signal)

    def test_settled_env_row_round_trip(self):
        design = get_corpus("assertionbench-wide").design("wide_cmp100")
        kernel = MultiLimbKernel(design.model)
        env = kernel.initial_env(4)
        values = [0, 1, (1 << 100) - 1, 1 << 99]
        env["a"] = kernel.lift_input("a", np.asarray(values, dtype=object), 4)
        env["b"] = kernel.lift_input("b", np.asarray(values[::-1], dtype=object), 4)
        assert kernel.settle(env)
        for lane in range(4):
            row = kernel.env_row(env, lane, list(design.model.signals))
            assert row["a"] == values[lane]
            assert row["maxv"] == max(values[lane], values[3 - lane])


def _assert_family_simulate_matches_scalar(name):
    design = get_corpus("assertionbench-wide").design(name)
    mutants, _ = enumerate_mutants(design, limit=5)
    assert mutants
    lowering = lower_family(design.model, [m.design.model for m in mutants])
    assert lowering is not None
    assert lowering.plan == PLAN_MULTILIMB
    members, designs = [GOLDEN_MEMBER], [design]
    for position, mutant in enumerate(mutants):
        if lowering.member_ids[position] is not None:
            members.append(lowering.member_ids[position])
            designs.append(mutant.design)
    stimuli = [RandomStimulus(seed=seed) for seed in range(2)]
    traces = lowering.kernel.family_simulate(members, stimuli, cycles=20)
    for row, member_design in enumerate(designs):
        for seed in range(2):
            reference = Simulator(member_design).run(
                cycles=20, stimulus=RandomStimulus(seed=seed)
            )
            for cycle in range(20):
                assert traces[row][seed].row(cycle) == reference.row(cycle)


class TestLimbFamily:
    def test_wide_family_simulate_matches_scalar(self):
        _assert_family_simulate_matches_scalar("wide_accum96")

    def test_cycle_independent_wide_family_matches_scalar(self):
        # wide_cmp100 settles every member's seeds x cycles as one flat batch.
        _assert_family_simulate_matches_scalar("wide_cmp100")
