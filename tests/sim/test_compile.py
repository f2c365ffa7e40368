"""Compiled-kernel backend: equivalence with the interpreter, store targets.

The compiled backend must agree with the tree-walking interpreter
bit-for-bit: the property-based tests below generate random expression trees
and random environments and compare both backends, and the simulator-level
tests compare whole traces of real corpus designs cycle by cycle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import ast, parse_expression
from repro.sim import (
    COMPILED,
    INTERPRETED,
    CompiledEvaluator,
    CompiledExecutor,
    EvalError,
    ExprEvaluator,
    Simulator,
    StatementExecutor,
    make_evaluator,
    make_executor,
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

_signal_targets = st.sampled_from(sorted(_SIGNAL_WIDTHS)).map(ast.Identifier)
# Constant positions, including ones past the signal's width and part
# selects written low-to-high.
_targets = st.one_of(
    _signal_targets,
    st.tuples(_signal_targets, st.integers(0, 6)).map(
        lambda t: ast.BitSelect(t[0], ast.Number(t[1]))
    ),
    st.tuples(_signal_targets, st.integers(0, 6), st.integers(0, 6)).map(
        lambda t: ast.PartSelect(t[0], ast.Number(t[1]), ast.Number(t[2]))
    ),
    st.tuples(_signal_targets, _signal_targets).map(
        lambda t: ast.BitSelect(t[0], t[1])
    ),
)
# Small constant labels repeat across arms; identifiers make a label dynamic.
_labels = st.lists(st.one_of(st.integers(0, 5).map(ast.Number), _atoms), min_size=1, max_size=2)
_statements = st.recursive(
    st.builds(ast.Assignment, _targets, _exprs, st.booleans()),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(ast.Block),
        st.builds(
            ast.Case,
            _exprs,
            st.lists(st.builds(ast.CaseItem, _labels, children), min_size=1, max_size=4),
            st.one_of(st.none(), children),
        ),
    ),
    max_leaves=6,
)

_envs = st.fixed_dictionaries(
    {name: st.integers(0, (1 << width) - 1) for name, width in _SIGNAL_WIDTHS.items()}
)


@pytest.fixture(scope="module")
def interp(adder_design):
    return ExprEvaluator(adder_design.model)


@pytest.fixture(scope="module")
def compiled(adder_design):
    return CompiledEvaluator(adder_design.model)


class TestExpressionEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(expr=_exprs, env=_envs)
    def test_random_expressions_agree(self, interp, compiled, expr, env):
        try:
            expected = interp.eval(expr, dict(env))
        except EvalError:
            with pytest.raises(EvalError):
                compiled.eval(expr, dict(env))
            return
        assert compiled.eval(expr, dict(env)) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "a + b",
            "a - b",
            "b - a",
            "a * b",
            "a / b",
            "a % b",
            "a % 0",
            "a / 0",
            "a ** 2",
            "(a + b) >> 1",
            "(a + b) >>> 2",
            "a << b",
            "~a",
            "!a",
            "-a",
            "&a",
            "|b",
            "^a",
            "a[3:1]",
            "a[0]",
            "{a, b}",
            "{2{b[1:0]}}",
            "a > b ? a : b",
            "a && b || !a",
            "total[4]",
            "{carry, sum} == total",
        ],
        ids=lambda t: t.replace(" ", ""),
    )
    def test_reference_expressions_agree(self, interp, compiled, text):
        expr = parse_expression(text)
        for a in (0, 1, 7, 10, 15):
            for b in (0, 3, 15):
                env = {"a": a, "b": b, "sum": (a + b) & 0xF,
                       "carry": (a + b) >> 4, "total": (a + b) & 0x1F}
                assert compiled.eval(expr, env) == interp.eval(expr, env), text

    def test_modulo_by_zero_is_masked_on_both_backends(self, interp, compiled):
        # Regression: the interpreter used to return the *unmasked* left
        # operand for % 0; both backends must mask to the operand width.
        expr = parse_expression("(a + b) % 4'd0")
        env = {"a": 15, "b": 15, "sum": 0, "carry": 0, "total": 0}
        assert interp.eval(expr, env) == (15 + 15) & 0xF
        assert compiled.eval(expr, env) == interp.eval(expr, env)

    def test_right_shift_masks_carry_headroom(self, interp, compiled):
        # Regression: >> used to leak the +1 carry bit of the left operand.
        expr = parse_expression("(a + b) >> 0")
        env = {"a": 15, "b": 15, "sum": 0, "carry": 0, "total": 0}
        assert interp.eval(expr, env) == (15 + 15) & 0xF
        assert compiled.eval(expr, env) == interp.eval(expr, env)

    def test_unknown_signal_raises_on_both_backends(self, adder_design):
        expr = parse_expression("ghost + 1")
        env = {name: 0 for name in _SIGNAL_WIDTHS}
        with pytest.raises(EvalError):
            ExprEvaluator(adder_design.model).eval(expr, env)
        with pytest.raises(EvalError):
            CompiledEvaluator(adder_design.model).eval(expr, env)

    def test_kernels_are_cached_structurally(self, compiled):
        first = compiled.compile(parse_expression("a + b"))
        second = compiled.compile(parse_expression("a + b"))
        assert first is second


class TestBackendSelection:
    def test_factories_build_requested_backend(self, adder_design):
        model = adder_design.model
        assert make_evaluator(model, INTERPRETED).backend == INTERPRETED
        assert make_evaluator(model, COMPILED).backend == COMPILED
        assert isinstance(make_executor(model, backend=COMPILED), CompiledExecutor)
        assert isinstance(make_executor(model, backend=INTERPRETED), StatementExecutor)

    def test_executor_follows_evaluator_backend(self, adder_design):
        model = adder_design.model
        compiled_eval = CompiledEvaluator(model)
        assert isinstance(make_executor(model, compiled_eval), CompiledExecutor)
        interp_eval = ExprEvaluator(model)
        assert isinstance(make_executor(model, interp_eval), StatementExecutor)

    def test_unknown_backend_rejected(self, adder_design):
        with pytest.raises(ValueError):
            make_evaluator(adder_design.model, "quantum")

    def test_simulator_reports_backend(self, adder_design):
        assert Simulator(adder_design, backend=INTERPRETED).backend == INTERPRETED
        assert Simulator(adder_design, backend=COMPILED).backend == COMPILED


@pytest.fixture(scope="module", params=[INTERPRETED, COMPILED])
def executor(request, adder_design):
    return make_executor(adder_design.model, backend=request.param)


class TestStoreTargets:
    """`store` semantics for concat and select assignment targets."""

    def _env(self):
        return {name: 0 for name in _SIGNAL_WIDTHS}

    def test_identifier_store_masks_to_width(self, executor):
        env = self._env()
        executor.store(ast.Identifier("sum"), 0x1F, env, env)
        assert env["sum"] == 0xF

    def test_bit_select_store_sets_and_clears(self, executor):
        env = self._env()
        env["a"] = 0b0101
        executor.store(parse_expression("a[1]"), 1, env, env)
        assert env["a"] == 0b0111
        executor.store(parse_expression("a[0]"), 0, env, env)
        assert env["a"] == 0b0110

    def test_part_select_store_replaces_field_only(self, executor):
        env = self._env()
        env["a"] = 0b1001
        executor.store(parse_expression("a[2:1]"), 0b11, env, env)
        assert env["a"] == 0b1111
        executor.store(parse_expression("a[3:2]"), 0, env, env)
        assert env["a"] == 0b0011

    def test_part_select_store_masks_oversized_value(self, executor):
        env = self._env()
        executor.store(parse_expression("a[2:1]"), 0xFF, env, env)
        assert env["a"] == 0b0110

    def test_concat_store_splits_msb_first(self, executor):
        # {carry, sum} = 5'b10110 → carry gets the MSB, sum the low nibble.
        env = self._env()
        target = ast.Concat((ast.Identifier("carry"), ast.Identifier("sum")))
        executor.store(target, 0b10110, env, env)
        assert env["carry"] == 1
        assert env["sum"] == 0b0110

    def test_concat_store_with_selects(self, executor):
        # {a[3:2], b[0]} = 3'b101
        env = self._env()
        target = ast.Concat((parse_expression("a[3:2]"), parse_expression("b[0]")))
        executor.store(target, 0b101, env, env)
        assert env["a"] == 0b1000
        assert env["b"] == 0b0001

    def test_nonblocking_store_stages_into_sink(self, executor):
        # A non-blocking part-select update must read the *staged* value so
        # two updates to the same register in one cycle compose.
        env = self._env()
        env["a"] = 0b1111
        sink = {}
        executor.store(parse_expression("a[1:0]"), 0, env, sink)
        executor.store(parse_expression("a[3]"), 0, env, sink)
        assert sink["a"] == 0b0100
        assert env["a"] == 0b1111


class TestStatementEquivalence:
    """Random statement bodies leave identical environments on both backends."""

    @staticmethod
    def _outcome(run):
        try:
            run()
        except EvalError:
            return "EvalError"
        return None

    @settings(max_examples=300, deadline=None)
    @given(stmt=_statements, env=_envs)
    def test_random_statements_agree(self, adder_design, stmt, env):
        results = []
        for backend in (INTERPRETED, COMPILED):
            executor = make_executor(adder_design.model, backend=backend)
            clocked, staged = dict(env), {}
            comb = dict(env)
            results.append((
                self._outcome(lambda: executor.run_sequential(stmt, clocked, staged)),
                clocked,
                staged,
                self._outcome(lambda: executor.run_combinational(stmt, comb)),
                comb,
            ))
        assert results[0] == results[1]

    def test_case_takes_first_arm_listing_a_label(self, adder_design):
        # The value 2 is listed by two arms; the first one wins.
        def set_sum(value):
            return ast.Assignment(ast.Identifier("sum"), ast.Number(value))

        case = ast.Case(
            parse_expression("a"),
            [
                ast.CaseItem([ast.Number(1), ast.Number(2)], set_sum(1)),
                ast.CaseItem([ast.Number(2)], set_sum(2)),
            ],
            set_sum(3),
        )
        for backend in (INTERPRETED, COMPILED):
            executor = make_executor(adder_design.model, backend=backend)
            for a, expected in ((1, 1), (2, 1), (5, 3)):
                env = {name: 0 for name in _SIGNAL_WIDTHS}
                env["a"] = a
                executor.run_combinational(case, env)
                assert env["sum"] == expected, (backend, a)


class TestSimulatorEquivalence:
    """Whole-design traces must be identical on both backends."""

    @pytest.mark.parametrize(
        "name",
        ["full_adder", "alu4", "traffic_light", "multiplier4", "lfsr8",
         "updown_counter4", "uart_tx"],
    )
    def test_traces_agree(self, corpus, name):
        design = corpus.design(name)
        trace_interp = Simulator(design, backend=INTERPRETED).run(cycles=48, seed=7)
        trace_compiled = Simulator(design, backend=COMPILED).run(cycles=48, seed=7)
        assert trace_interp.signals == trace_compiled.signals
        for signal in trace_interp.signals:
            assert trace_interp.column(signal) == trace_compiled.column(signal), (
                f"{name}.{signal} diverges between backends"
            )
