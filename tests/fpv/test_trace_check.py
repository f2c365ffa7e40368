"""Unit tests for assertion checking over simulation traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpv import TraceChecker, check_on_trace
from repro.hdl import Design, ast
from repro.sim import EvalError, Simulator, Trace
from repro.sva import parse_assertion
from repro.sva.model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm


@pytest.fixture(scope="module")
def arb2_trace(arb2_design):
    return Simulator(arb2_design).run(cycles=300, seed=5)


class TestTraceChecker:
    def test_proven_style_assertion_holds(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1 && req2 == 0) |-> (gnt1 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.holds
        assert result.triggers > 0
        assert not result.vacuous

    def test_failing_assertion_reports_cycles(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1) |-> (gnt2 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.violations > 0
        assert result.first_violation is not None
        assert len(result.failed_terms) == result.violations

    def test_vacuous_assertion_detected(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(gnt_ == 3) |-> (gnt1 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.vacuous
        assert result.holds

    def test_temporal_assertion_attempt_window(self, arb2_design):
        trace = Trace(signals=list(arb2_design.model.signals))
        base = {name: 0 for name in arb2_design.model.signals}
        for req1 in (1, 1, 0, 0):
            row = dict(base)
            row["req1"] = req1
            trace.append(row)
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1) ##1 (req1 == 1) |=> (gnt1 == 0);")
        result = checker.check(assertion, trace)
        # only start cycles 0..(len-depth-1) are attempted
        assert result.attempts == len(trace) - assertion.temporal_depth
        assert result.triggers == 1

    def test_disable_iff_suppresses_attempts(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        plain = parse_assertion("(req1 == 1) |-> (gnt1 == 1);")
        disabled = parse_assertion("disable iff (req1) (req1 == 1) |-> (gnt1 == 1);")
        assert checker.check(disabled, arb2_trace).triggers == 0
        assert checker.check(plain, arb2_trace).triggers > 0

    def test_check_on_trace_wrapper(self, arb2_design, arb2_trace):
        assertion = parse_assertion("(req2 == 1 && req1 == 0) |-> (gnt2 == 1);")
        result = check_on_trace(assertion, arb2_trace, arb2_design.model)
        assert result.holds

    def test_holds_on_helper(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assert checker.holds_on(
            parse_assertion("(req1 == 0 && req2 == 0) |-> (gnt1 == 0);"), arb2_trace
        )


# -- columnar checking against the scalar oracle ------------------------------------

_WIDE_SOURCE = """\
module tcwide(clk, a, b, s, c, y);
  input clk;
  input [95:0] a;
  input [70:0] b;
  input [3:0] s;
  input c;
  output [95:0] y;
  assign y = a ^ b;
endmodule
"""

_WIDTHS = {"clk": 1, "a": 96, "b": 71, "s": 4, "c": 1, "y": 96}


def _boundaries(width):
    mask = (1 << width) - 1
    return sorted({0, 1, mask, 1 << (width - 1), ((1 << 64) + 3) & mask})


def _signal_values(width):
    return st.one_of(st.sampled_from(_boundaries(width)), st.integers(0, (1 << width) - 1))


_rows = st.lists(
    st.fixed_dictionaries({name: _signal_values(width) for name, width in _WIDTHS.items()}),
    max_size=24,
)

_wide = st.sampled_from([ast.Identifier(name) for name in ("a", "b", "y")])
_terms = st.one_of(
    st.tuples(st.sampled_from(["==", "!=", "<", ">="]), _wide, _wide).map(
        lambda t: ast.Binary(t[0], t[1], t[2])
    ),
    st.tuples(_wide, st.sampled_from(_boundaries(71))).map(
        lambda t: ast.Binary("==", t[0], ast.Number(t[1]))
    ),
    st.integers(0, 95).map(lambda bit: ast.BitSelect(ast.Identifier("a"), ast.Number(bit))),
    st.integers(0, 15).map(lambda v: ast.Binary("<", ast.Identifier("s"), ast.Number(v))),
    st.just(ast.Identifier("c")),
    st.just(
        ast.Binary(">", ast.Binary("+", ast.Identifier("a"), ast.Identifier("b")), ast.Identifier("y"))
    ),
)
_sequences = st.lists(
    st.builds(SequenceTerm, st.integers(0, 3), _terms), min_size=1, max_size=3
)
_assertions = st.builds(
    Assertion,
    antecedent=_sequences,
    consequent=_sequences,
    implication=st.sampled_from([OVERLAPPED, NON_OVERLAPPED]),
    disable_iff=st.none() | _terms,
)


@pytest.fixture(scope="module")
def wide_model():
    return Design.from_source(_WIDE_SOURCE).model


def _trace(model, rows):
    trace = Trace(signals=list(model.signals))
    for row in rows:
        trace.append(row)
    return trace


def _outcome(check, assertion, trace):
    try:
        return check(assertion, trace)
    except EvalError as exc:
        return ("EvalError", str(exc))


class TestColumnarMatchesScalar:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @settings(max_examples=150, deadline=None)
    @given(assertion=_assertions, rows=_rows)
    def test_random_assertions_and_wide_traces(self, wide_model, backend, assertion, rows):
        trace = _trace(wide_model, rows)
        checker = TraceChecker(wide_model, backend=backend)
        expected = checker.check_scalar(assertion, trace)
        # The columnar path itself, not the oracle fallback, must agree.
        assert checker._check_columns(assertion, trace) == expected
        assert checker.check(assertion, trace) == expected

    @settings(max_examples=100, deadline=None)
    @given(assertion=_assertions, rows=_rows, split=st.integers(0, 24))
    def test_appending_cycles_invalidates_columns(self, wide_model, assertion, rows, split):
        split %= len(rows) + 1
        trace = _trace(wide_model, rows[:split])
        checker = TraceChecker(wide_model)
        assert checker.check(assertion, trace) == checker.check_scalar(assertion, trace)
        for row in rows[split:]:
            trace.append(row)
        assert checker.check(assertion, trace) == checker.check_scalar(assertion, trace)

    def test_appended_cycles_are_checked(self, wide_model):
        assertion = Assertion(
            antecedent=[SequenceTerm(0, ast.Identifier("c"))],
            consequent=[SequenceTerm(0, ast.Binary("<", ast.Identifier("s"), ast.Number(8)))],
        )
        base = {name: 0 for name in _WIDTHS}
        trace = _trace(wide_model, [{**base, "c": 1}] * 2)
        checker = TraceChecker(wide_model)
        assert checker.check(assertion, trace).triggers == 2
        trace.append({**base, "c": 1, "s": 9})
        result = checker.check(assertion, trace)
        assert (result.triggers, result.violation_cycles) == (3, [2])

    def test_traces_of_equal_length_keep_their_own_columns(self, wide_model):
        assertion = Assertion(
            antecedent=[SequenceTerm(0, ast.Identifier("c"))],
            consequent=[SequenceTerm(1, ast.Binary("<", ast.Identifier("s"), ast.Number(8)))],
        )
        checker = TraceChecker(wide_model)
        base = {name: 0 for name in _WIDTHS}
        traces = [
            _trace(wide_model, [{**base, "c": 1, "s": s} for s in values])
            for values in ([0, 9, 1, 9], [9, 0, 9, 0])
        ]
        for trace in traces * 2:
            assert checker.check(assertion, trace) == checker.check_scalar(assertion, trace)
        assert checker.check(assertion, traces[0]).violation_cycles == [0, 2]
        assert checker.check(assertion, traces[1]).violation_cycles == [1]

    def test_column_cache_is_bounded(self, wide_model):
        assertion = Assertion(
            antecedent=[SequenceTerm(0, ast.Identifier("c"))],
            consequent=[SequenceTerm(0, ast.Identifier("c"))],
        )
        checker = TraceChecker(wide_model)
        base = {name: 0 for name in _WIDTHS}
        for _ in range(checker.column_traces + 3):
            checker.check(assertion, _trace(wide_model, [base, {**base, "c": 1}]))
        assert len(checker._columns) == checker.column_traces

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @pytest.mark.parametrize("gate", [[0, 0, 0, 0], [0, 1, 0, 0]])
    @pytest.mark.parametrize("where", ["antecedent", "consequent", "disable_iff"])
    def test_unknown_signal_raises_like_the_oracle(self, wide_model, backend, gate, where):
        unknown = ast.Binary("==", ast.Identifier("nosuch"), ast.Number(1))
        gated = ast.Identifier("c")
        antecedent = [SequenceTerm(0, gated)]
        consequent = [SequenceTerm(0, ast.Number(1))]
        disable_iff = None
        if where == "antecedent":
            antecedent.append(SequenceTerm(1, unknown))
        elif where == "consequent":
            consequent.append(SequenceTerm(0, unknown))
        else:
            disable_iff = unknown
        assertion = Assertion(antecedent, consequent, disable_iff=disable_iff)
        base = {name: 0 for name in _WIDTHS}
        trace = _trace(wide_model, [{**base, "c": value} for value in gate])
        checker = TraceChecker(wide_model, backend=backend)
        expected = _outcome(checker.check_scalar, assertion, trace)
        assert _outcome(checker.check, assertion, trace) == expected
        # The oracle only reaches the unknown term when ``c`` ever holds.
        assert isinstance(expected, tuple) == any(gate[:-1])
