"""Evaluate assertions over simulation traces.

Used in three places: the FPV engine's simulation-falsification fallback, the
assertion miners' candidate filtering, and the test suite's cross-checks
between formal verdicts and simulated behaviour.

Checking is columnar.  Each distinct term is evaluated once per trace into a
*column*: a Python int bitmask whose bit ``c`` is set when the term holds at
cycle ``c``.  An assertion then reduces to shifts and ANDs over its terms'
columns: a term at offset ``k`` contributes ``column >> k`` (bit ``s`` now
says whether it holds at ``start + k``), antecedent terms and the
``disable iff`` guard are combined over the valid start cycles, and the
consequent terms are walked in order over the starts still pending so each
violation is charged to its first failing term.  Columns are cached per
checker, so the miners' hundreds of candidates over one trace share the
evaluation of their common terms.

The per-start loop (:meth:`TraceChecker.check_scalar`) is the reference
oracle.  It evaluates lazily — a term is only evaluated where every earlier
term held — so it can succeed where a full column would raise; whenever a
column cannot be built, :meth:`TraceChecker.check` answers with the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hdl import ast
from ..hdl.elaborate import RtlModel
from ..sim.compile import make_evaluator
from ..sim.eval import EvalError
from ..sim.trace import Trace
from ..sva.model import Assertion


@dataclass
class TraceCheckResult:
    """Summary of evaluating one assertion over one trace."""

    attempts: int = 0
    triggers: int = 0
    violations: int = 0
    violation_cycles: List[int] = field(default_factory=list)
    failed_terms: List[str] = field(default_factory=list)

    @property
    def first_violation(self) -> Optional[int]:
        return self.violation_cycles[0] if self.violation_cycles else None

    @property
    def vacuous(self) -> bool:
        """True when the antecedent never matched anywhere in the trace."""
        return self.triggers == 0

    @property
    def holds(self) -> bool:
        """True when no evaluation attempt was violated."""
        return self.violations == 0


#: A trace's column cache entry: the trace itself (so a recycled ``id`` can
#: never serve another trace's columns), the cycle count the columns cover,
#: and one bitmask per term expression.
_ColumnEntry = Tuple[Trace, int, Dict[ast.Expr, int]]


class TraceChecker:
    """Check assertions against recorded traces of one design."""

    #: Traces whose columns are kept (oldest evicted first).  The miners
    #: check one trace, the engine's falsification path a few seeds.
    column_traces = 8

    def __init__(self, model: RtlModel, backend: Optional[str] = None):
        self._model = model
        self._evaluator = make_evaluator(model, backend)
        self._columns: Dict[int, _ColumnEntry] = {}

    def check(self, assertion: Assertion, trace: Trace) -> TraceCheckResult:
        """Evaluate ``assertion`` at every possible start cycle of ``trace``."""
        try:
            return self._check_columns(assertion, trace)
        except EvalError:
            return self.check_scalar(assertion, trace)

    def holds_on(self, assertion: Assertion, trace: Trace) -> bool:
        """True when the assertion has no violation on the trace."""
        return self.check(assertion, trace).holds

    def check_scalar(self, assertion: Assertion, trace: Trace) -> TraceCheckResult:
        """Reference oracle: the per-start loop over full cycle rows."""
        result = TraceCheckResult()
        depth = assertion.temporal_depth
        consequent = assertion.consequent_terms_absolute()
        last_start = trace.num_cycles - depth - 1
        for start in range(0, last_start + 1):
            result.attempts += 1
            if not self._antecedent_matches(assertion, trace, start):
                continue
            result.triggers += 1
            failed = self._first_failed_consequent(consequent, trace, start)
            if failed is not None:
                result.violations += 1
                result.violation_cycles.append(start)
                result.failed_terms.append(failed)
        return result

    # -- columnar path -----------------------------------------------------------

    def _check_columns(self, assertion: Assertion, trace: Trace) -> TraceCheckResult:
        result = TraceCheckResult()
        cycles = trace.num_cycles
        starts = cycles - assertion.temporal_depth
        if starts <= 0:
            return result
        result.attempts = starts
        columns = self._trace_columns(trace, cycles)

        # A zero mask means the oracle would evaluate nothing further, so
        # stopping there also keeps this path from raising where it cannot.
        matched = (1 << starts) - 1
        for term in assertion.antecedent:
            matched &= self._column(columns, term.expr, trace, cycles) >> term.offset
            if not matched:
                return result
        if assertion.disable_iff is not None:
            matched &= ~self._column(columns, assertion.disable_iff, trace, cycles)
            if not matched:
                return result
        result.triggers = matched.bit_count()

        failures: Dict[int, str] = {}
        pending = matched
        for term in assertion.consequent_terms_absolute():
            holds = self._column(columns, term.expr, trace, cycles) >> term.offset
            failed = pending & ~holds
            if failed:
                text = str(term.expr)
                for start in _set_bits(failed):
                    failures[start] = text
                pending &= holds
                if not pending:
                    break
        result.violations = len(failures)
        result.violation_cycles = sorted(failures)
        result.failed_terms = [failures[start] for start in result.violation_cycles]
        return result

    def _trace_columns(self, trace: Trace, cycles: int) -> Dict[ast.Expr, int]:
        key = id(trace)
        entry = self._columns.get(key)
        if entry is None or entry[0] is not trace or entry[1] != cycles:
            self._columns.pop(key, None)
            if len(self._columns) >= self.column_traces:
                del self._columns[next(iter(self._columns))]
            entry = self._columns[key] = (trace, cycles, {})
        return entry[2]

    def _column(
        self, columns: Dict[ast.Expr, int], expr: ast.Expr, trace: Trace, cycles: int
    ) -> int:
        column = columns.get(expr)
        if column is None:
            column = columns[expr] = self._build_column(expr, trace, cycles)
        return column

    def _build_column(self, expr: ast.Expr, trace: Trace, cycles: int) -> int:
        """Evaluate ``expr`` at every cycle; raises what the kernel raises.

        Each evaluation sees only the signals the term reads, which is all a
        full row would offer it.
        """
        recorded = set(trace.signals)
        names = [name for name in expr.signals() if name in recorded]
        kernel = self._evaluator.compile(expr)
        if not names:
            return (1 << cycles) - 1 if kernel({}) else 0
        bits = [
            "1" if kernel(dict(zip(names, values))) else "0"
            for values in zip(*(trace.data[name][:cycles] for name in names))
        ]
        bits.reverse()
        return int("".join(bits), 2)

    # -- scalar oracle -------------------------------------------------------------

    def _antecedent_matches(self, assertion: Assertion, trace: Trace, start: int) -> bool:
        for term in assertion.antecedent:
            env = trace.row(start + term.offset)
            if not self._truth(term.expr, env):
                return False
        if assertion.disable_iff is not None:
            # Disable the attempt when the abort condition holds at its start.
            if self._truth(assertion.disable_iff, trace.row(start)):
                return False
        return True

    def _first_failed_consequent(self, consequent, trace: Trace, start: int) -> Optional[str]:
        for term in consequent:
            env = trace.row(start + term.offset)
            if not self._truth(term.expr, env):
                return str(term.expr)
        return None

    def _truth(self, expr, env: Dict[str, int]) -> bool:
        value = self._evaluator.eval(expr, env)
        return bool(value)


def _set_bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    text = bin(mask)[:1:-1]
    return [index for index, bit in enumerate(text) if bit == "1"]


def check_on_trace(assertion: Assertion, trace: Trace, model: RtlModel) -> TraceCheckResult:
    """Convenience wrapper for one-off trace checks."""
    return TraceChecker(model).check(assertion, trace)
