"""Expression and statement evaluation over an elaborated RTL model.

This module implements two-valued (0/1) semantics for the Verilog subset:
values are Python integers masked to the declared signal widths.  It is shared
by the cycle-accurate simulator (:mod:`repro.sim.simulator`) and by the FPV
engine (:mod:`repro.fpv`), which both interpret the same process bodies.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..hdl import ast
from ..hdl.elaborate import RtlModel, _ConstEvaluator
from ..hdl.errors import ElaborationError

_DEFAULT_WIDTH = 32


class EvalError(ElaborationError):
    """Raised when an expression cannot be evaluated against the model."""


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


class ExprEvaluator:
    """Evaluate expressions over a signal environment.

    The environment maps signal names to non-negative integers.  Parameters
    are resolved from the model.  Unknown identifiers raise :class:`EvalError`
    (this is how semantically malformed generated assertions are detected).
    """

    backend = "interpreted"

    def __init__(self, model: RtlModel):
        self._model = model
        self._const = _ConstEvaluator(model.parameters)

    # -- width inference ----------------------------------------------------

    def width_of(self, expr: ast.Expr) -> int:
        """Infer the bit width of an expression."""
        if isinstance(expr, ast.Number):
            return expr.width if expr.width is not None else _DEFAULT_WIDTH
        if isinstance(expr, ast.Identifier):
            if expr.name in self._model.signals:
                return self._model.signals[expr.name].width
            if expr.name in self._model.parameters:
                return _DEFAULT_WIDTH
            raise EvalError(f"unknown signal {expr.name!r}")
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            msb = self.const_value(expr.msb)
            lsb = self.const_value(expr.lsb)
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.Unary):
            if expr.op in ("!",) or expr.op in ("&", "|", "^"):
                return 1
            return self.width_of(expr.operand)
        if isinstance(expr, ast.Binary):
            if expr.op in ("==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"):
                return 1
            if expr.op in ("<<", ">>", "<<<", ">>>"):
                return self.width_of(expr.left)
            return max(self.width_of(expr.left), self.width_of(expr.right))
        if isinstance(expr, ast.Ternary):
            return max(self.width_of(expr.then), self.width_of(expr.otherwise))
        if isinstance(expr, ast.Concat):
            return sum(self.width_of(part) for part in expr.parts)
        if isinstance(expr, ast.Replicate):
            return self.const_value(expr.count) * self.width_of(expr.value)
        raise EvalError(f"cannot infer width of {expr!r}")

    def const_value(self, expr: ast.Expr) -> int:
        """Evaluate a constant expression over the parameter environment.

        Shared by the compiled and vectorized lowerings, which resolve part
        select bounds and replication counts once at compile time.
        """
        try:
            return self._const.eval(expr)
        except ElaborationError as exc:
            raise EvalError(str(exc)) from exc

    # -- evaluation -----------------------------------------------------------

    def compile(self, expr: ast.Expr) -> Callable[[Dict[str, int]], int]:
        """A kernel for ``expr`` in the compiled backend's calling convention;
        the interpreter still walks the tree on every call."""
        return lambda env: self.eval(expr, env)

    def eval(self, expr: ast.Expr, env: Dict[str, int]) -> int:
        """Evaluate ``expr`` in the signal environment ``env``."""
        if isinstance(expr, ast.Number):
            return expr.value if expr.width is None else _mask(expr.value, expr.width)
        if isinstance(expr, ast.Identifier):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self._model.parameters:
                return self._model.parameters[expr.name]
            raise EvalError(f"unknown signal {expr.name!r}")
        if isinstance(expr, ast.BitSelect):
            base = self.eval(expr.base, env)
            index = self.eval(expr.index, env)
            if index < 0:
                raise EvalError(f"negative bit index {index}")
            return (base >> index) & 1
        if isinstance(expr, ast.PartSelect):
            base = self.eval(expr.base, env)
            msb = self.const_value(expr.msb)
            lsb = self.const_value(expr.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            width = msb - lsb + 1
            return _mask(base >> lsb, width)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Ternary):
            if self.eval(expr.cond, env):
                return self.eval(expr.then, env)
            return self.eval(expr.otherwise, env)
        if isinstance(expr, ast.Concat):
            value = 0
            for part in expr.parts:
                width = self.width_of(part)
                value = (value << width) | _mask(self.eval(part, env), width)
            return value
        if isinstance(expr, ast.Replicate):
            count = self.const_value(expr.count)
            width = self.width_of(expr.value)
            chunk = _mask(self.eval(expr.value, env), width)
            value = 0
            for _ in range(count):
                value = (value << width) | chunk
            return value
        raise EvalError(f"cannot evaluate expression {expr!r}")

    def _eval_unary(self, expr: ast.Unary, env: Dict[str, int]) -> int:
        operand = self.eval(expr.operand, env)
        width = self.width_of(expr.operand)
        if expr.op == "~":
            return _mask(~operand, width)
        if expr.op == "!":
            return int(operand == 0)
        if expr.op == "-":
            return _mask(-operand, width)
        if expr.op == "&":
            return int(operand == (1 << width) - 1)
        if expr.op == "|":
            return int(operand != 0)
        if expr.op == "^":
            return bin(operand).count("1") & 1
        raise EvalError(f"unsupported unary operator {expr.op!r}")

    def _eval_binary(self, expr: ast.Binary, env: Dict[str, int]) -> int:
        op = expr.op
        if op == "&&":
            return int(bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env)))
        if op == "||":
            return int(bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env)))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        width = max(self.width_of(expr.left), self.width_of(expr.right))
        # Arithmetic keeps one bit of headroom so carry/borrow bits survive
        # into wider assignment targets (``assign {c, s} = a + b`` style RTL);
        # the final store masks to the target width anyway.
        if op == "+":
            return _mask(left + right, width + 1)
        if op == "-":
            return _mask(left - right, width + 1)
        if op == "*":
            return _mask(left * right, 2 * width)
        if op == "/":
            return _mask(left // right, width) if right else (1 << width) - 1
        if op == "%":
            # Modulo by zero yields all-don't-care; like division we pin it to a
            # deterministic masked value so both backends agree bit-for-bit.
            return _mask(left % right, width) if right else _mask(left, width)
        if op == "**":
            # Modular exponentiation: bit-identical to masking ``left**right``
            # but bounded, where the plain power of a wide exponent is not.
            return pow(left, right, 1 << width)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op in ("==", "==="):
            return int(left == right)
        if op in ("!=", "!=="):
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op in ("<<", "<<<"):
            return _mask(left << min(right, 1 << 16), self.width_of(expr.left))
        if op in (">>", ">>>"):
            # The left operand may carry arithmetic headroom bits (see "+"
            # above); mask the shifted result to the declared operand width.
            return _mask(left >> min(right, 1 << 16), self.width_of(expr.left))
        raise EvalError(f"unsupported binary operator {op!r}")


class StatementExecutor:
    """Execute procedural statement bodies against a signal environment."""

    backend = "interpreted"

    def __init__(self, model: RtlModel, evaluator: Optional[ExprEvaluator] = None):
        self._model = model
        self._eval = evaluator or ExprEvaluator(model)

    def run_combinational(self, body: ast.Stmt, env: Dict[str, int]) -> None:
        """Execute a combinational body: all assignments take effect immediately."""
        self._exec(body, env, env, blocking_into_env=True)

    def run_sequential(
        self,
        body: ast.Stmt,
        env: Dict[str, int],
        next_values: Dict[str, int],
        targets=None,
    ) -> None:
        """Execute a clocked body.

        Non-blocking assignments are staged into ``next_values``; blocking
        assignments update a local shadow of ``env`` so later statements in the
        same process observe them (standard Verilog scheduling semantics for
        the supported subset).  ``targets`` optionally names the process's
        assignment targets — the only signals the shadow scan can differ on.
        """
        shadow = dict(env)
        self._exec(body, shadow, next_values, blocking_into_env=True)
        # Blocking assignments inside a clocked block still update the register:
        # persist any shadow change that was not superseded by a non-blocking one.
        names = targets if targets is not None else shadow
        for name in names:
            if name not in shadow:
                continue
            value = shadow[name]
            if env.get(name) != value and name not in next_values:
                next_values[name] = value

    # -- internals -------------------------------------------------------------

    def _exec(
        self,
        stmt: ast.Stmt,
        env: Dict[str, int],
        nonblocking: Dict[str, int],
        blocking_into_env: bool,
    ) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._exec(inner, env, nonblocking, blocking_into_env)
        elif isinstance(stmt, ast.Assignment):
            self._assign(stmt, env, nonblocking, blocking_into_env)
        elif isinstance(stmt, ast.If):
            if self._eval.eval(stmt.condition, env):
                self._exec(stmt.then_body, env, nonblocking, blocking_into_env)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body, env, nonblocking, blocking_into_env)
        elif isinstance(stmt, ast.Case):
            self._exec_case(stmt, env, nonblocking, blocking_into_env)
        else:
            raise EvalError(f"unsupported statement {stmt!r}")

    def _exec_case(
        self,
        stmt: ast.Case,
        env: Dict[str, int],
        nonblocking: Dict[str, int],
        blocking_into_env: bool,
    ) -> None:
        subject = self._eval.eval(stmt.subject, env)
        for item in stmt.items:
            for label in item.labels:
                if self._eval.eval(label, env) == subject:
                    self._exec(item.body, env, nonblocking, blocking_into_env)
                    return
        if stmt.default is not None:
            self._exec(stmt.default, env, nonblocking, blocking_into_env)

    def _assign(
        self,
        stmt: ast.Assignment,
        env: Dict[str, int],
        nonblocking: Dict[str, int],
        blocking_into_env: bool,
    ) -> None:
        value = self._eval.eval(stmt.value, env)
        sink = env if (stmt.blocking and blocking_into_env) else nonblocking
        self.store(stmt.target, value, env, sink)

    def store(
        self,
        target: ast.Expr,
        value: int,
        env: Dict[str, int],
        sink: Dict[str, int],
    ) -> None:
        """Store ``value`` into ``target`` (identifier, bit-, or part-select)."""
        if isinstance(target, ast.Identifier):
            signal = self._model.signal(target.name)
            sink[target.name] = _mask(value, signal.width)
            return
        if isinstance(target, ast.BitSelect):
            name = self._target_name(target)
            signal = self._model.signal(name)
            index = self._eval.eval(target.index, env)
            current = sink.get(name, env.get(name, 0))
            if value & 1:
                current |= 1 << index
            else:
                current &= ~(1 << index)
            sink[name] = _mask(current, signal.width)
            return
        if isinstance(target, ast.PartSelect):
            name = self._target_name(target)
            signal = self._model.signal(name)
            msb = self._eval.eval(target.msb, env)
            lsb = self._eval.eval(target.lsb, env)
            if msb < lsb:
                msb, lsb = lsb, msb
            width = msb - lsb + 1
            field_mask = ((1 << width) - 1) << lsb
            current = sink.get(name, env.get(name, 0))
            current = (current & ~field_mask) | ((_mask(value, width)) << lsb)
            sink[name] = _mask(current, signal.width)
            return
        if isinstance(target, ast.Concat):
            # Assign from the most significant part downwards.
            total = sum(self._eval.width_of(part) for part in target.parts)
            offset = total
            for part in target.parts:
                width = self._eval.width_of(part)
                offset -= width
                self.store(part, _mask(value >> offset, width), env, sink)
            return
        raise EvalError(f"unsupported assignment target {target!r}")

    def _target_name(self, target: ast.Expr) -> str:
        base = target.base if isinstance(target, (ast.BitSelect, ast.PartSelect)) else target
        if isinstance(base, ast.Identifier):
            return base.name
        raise EvalError(f"unsupported nested assignment target {target!r}")
