"""Compiled expression and statement kernels.

This module is the first layer of the verification backend: it lowers
``ast.Expr``/``ast.Stmt`` trees to plain Python closures ("kernels") with
signal widths, parameter values, and mask constants resolved once at compile
time.  The tree-walking :class:`~repro.sim.eval.ExprEvaluator` re-dispatches
on node types and re-infers widths on every call; a compiled kernel does that
work exactly once and afterwards only performs the arithmetic.

Two drop-in replacements are provided:

* :class:`CompiledEvaluator` — same interface as ``ExprEvaluator``
  (``eval``/``width_of``), backed by a per-expression kernel cache.
* :class:`CompiledExecutor` — same interface as ``StatementExecutor``
  (``run_combinational``/``run_sequential``/``store``), backed by a
  per-statement kernel cache.

The interpreter remains available as a reference backend; callers select one
through :func:`make_evaluator`/:func:`make_executor` or the ``backend``
keyword of :class:`~repro.sim.simulator.Simulator`,
:class:`~repro.fpv.trace_check.TraceChecker`,
:class:`~repro.fpv.transition.TransitionSystem`, and
:class:`~repro.fpv.engine.EngineConfig`.  Both backends are bit-for-bit
equivalent (enforced by the property-based tests in
``tests/sim/test_compile.py``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from ..hdl import ast
from ..hdl.elaborate import RtlModel
from .eval import EvalError, ExprEvaluator

Env = Dict[str, int]
#: A compiled expression: environment in, masked integer out.
Kernel = Callable[[Env], int]
#: A compiled statement: ``fn(env, nonblocking)`` — blocking assignments
#: write into ``env``, non-blocking ones are staged into ``nonblocking``.
StmtKernel = Callable[[Env, Env], None]
#: A compiled assignment target: ``fn(value, env, sink)``.
StoreKernel = Callable[[int, Env, Env], None]

#: Backend identifiers.
INTERPRETED = "interpreted"
COMPILED = "compiled"
#: Array backend: batch-level paths (reachability BFS, the FPV obligation
#: sweep, falsification trace generation) run on the NumPy lowering in
#: :mod:`repro.sim.vector`; scalar call sites (``eval`` on one environment)
#: fall back to compiled kernels, as does any design the lowering rejects.
VECTORIZED = "vectorized"

BACKENDS = (INTERPRETED, COMPILED, VECTORIZED)

_BACKEND_ENV_VAR = "REPRO_EVAL_BACKEND"
_SHIFT_CAP = 1 << 16


def default_backend() -> str:
    """The process-wide default backend (``REPRO_EVAL_BACKEND``, else compiled)."""
    value = os.environ.get(_BACKEND_ENV_VAR, COMPILED).strip().lower()
    if value not in BACKENDS:
        expected = ", ".join(repr(name) for name in BACKENDS)
        raise ValueError(
            f"unknown evaluation backend {value!r} (expected one of {expected})"
        )
    return value


class CompiledEvaluator:
    """Evaluate expressions through compiled kernels.

    Kernels are cached per expression node; expression nodes are frozen
    dataclasses with structural equality, so identical sub-expressions across
    different assertions share one kernel.
    """

    backend = COMPILED

    def __init__(self, model: RtlModel):
        self._model = model
        self._interp = ExprEvaluator(model)
        self._cache: Dict[ast.Expr, Kernel] = {}
        # Structural hashing walks the whole subtree on every lookup; the
        # id-keyed fast path makes repeated evals of the same node O(1).  The
        # node is kept referenced so its id stays valid.
        self._by_id: Dict[int, Tuple[ast.Expr, Kernel]] = {}
        self._signal_names = frozenset(model.signals)

    # -- public interface (mirrors ExprEvaluator) ---------------------------

    def width_of(self, expr: ast.Expr) -> int:
        return self._interp.width_of(expr)

    def eval(self, expr: ast.Expr, env: Env) -> int:
        entry = self._by_id.get(id(expr))
        if entry is not None:
            return entry[1](env)
        return self.compile(expr)(env)

    def constant(self, expr: ast.Expr) -> Optional[int]:
        """The value of ``expr`` when it reads no signal, else ``None``."""
        if expr.signals() & self._signal_names:
            return None
        return self._interp.eval(expr, {})

    def compile(self, expr: ast.Expr) -> Kernel:
        """Return (building and caching if needed) the kernel for ``expr``."""
        entry = self._by_id.get(id(expr))
        if entry is not None:
            return entry[1]
        kernel = self._cache.get(expr)
        if kernel is None:
            kernel = self._build(expr)
            self._cache[expr] = kernel
        self._by_id[id(expr)] = (expr, kernel)
        return kernel

    # -- kernel construction -------------------------------------------------

    def _build(self, expr: ast.Expr) -> Kernel:
        # Anything with no signal references is a compile-time constant; the
        # interpreter defines the reference semantics (masking included).
        value = self.constant(expr)
        if value is not None:
            return lambda env: value

        if isinstance(expr, ast.Identifier):
            name = expr.name

            def read(env: Env, _name=name) -> int:
                try:
                    return env[_name]
                except KeyError:
                    raise EvalError(f"unknown signal {_name!r}") from None

            return read
        if isinstance(expr, ast.BitSelect):
            return self._build_bit_select(expr)
        if isinstance(expr, ast.PartSelect):
            base = self.compile(expr.base)
            msb = self._interp.const_value(expr.msb)
            lsb = self._interp.const_value(expr.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            mask = (1 << (msb - lsb + 1)) - 1
            return lambda env: (base(env) >> lsb) & mask
        if isinstance(expr, ast.Unary):
            return self._build_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._build_binary(expr)
        if isinstance(expr, ast.Ternary):
            cond = self.compile(expr.cond)
            then = self.compile(expr.then)
            otherwise = self.compile(expr.otherwise)
            return lambda env: then(env) if cond(env) else otherwise(env)
        if isinstance(expr, ast.Concat):
            parts = [(self.compile(p), self.width_of(p)) for p in expr.parts]
            shifts: List[Tuple[Kernel, int, int]] = []
            offset = sum(width for _, width in parts)
            for kernel, width in parts:
                offset -= width
                shifts.append((kernel, offset, (1 << width) - 1))
            shifts_t = tuple(shifts)

            def concat(env: Env) -> int:
                value = 0
                for kernel, shift, mask in shifts_t:
                    value |= (kernel(env) & mask) << shift
                return value

            return concat
        if isinstance(expr, ast.Replicate):
            count = self._interp.const_value(expr.count)
            width = self.width_of(expr.value)
            chunk = self.compile(expr.value)
            mask = (1 << width) - 1
            # chunk * factor replicates a masked chunk `count` times.
            factor = ((1 << (width * count)) - 1) // mask if count and mask else 0
            return lambda env: (chunk(env) & mask) * factor
        raise EvalError(f"cannot compile expression {expr!r}")

    def _build_bit_select(self, expr: ast.BitSelect) -> Kernel:
        base = self.compile(expr.base)
        index = self.constant(expr.index)
        if index is not None:
            if index < 0:
                raise EvalError(f"negative bit index {index}")
            if isinstance(expr.base, ast.Identifier):
                # A constant bit of a signal: read the signal inline.
                name = expr.base.name

                def signal_bit(env: Env) -> int:
                    try:
                        return (env[name] >> index) & 1
                    except KeyError:
                        raise EvalError(f"unknown signal {name!r}") from None

                return signal_bit
            return lambda env: (base(env) >> index) & 1
        index_k = self.compile(expr.index)

        def bit_select(env: Env) -> int:
            index = index_k(env)
            if index < 0:
                raise EvalError(f"negative bit index {index}")
            return (base(env) >> index) & 1

        return bit_select

    def _build_unary(self, expr: ast.Unary) -> Kernel:
        operand = self.compile(expr.operand)
        width = self.width_of(expr.operand)
        mask = (1 << width) - 1
        op = expr.op
        if op == "~":
            return lambda env: ~operand(env) & mask
        if op == "!":
            return lambda env: int(operand(env) == 0)
        if op == "-":
            return lambda env: -operand(env) & mask
        if op == "&":
            return lambda env: int(operand(env) == mask)
        if op == "|":
            return lambda env: int(operand(env) != 0)
        if op == "^":
            return lambda env: operand(env).bit_count() & 1
        raise EvalError(f"unsupported unary operator {op!r}")

    def _build_binary(self, expr: ast.Binary) -> Kernel:
        op = expr.op
        if op == "&&":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return lambda env: int(bool(left(env)) and bool(right(env)))
        if op == "||":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return lambda env: int(bool(left(env)) or bool(right(env)))
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        width = max(self.width_of(expr.left), self.width_of(expr.right))
        mask = (1 << width) - 1
        # Same headroom rule as the interpreter: carry/borrow bits survive into
        # wider assignment targets, the final store masks to the target width.
        carry_mask = (1 << (width + 1)) - 1
        mul_mask = (1 << (2 * width)) - 1
        left_mask = (1 << self.width_of(expr.left)) - 1 if op in (
            "<<", "<<<", ">>", ">>>"
        ) else 0
        table: Dict[str, Kernel] = {
            "+": lambda env: (left(env) + right(env)) & carry_mask,
            "-": lambda env: (left(env) - right(env)) & carry_mask,
            "*": lambda env: (left(env) * right(env)) & mul_mask,
            "/": lambda env: (
                (left(env) // r) & mask if (r := right(env)) else mask
            ),
            "%": lambda env: (
                (left(env) % r) & mask if (r := right(env)) else left(env) & mask
            ),
            "**": lambda env: pow(left(env), right(env), mask + 1),
            "&": lambda env: left(env) & right(env),
            "|": lambda env: left(env) | right(env),
            "^": lambda env: left(env) ^ right(env),
            "==": lambda env: int(left(env) == right(env)),
            "===": lambda env: int(left(env) == right(env)),
            "!=": lambda env: int(left(env) != right(env)),
            "!==": lambda env: int(left(env) != right(env)),
            "<": lambda env: int(left(env) < right(env)),
            "<=": lambda env: int(left(env) <= right(env)),
            ">": lambda env: int(left(env) > right(env)),
            ">=": lambda env: int(left(env) >= right(env)),
            "<<": lambda env: (left(env) << min(right(env), _SHIFT_CAP)) & left_mask,
            "<<<": lambda env: (left(env) << min(right(env), _SHIFT_CAP)) & left_mask,
            ">>": lambda env: (left(env) >> min(right(env), _SHIFT_CAP)) & left_mask,
            ">>>": lambda env: (left(env) >> min(right(env), _SHIFT_CAP)) & left_mask,
        }
        kernel = table.get(op)
        if kernel is None:
            raise EvalError(f"unsupported binary operator {op!r}")
        return kernel


class CompiledExecutor:
    """Execute procedural statement bodies through compiled kernels."""

    backend = COMPILED

    def __init__(self, model: RtlModel, evaluator: Optional[CompiledEvaluator] = None):
        self._model = model
        self._eval = evaluator or CompiledEvaluator(model)
        # Statement nodes are mutable dataclasses (unhashable); key by id and
        # keep the node referenced so ids stay stable.
        self._stmt_cache: Dict[int, Tuple[ast.Stmt, StmtKernel]] = {}
        self._store_cache: Dict[ast.Expr, StoreKernel] = {}
        self._store_by_id: Dict[int, Tuple[ast.Expr, StoreKernel]] = {}

    @property
    def evaluator(self) -> CompiledEvaluator:
        return self._eval

    # -- public interface (mirrors StatementExecutor) -----------------------

    def run_combinational(self, body: ast.Stmt, env: Env) -> None:
        self.compile_stmt(body)(env, env)

    def run_sequential(
        self, body: ast.Stmt, env: Env, next_values: Env, targets=None
    ) -> None:
        shadow = dict(env)
        self.compile_stmt(body)(shadow, next_values)
        # Blocking assignments inside a clocked block still update the register:
        # persist any shadow change that was not superseded by a non-blocking one.
        # Only the process's assignment targets can have changed, so callers
        # that know them (simulator, transition system) pass them to avoid a
        # full-environment scan.
        names = targets if targets is not None else shadow
        for name in names:
            if name not in shadow:
                continue
            value = shadow[name]
            if env.get(name) != value and name not in next_values:
                next_values[name] = value

    def store(self, target: ast.Expr, value: int, env: Env, sink: Env) -> None:
        self.compile_store(target)(value, env, sink)

    # -- statement compilation ----------------------------------------------

    def compile_stmt(self, stmt: ast.Stmt) -> StmtKernel:
        cached = self._stmt_cache.get(id(stmt))
        if cached is not None:
            return cached[1]
        kernel = self._build_stmt(stmt)
        self._stmt_cache[id(stmt)] = (stmt, kernel)
        return kernel

    def _build_stmt(self, stmt: ast.Stmt) -> StmtKernel:
        if isinstance(stmt, ast.Block):
            kernels = tuple(self.compile_stmt(inner) for inner in stmt.statements)
            if len(kernels) == 1:
                return kernels[0]

            def block(env: Env, nonblocking: Env) -> None:
                for kernel in kernels:
                    kernel(env, nonblocking)

            return block
        if isinstance(stmt, ast.Assignment):
            return self.compile_assign(stmt.target, stmt.value, stmt.blocking)
        if isinstance(stmt, ast.If):
            cond = self._eval.compile(stmt.condition)
            then = self.compile_stmt(stmt.then_body)
            if stmt.else_body is None:

                def if_only(env: Env, nonblocking: Env) -> None:
                    if cond(env):
                        then(env, nonblocking)

                return if_only
            otherwise = self.compile_stmt(stmt.else_body)

            def if_else(env: Env, nonblocking: Env) -> None:
                if cond(env):
                    then(env, nonblocking)
                else:
                    otherwise(env, nonblocking)

            return if_else
        if isinstance(stmt, ast.Case):
            subject = self._eval.compile(stmt.subject)
            arms = tuple(
                (
                    tuple(self._eval.compile(label) for label in item.labels),
                    self.compile_stmt(item.body),
                )
                for item in stmt.items
            )
            default = self.compile_stmt(stmt.default) if stmt.default is not None else None
            constants = [self._eval.constant(label) for item in stmt.items for label in item.labels]
            if None not in constants:
                # Every label is a constant: one dict lookup picks the arm
                # (the first arm listing a value wins, as in the scan below).
                table: Dict[int, StmtKernel] = {}
                labels = iter(constants)
                for item, (_, body) in zip(stmt.items, arms):
                    for _ in item.labels:
                        table.setdefault(next(labels), body)

                def case_table(env: Env, nonblocking: Env) -> None:
                    body = table.get(subject(env))
                    if body is not None:
                        body(env, nonblocking)
                    elif default is not None:
                        default(env, nonblocking)

                return case_table

            def case(env: Env, nonblocking: Env) -> None:
                value = subject(env)
                for labels, body in arms:
                    for label in labels:
                        if label(env) == value:
                            body(env, nonblocking)
                            return
                if default is not None:
                    default(env, nonblocking)

            return case
        raise EvalError(f"unsupported statement {stmt!r}")

    # -- assignment-target compilation ----------------------------------------

    def compile_assign(
        self, target: ast.Expr, value_expr: ast.Expr, blocking: bool = True
    ) -> StmtKernel:
        """One assignment as a statement kernel.

        A whole signal, or a bit or part of one at constant positions, is
        stored inline; any other target goes through its store kernel.
        """
        value = self._eval.compile(value_expr)
        if isinstance(target, ast.Identifier):
            name = target.name
            mask = self._model.signal(name).mask

            def assign_signal(env: Env, nonblocking: Env) -> None:
                (env if blocking else nonblocking)[name] = value(env) & mask

            return assign_signal
        field = self._constant_field(target)
        if field is not None:
            name, lsb, field_mask = field
            mask = self._model.signal(name).mask
            keep = ~(field_mask << lsb)

            def assign_field(env: Env, nonblocking: Env) -> None:
                new = value(env)
                sink = env if blocking else nonblocking
                current = sink.get(name)
                if current is None:
                    current = env.get(name, 0)
                sink[name] = ((current & keep) | ((new & field_mask) << lsb)) & mask

            return assign_field
        store = self.compile_store(target)
        return lambda env, nonblocking: store(value(env), env, env if blocking else nonblocking)

    def _constant_field(self, target: ast.Expr) -> Optional[Tuple[str, int, int]]:
        """``(signal, lsb, field mask)`` of a bit or part select whose
        positions are non-negative constants, else ``None``."""
        if isinstance(target, ast.BitSelect):
            bounds = (self._eval.constant(target.index),) * 2
        elif isinstance(target, ast.PartSelect):
            bounds = (self._eval.constant(target.msb), self._eval.constant(target.lsb))
        else:
            return None
        if None in bounds or min(bounds) < 0:
            return None
        name = self._target_name(target)
        high, low = max(bounds), min(bounds)
        return name, low, (1 << (high - low + 1)) - 1

    def compile_store(self, target: ast.Expr) -> StoreKernel:
        entry = self._store_by_id.get(id(target))
        if entry is not None:
            return entry[1]
        kernel = self._store_cache.get(target)
        if kernel is None:
            kernel = self._build_store(target)
            self._store_cache[target] = kernel
        self._store_by_id[id(target)] = (target, kernel)
        return kernel

    def _build_store(self, target: ast.Expr) -> StoreKernel:
        if isinstance(target, ast.Identifier):
            name = target.name
            mask = self._model.signal(name).mask
            def store_ident(value: int, env: Env, sink: Env) -> None:
                sink[name] = value & mask

            return store_ident
        if isinstance(target, ast.BitSelect):
            name = self._target_name(target)
            mask = self._model.signal(name).mask
            index = self._eval.compile(target.index)

            def store_bit(value: int, env: Env, sink: Env) -> None:
                bit = 1 << index(env)
                current = sink.get(name, env.get(name, 0))
                current = current | bit if value & 1 else current & ~bit
                sink[name] = current & mask

            return store_bit
        if isinstance(target, ast.PartSelect):
            name = self._target_name(target)
            mask = self._model.signal(name).mask
            msb_k = self._eval.compile(target.msb)
            lsb_k = self._eval.compile(target.lsb)

            def store_part(value: int, env: Env, sink: Env) -> None:
                msb, lsb = msb_k(env), lsb_k(env)
                if msb < lsb:
                    msb, lsb = lsb, msb
                field_mask = (1 << (msb - lsb + 1)) - 1
                current = sink.get(name, env.get(name, 0))
                current = (current & ~(field_mask << lsb)) | ((value & field_mask) << lsb)
                sink[name] = current & mask

            return store_part
        if isinstance(target, ast.Concat):
            parts: List[Tuple[StoreKernel, int, int]] = []
            offset = sum(self._eval.width_of(part) for part in target.parts)
            for part in target.parts:
                width = self._eval.width_of(part)
                offset -= width
                parts.append((self.compile_store(part), offset, (1 << width) - 1))
            parts_t = tuple(parts)

            def store_concat(value: int, env: Env, sink: Env) -> None:
                for store, shift, mask in parts_t:
                    store((value >> shift) & mask, env, sink)

            return store_concat
        raise EvalError(f"unsupported assignment target {target!r}")

    def _target_name(self, target: ast.Expr) -> str:
        base = target.base if isinstance(target, (ast.BitSelect, ast.PartSelect)) else target
        if isinstance(base, ast.Identifier):
            return base.name
        raise EvalError(f"unsupported nested assignment target {target!r}")


def compile_comb_pass(model: RtlModel, evaluator, executor) -> Optional[Callable[[Env], None]]:
    """Fuse one combinational settle pass into a single closure.

    Returns a callable running every continuous assignment and combinational
    process once, with all kernels pre-resolved — or ``None`` when the
    executor is the interpreter (which has no kernels to pre-resolve).
    """
    if not isinstance(executor, CompiledExecutor):
        return None
    kernels = tuple(
        executor.compile_assign(assign.target, assign.value) for assign in model.assigns
    ) + tuple(executor.compile_stmt(process.body) for process in model.comb_processes)

    def comb_pass(env: Env) -> None:
        for kernel in kernels:
            kernel(env, env)

    return comb_pass


class CombSettle:
    """The combinational settle routine shared by simulation and FPV.

    Runs continuous assignments and combinational processes to a fixpoint.
    Only combinationally-driven signals can change while settling, so the
    fixpoint test snapshots just those instead of the whole environment.
    """

    def __init__(self, model: RtlModel, evaluator, executor):
        self._model = model
        self._evaluator = evaluator
        self._executor = executor
        targets = [assign.target_name for assign in model.assigns]
        for process in model.comb_processes:
            targets.extend(process.targets)
        self._targets = tuple(dict.fromkeys(targets))
        self._comb_pass = compile_comb_pass(model, evaluator, executor)

    def run(self, env: Env, max_iterations: int = 64) -> bool:
        """Settle ``env`` in place; True when a fixpoint was reached."""
        targets = self._targets
        comb_pass = self._comb_pass
        for _ in range(max_iterations):
            before = list(map(env.get, targets))
            if comb_pass is not None:
                comb_pass(env)
            else:
                for assign in self._model.assigns:
                    value = self._evaluator.eval(assign.value, env)
                    self._executor.store(assign.target, value, env, env)
                for process in self._model.comb_processes:
                    self._executor.run_combinational(process.body, env)
            if list(map(env.get, targets)) == before:
                return True
        return False


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


def make_evaluator(model: RtlModel, backend: Optional[str] = None):
    """Build the expression evaluator for the requested backend.

    The vectorized backend has no scalar evaluator of its own — one-off
    ``eval`` calls (assertion terms, trace checking) run on compiled kernels
    while the batch-level sweeps use :mod:`repro.sim.vector` directly.
    """
    backend = backend or default_backend()
    if backend == INTERPRETED:
        return ExprEvaluator(model)
    if backend in (COMPILED, VECTORIZED):
        return CompiledEvaluator(model)
    raise ValueError(f"unknown evaluation backend {backend!r}")


def make_executor(model: RtlModel, evaluator=None, backend: Optional[str] = None):
    """Build the statement executor matching ``evaluator``'s backend."""
    from .eval import StatementExecutor  # local import to avoid cycle at module load

    if evaluator is not None:
        if isinstance(evaluator, CompiledEvaluator):
            return CompiledExecutor(model, evaluator)
        return StatementExecutor(model, evaluator)
    backend = backend or default_backend()
    if backend == INTERPRETED:
        return StatementExecutor(model)
    if backend in (COMPILED, VECTORIZED):
        return CompiledExecutor(model)
    raise ValueError(f"unknown evaluation backend {backend!r}")
