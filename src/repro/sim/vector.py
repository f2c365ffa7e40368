"""Bit-packed, structure-of-arrays NumPy lowering of an elaborated RTL model.

This is the third evaluation backend ("vectorized").  Where the compiled
backend lowers each expression to a Python closure evaluated once per
(state, input) pair, this module lowers the *whole model* to NumPy array
kernels that advance an entire batch of environments at once:

* signal environments are columnar — ``{signal name: int64 ndarray}`` with
  one lane per (state, input) pair, random-simulation seed, or BFS frontier
  member;
* combinational settle and sequential clocking are masked array operations
  (an ``if``/``case`` arm executes under a boolean lane mask instead of a
  branch);
* states are bit-packed into single int64 lanes for set operations
  (reachability BFS, dedup, cache keys).

Semantics are bit-for-bit identical to the interpreted and compiled scalar
backends for every design the lowering accepts.  The plain structure-of-
arrays kernel refuses anything it cannot prove safe inside 63-bit signed
integer arithmetic (very wide signals, multiplies past 31 bits, ``**``);
:func:`plan_model` then tries the one alternative representation, the
multi-limb kernel of :mod:`repro.sim.limb` for wide datapaths, before
giving up.  Only when both lowerings raise
:class:`UnsupportedForVectorization` does a design fall back to the
compiled backend, and the plan records the reason so the fallback is
observable instead of silent.  The scalar backends remain the reference
oracles throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..hdl import ast
from ..hdl.elaborate import RtlModel
from .eval import EvalError, ExprEvaluator
from .simulator import CombinationalLoopError, _MAX_SETTLE_ITERATIONS
from .trace import Trace

#: Columnar environment: signal name -> int64 ndarray, one lane per element.
Cols = Dict[str, np.ndarray]
#: A vector expression kernel: columnar env in, int64 ndarray (or scalar) out.
VecKernel = Callable[[Cols], Union[np.ndarray, int]]

#: Every intermediate value must stay strictly below 2**63 (int64, one sign
#: bit spare).  Scalar semantics give arithmetic one bit of carry headroom,
#: so the practical per-signal width ceiling is 61 bits.
_MAX_VALUE_BITS = 62

#: Most lanes one batched kernel call holds, for every caller that splits a
#: large batch (tables, BFS chunks, the semantic sweep, flat settles).  A
#: call builds every signal column, member mask and per-site overlay at full
#: width, so this bounds the transient working set: 2**13 lanes keep an
#: int64 column at 64 KiB.  Lanes are independent, so no output depends on it.
LANE_BUDGET = 1 << 13


def rows_per_call(width: int) -> int:
    """How many rows of ``width`` lanes one kernel call may hold (at least one)."""
    return max(1, LANE_BUDGET // max(width, 1))


class UnsupportedForVectorization(Exception):
    """The model (or one expression) cannot be lowered to int64 array ops."""


def _as_array(value: Union[np.ndarray, int], lanes: int) -> np.ndarray:
    """Broadcast a kernel result (possibly a Python int) to a lane array."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(lanes, value, dtype=np.int64)


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


class VectorExprCompiler:
    """Compile ``ast.Expr`` trees to NumPy lane kernels.

    Kernels are cached per expression node (structural equality), mirroring
    :class:`~repro.sim.compile.CompiledEvaluator`.  Width inference and
    constant folding delegate to the interpreter, which defines the
    reference semantics.
    """

    def __init__(self, model: RtlModel):
        self._model = model
        self._interp = ExprEvaluator(model)
        self._signal_names = frozenset(model.signals)
        self._cache: Dict[ast.Expr, VecKernel] = {}

    @property
    def model(self) -> RtlModel:
        return self._model

    def width_of(self, expr: ast.Expr) -> int:
        return self._interp.width_of(expr)

    # -- value-range analysis -------------------------------------------------

    def value_bits(self, expr: ast.Expr) -> int:
        """Upper bound, in bits, of the scalar backend's value for ``expr``.

        The scalar backends mask every node's result, but arithmetic keeps
        carry/borrow headroom (``+``/``-`` produce width+1 bits, ``*``
        produces 2*width), so this can exceed :meth:`width_of`.
        """
        if not (expr.signals() & self._signal_names):
            return max(self._interp.eval(expr, {}).bit_length(), 1)
        if isinstance(expr, ast.Identifier):
            return self.width_of(expr)
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            return self.width_of(expr)
        if isinstance(expr, ast.Unary):
            if expr.op in ("!", "&", "|", "^"):
                return 1
            return self.width_of(expr.operand)
        if isinstance(expr, ast.Binary):
            op = expr.op
            if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"):
                return 1
            width = max(self.width_of(expr.left), self.width_of(expr.right))
            if op in ("+", "-"):
                return width + 1
            if op == "*":
                return 2 * width
            if op in ("<<", "<<<"):
                return self.width_of(expr.left)
            if op in (">>", ">>>"):
                return min(self.value_bits(expr.left), _MAX_VALUE_BITS)
            if op == "&":
                return min(self.value_bits(expr.left), self.value_bits(expr.right))
            if op in ("|", "^"):
                return max(self.value_bits(expr.left), self.value_bits(expr.right))
            return width  # '/', '%', '**' are masked to the operand width
        if isinstance(expr, ast.Ternary):
            return max(self.value_bits(expr.then), self.value_bits(expr.otherwise))
        if isinstance(expr, ast.Concat):
            return sum(self.width_of(part) for part in expr.parts)
        if isinstance(expr, ast.Replicate):
            return self.width_of(expr)
        raise UnsupportedForVectorization(f"cannot bound value of {expr!r}")

    def _require_bits(self, bits: int, expr: ast.Expr) -> None:
        if bits > _MAX_VALUE_BITS:
            raise UnsupportedForVectorization(
                f"{expr!r} needs {bits} bits; int64 lanes hold {_MAX_VALUE_BITS}"
            )

    # -- representation hooks (family overlays) -------------------------------

    def _lift_result(self, value, lanes: int):
        """Broadcast a kernel result to the representation's full column form."""
        return _as_array(value, lanes)

    def _overlay(self, mask: np.ndarray, variant_value, golden_value, lanes: int):
        """Blend a variant's value over the golden value on masked lanes.

        ``mask`` is always a plain (lanes,) boolean array keyed off the
        member-id column, whatever the value representation.
        """
        return np.where(mask, self._lift_result(variant_value, lanes), golden_value)

    # -- compilation ----------------------------------------------------------

    def compile(self, expr: ast.Expr) -> VecKernel:
        kernel = self._cache.get(expr)
        if kernel is None:
            kernel = self._build(expr)
            self._cache[expr] = kernel
        return kernel

    def _build(self, expr: ast.Expr) -> VecKernel:
        if not (expr.signals() & self._signal_names):
            try:
                value = self._interp.eval(expr, {})
            except EvalError as exc:
                raise UnsupportedForVectorization(str(exc)) from exc
            self._require_bits(max(value.bit_length(), 1), expr)
            return lambda cols: value
        self._require_bits(self.value_bits(expr), expr)

        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name not in self._model.signals:
                raise UnsupportedForVectorization(f"unknown signal {name!r}")
            return lambda cols: cols[name]
        if isinstance(expr, ast.BitSelect):
            return self._build_bit_select(expr)
        if isinstance(expr, ast.PartSelect):
            base = self.compile(expr.base)
            msb = self._interp.const_value(expr.msb)
            lsb = self._interp.const_value(expr.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            mask = (1 << (msb - lsb + 1)) - 1
            lsb = min(lsb, 63)
            return lambda cols: (base(cols) >> lsb) & mask
        if isinstance(expr, ast.Unary):
            return self._build_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._build_binary(expr)
        if isinstance(expr, ast.Ternary):
            cond = self.compile(expr.cond)
            then = self.compile(expr.then)
            otherwise = self.compile(expr.otherwise)

            def ternary(cols: Cols) -> np.ndarray:
                return np.where(_as_bool(cond(cols)), then(cols), otherwise(cols))

            return ternary
        if isinstance(expr, ast.Concat):
            parts = [(self.compile(p), self.width_of(p)) for p in expr.parts]
            shifts: List[Tuple[VecKernel, int, int]] = []
            offset = sum(width for _, width in parts)
            for kernel, width in parts:
                offset -= width
                shifts.append((kernel, offset, (1 << width) - 1))
            shifts_t = tuple(shifts)

            def concat(cols: Cols) -> np.ndarray:
                value: Union[np.ndarray, int] = 0
                for kernel, shift, mask in shifts_t:
                    value = value | ((kernel(cols) & mask) << shift)
                return value

            return concat
        if isinstance(expr, ast.Replicate):
            count = self._interp.const_value(expr.count)
            width = self.width_of(expr.value)
            chunk = self.compile(expr.value)
            if not count or not width:
                # Zero copies are 0 in every lane, however wide the operand
                # (a mask past 63 bits would not fit the int64 lanes).
                return lambda cols: chunk(cols) & 0
            mask = (1 << width) - 1
            factor = ((1 << (width * count)) - 1) // mask
            return lambda cols: (chunk(cols) & mask) * factor
        raise UnsupportedForVectorization(f"cannot vector-lower {expr!r}")

    def _build_bit_select(self, expr: ast.BitSelect) -> VecKernel:
        base = self.compile(expr.base)
        if not (expr.index.signals() & self._signal_names):
            index = self._interp.eval(expr.index, {})
            if index < 0:
                raise EvalError(f"negative bit index {index}")
            index = min(index, 63)
            return lambda cols: (base(cols) >> index) & 1
        index_k = self.compile(expr.index)

        def bit_select(cols: Cols) -> np.ndarray:
            # Lane values are non-negative and < 2**63, so any shift >= 63
            # extracts a zero bit, matching the scalar backends.
            index = np.minimum(index_k(cols), 63)
            return (base(cols) >> index) & 1

        return bit_select

    def _build_unary(self, expr: ast.Unary) -> VecKernel:
        operand = self.compile(expr.operand)
        width = self.width_of(expr.operand)
        mask = (1 << width) - 1
        op = expr.op
        if op == "~":
            return lambda cols: ~operand(cols) & mask
        if op == "!":
            return lambda cols: _to_int(np.equal(operand(cols), 0))
        if op == "-":
            return lambda cols: -operand(cols) & mask
        if op == "&":
            return lambda cols: _to_int(np.equal(operand(cols), mask))
        if op == "|":
            return lambda cols: _to_int(np.not_equal(operand(cols), 0))
        if op == "^":
            if not hasattr(np, "bitwise_count"):
                # NumPy < 2.0 has no vectorized popcount; the compiled
                # scalar backend handles reduction-XOR instead.
                raise UnsupportedForVectorization(
                    "reduction '^' needs numpy>=2.0 (np.bitwise_count)"
                )
            return lambda cols: _to_int(
                np.bitwise_count(np.asarray(operand(cols), dtype=np.int64)) & 1
            )
        raise UnsupportedForVectorization(f"unsupported unary operator {op!r}")

    def _build_binary(self, expr: ast.Binary) -> VecKernel:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "&&":
            return lambda cols: _to_int(_as_bool(left(cols)) & _as_bool(right(cols)))
        if op == "||":
            return lambda cols: _to_int(_as_bool(left(cols)) | _as_bool(right(cols)))
        width = max(self.width_of(expr.left), self.width_of(expr.right))
        mask = (1 << width) - 1
        carry_mask = (1 << (width + 1)) - 1
        if op in ("+", "-"):
            self._require_bits(
                max(self.value_bits(expr.left), self.value_bits(expr.right)) + 1, expr
            )
        if op == "*":
            self._require_bits(
                self.value_bits(expr.left) + self.value_bits(expr.right), expr
            )
            mul_mask = (1 << (2 * width)) - 1
            return lambda cols: (left(cols) * right(cols)) & mul_mask
        if op == "+":
            return lambda cols: (left(cols) + right(cols)) & carry_mask
        if op == "-":
            return lambda cols: (left(cols) - right(cols)) & carry_mask
        if op == "/":

            def div(cols: Cols) -> np.ndarray:
                l, r = left(cols), right(cols)
                safe = np.where(np.equal(r, 0), 1, r)
                return np.where(np.equal(r, 0), mask, (l // safe) & mask)

            return div
        if op == "%":

            def mod(cols: Cols) -> np.ndarray:
                l, r = left(cols), right(cols)
                safe = np.where(np.equal(r, 0), 1, r)
                return np.where(np.equal(r, 0), l & mask, (l % safe) & mask)

            return mod
        if op == "**":
            # Exponentiation wraps unpredictably in fixed-width lanes; keep
            # the scalar backends authoritative for it.
            raise UnsupportedForVectorization("'**' is not vector-lowered")
        if op in ("&", "|", "^"):
            fn = {"&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor}[op]
            return lambda cols: fn(left(cols), right(cols))
        if op in ("==", "==="):
            return lambda cols: _to_int(np.equal(left(cols), right(cols)))
        if op in ("!=", "!=="):
            return lambda cols: _to_int(np.not_equal(left(cols), right(cols)))
        if op in ("<", "<=", ">", ">="):
            fn = {
                "<": np.less, "<=": np.less_equal,
                ">": np.greater, ">=": np.greater_equal,
            }[op]
            return lambda cols: _to_int(fn(left(cols), right(cols)))
        if op in ("<<", "<<<", ">>", ">>>"):
            left_width = self.width_of(expr.left)
            # The *declared* width can exceed int64 lanes (e.g. a concat of
            # width-less constants defaults to 32 bits apiece) even when the
            # value-bits analysis proved the value itself fits; the lane
            # values stay below 2**62, so a 63-bit mask is exact and avoids
            # building a mask no int64 can hold.
            left_mask = (1 << min(left_width, 63)) - 1
            if op in (">>", ">>>"):

                def shr(cols: Cols) -> np.ndarray:
                    shift = np.minimum(right(cols), 63)
                    return (left(cols) >> shift) & left_mask

                return shr

            def shl(cols: Cols) -> np.ndarray:
                # Only bits that survive the final mask are shifted: masking
                # the operand with (left_mask >> s) first keeps the product
                # below 2**left_width, so int64 lanes never overflow.
                shift = np.minimum(right(cols), left_width)
                return (left(cols) & (left_mask >> shift)) << shift

            return shl
        raise UnsupportedForVectorization(f"unsupported binary operator {op!r}")


def _as_bool(value: Union[np.ndarray, int]) -> Union[np.ndarray, bool]:
    if isinstance(value, np.ndarray):
        return np.not_equal(value, 0)
    return value != 0


def _to_int(value: Union[np.ndarray, bool]) -> Union[np.ndarray, int]:
    if isinstance(value, np.ndarray):
        return value.astype(np.int64)
    return int(value)


# ---------------------------------------------------------------------------
# Statement lowering (masked execution)
# ---------------------------------------------------------------------------

#: A lane mask: boolean ndarray, or None meaning "all lanes".
Mask = Optional[np.ndarray]


def _and_mask(mask: Mask, cond: Union[np.ndarray, bool]) -> Union[np.ndarray, bool]:
    if mask is None:
        return cond
    if cond is True:
        return mask
    if cond is False:
        return False
    return mask & cond


def _mask_and(a, b):
    """AND two lane masks where either side may be a scalar Python bool.

    Scalar bools never mix bitwise with word-packed masks (``True & words``
    would pick only bit 0), so they are short-circuited symbolically.
    """
    if a is True:
        return b
    if b is True:
        return a
    if a is False or b is False:
        return False
    return a & b


def _mask_or(a, b):
    """OR two lane masks where either side may be a scalar Python bool."""
    if a is False:
        return b
    if b is False:
        return a
    if a is True or b is True:
        return True
    return a | b


def _mask_any(mask: Union[np.ndarray, bool]) -> bool:
    if isinstance(mask, np.ndarray):
        return bool(mask.any())
    return bool(mask)


class _NbSink:
    """Non-blocking staging area with per-lane written masks.

    Mirrors the scalar ``next_values`` dict: a name is "written" per lane,
    and reads used by bit/part-select stores fall back to the live (shadow)
    environment for unwritten lanes.
    """

    __slots__ = ("env", "values", "written")

    def __init__(self, env: Cols):
        self.env = env
        self.values: Cols = {}
        self.written: Dict[str, np.ndarray] = {}

    def current(self, name: str, lanes: int) -> np.ndarray:
        if name in self.values:
            return np.where(self.written[name], self.values[name], self.env[name])
        return self.env[name]

    def write(self, name: str, value: np.ndarray, mask: Mask, lanes: int) -> None:
        if mask is None:
            mask = np.ones(lanes, dtype=bool)
        if name in self.values:
            self.values[name] = np.where(mask, value, self.values[name])
            self.written[name] = self.written[name] | mask
        else:
            self.values[name] = np.where(mask, value, 0)
            self.written[name] = mask.copy()


#: A compiled statement: ``fn(env_cols, nb_sink, mask, lanes)``.  Blocking
#: assignments write into ``env_cols`` under ``mask``; non-blocking ones are
#: staged into ``nb_sink`` (which is an alias of ``env_cols`` for
#: combinational execution, matching the scalar executor).
VecStmtKernel = Callable[[Cols, "_NbSink", Mask, int], None]
#: A compiled store target: ``fn(value, env_cols, nb_or_none, mask, lanes)``.
VecStoreKernel = Callable[[np.ndarray, Cols, Optional[_NbSink], Mask, int], None]


class VectorStmtCompiler:
    """Compile procedural statement bodies to masked array kernels.

    The control-flow machinery is representation-agnostic: every place a
    value must become a lane mask (conditions, case-label matches) or a
    per-lane value column routes through an overridable hook, so the
    multi-limb compiler reuses the whole If/Case/Block scaffolding by
    overriding only the hooks and the store kernels.
    """

    def __init__(self, model: RtlModel, exprs: VectorExprCompiler):
        self._model = model
        self._exprs = exprs
        self._stmt_cache: Dict[int, Tuple[ast.Stmt, VecStmtKernel]] = {}

    # -- representation hooks --------------------------------------------------

    def _cond_mask(self, value, env: Cols):
        """Lane mask (or scalar bool) from a condition kernel's result."""
        return _as_bool(value)

    def _eq_mask(self, label_value, subject_value, env: Cols):
        """Lane mask where a case label equals the case subject."""
        return np.equal(label_value, subject_value)

    def _lift(self, value, lanes: int):
        """Broadcast a kernel result to a full per-lane value column."""
        return _as_array(value, lanes)

    def compile_stmt(self, stmt: ast.Stmt) -> VecStmtKernel:
        cached = self._stmt_cache.get(id(stmt))
        if cached is not None:
            return cached[1]
        kernel = self._build_stmt(stmt)
        self._stmt_cache[id(stmt)] = (stmt, kernel)
        return kernel

    def _build_stmt(self, stmt: ast.Stmt) -> VecStmtKernel:
        if isinstance(stmt, ast.Block):
            kernels = tuple(self.compile_stmt(inner) for inner in stmt.statements)
            if len(kernels) == 1:
                return kernels[0]

            def block(env: Cols, nb: _NbSink, mask: Mask, lanes: int) -> None:
                for kernel in kernels:
                    kernel(env, nb, mask, lanes)

            return block
        if isinstance(stmt, ast.Assignment):
            value = self._exprs.compile(stmt.value)
            store = self._build_store(stmt.target, blocking=stmt.blocking)
            lift = self._lift

            def assign(env: Cols, nb: _NbSink, mask: Mask, lanes: int) -> None:
                store(lift(value(env), lanes), env, nb, mask, lanes)

            return assign
        if isinstance(stmt, ast.If):
            cond = self._exprs.compile(stmt.condition)
            then = self.compile_stmt(stmt.then_body)
            otherwise = (
                self.compile_stmt(stmt.else_body) if stmt.else_body is not None else None
            )
            cond_mask = self._cond_mask

            def if_stmt(env: Cols, nb: _NbSink, mask: Mask, lanes: int) -> None:
                taken = cond_mask(cond(env), env)
                then_mask = _and_mask(mask, taken)
                if _mask_any(then_mask):
                    then(env, nb, _materialize(then_mask, lanes), lanes)
                if otherwise is not None:
                    else_mask = _and_mask(mask, _invert(taken))
                    if _mask_any(else_mask):
                        otherwise(env, nb, _materialize(else_mask, lanes), lanes)

            return if_stmt
        if isinstance(stmt, ast.Case):
            subject = self._exprs.compile(stmt.subject)
            arms = tuple(
                (
                    tuple(self._exprs.compile(label) for label in item.labels),
                    self.compile_stmt(item.body),
                )
                for item in stmt.items
            )
            default = self.compile_stmt(stmt.default) if stmt.default is not None else None
            eq_mask = self._eq_mask

            def case(env: Cols, nb: _NbSink, mask: Mask, lanes: int) -> None:
                value = subject(env)
                unmatched: Union[np.ndarray, bool] = True
                for labels, body in arms:
                    hit: Union[np.ndarray, bool] = False
                    for label in labels:
                        hit = _mask_or(hit, eq_mask(label(env), value, env))
                    arm_mask = _and_mask(mask, _mask_and(unmatched, hit))
                    if _mask_any(arm_mask):
                        body(env, nb, _materialize(arm_mask, lanes), lanes)
                    unmatched = _mask_and(unmatched, _invert(hit))
                if default is not None:
                    default_mask = _and_mask(mask, unmatched)
                    if _mask_any(default_mask):
                        default(env, nb, _materialize(default_mask, lanes), lanes)

            return case
        raise UnsupportedForVectorization(f"unsupported statement {stmt!r}")

    # -- store targets --------------------------------------------------------

    def _build_store(self, target: ast.Expr, blocking: bool) -> VecStmtKernelStore:
        inner = self._build_store_kernel(target)
        if blocking:
            return lambda value, env, nb, mask, lanes: inner(value, env, None, mask, lanes)
        return lambda value, env, nb, mask, lanes: inner(value, env, nb, mask, lanes)

    def _build_store_kernel(self, target: ast.Expr) -> VecStoreKernel:
        if isinstance(target, ast.Identifier):
            name = target.name
            smask = self._model.signal(name).mask
            if smask.bit_length() > _MAX_VALUE_BITS:
                raise UnsupportedForVectorization(
                    f"signal {name!r} is wider than int64 lanes allow"
                )

            def store_ident(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                masked = value & smask
                if nb is None:
                    env[name] = masked if mask is None else np.where(mask, masked, env[name])
                else:
                    nb.write(name, masked, mask, lanes)

            return store_ident
        if isinstance(target, ast.BitSelect):
            name = self._target_name(target)
            smask = self._model.signal(name).mask
            index_k = self._exprs.compile(target.index)

            def store_bit(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                index = _as_array(index_k(env), lanes)
                # Indices past the lane width select a bit the final signal
                # mask would drop anyway; pin them to "no bit" exactly.
                bit = np.where(index > 62, 0, 1 << np.minimum(index, 62))
                current = env[name] if nb is None else nb.current(name, lanes)
                updated = np.where(_as_bool(value & 1), current | bit, current & ~bit) & smask
                if nb is None:
                    env[name] = updated if mask is None else np.where(mask, updated, env[name])
                else:
                    nb.write(name, updated, mask, lanes)

            return store_bit
        if isinstance(target, ast.PartSelect):
            name = self._target_name(target)
            smask = self._model.signal(name).mask
            msb_k = self._exprs.compile(target.msb)
            lsb_k = self._exprs.compile(target.lsb)

            def store_part(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                msb = _as_array(msb_k(env), lanes)
                lsb = _as_array(lsb_k(env), lanes)
                lo_raw = np.minimum(msb, lsb)
                hi = np.maximum(msb, lsb)
                lo = np.minimum(lo_raw, 62)
                width = np.minimum(hi - lo_raw + 1, 62 - lo)
                field = np.where(lo_raw > 62, 0, ((1 << width) - 1) << lo)
                current = env[name] if nb is None else nb.current(name, lanes)
                updated = ((current & ~field) | ((value << lo) & field)) & smask
                if nb is None:
                    env[name] = updated if mask is None else np.where(mask, updated, env[name])
                else:
                    nb.write(name, updated, mask, lanes)

            return store_part
        if isinstance(target, ast.Concat):
            parts: List[Tuple[VecStoreKernel, int, int]] = []
            offset = sum(self._exprs.width_of(part) for part in target.parts)
            for part in target.parts:
                width = self._exprs.width_of(part)
                offset -= width
                parts.append((self._build_store_kernel(part), offset, (1 << width) - 1))
            parts_t = tuple(parts)

            def store_concat(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                for store, shift, pmask in parts_t:
                    store((value >> shift) & pmask, env, nb, mask, lanes)

            return store_concat
        raise UnsupportedForVectorization(f"unsupported assignment target {target!r}")

    def _target_name(self, target: ast.Expr) -> str:
        base = target.base if isinstance(target, (ast.BitSelect, ast.PartSelect)) else target
        if isinstance(base, ast.Identifier):
            return base.name
        raise UnsupportedForVectorization(f"unsupported nested target {target!r}")


#: The masked-assignment adapter produced by ``_build_store``.
VecStmtKernelStore = Callable[[np.ndarray, Cols, _NbSink, Mask, int], None]


def _materialize(mask: Union[np.ndarray, bool], lanes: int) -> Mask:
    if isinstance(mask, np.ndarray):
        return mask
    return None if mask else np.zeros(lanes, dtype=bool)


def _invert(cond: Union[np.ndarray, bool]) -> Union[np.ndarray, bool]:
    if isinstance(cond, np.ndarray):
        return ~cond
    return not cond


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


def pack_tuple(values: Sequence[int], widths: Sequence[int]) -> int:
    """Pack one value tuple into a single int (LSB-first fields)."""
    packed = 0
    shift = 0
    for value, width in zip(values, widths):
        packed |= (value & ((1 << width) - 1)) << shift
        shift += width
    return packed


def unpack_tuple(packed: int, widths: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`pack_tuple`."""
    values = []
    shift = 0
    for width in widths:
        values.append((packed >> shift) & ((1 << width) - 1))
        shift += width
    return tuple(values)


def pack_columns(
    cols: Cols,
    names: Sequence[str],
    widths: Sequence[int],
    lanes: Optional[int] = None,
) -> np.ndarray:
    """Pack per-signal lane columns into one int64 lane per element.

    ``lanes`` sizes the result for a zero-field packing (a design with no
    state registers still has one — all-zero — packed state per lane).
    """
    packed: Union[np.ndarray, int] = 0
    shift = 0
    for name, width in zip(names, widths):
        packed = packed | ((cols[name] & ((1 << width) - 1)) << shift)
        shift += width
    if not isinstance(packed, np.ndarray):  # no fields: zero-dim state space
        if lanes is None:
            lanes = len(next(iter(cols.values()))) if cols else 0
        return np.zeros(lanes, dtype=np.int64)
    return packed


def unpack_columns(
    packed: np.ndarray, names: Sequence[str], widths: Sequence[int]
) -> Cols:
    """Inverse of :func:`pack_columns`."""
    cols: Cols = {}
    shift = 0
    for name, width in zip(names, widths):
        cols[name] = (packed >> shift) & ((1 << width) - 1)
        shift += width
    return cols


# ---------------------------------------------------------------------------
# The model kernel
# ---------------------------------------------------------------------------


class VectorKernel:
    """Structure-of-arrays kernel for one elaborated model.

    Construction raises :class:`UnsupportedForVectorization` when any part
    of the model cannot be lowered; callers treat that as "use the compiled
    scalar backend instead".
    """

    backend = "vectorized"
    #: Which lowering representation this kernel implements; the planner and
    #: the stats plumbing report it per design.
    plan_name = "soa"

    def __init__(self, model: RtlModel):
        self._model = model
        self.exprs = self._make_expr_compiler(model)
        self._stmts = self._make_stmt_compiler(model, self.exprs)

        assigns = tuple(
            (self.exprs.compile(assign.value), self._stmts._build_store_kernel(assign.target))
            for assign in model.assigns
        )
        comb = tuple(self._stmts.compile_stmt(process.body) for process in model.comb_processes)
        self._assigns = assigns
        self._comb = comb
        settle_targets = [assign.target_name for assign in model.assigns]
        for process in model.comb_processes:
            settle_targets.extend(process.targets)
        self._settle_targets = tuple(dict.fromkeys(settle_targets))
        self._seq = tuple(
            (self._stmts.compile_stmt(process.body), tuple(sorted(process.targets)))
            for process in model.seq_processes
        )

        self.state_names: Tuple[str, ...] = tuple(model.state_regs)
        self.state_widths: Tuple[int, ...] = tuple(
            model.signals[name].width for name in self.state_names
        )
        self.input_names: Tuple[str, ...] = tuple(model.non_clock_inputs)
        self.input_widths: Tuple[int, ...] = tuple(
            model.signals[name].width for name in self.input_names
        )
        #: Whether whole states / input valuations fit one packed int64 lane.
        #: Unpackable kernels still batch settles and traces; only the
        #: packed-set machinery (BFS frontiers, dense transition tables,
        #: exhaustive sweeps) requires ``packable``.
        self.packable = (
            sum(self.state_widths) <= _MAX_VALUE_BITS
            and sum(self.input_widths) <= _MAX_VALUE_BITS
        )
        self._check_widths(model)

    def _make_expr_compiler(self, model: RtlModel) -> VectorExprCompiler:
        return VectorExprCompiler(model)

    def _make_stmt_compiler(
        self, model: RtlModel, exprs: VectorExprCompiler
    ) -> VectorStmtCompiler:
        return VectorStmtCompiler(model, exprs)

    def _check_widths(self, model: RtlModel) -> None:
        """Reject signals the representation cannot hold (SoA: > int64)."""
        name = _wide_signal(model)
        if name is not None:
            raise UnsupportedForVectorization(
                f"signal {name!r} ({model.signals[name].width} bits) exceeds int64 lanes"
            )

    @property
    def model(self) -> RtlModel:
        return self._model

    # -- packing --------------------------------------------------------------

    def pack_state(self, state: Sequence[int]) -> int:
        """Pack one register-value tuple into a single int lane."""
        return pack_tuple(state, self.state_widths)

    def unpack_state(self, packed: int) -> Tuple[int, ...]:
        return unpack_tuple(packed, self.state_widths)

    def pack_input_grid(self, grid: Sequence[Sequence[int]]) -> np.ndarray:
        """Pack an input-valuation grid into one int64 lane per valuation."""
        return np.asarray(
            [pack_tuple(combo, self.input_widths) for combo in grid], dtype=np.int64
        )

    # -- environments ---------------------------------------------------------

    def blank_env(self, lanes: int) -> Cols:
        """All-signal columnar environment initialised to zero."""
        return {name: np.zeros(lanes, dtype=np.int64) for name in self._model.signals}

    def initial_env(self, lanes: int) -> Cols:
        """Reset-state environment: zeros plus declared initial values."""
        cols = self.blank_env(lanes)
        for name, value in self._model.initial_values.items():
            signal = self._model.signals[name]
            cols[name] = np.full(lanes, value & signal.mask, dtype=np.int64)
        return cols

    def env_row(self, cols: Cols, lane: int, names: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Materialise one lane as a scalar ``{signal: int}`` environment."""
        keys = names if names is not None else cols.keys()
        return {name: int(cols[name][lane]) for name in keys}

    # -- representation hooks -------------------------------------------------

    def env_lanes(self, cols: Cols) -> int:
        """Number of lanes in a columnar environment."""
        if not cols:
            return 0
        return int(next(iter(cols.values())).shape[-1])

    def lift_state(self, name: str, column) -> np.ndarray:
        """Convert an external state column (ints) to representation form."""
        return np.asarray(column, dtype=np.int64)

    def lift_input(self, name: str, column, lanes: int) -> np.ndarray:
        """Convert and mask an external input column to representation form."""
        mask = self._model.signals[name].mask
        return np.asarray(column, dtype=np.int64) & mask

    def bool_lanes(self, value, lanes: int) -> np.ndarray:
        """Truthiness of a compiled expression kernel's result per lane."""
        return _as_array(value, lanes) != 0

    def column_values(self, env: Cols, name: str) -> List[int]:
        """One signal column as a list of Python ints (arbitrary precision)."""
        return env[name].tolist()

    def _make_nb_sink(self, env: Cols) -> "_NbSink":
        return _NbSink(env)

    def _make_alias_sink(self, cols: Cols) -> "_NbSink":
        return _EnvAliasSink(cols)

    def _pack_next(self, next_cols: Cols, lanes: int) -> np.ndarray:
        """Pack next-state columns into int64 lanes (requires ``packable``)."""
        return pack_columns(next_cols, self.state_names, self.state_widths, lanes)

    # -- combinational settle -------------------------------------------------

    def settle(self, cols: Cols, max_iterations: int = _MAX_SETTLE_ITERATIONS) -> bool:
        """Settle every lane in place; True when a fixpoint was reached.

        All lanes start together and the pass is idempotent at a fixpoint,
        so running already-settled lanes for another iteration cannot change
        them — per-lane convergence tracking is unnecessary.
        """
        targets = self._settle_targets
        lanes = self.env_lanes(cols)
        for _ in range(max_iterations):
            before = [cols[name] for name in targets]
            self._comb_pass(cols, lanes)
            if all(
                prev is cols[name] or np.array_equal(prev, cols[name])
                for prev, name in zip(before, targets)
            ):
                return True
        return False

    def _comb_pass(self, cols: Cols, lanes: int) -> None:
        lift = self._stmts._lift
        for value, store in self._assigns:
            store(lift(value(cols), lanes), cols, None, None, lanes)
        if self._comb:
            sink = self._make_alias_sink(cols)
            for process in self._comb:
                process(cols, sink, None, lanes)

    # -- sequential clocking --------------------------------------------------

    def next_state_columns(self, env: Cols, lanes: int) -> Cols:
        """Post-clock register columns for an already-settled environment.

        Mirrors ``TransitionSystem._compute_step``: every sequential process
        runs over a blocking shadow, non-blocking writes are staged with
        per-lane written masks, and unwritten lanes keep their old register
        values.
        """
        nb = self._make_nb_sink(env)
        for body, targets in self._seq:
            shadow = dict(env)
            nb.env = shadow
            body(shadow, nb, None, lanes)
            for name in targets:
                if shadow[name] is env[name]:
                    continue
                changed = np.not_equal(shadow[name], env[name])
                if name in nb.written:
                    changed = changed & ~nb.written[name]
                if changed.any():
                    nb.write(name, shadow[name], changed, lanes)
        nb.env = env
        out: Cols = {}
        for name in self.state_names:
            if name in nb.values:
                out[name] = np.where(nb.written[name], nb.values[name], env[name])
            else:
                out[name] = env[name]
        return out

    # -- the batched transition -----------------------------------------------

    def step_batch(
        self, state_cols: Cols, input_cols: Cols, lanes: int,
        members: Optional[np.ndarray] = None,
    ) -> Tuple[Cols, Cols]:
        """Advance a batch of (state, input) lanes by one clock.

        Returns ``(env_cols, next_state_cols)`` where ``env_cols`` is the
        settled pre-clock environment (identical to
        :meth:`~repro.fpv.transition.TransitionSystem.settle`) and
        ``next_state_cols`` holds the post-clock register columns.
        ``members`` is a family kernel's per-lane member-id column.
        """
        env = self.blank_env(lanes)
        if members is not None:
            env[MUTANT_COLUMN] = np.asarray(members, dtype=np.int64)
        for name in self.state_names:
            env[name] = self.lift_state(name, state_cols[name])
        for name in self.input_names:
            column = input_cols.get(name)
            if column is None:
                continue  # absent inputs stay 0, like the scalar step
            env[name] = self.lift_input(name, column, lanes)
        # Clocks are already zero in a blank environment.
        self.settle(env)
        return env, self.next_state_columns(env, lanes)

    def step_packed(
        self, packed_states: np.ndarray, packed_inputs: np.ndarray,
        members: Optional[np.ndarray] = None,
    ) -> Tuple[Cols, np.ndarray]:
        """`step_batch` over bit-packed state/input lanes."""
        lanes = len(packed_states)
        env, next_cols = self.step_batch(
            unpack_columns(packed_states, self.state_names, self.state_widths),
            unpack_columns(packed_inputs, self.input_names, self.input_widths),
            lanes,
            members,
        )
        return env, self._pack_next(next_cols, lanes)


class _EnvAliasSink(_NbSink):
    """Non-blocking sink that writes straight into the environment.

    Combinational execution treats non-blocking assignments like blocking
    ones (the scalar executor passes ``env`` as both sinks).
    """

    def __init__(self, env: Cols):
        super().__init__(env)

    def current(self, name: str, lanes: int) -> np.ndarray:
        return self.env[name]

    def write(self, name: str, value: np.ndarray, mask: Mask, lanes: int) -> None:
        self.env[name] = value if mask is None else np.where(mask, value, self.env[name])


# ---------------------------------------------------------------------------
# The lowering planner
# ---------------------------------------------------------------------------

#: Plan identifiers, as reported by :class:`LoweringPlan` and ``run_stats()``.
PLAN_SOA = "soa"
PLAN_MULTILIMB = "multilimb"
PLAN_FALLBACK = "fallback"


@dataclass
class LoweringPlan:
    """Outcome of :func:`plan_model` for one design.

    ``plan`` names the representation chosen (or :data:`PLAN_FALLBACK` when
    every strategy refused the design, in which case ``kernel`` is ``None``
    and ``reason`` explains why).  ``attempts`` records the failure reason of
    every strategy that was tried and refused, including for successful
    plans (e.g. SoA's refusal when multi-limb ends up chosen).
    """

    plan: str
    kernel: Optional[VectorKernel]
    reason: str = ""
    attempts: Dict[str, str] = field(default_factory=dict)


def _build_soa(model: RtlModel) -> VectorKernel:
    return VectorKernel(model)


def _build_multilimb(model: RtlModel) -> VectorKernel:
    from .limb import MultiLimbKernel

    return MultiLimbKernel(model)


_PLAN_BUILDERS: Dict[str, Callable[[RtlModel], VectorKernel]] = {
    PLAN_SOA: _build_soa,
    PLAN_MULTILIMB: _build_multilimb,
}


def plan_model(model: RtlModel) -> LoweringPlan:
    """Choose and build the vector lowering for one design.

    Strategy order: the plain SoA-int64 kernel, then the multi-limb kernel
    for designs SoA refuses (wide signals, wide intermediates, ``**``).
    """
    attempts: Dict[str, str] = {}
    for plan, build in _PLAN_BUILDERS.items():
        try:
            kernel = build(model)
        except (UnsupportedForVectorization, EvalError) as exc:
            attempts[plan] = str(exc)
            continue
        return LoweringPlan(plan=plan, kernel=kernel, attempts=attempts)
    reason = "; ".join(f"{plan}: {message}" for plan, message in attempts.items())
    return LoweringPlan(plan=PLAN_FALLBACK, kernel=None, reason=reason, attempts=attempts)


def lower_model(model: RtlModel) -> Optional[VectorKernel]:
    """Lower ``model`` to the planner's chosen kernel, or ``None``."""
    return plan_model(model).kernel


# ---------------------------------------------------------------------------
# Family lowering: one kernel for a design and all of its mutants
# ---------------------------------------------------------------------------

#: Reserved lane column selecting the family member evaluated on that lane
#: (0 = the golden design, ``i + 1`` = the i-th accepted mutant).
MUTANT_COLUMN = "__mutant__"

#: Lane id of the golden design inside a family kernel.
GOLDEN_MEMBER = 0


class _FamilyExprCompiler(VectorExprCompiler):
    """Expression compiler with per-lane member selection at mutation sites.

    ``patches`` maps the object identity of a golden expression slot to the
    variant expressions of individual family members.  At a patched slot the
    compiled kernel evaluates the golden expression for every lane, then
    overlays each member's variant on the lanes carrying that member id (the
    ``MUTANT_COLUMN`` environment column).  Everywhere else compilation is
    the ordinary structurally-cached golden lowering, so members share every
    unmutated kernel.

    A variant that cannot be lowered rejects only its member: the patch is
    dropped, the member lands in ``rejected``, and the caller falls back to
    the per-mutant compiled path for it.
    """

    def __init__(self, model: RtlModel, patches: Dict[int, Dict[int, ast.Expr]],
                 rejected: Dict[int, str]):
        super().__init__(model)
        self._patches = patches
        self._rejected = rejected
        self._family_cache: Dict[int, VecKernel] = {}
        self._plain_depth = 0

    def compile(self, expr: ast.Expr) -> VecKernel:
        if self._plain_depth:
            # Variant compilation: a variant may *contain* its own slot node
            # (e.g. negate-cond wraps the golden condition in place), and
            # there it means "the golden expression", never the selector —
            # intercepting would recurse forever.
            return super().compile(expr)
        variants = self._patches.get(id(expr))
        if variants is None:
            return super().compile(expr)
        kernel = self._family_cache.get(id(expr))
        if kernel is None:
            kernel = self._build_family(expr, variants)
            self._family_cache[id(expr)] = kernel
        return kernel

    def _build_family(self, expr: ast.Expr, variants: Dict[int, ast.Expr]) -> VecKernel:
        self._plain_depth += 1
        try:
            golden = super().compile(expr)
            pairs = []
            for member, variant in sorted(variants.items()):
                if member in self._rejected:
                    continue
                try:
                    pairs.append((member, super().compile(variant)))
                except (UnsupportedForVectorization, EvalError) as exc:
                    self._rejected[member] = str(exc)
        finally:
            self._plain_depth -= 1
        if not pairs:
            return golden
        pairs_t = tuple(pairs)
        lift = self._lift_result
        overlay = self._overlay

        def family(cols: Cols) -> np.ndarray:
            members = cols[MUTANT_COLUMN]
            lanes = len(members)
            value = lift(golden(cols), lanes)
            for member, variant in pairs_t:
                mask = np.equal(members, member)
                if mask.any():
                    value = overlay(mask, variant(cols), value, lanes)
            return value

        return family


class _StructureMismatch(Exception):
    """Golden and mutant models do not share one AST skeleton."""


def _diff_exprs(golden: ast.Expr, mutant: ast.Expr, diffs: List) -> None:
    if golden != mutant:
        diffs.append((golden, mutant))


def _diff_stmts(golden: ast.Stmt, mutant: ast.Stmt, diffs: List) -> None:
    """Zip-walk two statement trees, collecting differing expression slots.

    Raises :class:`_StructureMismatch` when the trees differ in anything but
    expression content (statement kinds, nesting, targets, blocking-ness) —
    a mutant shaped like that cannot ride the golden skeleton.
    """
    if type(golden) is not type(mutant):
        raise _StructureMismatch()
    if isinstance(golden, ast.Block):
        if len(golden.statements) != len(mutant.statements):
            raise _StructureMismatch()
        for inner_g, inner_m in zip(golden.statements, mutant.statements):
            _diff_stmts(inner_g, inner_m, diffs)
    elif isinstance(golden, ast.Assignment):
        if golden.blocking != mutant.blocking or golden.target != mutant.target:
            raise _StructureMismatch()
        _diff_exprs(golden.value, mutant.value, diffs)
    elif isinstance(golden, ast.If):
        _diff_exprs(golden.condition, mutant.condition, diffs)
        _diff_stmts(golden.then_body, mutant.then_body, diffs)
        if (golden.else_body is None) != (mutant.else_body is None):
            raise _StructureMismatch()
        if golden.else_body is not None:
            _diff_stmts(golden.else_body, mutant.else_body, diffs)
    elif isinstance(golden, ast.Case):
        _diff_exprs(golden.subject, mutant.subject, diffs)
        if len(golden.items) != len(mutant.items):
            raise _StructureMismatch()
        for item_g, item_m in zip(golden.items, mutant.items):
            if len(item_g.labels) != len(item_m.labels):
                raise _StructureMismatch()
            for label_g, label_m in zip(item_g.labels, item_m.labels):
                _diff_exprs(label_g, label_m, diffs)
            _diff_stmts(item_g.body, item_m.body, diffs)
        if (golden.default is None) != (mutant.default is None):
            raise _StructureMismatch()
        if golden.default is not None:
            _diff_stmts(golden.default, mutant.default, diffs)
    else:
        raise _StructureMismatch()


def _diff_models(golden: RtlModel, mutant: RtlModel) -> List:
    """Expression slots where ``mutant`` departs from the golden skeleton.

    Returns ``[(golden slot node, variant expression), ...]`` or raises
    :class:`_StructureMismatch`.  Everything that shapes the kernel outside
    expression content — signals, widths, state ordering, initial values,
    process structure, clocking — must match exactly.
    """
    diffs: List = []
    if (
        [(s.name, s.width, s.kind, s.is_state) for s in golden.signals.values()]
        != [(s.name, s.width, s.kind, s.is_state) for s in mutant.signals.values()]
        or golden.parameters != mutant.parameters
        or golden.inputs != mutant.inputs
        or golden.outputs != mutant.outputs
        or golden.state_regs != mutant.state_regs
        or golden.initial_values != mutant.initial_values
        or golden.clocks != mutant.clocks
        or golden.resets != mutant.resets
        or len(golden.assigns) != len(mutant.assigns)
        or len(golden.comb_processes) != len(mutant.comb_processes)
        or len(golden.seq_processes) != len(mutant.seq_processes)
    ):
        raise _StructureMismatch()
    for assign_g, assign_m in zip(golden.assigns, mutant.assigns):
        if assign_g.target != assign_m.target or assign_g.target_name != assign_m.target_name:
            raise _StructureMismatch()
        _diff_exprs(assign_g.value, assign_m.value, diffs)
    for comb_g, comb_m in zip(golden.comb_processes, mutant.comb_processes):
        if comb_g.targets != comb_m.targets:
            raise _StructureMismatch()
        _diff_stmts(comb_g.body, comb_m.body, diffs)
    for seq_g, seq_m in zip(golden.seq_processes, mutant.seq_processes):
        if (
            seq_g.clock != seq_m.clock
            or seq_g.clock_edge != seq_m.clock_edge
            or seq_g.async_resets != seq_m.async_resets
            or seq_g.targets != seq_m.targets
        ):
            raise _StructureMismatch()
        _diff_stmts(seq_g.body, seq_m.body, diffs)
    return diffs


def _collect_expr_ids(expr: ast.Expr, counts: Dict[int, int]) -> None:
    counts[id(expr)] = counts.get(id(expr), 0) + 1
    if isinstance(expr, ast.Unary):
        _collect_expr_ids(expr.operand, counts)
    elif isinstance(expr, ast.Binary):
        _collect_expr_ids(expr.left, counts)
        _collect_expr_ids(expr.right, counts)
    elif isinstance(expr, ast.Ternary):
        _collect_expr_ids(expr.cond, counts)
        _collect_expr_ids(expr.then, counts)
        _collect_expr_ids(expr.otherwise, counts)
    elif isinstance(expr, ast.BitSelect):
        _collect_expr_ids(expr.base, counts)
        _collect_expr_ids(expr.index, counts)
    elif isinstance(expr, ast.PartSelect):
        _collect_expr_ids(expr.base, counts)
        _collect_expr_ids(expr.msb, counts)
        _collect_expr_ids(expr.lsb, counts)
    elif isinstance(expr, ast.Concat):
        for part in expr.parts:
            _collect_expr_ids(part, counts)
    elif isinstance(expr, ast.Replicate):
        _collect_expr_ids(expr.count, counts)
        _collect_expr_ids(expr.value, counts)


def _collect_stmt_expr_ids(stmt: ast.Stmt, counts: Dict[int, int]) -> None:
    if isinstance(stmt, ast.Block):
        for inner in stmt.statements:
            _collect_stmt_expr_ids(inner, counts)
    elif isinstance(stmt, ast.Assignment):
        _collect_expr_ids(stmt.target, counts)
        _collect_expr_ids(stmt.value, counts)
    elif isinstance(stmt, ast.If):
        _collect_expr_ids(stmt.condition, counts)
        _collect_stmt_expr_ids(stmt.then_body, counts)
        if stmt.else_body is not None:
            _collect_stmt_expr_ids(stmt.else_body, counts)
    elif isinstance(stmt, ast.Case):
        _collect_expr_ids(stmt.subject, counts)
        for item in stmt.items:
            for label in item.labels:
                _collect_expr_ids(label, counts)
            _collect_stmt_expr_ids(item.body, counts)
        if stmt.default is not None:
            _collect_stmt_expr_ids(stmt.default, counts)


def _model_expr_id_counts(model: RtlModel) -> Dict[int, int]:
    """Occurrence counts of every expression node object in the model.

    A golden slot node that is shared (the same object reachable from two
    positions) cannot be patched by identity — selecting the variant at one
    occurrence would silently select it at the other too.
    """
    counts: Dict[int, int] = {}
    for assign in model.assigns:
        _collect_expr_ids(assign.target, counts)
        _collect_expr_ids(assign.value, counts)
    for process in model.comb_processes:
        _collect_stmt_expr_ids(process.body, counts)
    for process in model.seq_processes:
        _collect_stmt_expr_ids(process.body, counts)
    return counts


class _FamilyMixin:
    """Family-member machinery, independent of the value representation.

    Mixed in front of a concrete kernel class (``FamilyKernel`` for SoA,
    ``MultiLimbFamilyKernel`` for limbs): the :data:`MUTANT_COLUMN` member-id
    column is always a plain 1-D int64 array, whatever shape the signal
    columns take, and all lifting/extraction goes through the kernel's
    representation hooks.
    """

    def __init__(self, model: RtlModel, patches: Dict[int, Dict[int, ast.Expr]],
                 rejected: Dict[int, str]):
        self._patches = patches
        self._rejected_members = rejected
        super().__init__(model)

    def _make_expr_compiler(self, model: RtlModel) -> VectorExprCompiler:
        return _FamilyExprCompiler(model, self._patches, self._rejected_members)

    # -- family environments ----------------------------------------------------

    def family_simulate(
        self, members: Sequence[int], stimuli: Sequence, cycles: int
    ) -> List[List[Trace]]:
        """One trace per (family member, stimulus), split per member.

        ``family_simulate(members, s, c)[i][j]`` is bit-for-bit the trace the
        scalar simulator records for member ``members[i]``'s design alone
        under ``s[j]``; :func:`simulate_batch` does the stepping.
        """
        traces = simulate_batch(self._model, stimuli, cycles, self, members=members)
        count = len(stimuli)
        return [traces[row * count : (row + 1) * count] for row in range(len(members))]


class FamilyKernel(_FamilyMixin, VectorKernel):
    """A :class:`VectorKernel` over a golden model plus mutation-site patches.

    Lanes carry a member id in the :data:`MUTANT_COLUMN` environment column;
    every compiled expression kernel resolves patched slots per lane, so one
    ``step`` advances an arbitrary mix of family members.  Member 0 is the
    golden design and is bit-identical to ``VectorKernel(golden_model)``.
    """


@dataclass
class FamilyLowering:
    """Result of :func:`lower_family`.

    ``member_ids[i]`` is the lane id of the i-th mutant inside the kernel, or
    ``None`` when that mutant could not join the family (structure mismatch,
    un-lowerable variant expression, shared slot node) and must run on the
    per-mutant fallback path; ``rejected`` carries the reasons.
    """

    kernel: "FamilyKernel"
    member_ids: List[Optional[int]]
    rejected: Dict[int, str]
    plan: str = PLAN_SOA

    def accepted(self) -> List[int]:
        """Positions of the mutants the family kernel covers."""
        return [i for i, member in enumerate(self.member_ids) if member is not None]


def _build_multilimb_family(
    model: RtlModel, patches: Dict[int, Dict[int, ast.Expr]], rejected: Dict[int, str]
):
    from .limb import MultiLimbFamilyKernel

    return MultiLimbFamilyKernel(model, patches, rejected)


def lower_family(
    golden: RtlModel, mutants: Sequence[RtlModel]
) -> Optional[FamilyLowering]:
    """Lower a golden model and its mutants into one :class:`FamilyKernel`.

    The SoA family kernel is tried first; when the golden model itself is
    beyond int64 lanes (wide signals, ``**``), the multi-limb family kernel
    takes over so mutant families of wide designs stay batched.  Each attempt
    starts from a fresh rejected-member map: a variant rejection specific to
    one representation (e.g. a variant overflowing int64) must not leak into
    the next.  Returns ``None`` only when no representation can lower the
    golden model.  Individual mutants that cannot share the skeleton are
    rejected, not fatal.
    """
    patches: Dict[int, Dict[int, ast.Expr]] = {}
    base_rejected: Dict[int, str] = {}
    id_counts = _model_expr_id_counts(golden)
    for position, mutant in enumerate(mutants):
        member = position + 1
        try:
            diffs = _diff_models(golden, mutant)
        except _StructureMismatch:
            base_rejected[member] = "mutant does not share the golden AST skeleton"
            continue
        if any(id_counts.get(id(slot), 0) != 1 for slot, _ in diffs):
            base_rejected[member] = "mutated slot node is shared within the golden model"
            continue
        for slot, variant in diffs:
            patches.setdefault(id(slot), {})[member] = variant
    builders = ((PLAN_SOA, FamilyKernel), (PLAN_MULTILIMB, _build_multilimb_family))
    for plan, builder in builders:
        rejected = dict(base_rejected)
        try:
            kernel = builder(golden, patches, rejected)
        except (UnsupportedForVectorization, EvalError):
            continue
        member_ids: List[Optional[int]] = [
            None if (i + 1) in rejected else (i + 1) for i in range(len(mutants))
        ]
        return FamilyLowering(
            kernel=kernel, member_ids=member_ids, rejected=rejected, plan=plan
        )
    return None


# ---------------------------------------------------------------------------
# Batched simulation (falsification traces)
# ---------------------------------------------------------------------------


def _wide_signal(model: RtlModel) -> Optional[str]:
    """The first signal too wide for an int64 lane, or ``None``: a design
    with one never lowers to SoA, so neither does its mutant family."""
    return next(
        (name for name, signal in model.signals.items() if signal.width > _MAX_VALUE_BITS),
        None,
    )


def comb_cycle_independent(model: RtlModel) -> bool:
    """True when every simulated cycle's settled values depend only on that
    cycle's inputs.

    Holds for purely combinational designs whose logic is an acyclic network
    of continuous assignments: no registers, no ``always @(*)`` blocks
    (incomplete assignment inside one latches state across settles), and no
    assign feeding back into itself.  Such designs can settle every
    (stimulus, cycle) pair as one flat batch.
    """
    if model.seq_processes or model.comb_processes:
        return False
    supports: Dict[str, set] = {}
    for assign in model.assigns:
        supports.setdefault(assign.target_name, set()).update(assign.supports)
    visiting: Dict[str, int] = {}  # 1 = on stack, 2 = done

    def acyclic(name: str) -> bool:
        state = visiting.get(name)
        if state == 2:
            return True
        if state == 1:
            return False
        visiting[name] = 1
        for dep in supports.get(name, ()):
            if dep in supports and not acyclic(dep):
                return False
        visiting[name] = 2
        return True

    return all(acyclic(name) for name in supports)


#: Fewest lanes at which a cycle-stepped SoA batch beats running each lane
#: on the compiled scalar simulator, for single designs and mutant families
#: alike.
_BATCH_MIN_LANES = 16


def batch_simulation_pays(
    model: RtlModel, lanes: int, lower: Callable[[], Optional[Tuple[str, int]]]
) -> bool:
    """Whether :func:`simulate_batch` beats one compiled scalar run per lane.

    Cycle-independent designs settle as one flat batch and always pay.
    Cycle-stepped batches pay only on the SoA plan from
    :data:`_BATCH_MIN_LANES` lanes on (0.53–1.04× the scalar loop at 16
    lanes, 1.2–1.95× at 32, up to 2.95× at 64); multi-limb stepping lost to
    the scalar loop on every sequential wide design at 2–32 lanes.

    ``lanes`` bounds the batch before any kernel exists.  ``lower()`` lowers
    the design (or family) and returns its plan name and the lanes the batch
    would really hold, or ``None`` when nothing can batch.  SoA is the plan
    batching pays on soonest, so ``lower`` runs only when ``lanes`` on the
    SoA plan would pay and the model has no signal too wide for SoA: a
    design the rule refuses is decided from the model alone and lowers no
    kernel.
    """
    independent = comb_cycle_independent(model)
    if not independent and (lanes < _BATCH_MIN_LANES or _wide_signal(model) is not None):
        return False
    lowered = lower()
    if lowered is None:
        return False
    plan, lanes = lowered
    return independent or (plan == PLAN_SOA and lanes >= _BATCH_MIN_LANES)


def _settle_or_raise(kernel: VectorKernel, env: Cols, design_name: str) -> None:
    if not kernel.settle(env):
        raise CombinationalLoopError(
            f"combinational logic of {design_name!r} did not settle"
        )


def simulate_batch(
    model: RtlModel,
    stimuli: Sequence,
    cycles: int,
    kernel: Optional[VectorKernel] = None,
    members: Optional[Sequence[int]] = None,
) -> List[Trace]:
    """Run one trace per stimulus, stepping all lanes as one batch.

    Bit-for-bit equivalent to running ``Simulator(model).run(cycles, s)``
    once per stimulus: the per-cycle snapshot is the settled pre-edge
    environment, exactly as the scalar simulator records it.

    ``members`` runs every stimulus once per listed member of a family
    ``kernel``; lanes and the returned traces are member-major, all of
    ``members[0]``'s stimuli first.  Mutation variants only rewrite
    expressions of the golden ``model``, so a family shares its cycle
    independence.  Sequential designs advance one lane per (member,
    stimulus) cycle by cycle; cycle-independent ones (see
    :func:`comb_cycle_independent`) settle every (member, stimulus, cycle)
    lane as one flat batch, chunked by whole members to at most
    :data:`LANE_BUDGET` lanes per settle (one member's stimuli × cycles are
    never split).
    """
    from .stimulus import stack_stimuli

    if kernel is None:
        plan = plan_model(model)
        if plan.kernel is None:
            raise UnsupportedForVectorization(plan.reason)
        kernel = plan.kernel
    design_name = model.name
    signal_names = list(model.signals)
    num_stimuli = len(stimuli)
    stacked = stack_stimuli(stimuli, model, cycles)  # (cycles, stimuli) per input
    runs = [None] if members is None else list(members)

    def start_env(chunk: List, lanes_per_member: int) -> Cols:
        lanes = len(chunk) * lanes_per_member
        env = kernel.initial_env(lanes)
        if members is not None:
            env[MUTANT_COLUMN] = np.repeat(
                np.asarray(chunk, dtype=np.int64), lanes_per_member
            )
        return env

    def trace_of(values: Dict[str, List[int]]) -> Trace:
        return Trace(signals=list(signal_names), data=values, design_name=design_name)

    traces: List[Trace] = []
    if comb_cycle_independent(model):
        # Fortran ravel keeps each stimulus' cycles contiguous per lane block.
        per_member = num_stimuli * cycles
        flat_inputs = {
            name: np.ascontiguousarray(stacked[name].ravel(order="F"))
            for name in model.non_clock_inputs
        }
        step = rows_per_call(per_member)
        for start in range(0, len(runs), step):
            chunk = runs[start : start + step]
            lanes = len(chunk) * per_member
            env = start_env(chunk, per_member)
            for name, column in flat_inputs.items():
                env[name] = kernel.lift_input(name, np.tile(column, len(chunk)), lanes)
            _settle_or_raise(kernel, env, design_name)
            flat = {name: kernel.column_values(env, name) for name in signal_names}
            for block in range(len(chunk) * num_stimuli):
                lo, hi = block * cycles, (block + 1) * cycles
                traces.append(trace_of({name: flat[name][lo:hi] for name in signal_names}))
        return traces

    lanes = len(runs) * num_stimuli
    env = start_env(runs, num_stimuli)
    _settle_or_raise(kernel, env, design_name)
    columns: Dict[str, List[List[int]]] = {name: [] for name in signal_names}
    sequential = bool(model.seq_processes)
    for cycle in range(cycles):
        for name in model.non_clock_inputs:
            env[name] = kernel.lift_input(
                name, np.tile(stacked[name][cycle], len(runs)), lanes
            )
        _settle_or_raise(kernel, env, design_name)
        for name in signal_names:
            columns[name].append(kernel.column_values(env, name))
        if sequential:
            env.update(kernel.next_state_columns(env, lanes))
            _settle_or_raise(kernel, env, design_name)
    for lane in range(lanes):
        traces.append(
            trace_of({name: [row[lane] for row in columns[name]] for name in signal_names})
        )
    return traces
