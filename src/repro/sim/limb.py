"""Multi-limb lowering: wide values as stacks of 32-bit limb columns.

Where the SoA kernel of :mod:`repro.sim.vector` refuses any design whose
intermediates cannot be proven to fit in 63 signed bits, this module
represents every signal column as a ``(limbs, lanes)`` int64 array of 32-bit
limbs (LSB-first).  Arithmetic lowers to carry-propagating limb ops:
ripple-carry add/sub, schoolbook multiply over 16-bit digits, short division,
square-and-multiply ``**``, limb-gather shifts, and top-down limb compares —
so a 100-bit datapath or a 40x40 multiply stays on the array path.

Semantics are bit-for-bit the scalar reference: every op reproduces the
interpreter's masking rules (carry headroom on ``+``/``-``, ``2*width`` on
``*``, division-by-zero results, the 2**16 shift clamp, ``pow(l, r,
1 << width)`` for ``**``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..hdl import ast
from ..hdl.elaborate import RtlModel
from .eval import EvalError
from .vector import (
    Cols,
    Mask,
    UnsupportedForVectorization,
    VecKernel,
    VecStoreKernel,
    VectorExprCompiler,
    VectorKernel,
    VectorStmtCompiler,
    _FamilyExprCompiler,
    _FamilyMixin,
    _NbSink,
    pack_columns,
)

LIMB_BITS = 32
LIMB_MASK = (1 << LIMB_BITS) - 1
#: Scalar shift amounts clamp here, mirroring the scalar backends.
_SHIFT_CLAMP = 1 << 16


def limbs_for(bits: int) -> int:
    """Number of 32-bit limbs needed for a ``bits``-wide value."""
    return max(1, (bits + LIMB_BITS - 1) // LIMB_BITS)


# ---------------------------------------------------------------------------
# Limb-array helpers.  Values are (k, n) int64 arrays, LSB limb first; n is
# either the lane count or 1 (constants, broadcast by NumPy).
# ---------------------------------------------------------------------------


def _row(arr: np.ndarray, i: int) -> Union[np.ndarray, np.int64]:
    """Limb ``i`` of a value, zero when past its top limb."""
    if 0 <= i < arr.shape[0]:
        return arr[i]
    return np.int64(0)


def _stack(rows: Sequence) -> np.ndarray:
    """Stack per-limb rows (mixed scalar/(1,)/(n,) shapes) into (k, n)."""
    rows = [np.atleast_1d(np.asarray(r)) for r in rows]
    rows = np.broadcast_arrays(*rows)
    return np.stack(rows).astype(np.int64)


def _align(arr: np.ndarray, k: int) -> np.ndarray:
    """Pad (or truncate) a limb array to exactly ``k`` limb rows."""
    have = arr.shape[0]
    if have == k:
        return arr
    if have > k:
        return arr[:k]
    pad = np.zeros((k - have,) + arr.shape[1:], dtype=np.int64)
    return np.concatenate([arr, pad], axis=0)


def const_limbs(value: int, k: Optional[int] = None) -> np.ndarray:
    """A Python int as a (k, 1) limb array."""
    if k is None:
        k = limbs_for(max(value.bit_length(), 1))
    return np.asarray(
        [(value >> (i * LIMB_BITS)) & LIMB_MASK for i in range(k)], dtype=np.int64
    ).reshape(k, 1)


def _mask_limbs(arr: np.ndarray, bits: int) -> np.ndarray:
    """Keep the low ``bits`` bits of a limb value."""
    k = limbs_for(bits)
    arr = _align(arr, k)
    top = bits - (k - 1) * LIMB_BITS
    if top < LIMB_BITS:
        arr = arr.copy()
        arr[-1] = arr[-1] & ((1 << top) - 1)
    return arr


def _ripple_add(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    rows = []
    carry: Union[np.ndarray, np.int64] = np.int64(0)
    for i in range(k):
        s = _row(a, i) + _row(b, i) + carry
        rows.append(s & LIMB_MASK)
        carry = s >> LIMB_BITS
    return _stack(rows)


def _ripple_sub(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    rows = []
    borrow: Union[np.ndarray, np.int64] = np.int64(0)
    for i in range(k):
        # Negative int64 & LIMB_MASK is bitwise two's complement: exactly the
        # low 32 bits of the infinite-precision difference.
        d = _row(a, i) - _row(b, i) - borrow
        rows.append(d & LIMB_MASK)
        borrow = (np.asarray(d) < 0).astype(np.int64)
    return _stack(rows)


def _digits(arr: np.ndarray) -> List:
    """Split limb rows into 16-bit digit rows (LSB digit first)."""
    out = []
    for i in range(arr.shape[0]):
        out.append(arr[i] & 0xFFFF)
        out.append((arr[i] >> 16) & 0xFFFF)
    return out


def _mul(a: np.ndarray, b: np.ndarray, out_bits: int) -> np.ndarray:
    """Schoolbook multiply modulo ``2**out_bits`` (16-bit digit products).

    Each accumulator term is below ``2**32`` and at most ~64 terms join one
    digit position, so the running sum stays far inside int64.
    """
    da = _digits(a)
    db = _digits(b)
    nd = max(1, (out_bits + 15) // 16)  # a zero-width product is one 0 digit
    digits = []
    carry: Union[np.ndarray, np.int64] = np.int64(0)
    for p in range(nd):
        acc = carry
        for i in range(max(0, p - len(db) + 1), min(p + 1, len(da))):
            acc = acc + da[i] * db[p - i]
        digits.append(acc & 0xFFFF)
        carry = acc >> 16
    rows = []
    for i in range(0, nd, 2):
        low = digits[i]
        high = digits[i + 1] if i + 1 < nd else np.int64(0)
        rows.append(low | (high << 16))
    return _mask_limbs(_stack(rows), out_bits)


def _eq_all(a: np.ndarray, b: np.ndarray):
    """Word-wise equality over the full limb extent of both values."""
    k = max(a.shape[0], b.shape[0])
    eq = None
    for i in range(k):
        e = np.asarray(_row(a, i) == _row(b, i))
        eq = e if eq is None else eq & e
    return eq


def _cmp_masks(a: np.ndarray, b: np.ndarray):
    """(lt, gt) boolean lane masks for an unsigned limb compare."""
    k = max(a.shape[0], b.shape[0])
    lt = gt = decided = None
    for i in range(k - 1, -1, -1):
        ai, bi = _row(a, i), _row(b, i)
        li = np.asarray(ai < bi)
        gi = np.asarray(ai > bi)
        if decided is None:
            lt, gt, decided = li, gi, li | gi
        else:
            lt = lt | (~decided & li)
            gt = gt | (~decided & gi)
            decided = decided | li | gi
    return lt, gt


def _any_nonzero(arr: np.ndarray) -> np.ndarray:
    return (np.asarray(arr) != 0).any(axis=0)


def _bool_row(value) -> np.ndarray:
    """A boolean lane result as a single-limb (1, n) int64 value."""
    arr = np.atleast_1d(np.asarray(value))
    return arr.astype(np.int64).reshape(1, -1)


def _shl_const(a: np.ndarray, shift: int, out_bits: int) -> np.ndarray:
    q, r = divmod(min(shift, _SHIFT_CLAMP), LIMB_BITS)
    k = limbs_for(out_bits)
    rows = []
    for i in range(k):
        lo = _row(a, i - q)
        if r:
            hi = _row(a, i - q - 1)
            rows.append(((lo << r) & LIMB_MASK) | (hi >> (LIMB_BITS - r)))
        else:
            rows.append(lo)
    return _mask_limbs(_stack(rows), out_bits)


def _shr_const(a: np.ndarray, shift: int) -> np.ndarray:
    q, r = divmod(min(shift, _SHIFT_CLAMP), LIMB_BITS)
    k = max(1, a.shape[0] - q)
    rows = []
    for i in range(k):
        lo = _row(a, i + q)
        if r:
            hi = _row(a, i + q + 1)
            rows.append((lo >> r) | ((hi & ((1 << r) - 1)) << (LIMB_BITS - r)))
        else:
            rows.append(lo)
    return _stack(rows)


def _lanes_of(arr: np.ndarray, n: int) -> np.ndarray:
    """Broadcast a possibly-(k, 1) value to (k, n) for fancy indexing."""
    if arr.shape[1] == n:
        return arr
    return np.broadcast_to(arr, (arr.shape[0], n))


def _gather(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-lane limb gather: row ``idx[i, lane]`` of each lane, 0 outside."""
    ka, n = arr.shape
    valid = (idx >= 0) & (idx < ka)
    safe = np.clip(idx, 0, ka - 1)
    return np.where(valid, arr[safe, np.arange(n)[None, :]], np.int64(0))


def _shl_dyn(a: np.ndarray, amount: np.ndarray, out_bits: int) -> np.ndarray:
    k = limbs_for(out_bits)
    n = len(amount)
    al = _lanes_of(a, n)
    q = amount >> 5
    r = amount & 31
    idx = np.arange(k, dtype=np.int64)[:, None] - q[None, :]
    lo = _gather(al, idx)
    hi = _gather(al, idx - 1)
    # r == 0 lanes: hi >> 32 vanishes (limb values are below 2**32).
    rows = ((lo << r[None, :]) & LIMB_MASK) | (hi >> (LIMB_BITS - r[None, :]))
    return _mask_limbs(rows, out_bits)


def _shr_dyn(a: np.ndarray, amount: np.ndarray, out_bits: int) -> np.ndarray:
    k = limbs_for(out_bits)
    n = len(amount)
    al = _lanes_of(a, n)
    q = amount >> 5
    r = amount & 31
    idx = np.arange(k, dtype=np.int64)[:, None] + q[None, :]
    lo = _gather(al, idx)
    hi = _gather(al, idx + 1)
    # r == 0 lanes: the carry-in mask (1 << r) - 1 is zero, so the high part
    # contributes nothing; masking before the left shift keeps ops in int64.
    rmask = (np.int64(1) << r[None, :]) - 1
    rows = (lo >> r[None, :]) | ((hi & rmask) << (LIMB_BITS - r[None, :]))
    return _mask_limbs(rows, out_bits)


def _collapse_amount(arr: np.ndarray, limit: int) -> np.ndarray:
    """Collapse a limb value to per-lane ints clamped to ``limit``.

    Any value with a nonzero high limb is at least ``2**32 > limit``, so it
    clamps without being materialised.
    """
    low = np.atleast_1d(np.asarray(arr[0]))
    if arr.shape[0] > 1:
        over = _any_nonzero(arr[1:])
        low = np.where(over, np.int64(limit), low)
    return np.minimum(low, limit)


def _to_object(arr: np.ndarray) -> np.ndarray:
    """Combine limb rows into arbitrary-precision Python ints per lane."""
    out = arr[0].astype(object)
    for i in range(1, arr.shape[0]):
        out = out | (arr[i].astype(object) << (i * LIMB_BITS))
    return out


def _from_object(values: np.ndarray, k: int) -> np.ndarray:
    rows = [((values >> (i * LIMB_BITS)) & LIMB_MASK).astype(np.int64) for i in range(k)]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


class LimbExprCompiler(VectorExprCompiler):
    """Compile expressions to (limbs, lanes) kernels with no width ceiling."""

    def value_bits(self, expr: ast.Expr) -> int:
        # The base analysis clamps `>>` results to int64; limbs have no such
        # ceiling and understating the bound would truncate real bits.
        if isinstance(expr, ast.Binary) and expr.op in (">>", ">>>"):
            return self.value_bits(expr.left)
        return super().value_bits(expr)

    def _require_bits(self, bits: int, expr: ast.Expr) -> None:
        pass  # any width fits in limbs

    def limbs_of(self, expr: ast.Expr) -> int:
        return limbs_for(self.value_bits(expr))

    # -- family overlay hooks -------------------------------------------------

    def _lift_result(self, value, lanes: int):
        arr = np.asarray(value)
        if arr.shape[-1] == lanes:
            return arr
        return np.broadcast_to(arr, (arr.shape[0], lanes))

    def _overlay(self, mask: np.ndarray, variant_value, golden_value, lanes: int):
        variant = self._lift_result(variant_value, lanes)
        golden = np.asarray(golden_value)
        k = max(variant.shape[0], golden.shape[0])
        return np.where(mask, _align(variant, k), _align(golden, k))

    # -- compilation ----------------------------------------------------------

    def _build(self, expr: ast.Expr) -> VecKernel:
        if not (expr.signals() & self._signal_names):
            try:
                value = self._interp.eval(expr, {})
            except EvalError as exc:
                raise UnsupportedForVectorization(str(exc)) from exc
            const = const_limbs(value)
            return lambda cols: const

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
            width = msb - lsb + 1
            return lambda cols: _mask_limbs(_shr_const(base(cols), lsb), width)
        if isinstance(expr, ast.Unary):
            return self._build_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._build_binary(expr)
        if isinstance(expr, ast.Ternary):
            cond = self.compile(expr.cond)
            then = self.compile(expr.then)
            otherwise = self.compile(expr.otherwise)
            k = self.limbs_of(expr)

            def ternary(cols: Cols) -> np.ndarray:
                c = _any_nonzero(cond(cols))
                return np.where(c, _align(then(cols), k), _align(otherwise(cols), k))

            return ternary
        if isinstance(expr, ast.Concat):
            parts = [(self.compile(p), self.width_of(p)) for p in expr.parts]
            total = sum(width for _, width in parts)
            shifts = []
            offset = total
            for kernel, width in parts:
                offset -= width
                shifts.append((kernel, offset, width))
            shifts_t = tuple(shifts)
            k = limbs_for(total)

            def concat(cols: Cols) -> np.ndarray:
                value = np.zeros((k, 1), dtype=np.int64)
                for kernel, shift, width in shifts_t:
                    part = _mask_limbs(kernel(cols), width)
                    value = value | _shl_const(part, shift, total)
                return value

            return concat
        if isinstance(expr, ast.Replicate):
            count = self._interp.const_value(expr.count)
            width = self.width_of(expr.value)
            chunk = self.compile(expr.value)
            total = max(width * count, 1)
            k = limbs_for(total)

            def replicate(cols: Cols) -> np.ndarray:
                piece = _mask_limbs(chunk(cols), width)
                value = np.zeros((k, 1), dtype=np.int64)
                for c in range(count):
                    value = value | _shl_const(piece, c * width, total)
                return value

            return replicate
        raise UnsupportedForVectorization(f"cannot limb-lower {expr!r}")

    def _build_bit_select(self, expr: ast.BitSelect) -> VecKernel:
        base = self.compile(expr.base)
        base_limbs = self.limbs_of(expr.base)
        if not (expr.index.signals() & self._signal_names):
            index = self._interp.eval(expr.index, {})
            if index < 0:
                raise EvalError(f"negative bit index {index}")
            limb, bit = divmod(index, LIMB_BITS)

            def bit_select_const(cols: Cols) -> np.ndarray:
                return _bool_row((_row(base(cols), limb) >> bit) & 1)

            return bit_select_const
        index_k = self.compile(expr.index)
        limit = base_limbs * LIMB_BITS

        def bit_select(cols: Cols) -> np.ndarray:
            value = base(cols)
            idx = _collapse_amount(index_k(cols), limit)
            n = max(len(idx), value.shape[1])
            al = _lanes_of(value, n)
            if len(idx) != n:
                idx = np.broadcast_to(idx, (n,))
            sel = _gather(al, (idx >> 5)[None, :])[0]
            return _bool_row((sel >> (idx & 31)) & 1)

        return bit_select

    def _build_unary(self, expr: ast.Unary) -> VecKernel:
        operand = self.compile(expr.operand)
        width = self.width_of(expr.operand)
        op = expr.op
        if op == "~":
            k = limbs_for(width)

            def inv(cols: Cols) -> np.ndarray:
                a = operand(cols)
                rows = [(~_row(a, i)) & LIMB_MASK for i in range(k)]
                return _mask_limbs(_stack(rows), width)

            return inv
        if op == "!":
            return lambda cols: _bool_row(~_any_nonzero(operand(cols)))
        if op == "-":
            k = limbs_for(width)
            zero = np.zeros((1, 1), dtype=np.int64)
            return lambda cols: _mask_limbs(
                _ripple_sub(zero, operand(cols), k), width
            )
        if op == "&":
            mask_l = const_limbs((1 << width) - 1)
            return lambda cols: _bool_row(_eq_all(operand(cols), mask_l))
        if op == "|":
            return lambda cols: _bool_row(_any_nonzero(operand(cols)))
        if op == "^":
            if not hasattr(np, "bitwise_count"):
                raise UnsupportedForVectorization(
                    "reduction '^' needs numpy>=2.0 (np.bitwise_count)"
                )

            def parity(cols: Cols) -> np.ndarray:
                a = operand(cols)
                total = np.bitwise_count(np.asarray(a[0], dtype=np.int64)).astype(
                    np.int64
                )
                for i in range(1, a.shape[0]):
                    total = total + np.bitwise_count(
                        np.asarray(a[i], dtype=np.int64)
                    ).astype(np.int64)
                return _bool_row(total & 1)

            return parity
        raise UnsupportedForVectorization(f"unsupported unary operator {op!r}")

    def _build_binary(self, expr: ast.Binary) -> VecKernel:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "&&":
            return lambda cols: _bool_row(
                _any_nonzero(left(cols)) & _any_nonzero(right(cols))
            )
        if op == "||":
            return lambda cols: _bool_row(
                _any_nonzero(left(cols)) | _any_nonzero(right(cols))
            )
        width = max(self.width_of(expr.left), self.width_of(expr.right))
        if op in ("+", "-"):
            m = width + 1
            k = limbs_for(m)
            ripple = _ripple_add if op == "+" else _ripple_sub
            return lambda cols: _mask_limbs(ripple(left(cols), right(cols), k), m)
        if op == "*":
            out_bits = 2 * width
            return lambda cols: _mul(left(cols), right(cols), out_bits)
        if op in ("/", "%"):
            return self._build_divmod(expr, left, right, width, op)
        if op == "**":
            return self._build_power(expr, left, right, width)
        if op in ("&", "|", "^"):
            fn = {"&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor}[op]
            k = self.limbs_of(expr)
            return lambda cols: fn(_align(left(cols), k), _align(right(cols), k))
        if op in ("==", "==="):
            return lambda cols: _bool_row(_eq_all(left(cols), right(cols)))
        if op in ("!=", "!=="):
            return lambda cols: _bool_row(
                ~np.asarray(_eq_all(left(cols), right(cols)))
            )
        if op in ("<", "<=", ">", ">="):

            def compare(cols: Cols) -> np.ndarray:
                lt, gt = _cmp_masks(left(cols), right(cols))
                if op == "<":
                    return _bool_row(lt)
                if op == "<=":
                    return _bool_row(~gt)
                if op == ">":
                    return _bool_row(gt)
                return _bool_row(~lt)

            return compare
        if op in ("<<", "<<<", ">>", ">>>"):
            out_bits = self.width_of(expr.left)
            shift_left = op in ("<<", "<<<")
            if not (expr.right.signals() & self._signal_names):
                amount = self._interp.eval(expr.right, {})
                if shift_left:
                    return lambda cols: _shl_const(left(cols), amount, out_bits)
                return lambda cols: _mask_limbs(
                    _shr_const(left(cols), amount), out_bits
                )

            def shift(cols: Cols) -> np.ndarray:
                value = left(cols)
                amount = _collapse_amount(right(cols), _SHIFT_CLAMP)
                n = max(len(amount), value.shape[1])
                if len(amount) != n:
                    amount = np.broadcast_to(amount, (n,))
                if shift_left:
                    return _shl_dyn(value, amount, out_bits)
                return _shr_dyn(value, amount, out_bits)

            return shift
        raise UnsupportedForVectorization(f"unsupported binary operator {op!r}")

    def _build_divmod(
        self, expr: ast.Binary, left: VecKernel, right: VecKernel, width: int, op: str
    ) -> VecKernel:
        mask_value = (1 << width) - 1
        out_k = limbs_for(width)
        if self.value_bits(expr.right) <= 31:
            # Short division: the remainder stays below the one-limb divisor,
            # so (rem << 32) | limb never leaves int64.
            div_mask = const_limbs(mask_value, out_k)

            def divmod_short(cols: Cols) -> np.ndarray:
                a = left(cols)
                r = np.atleast_1d(np.asarray(right(cols)[0]))
                n = max(a.shape[1], len(r))
                al = _lanes_of(a, n)
                if len(r) != n:
                    r = np.broadcast_to(r, (n,))
                zero = r == 0
                safe = np.where(zero, np.int64(1), r)
                rem = np.zeros(n, dtype=np.int64)
                qrows: List = [None] * al.shape[0]
                for i in range(al.shape[0] - 1, -1, -1):
                    cur = (rem << LIMB_BITS) | al[i]
                    q = cur // safe
                    rem = cur - q * safe
                    qrows[i] = q
                if op == "/":
                    out = _mask_limbs(_stack(qrows), width)
                    return np.where(zero, div_mask, _align(out, out_k))
                out = _align(_mask_limbs(_stack([rem]), width), out_k)
                return np.where(zero, _mask_limbs(al, width), out)

            return divmod_short

        # Wide divisors are rare: fall back to per-lane Python ints.
        if op == "/":

            def scalar_op(lv: int, rv: int) -> int:
                return mask_value if rv == 0 else (lv // rv) & mask_value

        else:

            def scalar_op(lv: int, rv: int) -> int:
                return lv & mask_value if rv == 0 else (lv % rv) & mask_value

        ufunc = np.frompyfunc(scalar_op, 2, 1)

        def divmod_object(cols: Cols) -> np.ndarray:
            lv = _to_object(left(cols))
            rv = _to_object(right(cols))
            result = np.atleast_1d(np.asarray(ufunc(lv, rv), dtype=object))
            return _from_object(result, out_k)

        return divmod_object

    def _build_power(
        self, expr: ast.Binary, left: VecKernel, right: VecKernel, width: int
    ) -> VecKernel:
        # Scalar semantics: pow(left, right, 1 << width); masking the base
        # first is sound because multiplication distributes over mod 2**w.
        out_k = limbs_for(width)
        one = _mask_limbs(const_limbs(1, out_k), width)  # x ** 0 is 0 at width 0
        if not (expr.right.signals() & self._signal_names):
            exponent = self._interp.eval(expr.right, {})

            def power_const(cols: Cols) -> np.ndarray:
                base = _mask_limbs(left(cols), width)
                result = one
                e = exponent
                while e:
                    if e & 1:
                        result = _mul(_align(result, out_k), base, width)
                    e >>= 1
                    if e:
                        base = _mul(base, base, width)
                return _align(result, out_k)

            return power_const
        exp_bits = self.value_bits(expr.right)

        def power(cols: Cols) -> np.ndarray:
            base = _mask_limbs(left(cols), width)
            earr = right(cols)
            result = one
            for i in range(exp_bits):
                limb, bit = divmod(i, LIMB_BITS)
                bitmask = np.asarray((_row(earr, limb) >> bit) & 1, dtype=bool)
                result = np.where(
                    bitmask,
                    _mul(_align(result, out_k), base, width),
                    _align(result, out_k),
                )
                if i + 1 < exp_bits:
                    base = _mul(base, base, width)
            return _align(np.asarray(result), out_k)

        return power


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------


class LimbStmtCompiler(VectorStmtCompiler):
    """Masked statement execution over limb columns.

    Control flow reuses the base scaffolding; only the value→mask hooks and
    the store kernels know about limbs.  Lane masks stay plain (lanes,)
    booleans, broadcasting over the (limbs, lanes) value arrays.
    """

    def _cond_mask(self, value, env: Cols):
        result = _any_nonzero(value)
        if result.size == 1 and result.ndim:
            return bool(result.reshape(-1)[0])
        return result

    def _eq_mask(self, label_value, subject_value, env: Cols):
        eq = np.asarray(_eq_all(label_value, subject_value))
        if eq.size == 1 and eq.ndim:
            return bool(eq.reshape(-1)[0])
        return eq

    def _lift(self, value, lanes: int):
        arr = np.asarray(value)
        if arr.shape[-1] == lanes:
            return arr
        return np.broadcast_to(arr, (arr.shape[0], lanes))

    def _build_store_kernel(self, target: ast.Expr) -> VecStoreKernel:
        if isinstance(target, ast.Identifier):
            name = target.name
            signal = self._model.signal(name)
            k = limbs_for(signal.width)
            smask = const_limbs(signal.mask, k)

            def store_ident(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                masked = _align(value, k) & smask
                if nb is None:
                    env[name] = masked if mask is None else np.where(mask, masked, env[name])
                else:
                    nb.write(name, masked, mask, lanes)

            return store_ident
        if isinstance(target, ast.BitSelect):
            name = self._target_name(target)
            signal = self._model.signal(name)
            k = limbs_for(signal.width)
            smask = const_limbs(signal.mask, k)
            limit = k * LIMB_BITS
            if not (target.index.signals() & self._exprs._signal_names):
                idx_c = min(self._exprs._interp.eval(target.index, {}), limit)
                # Only one limb row changes; stores beyond the signal mask
                # (or the clamp) degenerate to a masked rewrite of ``current``.
                bit_li, bit_off = divmod(idx_c, LIMB_BITS)
                bit_i = (
                    (1 << bit_off) & int(smask[bit_li, 0]) if idx_c < limit else 0
                )

                def store_bit_const(
                    value: np.ndarray,
                    env: Cols,
                    nb: Optional[_NbSink],
                    mask: Mask,
                    lanes: int,
                ) -> None:
                    current = env[name] if nb is None else nb.current(name, lanes)
                    updated = current & smask
                    if bit_i:
                        set_bit = np.asarray(value[0] & 1, dtype=bool)
                        if updated.shape[1] == 1 and set_bit.size > 1:
                            updated = np.broadcast_to(
                                updated, (k, set_bit.size)
                            ).copy()
                        row = updated[bit_li]
                        updated[bit_li] = np.where(
                            set_bit, row | bit_i, row & ~bit_i
                        )
                    if nb is None:
                        env[name] = (
                            updated if mask is None else np.where(mask, updated, env[name])
                        )
                    else:
                        nb.write(name, updated, mask, lanes)

                return store_bit_const
            index_k = self._exprs.compile(target.index)
            rows = np.arange(k, dtype=np.int64)[:, None]

            def store_bit(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                idx = _collapse_amount(index_k(env), limit)
                if len(idx) != lanes:
                    idx = np.broadcast_to(idx, (lanes,))
                # An index at the clamp selects limb k: no row matches, so
                # out-of-range stores vanish exactly like the scalar backend.
                bit_word = np.where(
                    rows == (idx >> 5)[None, :],
                    np.int64(1) << (idx & 31)[None, :],
                    np.int64(0),
                )
                set_bit = np.asarray(value[0] & 1, dtype=bool)
                current = env[name] if nb is None else nb.current(name, lanes)
                updated = np.where(set_bit, current | bit_word, current & ~bit_word) & smask
                if nb is None:
                    env[name] = updated if mask is None else np.where(mask, updated, env[name])
                else:
                    nb.write(name, updated, mask, lanes)

            return store_bit
        if isinstance(target, ast.PartSelect):
            name = self._target_name(target)
            signal = self._model.signal(name)
            k = limbs_for(signal.width)
            smask = const_limbs(signal.mask, k)
            limit = k * LIMB_BITS
            if not (
                (target.msb.signals() | target.lsb.signals())
                & self._exprs._signal_names
            ):
                msb_c = min(self._exprs._interp.eval(target.msb, {}), limit)
                lsb_c = min(self._exprs._interp.eval(target.lsb, {}), limit)
                lo_c, hi_c = min(msb_c, lsb_c), max(msb_c, lsb_c)
                field_int = (((1 << (hi_c + 1)) - 1) ^ ((1 << lo_c) - 1)) & (
                    (1 << limit) - 1
                )
                field_c = const_limbs(field_int, k)
                keep_c = smask & ~field_c
                # Most part-select stores touch one or two limb rows of a
                # wide target; precompute a per-affected-row plan instead of
                # materialising a full k-row shifted value every call.
                part_q, part_r = divmod(lo_c, LIMB_BITS)
                row_plan = []
                for i in range(k):
                    fm_i = int(field_c[i, 0]) & int(smask[i, 0])
                    if fm_i:
                        row_plan.append((i, i - part_q, fm_i))
                row_plan_t = tuple(row_plan)

                def store_part_const(
                    value: np.ndarray,
                    env: Cols,
                    nb: Optional[_NbSink],
                    mask: Mask,
                    lanes: int,
                ) -> None:
                    current = env[name] if nb is None else nb.current(name, lanes)
                    updated = current & keep_c
                    if updated.shape[1] == 1 and value.shape[1] > 1:
                        updated = np.broadcast_to(
                            updated, (k, value.shape[1])
                        ).copy()
                    for i, src, fm_i in row_plan_t:
                        if part_r:
                            row = (
                                (_row(value, src) << part_r) & LIMB_MASK
                            ) | (_row(value, src - 1) >> (LIMB_BITS - part_r))
                        else:
                            row = _row(value, src)
                        updated[i] = updated[i] | (row & fm_i)
                    if nb is None:
                        env[name] = (
                            updated if mask is None else np.where(mask, updated, env[name])
                        )
                    else:
                        nb.write(name, updated, mask, lanes)

                return store_part_const
            msb_k = self._exprs.compile(target.msb)
            lsb_k = self._exprs.compile(target.lsb)

            def store_part(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                msb = _collapse_amount(msb_k(env), limit)
                lsb = _collapse_amount(lsb_k(env), limit)
                if len(msb) != lanes:
                    msb = np.broadcast_to(msb, (lanes,))
                if len(lsb) != lanes:
                    lsb = np.broadcast_to(lsb, (lanes,))
                lo = np.minimum(msb, lsb)
                hi = np.maximum(msb, lsb)
                shifted = _shl_dyn(self._lift_part(value, lanes), lo, limit)
                field_rows = []
                for i in range(k):
                    lo_i = np.clip(lo - i * LIMB_BITS, 0, LIMB_BITS)
                    hi_i = np.clip(hi + 1 - i * LIMB_BITS, 0, LIMB_BITS)
                    field_rows.append(
                        ((np.int64(1) << hi_i) - 1) - ((np.int64(1) << lo_i) - 1)
                    )
                field = _stack(field_rows)
                current = env[name] if nb is None else nb.current(name, lanes)
                updated = ((current & ~field) | (shifted & field)) & smask
                if nb is None:
                    env[name] = updated if mask is None else np.where(mask, updated, env[name])
                else:
                    nb.write(name, updated, mask, lanes)

            return store_part
        if isinstance(target, ast.Concat):
            parts = []
            offset = sum(self._exprs.width_of(part) for part in target.parts)
            for part in target.parts:
                width = self._exprs.width_of(part)
                offset -= width
                parts.append((self._build_store_kernel(part), offset, width))
            parts_t = tuple(parts)

            def store_concat(
                value: np.ndarray, env: Cols, nb: Optional[_NbSink], mask: Mask, lanes: int
            ) -> None:
                for store, shift, pwidth in parts_t:
                    part_value = _mask_limbs(_shr_const(value, shift), pwidth)
                    store(self._lift(part_value, lanes), env, nb, mask, lanes)

            return store_concat
        raise UnsupportedForVectorization(f"unsupported assignment target {target!r}")

    def _lift_part(self, value, lanes: int) -> np.ndarray:
        return self._lift(np.asarray(value), lanes)


# ---------------------------------------------------------------------------
# The kernels
# ---------------------------------------------------------------------------


class MultiLimbKernel(VectorKernel):
    """Vector kernel holding every signal as (limbs, lanes) int64 columns."""

    plan_name = "multilimb"

    def _check_widths(self, model: RtlModel) -> None:
        pass  # limbs hold any width

    def _make_expr_compiler(self, model: RtlModel) -> VectorExprCompiler:
        return LimbExprCompiler(model)

    def _make_stmt_compiler(
        self, model: RtlModel, exprs: VectorExprCompiler
    ) -> VectorStmtCompiler:
        return LimbStmtCompiler(model, exprs)

    # -- environments ---------------------------------------------------------

    def blank_env(self, lanes: int) -> Cols:
        return {
            name: np.zeros((limbs_for(signal.width), lanes), dtype=np.int64)
            for name, signal in self._model.signals.items()
        }

    def initial_env(self, lanes: int) -> Cols:
        cols = self.blank_env(lanes)
        for name, value in self._model.initial_values.items():
            signal = self._model.signals[name]
            k = limbs_for(signal.width)
            masked = value & signal.mask
            col = np.empty((k, lanes), dtype=np.int64)
            for i in range(k):
                col[i, :] = (masked >> (i * LIMB_BITS)) & LIMB_MASK
            cols[name] = col
        return cols

    def env_row(
        self, cols: Cols, lane: int, names: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        keys = names if names is not None else cols.keys()
        out: Dict[str, int] = {}
        for name in keys:
            arr = cols[name]
            if arr.ndim == 1:
                out[name] = int(arr[lane])
                continue
            value = 0
            for i in range(arr.shape[0]):
                value |= int(arr[i, lane]) << (i * LIMB_BITS)
            out[name] = value
        return out

    # -- representation hooks -------------------------------------------------

    def lift_state(self, name: str, column) -> np.ndarray:
        return self._lift_column(name, column, mask=None)

    def lift_input(self, name: str, column, lanes: int) -> np.ndarray:
        return self._lift_column(name, column, mask=self._model.signals[name].mask)

    def _lift_column(self, name: str, column, mask: Optional[int]) -> np.ndarray:
        signal = self._model.signals[name]
        k = limbs_for(signal.width)
        arr = np.asarray(column)
        if arr.ndim == 2:  # already in limb form
            out = _align(arr.astype(np.int64, copy=False), k)
            if mask is not None:
                out = out & const_limbs(mask, k)
            return out
        if arr.dtype == object or signal.width > 63:
            values = arr.astype(object)
            if mask is not None:
                values = values & mask
            return _from_object(values, k)
        values = arr.astype(np.int64)
        if mask is not None:
            values = values & np.int64(mask)
        rows = [
            (values >> np.int64(i * LIMB_BITS)) & np.int64(LIMB_MASK) for i in range(k)
        ]
        return np.stack(rows)

    def bool_lanes(self, value, lanes: int) -> np.ndarray:
        arr = np.asarray(value)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        result = _any_nonzero(arr)
        if result.shape[0] != lanes:
            result = np.broadcast_to(result, (lanes,))
        return result

    def column_values(self, env: Cols, name: str) -> List[int]:
        arr = env[name]
        if arr.ndim == 1:
            return arr.tolist()
        if arr.shape[0] == 1:
            return arr[0].tolist()
        return _to_object(arr).tolist()

    def _pack_next(self, next_cols: Cols, lanes: int) -> np.ndarray:
        # Only reachable when `packable`, i.e. every state register fits one
        # packed int64 lane (so at most two limbs per register).
        flat: Cols = {}
        for name in self.state_names:
            arr = next_cols[name]
            col = arr[0]
            for i in range(1, arr.shape[0]):
                col = col | (arr[i] << np.int64(i * LIMB_BITS))
            flat[name] = col
        return pack_columns(flat, self.state_names, self.state_widths, lanes)


class _LimbFamilyExprCompiler(_FamilyExprCompiler, LimbExprCompiler):
    """Family-overlay compilation on the limb representation.

    The MRO does all the work: patch interception from the family compiler,
    node lowering and overlay hooks from the limb compiler.
    """


class MultiLimbFamilyKernel(_FamilyMixin, MultiLimbKernel):
    """Family kernel for wide designs: limb columns plus per-lane member ids."""

    def _make_expr_compiler(self, model: RtlModel) -> VectorExprCompiler:
        return _LimbFamilyExprCompiler(model, self._patches, self._rejected_members)

