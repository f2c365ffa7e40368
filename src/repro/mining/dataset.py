"""Atomic propositions for assertion mining.

Both miners (GoldMine-style and HARM-style) reason about *atoms*: equality
propositions over one design signal (``sig == value`` for small-domain
signals, ``sig[bit] == value`` for wide ones).  The atoms worth considering
are the values a signal actually takes in the simulation trace.  Neither
miner tabulates the trace row by row: an atom's truth over the trace is one
bitmask column (bit ``c`` set when the atom holds at cycle ``c``), taken from
the :class:`~repro.fpv.trace_check.TraceChecker` that GoldMine, HARM and the
ranker share, so each atom is evaluated once per trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hdl import ast
from ..hdl.design import Design
from ..sim.trace import Trace

#: Signals with at most this many distinct values get equality atoms per value.
_MAX_ENUM_VALUES = 8
#: Wide signals contribute at most this many per-bit atoms.
_MAX_BIT_ATOMS = 4


@dataclass(frozen=True)
class Atom:
    """An atomic proposition over one design signal."""

    signal: str
    value: int
    bit: Optional[int] = None

    def expr(self) -> ast.Expr:
        """Render the atom as a Verilog boolean expression."""
        if self.bit is None:
            return ast.Binary("==", ast.Identifier(self.signal), ast.Number(self.value))
        return ast.Binary(
            "==",
            ast.BitSelect(ast.Identifier(self.signal), ast.Number(self.bit)),
            ast.Number(self.value),
        )

    def __str__(self) -> str:
        return str(self.expr())


def candidate_atoms(design: Design, signal: str) -> List[Atom]:
    """Enumerate the equality atoms used as features/targets for one signal."""
    model = design.model
    width = model.signals[signal].width
    if width == 1:
        return [Atom(signal, 0), Atom(signal, 1)]
    domain = min(1 << width, _MAX_ENUM_VALUES)
    if (1 << width) <= _MAX_ENUM_VALUES:
        return [Atom(signal, value) for value in range(domain)]
    atoms = []
    for bit in range(min(width, _MAX_BIT_ATOMS)):
        atoms.append(Atom(signal, 0, bit=bit))
        atoms.append(Atom(signal, 1, bit=bit))
    return atoms


def trace_atoms(design: Design, signal: str, trace: Trace) -> List[Atom]:
    """Like :func:`candidate_atoms` but restricted to values seen in the trace."""
    model = design.model
    width = model.signals[signal].width
    observed = trace.distinct_values(signal)
    if width == 1 or len(observed) <= _MAX_ENUM_VALUES:
        return [Atom(signal, value) for value in observed]
    atoms = []
    for bit in range(min(width, _MAX_BIT_ATOMS)):
        atoms.append(Atom(signal, 0, bit=bit))
        atoms.append(Atom(signal, 1, bit=bit))
    return atoms


def mining_targets(design: Design) -> List[str]:
    """Signals worth explaining: primary outputs first, then state registers."""
    model = design.model
    targets = [name for name in model.outputs if name not in model.clocks]
    for name in model.state_regs:
        if name not in targets:
            targets.append(name)
    return targets
