"""Dense transition table backing the vectorized obligation sweep.

For an exhaustively-checkable design the reachable state set is closed under
the step function, so the whole temporal search space of a batched FPV sweep
is described by two dense tables over (reachable state × input valuation):

* ``next_index[s, i]`` — the reachable-state index reached from state ``s``
  under input ``i`` (one clock), and
* one boolean truth matrix per distinct assertion proposition.

Both are produced by :func:`step_rows`, the one chunked
:meth:`~repro.sim.vector.VectorKernel.step_packed` loop over states × input
grid (with an optional member column for family kernels); the engine's
obligation runner then works on these arrays with no expression evaluation
or environment construction in its inner loop.  Witness environments
(counterexample cycles) are re-materialised on demand for the few
(state, input) pairs on a refuting path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hdl import ast
from ..sim.vector import UnsupportedForVectorization, VectorKernel, rows_per_call
from ..sim.eval import EvalError
from .transition import ReachabilityResult, TransitionSystem


class PackedStateIndex:
    """Map packed int64 state values to dense row indices (-1 = absent).

    Small state spaces (≤ 24 bits) use a direct-indexed array; larger ones a
    dict.  Shared by the transition table and the family sweep so the
    threshold and semantics cannot drift apart.
    """

    def __init__(self, packed_states: np.ndarray, state_bits: int):
        count = len(packed_states)
        if state_bits <= 24:
            lookup = np.full(1 << max(state_bits, 1), -1, dtype=np.int64)
            lookup[packed_states] = np.arange(count, dtype=np.int64)
            self._lookup: Optional[np.ndarray] = lookup
            self._lookup_dict: Optional[Dict[int, int]] = None
        else:
            self._lookup = None
            self._lookup_dict = {
                int(packed): index
                for index, packed in enumerate(packed_states.tolist())
            }

    def indices(self, packed: np.ndarray) -> np.ndarray:
        """Row indices of a packed-state array (vectorized where possible)."""
        if self._lookup is not None:
            return self._lookup[packed]
        lookup_dict = self._lookup_dict
        return np.fromiter(
            (lookup_dict.get(value, -1) for value in packed.tolist()),
            dtype=np.int64,
            count=len(packed),
        )


def can_lower(kernel, expr: ast.Expr) -> bool:
    """True when ``expr`` compiles to a vector kernel of ``kernel``."""
    try:
        kernel.exprs.compile(expr)
    except (UnsupportedForVectorization, EvalError):
        return False
    return True


def step_rows(
    kernel,
    packed_states: np.ndarray,
    packed_grid: np.ndarray,
    exprs: Sequence[ast.Expr],
    members: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Dict[ast.Expr, np.ndarray]]:
    """Next rows and truth rows of states over the whole input grid.

    Row ``k`` steps ``packed_states[k]`` under every input of
    ``packed_grid``, as family member ``members[k]`` when a member column is
    given (so one call can serve several members of a family kernel).
    Returns the (states × inputs) packed next-state rows and one boolean
    (states × inputs) matrix per expression.  Kernel calls hold at most
    :data:`~repro.sim.vector.LANE_BUDGET` lanes (whole rows); environments
    are discarded chunk by chunk.
    """
    count = len(packed_states)
    num_inputs = len(packed_grid)
    kernels = [(expr, kernel.exprs.compile(expr)) for expr in exprs]
    next_rows = np.empty((count, num_inputs), dtype=np.int64)
    truths = {expr: np.empty((count, num_inputs), dtype=bool) for expr in exprs}
    chunk_states = rows_per_call(num_inputs)
    for start in range(0, count, chunk_states):
        stop = min(start + chunk_states, count)
        lanes = (stop - start) * num_inputs
        env, nxt = kernel.step_packed(
            np.repeat(packed_states[start:stop], num_inputs),
            np.tile(packed_grid, stop - start),
            None if members is None else np.repeat(members[start:stop], num_inputs),
        )
        next_rows[start:stop] = nxt.reshape(-1, num_inputs)
        for expr, expr_kernel in kernels:
            values = kernel.bool_lanes(expr_kernel(env), lanes)
            truths[expr][start:stop] = values.reshape(-1, num_inputs)
    return next_rows, truths


class ObligationTable:
    """Dense (states × inputs) matrices over one design's step function.

    The one table view behind every exhaustive obligation: a standalone
    design's :class:`TransitionTable` (``member`` is ``None``) and a mutant
    riding a family sweep (:mod:`repro.fpv.incremental`, ``member`` is its
    family-kernel id) both step lanes through ``kernel.step_packed``, the
    latter with the member id as the member column.  Rows are the reachable
    states in reachability order (``packed_states``), columns the input
    grid.  The obligation runner in :mod:`repro.fpv.engine` only ever
    touches this interface, so a mutant's obligations run on exactly the
    same code path as a standalone design's.

    :meth:`ensure_terms` steps the whole table for any truth matrix (or the
    next-state index) not supplied up front, and :meth:`env_rows` re-steps
    the few lanes of a counterexample path.
    """

    def __init__(
        self,
        kernel,
        packed_states: np.ndarray,
        packed_grid: np.ndarray,
        signals: Sequence[str],
        member: Optional[int] = None,
    ) -> None:
        self._kernel = kernel
        self._member = member
        self._packed_states = packed_states
        self._packed_grid = packed_grid
        self._signals = list(signals)
        self._index = PackedStateIndex(packed_states, sum(kernel.state_widths))
        self.num_states = len(packed_states)
        self.num_inputs = len(packed_grid)
        self._next_index: Optional[np.ndarray] = None
        self._next_rows: Optional[List[List[int]]] = None
        self._truth: Dict[ast.Expr, np.ndarray] = {}
        self._truth_rows: Dict[ast.Expr, List[List[bool]]] = {}

    def _members(self, lanes: int) -> Optional[np.ndarray]:
        """The member column for ``lanes`` rows (``None`` for a plain design)."""
        if self._member is None:
            return None
        return np.full(lanes, self._member, dtype=np.int64)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_states, self.num_inputs)

    def can_lower(self, expr: ast.Expr) -> bool:
        """True when ``expr`` compiles to a vector kernel."""
        return can_lower(self._kernel, expr)

    def truth(self, expr: ast.Expr) -> np.ndarray:
        """Boolean (states × inputs) truth matrix for a lowered term."""
        return self._truth[expr]

    def truth_rows(self, expr: ast.Expr) -> List[List[bool]]:
        """`truth` as nested Python lists (fast scalar indexing in sweeps)."""
        rows = self._truth_rows.get(expr)
        if rows is None:
            rows = self._truth[expr].tolist()
            self._truth_rows[expr] = rows
        return rows

    def next_rows(self) -> List[List[int]]:
        """Next-state indices as nested Python lists."""
        if self._next_rows is None:
            self._next_rows = self._next_index.tolist()
        return self._next_rows

    def _set_next_packed(self, next_packed: np.ndarray) -> None:
        """Adopt a (states × inputs) packed next-state table as row indices."""
        indices = self._index.indices(next_packed.ravel())
        if (indices < 0).any():
            # A complete reachable set is closed under step; a miss means the
            # caller handed us a truncated reachability result.
            raise ValueError("transition leaves the supplied reachable set")
        self._next_index = indices.reshape(self.shape)

    # -- table construction -----------------------------------------------------

    def ensure_terms(self, exprs: Iterable[ast.Expr]) -> None:
        """Materialise truth matrices for any not-yet-computed terms.

        One :func:`step_rows` sweep over (states × inputs) serves every
        missing term.  The next-state index table is filled on the first
        call.
        """
        missing = [expr for expr in dict.fromkeys(exprs) if expr not in self._truth]
        if not missing and self._next_index is not None:
            return
        next_packed, truths = step_rows(
            self._kernel,
            self._packed_states,
            self._packed_grid,
            missing,
            self._members(self.num_states),
        )
        self._truth.update(truths)
        if self._next_index is None:
            self._set_next_packed(next_packed)

    # -- witness materialisation ------------------------------------------------

    def env_rows(
        self,
        pairs: Sequence[Tuple[int, int]],
        names: Optional[Iterable[str]] = None,
    ) -> List[Dict[str, int]]:
        """Settled environments for specific (state index, input index) pairs.

        Used to rebuild counterexample cycles; the batch is tiny (one lane
        per path node).
        """
        states = self._packed_states[[s for s, _ in pairs]]
        inputs = self._packed_grid[[i for _, i in pairs]]
        env, _ = self._kernel.step_packed(states, inputs, self._members(len(pairs)))
        keys = list(names) if names is not None else self._signals
        return [self._kernel.env_row(env, lane, keys) for lane in range(len(pairs))]


class TransitionTable(ObligationTable):
    """Reachable-state × input-grid view of one design's transition system."""

    def __init__(
        self,
        system: TransitionSystem,
        kernel: VectorKernel,
        reachability: ReachabilityResult,
    ):
        super().__init__(
            kernel,
            np.asarray(
                [kernel.pack_state(state) for state in reachability.states],
                dtype=np.int64,
            ),
            kernel.pack_input_grid(system.input_grid),
            system.model.signals,
        )
