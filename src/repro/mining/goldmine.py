"""GoldMine-style assertion mining: decision-tree induction over traces.

GoldMine (Vasudevan et al.; reference [11] of the paper) mines candidate
assertions by learning a decision tree that predicts a target proposition
from other design signals observed in simulation, guided by lightweight
static analysis (the cone of influence restricts the feature set).  Every
root-to-leaf path ending in a pure leaf becomes a candidate assertion whose
antecedent is the conjunction of decisions along the path.  Candidates are
then discharged on the FPV engine; only proven ones survive.

The tree grows on cycle bitmasks rather than on a table of rows.  Each atom
(the target and every cone feature) is one column from the
:class:`~repro.fpv.trace_check.TraceChecker` that HARM and the ranker share:
bit ``c`` is set when the atom holds at cycle ``c``.  A tree node is the
bitmask of the cycles that reach it; a split is an AND with a feature
column, and supports and positive counts are ``int.bit_count()``.  A
next-cycle (``|=>``) target is the label column shifted down by one cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis import coi_features
from ..fpv.trace_check import TraceChecker
from ..hdl.design import Design
from ..sim.trace import Trace
from ..sva.model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm
from .dataset import Atom, mining_targets, trace_atoms


@dataclass
class GoldMineConfig:
    """Hyper-parameters of the decision-tree miner."""

    max_depth: int = 3
    min_leaf_support: int = 4
    min_purity: float = 1.0
    max_assertions_per_target: int = 6
    mine_next_cycle: bool = True
    #: Explain at most this many target signals (outputs first).
    max_targets: int = 12


@dataclass
class _TreeNode:
    atom: Optional[Atom] = None
    true_branch: Optional["_TreeNode"] = None
    false_branch: Optional["_TreeNode"] = None
    label: Optional[bool] = None
    support: int = 0
    purity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.atom is None


class GoldMineMiner:
    """Mine candidate assertions for one design from a simulation trace.

    ``checker`` supplies the atom columns; pass the one HARM and the ranker
    use so the three share one column store per trace.
    """

    def __init__(
        self,
        design: Design,
        config: Optional[GoldMineConfig] = None,
        checker: Optional[TraceChecker] = None,
    ):
        self._design = design
        self._config = config or GoldMineConfig()
        self._checker = checker or TraceChecker(design.model)

    def mine(self, trace: Trace) -> List[Assertion]:
        """Return candidate assertions mined from ``trace`` (unverified)."""
        assertions: List[Assertion] = []
        model = self._design.model
        clock = model.clocks[0] if model.clocks else None
        cycles = trace.num_cycles
        for target_signal in mining_targets(self._design)[: self._config.max_targets]:
            targets = trace_atoms(self._design, target_signal, trace)
            features = [
                (atom, self._checker.column(atom.expr(), trace))
                for name in coi_features(self._design, target_signal)
                for atom in trace_atoms(self._design, name, trace)
            ]
            if not features:
                continue
            delays = (0,)
            if self._config.mine_next_cycle and model.signals[target_signal].is_state:
                delays = (0, 1)
            for target in targets:
                label = self._checker.column(target.expr(), trace)
                for delay in delays:
                    for atoms in self._mine_target(features, label >> delay, cycles - delay):
                        assertions.append(self._to_assertion(atoms, target, clock, delay))
        return assertions

    # -- per-target mining -------------------------------------------------------

    def _mine_target(
        self, features: Sequence[Tuple[Atom, int]], label: int, rows: int
    ) -> List[List[Atom]]:
        """Antecedents explaining ``label`` over the first ``rows`` cycles."""
        if rows < max(self._config.min_leaf_support, 1):
            return []
        mask = (1 << rows) - 1
        positives = (label & mask).bit_count()
        if positives == 0 or positives == rows:
            # The target is constant in the trace; a decision tree would learn
            # nothing beyond the trivial invariant, which HARM-style templates
            # already cover.
            return []
        tree = self._grow(features, label, mask, depth=0)
        paths = self._paths_to_true_leaves(tree, [])
        paths.sort(key=lambda item: (-item[1], len(item[0])))
        return [atoms for atoms, _support in paths[: self._config.max_assertions_per_target]]

    def _grow(
        self, features: Sequence[Tuple[Atom, int]], label: int, rows: int, depth: int
    ) -> _TreeNode:
        """Grow the subtree over the cycles set in the ``rows`` bitmask."""
        support = rows.bit_count()
        positives = (rows & label).bit_count()
        purity = max(positives, support - positives) / support if support else 0.0
        majority = positives * 2 >= support

        if (
            depth >= self._config.max_depth
            or support < self._config.min_leaf_support
            or purity >= self._config.min_purity
        ):
            return _TreeNode(label=majority, support=support, purity=purity)

        split = self._best_split(features, label, rows, support, positives)
        if split is None:
            return _TreeNode(label=majority, support=support, purity=purity)
        atom, column = split
        node = _TreeNode(atom=atom, support=support, purity=purity)
        node.true_branch = self._grow(features, label, rows & column, depth + 1)
        node.false_branch = self._grow(features, label, rows & ~column, depth + 1)
        return node

    def _best_split(
        self,
        features: Sequence[Tuple[Atom, int]],
        label: int,
        rows: int,
        support: int,
        positives: int,
    ) -> Optional[Tuple[Atom, int]]:
        """The highest-gain feature; the first one wins a tie.

        A feature split on higher up is constant over ``rows``, so it fails
        the two-sided test below and is never chosen twice on one path.
        """
        base_entropy = _entropy(positives, support)
        best_gain = 1e-9
        best: Optional[Tuple[Atom, int]] = None
        for feature in features:
            true_rows = rows & feature[1]
            true_total = true_rows.bit_count()
            false_total = support - true_total
            if not true_total or not false_total:
                continue
            true_positives = (true_rows & label).bit_count()
            gain = base_entropy - (
                true_total / support * _entropy(true_positives, true_total)
                + false_total / support * _entropy(positives - true_positives, false_total)
            )
            if gain > best_gain:
                best_gain = gain
                best = feature
        return best

    def _paths_to_true_leaves(
        self, node: _TreeNode, path: List[Atom]
    ) -> List[Tuple[List[Atom], int]]:
        if node.is_leaf:
            if (
                node.label
                and path
                and node.purity >= self._config.min_purity
                and node.support >= self._config.min_leaf_support
            ):
                return [(list(path), node.support)]
            return []
        results = self._paths_to_true_leaves(node.true_branch, path + [node.atom])
        negated = _negate(node.atom)
        if negated is not None:
            results.extend(self._paths_to_true_leaves(node.false_branch, path + [negated]))
        return results

    def _to_assertion(
        self, atoms: Sequence[Atom], target: Atom, clock: Optional[str], delay: int
    ) -> Assertion:
        antecedent = [SequenceTerm(0, atom.expr()) for atom in atoms]
        consequent = [SequenceTerm(0, target.expr())]
        implication = NON_OVERLAPPED if delay else OVERLAPPED
        return Assertion(
            antecedent=antecedent,
            consequent=consequent,
            implication=implication,
            clock=clock,
            name="",
            source_text="goldmine",
        )


def _entropy(positives: int, total: int) -> float:
    """Binary entropy of ``positives`` true labels among ``total``."""
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in (positives, total - positives):
        if count == 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _negate(atom: Atom) -> Optional[Atom]:
    """Negate a boolean atom (only single-bit / binary-valued atoms)."""
    if atom.bit is not None or atom.value in (0, 1):
        return Atom(atom.signal, 1 - atom.value if atom.value in (0, 1) else 0, bit=atom.bit)
    return None
