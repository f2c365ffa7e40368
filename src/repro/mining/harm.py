"""HARM-style template (hint) based assertion mining.

HARM (Germiniani & Pravadelli, reference [13] of the paper) mines temporal
assertions by instantiating a library of assertion templates over the design
signals and keeping the instantiations that hold on simulation traces with
sufficient support.  We implement the template classes the paper's restricted
SVA subset can express:

* invariants              ``(1) |-> (t == v)``
* single-antecedent       ``(a == va) |-> (t == vt)``
* pair-antecedent         ``(a == va) && (b == vb) |-> (t == vt)``
* next-cycle (registered) ``(a == va) |=> (t == vt)``
* two-cycle sequences     ``(a == va) ##1 (b == vb) |-> (t == vt)``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis import coi_features
from ..hdl import ast
from ..hdl.design import Design
from ..fpv.trace_check import TraceChecker
from ..sim.trace import Trace
from ..sva.model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm
from .dataset import Atom, mining_targets, trace_atoms


@dataclass
class HarmConfig:
    """Hyper-parameters of the template miner."""

    min_support: int = 4
    max_antecedent_signals: int = 2
    max_feature_atoms: int = 24
    max_assertions_per_target: int = 8
    mine_invariants: bool = True
    mine_next_cycle: bool = True
    mine_sequences: bool = True
    #: Explain at most this many target signals (outputs first).
    max_targets: int = 12


class HarmMiner:
    """Instantiate assertion templates and filter them on a trace."""

    def __init__(
        self,
        design: Design,
        config: Optional[HarmConfig] = None,
        checker: Optional[TraceChecker] = None,
    ):
        self._design = design
        self._config = config or HarmConfig()
        self._checker = checker or TraceChecker(design.model)

    def mine(self, trace: Trace) -> List[Assertion]:
        """Return candidate assertions that hold on ``trace`` with support."""
        clock = self._design.model.clocks[0] if self._design.model.clocks else None
        assertions: List[Assertion] = []
        for target_signal in mining_targets(self._design)[: self._config.max_targets]:
            target_atoms = trace_atoms(self._design, target_signal, trace)
            features = self._feature_atoms(target_signal, trace)
            per_target: List[Assertion] = []
            for target in target_atoms:
                per_target.extend(
                    self._mine_for_target(target, features, trace, clock)
                )
                if len(per_target) >= self._config.max_assertions_per_target:
                    break
            assertions.extend(per_target[: self._config.max_assertions_per_target])
        return assertions

    # -- template instantiation ------------------------------------------------------

    def _feature_atoms(self, target_signal: str, trace: Trace) -> List[Atom]:
        features: List[Atom] = []
        for name in coi_features(self._design, target_signal):
            features.extend(trace_atoms(self._design, name, trace))
            if len(features) >= self._config.max_feature_atoms:
                break
        return features[: self._config.max_feature_atoms]

    def _mine_for_target(
        self,
        target: Atom,
        features: Sequence[Atom],
        trace: Trace,
        clock: Optional[str],
    ) -> List[Assertion]:
        found: List[Assertion] = []

        if self._config.mine_invariants:
            invariant = Assertion(
                antecedent=[SequenceTerm(0, ast.Number(1))],
                consequent=[SequenceTerm(0, target.expr())],
                implication=OVERLAPPED,
                clock=clock,
                source_text="harm:invariant",
            )
            if self._supported(invariant, trace):
                found.append(invariant)

        for atom in features:
            candidate = self._single(atom, target, clock, OVERLAPPED)
            if self._supported(candidate, trace):
                found.append(candidate)
            if self._config.mine_next_cycle:
                delayed = self._single(atom, target, clock, NON_OVERLAPPED)
                if self._supported(delayed, trace):
                    found.append(delayed)

        if self._config.max_antecedent_signals >= 2:
            for first, second in itertools.combinations(features, 2):
                if first.signal == second.signal:
                    continue
                candidate = Assertion(
                    antecedent=[
                        SequenceTerm(0, first.expr()),
                        SequenceTerm(0, second.expr()),
                    ],
                    consequent=[SequenceTerm(0, target.expr())],
                    implication=OVERLAPPED,
                    clock=clock,
                    source_text="harm:pair",
                )
                if self._supported(candidate, trace):
                    found.append(candidate)
                if self._config.mine_sequences:
                    sequence = Assertion(
                        antecedent=[
                            SequenceTerm(0, first.expr()),
                            SequenceTerm(1, second.expr()),
                        ],
                        consequent=[SequenceTerm(0, target.expr())],
                        implication=OVERLAPPED,
                        clock=clock,
                        source_text="harm:sequence",
                    )
                    if self._supported(sequence, trace):
                        found.append(sequence)
                if len(found) >= self._config.max_assertions_per_target * 2:
                    break
        return found

    def _single(
        self, atom: Atom, target: Atom, clock: Optional[str], implication: str
    ) -> Assertion:
        return Assertion(
            antecedent=[SequenceTerm(0, atom.expr())],
            consequent=[SequenceTerm(0, target.expr())],
            implication=implication,
            clock=clock,
            source_text="harm:single",
        )

    def _supported(self, assertion: Assertion, trace: Trace) -> bool:
        """A candidate survives if it holds on the trace with enough triggers."""
        result = self._checker.check(assertion, trace)
        return result.holds and result.triggers >= self._config.min_support
