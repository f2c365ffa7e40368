"""Assertion ranking (figure-of-merit), after Pal et al. (reference [14]).

Automatically mined assertion sets are large and redundant; ranking orders
them by how much subtle design behaviour they capture so that downstream
consumers (the ICE construction in :mod:`repro.bench.icl`, and the paper's
"2 to 10 assertions per design, average 4.8") can keep a small, high-value
subset.

The figure of merit combines:

* **trigger coverage** — fraction of trace cycles on which the antecedent
  matches (assertions that almost never trigger explain little),
* **state involvement** — how many state registers the assertion mentions
  (model-level behaviour rather than pure input/output relations),
* **temporal depth** — sequential assertions rank above purely combinational
  ones of equal coverage,
* **antecedent complexity penalty** — shorter antecedents generalise better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..fpv.trace_check import TraceChecker
from ..hdl.design import Design
from ..sim.trace import Trace
from ..sva.checker import referenced_state_signals
from ..sva.model import Assertion


@dataclass
class RankedAssertion:
    """An assertion together with its figure-of-merit breakdown."""

    assertion: Assertion
    score: float
    coverage: float
    state_involvement: int
    temporal_depth: int
    antecedent_size: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankedAssertion(score={self.score:.3f}, {self.assertion.body_text()})"


@dataclass
class RankingWeights:
    """Relative weights of the figure-of-merit components."""

    coverage: float = 0.45
    state_involvement: float = 0.30
    temporal_depth: float = 0.15
    simplicity: float = 0.10


class AssertionRanker:
    """Rank assertions for one design using a simulation trace."""

    def __init__(
        self,
        design: Design,
        weights: Optional[RankingWeights] = None,
        checker: Optional[TraceChecker] = None,
    ):
        self._design = design
        self._weights = weights or RankingWeights()
        self._checker = checker or TraceChecker(design.model)

    def rank(self, assertions: Sequence[Assertion], trace: Trace) -> List[RankedAssertion]:
        """Return assertions sorted by descending figure of merit."""
        ranked = [self._score(assertion, trace) for assertion in assertions]
        ranked.sort(key=lambda item: -item.score)
        return ranked

    def top(
        self, assertions: Sequence[Assertion], trace: Trace, count: int
    ) -> List[Assertion]:
        """Return the ``count`` best assertions."""
        return [item.assertion for item in self.rank(assertions, trace)[:count]]

    # -- scoring -------------------------------------------------------------------

    def _score(self, assertion: Assertion, trace: Trace) -> RankedAssertion:
        result = self._checker.check(assertion, trace)
        coverage = result.triggers / result.attempts if result.attempts else 0.0
        state_involvement = len(referenced_state_signals(assertion, self._design))
        depth = assertion.temporal_depth
        antecedent_size = len(assertion.antecedent)

        max_state = max(len(self._design.model.state_regs), 1)
        weights = self._weights
        score = (
            weights.coverage * _coverage_utility(coverage)
            + weights.state_involvement * min(state_involvement / max_state, 1.0)
            + weights.temporal_depth * min(depth / 2.0, 1.0)
            + weights.simplicity * (1.0 / antecedent_size if antecedent_size else 0.0)
        )
        return RankedAssertion(
            assertion=assertion,
            score=score,
            coverage=coverage,
            state_involvement=state_involvement,
            temporal_depth=depth,
            antecedent_size=antecedent_size,
        )


def _coverage_utility(coverage: float) -> float:
    """Diminishing-returns utility: trivially-always-triggering assertions
    (coverage 1.0, e.g. tautological antecedents) are worth less than ones
    that trigger on a meaningful but selective fraction of cycles."""
    if coverage <= 0.0:
        return 0.0
    if coverage >= 0.98:
        return 0.55
    if coverage >= 0.5:
        return 0.85
    return min(1.0, coverage * 2.0)
