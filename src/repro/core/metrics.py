"""Evaluation metrics (paper Section IV, "Metrics").

For every generated assertion the pipeline records which of the three
buckets it lands in after syntax correction and formal verification:

* ``Pass``  — the FPV engine attests the assertion (proven or vacuous),
* ``CEX``   — the FPV engine refutes it with a counterexample trace,
* ``Error`` — the assertion is syntactically/semantically un-elaboratable
  even after correction.

Metrics are reported as fractions of all generated assertions, aggregated
per model and per k-shot setting over the whole test-design set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..fpv.result import ProofResult

PASS = "pass"
CEX = "cex"
ERROR = "error"


def categorize(result: ProofResult) -> str:
    """Map a proof verdict onto the paper's three-bucket metric."""
    if result.status.is_error:
        return ERROR
    if result.status.is_fail:
        return CEX
    return PASS


@dataclass
class AssertionOutcome:
    """Everything recorded about one generated assertion."""

    design_name: str
    model_name: str
    k: int
    raw_text: str
    corrected_text: str
    category: str
    proof: Optional[ProofResult] = None
    correction_applied: bool = False

    @property
    def passed(self) -> bool:
        return self.category == PASS

    @property
    def failed(self) -> bool:
        return self.category == CEX


@dataclass
class MetricCounts:
    """Raw counts of the three buckets."""

    passed: int = 0
    cex: int = 0
    error: int = 0

    @property
    def total(self) -> int:
        return self.passed + self.cex + self.error

    def add(self, category: str, count: int = 1) -> None:
        if category == PASS:
            self.passed += count
        elif category == CEX:
            self.cex += count
        elif category == ERROR:
            self.error += count
        else:
            raise ValueError(f"unknown category {category!r}")

    def merge(self, other: "MetricCounts") -> None:
        self.passed += other.passed
        self.cex += other.cex
        self.error += other.error

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {PASS: 0.0, CEX: 0.0, ERROR: 0.0}
        return {
            PASS: self.passed / total,
            CEX: self.cex / total,
            ERROR: self.error / total,
        }


@dataclass
class DesignEvaluation:
    """Per-design accounting for one (model, k) configuration."""

    design_name: str
    outcomes: List[AssertionOutcome] = field(default_factory=list)

    @property
    def counts(self) -> MetricCounts:
        counts = MetricCounts()
        for outcome in self.outcomes:
            counts.add(outcome.category)
        return counts

    @property
    def num_generated(self) -> int:
        return len(self.outcomes)


@dataclass
class ModelKshotResult:
    """Aggregate result for one model at one k-shot setting (one Figure 6 bar group)."""

    model_name: str
    k: int
    designs: List[DesignEvaluation] = field(default_factory=list)

    @property
    def counts(self) -> MetricCounts:
        counts = MetricCounts()
        for design in self.designs:
            counts.merge(design.counts)
        return counts

    @property
    def accuracy(self) -> Dict[str, float]:
        """The Pass/CEX/Error fractions (the paper's "accuracy" bars)."""
        return self.counts.fractions()

    @property
    def pass_fraction(self) -> float:
        return self.accuracy[PASS]

    @property
    def cex_fraction(self) -> float:
        return self.accuracy[CEX]

    @property
    def error_fraction(self) -> float:
        return self.accuracy[ERROR]

    @property
    def num_assertions(self) -> int:
        return self.counts.total

    def outcomes(self) -> Iterable[AssertionOutcome]:
        for design in self.designs:
            yield from design.outcomes


@dataclass
class EvaluationMatrix:
    """All (model, k) results of one evaluation campaign."""

    results: Dict[str, Dict[int, ModelKshotResult]] = field(default_factory=dict)

    def add(self, result: ModelKshotResult) -> None:
        self.results.setdefault(result.model_name, {})[result.k] = result

    def get(self, model_name: str, k: int) -> ModelKshotResult:
        return self.results[model_name][k]

    @property
    def model_names(self) -> List[str]:
        return list(self.results)

    @property
    def k_values(self) -> List[int]:
        ks = set()
        for per_model in self.results.values():
            ks.update(per_model)
        return sorted(ks)
