"""The :class:`Design` wrapper: source text + parsed module + elaborated RTL.

A ``Design`` is the unit the rest of the system operates on: the benchmark
corpus is a collection of designs, assertions are bound against a design's
signals, the simulator and FPV engine run over a design's elaborated model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from .ast import Module
from .elaborate import RtlModel, elaborate
from .metrics import SourceMetrics, analyze_source
from .parser import parse_source


def source_fingerprint(source: str) -> str:
    """Stable content hash of design source text: the identity that run
    stores, verdict and reachability caches, and mutation records key on."""
    return hashlib.sha256(source.encode()).hexdigest()[:16]


@dataclass
class Design:
    """A hardware design under evaluation."""

    name: str
    source: str
    module: Module
    model: RtlModel
    design_type: str = "sequential"  # 'sequential' | 'combinational'
    functionality: str = ""
    category: str = ""
    metrics: Optional[SourceMetrics] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        source: str,
        name: Optional[str] = None,
        functionality: str = "",
        category: str = "",
        parameter_overrides: Optional[Dict[str, int]] = None,
    ) -> "Design":
        """Parse and elaborate Verilog source text into a Design."""
        source_file = parse_source(source)
        module = source_file.module()
        model = elaborate(module, parameter_overrides)
        design_type = "sequential" if model.is_sequential else "combinational"
        return cls(
            name=name or module.name,
            source=source,
            module=module,
            model=model,
            design_type=design_type,
            functionality=functionality,
            category=category,
            metrics=analyze_source(source),
        )

    @property
    def loc(self) -> int:
        """Lines of code excluding blanks and comments (cloc-style)."""
        if self.metrics is None:
            self.metrics = analyze_source(self.source)
        return self.metrics.code_lines

    @property
    def fingerprint(self) -> str:
        """:func:`source_fingerprint` of this design's source."""
        return source_fingerprint(self.source)

    @property
    def is_sequential(self) -> bool:
        return self.model.is_sequential

    @property
    def signal_names(self):
        return list(self.model.signals)

    def describe(self) -> str:
        """One-line human-readable summary (used by reports and Table I)."""
        return (
            f"{self.name}: {self.loc} LoC, {self.design_type}, "
            f"{len(self.model.inputs)} inputs, {len(self.model.outputs)} outputs, "
            f"{self.model.state_bits} state bits"
        )
