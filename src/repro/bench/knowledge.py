"""Per-design knowledge base: formally verified assertions with caching.

Several consumers need "a small set of assertions known to hold on design D":
the ICE construction for k-shot prompts (Section III), the fine-tuning
dataset (Section VI), and the simulated LLMs' generation of semantically
valid candidates.  Mining and formally verifying assertions is the expensive
part, so this module computes the pool once per design and caches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fpv.engine import EngineConfig
from ..hdl.design import Design
from ..mining.goldmine import GoldMineConfig
from ..mining.harm import HarmConfig
from ..mining.miner import AssertionMiner, MinerConfig, MiningReport
from ..sva.model import Assertion


def _fast_miner_config() -> MinerConfig:
    """A mining configuration tuned for corpus-scale use.

    Shorter traces, smaller candidate fan-out, and a lighter FPV fallback keep
    per-design pool construction cheap even for the thousand-line designs.
    """
    return MinerConfig(
        trace_cycles=192,
        goldmine=GoldMineConfig(max_depth=2, max_assertions_per_target=3, max_targets=8),
        harm=HarmConfig(
            min_support=3,
            max_antecedent_signals=1,
            max_feature_atoms=10,
            max_assertions_per_target=4,
            mine_sequences=False,
            max_targets=8,
        ),
        engine=EngineConfig(
            max_states=2048,
            max_transitions=120_000,
            max_input_bits=10,
            max_path_evaluations=120_000,
            fallback_cycles=256,
            fallback_seeds=2,
        ),
        max_assertions=10,
    )


@dataclass
class DesignKnowledge:
    """Verified assertions and basic structural facts for one design."""

    design: Design
    verified_assertions: List[Assertion] = field(default_factory=list)
    mining_report: Optional[MiningReport] = None


class DesignKnowledgeBase:
    """Lazily mine and cache verified assertions for corpus designs."""

    def __init__(self, miner_config: Optional[MinerConfig] = None):
        self._config = miner_config or _fast_miner_config()
        self._cache: Dict[str, DesignKnowledge] = {}

    def knowledge(self, design: Design) -> DesignKnowledge:
        """Return (building if necessary) the knowledge entry for ``design``."""
        if design.name in self._cache:
            return self._cache[design.name]
        report = AssertionMiner(design, self._config).mine()
        entry = DesignKnowledge(
            design=design,
            verified_assertions=list(report.selected),
            mining_report=report,
        )
        self._cache[design.name] = entry
        return entry

    def verified_assertions(self, design: Design) -> List[Assertion]:
        """Verified assertions for ``design`` (possibly empty)."""
        return list(self.knowledge(design).verified_assertions)

    def preload(self, designs) -> None:
        """Eagerly build knowledge for a collection of designs."""
        for design in designs:
            self.knowledge(design)

    def __contains__(self, design_name: str) -> bool:
        return design_name in self._cache
