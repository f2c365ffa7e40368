"""End-to-end assertion mining: simulate, mine, deduplicate, verify, rank.

This is the flow the paper uses to produce the formally verified assertions
of its in-context examples (Section III: "generated from GoldMine and HARM,
and verified using Cadence JasperGold"), reproduced on our substrate:
simulate the design, run both miners on the trace, deduplicate, discharge the
candidates on the FPV engine, keep only proofs, and rank the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..fpv.engine import EngineConfig, FormalEngine
from ..fpv.result import ProofResult, ProofStatus
from ..hdl.design import Design
from ..sim.simulator import Simulator
from ..sim.stimulus import default_stimulus
from ..sim.trace import Trace
from ..sva.model import Assertion, deduplicate
from .goldmine import GoldMineConfig, GoldMineMiner
from .harm import HarmConfig, HarmMiner
from .ranking import AssertionRanker


@dataclass
class MinerConfig:
    """Configuration of the end-to-end mining flow."""

    trace_cycles: int = 400
    seed: int = 7
    goldmine: GoldMineConfig = field(default_factory=GoldMineConfig)
    harm: HarmConfig = field(default_factory=HarmConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    verify: bool = True
    min_assertions: int = 2
    max_assertions: int = 10
    keep_vacuous: bool = False
    #: Verify at most this many candidates (the best-covered ones first); the
    #: cap keeps the flow tractable on thousand-line designs.
    max_verify_candidates: int = 40


@dataclass
class MiningReport:
    """Everything the mining flow produced for one design."""

    design_name: str
    trace_cycles: int
    candidates: List[Assertion] = field(default_factory=list)
    verified: List[Assertion] = field(default_factory=list)
    selected: List[Assertion] = field(default_factory=list)
    proof_results: List[ProofResult] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_verified(self) -> int:
        return len(self.verified)


class AssertionMiner:
    """Produce a small set of formally verified assertions for a design."""

    def __init__(self, design: Design, config: Optional[MinerConfig] = None):
        self._design = design
        self._config = config or MinerConfig()

    def mine(self, trace: Optional[Trace] = None) -> MiningReport:
        """Run the full mining flow and return a report."""
        config = self._config
        if trace is None:
            simulator = Simulator(self._design)
            stimulus = default_stimulus(self._design.model, seed=config.seed)
            trace = simulator.run(cycles=config.trace_cycles, stimulus=stimulus)

        goldmine = GoldMineMiner(self._design, config.goldmine).mine(trace)
        harm = HarmMiner(self._design, config.harm).mine(trace)
        candidates = deduplicate(goldmine + harm)

        report = MiningReport(
            design_name=self._design.name,
            trace_cycles=trace.num_cycles,
            candidates=candidates,
        )

        ranker = AssertionRanker(self._design)
        to_verify = candidates
        if config.verify and len(candidates) > config.max_verify_candidates:
            to_verify = ranker.top(candidates, trace, config.max_verify_candidates)

        if config.verify:
            engine = FormalEngine(self._design, config.engine)
            report.proof_results = engine.check_batch(to_verify)
            for assertion, result in zip(to_verify, report.proof_results):
                if result.status is ProofStatus.PROVEN:
                    report.verified.append(assertion)
                elif result.status is ProofStatus.VACUOUS and config.keep_vacuous:
                    report.verified.append(assertion)
        else:
            report.verified = list(candidates)

        limit = config.max_assertions
        report.selected = ranker.top(report.verified, trace, limit)
        return report


def mine_verified_assertions(
    design: Design, config: Optional[MinerConfig] = None
) -> List[Assertion]:
    """Convenience wrapper returning only the selected, verified assertions."""
    return AssertionMiner(design, config).mine().selected
