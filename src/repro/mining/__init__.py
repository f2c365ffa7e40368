"""Assertion mining: GoldMine-style trees, HARM-style templates, ranking."""

from .dataset import Atom, candidate_atoms, mining_targets, trace_atoms
from .goldmine import GoldMineConfig, GoldMineMiner
from .harm import HarmConfig, HarmMiner
from .miner import AssertionMiner, MinerConfig, MiningReport, mine_verified_assertions
from .ranking import AssertionRanker, RankedAssertion, RankingWeights

__all__ = [
    "AssertionMiner",
    "AssertionRanker",
    "Atom",
    "GoldMineConfig",
    "GoldMineMiner",
    "HarmConfig",
    "HarmMiner",
    "MinerConfig",
    "MiningReport",
    "RankedAssertion",
    "RankingWeights",
    "candidate_atoms",
    "mine_verified_assertions",
    "mining_targets",
    "trace_atoms",
]
