"""Formal property verification: transition systems, proof engine, verdicts."""

from .engine import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    check_assertion,
    reachability_key,
)
from .result import Counterexample, ProofResult, ProofStatus, error_result
from .trace_check import TraceChecker, TraceCheckResult, check_on_trace
from .transition import (
    ReachabilityResult,
    TransitionStep,
    TransitionSystem,
    enumerate_reachable,
)

__all__ = [
    "Counterexample",
    "EngineConfig",
    "FormalEngine",
    "ProofResult",
    "ProofStatus",
    "ReachabilityCache",
    "ReachabilityResult",
    "TraceCheckResult",
    "TraceChecker",
    "TransitionStep",
    "TransitionSystem",
    "check_assertion",
    "check_on_trace",
    "enumerate_reachable",
    "error_result",
    "reachability_key",
]
