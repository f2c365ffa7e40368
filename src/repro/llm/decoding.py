"""Decoding configuration and generation results.

The paper's ICL hyper-parameters (Section IV): maximum output tokens 1024,
greedy decoding, temperature 1.0, top-p 0.95, random seed 50.  The simulated
models honour the token cap and derive their stochastic choices from the
seed, so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .tokenizer import count_tokens


@dataclass(frozen=True)
class DecodingConfig:
    """Generation hyper-parameters (paper defaults)."""

    max_output_tokens: int = 1024
    temperature: float = 1.0
    top_p: float = 0.95
    greedy: bool = True
    seed: int = 50


@dataclass
class GenerationResult:
    """Raw output of one generation call."""

    model_name: str
    lines: List[str] = field(default_factory=list)
    truncated: bool = False
    prompt_tokens: int = 0

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def num_assertions(self) -> int:
        return len(self.lines)


def enforce_token_limit(lines: List[str], max_tokens: int) -> (List[str], bool):
    """Truncate a list of generated lines to the output-token budget."""
    kept: List[str] = []
    used = 0
    for line in lines:
        tokens = count_tokens(line)
        if used + tokens > max_tokens:
            return kept, True
        kept.append(line)
        used += tokens
    return kept, False
