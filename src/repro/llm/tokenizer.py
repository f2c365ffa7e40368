"""Lightweight tokenizer for Verilog/SVA text.

Used for prompt-length accounting (the paper caps generation at 1024 output
tokens), for the n-gram statistics of the trainable AssertionLLM, and by the
tests that validate prompt construction.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List

_TOKEN_PATTERN = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*"      # identifiers / keywords
    r"|\d+'[bodhBODH][0-9a-fA-FxzXZ_]+"  # based literals
    r"|\d+"                            # decimal numbers
    r"|\|->|\|=>|##|<=|>=|==|!=|&&|\|\||<<|>>"  # multi-char operators
    r"|[()\[\]{};:,.@#=+\-*/%&|^~!<>?]"  # single-char punctuation
)


def tokenize_text(text: str) -> List[str]:
    """Split arbitrary Verilog/SVA text into tokens."""
    return _TOKEN_PATTERN.findall(text)


def count_tokens(text: str) -> int:
    """Number of tokens in ``text`` (the unit of the max-output-token cap)."""
    return len(tokenize_text(text))


def token_histogram(texts: Iterable[str]) -> Dict[str, int]:
    """Aggregate token frequencies over a collection of texts."""
    counter: Counter = Counter()
    for text in texts:
        counter.update(tokenize_text(text))
    return dict(counter)


def ngrams(tokens: List[str], order: int) -> List[tuple]:
    """Return the list of n-grams of the given order."""
    if order <= 0:
        raise ValueError("ngram order must be positive")
    return [tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1)]


class NgramModel:
    """A tiny back-off n-gram model over assertion token streams.

    The trainable AssertionLLM uses this to score candidate assertions for
    fluency: assertions whose token sequences resemble the training assertions
    score higher and are preferred during decoding.
    """

    def __init__(self, order: int = 3):
        if order < 2:
            raise ValueError("order must be at least 2")
        self.order = order
        self._counts: List[Counter] = [Counter() for _ in range(order)]

    def fit(self, texts: Iterable[str]) -> "NgramModel":
        """Accumulate n-gram counts from assertion texts."""
        for text in texts:
            tokens = ["<s>"] * (self.order - 1) + tokenize_text(text) + ["</s>"]
            for n in range(1, self.order + 1):
                self._counts[n - 1].update(ngrams(tokens, n))
        return self

    @property
    def vocabulary_size(self) -> int:
        return len(self._counts[0])

    def sequence_logprob(self, text: str) -> float:
        """Average per-token log probability (back-off with add-one smoothing)."""
        import math

        tokens = ["<s>"] * (self.order - 1) + tokenize_text(text) + ["</s>"]
        if len(tokens) <= self.order - 1:
            return float("-inf")
        total = 0.0
        steps = 0
        vocab = max(self.vocabulary_size, 1)
        for index in range(self.order - 1, len(tokens)):
            history = tuple(tokens[index - self.order + 1:index])
            token = tokens[index]
            probability = None
            for n in range(self.order, 0, -1):
                context = history[-(n - 1):] if n > 1 else ()
                gram = context + (token,)
                gram_count = self._counts[n - 1].get(gram, 0)
                if n > 1:
                    context_count = sum(
                        count for key, count in self._counts[n - 1].items() if key[:-1] == context
                    )
                else:
                    context_count = sum(self._counts[0].values())
                if gram_count:
                    probability = (gram_count + 1) / (context_count + vocab)
                    break
            if probability is None:
                probability = 1.0 / (sum(self._counts[0].values()) + vocab)
            total += math.log(probability)
            steps += 1
        return total / steps
