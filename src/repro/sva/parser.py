"""Parser for the restricted SVA subset used throughout the paper.

Accepted concrete syntax (several equivalent surface forms, because LLM
output and miner output differ in how much boilerplate they wrap around the
property body):

* ``label: assert property (@(posedge clk) disable iff (rst) A |-> C);``
* ``assert property (A |=> C);``
* ``A |-> ##2 C;``  (bare property body, as in the paper's Figure 5 prompt)

A sequence is a conjunction of boolean propositions separated by ``##N``
delays; the boolean layer is ordinary Verilog expression syntax, parsed by
the shared :mod:`repro.hdl.parser`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..hdl import ast
from ..hdl.errors import HdlError
from ..hdl.lexer import tokenize
from ..hdl.parser import Parser
from ..hdl.tokens import Token, TokenKind
from .errors import SvaSyntaxError, SvaUnsupportedError
from .model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm

#: SVA operators outside the restricted subset (their presence is a parse error
#: but we detect them explicitly to give a precise diagnostic).  The words
#: match whole identifiers only, so a signal named ``data_within`` is legal.
_UNSUPPORTED_MARKERS = (
    "s_eventually",
    "s_until",
    "until_with",
    "throughout",
    "intersect",
    "first_match",
    "within",
    "[*",
    "[=",
    "[->",
)
_IDENTIFIER = re.compile(r"[a-z_$][a-z0-9_$]*")


class SvaParser:
    """Parse assertion text into :class:`repro.sva.model.Assertion`."""

    def __init__(self, text: str):
        self._original_text = text
        self._text = text.strip()

    def parse(self) -> Assertion:
        """Parse the assertion, raising :class:`SvaSyntaxError` on failure."""
        text = self._text
        if not text:
            raise SvaSyntaxError("empty assertion text")
        lowered = text.lower()
        words = set(_IDENTIFIER.findall(lowered))
        for marker in _UNSUPPORTED_MARKERS:
            if marker in (lowered if marker.startswith("[") else words):
                raise SvaUnsupportedError(
                    f"operator {marker!r} is outside the supported SVA subset", text
                )
        name, text = self._strip_label(text)
        text = self._strip_wrappers(text)
        try:
            tokens = tokenize(text)
        except HdlError as exc:
            raise SvaSyntaxError(f"cannot tokenize assertion: {exc}", self._original_text)
        reader = _TokenReader(tokens, self._original_text)
        clock_edge, clock = reader.parse_clocking()
        disable = reader.parse_disable_iff()
        antecedent, implication, consequent = reader.parse_property_body()
        reader.expect_end()
        return Assertion(
            antecedent=antecedent,
            consequent=consequent,
            implication=implication,
            clock=clock,
            clock_edge=clock_edge,
            disable_iff=disable,
            name=name,
            source_text=self._original_text,
        )

    # -- surface-form stripping ------------------------------------------------

    def _strip_label(self, text: str) -> Tuple[str, str]:
        head, sep, rest = text.partition(":")
        if not sep:
            return "", text
        candidate = head.strip()
        if candidate.isidentifier() and "assert" in rest[:40].lower():
            return candidate, rest.strip()
        return "", text

    def _strip_wrappers(self, text: str) -> str:
        stripped = text.strip().rstrip(";").strip()
        lowered = stripped.lower()
        for keyword in ("assert property", "assume property", "cover property", "property"):
            if lowered.startswith(keyword):
                stripped = stripped[len(keyword):].strip()
                break
        if stripped.startswith("(") and stripped.endswith(")"):
            if _parens_balanced_as_wrapper(stripped):
                stripped = stripped[1:-1].strip()
        if not stripped:
            raise SvaSyntaxError("assertion has no property body", self._original_text)
        return stripped


def _parens_balanced_as_wrapper(text: str) -> bool:
    """True if the outermost parentheses wrap the entire text."""
    depth = 0
    for index, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0 and index != len(text) - 1:
                return False
    return depth == 0


class _TokenReader(Parser):
    """Token-level parsing of clocking, disable iff, and the property body.

    The boolean layer is the inherited Verilog expression grammar, run on this
    reader's own cursor.
    """

    def __init__(self, tokens: List[Token], original_text: str):
        super().__init__(tokens)
        self._text = original_text

    def _expect_sva_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise SvaSyntaxError(
                f"expected {value!r}, found {self._current.value!r}", self._text
            )

    # -- clocking and disable iff -------------------------------------------------

    def parse_clocking(self) -> Tuple[str, Optional[str]]:
        if not self._current.is_punct("@"):
            return "posedge", None
        self._advance()
        self._expect_sva_punct("(")
        edge = "posedge"
        if self._current.is_keyword("posedge") or self._current.is_keyword("negedge"):
            edge = self._advance().value
        if self._current.kind is not TokenKind.IDENT:
            raise SvaSyntaxError("expected clock signal name in clocking event", self._text)
        clock = self._advance().value
        self._expect_sva_punct(")")
        return edge, clock

    def parse_disable_iff(self) -> Optional[ast.Expr]:
        if self._current.kind is TokenKind.IDENT and self._current.value == "disable":
            self._advance()
            if not (self._current.kind is TokenKind.IDENT and self._current.value == "iff"):
                raise SvaSyntaxError("expected 'iff' after 'disable'", self._text)
            self._advance()
            self._expect_sva_punct("(")
            expr = self._parse_boolean()
            self._expect_sva_punct(")")
            return expr
        return None

    # -- property body ----------------------------------------------------------------

    def parse_property_body(
        self,
    ) -> Tuple[List[SequenceTerm], str, List[SequenceTerm]]:
        antecedent = self.parse_sequence(stop_on_implication=True)
        if self._current.is_punct(OVERLAPPED):
            implication = OVERLAPPED
            self._advance()
        elif self._current.is_punct(NON_OVERLAPPED):
            implication = NON_OVERLAPPED
            self._advance()
        else:
            # A bare sequence with no implication is an invariant: G(expr).
            # Model it as (1) |-> expr so the four-way FPV verdict still applies.
            if not antecedent:
                raise SvaSyntaxError("assertion has no property body", self._text)
            consequent = antecedent
            antecedent = [SequenceTerm(0, ast.Number(1))]
            return antecedent, OVERLAPPED, consequent
        consequent = self.parse_sequence(stop_on_implication=False)
        if not consequent:
            raise SvaSyntaxError("implication has an empty consequent", self._text)
        return antecedent, implication, consequent

    def parse_sequence(self, stop_on_implication: bool) -> List[SequenceTerm]:
        terms: List[SequenceTerm] = []
        offset = 0
        expect_term = True
        while True:
            if self._current.is_punct("##"):
                self._advance()
                if self._current.kind is not TokenKind.NUMBER:
                    raise SvaSyntaxError("expected cycle count after '##'", self._text)
                offset += int(self._advance().value)
                expect_term = True
                continue
            if self._current.kind is TokenKind.EOF:
                break
            if self._current.is_punct(OVERLAPPED) or self._current.is_punct(NON_OVERLAPPED):
                break
            if self._current.is_punct(";"):
                self._advance()
                break
            if not expect_term:
                raise SvaSyntaxError(
                    f"unexpected token {self._current.value!r} in sequence", self._text
                )
            expr = self._parse_boolean()
            terms.extend(self._split_conjunction(expr, offset))
            expect_term = False
        return terms

    def _split_conjunction(self, expr: ast.Expr, offset: int) -> List[SequenceTerm]:
        """Split top-level ``&&`` conjunctions into separate same-cycle terms."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            return self._split_conjunction(expr.left, offset) + self._split_conjunction(
                expr.right, offset
            )
        return [SequenceTerm(offset, expr)]

    # -- boolean layer ------------------------------------------------------------------

    def _parse_boolean(self) -> ast.Expr:
        """Parse a Verilog boolean expression from the current position."""
        try:
            return self.parse_expression()
        except HdlError as exc:
            raise SvaSyntaxError(f"invalid boolean expression: {exc}", self._text)

    def expect_end(self) -> None:
        while self._current.is_punct(";"):
            self._advance()
        if self._current.kind is not TokenKind.EOF:
            raise SvaSyntaxError(
                f"unexpected trailing text starting at {self._current.value!r}", self._text
            )


def parse_assertion(text: str) -> Assertion:
    """Parse one assertion string into an :class:`Assertion`."""
    return SvaParser(text).parse()


def parse_assertions(text: str) -> List[Assertion]:
    """Parse a block of text containing one assertion per line.

    Blank lines and ``//`` comment lines are skipped.  Any line that fails to
    parse raises :class:`SvaSyntaxError` — callers that want per-line error
    accounting (the evaluation pipeline) should parse line by line instead.
    """
    assertions = []
    for line in split_assertion_lines(text):
        assertions.append(parse_assertion(line))
    return assertions


def split_assertion_lines(text: str) -> List[str]:
    """Split raw generator output into candidate assertion strings."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith("#"):
            continue
        lines.append(line)
    return lines
