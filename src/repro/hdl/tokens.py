"""Token definitions shared by the Verilog lexer and parser."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`repro.hdl.lexer.tokenize`."""

    IDENT = "ident"
    NUMBER = "number"
    BASED_NUMBER = "based_number"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words of the supported Verilog subset.
KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "posedge",
        "negedge",
        "or",
        "for",
        "generate",
        "endgenerate",
        "genvar",
        "function",
        "endfunction",
        "signed",
    }
)

#: Multi-character punctuation, longest-match-first.
MULTI_CHAR_PUNCT = (
    "|->",
    "|=>",
    "##",
    "<<<",
    ">>>",
    "===",
    "!==",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "<<",
    ">>",
    "**",
    "+:",
    "-:",
)

SINGLE_CHAR_PUNCT = "()[]{};:,.#@=+-*/%&|^~!<>?"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.value!r}, {self.line}:{self.column})"
