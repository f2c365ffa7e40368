"""Lexer for the supported Verilog subset.

The lexer strips comments (``//`` and ``/* */``) and compiler directives,
recognises identifiers, decimal and based numeric literals (``8'hFF``,
``1'b0``), keywords, strings and punctuation, and records line/column
positions for error reporting.  It is one master regular expression scanned
left to right: every alternative is a named group, tried in order, and the
last one matches any single character so no input goes unclassified.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError
from .tokens import KEYWORDS, MULTI_CHAR_PUNCT, SINGLE_CHAR_PUNCT, Token, TokenKind

_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<skip>[ \t\r\n]+|//[^\n]*|`[^\n]*)",
            r"(?P<comment>/\*.*?\*/)",
            r"(?P<open_comment>/\*)",
            r"(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)",
            r"(?P<based>(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ_?]*)",
            r"(?P<bad_based>[0-9][0-9_]*')",
            r"(?P<number>[0-9][0-9_]*)",
            r'(?P<string>"[^"]*")',
            r'(?P<open_string>")',
            "(?P<punct>%s|[%s])"
            % ("|".join(map(re.escape, MULTI_CHAR_PUNCT)), re.escape(SINGLE_CHAR_PUNCT)),
            r"(?P<other>.)",
        )
    ),
    re.DOTALL,
)

_KINDS = {
    "ident": TokenKind.IDENT,
    "based": TokenKind.BASED_NUMBER,
    "number": TokenKind.NUMBER,
    "string": TokenKind.STRING,
    "punct": TokenKind.PUNCT,
}

_ERRORS = {
    "open_comment": "unterminated block comment",
    "bad_based": "malformed based literal",
    "open_string": "unterminated string literal",
}


def tokenize(text: str) -> List[Token]:
    """Return all tokens in ``text``, terminated by an EOF token."""
    tokens: List[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        group, value, start = match.lastgroup, match.group(), match.start()
        column = start - line_start + 1
        if group in _KINDS:
            kind = TokenKind.KEYWORD if group == "ident" and value in KEYWORDS else _KINDS[group]
            tokens.append(Token(kind, value[1:-1] if group == "string" else value, line, column))
        elif group in _ERRORS:
            raise LexError(_ERRORS[group], line, column)
        elif group == "other":
            raise LexError(f"unexpected character {value!r}", line, column)
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, match.end()) + 1
    tokens.append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1))
    return tokens


class Lexer:
    """Object form of :func:`tokenize`, kept for callers of the public name."""

    def __init__(self, text: str):
        self._text = text

    def tokenize(self) -> List[Token]:
        """Return all tokens in the input, terminated by an EOF token."""
        return tokenize(self._text)
