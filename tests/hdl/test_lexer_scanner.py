"""Error messages, token positions and round trips of the master-regex lexer."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import get_corpus, list_corpora
from repro.hdl import LexError, tokenize
from repro.hdl.tokens import KEYWORDS, MULTI_CHAR_PUNCT, SINGLE_CHAR_PUNCT, TokenKind

#: ``REPRO_FULL=1`` raises the example count for the nightly run.
_EXAMPLES = 2000 if os.environ.get("REPRO_FULL") == "1" else 200

#: Malformed inputs and the exact ``str(LexError)`` each one raises.
_LEX_ERRORS = [
    ("a /* never closed", "unterminated block comment (line 1, col 3)"),
    ("x\n  /* a\n b", "unterminated block comment (line 2, col 3)"),
    ('assign s = "open', "unterminated string literal (line 1, col 12)"),
    ("a = 12'x1;", "malformed based literal (line 1, col 5)"),
    ("a = 3'sq;", "malformed based literal (line 1, col 5)"),
    ("a = 8'", "malformed based literal (line 1, col 5)"),
    ("x = 4'b1 + 3'S", "malformed based literal (line 1, col 12)"),
    ("a ' b", "unexpected character \"'\" (line 1, col 3)"),
    ("'s b", "unexpected character \"'\" (line 1, col 1)"),
    ("a \\ b", "unexpected character '\\\\' (line 1, col 3)"),
    ("a\x00", "unexpected character '\\x00' (line 1, col 2)"),
    ("café", "unexpected character 'é' (line 1, col 4)"),
    ("a\n\nb\r\n  c \\", "unexpected character '\\\\' (line 4, col 5)"),
    ("a\r\n\r\n   /* x", "unterminated block comment (line 3, col 4)"),
    ("a\tb # \\", "unexpected character '\\\\' (line 1, col 7)"),
]


@pytest.mark.parametrize("text, message", _LEX_ERRORS)
def test_lex_error_message_and_position(text, message):
    with pytest.raises(LexError) as excinfo:
        tokenize(text)
    assert str(excinfo.value) == message


# -- round trip: tokens joined by whitespace, comments and directives --------

_IDENT = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]*", fullmatch=True).filter(
    lambda word: word not in KEYWORDS
)
_BASED = st.from_regex(r"([0-9][0-9_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ_?]*", fullmatch=True)
_TEXT = st.text(st.characters(blacklist_characters="*\n\x00", blacklist_categories=("Cs",)))

_TOKENS = st.one_of(
    st.tuples(st.just(TokenKind.IDENT), _IDENT),
    st.tuples(st.just(TokenKind.KEYWORD), st.sampled_from(sorted(KEYWORDS))),
    st.tuples(st.just(TokenKind.NUMBER), st.from_regex(r"[0-9][0-9_]*", fullmatch=True)),
    st.tuples(st.just(TokenKind.BASED_NUMBER), _BASED),
    st.tuples(st.just(TokenKind.STRING), st.text(st.characters(blacklist_characters='"'))),
    st.tuples(
        st.just(TokenKind.PUNCT), st.sampled_from(MULTI_CHAR_PUNCT + tuple(SINGLE_CHAR_PUNCT))
    ),
)

#: Text the lexer skips; each piece ends in whitespace, so it never fuses
#: with the token after it.
_SKIPPED = st.one_of(
    st.text(st.sampled_from(" \t\r\n"), min_size=1),
    _TEXT.map(lambda text: f"//{text}\n"),
    _TEXT.map(lambda text: f"/*{text}\n*/ "),
    _TEXT.map(lambda text: f"`define {text}\n"),
)
_SEPARATORS = st.lists(_SKIPPED, max_size=3).map(lambda pieces: " " + "".join(pieces))


def _position(text: str):
    return text.count("\n") + 1, len(text) - text.rfind("\n")


@settings(max_examples=_EXAMPLES, deadline=None)
@given(tokens=st.lists(st.tuples(_SEPARATORS, _TOKENS), max_size=12), tail=_SEPARATORS)
def test_tokens_survive_whitespace_comments_and_directives(tokens, tail):
    text, expected = "", []
    for separator, (kind, value) in tokens:
        text += separator
        expected.append((kind, value) + _position(text))
        text += f'"{value}"' if kind is TokenKind.STRING else value
    text += tail
    expected.append((TokenKind.EOF, "") + _position(text))
    assert [(t.kind, t.value, t.line, t.column) for t in tokenize(text)] == expected


# -- corpus sources: every position points at its own token -----------------


def test_corpus_token_positions_point_at_token_text():
    sources = {}
    for entry in list_corpora():
        for design in get_corpus(entry.name):
            sources.setdefault(design.source, design.name)
    for source, name in sources.items():
        line_starts = [0]
        for line in source.split("\n"):
            line_starts.append(line_starts[-1] + len(line) + 1)
        for token in tokenize(source):
            offset = line_starts[token.line - 1] + token.column - 1
            if token.kind is TokenKind.EOF:
                assert offset == len(source), name
            elif token.kind is TokenKind.STRING:
                assert source[offset : offset + len(token.value) + 2] == f'"{token.value}"', name
            else:
                assert source[offset : offset + len(token.value)] == token.value, (name, token)
