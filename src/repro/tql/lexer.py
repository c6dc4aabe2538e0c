"""Tokenizer for the Tensor Query Language (§4.4).

TQL is SQL extended with numpy-style indexing/slicing of multi-dimensional
columns, so the lexer knows ``[``, ``:``, ``,`` inside subscripts as well
as the usual SQL atoms.  Keywords are case-insensitive; identifiers keep
their case (tensor names are case-sensitive).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.exceptions import TQLSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "ORDER", "GROUP", "ARRANGE", "SAMPLE", "BY",
    "LIMIT", "OFFSET", "AS", "ASC", "DESC", "AND", "OR", "NOT", "IN",
    "CONTAINS", "VERSION", "REPLACE", "TRUE", "FALSE", "NULL", "JOIN",
    "UNGROUP", "EXPAND",
}

SYMBOLS = [
    "<=", ">=", "!=", "<>", "==", "=", "<", ">", "(", ")", "[", "]",
    ",", ":", "+", "-", "*", "/", "%", ".",
]


class Token(NamedTuple):  # a tuple: built at a third of a dataclass's cost
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | SYMBOL | EOF
    value: str
    pos: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value!r}"


#: one alternative per token kind, tried in order at each offset: a
#: comment before the ``-`` symbol, a number before the ``.`` one, the
#: symbols longest first, and a quote that opens no whole string or any
#: other character is an error
_TOKEN = re.compile("|".join((
    r"(?P<SPACE>\s+|--[^\n]*\n?)",
    r"""(?P<STRING>"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*')""",
    r"""(?P<OPEN>["'])""",
    r"(?P<NUMBER>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)",
    r"(?P<IDENT>[^\W\d]\w*)",
    "(?P<SYMBOL>" + "|".join(map(re.escape, SYMBOLS)) + ")",
    r"(?P<BAD>.)",
)), re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        value, pos = m.group(), m.start()
        if kind == "STRING":
            value = _ESCAPE.sub(r"\1", value[1:-1])
        elif kind == "IDENT" and value.upper() in KEYWORDS:
            kind, value = "KEYWORD", value.upper()
        elif kind == "OPEN":
            raise TQLSyntaxError("unterminated string literal", pos, text)
        elif kind == "BAD":
            raise TQLSyntaxError(f"unexpected character {value!r}", pos, text)
        tokens.append(Token(kind, value, pos))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class TokenStream:
    """Cursor over a token list with peek/expect helpers."""

    def __init__(self, tokens: List[Token], text: str = ""):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = value or kind
            raise TQLSyntaxError(
                f"expected {want}, got {got.value or got.kind!r}",
                got.pos,
                self.text,
            )
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words
