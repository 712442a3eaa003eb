"""Tokenizer for L / L++ source text.

The concrete syntax accepted by :mod:`repro.lang.parser` is a small,
readable rendering of Figure 5.  The token set:

- keywords: ``transaction array relation skip if then else write print
  read foreach in and or not true false``
- identifiers (temporaries, array bases, object names), ``@name``
  parameters
- integer literals (optionally negative via unary minus at parse time)
- operators and punctuation: ``:= = < <= > >= != + - * ( ) { } , ; @``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

KEYWORDS = {
    "transaction",
    "array",
    "relation",
    "skip",
    "if",
    "then",
    "else",
    "write",
    "print",
    "read",
    "foreach",
    "in",
    "and",
    "or",
    "not",
    "true",
    "false",
}

_TWO_CHAR = {":=", "<=", ">=", "!="}
_ONE_CHAR = set("=<>+-*(){};,@[]")


class LexError(Exception):
    """Raised on malformed input text."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """A lexical token with source position (1-based)."""

    kind: str  # 'int' | 'name' | 'keyword' | 'op' | 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; comments run from ``#`` or ``//`` to EOL."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source[i : i + 2] in _TWO_CHAR:
            yield Token("op", source[i : i + 2], line, col)
            i += 2
            col += 2
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            yield Token("int", source[start:i], line, col)
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "name"
            yield Token(kind, text, line, col)
            col += i - start
            continue
        if ch in _ONE_CHAR:
            yield Token("op", ch, line, col)
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    yield Token("eof", "", line, col)
