"""Tokenizer for the SQL grammar the parser reads.

The grammar covers what the ETable translation layer emits (Section 8 of
the paper) plus what the study's simulated SQL users type: SELECT queries
with joins, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, aggregate calls, LIKE,
IN, EXISTS, and literals. Keywords are case-insensitive; identifiers keep
their case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "offset", "as", "and", "or", "not", "in", "like", "is", "null",
    "exists", "join", "inner", "left", "outer", "on", "asc", "desc",
    "true", "false", "between", "count", "sum", "avg", "min", "max",
    "ent_list", "union", "all",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.value}"


_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")
_PUNCT = "(),.*"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`SqlSyntaxError` on bad characters."""
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if char == "-" and text.startswith("--", position):
            newline = text.find("\n", position)
            position = length if newline == -1 else newline + 1
            continue
        if char == "'":
            token, position = _read_string(text, position)
            tokens.append(token)
            continue
        if char.isdigit() or (
            char == "." and position + 1 < length and text[position + 1].isdigit()
        ):
            token, position = _read_number(text, position)
            tokens.append(token)
            continue
        if char.isalpha() or char == "_":
            token, position = _read_word(text, position)
            tokens.append(token)
            continue
        matched_operator = next(
            (op for op in _OPERATORS if text.startswith(op, position)), None
        )
        if matched_operator is not None:
            value = "!=" if matched_operator == "<>" else matched_operator
            tokens.append(Token(TokenType.OPERATOR, value, position))
            position += len(matched_operator)
            continue
        if char in _PUNCT or char in "+-/":
            tokens.append(Token(TokenType.PUNCT, char, position))
            position += 1
            continue
        raise SqlSyntaxError(f"unexpected character {char!r}", position)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _read_string(text: str, start: int) -> tuple[Token, int]:
    position = start + 1
    parts: list[str] = []
    while position < len(text):
        char = text[position]
        if char == "'":
            if text.startswith("''", position):
                parts.append("'")
                position += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), position + 1
        parts.append(char)
        position += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _read_number(text: str, start: int) -> tuple[Token, int]:
    position = start
    saw_dot = False
    while position < len(text):
        char = text[position]
        if char.isdigit():
            position += 1
        elif char == "." and not saw_dot:
            saw_dot = True
            position += 1
        else:
            break
    return Token(TokenType.NUMBER, text[start:position], start), position


def _read_word(text: str, start: int) -> tuple[Token, int]:
    position = start
    while position < len(text) and (text[position].isalnum() or text[position] == "_"):
        position += 1
    word = text[start:position]
    lowered = word.lower()
    if lowered in KEYWORDS:
        return Token(TokenType.KEYWORD, lowered, start), position
    return Token(TokenType.IDENTIFIER, word, start), position
