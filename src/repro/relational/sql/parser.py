"""Recursive-descent parser for the SQL that :mod:`repro.core.from_sql` reads.

Grammar (simplified):

    statement   := select (UNION [ALL] select)* EOF
    select      := SELECT [DISTINCT] items FROM table_refs join* [WHERE expr]
                   [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_terms] [LIMIT n [OFFSET n]]
    items       := item (',' item)*       item := expr [[AS] alias] | '*' | id.'*'
    table_refs  := table_ref (',' table_ref)*
    join        := [INNER|LEFT [OUTER]] JOIN table_ref ON expr
    expr        := or_expr  (standard precedence: OR < AND < NOT < predicate
                   < additive < multiplicative < unary < primary)
"""

from __future__ import annotations

from typing import Any

from repro.errors import SqlSyntaxError
from repro.relational.sql.ast_nodes import (
    AndNode,
    BetweenNode,
    BinaryNode,
    ColumnNode,
    ExistsNode,
    ExprNode,
    FuncNode,
    InListNode,
    InSubqueryNode,
    IsNullNode,
    JoinClause,
    LikeNode,
    LiteralNode,
    NotNode,
    OrNode,
    OrderTerm,
    SelectItem,
    SelectStatement,
    StarNode,
    Statement,
    TableRef,
    UnionStatement,
)
from repro.relational.sql.lexer import Token, TokenType, tokenize

_AGGREGATE_KEYWORDS = ("count", "sum", "avg", "min", "max", "ent_list")


def parse(sql: str) -> Statement:
    """Parse one SQL statement (optionally a UNION chain)."""
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement


def parse_select(sql: str) -> SelectStatement:
    """Parse a plain SELECT, rejecting UNION chains."""
    statement = parse(sql)
    if not isinstance(statement, SelectStatement):
        raise SqlSyntaxError("expected a plain SELECT statement, found UNION")
    return statement


def split_conjuncts(node: ExprNode | None) -> list[ExprNode]:
    """Flatten a WHERE tree into top-level AND conjuncts."""
    if node is None:
        return []
    if isinstance(node, AndNode):
        out: list[ExprNode] = []
        for operand in node.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [node]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, *names: str) -> Token:
        if not self.current.is_keyword(*names):
            raise SqlSyntaxError(
                f"expected {'/'.join(names).upper()}, found {self.current.value!r}",
                self.current.position,
            )
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise SqlSyntaxError(
                f"expected {value!r}, found {self.current.value!r}",
                self.current.position,
            )

    def expect_identifier(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENTIFIER:
            raise SqlSyntaxError(
                f"expected identifier, found {token.value!r}", token.position
            )
        self.advance()
        return token.value

    def expect_eof(self) -> None:
        if self.current.type is not TokenType.EOF:
            raise SqlSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                self.current.position,
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        first = self.parse_select()
        if not self.current.is_keyword("union"):
            return first
        selects = [first]
        union_all: bool | None = None
        while self.accept_keyword("union"):
            this_all = self.accept_keyword("all")
            if union_all is None:
                union_all = this_all
            elif union_all != this_all:
                raise SqlSyntaxError("mixed UNION and UNION ALL are not supported")
            selects.append(self.parse_select())
        return UnionStatement(selects, all=bool(union_all))

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self._parse_select_items()
        self.expect_keyword("from")
        from_tables = [self._parse_table_ref()]
        joins: list[JoinClause] = []
        while True:
            if self.accept_punct(","):
                from_tables.append(self._parse_table_ref())
                continue
            if self.current.is_keyword("join", "inner", "left"):
                joins.append(self._parse_join())
                continue
            break
        where = self._parse_expr() if self.accept_keyword("where") else None
        group_by: list[ExprNode] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self._parse_expr())
            while self.accept_punct(","):
                group_by.append(self._parse_expr())
        having = self._parse_expr() if self.accept_keyword("having") else None
        order_by: list[OrderTerm] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_term())
            while self.accept_punct(","):
                order_by.append(self._parse_order_term())
        limit = offset = None
        if self.accept_keyword("limit"):
            limit = self._expect_int()
            if self.accept_keyword("offset"):
                offset = self._expect_int()
        return SelectStatement(
            items=items,
            from_tables=from_tables,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self.accept_punct("*"):
            return SelectItem(StarNode())
        # ``alias.*`` requires two tokens of lookahead.
        token = self.current
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.PUNCT
            and self._peek(2).value == "*"
        ):
            qualifier = self.expect_identifier()
            self.expect_punct(".")
            self.expect_punct("*")
            return SelectItem(StarNode(qualifier))
        expression = self._parse_expr()
        alias: str | None = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.expect_identifier()
        return SelectItem(expression, alias)

    def _peek(self, ahead: int) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_identifier()
        alias: str | None = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.expect_identifier()
        return TableRef(name, alias)

    def _parse_join(self) -> JoinClause:
        if self.accept_keyword("inner"):
            self.expect_keyword("join")
        elif self.accept_keyword("left"):
            self.accept_keyword("outer")
            raise SqlSyntaxError("LEFT JOIN is not supported by this parser")
        else:
            self.expect_keyword("join")
        table = self._parse_table_ref()
        self.expect_keyword("on")
        condition = self._parse_expr()
        return JoinClause(table, condition)

    def _parse_order_term(self) -> OrderTerm:
        expression = self._parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderTerm(expression, descending)

    def _expect_int(self) -> int:
        token = self.current
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise SqlSyntaxError(
                f"expected integer, found {token.value!r}", token.position
            )
        self.advance()
        return int(token.value)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> ExprNode:
        return self._parse_or()

    def _parse_or(self) -> ExprNode:
        left = self._parse_and()
        if not self.current.is_keyword("or"):
            return left
        operands = [left]
        while self.accept_keyword("or"):
            operands.append(self._parse_and())
        return OrNode(tuple(operands))

    def _parse_and(self) -> ExprNode:
        left = self._parse_not()
        if not self.current.is_keyword("and"):
            return left
        operands = [left]
        while self.accept_keyword("and"):
            operands.append(self._parse_not())
        return AndNode(tuple(operands))

    def _parse_not(self) -> ExprNode:
        if self.accept_keyword("not"):
            return NotNode(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ExprNode:
        if self.current.is_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            subquery = self.parse_select()
            self.expect_punct(")")
            return ExistsNode(subquery)
        left = self._parse_additive()
        token = self.current
        if token.type is TokenType.OPERATOR:
            self.advance()
            right = self._parse_additive()
            return BinaryNode(token.value, left, right)
        negate = False
        if self.current.is_keyword("not"):
            # LIKE / IN / BETWEEN may be negated inline: ``x NOT LIKE 'a%'``.
            if self._peek(1).is_keyword("like", "in", "between"):
                self.advance()
                negate = True
        if self.accept_keyword("like"):
            pattern_token = self.current
            if pattern_token.type is not TokenType.STRING:
                raise SqlSyntaxError(
                    "LIKE requires a string literal pattern", pattern_token.position
                )
            self.advance()
            return LikeNode(left, pattern_token.value, negate)
        if self.accept_keyword("in"):
            return self._parse_in(left, negate)
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return BetweenNode(left, low, high, negate)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNullNode(left, is_negated)
        return left

    def _parse_in(self, operand: ExprNode, negate: bool) -> ExprNode:
        self.expect_punct("(")
        if self.current.is_keyword("select"):
            subquery = self.parse_select()
            self.expect_punct(")")
            return InSubqueryNode(operand, subquery, negate)
        values: list[Any] = [self._expect_literal_value()]
        while self.accept_punct(","):
            values.append(self._expect_literal_value())
        self.expect_punct(")")
        return InListNode(operand, tuple(values), negate)

    def _expect_literal_value(self) -> Any:
        token = self.current
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.type is TokenType.NUMBER:
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.is_keyword("null"):
            self.advance()
            return None
        if token.is_keyword("true"):
            self.advance()
            return True
        if token.is_keyword("false"):
            self.advance()
            return False
        raise SqlSyntaxError(f"expected literal, found {token.value!r}", token.position)

    def _parse_additive(self) -> ExprNode:
        left = self._parse_multiplicative()
        while self.current.type is TokenType.PUNCT and self.current.value in "+-":
            op = self.advance().value
            right = self._parse_multiplicative()
            left = BinaryNode(op, left, right)
        return left

    def _parse_multiplicative(self) -> ExprNode:
        left = self._parse_unary()
        while self.current.type is TokenType.PUNCT and self.current.value in "*/":
            op = self.advance().value
            right = self._parse_unary()
            left = BinaryNode(op, left, right)
        return left

    def _parse_unary(self) -> ExprNode:
        if self.current.type is TokenType.PUNCT and self.current.value == "-":
            self.advance()
            operand = self._parse_unary()
            return BinaryNode("-", LiteralNode(0), operand)
        return self._parse_primary()

    def _parse_primary(self) -> ExprNode:
        token = self.current
        if token.type is TokenType.STRING:
            self.advance()
            return LiteralNode(token.value)
        if token.type is TokenType.NUMBER:
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return LiteralNode(value)
        if token.is_keyword("null"):
            self.advance()
            return LiteralNode(None)
        if token.is_keyword("true"):
            self.advance()
            return LiteralNode(True)
        if token.is_keyword("false"):
            self.advance()
            return LiteralNode(False)
        if token.is_keyword(*_AGGREGATE_KEYWORDS):
            return self._parse_function(token.value)
        if token.type is TokenType.PUNCT and token.value == "(":
            self.advance()
            inner = self._parse_expr()
            self.expect_punct(")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expr()
        raise SqlSyntaxError(f"unexpected token {token.value!r}", token.position)

    def _parse_function(self, name: str) -> ExprNode:
        self.advance()
        self.expect_punct("(")
        if self.accept_punct("*"):
            self.expect_punct(")")
            return FuncNode(name, star=True)
        distinct = self.accept_keyword("distinct")
        args = [self._parse_expr()]
        while self.accept_punct(","):
            args.append(self._parse_expr())
        self.expect_punct(")")
        return FuncNode(name, tuple(args), distinct=distinct)

    def _parse_identifier_expr(self) -> ExprNode:
        name = self.expect_identifier()
        if self.current.type is TokenType.PUNCT and self.current.value == "(":
            # Scalar function call, e.g. LOWER(x).
            self.advance()
            args: list[ExprNode] = []
            if not self.accept_punct(")"):
                args.append(self._parse_expr())
                while self.accept_punct(","):
                    args.append(self._parse_expr())
                self.expect_punct(")")
            return FuncNode(name.lower(), tuple(args))
        if self.accept_punct("."):
            column_name = self.expect_identifier()
            return ColumnNode(column_name, name)
        return ColumnNode(name)
