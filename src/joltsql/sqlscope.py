"""SQL parsing and ground-truth link extraction in one scoped tree walk.

Supports a SQLite-flavored subset: SELECT with FROM/JOIN..ON, WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT, UNION/INTERSECT/EXCEPT, scalar/EXISTS/IN
subqueries, aliases, star, aggregates, and ordinary expressions. CTEs,
window functions, and derived tables are rejected with a clear error.
Identifiers are matched case-insensitively and reported lowercase.

Every operator, from AND to IN and EXISTS, is one `Op` node holding its
operands in source order, and a nested query is its `Select`/`SetOp` node,
so the link walk treats all operators alike.

As in SQLite, a subquery may be a compound, a trailing ORDER BY/LIMIT binds
to the whole compound, and a compound's ORDER BY terms name output columns,
so they add no link.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import AmbiguousColumn, SqlSyntaxError, UnknownColumn, UnknownTable
from .schema import SchemaDocument

# ---------------------------------------------------------------- lexer

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
    "CROSS", "ON", "AS", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "UNION", "INTERSECT", "EXCEPT", "ALL", "AND", "OR", "NOT",
    "IN", "EXISTS", "BETWEEN", "LIKE", "IS", "NULL", "ASC", "DESC",
    "WITH", "OVER", "USING", "CASE",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\*|/|\+|-|\(|\)|,|\.|%)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    kind: str  # KEYWORD, IDENT, NUMBER, STRING, OP, EOF
    text: str
    offset: int


def _lex(text: str) -> list[Tok]:
    toks: list[Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "ident":
            upper = value.upper()
            kind = "KEYWORD" if upper in _KEYWORDS else "IDENT"
            toks.append(Tok(kind, value, m.start()))
        else:
            kinds = {"number": "NUMBER", "string": "STRING", "op": "OP"}
            toks.append(Tok(kinds[m.lastgroup], value, m.start()))
    toks.append(Tok("EOF", "", len(text)))
    return toks


# ---------------------------------------------------------------- AST

@dataclass
class ColumnRef:
    qualifier: str | None  # alias or table name as written
    column: str
    # not compared, so a compound's ORDER BY term can equal a select item
    offset: int = field(compare=False)


@dataclass
class Star:
    qualifier: str | None
    offset: int


@dataclass
class Literal:
    value: object


@dataclass
class FuncCall:
    name: str
    args: list
    star_arg: bool = False  # COUNT(*)
    distinct: bool = False


@dataclass
class Op:
    """An operator applied to `args`, its operands in source order: `OR`,
    `AND`, `NOT`, a comparison, `[NOT] LIKE`, `+ - * / %`, unary `-`,
    `[NOT] BETWEEN` (expr, low, high), `IS [NOT] NULL`, `[NOT] IN` (expr,
    then its values or one query) or `EXISTS` (one query)."""
    op: str
    args: list


@dataclass
class SelectItem:
    expr: object
    alias: str | None = None


@dataclass
class TableRef:
    name: str
    alias: str | None
    offset: int


@dataclass
class Join:
    table: TableRef
    kind: str  # JOIN, LEFT JOIN, ...
    on: object | None


@dataclass
class OrderItem:
    expr: object
    direction: str  # ASC / DESC


@dataclass
class Select:
    items: list[SelectItem]
    from_tables: list[TableRef]
    joins: list[Join]
    where: object | None = None
    group_by: list | None = None
    having: object | None = None
    order_by: list[OrderItem] | None = None
    limit: object | None = None
    distinct: bool = False


@dataclass
class SetOp:
    op: str  # UNION, UNION ALL, INTERSECT, EXCEPT
    left: object
    right: object
    order_by: list[OrderItem] | None = None
    limit: object | None = None


SqlAst = Select | SetOp

_AGGREGATES = {"count", "sum", "avg", "min", "max", "total"}


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg: str, tok: Tok | None = None) -> SqlSyntaxError:
        tok = tok or self.peek()
        return SqlSyntaxError(msg, tok.offset)

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "KEYWORD" and t.text.upper() in words

    def eat_kw(self, word: str) -> Tok:
        if not self.at_kw(word):
            raise self.error(f"expected {word}")
        return self.next()

    def eat_op(self, op: str) -> Tok:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise self.error(f"expected {op!r}")
        return self.next()

    def try_op(self, op: str) -> bool:
        t = self.peek()
        if t.kind == "OP" and t.text == op:
            self.next()
            return True
        return False

    # ---- entry

    def parse_statement(self) -> SqlAst:
        if self.at_kw("WITH"):
            raise self.error("CTEs (WITH) are not supported")
        node = self.parse_query()
        if self.peek().kind != "EOF":
            raise self.error("unexpected trailing input")
        return node

    def parse_query(self) -> SqlAst:
        """A SELECT or compound and its trailing ORDER BY/LIMIT: a whole
        statement, or the body of a parenthesized subquery."""
        node = self.parse_select_core()
        while self.at_kw("UNION", "INTERSECT", "EXCEPT"):
            op_tok = self.next()
            op = op_tok.text.upper()
            if op == "UNION" and self.at_kw("ALL"):
                self.next()
                op = "UNION ALL"
            right = self.parse_select_core()
            node = SetOp(op, node, right)
        # trailing ORDER BY / LIMIT bind to the whole set operation, if any
        if self.at_kw("ORDER"):
            node.order_by = self.parse_order_by()
        if self.at_kw("LIMIT"):
            node.limit = self.parse_limit()
        if self.at_kw("UNION", "INTERSECT", "EXCEPT"):
            raise self.error("ORDER BY and LIMIT must follow the last SELECT "
                             "of a compound")
        return node

    def parse_select_core(self) -> Select:
        self.eat_kw("SELECT")
        distinct = False
        if self.at_kw("DISTINCT"):
            self.next()
            distinct = True
        if self.at_kw("ALL"):
            self.next()
        items = [self.parse_select_item()]
        while self.try_op(","):
            items.append(self.parse_select_item())
        from_tables: list[TableRef] = []
        joins: list[Join] = []
        if self.at_kw("FROM"):
            self.next()
            from_tables.append(self.parse_table_ref())
            while True:
                if self.try_op(","):
                    from_tables.append(self.parse_table_ref())
                elif self.at_kw("JOIN", "INNER", "LEFT", "RIGHT", "CROSS"):
                    joins.append(self.parse_join())
                else:
                    break
        sel = Select(items, from_tables, joins, distinct=distinct)
        if self.at_kw("WHERE"):
            self.next()
            sel.where = self.parse_expr()
        if self.at_kw("GROUP"):
            self.next()
            self.eat_kw("BY")
            sel.group_by = [self.parse_expr()]
            while self.try_op(","):
                sel.group_by.append(self.parse_expr())
        if self.at_kw("HAVING"):
            self.next()
            sel.having = self.parse_expr()
        return sel

    def parse_order_by(self) -> list[OrderItem]:
        self.eat_kw("ORDER")
        self.eat_kw("BY")
        items = [self.parse_order_item()]
        while self.try_op(","):
            items.append(self.parse_order_item())
        return items

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        direction = "ASC"
        if self.at_kw("ASC", "DESC"):
            direction = self.next().text.upper()
        return OrderItem(expr, direction)

    def parse_limit(self):
        self.eat_kw("LIMIT")
        expr = self.parse_expr()
        if self.at_kw("OFFSET"):
            self.next()
            self.parse_expr()
        return expr

    def parse_select_item(self) -> SelectItem:
        t = self.peek()
        if t.kind == "OP" and t.text == "*":
            self.next()
            return SelectItem(Star(None, t.offset))
        # qualified star: ident . *
        if (
            t.kind == "IDENT"
            and self.toks[self.i + 1].kind == "OP"
            and self.toks[self.i + 1].text == "."
            and self.toks[self.i + 2].kind == "OP"
            and self.toks[self.i + 2].text == "*"
        ):
            self.next(); self.next(); self.next()
            return SelectItem(Star(t.text, t.offset))
        expr = self.parse_expr()
        return SelectItem(expr, self.parse_alias())

    def parse_table_ref(self) -> TableRef:
        t = self.peek()
        if t.kind == "OP" and t.text == "(":
            raise self.error("derived tables (subqueries in FROM) are not supported")
        if t.kind != "IDENT":
            raise self.error("expected table name")
        self.next()
        return TableRef(t.text, self.parse_alias(), t.offset)

    def parse_alias(self) -> str | None:
        """`AS name` or a bare name after a table or select item."""
        if self.at_kw("AS"):
            self.next()
            tok = self.next()
            if tok.kind != "IDENT":
                raise self.error("expected alias name", tok)
            return tok.text
        if self.peek().kind == "IDENT":
            return self.next().text
        return None

    def parse_join(self) -> Join:
        kind_words = []
        while self.at_kw("INNER", "LEFT", "RIGHT", "OUTER", "CROSS"):
            kind_words.append(self.next().text.upper())
        self.eat_kw("JOIN")
        kind = " ".join(kind_words + ["JOIN"])
        table = self.parse_table_ref()
        on = None
        if self.at_kw("USING"):
            raise self.error("USING clauses are not supported")
        if self.at_kw("ON"):
            self.next()
            on = self.parse_expr()
        return Join(table, kind, on)

    # ---- expressions, precedence climbing

    def parse_expr(self):
        return self.parse_left(("OR",), lambda: self.parse_left(("AND",), self.parse_not))

    def parse_left(self, ops: tuple[str, ...], operand):
        """`operand` joined by the operators or keywords in `ops`,
        left-associative. Only a keyword or operator token has text that
        can equal one of them."""
        node = operand()
        while (op := self.peek().text.upper()) in ops:
            self.next()
            node = Op(op, [node, operand()])
        return node

    def parse_not(self):
        if self.at_kw("NOT"):
            self.next()
            return Op("NOT", [self.parse_not()])
        return self.parse_comparison()

    def parse_comparison(self):
        node = self.parse_additive()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
                self.next()
                node = Op(t.text, [node, self.parse_additive()])
                continue
            save = self.i
            negation = ""
            if self.at_kw("NOT"):
                self.next()
                negation = "NOT "
            if self.at_kw("LIKE"):
                self.next()
                node = Op(negation + "LIKE", [node, self.parse_additive()])
                continue
            if self.at_kw("BETWEEN"):
                self.next()
                low = self.parse_additive()
                self.eat_kw("AND")
                node = Op(negation + "BETWEEN", [node, low, self.parse_additive()])
                continue
            if self.at_kw("IN"):
                self.next()
                self.eat_op("(")
                if self.at_kw("SELECT"):
                    args = [node, self.parse_query()]
                else:
                    args = [node, self.parse_expr()]
                    while self.try_op(","):
                        args.append(self.parse_expr())
                self.eat_op(")")
                node = Op(negation + "IN", args)
                continue
            if negation:
                self.i = save  # bare NOT belongs to parse_not
                break
            if self.at_kw("IS"):
                self.next()
                if self.at_kw("NOT"):
                    self.next()
                    negation = "NOT "
                self.eat_kw("NULL")
                node = Op(f"IS {negation}NULL", [node])
                continue
            break
        return node

    def parse_additive(self):
        return self.parse_left(("+", "-"),
                               lambda: self.parse_left(("*", "/", "%"), self.parse_unary))

    def parse_unary(self):
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            return Op("-", [self.parse_unary()])
        return self.parse_primary()

    def parse_primary(self):
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return Literal(float(t.text) if "." in t.text else int(t.text))
        if t.kind == "STRING":
            self.next()
            return Literal(t.text[1:-1].replace("''", "'"))
        if t.kind == "KEYWORD" and t.text.upper() == "NULL":
            self.next()
            return Literal(None)
        if t.kind == "KEYWORD" and t.text.upper() == "EXISTS":
            self.next()
            self.eat_op("(")
            sub = self.parse_query()
            self.eat_op(")")
            return Op("EXISTS", [sub])
        if t.kind == "KEYWORD" and t.text.upper() == "CASE":
            raise self.error("CASE expressions are not supported")
        if t.kind == "OP" and t.text == "(":
            self.next()
            expr = self.parse_query() if self.at_kw("SELECT") else self.parse_expr()
            self.eat_op(")")
            return expr
        if t.kind == "IDENT":
            self.next()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                self.next()
                if self.at_kw("OVER"):
                    raise self.error("window functions are not supported")
                distinct = False
                star_arg = False
                args: list = []
                if self.try_op("*"):
                    star_arg = True
                elif not (self.peek().kind == "OP" and self.peek().text == ")"):
                    if self.at_kw("DISTINCT"):
                        self.next()
                        distinct = True
                    args = [self.parse_expr()]
                    while self.try_op(","):
                        args.append(self.parse_expr())
                self.eat_op(")")
                if self.at_kw("OVER"):
                    raise self.error("window functions are not supported")
                return FuncCall(t.text.lower(), args, star_arg, distinct)
            if nxt.kind == "OP" and nxt.text == ".":
                self.next()
                col = self.next()
                if col.kind == "OP" and col.text == "*":
                    return Star(t.text, t.offset)
                if col.kind != "IDENT":
                    raise self.error("expected column name after '.'", col)
                return ColumnRef(t.text, col.text, t.offset)
            return ColumnRef(None, t.text, t.offset)
        raise self.error("expected expression")


def parse_sql(text: str) -> SqlAst:
    """Parse a SELECT statement (dialect subset). Deterministic.

    Raises SqlSyntaxError with the byte offset of the first problem.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty statement", 0)
    stripped = text.rstrip()
    if stripped.endswith(";"):
        text = stripped[:-1]
    p = _Parser(text)
    if not p.at_kw("SELECT", "WITH"):
        raise p.error("expected SELECT")
    return p.parse_statement()


# ---------------------------------------------------------------- scopes

class _Scope:
    """Alias/table bindings visible to one SELECT, chained to its parent."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.bindings: dict[str, str] = {}  # alias-or-name (lower) -> physical table (lower)

    def bind(self, name: str, table: str, offset: int):
        key = name.lower()
        if key in self.bindings:
            raise SqlSyntaxError(f"duplicate alias {name!r} in scope", offset)
        self.bindings[key] = table.lower()

    def local_tables(self) -> list[str]:
        return list(self.bindings.values())

    def resolve_qualifier(self, qualifier: str) -> str | None:
        scope: _Scope | None = self
        key = qualifier.lower()
        while scope is not None:
            if key in scope.bindings:
                return scope.bindings[key]
            scope = scope.parent
        return None

    def resolve_unqualified(self, column: str, schema: SchemaDocument) -> str:
        """Bind a bare column to the unique defining table, innermost scope
        first; an outer scope is consulted only when no local table matches."""
        scope: _Scope | None = self
        col = column.lower()
        while scope is not None:
            owners = sorted({t for t in scope.local_tables() if schema.has_column(t, col)})
            if len(owners) == 1:
                return owners[0]
            if len(owners) > 1:
                raise AmbiguousColumn(f"column {column!r} is defined by tables {owners}")
            scope = scope.parent
        raise UnknownColumn(f"column {column!r} not found in any in-scope table")


# ---------------------------------------------------------------- links

def extract_ground_truth(sql: str, schema: SchemaDocument) -> set[tuple[str, str]]:
    """Gold (table, column) links of one statement: parse, then one walk
    that resolves every reference in its scope and adds its link.

    `t.*` and bare `*` contribute every column of the tables they expand
    over; COUNT(*) and a compound's ORDER BY terms contribute nothing.
    """
    links: set[tuple[str, str]] = set()
    _link_query(parse_sql(sql), schema, None, links)
    for table, column in links:
        if not schema.has_column(table, column):
            raise UnknownColumn(f"{table}.{column} leaked past resolution")
    return links


def _link_query(node, schema: SchemaDocument, parent: _Scope | None,
                links: set) -> list[tuple[Select, _Scope]]:
    """Add the links of a SELECT or compound; returns each SELECT with its
    scope, left to right. Per SELECT the walk visits its tables, items,
    JOIN ONs, WHERE/HAVING/LIMIT, GROUP BY and ORDER BY, in that order."""
    if isinstance(node, SetOp):
        selects = (_link_query(node.left, schema, parent, links)
                   + _link_query(node.right, schema, parent, links))
        if node.order_by:
            outputs = [_output_columns(select, scope, schema) for select, scope in selects]
            for o in node.order_by:
                _match_output_column(o.expr, selects, outputs, schema)
        if node.limit is not None:
            _link_expr(node.limit, schema, _Scope(parent), links)
        return selects
    assert isinstance(node, Select)
    scope = _Scope(parent)
    for ref in node.from_tables + [j.table for j in node.joins]:
        if schema.table(ref.name) is None:
            raise UnknownTable(f"table {ref.name!r} not in schema")
        scope.bind(ref.alias or ref.name, ref.name, ref.offset)
    exprs: list = [it.expr for it in node.items]
    exprs += [j.on for j in node.joins if j.on is not None]
    for attr in (node.where, node.having, node.limit):
        if attr is not None:
            exprs.append(attr)
    if node.group_by:
        exprs += node.group_by
    if node.order_by:
        exprs += [o.expr for o in node.order_by]
    for e in exprs:
        _link_expr(e, schema, scope, links)
    return [(node, scope)]


def _star_tables(star: Star, scope: _Scope) -> list[str]:
    if star.qualifier is None:
        return scope.local_tables()
    table = scope.resolve_qualifier(star.qualifier)
    if table is None:
        raise UnknownTable(f"unknown table or alias {star.qualifier!r}")
    return [table]


def _resolve_column(ref: ColumnRef, scope: _Scope, schema: SchemaDocument) -> str:
    """The table `ref` names in `scope`. Raises UnknownTable, UnknownColumn
    or AmbiguousColumn when it names none or several."""
    if ref.qualifier is None:
        return scope.resolve_unqualified(ref.column, schema)
    table = scope.resolve_qualifier(ref.qualifier)
    if table is None:
        raise UnknownTable(f"unknown table or alias {ref.qualifier!r}")
    if not schema.has_column(table, ref.column):
        raise UnknownColumn(f"{table}.{ref.column} not in schema")
    return table


def _link_expr(node, schema: SchemaDocument, scope: _Scope, links: set):
    """Add the links of an expression: a column reference or star resolves
    in `scope`, a nested query gets a scope of its own below it, and any
    other node adds those of its operands in order."""
    if isinstance(node, ColumnRef):
        links.add((_resolve_column(node, scope, schema), node.column.lower()))
    elif isinstance(node, Star):
        for table in _star_tables(node, scope):
            links.update((table, col) for col in schema.table(table).column_names())
    elif isinstance(node, (Select, SetOp)):
        _link_query(node, schema, scope, links)
    elif isinstance(node, (Op, FuncCall)):
        for a in node.args:
            _link_expr(a, schema, scope, links)
    elif not isinstance(node, Literal):
        raise TypeError(f"unexpected expression node {type(node).__name__}")


def _match_output_column(term, selects: list[tuple[Select, _Scope]],
                         outputs: list[list[tuple[object, set[str]]]],
                         schema: SchemaDocument):
    """A compound's ORDER BY term must name an output column of one of its
    SELECTs (`_output_columns` of each): by 1-based position, by alias or
    column name, or by repeating a select item's expression. As in SQLite,
    a repeated expression is compared with its column references resolved
    in each SELECT's scope in turn, so `max(singer.age)` repeats
    `max(age)`; a SELECT in whose scope the term does not resolve cannot
    match it. Raises UnknownColumn otherwise, as SQLite does."""
    if isinstance(term, Literal) and isinstance(term.value, int):
        if 1 <= term.value <= len(outputs[0]):
            return
    else:
        for (_, scope), columns in zip(selects, outputs):
            try:
                resolved = _folded(term, scope, schema)
            except (UnknownTable, UnknownColumn, AmbiguousColumn):
                resolved = None
            if any(resolved is not None and resolved == expr
                   or isinstance(term, ColumnRef) and term.column.lower() in names
                   for expr, names in columns):
                return
    raise UnknownColumn("compound ORDER BY term does not match any column "
                        "in the result set")


def _output_columns(select: Select, scope: _Scope,
                    schema: SchemaDocument) -> list[tuple[object, set[str]]]:
    """(resolved expression, names) per output column of a SELECT, stars
    expanded; the names are its alias and, for a column reference, the
    column."""
    columns: list[tuple[object, set[str]]] = []
    for it in select.items:
        if isinstance(it.expr, Star):
            columns += [(None, {col}) for table in _star_tables(it.expr, scope)
                        for col in schema.table(table).column_names()]
            continue
        names = {it.alias.lower()} if it.alias else set()
        if isinstance(it.expr, ColumnRef):
            names.add(it.expr.column.lower())
        columns.append((_folded(it.expr, scope, schema), names))
    return columns


def _folded(node, scope: _Scope | None, schema: SchemaDocument):
    """`node` in the form in which a repeated expression is compared: every
    column reference bound to its table in `scope` (identifiers lowercase),
    and inside a nested query, where `scope` does not apply, lowercased as
    written. String literals stay as written; function names are lowercase
    from the parser."""
    if isinstance(node, ColumnRef):
        qualifier = (_resolve_column(node, scope, schema) if scope is not None
                     else node.qualifier and node.qualifier.lower())
        return replace(node, column=node.column.lower(), qualifier=qualifier)
    if isinstance(node, (Select, SetOp)):
        scope = None
    if isinstance(node, list):
        return [_folded(x, scope, schema) for x in node]
    if is_dataclass(node):
        return replace(node, **{f.name: _folded(getattr(node, f.name), scope, schema)
                                for f in fields(node)})
    return node
