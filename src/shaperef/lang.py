"""Source language frontend: lexer, parser, AST, and renderer for the small
pointer-manipulating language the analyzer consumes.

Lexical rules, shared with the heap grammar of ``shaperef.syntax``: an ID
is an ASCII letter or "_" followed by ASCII letters, digits and "_"; an
INT is one or more ASCII digits; spaces, tabs, carriage returns and
newlines separate tokens.  Each grammar states its tokens as one pattern,
``lex`` splits a text by it, and both recursive-descent parsers extend
``Cursor``, so a ParseError in either carries the line and column of the
token at fault.  Here the KEYWORDS are not IDs.

Grammar (this docstring is its reference):

    program := stmt*
    stmt    := ID "=" expr ";"
             | ID "=" "new" "Node" "(" expr "," expr ")" ";"
             | ID "=" ID "->" FIELD ";"
             | ID "->" FIELD "=" expr ";"
             | "while" "(" cond ")" block
             | "if" "(" cond ")" block ["else" block]
             | "assert" "(" cond ")" ";"
    block   := "{" stmt* "}" | stmt
    expr    := ID | "nil" | INT | "*"
    FIELD   := "next" | "data"
    cond    := "*" | expr ("=="|"!="|"<="|"<") expr
             | cond "&&" cond | cond "||" cond | "!" cond

"&&" binds tighter than "||", both associate to the left, and "!" applies
to the single comparison (or "*", or another "!") that follows it.  "new
Node(n, d)" allocates a cell with next pointer n and data value d.  "*" is
a nondeterministic choice: an arbitrary value in expression position, an
arbitrary branch in condition position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Optional, Union


class ParseError(ValueError):
    """Raised on malformed input, here and by ``shaperef.syntax``; carries
    the 1-based line and column."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarE:
    name: str


@dataclass(frozen=True)
class NilE:
    pass


@dataclass(frozen=True)
class IntE:
    value: int


@dataclass(frozen=True)
class NondetE:
    pass


Expr = Union[VarE, NilE, IntE, NondetE]


@dataclass(frozen=True)
class NondetC:
    pass


@dataclass(frozen=True)
class RelC:
    op: str  # one of _RELOPS
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class AndC:
    lhs: "Cond"
    rhs: "Cond"


@dataclass(frozen=True)
class OrC:
    lhs: "Cond"
    rhs: "Cond"


@dataclass(frozen=True)
class NotC:
    sub: "Cond"


Cond = Union[NondetC, RelC, AndC, OrC, NotC]

FIELDS = ("next", "data")


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class AllocNode:
    var: str
    nxt: Expr
    data: Expr


@dataclass(frozen=True)
class Load:
    var: str
    src: str
    field: str


@dataclass(frozen=True)
class Store:
    dst: str
    field: str
    expr: Expr


@dataclass(frozen=True)
class While:
    cond: Cond
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class If:
    cond: Cond
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class Assert:
    cond: Cond


Stmt = Union[Assign, AllocNode, Load, Store, While, If, Assert]


@dataclass(frozen=True)
class Ast:
    stmts: tuple[Stmt, ...] = ()

    def count_statements(self) -> int:
        """Number of statements, counting loop/branch bodies recursively."""
        def walk(stmts) -> int:
            n = 0
            for s in stmts:
                n += 1
                if isinstance(s, While):
                    n += walk(s.body)
                elif isinstance(s, If):
                    n += walk(s.then) + walk(s.els)
            return n
        return walk(self.stmts)

    def variables(self) -> tuple[str, ...]:
        """Program variables in order of first occurrence."""
        seen: dict[str, None] = {}

        def expr(e):
            if isinstance(e, VarE):
                seen.setdefault(e.name)

        def cond(c):
            if isinstance(c, RelC):
                expr(c.lhs)
                expr(c.rhs)
            elif isinstance(c, (AndC, OrC)):
                cond(c.lhs)
                cond(c.rhs)
            elif isinstance(c, NotC):
                cond(c.sub)

        def walk(stmts):
            for s in stmts:
                if isinstance(s, Assign):
                    seen.setdefault(s.var)
                    expr(s.expr)
                elif isinstance(s, AllocNode):
                    seen.setdefault(s.var)
                    expr(s.nxt)
                    expr(s.data)
                elif isinstance(s, Load):
                    seen.setdefault(s.var)
                    seen.setdefault(s.src)
                elif isinstance(s, Store):
                    seen.setdefault(s.dst)
                    expr(s.expr)
                elif isinstance(s, While):
                    cond(s.cond)
                    walk(s.body)
                elif isinstance(s, If):
                    cond(s.cond)
                    walk(s.then)
                    walk(s.els)
                elif isinstance(s, Assert):
                    cond(s.cond)
        walk(self.stmts)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Lexer and token cursor, shared with ``shaperef.syntax``
# ---------------------------------------------------------------------------

KEYWORDS = ("new", "Node", "while", "if", "else", "assert", "nil")
SPACE = r"[ \t\r\n]*"
ID = r"[A-Za-z_][A-Za-z0-9_]*"
INT = r"[0-9]+"
_SPACE = re.compile(SPACE)


class Token(NamedTuple):
    kind: str  # its pattern group's name, a "sym" token's text, or "eof"
    text: str
    offset: int  # where it starts in the text


def lex(text: str, token: re.Pattern[str]) -> list[Token]:
    """The tokens of ``text`` by the pattern ``token``, which matches
    SPACE and then one token; its named groups are the token kinds, and a
    ``sym`` token's kind is its text.  Reading stops at the first place
    ``token`` does not match, where an ``eof`` token ends the list: at
    ``len(text)`` when the whole text was read."""
    toks = []
    pos = 0
    while m := token.match(text, pos):
        kind = m.lastgroup
        word = m[kind]
        toks.append(Token(word if kind == "sym" else kind, word,
                          m.start(kind)))
        pos = m.end()
    toks.append(Token("eof", "", _SPACE.match(text, pos).end()))
    return toks


class Cursor:
    """A position in the tokens of ``text``, for a recursive-descent parser
    whose class sets ``TOKEN``, the grammar's token pattern."""

    TOKEN: re.Pattern[str]

    def __init__(self, text: str):
        self.text = text
        self.toks = lex(text, self.TOKEN)
        self.pos = 0
        end = self.toks[-1].offset
        if end < len(text):
            self.fail(f"unexpected character {text[end]!r}", end)

    def peek(self, ahead: int = 0) -> Token:
        """The current token, or with ``ahead`` one past it (only where the
        current token is not ``eof``)."""
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        if self.peek().kind != kind:
            self.fail(f"expected {what or repr(kind)}")
        return self.next()

    def fail(self, msg: str, offset: Optional[int] = None) -> NoReturn:
        """Raise a ParseError at ``offset`` in the text, by default at the
        current token, which the message then names."""
        if offset is None:
            t = self.peek()
            msg = f"{msg}, got {t.text or 'end of input'!r}"
            offset = t.offset
        raise ParseError(msg, self.text.count("\n", 0, offset) + 1,
                         offset - self.text.rfind("\n", 0, offset))


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

_RELOPS = ("==", "!=", "<=", "<")


class _Parser(Cursor):
    TOKEN = re.compile(
        rf"{SPACE}(?:(?P<sym>(?:{'|'.join(KEYWORDS)})\b"
        r"|==|!=|<=|&&|\|\||->|[=;(){},<!*])"
        rf"|(?P<id>{ID})|(?P<int>{INT}))")

    # -- program / statements ----------------------------------------------

    def program(self) -> Ast:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.stmt())
        return Ast(tuple(stmts))

    def block(self) -> tuple[Stmt, ...]:
        if self.peek().kind == "{":
            self.next()
            stmts = []
            while self.peek().kind != "}":
                if self.peek().kind == "eof":
                    self.fail("expected '}'")
                stmts.append(self.stmt())
            self.next()
            return tuple(stmts)
        return (self.stmt(),)

    def stmt(self) -> Stmt:
        kind = self.peek().kind
        if kind in ("while", "if", "assert"):
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            if kind == "while":
                return While(c, self.block())
            if kind == "assert":
                self.expect(";")
                return Assert(c)
            then = self.block()
            if self.peek().kind == "else":
                self.next()
                return If(c, then, self.block())
            return If(c, then)
        name = self.expect("id", "a statement").text
        if self.peek().kind == "->":
            self.next()
            f = self.field()
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return Store(name, f, e)
        self.expect("=")
        if self.peek().kind == "new":
            self.next()
            self.expect("Node")
            self.expect("(")
            n_e = self.expr()
            self.expect(",")
            d_e = self.expr()
            self.expect(")")
            self.expect(";")
            return AllocNode(name, n_e, d_e)
        if self.peek().kind == "id" and self.peek(1).kind == "->":
            src = self.next().text
            self.next()  # ->
            f = self.field()
            self.expect(";")
            return Load(name, src, f)
        e = self.expr()
        self.expect(";")
        return Assign(name, e)

    def field(self) -> str:
        if self.peek().text not in FIELDS:
            self.fail("expected 'next' or 'data'")
        return self.next().text

    # -- expressions and conditions ----------------------------------------

    def expr(self) -> Expr:
        t = self.peek()
        if t.kind not in ("id", "nil", "int", "*"):
            self.fail("expected an expression")
        self.next()
        if t.kind == "id":
            return VarE(t.text)
        if t.kind == "int":
            return IntE(int(t.text))
        return NilE() if t.kind == "nil" else NondetE()

    def cond(self) -> Cond:
        left = self.cond_and()
        while self.peek().kind == "||":
            self.next()
            left = OrC(left, self.cond_and())
        return left

    def cond_and(self) -> Cond:
        left = self.cond_primary()
        while self.peek().kind == "&&":
            self.next()
            left = AndC(left, self.cond_primary())
        return left

    def cond_primary(self) -> Cond:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return NotC(self.cond_primary())
        if t.kind == "*" and self.peek(1).kind not in _RELOPS:
            self.next()
            return NondetC()
        lhs = self.expr()
        op_tok = self.peek()
        if op_tok.kind not in _RELOPS:
            self.fail("expected a comparison operator")
        self.next()
        rhs = self.expr()
        return RelC(op_tok.kind, lhs, rhs)


def parse(text: str) -> Ast:
    """Parse program text; raises ParseError with line/column on bad input."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Renderer (inverse of parse on parser-produced trees)
# ---------------------------------------------------------------------------

def render_expr(e: Expr) -> str:
    if isinstance(e, VarE):
        return e.name
    if isinstance(e, NilE):
        return "nil"
    if isinstance(e, IntE):
        return str(e.value)
    return "*"


def render_cond(c: Cond) -> str:
    if isinstance(c, NondetC):
        return "*"
    if isinstance(c, RelC):
        return f"{render_expr(c.lhs)} {c.op} {render_expr(c.rhs)}"
    if isinstance(c, AndC):
        return f"{render_cond(c.lhs)} && {render_cond(c.rhs)}"
    if isinstance(c, OrC):
        return f"{render_cond(c.lhs)} || {render_cond(c.rhs)}"
    return f"!{render_cond(c.sub)}"


def render_stmt(s: Stmt) -> str:
    """Single-line rendering of a simple statement (no trailing newline)."""
    if isinstance(s, Assign):
        return f"{s.var} = {render_expr(s.expr)};"
    if isinstance(s, AllocNode):
        return f"{s.var} = new Node({render_expr(s.nxt)}, {render_expr(s.data)});"
    if isinstance(s, Load):
        return f"{s.var} = {s.src}->{s.field};"
    if isinstance(s, Store):
        return f"{s.dst}->{s.field} = {render_expr(s.expr)};"
    if isinstance(s, Assert):
        return f"assert({render_cond(s.cond)});"
    raise ValueError(f"not a simple statement: {s}")


def render(ast: Ast) -> str:
    """Pretty-print a program; parse(render(a)) == a for parser output."""
    out: list[str] = []

    def walk(stmts, depth):
        pad = "  " * depth
        for s in stmts:
            if isinstance(s, While):
                out.append(f"{pad}while ({render_cond(s.cond)}) {{")
                walk(s.body, depth + 1)
                out.append(pad + "}")
            elif isinstance(s, If):
                out.append(f"{pad}if ({render_cond(s.cond)}) {{")
                walk(s.then, depth + 1)
                if s.els:
                    out.append(pad + "} else {")
                    walk(s.els, depth + 1)
                out.append(pad + "}")
            else:
                out.append(pad + render_stmt(s))
    walk(ast.stmts, 0)
    return "\n".join(out) + ("\n" if out else "")
