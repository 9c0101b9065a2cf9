"""Source language frontend: lexer, parser, AST, and renderer for the small
pointer-manipulating language the analyzer consumes.

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

from dataclasses import dataclass
from typing import Optional, Union


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
    op: str  # "==", "!=", "<=", "<"
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
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = ("new", "Node", "while", "if", "else", "assert", "nil")
_SYMBOLS = ("==", "!=", "<=", "&&", "||", "->",
            "=", ";", "(", ")", "{", "}", ",", "<", "!", "*")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "id", "int", "kw", symbol text, "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {got!r}", t.line, t.col)

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what or kind!r}")
        return self.next()

    def expect_kw(self, word: str) -> None:
        t = self.peek()
        if t.kind != "kw" or t.text != word:
            self.fail(f"expected {word!r}")
        self.next()

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
        t = self.peek()
        if t.kind == "kw" and t.text == "while":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            return While(c, self.block())
        if t.kind == "kw" and t.text == "if":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            then = self.block()
            els: tuple[Stmt, ...] = ()
            nxt = self.peek()
            if nxt.kind == "kw" and nxt.text == "else":
                self.next()
                els = self.block()
            return If(c, then, els)
        if t.kind == "kw" and t.text == "assert":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            self.expect(";")
            return Assert(c)
        if t.kind == "id":
            name = self.next().text
            if self.peek().kind == "->":
                self.next()
                f = self.field()
                self.expect("=")
                e = self.expr()
                self.expect(";")
                return Store(name, f, e)
            self.expect("=")
            nxt = self.peek()
            if nxt.kind == "kw" and nxt.text == "new":
                self.next()
                self.expect_kw("Node")
                self.expect("(")
                n_e = self.expr()
                self.expect(",")
                d_e = self.expr()
                self.expect(")")
                self.expect(";")
                return AllocNode(name, n_e, d_e)
            if nxt.kind == "id" and self.peek(1).kind == "->":
                src = self.next().text
                self.next()  # ->
                f = self.field()
                self.expect(";")
                return Load(name, src, f)
            e = self.expr()
            self.expect(";")
            return Assign(name, e)
        self.fail("expected a statement")
        raise AssertionError  # unreachable

    def field(self) -> str:
        t = self.peek()
        if t.kind == "id" and t.text in FIELDS:
            self.next()
            return t.text
        self.fail("expected 'next' or 'data'")
        raise AssertionError

    # -- expressions and conditions ----------------------------------------

    def expr(self) -> Expr:
        t = self.peek()
        if t.kind == "id":
            self.next()
            return VarE(t.text)
        if t.kind == "kw" and t.text == "nil":
            self.next()
            return NilE()
        if t.kind == "int":
            self.next()
            return IntE(int(t.text))
        if t.kind == "*":
            self.next()
            return NondetE()
        self.fail("expected an expression")
        raise AssertionError

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
        if t.kind == "*" and self.peek(1).kind not in ("==", "!=", "<=", "<"):
            self.next()
            return NondetC()
        lhs = self.expr()
        op_tok = self.peek()
        if op_tok.kind not in ("==", "!=", "<=", "<"):
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
