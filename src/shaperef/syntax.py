"""Parser for the canonical textual form of terms, heaps and disjunctions.

The renderer is the ``__str__`` of each class; this module provides the
inverse.  Round trip: ``parse_heap(str(h)) == h`` for normalized heaps.

Grammar (whitespace insignificant):

    disj    := "TOP" | heap ("\\/" heap)*
    heap    := (pure "/\\")* spatial | pure ("/\\" pure)*
    spatial := satom ("*" satom)*
    satom   := "emp" | "true"
             | "node" "(" term "," term "," payload ")"
             | "list" "(" term "," term ("," mset)? ")"
             | "slseg" "(" term "," term "," "[" term "," term ")" ("," mset)? ")"
    payload := "_" | term | "{" term "}"
    mset    := "{" (entry ("," entry)*)? "}"
    entry   := term (":" INT)?
    pure    := "true" | "false" | term relop term
    relop   := "=" | "!=" | "<=" | "<"
    term    := ("nil" | INT | ID | ID "'") ("+" INT)?

``ID'`` is a logical variable, plain ``ID`` a program variable.
"""

from __future__ import annotations

import re
from typing import NoReturn, Optional, Union

from .lang import ParseError
from .terms import (
    Const,
    LVar,
    Multiset,
    NIL,
    PVar,
    PureAtom,
    Term,
    TRUE_ATOM,
    FALSE_ATOM,
    shifted,
)
from .heaps import (
    Disj,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    TOP,
    TRUE_SPATIAL,
    TopState,
)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lop>/\\|\\/|\|-)|(?P<op>!=|<=|[=<+*,:(){}\[\)\]])"
    r"|(?P<int>-?\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*'?))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[str] = []
        self.offsets: list[int] = []  # where each token starts in text
        pos = 0
        while m := _TOKEN_RE.match(text, pos):
            self.toks.append(m.group(m.lastgroup))
            self.offsets.append(m.start(m.lastgroup))
            pos = m.end()
        self.i = 0
        rest = text[pos:].strip()
        if rest:
            raise ParseError(f"cannot tokenize at: {rest[:20]!r}",
                             *self._line_col(text.index(rest[0], pos)))

    def _line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column of ``text[offset]``."""
        return (self.text.count("\n", 0, offset) + 1,
                offset - self.text.rfind("\n", 0, offset))

    def fail(self, msg: str, at: Optional[int] = None) -> NoReturn:
        """Raise at token ``at`` (default: the last one consumed)."""
        i = self.i - 1 if at is None else at
        offset = self.offsets[i] if i < len(self.toks) else len(self.text)
        raise ParseError(msg, *self._line_col(offset))

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            self.fail("unexpected end of input", at=self.i)
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            self.fail(f"expected {tok!r}, got {got!r}")

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        t = self.next()
        if t == "nil":
            base: Term = NIL
        elif re.fullmatch(r"-?\d+", t):
            base = Const(int(t))
        elif t.endswith("'"):
            base = LVar(t[:-1])
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            base = PVar(t)
        else:
            self.fail(f"expected term, got {t!r}")
        if self.peek() == "+":
            self.next()
            k = self.next()
            if not re.fullmatch(r"\d+", k):
                self.fail(f"expected integer offset, got {k!r}")
            base = shifted(base, int(k))
        return base

    # -- pure atoms ------------------------------------------------------------

    def pure_atom(self) -> PureAtom:
        if self.peek() == "true":
            self.next()
            return TRUE_ATOM
        if self.peek() == "false":
            self.next()
            return FALSE_ATOM
        lhs = self.term()
        op = self.next()
        if op not in ("=", "!=", "<=", "<"):
            self.fail(f"expected relation, got {op!r}")
        rhs = self.term()
        return PureAtom(op, lhs, rhs)

    # -- spatial ---------------------------------------------------------------

    def multiset(self) -> Multiset:
        self.expect("{")
        pairs: list[tuple[Term, int]] = []
        if self.peek() != "}":
            while True:
                t = self.term()
                n = 1
                if self.peek() == ":":
                    self.next()
                    k = self.next()
                    if not re.fullmatch(r"\d+", k):
                        self.fail(f"expected multiplicity, got {k!r}")
                    n = int(k)
                pairs.append((t, n))
                if self.peek() != ",":
                    break
                self.next()
        self.expect("}")
        return Multiset.of(pairs)

    def spatial_atom(self) -> Optional[Spatial]:
        t = self.next()
        if t == "emp":
            return None
        if t == "true":
            return TRUE_SPATIAL
        if t == "node":
            self.expect("(")
            at = self.term()
            self.expect(",")
            nxt = self.term()
            self.expect(",")
            if self.peek() == "_":
                self.next()
                data: Optional[Term] = None
            elif self.peek() == "{":
                self.next()
                data = self.term()
                self.expect("}")
            else:
                data = self.term()
            self.expect(")")
            return NodeAtom(at, nxt, data)
        if t == "list":
            self.expect("(")
            src = self.term()
            self.expect(",")
            dst = self.term()
            ms = Multiset()
            if self.peek() == ",":
                self.next()
                ms = self.multiset()
            self.expect(")")
            return ListSegAtom(src, dst, ms)
        if t == "slseg":
            self.expect("(")
            src = self.term()
            self.expect(",")
            dst = self.term()
            self.expect(",")
            self.expect("[")
            lo = self.term()
            self.expect(",")
            hi = self.term()
            self.expect(")")
            ms = Multiset()
            if self.peek() == ",":
                self.next()
                ms = self.multiset()
            self.expect(")")
            return SortedSegAtom(src, dst, lo, hi, ms)
        self.fail(f"expected spatial atom, got {t!r}")

    # -- heaps -----------------------------------------------------------------

    def heap(self) -> SymbolicHeap:
        pure: list[PureAtom] = []
        spatial: list[Spatial] = []
        while True:
            save = self.i
            # a part is pure if it parses as a pure atom followed by /\
            try:
                p = self.pure_atom()
                if self.peek() == "/\\":
                    self.next()
                    pure.append(p)
                    continue
                if self.peek() in (None, "\\/", "|-"):
                    if p == TRUE_ATOM:
                        # a trailing bare "true" is the arbitrary-heap atom
                        return SymbolicHeap(tuple(pure), (TRUE_SPATIAL,))
                    # heap made of pure atoms only (lenient: implicit emp)
                    pure.append(p)
                    return SymbolicHeap(tuple(pure), ())
            except ParseError:
                pass
            self.i = save
            break
        while True:
            a = self.spatial_atom()
            if a is not None:
                spatial.append(a)
            if self.peek() == "*":
                self.next()
                continue
            break
        return SymbolicHeap(tuple(pure), tuple(spatial))

    def disj(self) -> Union[Disj, TopState]:
        if self.peek() == "TOP":
            self.next()
            return TOP
        heaps = [self.heap()]
        while self.peek() == "\\/":
            self.next()
            heaps.append(self.heap())
        return Disj(tuple(heaps))


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if not p.at_end():
        p.fail(f"trailing input after term: {text!r}", at=p.i)
    return t


def parse_heap(text: str) -> SymbolicHeap:
    p = _Parser(text)
    h = p.heap()
    if not p.at_end():
        p.fail(f"trailing input after heap: {text!r}", at=p.i)
    return h


def parse_disj(text: str) -> Union[Disj, TopState]:
    p = _Parser(text)
    d = p.disj()
    if not p.at_end():
        p.fail(f"trailing input after disjunction: {text!r}", at=p.i)
    return d


def parse_judgment(text: str) -> tuple[SymbolicHeap, SymbolicHeap]:
    """Parse ``lhs |- rhs`` (a single entailment query)."""
    p = _Parser(text)
    lhs = p.heap()
    p.expect("|-")
    rhs = p.heap()
    if not p.at_end():
        p.fail(f"trailing input after judgment: {text!r}", at=p.i)
    return lhs, rhs
