"""Parser for the canonical textual form of terms, heaps and disjunctions.

The renderer is the ``__str__`` of each class; this module provides the
inverse.  Round trip: ``parse_heap(str(h)) == h`` for normalized heaps.

Grammar (ID, INT and whitespace as in ``shaperef.lang``):

    disj    := heap ("\\/" heap)*
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
    term    := "nil" | (SINT | ID | LVAR) ("+" INT)?

Its own tokens: LVAR is ``ID'``, a logical variable (a plain ID is a
program variable); SINT is an INT with an optional "-"; "/\\" joins the
parts of a heap and "\\/" the heaps of a disjunction; "_", the unknown
payload, is an ID everywhere else.
"""

from __future__ import annotations

import re
from typing import Optional

from .lang import ID, INT, SPACE, Cursor, ParseError
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
    TRUE_SPATIAL,
)


_RELATIONS = ("=", "!=", "<=", "<")


class _Parser(Cursor):
    TOKEN = re.compile(
        rf"{SPACE}(?:(?P<sym>/\\|\\/|!=|<=|[=<+*,:(){{}}\[\]])"
        rf"|(?P<lvar>{ID}')|(?P<id>{ID})|(?P<int>{INT})|(?P<neg>-{INT}))")

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind not in ("id", "lvar", "int", "neg"):
            self.fail("expected a term")
        self.next()
        if t.kind == "lvar":
            base: Term = LVar(t.text[:-1])
        elif t.kind == "id":
            base = NIL if t.text == "nil" else PVar(t.text)
        else:
            base = Const(int(t.text))
        if self.peek().kind == "+":
            if base is NIL:
                self.fail("nil takes no offset")
            self.next()
            k = self.expect("int", "an integer offset")
            base = shifted(base, int(k.text))
        return base

    # -- pure atoms ------------------------------------------------------------

    def pure_atom(self) -> PureAtom:
        if self.peek().text == "true":
            self.next()
            return TRUE_ATOM
        if self.peek().text == "false":
            self.next()
            return FALSE_ATOM
        lhs = self.term()
        if self.peek().kind not in _RELATIONS:
            self.fail("expected a relation")
        op = self.next().kind
        return PureAtom(op, lhs, self.term())

    def comparison_ahead(self) -> bool:
        """Does the next part start with a term and a relation, or with a
        term that is wrong past its first token (such as ``nil+1``)?"""
        save = self.pos
        try:
            self.term()
            return self.peek().kind in _RELATIONS
        except ParseError:
            return self.pos > save
        finally:
            self.pos = save

    # -- spatial ---------------------------------------------------------------

    def multiset(self) -> Multiset:
        self.expect("{")
        pairs: list[tuple[Term, int]] = []
        if self.peek().kind != "}":
            while True:
                t = self.term()
                n = 1
                if self.peek().kind == ":":
                    self.next()
                    n = int(self.expect("int", "a multiplicity").text)
                pairs.append((t, n))
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect("}")
        return Multiset.of(pairs)

    def spatial_atom(self) -> Optional[Spatial]:
        word = self.peek().text
        if word not in ("emp", "true", "node", "list", "slseg"):
            self.fail("expected a spatial atom")
        self.next()
        if word == "emp":
            return None
        if word == "true":
            return TRUE_SPATIAL
        self.expect("(")
        src = self.term()
        self.expect(",")
        dst = self.term()
        if word == "node":
            self.expect(",")
            data: Optional[Term] = None
            if self.peek().text == "_":
                self.next()
            elif self.peek().kind == "{":
                self.next()
                data = self.term()
                self.expect("}")
            else:
                data = self.term()
            self.expect(")")
            return NodeAtom(src, dst, data)
        if word == "slseg":
            self.expect(",")
            self.expect("[")
            lo = self.term()
            self.expect(",")
            hi = self.term()
            self.expect(")")
        ms = Multiset()
        if self.peek().kind == ",":
            self.next()
            ms = self.multiset()
        self.expect(")")
        if word == "list":
            return ListSegAtom(src, dst, ms)
        return SortedSegAtom(src, dst, lo, hi, ms)

    # -- heaps -----------------------------------------------------------------

    def heap(self) -> SymbolicHeap:
        pure: list[PureAtom] = []
        spatial: list[Spatial] = []
        while True:
            save = self.pos
            # a part is pure if it parses as a pure atom followed by /\;
            # past a term and a relation, its errors are the pure atom's
            committed = self.comparison_ahead()
            try:
                p = self.pure_atom()
                if self.peek().kind == "/\\":
                    self.next()
                    pure.append(p)
                    continue
                if self.peek().kind in ("eof", "\\/"):
                    if p == TRUE_ATOM:
                        # a trailing bare "true" is the arbitrary-heap atom
                        return SymbolicHeap(tuple(pure), (TRUE_SPATIAL,))
                    # heap made of pure atoms only (lenient: implicit emp)
                    pure.append(p)
                    return SymbolicHeap(tuple(pure), ())
                if committed:
                    self.fail("expected '/\\' or end of heap")
            except ParseError:
                if committed:
                    raise
            self.pos = save
            break
        while True:
            a = self.spatial_atom()
            if a is not None:
                spatial.append(a)
            if self.peek().kind == "*":
                self.next()
                continue
            break
        return SymbolicHeap(tuple(pure), tuple(spatial))

    def disj(self) -> Disj:
        heaps = [self.heap()]
        while self.peek().kind == "\\/":
            self.next()
            heaps.append(self.heap())
        return Disj(tuple(heaps))


def _parse(text: str, rule, what: str):
    p = _Parser(text)
    result = rule(p)
    if p.peek().kind != "eof":
        p.fail(f"trailing input after {what}")
    return result


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term, "term")


def parse_heap(text: str) -> SymbolicHeap:
    return _parse(text, _Parser.heap, "heap")


def parse_disj(text: str) -> Disj:
    return _parse(text, _Parser.disj, "disjunction")
