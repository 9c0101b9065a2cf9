"""Parser for the canonical textual form of terms and heaps.

The renderer is the ``__str__`` of each class; this module provides the
inverse.  Round trip: ``parse_heap(str(h)) == h`` for normalized heaps.

Grammar (ID, INT and whitespace as in ``shaperef.lang``):

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
parts of a heap; "_", the unknown payload, is an ID everywhere else.

The heap rule is decided before each part is read, from at most its first
two tokens, and never by backtracking.  ``true`` starts a pure atom only
where "/\\" follows it; ``emp``, ``node``, ``list`` and ``slseg`` start a
spatial atom unless a relation or an offset's "+" follows, where they name
a variable; the end of input starts a spatial part, so an empty part is a
missing spatial atom.  Any other token starts a pure atom, which "/\\" or
the end of input must follow.  So an error is reported in the part that
the first tokens chose.
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
    _PURE_OPS,
    shifted,
)
from .heaps import (
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    TRUE_SPATIAL,
)

__all__ = ["ParseError", "parse_heap", "parse_term"]


class _Parser(Cursor):
    TOKEN = re.compile(
        rf"{SPACE}(?:(?P<sym>/\\|!=|<=|[=<+*,:(){{}}\[\]])"
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
        if self.peek().kind not in _PURE_OPS:
            self.fail("expected a relation")
        op = self.next().kind
        return PureAtom(op, lhs, self.term())

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

    def spatial_ahead(self) -> bool:
        """Does the next part of the heap start with a spatial atom?  Read
        from at most two tokens, by the rule of the module docstring."""
        t = self.peek()
        if t.kind == "eof":
            return True  # an empty part is a missing spatial atom
        if t.text == "true":
            return self.peek(1).kind != "/\\"
        # a relation or an offset's "+" makes the word a term
        return (t.text in ("emp", "node", "list", "slseg")
                and self.peek(1).kind not in ("+", *_PURE_OPS))

    def heap(self) -> SymbolicHeap:
        pure: list[PureAtom] = []
        while not self.spatial_ahead():
            pure.append(self.pure_atom())
            if self.peek().kind == "eof":
                # heap made of pure atoms only (lenient: implicit emp)
                return SymbolicHeap(tuple(pure), ())
            self.expect("/\\", "'/\\' or end of heap")
        spatial: list[Spatial] = []
        while True:
            a = self.spatial_atom()
            if a is not None:
                spatial.append(a)
            if self.peek().kind != "*":
                return SymbolicHeap(tuple(pure), tuple(spatial))
            self.next()


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
