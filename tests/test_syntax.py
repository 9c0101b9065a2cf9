"""Round-trip and error tests for the canonical textual format."""

from __future__ import annotations

import random

import pytest

from shaperef import lang
from shaperef.heaps import ListSegAtom, NodeAtom, TRUE_SPATIAL, normalize
from shaperef.syntax import ParseError, parse_heap, parse_term
from shaperef.terms import (Const, Multiset, NIL, PVar, PureAtom, TRUE_ATOM,
                            shifted)

from gens import random_heap


CASES = [
    "emp",
    "true",
    "false /\\ emp",
    "x=1 /\\ emp",
    "x=nil /\\ node(r,x',_) * list(x',nil,{x:1})",
    "node(x,nil,{1})",
    "node(_x,nil,_)",
    "node(x,y,{d'})",
    "list(x,nil)",
    "list(x,nil,{x:1,2:3})",
    "slseg(a,b,[0,10),{3:1,7:1})",
    "slseg(a,b,[lo',hi'))",
    "slseg(a,nil,[d,d+1))",
    "t!=nil /\\ res=0 /\\ true",
    "d=x /\\ true",
]


@pytest.mark.parametrize("text", CASES)
def test_round_trip_examples(text):
    h = parse_heap(text)
    assert parse_heap(str(h)) == h


def test_round_trip_random_normalized_heaps():
    rng = random.Random(13)
    for _ in range(200):
        for dom in ("mls", "rls", "sls"):
            h = random_heap(rng, dom)
            assert parse_heap(str(h)) == h


def test_parse_judgment():
    lhs, rhs = map(parse_heap, "node(x,nil,{1}) |- list(x,nil,{})".split("|-"))
    assert str(lhs) == "node(x,nil,{1})"
    assert str(rhs) == "list(x,nil)"


def test_parse_term_forms():
    assert str(parse_term("x'")) == "x'"
    assert str(parse_term("d+1")) == "d+1"
    assert str(parse_term("nil")) == "nil"
    assert str(parse_term("-3")) == "-3"


@pytest.mark.parametrize("bad", [
    "node(x,nil)",          # missing payload
    "list(x)",              # missing dst
    "x=",                   # missing rhs
    "x!=",                  # missing rhs at the end of input
    "x= /\\ list(x,nil)",   # missing rhs before /\
    "node(x,nil,_) %",      # trailing garbage
    "x=1 * node(x,nil,_)",  # a pure atom joined by *
    "slseg(a,b,[0,10],{})", # wrong interval bracket
    "list(x,y,{5:y})",      # multiplicity not an integer
    "list(x,y,{5:})",       # missing multiplicity
    "list(x,y,{5:-1})",     # negative multiplicity
    "list(x,y,{5:",         # input ends in a multiplicity
    "node(x,nil,_) *\n  list(y)",  # missing dst on the second line
    "x=nil+1 /\\ emp",      # nil takes no offset
    "node(nil+1,nil,_)",
    "slseg(x,nil,[nil+1,3))",
    "nil+1=x /\\ emp",
    "",                     # an empty heap
    "x=1 /\\ ",             # an empty part after /\
    "x /\\ emp",            # a pure part with no relation
    "false * node(x,nil,_)",  # a pure atom joined by *
])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as info:
        parse_heap(bad)
    if bad in ERROR_POSITIONS:
        assert (info.value.line, info.value.col) == ERROR_POSITIONS[bad]


# 1-based (line, column) of the offending token, or of the end of input
ERROR_POSITIONS = {
    "node(x,nil)": (1, 11),
    "x=": (1, 3),
    "x!=": (1, 4),
    "x= /\\ list(x,nil)": (1, 4),
    "node(x,nil,_) %": (1, 15),
    "x=1 * node(x,nil,_)": (1, 5),
    "list(x,y,{5:": (1, 13),
    "node(x,nil,_) *\n  list(y)": (2, 9),
    "x=nil+1 /\\ emp": (1, 6),
    "node(nil+1,nil,_)": (1, 9),
    "slseg(x,nil,[nil+1,3))": (1, 17),
    "nil+1=x /\\ emp": (1, 4),
    "": (1, 1),
    "x=1 /\\ ": (1, 8),
    "x /\\ emp": (1, 3),
    "false * node(x,nil,_)": (1, 7),
}


@pytest.mark.parametrize("text, pure, spatial", [
    # a keyword followed by a relation or an offset names a variable
    ("node=1 /\\ node(node,nil,_)",
     (PureAtom("=", PVar("node"), Const(1)),),
     (NodeAtom(PVar("node"), NIL, None),)),
    ("emp=2 /\\ emp", (PureAtom("=", PVar("emp"), Const(2)),), ()),
    ("list+1<=x /\\ list(list,nil)",
     (PureAtom("<=", shifted(PVar("list"), 1), PVar("x")),),
     (ListSegAtom(PVar("list"), NIL, Multiset()),)),
    # true is pure only where /\ follows it
    ("true /\\ true", (TRUE_ATOM,), (TRUE_SPATIAL,)),
    ("true * node(x,nil,_)", (),
     (TRUE_SPATIAL, NodeAtom(PVar("x"), NIL, None))),
])
def test_the_heap_parser_decides_each_part_from_its_first_tokens(
        text, pure, spatial):
    h = parse_heap(text)
    assert (h.pure, h.spatial) == (pure, spatial)


def test_parse_error_positions_count_lines():
    with pytest.raises(ParseError) as info:
        parse_heap("list(x,\n  y,{5:z})")
    assert (info.value.line, info.value.col) == (2, 8)


@pytest.mark.parametrize("name", [
    "x", "_x", "x1", "_", "node", "emp", "true", "next",
    "\u00e9", "x\u00e9", "\u00b2", "1x", "x'",
])
def test_program_and_heap_grammars_agree_on_identifiers(name):
    assert name not in lang.KEYWORDS
    try:
        lang.parse(f"{name} = 1;")
        in_program = True
    except ParseError:
        in_program = False
    try:
        in_heap = parse_term(name) == PVar(name)
    except ParseError:
        in_heap = False
    assert in_program == in_heap


def test_parse_error_is_the_frontend_error_and_a_value_error():
    assert ParseError is lang.ParseError
    with pytest.raises(ValueError):
        parse_heap("list(x)")


def test_multiset_bare_keys_default_to_one():
    h = parse_heap("list(x,nil,{x})")
    assert h == parse_heap("list(x,nil,{x:1})")
