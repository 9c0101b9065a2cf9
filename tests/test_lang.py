"""Lexer, parser, AST, and renderer tests for the source language."""

from pathlib import Path

import pytest

from shaperef.cfg import build_cfg
from shaperef.lang import (AllocNode, AndC, Assert, Assign, Ast, If, IntE,
                           Load, NilE, NondetC, NondetE, NotC, OrC, ParseError,
                           RelC, Store, VarE, While, parse, render)

RUNNING_EXAMPLE = (Path(__file__).resolve().parent.parent / "benchmarks"
                   / "running_example.hl").read_text()


# ---------------------------------------------------------------------------
# The membership-scan example program
# ---------------------------------------------------------------------------

def test_running_example_statement_and_loop_counts():
    ast = parse(RUNNING_EXAMPLE)
    assert ast.count_statements() == 15
    assert len(build_cfg(ast).loop_heads) == 3


def test_running_example_variables_in_first_use_order():
    assert parse(RUNNING_EXAMPLE).variables() == ("r", "x", "t", "res", "d")


def test_running_example_shape():
    ast = parse(RUNNING_EXAMPLE)
    kinds = [type(s).__name__ for s in ast.stmts]
    assert kinds == ["Assign", "While", "Assign", "AllocNode", "While",
                     "Assign", "Assign", "While", "Assert"]
    scan = ast.stmts[7]
    assert isinstance(scan.cond, AndC)
    assert scan.cond.lhs == RelC("==", VarE("res"), IntE(0))
    assert scan.cond.rhs == RelC("!=", VarE("t"), NilE())
    body_kinds = [type(s).__name__ for s in scan.body]
    assert body_kinds == ["Load", "If", "Load"]
    branch = scan.body[1]
    assert branch.then == (Assign("res", IntE(1)),)
    assert branch.els == ()


# ---------------------------------------------------------------------------
# Statements and expressions
# ---------------------------------------------------------------------------

def test_empty_program_parses_to_empty_ast():
    assert parse("") == Ast(())
    assert parse("  \n\t ") == Ast(())


def test_simple_statements():
    assert parse("x = y;").stmts == (Assign("x", VarE("y")),)
    assert parse("x = nil;").stmts == (Assign("x", NilE()),)
    assert parse("x = 42;").stmts == (Assign("x", IntE(42)),)
    assert parse("x = *;").stmts == (Assign("x", NondetE()),)
    assert parse("p = new Node(q, 7);").stmts == \
        (AllocNode("p", VarE("q"), IntE(7)),)
    assert parse("p = new Node(*, *);").stmts == \
        (AllocNode("p", NondetE(), NondetE()),)
    assert parse("x = y->next;").stmts == (Load("x", "y", "next"),)
    assert parse("x = y->data;").stmts == (Load("x", "y", "data"),)
    assert parse("y->next = nil;").stmts == (Store("y", "next", NilE()),)
    assert parse("y->data = 3;").stmts == (Store("y", "data", IntE(3)),)
    assert parse("assert(x == nil);").stmts == \
        (Assert(RelC("==", VarE("x"), NilE())),)


def test_several_statements_on_one_line():
    assert parse("t = r; res = 0;").stmts == \
        (Assign("t", VarE("r")), Assign("res", IntE(0)))


def test_braced_and_braceless_blocks():
    braced = parse("if (d == x) { res = 1; }")
    bare = parse("if (d == x) res = 1;")
    assert braced == bare
    loop = parse("while (x != nil) x = x->next;")
    assert loop.stmts == (While(RelC("!=", VarE("x"), NilE()),
                                (Load("x", "x", "next"),)),)


def test_if_else_and_chaining():
    ast = parse("if (a == 1) { x = 1; } else { x = 2; }")
    s = ast.stmts[0]
    assert s.then == (Assign("x", IntE(1)),)
    assert s.els == (Assign("x", IntE(2)),)
    chained = parse("if (a == 1) x = 1; else if (a == 2) x = 2;")
    outer = chained.stmts[0]
    assert isinstance(outer.els[0], If)
    assert outer.els[0].then == (Assign("x", IntE(2)),)


def test_nested_loops_and_statement_count():
    ast = parse("while (*) { while (*) { x = 1; } y = 2; }")
    assert ast.count_statements() == 4
    assert len(build_cfg(ast).loop_heads) == 2


# ---------------------------------------------------------------------------
# Conditions: precedence, associativity, nondeterminism
# ---------------------------------------------------------------------------

def cond_of(text):
    return parse(f"while ({text}) {{ }}").stmts[0].cond


def test_and_binds_tighter_than_or():
    c = cond_of("a == 1 && b == 2 || c == 3")
    assert isinstance(c, OrC) and isinstance(c.lhs, AndC)
    c = cond_of("a == 1 || b == 2 && c == 3")
    assert isinstance(c, OrC) and isinstance(c.rhs, AndC)


def test_connectives_associate_left():
    c = cond_of("a == 1 && b == 2 && c == 3")
    assert isinstance(c, AndC) and isinstance(c.lhs, AndC)
    c = cond_of("a == 1 || b == 2 || c == 3")
    assert isinstance(c, OrC) and isinstance(c.lhs, OrC)


def test_negation_applies_to_following_comparison():
    c = cond_of("!a == 1 && b == 2")
    assert isinstance(c, AndC)
    assert c.lhs == NotC(RelC("==", VarE("a"), IntE(1)))
    assert cond_of("!!a == 1") == NotC(NotC(RelC("==", VarE("a"), IntE(1))))
    assert cond_of("!*") == NotC(NondetC())


def test_all_comparison_operators():
    assert cond_of("a == b") == RelC("==", VarE("a"), VarE("b"))
    assert cond_of("a != b") == RelC("!=", VarE("a"), VarE("b"))
    assert cond_of("a <= b") == RelC("<=", VarE("a"), VarE("b"))
    assert cond_of("a < b") == RelC("<", VarE("a"), VarE("b"))


def test_star_as_condition_versus_star_as_operand():
    assert cond_of("*") == NondetC()
    assert cond_of("* == x") == RelC("==", NondetE(), VarE("x"))
    assert cond_of("* != *") == RelC("!=", NondetE(), NondetE())
    assert cond_of("x < *") == RelC("<", VarE("x"), NondetE())


# ---------------------------------------------------------------------------
# Parse errors carry line and column
# ---------------------------------------------------------------------------

def err(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


def test_missing_expression_reports_position():
    e = err("x = ;")
    assert (e.line, e.col) == (1, 5)
    assert "expression" in str(e)


def test_error_positions_track_lines():
    e = err("x = 1;\ny = 2;\nz = ;\n")
    assert (e.line, e.col) == (3, 5)


# each malformed input with the 1-based (line, column) of the token at fault
MALFORMED = [
    ("x", (1, 2)),                      # lone identifier
    ("x = 1", (1, 6)),                  # missing semicolon
    ("x = new Nod(1, 2);", (1, 9)),     # misspelt Node
    ("p = new Node(1);", (1, 15)),      # missing second argument
    ("while x == nil) { }", (1, 7)),    # missing open paren
    ("if (x == 1) { y = 2;", (1, 21)),  # unclosed brace
    ("assert(x == 1)", (1, 15)),        # missing semicolon
    ("x = y->foo;", (1, 8)),            # unknown field
    ("nil = 3;", (1, 1)),               # keyword as target
    ("x = #;", (1, 5)),                 # unknown character
    ("while (x) { }", (1, 9)),          # expr is not a condition
    ("x == 1;", (1, 3)),                # comparison as statement
    # str.isdigit() and str.isalpha() accept these; INT and ID are ASCII
    ("x = \u00b2;", (1, 5)),            # superscript two
    ("\u00e9 = 1;", (1, 1)),            # accented letter
]


def test_malformed_inputs_raise():
    for text, pos in MALFORMED:
        e = err(text)
        assert (e.line, e.col) == pos, text
    assert "Node" in str(err("x = new Nod(1, 2);"))


def test_unknown_character_position():
    e = err("x = @;")
    assert (e.line, e.col) == (1, 5)


# ---------------------------------------------------------------------------
# Renderer: parse . render . parse == parse
# ---------------------------------------------------------------------------

ROUND_TRIP_SNIPPETS = [
    RUNNING_EXAMPLE,
    "",
    "x = 42; y = nil; z = *; w = v;",
    "p = new Node(nil, 0); p = new Node(p, *); q = new Node(*, x);",
    "x = y->next; d = y->data; y->next = x; y->data = 9; y->next = *;",
    "if (a == 1) x = 1;",
    "if (a != nil) { x = 1; y = 2; } else { z = 3; }",
    "if (*) { } else { x = 1; }",
    "while (a <= b || c < d && !e == 1) { while (*) a = a->next; }",
    "assert(x == 1 || y != nil && z <= 2);",
    "if (a == 1) if (b == 2) x = 1; else x = 2;",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SNIPPETS,
                         ids=[f"snippet{i}" for i in range(len(ROUND_TRIP_SNIPPETS))])
def test_render_round_trip(text):
    ast = parse(text)
    assert parse(render(ast)) == ast


def test_render_is_stable():
    ast = parse(RUNNING_EXAMPLE)
    once = render(ast)
    assert render(parse(once)) == once
