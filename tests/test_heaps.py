"""Unit and property tests for symbolic heaps, normalization and the closure."""

from __future__ import annotations

import random

import pytest

from shaperef.terms import Const, LVar, Multiset, NIL, PVar, eq, leq, lt, neq
from shaperef.heaps import (
    FALSE_HEAP,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    SymbolicHeap,
    congruence_classes,
    normalize,
    star,
)
from shaperef.syntax import parse_heap as H

from gens import random_heap


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_substitutes_logical_equalities():
    h = H("x'=t /\\ node(r,x',_)")
    n = normalize(h)
    assert n == H("node(r,t,_)")


def test_normalize_keeps_program_equalities():
    n = normalize(H("t=r /\\ node(r,nil,_)"))
    assert n == H("t=r /\\ node(r,nil,_)")


def test_normalize_chains_substitutions():
    n = normalize(H("a'=b' /\\ b'=t /\\ node(r,a',_)"))
    assert n == H("node(r,t,_)")
    n2 = normalize(H("d'=e' /\\ e'=x /\\ node(r,nil,{d'})"))
    assert n2 == H("node(r,nil,{x})")


def test_normalize_wild_conversion_single_occurrence():
    # payload variable occurring nowhere else becomes wild
    assert normalize(H("node(r,nil,{d'})")) == H("node(r,nil,_)")
    # but a payload variable mentioned in the pure part is kept
    h2 = normalize(H("d=d' /\\ node(r,nil,{d'})"))
    assert h2 == H("node(r,nil,{d})")  # substitution fires first


def test_normalize_detects_direct_contradictions():
    assert normalize(H("1=2 /\\ emp")) == FALSE_HEAP
    assert normalize(H("x=1 /\\ x=2 /\\ emp")) == FALSE_HEAP
    assert normalize(H("x!=x /\\ emp")) == FALSE_HEAP
    assert normalize(H("x=y /\\ x!=y /\\ emp")) == FALSE_HEAP
    assert normalize(H("1<1 /\\ emp")) == FALSE_HEAP
    assert normalize(H("x<y /\\ y<x /\\ emp")) == FALSE_HEAP
    assert normalize(H("x<y /\\ y<=x /\\ emp")) == FALSE_HEAP


def test_normalize_allocation_facts():
    # same head twice is unsatisfiable
    assert normalize(H("node(x,nil,_) * node(x,nil,_)")) == FALSE_HEAP
    assert normalize(H("x=y /\\ node(x,nil,_) * list(y,nil)")) == FALSE_HEAP
    # allocated head equal to nil is unsatisfiable
    assert normalize(H("x=nil /\\ node(x,nil,_)")) == FALSE_HEAP


def test_normalize_sort_separation():
    # an address (allocated head) cannot equal an integer
    assert normalize(H("x=3 /\\ node(x,nil,_)")) == FALSE_HEAP
    # nil is not an integer
    assert normalize(H("x=nil /\\ x=0 /\\ emp")) == FALSE_HEAP


def test_normalize_sorted_segment_invariant():
    # empty interval
    assert normalize(H("slseg(a,nil,[5,5))")) == FALSE_HEAP
    assert normalize(H("slseg(a,nil,[7,3))")) == FALSE_HEAP
    # content key provably outside the interval
    assert normalize(H("slseg(a,nil,[0,5),{7:1})")) == FALSE_HEAP
    # fine when inside
    h = H("slseg(a,nil,[0,5),{3:1})")
    assert normalize(h) == h


def test_normalize_order_facts_from_sorted_segments():
    # lo <= key < hi becomes available to the closure
    h = normalize(H("d=3 /\\ slseg(a,nil,[d,hi'),{7:1})"))
    assert h != FALSE_HEAP
    # 3 <= 7 consistent; but an upper bound below the key is not
    h2 = normalize(H("slseg(a,nil,[0,c),{7:1}) * node(b,nil,{c})"))
    # c > 7 is forced; c = 5 contradicts
    h3 = normalize(H("c=5 /\\ slseg(a,nil,[0,c),{7:1})"))
    assert h2 != FALSE_HEAP and h3 == FALSE_HEAP


def test_normalize_collapses_spatial_true():
    n = normalize(H("true * node(x,nil,_) * true"))
    assert sum(1 for a in n.spatial if str(a) == "true") == 1


def test_normalize_is_idempotent_on_random_heaps():
    rng = random.Random(7)
    for _ in range(300):
        for dom in ("mls", "rls", "sls"):
            h = random_heap(rng, dom)
            assert normalize(h) == h  # random_heap already normalizes
            assert normalize(h) is h  # and keeps the closure h holds


def test_offset_reasoning():
    # d < d+1 is built in; d+1 <= e and e <= d is cyclic
    assert normalize(H("d+1<=e /\\ e<=d /\\ emp")) == FALSE_HEAP
    assert normalize(H("d+1<=e /\\ emp")) != FALSE_HEAP
    h = normalize(H("d=4 /\\ d+1<=e /\\ e<=4 /\\ emp"))
    assert h == FALSE_HEAP


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------

def test_star_detects_aliased_cells():
    a = H("node(x,nil,_)")
    assert star(a, a) == FALSE_HEAP


def test_star_concatenates():
    s = star(H("x=1 /\\ emp"), H("node(r,nil,_)"))
    assert s == H("x=1 /\\ node(r,nil,_)")


# ---------------------------------------------------------------------------
# facts / congruence classes
# ---------------------------------------------------------------------------

def test_congruence_classes_partition():
    h = H("t=r /\\ d=x /\\ node(r,nil,{d})")
    classes = congruence_classes(h)
    as_sets = [set(map(str, c)) for c in classes]
    assert {"t", "r"} in as_sets
    assert {"d", "x"} in as_sets
    assert {"nil"} in as_sets


def test_facts_queries_on_unknown_terms_leave_classes_unchanged():
    h = H("x=y /\\ node(x,nil,_)")
    before = congruence_classes(h)
    f = h.facts
    q, z = LVar("q"), PVar("z")
    assert not f.equal(q, z)
    assert f.rep(q) == q
    assert not f.proves_neq(q, z)
    assert not f.proves_leq(q, z)
    assert not f.proves_lt(z, q)
    assert congruence_classes(h) == before


def test_facts_proves_order_through_constants():
    h = H("a<=3 /\\ 4<=b /\\ emp")
    f = h.facts
    assert f.proves_lt(PVar("a"), PVar("b"))
    assert f.proves_leq(PVar("a"), PVar("b"))
    assert f.proves_neq(PVar("a"), PVar("b"))
    assert not f.proves_lt(PVar("b"), PVar("a"))


def test_facts_equal_by_antisymmetry():
    h = H("a<=b /\\ b<=a /\\ emp")
    assert h.facts.equal(PVar("a"), PVar("b"))


def test_facts_allocation_disequalities():
    h = H("node(a,nil,_) * list(b,nil)")
    f = h.facts
    assert f.proves_neq(PVar("a"), PVar("b"))
    assert f.proves_neq(PVar("a"), NIL)
    assert f.proves_neq(PVar("b"), NIL)
    assert not f.proves_neq(PVar("a"), PVar("q"))


def test_facts_segment_head_known_allocated_through_equality():
    h = H("t=r /\\ list(r,nil,{x:1})")
    assert h.facts.proves_neq(PVar("t"), NIL)


def test_value_class_sums():
    h = H("a=b /\\ emp")
    ms = Multiset.of([(PVar("a"), 1), (PVar("b"), 1), (Const(1), 2)])
    sums = h.facts.value_class_sums(ms)
    assert sums[h.facts.rep(PVar("a"))] == 2
    assert sums[Const(1)] == 2


# ---------------------------------------------------------------------------
# rendering sanity (round trips live in test_syntax)
# ---------------------------------------------------------------------------

def test_render_shapes():
    assert str(H("emp")) == "emp"
    assert str(normalize(H("x=1 /\\ emp"))) == "x=1 /\\ emp"
    assert str(H("node(r,x',_) * list(x',nil,{x:1})")) == "node(r,x',_)*list(x',nil,{x:1})"
