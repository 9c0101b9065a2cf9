"""Unit tests for terms and multisets."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from shaperef.terms import (
    Const,
    LVar,
    Multiset,
    NIL,
    NilTerm,
    Offset,
    PVar,
    shifted,
    term_sort_key,
)


def test_namespaces_disjoint():
    assert PVar("x") != LVar("x")
    assert str(PVar("x")) == "x"
    assert str(LVar("x")) == "x'"


def test_terms_are_interned():
    assert PVar("x") is PVar("x")
    assert LVar("x") is LVar("x")
    assert Const(3) is Const(3)
    assert PVar("x") != LVar("x")
    assert PVar("x") is not LVar("x")
    assert NilTerm() is NIL


def test_offsets_are_interned_however_built():
    d1 = shifted(PVar("d"), 1)
    assert d1 is Offset(PVar("d"), 1)
    assert shifted(d1, 2) is shifted(PVar("d"), 3)
    assert dataclasses.replace(d1, delta=3) is shifted(PVar("d"), 3)
    assert dataclasses.replace(d1, base=LVar("e")) is shifted(LVar("e"), 1)


def test_copies_and_pickles_are_the_interned_term():
    terms = [PVar("x"), LVar("x"), Const(-2), NIL, shifted(LVar("d"), 2)]
    for t in terms:
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(terms) == terms


def test_term_orders_are_unchanged():
    # sorted() orders terms of one class by their fields, as the frozen
    # dataclasses with order=True did; term_sort_key orders across classes
    assert sorted([PVar("b"), PVar("a"), PVar("c")]) == [
        PVar("a"), PVar("b"), PVar("c")]
    assert sorted([Const(3), Const(-1), Const(2)]) == [
        Const(-1), Const(2), Const(3)]
    assert sorted([shifted(PVar("d"), 2), shifted(PVar("c"), 5),
                   shifted(PVar("d"), 1)]) == [
        shifted(PVar("c"), 5), shifted(PVar("d"), 1), shifted(PVar("d"), 2)]
    assert Const(1) <= Const(1) and Const(2) > Const(1) >= Const(1)
    with pytest.raises(TypeError):
        PVar("a") < LVar("a")
    mixed = [shifted(PVar("a"), 1), LVar("a"), PVar("b"), NIL, Const(4),
             PVar("a"), Const(-1)]
    assert [str(t) for t in sorted(mixed, key=term_sort_key)] == [
        "-1", "4", "nil", "a", "b", "a'", "a+1"]


def test_shifted_folds_constants():
    assert shifted(Const(3), 2) == Const(5)
    assert shifted(PVar("d"), 0) == PVar("d")
    assert str(shifted(PVar("d"), 1)) == "d+1"
    assert shifted(shifted(PVar("d"), 1), 2) == shifted(PVar("d"), 3)


def test_term_ordering_prefers_constants():
    ordering = sorted([LVar("a"), PVar("a"), NIL, Const(7)], key=term_sort_key)
    assert ordering == [Const(7), NIL, PVar("a"), LVar("a")]


def test_multiset_construction_merges_and_drops_zero():
    m = Multiset.of([(PVar("x"), 1), (PVar("x"), 2), (Const(1), 0)])
    assert m.as_dict() == {PVar("x"): 3}
    assert str(m) == "{x:3}"


def test_multiset_sum_vs_max():
    a = Multiset.of([(PVar("x"), 1), (Const(1), 2)])
    b = Multiset.of([(PVar("x"), 2)])
    assert a.msum(b).as_dict() == {PVar("x"): 3, Const(1): 2}
    assert a.union_max(b).as_dict() == {PVar("x"): 2, Const(1): 2}


def test_multiset_minus_truncates():
    a = Multiset.of([(PVar("x"), 2)])
    b = Multiset.of([(PVar("x"), 5), (Const(1), 1)])
    assert a.minus(b).is_empty()
    assert b.minus_one(Const(1)).as_dict() == {PVar("x"): 5}


def test_multiset_subst_sums_collisions():
    m = Multiset.of([(LVar("d"), 1), (Const(5), 1)])
    m2 = m.subst({LVar("d"): Const(5)})
    assert m2.as_dict() == {Const(5): 2}


@st.composite
def multisets(draw):
    pool = [PVar("x"), PVar("y"), Const(1), Const(2)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                    st.integers(min_value=1, max_value=3)),
                          max_size=4))
    return Multiset.of(pairs)


# union_max is the least upper bound for pointwise <=
@given(multisets(), multisets())
def test_union_max_lub(a, b):
    u = a.union_max(b)
    assert a.leq(u) and b.leq(u)
    for t in set(a.keys()) | set(b.keys()):
        assert u.mult(t) == max(a.mult(t), b.mult(t))


@given(multisets(), multisets())
def test_msum_adds(a, b):
    s = a.msum(b)
    for t in set(a.keys()) | set(b.keys()):
        assert s.mult(t) == a.mult(t) + b.mult(t)
