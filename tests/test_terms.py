"""Unit tests for terms and multisets."""

from __future__ import annotations

import copy
import dataclasses
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import shaperef
from shaperef.heaps import (
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    TRUE_SPATIAL,
    TrueAtom,
)
from shaperef.terms import (
    Const,
    EMPTY_MS,
    LVar,
    Multiset,
    NIL,
    NilTerm,
    Offset,
    PVar,
    PureAtom,
    TRUE_ATOM,
    shifted,
    term_sort_key,
)

from gens import interned_anew, set_at_interning


def test_namespaces_disjoint():
    assert PVar("x") != LVar("x")
    assert str(PVar("x")) == "x"
    assert str(LVar("x")) == "x'"


def _build_each_kind():
    """Values of every atom class and of Multiset, each built afresh."""
    x, d = PVar("x"), LVar("d")
    ms = Multiset.of([(d, 2), (Const(1), 1)])
    return [
        PureAtom("<=", x, shifted(d, 1)),
        PureAtom("true"),
        Multiset.of([(Const(1), 1), (d, 2)]),
        Multiset(),
        NodeAtom(x, NIL, d),
        NodeAtom(x, NIL),
        ListSegAtom(x, NIL, ms),
        ListSegAtom(x, d),
        SortedSegAtom(x, NIL, Const(0), shifted(d, 1), ms),
        TrueAtom(),
    ]


def test_terms_are_interned():
    assert PVar("x") is PVar("x")
    assert LVar("x") is LVar("x")
    assert Const(3) is Const(3)
    assert PVar("x") != LVar("x")
    assert PVar("x") is not LVar("x")
    assert NilTerm() is NIL
    # atoms and multisets too
    for a, b in zip(_build_each_kind(), _build_each_kind()):
        assert a is b
    x, d = PVar("x"), LVar("d")
    assert PureAtom("true") is TRUE_ATOM
    assert Multiset() is EMPTY_MS and Multiset.of([(x, 0)]) is EMPTY_MS
    assert TrueAtom() is TRUE_SPATIAL
    assert NodeAtom(x, NIL) is NodeAtom(x, NIL, None)
    assert ListSegAtom(x, NIL) is ListSegAtom(x, NIL, EMPTY_MS)
    # different values stay different objects
    assert PureAtom("<=", x, d) is not PureAtom("<", x, d)
    assert NodeAtom(x, NIL, d) != NodeAtom(x, NIL)
    assert Multiset.of([(d, 1)]) != Multiset.of([(d, 2)])


def test_keyword_construction_and_replace_give_the_interned_object():
    x, d = PVar("x"), LVar("d")
    ms = Multiset.of([(d, 1)])
    assert PureAtom(op="=", lhs=x, rhs=d) is PureAtom("=", x, d)
    assert Multiset(items=ms.items) is ms
    assert NodeAtom(at=x, nxt=NIL, data=d) is NodeAtom(x, NIL, d)
    assert ListSegAtom(src=x, dst=NIL, contents=ms) is ListSegAtom(x, NIL, ms)
    seg = SortedSegAtom(x, NIL, Const(0), Const(5), ms)
    assert SortedSegAtom(src=x, dst=NIL, lo=Const(0), hi=Const(5),
                         contents=ms) is seg
    # domains' contents cap rebuilds a segment with dataclasses.replace
    assert dataclasses.replace(seg, contents=EMPTY_MS) is SortedSegAtom(
        x, NIL, Const(0), Const(5))
    assert dataclasses.replace(ListSegAtom(x, NIL, ms), contents=EMPTY_MS) \
        is ListSegAtom(x, NIL)
    assert dataclasses.replace(PureAtom("=", x, d), op="!=") is PureAtom(
        "!=", x, d)
    assert dataclasses.replace(NodeAtom(x, NIL, d), data=None) is NodeAtom(
        x, NIL)
    assert dataclasses.replace(ms, items=()) is EMPTY_MS
    assert dataclasses.replace(TrueAtom()) is TRUE_SPATIAL


def test_atoms_have_no_order():
    x, d = PVar("x"), LVar("d")
    with pytest.raises(TypeError):
        PureAtom("=", x, d) < PureAtom("<", x, d)
    with pytest.raises(TypeError):
        NodeAtom(x, NIL) < NodeAtom(d, NIL)
    with pytest.raises(TypeError):
        Multiset() < Multiset.of([(d, 1)])


@pytest.mark.parametrize("op,lhs,rhs", [
    ("~", PVar("x"), PVar("y")),
    ("=", PVar("x"), None),
    ("<", None, PVar("y")),
    ("true", PVar("x"), None),
    ("false", None, Const(1)),
])
def test_malformed_pure_atoms_raise_value_error(op, lhs, rhs):
    with pytest.raises(ValueError):
        PureAtom(op, lhs, rhs)


def test_pure_atoms_are_checked_under_optimization(tmp_path):
    # the check is no assert, so python -O keeps it
    script = tmp_path / "check.py"
    script.write_text(
        "from shaperef.terms import PVar, PureAtom\n"
        "for args in (('~', PVar('x'), PVar('y')), ('=', PVar('x'))):\n"
        "    try:\n"
        "        PureAtom(*args)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted %r' % (args,))\n")
    src = pathlib.Path(shaperef.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-O", str(script)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_offsets_are_interned_however_built():
    d1 = shifted(PVar("d"), 1)
    assert d1 is Offset(PVar("d"), 1)
    assert shifted(d1, 2) is shifted(PVar("d"), 3)
    assert dataclasses.replace(d1, delta=3) is shifted(PVar("d"), 3)
    assert dataclasses.replace(d1, base=LVar("e")) is shifted(LVar("e"), 1)


_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda t: pickle.loads(pickle.dumps(t))}


def test_copies_and_pickles_are_the_interned_term():
    terms = [PVar("x"), LVar("x"), Const(-2), NIL, shifted(LVar("d"), 2)]
    terms += _build_each_kind()
    for t in terms:
        for path, build in _COPIES.items():
            assert build(t) is t, path
            # built where the value is not interned yet, as in a fresh
            # process: the fields, then what interning sets, and no more
            b = interned_anew(t, build)
            assert b is not t and b._values() == t._values(), path
            fields_first = {f.name: getattr(t, f.name)
                            for f in dataclasses.fields(t)}
            assert list(vars(b).items()) == list(
                {**fields_first, **set_at_interning(t)}.items()), path
    assert copy.deepcopy(terms) == terms


def test_multiset_keys_and_total_follow_its_items():
    rng = random.Random(17)
    pool = [PVar("x"), LVar("d"), Const(1), Const(-3), NIL,
            shifted(PVar("x"), 2)]
    for _ in range(200):
        ms = Multiset.of((rng.choice(pool), rng.randint(0, 3))
                         for _ in range(rng.randint(0, 5)))
        assert ms.keys() == tuple(t for t, _ in ms.items)
        assert ms.total() == sum(n for _, n in ms.items)
        assert ms.keys() == tuple(sorted(ms.as_dict(), key=term_sort_key))


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
