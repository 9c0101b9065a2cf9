"""Semantic tests for the bounded-model oracle.

The oracle is the trust anchor for every differential suite, so its own
behaviour is frozen here on hand-computed cases: segment non-emptiness,
frequency lower bounds, sortedness/interval semantics, spatial true,
footprint exactness, and the modulo-true mode.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from shaperef import oracle
from shaperef.oracle import (
    BoundsTooLarge,
    Model,
    NIL_V,
    OracleBounds,
    models,
    oracle_entails,
    satisfies,
)
from shaperef.syntax import parse_heap as H
from shaperef.terms import PVar

from gens import random_heap


def holds(l, r, **kw):
    return oracle_entails(H(l), H(r), **kw).holds


# ---------------------------------------------------------------------------
# spec'd examples
# ---------------------------------------------------------------------------

def test_single_node_entails_empty_content_list():
    assert holds("node(x,nil,{1})", "list(x,nil,{})")


def test_list_does_not_entail_single_node():
    v = oracle_entails(H("list(x,nil,{})"), H("node(x,nil,_)"))
    assert not v.holds
    # the countermodel is a >=2-cell segment
    assert v.countermodel is not None and len(v.countermodel.heap) >= 2


def test_reflexivity_on_samples():
    for s in ("node(x,nil,{1})", "list(x,y,{x:1})", "slseg(a,nil,[0,5),{3:1})",
              "t=r /\\ list(r,nil,{x:1})"):
        assert holds(s, s)


# ---------------------------------------------------------------------------
# mls semantics
# ---------------------------------------------------------------------------

def test_contents_are_lower_bounds():
    assert holds("node(x,y,{5}) * node(y,nil,{5})", "list(x,nil,{5:2})")
    assert holds("node(x,y,{5}) * node(y,nil,{5})", "list(x,nil,{5:1})")
    assert not holds("node(x,y,{5}) * node(y,nil,_)", "list(x,nil,{5:2})")


def test_contents_respect_congruence_between_program_vars():
    assert holds("d=x /\\ node(r,nil,{d})", "list(r,nil,{x:1})")
    assert not holds("node(r,nil,{d})", "list(r,nil,{x:1})")


def test_segments_nonempty():
    # a segment cannot be satisfied by the empty footprint
    assert not holds("x=y /\\ emp", "list(x,y)")
    assert not holds("emp", "node(x,y,_)")


def test_footprint_exactness_without_true():
    # lhs owns two cells; rhs must cover both
    assert not holds("node(x,y,_) * node(y,nil,_)", "node(x,y,_)")
    assert holds("node(x,y,_) * node(y,nil,_)", "node(x,y,_)", modulo_true=True)
    assert holds("node(x,y,_) * node(y,nil,_)", "node(x,y,_) * true")


def test_true_absorbs_anything():
    assert holds("node(x,y,_) * node(y,nil,_)", "true")
    assert holds("emp", "true")
    assert not holds("true", "emp")  # extension cells exist


def test_cyclic_segment():
    assert holds("node(x,y,_) * node(y,x,_)", "list(x,x)")
    assert holds("list(x,x)", "list(x,x)")


def test_dangling_end_var_enumeration():
    # list to an unconstrained end: x |-> e' is a model with e' dangling
    assert holds("node(x,e',_)", "list(x,e')")


# ---------------------------------------------------------------------------
# sls semantics
# ---------------------------------------------------------------------------

def test_sorted_segment_requires_sortedness():
    assert holds("node(x,y,{3}) * node(y,nil,{7})", "slseg(x,nil,[3,8))")
    assert not holds("node(x,y,{7}) * node(y,nil,{3})", "slseg(x,nil,[0,9))")


def test_sorted_segment_interval_is_inclusive_exclusive():
    assert holds("node(x,nil,{7})", "slseg(x,nil,[7,8))")
    assert not holds("node(x,nil,{7})", "slseg(x,nil,[0,7))")
    assert holds("node(x,nil,{7})", "slseg(x,nil,[0,8),{7:1})")


def test_sorted_segment_loose_bounds():
    # values need not touch the bounds (the interval is a container)
    assert holds("node(x,y,{3}) * node(y,nil,{5})", "slseg(x,nil,[0,9),{3:1})")


def test_sorted_entails_unsorted():
    assert holds("slseg(x,nil,[0,9),{3:1})", "list(x,nil,{3:1})")
    assert not holds("list(x,nil,{3:1})", "slseg(x,nil,[0,9),{3:1})")


def test_sls_existential_bounds():
    assert holds("node(x,nil,{7})", "slseg(x,nil,[lo',hi'))")


# ---------------------------------------------------------------------------
# pure reasoning in models
# ---------------------------------------------------------------------------

def test_pure_entailment():
    assert holds("x=1 /\\ emp", "x=1 /\\ emp")
    assert not holds("emp", "x=1 /\\ emp")
    assert holds("x=1 /\\ y=1 /\\ emp", "x=y /\\ emp")
    assert holds("x<y /\\ emp", "x!=y /\\ emp")
    assert not holds("x<=y /\\ emp", "x!=y /\\ emp")


def test_rhs_existential_disequality():
    # exists v. v != x always has a witness
    assert holds("emp", "v'!=x /\\ emp")


def test_nil_vs_integers_distinct_sorts():
    assert holds("x=nil /\\ emp", "x!=0 /\\ emp")


def test_order_atoms_fail_on_addresses():
    # nil <= nil is not a valid order fact (order is over integers)
    assert not holds("emp", "nil<=nil /\\ emp")


# ---------------------------------------------------------------------------
# machinery
# ---------------------------------------------------------------------------

def test_models_enumeration_counts():
    # node(x,nil,_) with |D| data values: one model per payload value
    ms = list(models(H("node(x,nil,{1})")))
    assert len(ms) == 1
    assert all(len(m.heap) == 1 for m in ms)


def test_models_of_inconsistent_heap_is_empty():
    from shaperef.heaps import FALSE_HEAP
    assert list(models(FALSE_HEAP)) == []


def test_satisfies_direct():
    a1 = ("a", 1)
    m = Model({PVar("x"): a1}, {a1: (NIL_V, 5)})
    assert satisfies(m, H("node(x,nil,{5})"))
    assert satisfies(m, H("list(x,nil,{5:1})"))
    assert not satisfies(m, H("node(x,nil,{6})"))
    assert not satisfies(m, H("emp"))


def test_offset_from_an_address_has_no_value():
    # x+1 with x an address is no data value; the checker may bind only a
    # base that the store leaves unbound
    a1, a2 = ("a", 1), ("a", 2)
    m = Model({PVar("x"): a1}, {a1: (NIL_V, 5)})
    assert not satisfies(m, H("list(x,nil,{x+1:1})"))
    assert satisfies(m, H("list(x,nil,{y+1:1})"))
    m2 = Model({PVar("x"): a1, PVar("y"): a2}, {a1: (NIL_V, 5)})
    assert not satisfies(m2, H("slseg(x,nil,[y+1,9))"))
    assert satisfies(m, H("slseg(x,nil,[y+1,9))"))


def test_bounds_too_large():
    h = H("a'=b' /\\ c'=d' /\\ e'=f' /\\ g'=h' /\\ i'=j' /\\ emp")
    with pytest.raises(BoundsTooLarge):
        oracle_entails(H("emp"), h)


# ---------------------------------------------------------------------------
# enumeration: pruned as it goes, same models in the same order
# ---------------------------------------------------------------------------

# The soundness tests' bounds (4 cells, or 3 cells plus one extension cell
# for a heap with a true conjunct), fixed here so that the recorded digest
# does not move with them.
PLAIN = OracleBounds(max_cells=4, max_extension=1, n_spare_data=1,
                     max_models=4000, max_steps=200000)
WITH_TRUE = OracleBounds(max_cells=3, max_extension=1, n_spare_data=1,
                         max_models=4000, max_steps=200000)


def model_sequence_digest(seed: int = 29, n: int = 60) -> str:
    """sha256 over each seeded heap and its models, (env, heap) in order."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for i in range(n):
        with_true = i % 2 == 1
        h = random_heap(rng, domain=("mls", "rls", "sls")[i % 3],
                        max_atoms=2 if with_true else 3,
                        with_true=with_true, n_pure=2)
        digest.update(f"{h}\n".encode())
        try:
            for m in models(h, WITH_TRUE if h.has_true() else PLAIN):
                digest.update(f"{m.render()}\n".encode())
        except BoundsTooLarge:
            digest.update(b"BoundsTooLarge\n")
    return digest.hexdigest()


# recorded with the generate-then-filter enumerator that checked every
# payload combination of every segment
MODEL_SEQUENCE_SHA256 = (
    "8c73ee3684af1ace1c70151637b4804a1f2ed59d3e5ee78ab1c80c851756a665")


def test_model_sequences_are_unchanged_on_random_heaps():
    assert model_sequence_digest() == MODEL_SEQUENCE_SHA256


def test_unforced_segment_keeps_alternative_placements():
    # y and w end inside the list's cells, so the one-cell slseg may also
    # be placed on a1,a3: its payload alone does not cover {5:2}
    ms = [m.render() for m in models(H("slseg(x,y,[0,9),{5:2}) * list(z,w)"),
                                     OracleBounds(max_cells=3, n_spare_data=1))]
    assert ("[w=a3, x=a1, y=a3, z=a2] heap=[a1:(next=a3,data=5); "
            "a2:(next=a3,data=0); a3:(next=a3,data=5)]") in ms


@pytest.mark.parametrize("text", [
    "slseg(x,nil,[0,9),{5:1})",
    "v<3 /\\ slseg(x,y,[0,9),{v:1}) * node(y,nil,_)",
    "list(x,x,{3:2})",
])
def test_forced_footprints_check_only_models(monkeypatch, text):
    """On forced footprints every candidate the enumerator builds is a
    model: the checker runs once per model yielded."""
    runs = []
    run = oracle._SatSearch.run

    def counting_run(self, model, allow_leftover):
        runs.append(model)
        return run(self, model, allow_leftover)

    monkeypatch.setattr(oracle._SatSearch, "run", counting_run)
    ms = list(models(H(text), OracleBounds(max_cells=4)))
    assert ms and len(runs) == len(ms)
