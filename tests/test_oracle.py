"""Semantic tests for the bounded-model oracle.

The oracle is the trust anchor for every differential suite, so its own
behaviour is frozen here on hand-computed cases: segment non-emptiness,
frequency lower bounds, sortedness/interval semantics, spatial true,
footprint exactness, and the modulo-true mode.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import random
from pathlib import Path

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
from shaperef.domains import DOMAINS, AbstractionParam, abstract
from shaperef.heaps import Facts
from shaperef.syntax import parse_heap as H
from shaperef.terms import LVar, Offset, PVar

from gens import random_heap, random_param_multiset


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
    assert not satisfies(m, H("node(x,nil,{x+1})"))
    assert satisfies(m, H("node(x,nil,{y+1})"))
    m2 = Model({PVar("x"): a1, PVar("y"): a2}, {a1: (NIL_V, 5)})
    assert not satisfies(m2, H("slseg(x,nil,[y+1,9))"))
    assert satisfies(m, H("slseg(x,nil,[y+1,9))"))


@pytest.mark.parametrize("lhs, rhs", [
    ("node(y,nil,_)", "node(x'+1,nil,_)"),
    ("node(y,nil,_)", "list(x'+1,nil)"),
    ("x=1 /\\ node(y,nil,_)", "node(x+1,nil,_)"),
])
def test_an_offset_head_is_never_an_address(lhs, rhs):
    # the right side has no model: an offset is an integer or no value
    assert not holds(lhs, rhs)


@pytest.mark.parametrize("text", [
    "node(x,3,_)",
    "node(x,y+1,_)",
    "list(x,y+1)",
    "x=1 /\\ node(y,x+1,_)",
])
def test_a_next_value_is_always_an_address(text):
    # an integer, or an offset with no value, is no end of a cell's pointer
    assert not list(models(H(text), OracleBounds(max_cells=2)))
    assert holds(text, "false")


# (left heap, whether it has models, whether the one-cell model with r=a1,
# x=1 satisfies it): one consistent heap, then aliased cells and a sort clash
@pytest.mark.parametrize("text, has_models, sat", [
    ("x=1 /\\ node(r,nil,{x})", True, True),
    ("node(r,nil,_) * node(r,nil,_)", False, False),
    ("x=nil /\\ x+1!=y /\\ node(r,nil,_)", False, False),
])
def test_oracle_builds_no_closure(monkeypatch, text, has_models, sat):
    """The oracle decides from the atoms alone: a wrong closure must not
    make it answer "holds" vacuously."""
    lhs, rhs = H(text), H("list(r,nil,{1:1})")  # fresh: no closure cached

    def refuse(*args):
        raise AssertionError("the oracle built a Facts closure")

    monkeypatch.setattr(Facts, "__init__", refuse)
    a1 = ("a", 1)
    m = Model({PVar("r"): a1, PVar("x"): 1}, {a1: (NIL_V, 1)})
    assert bool(list(models(lhs, OracleBounds(max_cells=2)))) == has_models
    assert satisfies(m, lhs) == sat
    assert oracle_entails(lhs, rhs, bounds=OracleBounds(max_cells=2)).holds


def test_bind_binds_only_a_variable_the_store_leaves_unbound():
    x, a1 = LVar("x"), ("a", 1)
    env = {PVar("y"): 4}
    assert oracle._bind(x, a1, env) == {PVar("y"): 4, x: a1}
    assert oracle._bind(Offset(x, 1), 5, env) == {PVar("y"): 4, x: 4}
    assert oracle._bind(Offset(x, 1), a1, env) is None
    assert oracle._bind(PVar("y"), 4, env) is env
    assert oracle._bind(Offset(PVar("y"), 2), 6, env) is env
    assert oracle._bind(Offset(PVar("y"), 2), 5, env) is None
    # an offset whose base holds an address has no value
    assert oracle._bind(Offset(x, 1), 5, {x: a1}) is None
    assert env == {PVar("y"): 4}


@pytest.mark.parametrize("lhs, rhs, expected", [
    # a payload offset binds its base to the payload less the offset
    ("node(x,nil,{5})", "b'=4 /\\ node(x,nil,{b'+1})", True),
    ("node(x,nil,{5})", "b'=5 /\\ node(x,nil,{b'+1})", False),
    # contents keys that share a base: the first binds it, the second
    # must then evaluate to a payload
    ("list(x,nil,{3,4})", "list(x,nil,{k',k'+1})", True),
    ("list(x,nil,{3,4})", "k'=3 /\\ list(x,nil,{k',k'+1})", True),
    ("list(x,nil,{3,5})", "list(x,nil,{k',k'+1})", False),
])
def test_checker_binds_offset_payloads_and_keys_sharing_a_base(lhs, rhs, expected):
    assert holds(lhs, rhs, bounds=OracleBounds(max_cells=3)) == expected


def test_oracle_imports_nothing_from_the_prover():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = [n.module or "" for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)]
    imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names]
    assert imported and not any("prover" in name for name in imported)


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


def seeded_heaps(seed: int = 29, n: int = 60):
    """n seeded heaps of all three domains, every other one with a true
    conjunct."""
    rng = random.Random(seed)
    for i in range(n):
        with_true = i % 2 == 1
        yield random_heap(rng, domain=("mls", "rls", "sls")[i % 3],
                          max_atoms=2 if with_true else 3,
                          with_true=with_true, n_pure=2)


def model_sequence_digest(seed: int = 29, n: int = 60) -> str:
    """sha256 over each seeded heap and its models, (env, heap) in order."""
    digest = hashlib.sha256()
    for h in seeded_heaps(seed, n):
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


# ---------------------------------------------------------------------------
# the checker's step accounting and stores
# ---------------------------------------------------------------------------

def _record_runs(monkeypatch, record):
    """Patch the checker so that record(search, model, before) runs after
    each run, before being a copy of the store the run was handed."""
    run = oracle._SatSearch.run

    def recording_run(self, model, allow_leftover):
        before = dict(model.env)
        try:
            return run(self, model, allow_leftover)
        finally:
            record(self, model, before)

    monkeypatch.setattr(oracle._SatSearch, "run", recording_run)


def _seeded_checks(too_large=lambda: None) -> None:
    """Run the checker on the models of the seeded heaps, then on the
    reflexive entailment modulo true of the first 30 heaps within 3 cells,
    whose right side leaves the logical variables free; too_large() is
    called where a query raises BoundsTooLarge."""
    model_sequence_digest()
    for h in seeded_heaps(n=30):
        try:
            oracle_entails(h, h, modulo_true=True, bounds=WITH_TRUE)
        except BoundsTooLarge:
            too_large()


def checker_steps_digest(monkeypatch) -> str:
    """sha256 over the steps each checker run of _seeded_checks spends."""
    spent: list[int] = []
    _record_runs(monkeypatch,
                 lambda search, model, before:
                 spent.append(search.max_steps - search.steps))
    _seeded_checks(lambda: spent.append(-1))
    return hashlib.sha256(" ".join(map(str, spent)).encode()).hexdigest()


# recorded once oracle_entails built no left model whose payloads at the
# cells the right-side checks read match those of a model of its shape whose
# checks all held: every run left is one the step counts had before, in the
# same order and spending the same steps, and one query (seeded heap 5,
# y!=1 /\ x=3 /\ slseg(r,q,[2,6))*true, against itself) no longer exhausts
# max_models
CHECKER_STEPS_SHA256 = (
    "cc1e7a2e88aa68c34f7718a96c7d24c35cab4605f157f8b7aa2f61e7689510ee")


def test_checker_step_counts_are_unchanged_on_random_heaps(monkeypatch):
    """Ticks are part of what max_steps means: each run spends as many
    steps as it did when this digest was recorded."""
    assert checker_steps_digest(monkeypatch) == CHECKER_STEPS_SHA256


def test_small_step_budget_raises_from_the_checker():
    a1, a2 = ("a", 1), ("a", 2)
    m = Model({PVar("x"): a1}, {a1: (a2, 5), a2: (NIL_V, 5)})
    h = H("list(x,nil,{5:2})")
    assert satisfies(m, h, OracleBounds(max_steps=10))
    with pytest.raises(BoundsTooLarge, match="satisfaction search"):
        satisfies(m, h, OracleBounds(max_steps=3))
    with pytest.raises(BoundsTooLarge, match="satisfaction search"):
        oracle_entails(H("list(x,nil)"), h, bounds=OracleBounds(max_steps=3))


# stores the checker must leave as they are: heads, next values, payloads,
# segment ends and contents keys bound by the placement, and logical
# variables left to the pure part
_STORE_CASES = [
    ("node(x,y',_)", "node(x,y',d')"),
    ("node(x,nil,{d})", "node(x,e',{v'})"),
    ("list(x,y)", "list(x,y',{k':1})"),
    ("list(x,nil,{5:1})", "list(x,nil,{k':1})"),
    ("slseg(x,nil,[0,9),{5:1})", "slseg(x,nil,[lo',hi'),{k':1})"),
    ("node(x,y,_) * list(y,nil)", "n'!=v' /\\ list(x,n') * true"),
]


@pytest.mark.parametrize("lhs, rhs", _STORE_CASES)
def test_checker_leaves_the_stores_it_is_handed_unchanged(monkeypatch, lhs, rhs):
    changed = []
    _record_runs(monkeypatch,
                 lambda search, model, before:
                 model.env != before and changed.append((model.env, before)))
    bounds = OracleBounds(max_cells=3)
    ms = list(models(H(lhs), bounds))
    for m in ms:
        satisfies(m, H(rhs), allow_leftover=True)
    oracle_entails(H(lhs), H(rhs), modulo_true=True, bounds=bounds)
    assert ms and not changed


# ---------------------------------------------------------------------------
# entailment: each left shape, with the payloads its checks read, once
# ---------------------------------------------------------------------------

def _reference_entails(lhs, rhs, modulo_true, bounds):
    """oracle_entails without its skip of held shapes: every model of lhs,
    every valuation of the right side's universal program variables, each
    checked by a right-side search of its own query; returns holds, the
    countermodel rendered and the number of checks."""
    data = oracle._data_universe(lhs, rhs, n_spare=bounds.n_spare_data)
    lhs_pvars = {v for v in lhs.vars() if isinstance(v, PVar)}
    univ = sorted((v for v in rhs.vars()
                   if isinstance(v, PVar) and v not in lhs_pvars),
                  key=lambda v: v.name)
    check = oracle._SatSearch(rhs, data, bounds.max_steps)
    checked = 0
    for m in models(lhs, bounds, data_universe=data):
        store = {v: val for v, val in m.env.items() if isinstance(v, PVar)}
        # every address of the model, one fresh address, then the data
        addrs = set(m.heap) | {NIL_V} | {nx for nx, _ in m.heap.values()}
        addrs |= {val for val in store.values() if isinstance(val, tuple)}
        fresh = ("a", max(k for _, k in addrs) + 1)
        for combo in itertools.product(sorted(addrs) + [fresh] + data,
                                       repeat=len(univ)):
            checked += 1
            if not check.run(Model({**store, **dict(zip(univ, combo))},
                                   m.heap), modulo_true):
                return False, m.render(), checked
    return True, None, checked


def test_a_universal_variable_takes_a_dangling_address_of_the_model():
    # u = y refutes the right side, with y the enumerator's dangling address
    lhs = H("y!=nil /\\ y!=x /\\ node(x,y,_)")
    rhs = H("u!=y /\\ node(x,y,_)")
    v = oracle_entails(lhs, rhs)
    assert not v.holds and v.countermodel is not None
    y = v.countermodel.env[PVar("y")]
    assert y != NIL_V and y not in v.countermodel.heap
    assert _reference_entails(lhs, rhs, False, OracleBounds()) == (
        False, v.countermodel.render(), v.models_checked)


# payload-blind right sides: spatial true and emp; shapes that hold on
# some left models and fail on others with the same store and cells, but
# other next values; a pure atom that fails on some stores of one shape;
# and a universal program variable u (r is universal too where the left
# side has no r)
_BLIND_RIGHTS = ["true", "emp", "node(r,nil,_) * true", "node(r,r,_) * true",
                 "y!=2 /\\ true", "u=u /\\ list(r,e') * true"]

# payload-aware right sides: a node payload constant, a node payload that
# is a universal program variable u, a contents key, a sorted segment and a
# payload that a pure atom guards
_PAYLOAD_RIGHTS = ["node(r,e',{1}) * true", "node(r,e',{u}) * true",
                   "list(r,e',{x:1}) * true", "slseg(r,e',[0,9)) * true",
                   "d'<2 /\\ node(r,e',{d'}) * true"]


@pytest.fixture(scope="module")
def answers() -> list:
    """Each seeded heap of the first 30 against itself, the payload-blind
    and the payload-aware right sides, with and without modulo true: the
    kind of right side, the query, the reference's answer (None where it
    exceeds the bounds) and the verdict of oracle_entails (None there
    too, since such a query can take seconds)."""
    out = []
    for lhs in seeded_heaps(n=30):
        for kind, rights in (("self", [lhs]),
                             ("blind", map(H, _BLIND_RIGHTS)),
                             ("payload", map(H, _PAYLOAD_RIGHTS))):
            for rhs, modulo_true in itertools.product(rights, (False, True)):
                try:
                    reference = _reference_entails(lhs, rhs, modulo_true,
                                                   WITH_TRUE)
                except BoundsTooLarge:
                    reference = verdict = None
                else:
                    verdict = oracle_entails(lhs, rhs, modulo_true, WITH_TRUE)
                out.append((kind, lhs, rhs, modulo_true, reference, verdict))
    return out


def test_skipping_held_shapes_changes_no_verdict(answers):
    """On the seeded heaps, against their own formula, the payload-blind
    and the payload-aware right sides, with and without modulo true,
    oracle_entails answers as a loop over every model does, with the same
    countermodel and no more checks; against each kind of right side it
    skips a candidate before both kinds of verdict."""
    skipped_before = set()
    for kind, lhs, rhs, _, reference, v in answers:
        if reference is None:
            continue  # a verdict here would be no less exact
        holds_, counter, checked = reference
        assert (v.holds, v.countermodel and v.countermodel.render()
                ) == (holds_, counter), (str(lhs), str(rhs))
        assert v.models_checked <= checked
        if v.models_checked < checked:
            skipped_before.add((kind, v.holds))
    assert {(kind, verdict) for kind in ("blind", "payload")
            for verdict in (True, False)} <= skipped_before


# recorded once universal variables ranged over every address of the left
# model; 14 of the 720 queries (seeded heaps 5 and 9) exceed the
# reference's bounds and count as such
ORACLE_ANSWERS_SHA256 = (
    "507c8658004803611fce6cdb635c9ad373de0709f84894c3be31ba147c41330a")


def test_oracle_answers_are_unchanged_on_random_heaps(answers):
    """sha256 over each query's verdict, checks made and countermodel:
    the universal variables of _BLIND_RIGHTS and _PAYLOAD_RIGHTS included."""
    digest = hashlib.sha256()
    for _, lhs, rhs, modulo_true, _, v in answers:
        digest.update(f"{lhs} |- {rhs} {modulo_true}: ".encode())
        digest.update(b"too large\n" if v is None else (
            f"{v.holds} {v.models_checked} "
            f"{v.countermodel and v.countermodel.render()}\n").encode())
    assert digest.hexdigest() == ORACLE_ANSWERS_SHA256


# 3 cells, plus one extension cell for a heap with a true conjunct
SMALL = OracleBounds(max_cells=3, max_extension=1, n_spare_data=1,
                     max_models=4000, max_steps=200000)


@pytest.mark.parametrize("domain", DOMAINS)
def test_abstraction_queries_answer_as_every_model_does(domain):
    """The queries the analysis asks the oracle, oracle_entails(h, alpha(h)),
    on seeded heaps: the same verdict and countermodel as a loop over every
    model, with no more checks, and fewer on some."""
    rng = random.Random(f"alpha-{domain}")
    decided = skipped = 0
    for _ in range(30):
        with_true = rng.random() < 0.15
        h = random_heap(rng, domain=domain, max_atoms=2 if with_true else 3,
                        with_true=with_true, n_pure=1)
        alpha = abstract(h, AbstractionParam(domain,
                                             random_param_multiset(rng)))[0]
        try:
            holds_, counter, checked = _reference_entails(h, alpha, False,
                                                          SMALL)
        except BoundsTooLarge:
            continue
        v = oracle_entails(h, alpha, bounds=SMALL)
        assert (v.holds, v.countermodel and v.countermodel.render()
                ) == (holds_, counter), (str(h), str(alpha))
        assert v.models_checked <= checked
        decided += 1
        skipped += v.models_checked < checked
    assert decided >= 25 and skipped


@pytest.mark.parametrize("text", [
    "list(x,nil)",
    "node(x,y,_) * list(y,nil,{}) * true",
    "node(x,nil,{1})",
    "list(x,nil,{k:1})",
    "slseg(x,nil,[0,9))",
])
def test_every_right_side_skips_held_candidates(monkeypatch, text):
    helds = []
    enumerate_models = oracle._models

    def recording_models(h, bounds, data, held):
        helds.append(held)
        return enumerate_models(h, bounds, data, held)

    monkeypatch.setattr(oracle, "_models", recording_models)
    oracle_entails(H("emp"), H(text))
    assert [type(held) for held in helds] == [dict]


_A1, _A2, _A3 = ("a", 1), ("a", 2), ("a", 3)


@pytest.mark.parametrize("text, read", [
    ("list(x,nil)", set()),
    ("node(x,y,{1}) * list(y,nil)", {_A1}),
    ("list(x,nil,{k:1})", {_A1, _A2, _A3}),
    ("slseg(x,nil,[0,9))", {_A1, _A2, _A3}),
])
def test_a_check_records_the_cells_whose_payloads_it_read(text, read):
    """A node atom with a payload term reads its cell; a segment reads the
    cells it walks where it has contents or is sorted, and no others."""
    m = Model({PVar("x"): _A1, PVar("y"): _A2},
              {_A1: (_A2, 1), _A2: (_A3, 1), _A3: (NIL_V, 1)})
    check = oracle._SatSearch(H(text), [0, 1, 2], 1000)
    assert check.run(m, allow_leftover=False) and check.read == read


def _record_checks(monkeypatch) -> list:
    """Patch the checker so that each run appends (search, model, steps
    spent, cells read) to the list returned, where search numbers the
    checkers from 0 in the order they are built after the patch."""
    searches, runs = [], []
    init = oracle._SatSearch.__init__

    def recording_init(self, *args):
        searches.append(self)
        init(self, *args)

    monkeypatch.setattr(oracle._SatSearch, "__init__", recording_init)
    _record_runs(monkeypatch, lambda search, model, before: runs.append(
        (searches.index(search), model, search.max_steps - search.steps,
         frozenset(search.read))))
    return runs


def _pvar_shape(model: Model) -> tuple:
    """The model's shape (see the oracle's module docstring): its program
    variables, its cells in order and their next values."""
    return (tuple((v, x) for v, x in model.env.items() if isinstance(v, PVar)),
            tuple(model.heap), tuple(nx for nx, _ in model.heap.values()))


@pytest.mark.parametrize("lhs, rhs", [
    ("node(x,y,_) * list(y,nil)", "node(x,y,{d'}) * list(y,nil)"),
    ("node(x,nil,_) * true", "node(x,nil,{d'}) * true"),
    ("slseg(x,y,[0,3)) * list(y,nil)", "slseg(x,y,[0,3)) * list(y,nil)"),
])
def test_each_skipped_candidate_holds_with_the_steps_of_its_entry(
        monkeypatch, lhs, rhs):
    """A candidate the enumerator leaves out, checked anyway, holds and
    spends the steps of the model of its shape whose payloads at the cells
    read it shares."""
    lhs, rhs = H(lhs), H(rhs)
    bounds = OracleBounds(max_cells=3, n_spare_data=1)
    data = oracle._data_universe(lhs, rhs, n_spare=bounds.n_spare_data)
    runs = _record_checks(monkeypatch)
    # without a held map, the left check runs on every candidate
    list(models(lhs, bounds, data_universe=data))
    candidates = [m for _, m, _, _ in runs]
    del runs[:]
    # oracle_entails builds the right side's checker first: search 1
    assert oracle_entails(lhs, rhs, bounds=bounds).holds
    built = iter(m.render() for search, m, _, _ in runs if search == 2)
    entries = [(m, steps, read) for search, m, steps, read in runs
               if search == 1]
    check = oracle._SatSearch(rhs, data, bounds.max_steps)
    skipped = 0
    next_built = next(built, None)
    for c in candidates:
        if c.render() == next_built:
            next_built = next(built, None)
            continue
        skipped += 1
        m, steps, read = next(
            (m, steps, read) for m, steps, read in entries
            if _pvar_shape(m) == _pvar_shape(c)
            and all(m.heap[a][1] == c.heap[a][1] for a in read))
        store = {v: x for v, x in c.env.items() if isinstance(v, PVar)}
        assert check.run(Model(store, c.heap), allow_leftover=False)
        assert check.max_steps - check.steps == steps
    assert next_built is None and skipped


def test_checker_searches_each_shape_once(monkeypatch):
    """Against a payload-blind right side, oracle_entails hands the right
    side's checker each left store and pointer shape once, and the verdict
    is the one every model gives."""
    runs = _record_checks(monkeypatch)
    h = "list(x,nil) * list(y,nil)"
    bounds = OracleBounds(max_cells=3, n_spare_data=1)
    v = oracle_entails(H(h), H(h), bounds=bounds)
    # oracle_entails builds the right side's checker first: search 0
    shapes = [_pvar_shape(m) for search, m, _, _ in runs if search == 0]
    # x and y head one or two cells each, within three cells; a loop over
    # every model makes 63 checks
    assert v.holds and v.models_checked == len(shapes) == len(set(shapes)) == 3
    assert _reference_entails(H(h), H(h), False, bounds) == (True, None, 63)


def test_checker_searches_each_shape_and_read_payloads_once(monkeypatch):
    """Against a payload-aware right side, oracle_entails hands the right
    side's checker each left shape with each tuple of payloads at the
    cells the check reads once, and the verdict is the one every model
    gives."""
    runs = _record_checks(monkeypatch)
    lhs, rhs = H("node(x,y,_) * list(y,nil)"), H("node(x,y,{d'}) * list(y,nil)")
    bounds = OracleBounds(max_cells=3, n_spare_data=1)
    v = oracle_entails(lhs, rhs, bounds=bounds)
    # oracle_entails builds the right side's checker first: search 0
    checked = [(_pvar_shape(m), tuple((a, m.heap[a][1]) for a in sorted(read)))
               for search, m, _, read in runs if search == 0]
    # the check reads x's payload alone: two shapes (y heads one cell or
    # two) times three payloads, where a loop over every model makes 36
    assert v.holds and v.models_checked == len(checked) == len(set(checked)) == 6
    assert _reference_entails(lhs, rhs, False, bounds) == (True, None, 36)
