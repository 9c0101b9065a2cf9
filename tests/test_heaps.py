"""Unit and property tests for symbolic heaps, normalization and the closure."""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import fields

import pytest

from shaperef.terms import (Const, FALSE_ATOM, LVar, Multiset, NIL, PVar,
                            PureAtom, eq, leq, lt, neq, shifted, term_sort_key,
                            var_of)
from shaperef.heaps import (
    FALSE_HEAP,
    Facts,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    SymbolicHeap,
    TRUE_SPATIAL,
    TrueAtom,
    normalize,
    star,
)
from shaperef import domains, heaps, prover
from shaperef.domains import DOMAINS, AbstractionParam, abstract
from shaperef.oracle import OracleBounds, models, satisfies
from shaperef.syntax import parse_heap as H

import gens
from gens import (ADDR_PVARS, DATA_TERMS, _random_atom, random_heap,
                  random_param_multiset)


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


def test_normalize_counts_occurrences_only_for_a_logical_payload(monkeypatch):
    plain = H("x<=y /\\ node(s,nil,_)*node(r,j',{x})*list(j',s,{y:1})")
    logical = H("x<=y /\\ node(s,nil,_)*node(r,j',{d'})*list(j',s,{y:1})")
    counted = []
    real = heaps.var_counts
    monkeypatch.setattr(heaps, "var_counts",
                        lambda *atoms: counted.append(atoms) or real(*atoms))
    lookups = gens.count_variable_lookups(monkeypatch)
    assert str(normalize(plain)) == (
        "x<=y /\\ node(r,j',{x})*node(s,nil,_)*list(j',s,{y:1})")
    assert counted == [] and lookups[0] == 0
    # a logical payload is counted for, once, and occurring once it goes
    assert str(normalize(logical)) == (
        "x<=y /\\ node(r,j',_)*node(s,nil,_)*list(j',s,{y:1})")
    assert len(counted) == 1 and lookups[0] > 0


def test_normalize_keeps_an_offset_self_equality_unless_its_base_is_an_integer():
    # r+2 has no value where r is a cell address, so r+2=r+2 is false
    assert normalize(H("r+2=r+2 /\\ node(r,nil,_)")) == FALSE_HEAP
    # where the rest proves the base an integer, it is trivial
    assert normalize(H("x+1=x+1 /\\ x<=3 /\\ emp")) == H("x<=3 /\\ emp")
    # otherwise it says that the base is an integer, and stays
    n = normalize(H("x+1=x+1 /\\ x+1=x+1 /\\ emp"))
    assert str(n) == "x+1=x+1 /\\ emp"
    assert normalize(SymbolicHeap(n.pure, n.spatial)) == n


def test_normalize_is_idempotent_on_random_heaps():
    rng = random.Random(7)
    for _ in range(300):
        for dom in ("mls", "rls", "sls"):
            h = random_heap(rng, dom)  # already normalized, so marked
            fresh = SymbolicHeap(h.pure, h.spatial)  # an unmarked copy
            assert normalize(fresh) == h
            assert normalize(fresh) is fresh  # it keeps its own closure


def test_nil_under_an_offset_makes_the_heap_false():
    # x' = nil leaves x'+1 without a value, so no model has such a payload
    h = H("x'=nil /\\ node(r,nil,{x'+1})")
    assert normalize(h) == FALSE_HEAP
    assert not list(models(h, OracleBounds(max_cells=2)))


def test_offset_under_a_disequality_makes_its_base_an_integer():
    # x+1 != y makes x an integer, which nil is not
    h = H("x=nil /\\ x+1!=y /\\ node(r,nil,_)")
    assert normalize(h) == FALSE_HEAP
    assert not list(models(h, OracleBounds(max_cells=2)))


@pytest.mark.parametrize("text", [
    "node(x'+1,nil,_)",
    "node(x,y+1,_)",
    "list(x+1,nil)",
    "x=1 /\\ node(y,x+1,_)",
])
def test_an_offset_in_an_address_position_makes_the_heap_false(text):
    # an offset is an integer or has no value, never an address
    assert normalize(H(text)) == FALSE_HEAP


def test_abduction_returns_no_offset_head_as_consistent():
    assert prover.abduce(H("emp"), H("node(x'+1,nil,_)")) == [FALSE_HEAP]


def test_offset_reasoning():
    # d < d+1 is built in; d+1 <= e and e <= d is cyclic
    assert normalize(H("d+1<=e /\\ e<=d /\\ emp")) == FALSE_HEAP
    assert normalize(H("d+1<=e /\\ emp")) != FALSE_HEAP
    h = normalize(H("d=4 /\\ d+1<=e /\\ e<=4 /\\ emp"))
    assert h == FALSE_HEAP


# ---------------------------------------------------------------------------
# the canonical mark
# ---------------------------------------------------------------------------

# heaps normalize changes: logical equalities, order, wild payloads, a
# duplicate true, and a shape that is already sorted but inconsistent
RAW_HEAPS = [
    "x'=t /\\ node(r,x',_)",
    "list(b,nil) * node(a,b,{3})",
    "node(r,nil,{d'})",
    "true * node(x,nil,_) * true",
    "node(x,nil,_) * node(x,nil,_)",
]


def _record_marked(monkeypatch) -> list[SymbolicHeap]:
    """Every heap, input or result, that carries the mark after a call to
    normalize from any module."""
    real = heaps.normalize
    marked: list[SymbolicHeap] = []

    def recording(h: SymbolicHeap) -> SymbolicHeap:
        out = real(h)
        marked.extend(x for x in (h, out) if x._canonical)
        return out

    for module in (heaps, domains, prover, gens):
        monkeypatch.setattr(module, "normalize", recording)
    return marked


@pytest.mark.parametrize("domain", ["mls", "rls", "sls"])
def test_every_marked_heap_is_canonical(domain, monkeypatch):
    marked = _record_marked(monkeypatch)
    rng = random.Random(17)
    param = AbstractionParam(domain, random_param_multiset(rng))
    steps = cases = 0
    for _ in range(40):
        h = random_heap(rng, domain, max_atoms=3, with_true=True)
        g = random_heap(rng, domain, max_atoms=2)
        alpha, trace = abstract(h, param)  # normalizes every step's after
        steps += len(trace.steps)
        star(h, g)
        star(h, alpha)
        for i, atom in enumerate(h.spatial):
            if isinstance(atom, TrueAtom):
                continue
            rest = SymbolicHeap(h.pure, h.spatial[:i] + h.spatial[i + 1:])
            for case in prover.unfold(atom, h):
                cases += 1
                star(rest, case)
    for text in RAW_HEAPS:
        heaps.normalize(H(text))
    assert steps > 10 and cases > 40
    for m in marked:
        assert normalize(SymbolicHeap(m.pure, m.spatial)) == m, str(m)


@pytest.mark.parametrize("text", RAW_HEAPS)
def test_normalizing_stores_nothing_on_a_heap_it_does_not_return(text):
    raw = H(text)
    before = dict(raw.__dict__)
    n = normalize(raw)
    assert n is not raw
    assert raw.__dict__ == before
    assert normalize(raw) == n  # and the raw heap is normalized again


@pytest.mark.parametrize("text", RAW_HEAPS)
def test_normalizing_a_marked_heap_builds_nothing(text, monkeypatch):
    raw = H(text)
    n = normalize(raw)
    assert n._canonical or n is FALSE_HEAP  # unmarked, but returned at once
    built: list[object] = []
    for cls in (SymbolicHeap, Facts):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, init=init, **k:
                            built.append(self) or init(self, *a, **k))
    assert normalize(n) is n
    assert built == []
    assert normalize(raw) == n  # the raw heap is still normalized anew
    assert built


# ---------------------------------------------------------------------------
# term positions
# ---------------------------------------------------------------------------

_POSITION_TERMS = [PVar("x"), LVar("y"), LVar("z"), Const(2), NIL,
                   shifted(PVar("x"), 1)]

_ATOM_BUILDERS = {
    "node": lambda pick, ms: NodeAtom(pick(), pick(), pick()),
    "wild node": lambda pick, ms: NodeAtom(pick(), pick(), None),
    "list": lambda pick, ms: ListSegAtom(pick(), pick(), ms),
    "slseg": lambda pick, ms: SortedSegAtom(pick(), pick(), pick(), pick(), ms),
    "true": lambda pick, ms: TRUE_SPATIAL,
}


def _field_terms(a) -> list:
    """An atom's terms in field order, contents as their keys and a wild
    payload as none: the walk each kind's own vars() used to spell out."""
    out = []
    for f in fields(a):
        v = getattr(a, f.name)
        if isinstance(v, Multiset):
            out.extend(v.keys())
        elif v is not None:
            out.append(v)
    return out


def _fresh(obj, name: str):
    """obj's kept key ``name`` computed anew, past what obj keeps."""
    key = getattr(type(obj), name)
    return key.func(obj) if isinstance(key, functools.cached_property) else key


def _pure_terms(p: PureAtom) -> list:
    return [t for t in (p.lhs, p.rhs) if t is not None]


def _vars_of(terms) -> tuple:
    return tuple(v for v in map(var_of, terms) if v is not None)


@pytest.mark.parametrize("domain", DOMAINS)
def test_kept_keys_equal_a_fresh_computation(domain):
    # atoms and multisets are interned and keep their rendering, variables
    # and sort key; heaps keep their rendering, variables, cells and
    # whether they hold true
    rng = random.Random(f"kept-{domain}")
    for _ in range(80):
        h = random_heap(rng, domain=domain, max_atoms=4,
                        with_true=rng.random() < 0.3, n_pure=3)
        for p in h.pure:
            assert str(p) == _fresh(p, "_str")
            assert p.vars() == _vars_of(_pure_terms(p))
            if p.op in ("true", "false"):
                key = (p.op, (), ())
            else:
                key = (p.op, term_sort_key(p.lhs), term_sort_key(p.rhs))
            assert p.sort_key() == _fresh(p, "_sort_key") == key
        for a in h.spatial:
            assert str(a) == _fresh(a, "_str")
            assert a.vars() == _vars_of(_field_terms(a))
            if isinstance(a, (ListSegAtom, SortedSegAtom)):
                ms = a.contents
                assert str(ms) == _fresh(ms, "_str")
                assert ms._vars == _vars_of(ms.keys())
        assert str(h) == _fresh(h, "_str")
        assert h.vars() == tuple(dict.fromkeys(_vars_of(
            [t for p in h.pure for t in _pure_terms(p)]
            + [t for a in h.spatial for t in _field_terms(a)])))
        assert h.cells() == tuple(a for a in h.spatial
                                  if not isinstance(a, TrueAtom))
        assert h.has_true() == (TRUE_SPATIAL in h.spatial)


def test_a_substitution_that_misses_an_atom_returns_it():
    h = H("x<=d /\\ node(x,y',{d})*list(y',nil,{d:1})"
          "*slseg(z,nil,[d,e),{d:1})")
    m = {LVar("w"): PVar("x"), PVar("q"): NIL}
    for a in h.pure + h.spatial:
        assert a.subst(m) is a
    assert h.subst({LVar("y"): LVar("u")}).spatial[0] is NodeAtom(
        PVar("x"), LVar("u"), PVar("d"))


@pytest.mark.parametrize("kind", sorted(_ATOM_BUILDERS))
def test_positions_follow_field_order(kind):
    rng = random.Random(kind)
    for _ in range(40):
        ms = Multiset.of((rng.choice(_POSITION_TERMS), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3)))
        a = _ATOM_BUILDERS[kind](lambda: rng.choice(_POSITION_TERMS), ms)
        terms = _field_terms(a)
        if kind == "true":
            assert terms == []
            assert (a.head, a.tail, a.data_terms) == (None, None, ())
        else:
            assert (a.head, a.tail, *a.data_terms) == tuple(terms)
        assert a.vars() == _vars_of(terms)


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
    classes = h.facts.classes()
    as_sets = [set(map(str, c)) for c in classes]
    assert {"t", "r"} in as_sets
    assert {"d", "x"} in as_sets
    assert {"nil"} in as_sets


def test_facts_queries_on_unknown_terms_leave_classes_unchanged():
    h = H("x=y /\\ node(x,nil,_)")
    before = h.facts.classes()
    f = h.facts
    q, z = LVar("q"), PVar("z")
    assert not f.equal(q, z)
    assert f.rep(q) == q
    assert not f.proves_neq(q, z)
    assert not f.proves_leq(q, z)
    assert not f.proves_lt(z, q)
    assert h.facts.classes() == before


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


def _raw_facts_case(rng: random.Random):
    """Unnormalized pure and spatial atoms: a chain of atoms and up to
    three comparisons over data and address terms, sorted as normalize
    sorts them; a quarter also hold false, which sorts after any "="."""
    domain = rng.choice(("mls", "rls", "sls"))
    n = rng.randint(1, 4)
    cur = rng.choice(ADDR_PVARS)
    spatial = []
    for i in range(n):
        end = NIL if i == n - 1 and rng.random() < 0.6 else LVar(f"j{i}")
        spatial.append(_random_atom(rng, domain, cur, end, i))
        cur = end
    pool = DATA_TERMS + ADDR_PVARS + [NIL, LVar("j0"), LVar("j1"),
                                      shifted(PVar("x"), 1)]
    pure = [PureAtom(rng.choice(("=", "=", "!=", "<=", "<")),
                     rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.25:
        pure.append(FALSE_ATOM)
    pure.sort(key=lambda p: p.sort_key())
    return tuple(pure), tuple(spatial)


# terms every closure is also asked about: some occur in no heap
_EXTRA_TERMS = [NIL, Const(0), Const(2), PVar("z"), LVar("w"),
                shifted(PVar("x"), 1), shifted(LVar("j0"), 2)]


def _ask(query, *args) -> str:
    try:
        return str(query(*args))
    except ValueError as exc:  # e.g. the rep of x+1 where x = nil
        return type(exc).__name__


def facts_answers_digest(seed: int = 11, n: int = 300) -> tuple[str, int, int]:
    """sha256 over the classes, reps and pairwise answers of n seeded
    closures; also returns how many were inconsistent and how many met
    false after an equality."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    inconsistent = false_after_eq = 0
    for _ in range(n):
        pure, spatial = _raw_facts_case(rng)
        f = Facts(pure, spatial)
        inconsistent += f.inconsistent
        false_after_eq += FALSE_ATOM in pure and any(p.op == "=" for p in pure)
        classes = f.classes()
        terms = sorted({t for c in classes for t in c} | set(_EXTRA_TERMS),
                       key=term_sort_key)
        lines = [" /\\ ".join(map(str, pure)), "*".join(map(str, spatial)),
                 str(f.inconsistent),
                 ";".join(",".join(map(str, c)) for c in classes),
                 " ".join(f"{t}:{_ask(f.rep, t)}" for t in terms)]
        queries = [f.equal, f.proves_leq, f.proves_lt, f.proves_neq]
        for u in terms:
            for v in terms:
                lines.append(" ".join(_ask(q, u, v) for q in queries))
        digest.update(("\n".join(lines) + "\n").encode())
    return digest.hexdigest(), inconsistent, false_after_eq


# recorded once proves_neq was asked on every closure and read a
# disequality fact only where its operands are equal to the query's
FACTS_ANSWERS_SHA256 = (
    "73a8d0137e8beb7aad435d9a4788add3eb1b8e70330872dfcaba1e15a1ba3cb9")


def test_facts_answers_are_unchanged_on_random_heaps():
    digest, inconsistent, false_after_eq = facts_answers_digest()
    assert 0 < inconsistent < 300
    assert false_after_eq >= 10
    assert digest == FACTS_ANSWERS_SHA256


@functools.cache
def _consistent_closures() -> tuple:
    """The consistent closures of the digest's corpus: each case's index,
    heap, closure, the terms the digest asks about, and the heap's models
    at 2-cell bounds."""
    rng = random.Random(11)
    out = []
    for i in range(300):
        h = SymbolicHeap(*_raw_facts_case(rng))
        f = Facts(h.pure, h.spatial)
        if f.inconsistent:
            continue
        terms = sorted({t for c in f.classes() for t in c} | set(_EXTRA_TERMS),
                       key=term_sort_key)
        out.append((i, h, f, terms, list(models(h, OracleBounds(max_cells=2)))))
    return tuple(out)


def _holds_in(ms, op: str, u, v) -> bool:
    atom = SymbolicHeap((PureAtom(op, u, v),), ())
    return all(satisfies(m, atom, allow_leftover=True) for m in ms)


def test_facts_answers_hold_in_every_model():
    # a "yes" from a consistent closure is an atom every model satisfies;
    # a model that satisfies all of them at once satisfies each
    for i, h, f, terms, ms in _consistent_closures():
        conj = SymbolicHeap(tuple(dict.fromkeys(
            PureAtom(op, u, v) for u in terms for v in terms
            for op, query in (("=", f.equal), ("!=", f.proves_neq),
                              ("<=", f.proves_leq), ("<", f.proves_lt))
            if query(u, v))), ())
        for m in ms:
            if not satisfies(m, conj, allow_leftover=True):
                for p in conj.pure:
                    assert _holds_in([m], p.op, p.lhs, p.rhs), (
                        i, str(h), str(p), m.render())


def test_facts_sorts_agree_with_every_model():
    # an integer t satisfies t<=t; an address satisfies t=t but not t<=t
    for i, h, f, terms, ms in _consistent_closures():
        ints = [t for t in terms if f.sort(t) is heaps.INT]
        addrs = [t for t in terms if f.sort(t) is heaps.ADDR]
        held = SymbolicHeap(tuple(leq(t, t) for t in ints)
                            + tuple(eq(t, t) for t in addrs), ())
        for m in ms:
            assert satisfies(m, held, allow_leftover=True), (i, str(h))
            for t in addrs:
                assert not _holds_in([m], "<=", t, t), (i, str(h), str(t))


def test_closure_that_met_false_keeps_its_classes_and_answers():
    x, y, z = PVar("x"), PVar("y"), PVar("z")
    f = Facts((eq(x, y), eq(y, z), FALSE_ATOM), (ListSegAtom(x, NIL),))
    assert f.inconsistent
    assert f.classes() == [[NIL], [x, y, z]]
    assert f.rep(z) is x and f.equal(y, z)
    assert f.proves_neq(z, NIL)  # z's class holds a segment head


# ---------------------------------------------------------------------------
# rendering sanity (round trips live in test_syntax)
# ---------------------------------------------------------------------------

def test_render_shapes():
    assert str(H("emp")) == "emp"
    assert str(normalize(H("x=1 /\\ emp"))) == "x=1 /\\ emp"
    assert str(H("node(r,x',_) * list(x',nil,{x:1})")) == "node(r,x',_)*list(x',nil,{x:1})"
