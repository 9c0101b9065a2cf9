"""Tests for entailment, frame inference, abduction and unfolding."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from shaperef import prover
from shaperef.cfg import build_cfg
from shaperef.domains import DOMAINS, AbstractionParam, abstract
from shaperef.heaps import (
    Disj,
    FALSE_HEAP,
    Facts,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    SymbolicHeap,
    normalize,
    star,
)
from shaperef.lang import ParseError, parse
from shaperef.oracle import (
    BoundsTooLarge,
    OracleBounds,
    models,
    oracle_entails,
    satisfies,
)
from shaperef.prover import (
    BudgetExceeded,
    Prover,
    abduce,
    choose,
    entails,
    frame_infer,
    unfold,
)
from shaperef.syntax import parse_heap as H
from shaperef.terms import (Const, FALSE_ATOM, LVar, Multiset, NIL, PVar,
                             PureAtom, TRUE_ATOM, eq, leq, lt, neq, shifted,
                             subst_term)

from gens import (chain_heap, fold_query, random_heap,
                  random_heap_with_logical_pure, random_param_multiset)

TIGHT = OracleBounds(max_cells=3, max_extension=1, n_spare_data=1,
                     max_models=20000, max_steps=200000)


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

def test_entails_node_into_segment():
    assert entails(H("node(x,nil,{d})"), H("list(x,nil)")).holds
    assert entails(H("node(x,nil,{d})"), H("list(x,nil,{d:1})")).holds
    assert not entails(H("list(x,nil)"), H("node(x,nil,_)")).holds


def test_entails_reflexive_with_empty_instantiation():
    d = H("t=r /\\ list(r,nil,{x:1})")
    out = entails(d, d)
    assert out.holds and out.instantiation == {}


def test_entails_two_nodes_fold_into_segment():
    assert entails(H("node(x,y,_) * node(y,nil,_)"), H("list(x,nil)")).holds
    assert entails(H("node(x,y,{3}) * node(y,nil,{5})"),
                   H("list(x,nil,{3:1,5:1})")).holds
    # mass cannot be double counted
    assert not entails(H("node(x,y,{5}) * node(y,nil,_)"),
                       H("list(x,nil,{5:2})")).holds
    assert entails(H("node(x,y,{5}) * node(y,nil,{5})"),
                   H("list(x,nil,{5:2})")).holds


def test_entails_respects_payload_values():
    assert not entails(H("node(x,y,{3})"), H("node(x,y,{4})")).holds
    # an untracked payload guarantees no specific value
    assert not entails(H("node(x,y,_)"), H("node(x,y,{3})")).holds
    assert entails(H("node(x,y,{3})"), H("node(x,y,_)")).holds


def test_entails_existential_content_key():
    # every nonempty list has some first element
    assert entails(H("list(x,nil)"), H("list(x,nil,{d':1})")).holds
    # ... but not any particular one
    assert not entails(H("list(x,nil)"), H("list(x,nil,{3:1})")).holds


def test_entails_equality_aware_contents():
    assert entails(H("a=b /\\ node(x,nil,{a})"), H("list(x,nil,{b:1})")).holds
    assert not entails(H("a!=b /\\ node(x,nil,{a})"),
                       H("list(x,nil,{b:1})")).holds


def test_entails_pure_sides():
    assert entails(H("x=1 /\\ emp"), H("x=1")).holds
    assert not entails(H("emp"), H("x=1")).holds
    assert entails(H("x=1 /\\ x=2 /\\ emp"), H("node(a,b,_)")).holds  # false lhs


def test_entails_modulo_true_absorbs_leftover():
    lhs = H("node(x,nil,{7}) * node(y,nil,{8})")
    assert entails(lhs, H("node(x,nil,_)"), modulo_true=True).holds
    assert not entails(lhs, H("node(x,nil,_)")).holds
    assert entails(lhs, H("node(x,nil,_) * true")).holds


def test_entails_segment_chaining():
    assert entails(H("list(x,y,{7:1}) * node(y,nil,_)"),
                   H("list(x,nil,{7:1})")).holds
    assert entails(H("list(x,y,{7:1}) * list(y,z) * node(z,nil,_)"),
                   H("list(x,nil,{7:1})")).holds


def test_entails_sorted_bounds():
    assert entails(H("node(x,nil,{7})"), H("slseg(x,nil,[0,10),{7:1})")).holds
    # upper bound is strict
    assert not entails(H("node(x,nil,{9})"), H("slseg(x,nil,[0,9),{9:1})")).holds
    assert entails(H("node(x,nil,{9})"), H("slseg(x,nil,[0,10))")).holds
    # interval widening on direct matches
    assert entails(H("slseg(x,nil,[2,5),{3:1})"),
                   H("slseg(x,nil,[0,9),{3:1})")).holds
    assert not entails(H("slseg(x,nil,[2,5),{3:1})"),
                       H("slseg(x,nil,[3,9),{3:1})")).holds


def test_entails_sorted_chaining():
    assert entails(H("slseg(x,y,[0,4),{3:1}) * slseg(y,nil,[4,9),{5:1})"),
                   H("slseg(x,nil,[0,9),{3:1,5:1})")).holds


def test_entails_symbolic_sorted_bounds():
    assert entails(H("slseg(x,nil,[a,b),{})"), H("slseg(x,nil,[a,b),{})")).holds
    assert entails(H("a<=c /\\ slseg(x,nil,[c,b))"),
                   H("slseg(x,nil,[a,b))")).holds
    assert not entails(H("slseg(x,nil,[c,b))"), H("slseg(x,nil,[a,b))")).holds


def test_entails_arbitrary_heap_atom():
    assert entails(H("node(x,y,_) * node(y,nil,_)"), H("true")).holds
    assert entails(H("node(x,y,_) * true"), H("node(x,y,_) * true")).holds
    assert not entails(H("node(x,y,_) * true"), H("node(x,y,_)")).holds


def test_entails_identity_shortcut_ignores_a_duplicate_true(monkeypatch):
    # the right side normalizes to the left one: no search runs
    monkeypatch.setattr(prover, "_Search", None)
    out = entails(H("node(x,nil,_) * true"),
                  H("node(x,nil,_) * true * true"))
    assert out.holds and out.instantiation == {}


def test_budget_exceeded_raises(monkeypatch):
    # the move bound does not cut this query, and its search visits more
    # than five states
    monkeypatch.setattr("shaperef.prover.MAX_STEPS", 5)
    lhs = H("list(j0',j1') * list(j1',e2') * list(r,j0')")
    rhs = H("list(j1',e2') * list(r,j1')")
    with pytest.raises(BudgetExceeded):
        entails(lhs, rhs)


@pytest.mark.parametrize("op", [frame_infer, abduce],
                         ids=lambda op: op.__name__)
def test_every_operation_reports_an_exhausted_budget(monkeypatch, op):
    # as entails does above: an exhausted search is "unknown", so abduce
    # neither answers [false] nor drops the search's proposals
    monkeypatch.setattr("shaperef.prover.MAX_STEPS", 5)
    lhs = H("list(j0',j1') * list(j1',e2') * list(r,j0')")
    rhs = H("list(j1',e2') * list(r,j1')")
    with pytest.raises(BudgetExceeded):
        op(lhs, rhs)


# ---------------------------------------------------------------------------
# The move bound of strict entailment
# ---------------------------------------------------------------------------

def test_the_move_bound_answers_no_at_the_root(monkeypatch):
    # five left atoms against one right one need at least four moves, one
    # more than the unfold budget: "no" without a search
    monkeypatch.setattr("shaperef.prover.MAX_STEPS", 2)
    lhs = H("list(a,b,{1:1,2:1}) * list(b,c,{1:1,2:1}) * list(c,d,{1:1,2:1})"
            " * list(d,e,{1:1,2:1}) * node(e,nil,_)")
    rhs = H("list(a,nil,{1:4,2:4})")
    assert not entails(lhs, rhs).holds


def _bound_corpus():
    """Seeded heaps and their abstractions in all three domains."""
    rng = random.Random(71)
    for i in range(60):
        for domain in DOMAINS:
            h = random_heap(rng, domain=domain, max_atoms=4, n_pure=2,
                            with_true=i % 7 == 0)
            alpha, trace = abstract(h, AbstractionParam(
                domain, random_param_multiset(rng)))
            yield h, alpha
            for step in trace.steps:
                yield step.before, step.after


def _answer(lhs, rhs):
    try:
        out = entails(lhs, rhs)
    except BudgetExceeded:
        return "unknown"
    return out.holds, out.instantiation


def test_the_move_bound_changes_no_answer(monkeypatch):
    pairs = [p for a, b in _bound_corpus() for p in ((a, b), (b, a))]
    with_bound = [_answer(lhs, rhs) for lhs, rhs in pairs]
    monkeypatch.setattr(prover, "_need", lambda rem, rhs: 0)
    without = [_answer(lhs, rhs) for lhs, rhs in pairs]
    assert with_bound == without
    holds = [a[0] for a in with_bound if a != "unknown"]
    assert holds.count(True) > 100 and holds.count(False) > 100


def test_every_goal_that_reaches_a_leaf_is_within_the_bound(monkeypatch):
    need = prover._need
    monkeypatch.setattr(prover, "_need", lambda rem, rhs: 0)
    real = prover._Search._solve
    reached = []

    def solve(self, g):
        first = True
        for leaf in real(self, g):
            if first and self.strict:
                assert need(g.rem, g.rhs) <= g.ubud, g
                reached.append(g)
            first = False
            yield leaf

    monkeypatch.setattr(prover._Search, "_solve", solve)
    for a, b in _bound_corpus():
        for lhs, rhs in ((a, b), (b, a)):
            lhs = normalize(lhs)
            if lhs.is_false:
                continue
            try:  # every leaf, not only the first
                list(prover._Search(lhs, rhs, "entails", False).run())
            except (BudgetExceeded, ValueError):
                pass
    assert len(reached) > 1000
    assert any(need(g.rem, g.rhs) == g.ubud > 0 for g in reached)


@pytest.mark.parametrize("domain", ["mls", "rls", "sls"])
def test_entails_of_abstraction_builds_each_closure_once(domain, monkeypatch):
    """normalize, abstract and the search reuse the closure a canonical
    heap already holds, and each search builds a context's closure once."""
    built: list[tuple] = []
    init = Facts.__init__

    def counting_init(self, pure, spatial):
        built.append((pure, spatial))
        init(self, pure, spatial)

    monkeypatch.setattr(Facts, "__init__", counting_init)
    rng = random.Random(23)
    total = 0
    for i in range(40):
        h = random_heap(rng, domain, max_atoms=4, with_true=i % 5 == 0)
        assert not h.facts.inconsistent  # built before counting starts
        param = AbstractionParam(domain, random_param_multiset(rng))
        built.clear()
        entails(h, abstract(h, param)[0])
        assert (h.pure, h.spatial) not in built
        assert len(set(built)) == len(built)
        total += len(built)
    assert total > 0  # the searches did build closures of their own


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def _case_strs(d: Disj) -> list[str]:
    return [str(h) for h in d]


def test_unfold_empty_list_segment():
    ctx = H("list(e,f)")
    cases = list(unfold(ctx.spatial[0], ctx))
    assert len(cases) == 2
    assert str(cases[0]) == "node(e,f,_)"
    # the second case extends through a fresh cell
    assert isinstance(cases[1].spatial[0], NodeAtom)
    assert isinstance(cases[1].spatial[1], ListSegAtom)
    assert cases[1].spatial[0].data is None
    assert cases[1].spatial[1].contents.is_empty()


def test_unfold_singleton_list_segment():
    ctx = H("list(e,f,{d:1})")
    cases = list(unfold(ctx.spatial[0], ctx))
    assert len(cases) == 3
    # one-cell case: the cell holds the tracked element
    assert str(cases[0]) == "node(e,f,{d})"
    # head consumes the element, tail untracked
    assert cases[1].spatial[0].data == PVar("d")
    assert cases[1].spatial[1].contents.is_empty()
    # head unknown, element still in the tail
    assert cases[2].spatial[0].data is None
    assert cases[2].spatial[1].contents == Multiset.of([(PVar("d"), 1)])


def test_unfold_larger_multiset_consumes_every_class():
    ctx = H("list(e,f,{a:1,b:1})")
    cases = list(unfold(ctx.spatial[0], ctx))
    # two consume cases (a and b are distinct classes) plus the skip case
    assert len(cases) == 3
    heads = [c.spatial[0].data for c in cases]
    assert PVar("a") in heads and PVar("b") in heads and None in heads
    # under a=b the classes collapse to one consume case
    ctx2 = H("a=b /\\ list(e,f,{a:1,b:1})")
    cases2 = list(unfold(ctx2.spatial[0], ctx2))
    assert len(cases2) == 2


def test_unfold_sorted_emits_order_atoms():
    ctx = H("slseg(e,f,[0,9),{5:1})")
    for case in unfold(ctx.spatial[0], ctx):
        assert any(p.op == "<=" for p in case.pure)
        assert any(p.op == "<" for p in case.pure)
    # the consume case pins the tail's lower bound to the element
    consume = [c for c in unfold(ctx.spatial[0], ctx)
               if len(c.spatial) == 2 and c.spatial[0].data == Const(5)]
    assert consume and consume[0].spatial[1].lo == Const(5)


def test_unfold_sorted_empty_contents():
    ctx = H("slseg(e,f,[0,9))")
    cases = list(unfold(ctx.spatial[0], ctx))
    assert len(cases) == 2
    for case in cases:
        assert isinstance(case.spatial[0], NodeAtom)
        assert case.spatial[0].data is not None  # fresh bounded payload


def test_unfold_names_fresh_variables_in_order():
    # the names reach frame_infer's outputs: an untracked sorted head's
    # value is named before the tail's source.  A fresh variable renders
    # with one prime, as every logical variable does.
    ctx = H("slseg(e,f,[0,9),{a:1,b:1})")
    assert _case_strs(unfold(ctx.spatial[0], ctx)) == [
        "0<=a /\\ a<9 /\\ node(e,x1',{a})*slseg(x1',f,[a,9),{b:1})",
        "0<=b /\\ b<9 /\\ node(e,x2',{b})*slseg(x2',f,[b,9),{a:1})",
        "0<=d3' /\\ d3'<9 /\\ "
        "node(e,x4',{d3'})*slseg(x4',f,[d3',9),{a:1,b:1})"]
    ctx = H("slseg(e,f,[0,9))")
    assert _case_strs(unfold(ctx.spatial[0], ctx)) == [
        "0<=d1' /\\ d1'<9 /\\ node(e,f,{d1'})",
        "0<=d2' /\\ d2'<9 /\\ node(e,x3',{d2'})*slseg(x3',f,[d2',9))"]


def test_unfold_names_no_variable_of_its_context():
    # the context already has x1', so the tail's source is x2'
    ctx = H("node(e,x1',_) * list(x1',f)")
    seg = next(a for a in ctx.spatial if isinstance(a, ListSegAtom))
    assert _case_strs(unfold(seg, ctx)) == [
        "node(x1',f,_)", "node(x1',x2',_)*list(x2',f)"]


def _made_heaps(seed: int, n: int = 60):
    """Frames, anti-frames and unfold cases of seeded heaps: each heap's
    frames against a node at the head of each of its cells and against
    another seeded heap, the anti-frames that complete all but its first
    cell to the whole, and the unfold cases of each of its cells."""
    rng = random.Random(seed)
    for i in range(n):
        domain = ("mls", "rls", "sls")[i % 3]
        lhs = random_heap(rng, domain=domain, max_atoms=3,
                          with_true=i % 4 == 1)
        rhs = random_heap(rng, domain=domain, max_atoms=2)
        rights = [SymbolicHeap((), (NodeAtom(a.head, LVar("n"), None),))
                  for a in lhs.cells()] + [rhs]
        for r in rights:
            yield from (o.frame for o in frame_infer(lhs, r))
        yield from abduce(SymbolicHeap(lhs.pure, lhs.cells()[1:]), lhs)
        for a in lhs.cells():
            yield from unfold(a, lhs)


@pytest.mark.parametrize("seed", [5, 17])
def test_made_heaps_parse_back_to_themselves(seed):
    """The variables the prover makes print as the parser reads them:
    every frame, anti-frame and unfold case round-trips."""
    def parses_back(h: SymbolicHeap) -> bool:
        try:
            return H(str(h)) == h
        except ParseError:
            return False

    made = list(_made_heaps(seed))
    assert len(made) > 300
    assert [str(h) for h in made if not parses_back(h)] == []


def _splice(context: SymbolicHeap, idx: int, case: SymbolicHeap) -> SymbolicHeap:
    spatial = context.spatial[:idx] + case.spatial + context.spatial[idx + 1:]
    return SymbolicHeap(context.pure + case.pure, spatial)


@pytest.mark.parametrize("domain", ["mls", "rls", "sls"])
def test_unfold_is_equivalent_to_the_atom(domain):
    """The unfolded disjunction has the same bounded models as the segment."""
    rng = random.Random(20240 + DOMAINS.index(domain))
    checked = 0
    for _ in range(40):
        h = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        segs = [i for i, a in enumerate(h.spatial)
                if isinstance(a, (ListSegAtom, SortedSegAtom))]
        if not segs:
            continue
        idx = segs[0]
        cases = [_splice(h, idx, c) for c in unfold(h.spatial[idx], h)]
        try:
            # atom side entails some disjunct: every model satisfies one case
            # (same quantifier scope, so the model's bindings are shared)
            for m in models(h, TIGHT):
                assert any(satisfies(m, c, TIGHT) for c in cases), \
                    f"uncovered model of {h}: {m.render()}"
            # each disjunct entails the original, again in shared scope
            for c in cases:
                for m in models(normalize(c), TIGHT):
                    assert satisfies(m, h, TIGHT), \
                        f"{c} exceeds {h}: {m.render()}"
        except BoundsTooLarge:
            continue
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# Frame inference
# ---------------------------------------------------------------------------

def test_frame_infer_case_splits_a_segment():
    outs = frame_infer(H("t=r /\\ list(r,nil,{x:1})"), H("node(t,n',_)"))
    got = sorted((str(o.frame),
                  tuple(sorted((str(k), str(v))
                               for k, v in o.instantiation.items())))
                 for o in outs)
    assert got == [
        ("emp", (("n'", "nil"),)),
        ("list(n',nil)", ()),
        ("list(n',nil,{x:1})", ()),
    ]


def test_frame_infer_simple_leftover():
    outs = frame_infer(H("node(a,b,{1}) * node(b,nil,{2})"), H("node(a,b,_)"))
    assert len(outs) == 1
    assert str(outs[0].frame) == "node(b,nil,{2})"


def test_frame_infer_failure_is_empty():
    assert frame_infer(H("list(r,nil)"), H("node(q,n',_)")) == []


def test_witness_leaf_without_obligations_builds_no_closure(monkeypatch):
    """A leaf with no pure obligation left reads no closure, so the search
    builds none for it; the root reuses the normalized left side's."""
    lhs = normalize(H("node(x,nil,_) * list(y,nil)"))
    built: list[tuple] = []
    init = Facts.__init__

    def counting_init(self, pure, spatial):
        built.append((pure, spatial))
        init(self, pure, spatial)

    monkeypatch.setattr(Facts, "__init__", counting_init)
    outs = frame_infer(lhs, H("node(x,nil,d')"))
    assert [str(o.frame) for o in outs] == ["list(y,nil)"]
    assert built == []


def test_frame_infer_keeps_arbitrary_heap_atom():
    outs = frame_infer(H("node(a,nil,{1}) * true"), H("node(a,nil,_)"))
    assert outs and all(o.frame.has_true for o in outs)


@pytest.mark.parametrize("domain", ["mls", "rls", "sls"])
def test_frame_outcomes_cover_the_left_heap(domain):
    """Every bounded model of the left heap satisfies rhs * frame for
    at least one returned outcome (the outcomes form a case cover)."""
    rng = random.Random(77 + DOMAINS.index(domain))
    covered_checks = 0
    for _ in range(60):
        lhs = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        if not lhs.spatial:
            continue
        cell = lhs.spatial[0]
        src = cell.at if isinstance(cell, NodeAtom) else cell.src
        rhs = SymbolicHeap((), (NodeAtom(src, LVar("n'"), None),))
        outs = frame_infer(lhs, rhs)
        if not outs:
            continue
        posts = [star(rhs.subst(o.instantiation), o.frame) for o in outs]
        try:
            for m in models(lhs, TIGHT):
                assert any(satisfies(m, p, TIGHT) for p in posts), \
                    f"model of {lhs} not covered: {m.render()}"
        except BoundsTooLarge:
            continue
        covered_checks += 1
    assert covered_checks >= 10


# ---------------------------------------------------------------------------
# Abduction
# ---------------------------------------------------------------------------

def test_abduce_contradiction_falls_back_to_false():
    out = abduce(H("res=0 /\\ emp"), H("res=1"))
    assert [str(c) for c in out] == ["false /\\ emp"]


def test_abduce_missing_cell():
    out = abduce(H("emp"), H("node(x,y,_)"))
    assert [str(c) for c in out] == ["node(x,y,_)"]


def test_abduce_already_entailed_gives_emp():
    out = abduce(H("node(x,y,{3})"), H("node(x,y,_)"))
    assert [str(c) for c in out] == ["emp"]


def test_abduce_pure_gap():
    out = abduce(H("emp"), H("res=1"))
    assert [str(c) for c in out] == ["res=1 /\\ emp"]


def test_abduce_payload_equality_hypothesis():
    out = abduce(H("d=d' /\\ node(t,u',{d'})"), H("node(t,v',{x}) * true"))
    assert [str(c) for c in out] == ["d=x /\\ emp"]


def test_abduce_order_hypotheses_for_sorted_bounds():
    out = abduce(H("node(x,nil,{d})"), H("slseg(x,nil,[0,c),{d:1}) * true"))
    assert len(out) == 1
    ops = sorted(p.op for p in out[0].pure)
    assert ops == ["<", "<="] and not out[0].spatial


def test_abduce_candidates_all_pass_recheck():
    rng = random.Random(4242)
    for _ in range(150):
        lhs = random_heap(rng, domain="mls", max_atoms=2, n_pure=1)
        rhs = random_heap(rng, domain="mls", max_atoms=2, n_pure=1)
        for cand in abduce(lhs, rhs):
            combined = star(lhs, cand)
            if cand.is_false:
                continue
            assert not combined.is_false
            assert entails(combined, rhs, modulo_true=True).holds


def _abduce_rechecking_every_proposal(lhs, rhs):
    """abduce with no candidate dropped before the re-check."""
    lhs = normalize(lhs)
    kept = [c for c in prover._proposals(lhs, rhs)
            if not star(lhs, c).is_false
            and entails(star(lhs, c), rhs, modulo_true=True).holds]
    return sorted(kept, key=prover._candidate_key) or [FALSE_HEAP]


def test_abduce_prunes_only_anti_frames_the_recheck_drops(monkeypatch):
    """The search moves no obligation whose head clashes into the
    anti-frame; abduce's answers are those of the unpruned search with
    every proposal re-checked."""
    rng = random.Random(31)
    corpus = []
    for i in range(120):
        lhs = random_heap(rng, domain=("mls", "rls", "sls")[i % 3],
                          max_atoms=3, n_pure=2)
        corpus += [(lhs, H(f"node({y},n',d')"))
                   for y in sorted(v for v in lhs.vars()
                                   if isinstance(v, PVar))]
    pruned = 0
    real = prover._Search._residue_clashes

    def counting(self, r_atom, theta):
        nonlocal pruned
        clash = real(self, r_atom, theta)
        pruned += clash
        return clash

    monkeypatch.setattr(prover._Search, "_residue_clashes", counting)
    answers = [abduce(lhs, rhs) for lhs, rhs in corpus]
    for lhs, rhs in corpus:
        # the right side fixes every cell's head (y): none may clash
        for cand in prover._proposals(lhs, rhs):
            assert not any(prover._clashes(lhs, a.head)
                           for a in cand.cells()), (str(lhs), str(cand))
    assert pruned > 0
    monkeypatch.setattr(prover._Search, "_residue_clashes",
                        lambda self, r_atom, theta: False)
    for (lhs, rhs), answer in zip(corpus, answers):
        assert answer == _abduce_rechecking_every_proposal(lhs, rhs), \
            (str(lhs), str(rhs))


def test_abduce_pruning_keeps_every_anti_frame_of_the_unpruned_search(
        monkeypatch):
    """Beyond one right node, a pruned branch no longer cuts off the moves
    after it: the residue move is tried only where no other move reached a
    leaf, and a leaf whose anti-frame clashes used to count.  So abduce
    keeps every answer of the unpruned search and may find more."""
    corpus = _multi_cell_abduction_corpus()
    answers = [abduce(lhs, rhs) for lhs, rhs in corpus]
    monkeypatch.setattr(prover._Search, "_residue_clashes",
                        lambda self, r_atom, theta: False)
    gained = 0
    for (lhs, rhs), answer in zip(corpus, answers):
        unpruned = _abduce_rechecking_every_proposal(lhs, rhs)
        if unpruned != [FALSE_HEAP]:
            assert set(unpruned) <= set(answer), (str(lhs), str(rhs))
        gained += answer != unpruned
    assert gained > 0


def _multi_cell_abduction_corpus():
    rng = random.Random(4243)
    corpus = []
    for i in range(150):
        domain = ("mls", "rls", "sls")[i % 3]
        corpus.append((random_heap(rng, domain=domain, max_atoms=2, n_pure=1),
                       random_heap(rng, domain=domain, max_atoms=2, n_pure=1)))
    return corpus


def test_the_recheck_drops_every_proposal_with_a_clashing_cell():
    """With the search's prune on, a proposal can still hold a cell whose
    head is bound after the residue move and clashes; star is false for
    it, so abduce needs no clash filter before the re-check."""
    clashing = 0
    for lhs, rhs in _multi_cell_abduction_corpus():
        assert abduce(lhs, rhs) == _abduce_rechecking_every_proposal(
            lhs, rhs), (str(lhs), str(rhs))
        lhs = normalize(lhs)
        if lhs.is_false:
            continue
        for cand in prover._proposals(lhs, rhs):
            if any(prover._clashes(lhs, a.head) for a in cand.cells()):
                clashing += 1
                assert star(lhs, cand).is_false, (str(lhs), str(cand))
    assert clashing > 0


@pytest.mark.parametrize("rhs", ["list(r,nil,{x+1:1})", "node(r,nil,{x+1})"])
def test_offset_of_nil_gives_no_answer_but_no(rhs):
    # x+1 has no value where x = nil, so nothing proves the right side
    lhs, rhs = H("x=nil /\\ node(r,nil,{1})"), H(rhs)
    for modulo in (False, True):
        assert not oracle_entails(lhs, rhs, modulo_true=modulo,
                                  bounds=TIGHT).holds
        assert not entails(lhs, rhs, modulo_true=modulo).holds
    assert abduce(lhs, rhs) == [FALSE_HEAP]
    assert frame_infer(lhs, rhs) == []
    prover = Prover()
    assert not prover.entails(lhs, rhs).holds
    assert prover.frame_infer(lhs, rhs) == []
    assert prover.abduce(lhs, rhs) == [FALSE_HEAP]


def test_an_inconsistent_left_side_has_the_false_frame_and_anti_frame():
    # x = nil, and a cell at x: the left side has no model
    lhs, rhs = H("x=nil /\\ node(x,nil,_)"), H("emp")
    prover = Prover()
    for infer in (frame_infer, prover.frame_infer):
        outs = infer(lhs, rhs)
        assert len(outs) == 1 and outs[0].holds
        assert outs[0].frame == FALSE_HEAP
    for find in (abduce, prover.abduce):
        assert find(lhs, rhs) == [FALSE_HEAP]


def test_offset_of_an_address_proves_no_disequality():
    # r+2 has no value where r is a cell address, so 2 != r+2 is false
    lhs, rhs = H("node(r,nil,_)"), H("2!=r+2 /\\ node(r,nil,_)")
    assert not oracle_entails(lhs, rhs, bounds=TIGHT).holds
    assert not entails(lhs, rhs).holds
    assert not Prover().entails(lhs, rhs).holds
    r2 = shifted(PVar("r"), 2)
    assert not lhs.facts.proves_neq(Const(2), r2)
    assert not lhs.facts.proves_neq(r2, NIL)


@pytest.mark.parametrize("op", ["=", "!=", "<=", "<"])
def test_offsets_of_an_address_satisfy_no_atom(op):
    # r+1 and r+2 have no value where r is a cell address, so every atom
    # over them is false, r+2=r+2 included
    lhs = H("node(r,nil,_)")
    r1, r2 = shifted(PVar("r"), 1), shifted(PVar("r"), 2)
    for u, v in itertools.product((r1, r2), repeat=2):
        rhs = SymbolicHeap((PureAtom(op, u, v),), lhs.spatial)
        assert not oracle_entails(lhs, rhs, bounds=TIGHT).holds
        assert not entails(lhs, rhs).holds, str(rhs)
        assert not Prover().entails(lhs, rhs).holds, str(rhs)
        assert not lhs.facts.equal(u, v)


def test_atoms_over_an_offset_need_an_integer_base():
    # x may be an address where nothing says otherwise, and then x+1 has
    # no value
    for lhs, rhs, holds in [("emp", "x+1=x+1 /\\ emp", False),
                            ("x<=3 /\\ emp", "x+1=x+1 /\\ emp", True),
                            ("node(r,nil,{x})", "x+1=x+1 /\\ node(r,nil,{x})",
                             True),
                            ("node(r,nil,_)", "x+1!=r /\\ node(r,nil,_)",
                             False),
                            ("x<=2 /\\ node(r,nil,_)",
                             "x+1!=r /\\ node(r,nil,_)", True),
                            # a disequality fact is about its own operands
                            ("x+1!=y /\\ emp", "x!=y /\\ emp", False),
                            ("x+1!=y /\\ emp", "x+2!=y /\\ emp", False),
                            ("x+1!=y /\\ emp", "y!=x+1 /\\ emp", True)]:
        assert oracle_entails(H(lhs), H(rhs), bounds=TIGHT).holds == holds
        assert entails(H(lhs), H(rhs)).holds == holds, (lhs, rhs)


# lhs, rhs, whether lhs |- rhs holds
EXISTENTIAL_ROWS = [
    # a bound t+c <= v' with no partner needs t+c to have an integer value
    ("node(x,nil,_)", "x<=v' /\\ node(x,nil,_)", False),
    ("node(x,nil,_)", "x+1<=v' /\\ node(x,nil,_)", False),
    ("x=nil /\\ emp", "x<=v' /\\ emp", False),
    ("emp", "x<=v' /\\ emp", False),
    ("x<=3 /\\ emp", "x<=v' /\\ emp", True),
    ("node(r,nil,{x})", "x<=v' /\\ node(r,nil,{x})", True),
    # so does an offset that an existential equals
    ("node(x,nil,_)", "v'=x+1 /\\ node(x,nil,_)", False),
    ("x=nil /\\ emp", "v'=x+1 /\\ emp", False),
    ("emp", "v'=x+1 /\\ emp", False),
    # bounds from both sides, and bounds of v' by itself
    ("x<=3 /\\ emp", "x<=v' /\\ v'<=5 /\\ emp", True),
    ("x<=7 /\\ emp", "x<=v' /\\ v'<=5 /\\ emp", False),
    ("emp", "3<=v' /\\ v'<=3 /\\ emp", True),
    ("emp", "v'<v' /\\ emp", False),
    ("x+1<y /\\ emp", "x<v' /\\ v'<y /\\ emp", True),
    ("x<y /\\ emp", "x<v' /\\ v'<y /\\ emp", False),
    # interval bounds bound by matching
    ("slseg(x,nil,[1,5))", "slseg(x,nil,[a',b'))", True),
    # contents keys bound over the left keys
    ("list(x,nil,{5})", "list(x,nil,{a'})", True),
    ("list(x,nil,{5,7})", "list(x,nil,{a',b'})", True),
    # obligations the deferred check gives up on, each of them invalid
    ("x<=y /\\ emp", "x<=v' /\\ v'<=y /\\ v'!=x /\\ emp", False),
    ("emp", "v'<w' /\\ w'<v' /\\ emp", False),
    ("x=nil /\\ emp", "v'+1=x /\\ emp", False),
    ("emp", "nil<=v' /\\ emp", False),
    # an equality binds v' of v'+1 as matching does, then must hold
    ("x=3 /\\ emp", "v'+1=x /\\ v'!=2 /\\ emp", False),
    ("x=3 /\\ emp", "v'+1=x /\\ 3<=v' /\\ emp", False),
    # and the one it lets pass: two free existentials may coincide
    ("emp", "v'=w' /\\ emp", True),
]
# valid rows whose witness lies outside the oracle's data universe (x-1
# below its least value, y+1 and 3-1 between two of its values), so the
# oracle cannot confirm them
ORACLE_BLIND_ROWS = [
    ("x<=y /\\ emp", "x<=v'+1 /\\ v'+1<=y /\\ emp", True),
    ("y<=3 /\\ emp", "v'=y+1 /\\ emp", True),
    ("x=3 /\\ emp", "v'+1=x /\\ emp", True),
    ("x=3 /\\ emp", "x=v'+1 /\\ emp", True),
]


@pytest.mark.parametrize(
    "lhs,rhs,holds,oracle_sees",
    [row + (True,) for row in EXISTENTIAL_ROWS]
    + [row + (False,) for row in ORACLE_BLIND_ROWS])
def test_right_existentials_are_bound_or_bounded_soundly(lhs, rhs, holds,
                                                         oracle_sees):
    lhs, rhs = H(lhs), H(rhs)
    assert entails(lhs, rhs).holds == holds
    assert bool(frame_infer(lhs, rhs)) == holds
    if oracle_sees:
        assert oracle_entails(lhs, rhs, bounds=TIGHT).holds == holds


# lhs, rhs, whether lhs |- rhs holds: a right existential under an offset,
# v'+k, binds to the left term where some v' makes v'+k equal it (the
# sorted join counts a node as [d,d+1), so its forms differ only in the
# existential of such a bound)
OFFSET_BINDING_ROWS = [
    ("slseg(r,nil,[d,a'+1))", "slseg(r,nil,[d,b'+1))", True),
    ("slseg(r,nil,[d,5))", "slseg(r,nil,[d,b'+1))", True),
    ("slseg(r,nil,[d,d+1))", "slseg(r,nil,[d,b'+1))", True),
    ("slseg(r,nil,[d,a'+2))", "slseg(r,nil,[d,b'+1))", True),
    ("d<=a' /\\ m=d /\\ slseg(r,nil,[d,a'+1))",
     "d<=b' /\\ m=d /\\ slseg(r,nil,[d,b'+1))", True),
    ("slseg(r,nil,[a'+1,e))", "slseg(r,nil,[b'+1,e))", True),
    ("slseg(r,nil,[d,a'+1))", "slseg(r,nil,[e,b'+1))", False),
    # nil has no offset: b'+1 is never nil
    ("list(r,nil)", "list(r,b'+1)", False),
    # payloads: a wild one is named w+1 with b' := w, and a second wild
    # payload need not equal b'
    ("node(r,nil,{5})", "node(r,nil,{b'+1})", True),
    ("node(r,nil,{d+1})", "node(r,nil,{b'+1})", True),
    ("node(r,nil,_)", "node(r,nil,{b'+1})", True),
    ("node(r,nil,_) * node(x,nil,_)",
     "node(r,nil,{b'+1}) * node(x,nil,{b'})", False),
    # a left term whose class has a constant c binds v' := c-k
    ("d=3 /\\ node(r,nil,{d})", "node(r,nil,{b'+1})", True),
    ("d=3 /\\ slseg(r,nil,[0,d))", "slseg(r,nil,[0,b'+1))", True),
]


@pytest.mark.parametrize("lhs,rhs,holds", OFFSET_BINDING_ROWS)
def test_an_existential_under_an_offset_binds_to_the_left_term(
        lhs, rhs, holds):
    lhs, rhs = H(lhs), H(rhs)
    assert entails(lhs, rhs).holds == holds
    assert bool(frame_infer(lhs, rhs)) == holds
    assert oracle_entails(lhs, rhs, bounds=TIGHT).holds == holds


def test_an_offset_binding_instantiates_the_existential():
    out = entails(H("slseg(r,nil,[d,5))"), H("slseg(r,nil,[d,b'+1))"))
    assert out.instantiation == {LVar("b"): Const(4)}
    out = entails(H("slseg(r,nil,[d,d+2))"), H("slseg(r,nil,[d,b'+1))"))
    assert out.instantiation == {LVar("b"): shifted(PVar("d"), 1)}
    out = entails(H("d=3 /\\ node(r,nil,{d})"), H("node(r,nil,{b'+1})"))
    assert out.instantiation == {LVar("b"): Const(2)}
    # a pure equality binds by the same rule
    out = entails(H("x=3 /\\ emp"), H("v'+1=x /\\ emp"))
    assert out.instantiation == {LVar("v"): Const(2)}
    out = entails(H("y<=3 /\\ emp"), H("v'+1=y+2 /\\ emp"))
    assert out.instantiation == {LVar("v"): shifted(PVar("y"), 1)}


def test_interval_bounds_bind_or_become_hypotheses():
    out = entails(H("slseg(x,nil,[1,5))"), H("slseg(x,nil,[a',b'))"))
    assert out.instantiation == {LVar("a"): Const(1), LVar("b"): Const(5)}
    out = abduce(H("slseg(x,nil,[a,b))"), H("slseg(x,nil,[0,9)) * true"))
    assert [str(c) for c in out] == ["0<=a /\\ b<=9 /\\ emp"]


def test_unfolding_registers_the_variables_it_makes(monkeypatch):
    # the right side's existentials gained by unfolding one of its segments
    # are exactly the case variables the context and the segment lack
    registered = []
    real = prover._Search._unfold_rhs

    def checked(self, atom, ctx):
        before = set(self.rhs_evars)
        cases = real(self, atom, ctx)
        known = {v.name for v in ctx.vars()}
        known.update(v.name for v in atom.vars())
        known.update(v.name for v in before)
        new = {v for case in cases for v in case.vars()
               if isinstance(v, LVar) and v.name not in known}
        assert self.rhs_evars - before == new, (atom, ctx)
        registered.append(len(new))
        return cases

    monkeypatch.setattr(prover._Search, "_unfold_rhs", checked)
    rng = random.Random(17)
    for _ in range(30):
        for domain in DOMAINS:
            h = random_heap(rng, domain=domain, max_atoms=4, n_pure=2)
            param = AbstractionParam(domain, random_param_multiset(rng))
            alpha, trace = abstract(h, param)
            for lhs, rhs in [(h, alpha)] + [(s.before, s.after)
                                            for s in trace.steps]:
                entails(lhs, rhs)
                abduce(lhs, rhs)
    assert len(registered) > 100 and all(registered)


def test_choose_prefers_consistent_then_small():
    a = H("node(x,y,_)")
    b = FALSE_HEAP
    c = H("res=1 /\\ emp")
    assert choose([a, b, c]) == c
    assert choose([b]) == b
    assert choose([a, b]) == a
    with pytest.raises(ValueError):
        choose([])


def test_choose_is_deterministic_under_permutation():
    rng = random.Random(9)
    cands = [H("node(x,y,_)"), H("res=1 /\\ emp"), H("x=1 /\\ emp"),
             FALSE_HEAP]
    expected = choose(cands)
    for _ in range(10):
        rng.shuffle(cands)
        assert choose(cands) == expected


# ---------------------------------------------------------------------------
# Pure atoms: proved, refuted, or neither
# ---------------------------------------------------------------------------

X, Y = PVar("x"), PVar("y")
PURE_CASES = {
    # id: atom, then heaps where it is proved, refuted and neither (None
    # where no consistent heap is)
    "=": (eq(X, Y), "x=y /\\ emp", "x!=y /\\ emp", "emp"),
    "!=": (neq(X, Y), "x!=y /\\ emp", "x=y /\\ emp", "emp"),
    "<=": (leq(X, Y), "x<y /\\ emp", "y<x /\\ emp", "x<=3 /\\ y<=3 /\\ emp"),
    "<": (lt(X, Y), "x<y /\\ emp", "y<=x /\\ emp", "x<=y /\\ emp"),
    # t < t is false whatever t is, and an order atom on an address too
    "x<x": (lt(X, X), None, "emp", None),
    "x<x on an address": (lt(X, X), None, "node(x,nil,_)", None),
    "<= on an address": (leq(X, Y), "x<y /\\ emp", "node(x,nil,_)", "emp"),
    "< on an address": (lt(X, Y), "x<y /\\ emp", "node(y,nil,_)", "emp"),
    "<= on nil": (leq(X, NIL), None, "emp", None),
}


def _proved_refuted(facts: Facts, atom: PureAtom) -> tuple[bool, bool]:
    return tuple(prover._decide(facts, atom.op, atom.lhs, atom.rhs, refute)
                 for refute in (False, True))


@pytest.mark.parametrize("atom,proved,refuted,neither", PURE_CASES.values(),
                         ids=list(PURE_CASES))
def test_pure_atoms_are_proved_or_refuted_by_the_facts(atom, proved, refuted,
                                                       neither):
    for text, want in ((proved, (True, False)), (refuted, (False, True)),
                       (neither, (False, False))):
        if text is None:
            continue
        facts = H(text).facts
        assert _proved_refuted(facts, atom) == want, text


def test_true_is_always_proved_and_false_always_refuted():
    for text in ("emp", "x=y /\\ emp", "x<y /\\ emp"):
        facts = H(text).facts
        assert _proved_refuted(facts, TRUE_ATOM) == (True, False)
        assert _proved_refuted(facts, FALSE_ATOM) == (False, True)


# ---------------------------------------------------------------------------
# The stateful wrapper
# ---------------------------------------------------------------------------

def test_prover_counts_queries_and_memoizes():
    p = Prover()
    lhs, rhs = H("node(x,nil,{d})"), H("list(x,nil)")
    assert p.entails(lhs, rhs).holds
    assert p.entails(lhs, rhs).holds
    assert p.queries == 2
    assert p.entails(lhs, rhs) is p.entails(lhs, rhs)  # cached object
    p.frame_infer(lhs, H("node(x,n',_)"))
    p.abduce(H("emp"), rhs)
    assert p.queries == 6


def test_prover_counts_memo_hits():
    p = Prover()
    lhs, rhs = H("node(x,nil,{d})"), H("list(x,nil)")
    p.entails(lhs, rhs)
    assert (p.queries, p.memo_hits) == (1, 0)
    p.entails(lhs, rhs)
    assert (p.queries, p.memo_hits) == (2, 1)
    # an equal heap built afresh hits too; another op or flag does not
    p.entails(H("node(x,nil,{d})"), H("list(x,nil)"))
    p.entails(lhs, rhs, modulo_true=True)
    p.abduce(lhs, rhs)
    assert (p.queries, p.memo_hits) == (5, 2)


def test_prover_stream_counts_hits_and_returns_the_stored_answers():
    """A seeded stream of queries with repeats, some through equal heaps
    built afresh: each repeated (op, lhs, rhs, flag) is a hit returning
    the object its first query stored, and a first query's answer is the
    plain function's."""
    rng = random.Random(2501)
    pool = [(random_heap(rng, domain=DOMAINS[i % 3], max_atoms=2),
             random_heap(rng, domain=DOMAINS[i % 3], max_atoms=2))
            for i in range(12)]
    # the Prover method, the plain function and the flag of each op
    ops = [(Prover.entails, entails, {}),
           (Prover.entails, entails, {"modulo_true": True}),
           (Prover.frame_infer, frame_infer, {}),
           (Prover.abduce, abduce, {})]
    p = Prover()
    stored: dict = {}
    for _ in range(200):
        lhs, rhs = rng.choice(pool)
        if rng.random() < 0.5:  # an equal heap that is another object
            lhs = SymbolicHeap(lhs.pure, lhs.spatial)
        i = rng.randrange(len(ops))
        method, plain, flag = ops[i]
        hits = p.memo_hits
        out = method(p, lhs, rhs, **flag)
        key = (i, lhs, rhs)
        if key in stored:
            assert p.memo_hits == hits + 1 and out is stored[key]
        else:
            assert p.memo_hits == hits and out == plain(lhs, rhs, **flag)
            stored[key] = out
    assert (p.queries, p.memo_hits) == (200, 200 - len(stored)) == (200, 154)


def _gens_corpus() -> list[SymbolicHeap]:
    """Seeded heaps from every tests/gens.py generator, some of them
    false, and the false stars of pairs of them."""
    rng = random.Random(2502)
    heaps = [FALSE_HEAP, H("false /\\ node(x,nil,_)"),
             H("x=nil /\\ x!=nil /\\ emp")]
    for i in range(300):
        domain = DOMAINS[i % 3]
        heaps += [random_heap(rng, domain=domain, with_true=i % 4 == 3),
                  random_heap_with_logical_pure(rng, domain),
                  *fold_query(rng, domain)]
    heaps.append(chain_heap([None, Const(1), PVar("x")]))
    heaps += [star(a, b) for a, b in zip(heaps[::2], heaps[1::2])]
    return heaps


def test_is_false_is_a_test_for_the_false_atom():
    corpus = _gens_corpus()
    assert sum(h.is_false for h in corpus) >= 100
    for h in corpus:
        assert h.is_false == any(p.op == "false" for p in h.pure), str(h)


def test_choose_returns_a_lone_candidate_itself():
    for h in _gens_corpus()[:100]:
        assert choose([h]) is h
        assert choose((h,)) is h


def test_search_renames_exactly_where_a_right_existential_is_a_left_variable():
    """_Search renames the right side's existentials apart exactly where
    one of them is a left variable; a renamed existential gets a name
    other than its own."""
    rng = random.Random(2503)
    decisions = set()
    for i in range(300):
        lhs = random_heap(rng, domain=DOMAINS[i % 3], max_atoms=3, n_pure=2)
        rhs = _clashing_rhs(rng, lhs)
        evars = rhs.evars()
        old_rule = any(map(lhs.vars().__contains__, evars))
        st = prover._Search(lhs, rhs, "frame", False)
        assert st.renaming.keys() == set(evars)
        renamed = any(k is not v for k, v in st.renaming.items())
        assert renamed == old_rule, (str(lhs), str(rhs))
        decisions.add((bool(evars), old_rule))
    assert decisions == {(False, False), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# Differential testing against the bounded-model oracle
# ---------------------------------------------------------------------------

def _weaken(rng: random.Random, h: SymbolicHeap) -> SymbolicHeap:
    """A heap that should follow from h (drops or blurs information)."""
    pure = tuple(p for p in h.pure if rng.random() < 0.7)
    spatial = []
    for a in h.spatial:
        if isinstance(a, NodeAtom) and a.data is not None and rng.random() < 0.4:
            spatial.append(NodeAtom(a.at, a.nxt, None))
        elif isinstance(a, ListSegAtom) and rng.random() < 0.4:
            keep = Multiset.of((k, n) for k, n in a.contents.items
                               if rng.random() < 0.6)
            spatial.append(ListSegAtom(a.src, a.dst, keep))
        else:
            spatial.append(a)
    return SymbolicHeap(pure, tuple(spatial))


@pytest.mark.parametrize("domain", ["mls", "rls", "sls"])
def test_entailment_differential_against_oracle(domain):
    """entails() is sound on random pairs; incompleteness is only logged.

    A positive prover verdict must always be confirmed by the bounded-model
    oracle.  The reverse direction (oracle yes, prover no) measures
    incompleteness and is reported, not asserted, at this sample size.
    """
    rng = random.Random(31000 + DOMAINS.index(domain))
    sound_violations = []
    agree = incomplete = total = 0
    for i in range(400):
        lhs = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        if i % 3 == 0:
            rhs: SymbolicHeap = _weaken(rng, lhs)
        else:
            rhs = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        modulo = rng.random() < 0.3
        try:
            verdict = oracle_entails(lhs, rhs, modulo_true=modulo,
                                     bounds=TIGHT)
        except BoundsTooLarge:
            continue
        if verdict.holds and verdict.models_checked == 0:
            continue  # lhs has no models within bounds: vacuous pair
        try:
            claimed = entails(lhs, rhs, modulo_true=modulo).holds
        except BudgetExceeded:
            claimed = False
        total += 1
        if claimed and not verdict.holds:
            sound_violations.append((lhs, rhs, modulo, verdict.countermodel))
        elif claimed == verdict.holds:
            agree += 1
        else:
            incomplete += 1
    assert not sound_violations, \
        "\n".join(f"{l} |- {r} (modulo={m}) refuted by {cm.render()}"
                  for l, r, m, cm in sound_violations[:3])
    assert total >= 250
    print(f"\n[{domain}] {total} pairs, {agree} agree, "
          f"{incomplete} incomplete ({incomplete / total:.1%})")


@pytest.mark.parametrize("domain", DOMAINS)
def test_abduction_differential_against_oracle(domain):
    """Every consistent anti-frame A of abduce(lhs, rhs) has lhs * A |=
    rhs * true in every bounded model, against random right sides and
    against the load/store pre node(y,n',d')."""
    rng = random.Random(32000 + DOMAINS.index(domain))
    refuted = []
    checked = 0
    for i in range(300):
        lhs = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        if i % 2:
            rhs = random_heap(rng, domain=domain, max_atoms=2, n_pure=1)
        else:
            rhs = H(f"node({rng.choice('rst')},n',d')")
        for cand in abduce(lhs, rhs):
            if cand.is_false:
                continue
            try:
                verdict = oracle_entails(star(lhs, cand), rhs,
                                         modulo_true=True, bounds=TIGHT)
            except BoundsTooLarge:
                continue
            if verdict.models_checked == 0:
                continue  # lhs * A has no model within the bounds
            checked += 1
            if not verdict.holds:
                refuted.append((lhs, rhs, cand, verdict.countermodel))
    assert not refuted, "\n".join(
        f"{l} * {a} |- {r} refuted by {cm.render()}"
        for l, r, a, cm in refuted[:3])
    print(f"\n[{domain}] {checked} anti-frames checked")
    assert checked >= 150


# ---------------------------------------------------------------------------
# Pinned answers
# ---------------------------------------------------------------------------

def _footprint_pres(text: str) -> list[SymbolicHeap]:
    """The pres of a program's load, store and assert edges, as the
    analyzer's transfer function asks for them."""
    pres = []
    for _, _, spec in build_cfg(parse(text)).edges:
        if spec.kind in ("load", "store", "assert"):
            pres.extend(spec.pre.heaps if isinstance(spec.pre, Disj)
                        else (spec.pre,))
    return pres


def _render_answers(lhs: SymbolicHeap, rhs: SymbolicHeap) -> str:
    """frame_infer, abduce with choose, and entails of one query, as
    rendered; a query that exhausts its budget renders as "budget"."""
    def inst(m):
        return ",".join(f"{k}:={v}" for k, v in
                        sorted(m.items(), key=lambda e: e[0].name))

    def ask(query):
        try:
            return query()
        except BudgetExceeded:
            return "budget"

    frames = ask(lambda: " | ".join(f"{o.frame} [{inst(o.instantiation)}]"
                                    for o in frame_infer(lhs, rhs)))
    cands = ask(lambda: abduce(lhs, rhs))
    lines = [f"{lhs} |- {rhs}", f"frames {frames}"]
    if cands == "budget":
        lines += ["abduce budget", "chosen budget"]
    else:
        lines += ["abduce " + " | ".join(map(str, cands)),
                  f"chosen {choose(cands)}"]
    for modulo in (False, True):
        p = ask(lambda: entails(lhs, rhs, modulo_true=modulo))
        lines.append(p if p == "budget"
                     else f"entails {p.holds} [{inst(p.instantiation)}]")
    return "\n".join(lines) + "\n"


def _clashing_rhs(rng: random.Random, lhs: SymbolicHeap) -> SymbolicHeap:
    """A right node with pure atoms whose existentials are mostly the left
    side's own logical variables, so that renaming them apart matters."""
    names = sorted(str(v) for v in lhs.vars() if isinstance(v, LVar))
    names += ["a'", "b'"]
    ptrs = ["r", "s", "t"] + names
    pure = [f"{rng.choice(names)}{op}{rng.choice(names + operands)}"
            for op, operands in (rng.choice([("=", ["r", "nil", "x"]),
                                             ("!=", ["s", "nil", "y"]),
                                             ("<=", ["x", "1"])])
                                 for _ in range(rng.randint(0, 2)))]
    payload = rng.choice(["_", f"{{{rng.choice(names + ['x', '1'])}}}"])
    node = f"node({rng.choice(ptrs)},{rng.choice(ptrs + ['nil'])},{payload})"
    return H(" /\\ ".join(pure + [node]))


def prover_answers_digest(seed: int = 53, n: int = 150) -> tuple[str, int]:
    """Digest of the rendered answers on seeded left sides against the
    analyzer's footprint pres, right sides that reuse left existentials'
    names, and each left side's abstraction; also the number of right
    existentials that share a name with a left variable."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    clashes = 0
    fixed = [("node(x,n',d')", "node(x,n',_)"),
             ("node(x,n',d')*list(n',nil)", "node(x,d',_)*list(d',nil)"),
             ("d'=1 /\\ node(x,nil,{d'})", "node(x,nil,{d'+1})"),
             # the fresh names of a case split show in the frames
             ("slseg(r,nil,[1,5))", "node(r,n',_)"),
             ("slseg(r,n',[1,5))*list(n',nil)", "node(r,n',_)")]
    queries = [(H(l), H(r)) for l, r in fixed]
    for i in range(n):
        domain = DOMAINS[i % 3]
        lhs = random_heap(rng, domain=domain, max_atoms=3,
                          with_true=i % 4 == 3, n_pure=2)
        ptrs = sorted(v.name for v in lhs.vars()
                      if isinstance(v, PVar) and v.name in "rst")
        lvars = sorted(v.name for v in lhs.vars() if isinstance(v, LVar))
        rhss = []
        for y in ptrs:
            rhss += _footprint_pres(f"q = {y}->next; {y}->data = x; "
                                    f"assert({y} != nil && x < y || "
                                    f"{y} == nil);")
            rhss += [H(f"node({y},{j}',_)") for j in lvars[:1]]
        rhss += [_clashing_rhs(rng, lhs) for _ in range(3)]
        param = AbstractionParam(domain, random_param_multiset(rng))
        rhss.append(abstract(lhs, param)[0])
        queries += [(lhs, rhs) for rhs in rhss]
    for lhs, rhs in queries:
        clashes += len(set(lhs.vars()) & set(rhs.evars()))
        digest.update(_render_answers(lhs, rhs).encode())
    return digest.hexdigest(), clashes


# recorded before the search pruned clashing anti-frame cells as it builds
# them and renamed the right side apart only on a name clash
PROVER_ANSWERS_SHA256 = (
    "b630b7b46dfb05e613026cae693ea543ba0df171e21c63241d6523b48245c5e0")


def test_prover_answers_are_unchanged_on_random_heaps():
    digest, clashes = prover_answers_digest()
    assert clashes >= 400
    assert digest == PROVER_ANSWERS_SHA256


# ---------------------------------------------------------------------------
# Chaining into an unbound segment target
# ---------------------------------------------------------------------------

def test_chaining_binds_an_unbound_target_to_a_left_head():
    # ROADMAP 4(b)'s fold-at-witness step: the folded segment ends at the
    # witness's head j2', which the right side does not bind before chaining
    lhs = H("node(j2',q,{2})*list(j1',j2')*list(r,j1')*true")
    out = entails(lhs, H("node(j2',q,{2})*list(r,j2')*true"))
    assert out.holds and out.instantiation == {}  # j2' := j2', the identity
    out = entails(lhs, H("node(v',q,{2})*list(r,v')*true"))
    assert out.holds and out.instantiation == {LVar("v"): LVar("j2")}
    # the chain must reach the cell the right side puts at v'
    assert not entails(lhs, H("node(v',nil,{2})*list(r,v')*true")).holds
    assert not entails(lhs, H("node(v',q,{3})*list(r,v')*true")).holds


def test_chaining_stays_anchored_where_the_oracle_holds():
    """A pinned incompleteness, the FOUND on chaining anchoring: the chained
    segment's target must be nil or the head of another left atom, but the
    oracle's segment walk may pass its end and lasso back to it, so under
    the oracle list(x,y)*list(y,z) |= list(x,z).  The prover keeps its
    rule and answers "no"; relaxing the rule changes these answers and so
    cannot pass unnoticed."""
    lhs = H("list(x,y)*list(y,z)")
    for rhs in map(H, ["list(x,z)", "list(x,v')"]):
        assert oracle_entails(lhs, rhs, bounds=TIGHT).holds
        assert not entails(lhs, rhs).holds
        assert not Prover().entails(lhs, rhs).holds


FOLD_BOUNDS = OracleBounds(max_cells=4, max_extension=1, n_spare_data=1,
                           max_models=20000, max_steps=200000)
FOLD_SEEDS = {"mls": 4101, "rls": 4102, "sls": 4103}


@pytest.mark.parametrize("domain", DOMAINS)
def test_chaining_into_an_unbound_target_is_sound(domain, monkeypatch):
    """On chain queries whose right segment ends in an existential, valid
    and not (gens.fold_query), a prover "holds" is an oracle "holds"."""
    chained = []
    real = prover._Search._try_chain

    def spy(self, r_atom, rest, g):
        unbound = subst_term(r_atom.dst, g.theta) in self.rhs_evars
        for leaf in real(self, r_atom, rest, g):
            chained.append(unbound)
            yield leaf

    monkeypatch.setattr(prover._Search, "_try_chain", spy)
    rng = random.Random(FOLD_SEEDS[domain])
    violations = []
    total = proved = bound = refuted = 0
    for _ in range(300):
        lhs, rhs = fold_query(rng, domain)
        verdict = oracle_entails(lhs, rhs, bounds=FOLD_BOUNDS)
        if verdict.holds and verdict.models_checked == 0:
            continue  # no model within the bounds: a vacuous pair
        chained.clear()
        claimed = entails(lhs, rhs).holds
        total += 1
        proved += claimed
        bound += claimed and any(chained)
        refuted += not verdict.holds
        if claimed and not verdict.holds:
            violations.append((lhs, rhs, verdict.countermodel))
    assert not violations, "\n".join(f"{l} |- {r} refuted by {cm.render()}"
                                     for l, r, cm in violations[:3])
    assert total >= 250 and refuted >= 15
    assert bound >= 10  # proofs that bound an unbound target by chaining
    print(f"\n[{domain}] {total} pairs, {proved} proved ({bound} binding "
          f"an unbound target), {refuted} refuted by the oracle")
