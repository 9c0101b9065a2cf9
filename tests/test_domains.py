"""Tests for the abstraction layer: projection, per-domain rewrite rules,
collection of unreachable material, soundness/monotonicity/idempotence
loops, termination traces, finiteness enumerations, and sorted-segment
splitting."""

from __future__ import annotations

import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from shaperef import domains
from shaperef.domains import (
    AbstractionParam,
    DOMAINS,
    abstract,
    measure,
    project_contents,
)
from shaperef.heaps import (NodeAtom, SortedSegAtom, SymbolicHeap, normalize,
                            var_counts)
from shaperef.syntax import parse_heap
from shaperef.prover import entails
from shaperef.terms import (Const, LVar, Multiset, NIL, PVar, PureAtom, eq,
                            shifted, var_of)

from gens import (
    DATA_TERMS,
    canonical_chain_forms,
    count_variable_lookups,
    monotonicity_trial,
    random_heap,
    random_param_multiset,
    soundness_trial,
)

MS = Multiset.of
A, B, R, X, Y = PVar("a"), PVar("b"), PVar("r"), PVar("x"), PVar("y")


def facts_of(*pure: PureAtom):
    return SymbolicHeap(tuple(pure), ()).facts


# ---------------------------------------------------------------------------
# Projection: independent brute-force evaluator + pinned examples
# ---------------------------------------------------------------------------

def project_reference(contents: Multiset, facts, tracked: Multiset) -> Multiset:
    """Brute-force projection: partition the source keys into provable-
    equality classes, then keep per class min(source mass, tracked mass)
    occurrences of the smallest-rendering key; classes with no tracked
    budget vanish."""
    classes: list[list] = []
    for k in sorted(contents.keys(), key=str):
        for cl in classes:
            if facts.equal(k, cl[0]):
                cl.append(k)
                break
        else:
            classes.append([k])
    pairs = []
    for cl in classes:
        have = sum(contents.mult(k) for k in cl)
        budget = sum(n for t, n in tracked.items if facts.equal(t, cl[0]))
        keep = min(have, budget)
        if keep > 0:
            pairs.append((cl[0], keep))
    return MS(pairs)


def test_projection_caps_at_tracked_budget():
    assert project_contents(MS([(X, 2)]), facts_of(), MS([(X, 1)])) \
        == MS([(X, 1)])


def test_projection_of_empty_source_is_empty():
    assert project_contents(MS(), facts_of(eq(A, B)), MS([(A, 2)])) == MS()


def test_projection_merges_provably_equal_keys():
    out = project_contents(MS([(A, 1), (B, 1)]), facts_of(eq(A, B)),
                           MS([(A, 2)]))
    assert out == MS([(A, 2)])


def test_projection_drops_untracked_classes():
    out = project_contents(MS([(A, 2), (B, 1)]), facts_of(), MS([(B, 3)]))
    assert out == MS([(B, 1)])


def test_projection_matches_reference_randomized():
    rng = random.Random(990)
    checked = 0
    while checked < 1000:
        pure = []
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["=", "!=", "<="])
            pure.append(PureAtom(op, rng.choice(DATA_TERMS),
                                 rng.choice(DATA_TERMS)))
        f = facts_of(*pure)
        if f.inconsistent:
            continue
        contents = MS((rng.choice(DATA_TERMS), rng.randint(1, 3))
                      for _ in range(rng.randint(0, 3)))
        tracked = random_param_multiset(rng, max_keys=3, max_mult=2)
        out = project_contents(contents, f, tracked)
        assert out == project_reference(contents, f, tracked)
        # never invents occurrences, and is monotone in the tracked budget
        assert out.total() <= contents.total()
        grown = tracked.msum(random_param_multiset(rng, max_keys=1,
                                                   max_mult=1))
        assert out.leq(project_contents(contents, f, grown))
        checked += 1


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=3),
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
)
def test_projection_properties_hypothesis(s, t, extra):
    f = facts_of()
    src = MS((Const(k), n) for k, n in s.items())
    tracked = MS((Const(k), n) for k, n in t.items())
    grown = tracked.msum(MS((Const(k), n) for k, n in extra.items()))
    out = project_contents(src, f, tracked)
    assert out == project_reference(src, f, tracked)
    assert out.leq(src)
    assert out.leq(project_contents(src, f, grown))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_param_rejects_unknown_domain():
    with pytest.raises(ValueError):
        AbstractionParam("foo", MS())


def test_param_rejects_logical_variables_in_tracked():
    with pytest.raises(ValueError):
        AbstractionParam("mls", MS([(LVar("d"), 1)]))


# ---------------------------------------------------------------------------
# Pinned rewrite examples (exact output and rule sequence)
# ---------------------------------------------------------------------------

EXAMPLES = [
    # id, input, domain, tracked pairs, expected rendering, expected rules
    ("mls-two-nodes-forget-data",
     "node(r,r0',{x})*node(r0',nil,{d0'})", "mls", [],
     "list(r,nil)", ["fold-at-nil"]),
    ("mls-two-nodes-track-x",
     "node(r,r0',{x})*node(r0',nil,{d0'})", "mls", [(X, 1)],
     "list(r,nil,{x:1})", ["fold-at-nil"]),
    ("mls-canonical-form-unchanged",
     "list(r,nil,{x:1})", "mls", [(X, 1)],
     "list(r,nil,{x:1})", []),
    ("mls-fold-at-witness",
     "node(r,j0',{x})*node(j0',j1',{y})*node(j1',q,_)", "mls",
     [(X, 1), (Y, 1)],
     "node(j1',q,_)*list(r,j1',{x:1,y:1})", ["fold-at-witness"]),
    ("mls-contents-merge-by-sum",
     "node(r,j0',{x})*node(j0',nil,{x})", "mls", [(X, 2)],
     "list(r,nil,{x:2})", ["fold-at-nil"]),
    ("mls-contents-sum-capped",
     "node(r,j0',{x})*node(j0',nil,{x})", "mls", [(X, 1)],
     "list(r,nil,{x:1})", ["fold-at-nil"]),
    ("mls-wild-payload-contributes-nothing",
     "node(r,j0',_)*node(j0',nil,{x})", "mls", [(X, 1)],
     "list(r,nil,{x:1})", ["fold-at-nil"]),
    ("mls-fold-under-true-conjunct",
     "node(r,j0',{x})*node(j0',nil,{y})*true", "mls", [(X, 1)],
     "list(r,nil,{x:1})*true", ["fold-at-nil"]),
    ("mls-program-var-junction-kept",
     "node(r,q,{x})*node(q,nil,{y})", "mls", [],
     "node(q,nil,{y})*node(r,q,{x})", []),
    ("mls-garbage-collected",
     "list(r,nil)*node(g0',g1',_)", "mls", [],
     "list(r,nil)*true", ["collect-garbage"]),
    ("mls-cycle-collected",
     "list(r,nil)*node(c0',c1',_)*node(c1',c0',_)", "mls", [],
     "list(r,nil)*true", ["collect-cycle"]),
    ("mls-pure-occurrence-blocks-garbage",
     "x0'!=q /\\ node(x0',g0',_)", "mls", [],
     "x0'!=q /\\ node(x0',g0',_)", []),
    ("rls-two-nodes-fold",
     "node(s,x0',_)*node(x0',nil,_)", "rls", [],
     "list(s,nil)", ["fold-at-nil"]),
    ("rls-tracked-head-protected",
     "node(r,x0',_)*node(x0',nil,_)", "rls", [(R, 1)],
     "node(r,x0',_)*node(x0',nil,_)", []),
    ("rls-emp-fixed",
     "emp", "rls", [],
     "emp", []),
    ("sls-node-pair-interval",
     "node(r,x0',{3})*node(x0',nil,{7})", "sls", [],
     "slseg(r,nil,[3,8))", ["fold-at-nil"]),
    ("sls-segment-merge",
     "slseg(r,x0',[0,4),{1:1})*slseg(x0',nil,[4,9),{5:1})", "sls",
     [(Const(1), 1), (Const(5), 1)],
     "slseg(r,nil,[0,9),{1:1,5:1})", ["fold-at-nil"]),
    ("sls-unordered-nodes-kept",
     "node(r,x0',{7})*node(x0',nil,{3})", "sls", [],
     "node(r,x0',{7})*node(x0',nil,{3})", []),
    ("sls-node-absorbed-into-segment",
     "node(r,x0',{1})*slseg(x0',nil,[2,5))", "sls", [],
     "slseg(r,nil,[1,5))", ["fold-at-nil"]),
    ("sls-segment-absorbs-node",
     "slseg(r,x0',[2,5))*node(x0',nil,{5})", "sls", [],
     "slseg(r,nil,[2,6))", ["fold-at-nil"]),
    ("sls-fold-at-witness",
     "node(r,j0',{3})*node(j0',j1',{5})*node(j1',q,{7})", "sls",
     [(Const(3), 1), (Const(5), 1)],
     "node(j1',q,{7})*slseg(r,j1',[3,6),{3:1,5:1})", ["fold-at-witness"]),
]


@pytest.mark.parametrize("src,domain,tracked,expected,rules",
                         [c[1:] for c in EXAMPLES],
                         ids=[c[0] for c in EXAMPLES])
def test_pinned_rewrite_examples(src, domain, tracked, expected, rules):
    out, trace = abstract(parse_heap(src), AbstractionParam(domain,
                                                            MS(tracked)))
    assert str(out) == expected
    assert [s.rule for s in trace.steps] == rules


def rewrite_trace_digest(seed: int = 31, n: int = 120):
    """sha256 over seeded heaps, their canonical forms and rewrite traces
    in every domain, with and without a true conjunct; also returns how
    often each (domain, rule) fired."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    fired = collections.Counter()
    for _ in range(n):
        for domain in DOMAINS:
            for with_true in (False, True):
                h = random_heap(rng, domain=domain, max_atoms=4,
                                with_true=with_true, n_pure=2)
                param = AbstractionParam(domain, random_param_multiset(rng))
                alpha, trace = abstract(h, param)
                digest.update(f"{h}\n{alpha}\n{trace.render()}\n".encode())
                fired.update((domain, s.rule) for s in trace.steps)
    return digest.hexdigest(), fired


# recorded with the two per-family fold bodies and six per-domain fold rules
# that the join table replaced
REWRITE_TRACE_SHA256 = (
    "8eb4f7858c1a082d5e989658d3b2bc923859557f04cacf15a1d09b73fbcf165a")


def test_rewrite_traces_are_unchanged_on_random_heaps():
    digest, fired = rewrite_trace_digest()
    for domain in DOMAINS:
        assert fired[(domain, "fold-at-nil")] > 0
        assert fired[(domain, "fold-at-witness")] > 0
    assert fired[("mls", "cap-contents")] > 0
    assert fired[("sls", "cap-contents")] > 0
    assert digest == REWRITE_TRACE_SHA256


def test_garbage_then_cycle_leaves_only_true():
    h = parse_heap("node(g0',g1',_)*node(c0',c1',_)*node(c1',c0',_)")
    out, trace = abstract(h, AbstractionParam("mls", MS()))
    assert str(out) == "true"
    assert [s.rule for s in trace.steps] == ["collect-garbage",
                                             "collect-cycle"]


def test_trace_steps_decrease_measure_and_render():
    h = parse_heap("node(g0',g1',_)*node(c0',c1',_)*node(c1',c0',_)")
    _, trace = abstract(h, AbstractionParam("mls", MS()))
    for step in trace.steps:
        assert measure(step.after) < measure(step.before)
    text = trace.render()
    assert "collect-garbage" in text and "~>" in text


def test_abstract_measures_each_heap_once(monkeypatch):
    # the measure of each step's result is carried into the next step
    calls = []
    real = domains.measure
    monkeypatch.setattr(domains, "measure",
                        lambda h: calls.append(h) or real(h))
    h = parse_heap("node(g0',g1',_)*node(c0',c1',_)*node(c1',c0',_)")
    _, trace = abstract(h, AbstractionParam("mls", MS()))
    assert len(trace.steps) == 2
    assert calls == [trace.steps[0].before] + [s.after for s in trace.steps]


@pytest.mark.parametrize("domain", DOMAINS)
def test_fold_joins_only_junctions_that_qualify(domain, monkeypatch):
    # a' is a junction, but y is neither nil nor allocated: no fold can
    # happen there, so the join is never asked
    joined = []
    real = domains._JOINS[domain]
    monkeypatch.setitem(domains._JOINS, domain,
                        lambda *args: joined.append(args) or real(*args))
    h = parse_heap("node(x,a',{1}) * node(a',y,{2})")
    alpha, trace = abstract(h, AbstractionParam(domain, MS()))
    assert alpha == normalize(h) and not trace.steps
    assert joined == []
    # with the target nil the junction qualifies and is joined once
    alpha, trace = abstract(parse_heap("node(x,a',{1}) * node(a',nil,{2})"),
                            AbstractionParam(domain, MS()))
    assert len(joined) == 1 and len(trace.steps) == 1


def _lvars_beyond(h: SymbolicHeap, idx: tuple[int, ...],
                  terms: tuple) -> set[LVar]:
    """The logical variables of h outside the atoms at ``idx``, and of the
    extra terms, by a walk over every other atom."""
    rest = [a for i, a in enumerate(h.spatial) if i not in idx]
    vs = {v for atom in h.pure + tuple(rest) for v in atom.vars()}
    vs.update(map(var_of, terms))
    return {v for v in vs if isinstance(v, LVar)}


def _occurrence_cases(rng: random.Random, domain: str) -> SymbolicHeap:
    """A seeded heap whose logical variables also occur in pure atoms,
    payloads and offsets, not only at junctions."""
    h = random_heap(rng, domain=domain, max_atoms=4,
                    with_true=rng.random() < 0.3, n_pure=2)
    lvars = [v for v in h.vars() if isinstance(v, LVar)]
    if not lvars:
        return h
    v = rng.choice(lvars)
    extra = rng.choice([eq(v, X), PureAtom("<=", shifted(v, 1), Y),
                        PureAtom("!=", v, NIL)])
    pure = h.pure + (extra,) if rng.random() < 0.5 else h.pure
    spatial = h.spatial
    if rng.random() < 0.3:
        spatial += (NodeAtom(PVar("q"), NIL, rng.choice(lvars)),)
    return SymbolicHeap(pure, spatial)


@pytest.mark.parametrize("domain", DOMAINS)
def test_occurrence_counts_agree_with_a_walk_of_the_rest(domain):
    rng = random.Random(43)
    answers = collections.Counter()
    for _ in range(60):
        h = _occurrence_cases(rng, domain)
        occ = var_counts(h.pure, h.spatial)
        n = len(h.spatial)
        for k in (1, 2, 3):
            for idx in itertools.combinations(range(n), k):
                atoms = tuple(h.spatial[i] for i in idx)
                ends = tuple(t for a in atoms for t in (a.head, a.tail)
                             if t is not None)
                for terms in ((), ends):
                    beyond = _lvars_beyond(h, idx, terms)
                    for x in h.vars():
                        if isinstance(x, LVar):
                            got = domains._beyond(occ, x, atoms, terms)
                            assert got == (x in beyond), (h, idx, terms, x)
                            answers[got] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_abstract_corpus_stays_within_its_variable_walk_budget(monkeypatch):
    # 120 seeded heaps per domain, abstracted and checked against their
    # abstraction as the benchmark's abstract workload does.  The budget is
    # the count recorded when the rules first counted each heap's variable
    # occurrences once; before that, this corpus made 27,563 variable
    # lookups, one per term position walked
    rng = random.Random(29)
    corpus = []
    for _ in range(120):
        for domain in DOMAINS:
            h = random_heap(rng, domain=domain, max_atoms=4,
                            with_true=rng.random() < 0.15, n_pure=2)
            corpus.append((h, AbstractionParam(domain,
                                               random_param_multiset(rng))))
    calls = count_variable_lookups(monkeypatch)
    for h, param in corpus:
        alpha, trace = abstract(h, param)
        for lhs, rhs in [(h, alpha)] + [(s.before, s.after)
                                        for s in trace.steps]:
            entails(lhs, rhs)
    assert 0 < calls[0] <= VARIABLE_WALK_BUDGET


VARIABLE_WALK_BUDGET = 17_364


def test_tracked_head_keeps_removal_precondition_canonical():
    # a deletion routine's loop invariant: the cell at x stays explicit
    # exactly while x is tracked
    pre = parse_heap("list(r,x)*node(x,n0',_)*list(n0',nil)")
    kept, trace = abstract(pre, AbstractionParam("rls", MS([(X, 1)])))
    assert str(kept) == str(normalize(pre))
    assert not trace.steps
    folded, trace2 = abstract(pre, AbstractionParam("rls", MS()))
    assert str(folded) == "list(r,x)*list(x,nil)"
    assert [s.rule for s in trace2.steps] == ["fold-at-nil"]


# ---------------------------------------------------------------------------
# Property loops (shared bodies; the acceptance suite reruns them at volume)
# ---------------------------------------------------------------------------

_SEEDS = {"mls": 101, "rls": 202, "sls": 303}


@pytest.mark.parametrize("domain", DOMAINS)
def test_abstraction_sound_on_random_heaps(domain):
    rng = random.Random(_SEEDS[domain])
    fails, skips = [], 0
    for _ in range(150):
        status, detail = soundness_trial(rng, domain)
        if status == "fail":
            fails.append(detail)
        elif status == "skip":
            skips += 1
    assert not fails, fails[:3]
    assert skips < 40  # the loop must mostly measure, not skip


# ROADMAP 4(b)'s corpus: 300 seed-7 heaps per domain of up to 4 atoms and 3
# pure atoms, each with a random T: how many rewrite steps it takes, and
# how many h |- alpha(h) the prover still fails
STEP_CORPUS = {"mls": (429, 25), "rls": (358, 33), "sls": (179, 0)}


@pytest.mark.parametrize("domain", DOMAINS)
def test_every_rewrite_step_is_proved(domain):
    rng = random.Random(7)
    steps, unproved = 0, []
    for _ in range(300):
        h = random_heap(rng, domain=domain, max_atoms=4, n_pure=3)
        alpha, trace = abstract(h, AbstractionParam(
            domain, random_param_multiset(rng)))
        for s in trace.steps:
            steps += 1
            assert entails(s.before, s.after).holds, (s.rule, str(s.before),
                                                      str(s.after))
        if not entails(h, alpha).holds:
            unproved.append((h, alpha, trace))
    assert (steps, len(unproved)) == STEP_CORPUS[domain]
    # each failure folds a 4-atom chain at nil into one segment: proving
    # that takes 4 budgeted moves, one more than MAX_UNFOLD_DEPTH
    for h, alpha, trace in unproved:
        assert (len(h.cells()), len(alpha.cells())) == (4, 1), (str(h),
                                                               str(alpha))
        assert [s.rule for s in trace.steps] == ["fold-at-nil"] * 3


@pytest.mark.parametrize("domain", DOMAINS)
def test_abstraction_monotone_in_tracked_multiset(domain):
    rng = random.Random(_SEEDS[domain] + 1)
    fails = []
    for i in range(200):
        status, detail = monotonicity_trial(rng, domain,
                                            oracle_check=(i % 10 == 0))
        if status == "fail":
            fails.append(detail)
    assert not fails, fails[:3]


@pytest.mark.parametrize("domain", DOMAINS)
def test_abstraction_idempotent(domain):
    rng = random.Random(_SEEDS[domain] + 2)
    for _ in range(150):
        h = random_heap(rng, domain=domain, max_atoms=3,
                        with_true=rng.random() < 0.2, n_pure=1)
        param = AbstractionParam(domain, random_param_multiset(rng))
        once, _ = abstract(h, param)
        twice, trace = abstract(once, param)
        assert str(twice) == str(once)
        assert not trace.steps


FINITENESS = [
    ("mls-tracked", "mls", [(X, 1), (Const(2), 2)],
     [X, Const(1), Const(2)], False),
    ("mls-empty", "mls", [], [X, Const(1), Const(2)], False),
    ("rls-tracked", "rls", [(R, 1)], [None], False),
    ("rls-empty", "rls", [], [None], False),
    ("sls-tracked", "sls", [(Const(2), 1)],
     [Const(1), Const(2), Const(3)], True),
    ("sls-empty", "sls", [], [Const(1), Const(2), Const(3)], True),
]


@pytest.mark.parametrize("domain,tracked,pool,nondec",
                         [c[1:] for c in FINITENESS],
                         ids=[c[0] for c in FINITENESS])
def test_canonical_forms_finite_and_stable(domain, tracked, pool, nondec):
    rng = random.Random(17)
    small = canonical_chain_forms(domain, MS(tracked), range(1, 7), pool,
                                  rng, nondecreasing=nondec)
    big = canonical_chain_forms(domain, MS(tracked), range(7, 11), pool,
                                rng, nondecreasing=nondec)
    # longer chains reach no new canonical form once the budget saturates
    assert big <= small
    assert len(small) <= 64
    for form in small:
        assert form.count("(") <= 5  # one "(" per spatial atom


def test_sorted_outputs_respect_interval_invariant():
    rng = random.Random(404)
    for _ in range(150):
        h = random_heap(rng, domain="sls", max_atoms=3, n_pure=1)
        out, _ = abstract(h, AbstractionParam("sls",
                                              random_param_multiset(rng)))
        f = out.facts
        for a in out.spatial:
            if isinstance(a, SortedSegAtom):
                for k in a.contents.keys():
                    assert f.proves_leq(a.lo, k), (h, out, k)
                    assert f.proves_lt(k, a.hi), (h, out, k)

