"""Parameterised abstraction of symbolic heaps into finite canonical forms.

Three abstract domains share one rewrite engine.  Each is a family of
weakening rewrite rules applied exhaustively, parameterised by a finite
multiset of *tracked symbols* (program variables and constants):

* ``mls`` — list segments instrumented with a value multiset.  Chains are
  folded at invisible junction points (a logical variable occurring
  nowhere else), summing their contents; every segment's multiset is then
  capped so no value class outnumbers its budget in the tracked multiset.
* ``rls`` — plain list segments where the tracked multiset protects
  *addresses*: a fold is blocked whenever the head of the folded material
  is provably one of the tracked addresses, so those cells survive
  abstraction individually.
* ``sls`` — sorted segments carrying an interval bound and a value
  multiset.  Folding additionally requires provable order compatibility
  at the junction (left upper boundary <= right lower boundary) and the
  folded segment spans both operands' intervals.

Every rule's right-hand side is entailed by its left-hand side, so the
exhaustive rewrite is a sound over-approximation; every step removes a
spatial atom or strictly shrinks total multiset mass, so rewriting
terminates.  The step sequence is recorded in a :class:`RewriteTrace`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Optional

from .terms import (
    Const,
    EMPTY_MS,
    LVar,
    Multiset,
    NIL,
    PVar,
    Term,
    shifted,
    term_sort_key,
    var_of,
)
from .heaps import (
    Facts,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    TRUE_SPATIAL,
    TrueAtom,
    atom_contents,
    normalize,
    var_counts,
)

DOMAINS = ("mls", "rls", "sls")


# ---------------------------------------------------------------------------
# Parameters and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractionParam:
    """Which domain to abstract in, and which symbols to keep precise.

    ``tracked`` holds program variables and integer constants only; in the
    value domains its multiplicities bound how many occurrences of each
    value a canonical segment may remember, in the address domain its keys
    name cells that must never be folded into a segment.
    """

    domain: str
    tracked: Multiset = EMPTY_MS

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        for k in self.tracked.keys():
            if not isinstance(k, (PVar, Const)):
                raise ValueError(
                    f"tracked symbols must be program variables or constants, got {k}")


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    before: SymbolicHeap
    after: SymbolicHeap


@dataclass(frozen=True)
class RewriteTrace:
    """Audit trail of one abstraction run; every step strictly decreases
    :func:`measure`."""

    steps: tuple[RewriteStep, ...] = ()

    def render(self) -> str:
        lines = [f"[{i}] {s.rule}: {s.before} ~> {s.after}"
                 for i, s in enumerate(self.steps)]
        return "\n".join(lines)


def measure(h: SymbolicHeap) -> tuple[int, int]:
    """Termination measure: (cell/segment atom count, total multiset mass).

    Spatial true does not count as an atom (the garbage rules trade an
    atom for true); mass counts segment contents plus one per known node
    payload, i.e. the mass the heap would carry with nothing projected
    away.
    """
    atoms = sum(1 for a in h.spatial if not isinstance(a, TrueAtom))
    mass = sum(atom_contents(a).total() for a in h.spatial)
    return (atoms, mass)


# ---------------------------------------------------------------------------
# Content projection
# ---------------------------------------------------------------------------

def project_contents(contents: Multiset, facts: Facts, tracked: Multiset) -> Multiset:
    """Cap a value multiset by the tracked budget, modulo proved equalities.

    Keys are grouped into congruence classes of ``facts``; a class keeps
    ``min(class sum in contents, class sum in tracked)`` occurrences of its
    smallest-rendering key, and classes with no tracked budget are dropped
    entirely.  The result is always pointwise covered by ``contents`` up to
    the equalities, so replacing a segment's contents with its projection
    only weakens the heap.
    """
    if contents.is_empty():
        return EMPTY_MS
    by_rep: dict[Term, list[Term]] = {}
    for k in sorted(contents.keys(), key=term_sort_key):
        by_rep.setdefault(facts.rep(k), []).append(k)
    budget = facts.value_class_sums(tracked)
    pairs = []
    for rep, keys in by_rep.items():
        have = sum(contents.mult(k) for k in keys)
        keep = min(have, budget.get(rep, 0))
        if keep > 0:
            pairs.append((keys[0], keep))
    return Multiset.of(pairs)


# ---------------------------------------------------------------------------
# Rule plumbing
# ---------------------------------------------------------------------------
#
# A rule takes (heap, facts, param, occurrences) and returns (rule-name,
# rewritten heap) for the first redex in canonical atom order, or None.  The
# engine tries the rules of a domain in a fixed listing order, so the whole
# rewrite is deterministic on normalized input.
#
# The domains differ only in how two chained atoms fold, and rls has no
# contents to cap.  ``_JOINS`` maps a domain to join(a, b, facts, param),
# which returns the folded segment's constructor (src, dst) -> atom, or
# None; the one fold rule scans the junctions and targets nil or a witness.

_Make = Callable[[Term, Term], Spatial]


class _Occurrences:
    """How often each variable occurs in one heap, for the rules' test that
    a logical variable occurs nowhere else.  The heap is walked once, at
    the first test; the counts live as long as the rule pass that asks."""

    def __init__(self, h: SymbolicHeap):
        self._h = h
        self._counts: Optional[Counter] = None

    def beyond(self, x: LVar, atoms: tuple[Spatial, ...],
               terms: tuple[Term, ...] = ()) -> bool:
        """Whether x occurs in the heap outside ``atoms`` (spatial atoms of
        the heap, at distinct positions), or in one of ``terms``."""
        if self._counts is None:
            self._counts = var_counts(self._h.pure, self._h.spatial)
        inside = sum(var_of(t) is x for a in atoms
                     for t in (a.head, a.tail, *a.data_terms))
        return (self._counts[x] > inside
                or any(var_of(t) is x for t in terms))


_Rule = Callable[[SymbolicHeap, Facts, AbstractionParam, _Occurrences],
                 Optional[tuple[str, SymbolicHeap]]]


def _without(atoms: tuple[Spatial, ...], *idx: int) -> tuple[Spatial, ...]:
    drop = set(idx)
    return tuple(a for i, a in enumerate(atoms) if i not in drop)


def _junctions(h: SymbolicHeap) -> Iterator[tuple[int, int, LVar]]:
    """Pairs (i, j) where atom i's outgoing pointer is a logical variable
    that is atom j's head — the only places folding may happen."""
    atoms = h.spatial
    for i, a in enumerate(atoms):
        x = a.tail
        if not isinstance(x, LVar):
            continue
        for j, b in enumerate(atoms):
            if j != i and b.head == x:
                yield i, j, x


def _rule_collect_garbage(h: SymbolicHeap, facts: Facts,
                          param: AbstractionParam, occ: _Occurrences):
    """An atom headed by a logical variable no other part of the heap
    mentions is unreachable; trade it for spatial true."""
    for i, a in enumerate(h.spatial):
        head = a.head
        if not isinstance(head, LVar) or occ.beyond(head, (a,)):
            continue
        rest = _without(h.spatial, i)
        return ("collect-garbage", SymbolicHeap(h.pure, rest + (TRUE_SPATIAL,)))
    return None


def _rule_collect_cycle(h: SymbolicHeap, facts: Facts,
                        param: AbstractionParam, occ: _Occurrences):
    """Two atoms chained into a cycle over logical variables mentioned
    nowhere else are unreachable; trade both for spatial true."""
    atoms = h.spatial
    for i, a in enumerate(atoms):
        ha, ta = a.head, a.tail
        if not (isinstance(ha, LVar) and isinstance(ta, LVar)):
            continue
        for j, b in enumerate(atoms):
            if j == i or b.head != ta or b.tail != ha:
                continue
            if occ.beyond(ha, (a, b)) or occ.beyond(ta, (a, b)):
                continue
            rest = _without(atoms, i, j)
            return ("collect-cycle", SymbolicHeap(h.pure, rest + (TRUE_SPATIAL,)))
    return None


# -- folding -----------------------------------------------------------------

_LIST_LIKE = (NodeAtom, ListSegAtom)


def _merged(a: Spatial, b: Spatial, facts: Facts,
            param: AbstractionParam) -> Multiset:
    return project_contents(atom_contents(a).msum(atom_contents(b)),
                            facts, param.tracked)


def _join_mls(a: Spatial, b: Spatial, facts: Facts,
              param: AbstractionParam) -> Optional[_Make]:
    """Unsorted material folds into a list keeping the projected contents."""
    if not (isinstance(a, _LIST_LIKE) and isinstance(b, _LIST_LIKE)):
        return None
    return partial(ListSegAtom, contents=_merged(a, b, facts, param))


def _join_rls(a: Spatial, b: Spatial, facts: Facts,
              param: AbstractionParam) -> Optional[_Make]:
    """Unsorted material folds into a list unless its head is tracked."""
    if not (isinstance(a, _LIST_LIKE) and isinstance(b, _LIST_LIKE)):
        return None
    if any(facts.equal(a.head, t) for t in param.tracked.keys()):
        return None
    return ListSegAtom


def _join_sls(a: Spatial, b: Spatial, facts: Facts,
              param: AbstractionParam) -> Optional[_Make]:
    """Sorted material folds when the left upper boundary (payload / upper
    bound) is provably <= the right entry point (payload / lower bound); the
    folded segment spans both intervals, a node counting as [d, d+1)."""
    if isinstance(a, NodeAtom) and a.data is not None:
        lo, upper = a.data, a.data
    elif isinstance(a, SortedSegAtom):
        lo, upper = a.lo, a.hi
    else:
        return None
    if isinstance(b, NodeAtom) and b.data is not None:
        entry, hi = b.data, shifted(b.data, 1)
    elif isinstance(b, SortedSegAtom):
        entry, hi = b.lo, b.hi
    else:
        return None
    if not facts.proves_leq(upper, entry):
        return None
    return partial(SortedSegAtom, lo=lo, hi=hi,
                   contents=_merged(a, b, facts, param))


_JOINS = {"mls": _join_mls, "rls": _join_rls, "sls": _join_sls}


def _fold(h: SymbolicHeap, facts: Facts, param: AbstractionParam,
          occ: _Occurrences, mid: bool):
    """Fold the first junction the domain's join accepts.

    The folded segment runs from the left operand's head to the right
    operand's target, which must be nil (``mid`` false) or, for ``mid``,
    the head of a third atom witnessing that it is allocated.  The
    junction variable may occur nowhere else, or the fold would lose it.
    """
    join = _JOINS[param.domain]
    atoms = h.spatial
    for i, j, x in _junctions(h):
        a, b = atoms[i], atoms[j]
        e1, e2 = a.head, b.tail
        if not mid:
            if not facts.equal(e2, NIL) or occ.beyond(x, (a, b), (e1, e2)):
                continue
        elif not any(w not in (i, j) and not isinstance(c, TrueAtom)
                     and facts.equal(e2, c.head)
                     and not occ.beyond(x, (a, b, c),
                                        (e1, e2, c.head, c.tail))
                     for w, c in enumerate(atoms)):
            continue
        # join is pure, so it waits until the junction qualifies
        make = join(a, b, facts, param)
        if make is None:
            continue
        if not mid:
            return ("fold-at-nil",
                    SymbolicHeap(h.pure,
                                 _without(atoms, i, j) + (make(e1, NIL),)))
        return ("fold-at-witness",
                SymbolicHeap(h.pure, _without(atoms, i, j) + (make(e1, e2),)))
    return None


_rule_fold_at_nil = partial(_fold, mid=False)
_rule_fold_at_witness = partial(_fold, mid=True)


def _rule_cap_contents(h: SymbolicHeap, facts: Facts, param: AbstractionParam,
                       occ: _Occurrences):
    """Project a segment's contents down to the tracked budget.  Fires only
    when the projection actually forgets occurrences (strictly smaller
    mass); re-keying a multiset inside one congruence class changes
    nothing semantically and is skipped."""
    for i, a in enumerate(h.spatial):
        if isinstance(a, (ListSegAtom, SortedSegAtom)):
            capped = project_contents(a.contents, facts, param.tracked)
            if capped.total() < a.contents.total():
                out = h.spatial[:i] + (replace(a, contents=capped),) \
                    + h.spatial[i + 1:]
                return ("cap-contents", SymbolicHeap(h.pure, out))
    return None


_FOLDING = (_rule_collect_garbage, _rule_collect_cycle,
            _rule_fold_at_nil, _rule_fold_at_witness)
_RULES: dict[str, tuple[_Rule, ...]] = {
    "mls": _FOLDING + (_rule_cap_contents,),
    "rls": _FOLDING,
    "sls": _FOLDING + (_rule_cap_contents,),
}


# ---------------------------------------------------------------------------
# The abstraction function
# ---------------------------------------------------------------------------

def abstract(h: SymbolicHeap,
             param: AbstractionParam) -> tuple[SymbolicHeap, RewriteTrace]:
    """Exhaustively rewrite ``h`` into its canonical form for the domain.

    Equalities on logical variables are substituted away by normalization
    between steps, so rule patterns can match junction variables
    syntactically.  The result is entailed by ``h`` and no rule of the
    domain applies to it.
    """
    cur = normalize(h)
    size = measure(cur)
    steps: list[RewriteStep] = []
    while not cur.is_false:
        facts, occ = cur.facts, _Occurrences(cur)
        hit = None
        for rule in _RULES[param.domain]:
            hit = rule(cur, facts, param, occ)
            if hit is not None:
                break
        if hit is None:
            break
        name, raw = hit
        after = normalize(raw)
        after_size = measure(after)
        if not after_size < size:
            raise RuntimeError(f"rewrite rule {name} did not decrease the "
                               f"termination measure on {cur}")
        steps.append(RewriteStep(name, cur, after))
        cur, size = after, after_size
    return cur, RewriteTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Splitting sorted segments
# ---------------------------------------------------------------------------

def split_sorted_segment(seg: SortedSegAtom, cut: Term, facts: Facts,
                         joint: LVar) -> tuple[SortedSegAtom, SortedSegAtom]:
    """Split a sorted segment at an interior value into two segments glued
    at a fresh address ``joint`` (caller guarantees freshness).

    The cut must be provably strictly inside the interval, and every
    content key must provably fall on one side; the keys are partitioned
    accordingly so that rejoining the two results reproduces the original
    claim exactly.
    """
    if not (facts.proves_lt(seg.lo, cut) and facts.proves_lt(cut, seg.hi)):
        raise ValueError(f"cut {cut} is not provably interior to "
                         f"[{seg.lo},{seg.hi})")
    left_pairs: list[tuple[Term, int]] = []
    right_pairs: list[tuple[Term, int]] = []
    for k, n in seg.contents.items:
        if facts.proves_lt(k, cut):
            left_pairs.append((k, n))
        elif facts.proves_leq(cut, k):
            right_pairs.append((k, n))
        else:
            raise ValueError(f"cannot place content key {k} relative to "
                             f"cut {cut}")
    return (SortedSegAtom(seg.src, joint, seg.lo, cut, Multiset.of(left_pairs)),
            SortedSegAtom(joint, seg.dst, cut, seg.hi, Multiset.of(right_pairs)))
