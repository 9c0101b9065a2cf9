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
    atom for true), so the count is the heap's cells.  The mass is the sum
    of the atoms' masses, which each atom sets as it is interned: segment
    contents plus one per known node payload, i.e. the mass the heap would
    carry with nothing projected away.
    """
    return (len(h.cells()), sum(a.mass for a in h.spatial))


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
    budget = facts.value_class_sums(tracked)
    pairs = []
    for rep, (key, have) in facts.value_classes(contents).items():
        keep = min(have, budget.get(rep, 0))
        if keep > 0:
            pairs.append((key, keep))
    return Multiset.of(pairs)


# ---------------------------------------------------------------------------
# Rule plumbing
# ---------------------------------------------------------------------------
#
# A rule takes (heap, facts, param, occ) and returns (rule-name, rewritten
# heap) for the first redex in canonical atom order, or None.  ``occ`` is a
# Counter of how often each variable occurs in the heap, built once per rule
# pass, for the rules' test that a logical variable occurs nowhere else
# (``_beyond``).  The engine tries the rules of a domain in a fixed listing
# order, so the whole rewrite is deterministic on normalized input.
#
# The domains differ only in how two chained atoms fold, and rls has no
# contents to cap.  ``_JOINS`` maps a domain to join(a, b, facts, param),
# which returns the folded segment's constructor (src, dst) -> atom, or
# None; the one fold rule scans the junctions and targets nil or a witness.

_Make = Callable[[Term, Term], Spatial]


def _beyond(occ: Counter, x: LVar, atoms: tuple[Spatial, ...],
            terms: tuple[Term, ...] = ()) -> bool:
    """Whether x occurs in the heap that ``occ`` counts outside ``atoms``
    (spatial atoms of the heap, at distinct positions), or in one of
    ``terms``."""
    inside = sum(a.vars().count(x) for a in atoms)
    return occ[x] > inside or any(var_of(t) is x for t in terms)


_Rule = Callable[[SymbolicHeap, Facts, AbstractionParam, Counter],
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
                          param: AbstractionParam, occ: Counter):
    """An atom headed by a logical variable no other part of the heap
    mentions is unreachable; trade it for spatial true."""
    for i, a in enumerate(h.spatial):
        head = a.head
        if not isinstance(head, LVar) or _beyond(occ, head, (a,)):
            continue
        rest = _without(h.spatial, i)
        return ("collect-garbage", SymbolicHeap(h.pure, rest + (TRUE_SPATIAL,)))
    return None


def _rule_collect_cycle(h: SymbolicHeap, facts: Facts,
                        param: AbstractionParam, occ: Counter):
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
            if _beyond(occ, ha, (a, b)) or _beyond(occ, ta, (a, b)):
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
          occ: Counter, mid: bool):
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
            if not facts.equal(e2, NIL) or _beyond(occ, x, (a, b), (e1, e2)):
                continue
        elif not any(w not in (i, j) and not isinstance(c, TrueAtom)
                     and facts.equal(e2, c.head)
                     and not _beyond(occ, x, (a, b, c),
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
                       occ: Counter):
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
        facts, occ = cur.facts, var_counts(cur.pure, cur.spatial)
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

