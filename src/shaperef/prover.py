"""Entailment, frame inference and abduction over symbolic heaps.

The three operations share one subtraction-style proof search: right-hand
spatial atoms are discharged one at a time against the left-hand heap, with
existential variables of the right-hand side bound greedily as matching
proceeds.  The search has four moves:

* direct match of one spatial atom against another (heads unified, payloads
  and contents covered up to the derived equalities of the left heap);
* unfolding a right-hand segment whose emitted head node is immediately
  consumed by an allocated left-hand cell;
* chaining: a left-hand segment is consumed as a prefix of a longer
  right-hand segment, leaving the remainder as a new obligation; the
  right segment's target must be nil or the head of another unconsumed
  left atom, and a target that is an unbound right-hand existential is
  bound to each such head in turn, in the order of the left atoms;
* case analysis: a left-hand segment is unfolded into its disjuncts and
  every consistent disjunct must be proved (entailment and frame inference
  only; never during abduction).

Binding an existential is sound by existential introduction: each branch
searches the query with that existential instantiated, and a proof of
``lhs |- rhs[v := t]`` proves ``lhs |- exists v. rhs``, whichever t the
branch chose.  The choice of t matters for completeness only.

The right side's existentials are renamed apart from the left side's
variables only where one of them is also a left variable; otherwise their
names are apart already.  Fresh variables come from one counter, which
passes over the names the renaming would have taken, so a search makes the
same fresh names either way.

Every comparison of a left term l with a right term r follows one rule: an
r that is an unbound right-hand existential is bound to l; otherwise the
left facts must prove the atom, or, in abduction only, the atom becomes a
pure hypothesis unless the facts refute it.  An r that is v+k, with v an
unbound right-hand existential, first binds v so that v+k is l, where l is
a constant c or has one in its class (v := c-k), or is t+j with j >= k
(v := t+(j-k)); never to nil (``_offset_witness``).
The atoms, by position:

* heads, tails and payloads: l = r; a wild left payload has no l, so it
  meets only an r that is v or v+k with v unbound: v is bound to a fresh
  w, and the payload is named w or w+k;
* a sorted segment's interval: r.lo <= l.lo and l.hi <= r.hi when
  matched (the right interval contains the left), r.lo <= l.lo when the
  left segment is chained as a prefix;
* at a leaf, the right side's pure atoms as written, once the existentials
  they fix by equality are bound: v = t binds v to t, and v+k = t binds v
  by the rule above; an existential bound to an offset t+k leaves
  t+k = t+k, and v+k = t is kept, which hold only where the terms have a
  value;
* an existential still free there: a <= b for each lower bound a and
  upper bound b of it, and a <= a for a bound a with no partner, which
  holds only where a has an integer value.

Abduction replaces case analysis with one extra move: an undischargeable
right-hand atom becomes part of the candidate anti-frame.  Every candidate
is re-checked (``lhs * candidate |- rhs`` must hold and the conjunction
must stay consistent) before it is returned, so callers may rely on the
results even though hypothesis generation itself is heuristic.

No cell fits beside the left side at a head that the left closure proves
equal to nil or to the head of a left cell (the head clashes).
``star(lhs, candidate)`` is false for a candidate with such a cell, as
the closure of the conjunction keeps every fact of the left closure
(normalize's substitutions keep equalities), and heads are non-nil and
pairwise distinct: the re-check drops it.  So the residue move is not
taken for an obligation whose head clashes under the bindings so far:
theta only grows, so every anti-frame through the move would hold that
cell.  A head that is still an unbound existential never clashes, as the
left closure does not mention it; a candidate whose head is bound after
the move and clashes is dropped by the re-check, as ``star`` is false.
Where the only obligation is one right node, the prune drops just the
candidates the re-check would drop.  Elsewhere the search may find more:
the residue move is tried only where no other move reached a leaf, and a
leaf whose candidate clashes no longer counts as one.

Strict entailment (``entails`` without ``modulo_true`` and without true on
the right) prunes by a lower bound on the moves a goal still needs.  A leaf
there needs every left atom consumed and every right atom discharged.
Count, over the unconsumed left atoms minus the outstanding right ones,
a = nodes, b_list = plain segments and b_sorted = sorted segments.  A
direct match changes none of them.  Each budgeted move changes a by at
most one, |b_list| + |b_sorted| by at most one, and a + b_list + b_sorted
(the left count minus the right count) by at most one:

* chaining consumes a left segment and leaves a right one of its kind;
* a right unfold trades a right segment for a node and maybe a segment of
  its kind, and the node consumes a left node;
* a case split trades a left segment for a node and maybe a segment of
  its kind.

So max(|a|, |b_list| + |b_sorted|, |a + b_list + b_sorted|) moves are
still needed, and a goal whose bound exceeds its unfold budget reaches no
leaf.  A case split succeeds only if each consistent case reaches a leaf,
so it builds every case first and fails at once when a consistent case
exceeds the budget.  Frame inference, abduction and entailment modulo
true may leave left atoms over, and search as before.

The three operations read one outcome rule off the search (``_leaves``):
no leaf means "no", so entails does not hold, frame_infer returns no
frame and abduce returns [false]; a search that exhausts its step budget
raises BudgetExceeded, which means "unknown" in all three and never
becomes a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Iterator, NamedTuple, Optional, Sequence,
                    Union)

from .terms import (
    Const,
    LVar,
    Multiset,
    NIL,
    NilTerm,
    Offset,
    PVar,
    PureAtom,
    Term,
    leq,
    lt,
    shifted,
    split_offset,
    subst_term,
    var_of,
)
from .heaps import (
    ADDR,
    Disj,
    FALSE_HEAP,
    Facts,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    TRUE_SPATIAL,
    normalize,
    spatial_sort_key,
    star,
)

__all__ = [
    "BudgetExceeded",
    "ProofOutcome",
    "Prover",
    "abduce",
    "choose",
    "entails",
    "frame_infer",
    "unfold",
]


# Search budgets: how many budgeted moves one matching chain may perform
# (segment unfoldings of either side, and chaining a left segment as a
# prefix of a right one), and how many search states one query may visit.
MAX_UNFOLD_DEPTH = 3
MAX_STEPS = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a query exhausts its step budget."""


@dataclass
class ProofOutcome:
    """Result of one entailment or frame query.

    ``instantiation`` maps the right-hand side's existential variables to
    the left-hand terms they were bound to.  ``frame`` is the left-over
    left-hand material (frame inference only).
    """

    holds: bool
    frame: Optional[SymbolicHeap] = None
    instantiation: dict[LVar, Term] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

class _FreshNames:
    """Generates logical variables whose names are distinct from every used
    name; ``made`` lists them in the order they were made.  ``names`` gives
    the set of used names, which becomes the generator's own; it is called
    when the first name is made.  The counter then first passes over
    ``reserved`` names v1, v2, ... as ``make("v")`` would, so that the names
    made next are those a search that renamed its right side would make.  A
    name is kept unprimed, as in the used names: an ``LVar`` adds the prime
    when it renders."""

    def __init__(self, names: Callable[[], set[str]], reserved: int = 0):
        self._names = names
        self._used: Optional[set[str]] = None
        self._reserved = reserved
        self._counter = itertools.count(1)
        self.made: list[LVar] = []

    def make(self, prefix: str) -> LVar:
        used = self._used
        if used is None:
            used = self._used = self._names()
            # pass over the names make("v") would take, one per reserved
            for _ in range(self._reserved):
                while f"v{next(self._counter)}" in used:
                    pass
        while True:
            name = f"{prefix}{next(self._counter)}"
            if name not in used:
                used.add(name)
                v = LVar(name)
                self.made.append(v)
                return v


def _used_names(*heaps: SymbolicHeap) -> set[str]:
    """The names of the heaps' variables, read from each heap's cache."""
    return {v.name for h in heaps for v in h.vars()}


# ---------------------------------------------------------------------------
# Unfolding inductive segments
# ---------------------------------------------------------------------------

def unfold(atom: Spatial, context: SymbolicHeap,
           fresh: Optional[_FreshNames] = None) -> Disj:
    """Expose the head cell of a segment as a disjunction of heaps.

    Each returned heap describes just the unfolded material (the caller
    splices it in place of ``atom``).  Multiset contents are grouped into
    congruence classes using the derived equalities of ``context``; there is
    one head-consumes-element case per class plus one case where the head
    holds an untracked value.  A node atom unfolds to itself.
    """
    if isinstance(atom, NodeAtom):
        return Disj((SymbolicHeap((), (atom,)),))
    if not isinstance(atom, (ListSegAtom, SortedSegAtom)):
        raise TypeError(f"cannot unfold {atom!r}")
    if fresh is None:
        fresh = _FreshNames(lambda: _used_names(context).union(
            v.name for v in atom.vars()))
    ordered = isinstance(atom, SortedSegAtom)
    e, f, s = atom.src, atom.dst, atom.contents

    def untracked() -> Optional[Term]:
        # a sorted head's value is named, as its bounds mention it
        return fresh.make("d") if ordered else None

    def case(d: Optional[Term], rest: Optional[Multiset]) -> SymbolicHeap:
        # the head holds d; a tail from a fresh x holds rest, if not None,
        # and a sorted tail is bounded below by d
        pure = (leq(atom.lo, d), lt(d, atom.hi)) if ordered else ()
        if rest is None:
            return SymbolicHeap(pure, (NodeAtom(e, f, d),))
        x = fresh.make("x")
        tail = (SortedSegAtom(x, f, d, atom.hi, rest) if ordered
                else ListSegAtom(x, f, rest))
        return SymbolicHeap(pure, (NodeAtom(e, x, d), tail))

    total = s.total()
    cases = [case(s.keys()[0] if total else untracked(), None)] \
        if total <= 1 else []
    cases += [case(k, s.minus_one(k))
              for k, _ in context.facts.value_classes(s).values()]
    cases.append(case(untracked(), s))
    return Disj(tuple(cases))


# ---------------------------------------------------------------------------
# Pure reasoning helpers
# ---------------------------------------------------------------------------

# op -> ((query, swap operands) proving ``lhs op rhs``, (query, swap)
# refuting it); the order rows refute by the converse strict/weak order
_PURE_QUERIES = {
    "=": ((Facts.equal, False), (Facts.proves_neq, False)),
    "!=": ((Facts.proves_neq, False), (Facts.equal, False)),
    "<=": ((Facts.proves_leq, False), (Facts.proves_lt, True)),
    "<": ((Facts.proves_lt, False), (Facts.proves_leq, True)),
}
_ORDER_OPS = ("<=", "<")


def _decide(facts: Facts, op: str, a: Optional[Term], b: Optional[Term],
            refute: bool) -> bool:
    """Whether the facts prove ``a op b``, or with ``refute`` its negation;
    the nullary ``true`` and ``false`` ignore the operands."""
    queries = _PURE_QUERIES.get(op)
    if queries is None:  # the nullary true or false
        return (op == "true") != refute
    if refute and op in _ORDER_OPS and (
            op == "<" and a is b or ADDR in (facts.sort(a), facts.sort(b))):
        return True  # t < t never holds, nor an order atom on an address
    query, swap = queries[refute]
    return query(facts, b, a) if swap else query(facts, a, b)


def _offset_witness(t: Term, k: int, facts: Facts) -> Optional[Term]:
    """The value of v that makes v+k equal t: c-k where t is a constant c
    or t's class holds one, t'+(j-k) where t is t'+j with j >= k, and None
    otherwise (t is nil, or has no constant and an offset below k)."""
    base, j = split_offset(t)
    if base is not None and base is not NIL and j < k:
        c = facts.rep(base)  # the constant of base's class, if any
        if isinstance(c, Const):
            base, j = None, c.value + j
    if base is None:
        return Const(j - k)
    if j >= k and base is not NIL:
        return shifted(base, j - k)
    return None


def _shifted_leq(a: Term, ka: int, b: Term, kb: int) -> tuple[Term, Term]:
    """The operands of a + ka <= b + kb, shifted on one side only."""
    delta = kb - ka
    if delta >= 0:
        return a, shifted(b, delta)
    return shifted(a, -delta), b


# ---------------------------------------------------------------------------
# The subtraction search
# ---------------------------------------------------------------------------

class _Goal(NamedTuple):
    pure: tuple[PureAtom, ...]          # left pure (grows under case splits)
    full: tuple[Spatial, ...]           # every left atom, consumed or not
    rem: tuple[Spatial, ...]            # unconsumed left atoms
    rhs: tuple[Spatial, ...]            # outstanding right atoms
    rhs_pure: tuple[PureAtom, ...]      # outstanding right pure obligations
    theta: dict[LVar, Term]
    hyps: tuple[PureAtom, ...]          # abduced pure hypotheses
    residue: tuple[Spatial, ...]        # abduced spatial anti-frame
    ubud: int                           # remaining unfold depth


class _Leaf(NamedTuple):
    theta: dict[LVar, Term]
    leftover: tuple[Spatial, ...]
    extra_pure: tuple[PureAtom, ...]
    hyps: tuple[PureAtom, ...]
    residue: tuple[Spatial, ...]


def _need(rem: tuple[Spatial, ...], rhs: tuple[Spatial, ...]) -> int:
    """A lower bound on the budgeted moves strict entailment needs to
    consume rem and discharge rhs (see the module docstring)."""
    a = b_list = b_sorted = 0
    for atom in rem:
        kind = type(atom)
        if kind is NodeAtom:
            a += 1
        elif kind is ListSegAtom:
            b_list += 1
        else:
            b_sorted += 1
    for atom in rhs:
        kind = type(atom)
        if kind is NodeAtom:
            a -= 1
        elif kind is ListSegAtom:
            b_list -= 1
        else:
            b_sorted -= 1
    return max(abs(a), abs(b_list) + abs(b_sorted), abs(a + b_list + b_sorted))


def _name_payload(full: tuple[Spatial, ...], l_atom: Spatial,
                  witness: Optional[Term]) -> tuple[Spatial, ...]:
    """The left atoms with the payload of node l_atom named by witness,
    where matching had to name it."""
    if witness is None:
        return full
    repl = NodeAtom(l_atom.at, l_atom.nxt, witness)
    return tuple(repl if a is l_atom else a for a in full)


class _Search:
    """One subtraction query (mode: "entails", "frame" or "abduce").

    Two flags decide what differs between the modes.  ``abduce``: an
    obligation the facts do not refute may become a hypothesis, and an
    undischargeable right atom becomes part of the anti-frame in place of a
    case split.  ``strict``: every left atom must be consumed, so a leaf
    leaves no left atom over, true on the left fails at once, and the move
    bound applies; only entailment without true on the right is strict, as
    abduction always searches modulo true.
    """

    def __init__(self, lhs: SymbolicHeap, rhs: SymbolicHeap, mode: str,
                 modulo_true: bool):
        self.abduce = mode == "abduce"
        self._steps = 0

        lhs_spatial = lhs.cells()
        # heaps by left context, so each closure is built once per search;
        # the root reuses the normalized left side's (true adds no facts)
        self._contexts = {(lhs.pure, lhs_spatial): lhs}
        self.lhs_had_true = lhs.has_true()
        rhs_spatial = rhs.cells()
        self.strict = mode == "entails" and not (modulo_true or rhs.has_true())

        self.lhs = lhs
        self.base_pure = lhs.pure
        evars = rhs.evars()
        # rename the right side's existentials apart only where one is also
        # a left variable; otherwise the names are apart already
        rename = bool(evars) and not set(evars).isdisjoint(lhs.vars())
        self.fresh = _FreshNames(lambda: _used_names(lhs, rhs),
                                 0 if rename else len(evars))
        rhs_pure = rhs.pure
        # the search's name of each right existential
        self.renaming: dict[LVar, LVar]
        if rename:
            self.renaming = {v: self.fresh.make("v")
                             for v in sorted(evars, key=lambda v: v.name)}
            rhs_spatial = tuple(a.subst(self.renaming) for a in rhs_spatial)
            rhs_pure = tuple(p.subst(self.renaming) for p in rhs_pure)
        else:
            self.renaming = dict(zip(evars, evars))
        # a term in rhs_evars, once theta is applied, is an unbound
        # existential
        self.rhs_evars: set[LVar] = set(self.renaming.values())

        if len(rhs_spatial) > 1:
            rhs_spatial = tuple(sorted(rhs_spatial, key=spatial_sort_key))
        self.root = _Goal(lhs.pure, lhs_spatial, lhs_spatial, rhs_spatial,
                          rhs_pure, {}, (), (), MAX_UNFOLD_DEPTH)

    # -- bookkeeping -------------------------------------------------------

    def _context(self, pure: tuple[PureAtom, ...],
                 full: tuple[Spatial, ...]) -> SymbolicHeap:
        key = (pure, full)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self._contexts[key] = SymbolicHeap(pure, full)
        return ctx

    def _facts(self, pure: tuple[PureAtom, ...],
               full: tuple[Spatial, ...]) -> Facts:
        return self._context(pure, full).facts

    def _unfold_rhs(self, atom: Spatial, ctx: SymbolicHeap) -> Disj:
        """Unfold a right-hand segment; the variables the unfolding makes
        are existentials of the right side."""
        made = len(self.fresh.made)
        cases = unfold(atom, ctx, fresh=self.fresh)
        self.rhs_evars.update(self.fresh.made[made:])
        return cases

    # -- the obligation rule (see the module docstring) ---------------------

    def _relate(self, op: str, lterm: Term, rterm: Term, theta, hyps, facts,
                swap: bool = False) -> list[tuple[dict, tuple]]:
        """Relate a left term to a right one by ``lterm op rterm``, or
        ``rterm op lterm`` with swap; at most one result."""
        r = subst_term(rterm, theta)
        if r in self.rhs_evars:
            return [({**theta, r: lterm}, hyps)]
        if isinstance(r, Offset) and r.base in self.rhs_evars:
            # bind v' of v'+k so that v'+k is lterm, then relate lterm to
            # itself: that holds only where lterm has a value
            value = _offset_witness(lterm, r.delta, facts)
            if value is not None:
                theta, r = {**theta, r.base: value}, lterm
        a, b = (r, lterm) if swap else (lterm, r)
        hyps = self._admit(facts, op, a, b, hyps)
        return [] if hyps is None else [(theta, hyps)]

    def _admit(self, facts: Facts, op: str, a: Optional[Term],
               b: Optional[Term], hyps: tuple) -> Optional[tuple]:
        """hyps when the facts prove ``a op b``; in abduction, hyps and the
        atom when the facts do not refute it; otherwise None."""
        if _decide(facts, op, a, b, False):
            return hyps
        if self.abduce and not _decide(facts, op, a, b, True):
            return hyps + (PureAtom(op, a, b),)
        return None

    # -- term-level matching -----------------------------------------------

    def _match_payload(self, ldata: Optional[Term], rdata: Optional[Term],
                       theta, hyps, facts,
                       ) -> list[tuple[dict, tuple, Optional[Term]]]:
        """Match node payloads; the third component names an untracked left
        payload by a fresh witness w (w+k against v'+k), if one had to be
        named."""
        if rdata is None:
            return [(theta, hyps, None)]
        if ldata is None:
            r = subst_term(rdata, theta)
            v, k = split_offset(r)
            if v in self.rhs_evars:
                w = self.fresh.make("w")
                return [({**theta, v: w}, hyps, shifted(w, k))]
            return []  # an untracked value guarantees nothing specific
        return [(th, hy, None)
                for th, hy in self._relate("=", ldata, rdata, theta, hyps,
                                           facts)]

    def _match_contents(self, lms: Multiset, rms: Multiset, theta, hyps,
                        facts) -> list[tuple[dict, tuple]]:
        """Cover the right multiset with the left one (class-summed).

        Unbound keys on the right branch over the left keys, both in key
        order.
        """
        states = [theta]
        for k in rms.keys():
            nxt = []
            for th in states:
                kk = subst_term(k, th)
                if kk in self.rhs_evars:
                    for lk in lms.keys():
                        nxt.append({**th, kk: lk})
                else:
                    nxt.append(th)
            states = nxt
        lsums = facts.value_class_sums(lms)
        return [(th, hyps) for th in states
                if all(lsums.get(rep, 0) >= n for rep, n
                       in facts.value_class_sums(rms.subst(th)).items())]

    # -- the search proper ---------------------------------------------------

    def run(self) -> Iterator[_Leaf]:
        if self.lhs_had_true and self.strict:
            return  # an arbitrary extension can never be pinned down
        yield from self._solve(self.root)

    def _solve(self, g: _Goal) -> Iterator[_Leaf]:
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise BudgetExceeded(f"prover exceeded {MAX_STEPS} search steps")
        if self.strict and _need(g.rem, g.rhs) > g.ubud:
            return  # no leaf within the budget: see the module docstring
        if not g.rhs:
            yield from self._finish(g)
            return
        # prefer an obligation whose head is already determined
        idx = 0
        for i, a in enumerate(g.rhs):
            h = a.head
            if h is not None and subst_term(h, g.theta) not in self.rhs_evars:
                idx = i
                break
        r_atom = g.rhs[idx]
        rest = g.rhs[:idx] + g.rhs[idx + 1:]

        # the budgeted moves: chaining, a right unfold and a case split
        budgeted = g.ubud > 0
        moves = self._try_direct(r_atom, rest, g)
        if budgeted and type(r_atom) is not NodeAtom:  # a segment's moves
            moves = itertools.chain(moves, self._try_chain(r_atom, rest, g),
                                    self._try_unfold_rhs(r_atom, rest, g))
        produced = False
        for leaf in moves:
            produced = True
            yield leaf
        if produced:
            return
        if self.abduce:
            # the obligation becomes part of the anti-frame
            if self._residue_clashes(r_atom, g.theta):
                return
            g2 = _Goal(g.pure, g.full, g.rem, rest, g.rhs_pure, g.theta,
                       g.hyps, g.residue + (r_atom,), g.ubud)
            yield from self._solve(g2)
        elif budgeted:
            yield from self._try_case_split(r_atom, g)

    def _residue_clashes(self, r_atom: Spatial, theta: dict) -> bool:
        """Whether no cell fits beside the left side at r_atom's head under
        theta (``_clashes``): the re-check would drop every anti-frame that
        holds r_atom."""
        return _clashes(self.lhs, subst_term(r_atom.head, theta))

    # -- move 1: direct atom match -----------------------------------------

    def _try_direct(self, r_atom: Spatial, rest: tuple[Spatial, ...],
                    g: _Goal) -> Iterator[_Leaf]:
        kind = type(r_atom)
        lis = [li for li, l_atom in enumerate(g.rem) if type(l_atom) is kind]
        return self._consume(lis, r_atom, rest, g.rhs_pure, g, g.ubud,
                             self._facts(g.pure, g.full))

    def _consume(self, lis: Sequence[int], r_atom: Spatial,
                 rest: tuple[Spatial, ...], rhs_pure: tuple[PureAtom, ...],
                 g: _Goal, ubud: int, facts: Facts) -> Iterator[_Leaf]:
        """Discharge r_atom by each left atom g.rem[li] in turn, then solve
        rest."""
        for li in lis:
            l_atom = g.rem[li]
            for th, hy, witness in self._match_pair(l_atom, r_atom, g, facts):
                full = _name_payload(g.full, l_atom, witness)
                yield from self._solve(_Goal(
                    g.pure, full, g.rem[:li] + g.rem[li + 1:], rest, rhs_pure,
                    th, hy, g.residue, ubud))

    def _match_pair(self, l_atom: Spatial, r_atom: Spatial, g: _Goal,
                    facts: Facts,
                    ) -> Iterator[tuple[dict, tuple, Optional[Term]]]:
        """All ways one left atom can discharge one right atom of the
        same kind: (theta, hyps, payload-witness)."""
        states = [s for th, hy in self._relate("=", l_atom.head, r_atom.head,
                                               g.theta, g.hyps, facts)
                  for s in self._relate("=", l_atom.tail, r_atom.tail,
                                        th, hy, facts)]
        if isinstance(l_atom, NodeAtom):
            for th, hy in states:
                yield from self._match_payload(l_atom.data, r_atom.data,
                                               th, hy, facts)
            return
        # segments: intervals, then contents
        if isinstance(l_atom, SortedSegAtom):
            states = [s for th, hy in states
                      for s in self._relate("<=", l_atom.lo, r_atom.lo,
                                            th, hy, facts, swap=True)]
            states = [s for th, hy in states
                      for s in self._relate("<=", l_atom.hi, r_atom.hi,
                                            th, hy, facts)]
        for th, hy in states:
            for th2, hy2 in self._match_contents(l_atom.contents,
                                                 r_atom.contents,
                                                 th, hy, facts):
                yield th2, hy2, None

    # -- move 2: consume a left segment as a prefix of a right one ----------

    def _try_chain(self, r_atom: Spatial, rest: tuple[Spatial, ...],
                   g: _Goal) -> Iterator[_Leaf]:
        facts = self._facts(g.pure, g.full)
        tgt = subst_term(r_atom.dst, g.theta)
        unbound = tgt in self.rhs_evars
        for li, l_atom in enumerate(g.rem):
            if type(l_atom) is not type(r_atom):
                continue
            rem_after = g.rem[:li] + g.rem[li + 1:]
            # appending behind the prefix is only sound when the final
            # target is nil or still allocated elsewhere; an unbound target
            # is bound to each such head in turn
            if unbound:
                thetas = [{**g.theta, tgt: a.head} for a in rem_after]
            elif facts.equal(tgt, NIL) or any(
                    facts.equal(a.head, tgt) for a in rem_after):
                thetas = [g.theta]
            else:
                continue
            for theta in thetas:
                for th, hy in self._relate("=", l_atom.head, r_atom.head,
                                           theta, g.hyps, facts):
                    if facts.equal(l_atom.dst, subst_term(r_atom.dst, th)):
                        continue  # a direct match, not a strict prefix
                    yield from self._chain_with(l_atom, r_atom, rem_after,
                                                rest, g, th, hy, facts)

    def _chain_with(self, l_atom, r_atom, rem_after, rest, g, theta, hyps,
                    facts) -> Iterator[_Leaf]:
        rms = r_atom.contents.subst(theta)
        if not self.rhs_evars.isdisjoint(rms.keys()):
            return
        avail = facts.value_class_sums(l_atom.contents)
        if isinstance(r_atom, SortedSegAtom):
            states = self._relate("<=", l_atom.lo, r_atom.lo, theta, hyps,
                                  facts, swap=True)
            if not states:
                return
            theta, hyps = states[0]
            remainder: list[tuple[Term, int]] = []
            for k, need in rms.items:
                rep = facts.rep(k)
                if not facts.proves_lt(k, l_atom.hi):
                    remainder.append((k, need))  # not proved low: left over
                elif avail.get(rep, 0) < need:
                    return  # the prefix cannot supply a low element
                else:
                    avail[rep] -= need
            tail = SortedSegAtom(l_atom.dst, r_atom.dst, l_atom.hi,
                                 subst_term(r_atom.hi, theta),
                                 Multiset.of(remainder))
            if tail.hi in self.rhs_evars:
                return
        else:
            remainder = []
            for k, need in rms.items:
                rep = facts.rep(k)
                take = min(need, avail.get(rep, 0))
                if rep in avail:
                    avail[rep] -= take
                if need - take:
                    remainder.append((k, need - take))
            tail = ListSegAtom(l_atom.dst, r_atom.dst, Multiset.of(remainder))
        g2 = _Goal(g.pure, g.full, rem_after,
                   (tail,) + rest, g.rhs_pure, theta, hyps, g.residue,
                   g.ubud - 1)
        yield from self._solve(g2)

    # -- move 3: unfold a right segment against a left node -----------------

    def _try_unfold_rhs(self, r_atom: Spatial, rest: tuple[Spatial, ...],
                        g: _Goal) -> Iterator[_Leaf]:
        ctx = self._context(g.pure, g.full)
        facts = ctx.facts
        src = subst_term(r_atom.head, g.theta)
        if src in self.rhs_evars:
            return
        nodes = [i for i, a in enumerate(g.rem)
                 if isinstance(a, NodeAtom) and facts.equal(a.at, src)]
        if not nodes:
            return
        for case in self._unfold_rhs(r_atom.subst(g.theta), ctx):
            yield from self._consume(nodes, case.spatial[0],
                                     case.spatial[1:] + rest,
                                     g.rhs_pure + case.pure, g, g.ubud - 1,
                                     facts)

    # -- move 4: case analysis on a left segment ----------------------------

    def _try_case_split(self, r_atom: Spatial, g: _Goal) -> Iterator[_Leaf]:
        want = subst_term(r_atom.head, g.theta)
        if want in self.rhs_evars:
            return
        ctx = self._context(g.pure, g.full)
        facts = ctx.facts
        seg = next((a for a in g.rem
                    if isinstance(a, (ListSegAtom, SortedSegAtom))
                    and facts.equal(a.head, want)), None)
        if seg is None:
            return
        full = tuple(a for a in g.full if a is not seg)
        rem = tuple(a for a in g.rem if a is not seg)
        cases = [_Goal(g.pure + case.pure, full + case.spatial,
                       rem + case.spatial, g.rhs, g.rhs_pure, g.theta,
                       g.hyps, g.residue, g.ubud - 1)
                 for case in unfold(seg, ctx, fresh=self.fresh)]
        if self.strict and any(
                _need(g2.rem, g2.rhs) > g2.ubud
                and not self._facts(g2.pure, g2.full).inconsistent
                for g2 in cases):
            return  # a reachable disjunct can reach no leaf: the split fails
        collected: list[_Leaf] = []
        for g2 in cases:
            if self._facts(g2.pure, g2.full).inconsistent:
                continue  # this disjunct is vacuous under the context
            subs = list(self._solve(g2))
            if not subs:
                return  # one reachable disjunct resists: the split fails
            collected.extend(subs)
        yield from collected

    # -- leaf: pure obligations and leftover policy -------------------------

    def _finish(self, g: _Goal) -> Iterator[_Leaf]:
        theta = dict(g.theta)
        hyps = g.hyps
        pending = [p.subst(theta) for p in g.rhs_pure]

        # bind existentials fixed by equality obligations: v = b binds v to
        # b, and v+k = b binds v as _relate does
        changed = True
        while changed:
            changed = False
            nxt = []
            for p in pending:
                p = p.subst(theta)
                kept = True
                if p.op == "=":
                    for a, b in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
                        if self._free((var_of(b),), theta):
                            continue
                        if a in self.rhs_evars:
                            theta[a] = b
                            kept = isinstance(b, Offset)  # b must have a value
                        elif isinstance(a, Offset) and a.base in self.rhs_evars:
                            value = _offset_witness(
                                b, a.delta, self._facts(g.pure, g.full))
                            if value is None:
                                continue
                            theta[a.base] = value  # kept: b must have a value
                        else:
                            continue
                        changed = True
                        break
                if kept:
                    nxt.append(p)
            pending = nxt

        # the leaf's closure is built only when an obligation reads it
        if pending:
            facts = self._facts(g.pure, g.full)
            deferred: list[PureAtom] = []
            for p in pending:
                p = p.subst(theta)
                if self._free(p.vars(), theta):
                    deferred.append(p)
                else:
                    hyps = self._admit(facts, p.op, p.lhs, p.rhs, hyps)
                    if hyps is None:
                        return
            hyps = self._satisfy_deferred(deferred, theta, facts, hyps)
            if hyps is None:
                return

        if self.strict and g.rem:
            return  # strict entailment must consume the whole left heap
        leftover = tuple(sorted(g.rem, key=spatial_sort_key))
        # case splits append to the left pure part
        extra_pure = g.pure[len(self.base_pure):]
        if extra_pure:
            base = set(self.base_pure)
            extra_pure = tuple(p for p in extra_pure if p not in base)
        residue = tuple(a.subst(theta) for a in g.residue)
        yield _Leaf(theta, leftover, extra_pure, hyps, residue)

    def _free(self, vs, theta: dict) -> set[LVar]:
        """The right-hand existentials among ``vs`` that theta leaves free."""
        return {v for v in vs if v in self.rhs_evars and v not in theta}

    def _satisfy_deferred(self, deferred: list[PureAtom], theta: dict,
                          facts: Facts, hyps: tuple) -> Optional[tuple]:
        """Check satisfiability of obligations still holding unbound
        existentials, by eliminating one variable at a time.

        Each remaining variable's lower bounds are cross-checked against its
        upper bounds through the obligation rule.  Returns hyps with any
        hypotheses this adds (abduction), or None when unsatisfiable /
        undecidable.  Conservative: an order atom relating two unbound
        variables, or a disequality on a variable bounded from both sides,
        fails the leaf.
        """
        by_var: dict[LVar, list[PureAtom]] = {}
        for p in deferred:
            vs = list(self._free(p.vars(), theta))
            if len(vs) != 1:
                if p.op == "=" and len(vs) == 2 and p.lhs in vs and p.rhs in vs:
                    continue  # two free existentials may always coincide
                return None
            by_var.setdefault(vs[0], []).append(p)
        for v, atoms in sorted(by_var.items(), key=lambda e: e[0].name):
            # bounds are (base-term-or-None, shift): None means a constant
            lowers: list[tuple[Optional[Term], int]] = []   # t + c <= v
            uppers: list[tuple[Optional[Term], int]] = []   # v <= t + c
            has_neq = False
            for p in atoms:
                if p.op == "=":
                    return None  # an equality here resisted the binding pass
                if p.op == "!=":
                    has_neq = True
                    continue
                strict = 1 if p.op == "<" else 0
                lb, lc = split_offset(p.lhs)
                rb, rc = split_offset(p.rhs)
                if lb == v and rb == v:
                    if lc + strict > rc:
                        return None  # v + lc op v + rc is vacuously false
                elif lb == v:
                    uppers.append((rb, rc - lc - strict))
                else:  # v is free in p, so it is the base of one side
                    lowers.append((lb, lc - rc + strict))
            # a bound with no partner must itself have an integer value
            pairs = list(itertools.product(lowers, uppers)) or \
                [(bd, bd) for bd in lowers + uppers]
            for (bl, kl), (bu, ku) in pairs:
                a = bl if bl is not None else Const(0)
                b = bu if bu is not None else Const(0)
                if isinstance(a, NilTerm) or isinstance(b, NilTerm):
                    return None  # order constraints never hold of nil
                hyps = self._admit(facts, "<=", *_shifted_leq(a, kl, b, ku),
                                   hyps)
                if hyps is None:
                    return None
            if has_neq and lowers and uppers:
                return None
        return hyps


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _invert_instantiation(leaf: _Leaf, renaming: dict[LVar, LVar],
                          lhs_vars: Sequence[Union[PVar, LVar]],
                          ) -> tuple[dict[LVar, Term], dict[Term, Term]]:
    """Map bindings back to the original right-hand names.

    Returns (instantiation on original names, rendering substitution that
    replaces internal witnesses by the right-hand existential they stand
    for); both are empty when the leaf bound nothing."""
    if not leaf.theta:
        return {}, {}
    inst: dict[LVar, Term] = {}
    render: dict[Term, Term] = {}
    for orig in sorted(renaming, key=lambda v: v.name):
        fresh = renaming[orig]
        if fresh not in leaf.theta:
            continue
        val = leaf.theta[fresh]
        if isinstance(val, LVar) and val not in lhs_vars and \
                val not in render:
            render[val] = orig
        inst[orig] = val
    # drop entries that collapse to identity after rendering
    out: dict[LVar, Term] = {}
    for k, v in inst.items():
        v2 = subst_term(v, render)
        if v2 != k:
            out[k] = v2
    return out, render


def _leaves(st: _Search, first: bool = False) -> list[_Leaf]:
    """The leaves of the search, in order, or with ``first`` the first one
    only; none where the search needs a term that has no value.

    A search raises ValueError when it needs the value of an offset of nil,
    such as ``rep(x+1)`` where the left side has x = nil: ``shifted`` builds
    no such term.  An offset of an address has no value, so no proof can use
    it, and the query answers "no" as the oracle does.  BudgetExceeded is
    not caught: it means "unknown", not "no" (see the module docstring)."""
    try:
        return list(itertools.islice(st.run(), 1 if first else None))
    except ValueError:
        return []


def entails(lhs: SymbolicHeap, rhs: SymbolicHeap, *,
            modulo_true: bool = False) -> ProofOutcome:
    """Decide lhs |- rhs (sound, incomplete).

    With ``modulo_true`` the right side is weakened by an arbitrary-heap
    atom, so left-over left material is acceptable.
    """
    lhs = normalize(lhs)
    if lhs.is_false:
        return ProofOutcome(True)
    # normalize keeps the number of cells unless it returns false, and lhs
    # is not false: with unequal counts the identity cannot hold
    if len(lhs.cells()) == len(rhs.cells()) and lhs == normalize(rhs):
        return ProofOutcome(True)
    st = _Search(lhs, rhs, "entails", modulo_true)
    leaves = _leaves(st, first=True)
    if not leaves:
        return ProofOutcome(False)
    inst, _ = _invert_instantiation(leaves[0], st.renaming, lhs.vars())
    return ProofOutcome(True, instantiation=inst)


def frame_infer(lhs: SymbolicHeap, rhs: SymbolicHeap) -> list[ProofOutcome]:
    """Solve lhs |- rhs * F, case-splitting the left side as needed.

    Returns one outcome per discovered case: together the outcomes cover
    every model of ``lhs`` (each case's models satisfy rhs * frame under
    the reported instantiation).  An empty list means failure.
    """
    lhs = normalize(lhs)
    if lhs.is_false:
        return [ProofOutcome(True, frame=FALSE_HEAP)]
    st = _Search(lhs, rhs, "frame", False)
    outcomes: list[ProofOutcome] = []
    seen: set[tuple[SymbolicHeap, frozenset]] = set()
    # every leaf, or none: the outcomes must cover the left side
    for leaf in _leaves(st):
        inst, render = _invert_instantiation(leaf, st.renaming, lhs.vars())
        frame = SymbolicHeap(leaf.extra_pure, leaf.leftover)
        if render:
            frame = frame.subst(render)
        if st.lhs_had_true:
            frame = SymbolicHeap(frame.pure,
                                 frame.spatial + (TRUE_SPATIAL,))
        key = (frame, frozenset(inst.items()))
        if key in seen:
            continue
        seen.add(key)
        outcomes.append(ProofOutcome(True, frame=frame, instantiation=inst))
    return outcomes


def abduce(lhs: SymbolicHeap, rhs: SymbolicHeap) -> list[SymbolicHeap]:
    """Find anti-frames A with lhs * A |- rhs * true and lhs * A
    consistent.  Falls back to [false] when nothing consistent works, and
    raises BudgetExceeded when a search exhausts its budget.

    Every returned candidate has been re-checked against the entailment;
    the list is deterministic and duplicate-free.
    """
    lhs = normalize(lhs)
    if lhs.is_false:
        return [FALSE_HEAP]
    candidates: list[SymbolicHeap] = []
    for cand in _proposals(lhs, rhs):
        combined = star(lhs, cand)  # false where a cell clashes
        if combined.is_false:
            continue
        if not entails(combined, rhs, modulo_true=True).holds:
            continue
        candidates.append(cand)
    if not candidates:
        return [FALSE_HEAP]
    if len(candidates) > 1:
        candidates.sort(key=_candidate_key)
    return candidates


def _proposals(lhs: SymbolicHeap, rhs: SymbolicHeap) -> list[SymbolicHeap]:
    """The distinct anti-frames the search proposes for a normalized,
    consistent lhs, in the order it finds them, before any re-check."""
    st = _Search(lhs, rhs, "abduce", True)
    inverse = {v: k for k, v in st.renaming.items() if v is not k}
    proposals: dict[SymbolicHeap, None] = {}
    for leaf in _leaves(st):
        # unbound existentials keep their original right-hand names; the
        # residue is already instantiated (_finish)
        unbound = {v: k for v, k in inverse.items() if v not in leaf.theta}
        pure = [p.subst(leaf.theta) for p in leaf.hyps]
        spatial = list(leaf.residue)
        if unbound:
            pure = [p.subst(unbound) for p in pure]
            spatial = [a.subst(unbound) for a in spatial]
        proposals.setdefault(SymbolicHeap(
            tuple(sorted(set(pure), key=lambda p: p.sort_key())),
            tuple(sorted(spatial, key=spatial_sort_key))))
    return list(proposals)


def _clashes(lhs: SymbolicHeap, head: Term) -> bool:
    """Whether lhs's facts prove head equal to nil or to the head of one of
    lhs's cells, so that no cell at head fits beside lhs."""
    facts = lhs.facts
    return facts.equal(head, NIL) or any(facts.equal(head, a.head)
                                         for a in lhs.cells())


def choose(candidates: Sequence[SymbolicHeap]) -> SymbolicHeap:
    """Pick the preferred abduction candidate.

    Consistent before false; then fewer spatial atoms, fewer pure atoms,
    and finally the lexicographically least rendering.  A lone candidate
    is returned as it is.
    """
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise ValueError("choose() requires at least one candidate")
    return min(candidates, key=_candidate_key)


def _candidate_key(h: SymbolicHeap) -> tuple:
    return (h.is_false, len(h.spatial), len(h.pure), str(h))


# ---------------------------------------------------------------------------
# Stateful wrapper with query counting and memoisation
# ---------------------------------------------------------------------------

class Prover:
    """Caches query results; counts every query issued and every query the
    memo answers."""

    def __init__(self):
        self.queries = 0
        self.memo_hits = 0
        self._memo: dict[tuple, object] = {}

    def _cached(self, key: tuple):
        """One query through the memo, keyed by ``(op, lhs, rhs)`` or
        ``(entails, lhs, rhs, modulo_true)`` over the frozen heaps: a hit
        costs one probe and returns the stored object; a miss asks op and
        stores its answer, unless op raises."""
        self.queries += 1
        try:
            out = self._memo[key]
        except KeyError:
            pass
        else:
            self.memo_hits += 1
            return out
        op, lhs, rhs, *flag = key
        out = self._memo[key] = (op(lhs, rhs, modulo_true=flag[0]) if flag
                                 else op(lhs, rhs))
        return out

    def entails(self, lhs: SymbolicHeap, rhs: SymbolicHeap,
                modulo_true: bool = False) -> ProofOutcome:
        return self._cached((entails, lhs, rhs, modulo_true))

    def frame_infer(self, lhs: SymbolicHeap,
                    rhs: SymbolicHeap) -> list[ProofOutcome]:
        return self._cached((frame_infer, lhs, rhs))

    def abduce(self, lhs: SymbolicHeap,
               rhs: SymbolicHeap) -> list[SymbolicHeap]:
        return self._cached((abduce, lhs, rhs))
