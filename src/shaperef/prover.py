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
  right-hand segment, leaving the remainder as a new obligation;
* case analysis: a left-hand segment is unfolded into its disjuncts and
  every consistent disjunct must be proved (entailment and frame inference
  only; never during abduction).

Abduction replaces case analysis with two extra moves: an undischargeable
right-hand atom becomes part of the candidate anti-frame, and an unprovable
ground comparison becomes a pure hypothesis.  Every candidate is re-checked
(``lhs * candidate |- rhs`` must hold and the conjunction must stay
consistent) before it is returned, so callers may rely on the results even
though hypothesis generation itself is heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .terms import (
    Const,
    LVar,
    Multiset,
    NIL,
    NilTerm,
    PVar,
    PureAtom,
    Term,
    eq,
    leq,
    lt,
    shifted,
    split_offset,
    subst_term,
    term_sort_key,
    term_vars,
)
from .heaps import (
    Disj,
    FALSE_HEAP,
    Facts,
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    TRUE_SPATIAL,
    TrueAtom,
    atom_head,
    normalize,
    spatial_sort_key,
    star,
)

__all__ = [
    "BudgetExceeded",
    "ProofOutcome",
    "Prover",
    "ProverConfig",
    "abduce",
    "choose",
    "entails",
    "frame_infer",
    "unfold",
]


@dataclass(frozen=True)
class ProverConfig:
    """Search budgets.

    ``max_unfold_depth`` bounds how many segment unfoldings (of either side)
    a single matching chain may perform; ``max_steps`` bounds the total
    number of search states across one query.
    """

    max_unfold_depth: int = 3
    max_steps: int = 200_000


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
    """Generates primed logical variables distinct from every used name."""

    def __init__(self, used: set[str]):
        self._used = set(used)
        self._counter = itertools.count(1)

    def make(self, prefix: str) -> LVar:
        while True:
            name = f"{prefix}{next(self._counter)}'"
            if name not in self._used:
                self._used.add(name)
                return LVar(name)


def _used_names(*heaps: SymbolicHeap) -> set[str]:
    out: set[str] = set()
    for h in heaps:
        out.update(v.name for v in h.vars())
    return out


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
    if fresh is None:
        used = _used_names(context)
        used.update(v.name for v in atom.vars())
        fresh = _FreshNames(used)
    facts = context.facts
    if isinstance(atom, ListSegAtom):
        return _unfold_list(atom, facts, fresh)
    if isinstance(atom, SortedSegAtom):
        return _unfold_sorted(atom, facts, fresh)
    raise TypeError(f"cannot unfold {atom!r}")


def _content_class_keys(contents: Multiset, facts: Facts) -> list[Term]:
    """One representative key per congruence class of the content keys."""
    by_rep: dict[Term, Term] = {}
    for k in sorted(contents.keys(), key=term_sort_key):
        by_rep.setdefault(facts.rep(k), k)
    return sorted(by_rep.values(), key=term_sort_key)


def _unfold_list(atom: ListSegAtom, facts: Facts, fresh: _FreshNames) -> Disj:
    e, f, s = atom.src, atom.dst, atom.contents
    total = s.total()
    cases: list[SymbolicHeap] = []
    if total <= 1:
        d = s.keys()[0] if total == 1 else None
        cases.append(SymbolicHeap((), (NodeAtom(e, f, d),)))
    for k in _content_class_keys(s, facts):
        x = fresh.make("x")
        cases.append(SymbolicHeap(
            (), (NodeAtom(e, x, k), ListSegAtom(x, f, s.minus_one(k)))))
    x = fresh.make("x")
    wild = SymbolicHeap((), (NodeAtom(e, x, None), ListSegAtom(x, f, s)))
    if total > 0:
        cases.append(wild)
    elif len(cases) == 1:
        cases.append(wild)
    return Disj(tuple(cases))


def _unfold_sorted(atom: SortedSegAtom, facts: Facts,
                   fresh: _FreshNames) -> Disj:
    e, f, lo, hi, s = atom.src, atom.dst, atom.lo, atom.hi, atom.contents
    total = s.total()
    cases: list[SymbolicHeap] = []
    if total <= 1:
        d = s.keys()[0] if total == 1 else fresh.make("d")
        cases.append(SymbolicHeap((leq(lo, d), lt(d, hi)),
                                  (NodeAtom(e, f, d),)))
    # head consumes a tracked element; the tail is bounded below by it
    for k in _content_class_keys(s, facts):
        x = fresh.make("x")
        cases.append(SymbolicHeap(
            (leq(lo, k), lt(k, hi)),
            (NodeAtom(e, x, k), SortedSegAtom(x, f, k, hi, s.minus_one(k)))))
    # head holds an untracked value below everything in the tail
    d = fresh.make("d")
    x = fresh.make("x")
    cases.append(SymbolicHeap(
        (leq(lo, d), lt(d, hi)),
        (NodeAtom(e, x, d), SortedSegAtom(x, f, d, hi, s))))
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


def _decide_pure(facts: Facts, p: PureAtom, refute: bool) -> bool:
    if p.op in ("true", "false"):
        return (p.op == "true") != refute
    if p.op not in _PURE_QUERIES:
        raise ValueError(f"unknown pure op {p.op}")
    query, swap = _PURE_QUERIES[p.op][refute]
    return query(facts, p.rhs, p.lhs) if swap else query(facts, p.lhs, p.rhs)


def proves_pure(facts: Facts, p: PureAtom) -> bool:
    """Whether the derived facts entail one pure atom."""
    return _decide_pure(facts, p, refute=False)


def refutes_pure(facts: Facts, p: PureAtom) -> bool:
    """Whether the derived facts entail the negation of one pure atom."""
    return _decide_pure(facts, p, refute=True)


def _shifted_leq(a: Term, ka: int, b: Term, kb: int) -> PureAtom:
    """The atom a + ka <= b + kb, shifted on one side only."""
    delta = kb - ka
    if delta >= 0:
        return leq(a, shifted(b, delta) if delta else b)
    return leq(shifted(a, -delta), b)


# ---------------------------------------------------------------------------
# The subtraction search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Goal:
    pure: tuple[PureAtom, ...]          # left pure (grows under case splits)
    full: tuple[Spatial, ...]           # every left atom, consumed or not
    rem: tuple[Spatial, ...]            # unconsumed left atoms
    rhs: tuple[Spatial, ...]            # outstanding right atoms
    rhs_pure: tuple[PureAtom, ...]      # outstanding right pure obligations
    theta: tuple[tuple[LVar, Term], ...]
    hyps: tuple[PureAtom, ...]          # abduced pure hypotheses
    residue: tuple[Spatial, ...]        # abduced spatial anti-frame
    ubud: int                           # remaining unfold depth


@dataclass(frozen=True)
class _Leaf:
    theta: dict[LVar, Term]
    leftover: tuple[Spatial, ...]
    extra_pure: tuple[PureAtom, ...]
    hyps: tuple[PureAtom, ...]
    residue: tuple[Spatial, ...]


class _Search:
    """One subtraction query (mode: "entails", "frame" or "abduce")."""

    def __init__(self, lhs: SymbolicHeap, rhs: SymbolicHeap, mode: str,
                 modulo_true: bool, config: ProverConfig):
        self.mode = mode
        self.config = config
        self._steps = 0

        lhs_spatial = tuple(a for a in lhs.spatial
                            if not isinstance(a, TrueAtom))
        # heaps by left context, so each closure is built once per search;
        # the root reuses the normalized left side's (true adds no facts)
        self._contexts = {(lhs.pure, lhs_spatial): lhs}
        self.lhs_had_true = len(lhs_spatial) != len(lhs.spatial)
        rhs_spatial = tuple(a for a in rhs.spatial
                            if not isinstance(a, TrueAtom))
        rhs_had_true = len(rhs_spatial) != len(rhs.spatial)
        self.modulo = modulo_true or rhs_had_true

        self.base_pure = lhs.pure
        used = _used_names(lhs, rhs)
        self.fresh = _FreshNames(used)

        # rename the right side's existentials apart from everything
        self.renaming: dict[LVar, LVar] = {}
        for v in sorted(set(rhs.evars()), key=lambda v: v.name):
            self.renaming[v] = self.fresh.make("v")
        self.rhs_evars: set[LVar] = set(self.renaming.values())
        ren = dict(self.renaming)
        rhs_spatial = tuple(a.subst(ren) for a in rhs_spatial)
        rhs_pure = tuple(p.subst(ren) for p in rhs.pure
                         if p.op != "true")

        self.root = _Goal(
            pure=lhs.pure,
            full=lhs_spatial,
            rem=lhs_spatial,
            rhs=tuple(sorted(rhs_spatial, key=spatial_sort_key)),
            rhs_pure=rhs_pure,
            theta=(),
            hyps=(),
            residue=(),
            ubud=config.max_unfold_depth,
        )

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.config.max_steps:
            raise BudgetExceeded(
                f"prover exceeded {self.config.max_steps} search steps")

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

    def _is_unbound(self, t: Term) -> bool:
        return isinstance(t, LVar) and t in self.rhs_evars

    def _register_evars(self, h: SymbolicHeap, known: set[str]) -> None:
        for v in h.vars():
            if isinstance(v, LVar) and v.name not in known:
                self.rhs_evars.add(v)

    @staticmethod
    def _ap(t: Term, theta: tuple[tuple[LVar, Term], ...]) -> Term:
        return subst_term(t, dict(theta))

    # -- term-level matching -----------------------------------------------

    def _unify(self, lterm: Term, rterm: Term, theta, hyps, facts,
               ) -> list[tuple[tuple, tuple]]:
        """Match a left term against a right term; at most one result."""
        r = self._ap(rterm, theta)
        if self._is_unbound(r):
            return [(theta + ((r, lterm),), hyps)]
        if facts.equal(lterm, r):
            return [(theta, hyps)]
        if self.mode == "abduce" and not facts.proves_neq(lterm, r):
            return [(theta, hyps + (eq(lterm, r),))]
        return []

    def _match_payload(self, ldata: Optional[Term], rdata: Optional[Term],
                       theta, hyps, facts,
                       ) -> list[tuple[tuple, tuple, Optional[LVar]]]:
        """Match node payloads; the third component is a fresh witness
        standing for an untracked left payload, if one had to be named."""
        if rdata is None:
            return [(theta, hyps, None)]
        r = self._ap(rdata, theta)
        if ldata is None:
            if self._is_unbound(r):
                w = self.fresh.make("w")
                return [(theta + ((r, w),), hyps, w)]
            return []  # an untracked value guarantees nothing specific
        return [(th, hy, None)
                for th, hy in self._unify(ldata, rdata, theta, hyps, facts)]

    def _match_contents(self, lms: Multiset, rms: Multiset, theta, hyps,
                        facts) -> list[tuple[tuple, tuple]]:
        """Cover the right multiset with the left one (class-summed).

        Unbound keys on the right branch over the left keys.
        """
        states = [theta]
        for k in sorted(rms.keys(), key=term_sort_key):
            nxt = []
            for th in states:
                kk = self._ap(k, th)
                if self._is_unbound(kk):
                    for lk in sorted(set(lms.keys()), key=term_sort_key):
                        nxt.append(th + ((kk, lk),))
                else:
                    nxt.append(th)
            states = nxt
        out = []
        for th in states:
            r2 = rms.subst(dict(th))
            lsums = facts.value_class_sums(lms)
            ok = all(lsums.get(rep, 0) >= n
                     for rep, n in facts.value_class_sums(r2).items())
            if ok:
                out.append((th, hyps))
        return out

    def _match_bound(self, lterm: Term, rterm: Term, theta, hyps, facts,
                     widen: str) -> list[tuple[tuple, tuple]]:
        """Interval-bound matching: the right interval must contain the left.

        widen="lo" requires r <= l; widen="hi" requires l <= r.  Unbound
        right bounds are bound to the left bound exactly.
        """
        r = self._ap(rterm, theta)
        if self._is_unbound(r):
            return [(theta + ((r, lterm),), hyps)]
        a, b = (r, lterm) if widen == "lo" else (lterm, r)
        if facts.proves_leq(a, b):
            return [(theta, hyps)]
        if self.mode == "abduce" and not facts.proves_lt(b, a):
            return [(theta, hyps + (leq(a, b),))]
        return []

    # -- the search proper ---------------------------------------------------

    def run(self) -> Iterator[_Leaf]:
        if self.lhs_had_true and not self.modulo and self.mode != "frame":
            return  # an arbitrary extension can never be pinned down
        yield from self._solve(self.root)

    def _solve(self, g: _Goal) -> Iterator[_Leaf]:
        self._tick()
        if not g.rhs:
            yield from self._finish(g)
            return
        # prefer an obligation whose head is already determined
        idx = 0
        for i, a in enumerate(g.rhs):
            h = atom_head(a)
            if h is not None and not self._is_unbound(self._ap(h, g.theta)):
                idx = i
                break
        r_atom = g.rhs[idx]
        rest = g.rhs[:idx] + g.rhs[idx + 1:]

        produced = False
        for leaf in itertools.chain(self._try_direct(r_atom, rest, g),
                                    self._try_chain(r_atom, rest, g),
                                    self._try_unfold_rhs(r_atom, rest, g)):
            produced = True
            yield leaf
        if produced:
            return
        if self.mode == "abduce":
            # the obligation becomes part of the anti-frame
            g2 = _Goal(g.pure, g.full, g.rem, rest, g.rhs_pure, g.theta,
                       g.hyps, g.residue + (r_atom,), g.ubud)
            yield from self._solve(g2)
        else:
            yield from self._try_case_split(r_atom, g)

    # -- move 1: direct atom match -----------------------------------------

    def _try_direct(self, r_atom: Spatial, rest: tuple[Spatial, ...],
                    g: _Goal) -> Iterator[_Leaf]:
        facts = self._facts(g.pure, g.full)
        for li, l_atom in enumerate(g.rem):
            if type(l_atom) is not type(r_atom):
                continue
            for th, hy, witness in self._match_pair(l_atom, r_atom, g, facts):
                full = g.full
                if witness is not None:
                    repl = NodeAtom(l_atom.at, l_atom.nxt, witness)
                    full = tuple(repl if a is l_atom else a for a in full)
                g2 = _Goal(g.pure, full, g.rem[:li] + g.rem[li + 1:],
                           rest, g.rhs_pure, th, hy, g.residue, g.ubud)
                yield from self._solve(g2)

    def _match_pair(self, l_atom: Spatial, r_atom: Spatial, g: _Goal,
                    facts: Facts,
                    ) -> Iterator[tuple[tuple, tuple, Optional[LVar]]]:
        """All ways one left atom can discharge one right atom of the
        same kind: (theta, hyps, payload-witness)."""
        states = self._unify(atom_head(l_atom), atom_head(r_atom),
                             g.theta, g.hyps, facts)
        if isinstance(l_atom, NodeAtom):
            states = [s for th, hy in states
                      for s in self._unify(l_atom.nxt, r_atom.nxt,
                                           th, hy, facts)]
            for th, hy in states:
                yield from self._match_payload(l_atom.data, r_atom.data,
                                               th, hy, facts)
            return
        # segments: destinations, then intervals, then contents
        states = [s for th, hy in states
                  for s in self._unify(l_atom.dst, r_atom.dst, th, hy, facts)]
        if isinstance(l_atom, SortedSegAtom):
            states = [s for th, hy in states
                      for s in self._match_bound(l_atom.lo, r_atom.lo,
                                                 th, hy, facts, widen="lo")]
            states = [s for th, hy in states
                      for s in self._match_bound(l_atom.hi, r_atom.hi,
                                                 th, hy, facts, widen="hi")]
        for th, hy in states:
            for th2, hy2 in self._match_contents(l_atom.contents,
                                                 r_atom.contents,
                                                 th, hy, facts):
                yield th2, hy2, None

    # -- move 2: consume a left segment as a prefix of a right one ----------

    def _try_chain(self, r_atom: Spatial, rest: tuple[Spatial, ...],
                   g: _Goal) -> Iterator[_Leaf]:
        if not isinstance(r_atom, (ListSegAtom, SortedSegAtom)):
            return
        facts = self._facts(g.pure, g.full)
        tgt = self._ap(r_atom.dst, g.theta)
        if self._is_unbound(tgt):
            return
        for li, l_atom in enumerate(g.rem):
            if type(l_atom) is not type(r_atom):
                continue
            rem_after = g.rem[:li] + g.rem[li + 1:]
            # appending behind the prefix is only sound when the final
            # target is nil or still allocated elsewhere
            anchored = facts.equal(tgt, NIL) or any(
                facts.equal(atom_head(a), tgt) for a in rem_after)
            if not anchored:
                continue
            for th, hy in self._unify(atom_head(l_atom), atom_head(r_atom),
                                      g.theta, g.hyps, facts):
                if facts.equal(l_atom.dst, self._ap(r_atom.dst, th)):
                    continue  # a direct match, not a strict prefix
                yield from self._chain_with(l_atom, r_atom, rem_after, rest,
                                            g, th, hy, facts)

    def _chain_with(self, l_atom, r_atom, rem_after, rest, g, theta, hyps,
                    facts) -> Iterator[_Leaf]:
        if g.ubud <= 0:
            return
        rms = r_atom.contents.subst(dict(theta))
        if any(self._is_unbound(k) for k in rms.keys()):
            return
        avail = dict(facts.value_class_sums(l_atom.contents))
        if isinstance(r_atom, SortedSegAtom):
            states = self._match_bound(l_atom.lo, r_atom.lo, theta, hyps,
                                       facts, widen="lo")
            if not states:
                return
            theta, hyps = states[0]
            low_keys, rest_keys = [], []
            for k in sorted(rms.keys(), key=term_sort_key):
                if facts.proves_lt(k, l_atom.hi):
                    low_keys.append(k)
                elif facts.proves_leq(l_atom.hi, k):
                    rest_keys.append(k)
                else:
                    rest_keys.append(k)  # undecided: defer to the remainder
            remainder: list[tuple[Term, int]] = []
            for k in low_keys:
                need = rms.mult(k)
                rep = facts.rep(k)
                have = avail.get(rep, 0)
                if have < need:
                    return  # the prefix cannot supply a low element
                avail[rep] = have - need
            for k in rest_keys:
                remainder.append((k, rms.mult(k)))
            tail = SortedSegAtom(l_atom.dst, r_atom.dst, l_atom.hi,
                                 self._ap(r_atom.hi, theta),
                                 Multiset.of(remainder))
            if self._is_unbound(tail.hi):
                return
        else:
            remainder = []
            for k in sorted(rms.keys(), key=term_sort_key):
                need = rms.mult(k)
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
        if not isinstance(r_atom, (ListSegAtom, SortedSegAtom)):
            return
        if g.ubud <= 0:
            return
        ctx = self._context(g.pure, g.full)
        facts = ctx.facts
        src = self._ap(atom_head(r_atom), g.theta)
        if self._is_unbound(src):
            return
        nodes = [(i, a) for i, a in enumerate(g.rem)
                 if isinstance(a, NodeAtom) and facts.equal(a.at, src)]
        if not nodes:
            return
        r2 = r_atom.subst(dict(g.theta))
        known = {v.name for v in ctx.vars()}
        known.update(v.name for v in r2.vars())
        known.update(v.name for v in self.rhs_evars)
        for case in unfold(r2, ctx, fresh=self.fresh):
            # fresh unfold variables are existentials of the right side
            self._register_evars(case, known)
            head = case.spatial[0]
            tail = case.spatial[1:]
            for li, l_atom in nodes:
                for th, hy in self._unify(l_atom.nxt, head.nxt, g.theta,
                                          g.hyps, facts):
                    for th2, hy2, witness in self._match_payload(
                            l_atom.data, head.data, th, hy, facts):
                        full = g.full
                        if witness is not None:
                            repl = NodeAtom(l_atom.at, l_atom.nxt, witness)
                            full = tuple(repl if a is l_atom else a
                                         for a in full)
                        g2 = _Goal(g.pure, full,
                                   g.rem[:li] + g.rem[li + 1:],
                                   tail + rest,
                                   g.rhs_pure + case.pure,
                                   th2, hy2, g.residue, g.ubud - 1)
                        yield from self._solve(g2)

    # -- move 4: case analysis on a left segment ----------------------------

    def _try_case_split(self, r_atom: Spatial, g: _Goal) -> Iterator[_Leaf]:
        if g.ubud <= 0:
            return
        want = atom_head(r_atom)
        if want is None:
            return
        want = self._ap(want, g.theta)
        if self._is_unbound(want):
            return
        ctx = self._context(g.pure, g.full)
        facts = ctx.facts
        seg = next((a for a in g.rem
                    if isinstance(a, (ListSegAtom, SortedSegAtom))
                    and facts.equal(atom_head(a), want)), None)
        if seg is None:
            return
        collected: list[_Leaf] = []
        for case in unfold(seg, ctx, fresh=self.fresh):
            pure2 = g.pure + case.pure
            full2 = tuple(a for a in g.full if a is not seg) + case.spatial
            if self._facts(pure2, full2).inconsistent:
                continue  # this disjunct is vacuous under the context
            rem2 = tuple(a for a in g.rem if a is not seg) + case.spatial
            g2 = _Goal(pure2, full2, rem2, g.rhs, g.rhs_pure, g.theta,
                       g.hyps, g.residue, g.ubud - 1)
            subs = list(self._solve(g2))
            if not subs:
                return  # one reachable disjunct resists: the split fails
            collected.extend(subs)
        yield from collected

    # -- leaf: pure obligations and leftover policy -------------------------

    def _finish(self, g: _Goal) -> Iterator[_Leaf]:
        theta = dict(g.theta)
        hyps = list(g.hyps)
        pending = [p.subst(theta) for p in g.rhs_pure]

        # bind existentials fixed by equality obligations
        changed = True
        while changed:
            changed = False
            nxt = []
            for p in pending:
                p = p.subst(theta)
                if p.op == "=":
                    for a, b in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
                        if self._is_unbound(a) and a not in theta and \
                                not self._free(term_vars(b), theta):
                            theta[a] = b
                            changed = True
                            break
                    else:
                        nxt.append(p)
                    continue
                nxt.append(p)
            pending = nxt

        facts = self._facts(g.pure, g.full)
        deferred: list[PureAtom] = []
        for p in pending:
            p = p.subst(theta)
            if self._free(p.vars(), theta):
                deferred.append(p)
            elif proves_pure(facts, p):
                continue
            elif self.mode == "abduce" and not refutes_pure(facts, p):
                hyps.append(p)
            else:
                return
        extra = self._satisfy_deferred(deferred, theta, facts)
        if extra is None:
            return
        hyps.extend(extra)

        if self.mode != "frame" and not self.modulo and g.rem:
            return  # strict entailment must consume the whole left heap
        leftover = tuple(sorted(g.rem, key=spatial_sort_key))
        base = set(self.base_pure)
        extra_pure = tuple(p for p in g.pure if p not in base)
        residue = tuple(a.subst(theta) for a in g.residue)
        yield _Leaf(theta, leftover, extra_pure, tuple(hyps), residue)

    def _free(self, vs, theta: dict) -> set[LVar]:
        """The right-hand existentials among ``vs`` that theta leaves free."""
        return {v for v in vs if self._is_unbound(v) and v not in theta}

    def _satisfy_deferred(self, deferred: list[PureAtom], theta: dict,
                          facts: Facts) -> Optional[list[PureAtom]]:
        """Check satisfiability of obligations still holding unbound
        existentials, by eliminating one variable at a time.

        Each remaining variable's lower bounds are cross-checked against its
        upper bounds; a window with a missing side is always satisfiable over
        the integers.  Returns extra hypotheses (abduction) or None when
        unsatisfiable / undecidable.  Conservative: an order atom relating
        two unbound variables, or a disequality on a variable bounded from
        both sides, fails the leaf.
        """
        if not deferred:
            return []
        hyps: list[PureAtom] = []
        unbound = sorted({v for p in deferred
                          for v in self._free(p.vars(), theta)},
                         key=lambda v: v.name)
        by_var: dict[LVar, list[PureAtom]] = {v: [] for v in unbound}
        for p in deferred:
            vs = list(self._free(p.vars(), theta))
            if len(vs) != 1:
                if p.op == "=" and len(vs) == 2 and p.lhs in vs and p.rhs in vs:
                    continue  # two free existentials may always coincide
                return None
            by_var[vs[0]].append(p)
        for v, atoms in by_var.items():
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
                elif rb == v:
                    lowers.append((lb, lc - rc + strict))
                else:
                    return None  # v buried inside a term we cannot isolate
            for (bl, kl), (bu, ku) in itertools.product(lowers, uppers):
                a = bl if bl is not None else Const(0)
                b = bu if bu is not None else Const(0)
                if isinstance(a, NilTerm) or isinstance(b, NilTerm):
                    return None  # order constraints never hold of nil
                bound = _shifted_leq(a, kl, b, ku)
                if proves_pure(facts, bound):
                    continue
                if self.mode != "abduce":
                    return None
                hyps.append(bound)
            if has_neq and lowers and uppers:
                return None
        return hyps


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _invert_instantiation(leaf: _Leaf, renaming: dict[LVar, LVar],
                          lhs_vars: set[Union[PVar, LVar]],
                          ) -> tuple[dict[LVar, Term], dict[Term, Term]]:
    """Map bindings back to the original right-hand names.

    Returns (instantiation on original names, rendering substitution that
    replaces internal witnesses by the right-hand existential they stand
    for)."""
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


def entails(lhs: SymbolicHeap, rhs: SymbolicHeap, *,
            modulo_true: bool = False,
            config: Optional[ProverConfig] = None) -> ProofOutcome:
    """Decide lhs |- rhs (sound, incomplete).

    With ``modulo_true`` the right side is weakened by an arbitrary-heap
    atom, so left-over left material is acceptable.
    """
    config = config or ProverConfig()
    lhs = normalize(lhs)
    if lhs.is_false:
        return ProofOutcome(True)
    if lhs == normalize(rhs):
        return ProofOutcome(True)
    st = _Search(lhs, rhs, "entails", modulo_true, config)
    lhs_vars = set(lhs.vars())
    for leaf in st.run():
        inst, _ = _invert_instantiation(leaf, st.renaming, lhs_vars)
        return ProofOutcome(True, instantiation=inst)
    return ProofOutcome(False)


def frame_infer(lhs: SymbolicHeap, rhs: SymbolicHeap, *,
                config: Optional[ProverConfig] = None) -> list[ProofOutcome]:
    """Solve lhs |- rhs * F, case-splitting the left side as needed.

    Returns one outcome per discovered case: together the outcomes cover
    every model of ``lhs`` (each case's models satisfy rhs * frame under
    the reported instantiation).  An empty list means failure.
    """
    config = config or ProverConfig()
    lhs = normalize(lhs)
    if lhs.is_false:
        return [ProofOutcome(True, frame=FALSE_HEAP)]
    st = _Search(lhs, rhs, "frame", False, config)
    lhs_vars = set(lhs.vars())
    outcomes: list[ProofOutcome] = []
    seen: set[tuple[SymbolicHeap, frozenset]] = set()
    for leaf in st.run():
        inst, render = _invert_instantiation(leaf, st.renaming, lhs_vars)
        frame = SymbolicHeap(leaf.extra_pure, leaf.leftover).subst(render)
        if st.lhs_had_true:
            frame = SymbolicHeap(frame.pure,
                                 frame.spatial + (TRUE_SPATIAL,))
        key = (frame, frozenset(inst.items()))
        if key in seen:
            continue
        seen.add(key)
        outcomes.append(ProofOutcome(True, frame=frame, instantiation=inst))
    return outcomes


def abduce(lhs: SymbolicHeap, rhs: SymbolicHeap, *,
           modulo_true: bool = True,
           config: Optional[ProverConfig] = None) -> list[SymbolicHeap]:
    """Find anti-frames A with lhs * A |- rhs (* true) and lhs * A
    consistent.  Falls back to [false] when nothing consistent works.

    Every returned candidate has been re-checked against the entailment;
    the list is deterministic and duplicate-free.
    """
    config = config or ProverConfig()
    lhs = normalize(lhs)
    if lhs.is_false:
        return [FALSE_HEAP]
    st = _Search(lhs, rhs, "abduce", modulo_true, config)
    inverse = {v: k for k, v in st.renaming.items()}
    candidates: list[SymbolicHeap] = []
    seen: set[SymbolicHeap] = set()
    try:
        leaves = list(st.run())
    except BudgetExceeded:
        leaves = []
    for leaf in leaves:
        # unbound existentials keep their original right-hand names
        unbound = {v: inverse[v] for v in st.rhs_evars
                   if v not in leaf.theta and v in inverse}
        pure = [p.subst(leaf.theta).subst(unbound) for p in leaf.hyps]
        spatial = [a.subst(leaf.theta).subst(unbound) for a in leaf.residue]
        cand = SymbolicHeap(
            tuple(sorted(set(pure), key=lambda p: p.sort_key())),
            tuple(sorted(spatial, key=spatial_sort_key)))
        if cand in seen:
            continue
        seen.add(cand)
        combined = star(lhs, cand)
        if combined.is_false:
            continue
        if not entails(combined, rhs, modulo_true=modulo_true,
                       config=config).holds:
            continue
        candidates.append(cand)
    if not candidates:
        return [FALSE_HEAP]
    candidates.sort(key=_candidate_key)
    return candidates


def choose(candidates: Sequence[SymbolicHeap]) -> SymbolicHeap:
    """Pick the preferred abduction candidate.

    Consistent before false; then fewer spatial atoms, fewer pure atoms,
    and finally the lexicographically least rendering.
    """
    if not candidates:
        raise ValueError("choose() requires at least one candidate")
    return min(candidates, key=_candidate_key)


def _candidate_key(h: SymbolicHeap) -> tuple:
    return (h.is_false, len(h.spatial), len(h.pure), str(h))


# ---------------------------------------------------------------------------
# Stateful wrapper with query counting and memoisation
# ---------------------------------------------------------------------------

class Prover:
    """Caches query results and counts every query issued."""

    def __init__(self, config: Optional[ProverConfig] = None):
        self.config = config or ProverConfig()
        self.queries = 0
        self._memo: dict[tuple, object] = {}

    def _cached(self, op, lhs: SymbolicHeap, rhs: SymbolicHeap, **kw):
        """One query through the memo, keyed by the frozen heaps."""
        self.queries += 1
        key = (op, lhs, rhs, *kw.values())
        if key not in self._memo:
            self._memo[key] = op(lhs, rhs, config=self.config, **kw)
        return self._memo[key]

    def entails(self, lhs: SymbolicHeap, rhs: SymbolicHeap,
                modulo_true: bool = False) -> ProofOutcome:
        return self._cached(entails, lhs, rhs, modulo_true=modulo_true)

    def frame_infer(self, lhs: SymbolicHeap,
                    rhs: SymbolicHeap) -> list[ProofOutcome]:
        return self._cached(frame_infer, lhs, rhs)

    def abduce(self, lhs: SymbolicHeap, rhs: SymbolicHeap,
               modulo_true: bool = True) -> list[SymbolicHeap]:
        return self._cached(abduce, lhs, rhs, modulo_true=modulo_true)
