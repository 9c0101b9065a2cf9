"""Symbolic heaps and their consistency closure.

A symbolic heap is a conjunction of pure atoms and a *-conjunction of
spatial atoms.  Logical variables occurring in a heap are implicitly
existentially quantified at the heap's front; each heap scopes its own
logical variables (two heaps sharing ``x'`` is coincidence, not binding).

Spatial atoms:
  * ``node(a, n, p)``   -- one cell at address a, next-field n, payload p
                           (payload either a data term or wild ``_``);
  * ``list(a, b, S)``   -- a *nonempty* acyclic segment of cells from a to b
                           whose data values cover the multiset S (for every
                           key d of S, at least S(d) cells hold a value equal
                           to d);
  * ``slseg(a, b, [lo,hi), S)`` -- a nonempty sorted segment: data values are
                           nondecreasing along the segment, all lie in
                           [lo, hi), and cover S as above;
  * ``true``            -- an arbitrary (possibly empty) subheap.

Segments are nonempty: their source address is allocated.  This is what
makes rearrangement work (a segment head can always be materialized).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

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
    FALSE_ATOM,
    shifted,
    split_offset,
    subst_term,
    term_sort_key,
    term_vars,
)


# ---------------------------------------------------------------------------
# Spatial atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeAtom:
    """A single cell: ``node(at, nxt, data)``; ``data is None`` means wild."""

    at: Term
    nxt: Term
    data: Optional[Term] = None

    def subst(self, m: dict[Term, Term]) -> "NodeAtom":
        d = None if self.data is None else subst_term(self.data, m)
        return NodeAtom(subst_term(self.at, m), subst_term(self.nxt, m), d)

    def vars(self) -> Iterator[Union[PVar, LVar]]:
        yield from term_vars(self.at)
        yield from term_vars(self.nxt)
        if self.data is not None:
            yield from term_vars(self.data)

    def __str__(self) -> str:
        p = "_" if self.data is None else "{%s}" % self.data
        return f"node({self.at},{self.nxt},{p})"


@dataclass(frozen=True)
class ListSegAtom:
    """A nonempty unsorted segment ``list(src, dst, contents)``."""

    src: Term
    dst: Term
    contents: Multiset = Multiset()

    def subst(self, m: dict[Term, Term]) -> "ListSegAtom":
        return ListSegAtom(subst_term(self.src, m), subst_term(self.dst, m),
                           self.contents.subst(m))

    def vars(self) -> Iterator[Union[PVar, LVar]]:
        yield from term_vars(self.src)
        yield from term_vars(self.dst)
        yield from self.contents.vars()

    def __str__(self) -> str:
        if self.contents.is_empty():
            return f"list({self.src},{self.dst})"
        return f"list({self.src},{self.dst},{self.contents})"


@dataclass(frozen=True)
class SortedSegAtom:
    """A nonempty sorted segment ``slseg(src, dst, [lo,hi), contents)``.

    Data values are nondecreasing from src to dst and lie in [lo, hi);
    contents gives per-value frequency lower bounds, so every key of
    contents also lies in [lo, hi).
    """

    src: Term
    dst: Term
    lo: Term
    hi: Term
    contents: Multiset = Multiset()

    def subst(self, m: dict[Term, Term]) -> "SortedSegAtom":
        return SortedSegAtom(subst_term(self.src, m), subst_term(self.dst, m),
                             subst_term(self.lo, m), subst_term(self.hi, m),
                             self.contents.subst(m))

    def vars(self) -> Iterator[Union[PVar, LVar]]:
        yield from term_vars(self.src)
        yield from term_vars(self.dst)
        yield from term_vars(self.lo)
        yield from term_vars(self.hi)
        yield from self.contents.vars()

    def __str__(self) -> str:
        core = f"slseg({self.src},{self.dst},[{self.lo},{self.hi})"
        if self.contents.is_empty():
            return core + ")"
        return core + f",{self.contents})"


@dataclass(frozen=True)
class TrueAtom:
    """Spatial true: an arbitrary, possibly empty subheap."""

    def subst(self, m: dict[Term, Term]) -> "TrueAtom":
        return self

    def vars(self) -> Iterator[Union[PVar, LVar]]:
        return iter(())

    def __str__(self) -> str:
        return "true"


Spatial = Union[NodeAtom, ListSegAtom, SortedSegAtom, TrueAtom]
TRUE_SPATIAL = TrueAtom()

_KIND_RANK = {NodeAtom: 0, ListSegAtom: 1, SortedSegAtom: 2, TrueAtom: 3}


def spatial_sort_key(a: Spatial) -> tuple:
    return (_KIND_RANK[type(a)], str(a))


def atom_head(a: Spatial) -> Optional[Term]:
    """The allocated source address of a spatial atom (None for true)."""
    if isinstance(a, NodeAtom):
        return a.at
    if isinstance(a, (ListSegAtom, SortedSegAtom)):
        return a.src
    return None


def atom_tail(a: Spatial) -> Optional[Term]:
    """The outgoing address (next / dst) of a spatial atom."""
    if isinstance(a, NodeAtom):
        return a.nxt
    if isinstance(a, (ListSegAtom, SortedSegAtom)):
        return a.dst
    return None


def atom_contents(a: Spatial) -> Multiset:
    """The value-frequency lower bounds an atom carries."""
    if isinstance(a, NodeAtom):
        if a.data is None:
            return Multiset()
        return Multiset.singleton(a.data)
    if isinstance(a, (ListSegAtom, SortedSegAtom)):
        return a.contents
    return Multiset()


# ---------------------------------------------------------------------------
# Consistency closure over pure + allocation facts
# ---------------------------------------------------------------------------

class _Zero:
    """Virtual difference-bound node shared by all integer constants."""

    def __repr__(self) -> str:
        return "<0>"


_ZERO = _Zero()


class Facts:
    """Derived equalities, disequalities and order facts of one heap.

    Combines congruence closure over atomic terms, an explicit disequality
    set, allocation-derived facts (spatial heads are pairwise distinct and
    non-nil), sort separation (nil / allocated addresses vs. integers) and a
    difference-bound order closure (``u + c <= v`` edges over congruence
    representatives, constants sharing one virtual node).  Sorted-segment
    invariants contribute derived order facts: lo < hi and lo <= k < hi for
    every content key k.
    """

    def __init__(self, pure: tuple[PureAtom, ...], spatial: tuple[Spatial, ...]):
        self.inconsistent = False
        self._order: Optional[dict] = {}
        self._parent: dict[Term, Term] = {}
        self._neq_pairs: list[tuple[Term, Term]] = []
        order_cons: list[tuple[Term, Term, int]] = []  # (u, v, s): u + s <= v
        self._addr_classes: set[Term] = set()
        self._data_classes: set[Term] = set()

        # -- gather terms with sort evidence ------------------------------
        addr_terms: list[Term] = []
        data_terms: list[Term] = []
        head_terms: list[Term] = []
        for a in spatial:
            h = atom_head(a)
            if h is not None:
                head_terms.append(h)
                addr_terms.append(h)
            t = atom_tail(a)
            if t is not None:
                addr_terms.append(t)
            if isinstance(a, NodeAtom) and a.data is not None:
                data_terms.append(a.data)
            if isinstance(a, (ListSegAtom, SortedSegAtom)):
                data_terms.extend(a.contents.keys())
            if isinstance(a, SortedSegAtom):
                data_terms.extend((a.lo, a.hi))

        for t in self._all_atomic(pure, spatial):
            self._parent.setdefault(t, t)
        for t in addr_terms:  # an offset address is its own class
            self._parent.setdefault(t, t)

        # -- equalities ----------------------------------------------------
        for p in pure:
            if p.op == "false":
                self.inconsistent = True
                return
            if p.op == "=":
                if isinstance(p.lhs, Offset) or isinstance(p.rhs, Offset):
                    # a+i = b+j turns into order edges both ways
                    order_cons.append((p.lhs, p.rhs, 0))
                    order_cons.append((p.rhs, p.lhs, 0))
                    data_terms.extend((p.lhs, p.rhs))
                else:
                    self._union(p.lhs, p.rhs)
            elif p.op == "!=":
                self._neq_pairs.append((p.lhs, p.rhs))
            elif p.op == "<=":
                order_cons.append((p.lhs, p.rhs, 0))
                data_terms.extend((p.lhs, p.rhs))
            elif p.op == "<":
                order_cons.append((p.lhs, p.rhs, 1))
                data_terms.extend((p.lhs, p.rhs))

        # -- derived order facts from sorted segments ----------------------
        for a in spatial:
            if isinstance(a, SortedSegAtom):
                order_cons.append((a.lo, a.hi, 1))
                for k in a.contents.keys():
                    order_cons.append((a.lo, k, 0))
                    order_cons.append((k, a.hi, 1))

        # -- allocation facts (checked after all unions, reps computed lazily)
        self._raw_heads = head_terms

        # -- sort evidence per class ---------------------------------------
        for t in addr_terms:
            self._addr_classes.add(self._find(t))
        for t in data_terms:
            b, _ = split_offset(t)
            if b is not None:
                self._data_classes.add(self._find(b))

        # constants / nil inside one class
        for t in self._parent:
            r = self._find(t)
            if isinstance(t, Const):
                self._data_classes.add(r)
            if isinstance(t, NilTerm):
                self._addr_classes.add(r)

        if self._check_class_clashes():
            self.inconsistent = True
            return

        # -- order closure ---------------------------------------------------
        self._order = self._close_order(order_cons)
        if self._order is None:
            self.inconsistent = True
            return

        # -- final disequality / allocation checks ---------------------------
        if self._check_neq_clashes():
            self.inconsistent = True
            return

    # -- union-find -------------------------------------------------------

    @staticmethod
    def _all_atomic(pure: tuple[PureAtom, ...], spatial: tuple[Spatial, ...]) -> Iterator[Term]:
        def atoms_of(t: Optional[Term]) -> Iterator[Term]:
            if t is None:
                return
            if isinstance(t, Offset):
                yield t.base
            else:
                yield t

        for p in pure:
            yield from atoms_of(p.lhs)
            yield from atoms_of(p.rhs)
        for a in spatial:
            yield from atoms_of(atom_head(a))
            yield from atoms_of(atom_tail(a))
            if isinstance(a, NodeAtom):
                yield from atoms_of(a.data)
            if isinstance(a, (ListSegAtom, SortedSegAtom)):
                for k in a.contents.keys():
                    yield from atoms_of(k)
            if isinstance(a, SortedSegAtom):
                yield from atoms_of(a.lo)
                yield from atoms_of(a.hi)

    def _find(self, t: Term) -> Term:
        """Representative of t; a term not in the union-find is its own,
        and is not inserted, so queries never change the classes."""
        if t not in self._parent:
            return t
        root = t
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[t] != root:
            self._parent[t], t = root, self._parent[t]
        return root

    def _union(self, a: Term, b: Term) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # the smaller sort key becomes the representative
        # (constants first, then nil, program vars, logical vars)
        if term_sort_key(ra) <= term_sort_key(rb):
            self._parent[rb] = ra
        else:
            self._parent[ra] = rb

    # -- clash detection ----------------------------------------------------

    def _check_class_clashes(self) -> bool:
        consts: dict[Term, int] = {}
        has_nil: set[Term] = set()
        for t in list(self._parent):
            r = self._find(t)
            if isinstance(t, Const):
                if r in consts and consts[r] != t.value:
                    return True
                consts[r] = t.value
            if isinstance(t, NilTerm):
                has_nil.add(r)
        # heads must not be nil and must be pairwise distinct
        seen: set[Term] = set()
        for h in self._raw_heads:
            r = self._find(h)
            if r in has_nil or r in seen:
                return True
            seen.add(r)
        # a class cannot be both an address and an integer
        addr = {self._find(t) for t in self._addr_classes}
        data = {self._find(t) for t in self._data_classes}
        self._addr_classes = addr
        self._data_classes = data
        return bool(addr & data)

    def _check_neq_clashes(self) -> bool:
        for u, v in self._neq_pairs:
            if self.equal(u, v):
                return True
        return False

    # -- order closure ------------------------------------------------------

    def _node(self, base: Optional[Term]) -> tuple[object, int]:
        """Graph node and numeric shift for one offset base.

        A class whose representative is a literal constant lives on the
        shared virtual zero node, shifted by that value, so constant
        bounds reached through equalities interact with symbolic ones.
        """
        if base is None:
            return _ZERO, 0
        r = self._find(base)
        if isinstance(r, Const):
            return _ZERO, r.value
        return r, 0

    def _close_order(self, cons: list[tuple[Term, Term, int]]):
        edges: dict[tuple[object, object], int] = {}
        nodes: set[object] = {_ZERO}
        for u, v, s in cons:
            bu, cu = split_offset(u)
            bv, cv = split_offset(v)
            nu, ku = self._node(bu)
            nv, kv = self._node(bv)
            w = (cu + ku) - (cv + kv) + s
            nodes.add(nu)
            nodes.add(nv)
            key = (nu, nv)
            if key not in edges or edges[key] < w:
                edges[key] = w
        node_list = list(nodes)
        dist = {(a, b): (0 if a is b else None) for a in node_list for b in node_list}
        for (a, b), w in edges.items():
            cur = dist[(a, b)]
            if cur is None or cur < w:
                dist[(a, b)] = w
        for m in node_list:
            for a in node_list:
                dam = dist[(a, m)]
                if dam is None:
                    continue
                for b in node_list:
                    dmb = dist[(m, b)]
                    if dmb is None:
                        continue
                    cur = dist[(a, b)]
                    if cur is None or cur < dam + dmb:
                        dist[(a, b)] = dam + dmb
        for a in node_list:
            if dist[(a, a)] > 0:
                return None
        return dist

    def _order_weight(self, u: Term, v: Term) -> Optional[int]:
        """Best provable w with u + w <= v, or None."""
        if self._order is None:
            return None
        bu, cu = split_offset(u)
        bv, cv = split_offset(v)
        nu, ku = self._node(bu)
        nv, kv = self._node(bv)
        cu, cv = cu + ku, cv + kv
        if nu == nv:
            return cv - cu  # u = base+cu, v = base+cv: u + (cv-cu) <= v
        w = self._order.get((nu, nv))
        if w is None:
            return None
        return w + (cv - cu)

    # -- public queries -------------------------------------------------------

    def rep(self, t: Term) -> Term:
        """The canonical representative of t's congruence class."""
        if isinstance(t, Offset):
            return shifted(self._find(t.base), t.delta)
        return self._find(t)

    def equal(self, u: Term, v: Term) -> bool:
        if u == v:
            return True
        bu, cu = split_offset(u)
        bv, cv = split_offset(v)
        nu, ku = self._node(bu)
        nv, kv = self._node(bv)
        if nu == nv:
            return cu + ku == cv + kv
        # antisymmetry at query time: u <= v and v <= u over the integers
        w1 = self._order_weight(u, v)
        w2 = self._order_weight(v, u)
        return w1 is not None and w2 is not None and w1 >= 0 and w2 >= 0

    def _int_evidence(self, t: Term) -> bool:
        """Is t provably integer-sorted from these facts alone?

        Order atoms denote integer comparisons, so order conclusions are
        only sound for terms these facts pin to the integer sort: ``t <=
        t`` is not valid for an address-valued t.  Evidence is an integer
        constant or a congruence class with a data-position occurrence
        (payload, content key, sorted bound, or an order-atom operand).
        """
        b, _ = split_offset(t)
        if b is None:
            return True
        r = self._find(b)
        return isinstance(r, Const) or r in self._data_classes

    def proves_leq(self, u: Term, v: Term) -> bool:
        if not (self._int_evidence(u) and self._int_evidence(v)):
            return False
        w = self._order_weight(u, v)
        return w is not None and w >= 0

    def proves_lt(self, u: Term, v: Term) -> bool:
        if not (self._int_evidence(u) and self._int_evidence(v)):
            return False
        w = self._order_weight(u, v)
        return w is not None and w >= 1

    def proves_neq(self, u: Term, v: Term) -> bool:
        if self.equal(u, v):
            return False
        ru, rv = self.rep(u), self.rep(v)
        if isinstance(ru, Const) and isinstance(rv, Const):
            return ru.value != rv.value
        pair = {self._strip(ru), self._strip(rv)}
        for a, b in self._neq_pairs:
            if {self._strip(self.rep(a)), self._strip(self.rep(b))} == pair:
                return True
        if self.proves_lt(u, v) or self.proves_lt(v, u):
            return True
        # allocation: distinct spatial heads, and heads are never nil
        heads = {self._find(h) for h in self._raw_heads}
        su, sv = self._strip(ru), self._strip(rv)
        if su in heads and sv in heads and su != sv:
            return True
        for a, b in ((su, sv), (sv, su)):
            if a in heads and (isinstance(b, NilTerm) or b in self._nil_class()):
                return True
        # sort separation: address vs integer
        au = self._class_is_addr(u)
        av = self._class_is_addr(v)
        du = self._class_is_data(u)
        dv = self._class_is_data(v)
        if (au and dv) or (av and du):
            return True
        return False

    def _strip(self, t: Term) -> Term:
        return t.base if isinstance(t, Offset) else t

    def _nil_class(self) -> set[Term]:
        return {self._find(t) for t in self._parent if isinstance(t, NilTerm)}

    def _class_is_addr(self, t: Term) -> bool:
        b, _ = split_offset(t)
        if b is None:
            return False
        r = self._find(b)
        return r in self._addr_classes or isinstance(r, NilTerm)

    def _class_is_data(self, t: Term) -> bool:
        b, c = split_offset(t)
        if b is None:
            return True  # integer constant
        r = self._find(b)
        return r in self._data_classes or isinstance(r, Const) or c != 0

    def classes(self) -> list[list[Term]]:
        """Partition of the occurring atomic terms, each class sorted."""
        groups: dict[Term, list[Term]] = {}
        for t in self._parent:
            groups.setdefault(self._find(t), []).append(t)
        out = [sorted(g, key=term_sort_key) for g in groups.values()]
        out.sort(key=lambda g: term_sort_key(g[0]))
        return out

    def value_class_sums(self, ms: Multiset) -> dict[Term, int]:
        """Sum multiplicities of congruent keys; keys become representatives."""
        acc: dict[Term, int] = {}
        for t, n in ms.items:
            r = self.rep(t)
            acc[r] = acc.get(r, 0) + n
        return acc


# ---------------------------------------------------------------------------
# Symbolic heaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicHeap:
    """Pure conjunction + spatial *-conjunction; logical vars existential."""

    pure: tuple[PureAtom, ...] = ()
    spatial: tuple[Spatial, ...] = ()

    @cached_property
    def facts(self) -> Facts:
        return Facts(self.pure, self.spatial)

    @property
    def is_false(self) -> bool:
        return any(p.op == "false" for p in self.pure)

    def subst(self, m: dict[Term, Term]) -> "SymbolicHeap":
        return SymbolicHeap(tuple(p.subst(m) for p in self.pure),
                            tuple(a.subst(m) for a in self.spatial))

    def vars(self) -> list[Union[PVar, LVar]]:
        seen: dict[Union[PVar, LVar], None] = {}
        for p in self.pure:
            for v in p.vars():
                seen.setdefault(v, None)
        for a in self.spatial:
            for v in a.vars():
                seen.setdefault(v, None)
        return list(seen)

    def evars(self) -> list[LVar]:
        return [v for v in self.vars() if isinstance(v, LVar)]

    def has_true(self) -> bool:
        return any(isinstance(a, TrueAtom) for a in self.spatial)

    def cells(self) -> tuple[Spatial, ...]:
        """Spatial atoms other than true."""
        return tuple(a for a in self.spatial if not isinstance(a, TrueAtom))

    def __str__(self) -> str:
        sp = "*".join(str(a) for a in self.spatial) if self.spatial else "emp"
        if not self.pure:
            return sp
        return " /\\ ".join(str(p) for p in self.pure) + " /\\ " + sp


FALSE_HEAP = SymbolicHeap(pure=(FALSE_ATOM,))
EMP_HEAP = SymbolicHeap()


class TopState:
    """The error element of the disjunctive lattice."""

    def __repr__(self) -> str:
        return "TOP"

    def __str__(self) -> str:
        return "TOP"


TOP = TopState()


@dataclass(frozen=True)
class Disj:
    """A finite disjunction of symbolic heaps (false when empty)."""

    heaps: tuple[SymbolicHeap, ...] = ()

    @staticmethod
    def of(heaps) -> "Disj":
        out: list[SymbolicHeap] = []
        for h in heaps:
            if not h.is_false and h not in out:
                out.append(h)
        return Disj(tuple(out))

    @property
    def is_false(self) -> bool:
        return not self.heaps

    def __iter__(self) -> Iterator[SymbolicHeap]:
        return iter(self.heaps)

    def __str__(self) -> str:
        if not self.heaps:
            return str(FALSE_HEAP)
        return " \\/ ".join(str(h) for h in self.heaps)


# ---------------------------------------------------------------------------
# Normalization and star
# ---------------------------------------------------------------------------

def normalize(h: SymbolicHeap) -> SymbolicHeap:
    """Canonical form: substitute away logical-variable equalities, drop
    trivial atoms, convert single-occurrence payload variables to wild,
    collapse duplicate spatial true, sort atoms; inconsistent heaps become
    the false heap.

    A heap already in canonical form comes back as the same object, so the
    ``facts`` closure it holds is built once however often it is
    normalized."""
    pure = [p for p in h.pure if p.op != "true"]
    spatial = list(h.spatial)
    if any(p.op == "false" for p in pure):
        return FALSE_HEAP

    # substitute logical-variable equalities to a fixpoint
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(pure):
            if p.op != "=" or p.lhs == p.rhs:
                continue
            a, b = p.lhs, p.rhs
            victim = repl = None
            if isinstance(a, LVar) and isinstance(b, LVar):
                victim, repl = (a, b) if term_sort_key(a) > term_sort_key(b) else (b, a)
            elif isinstance(a, LVar):
                victim, repl = a, b
            elif isinstance(b, LVar):
                victim, repl = b, a
            if victim is None or victim in set(term_vars(repl)):
                continue
            m = {victim: repl}
            pure = [q.subst(m) for j, q in enumerate(pure) if j != i]
            spatial = [s.subst(m) for s in spatial]
            changed = True
            break

    # trivial equalities and duplicates
    kept: list[PureAtom] = []
    seen: set[tuple] = set()
    for p in pure:
        if p.op == "=" and p.lhs == p.rhs:
            continue
        if p.op in ("=", "!="):
            key = (p.op, frozenset((p.lhs, p.rhs)))
        else:
            key = (p.op, p.lhs, p.rhs)
        if key in seen:
            continue
        seen.add(key)
        kept.append(p)
    pure = kept

    # single spatial true
    n_true = sum(isinstance(a, TrueAtom) for a in spatial)
    if n_true > 1:
        spatial = [a for a in spatial if not isinstance(a, TrueAtom)]
        spatial.append(TRUE_SPATIAL)

    # single-occurrence payload variables become wild
    counts = Counter(v for atom in pure + spatial for v in atom.vars())
    spatial = [
        NodeAtom(a.at, a.nxt, None)
        if isinstance(a, NodeAtom) and isinstance(a.data, LVar) and counts[a.data] == 1
        else a
        for a in spatial
    ]

    out = SymbolicHeap(tuple(sorted(pure, key=lambda p: p.sort_key())),
                       tuple(sorted(spatial, key=spatial_sort_key)))
    if out == h:
        out = h
    if out.facts.inconsistent:
        return FALSE_HEAP
    return out


def star(h1: SymbolicHeap, h2: SymbolicHeap) -> SymbolicHeap:
    """*-conjoin two heaps (caller manages logical-variable scoping)."""
    return normalize(SymbolicHeap(h1.pure + h2.pure, h1.spatial + h2.spatial))


def congruence_classes(h: SymbolicHeap) -> list[list[Term]]:
    return h.facts.classes()
