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

Each atom states once, as it is interned, which of its terms sit in which
position, and every walk over an atom's terms reads these positions rather
than its kind:

  * ``head``       -- the allocated address: a of node, list and slseg;
  * ``tail``       -- the outgoing address: n of node, b of list and slseg;
  * ``data_terms`` -- the integer-sorted terms: p of node (none when wild),
                      the keys of S of list, and lo, hi, then the keys of S
                      of slseg.

``true`` has no positions: its head and tail are None, its data terms none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .terms import (
    Const,
    EMPTY_MS,
    LVar,
    Multiset,
    NIL,
    Offset,
    PVar,
    PureAtom,
    Term,
    FALSE_ATOM,
    TRUE_ATOM,
    _Interned,
    _cached,
    base_of,
    shifted,
    subst_term,
    term_sort_key,
    var_of,
)


# ---------------------------------------------------------------------------
# Spatial atoms
# ---------------------------------------------------------------------------

class _Positions:
    """The term positions of a spatial atom (see the module docstring) and
    its mass: one per known node payload, and the total of a segment's
    contents, which :func:`shaperef.domains.measure` sums.  Atoms are
    interned (see :class:`shaperef.terms._Interned`): each atom but
    ``true`` sets its positions and mass as instance attributes once, as
    it is interned, and the class defaults are those of ``true``.  Its
    rendering, its variables and its closure evidence it computes when
    first read."""

    head: Optional[Term] = None
    tail: Optional[Term] = None
    data_terms: tuple[Term, ...] = ()
    mass: int = 0

    def _set_positions(self, head: Term, tail: Term,
                       data_terms: tuple[Term, ...], mass: int) -> None:
        # set one by one, not through __dict__, which would give each atom
        # a dict of its own where its class shares one layout
        put = object.__setattr__
        put(self, "head", head)
        put(self, "tail", tail)
        put(self, "data_terms", data_terms)
        put(self, "mass", mass)

    @_cached
    def _closure(self) -> tuple:
        """What :class:`Facts` reads of the atom: its head, the bases of
        its head and tail, the bases of its data terms, its order edges
        ``(u, v, s)`` for ``u + s <= v``, and whether an offset sits in an
        address position."""
        head, tail = self.head, self.tail
        ints = tuple(map(base_of, self.data_terms))
        if head is None:
            return None, (), ints, (), False
        return (head, (base_of(head), base_of(tail)), ints,
                self._order_edges(),
                isinstance(head, Offset) or isinstance(tail, Offset))

    def _order_edges(self) -> tuple[tuple[Term, Term, int], ...]:
        return ()

    @_cached
    def _vars(self) -> tuple[Union[PVar, LVar], ...]:
        return tuple(v for v in map(var_of, (self.head, self.tail,
                                             *self.data_terms))
                     if v is not None)

    def vars(self) -> tuple[Union[PVar, LVar], ...]:
        """The variables of the positions, in field order."""
        return self._vars

    def subst(self, m: dict[Term, Term]) -> "Spatial":
        """Apply a substitution of variables; the atom itself when it
        mentions none of them."""
        if m.keys().isdisjoint(self._vars):
            return self
        return self._subst(m)

    def __str__(self) -> str:
        return self._str


@dataclass(frozen=True, eq=False, init=False)
class NodeAtom(_Interned, _Positions):
    """A single cell: ``node(at, nxt, data)``; ``data is None`` means wild."""

    at: Term
    nxt: Term
    data: Optional[Term] = None

    def __new__(cls, at: Term, nxt: Term,
                data: Optional[Term] = None) -> "NodeAtom":
        key = (at, nxt, data)
        return cls._table.get(key) or cls._add(key, *key)

    def _derive(self) -> None:
        if self.data is None:
            self._set_positions(self.at, self.nxt, (), 0)
        else:
            self._set_positions(self.at, self.nxt, (self.data,), 1)

    def _subst(self, m: dict[Term, Term]) -> "NodeAtom":
        d = None if self.data is None else subst_term(self.data, m)
        return NodeAtom(subst_term(self.at, m), subst_term(self.nxt, m), d)

    @_cached
    def _str(self) -> str:
        p = "_" if self.data is None else "{%s}" % self.data
        return f"node({self.at},{self.nxt},{p})"


@dataclass(frozen=True, eq=False, init=False)
class ListSegAtom(_Interned, _Positions):
    """A nonempty unsorted segment ``list(src, dst, contents)``."""

    src: Term
    dst: Term
    contents: Multiset = EMPTY_MS

    def __new__(cls, src: Term, dst: Term,
                contents: Multiset = EMPTY_MS) -> "ListSegAtom":
        key = (src, dst, contents)
        return cls._table.get(key) or cls._add(key, *key)

    def _derive(self) -> None:
        ms = self.contents
        self._set_positions(self.src, self.dst, ms.keys(), ms.total())

    def _subst(self, m: dict[Term, Term]) -> "ListSegAtom":
        return ListSegAtom(subst_term(self.src, m), subst_term(self.dst, m),
                           self.contents.subst(m))

    @_cached
    def _str(self) -> str:
        if self.contents.is_empty():
            return f"list({self.src},{self.dst})"
        return f"list({self.src},{self.dst},{self.contents})"


@dataclass(frozen=True, eq=False, init=False)
class SortedSegAtom(_Interned, _Positions):
    """A nonempty sorted segment ``slseg(src, dst, [lo,hi), contents)``.

    Data values are nondecreasing from src to dst and lie in [lo, hi);
    contents gives per-value frequency lower bounds, so every key of
    contents also lies in [lo, hi).
    """

    src: Term
    dst: Term
    lo: Term
    hi: Term
    contents: Multiset = EMPTY_MS

    def __new__(cls, src: Term, dst: Term, lo: Term, hi: Term,
                contents: Multiset = EMPTY_MS) -> "SortedSegAtom":
        key = (src, dst, lo, hi, contents)
        return cls._table.get(key) or cls._add(key, *key)

    def _derive(self) -> None:
        ms = self.contents
        self._set_positions(self.src, self.dst, (self.lo, self.hi) + ms.keys(),
                            ms.total())

    def _order_edges(self) -> tuple[tuple[Term, Term, int], ...]:
        # lo < hi, and lo <= k < hi for every content key k
        lo, hi = self.lo, self.hi
        return ((lo, hi, 1),) + tuple(
            e for k in self.contents.keys() for e in ((lo, k, 0), (k, hi, 1)))

    def _subst(self, m: dict[Term, Term]) -> "SortedSegAtom":
        return SortedSegAtom(subst_term(self.src, m), subst_term(self.dst, m),
                             subst_term(self.lo, m), subst_term(self.hi, m),
                             self.contents.subst(m))

    @_cached
    def _str(self) -> str:
        core = f"slseg({self.src},{self.dst},[{self.lo},{self.hi})"
        if self.contents.is_empty():
            return core + ")"
        return core + f",{self.contents})"


@dataclass(frozen=True, eq=False, init=False)
class TrueAtom(_Interned, _Positions):
    """Spatial true: an arbitrary, possibly empty subheap."""

    def __new__(cls) -> "TrueAtom":
        return cls._table.get(()) or cls._add(())

    _str = "true"


Spatial = Union[NodeAtom, ListSegAtom, SortedSegAtom, TrueAtom]
TRUE_SPATIAL = TrueAtom()

_KIND_RANK = {NodeAtom: 0, ListSegAtom: 1, SortedSegAtom: 2, TrueAtom: 3}


def spatial_sort_key(a: Spatial) -> tuple:
    return (_KIND_RANK[type(a)], a._str)


def var_counts(pure: Sequence[PureAtom],
               spatial: Sequence[Spatial]) -> Counter:
    """How often each variable occurs in the atoms."""
    return Counter(chain.from_iterable(a.vars() for a in chain(pure, spatial)))


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

# the sorts of Facts.sort
ADDR, INT = "addr", "int"


class Facts:
    """Derived equalities, disequalities and order facts of one heap.

    Combines congruence closure over atomic terms, an explicit disequality
    set, allocation-derived facts (spatial heads are pairwise distinct and
    non-nil), sort separation (nil / allocated addresses vs. integers) and a
    difference-bound order closure (``u + c <= v`` edges over congruence
    representatives, constants sharing one virtual node).  Sorted-segment
    invariants contribute derived order facts: lo < hi and lo <= k < hi for
    every content key k.

    Sorts: each class gets one sort, ``ADDR`` or ``INT``, from its
    evidence.  An atom's head and tail, and nil, are addresses, so an
    offset there (an integer, or no value) makes the heap inconsistent; an
    atom's data terms, the operands of an order atom or of an equality with
    an offset side, the base of an offset operand of a disequality, and
    every constant are integers.  A class that gets both sorts makes the heap
    inconsistent.  Every query reads sorts through :meth:`sort`: a constant
    is ``INT`` and nil ``ADDR``; an offset is ``INT`` where its base is,
    and otherwise None, as it has no value; any other term has its class's
    sort, or None.  No atom over a term without a value is proved,
    ``t = t`` included.  A disequality fact ``a != b`` proves ``u != v``
    only where ``a`` equals ``u`` and ``b`` equals ``v``, or the other way
    round.

    The closure reads each atom through the evidence the atom keeps (see
    :class:`shaperef.terms._Interned`): a spatial atom's head, the bases of
    its head and tail, the bases of its data terms, a sorted segment's
    order edges and whether an offset sits in an address position; a pure
    atom's kind, the bases of its operands, its order edges and the bases
    it gives the integer sort.

    The closure is frozen once built: no union happens after the equality
    atoms, so every term then points straight at its root (there is
    nothing to freeze where no equality united two classes), and the head
    roots and nil's root that ``proves_neq`` reads are computed once.
    Where no atom gives an order edge, no order closure is built, and
    every order query finds no edge.  Queries never change it.
    """

    def __init__(self, pure: tuple[PureAtom, ...], spatial: tuple[Spatial, ...]):
        self.inconsistent = False
        self._order: Optional[dict] = {}
        self._neq_pairs: list[tuple[Term, Term]] = []
        order_cons: list[tuple[Term, Term, int]] = []  # (u, v, s): u + s <= v
        self._sorts: dict[Term, str] = {}  # class root -> ADDR or INT

        # -- gather terms with sort evidence ------------------------------
        addr_terms: list[Term] = []
        int_terms: list[Term] = []
        head_terms: list[Term] = []
        for a in spatial:
            head, addrs, ints, edges, offset_addr = a._closure
            if head is not None:
                head_terms.append(head)
                addr_terms += addrs
                order_cons += edges
                if offset_addr:
                    self.inconsistent = True
            int_terms += ints
        parent = self._parent = {t: t for t in chain(
            addr_terms, int_terms,
            chain.from_iterable(p._closure[1] for p in pure))}

        # -- equalities ----------------------------------------------------
        merged = False
        for p in pure:
            kind, _, edges, ints = p._closure
            if kind == "=":
                merged = self._union(p.lhs, p.rhs) or merged
            elif kind == "!=":
                self._neq_pairs.append((p.lhs, p.rhs))
            elif kind == "false":
                self.inconsistent = True
                break
            order_cons += edges
            int_terms += ints

        # -- no union past this point: freeze the classes ------------------
        if merged:
            for t in parent:  # values change in place, keys do not
                parent[t] = self._root(t)
        # a handful of heads: a tuple is smaller than a set
        self._heads = tuple(parent.get(h, h) for h in head_terms)
        self._nil = parent.get(NIL)  # nil's root, None without nil
        if self.inconsistent:
            return

        # -- one sort per class --------------------------------------------
        if self._nil is not None:
            addr_terms.append(NIL)
        consts = [t for t in parent if isinstance(t, Const)]
        sorts = self._sorts
        for terms, s in ((addr_terms, ADDR), (int_terms, INT), (consts, INT)):
            for t in terms:
                if sorts.setdefault(parent[t], s) is not s:
                    self.inconsistent = True
                    return

        # -- one constant per class (constants are interned: one per value;
        # without a union every class is one term); heads must not be nil
        # and must be pairwise distinct
        heads = self._heads
        if (merged and len({parent[c] for c in consts}) < len(consts)
                or len(set(heads)) < len(heads) or self._nil in heads):
            self.inconsistent = True
            return

        # -- order closure ---------------------------------------------------
        if order_cons:
            self._order = self._close_order(order_cons)
            if self._order is None:
                self.inconsistent = True
                return

        # -- final disequality / allocation checks ---------------------------
        if self._check_neq_clashes():
            self.inconsistent = True
            return

    # -- union-find -------------------------------------------------------

    def _find(self, t: Term) -> Term:
        """Representative of t, once the classes are frozen; a term not in
        the closure is its own, and is not inserted."""
        return self._parent.get(t, t)

    def _root(self, t: Term) -> Term:
        """Root of t while unions still happen (path halving)."""
        parent = self._parent
        while parent[t] is not t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def _union(self, a: Term, b: Term) -> bool:
        """Unite the classes of a and b; whether they were two."""
        ra, rb = self._root(a), self._root(b)
        if ra is rb:
            return False
        # the smaller sort key becomes the representative
        # (constants first, then nil, program vars, logical vars)
        if term_sort_key(ra) <= term_sort_key(rb):
            self._parent[rb] = ra
        else:
            self._parent[ra] = rb
        return True

    # -- clash detection ----------------------------------------------------

    def _check_neq_clashes(self) -> bool:
        for u, v in self._neq_pairs:
            if self.equal(u, v):
                return True
        return False

    # -- order closure ------------------------------------------------------

    def _at(self, t: Term) -> tuple[object, int]:
        """Graph node of t and t's numeric shift from it.

        A class whose representative is a literal constant lives on the
        shared virtual zero node, shifted by that value, so constant
        bounds reached through equalities interact with symbolic ones.
        """
        if isinstance(t, Offset):
            r, c = self._parent.get(t.base, t.base), t.delta
        elif isinstance(t, Const):
            return _ZERO, t.value
        else:
            r, c = self._parent.get(t, t), 0
        if isinstance(r, Const):
            return _ZERO, r.value + c
        return r, c

    def _close_order(self, cons: list[tuple[Term, Term, int]]):
        edges: dict[tuple[object, object], int] = {}
        nodes: set[object] = {_ZERO}
        for u, v, s in cons:
            nu, cu = self._at(u)
            nv, cv = self._at(v)
            w = cu - cv + s
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
        nu, cu = self._at(u)
        nv, cv = self._at(v)
        if nu is nv:
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

    def sort(self, t: Term) -> Optional[str]:
        """``INT``, ``ADDR`` or None (see the class docstring)."""
        if isinstance(t, Offset):
            return INT if self._sorts.get(self._find(t.base)) is INT else None
        if isinstance(t, Const):
            return INT
        if t is NIL:
            return ADDR
        return self._sorts.get(self._find(t))

    def _has_value(self, t: Term) -> bool:
        """Does t have a value wherever these facts hold?"""
        return not isinstance(t, Offset) or self.sort(t) is INT

    def equal(self, u: Term, v: Term) -> bool:
        # _has_value, inlined: equal is the hottest query
        if (isinstance(u, Offset) and self.sort(u) is not INT
                or isinstance(v, Offset) and self.sort(v) is not INT):
            return False
        if u is v:
            return True
        nu, cu = self._at(u)
        nv, cv = self._at(v)
        if nu is nv:
            return cu == cv
        # antisymmetry at query time: u <= v and v <= u over the integers
        if self._order is None:
            return False
        w1 = self._order.get((nu, nv))
        w2 = self._order.get((nv, nu))
        return (w1 is not None and w2 is not None
                and w1 + cv - cu >= 0 and w2 + cu - cv >= 0)

    def proves_leq(self, u: Term, v: Term) -> bool:
        if not (self.sort(u) is INT and self.sort(v) is INT):
            return False
        w = self._order_weight(u, v)
        return w is not None and w >= 0

    def proves_lt(self, u: Term, v: Term) -> bool:
        if not (self.sort(u) is INT and self.sort(v) is INT):
            return False
        w = self._order_weight(u, v)
        return w is not None and w >= 1

    def proves_neq(self, u: Term, v: Term) -> bool:
        if not (self._has_value(u) and self._has_value(v)) or self.equal(u, v):
            return False
        equal = self.equal
        for a, b in self._neq_pairs:
            if equal(a, u) and equal(b, v) or equal(a, v) and equal(b, u):
                return True
        if self.proves_lt(u, v) or self.proves_lt(v, u):
            return True
        # allocation: distinct spatial heads, and heads are never nil
        heads = self._heads
        su, sv = base_of(self.rep(u)), base_of(self.rep(v))
        if su in heads and sv in heads and su is not sv:
            return True
        for a, b in ((su, sv), (sv, su)):
            if a in heads and (b is NIL or b is self._nil):
                return True
        # sort separation: address vs integer
        return {self.sort(u), self.sort(v)} == {ADDR, INT}

    def classes(self) -> list[list[Term]]:
        """Partition of the occurring atomic terms, each class sorted."""
        groups: dict[Term, list[Term]] = {}
        for t in self._parent:
            groups.setdefault(self._find(t), []).append(t)
        out = [sorted(g, key=term_sort_key) for g in groups.values()]
        out.sort(key=lambda g: term_sort_key(g[0]))
        return out

    def value_classes(self, ms: Multiset) -> dict[Term, list]:
        """The congruence classes of ms's keys, by representative and in
        key order: [the class's least key, its sum of multiplicities]."""
        acc: dict[Term, list] = {}
        for t, n in ms.items:  # in key order: the first key is the least
            acc.setdefault(self.rep(t), [t, 0])[1] += n
        return acc

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
    """Pure conjunction + spatial *-conjunction; logical vars existential.

    A heap never changes, so it keeps what is derived from it in its own
    instance dict, computed at most once:

      * ``facts``      -- the consistency closure;
      * ``_hash``      -- the hash of the fields;
      * ``_canonical`` -- set by :func:`normalize` on a heap it returns,
                          so normalizing it again returns it at once;
      * ``_vars``      -- the variables, in order of first occurrence,
                          joined from the atoms' own variable tuples;
      * ``_str``       -- the rendering;
      * ``_cells``     -- the spatial atoms other than true;
      * ``_has_true``  -- whether a spatial atom is true.

    Each is computed from ``pure`` and ``spatial`` alone and refers to no
    other heap.  None is pickled or copied: terms and atoms hash by
    identity, so a hash or closure from another process would be stale,
    and a copy is rebuilt from the two fields.
    """

    pure: tuple[PureAtom, ...] = ()
    spatial: tuple[Spatial, ...] = ()

    _canonical = False  # not a field: normalize sets it per instance

    @_cached
    def facts(self) -> Facts:
        return Facts(self.pure, self.spatial)

    @_cached
    def _hash(self) -> int:
        return hash((self.pure, self.spatial))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return SymbolicHeap, (self.pure, self.spatial)

    @property
    def is_false(self) -> bool:
        # false is one interned atom with no operands
        return FALSE_ATOM in self.pure

    def subst(self, m: dict[Term, Term]) -> "SymbolicHeap":
        return SymbolicHeap(tuple(p.subst(m) for p in self.pure),
                            tuple(a.subst(m) for a in self.spatial))

    @_cached
    def _vars(self) -> tuple[Union[PVar, LVar], ...]:
        return tuple(dict.fromkeys(chain.from_iterable(
            a.vars() for a in chain(self.pure, self.spatial))))

    def vars(self) -> tuple[Union[PVar, LVar], ...]:
        """The variables, in order of first occurrence (pure part first)."""
        return self._vars

    def evars(self) -> list[LVar]:
        return [v for v in self.vars() if isinstance(v, LVar)]

    @_cached
    def _has_true(self) -> bool:
        return any(isinstance(a, TrueAtom) for a in self.spatial)

    def has_true(self) -> bool:
        return self._has_true

    @_cached
    def _cells(self) -> tuple[Spatial, ...]:
        return tuple(a for a in self.spatial if not isinstance(a, TrueAtom))

    def cells(self) -> tuple[Spatial, ...]:
        """Spatial atoms other than true."""
        return self._cells

    @_cached
    def _str(self) -> str:
        sp = "*".join(str(a) for a in self.spatial) if self.spatial else "emp"
        if not self.pure:
            return sp
        return " /\\ ".join(str(p) for p in self.pure) + " /\\ " + sp

    def __str__(self) -> str:
        return self._str


FALSE_HEAP = SymbolicHeap(pure=(FALSE_ATOM,))
EMP_HEAP = SymbolicHeap()


@dataclass(frozen=True)
class Disj:
    """A finite disjunction of symbolic heaps (false when empty)."""

    heaps: tuple[SymbolicHeap, ...] = ()

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
    caches it holds (see :class:`SymbolicHeap`) are built once however
    often it is normalized.  The heap returned is marked canonical, and a
    marked heap returns at once.  Nothing is stored on an input that does
    not come back, so no heap links to its normal form."""
    if h._canonical:
        return h
    if FALSE_ATOM in h.pure:
        return FALSE_HEAP
    pure = [p for p in h.pure if p is not TRUE_ATOM]
    spatial = list(h.spatial)

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
            if victim is None or victim is var_of(repl):
                continue
            m = {victim: repl}
            try:
                pure = [q.subst(m) for j, q in enumerate(pure) if j != i]
                spatial = [s.subst(m) for s in spatial]
            except ValueError:  # victim+k with victim = nil has no value
                return FALSE_HEAP
            if isinstance(repl, Offset):
                # the equality held only where repl has a value, and
                # repl = repl keeps that condition
                pure.insert(i, PureAtom("=", repl, repl))
            changed = True
            break

    # trivial equalities and duplicates; t=t over an offset t waits for the
    # closure, as it holds only where t's base is an integer
    kept: list[PureAtom] = []
    offset_self_eqs: list[PureAtom] = []
    seen: set[tuple] = set()
    for p in pure:
        if p.op in ("=", "!="):
            key = (p.op, frozenset((p.lhs, p.rhs)))
        else:
            key = (p.op, p.lhs, p.rhs)
        if key in seen:
            continue
        seen.add(key)
        if p.op == "=" and p.lhs == p.rhs:
            if isinstance(p.lhs, Offset):
                offset_self_eqs.append(p)
            continue
        kept.append(p)
    pure = kept

    # single spatial true
    n_true = sum(isinstance(a, TrueAtom) for a in spatial)
    if n_true > 1:
        spatial = [a for a in spatial if not isinstance(a, TrueAtom)]
        spatial.append(TRUE_SPATIAL)

    # single-occurrence payload variables become wild; only a logical
    # payload is counted for
    if any(isinstance(a, NodeAtom) and isinstance(a.data, LVar)
           for a in spatial):
        counts = var_counts(pure, spatial)
        spatial = [
            NodeAtom(a.at, a.nxt, None)
            if isinstance(a, NodeAtom) and isinstance(a.data, LVar)
            and counts[a.data] == 1
            else a
            for a in spatial
        ]

    spatial.sort(key=spatial_sort_key)
    out, facts = _canonical_form(h, pure, spatial)
    if facts.inconsistent:
        return FALSE_HEAP
    # where the rest gives t a value, t=t is redundant; otherwise it stays,
    # and the closure finds it false where t's base is an address
    offset_self_eqs = [p for p in offset_self_eqs
                       if not facts._has_value(p.lhs)]
    if offset_self_eqs:
        out, facts = _canonical_form(h, pure + offset_self_eqs, spatial)
        if facts.inconsistent:
            return FALSE_HEAP
    out.__dict__.update(facts=facts, _canonical=True)
    return out


def _canonical_form(h: SymbolicHeap, pure: list[PureAtom],
                    spatial: list[Spatial]) -> tuple[SymbolicHeap, Facts]:
    """The heap of the given atoms, pure ones sorted, and its closure: h
    itself when the atoms are h's, so a heap already canonical keeps its
    caches.  An inconsistent input does not come back, so its closure is
    built uncached."""
    out = SymbolicHeap(tuple(sorted(pure, key=lambda p: p.sort_key())),
                       tuple(spatial))
    if out == h:
        out = h
    return out, out.__dict__.get("facts") or Facts(out.pure, out.spatial)


def star(h1: SymbolicHeap, h2: SymbolicHeap) -> SymbolicHeap:
    """*-conjoin two heaps (caller manages logical-variable scoping)."""
    return normalize(SymbolicHeap(h1.pure + h2.pure, h1.spatial + h2.spatial))
