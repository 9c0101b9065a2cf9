"""Terms, pure atoms and multisets of the symbolic-heap assertion language.

Terms come in four base forms -- program variables, (primed) logical
variables, integer constants and nil -- plus an integer-offset form ``t+k``
used only for data-valued bounds of sorted segments.  Program and logical
variables live in disjoint namespaces: ``PVar("x")`` and ``LVar("x")`` are
unrelated, and logical variables render with a trailing prime (``x'``).

Terms, pure atoms and multisets are interned, and so are the spatial atoms
of :mod:`shaperef.heaps`: constructing one looks its field values up in a
per-class table, so there is one object per value, ``NIL`` is the one
``NilTerm()``, and equality and hashing are object identity.  Copies,
pickles and ``dataclasses.replace`` come back as the interned object.  An
atom or multiset computes what is derived from its fields once and keeps
it: a spatial atom's positions and mass and a multiset's keys and total
as it is interned; its rendering, its variables in field order, for a pure
atom its sort key, and for an atom its closure evidence, what
:class:`shaperef.heaps.Facts` reads of it, when first read (see
:class:`_Interned`).  Heaps are not interned (see
:class:`shaperef.heaps.SymbolicHeap` for what a heap keeps).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, total_ordering
from typing import Iterable, Optional, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class _cached(cached_property):
    """``cached_property`` without its lock: the first read computes the
    value and writes it to the instance dict, where later reads find it
    without calling the descriptor.  Up to Python 3.11 the lock is taken
    on every first read.  Every value kept this way is a function of its
    object's fields, so two threads that raced would only compute the same
    value twice."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Interned:
    """Base of the interned classes (terms, atoms, multisets): one object
    per value.

    Each subclass keeps a table from field values to its one object and
    builds new objects only through :meth:`_add`, from its ``__new__``;
    ``__eq__`` and ``__hash__`` stay ``object``'s.  The tables are never
    emptied, yet stay small: the analyses draw variables from a few
    program names and a fresh-name counter per query, so the same few
    values are built over and over.  After one pass of a benchmark
    workload at seed 1 they hold 22 (``oracle``) to 148 (``abstract``)
    terms; of the atoms and multisets, ``symexec`` builds about 56,000
    and the tables keep 802, ``abstract`` builds about 99,000 and they
    keep 6,590.  After three passes of ``abstract`` at seed 1 they hold
    3,787 spatial atoms besides ``true``, 186 multisets and 367 pure
    atoms, whether or not values are set at interning.

    What an object derives from its fields it computes once and keeps as
    an instance attribute.  The values the hot loops read on every call
    are set at interning, by :meth:`_derive`: a spatial atom's head, tail,
    data terms and mass (see :class:`shaperef.heaps._Positions`), and a
    multiset's keys and total.  They are few and cheap, and they are set
    one by one before any other value lands, so that an object no lazy
    value is read of keeps its attributes in the compact layout its class
    shares: a lazy value is written through the instance dict, which gives
    the object a dict of its own.  The rest is computed on first read,
    through :class:`_cached`, as many objects never need it: the rendering
    and variables of an atom or multiset, the sort key of a pure atom, and
    each atom's closure evidence.  A pure atom's evidence is its kind (a
    union, a disequality fact, false, or none of these), the bases of its
    operands, its order edges and the bases it gives the integer sort.  A
    spatial atom's is its head, the bases of its head and tail, the bases
    of its data terms, a sorted segment's order edges, and whether an
    offset sits in an address position.  After those three passes
    tracemalloc counts 6.74 MiB held (Python 3.11), 6.49 with nothing set
    at interning; with the mass and the keys computed on first read it
    counted 7.37 MiB, and with every value computed at interning 7.70 MiB
    and 2 MB more peak RSS, neither of them faster.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _add(cls, key, *values):
        t = object.__new__(cls)
        for f, v in zip(fields(cls), values):
            object.__setattr__(t, f.name, v)
        t._derive()
        cls._table[key] = t
        return t

    def _derive(self) -> None:
        """Set the values kept from interning on, once the fields are
        set; none by default."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __reduce__(self):
        return type(self), self._values()


@total_ordering
class _Term(_Interned):
    """Base of the term classes.  Terms order like ``order=True``
    dataclasses: by their field tuple, within one class only (equal
    values being one object, identity completes the order).  Atoms and
    multisets have no order."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented


@dataclass(frozen=True, eq=False, init=False)
class PVar(_Term):
    """A program variable."""

    name: str

    def __new__(cls, name: str) -> "PVar":
        return cls._table.get(name) or cls._add(name, name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False)
class LVar(_Term):
    """A logical (existential) variable; renders with a trailing prime."""

    name: str

    def __new__(cls, name: str) -> "LVar":
        return cls._table.get(name) or cls._add(name, name)

    def __str__(self) -> str:
        return self.name + "'"


@dataclass(frozen=True, eq=False, init=False)
class Const(_Term):
    """An integer constant."""

    value: int

    def __new__(cls, value: int) -> "Const":
        return cls._table.get(value) or cls._add(value, value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False, init=False)
class NilTerm(_Term):
    """The nil address constant (one object: the module-level NIL)."""

    def __new__(cls) -> "NilTerm":
        return cls._table.get(()) or cls._add(())

    def __str__(self) -> str:
        return "nil"


NIL = NilTerm()


@dataclass(frozen=True, eq=False, init=False)
class Offset(_Term):
    """A data term plus a positive integer offset, e.g. ``d+1``.

    Only needed for interval bounds of sorted segments.  ``Offset`` never
    nests and never wraps a constant: use :func:`shifted` to build offsets
    with those normalizations applied.
    """

    base: Union[PVar, LVar]
    delta: int

    def __new__(cls, base: Union[PVar, LVar], delta: int) -> "Offset":
        key = (base, delta)
        return cls._table.get(key) or cls._add(key, base, delta)

    def __str__(self) -> str:
        return f"{self.base}+{self.delta}"


Term = Union[PVar, LVar, Const, NilTerm, Offset]


def shifted(t: Term, delta: int) -> Term:
    """Return ``t + delta`` with constant folding and offset flattening."""
    if delta == 0:
        return t
    if isinstance(t, Const):
        return Const(t.value + delta)
    if isinstance(t, Offset):
        return shifted(t.base, t.delta + delta)
    if isinstance(t, NilTerm):
        raise ValueError("cannot offset nil")
    if delta < 0:
        raise ValueError("negative offsets are not representable")
    return Offset(t, delta)


def split_offset(t: Term) -> tuple[Term | None, int]:
    """Decompose a term into (base, delta).

    Constants decompose against a shared virtual zero node: ``Const(k)``
    becomes ``(None, k)``, so all constants relate through one node of the
    difference-bound graph.
    """
    if isinstance(t, Offset):
        return t.base, t.delta
    if isinstance(t, Const):
        return None, t.value
    return t, 0


def term_sort_key(t: Term) -> tuple:
    """Deterministic ordering key across all term kinds."""
    if isinstance(t, Const):
        return (0, t.value, "")
    if isinstance(t, NilTerm):
        return (1, 0, "")
    if isinstance(t, PVar):
        return (2, 0, t.name)
    if isinstance(t, LVar):
        return (3, 0, t.name)
    # Offset: order by base then delta
    k = term_sort_key(t.base)
    return (4, t.delta) + k


def subst_term(t: Term, mapping: dict[Term, Term]) -> Term:
    """Apply a substitution (total on the identity) to one term."""
    if isinstance(t, Offset):
        b = mapping.get(t.base, t.base)
        return shifted(b, t.delta)
    return mapping.get(t, t)


def base_of(t: Term) -> Term:
    """The term t offsets, or t itself."""
    return t.base if isinstance(t, Offset) else t


def var_of(t: Optional[Term]) -> Optional[Union[PVar, LVar]]:
    """The variable a term mentions: the term itself or an offset's base;
    None for a constant, nil or no term."""
    if isinstance(t, Offset):
        return t.base
    return t if isinstance(t, (PVar, LVar)) else None


# ---------------------------------------------------------------------------
# Pure atoms
# ---------------------------------------------------------------------------

# op values: "=" "!=" "<=" "<" and the nullary "true"/"false"
_PURE_OPS = ("=", "!=", "<=", "<")


@dataclass(frozen=True, eq=False, init=False)
class PureAtom(_Interned):
    """A pure constraint: t1 op t2, or the nullary true/false.

    Order atoms (``<=``, ``<``) only make sense between data-valued terms;
    the constructors do not enforce sorts (the consistency check does).
    An unknown op, or operands that do not fit the op, raise ValueError.
    """

    op: str
    lhs: Term | None = None
    rhs: Term | None = None

    def __new__(cls, op: str, lhs: Term | None = None,
                rhs: Term | None = None) -> "PureAtom":
        key = (op, lhs, rhs)
        a = cls._table.get(key)
        if a is None:
            if op in ("true", "false"):
                ok = lhs is None and rhs is None
            else:
                ok = op in _PURE_OPS and lhs is not None and rhs is not None
            if not ok:
                raise ValueError(f"not a pure atom: {key!r}")
            a = cls._add(key, *key)
        return a

    @_cached
    def _str(self) -> str:
        if self.op in ("true", "false"):
            return self.op
        return f"{self.lhs}{self.op}{self.rhs}"

    def __str__(self) -> str:
        return self._str

    def subst(self, mapping: dict[Term, Term]) -> "PureAtom":
        """Apply a substitution of variables; the atom itself when it
        mentions none of them."""
        if mapping.keys().isdisjoint(self._vars):
            return self
        return PureAtom(self.op, subst_term(self.lhs, mapping), subst_term(self.rhs, mapping))

    @_cached
    def _vars(self) -> tuple[Union[PVar, LVar], ...]:
        return tuple(v for v in map(var_of, (self.lhs, self.rhs))
                     if v is not None)

    def vars(self) -> tuple[Union[PVar, LVar], ...]:
        """The variables of the operands, in field order."""
        return self._vars

    @_cached
    def _sort_key(self) -> tuple:
        if self.op in ("true", "false"):
            return (self.op, (), ())
        return (self.op, term_sort_key(self.lhs), term_sort_key(self.rhs))

    def sort_key(self) -> tuple:
        return self._sort_key

    @_cached
    def _closure(self) -> tuple:
        """What :class:`shaperef.heaps.Facts` reads of the atom: its kind,
        the bases of its operands, its order edges ``(u, v, s)`` for
        ``u + s <= v``, and the bases its operands give the integer sort.
        The kind is "=" for an equality the closure unites, "!=" for a
        disequality fact, "false", and otherwise None."""
        op, a, b = self.op, self.lhs, self.rhs
        if a is None:
            return ("false" if op == "false" else None), (), (), ()
        bases = (base_of(a), base_of(b))
        if op == "!=":
            return "!=", bases, (), tuple(base_of(t) for t in (a, b)
                                          if isinstance(t, Offset))
        if op == "=":
            if not (isinstance(a, Offset) or isinstance(b, Offset)):
                return "=", bases, (), ()
            # a+i = b+j turns into order edges both ways
            return None, bases, ((a, b, 0), (b, a, 0)), bases
        return None, bases, ((a, b, int(op == "<")),), bases


def eq(a: Term, b: Term) -> PureAtom:
    return PureAtom("=", a, b)


def neq(a: Term, b: Term) -> PureAtom:
    return PureAtom("!=", a, b)


def leq(a: Term, b: Term) -> PureAtom:
    return PureAtom("<=", a, b)


def lt(a: Term, b: Term) -> PureAtom:
    return PureAtom("<", a, b)


TRUE_ATOM = PureAtom("true")
FALSE_ATOM = PureAtom("false")


# ---------------------------------------------------------------------------
# Multisets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class Multiset(_Interned):
    """A finite multiset of terms with positive multiplicities.

    Stored as a tuple of (term, multiplicity) pairs sorted by term key;
    zero-multiplicity entries are dropped on construction.
    """

    items: tuple[tuple[Term, int], ...] = ()

    def __new__(cls, items: tuple[tuple[Term, int], ...] = ()) -> "Multiset":
        return cls._table.get(items) or cls._add(items, items)

    def _derive(self) -> None:
        object.__setattr__(self, "_keys", tuple(t for t, _ in self.items))
        object.__setattr__(self, "_total", sum(n for _, n in self.items))

    @staticmethod
    def of(pairs: Iterable[tuple[Term, int]] = ()) -> "Multiset":
        acc: dict[Term, int] = {}
        for t, n in pairs:
            if n < 0:
                raise ValueError("negative multiplicity")
            acc[t] = acc.get(t, 0) + n
        items = tuple(sorted(((t, n) for t, n in acc.items() if n > 0),
                             key=lambda p: term_sort_key(p[0])))
        return Multiset(items)

    @staticmethod
    def singleton(t: Term, n: int = 1) -> "Multiset":
        return Multiset.of([(t, n)])

    def as_dict(self) -> dict[Term, int]:
        return dict(self.items)

    def mult(self, t: Term) -> int:
        for u, n in self.items:
            if u == t:
                return n
        return 0

    def is_empty(self) -> bool:
        return not self.items

    def total(self) -> int:
        return self._total

    def keys(self) -> tuple[Term, ...]:
        return self._keys

    def msum(self, other: "Multiset") -> "Multiset":
        """Additive union: multiplicities add (disjoint-contents merge)."""
        return Multiset.of(self.items + other.items)

    def union_max(self, other: "Multiset") -> "Multiset":
        """Pointwise-max union (the refinement update for T)."""
        acc = self.as_dict()
        for t, n in other.items:
            acc[t] = max(acc.get(t, 0), n)
        return Multiset.of(acc.items())

    def minus(self, other: "Multiset") -> "Multiset":
        """Pointwise difference, truncated at zero."""
        acc = self.as_dict()
        for t, n in other.items:
            acc[t] = acc.get(t, 0) - n
        return Multiset.of((t, n) for t, n in acc.items() if n > 0)

    def minus_one(self, t: Term) -> "Multiset":
        return self.minus(Multiset.singleton(t))

    def leq(self, other: "Multiset") -> bool:
        """Pointwise <= (syntactic keys)."""
        od = other.as_dict()
        return all(od.get(t, 0) >= n for t, n in self.items)

    def subst(self, mapping: dict[Term, Term]) -> "Multiset":
        """Substitute variables in the keys; multiplicities of colliding
        keys add up.  The multiset itself when it mentions none of them."""
        if mapping.keys().isdisjoint(self._vars):
            return self
        return Multiset.of((subst_term(t, mapping), n) for t, n in self.items)

    @_cached
    def _vars(self) -> tuple[Union[PVar, LVar], ...]:
        return tuple(v for v in map(var_of, self.keys()) if v is not None)

    @_cached
    def _str(self) -> str:
        return "{" + ",".join(f"{t}:{n}" for t, n in self.items) + "}"

    def __str__(self) -> str:
        return self._str


EMPTY_MS = Multiset()
