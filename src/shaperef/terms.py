"""Terms, pure atoms and multisets of the symbolic-heap assertion language.

Terms come in four base forms -- program variables, (primed) logical
variables, integer constants and nil -- plus an integer-offset form ``t+k``
used only for data-valued bounds of sorted segments.  Program and logical
variables live in disjoint namespaces: ``PVar("x")`` and ``LVar("x")`` are
unrelated, and logical variables render with a trailing prime (``x'``).

Terms are interned: constructing a term looks its field values up in a
per-class table, so there is one object per value, ``NIL`` is the one
``NilTerm()``, and equality and hashing are object identity.  Copies and
pickles come back as the interned object.  Only terms are interned, not
atoms or heaps; the tables hold every term ever built, about 170 after a
pass of each benchmark workload.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import total_ordering
from typing import Iterable, Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@total_ordering
class _Interned:
    """Base of the term classes: one object per value.

    Each subclass keeps a table from field values to its one object and
    builds new objects only through :meth:`_add`; ``__eq__`` and
    ``__hash__`` stay ``object``'s.  Terms order like ``order=True``
    dataclasses: by their field tuple, within one class only (equal
    values being one object, identity completes the order).
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _add(cls, key, *values):
        t = object.__new__(cls)
        for f, v in zip(fields(cls), values):
            object.__setattr__(t, f.name, v)
        cls._table[key] = t
        return t

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __reduce__(self):
        return type(self), self._values()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented


@dataclass(frozen=True, eq=False, init=False)
class PVar(_Interned):
    """A program variable."""

    name: str

    def __new__(cls, name: str) -> "PVar":
        return cls._table.get(name) or cls._add(name, name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False)
class LVar(_Interned):
    """A logical (existential) variable; renders with a trailing prime."""

    name: str

    def __new__(cls, name: str) -> "LVar":
        return cls._table.get(name) or cls._add(name, name)

    def __str__(self) -> str:
        return self.name + "'"


@dataclass(frozen=True, eq=False, init=False)
class Const(_Interned):
    """An integer constant."""

    value: int

    def __new__(cls, value: int) -> "Const":
        return cls._table.get(value) or cls._add(value, value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False, init=False)
class NilTerm(_Interned):
    """The nil address constant (one object: the module-level NIL)."""

    def __new__(cls) -> "NilTerm":
        return cls._table.get(()) or cls._add(())

    def __str__(self) -> str:
        return "nil"


NIL = NilTerm()


@dataclass(frozen=True, eq=False, init=False)
class Offset(_Interned):
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


def var_of(t: Optional[Term]) -> Optional[Union[PVar, LVar]]:
    """The variable a term mentions: the term itself or an offset's base;
    None for a constant, nil or no term."""
    if isinstance(t, Offset):
        return t.base
    return t if isinstance(t, (PVar, LVar)) else None


def term_vars(t: Term) -> Iterator[Union[PVar, LVar]]:
    v = var_of(t)
    if v is not None:
        yield v


# ---------------------------------------------------------------------------
# Pure atoms
# ---------------------------------------------------------------------------

# op values: "=" "!=" "<=" "<" and the nullary "true"/"false"
_PURE_OPS = ("=", "!=", "<=", "<")


@dataclass(frozen=True)
class PureAtom:
    """A pure constraint: t1 op t2, or the nullary true/false.

    Order atoms (``<=``, ``<``) only make sense between data-valued terms;
    the constructors do not enforce sorts (the consistency check does).
    """

    op: str
    lhs: Term | None = None
    rhs: Term | None = None

    def __post_init__(self) -> None:
        if self.op in ("true", "false"):
            assert self.lhs is None and self.rhs is None
        else:
            assert self.op in _PURE_OPS and self.lhs is not None and self.rhs is not None

    def __str__(self) -> str:
        if self.op in ("true", "false"):
            return self.op
        return f"{self.lhs}{self.op}{self.rhs}"

    def subst(self, mapping: dict[Term, Term]) -> "PureAtom":
        if self.op in ("true", "false"):
            return self
        return PureAtom(self.op, subst_term(self.lhs, mapping), subst_term(self.rhs, mapping))

    def vars(self) -> Iterator[Union[PVar, LVar]]:
        for t in (self.lhs, self.rhs):
            if t is not None:
                yield from term_vars(t)

    def sort_key(self) -> tuple:
        if self.op in ("true", "false"):
            return (self.op, (), ())
        return (self.op, term_sort_key(self.lhs), term_sort_key(self.rhs))


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

@dataclass(frozen=True)
class Multiset:
    """A finite multiset of terms with positive multiplicities.

    Stored as a tuple of (term, multiplicity) pairs sorted by term key;
    zero-multiplicity entries are dropped on construction.
    """

    items: tuple[tuple[Term, int], ...] = ()

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
        return sum(n for _, n in self.items)

    def keys(self) -> tuple[Term, ...]:
        return tuple(t for t, _ in self.items)

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
        """Substitute keys; multiplicities of colliding keys add up."""
        return Multiset.of((subst_term(t, mapping), n) for t, n in self.items)

    def __str__(self) -> str:
        return "{" + ",".join(f"{t}:{n}" for t, n in self.items) + "}"


EMPTY_MS = Multiset()
