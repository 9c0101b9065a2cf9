"""Bounded-model differential oracle for entailment.

Decides ``lhs |- rhs`` over *bounded* models by brute force: enumerate every
model of the left heap up to a size bound, and check that each satisfies the
right heap.  The satisfaction checker implements the denotational semantics
of the assertion language directly (footprint partition, segment walks,
sortedness, value-frequency lower bounds) and shares nothing with the
symbolic prover.

The enumerator of left models builds each candidate on canonical cells and
prunes, while it enumerates, the candidates the checker is bound to reject:
a store that falsifies a pure atom gets no heaps, and a segment whose
footprint is forced gets only the payloads its own constraints admit.  A
segment's footprint is forced when its end value is unallocated or the head
cell of an atom: a walk from its head can then stop only at its own cells.
The pruning reads nothing but the store and the atoms, and every candidate
left still goes through the checker, so a model is what the checker accepts.

What the checker reads of a model is its store, its cells in order, their
next values and the payloads of the cells it records (``_SatSearch.read``).
Head candidates range over the cells in order; node placement, segment
walks and the pure part's address universe read the next values; the data
universe is fixed per query.  A payload is consumed at three points only:
by a node atom with a payload term, at its cell once its next value bound;
and by the payload check of a segment with contents or of a sorted
segment, at every cell its walk hands over.  A walk collects cells only;
those checks look up the payloads of the cells they are handed, and with
no contents a segment's payload check succeeds once, with one tick,
whatever the payloads are.

So take two models of one shape (the store the check is handed, which is
the left model's program variables, the cells in order and their next
values) that have the same payloads at the cells a check of the first
read.  By induction over the search, the check of the second makes the
same choices in the same order: it reaches the same verdict, spends the
same steps and reads the same cells.  ``oracle_entails`` keeps, per left
shape, the payloads at the cells read (the union over the valuations of
the right side's universal variables) of every model whose right-side
checks all held, and never builds a left candidate that matches one: each
of its right-side checks would hold too and spend the same steps, so
whether the candidate is a model at all cannot change the verdict or the
countermodel.  Where the checks read no payload, a shape is checked once
whatever its payloads.

The right side's universal variables (its program variables that the left
side lacks) range over the addresses of the left model (its cells, nil,
and each address in its store or in a next field), one fresh address,
which stands for every address the model does not mention, and the data
universe.  That range is read off the shape, so the skip above stays
exact.

The enumerator does each piece of work at the coarsest level it can.  Per
query (``_models``): whether the left heap has a model at all, what each
variable other than a head ranges over, and the left checker.  Per pair
of segment lengths and extension size (``_models_skeleton``): the
canonical cells and the value lists of the variables.  Per store, one
value for each variable: its filters, its program-variable store, which is
both the key of its shapes and the store of its right-side checks, and the
payload lists of its atoms; those lists are kept for the query, the
products of the data by length and each forced segment's list for the
last values of its data terms.  Per candidate: its payloads, the match
against the held entries, its heap (copied for extension cells only) and
the left check.  Per model: the right-side checks.

Values are sorted: addresses are tagged tuples ``('a', k)`` with nil =
``('a', 0)``; data values are plain ints.  Sharing an int between the two
sorts is therefore impossible by construction.

The checker gives a term a value by one rule (``_bind``): a term the store
evaluates must equal the value; otherwise the store is extended by one
variable it leaves unbound, a variable x to the value itself, or the base
x of an offset x+k to the integer value-k.  An offset whose base holds an
address has no value, so it equals nothing.  The rule binds a node's next
value and payload, a segment's end, an interval bound and a contents key;
a head ranges over the allocated cells instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .terms import (Const, LVar, NilTerm, Offset, PVar, PureAtom,
                    Term, var_of)
from .heaps import NodeAtom, SortedSegAtom, SymbolicHeap

NIL_V = ("a", 0)
# the one address that a model universe holds beyond its cells and nil
DANGLING = ("a", 990)


def _addr(k: int) -> tuple:
    return ("a", k)


class BoundsTooLarge(Exception):
    """The query is outside the oracle's enumeration budget."""


_EXHAUSTED = "satisfaction search budget exhausted"


@dataclass
class OracleBounds:
    max_cells: int = 4          # total allocated cells in generated models
    max_extension: int = 1      # extra cells for a spatial-true conjunct
    n_spare_data: int = 2       # fresh data values beyond the mentioned ones
    # cap on the models yielded per query; a candidate that oracle_entails
    # skips, since a held model fixed its payloads at the cells the
    # right-side checks read, is never built, so it is not counted
    max_models: int = 60000
    # step cap per checker run: each run starts afresh, so a query of N
    # right-side checks may spend up to N times the cap
    max_steps: int = 400000


@dataclass
class Model:
    env: dict[Term, object]
    heap: dict[tuple, tuple]  # addr -> (next value, data value)

    def render(self) -> str:
        def shv(v: object) -> str:
            if isinstance(v, tuple):
                return "nil" if v == NIL_V else f"a{v[1]}"
            return str(v)

        stack = ", ".join(f"{k}={shv(v)}" for k, v in
                          sorted(self.env.items(), key=lambda kv: str(kv[0])))
        cells = "; ".join(f"a{a[1]}:(next={shv(nx)},data={shv(d)})"
                          for a, (nx, d) in sorted(self.heap.items()))
        return f"[{stack}] heap=[{cells}]"


@dataclass
class OracleVerdict:
    holds: bool
    countermodel: Optional[Model] = None
    # right-side checks made: none for a left candidate that a held model
    # of its shape matches at the cells read (see the module docstring)
    models_checked: int = 0


def _eval(t: Term, env: dict) -> object:
    # type(t) is, not isinstance: a failed isinstance walks the class's
    # bases, and variables, the commonest terms, would fail three
    kind = type(t)
    if kind is Const:
        return t.value
    if kind is NilTerm:
        return NIL_V
    if kind is Offset:
        b = env.get(t.base)
        if not isinstance(b, int):
            return None
        return b + t.delta
    return env.get(t)


def _eval_pure(p: PureAtom, env: dict) -> Optional[bool]:
    """Truth of a pure atom; None if some variable is unassigned."""
    if p.op == "true":
        return True
    if p.op == "false":
        return False
    a, b = _eval(p.lhs, env), _eval(p.rhs, env)
    if a is None or b is None:
        return None
    if p.op == "=":
        return a == b
    if p.op == "!=":
        return a != b
    # order atoms only hold between integers
    if not isinstance(a, int) or not isinstance(b, int):
        return False
    return a <= b if p.op == "<=" else a < b


def _bind(t: Term, value: object, env: dict) -> Optional[dict]:
    """A store under which t evaluates to value, or None: env itself when
    t already does, else env with the one variable of t it leaves unbound
    bound (the valuation rule of the module docstring)."""
    kind = type(t)  # as in _eval
    if kind is PVar or kind is LVar:
        v = env.get(t)
        if v is None:
            return {**env, t: value}
    elif kind is Offset and t.base not in env:
        return {**env, t.base: value - t.delta} if isinstance(value, int) else None
    else:  # nil, a constant or an offset whose base the store binds
        v = _eval(t, env)
    return env if v == value else None


def _data_universe(*heaps: SymbolicHeap, n_spare: int = 2) -> list[int]:
    """The data values the heaps' variables range over.

    Every pure operand and data position (a payload, a contents key or an
    interval bound) that is a constant c gives c.  An offset x+k gives k
    only as a pure operand or an interval bound, not as a payload or a
    contents key.  Then n_spare values above the greatest and one below the
    least."""
    consts: set[int] = set()
    for h in heaps:
        operands = [t for p in h.pure for t in (p.lhs, p.rhs)]
        bounds = [t for a in h.spatial if isinstance(a, SortedSegAtom)
                  for t in (a.lo, a.hi)]
        consts.update(t.delta for t in operands + bounds
                      if isinstance(t, Offset))
        consts.update(t.value for t in itertools.chain(
            operands, *(a.data_terms for a in h.spatial))
            if isinstance(t, Const))
    base = sorted(consts) if consts else [1]
    hi = max(base)
    spares = [hi + i + 1 for i in range(n_spare)]
    # a value just below the minimum exercises strict lower bounds
    return sorted(set(base + spares + [min(base) - 1]))


# ---------------------------------------------------------------------------
# Satisfaction: (env, heap) |= exists(unassigned vars). h
# ---------------------------------------------------------------------------

class _SatSearch:
    """Satisfaction of one formula, checked against one model at a time.

    What depends on the formula alone (its cells, spatial true, variables
    and data universe) is computed once; ``run`` does the per-model search.

    Stores are shared, never written: a routine copies a store before it
    binds a variable into it, and never writes to a store it received.  So
    the store of the model ``run`` is handed stays as it was, and a
    placement that binds nothing passes its store on as it is.

    The search ticks the step budget at fixed points: each atom placed (and
    the pure part reached), each head candidate, each cell a segment walks
    over, each assignment of contents keys and each assignment of the
    variables left free.  Those points are part of what ``max_steps``
    means: moving one changes which queries raise ``BoundsTooLarge``.

    ``run`` leaves in ``read`` the cells whose payload the search consumed
    (see the module docstring): the cell of a node atom with a payload term
    once its next value bound, and the cells handed to the payload check of
    a sorted segment or of a segment with contents.  Nothing else reads a
    payload: a walk collects cells, and only those checks look up their
    payloads.  So ``run`` on a model of the same shape (see the module
    docstring) with the same payloads at those cells makes the same
    search, with the same verdict and steps.
    """

    def __init__(self, h: SymbolicHeap, universe_data: list[int],
                 max_steps: int):
        self.atoms = h.cells()
        self.has_true = h.has_true()
        self.vars = h.vars()
        self.pure = h.pure
        self.data = universe_data
        self.max_steps = max_steps

    def _tick(self) -> None:
        # inlined in the placement and the payload checks, which run hot
        self.steps -= 1
        if self.steps <= 0:
            raise BoundsTooLarge(_EXHAUSTED)

    def run(self, model: Model, allow_leftover: bool) -> bool:
        self.model = model
        self.heap = model.heap
        self.steps = self.max_steps
        self.read: set = set()
        cover_all = not (allow_leftover or self.has_true)
        return self._place(0, model.env, frozenset(), cover_all)

    # -- atom placement (footprint search) --------------------------------

    def _place(self, i: int, env: dict, used: frozenset, cover_all: bool) -> bool:
        self.steps -= 1
        if self.steps <= 0:
            raise BoundsTooLarge(_EXHAUSTED)
        if i == len(self.atoms):
            return self._finish_pure(env, used, cover_all)
        a = self.atoms[i]
        for env2, cells in (self._place_node(a, env) if type(a) is NodeAtom
                            else self._place_seg(a, env)):
            if used.isdisjoint(cells) and self._place(
                    i + 1, env2, used.union(cells), cover_all):
                return True
        return False

    def _head_candidates(self, t: Term, env: dict) -> Iterable[tuple[object, dict]]:
        v = _eval(t, env)
        if v is not None:
            return ((v, env),)
        if not isinstance(t, (PVar, LVar)):
            return ()  # an offset is never an address
        # unassigned head variable: try every allocated address
        return ((c, {**env, t: c}) for c in self.heap)

    def _place_node(self, a: NodeAtom, env: dict) -> Iterator[tuple[dict, tuple]]:
        heap = self.heap
        for v, env0 in self._head_candidates(a.at, env):
            self.steps -= 1
            if self.steps <= 0:
                raise BoundsTooLarge(_EXHAUSTED)
            if v not in heap:
                continue
            nx, d = heap[v]
            env2 = _bind(a.nxt, nx, env0)
            if env2 is not None and a.data is not None:
                self.read.add(v)
                env2 = _bind(a.data, d, env2)
            if env2 is not None:
                yield env2, (v,)

    def _place_seg(self, a, env: dict) -> Iterator[tuple[dict, list]]:
        heap = self.heap
        counted = bool(a.contents.items)
        ordered = type(a) is SortedSegAtom
        for v, env0 in self._head_candidates(a.src, env):
            self.steps -= 1
            if self.steps <= 0:
                raise BoundsTooLarge(_EXHAUSTED)
            if v not in heap:
                continue
            # walk the chain, proposing each stop point.  The cells, and
            # for a segment with contents the count of each payload among
            # them, grow in place once every placement of the shorter
            # segment was tried; so do, for a sorted segment, the first
            # payload and the last, which is None once the payloads so far
            # do not ascend as integers.
            cells: list = []
            freq: dict[object, int] = {}
            first = last = None
            cur = v
            # the end's value, where the store fixes it: then a stop binds
            # nothing, and _bind need not be asked at each cell
            end = _eval(a.dst, env0)
            while True:
                # keep walking past a stop: the chain may pass through the
                # end and lasso back to it with more cells
                if cells:
                    if end is None:
                        env2 = _bind(a.dst, cur, env0)
                    else:
                        env2 = env0 if cur == end else None
                    if env2 is not None:
                        yield from (
                            self._sorted_check(a, env2, cells, freq, first,
                                               last) if ordered
                            else self._contents_check(a, env2, cells, freq))
                if cur not in heap or cur in cells:
                    break
                cells.append(cur)
                cur, d = heap[cur]
                if counted:
                    freq[d] = freq.get(d, 0) + 1
                if ordered:
                    if len(cells) == 1:
                        first = last = d if isinstance(d, int) else None
                    elif last is not None:
                        last = d if isinstance(d, int) and d >= last else None
                self.steps -= 1
                if self.steps <= 0:
                    raise BoundsTooLarge(_EXHAUSTED)

    def _sorted_check(self, a: SortedSegAtom, env: dict, cells: list,
                      freq: dict, first: Optional[int], last: Optional[int],
                      ) -> Iterator[tuple[dict, list]]:
        """The stores under which the payloads of cells, which ascend from
        first to last unless last is None, lie in a's interval and cover
        a's contents."""
        self.read.update(cells)
        if last is None:
            return  # the payloads do not ascend as integers
        for lo_v, env1 in self._bound_candidates(a.lo, env, first):
            if lo_v > first:
                continue
            for hi_v, env2 in self._bound_candidates(a.hi, env1, last + 1):
                if hi_v <= last:
                    continue
                yield from self._contents_check(a, env2, cells, freq)

    def _bound_candidates(self, t: Term, env: dict, natural: int) -> Iterator[tuple[int, dict]]:
        """The integer values of bound t, each with its store: t's own,
        or, where the store leaves t's variable unbound, each data value
        and natural."""
        x = var_of(t)
        if x is None or x in env:
            cands: Iterable = (_eval(t, env),)
        else:
            cands = sorted(set(self.data) | {natural})
        for c in cands:
            if isinstance(c, int) and (env2 := _bind(t, c, env)) is not None:
                yield c, env2

    def _contents_check(self, a, env: dict, cells: list,
                        freq: dict) -> Iterator[tuple[dict, list]]:
        """The stores under which the payloads of cells, counted in freq,
        cover a's contents."""
        ms = a.contents
        if not ms.items:  # no payload is read; the one empty assignment
            self.steps -= 1  # costs a step, as in the loop below
            if self.steps <= 0:
                raise BoundsTooLarge(_EXHAUSTED)
            yield env, cells
            return
        self.read.update(cells)
        # the keys whose variable the store leaves unbound range over the
        # segment's payloads
        unassigned = [k for k, _ in ms.items
                      if (x := var_of(k)) is not None and x not in env]
        cand_vals = sorted(d for d in freq if isinstance(d, int)) if unassigned else ()
        for combo in itertools.product(cand_vals, repeat=len(unassigned)):
            self.steps -= 1
            if self.steps <= 0:
                raise BoundsTooLarge(_EXHAUSTED)
            env2: Optional[dict] = env
            for k, val in zip(unassigned, combo):
                env2 = _bind(k, val, env2)
                if env2 is None:
                    break
            else:
                need: dict[object, int] = {}
                for k, n in ms.items:
                    kv = _eval(k, env2)
                    need[kv] = need.get(kv, 0) + n
                # a key with no value (an offset from an address) counts no
                # payload.  Distinct contents assignments can matter for the
                # pure part, so keep enumerating.
                if all(freq.get(val, 0) >= n for val, n in need.items()):
                    yield env2, cells

    # -- pure part ------------------------------------------------------------

    def _finish_pure(self, env: dict, used: frozenset, cover_all: bool) -> bool:
        if cover_all and used != self.heap.keys():
            return False
        free = [v for v in self.vars if v not in env]
        if not free:
            return all(_eval_pure(p, env) for p in self.pure)
        if len(free) > 4:
            raise BoundsTooLarge("too many unconstrained variables")
        # dangling addresses reachable only through the store still belong
        # to the existential universe of the pure part
        universe = sorted(_addresses(self.model.env, self.heap)) + self.data
        for combo in itertools.product(universe, repeat=len(free)):
            self._tick()
            env2 = dict(env)
            env2.update(zip(free, combo))
            if all(_eval_pure(p, env2) for p in self.pure):
                return True
        return False


def _addresses(store: dict, heap: dict) -> set:
    """The addresses of a model with this store and heap: its cells, nil,
    and each address in the store or in a next field."""
    addrs = {NIL_V, *heap}
    addrs.update(v for v in store.values() if isinstance(v, tuple))
    addrs.update(nx for nx, _ in heap.values() if isinstance(nx, tuple))
    return addrs


def satisfies(model: Model, h: SymbolicHeap, bounds: Optional[OracleBounds] = None,
              allow_leftover: bool = False,
              extra_data: Optional[list[int]] = None) -> bool:
    """Does the model satisfy h (with h's unassigned variables existential)?"""
    bounds = bounds or OracleBounds()
    data = extra_data if extra_data is not None else _data_universe(
        h, n_spare=bounds.n_spare_data)
    return _SatSearch(h, data, bounds.max_steps).run(model, allow_leftover)


# ---------------------------------------------------------------------------
# Model enumeration for the left-hand side
# ---------------------------------------------------------------------------

def models(h: SymbolicHeap, bounds: Optional[OracleBounds] = None,
           data_universe: Optional[list[int]] = None) -> Iterator[Model]:
    """Enumerate the models of h up to the bounds.

    Generation is structure-directed: segment lengths, canonical cell
    addresses, enumerated values for unanchored variables, and payloads
    from the data universe (which must be ascending, as ``_data_universe``
    returns it).  Two prunings drop candidates the satisfaction checker
    would reject, without changing the models or their order: a store that
    falsifies a pure atom gets no heaps, and a segment whose footprint is
    forced (see the module docstring) gets only the payloads that are
    sorted and inside its interval, for a sorted segment, and that cover
    its contents.  Every other segment gets every payload, since the
    checker may place it on other cells than the canonical ones.  The
    checker still filters every candidate: it is the definition of a
    model, and the pruning only spares it work.  Undergeneration is
    confined to the size bounds.
    """
    bounds = bounds or OracleBounds()
    data = data_universe if data_universe is not None else _data_universe(
        h, n_spare=bounds.n_spare_data)
    for m, *_ in _models(h, bounds, data, {}):
        yield m


def _models(h: SymbolicHeap, bounds: OracleBounds, data: list[int],
            held: dict) -> Iterator[tuple[Model, dict, dict, tuple]]:
    """The models of h, in the order ``models`` yields them, each with the
    entry of its shape (see the module docstring) in held, its store (its
    program variables, the store a right-side check is handed) and its
    payloads in cell order, leaving out every candidate that an entry of
    its shape matches.

    An entry maps a tuple of cell positions (in the heap's order) to a set
    of payload tuples, the payloads at those positions; a candidate matches
    it when its payloads at some key's positions are in that key's set.
    Between two models the consumer may add to the last one's entry.  An
    empty key, whose payload tuple is empty too, matches every candidate,
    so a shape that has one gets no more candidates.  held, always a dict
    (``models`` passes a fresh one), maps each shape met to its entry; an
    empty entry skips nothing.  The skip is exact when the consumer adds to
    an entry only the payloads of a model whose checks all held at the
    cells those checks read (see the module docstring).

    The store yielded is shared by the models of one store and must not
    be written.  What depends on h alone is computed here, once per query
    (see the module docstring), and every pair of segment lengths and
    extension size goes to ``_models_skeleton``.
    """
    if h.is_false:
        return
    atoms = h.cells()
    heads = [a.head for a in atoms]
    # each head is forced to its atom's first cell: a nil or constant head
    # has none, and two atoms have no cell in common
    if (not all(isinstance(t, (PVar, LVar)) for t in heads)
            or len(set(heads)) < len(heads)):
        return
    # the choice slots, end variables first, then the others; values are
    # sorted: next/endpoint positions hold addresses, data positions hold
    # ints, and a variable used only in pure atoms may be either
    data_vars = _data_position_vars(h)
    slots: dict[Term, str] = {}
    for t in (a.tail for a in atoms):
        if isinstance(t, (PVar, LVar)) and t not in heads:
            slots.setdefault(t, "addr")
    for v in h.vars():
        if v not in heads:
            slots.setdefault(v, "data" if v in data_vars else "any")
    seg_terms = [a.data_terms for a in atoms if not isinstance(a, NodeAtom)]
    n_fixed = len(atoms) - len(seg_terms)
    ext_max = bounds.max_extension if h.has_true() else 0
    check = _SatSearch(h, data, bounds.max_steps)
    payloads: dict = {}
    count = 0

    for seg_lens in itertools.product(range(1, bounds.max_cells + 1),
                                      repeat=len(seg_terms)):
        if n_fixed + sum(seg_lens) > bounds.max_cells:
            continue
        for ext in range(0, ext_max + 1):
            for found in _models_skeleton(
                    atoms, seg_terms, h.pure, slots, seg_lens, ext, data,
                    check, held, payloads):
                count += 1
                if count > bounds.max_models:
                    raise BoundsTooLarge("model enumeration budget exhausted")
                yield found


def _data_position_vars(h: SymbolicHeap) -> set:
    """Variables that occur where only integer data values can live: an
    atom's data terms are integer-sorted, so a variable there may only
    range over ints when models are generated."""
    return {v for a in h.spatial for t in a.data_terms
            if (v := var_of(t)) is not None}


def _seg_payloads(a, n: int, vals: tuple, data: list[int]) -> list[tuple]:
    """The payload tuples of an n-cell segment on a forced footprint that
    satisfy its constraints, in product order, where vals are the values
    of its data terms (``a.data_terms``) under the store."""
    tuples: Iterator[tuple] = itertools.product(data, repeat=n)
    if isinstance(a, SortedSegAtom):
        lo, hi, *vals = vals
        if not isinstance(lo, int) or not isinstance(hi, int):
            return []
        # the nondecreasing tuples, in product order since data ascends
        tuples = itertools.combinations_with_replacement(
            [d for d in data if lo <= d < hi], n)
    need: dict[object, int] = {}
    for kv, (_, m) in zip(vals, a.contents.items):
        need[kv] = need.get(kv, 0) + m
    if not need:
        return list(tuples)
    return [t for t in tuples if all(t.count(v) >= m for v, m in need.items())]


def _product(payloads: dict, data: list[int], n: int) -> list[tuple]:
    """The n-tuples of data in product order, kept in payloads under n."""
    ps = payloads.get(n)
    if ps is None:
        ps = payloads[n] = list(itertools.product(data, repeat=n))
    return ps


def _models_skeleton(atoms: tuple, seg_terms: list[tuple], pure: tuple,
                     slots: dict, seg_lens: tuple, ext: int, data: list[int],
                     check: _SatSearch, held: dict, payloads: dict
                     ) -> Iterator[tuple[Model, dict, dict, tuple]]:
    """The models of the atoms whose segments have the given lengths and
    that have ext extension cells, as ``_models`` yields them; seg_terms
    holds the data terms of each segment, slots the value kind of each
    choice variable.

    Each store (one value per choice variable) is filtered, and its
    program-variable store, the keys of its shapes and its atoms' payload
    lists are built, once.  payloads keeps lists across the query: under
    n the n-tuples of the data, and under (atom, length) the list of a
    forced segment for the last values of its data terms met.  Each
    candidate then costs its payload tuple, its match against the entries
    of its shape, its heap and the left check."""
    # allocate canonical addresses per atom
    lens = iter(seg_lens)
    atom_cells: list[tuple] = []
    k = 1
    for a in atoms:
        n = 1 if isinstance(a, NodeAtom) else next(lens)
        atom_cells.append(tuple(_addr(k + i) for i in range(n)))
        k += n
    cells = tuple(c for cs in atom_cells for c in cs)
    ext_cells = tuple(_addr(k + i) for i in range(ext))
    all_cells = cells + ext_cells
    # head variables are forced to their atom's first cell
    env: dict[Term, object] = {a.head: cs[0]
                               for a, cs in zip(atoms, atom_cells)}
    # A segment's walk can stop again after its own cells only where it
    # re-enters a cell that is allocated but no atom's head.
    reentry = set(ext_cells).union(*(cs[1:] for cs in atom_cells))

    addrs = list(all_cells) + [NIL_V, DANGLING]
    ranges = {"addr": addrs, "data": data, "any": data + addrs}
    # an extension cell's next values, then its payloads
    ext_nexts = list(itertools.product(all_cells + (NIL_V,), repeat=ext))
    ext_datas = _product(payloads, data, ext)

    for var_combo in itertools.product(*map(ranges.__getitem__,
                                            slots.values())):
        env1 = dict(env)
        env1.update(zip(slots, var_combo))
        ends = [_eval(a.tail, env1) for a in atoms]
        # a next value is an address: an integer end (x+1, or a constant)
        # has no model, and neither has an offset from an address
        if not all(isinstance(e, tuple) for e in ends):
            continue
        if pure and any(_eval_pure(p, env1) is not True for p in pure):
            continue
        # a content key or bound that does not evaluate is an offset from
        # an address, which no placement of its segment satisfies
        seg_vals = [tuple(_eval(t, env1) for t in ts) for ts in seg_terms]
        if any(None in vals for vals in seg_vals):
            continue
        nexts = tuple(c for cs, endv in zip(atom_cells, ends)
                      for c in cs[1:] + (endv,))
        store = {v: x for v, x in env1.items() if isinstance(v, PVar)}
        key = tuple(store.items())
        # the entries of this store's shapes still to build, one per
        # extension next; a shape leaves the list once its entry matches
        # every payload
        shapes = []
        for enx in ext_nexts:
            entry = held.setdefault((key, all_cells, nexts + enx), {})
            if () not in entry:
                shapes.append((enx, entry))
        if not shapes:
            continue
        pay_lists: list[list[tuple]] = []
        vals_of = iter(seg_vals)
        for a, cs, endv in zip(atoms, atom_cells, ends):
            if isinstance(a, NodeAtom):
                if a.data is None:
                    pay_lists.append(_product(payloads, data, 1))
                elif (dv := _eval(a.data, env1)) is None:
                    break
                else:
                    pay_lists.append([(dv,)])
            elif endv not in reentry:
                # stores in a row tend to give the same values
                vals = next(vals_of)
                kept = payloads.get((a, len(cs)))
                if kept is None or kept[0] != vals:
                    kept = payloads[a, len(cs)] = (
                        vals, _seg_payloads(a, len(cs), vals, data))
                pay_lists.append(kept[1])
            else:  # any payload: the walk may take other cells
                next(vals_of)
                pay_lists.append(_product(payloads, data, len(cs)))
        else:
            for pay_combo in itertools.product(*pay_lists):
                if not shapes:
                    break
                pays = tuple(itertools.chain.from_iterable(pay_combo))
                heap = None
                for enx, entry in tuple(shapes):
                    for ed in ext_datas:
                        cand = pays + ed
                        # a held model fixed the payloads its checks read
                        if entry and any(
                                tuple(map(cand.__getitem__, at)) in seen
                                for at, seen in entry.items()):
                            continue
                        if heap is None:
                            heap = dict(zip(cells, zip(nexts, pays)))
                        if ext:
                            cand_heap = dict(heap)
                            cand_heap.update(zip(ext_cells, zip(enx, ed)))
                        else:
                            cand_heap = heap
                        model = Model(env1, cand_heap)
                        if check.run(model, allow_leftover=False):
                            yield model, entry, store, cand
                            if () in entry:
                                shapes.remove((enx, entry))
                                break


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

def _universal_range(store: dict, heap: dict, data: list[int]) -> list:
    """The values a universal variable of the right side takes against a
    left model with this store (its program variables) and heap: every
    address of the model, one fresh address standing for all the others,
    then the data.  All of it is read off the model's shape."""
    addrs = _addresses(store, heap)
    fresh = _addr(max(k for _, k in addrs) + 1)
    return sorted(addrs) + [fresh] + data


def oracle_entails(lhs: SymbolicHeap, rhs: SymbolicHeap,
                   modulo_true: bool = False,
                   bounds: Optional[OracleBounds] = None) -> OracleVerdict:
    """Bounded-model entailment check: every model of lhs satisfies rhs.

    Each side's logical variables are existentially quantified over that
    side alone, so the left model's logical-variable bindings are dropped
    before checking the right side.  Program variables free on the right
    only are universal (a valuation is part of the model).  No left
    candidate is built whose shape and payloads at the cells the checks
    read match a model whose checks all held (see the module docstring).
    """
    bounds = bounds or OracleBounds()
    data = _data_universe(lhs, rhs, n_spare=bounds.n_spare_data)
    lhs_pvars = {v for v in lhs.vars() if isinstance(v, PVar)}
    univ = sorted((v for v in rhs.vars()
                   if isinstance(v, PVar) and v not in lhs_pvars),
                  key=lambda v: v.name)
    if len(univ) > 3:
        raise BoundsTooLarge("too many universally quantified variables")
    check = _SatSearch(rhs, data, bounds.max_steps)
    # per left shape, the payloads that models whose checks all held have
    # at the cells those checks read (see _models)
    held: dict = {}
    checked = 0
    for m, entry, store, pays in _models(lhs, bounds, data, held):
        # one right-side store per valuation of the universal variables;
        # without any, the model's own, which no check writes to
        stores = ({**store, **dict(zip(univ, combo))}
                  for combo in itertools.product(
                      _universal_range(store, m.heap, data), repeat=len(univ))
                  ) if univ else (store,)
        read: set = set()
        for env in stores:
            checked += 1
            if not check.run(Model(env, m.heap), modulo_true):
                return OracleVerdict(False, Model(dict(m.env), m.heap),
                                     checked)
            read |= check.read
        at = tuple(i for i, c in enumerate(m.heap) if c in read)
        entry.setdefault(at, set()).add(tuple(map(pays.__getitem__, at)))
    return OracleVerdict(True, None, checked)
