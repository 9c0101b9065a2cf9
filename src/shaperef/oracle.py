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

Values are sorted: addresses are tagged tuples ``('a', k)`` with nil =
``('a', 0)``; data values are plain ints.  Sharing an int between the two
sorts is therefore impossible by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .terms import (Const, LVar, Multiset, NilTerm, Offset, PVar, PureAtom,
                    Term, split_offset, term_vars)
from .heaps import (
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    Spatial,
    SymbolicHeap,
    atom_head,
    atom_tail,
)

NIL_V = ("a", 0)


def _addr(k: int) -> tuple:
    return ("a", k)


class BoundsTooLarge(Exception):
    """The query is outside the oracle's enumeration budget."""


@dataclass
class OracleBounds:
    max_cells: int = 4          # total allocated cells in generated models
    max_extension: int = 1      # extra cells for a spatial-true conjunct
    n_spare_data: int = 2       # fresh data values beyond the mentioned ones
    max_models: int = 60000     # generated-model cap per query
    max_steps: int = 400000     # satisfaction-search step cap per query


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
    models_checked: int = 0


def _eval(t: Term, env: dict) -> object:
    if isinstance(t, Const):
        return t.value
    if isinstance(t, NilTerm):
        return NIL_V
    if isinstance(t, Offset):
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


def _data_universe(*heaps: SymbolicHeap, n_spare: int = 2) -> list[int]:
    consts: set[int] = set()
    for h in heaps:
        for p in h.pure:
            for t in (p.lhs, p.rhs):
                if isinstance(t, Const):
                    consts.add(t.value)
                if isinstance(t, Offset):
                    consts.add(t.delta)
        for a in h.spatial:
            for ms in (
                [a.contents] if isinstance(a, (ListSegAtom, SortedSegAtom)) else []
            ):
                for k, _ in ms.items:
                    if isinstance(k, Const):
                        consts.add(k.value)
            if isinstance(a, NodeAtom) and isinstance(a.data, Const):
                consts.add(a.data.value)
            if isinstance(a, SortedSegAtom):
                for t in (a.lo, a.hi):
                    if isinstance(t, Const):
                        consts.add(t.value)
                    if isinstance(t, Offset):
                        consts.add(t.delta)
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
    """

    def __init__(self, h: SymbolicHeap, universe_data: list[int], max_steps: int):
        self.atoms = h.cells()
        self.has_true = h.has_true()
        self.vars = h.vars()
        self.pure = h.pure
        self.data = universe_data
        self.max_steps = max_steps

    def _tick(self) -> None:
        self.steps -= 1
        if self.steps <= 0:
            raise BoundsTooLarge("satisfaction search budget exhausted")

    def run(self, model: Model, allow_leftover: bool) -> bool:
        self.model = model
        self.heap = model.heap
        self.steps = self.max_steps
        cover_all = not (allow_leftover or self.has_true)
        return self._place(0, dict(model.env), frozenset(), cover_all)

    # -- atom placement (footprint search) --------------------------------

    def _place(self, i: int, env: dict, used: frozenset, cover_all: bool) -> bool:
        self._tick()
        if i == len(self.atoms):
            return self._finish_pure(env, used, cover_all)
        for env2, cells in self._placements(self.atoms[i], env):
            cs = frozenset(cells)
            if cs & used:
                continue
            if self._place(i + 1, env2, used | cs, cover_all):
                return True
        return False

    def _placements(self, a: Spatial, env: dict) -> Iterator[tuple[dict, list]]:
        if isinstance(a, NodeAtom):
            yield from self._place_node(a, env)
        elif isinstance(a, ListSegAtom):
            yield from self._place_seg(a, env, sorted_seg=False)
        elif isinstance(a, SortedSegAtom):
            yield from self._place_seg(a, env, sorted_seg=True)

    def _head_candidates(self, t: Term, env: dict) -> Iterator[tuple[object, dict]]:
        v = _eval(t, env)
        if v is not None:
            yield v, env
            return
        # unassigned head variable: try every allocated address
        for c in self.heap:
            e2 = dict(env)
            e2[t] = c
            yield c, e2

    def _place_node(self, a: NodeAtom, env: dict) -> Iterator[tuple[dict, list]]:
        for v, env0 in self._head_candidates(a.at, env):
            self._tick()
            if v not in self.heap:
                continue
            nx, d = self.heap[v]
            env2 = dict(env0)
            tv = _eval(a.nxt, env2)
            if tv is None and isinstance(a.nxt, (PVar, LVar)):
                env2[a.nxt] = nx
            elif tv != nx:
                continue
            if a.data is not None:
                dv = _eval(a.data, env2)
                if dv is None and isinstance(a.data, (PVar, LVar)):
                    env2[a.data] = d
                elif dv != d:
                    continue
            yield env2, [v]

    def _place_seg(self, a, env: dict, sorted_seg: bool) -> Iterator[tuple[dict, list]]:
        for v, env0 in self._head_candidates(a.src, env):
            self._tick()
            if v not in self.heap:
                continue
            dst_v = _eval(a.dst, env0)
            # walk the chain, proposing each stop point
            cells: list = []
            datas: list = []
            cur = v
            while True:
                if cells and cur == dst_v:
                    yield from self._seg_constraints(a, dict(env0), cells, datas, sorted_seg)
                    # keep walking: the chain may pass through dst and
                    # lasso back to it with more cells
                if cells and dst_v is None and isinstance(a.dst, (PVar, LVar)):
                    env2 = dict(env0)
                    env2[a.dst] = cur
                    yield from self._seg_constraints(a, env2, cells, datas, sorted_seg)
                if cur not in self.heap or cur in cells:
                    break
                cells = cells + [cur]
                datas = datas + [self.heap[cur][1]]
                cur = self.heap[cur][0]
                self._tick()

    def _seg_constraints(self, a, env: dict, cells: list, datas: list,
                         sorted_seg: bool) -> Iterator[tuple[dict, list]]:
        if sorted_seg:
            if any(not isinstance(d, int) for d in datas):
                return
            if any(datas[i] > datas[i + 1] for i in range(len(datas) - 1)):
                return
            for lo_v, env1 in self._bound_candidates(a.lo, env, min(datas)):
                if not all(isinstance(d, int) and lo_v <= d for d in datas):
                    continue
                for hi_v, env2 in self._bound_candidates(a.hi, env1, max(datas) + 1):
                    if not all(d < hi_v for d in datas):
                        continue
                    yield from self._contents_check(a.contents, env2, cells, datas)
        else:
            yield from self._contents_check(a.contents, env, cells, datas)

    def _bound_candidates(self, t: Term, env: dict, natural: int) -> Iterator[tuple[int, dict]]:
        v = _eval(t, env)
        # only a base the store leaves unbound may be bound here: x+1 with
        # x an address has no value
        if v is not None or split_offset(t)[0] in env:
            if isinstance(v, int):
                yield v, env
            return
        cands = set(self.data) | {natural}
        if isinstance(t, (PVar, LVar)):
            for c in sorted(cands):
                e2 = dict(env)
                e2[t] = c
                yield c, e2
        elif isinstance(t, Offset) and isinstance(t.base, (PVar, LVar)):
            for c in sorted(cands):
                e2 = dict(env)
                e2[t.base] = c - t.delta
                yield c, e2

    def _contents_check(self, ms: Multiset, env: dict, cells: list,
                        datas: list) -> Iterator[tuple[dict, list]]:
        unassigned = [k for k, _ in ms.items
                      if _eval(k, env) is None and split_offset(k)[0] not in env]
        cand_vals = sorted(set(d for d in datas if isinstance(d, int)))
        for combo in itertools.product(cand_vals, repeat=len(unassigned)):
            self._tick()
            env2 = dict(env)
            for k, val in zip(unassigned, combo):
                if isinstance(k, (PVar, LVar)):
                    env2[k] = val
                elif isinstance(k, Offset):
                    env2[k.base] = val - k.delta
            need: dict[object, int] = {}
            ok = True
            for k, n in ms.items:
                kv = _eval(k, env2)
                if kv is None:
                    ok = False
                    break
                need[kv] = need.get(kv, 0) + n
            if not ok:
                continue
            if all(sum(1 for d in datas if d == val) >= n for val, n in need.items()):
                yield env2, cells
                # distinct contents assignments can matter for the pure part,
                # so keep enumerating

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
        addrs = set(self.heap) | {NIL_V}
        addrs.update(nx for nx, _ in self.heap.values() if isinstance(nx, tuple))
        addrs.update(v for v in self.model.env.values() if isinstance(v, tuple))
        universe = sorted(addrs) + list(self.data)
        for combo in itertools.product(universe, repeat=len(free)):
            self._tick()
            env2 = dict(env)
            env2.update(zip(free, combo))
            if all(_eval_pure(p, env2) for p in self.pure):
                return True
        return False


def satisfies(model: Model, h: SymbolicHeap, bounds: Optional[OracleBounds] = None,
              allow_leftover: bool = False,
              extra_data: Optional[list[int]] = None) -> bool:
    """Does the model satisfy h (with h's unassigned variables existential)?"""
    bounds = bounds or OracleBounds()
    data = extra_data if extra_data is not None else _data_universe(h, n_spare=bounds.n_spare_data)
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
    if h.is_false or h.facts.inconsistent:
        return
    data = data_universe if data_universe is not None else _data_universe(
        h, n_spare=bounds.n_spare_data)
    atoms = h.cells()
    segs = [a for a in atoms if isinstance(a, (ListSegAtom, SortedSegAtom))]
    n_fixed = len(atoms) - len(segs)
    ext_max = bounds.max_extension if h.has_true() else 0
    data_vars = _data_position_vars(h)
    check = _SatSearch(h, data, bounds.max_steps)
    count = 0

    for seg_lens in itertools.product(range(1, bounds.max_cells + 1),
                                      repeat=len(segs)):
        total = n_fixed + sum(seg_lens)
        if total > bounds.max_cells:
            continue
        for ext in range(0, ext_max + 1):
            for m in _models_skeleton(h, atoms, seg_lens, ext, data,
                                      data_vars, check):
                count += 1
                if count > bounds.max_models:
                    raise BoundsTooLarge("model enumeration budget exhausted")
                yield m


def _data_position_vars(h: SymbolicHeap) -> set:
    """Variables that occur where only integer data values can live.

    Cell payloads, multiset content keys, and sorted-interval bounds are
    all data-sorted, so a variable appearing there may only range over
    ints when models are generated.
    """
    out: set = set()
    for a in h.spatial:
        if isinstance(a, NodeAtom):
            if a.data is not None:
                out.update(term_vars(a.data))
        elif isinstance(a, ListSegAtom):
            out.update(a.contents.vars())
        elif isinstance(a, SortedSegAtom):
            out.update(term_vars(a.lo))
            out.update(term_vars(a.hi))
            out.update(a.contents.vars())
    return out


def _seg_payloads(a, n: int, env: dict, data: list[int]) -> list[tuple]:
    """The payload tuples of an n-cell segment on a forced footprint that
    satisfy its constraints under env, in product order."""
    tuples: Iterator[tuple] = itertools.product(data, repeat=n)
    if isinstance(a, SortedSegAtom):
        lo, hi = _eval(a.lo, env), _eval(a.hi, env)
        if not isinstance(lo, int) or not isinstance(hi, int):
            return []
        # the nondecreasing tuples, in product order since data ascends
        tuples = itertools.combinations_with_replacement(
            [d for d in data if lo <= d < hi], n)
    need: dict[object, int] = {}
    for k, m in a.contents.items:
        kv = _eval(k, env)
        need[kv] = need.get(kv, 0) + m
    return [t for t in tuples if all(t.count(v) >= m for v, m in need.items())]


def _models_skeleton(h: SymbolicHeap, atoms: tuple, seg_lens: tuple, ext: int,
                     data: list[int], data_vars: set,
                     check: _SatSearch) -> Iterator[Model]:
    # allocate canonical addresses per atom
    lens = iter(seg_lens)
    atom_cells: list[list[tuple]] = []
    for a in atoms:
        n = 1 if isinstance(a, NodeAtom) else next(lens)
        first = sum(map(len, atom_cells)) + 1
        atom_cells.append([_addr(first + i) for i in range(n)])
    cells = [c for cs in atom_cells for c in cs]
    ext_cells = [_addr(len(cells) + 1 + i) for i in range(ext)]
    all_cells = cells + ext_cells

    # head variables are forced to their atom's first cell
    env: dict[Term, object] = {}
    for a, cs in zip(atoms, atom_cells):
        head = atom_head(a)
        if not isinstance(head, (PVar, LVar)):
            return  # nil/const heads are inconsistent
        if env.setdefault(head, cs[0]) != cs[0]:
            return
    # A segment's walk can stop again after its own cells only where it
    # re-enters a cell that is allocated but no atom's head.
    reentry = set(all_cells) - set(env.values())

    # choice slots: end vars, then remaining vars.  Values are sorted:
    # next/endpoint positions hold addresses, data positions hold ints, and
    # a variable used only in pure atoms may be either.
    addr_universe = all_cells + [NIL_V, _addr(990)]  # one dangling address
    choice_vars: list[Term] = []
    choice_cands: list[list] = []
    for t in map(atom_tail, atoms):
        if isinstance(t, (PVar, LVar)) and t not in env and t not in choice_vars:
            choice_vars.append(t)
            choice_cands.append(addr_universe)
    for v in h.vars():
        if v not in env and v not in choice_vars:
            choice_vars.append(v)
            choice_cands.append(data if v in data_vars else data + addr_universe)

    seg_terms = [t for a in atoms if not isinstance(a, NodeAtom)
                 for t in ((a.lo, a.hi) if isinstance(a, SortedSegAtom) else ())
                 + a.contents.keys()]
    wild = [(d,) for d in data]
    ext_space = [all_cells + [NIL_V]] * ext + [data] * ext

    for var_combo in itertools.product(*choice_cands):
        env1 = dict(env)
        env1.update(zip(choice_vars, var_combo))
        ends = [_eval(atom_tail(a), env1) for a in atoms]
        if None in ends or any(_eval_pure(p, env1) is not True for p in h.pure):
            continue
        # a content key or bound that does not evaluate is an offset from
        # an address, which no placement of its segment satisfies
        if any(_eval(t, env1) is None for t in seg_terms):
            continue
        payloads: list[list[tuple]] = []
        for a, cs, endv in zip(atoms, atom_cells, ends):
            if isinstance(a, NodeAtom):
                if a.data is None:
                    payloads.append(wild)
                elif (dv := _eval(a.data, env1)) is None:
                    break
                else:
                    payloads.append([(dv,)])
            elif endv not in reentry:
                payloads.append(_seg_payloads(a, len(cs), env1, data))
            else:
                payloads.append(list(itertools.product(data, repeat=len(cs))))
        else:
            nexts = [c for cs, endv in zip(atom_cells, ends)
                     for c in cs[1:] + [endv]]
            for pay_combo in itertools.product(*payloads):
                heap = dict(zip(cells, zip(
                    nexts, itertools.chain.from_iterable(pay_combo))))
                for ec_combo in itertools.product(*ext_space):
                    heap2 = dict(heap)
                    heap2.update(zip(ext_cells, zip(ec_combo[:ext], ec_combo[ext:])))
                    model = Model(env1, heap2)
                    if check.run(model, allow_leftover=False):
                        yield model


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

def oracle_entails(lhs: SymbolicHeap, rhs: SymbolicHeap,
                   modulo_true: bool = False,
                   bounds: Optional[OracleBounds] = None) -> OracleVerdict:
    """Bounded-model entailment check: every model of lhs satisfies rhs.

    Each side's logical variables are existentially quantified over that
    side alone, so the left model's logical-variable bindings are dropped
    before checking the right side.  Program variables free on the right
    only are universal (a valuation is part of the model).
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
    checked = 0
    for m in models(lhs, bounds, data_universe=data):
        base_env = {v: val for v, val in m.env.items() if isinstance(v, PVar)}
        values = sorted(m.heap.keys()) + [NIL_V, _addr(97)] + list(data)
        for combo in itertools.product(values, repeat=len(univ)):
            checked += 1
            env2 = dict(base_env)
            env2.update(zip(univ, combo))
            if not check.run(Model(env2, m.heap), allow_leftover=modulo_true):
                return OracleVerdict(False, Model(dict(m.env), m.heap),
                                     checked)
    return OracleVerdict(True, None, checked)
