"""Seeded input generators for the benchmark workloads.

The benchmark owns these generators (it does not import the test suite's
generators), so an edit to a test cannot silently change a workload.  Every
function draws only from the ``random.Random`` it is given: the same seed
gives the same heaps and programs.
"""

from __future__ import annotations

import itertools
import random

from shaperef.domains import DOMAINS, AbstractionParam, abstract
from shaperef.heaps import (ListSegAtom, NodeAtom, SortedSegAtom,
                            SymbolicHeap, TRUE_SPATIAL, normalize)
from shaperef.lang import (AllocNode, AndC, Assert, Assign, Ast, IntE, Load,
                           NilE, NondetC, NondetE, NotC, OrC, RelC, Store,
                           VarE, While, If)
from shaperef.terms import Const, LVar, Multiset, NIL, Offset, PVar, PureAtom

# Data terms drawn for payloads, contents, pure atoms and the tracked
# multiset T; address program variables that head the random chains.
DATA_TERMS = (PVar("x"), PVar("y"), Const(1), Const(2), Const(3))
ADDR_PVARS = (PVar("r"), PVar("s"), PVar("t"))
PURE_OPS = ("=", "!=", "<=", "<")


def multiset(rng: random.Random, max_keys: int = 2,
             max_mult: int = 2) -> Multiset:
    keys = rng.sample(DATA_TERMS, k=rng.randint(0, max_keys))
    return Multiset.of((k, rng.randint(1, max_mult)) for k in keys)


def param(rng: random.Random, domain: str) -> AbstractionParam:
    """A domain with a random tracked multiset of variables and constants."""
    return AbstractionParam(domain, multiset(rng))


def _payload(rng: random.Random):
    return None if rng.random() < 0.4 else rng.choice(DATA_TERMS)


def _atom(rng: random.Random, domain: str, src, dst):
    if domain == "sls":
        if rng.random() < 0.45:
            return NodeAtom(src, dst, _payload(rng))
        lo, hi = sorted(rng.sample((0, 2, 4, 6, 9), 2))
        inside = [c for c in (1, 2, 3, 4, 5) if lo <= c < hi]
        keys = rng.sample(inside, k=min(len(inside), rng.randint(0, 1)))
        return SortedSegAtom(src, dst, Const(lo), Const(hi),
                             Multiset.of((Const(k), 1) for k in keys))
    if domain == "rls":
        if rng.random() < 0.5:
            return NodeAtom(src, dst, _payload(rng))
        return ListSegAtom(src, dst, Multiset())
    if rng.random() < 0.45:
        return NodeAtom(src, dst, _payload(rng))
    return ListSegAtom(src, dst, multiset(rng))


def _raw_heap(rng: random.Random, domain: str, n: int, n_pure: int,
              with_true: bool) -> SymbolicHeap:
    """A chain of ``n`` atoms threaded head to tail from an address
    variable, ending at nil, a program variable or a dangling logical
    variable."""
    atoms = []
    cur = rng.choice(ADDR_PVARS)
    for i in range(n):
        if i < n - 1:
            end = LVar(f"j{i}")
        else:
            roll = rng.random()
            end = NIL if roll < 0.7 else PVar("q") if roll < 0.85 \
                else LVar(f"e{i}")
        atoms.append(_atom(rng, domain, cur, end))
        cur = end
    if with_true:
        atoms.append(TRUE_SPATIAL)
    pure = tuple(PureAtom(rng.choice(PURE_OPS), rng.choice(DATA_TERMS),
                          rng.choice(DATA_TERMS))
                 for _ in range(rng.randint(0, n_pure)))
    return SymbolicHeap(pure, tuple(atoms))


def heap(rng: random.Random, domain: str, n_atoms: int, n_pure: int,
         with_true: bool) -> SymbolicHeap:
    """A raw (unnormalized) heap of ``n_atoms`` cells and segments and up
    to ``n_pure`` pure atoms, whose normal form is consistent."""
    while True:
        h = _raw_heap(rng, domain, n_atoms, n_pure, with_true)
        if not normalize(h).is_false:
            return h


def domain_of(i: int) -> str:
    """Items cycle through the domains so every run mixes them evenly."""
    return DOMAINS[i % len(DOMAINS)]


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

PTR_VARS = ("p", "q", "r", "t")
DATA_VARS = ("x", "d", "k", "res")

# The paper's running example, kept here so that the workload does not
# change when files elsewhere in the repository do.
RUNNING_EXAMPLE = """\
r = nil;
while (*) {
  r = new Node(r,*);
}
x = *;
r = new Node(r,x);
while (*) {
  r = new Node(r,*);
}
t = r; res = 0;
while(res==0 && t!=nil){
  d = t->data;
  if (d==x) res = 1;
  t = t->next;
}
assert(res==1);
"""


def _ptr_expr(rng):
    return NilE() if rng.random() < 0.3 else VarE(rng.choice(PTR_VARS))


def _data_expr(rng):
    roll = rng.random()
    if roll < 0.4:
        return IntE(rng.randint(0, 3))
    if roll < 0.55:
        return NondetE()
    return VarE(rng.choice(DATA_VARS))


def _relation(rng):
    if rng.random() < 0.5:
        return RelC(rng.choice(("==", "!=")), VarE(rng.choice(PTR_VARS)),
                    _ptr_expr(rng))
    return RelC(rng.choice(("==", "!=", "<=", "<")),
                VarE(rng.choice(DATA_VARS)), _data_expr(rng))


def _primary(rng):
    roll = rng.random()
    if roll < 0.1:
        return NondetC()
    if roll < 0.2:
        return NotC(_relation(rng))
    return _relation(rng)


def _cond(rng):
    """A condition in the parser's own shape: "||" over "&&" chains, both
    left-associated, so that ``parse(render(ast)) == ast``."""
    def conj():
        c = _primary(rng)
        for _ in range(rng.randint(0, 1)):
            c = AndC(c, _primary(rng))
        return c
    c = conj()
    if rng.random() < 0.2:
        c = OrC(c, conj())
    return c


def _simple(rng):
    roll = rng.random()
    p = rng.choice(PTR_VARS)
    if roll < 0.15:
        return Assign(p, _ptr_expr(rng))
    if roll < 0.25:
        return Assign(rng.choice(DATA_VARS), _data_expr(rng))
    if roll < 0.4:
        return AllocNode(p, _ptr_expr(rng), _data_expr(rng))
    if roll < 0.6:
        return Load(p, rng.choice(PTR_VARS), "next")
    if roll < 0.72:
        return Load(rng.choice(DATA_VARS), p, "data")
    if roll < 0.82:
        return Store(p, "next", _ptr_expr(rng))
    if roll < 0.9:
        return Store(p, "data", _data_expr(rng))
    return Assert(_cond(rng))


def _block(rng, budget: list[int], depth: int) -> tuple:
    stmts = []
    want = rng.randint(1, 4)
    while budget[0] > 0 and len(stmts) < want:
        budget[0] -= 1
        roll = rng.random()
        if depth < 2 and roll < 0.15:
            stmts.append(While(_cond(rng), _block(rng, budget, depth + 1)))
        elif depth < 2 and roll < 0.3:
            els = _block(rng, budget, depth + 1) if rng.random() < 0.5 else ()
            stmts.append(If(_cond(rng), _block(rng, budget, depth + 1), els))
        else:
            stmts.append(_simple(rng))
    return tuple(stmts)


def program(rng: random.Random, n_stmts: int) -> Ast:
    """A random program with about ``n_stmts`` statements."""
    budget = [n_stmts]
    stmts: list = []
    while budget[0] > 0:
        stmts.extend(_block(rng, budget, 0))
    return Ast(tuple(stmts))


def pointer_vars(ast: Ast) -> tuple[str, ...]:
    """Variables the program uses as addresses, in order of occurrence."""
    out: dict[str, None] = {}

    def walk(stmts):
        for s in stmts:
            if isinstance(s, Load):
                out.setdefault(s.src)
                if s.field == "next":
                    out.setdefault(s.var)
            elif isinstance(s, Store):
                out.setdefault(s.dst)
            elif isinstance(s, AllocNode):
                out.setdefault(s.var)
            elif isinstance(s, Assign) and isinstance(s.expr, NilE):
                out.setdefault(s.var)
            elif isinstance(s, While):
                walk(s.body)
            elif isinstance(s, If):
                walk(s.then)
                walk(s.els)
    walk(ast.stmts)
    return tuple(out)


def state(rng: random.Random, ptrs: tuple[str, ...],
          datas: tuple[str, ...]) -> SymbolicHeap:
    """A consistent symbolic state over a program's variables: a chain of
    cells and segments from one pointer variable to nil, the other pointer
    variables nil, aliased to a chain cell or unconstrained, and a few
    facts about data variables."""
    pv = [PVar(p) for p in ptrs or ("r",)]
    while True:
        root = rng.choice(pv)
        atoms, pure, joints = [], [], [root]
        n = rng.randint(1, 3)
        for i in range(n):
            src, end = joints[-1], NIL if i == n - 1 else LVar(f"j{i}")
            if rng.random() < 0.5:
                d = PVar(rng.choice(datas)) if datas and rng.random() < 0.5 \
                    else None
                atoms.append(NodeAtom(src, end, d))
            else:
                atoms.append(ListSegAtom(src, end, Multiset()))
            joints.append(end)
        for p in pv:
            roll = rng.random()
            if p == root or roll >= 0.8:
                continue
            pure.append(PureAtom("=", p, NIL if roll < 0.4
                                 else rng.choice(joints[:-1])))
        for _ in range(rng.randint(0, 2) if datas else 0):
            pure.append(PureAtom(rng.choice(("=", "!=")),
                                 PVar(rng.choice(datas)),
                                 Const(rng.randint(0, 1))))
        h = normalize(SymbolicHeap(tuple(pure), tuple(atoms)))
        if not h.is_false:
            return h


def data_vars(ast: Ast) -> tuple[str, ...]:
    ptrs = set(pointer_vars(ast))
    return tuple(v for v in ast.variables() if v not in ptrs)


# ---------------------------------------------------------------------------
# Size of an oracle query
# ---------------------------------------------------------------------------

def _ints(h: SymbolicHeap) -> set[int]:
    out: set[int] = set()
    terms = [t for p in h.pure for t in (p.lhs, p.rhs)]
    for a in h.cells():
        if isinstance(a, NodeAtom):
            terms.append(a.data)
        else:
            terms.extend(a.contents.keys())
        if isinstance(a, SortedSegAtom):
            terms.extend((a.lo, a.hi))
    for t in terms:
        if isinstance(t, Const):
            out.add(t.value)
        elif isinstance(t, Offset):
            out.add(t.delta)
    return out


def model_space(h: SymbolicHeap, max_cells: int, max_extension: int,
                n_spare: int) -> int:
    """Number of candidate models a generate-then-filter enumeration of
    ``h`` visits: segment lengths, segment and wild cell payloads, unbound
    segment ends and free variables, each over the addresses and data
    values ``h`` mentions."""
    ints = sorted(_ints(h)) or [1]
    n_data = len(set(ints) | {ints[-1] + i + 1 for i in range(n_spare)}
                 | {ints[0] - 1})
    atoms = h.cells()
    heads = {a.at if isinstance(a, NodeAtom) else a.src for a in atoms}
    ends = {a.nxt if isinstance(a, NodeAtom) else a.dst for a in atoms}
    ends = {t for t in ends if isinstance(t, (PVar, LVar))} - heads
    payloads = {a.data for a in atoms if isinstance(a, NodeAtom)}
    free = [v for v in h.vars() if v not in heads and v not in ends]
    n_data_vars = sum(1 for v in free if v in payloads or any(
        v in a.contents.keys() for a in atoms if not isinstance(a, NodeAtom)))
    n_other = len(free) - n_data_vars
    n_nodes = sum(1 for a in atoms if isinstance(a, NodeAtom))
    n_wild = sum(1 for a in atoms if isinstance(a, NodeAtom) and a.data is None)
    n_segs = len(atoms) - n_nodes
    ext_max = max_extension if h.has_true() else 0
    total = 0
    for lens in itertools.product(range(1, max_cells + 1), repeat=n_segs):
        cells = n_nodes + sum(lens)
        if cells > max_cells:
            continue
        for ext in range(ext_max + 1):
            n_addr = cells + ext + 2
            total += (n_addr ** len(ends) * n_data ** n_data_vars
                      * (n_data + n_addr) ** n_other
                      * n_data ** (sum(lens) + n_wild)
                      * ((cells + ext + 1) * n_data) ** ext)
    return total


# How often each domain's heaps fall in model-space classes [2^k, 2^(k+1)),
# k = 0..8, counted on 2000 natural draws per domain.  The oracle corpus
# keeps these proportions exactly, so that every seed gets the same mix of
# cheap and expensive queries.
SPACE_MIX = {
    "mls": (58, 116, 35, 101, 92, 78, 250, 87, 204),
    "rls": (58, 142, 38, 122, 86, 185, 299, 151, 147),
    "sls": (57, 102, 38, 85, 84, 74, 33, 95, 224),
}


def _quotas(weights: tuple[int, ...], n: int) -> list[int]:
    """Split n in proportion to weights (largest remainders)."""
    total = sum(weights)
    exact = [n * w / total for w in weights]
    out = [int(x) for x in exact]
    by_rest = sorted(range(len(weights)), key=lambda k: out[k] - exact[k])
    for k in by_rest[:n - sum(out)]:
        out[k] += 1
    return out


def oracle_queries(rng: random.Random, size: int, plain_bounds,
                   true_bounds) -> list:
    """Soundness queries ``(h, alpha(h), param, bounds)`` in the shape of
    the soundness tests: one to three atoms, at most one pure atom, and
    one heap in seven with a true conjunct (then one or two atoms and the
    smaller bounds).  The domains alternate, and within a domain the
    queries fill the model-space classes of :data:`SPACE_MIX`; heaps of a
    full class or of a space of 2^9 or more are drawn again."""
    per_domain = []
    for k, domain in enumerate(DOMAINS):
        quota = _quotas(SPACE_MIX[domain],
                        size // len(DOMAINS) + (k < size % len(DOMAINS)))
        out = []
        j = 0
        while any(quota):
            with_true = j % 7 == 0
            j += 1
            bounds = true_bounds if with_true else plain_bounds
            h = normalize(heap(rng, domain,
                               rng.randint(1, 2 if with_true else 3),
                               1, with_true))
            prm = param(rng, domain)
            cls = model_space(h, bounds.max_cells, bounds.max_extension,
                              bounds.n_spare_data).bit_length() - 1
            if 0 <= cls < len(quota) and quota[cls]:
                quota[cls] -= 1
                out.append((h, abstract(h, prm)[0], prm, bounds))
        per_domain.append(out)
    return [q for group in itertools.zip_longest(*per_domain) for q in group
            if q is not None]
