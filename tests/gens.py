"""Random generators for heaps, multisets and abstraction parameters.

Shared by the differential/property suites.  Generation is biased toward
small consistent heaps in the shape the analysis actually produces: a chain
of node/segment atoms threaded head-to-tail, plus a few pure atoms over a
small pool of data terms.
"""

from __future__ import annotations

import random
from dataclasses import fields

from shaperef.terms import Const, LVar, Multiset, NIL, PVar, PureAtom
from shaperef.heaps import (
    ListSegAtom,
    NodeAtom,
    SortedSegAtom,
    SymbolicHeap,
    TRUE_SPATIAL,
    normalize,
)

DATA_TERMS = [PVar("x"), PVar("y"), Const(1), Const(2), Const(3)]
ADDR_PVARS = [PVar("r"), PVar("s"), PVar("t")]


def random_multiset(rng: random.Random, max_keys: int = 2, max_mult: int = 2) -> Multiset:
    keys = rng.sample(DATA_TERMS, k=rng.randint(0, max_keys))
    return Multiset.of((k, rng.randint(1, max_mult)) for k in keys)


def random_param_multiset(rng: random.Random, max_keys: int = 2, max_mult: int = 2) -> Multiset:
    """A refinement parameter T: program variables and constants only."""
    return random_multiset(rng, max_keys, max_mult)


def grow_param(rng: random.Random, t1: Multiset) -> Multiset:
    """A random T2 with T1 pointwise <= T2."""
    extra = random_multiset(rng, max_keys=1, max_mult=1)
    return t1.msum(extra) if rng.random() < 0.5 else t1.union_max(
        random_multiset(rng, max_keys=2, max_mult=2))


def _payload(rng: random.Random):
    if rng.random() < 0.4:
        return None
    return rng.choice(DATA_TERMS)


def random_heap(rng: random.Random, domain: str = "mls", max_atoms: int = 3,
                with_true: bool = False, n_pure: int = 2,
                retries: int = 30) -> SymbolicHeap:
    """A random consistent normalized heap for the given domain."""
    for _ in range(retries):
        h = _attempt(rng, domain, max_atoms, with_true, n_pure)
        if not h.is_false:
            return h
    return normalize(SymbolicHeap((), (NodeAtom(PVar("r"), NIL, None),)))


def _attempt(rng, domain, max_atoms, with_true, n_pure) -> SymbolicHeap:
    atoms = []
    cur = rng.choice(ADDR_PVARS)
    n = rng.randint(1, max_atoms)
    for i in range(n):
        last = i == n - 1
        if last:
            roll = rng.random()
            if roll < 0.7:
                end = NIL
            elif roll < 0.85:
                end = PVar("q")
            else:
                end = LVar(f"e{i}")
        else:
            end = LVar(f"j{i}")
        atoms.append(_random_atom(rng, domain, cur, end, i))
        cur = end
        if not isinstance(cur, (PVar, LVar)):
            break
    if with_true and rng.random() < 0.6:
        atoms.append(TRUE_SPATIAL)
    pure = []
    for _ in range(rng.randint(0, n_pure)):
        a, b = rng.choice(DATA_TERMS), rng.choice(DATA_TERMS)
        op = rng.choice(["=", "!=", "<=", "<"])
        from shaperef.terms import PureAtom
        pure.append(PureAtom(op, a, b))
    return normalize(SymbolicHeap(tuple(pure), tuple(atoms)))


def random_heap_with_logical_pure(rng: random.Random, domain: str = "mls",
                                  max_atoms: int = 3, n_pure: int = 2,
                                  retries: int = 30) -> SymbolicHeap:
    """A random consistent normalized heap whose pure atoms mention the
    logical variables of its spatial atoms, which ``random_heap`` never
    draws: a junction j' of the chain against nil, a pointer or another
    junction (``j0'!=nil``, ``j0'!=r``), and a node's logical payload a'
    by order or disequality against a data term or another payload
    (``x<a1'``, ``a0'<=a1'``).  Its own function, so that the streams of
    the other generators stay as they are."""
    for _ in range(retries):
        h = _attempt_with_logical_pure(rng, domain, max_atoms, n_pure)
        if not h.is_false:
            return h
    return normalize(SymbolicHeap((), (NodeAtom(PVar("r"), NIL, None),)))


def _attempt_with_logical_pure(rng, domain, max_atoms, n_pure):
    atoms, junctions, payloads = [], [], []
    cur = rng.choice(ADDR_PVARS)
    n = rng.randint(2, max_atoms)  # so that the chain has a junction
    for i in range(n):
        end = (NIL if rng.random() < 0.7 else PVar("q")) if i == n - 1 \
            else LVar(f"j{i}")
        atom = _random_atom(rng, domain, cur, end, i)
        if isinstance(atom, NodeAtom) and rng.random() < 0.6:
            atom = NodeAtom(cur, end, LVar(f"a{i}"))
            payloads.append(atom.data)
        atoms.append(atom)
        if isinstance(end, LVar):
            junctions.append(end)
        cur = end
    pure = []
    for _ in range(rng.randint(1, n_pure)):
        if not payloads or rng.random() < 0.5:
            a = rng.choice(junctions)
            b = rng.choice([NIL, *ADDR_PVARS, *junctions])
            op = "!="
        else:
            a = rng.choice(payloads)
            b = rng.choice(DATA_TERMS + payloads)
            op = rng.choice(["!=", "<=", "<"])
        if b is not a:
            pure.append(PureAtom(op, *rng.sample([a, b], 2)))
    return normalize(SymbolicHeap(tuple(pure), tuple(atoms)))


# ---------------------------------------------------------------------------
# Shared property-loop bodies (used by the module suite at small volume and
# by the acceptance suite at full volume).
# ---------------------------------------------------------------------------

# Plain heaps are model-checked at the full 4-cell bound; heaps with a true
# conjunct at 3 cells + 1 extension cell, so every enumerated model still
# has at most 4 cells.
SOUND_PLAIN_BOUNDS = None  # initialised lazily below
SOUND_TRUE_BOUNDS = None


def _init_bounds():
    global SOUND_PLAIN_BOUNDS, SOUND_TRUE_BOUNDS
    from shaperef.oracle import OracleBounds
    if SOUND_PLAIN_BOUNDS is None:
        SOUND_PLAIN_BOUNDS = OracleBounds(max_cells=4, max_extension=1,
                                          n_spare_data=1, max_models=4000,
                                          max_steps=200000)
        SOUND_TRUE_BOUNDS = OracleBounds(max_cells=3, max_extension=1,
                                         n_spare_data=1, max_models=4000,
                                         max_steps=200000)


def soundness_trial(rng: random.Random, domain: str) -> tuple[str, str]:
    """One randomized abstraction-soundness check against the bounded oracle.

    Returns (status, detail) with status in {"pass", "skip", "fail"}.  Every
    rewrite step is asserted to strictly decrease the termination measure
    along the way.
    """
    from shaperef.domains import AbstractionParam, abstract, measure
    from shaperef.oracle import BoundsTooLarge, oracle_entails
    _init_bounds()
    with_true = rng.random() < 0.15
    h = random_heap(rng, domain=domain, max_atoms=2 if with_true else 3,
                    with_true=with_true, n_pure=1)
    param = AbstractionParam(domain, random_param_multiset(rng))
    out, trace = abstract(h, param)
    for s in trace.steps:
        assert (s.after is not s.before
                and measure(s.after) < measure(s.before)), (
            f"non-decreasing step {s.rule}: {s.before} ~> {s.after}")
    bounds = SOUND_TRUE_BOUNDS if with_true else SOUND_PLAIN_BOUNDS
    try:
        verdict = oracle_entails(h, out, bounds=bounds)
    except BoundsTooLarge:
        return "skip", ""
    if verdict.holds:
        return "pass", ""
    return "fail", f"{domain}: {h} with T={param.tracked} ~> {out}"


def monotonicity_trial(rng: random.Random, domain: str,
                       oracle_check: bool = False) -> tuple[str, str]:
    """Check that abstracting with a larger parameter is at least as precise:
    T1 pointwise<= T2 implies abs_T2(h) |- abs_T1(h)."""
    from shaperef.domains import AbstractionParam, abstract
    from shaperef.oracle import BoundsTooLarge, oracle_entails
    from shaperef.prover import entails
    _init_bounds()
    h = random_heap(rng, domain=domain, max_atoms=3,
                    with_true=rng.random() < 0.15, n_pure=1)
    t1 = random_param_multiset(rng)
    t2 = grow_param(rng, t1)
    a1, _ = abstract(h, AbstractionParam(domain, t1))
    a2, _ = abstract(h, AbstractionParam(domain, t2))
    ok = entails(a2, a1).holds
    if ok and oracle_check:
        try:
            ok = oracle_entails(a2, a1, bounds=SOUND_PLAIN_BOUNDS).holds
        except BoundsTooLarge:
            pass
    if ok:
        return "pass", ""
    return "fail", f"{domain}: {h}; T1={t1} T2={t2}; need {a2} |- {a1}"


def chain_heap(payloads) -> SymbolicHeap:
    """A node chain r -> j0' -> ... -> nil with the given payload terms
    (None = wild), one node per payload."""
    atoms = []
    cur = PVar("r")
    n = len(payloads)
    for i, d in enumerate(payloads):
        end = NIL if i == n - 1 else LVar(f"j{i}")
        atoms.append(NodeAtom(cur, end, d))
        cur = end
    return normalize(SymbolicHeap((), tuple(atoms)))


def alpha_canonical(h: SymbolicHeap) -> str:
    """Render h with logical variables renamed in order of appearance, so
    forms that differ only in existential names compare equal."""
    m = {}
    for v in h.vars():
        if isinstance(v, LVar) and v not in m:
            m[v] = LVar(f"c{len(m)}")
    return str(h.subst(m))


def canonical_chain_forms(domain: str, tracked: Multiset, lengths,
                          pool, rng: random.Random,
                          samples_per_length: int = 40,
                          nondecreasing: bool = False) -> set[str]:
    """Alpha-canonical abstract forms of node chains over the payload pool.

    Lengths <= 4 are enumerated exhaustively; longer chains are sampled.
    With ``nondecreasing`` the payload sequences are sorted by value (the
    shapes sorted-list programs produce) — required for the sorted domain,
    where descending junctions are irreducible by design.  Used by the
    finiteness tests: the form set must stop growing once the multiset
    budget is saturated.
    """
    import itertools
    from shaperef.domains import AbstractionParam, abstract
    param = AbstractionParam(domain, tracked)

    def fix(seq):
        if not nondecreasing:
            return tuple(seq)
        return tuple(sorted(seq, key=lambda t: t.value if isinstance(t, Const)
                            else -1))

    forms: set[str] = set()
    for n in lengths:
        if n <= 4:
            combos = itertools.product(pool, repeat=n)
        else:
            combos = (tuple(rng.choice(pool) for _ in range(n))
                      for _ in range(samples_per_length))
        for payloads in combos:
            out, _ = abstract(chain_heap(fix(payloads)), param)
            forms.add(alpha_canonical(out))
    return forms


def fold_query(rng: random.Random,
               domain: str) -> tuple[SymbolicHeap, SymbolicHeap]:
    """An entailment whose right side folds a run of a left chain into one
    segment that ends in the existential v'.

    The left chain r -> j1' -> ... holds 2-4 atoms and ends at nil, at q,
    at an existential or, as a lasso, at one of its own heads; in ``sls``
    its values ascend, except in about one chain in five.  The right side
    folds a run of at least two atoms into one segment of the domain's
    kind, from the run's head to v', and keeps the other atoms with v' for
    the run's end.  About four queries in ten rename a head or end drawn
    at random to v' instead, which the run may not reach, or only through
    the left atoms the right keeps; an ``mls`` segment may claim a value
    the run lacks, and an ``sls`` interval may miss one of the run's
    values.
    """
    n = rng.randint(2, 4)
    heads = [PVar("r")] + [LVar(f"j{k}") for k in range(1, n)]
    roll = rng.random()
    end = (NIL if roll < 0.4 else PVar("q") if roll < 0.6
           else LVar("e") if roll < 0.7 else rng.choice(heads))
    ends = heads[1:] + [end]
    if domain == "sls":
        left = _sorted_chain(rng, heads, ends)
    else:  # at most one value per segment, so that 4 cells can hold a model
        left = [NodeAtom(src, dst, _payload(rng)) if rng.random() < 0.5
                else ListSegAtom(src, dst, random_multiset(rng, 1, 1)
                                 if domain == "mls" else Multiset())
                for src, dst in zip(heads, ends)]
    i = rng.randint(0, n - 2)
    j = rng.randint(i + 2, n)
    run = left[i:j]
    v = LVar("v")
    values = [t for a in run for t in (
        (a.data,) if isinstance(a, NodeAtom) else a.contents.keys())
        if t is not None]
    keys = [t for t in values if rng.random() < 0.6]
    if domain != "rls" and rng.random() < 0.2:
        keys.append(rng.choice(DATA_TERMS))
    if domain == "sls":
        bounds = [(a.data, a.data) if isinstance(a, NodeAtom)
                  else (a.lo, a.hi) for a in run]
        lo = min((b[0].value for b in bounds if b[0] is not None), default=0)
        hi = max((b[1].value for b in bounds if b[1] is not None), default=0)
        # hi is exclusive; either bound may miss one of the run's values
        lo += 1 if rng.random() < 0.15 else 0
        hi += 0 if rng.random() < 0.15 else 1
        keys = [k for k in keys if isinstance(k, Const)]
        seg = SortedSegAtom(heads[i], v, Const(lo), Const(max(hi, lo + 1)),
                            Multiset.of((k, 1) for k in keys))
    else:
        seg = ListSegAtom(heads[i], v, Multiset.of((k, 1) for k in keys))
    target = ends[j - 1] if rng.random() < 0.6 else rng.choice(heads + ends)
    kept = tuple(a.subst({target: v}) for a in left[:i] + left[j:])
    return (normalize(SymbolicHeap((), tuple(left))),
            SymbolicHeap((), kept + (seg,)))


def _sorted_chain(rng, heads, ends) -> list:
    """Nodes and sorted segments from heads to ends.  Each atom's values lie
    at or above the last one's, except that about one atom in four after a
    segment starts two below its bound, and about one chain in five is
    reversed; a node may hold a wild payload."""
    c, fields = rng.randint(0, 2), []
    for _ in heads:
        if rng.random() < 0.5:
            fields.append((None if rng.random() < 0.1 else Const(c),))
            c += rng.randint(0, 1)
        else:
            hi = c + rng.randint(1, 2)
            ms = Multiset.of([(Const(hi - 1), 1)] if rng.random() < 0.4
                             else [])
            fields.append((Const(c), Const(hi), ms))
            c = hi + rng.choice((-2, 0, 0, 1))
    if rng.random() < 0.2:
        fields.reverse()
    return [NodeAtom(src, dst, *f) if len(f) == 1
            else SortedSegAtom(src, dst, *f)
            for f, src, dst in zip(fields, heads, ends)]


def _random_atom(rng, domain, src, dst, idx):
    if domain == "sls":
        if rng.random() < 0.45:
            return NodeAtom(src, dst, _payload(rng))
        lo, hi = sorted(rng.sample([0, 2, 4, 6, 9], 2))
        inside = [c for c in (1, 2, 3, 4, 5) if lo <= c < hi]
        ms_keys = rng.sample(inside, k=min(len(inside), rng.randint(0, 1)))
        ms = Multiset.of((Const(k), 1) for k in ms_keys)
        return SortedSegAtom(src, dst, Const(lo), Const(hi), ms)
    if domain == "rls":
        if rng.random() < 0.5:
            return NodeAtom(src, dst, _payload(rng))
        return ListSegAtom(src, dst, Multiset())
    # mls
    if rng.random() < 0.45:
        return NodeAtom(src, dst, _payload(rng))
    return ListSegAtom(src, dst, random_multiset(rng))


# ---------------------------------------------------------------------------
# Counting walks over variables
# ---------------------------------------------------------------------------

def count_variable_lookups(monkeypatch) -> list[int]:
    """Count calls of ``terms.var_of`` from here on; the one-element list
    holds the count.  Every walk over terms' variables asks ``var_of`` once
    per term, so the count measures how many term positions the program
    walked for their variables."""
    from shaperef import domains, heaps, oracle, prover, terms
    real = terms.var_of
    calls = [0]

    def counting(t):
        calls[0] += 1
        return real(t)

    for module in (terms, heaps, domains, prover, oracle):
        if hasattr(module, "var_of"):
            monkeypatch.setattr(module, "var_of", counting)
    return calls


# ---------------------------------------------------------------------------
# What interning sets
# ---------------------------------------------------------------------------

def set_at_interning(obj) -> dict:
    """What interning sets on an interned object beside its fields, in
    order, by a walk of the fields: a spatial atom's head, tail, data
    terms (contents as their keys, a wild payload as none) and mass (the
    contents' multiplicities, and one for a known payload); a multiset's
    keys and total; nothing for terms, pure atoms and true."""
    if isinstance(obj, Multiset):
        return {"_keys": tuple(t for t, _ in obj.items),
                "_total": sum(n for _, n in obj.items)}
    if not isinstance(obj, (NodeAtom, ListSegAtom, SortedSegAtom)):
        return {}
    terms, mass = [], 0
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, Multiset):
            terms += [t for t, _ in v.items]
            mass += sum(n for _, n in v.items)
        elif v is not None:
            terms.append(v)
            mass += f.name == "data"
    return {"head": terms[0], "tail": terms[1],
            "data_terms": tuple(terms[2:]), "mass": mass}


def interned_anew(obj, build):
    """``build(obj)`` with obj's entry out of its class's table, so that
    build makes a new object of obj's value the way a fresh process would;
    obj is back in the table afterwards."""
    values = obj._values()
    table, key = type(obj)._table, values[0] if len(values) == 1 else values
    assert table.pop(key) is obj
    try:
        return build(obj)
    finally:
        table[key] = obj
