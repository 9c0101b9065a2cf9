"""Random generators for heaps, multisets and abstraction parameters.

Shared by the differential/property suites.  Generation is biased toward
small consistent heaps in the shape the analysis actually produces: a chain
of node/segment atoms threaded head-to-tail, plus a few pure atoms over a
small pool of data terms.
"""

from __future__ import annotations

import random

from shaperef.terms import Const, LVar, Multiset, NIL, PVar
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
