"""Outputs do not depend on the process: terms hash by identity, so sets
of terms iterate in an order set by object addresses, and no answer may
follow that order."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from shaperef.heaps import SymbolicHeap, normalize

from gens import random_heap

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# argv[1]: how many throwaway objects to allocate before the import, so
# that the terms the run builds land at other addresses
_DIGEST_SCRIPT = """
import hashlib, random, sys
junk = [(object(), str(i)) for i in range(int(sys.argv[1]))]
from shaperef.domains import AbstractionParam, abstract
from shaperef.heaps import SymbolicHeap, normalize
from shaperef.prover import abduce, choose, entails, frame_infer
from gens import random_heap, random_param_multiset

def inst(outcome):
    return sorted(f"{k}:{v}" for k, v in outcome.instantiation.items())

rng = random.Random(5)
digest = hashlib.sha256()
for _ in range(20):
    for domain in ("mls", "rls", "sls"):
        for with_true in (False, True):
            h = random_heap(rng, domain=domain, max_atoms=4,
                            with_true=with_true, n_pure=2)
            param = AbstractionParam(domain, random_param_multiset(rng))
            alpha, trace = abstract(h, param)
            out = [str(h), str(alpha), trace.render(),
                   str(inst(entails(h, alpha)))]
            for o in frame_infer(h, SymbolicHeap((), h.spatial[:1])):
                out.append(f"{o.frame} {inst(o)}")
            cands = abduce(normalize(SymbolicHeap(h.pure, h.spatial[1:])),
                           alpha)
            out.append(" | ".join(map(str, cands)) + " => "
                       + str(choose(cands)))
            digest.update(("\\n".join(out) + "\\n").encode())
print(digest.hexdigest())
"""


def _digest(hash_seed: str, junk: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, str(junk)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.strip()


def test_outputs_are_the_same_in_differently_laid_out_processes():
    first = _digest("1", 0)
    second = _digest("2", 5000)
    assert len(first) == 64
    assert first == second


# argv[1]: the seed of the heaps; prints them pickled, as hex, after
# filling every cache each one holds
_PICKLE_SCRIPT = """
import pickle, sys
from shaperef.heaps import normalize
from test_determinism import _seeded_heaps
heaps = _seeded_heaps(int(sys.argv[1]))
for h in heaps:
    assert normalize(h) is h
    h.facts, hash(h), h.vars()
print(pickle.dumps(heaps).hex())
"""


def _seeded_heaps(seed: int) -> list[SymbolicHeap]:
    rng = random.Random(seed)
    return [random_heap(rng, domain, max_atoms=3, with_true=True)
            for _ in range(20) for domain in ("mls", "rls", "sls")]


def test_heaps_pickled_in_another_process_hash_like_fresh_ones():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, "3"],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    loaded = pickle.loads(bytes.fromhex(done.stdout.strip()))
    fresh = _seeded_heaps(3)
    assert loaded == fresh
    pool = set(fresh)
    for h, f in zip(loaded, fresh):
        assert set(vars(h)) == {"pure", "spatial"}  # no cache travels
        assert hash(h) == hash(f) and h in pool
        assert normalize(h) is h  # canonical, though not marked


def test_copies_of_a_heap_carry_only_its_fields():
    for h in _seeded_heaps(4):
        h.facts, hash(h), h.vars()
        for c in (copy.copy(h), copy.deepcopy(h)):
            assert c == h and c is not h
            assert set(vars(c)) == {"pure", "spatial"}
            assert hash(c) == hash(h)
