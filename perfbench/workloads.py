"""The benchmark's workloads: how each builds its corpus from a seed, runs
one item through the program's public functions, and checks the outputs.

Every call into a layer goes through ``tr.call(name, ...)`` so that the
traced run can time it; ``tr`` is :data:`trace.OFF` in the untraced run.
An item adds its counts to the ``Counter`` it is given and returns
``(decided, record)``: ``decided`` is false when a bounded procedure
answered "unknown", and ``record`` holds the outputs the checks need.  The
record of an item that raised is None, and the checks skip it.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from shaperef.cfg import build_cfg
from shaperef.domains import abstract
from shaperef.heaps import Disj, Facts, normalize
from shaperef.lang import parse, render
from shaperef.oracle import BoundsTooLarge, OracleBounds, oracle_entails
from shaperef.prover import BudgetExceeded, Prover, choose, entails

from perfbench import gen


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


class Workload:
    name = ""
    size = 0            # distinct items in one pass over the corpus
    reference_size = 0  # items of the reference corpus the digests cover

    def corpus(self, rng: random.Random, size: int) -> list:
        raise NotImplementedError

    def run_item(self, item, tr, c: Counter) -> tuple[bool, object]:
        raise NotImplementedError

    def probe_heaps(self, item) -> list:
        """Input heaps of one item, for the traced run's direct calls to
        ``normalize`` and ``Facts``."""
        raise NotImplementedError

    def check(self, corpus: list, records: list) -> list[str]:
        """Problems with the outputs of one pass (empty when correct)."""
        raise NotImplementedError

    def forms(self, corpus: list, records: list) -> list[str]:
        """Canonical outputs whose digest identifies a pass."""
        raise NotImplementedError

    def reference_forms(self, corpus: list) -> list[str]:
        """Canonical forms of the reference corpus, computed afresh."""
        raise NotImplementedError

    def proved_share(self, c: Counter) -> float:
        raise NotImplementedError



# ---------------------------------------------------------------------------
# abstract: the fixpoint's join and subsumption queries
# ---------------------------------------------------------------------------

class AbstractWorkload(Workload):
    """normalize, abstract, then ``entails(h, alpha(h))`` and one entailment
    per rewrite step.  The queries are all distinct and all true."""

    name = "abstract"
    size = 3000
    reference_size = 300

    def corpus(self, rng, size):
        out = []
        for i in range(size):
            # shapes cycle so that every run has the same mix of domains,
            # chain lengths and true conjuncts; the seed picks the rest
            domain = gen.domain_of(i)
            n_atoms = 1 + (i // 3) % 4
            with_true = (i // 12) % 7 == 0
            raw = gen.heap(rng, domain, n_atoms, 3, with_true)
            out.append((raw, gen.param(rng, domain)))
        return out

    def run_item(self, item, tr, c):
        raw, param = item
        h = tr.call("heaps.normalize", normalize, raw)
        alpha, rewrite = tr.call("domains.abstract", abstract, h, param)
        c["abstract.calls"] += 1
        c["abstract.steps"] += len(rewrite.steps)
        decided = True
        queries = [(h, alpha)] + [(s.before, s.after) for s in rewrite.steps]
        for lhs, rhs in queries:
            c["entails.calls"] += 1
            try:
                c["entails.proved"] += \
                    tr.call("prover.entails", entails, lhs, rhs).holds
            except BudgetExceeded:
                c["entails.budget_exceeded"] += 1
                decided = False
        return decided, alpha

    def probe_heaps(self, item):
        return [item[0]]

    def check(self, corpus, records):
        problems = []
        for (raw, param), alpha in zip(corpus, records):
            if alpha is not None and abstract(alpha, param)[1].steps:
                problems.append(f"abstract is not idempotent on {alpha} "
                                f"({param.domain}, T={param.tracked})")
        return problems

    def forms(self, corpus, records):
        return [str(alpha) for alpha in records]

    def reference_forms(self, corpus):
        return [str(abstract(normalize(raw), param)[0])
                for raw, param in corpus]

    def proved_share(self, c):
        return _share(c["entails.proved"], c["entails.calls"])



# ---------------------------------------------------------------------------
# symexec: frontend, CFG, frame inference and abduction through a Prover
# ---------------------------------------------------------------------------

FOOTPRINT = ("load", "store", "assume", "assert")


class SymexecWorkload(Workload):
    """parse and build_cfg one program, then run ``Prover.frame_infer`` for
    every footprint edge and seeded state, abducing where no frame exists,
    and replay that query stream for further sweeps through the same
    Prover, as a fixpoint revisits edges."""

    name = "symexec"
    size = 600
    reference_size = 60
    sizes = (4, 8, 12, 16, 20, 24)  # statements per generated program
    n_states = 3
    sweeps = 3

    def corpus(self, rng, size):
        out = []
        for i in range(size):
            if i % 50 == 0:
                ast = parse(gen.RUNNING_EXAMPLE)
            else:
                ast = gen.program(rng, self.sizes[i % len(self.sizes)])
            ptrs, datas = gen.pointer_vars(ast), gen.data_vars(ast)
            states = tuple(gen.state(rng, ptrs, datas)
                           for _ in range(self.n_states))
            out.append((ast, render(ast), states,
                        tuple(str(s) for s in states)))
        return out

    def run_item(self, item, tr, c):
        _, text, states, state_keys = item
        ast = tr.call("lang.parse", parse, text)
        cfg = tr.call("cfg.build_cfg", build_cfg, ast)
        c["parse.stmts"] += ast.count_statements()
        c["cfg.edges"] += len(cfg.edges)
        queries = []
        for _, _, spec in cfg.edges:
            if spec.kind not in FOOTPRINT:
                continue
            pres = spec.pre.heaps if isinstance(spec.pre, Disj) \
                else (spec.pre,)
            for pre in pres:
                pre_key = str(pre)
                queries.extend((state, pre, (key, pre_key))
                               for state, key in zip(states, state_keys))
        prover = Prover()
        seen = set()
        decided = True
        answers = []
        for sweep in range(self.sweeps):
            for state, pre, key in queries:
                # A key's first query computes; later ones hit the memo.
                first = key not in seen
                seen.add(key)
                c["prover.calls"] += 1
                c["prover.repeats"] += not first
                try:
                    outs = tr.call("prover.frame_infer" if first
                                   else "prover.Prover.hit",
                                   prover.frame_infer, state, pre)
                except BudgetExceeded:
                    decided = False
                    continue
                c["frame.queries"] += 1
                c["frame.proved"] += bool(outs)
                if first:
                    c["frame.first"] += 1
                    c["frame.cases"] += len(outs)
                if outs:
                    answer = f"{len(outs)} frames"
                else:
                    c["prover.calls"] += 1
                    c["prover.repeats"] += not first
                    cands = tr.call("prover.abduce" if first
                                    else "prover.Prover.hit",
                                    prover.abduce, state, pre)
                    chosen = tr.call("prover.choose", choose, cands)
                    if first:
                        c["abduce.first"] += 1
                        c["abduce.candidates"] += len(cands)
                        c["abduce.false"] += chosen.is_false
                    answer = f"antiframe {chosen}"
                if sweep == 0:
                    answers.append(answer)
        c["prover.queries"] += prover.queries
        return decided, (ast, cfg, answers)

    def probe_heaps(self, item):
        return list(item[2])

    def check(self, corpus, records):
        problems = []
        for (ast, text, _, _), record in zip(corpus, records):
            if record is not None and record[0] != ast:
                problems.append(f"parse(render(ast)) != ast for:\n{text}")
        return problems

    def forms(self, corpus, records):
        return ["None" if r is None else r[1].to_dot() + "\n".join(r[2])
                for r in records]

    def reference_forms(self, corpus):
        return [build_cfg(parse(text)).to_dot() for _, text, _, _ in corpus]

    def proved_share(self, c):
        return _share(c["frame.proved"], c["frame.queries"])


# ---------------------------------------------------------------------------
# oracle: bounded-model soundness checks of abstraction
# ---------------------------------------------------------------------------

# The soundness tests' bounds: plain heaps up to 4 cells, heaps with a true
# conjunct up to 3 cells plus one extension cell.
PLAIN_BOUNDS = OracleBounds(max_cells=4, max_extension=1, n_spare_data=1,
                            max_models=4000, max_steps=200000)
TRUE_BOUNDS = OracleBounds(max_cells=3, max_extension=1, n_spare_data=1,
                           max_models=4000, max_steps=200000)


class OracleWorkload(Workload):
    """``oracle_entails(h, alpha(h))`` on seeded heaps of all three domains.
    Every verdict the oracle reaches must be "holds"."""

    name = "oracle"
    size = 1500
    reference_size = 300

    def corpus(self, rng, size):
        return gen.oracle_queries(rng, size, PLAIN_BOUNDS, TRUE_BOUNDS)

    def run_item(self, item, tr, c):
        h, alpha, param, bounds = item
        c["oracle.calls"] += 1
        try:
            verdict = tr.call("oracle.oracle_entails", oracle_entails,
                              h, alpha, bounds=bounds)
        except BoundsTooLarge:
            c["oracle.skipped"] += 1
            return False, None
        c["oracle.models_checked"] += verdict.models_checked
        c["oracle.holds"] += verdict.holds
        return True, verdict.holds

    def probe_heaps(self, item):
        return [item[0], item[1]]

    def check(self, corpus, records):
        return [f"oracle refutes {h} |- {alpha} "
                f"({param.domain}, T={param.tracked})"
                for (h, alpha, param, _), holds in zip(corpus, records)
                if holds is False]

    def forms(self, corpus, records):
        return [f"{alpha} {holds}"
                for (_, alpha, _, _), holds in zip(corpus, records)]

    def reference_forms(self, corpus):
        return [str(abstract(h, param)[0]) for h, _, param, _ in corpus]

    def proved_share(self, c):
        return _share(c["oracle.holds"], c["oracle.calls"])


WORKLOADS = {w.name: w for w in (AbstractWorkload(), SymexecWorkload(),
                                 OracleWorkload())}


def probe(tr, heaps) -> None:
    """The traced run's direct calls to ``normalize`` and ``Facts``."""
    for h in heaps:
        n = tr.call("heaps.normalize", normalize, h)
        tr.call("heaps.Facts", Facts, n.pure, n.spatial)
