"""Benchmark of the shaperef layers on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload abstract --seed 1 --seconds 30 --trace 0

Workloads are ``abstract``, ``symexec`` and ``oracle`` (see README.md).
With ``--trace 0`` the run sets the corpus up from the seed five times,
then makes passes over it, at least three and until ``--seconds`` have
passed, in one process and one thread, each item starting when the
previous one ends; it reports the end-to-end metrics, with times scaled to
a fixed host speed (see speed.py).  With ``--trace 1`` it runs every item
of one pass untraced and then traced and reports the per-layer metrics
and the tracing overhead; the spans go to ``.perfbench/``.  Either way it
checks the outputs and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only when the outputs are
correct, and 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WARMUP_ITEMS = 3
MIN_PASSES = 3
SETUPS = 5
SLICE_SECONDS = 0.025
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class _Items:
    """Runs items, timing each and counting the ones that raise."""

    def __init__(self, wl):
        self.wl = wl
        self.failed = 0

    def run(self, item, tr, c: Counter):
        start = perf_counter()
        try:
            decided, record = self.wl.run_item(item, tr, c)
        except Exception:  # an error in the program: count it, keep going
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            decided, record = False, None
        return perf_counter() - start, decided, record


def setup(wl, seed: int, size: int, off) -> tuple[list, float]:
    """Build the corpus and run a few items; returns (corpus, seconds)."""
    start = perf_counter()
    corpus = wl.corpus(random.Random(seed), size)
    for item in corpus[:WARMUP_ITEMS]:
        wl.run_item(item, off, Counter())
    return corpus, perf_counter() - start


def check(wl, corpus: list, records: list, reference: dict) -> list[str]:
    """The pass's own output checks, then the reference digest."""
    from perfbench.workloads import digest
    problems = wl.check(corpus, records)
    ref_corpus = wl.corpus(random.Random(reference["seed"]),
                           wl.reference_size)
    got = digest(wl.reference_forms(ref_corpus))
    if got != reference[wl.name]:
        problems.append(f"{wl.name}: canonical forms of the reference corpus "
                        f"changed (digest {got}, recorded "
                        f"{reference[wl.name]})")
    return problems


def layer_metrics(layers: dict, c: Counter, n_items: int) -> dict:
    """Per-layer metrics of one traced pass from span self times and the
    items' counts.  A layer the workload does not call reads 0."""
    def us(*spans: str, per: float | None = None) -> float:
        n = sum(layers.get(s, (0, 0.0))[0] for s in spans)
        total = sum(layers.get(s, (0, 0.0))[1] for s in spans)
        den = n if per is None else per
        return 1e6 * total / den if den else 0.0

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    return {
        "heaps.Facts.us_per_call": (us("heaps.Facts"), "us"),
        "heaps.normalize.us_per_call": (us("heaps.normalize"), "us"),
        "domains.abstract.us_per_call": (us("domains.abstract"), "us"),
        "domains.abstract.steps_per_call":
            (ratio("abstract.steps", "abstract.calls"), "1/call"),
        "prover.entails.us_per_call": (us("prover.entails"), "us"),
        "prover.entails.calls": (c["entails.calls"] / n_items, "1/item"),
        "prover.entails.budget_exceeded":
            (c["entails.budget_exceeded"], "count"),
        "prover.frame_infer.us_per_call": (us("prover.frame_infer"), "us"),
        "prover.frame_infer.cases_per_call":
            (ratio("frame.cases", "frame.first"), "1/call"),
        "prover.abduce.us_per_call": (us("prover.abduce"), "us"),
        "prover.abduce.candidates_per_call":
            (ratio("abduce.candidates", "abduce.first"), "1/call"),
        "prover.abduce.false_share":
            (ratio("abduce.false", "abduce.first"), "share"),
        "prover.Prover.queries": (c["prover.queries"] / n_items, "1/item"),
        "prover.Prover.repeat_share":
            (ratio("prover.repeats", "prover.calls"), "share"),
        "prover.Prover.us_per_query":
            (us("prover.frame_infer", "prover.abduce", "prover.Prover.hit"),
             "us"),
        "lang.parse.us_per_stmt":
            (us("lang.parse", per=c["parse.stmts"]), "us"),
        "cfg.build_cfg.us_per_edge":
            (us("cfg.build_cfg", per=c["cfg.edges"]), "us"),
        "oracle.oracle_entails.us_per_call":
            (us("oracle.oracle_entails"), "us"),
        "oracle.oracle_entails.models_checked_per_call":
            (ratio("oracle.models_checked", "oracle.calls"), "1/call"),
        "oracle.oracle_entails.skipped_share":
            (ratio("oracle.skipped", "oracle.calls"), "share"),
        "trace.item_self_us": (us("item"), "us"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: int | None = None, import_s: float = 0.0,
            reference: dict | None = None,
            trace_dir: Path | None = None) -> dict:
    """Run one workload and return the result object (see module doc)."""
    from perfbench.speed import Speed
    from perfbench.trace import OFF, Tracer
    from perfbench.workloads import WORKLOADS, digest, probe

    wl = WORKLOADS[name]
    size = size or wl.size
    reference = reference or json.loads(REFERENCE_FILE.read_text())
    items = _Items(wl)
    counts = Counter()
    records = []
    decided = 0

    if not trace:
        # SETUPS set-ups, each building the corpus afresh from the seed;
        # then MIN_PASSES whole passes over the corpus, and on until the
        # time is up (set-ups included).  Items run in slices of about
        # SLICE_SECONDS; each slice's wall time is scaled to the reference
        # speed of the host (see speed.py).  An item's latency is the
        # median of its scaled times over the passes.
        speed = Speed()
        start = perf_counter()
        setup_times = []
        for _ in range(SETUPS):
            corpus, t = setup(wl, seed, size, OFF)
            setup_times.append(t * speed.scale())
        times = [[] for _ in corpus]
        raw = 0.0
        n_passes = 0
        while n_passes < MIN_PASSES or perf_counter() - start < seconds:
            first_pass = not n_passes
            in_slice, slice_s = [], 0.0
            for i, item in enumerate(corpus):
                dt, ok, record = items.run(item, OFF,
                                           counts if first_pass else Counter())
                in_slice.append((i, dt))
                slice_s += dt
                if first_pass:
                    decided += ok
                    records.append(record)
                if slice_s >= SLICE_SECONDS or i == len(corpus) - 1:
                    scale = speed.scale()
                    for j, t in in_slice:
                        times[j].append(t * scale)
                        raw += t
                    in_slice, slice_s = [], 0.0
                    if (n_passes >= MIN_PASSES
                            and perf_counter() - start >= seconds):
                        break
            n_passes += 1
        latency = sorted(statistics.median(ts) for ts in times)
        p50, p95 = _quantile(latency, 0.50), _quantile(latency, 0.95)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "items_per_s": (len(latency) / sum(latency), "1/s"),
            "item_p50_ms": (1e3 * p50, "ms"),
            "item_p95_ms": (1e3 * p95, "ms"),
            "decided_share": (decided / len(corpus), "share"),
            "proved_share": (wl.proved_share(counts), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        attempted = sum(len(ts) for ts in times)
        print(f"unscaled: {attempted / raw:.1f} items per wall second over "
              f"{n_passes} passes; reference computation "
              f"{1e3 * statistics.median(speed.samples):.3f} ms (median)")
    else:
        corpus, _ = setup(wl, seed, size, OFF)
        tracer = Tracer()
        untraced = 0.0
        for i, item in enumerate(corpus):
            dt, _, _ = items.run(item, OFF, Counter())
            untraced += dt
            with tracer.item(i):
                _, ok, record = items.run(item, tracer, counts)
            decided += ok
            records.append(record)
            probe(tracer, wl.probe_heaps(item))
        traced = sum(end - start for span, start, end, _, _ in tracer.spans
                     if span == "item")
        metrics = layer_metrics(tracer.self_times(), counts, len(corpus))
        metrics["trace.overhead_share"] = (traced / untraced - 1, "share")
        attempted = len(corpus)
        tracer.write((trace_dir or ROOT / ".perfbench")
                     / f"trace-{name}-seed{seed}.jsonl")

    problems = check(wl, corpus, records, reference)
    for p in problems[:5]:
        print("CHECK FAILED:", p, file=sys.stderr)
    # Same seed, same code: the same line.  The determinism test compares it.
    print(f"{name} seed={seed} digest={digest(wl.forms(corpus, records))} "
          f"counts={json.dumps(dict(sorted(counts.items())))}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": items.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("abstract", "symexec", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.speed import Speed
    speed = Speed()
    start = perf_counter()
    try:
        import shaperef
        from perfbench import workloads  # noqa: F401  (imports every layer)
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    import_s = (perf_counter() - start) * speed.scale()
    if not Path(shaperef.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"shaperef was imported from {shaperef.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s=import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
