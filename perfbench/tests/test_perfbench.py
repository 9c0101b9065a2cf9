"""Tests of the benchmark itself, on tiny corpora.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from perfbench import gen, run, speed, workloads
from perfbench.trace import OFF, Tracer
from shaperef.heaps import NodeAtom, SymbolicHeap, normalize
from shaperef.lang import Assign, Ast, NilE
from shaperef.oracle import OracleVerdict
from shaperef.terms import LVar, NIL, PVar

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = dict(size=9, seconds=0)


def tiny_run(name, seed=1, trace=False, **kw):
    return run.measure(name, seed, trace=trace, **{**TINY, **kw})


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    res = tiny_run(name)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= TINY["size"] * run.MIN_PASSES
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], float) and v["value"] > 0, k


# Layers each workload calls: their per-call times must be measured.
CALLED = {
    "abstract": ["heaps.Facts.us_per_call", "heaps.normalize.us_per_call",
                 "domains.abstract.us_per_call", "prover.entails.us_per_call",
                 "prover.entails.calls"],
    "symexec": ["heaps.Facts.us_per_call", "heaps.normalize.us_per_call",
                "lang.parse.us_per_stmt", "cfg.build_cfg.us_per_edge",
                "prover.frame_infer.us_per_call", "prover.abduce.us_per_call",
                "prover.Prover.us_per_query", "prover.Prover.queries",
                "prover.Prover.repeat_share"],
    "oracle": ["heaps.Facts.us_per_call", "heaps.normalize.us_per_call",
               "oracle.oracle_entails.us_per_call",
               "oracle.oracle_entails.models_checked_per_call"],
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    res = tiny_run(name, trace=True, trace_dir=tmp_path)
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for k in CALLED[name]:
        assert res["metrics"][k]["value"] > 0, k
    spans = [json.loads(line) for line in
             (tmp_path / f"trace-{name}-seed1.jsonl").read_text().splitlines()]
    assert sum(s["name"] == "item" for s in spans) == TINY["size"]
    called = {s["name"] for s in spans}
    assert {"heaps.normalize", "heaps.Facts"} <= called


def test_self_time_never_exceeds_wall_time():
    tr = Tracer()
    with tr.item(0):
        tr.call("outer", lambda: tr.call("inner", sum, range(10000)))
        tr.call("second", sorted, range(1000))
    self_times = tr.self_times()
    wall = max(s[2] for s in tr.spans) - min(s[1] for s in tr.spans)
    assert all(total >= 0 for _, total in self_times.values())
    assert sum(total for _, total in self_times.values()) <= wall + 1e-9
    for name, start, end, _, _ in tr.spans:
        assert self_times[name][1] <= end - start + 1e-9


def test_traced_workload_self_time_within_wall_time(tmp_path):
    tr = Tracer()
    wl = workloads.WORKLOADS["symexec"]
    for i, item in enumerate(wl.corpus(random.Random(3), 4)):
        with tr.item(i):
            wl.run_item(item, tr, Counter())
    wall = max(s[2] for s in tr.spans) - min(s[1] for s in tr.spans)
    assert sum(t for _, t in tr.self_times().values()) <= wall + 1e-9


def _result_line(capsys, name, seed, trace, tmp_path):
    res = tiny_run(name, seed=seed, trace=trace, trace_dir=tmp_path)
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(f"{name} seed=")]
    return res, line


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_counts_and_digests(name, capsys,
                                                     tmp_path):
    a, line_a = _result_line(capsys, name, 5, False, tmp_path)
    b, line_b = _result_line(capsys, name, 5, False, tmp_path)
    assert line_a == line_b
    for k in ("proved_share", "decided_share"):
        assert a["metrics"][k] == b["metrics"][k]
    ta, _ = _result_line(capsys, name, 5, True, tmp_path)
    tb, _ = _result_line(capsys, name, 5, True, tmp_path)
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] != "us" and m["name"] != "trace.overhead_share"]
    for k in counts:
        assert ta["metrics"][k] == tb["metrics"][k], k
    _, other = _result_line(capsys, name, 6, False, tmp_path)
    assert other[0].split()[2] != line_a[0].split()[2]


def test_slice_time_is_scaled_by_the_reference_times_around_it(monkeypatch):
    ref = speed.REFERENCE_S
    around = iter([ref, 2 * ref, 4 * ref])
    monkeypatch.setattr(speed, "reference_seconds", lambda: next(around))
    s = speed.Speed()
    assert s.scale() == pytest.approx(2 / 3)   # slice between ref and 2 ref
    assert s.scale() == pytest.approx(1 / 3)   # slice between 2 ref and 4 ref


def test_tampered_reference_digest_is_rejected():
    reference = json.loads(run.REFERENCE_FILE.read_text())
    reference["abstract"] = "0" * 64
    res = tiny_run("abstract", reference=reference)
    assert not res["correct"]


def test_failing_oracle_verdict_is_rejected(monkeypatch):
    monkeypatch.setattr(workloads, "oracle_entails",
                        lambda lhs, rhs, bounds: OracleVerdict(False))
    assert not tiny_run("oracle")["correct"]


def test_abstraction_that_is_not_idempotent_is_rejected():
    wl = workloads.WORKLOADS["abstract"]
    corpus = wl.corpus(random.Random(1), 3)
    # two nodes chained through an otherwise unused junction fold into one
    # segment, so this heap is not a fixpoint of abstraction
    chain = normalize(SymbolicHeap((), (NodeAtom(PVar("r"), LVar("j"), None),
                                        NodeAtom(LVar("j"), NIL, None))))
    records = [chain for _ in corpus]
    assert wl.check(corpus, records)
    good = [wl.run_item(item, OFF, Counter())[1] for item in corpus]
    assert wl.check(corpus, good) == []


def test_render_round_trip_failure_is_rejected():
    wl = workloads.WORKLOADS["symexec"]
    corpus = wl.corpus(random.Random(1), 2)
    records = [wl.run_item(item, OFF, Counter())[1] for item in corpus]
    assert wl.check(corpus, records) == []
    wrong = Ast((Assign("r", NilE()),))
    records[1] = (wrong,) + records[1][1:]
    assert wl.check(corpus, records)


def test_generated_programs_round_trip_through_render():
    rng = random.Random(11)
    for n in (1, 5, 12, 30):
        ast = gen.program(rng, n)
        assert workloads.parse(workloads.render(ast)) == ast


def test_generators_do_not_use_the_test_suite():
    for path in (ROOT / "perfbench").glob("*.py"):
        assert "gens" not in path.read_text(), path


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "abstract",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
