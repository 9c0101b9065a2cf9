"""The analyzer's calls leave no reference cycle behind: what they build is
freed by reference counting alone, so the cyclic garbage collector has
nothing to do and its pauses fall on no layer."""

import gc
from pathlib import Path

from shaperef.cfg import build_cfg
from shaperef.domains import AbstractionParam, abstract
from shaperef.heaps import Disj
from shaperef.lang import parse, render
from shaperef.oracle import OracleBounds, oracle_entails
from shaperef.prover import Prover, choose
from shaperef.syntax import parse_heap as H
from shaperef.terms import Multiset

RUNNING_EXAMPLE = (Path(__file__).resolve().parent.parent / "benchmarks"
                   / "running_example.hl").read_text()

STATES = ["t=r /\\ node(r,j0',{x})*list(j0',nil)",
          "t=nil /\\ list(r,nil)",
          "res=0 /\\ d=x /\\ node(t,nil,{d})"]


def _exercise() -> None:
    """The frontend, the CFG, frame inference and abduction on every
    footprint pre, abstraction and the oracle, as the analyzer calls them."""
    ast = parse(RUNNING_EXAMPLE)
    assert ast.count_statements() == 15
    assert ast.variables() == ("r", "x", "t", "res", "d")
    assert parse(render(ast)) == ast
    cfg = build_cfg(ast)
    prover = Prover()
    abduced = 0
    for _, _, spec in cfg.edges:
        if spec.kind not in ("load", "store", "assert"):
            continue
        pres = spec.pre.heaps if isinstance(spec.pre, Disj) else (spec.pre,)
        for state in map(H, STATES):
            for pre in pres:
                if not prover.frame_infer(state, pre):
                    choose(prover.abduce(state, pre))
                    abduced += 1
    assert abduced > 0
    h = H("node(r,j0',{x})*node(j0',j1',_)*node(j1',nil,_)")
    alpha, trace = abstract(h, AbstractionParam("mls", Multiset()))
    assert trace.steps
    bounds = OracleBounds(max_cells=3, max_extension=1, n_spare_data=1,
                          max_models=4000, max_steps=200000)
    assert oracle_entails(h, alpha, bounds=bounds).holds


def test_calls_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        _exercise()
        assert gc.collect() == 0
    finally:
        gc.enable()
