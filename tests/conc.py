"""Concrete reference interpreter for the source language.

States are (store, heap) pairs in the oracle's model representation:
values are ints (data sort) or ("a", k) address tuples with ("a", 0) as
nil; heaps map addresses to (next value, data value) pairs.  ``step`` is
the concrete semantics of each CFG edge command, and a run follows the
program's CFG (``cfg.build_cfg``), so control flow has one lowering: the
one the analysis runs.  The interpreter is the ground truth for
command-level exactness tests and for whole-program sanity runs.

A "*" draws from a pool matched to its position, mirroring the sorted
universes the model enumerator uses: next-pointer positions range over
the allocated addresses plus nil plus one dangling address, data
positions over the integer universe, and unconstrained positions
(plain assignment, comparison operands) over both.

Order comparisons are integer comparisons: applying "<" or "<=" to nil
or an address is a runtime type fault, like dereferencing a
non-allocated address.  Faults propagate through the connectives with
strong-Kleene strength: a conjunction with one false operand is false
even if the other faults, and dually for disjunction.
"""

from __future__ import annotations

from typing import Optional

from shaperef.cfg import Assume, Skip, build_cfg
from shaperef.lang import (AllocNode, AndC, Assert, Assign, Ast, Cond, Expr,
                           IntE, Load, NilE, NondetC, NondetE, NotC, OrC, RelC,
                           Store, VarE)
from shaperef.oracle import DANGLING, NIL_V

FAULT = "fault"


def addr_pool(heap: dict) -> list:
    return sorted(heap) + [NIL_V, DANGLING]


def mixed_pool(heap: dict, data: list) -> list:
    return list(data) + sorted(heap) + [NIL_V, DANGLING]


def expr_choices(e: Expr, store: dict, heap: dict, data: list,
                 position: str = "any") -> list:
    """Possible values of an expression; '*' branches over its position pool."""
    if isinstance(e, VarE):
        return [store[e.name]]
    if isinstance(e, NilE):
        return [NIL_V]
    if isinstance(e, IntE):
        return [e.value]
    if isinstance(e, NondetE):
        if position == "next":
            return addr_pool(heap)
        if position == "data":
            return list(data)
        return mixed_pool(heap, data)
    raise TypeError(f"not an expression: {e}")


def rel_holds(op: str, a, b):
    """Three-valued comparison: True, False, or FAULT (bad order operand)."""
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if not isinstance(a, int) or not isinstance(b, int):
        return FAULT
    return a <= b if op == "<=" else a < b


def _k_and(x, y):
    if x is False or y is False:
        return False
    if x is FAULT or y is FAULT:
        return FAULT
    return True


def _k_or(x, y):
    if x is True or y is True:
        return True
    if x is FAULT or y is FAULT:
        return FAULT
    return False


def _k_not(x):
    return FAULT if x is FAULT else not x


def cond_choices(c: Cond, store: dict, heap: dict, data: list) -> set:
    """Truth values the condition can take: True, False, and/or FAULT."""
    if isinstance(c, NondetC):
        return {True, False}
    if isinstance(c, RelC):
        return {rel_holds(c.op, a, b)
                for a in expr_choices(c.lhs, store, heap, data)
                for b in expr_choices(c.rhs, store, heap, data)}
    if isinstance(c, AndC):
        return {_k_and(x, y)
                for x in cond_choices(c.lhs, store, heap, data)
                for y in cond_choices(c.rhs, store, heap, data)}
    if isinstance(c, OrC):
        return {_k_or(x, y)
                for x in cond_choices(c.lhs, store, heap, data)
                for y in cond_choices(c.rhs, store, heap, data)}
    if isinstance(c, NotC):
        return {_k_not(x) for x in cond_choices(c.sub, store, heap, data)}
    raise TypeError(f"not a condition: {c}")


def _fresh_addr(heap: dict) -> tuple:
    k = max((a[1] for a in heap), default=0)
    return ("a", k + 1)


def step(cmd, store: dict, heap: dict, data: list) -> list[tuple]:
    """All outcomes of one CFG edge command, as (status, store', heap').

    A simple statement gives an "ok" successor per choice, or a "fault" on
    a dereference of a non-allocated address.  ``skip`` gives one "ok".
    ``assume`` gives an "ok" for a true outcome and nothing for a false
    one; ``assert`` gives "ok" or "assert-fail".  A condition's fault (an
    order comparison on an address) gives a "fault".  The stores and heaps
    of non-"ok" outcomes are None.
    """
    if isinstance(cmd, Skip):
        return [("ok", store, heap)]
    if isinstance(cmd, (Assume, Assert)):
        out = []
        # in a fixed order, as a run picks outcomes by position: a set
        # iterates by hash, and a string's hash changes between processes
        for v in sorted(cond_choices(cmd.cond, store, heap, data), key=str):
            if v is FAULT:
                out.append(("fault", None, None))
            elif v:
                out.append(("ok", store, heap))
            elif isinstance(cmd, Assert):
                out.append(("assert-fail", None, None))
        return out
    if isinstance(cmd, Assign):
        return [("ok", {**store, cmd.var: v}, dict(heap))
                for v in expr_choices(cmd.expr, store, heap, data)]
    if isinstance(cmd, AllocNode):
        addr = _fresh_addr(heap)
        new_heap = dict(heap)
        new_heap[addr] = (NIL_V, 0)  # placeholder, filled per choice below
        out = []
        for nv in expr_choices(cmd.nxt, store, new_heap, data, "next"):
            for dv in expr_choices(cmd.data, store, new_heap, data, "data"):
                h2 = dict(heap)
                h2[addr] = (nv, dv)
                out.append(("ok", {**store, cmd.var: addr}, h2))
        return out
    if isinstance(cmd, Load):
        a = store[cmd.src]
        if a not in heap:
            return [("fault", None, None)]
        nx, d = heap[a]
        v = nx if cmd.field == "next" else d
        return [("ok", {**store, cmd.var: v}, dict(heap))]
    if isinstance(cmd, Store):
        a = store[cmd.dst]
        if a not in heap:
            return [("fault", None, None)]
        nx, d = heap[a]
        out = []
        for v in expr_choices(cmd.expr, store, heap, data, position=cmd.field):
            h2 = dict(heap)
            h2[a] = (v, d) if cmd.field == "next" else (nx, v)
            out.append(("ok", dict(store), h2))
        return out
    raise TypeError(f"not an edge command: {cmd}")


def exec_program(ast: Ast, rng, data: Optional[list] = None,
                 fuel: int = 500) -> tuple[str, dict, dict]:
    """One random run along the program's CFG; returns (status, store, heap).

    Status is "ok" on reaching the end node, "assert-fail" or "fault" as
    the failing edge's outcome, with the state before that edge, or "fuel"
    once ``fuel`` edges are taken.  At each node the rng picks one
    (out-edge, outcome) pair, which resolves '*' values and branches.
    """
    data = data if data is not None else [0, 1, 2, 3]
    cfg = build_cfg(ast)
    node, store, heap = cfg.start, {}, {}
    while node != cfg.end:
        if fuel <= 0:
            return "fuel", store, heap
        fuel -= 1
        dst, (status, st2, h2) = rng.choice(
            [(dst, outcome) for _, dst, spec in cfg.out_edges(node)
             for outcome in step(spec.cmd, store, heap, data)])
        if status != "ok":
            return status, store, heap
        node, store, heap = dst, st2, h2
    return "ok", store, heap


def canon_state(store: dict, heap: dict) -> tuple:
    """Canonical form of a state up to renaming of allocated addresses.

    Cells are numbered in discovery order: store variables in name order,
    then a next-pointer walk in numbering order.  Leftover unreachable
    cells get deterministic trailing numbers.  Dangling addresses (not
    nil, not allocated) canonicalize by order of first appearance.
    """
    ids: dict = {}
    dangling: dict = {}

    def visit(v):
        if not isinstance(v, tuple) or v == NIL_V:
            return
        if v in heap:
            if v not in ids:
                ids[v] = len(ids) + 1
                visit(heap[v][0])
        else:
            dangling.setdefault(v, len(dangling) + 1)

    for name in sorted(store):
        visit(store[name])
    for a in sorted(set(heap) - set(ids),
                    key=lambda a: (str(heap[a][1]), str(heap[a][0]))):
        visit(a)

    def rename(v):
        if isinstance(v, tuple):
            if v == NIL_V:
                return "nil"
            if v in ids:
                return ("c", ids[v])
            return ("d", dangling[v])
        return v

    stack = tuple((name, rename(store[name])) for name in sorted(store))
    cells = tuple(sorted((ids[a], rename(nx), rename(d))
                         for a, (nx, d) in heap.items()))
    return (stack, cells)
