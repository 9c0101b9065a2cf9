"""Control-flow graphs over atomic commands, each edge carrying a local
pre/post specification.

Atomic commands and their specifications (x, y program variables; n', d',
w1' placeholders freshened per application; old_x' names the value x held
before the command):

    assume(e)        {true}              {e /\\ true}          modifies {}
    assert(e)        {e /\\ true}        {e /\\ true}          modifies {}
    x = e            {emp}               {x = e<old> /\\ emp}  modifies {x}
    x = new Node(n,d){emp}               {node(x, n<old>, d<old>)}
                                                               modifies {x}
    x = y->next      {node(y, n', d')}   {node(y<old>, n', d') /\\ x = n'}
                                                               modifies {x}
    x = y->data      {node(y, n', d')}   {node(y<old>, n', d') /\\ x = d'}
                                                               modifies {x}
    y->next = e      {node(y, n', d')}   {node(y, e, d')}      modifies {}
    y->data = e      {node(y, n', d')}   {node(y, n', e)}      modifies {}

e<old> substitutes old_x' for x when the command overwrites x, so posts
never mention the overwritten value under its program name.  A "*" in
expression position becomes a fresh placeholder (an arbitrary value); a
"*" in the data argument of an allocation leaves the payload wild.
Specifications are tight: they mention exactly the cells the command
touches, so a state without the footprint cell has no valid transition.

Each edge's specification keeps the command it specifies (``spec.cmd``),
so the edge can be run concretely as well as symbolically.  Its ``kind``
is read off the command's class and its ``label`` renders the command;
neither is stored.

Branching conditions are compiled to disjunctive-normal-form case lists;
an assume edge's post is a disjunction when its condition needs one (e.g.
the negation of a conjunction).  Branch nodes carry one assume-labeled
edge per side, so every node either has a single successor or all of its
out-edges are assume edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterator, Optional, Union

from . import lang
from .heaps import Disj, EMP_HEAP, NodeAtom, SymbolicHeap, TRUE_SPATIAL
from .lang import (AllocNode, AndC, Assert, Assign, Cond, Expr, If, IntE,
                   Load, NilE, NondetC, NondetE, NotC, OrC, RelC, Store,
                   VarE, While)
from .terms import (Const, LVar, NIL, PVar, PureAtom, Term, eq, leq, lt,
                    neq, subst_term)

TRUE_HEAP = SymbolicHeap((), (TRUE_SPATIAL,))


@dataclass(frozen=True)
class Assume:
    """Synthesized branch-edge command (not a source statement)."""

    cond: Cond


@dataclass(frozen=True)
class Skip:
    """Synthesized no-op edge command for degenerate empty branches."""


Command = Union[Assume, Skip, Assign, AllocNode, Load, Store, Assert]

_KINDS = {Assume: "assume", Skip: "skip", Assert: "assert", Assign: "assign",
          AllocNode: "alloc", Load: "load", Store: "store"}


@dataclass(frozen=True)
class CommandSpec:
    """Tight local specification of one atomic command, which it keeps.

    ``kind`` names the command's class, and ``label`` renders the command:
    ``assume(cond)``, ``skip``, or the statement as the source writes it.
    """

    cmd: Command
    pre: SymbolicHeap
    post: Union[SymbolicHeap, Disj]
    modifies: frozenset

    @property
    def kind(self) -> str:
        return _KINDS[type(self.cmd)]

    @property
    def label(self) -> str:
        if isinstance(self.cmd, Assume):
            return f"assume({lang.render_cond(self.cmd.cond)})"
        if isinstance(self.cmd, Skip):
            return "skip"
        return lang.render_stmt(self.cmd)

    def post_cases(self) -> tuple[SymbolicHeap, ...]:
        if isinstance(self.post, Disj):
            return self.post.heaps
        return (self.post,)

    def __str__(self) -> str:
        return (f"{{{self.pre}}} {self.label} {{{self.post}}}")


# ---------------------------------------------------------------------------
# Expression / condition translation
# ---------------------------------------------------------------------------

def _expr_term(e: Expr, wild: Iterator[int]) -> Term:
    """The term of an expression; a "*" takes the next placeholder number
    from ``wild``, which counts within one specification."""
    if isinstance(e, VarE):
        return PVar(e.name)
    if isinstance(e, NilE):
        return NIL
    if isinstance(e, IntE):
        return Const(e.value)
    if isinstance(e, NondetE):
        return LVar(f"w{next(wild)}")
    raise TypeError(f"not an expression: {e}")


_REL_MAKERS = {"==": eq, "!=": neq, "<=": leq, "<": lt}

# the comparison that holds exactly where one fails, and whether it swaps
# the operands
_NEGATED = {"==": ("!=", False), "!=": ("==", False),
            "<=": ("<", True), "<": ("<=", True)}


def negate(c: Cond) -> Cond:
    """Negation of a condition, pushed through connectives.

    A nondeterministic condition negates to itself: both branches of a
    "*" test are reachable, so assuming "not *" constrains nothing.
    """
    if isinstance(c, NondetC):
        return NondetC()
    if isinstance(c, RelC):
        op, swap = _NEGATED[c.op]
        return RelC(op, c.rhs, c.lhs) if swap else RelC(op, c.lhs, c.rhs)
    if isinstance(c, AndC):
        return OrC(negate(c.lhs), negate(c.rhs))
    if isinstance(c, OrC):
        return AndC(negate(c.lhs), negate(c.rhs))
    if isinstance(c, NotC):
        return c.sub
    raise TypeError(f"not a condition: {c}")


def cond_cases(c: Cond, wild: Optional[Iterator[int]] = None
               ) -> tuple[tuple[PureAtom, ...], ...]:
    """Disjunctive normal form: a tuple of conjunctive cases.

    A nondeterministic test contributes an unconstrained case; each "*"
    in a comparison operand becomes its own placeholder.
    """
    wild = wild or count(1)
    if isinstance(c, NondetC):
        return ((),)
    if isinstance(c, RelC):
        atom = _REL_MAKERS[c.op](_expr_term(c.lhs, wild),
                                 _expr_term(c.rhs, wild))
        return ((atom,),)
    if isinstance(c, AndC):
        return tuple(a + b
                     for a in cond_cases(c.lhs, wild)
                     for b in cond_cases(c.rhs, wild))
    if isinstance(c, OrC):
        return cond_cases(c.lhs, wild) + cond_cases(c.rhs, wild)
    if isinstance(c, NotC):
        return cond_cases(negate(c.sub), wild)
    raise TypeError(f"not a condition: {c}")


def _cond_post(c: Cond) -> Union[SymbolicHeap, Disj]:
    heaps = tuple(SymbolicHeap(case, (TRUE_SPATIAL,))
                  for case in cond_cases(c))
    if len(heaps) == 1:
        return heaps[0]
    return Disj(heaps)


def old_var(name: str) -> LVar:
    """Placeholder naming the pre-command value of an overwritten variable."""
    return LVar(f"old_{name}")


# ---------------------------------------------------------------------------
# The specification table
# ---------------------------------------------------------------------------

def spec_of(cmd: Command) -> CommandSpec:
    """Tight local pre/post specification of one atomic command."""
    if isinstance(cmd, (Assume, Assert)):
        post = _cond_post(cmd.cond)
        pre = TRUE_HEAP if isinstance(cmd, Assume) else post
        return CommandSpec(cmd, pre, post, frozenset())
    if isinstance(cmd, Skip):
        return CommandSpec(cmd, EMP_HEAP, EMP_HEAP, frozenset())
    wild = count(1)
    if isinstance(cmd, (Assign, AllocNode)):
        x = PVar(cmd.var)
        renaming = {x: old_var(cmd.var)}
        if isinstance(cmd, Assign):
            t = subst_term(_expr_term(cmd.expr, wild), renaming)
            post = SymbolicHeap((eq(x, t),), ())
        else:
            nxt = subst_term(_expr_term(cmd.nxt, wild), renaming)
            data = None if isinstance(cmd.data, NondetE) \
                else subst_term(_expr_term(cmd.data, wild), renaming)
            post = SymbolicHeap((), (NodeAtom(x, nxt, data),))
        return CommandSpec(cmd, EMP_HEAP, post, frozenset([x]))
    if isinstance(cmd, (Load, Store)):
        y = PVar(cmd.src if isinstance(cmd, Load) else cmd.dst)
        n, d = LVar("n"), LVar("d")
        pre = SymbolicHeap((), (NodeAtom(y, n, d),))
        if isinstance(cmd, Load):
            x = PVar(cmd.var)
            y_post = old_var(cmd.src) if cmd.var == cmd.src else y
            got = n if cmd.field == "next" else d
            post = SymbolicHeap((eq(x, got),), (NodeAtom(y_post, n, d),))
            return CommandSpec(cmd, pre, post, frozenset([x]))
        e = _expr_term(cmd.expr, wild)
        atom = NodeAtom(y, e, d) if cmd.field == "next" else NodeAtom(y, n, e)
        return CommandSpec(cmd, pre, SymbolicHeap((), (atom,)), frozenset())
    raise TypeError(f"not an atomic command: {cmd}")


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------

Edge = tuple[str, str, CommandSpec]


@dataclass(frozen=True)
class Cfg:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    start: str
    end: str
    loop_heads: frozenset

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            out[e[0]].append(e)
        return {n: tuple(es) for n, es in out.items()}

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._out[node]

    def succ(self, node: str) -> tuple[str, ...]:
        return tuple(e[1] for e in self._out[node])

    def spec(self, src: str, dst: str) -> CommandSpec:
        for a, b, spec in self._out[src]:
            if b == dst:
                return spec
        raise KeyError(f"no edge {src} -> {dst}")

    def to_dot(self) -> str:
        lines = ["digraph cfg {", "  rankdir=TB;"]
        for n in self.nodes:
            attrs = []
            if n in (self.start, self.end):
                attrs.append("shape=oval")
            else:
                attrs.append("shape=circle")
            if n in self.loop_heads:
                attrs.append("style=filled")
                attrs.append("fillcolor=lightgrey")
            lines.append(f'  "{n}" [{", ".join(attrs)}];')
        for src, dst, spec in self.edges:
            label = spec.label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class _CfgDraft:
    """The nodes, edges and loop heads of a graph under construction.  Its
    methods are not closures, so a built graph holds no reference cycle and
    is freed by reference counting alone."""

    def __init__(self):
        self.nodes: list[str] = ["start"]
        self.edges: list[Edge] = []
        self.loop_heads: set[str] = set()

    def fresh(self) -> str:
        name = f"l{len(self.nodes)}"
        self.nodes.append(name)
        return name

    def seq(self, stmts, entry: str, target: str) -> None:
        cur = entry
        for i, s in enumerate(stmts):
            cur = self.one(s, cur, target if i == len(stmts) - 1 else None)

    def one(self, s, entry: str, target: Optional[str]) -> str:
        edges = self.edges
        if isinstance(s, (Assign, AllocNode, Load, Store, Assert)):
            out = target or self.fresh()
            edges.append((entry, out, spec_of(s)))
            return out
        if isinstance(s, While):
            head = entry
            self.loop_heads.add(head)
            if s.body:
                body_entry = self.fresh()
                edges.append((head, body_entry, spec_of(Assume(s.cond))))
                self.seq(s.body, body_entry, head)
            else:
                edges.append((head, head, spec_of(Assume(s.cond))))
            out = target or self.fresh()
            edges.append((head, out, spec_of(Assume(negate(s.cond)))))
            return out
        if isinstance(s, If):
            head = entry
            join = target or self.fresh()
            if s.then:
                then_entry = self.fresh()
                edges.append((head, then_entry, spec_of(Assume(s.cond))))
                self.seq(s.then, then_entry, join)
            if s.els:
                else_entry = self.fresh()
                edges.append((head, else_entry,
                              spec_of(Assume(negate(s.cond)))))
                self.seq(s.els, else_entry, join)
            if not s.then:
                if s.els:
                    edges.append((head, join, spec_of(Assume(s.cond))))
                else:
                    mid = self.fresh()
                    edges.append((head, mid, spec_of(Assume(s.cond))))
                    edges.append((mid, join, spec_of(Skip())))
            if not s.els:
                edges.append((head, join, spec_of(Assume(negate(s.cond)))))
            return join
        raise TypeError(f"not a statement: {s}")


def build_cfg(ast: lang.Ast) -> Cfg:
    """Compile a program to its control-flow graph.

    Nodes are "start", "end", and "l1", "l2", ... in creation order.  A
    while head is the node reached before its test; it carries an
    assume(cond) edge into the body (or to itself when the body is empty),
    an assume(not cond) edge past the loop, and receives the body's final
    edge back.  Loop heads are recorded as the abstraction points.
    """
    draft = _CfgDraft()
    if ast.stmts:
        draft.seq(ast.stmts, "start", "end")
    else:
        draft.edges.append(("start", "end", spec_of(Skip())))
    draft.nodes.append("end")
    nodes, edges, loop_heads = draft.nodes, draft.edges, draft.loop_heads

    seen_pairs = set()
    for src, dst, _ in edges:
        if (src, dst) in seen_pairs:
            raise AssertionError(f"parallel edges {src} -> {dst}")
        seen_pairs.add((src, dst))
    by_src: dict[str, list[CommandSpec]] = {}
    for src, dst, spec in edges:
        by_src.setdefault(src, []).append(spec)
    for src, specs in by_src.items():
        if len(specs) > 1 and any(sp.kind != "assume" for sp in specs):
            raise AssertionError(f"non-assume branch at {src}")
    if any(src == "end" for src, _, _ in edges):
        raise AssertionError("edge out of end")

    return Cfg(nodes=tuple(nodes),
               edges=tuple(edges),
               start="start",
               end="end",
               loop_heads=frozenset(loop_heads))
