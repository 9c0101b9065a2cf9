"""Control-flow graph and command-specification tests.

The exactness tests compare each axiom's pre/post against the concrete
reference interpreter over all small states: every concrete successor
must satisfy the post, and every small model of the post must be a
concrete successor of some sampled pre-state (up to address renaming).
"""

import hashlib
import itertools
import random
from pathlib import Path

import pytest

from shaperef.cfg import (Assume, Cfg, CommandSpec, Skip, build_cfg,
                          cond_cases, negate, spec_of)
from shaperef.heaps import Disj, EMP_HEAP, NodeAtom, SymbolicHeap
from shaperef.lang import (AndC, IntE, NilE, NondetC, NondetE, NotC, OrC,
                           RelC, VarE, Ast, parse)
from shaperef.oracle import NIL_V, OracleBounds, _eval_pure, models, satisfies
from shaperef.prover import frame_infer
from shaperef.terms import Const, LVar, PVar

from conc import (DANGLING, _k_not, canon_state, cond_choices, exec_program,
                  mixed_pool, step)

RUNNING_EXAMPLE = (Path(__file__).resolve().parent.parent / "benchmarks"
                   / "running_example.hl").read_text()

SMALL = OracleBounds(max_cells=2, max_extension=0, n_spare_data=0,
                     max_models=5000, max_steps=100000)


def spec_for(text: str) -> CommandSpec:
    return spec_of(parse(text).stmts[0])


# ---------------------------------------------------------------------------
# CFG construction: the membership-scan example, pinned
# ---------------------------------------------------------------------------

EXPECTED_EDGES = [
    ("start", "l1", "assign", "r = nil;"),
    ("l1", "l2", "assume", "assume(*)"),
    ("l2", "l1", "alloc", "r = new Node(r, *);"),
    ("l1", "l3", "assume", "assume(*)"),
    ("l3", "l4", "assign", "x = *;"),
    ("l4", "l5", "alloc", "r = new Node(r, x);"),
    ("l5", "l6", "assume", "assume(*)"),
    ("l6", "l5", "alloc", "r = new Node(r, *);"),
    ("l5", "l7", "assume", "assume(*)"),
    ("l7", "l8", "assign", "t = r;"),
    ("l8", "l9", "assign", "res = 0;"),
    ("l9", "l10", "assume", "assume(res == 0 && t != nil)"),
    ("l10", "l11", "load", "d = t->data;"),
    ("l11", "l13", "assume", "assume(d == x)"),
    ("l13", "l12", "assign", "res = 1;"),
    ("l11", "l12", "assume", "assume(d != x)"),
    ("l12", "l9", "load", "t = t->next;"),
    ("l9", "l14", "assume", "assume(res != 0 || t == nil)"),
    ("l14", "end", "assert", "assert(res == 1);"),
]


def test_running_example_cfg_shape():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    assert cfg.start == "start" and cfg.end == "end"
    assert cfg.nodes == ("start",) + tuple(f"l{i}" for i in range(1, 15)) + ("end",)
    assert cfg.loop_heads == frozenset({"l1", "l5", "l9"})
    got = [(s, d, sp.kind, sp.label) for s, d, sp in cfg.edges]
    assert got == EXPECTED_EDGES


def test_running_example_loop_exit_is_disjunctive():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    exit_spec = cfg.spec("l9", "l14")
    assert isinstance(exit_spec.post, Disj)
    assert [str(h) for h in exit_spec.post.heaps] == \
        ["res!=0 /\\ true", "t=nil /\\ true"]
    entry_spec = cfg.spec("l9", "l10")
    assert str(entry_spec.post) == "res=0 /\\ t!=nil /\\ true"


def check_invariants(cfg: Cfg):
    assert cfg.out_edges(cfg.end) == ()
    pairs = [(s, d) for s, d, _ in cfg.edges]
    assert len(pairs) == len(set(pairs))
    for n in cfg.nodes:
        es = cfg.out_edges(n)
        if len(es) > 1:
            assert all(sp.kind == "assume" for _, _, sp in es)
        for s, d, _ in es:
            assert s == n and d in cfg.nodes


STRUCTURE_SNIPPETS = [
    RUNNING_EXAMPLE,
    "",
    "x = 1;",
    "while (*) { }",
    "while (*) { x = 1; }",
    "if (x == 1) { }",
    "if (x == 1) { } else { y = 2; }",
    "if (x == 1) { y = 2; } else { }",
    "if (x == 1) { y = 2; } else { z = 3; }",
    "while (x != nil) { if (*) x = x->next; else x = nil; }",
    "while (*) while (*) x = 1;",
    "if (*) if (*) x = 1; else y = 2;",
]


@pytest.mark.parametrize("text", STRUCTURE_SNIPPETS,
                         ids=[f"prog{i}" for i in range(len(STRUCTURE_SNIPPETS))])
def test_cfg_invariants(text):
    check_invariants(build_cfg(parse(text)))


def test_empty_program_cfg():
    cfg = build_cfg(parse(""))
    assert cfg.nodes == ("start", "end")
    assert [(s, d, sp.kind) for s, d, sp in cfg.edges] == \
        [("start", "end", "skip")]


def test_empty_loop_body_is_a_self_loop():
    cfg = build_cfg(parse("while (*) { }"))
    assert [(s, d, sp.kind) for s, d, sp in cfg.edges] == \
        [("start", "start", "assume"), ("start", "end", "assume")]
    assert cfg.loop_heads == frozenset({"start"})


def test_empty_branches_get_a_skip_node():
    cfg = build_cfg(parse("if (x == 1) { }"))
    assert [(s, d, sp.kind) for s, d, sp in cfg.edges] == \
        [("start", "l1", "assume"), ("l1", "end", "skip"),
         ("start", "end", "assume")]
    check_invariants(cfg)


def test_branch_sides_are_assume_edges():
    cfg = build_cfg(parse("if (x == nil) { y = 1; } else { y = 2; }"))
    outs = cfg.out_edges("start")
    assert {sp.label for _, _, sp in outs} == \
        {"assume(x == nil)", "assume(x != nil)"}


def test_accessors():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    assert set(cfg.succ("l1")) == {"l2", "l3"}
    assert cfg.succ("l14") == ("end",)
    assert cfg.spec("l10", "l11").kind == "load"
    with pytest.raises(KeyError):
        cfg.spec("l10", "end")


def test_dot_export():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    dot = cfg.to_dot()
    assert dot.startswith("digraph cfg {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -> ") == len(cfg.edges)
    for head in cfg.loop_heads:
        assert f'"{head}" [shape=circle, style=filled, fillcolor=lightgrey];' in dot
    assert '"l10" -> "l11" [label="d = t->data;"];' in dot


# Programs whose edges reach every branch of spec_of: each command shape,
# a load that overwrites its own source, wildcards in every position, a
# disjunctive assert, empty branches (a skip edge), an empty loop body and
# a negated compound loop condition.
SPEC_PIN_PROGRAMS = [
    RUNNING_EXAMPLE,
    "",
    "x = x->next;",
    "x = y->data;",
    "y->next = *;",
    "y->data = 3;",
    "x = new Node(x, x);",
    "x = new Node(*, *);",
    "x = *;",
    "assert(x != nil || d <= 3);",
    "if (x == nil) { }",
    "while (x != nil) { }",
    "while (x == nil || d < e && f != g) { x = x->next; }",
]


def cfg_specs_digest() -> str:
    """sha256 over every edge of SPEC_PIN_PROGRAMS' graphs: its ends, the
    spec's kind, label, pre, post and modified variables."""
    digest = hashlib.sha256()
    for text in SPEC_PIN_PROGRAMS:
        for src, dst, sp in build_cfg(parse(text)).edges:
            mods = ",".join(sorted(map(str, sp.modifies)))
            digest.update(f"{src} {dst} {sp.kind} {sp.label} {sp.pre} "
                          f"{sp.post} {mods}\n".encode())
        digest.update(b"\n")
    return digest.hexdigest()


# recorded with a spec that stored its kind and label as strings, each
# spelled out in the branch of spec_of that built it
CFG_SPECS_SHA256 = (
    "306bd4176f830a89f61f1a8e1a454253e956637107a93f66b9834700deda27f9")


def test_cfg_specs_are_unchanged():
    assert cfg_specs_digest() == CFG_SPECS_SHA256


# ---------------------------------------------------------------------------
# The specification table, pinned
# ---------------------------------------------------------------------------

SPEC_TABLE = [
    ("x = y;", "assign", {"x"}, "{emp} x = y; {x=y /\\ emp}"),
    ("x = x;", "assign", {"x"}, "{emp} x = x; {x=old_x' /\\ emp}"),
    ("x = *;", "assign", {"x"}, "{emp} x = *; {x=w1' /\\ emp}"),
    ("x = nil;", "assign", {"x"}, "{emp} x = nil; {x=nil /\\ emp}"),
    ("r = new Node(r, x);", "alloc", {"r"},
     "{emp} r = new Node(r, x); {node(r,old_r',{x})}"),
    ("r = new Node(r, *);", "alloc", {"r"},
     "{emp} r = new Node(r, *); {node(r,old_r',_)}"),
    ("p = new Node(nil, 7);", "alloc", {"p"},
     "{emp} p = new Node(nil, 7); {node(p,nil,{7})}"),
    ("x = y->next;", "load", {"x"},
     "{node(y,n',{d'})} x = y->next; {x=n' /\\ node(y,n',{d'})}"),
    ("d = t->data;", "load", {"d"},
     "{node(t,n',{d'})} d = t->data; {d=d' /\\ node(t,n',{d'})}"),
    ("t = t->next;", "load", {"t"},
     "{node(t,n',{d'})} t = t->next; {t=n' /\\ node(old_t',n',{d'})}"),
    ("y->next = z;", "store", set(),
     "{node(y,n',{d'})} y->next = z; {node(y,z,{d'})}"),
    ("y->data = 9;", "store", set(),
     "{node(y,n',{d'})} y->data = 9; {node(y,n',{9})}"),
    ("y->next = *;", "store", set(),
     "{node(y,n',{d'})} y->next = *; {node(y,w1',{d'})}"),
    ("assert(res == 1);", "assert", set(),
     "{res=1 /\\ true} assert(res == 1); {res=1 /\\ true}"),
]


@pytest.mark.parametrize("text,kind,mods,rendering", SPEC_TABLE,
                         ids=[row[0] for row in SPEC_TABLE])
def test_spec_table(text, kind, mods, rendering):
    stmt = parse(text).stmts[0]
    spec = spec_of(stmt)
    assert spec.cmd is stmt
    assert spec.kind == kind
    assert spec.label == text
    assert {str(v) for v in spec.modifies} == mods
    assert str(spec) == rendering


def test_spec_of_rejects_a_non_command():
    with pytest.raises(TypeError):
        spec_of(object())


@pytest.mark.xfail(strict=True,
                   reason="render_cond does not parenthesize || under &&")
def test_negated_label_matches_its_post():
    """The loop exit's label must state the condition its post holds: by
    the grammar's precedence, "a && b || c" reads "(a && b) || c"."""
    cfg = build_cfg(parse(
        "while (x == nil || d < e && f != g) { x = x->next; }"))
    exit_spec = cfg.spec("start", "end")
    assert str(exit_spec.post) == \
        "x!=nil /\\ e<=d /\\ true \\/ x!=nil /\\ f=g /\\ true"
    assert exit_spec.label == "assume(x != nil && (e <= d || f == g))"


def test_assume_spec():
    cmd = Assume(RelC("!=", VarE("t"), NilE()))
    spec = spec_of(cmd)
    assert spec.cmd is cmd
    assert spec.kind == "assume"
    assert spec.label == "assume(t != nil)"
    assert str(spec.pre) == "true"
    assert str(spec.post) == "t!=nil /\\ true"
    assert spec.modifies == frozenset()
    nondet = spec_of(Assume(NondetC()))
    assert str(nondet.post) == "true"


def test_skip_spec():
    cmd = Skip()
    spec = spec_of(cmd)
    assert spec.cmd is cmd
    assert (spec.kind, spec.label) == ("skip", "skip")
    assert str(spec) == "{emp} skip {emp}"
    assert spec.modifies == frozenset()


def test_star_operands_get_distinct_placeholders():
    cases = cond_cases(RelC("==", NondetE(), NondetE()))
    assert len(cases) == 1 and len(cases[0]) == 1
    atom = cases[0][0]
    assert atom.lhs != atom.rhs
    assert {str(atom.lhs), str(atom.rhs)} == {"w1'", "w2'"}


# ---------------------------------------------------------------------------
# Condition negation and disjunctive normal form
# ---------------------------------------------------------------------------

def test_negate_comparisons():
    a, b = VarE("a"), VarE("b")
    assert negate(RelC("==", a, b)) == RelC("!=", a, b)
    assert negate(RelC("!=", a, b)) == RelC("==", a, b)
    assert negate(RelC("<=", a, b)) == RelC("<", b, a)
    assert negate(RelC("<", a, b)) == RelC("<=", b, a)
    assert negate(NondetC()) == NondetC()
    assert negate(NotC(RelC("==", a, b))) == RelC("==", a, b)
    conj = AndC(RelC("==", a, b), RelC("<", a, b))
    assert negate(conj) == OrC(RelC("!=", a, b), RelC("<=", b, a))


def test_dnf_cases():
    a, one, two, three = VarE("a"), IntE(1), IntE(2), IntE(3)
    b, c = VarE("b"), VarE("c")
    both = AndC(OrC(RelC("==", a, one), RelC("==", b, two)),
                RelC("==", c, three))
    cases = cond_cases(both)
    assert [len(case) for case in cases] == [2, 2]
    negated = cond_cases(negate(AndC(RelC("==", a, one), RelC("==", b, two))))
    assert [str(atom) for case in negated for atom in case] == \
        ["a!=1", "b!=2"]
    assert cond_cases(NondetC()) == ((),)


def _random_cond(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.15:
            return NondetC()
        ops = ["==", "!=", "<=", "<"]
        def operand():
            return rng.choice([VarE("a"), VarE("b"), IntE(0), IntE(1),
                               NilE(), NondetE()])
        return RelC(rng.choice(ops), operand(), operand())
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return NotC(_random_cond(rng, depth - 1))
    cls = AndC if kind == "and" else OrC
    return cls(_random_cond(rng, depth - 1), _random_cond(rng, depth - 1))


def _dnf_satisfiable(cond, store, data):
    """Truth of the DNF translation with placeholders existential."""
    env = {PVar(k): v for k, v in store.items()}
    pool = mixed_pool({}, data)
    for case in cond_cases(cond):
        wvars = sorted({v for atom in case for v in atom.vars()
                        if isinstance(v, LVar)}, key=str)
        for combo in itertools.product(pool, repeat=len(wvars)):
            full = {**env, **dict(zip(wvars, combo))}
            if all(_eval_pure(atom, full) for atom in case):
                return True
    return False


def test_dnf_matches_concrete_condition_semantics():
    """A condition can evaluate to True (without faulting) exactly when
    some disjunctive case is satisfiable; negation complements the
    three-valued outcome set pointwise."""
    rng = random.Random(4021)
    data = [0, 1]
    values = [0, 1, NIL_V]
    for _ in range(300):
        cond = _random_cond(rng)
        store = {"a": rng.choice(values), "b": rng.choice(values)}
        choices = cond_choices(cond, store, {}, data)
        assert _dnf_satisfiable(cond, store, data) == (True in choices)
        negs = cond_choices(negate(cond), store, {}, data)
        assert negs == {_k_not(v) for v in choices}


# ---------------------------------------------------------------------------
# Tight footprints: no transition without the referenced cell
# ---------------------------------------------------------------------------

HEAP_COMMANDS = ["x = y->next;", "d = y->data;", "y->next = nil;",
                 "y->data = 0;", "y = y->next;"]


@pytest.mark.parametrize("text", HEAP_COMMANDS, ids=HEAP_COMMANDS)
def test_footprint_required(text):
    spec = spec_for(text)
    assert frame_infer(EMP_HEAP, spec.pre) == []
    wrong = SymbolicHeap((), (NodeAtom(PVar("z"), LVar("m"), LVar("e")),))
    assert frame_infer(wrong, spec.pre) == []
    right = SymbolicHeap((), (NodeAtom(PVar("y"), LVar("m"), LVar("e")),))
    outcomes = frame_infer(right, spec.pre)
    assert outcomes and all(o.holds for o in outcomes)


# ---------------------------------------------------------------------------
# Exactness against the concrete interpreter
# ---------------------------------------------------------------------------

def _pvar_store(env) -> dict:
    return {v.name: val for v, val in env.items() if isinstance(v, PVar)}


def _axiom_states(spec, stmt_vars, pools, data):
    """Sampled concrete pre-states: footprint models x missing-var pools."""
    out = []
    for m in models(spec.pre, SMALL, data_universe=data):
        base = _pvar_store(m.env)
        missing = [x for x in stmt_vars if x not in base]
        for combo in itertools.product(*(pools[x] for x in missing)):
            out.append(({**base, **dict(zip(missing, combo))}, dict(m.heap)))
    return out


EXACTNESS_CASES = [
    # (command, pools for variables the footprint leaves unbound)
    ("x = 1;", {"x": [1, NIL_V]}),
    ("x = nil;", {"x": [1, NIL_V]}),
    ("x = y;", {"x": [1, NIL_V], "y": [1, NIL_V, DANGLING]}),
    ("x = x;", {"x": [1, NIL_V, DANGLING]}),
    ("x = *;", {"x": [1, NIL_V]}),
    ("p = new Node(nil, 1);", {"p": [1, NIL_V]}),
    ("p = new Node(nil, x);", {"p": [NIL_V], "x": [1]}),
    ("p = new Node(p, *);", {"p": [NIL_V, ("a", 1), DANGLING]}),
    ("p = new Node(*, *);", {"p": [NIL_V]}),
    ("x = y->next;", {"x": [1, NIL_V]}),
    ("x = y->data;", {"x": [1, NIL_V]}),
    ("x = x->next;", {}),
    ("x = x->data;", {}),
    ("y->next = nil;", {}),
    ("y->next = *;", {}),
    ("y->next = y;", {}),
    ("y->next = z;", {"z": [NIL_V, ("a", 1), DANGLING]}),
    ("y->data = 1;", {}),
    ("y->data = *;", {}),
    ("y->data = z;", {"z": [1]}),
]


@pytest.mark.parametrize("text,pools", EXACTNESS_CASES,
                         ids=[row[0] for row in EXACTNESS_CASES])
def test_axiom_exactness(text, pools):
    """Concrete successors and small post models coincide up to renaming."""
    stmt = parse(text).stmts[0]
    spec = spec_of(stmt)
    data = [1]
    pre_states = _axiom_states(spec, Ast((stmt,)).variables(), pools, data)
    assert pre_states

    concrete = set()
    for store, heap in pre_states:
        for tag, st2, h2 in step(stmt, store, heap, data):
            assert tag == "ok", f"fault from sampled footprint state: {store}"
            post_model_env = {PVar(k): v for k, v in st2.items()}
            from shaperef.oracle import Model
            assert any(
                satisfies(Model(dict(post_model_env), dict(h2)), case,
                          SMALL, extra_data=data)
                for case in spec.post_cases()
            ), f"concrete successor escapes the post: {st2} {h2}"
            concrete.add(canon_state(st2, h2))

    abstract = set()
    for case in spec.post_cases():
        for m in models(case, SMALL, data_universe=data):
            abstract.add(canon_state(_pvar_store(m.env), dict(m.heap)))

    assert abstract == concrete


# ---------------------------------------------------------------------------
# Whole-program sanity runs
# ---------------------------------------------------------------------------

def test_nondet_loop_takes_both_branches():
    ast = parse("x = 0; while (*) { x = 1; }")
    finals = set()
    for seed in range(30):
        status, store, _ = exec_program(ast, random.Random(seed), fuel=50)
        if status == "ok":
            finals.add(store["x"])
    assert finals == {0, 1}


def test_running_example_never_fails_concretely():
    ast = parse(RUNNING_EXAMPLE)
    statuses = set()
    for seed in range(60):
        status, store, _ = exec_program(ast, random.Random(seed), fuel=400)
        statuses.add(status)
        if status == "ok":
            assert store["res"] == 1
    assert "assert-fail" not in statuses
    assert "fault" not in statuses
    assert "ok" in statuses


def test_branch_condition_filters_concretely():
    for prefix, expected in [("x = nil; ", 1), ("x = 5; ", 2)]:
        status, store, _ = exec_program(
            parse(prefix + "if (x == nil) y = 1; else y = 2;"),
            random.Random(7))
        assert status == "ok" and store["y"] == expected


def test_order_comparison_on_pointer_faults():
    status, _, _ = exec_program(
        parse("x = nil; while (x < 1) { x = 1; }"), random.Random(3))
    assert status == "fault"
    status, _, _ = exec_program(
        parse("x = 0; while (x < 1) { x = 2; }"), random.Random(3))
    assert status == "ok"
