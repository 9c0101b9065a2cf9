"""Which lines of ``src/shaperef`` only the tests reach, and which nothing
reaches: a line trace (``sys.settrace``) of Tier-1 and of the benchmark's
workloads, with nothing but the standard library and pytest.

Usage, from anywhere in a checkout:

    python3 tests/reach.py

It imports every module of the package under the trace and runs Tier-1
in this process (``pytest.main`` over ``pyproject.toml``'s
``testpaths``).  It runs each workload of ``perfbench.workloads`` on its
corpus at seeds 1, 2 and 3 in a fresh interpreter, traced from the import
of the benchmark on: every item, the workload's output checks and its
canonical forms, as one untraced pass of ``perfbench/run.py`` does.  So a
line that runs once per process, such as a cached property of an interned
atom, counts for the workloads when they reach it, whatever Tier-1 ran
first.  For each module it prints the executable lines that the tests
reach but the workloads do not, and the lines that neither reaches.  Lines
run on import count for both.  A line is executable when an instruction of
the module's compiled code is on it.  The exit status is pytest's, as a
failing test leaves its lines out of the trace.

Tier-1 runs several times slower under the trace: the whole run takes
about 4.5 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Callable, Collection

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
PACKAGE = ROOT / "src" / "shaperef"
SEEDS = (1, 2, 3)


def executable_lines(path) -> set[int]:
    """The lines of a source file that an instruction of its compiled code
    is on, in every function and class body it defines."""
    todo = [compile(Path(path).read_text(), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def reached_lines(run: Callable[[], object],
                  files: Collection[str]) -> tuple[object, dict[str, set[int]]]:
    """``run()``'s result, and for each of ``files`` the lines that ran
    during it.  The trace in force before is restored afterwards."""
    lines: dict[str, set[int]] = {f: set() for f in files}

    def line_tracer(add):
        def on_line(frame, event, arg):
            add(frame.f_lineno)
            return on_line
        return on_line

    # one tracer per file, so that a line costs one set insertion
    tracers = {f: line_tracer(lines[f].add) for f in lines}

    def on_call(frame, event, arg):
        on_line = tracers.get(frame.f_code.co_filename)
        if on_line is not None:
            on_line(frame, event, arg)
        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    for found in lines.values():
        found.discard(0)  # a module's code starts at line 0
    return result, lines


def reached_lines_apart(target: str, files: Collection[str],
                        path: Collection[str] = ()) -> dict[str, set[int]]:
    """For each of ``files``, the lines that ran while a fresh interpreter,
    with ``path`` ahead on its ``sys.path``, imported the module of
    ``target`` (``module:function``) and called the function.  Nothing
    this process ran before counts."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lines.json"
        spec = {"target": target, "files": list(files), "path": list(path),
                "out": str(out)}
        subprocess.run([sys.executable, str(SCRIPT), "--apart",
                        json.dumps(spec)], check=True)
        return {f: set(lines) for f, lines in json.loads(out.read_text()).items()}


def _apart(spec: dict) -> None:
    """The child of ``reached_lines_apart``."""
    sys.path[:0] = spec["path"]
    module, function = spec["target"].split(":")
    _, lines = reached_lines(
        lambda: getattr(importlib.import_module(module), function)(),
        spec["files"])
    Path(spec["out"]).write_text(
        json.dumps({f: sorted(found) for f, found in lines.items()}))


def split(executable: set[int], imported: set[int], tests: set[int],
          bench: set[int]) -> tuple[set[int], set[int]]:
    """(lines the tests reach but the benchmark does not, lines neither
    reaches), of one file's executable lines."""
    rest = executable - imported - bench
    return rest & tests, rest - tests


def ranges(lines: Collection[int]) -> str:
    """``1-3, 5`` for {1, 2, 3, 5}."""
    runs: list[list[int]] = []
    for n in sorted(lines):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _run_workloads() -> None:
    from perfbench.run import REFERENCE_FILE, check
    from perfbench.trace import OFF
    from perfbench.workloads import WORKLOADS
    reference = json.loads(REFERENCE_FILE.read_text())
    for wl in WORKLOADS.values():
        for seed in SEEDS:
            corpus = wl.corpus(random.Random(seed), wl.size)
            records = [wl.run_item(item, OFF, Counter())[1]
                       for item in corpus]
            check(wl, corpus, records, reference)
            wl.forms(corpus, records)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--apart"]:
        _apart(json.loads(argv[1]))
        return 0
    path = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = path
    files = sorted(str(p) for p in PACKAGE.glob("*.py"))
    _, imported = reached_lines(
        lambda: [importlib.import_module(f"shaperef.{Path(f).stem}")
                 for f in files], files)
    import shaperef
    if Path(shaperef.__file__).resolve().parent != PACKAGE:
        print(f"shaperef was imported from {shaperef.__file__}, not from "
              f"{PACKAGE}", file=sys.stderr)
        return 2
    import pytest
    os.chdir(ROOT)  # so that pytest collects its testpaths
    status, tests = reached_lines(lambda: pytest.main(["-q"]), files)
    bench = reached_lines_apart("reach:_run_workloads", files,
                                path + [str(SCRIPT.parent)])

    n_exec = n_tests = n_none = 0
    for f in files:
        executable = executable_lines(f)
        tests_only, unreached = split(executable, imported[f], tests[f],
                                      bench[f])
        n_exec += len(executable)
        n_tests += len(tests_only)
        n_none += len(unreached)
        print(f"{Path(f).relative_to(ROOT)}: {len(executable)} executable "
              f"lines")
        print(f"  tests only ({len(tests_only)}): {ranges(tests_only)}")
        print(f"  unreached ({len(unreached)}): {ranges(unreached)}")
    print(f"total: {n_exec} executable lines, {n_tests} reached by tests "
          f"only, {n_none} by neither")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
