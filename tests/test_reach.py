"""Tests for the line trace of ``tests/reach.py``, on a toy module."""

from __future__ import annotations

import reach

TOY = '''\
def toy(n):
    if n > 0:
        return "positive"
    if n < 0:
        return "negative"
    return "zero"
'''


def test_the_trace_splits_lines_into_tests_only_and_unreached(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    files = [str(path)]
    ns: dict = {}
    _, imported = reach.reached_lines(
        lambda: exec(compile(TOY, str(path), "exec"), ns), files)
    got, tests = reach.reached_lines(lambda: [ns["toy"](n) for n in (1, -1)],
                                     files)
    assert got == ["positive", "negative"]
    _, bench = reach.reached_lines(lambda: ns["toy"](2), files)
    assert reach.executable_lines(path) == {1, 2, 3, 4, 5, 6}
    assert imported[str(path)] == {1}
    assert reach.split(reach.executable_lines(path), imported[str(path)],
                       tests[str(path)], bench[str(path)]) == ({4, 5}, {6})
    assert reach.ranges({6, 1, 2, 3, 5}) == "1-3, 5-6"
    assert reach.ranges({4, 2}) == "2, 4"


ONCE = '''\
from functools import cache

@cache
def evidence():
    return "computed"

def run():
    return evidence()
'''


def test_a_fresh_interpreter_counts_what_runs_once_per_process(tmp_path):
    # evidence() runs its body once per process: traced after a first call
    # here, run() does not reach line 5; traced apart, it does
    path = tmp_path / "once_toy.py"
    path.write_text(ONCE)
    files = [str(path)]
    ns: dict = {}
    exec(compile(ONCE, str(path), "exec"), ns)
    ns["evidence"]()
    got, here = reach.reached_lines(ns["run"], files)
    assert got == "computed"
    assert 5 not in here[str(path)]
    apart = reach.reached_lines_apart("once_toy:run", files, [str(tmp_path)])
    assert {5, 8} <= apart[str(path)]
