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
