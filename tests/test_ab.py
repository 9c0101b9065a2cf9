"""Tests for the A/B summary of ``tests/ab.py``, on canned result lines."""

from __future__ import annotations

import json

import ab

METRICS = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "item_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
DIGEST = 'abstract seed=11 digest=5e1f counts={"abstract.calls": 3000}'


def output(items_per_s, p95, rss, digest=DIGEST, correct=True, failed=0):
    """What ``perfbench/run.py`` prints: a timing line, the digest line and
    the result object."""
    metrics = {"items_per_s": (items_per_s, "1/s"), "item_p95_ms": (p95, "ms"),
               "peak_rss_mb": (rss, "MB"), "setup_s": (0.2, "s")}
    result = {"correct": correct, "attempted": 12000, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return "\n".join(["unscaled: 1900.0 items per wall second over 4 passes",
                      digest, json.dumps(result)]) + "\n"


def run(*args, **kwargs) -> ab.Run:
    return ab.parse_run(output(*args, **kwargs))


def rows(lines: list[str]) -> dict[str, list[str]]:
    return {line.split()[0]: line.split() for line in lines[2:]}


def test_a_result_line_gives_the_metrics_digest_and_outcome():
    r = run(1763.0, 2.5, 40.0)
    assert r.metrics == {"items_per_s": 1763.0, "item_p95_ms": 2.5,
                         "peak_rss_mb": 40.0, "setup_s": 0.2}
    assert r.digest == DIGEST and r.ok
    assert not run(1.0, 1.0, 1.0, correct=False).ok
    assert not run(1.0, 1.0, 1.0, failed=2).ok


def test_quartiles():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_wins_count_pairs_the_change_is_better_in_and_ties_for_neither():
    pairs = [(run(1700, 3.0, 40.0), run(1800, 2.9, 40.5)),
             (run(1750, 3.0, 40.0), run(1850, 3.0, 40.5)),  # p95 a tie
             (run(1720, 3.1, 40.0), run(1700, 3.2, 40.5)),
             (run(1760, 2.8, 40.0), run(1900, 2.7, 40.5))]
    lines, flags = ab.summarize(pairs, METRICS)
    assert flags == []
    got = rows(lines)
    # items_per_s: the change wins 3 of 4; its median 1825 against 1735
    assert got["items_per_s"][-1] == "3/4"
    assert got["items_per_s"][2:8] == ["1735", "[1715,", "1752]",
                                       "1825", "[1775,", "1862]"]
    assert got["items_per_s"][-3] == "+5.2%"
    # the gain of 90 exceeds the parent's IQR, 1752.5 - 1715 = 37.5
    assert got["items_per_s"][-2] == "yes"
    # item_p95_ms: lower is better; 2.9 and 2.7 win, 3.0 ties, 3.2 loses
    assert got["item_p95_ms"][1] == "lower"
    assert got["item_p95_ms"][-1] == "2/4"
    assert got["item_p95_ms"][-2] == "no"
    # rss is worse in every pair, by less than its bound
    assert got["peak_rss_mb"][-1] == "0/4"


def test_a_median_worse_by_more_than_its_bound_is_flagged():
    pairs = [(run(1700, 3.0, 40.0), run(1700, 3.0, 44.5)) for _ in range(3)]
    _, flags = ab.summarize(pairs, METRICS)
    assert len(flags) == 1 and flags[0].startswith("worse: peak_rss_mb")
    # higher is better: a throughput 30% down is flagged, 20% down is not
    slower = [(run(1000, 3.0, 40.0), run(700, 3.0, 40.0))]
    _, flags = ab.summarize(slower, METRICS)
    assert [f.split()[1] for f in flags] == ["items_per_s"]
    assert ab.summarize([(run(1000, 3.0, 40.0), run(800, 3.0, 40.0))],
                        METRICS)[1] == []
    # lower is better: a p95 30% up is flagged, 30% down is not
    _, flags = ab.summarize([(run(1000, 3.0, 40.0), run(1000, 3.9, 40.0))],
                            METRICS)
    assert [f.split()[1] for f in flags] == ["item_p95_ms"]
    assert ab.summarize([(run(1000, 3.0, 40.0), run(1000, 2.1, 40.0))],
                        METRICS)[1] == []


def test_a_differing_digest_and_a_failed_run_are_flagged():
    other = DIGEST.replace("5e1f", "77aa")
    pairs = [(run(1700, 3.0, 40.0), run(1710, 3.0, 40.0)),
             (run(1700, 3.0, 40.0, failed=1), run(1710, 3.0, 40.0, other))]
    _, flags = ab.summarize(pairs, METRICS)
    assert [f.split(":")[0] for f in flags] == ["failed", "digest"]
    assert "pair 1 parent" in flags[0] and "pair 1 change" in flags[1]


def test_each_pair_prints_every_metric():
    line = ab.pair_line(3, "change", run(1763.0, 2.5, 40.0), METRICS)
    assert line == ("pair 3 change: items_per_s=1763 item_p95_ms=2.5 "
                    "peak_rss_mb=40")
