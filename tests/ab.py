"""A/B runs of the benchmark: ``perfbench/run.py`` from two checkouts, in
alternating pairs, summarised per end-to-end metric.

Usage, from anywhere:

    python3 tests/ab.py PARENT CHANGE --workload abstract --seed 11 \\
        --seconds 30 --pairs 10

PARENT and CHANGE are the roots of two checkouts, each with its own
``perfbench/run.py`` and ``src/``.  Each pair runs both with the same
arguments (``--trace 0``), one after the other: the parent first in even
pairs, the change first in odd ones, so that a drift in the host's speed
falls on both sides alike.  The script prints each pair's end-to-end
metrics as they come, then for each metric each side's median and
quartiles, the change of the median, whether that change is a gain larger
than the parent's interquartile range, and the change's wins: the pairs in
which the change is better (a tie counts for neither side).

Each metric's direction and bound come from this checkout's
``BENCHMARK.json``; a bound is read as a share of the parent's median.
The script flags a change whose median is worse than the parent's by more
than the bound, a run whose outputs are wrong or whose items failed, and
a ``digest=``/``counts=`` line that differs from the first parent run's.
The exit status is 1 when it raised a flag, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


@dataclass(frozen=True)
class Run:
    """What one run of ``perfbench/run.py`` printed."""

    metrics: dict[str, float]
    digest: str  # the digest= and counts= line
    ok: bool  # outputs correct and no item failed


def parse_run(stdout: str) -> Run:
    """The metrics, digest line and outcome of one run's standard output,
    whose last line is the result object."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"no result line in the output: {stdout[-500:]!r}")
    digest = next((line for line in lines if " digest=" in line), "")
    return Run({k: m["value"] for k, m in result["metrics"].items()},
               digest, bool(result["correct"]) and not result["failed"])


def run_once(checkout: Path, args: list[str]) -> Run:
    """One run of a checkout's benchmark, in the checkout."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(done.stdout)
    except ValueError as e:
        raise SystemExit(f"{checkout}: {e}\n{done.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gain(metric: dict, parent: float, change: float) -> float:
    """How much better change is than parent, in the metric's units (a
    negative gain is a loss)."""
    return change - parent if metric["better"] == "higher" else parent - change


def pair_line(i: int, side: str, run: Run, metrics: list[dict]) -> str:
    values = " ".join(f"{m['name']}={run.metrics[m['name']]:.4g}"
                      for m in metrics)
    return f"pair {i} {side:6}: {values}"


def summarize(pairs: list[tuple[Run, Run]],
              metrics: list[dict]) -> tuple[list[str], list[str]]:
    """The summary lines of (parent, change) pairs over the metrics of
    ``BENCHMARK.json``'s ``end_to_end`` list, and the flags raised."""
    lines = [f"{len(pairs)} pairs; each side: median [q1, q3]",
             f"{'metric':15} {'better':6} {'parent':>26} {'change':>26} "
             f"{'median':>7} {'> IQR':>5} {'wins':>6}"]
    flags = []
    for m in metrics:
        name = m["name"]
        sides = [[run.metrics[name] for run in side] for side in zip(*pairs)]
        (p1, p, p3), (c1, c, c3) = map(quartiles, sides)
        wins = sum(gain(m, a, b) > 0 for a, b in zip(*sides))
        g = gain(m, p, c)
        rel = (c - p) / abs(p) if p else 0.0
        parent, change = (f"{b:.4g} [{a:.4g}, {d:.4g}]"
                          for a, b, d in ((p1, p, p3), (c1, c, c3)))
        lines.append(
            f"{name:15} {m['better']:6} {parent:>26} {change:>26} "
            f"{rel:>+7.1%} {'yes' if g > p3 - p1 else 'no':>5} "
            f"{f'{wins}/{len(pairs)}':>6}")
        if -g > m["bound"] * abs(p):
            flags.append(f"worse: {name} median {c:.4g} against {p:.4g}, "
                         f"by more than its bound of {m['bound']:.0%}")
    first = pairs[0][0].digest if pairs else ""
    for i, pair in enumerate(pairs):
        for side, run in zip(SIDES, pair):
            if not run.ok:
                flags.append(f"failed: pair {i} {side}: wrong outputs or "
                             f"failed items")
            if run.digest != first:
                flags.append(f"digest: pair {i} {side} printed "
                             f"{run.digest!r}, the first parent run "
                             f"{first!r}")
    return lines, flags


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    choices=("abstract", "symexec", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(checkouts[side], run_args) for side in order}
        for side in SIDES:
            print(pair_line(i, side, runs[side], metrics), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    lines, flags = summarize(pairs, metrics)
    print("\n".join(lines + flags))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
