"""A/B timing of two checkouts by alternating pairs of benchmark runs.

    python3 tools/ab_pairs.py BASE HEAD --workload sparse,bigfile --seed 1 --pairs 10 --seconds 30

BASE and HEAD are two checkouts of this repository.  For each workload in
turn, pair i runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each, BASE first in even pairs and HEAD first in odd
ones, so a drift in the machine's speed falls on both sides alike.  Each
run's end-to-end metrics are printed as it ends.  After a workload's pairs
come, per metric, each side's quartiles, the change of the median, and the
pairs HEAD won: better by the metric's ``better`` in BASE's BENCHMARK.json,
a tie being a win for neither.  A gain is ``clear`` when HEAD wins at least
nine pairs in ten and its median moves by more than BASE's interquartile
spread.  With the metric's relative ``bound`` from the same file, a metric
is ``worse`` when HEAD's median is worse than BASE's by more than the
bound, and ``unresolved`` when BASE's interquartile spread is wider than
the bound, so the pairs cannot tell such a change.  Last comes ``wire
unchanged`` when every pair's two runs printed the same ``session`` lines
(each first-pass session's case, index, wire bits and final digest), or
else the first session line in which they differ.  The tool exits with
status 1 when any metric on any workload is ``worse``, so a pair run can
gate a script, and with 0 otherwise.

A pair must run the same benchmark on both sides: before any run, BASE and
HEAD are compared on ``BENCHMARK.json`` and every file under ``bench/`` but
``bench/out/`` and ``__pycache__/``, and a difference is named and ends the
tool with status 2.

Standard library only.  It runs ``bench/run.py`` as it stands; a ``--trace 0``
run writes no output file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int,
              seconds: float) -> tuple[dict[str, float], list[str]]:
    """One ``bench/run.py`` run in ``checkout``: its end-to-end metric values by
    name, and its ``session case=… index=… bits_total=… final_digest=…`` lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} "
                           "sessions failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, [line for line in lines if line.startswith("session ")]


def bench_files(checkout: Path) -> dict[str, bytes]:
    """The benchmark's own files in ``checkout`` by relative path: ``BENCHMARK.json``
    and every file under ``bench/`` but its run outputs and bytecode caches."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]
    files = {}
    for path in paths:
        rel = path.relative_to(checkout)
        if path.is_file() and rel.parts[:2] != ("bench", "out") and "__pycache__" not in rel.parts:
            files[rel.as_posix()] = path.read_bytes()
    return files


def bench_differences(base: Path, head: Path) -> list[str]:
    """The benchmark files that differ between the two checkouts, or are in only one."""
    a, b = bench_files(base), bench_files(head)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], head: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """Per metric of ``better`` (name -> "higher" | "lower"): each side's quartiles,
    the median's relative change, the pairs HEAD won and whether the gain is clear.
    Per metric with a relative bound in ``bounds``, also whether HEAD's median
    is worse by more than the bound, and whether BASE's interquartile spread,
    relative to its median, is wider than the bound.

    ``base[i]`` and ``head[i]`` are the metric values of pair i's two runs.
    """
    bounds = bounds or {}
    rows = []
    for name, sense in better.items():
        a = [run[name] for run in base]
        b = [run[name] for run in head]
        sign = 1 if sense == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gain = sign * (qb[1] - qa[1])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        bound = bounds.get(name, math.inf)
        rows.append({
            "metric": name, "base": qa, "head": qb, "change": change,
            "wins": wins, "pairs": len(a),
            "clear": 10 * wins >= 9 * len(a) and gain > qa[2] - qa[0],
            "worse": -sign * change > bound,
            "unresolved": qa[2] - qa[0] > bound * abs(qa[1]),
        })
    return rows


def wire_difference(base: list[list[str]], head: list[list[str]]) -> str | None:
    """The first session line that differs between the two runs of a pair, as
    ``pair i: BASE <line>, HEAD <line>``, or None when every pair's agree.

    ``base[i]`` and ``head[i]`` are the ``session`` lines of pair i's runs; a
    line that one run lacks reads ``none``.
    """
    for i, (a, b) in enumerate(zip(base, head)):
        for line_a, line_b in itertools.zip_longest(a, b, fillvalue="none"):
            if line_a != line_b:
                return f"pair {i}: BASE {line_a}, HEAD {line_b}"
    return None


def _cell(q: tuple[float, float, float]) -> str:
    return " / ".join(f"{v:.6g}" for v in q)


def format_summary(rows: list[dict]) -> str:
    """``summarize``'s rows as a table, one line per metric."""
    lines = [f"{'metric':16s} {'base q1/median/q3':>36s} {'head q1/median/q3':>36s} "
             f"{'change':>8s} {'won':>6s}"]
    for r in rows:
        lines.append(f"{r['metric']:16s} {_cell(r['base']):>36s} {_cell(r['head']):>36s} "
                     f"{100 * r['change']:+7.2f}% {r['wins']:>2d}/{r['pairs']:<2d}"
                     + "".join(f"  {flag}" for flag in ("clear", "worse", "unresolved")
                               if r.get(flag)))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout measured as the reference")
    ap.add_argument("head", type=Path, help="checkout measured against it")
    ap.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    differ = bench_differences(args.base, args.head)
    if differ:
        print("BASE and HEAD run different benchmarks: " + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    worse = False
    for workload in args.workload.split(","):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        wire: dict[str, list[list[str]]] = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                values, sessions = run_bench(getattr(args, side), workload, args.seed,
                                             args.seconds)
                runs[side].append(values)
                wire[side].append(sessions)
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        rows = summarize(runs["base"], runs["head"], better, bounds)
        worse = worse or any(r["worse"] for r in rows)
        print(f"{workload}, seed {args.seed}:")
        print(format_summary(rows))
        changed = wire_difference(wire["base"], wire["head"])
        print("wire unchanged" if changed is None else f"wire changed, {changed}", flush=True)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
