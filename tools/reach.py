"""The lines of ``src/delsync`` that no user-facing entry point reaches.

    python3 tools/reach.py [--n N]

Under ``sys.settrace``, restricted to the files of the ``delsync`` package
under ``src/``, it runs:

- ``delsync run`` at its defaults (with ``--beta 0.01``), and at w = 3 with
  ``--json``;
- ``delsync sweep`` on a two-variant config, writing CSV and JSONL into a
  temporary directory;
- ``delsync bounds``;
- every script in ``demos/``, with a temporary working directory;
- one session shaped like each workload of ``bench/run.py``'s ``WORKLOADS``,
  which it reads with ``ast`` and does not import: ``harness.run_single`` on
  the workload's n and rate for a one-rate workload, and ``harness.sweep``
  over its rates with the baseline and improved variants and the
  theoretical policy otherwise.

It then prints, per module, how many of its code lines (the lines of its
functions and methods; what runs at import is not counted) none of these
reached, and names each function with unreached lines.  ``--n`` caps the n of
every run but the demos, which run as they stand.

Standard library only, beside the package itself.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import inspect
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delsync"


def _lines(code, nested: bool = True) -> set[int]:
    out = {line for _, _, line in code.co_lines() if line is not None}
    if nested:
        for const in code.co_consts:
            if inspect.iscode(const):
                out |= _lines(const)
    return out


def code_lines(path: Path) -> dict[str, set[int]]:
    """The code lines of each top-level function or method of a module, by
    qualified name; a nested function, lambda or comprehension counts toward
    the function it is in.  Lines that run at import (a ``def`` or decorator
    line) are left out, so the count does not depend on whether the module
    was imported under the tracer."""
    units: dict[str, set[int]] = {}
    at_import: set[int] = set()

    def walk(code) -> None:  # the module, or a class body
        at_import.update(_lines(code, nested=False))
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                units[const.co_qualname] = _lines(const)
            else:
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return {name: lines - at_import for name, lines in units.items() if lines - at_import}


def workloads() -> dict[str, dict]:
    """``bench/run.py``'s ``WORKLOADS``: each ``Workload(...)`` call's keyword
    arguments, by workload name, read from the file's syntax tree."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]:
            return {
                ast.literal_eval(key): {k.arg: ast.literal_eval(k.value) for k in call.keywords}
                for key, call in zip(node.value.keys, node.value.values)
            }
    raise SystemExit("bench/run.py defines no WORKLOADS")


def entry_points(cap: int | None):
    """Each entry point, as a function of no arguments."""
    from delsync import cli, core, harness

    def size(n: int) -> int:
        return n if cap is None else min(n, cap)

    def cli_run(*args: str):
        return lambda: cli.main(["run", "--beta", "0.01", "--n", str(size(50_000)), *args])

    def cli_sweep():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "sweep.cfg")
            config.write_text(
                f"n = {size(20_000)}\nbeta_grid = 0.005,0.01\ns_grid = 2\ntrials = 1\n"
                f"jsonl = {Path(tmp, 'rows.jsonl')}\n"
                "variant = name=baseline w=1 a=1\nvariant = name=improved w=2 a=1,3.5\n"
            )
            cli.main(["sweep", "--config", str(config), "--csv", str(Path(tmp, "rows.csv"))])

    def demo(path: Path):
        def run():
            with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
                runpy.run_path(str(path), run_name="__main__")
        return run

    def session(wl: dict):
        n, betas = size(wl["n"]), wl["betas"]
        if len(betas) > 1:
            config = harness.ExperimentConfig(n=n, beta_grid=betas, s_grid=(2.0,), trials=1,
                                              ec_policy=core.EC_THEORETICAL)
            return lambda: harness.sweep(config)
        v = harness.IMPROVED
        params = core.ProtocolParams(n=n, beta=betas[0], c=v.c, w=v.w, a=v.a, seed=1)
        return lambda: harness.run_single(params)

    yield cli_run()
    yield cli_run("--w", "3", "--a", "1,3.5,1.5", "--json")
    yield cli_sweep
    yield lambda: cli.main(["bounds"])
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield demo(path)
    for wl in workloads().values():
        yield session(wl)


def reached_lines(cap: int | None = None) -> dict[str, set[int]]:
    """The lines of each package module that the entry points reach, by
    module name.  The package is imported under the tracer, so that what
    its modules call at import counts as reached."""
    if "delsync" in sys.modules:
        raise SystemExit("delsync is already imported: run reach.py in a fresh process")
    found = Path(importlib.util.find_spec("delsync").origin).parent
    if found.resolve() != PACKAGE:
        raise SystemExit(f"delsync would be imported from {found}, not from {PACKAGE}")
    reached = {path.stem: set() for path in PACKAGE.glob("*.py")}
    files = {str(found / f"{stem}.py"): seen for stem, seen in reached.items()}

    def tracer(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for run in entry_points(cap):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run()
    finally:
        sys.settrace(previous)
    return reached


def unreached(cap: int | None = None) -> dict[str, tuple[int, dict]]:
    """Per module: its number of code lines, and for each function with
    unreached lines, those lines and whether they are all of its lines."""
    reached = reached_lines(cap)
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        units = code_lines(path)
        missed = {
            name: (sorted(lines - reached[path.stem]), not lines & reached[path.stem])
            for name, lines in units.items()
            if lines - reached[path.stem]
        }
        report[path.stem] = (len(set().union(*units.values())), missed)
    return report


def spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, help="cap the n of every run but the demos")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for module, (total, missed) in unreached(args.n).items():
        count = sum(len(lines) for lines, _ in missed.values())
        print(f"{module}: {count} of {total} code lines unreached")
        for name, (lines, never) in missed.items():
            print(f"  {name}: {spans(lines)}{' (never called)' if never else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
