"""Command-line front end: single runs, grid sweeps, and bound tables."""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from dataclasses import fields, replace

from .analysis import module_coefficients, redundancy_coefficient
from .core import EC_EMPIRICAL, EC_THEORETICAL, InvalidConfig, ProtocolParams
from .harness import parse_config, parse_numbers, run_single, sweep


def _cmd_run(args) -> int:
    try:
        if isinstance(args.a, str):  # given on the command line; parsed here, so a bad one exits 2
            args.a = parse_numbers(args.a)
        params = ProtocolParams(**{f.name: getattr(args, f.name) for f in fields(ProtocolParams)})
        # Not truncated until the session has run: one that raises leaves the file as it was.
        out = open(args.transcript, "a") if args.transcript else None
    except (OSError, ValueError) as exc:  # an InvalidConfig, a bad efficiency or an unwritable path
        return _invalid(exc)
    with out or nullcontext():
        _, metrics, transcript = run_single(params)
        if out:
            out.truncate(0)
            out.write(transcript.to_jsonl())
    if args.json:
        print(metrics.to_json())
    else:
        for key, val in metrics.to_json_obj().items():
            print(f"{key}: {val}")
    return 0 if metrics.synchronized else 1


def _invalid(exc: Exception) -> int:
    print(f"invalid configuration: {exc}", file=sys.stderr)
    return 2


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    except (OSError, ValueError) as exc:  # an unreadable file, an InvalidConfig, or a bad number
        return _invalid(exc)
    config = replace(config, csv_path=args.csv or config.csv_path or "sweep.csv")
    try:
        rows = sweep(config)
    except (OSError, ValueError) as exc:  # an unwritable output, or --csv naming the JSONL file
        return _invalid(exc)
    if not rows:  # every variant at every grid point was skipped
        return _invalid(InvalidConfig("no grid point forms a valid session"))
    print(f"wrote {config.csv_path}", file=sys.stderr)
    bad = sum(1 for r in rows if not r["synchronized"])
    if bad:
        print(f"{bad} of {len(rows)} runs failed to synchronize", file=sys.stderr)
    return 0 if bad == 0 else 1


def _cmd_bounds(args) -> int:
    try:
        s_grid = parse_numbers(args.s_grid)
        w_grid = parse_numbers(args.w_grid, int)
        rows = []
        for w in w_grid:
            for s in s_grid:
                c1, c2, c3 = module_coefficients(s, w, args.a, args.c)
                rows.append(
                    {
                        "s": s,
                        "w": w,
                        "a": args.a,
                        "c": args.c,
                        "r": redundancy_coefficient(s, w, args.a, args.c),
                        "coef_I": c1,
                        "coef_II": c2,
                        "coef_III": c3,
                    }
                )
        out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    except (OSError, ValueError) as exc:  # a bad grid value, or an unwritable path
        return _invalid(exc)
    with out if args.csv else nullcontext():
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delsync",
        description="Simulate interactive synchronization from deletions and its cost bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one synchronization session")
    p_run.add_argument("--n", type=int, default=50_000)
    p_run.add_argument("--beta", type=float, required=True)
    p_run.add_argument("--s", type=float, default=ProtocolParams.s)
    p_run.add_argument("--w", type=int, default=ProtocolParams.w)
    p_run.add_argument("--c", type=float, default=ProtocolParams.c)
    p_run.add_argument("--a", default=ProtocolParams.a, help="code efficiencies a_1,...,a_w")
    p_run.add_argument("--seed", type=int, default=ProtocolParams.seed)
    p_run.add_argument(
        "--ec-policy", choices=[EC_EMPIRICAL, EC_THEORETICAL], default=ProtocolParams.ec_policy
    )
    p_run.add_argument("--transcript", help="write the transcript as JSON lines here")
    p_run.add_argument("--json", action="store_true", help="print metrics as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--csv", help="output CSV path (overrides the config)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="emit redundancy-coefficient tables")
    p_bounds.add_argument("--s-grid", default="1,1.5,2,2.5,3,4,5")
    p_bounds.add_argument("--w-grid", default="1,2,3")
    p_bounds.add_argument("--a", type=float, default=1.0)
    p_bounds.add_argument("--c", type=float, default=ProtocolParams.c)
    p_bounds.add_argument("--csv")
    p_bounds.set_defaults(func=_cmd_bounds)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
