"""delsync benchmark: closed-loop synchronization sessions from one process.

    python3 bench/run.py --workload bigfile --seed 1 --seconds 30 --trace 0

Each workload draws a fixed pool of cases from ``--seed`` and runs them one
at a time, cycling through the pool until ``--seconds`` have passed (always
at least one full pass).  Every session's output is checked.  ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json; ``--trace 1`` reruns
the loop with spans around each module's public functions and reports the
per-layer metrics instead.  End-to-end timings are scaled by the machine's
speed around each call (see ``reference.py``); the wall-clock figures are
printed beside them.  The last line of standard output is one JSON object;
the lines before it list each session of the first pass with its bit total
and transcript digest, then every metric in readable form.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import delsync  # noqa: E402
from delsync import core, harness, protocol  # noqa: E402

if not Path(delsync.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"delsync was imported from {delsync.__file__}, not from {ROOT / 'src'}")

import reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    cases: int  # distinct cases per pass; wire_bits and rounds_seq sum one pass
    betas: tuple[float, ...]


WORKLOADS = {
    # Module I does most of the work here: at the seed commit find_candidates
    # took 61% of a 1.7 s session, against 24% for codes.  A linear-time
    # candidate search or pivot selection shows up on this workload.
    "bigfile": Workload("bigfile", n=200_000, cases=12, betas=(0.01,)),
    # Sections of about 2000 bits carry 1-2 deletions, so the codes do most of
    # the work (multi_decode 69%, make_syndrome 16%, matching 6%).  This is
    # the bypass case for any Module I change.
    "sparse": Workload("sparse", n=50_000, cases=150, betas=(0.001,)),
    # One harness.sweep call per case, as the acceptance grids run it: the
    # baseline (w=1) and improved variants paired per seed, theoretical
    # policy.  The baseline takes the VT decode path and deeper delimiter
    # recursion and sends about twice the messages; Module III is charged
    # without a Verify digest.  The only workload through harness.
    "sweep": Workload("sweep", n=50_000, cases=20, betas=(0.001, 0.002, 0.005, 0.01)),
}


@dataclass(frozen=True)
class Session:
    case: int
    index: int  # position within the case (a sweep case holds several sessions)
    n: int
    seconds: float
    bits_total: int
    rounds_seq: int
    digest: str
    error: str | None
    scale: float = 1.0  # machine-speed factor of the call that ran it

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


class Call(NamedTuple):
    """One timed library call: ``synchronize``, or ``harness.sweep`` for sweep."""
    wall_s: float
    scaled_s: float
    sessions: int


def check_session(x, x_hat, metrics, transcript) -> str | None:
    """Why a session's output is wrong, or None when it is right."""
    if not metrics.synchronized:
        return "synchronized is false"
    if len(x_hat) != len(x):
        return f"len(x_hat) = {len(x_hat)}, n = {len(x)}"
    if x_hat != x:
        return "x_hat differs from x"
    per_message = sum(m.bits for m in transcript.entries)
    by_module = metrics.bits_I + metrics.bits_II + metrics.bits_III
    if not per_message == metrics.bits_total == by_module:
        return (f"bit totals disagree: messages {per_message}, bits_total "
                f"{metrics.bits_total}, modules {by_module}")
    return None


def _raised(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {type(exc).__name__}: {exc}"


def _session(case, index, n, seconds, x, out, exc) -> Session:
    if exc is not None:
        return Session(case, index, n, seconds, 0, 0, "", _raised(exc))
    x_hat, metrics, transcript = out
    return Session(case, index, n, seconds, metrics.bits_total, metrics.rounds_sequential,
                   f"{transcript.final_digest:016x}",
                   check_session(x, x_hat, metrics, transcript))


class SessionRunner:
    """bigfile, sparse: one synchronize call per case on inputs drawn here.

    The digest key seed stays fixed for the run, so the warm-up session fills
    the hash-power cache that the timed sessions use.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed & _SEED_MASK
        v = harness.IMPROVED
        self.params = core.ProtocolParams(n=wl.n, beta=wl.betas[0], s=2.0, c=v.c, w=v.w, a=v.a,
                                          seed=self.seed)

    def warm_up(self) -> None:
        self(self.wl.cases)

    def __call__(self, case: int) -> tuple[float, list[Session]]:
        rng = np.random.default_rng([self.seed, case])
        x = core.random_bits(self.wl.n, rng)
        channel = core.apply_deletion_channel(x, self.wl.betas[0], rng)
        out = exc = None
        t0 = time.perf_counter()
        try:
            out = protocol.synchronize(x, channel.y, self.params, channel)
        except Exception as e:  # a failed session is counted, not fatal
            exc = e
        dt = time.perf_counter() - t0
        return dt, [_session(case, 0, self.wl.n, dt, x, out, exc)]

    def close(self) -> None:
        pass


class SweepRunner:
    """sweep: one harness.sweep call per case, seed0 drawn from the workload seed.

    ``harness.synchronize`` is rebound to a recorder so that each session's
    reconstruction and transcript can be checked after the call returns.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed & _SEED_MASK
        self.calls: list[tuple] = []
        self._synchronize = harness.synchronize
        harness.synchronize = self._record

    def _record(self, x, y, params, channel=None):
        t0 = time.perf_counter()
        try:
            out = self._synchronize(x, y, params, channel)
        except Exception as exc:
            self.calls.append((x, time.perf_counter() - t0, None, exc))
            raise
        self.calls.append((x, time.perf_counter() - t0, out, None))
        return out

    def close(self) -> None:
        harness.synchronize = self._synchronize

    def _seed0(self, case: int) -> int:
        return self.seed * (self.wl.cases + 1) + case

    def warm_up(self) -> None:
        harness.run_point(self.wl.n, max(self.wl.betas), 2.0, [harness.IMPROVED],
                          seed=self._seed0(self.wl.cases))
        self.calls.clear()

    def __call__(self, case: int) -> tuple[float, list[Session]]:
        config = harness.ExperimentConfig(
            n=self.wl.n, beta_grid=self.wl.betas, s_grid=(2.0,),
            variants=(harness.BASELINE, harness.IMPROVED), trials=1,
            ec_policy="theoretical", seed0=self._seed0(case),
        )
        self.calls.clear()
        t0 = time.perf_counter()
        rows = harness.sweep(config)
        dt = time.perf_counter() - t0
        if len(rows) != len(self.calls):
            err = f"{len(rows)} rows for {len(self.calls)} sessions"
            return dt, [Session(case, i, self.wl.n, s, 0, 0, "", err)
                        for i, (_, s, _, _) in enumerate(self.calls)]
        sessions = []
        for i, (row, (x, seconds, out, exc)) in enumerate(zip(rows, self.calls)):
            s = _session(case, i, self.wl.n, seconds, x, out, exc)
            by_module = row["bits_I"] + row["bits_II"] + row["bits_III"]
            if s.error is None and not (row["synchronized"]
                                        and row["bits_total"] == by_module == s.bits_total):
                s = replace(s, error=f"row disagrees with the session: {row}")
            sessions.append(s)
        return dt, sessions


def make_runner(wl: Workload, seed: int):
    return (SweepRunner if wl.name == "sweep" else SessionRunner)(wl, seed)


def measure(runner, wl: Workload, seconds: float) -> tuple[list[Session], list[Call]]:
    """Cycle through the case pool until ``seconds`` pass and one pass is done.

    Returns every session and every library call.  The reference job is timed
    before and after each call.  A repeated case must give the bits and
    digest of its first run.
    """
    sessions: list[Session] = []
    calls: list[Call] = []
    first: dict[tuple[int, int], tuple[int, str]] = {}
    before = reference.sample()
    start = time.perf_counter()
    while len(calls) < wl.cases or time.perf_counter() - start < seconds:
        dt, got = runner(len(calls) % wl.cases)
        after = reference.sample()
        factor = reference.scale(before, after)
        before = after
        calls.append(Call(dt, dt * factor, len(got)))
        for s in got:
            s = replace(s, scale=factor)
            key = (s.case, s.index)
            if key in first and s.error is None and first[key] != (s.bits_total, s.digest):
                s = replace(s, error=f"differs from the first run of case {key}")
            first.setdefault(key, (s.bits_total, s.digest))
            sessions.append(s)
    return sessions, calls


def first_pass(sessions: list[Session]) -> list[Session]:
    seen, out = set(), []
    for s in sessions:
        if (s.case, s.index) not in seen:
            seen.add((s.case, s.index))
            out.append(s)
    return out


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (len(values) - 10) / len(values), ordered[-11]


def kbit_per_s(sessions: list[Session], calls: list[Call], field: str = "scaled_s") -> float:
    return sum(s.n for s in sessions) / sum(getattr(c, field) for c in calls) / 1000.0


def session_p50(calls: list[Call], field: str = "scaled_s") -> float:
    """Median over the library calls of a call's time per session.

    For bigfile and sparse a call is one session.  A sweep call runs eight
    sessions of four deletion rates and two variants, whose times differ by
    up to ten times; pooling them would put the median in the gap between
    two of them, where it jumps with the inputs.
    """
    return statistics.median(getattr(c, field) / c.sessions for c in calls)


def end_to_end(sessions: list[Session], calls: list[Call],
               setup: list[float]) -> dict[str, float]:
    ok_first = [s for s in first_pass(sessions) if s.error is None]
    failed = sum(s.error is not None for s in sessions)
    return {
        "kbit_per_s": kbit_per_s(sessions, calls),
        "session_s_p50": session_p50(calls),
        "wire_bits": sum(s.bits_total for s in ok_first),
        "rounds_seq": sum(s.rounds_seq for s in ok_first),
        "synced_ratio": (len(sessions) - failed) / len(sessions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: start, import, inputs, one warm-up session.

    Returns (wall, scaled) seconds per probe.  The reference job is timed here
    before the probe starts and by the probe when it is set up.
    """
    out = []
    for _ in range(SETUP_PROBES):
        before = reference.sample()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.monotonic())]
        if args.n is not None:
            cmd += ["--n", str(args.n)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        wall, after = map(float, done.stdout.split()[-2:])
        out.append((wall, wall * reference.scale(before, after)))
    return out


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def workload(args) -> Workload:
    wl = WORKLOADS[args.workload]
    return wl if args.n is None else replace(wl, n=args.n)


def run(args) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = workload(args)
    setup = [] if args.trace else measure_setup(args)
    reference.sample()  # the job's first runs are slower
    runner = make_runner(wl, args.seed)
    try:
        runner.warm_up()
        if args.trace:
            with Tracer().install() as tracer:
                sessions, calls = measure(runner, wl, args.seconds)
            values = layer_metrics(tracer, len(sessions))
            values["traced.kbit_per_s"] = kbit_per_s(sessions, calls)
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{wl.name}.tsv")
        else:
            sessions, calls = measure(runner, wl, args.seconds)
            values = end_to_end(sessions, calls, [s for _, s in setup])
    finally:
        runner.close()

    for s in first_pass(sessions):
        print(f"session case={s.case} index={s.index} bits_total={s.bits_total} "
              f"final_digest={s.digest}")
    failed = [s for s in sessions if s.error is not None]
    for s in failed:
        print(f"FAILED case={s.case} index={s.index}: {s.error}")
    print(f"failed_ratio = {len(failed) / len(sessions)!r} ({len(failed)} of {len(sessions)})")
    speed = sum(c.scaled_s for c in calls) / sum(c.wall_s for c in calls)
    print(f"wall kbit_per_s = {kbit_per_s(sessions, calls, 'wall_s')!r} kbit/s "
          f"(the machine ran at {speed!r} of the reference speed)")
    if not args.trace:
        print(f"wall session_s_p50 = {session_p50(calls, 'wall_s')!r} s")
        for label, seconds in (("", lambda s: s.scaled_s), ("wall ", lambda s: s.seconds)):
            t = tail([seconds(s) for s in sessions])
            print(f"{label}session_s_tail = "
                  + (f"{t[1]!r} s at p{t[0]:.1f} ({len(sessions)} sessions)"
                     if t else f"n/a ({len(sessions)} sessions, need 11)"))
        print(f"setup_s samples (wall, scaled) = {setup!r}")

    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    return {"correct": not failed, "attempted": len(sessions), "failed": len(failed),
            "metrics": metrics}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="session length in bits instead of the workload's (for quick checks)")
    ap.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args) -> None:
    """Child side of measure_setup: warm up, print seconds since T0 and a reference time."""
    runner = make_runner(workload(args), args.seed)
    try:
        runner.warm_up()
    finally:
        runner.close()
    elapsed = time.monotonic() - args.setup_probe
    reference.sample()  # the job's first runs are slower
    print(repr(elapsed), repr(statistics.median(reference.sample() for _ in range(3))))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    print(json.dumps(run(args), separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
