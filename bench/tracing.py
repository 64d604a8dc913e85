"""Span recording for the traced benchmark run.

Spans are recorded by rebinding each traced function under the name its
caller looks it up by (``delsync.protocol.find_candidates``, not
``delsync.matching.find_candidates``), so nothing in the package changes.
A span holds its name, start, end, parent span and session id; spans stay in
memory until the run ends.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

LAYERS = ("matching", "codes", "recovery", "core", "protocol", "harness")

# Span fields, kept as a list per span so the hot path only appends.
NAME, START, END, PARENT, SESSION, CHILD_S = range(6)


class TracingError(RuntimeError):
    """A traced name no longer exists where its caller looks it up."""


def _count_candidates(counters, args, result, raised):
    if not raised:
        counters["matching.candidates"] += len(result)


def _count_pivots(counters, args, result, raised):
    candidates = args[0]
    counters["matching.pivots_sent"] += len(candidates)
    counters["matching.nodes"] += sum(len(c) for c in candidates)
    if not raised:
        counters["matching.pivots_selected"] += len(result)


def _decode_path(t: int, syndrome) -> str | None:
    """Which branch of ``codes.multi_decode`` a call takes."""
    if t < 1 or syndrome is None:
        return None
    if syndrome.kind == "VT":
        return "vt"
    if t == 1:
        return "hash_t1"
    if t == 2 and len(syndrome.value) >= 31:
        return "hash_t2"
    return "walk"


def _count_decode(counters, args, result, raised):
    path = _decode_path(args[1], args[2])
    if path is not None:
        counters[f"codes.decode_{path}"] += 1
    if raised:
        counters["codes.decode_raised"] += 1


def _count_delimiter(counters, args, result, raised):
    if not raised and result is not None:
        counters["recovery.delimiter_hits"] += 1


@dataclass(frozen=True)
class TracePoint:
    owner: str  # "module" or "module:Class"
    attr: str
    span: str
    new_session: bool = False
    observe: Callable | None = None


TRACE_POINTS = (
    TracePoint("delsync.protocol", "synchronize", "protocol.synchronize", new_session=True),
    TracePoint("delsync.harness", "synchronize", "protocol.synchronize", new_session=True),
    TracePoint("delsync.protocol", "error_correction_bits", "protocol.error_correction_bits"),
    TracePoint("delsync.protocol", "find_candidates", "matching.find_candidates",
               observe=_count_candidates),
    TracePoint("delsync.protocol", "select_pivots", "matching.select_pivots",
               observe=_count_pivots),
    TracePoint("delsync.protocol", "recover_section", "recovery.recover_section"),
    TracePoint("delsync.recovery", "locate_delimiter", "recovery.locate_delimiter",
               observe=_count_delimiter),
    TracePoint("delsync.recovery", "make_syndrome", "codes.make_syndrome"),
    TracePoint("delsync.recovery", "multi_decode", "codes.multi_decode", observe=_count_decode),
    TracePoint("delsync.protocol", "fnv1a64", "core.fnv1a64"),
    TracePoint("delsync.core:Transcript", "record", "core.Transcript.record"),
    TracePoint("delsync.core:Transcript", "messages_for_section",
               "core.Transcript.messages_for_section"),
    TracePoint("delsync.core", "random_bits", "core.random_bits"),
    TracePoint("delsync.harness", "random_bits", "core.random_bits"),
    TracePoint("delsync.core", "apply_deletion_channel", "core.apply_deletion_channel"),
    TracePoint("delsync.harness", "apply_deletion_channel", "core.apply_deletion_channel"),
    TracePoint("delsync.harness", "run_point", "harness.run_point"),
    TracePoint("delsync.harness", "sweep", "harness.sweep"),
)


def _resolve(owner: str):
    module_path, _, cls = owner.partition(":")
    module = importlib.import_module(module_path)
    return getattr(module, cls) if cls else module


class Tracer:
    """Records nested spans around rebound functions; restores them on close."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._sessions = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self, points=TRACE_POINTS) -> "Tracer":
        try:
            for point in points:
                owner = _resolve(point.owner)
                if not hasattr(owner, point.attr):
                    raise TracingError(f"{point.owner}.{point.attr} no longer exists")
                original = getattr(owner, point.attr)
                setattr(owner, point.attr, self._wrap(original, point))
                self._restore.append((owner, point.attr, original))
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, fn, point: TracePoint):
        spans, stack, counters = self.spans, self._stack, self.counters
        name, new_session, observe = point.span, point.new_session, point.observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if new_session or parent is None:
                session = self._sessions
                self._sessions += 1
            else:
                session = spans[parent][SESSION]
            span = [name, 0.0, 0.0, parent, session, 0.0]
            stack.append(len(spans))
            spans.append(span)
            raised = True
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = span[END] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD_S] += end - span[START]
                if observe is not None:
                    observe(counters, args, result, raised)

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = Counter()
        for s in self.spans:
            out[s[NAME]] += s[END] - s[START] - s[CHILD_S]
        return out

    def calls(self) -> Counter:
        return Counter(s[NAME] for s in self.spans)

    def write(self, path) -> None:
        """Tab-separated spans in start order; ``parent`` is a row number, -1 for none."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tsession\n")
            for s in self.spans:
                parent = -1 if s[PARENT] is None else s[PARENT]
                fh.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{parent}\t{s[SESSION]}\n")


def layer_metrics(tracer: Tracer, sessions: int) -> dict[str, float]:
    """Per-layer figures from a traced run; times and counts are per session."""
    if sessions < 1:
        raise ValueError("a traced run needs at least one session")
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in dict.fromkeys(p.span for p in TRACE_POINTS):
        out[f"{span}.self_s"] = self_s.get(span, 0.0) / sessions
    for span in ("matching.find_candidates", "recovery.recover_section",
                 "recovery.locate_delimiter", "core.Transcript.record"):
        out[f"{span}.calls"] = calls[span] / sessions
    out["matching.candidates_per_pivot"] = ratio(
        c["matching.candidates"], calls["matching.find_candidates"])
    out["matching.select_pivots.nodes"] = c["matching.nodes"] / sessions
    out["matching.pivot_yield"] = ratio(
        c["matching.pivots_selected"], c["matching.pivots_sent"])
    for path in ("vt", "hash_t1", "hash_t2", "walk"):
        out[f"codes.multi_decode.calls_{path}"] = c[f"codes.decode_{path}"] / sessions
    out["codes.multi_decode.fail_ratio"] = ratio(
        c["codes.decode_raised"], calls["codes.multi_decode"])
    out["recovery.delimiter_hit_ratio"] = ratio(
        c["recovery.delimiter_hits"], calls["recovery.locate_delimiter"])
    total = sum(self_s.values())
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = ratio(share, total)
    return out
