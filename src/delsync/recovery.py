"""Module II: interactive per-section deletion recovery.

Bob first reports how many deletions a section carries (capped at "more than
w").  Within code capability Alice answers with one syndrome; beyond it she
transmits delimiters around the running part's center until Bob locates one,
both sides split immediately after it, and the halves recurse.  A delimiter
is sized from the part it splits, l = ceil(c * log2(|part|)); the degenerate
fallback (send the part raw) engages when a part drops below twice the
section-level delimiter length.

No syndrome value or decode result changes that control flow or the order
of messages; only a part's deletion count and Bob's delimiter search do.  So
one walk per section runs over the session's X and Y in place, on a
``RecoveryBatch``: a part is a pair of offset spans into them, and only what
travels (a delimiter, a verbatim part) is sliced.  The walk keeps the
messages as columns, each syndrome with its length and a payload still to
be computed, and queues the syndrome parts as jobs; ``RecoveryBatch.run``
then computes every syndrome and every decode of the session at once, hands
the finished messages to the transcript in one append, and completes the
estimate, one buffer over X into which each piece is written once at its X
offset.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

from .core import A2B, KINDS, BitSeq, Transcript
from .codes import CodeSpec, can_decode, decode_batch, syndrome_batch, syndrome_bits
# Not called here; bench/tracing.py rebinds these two names in this module.
from .codes import make_syndrome, multi_decode
from .matching import SectionPair

__all__ = [
    "RecoveryBatch",
    "case_payload",
    "case_width",
    "delimiter_length",
    "locate_delimiter",
    "recover_section",
]

MAX_DEPTH = 64


@lru_cache(maxsize=4096)
def delimiter_length(c: float, section_len: int) -> int:
    """l = ceil(c * log2(n_s)) bits, from the original section length."""
    return max(1, math.ceil(c * math.log2(max(2, section_len))))


@lru_cache(maxsize=64)
def case_width(w: int) -> int:
    """Bits needed for one side's state: 0..w deletions or more-than-w."""
    return math.ceil(math.log2(w + 2))


@lru_cache(maxsize=1024)
def case_payload(counts: tuple[int, ...], w: int) -> bytes:
    """Bob's case states for ``counts``, back to back, as 0/1 bytes.

    Each state takes ``case_width(w)`` bits: the deletion count, saturated
    at w + 1 (more than w).  One count is a ``SectionCase``; a pair is a
    ``CaseCode``, the states of a split's two halves.  The pair (0, 0) is
    reserved for delimiter-not-found, which it cannot be confused with: a
    split only happens when the part holds more than w >= 1 deletions.
    """
    if min(counts) < 0:
        raise ValueError("deletion count cannot be negative")
    width = case_width(w)
    value = 0
    for t in counts:
        value = value << width | min(t, w + 1)
    return BitSeq.from_int(value, width * len(counts)).to_bytes01()


@lru_cache(maxsize=4096)
def _placements(length: int, l: int) -> tuple[int, ...]:
    """Delimiter start offsets in attempt order: center, then alternating
    right/left by l, clipped to bounds, duplicates dropped."""
    if length < l:
        return ()
    center = (length - l) // 2
    seen: dict[int, None] = {}  # insertion-ordered set
    step = 0
    while True:
        raws = [center] if step == 0 else [center + step * l, center - step * l]
        progressed = False
        for raw in raws:
            start = min(max(raw, 0), length - l)
            if start not in seen:
                seen[start] = None
                progressed = True
        if (
            step > 0
            and not progressed
            and center + step * l >= length - l
            and center - step * l <= 0
        ):
            break
        step += 1
    return tuple(seen)


def locate_delimiter(y: BitSeq | bytes, delim: BitSeq | bytes, end: int, start: int = 0):
    """Leftmost occurrence of ``delim`` within y[start:end]; None if absent.

    ``y`` and ``delim`` are both ``BitSeq``s or both their raw bytes.
    """
    p = y.find(delim, start, end)
    return p if p >= 0 else None


class RecoveryBatch:
    """Module II of one session, walked over its X and Y bytes in place.

    ``recover_section`` walks each section on the batch.  The walk keeps the
    Module II messages as columns (kind, bits, payload, section id), each
    syndrome with its length and a ``None`` payload, and queues each syndrome
    part as a job: its X and Y offsets, q, t and the index of its message.
    It writes every piece of the estimate it can into one buffer over X at
    the piece's X offset: a Y run with no deletions, a verbatim part, the
    trimmed Y of a section with more bits than X.  ``run`` computes every
    job's syndrome payload in one ``syndrome_batch`` call, writes each job's
    slice into the payload column, hands the finished columns to the
    transcript in one append, and decodes every job from that same payload
    in one ``decode_batch`` call, so Bob reads exactly the bytes the
    transcript digests.  It writes each decoded part, or the best-effort
    filler of a failed decode, into the estimate.
    It returns the estimate and each section's ``clean`` flag, in the order
    the sections were walked.  A batch runs once; a second ``run`` raises
    ``RuntimeError``.
    """

    def __init__(self, x: bytes, y: bytes, codes: CodeSpec, c: float, transcript: Transcript):
        self.x, self.y = x, y
        self.codes, self.c, self.transcript = codes, c, transcript
        self.estimate = bytearray(len(x))
        # The Module II columns, in protocol order.
        self.kinds: list[str] = []
        self.bits: list[int] = []
        self.payloads: list[bytes | None] = []
        self.section_ids: list[int] = []
        self.jobs: list[int] = []  # five per job: x and y offsets, q, t, message index
        self.clean: list[bool] = []  # per section
        self.runs: list[int] = []  # per section: its alternating-direction runs
        self._first_job: list[int] = []  # per section
        self._case_width = case_width(codes.w)
        # (q, t) -> the part's syndrome width, or 0 when it is beyond capability
        self._widths: dict[tuple[int, int], int] = {}
        self._ran = False

    def run(self) -> tuple[bytearray, list[bool]]:
        if self._ran:
            raise RuntimeError("a RecoveryBatch runs once")
        self._ran = True
        codes, estimate, y, payloads = self.codes, self.estimate, self.y, self.payloads
        jobs = np.array(self.jobs, dtype=np.int64).reshape(-1, 5)
        x_start, y_start, q, t, message = jobs.T
        message = message.tolist()
        widths = [self.bits[i] for i in message]
        payload = syndrome_batch(self.x, x_start, q, t, widths, codes)
        end = 0
        for i, width in zip(message, widths):
            payloads[i] = payload[end : end + width]
            end += width
        self.transcript.extend(self.kinds, self.bits, payloads, self.section_ids)
        results = decode_batch(y, y_start, q, t, payload, widths, codes)
        for j, (x0, y0, qj, tj, result) in enumerate(
            zip(x_start.tolist(), y_start.tolist(), q.tolist(), t.tolist(), results)
        ):
            if isinstance(result, Exception):
                result = y[y0 : y0 + qj - tj] + bytes(tj)  # best-effort filler
                self.clean[bisect.bisect_right(self._first_job, j) - 1] = False
            estimate[x0 : x0 + qj] = result
        return estimate, self.clean


def recover_section(section: SectionPair, batch: RecoveryBatch) -> None:
    """Walk the interactive recovery of one section on ``batch``.

    Appends the section's messages in protocol order to the batch's columns,
    queues its syndrome parts, and writes its estimate over the section's X
    span, except for the decoded parts, which ``batch.run()`` writes.  The
    estimate always has the X-side length.  The section's ``clean`` flag is
    False when Y holds more bits than X here, or when some decode failed and
    a best-effort filler was used; residual substitutions are Module III's
    job either way.

    The walk is depth first, left half first.  A part is a pair of spans,
    x[x0:x1] and y[y0:y1], into the session's X and Y.
    """
    x0, x1 = section.x_span
    y0, y1 = section.y_span
    kinds, bits, payloads = batch.kinds, batch.bits, batch.payloads
    x, y, estimate, jobs = batch.x, batch.y, batch.estimate, batch.jobs
    c, codes, widths = batch.c, batch.codes, batch._widths
    w = codes.w
    first = len(kinds)
    batch._first_job.append(len(jobs) // 5)
    t = (x1 - x0) - (y1 - y0)
    kinds.append("SectionCase")
    bits.append(batch._case_width)
    payloads.append(case_payload((max(t, 0),), w))
    attempts = 0
    if t < 0:
        # A false pivot left Y with more bits than X here.  The case
        # vocabulary cannot express that, so Bob reports zero, trims his copy
        # to the expected length, and Module III absorbs the substitutions.
        estimate[x0:x1] = y[y0 : y0 + x1 - x0]
        batch.clean.append(False)
    else:
        pair_width, not_found = 2 * batch._case_width, case_payload((0, 0), w)
        l_section = delimiter_length(c, x1 - x0)
        stack = [(x0, x1, y0, y1, 0)]
        while stack:
            x0, x1, y0, y1, depth = stack.pop()
            q = x1 - x0
            t = q - (y1 - y0)
            if t == 0:
                estimate[x0:x1] = y[y0:y1]
                continue

            # A count the decoder cannot undo in this part (too many
            # candidates to walk, or a syndrome wider than the digest) is
            # beyond capability too: it is split by delimiters before any
            # syndrome is sent.  One deletion always can be undone.
            width = widths.get((q, t))
            if width is None:
                capable = t == 1 or (t <= w and can_decode(q, t, codes))
                width = widths[q, t] = syndrome_bits(q, t, codes) if capable else 0
            if width:
                jobs += (x0, y0, q, t, len(kinds))
                kinds.append("Syndrome")
                bits.append(width)
                payloads.append(None)  # written by batch.run()
                continue

            if q < 2 * l_section or depth >= MAX_DEPTH:
                _send_verbatim(batch, x0, x1)
                continue
            l = delimiter_length(c, q)
            for start in _placements(q, l):
                x_split = start + l
                if x_split >= q:
                    # An edge-clipped placement leaves an empty right half, so
                    # the split cannot shrink the problem; skip it without
                    # transmitting.
                    continue
                attempts += 1
                delim = x[x0 + start : x0 + x_split]
                # Clamped to the part's end: an occurrence past y1 lies in
                # the next part.
                p = locate_delimiter(y, delim, min(y0 + x_split, y1), y0)
                found = False
                if p is not None:
                    y_split = p + l
                    t_left = x_split - (y_split - y0)
                    # A split that implies negative deletions on one side is
                    # a false match; report not-found and try the next
                    # placement.
                    found = t_left <= t
                kinds += ("Delimiter", "CaseCode")
                bits += (l, pair_width)
                if found:
                    payloads += (delim, case_payload((t_left, t - t_left), w))
                    stack.append((x0 + x_split, x1, y_split, y1, depth + 1))
                    stack.append((x0, x0 + x_split, y0, y_split, depth + 1))
                    break
                payloads += (delim, not_found)
            else:
                _send_verbatim(batch, x0, x1)
        batch.clean.append(True)
    # Every CaseCode answers the Delimiter just before it, so after the
    # SectionCase each attempt adds one A2B run and one B2A run, and the A2B
    # messages after the last attempt, if any, add one more.
    batch.runs.append(1 + 2 * attempts + (KINDS[kinds[-1]][1] == A2B))
    batch.section_ids += [section.section_id] * (len(kinds) - first)


def _send_verbatim(batch: RecoveryBatch, x0: int, x1: int) -> None:
    part = batch.x[x0:x1]
    batch.kinds.append("Syndrome")
    batch.bits.append(len(part))
    batch.payloads.append(part)
    batch.estimate[x0:x1] = part
