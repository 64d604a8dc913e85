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
the recursion records each syndrome message with its length and a pending
payload and queues the part as a job on a ``RecoveryBatch``, which computes
every syndrome and every decode of a session at once when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import BitSeq, Transcript
from .codes import CodeSpec, can_decode, decode_batch, syndrome_batch, syndrome_bits
# Not called here; bench/tracing.py rebinds these two names in this module.
from .codes import make_syndrome, multi_decode
from .matching import SectionPair

__all__ = [
    "CaseCode",
    "RecoveryBatch",
    "RecoveryTask",
    "case_width",
    "delimiter_length",
    "locate_delimiter",
    "recover_section",
    "report_section_case",
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
def report_section_case(t: int, w: int) -> BitSeq:
    """Bob's per-section deletion count, saturated to the more-than-w state."""
    if t < 0:
        raise ValueError("deletion count cannot be negative")
    state = t if t <= w else w + 1
    return BitSeq.from_int(state, case_width(w))


@dataclass(frozen=True)
class CaseCode:
    """Post-split feedback: each half's state, or delimiter-not-found.

    Not-found reuses the (0, 0) pattern, which cannot occur honestly: a split
    only happens when the part holds more than w >= 1 deletions.
    """

    left_state: int
    right_state: int
    not_found: bool = False

    def encode(self, w: int) -> BitSeq:
        width = case_width(w)
        if self.not_found:
            return BitSeq.from_int(0, 2 * width)
        if not (0 <= self.left_state <= w + 1 and 0 <= self.right_state <= w + 1):
            raise ValueError("state out of range")
        return BitSeq.from_int((self.left_state << width) | self.right_state, 2 * width)


@lru_cache(maxsize=1024)
def _case_payload(left: int, right: int, not_found: bool, w: int) -> bytes:
    return CaseCode(left, right, not_found).encode(w).to_bytes01()


@dataclass(frozen=True)
class RecoveryTask:
    """One section queued for recovery; ``l`` is the section-level delimiter
    length, which also sets the verbatim-fallback threshold at 2l."""

    section: SectionPair
    x_part: BitSeq
    y_part: BitSeq
    depth: int
    c: float

    @property
    def l(self) -> int:
        return delimiter_length(self.c, len(self.x_part))


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


def locate_delimiter(y_part: BitSeq | bytes, delim: BitSeq | bytes, x_split: int):
    """Leftmost occurrence of ``delim`` ending at or before ``x_split``; None if absent.

    ``y_part`` and ``delim`` are both ``BitSeq``s or both their raw bytes.
    """
    p = y_part.find(delim, 0, x_split)
    return p if p >= 0 else None


class RecoveryBatch:
    """The syndrome and decode jobs of many sections, run in one pass.

    Each job is one part: Alice's source and Bob's received word, appended
    to one buffer per side, with its deletion count and the index of its
    ``Syndrome`` message.  ``run`` sends every job through one
    ``syndrome_batch`` and one ``decode_batch`` call, fills each pending
    syndrome payload into the transcript, and returns each section's
    (estimate, clean) in the order the sections were added.  A batch runs
    once; a second ``run`` raises ``RuntimeError``.
    """

    def __init__(self, codes: CodeSpec, transcript: Transcript):
        self.codes, self.transcript = codes, transcript
        self._x, self._y = bytearray(), bytearray()
        self._jobs: list[tuple[int, int, int, int, int]] = []  # x, y offsets; q; t; message
        self._sections: list[tuple[list[bytes | int], bool]] = []
        self._ran = False

    def queue(self, x_part: bytes, y_part: bytes, t: int, message: int) -> int:
        """Queue one part's syndrome and decode; returns the job id."""
        self._jobs.append((len(self._x), len(self._y), len(x_part), t, message))
        self._x += x_part
        self._y += y_part
        return len(self._jobs) - 1

    def add_section(self, pieces: list[bytes | int], clean: bool) -> None:
        """A section's estimate, in order: literal bytes, or a job id for a decoded part."""
        self._sections.append((pieces, clean))

    def run(self) -> list[tuple[BitSeq, bool]]:
        if self._ran:
            raise RuntimeError("a RecoveryBatch runs once")
        self._ran = True
        x, y = bytes(self._x), bytes(self._y)
        self._x.clear()
        self._y.clear()
        results = self._solve(x, y)
        out = []
        for pieces, clean in self._sections:
            parts = []
            for p in pieces:
                if isinstance(p, int):
                    _, y_start, q, t, _ = self._jobs[p]
                    p = results[p]
                    if isinstance(p, Exception):
                        clean = False
                        p = y[y_start : y_start + q - t] + bytes(t)
                parts.append(p)
            out.append((BitSeq(b"".join(parts)), clean))
        return out

    def _solve(self, x: bytes, y: bytes) -> list[bytes | Exception]:
        """Every job's decoded bytes or decode error; fills the syndrome payloads."""
        codes, transcript = self.codes, self.transcript
        x_start, y_start, q, t, message = np.array(self._jobs, dtype=np.int64).reshape(-1, 5).T
        values = syndrome_batch(x, x_start, q, t, codes)
        for i, value in zip(message.tolist(), values):
            transcript.fill(i, BitSeq.from_int(value, transcript.bits[i]).to_bytes01())
        return decode_batch(y, y_start, q, t, values, codes)


def recover_section(task: RecoveryTask, batch: RecoveryBatch) -> None:
    """Run the interactive recovery of one section on ``batch``.

    Records the section's messages in protocol order and queues its
    syndromes and decodes; ``batch.run()`` then gives its (estimate, clean).
    The estimate always has the X-side length.  ``clean`` is False when some
    decode failed and a best-effort filler was used; residual substitutions
    are Module III's job either way.
    """
    transcript = batch.transcript
    sid = task.section.section_id
    w = batch.codes.w
    x, y = task.x_part.to_bytes01(), task.y_part.to_bytes01()
    t = len(x) - len(y)
    transcript.record(
        core.B2A,
        "II",
        "SectionCase",
        case_width(w),
        report_section_case(max(t, 0), w).to_bytes01(),
        sid,
    )
    if t < 0:
        # A false pivot left Y with more bits than X here.  The case
        # vocabulary cannot express that, so Bob reports zero, trims his copy
        # to the expected length, and Module III absorbs the substitutions.
        batch.add_section([y[: len(x)]], False)
    else:
        pieces: list[bytes | int] = []
        _recover(x, y, task.depth, task.c, task.l, sid, batch, pieces)
        batch.add_section(pieces, True)


def _send_verbatim(x_part: bytes, sid: int, transcript: Transcript) -> bytes:
    transcript.record(core.A2B, "II", "Syndrome", len(x_part), x_part, sid)
    return x_part


def _recover(
    x_part: bytes,
    y_part: bytes,
    depth: int,
    c: float,
    l_section: int,
    sid: int,
    batch: RecoveryBatch,
    pieces: list[bytes | int],
) -> None:
    """Append the part's estimate to ``pieces``: literal bytes, or a queued job id.

    The parts travel as raw bytes, one per bit, which slice several times
    faster than ``BitSeq``s.
    """
    q = len(x_part)
    t = q - len(y_part)
    if t == 0:
        pieces.append(y_part)
        return
    codes, transcript = batch.codes, batch.transcript
    w = codes.w

    # A count the decoder cannot undo in this part is beyond capability too:
    # it is split by delimiters before any syndrome is sent.
    if t <= w and can_decode(q, t, codes):
        msg = transcript.record(core.A2B, "II", "Syndrome", syndrome_bits(q, t, codes), None, sid)
        pieces.append(batch.queue(x_part, y_part, t, msg))
        return

    if q < 2 * l_section or depth >= MAX_DEPTH:
        pieces.append(_send_verbatim(x_part, sid, transcript))
        return

    l = delimiter_length(c, q)
    pair_width = 2 * case_width(w)
    for start in _placements(q, l):
        x_split = start + l
        if x_split >= q:
            # An edge-clipped placement leaves an empty right half, so the
            # split cannot shrink the problem; skip it without transmitting.
            continue
        delim = x_part[start:x_split]
        transcript.record(core.A2B, "II", "Delimiter", l, delim, sid)
        p = locate_delimiter(y_part, delim, x_split)
        if p is not None:
            y_split = p + l
            t_left = x_split - y_split
            t_right = t - t_left
            if t_right >= 0:
                case = _case_payload(min(t_left, w + 1), min(t_right, w + 1), False, w)
                transcript.record(core.B2A, "II", "CaseCode", pair_width, case, sid)
                for xs, ys in ((x_part[:x_split], y_part[:y_split]),
                               (x_part[x_split:], y_part[y_split:])):
                    _recover(xs, ys, depth + 1, c, l_section, sid, batch, pieces)
                return
            # A split that implies negative deletions on one side is a false
            # match; report not-found and try the next placement.
        case = _case_payload(0, 0, True, w)
        transcript.record(core.B2A, "II", "CaseCode", pair_width, case, sid)
    pieces.append(_send_verbatim(x_part, sid, transcript))
