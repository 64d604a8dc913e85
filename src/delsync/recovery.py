"""Module II: interactive per-section deletion recovery.

Bob first reports how many deletions a section carries (capped at "more than
w").  Within code capability Alice answers with one syndrome; beyond it she
transmits delimiters around the running part's center until Bob locates one,
both sides split immediately after it, and the halves recurse.  A delimiter
is sized from the part it splits, l = ceil(c * log2(|part|)); the degenerate
fallback (send the part raw) engages when a part drops below twice the
section-level delimiter length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import core
from .core import BitSeq, Transcript
from .codes import AmbiguousDecode, CodeSpec, NoCodewordFound, make_syndrome, multi_decode
from .matching import SectionPair

__all__ = [
    "CaseCode",
    "Exhausted",
    "RecoveryTask",
    "case_width",
    "delimiter_for",
    "delimiter_length",
    "locate_delimiter",
    "recover_section",
    "report_section_case",
]

MAX_DEPTH = 64


class Exhausted(Exception):
    """No delimiter placement remains in this part."""


def delimiter_length(c: float, section_len: int) -> int:
    """l = ceil(c * log2(n_s)) bits, from the original section length."""
    return max(1, math.ceil(c * math.log2(max(2, section_len))))


def case_width(w: int) -> int:
    """Bits needed for one side's state: 0..w deletions or more-than-w."""
    return math.ceil(math.log2(w + 2))


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


def _placements(length: int, l: int) -> list[int]:
    """Delimiter start offsets in attempt order: center, then alternating
    right/left by l, clipped to bounds, duplicates dropped."""
    if length < l:
        return []
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
    return list(seen)


def delimiter_for(x_part: BitSeq, attempt: int, l: int) -> tuple[BitSeq, int]:
    """The ``attempt``-th delimiter placement: (bits, end offset within the part)."""
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    spots = _placements(len(x_part), l)
    if attempt >= len(spots):
        raise Exhausted(f"no placement {attempt} in a {len(x_part)}-bit part")
    start = spots[attempt]
    return x_part[start : start + l], start + l


def locate_delimiter(y_part: BitSeq, delim: BitSeq, x_split: int):
    """Leftmost occurrence of ``delim`` ending at or before ``x_split``; None if absent."""
    p = y_part.find(delim, 0, x_split)
    return p if p >= 0 else None


def _pad_to(bits: BitSeq, n: int) -> BitSeq:
    if len(bits) >= n:
        return bits[:n]
    return bits + BitSeq.zeros(n - len(bits))


def recover_section(
    task: RecoveryTask, codes: CodeSpec, transcript: Transcript
) -> tuple[BitSeq, bool]:
    """Run the interactive recovery of one section; returns (estimate, clean).

    The estimate always has the X-side length.  ``clean`` is False when some
    decode failed and a best-effort filler was used; residual substitutions
    are Module III's job either way.
    """
    sid = task.section.section_id
    w = codes.w
    t = len(task.x_part) - len(task.y_part)
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
        return _pad_to(task.y_part, len(task.x_part)), False
    return _recover(
        task.x_part, task.y_part, task.depth, task.c, task.l, sid, codes, transcript
    )


def _send_verbatim(x_part: BitSeq, sid: int, transcript: Transcript) -> BitSeq:
    transcript.record(core.A2B, "II", "Syndrome", len(x_part), x_part.to_bytes01(), sid)
    return x_part


def _recover(
    x_part: BitSeq,
    y_part: BitSeq,
    depth: int,
    c: float,
    l_section: int,
    sid: int,
    codes: CodeSpec,
    transcript: Transcript,
) -> tuple[BitSeq, bool]:
    t = len(x_part) - len(y_part)
    if t == 0:
        return y_part, True
    w = codes.w

    if t <= w:
        syn = make_syndrome(x_part, t, codes)
        transcript.record(
            core.A2B, "II", "Syndrome", syn.bit_length, syn.payload_bytes(), sid
        )
        try:
            return multi_decode(y_part, t, syn, len(x_part), codes), True
        except (NoCodewordFound, AmbiguousDecode):
            return _pad_to(y_part, len(x_part)), False

    if len(x_part) < 2 * l_section or depth >= MAX_DEPTH:
        return _send_verbatim(x_part, sid, transcript), True

    l = delimiter_length(c, len(x_part))
    pair_width = 2 * case_width(w)
    for start in _placements(len(x_part), l):
        x_split = start + l
        if x_split >= len(x_part):
            # An edge-clipped placement leaves an empty right half, so the
            # split cannot shrink the problem; skip it without transmitting.
            continue
        delim = x_part[start:x_split]
        transcript.record(core.A2B, "II", "Delimiter", l, delim.to_bytes01(), sid)
        p = locate_delimiter(y_part, delim, x_split)
        if p is not None:
            y_split = p + l
            t_left = x_split - y_split
            t_right = t - t_left
            if t_right >= 0:
                case = CaseCode(min(t_left, w + 1), min(t_right, w + 1))
                transcript.record(
                    core.B2A, "II", "CaseCode", pair_width, case.encode(w).to_bytes01(), sid
                )
                left, ok_l = _recover(
                    x_part[:x_split], y_part[:y_split], depth + 1, c, l_section, sid,
                    codes, transcript,
                )
                right, ok_r = _recover(
                    x_part[x_split:], y_part[y_split:], depth + 1, c, l_section, sid,
                    codes, transcript,
                )
                return left + right, ok_l and ok_r
            # A split that implies negative deletions on one side is a false
            # match; report not-found and try the next placement.
        case = CaseCode(0, 0, not_found=True)
        transcript.record(
            core.B2A, "II", "CaseCode", pair_width, case.encode(w).to_bytes01(), sid
        )
    return _send_verbatim(x_part, sid, transcript), True
