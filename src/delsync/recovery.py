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
``recover_section`` walks all of a session's sections in order, each from
the whole section as its first part, with one rule for every part, over the
session's X and Y in place: a part is an X and a Y offset with its length and
deletion count, and only what travels (a delimiter, a verbatim part) is
sliced.  Bob's delimiter search runs over 8-bit window views of X and Y,
the views Module I's candidate search reads Y from (``core.window_view``,
byte i holds bits i..i+7), whose 256 symbols let ``bytes.find`` skip where
0/1 bytes leave it almost none; a delimiter under 8 bits is searched on the
0/1 bytes.  Module II builds its own views and drops them before the codes
run.  Once the walk is done it computes every
syndrome and every decode of the session at once, hands the finished
messages to the transcript in one append, and completes the estimate, one
buffer over X into which each piece is written once at its X offset.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .core import BitSeq, Transcript, window_view
from .codes import CodeSpec, decode_batch, syndrome_batch, syndrome_width
# Not called here; bench/tracing.py rebinds these two names in this module.
from .codes import make_syndrome, multi_decode

__all__ = [
    "case_payload",
    "case_width",
    "delimiter_length",
    "locate_delimiter",
    "recover_section",
]

MAX_DEPTH = 64
# Most (q, t) entries a code family's width table holds; a full table is
# emptied before its next entry.  The table pays for itself: a bench bigfile
# session (n = 2e5, beta = 0.01) looks up about 1,150 widths and misses 30.
_WIDTHS_MAX = 1 << 12


@lru_cache(maxsize=4096)
def delimiter_length(c: float, section_len: int) -> int:
    """l = ceil(c * log2(n)) bits for a length-n piece, n at least 2.

    It has two uses.  Given a part's length (through ``_plan``) it is the
    length of the delimiters that split that part.  Given a section's length
    it is the verbatim threshold: a part shorter than twice it is sent raw.
    """
    return max(1, math.ceil(c * math.log2(max(2, section_len))))


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
def _plan(c: float, q: int) -> tuple[int, tuple[int, ...]]:
    """A length-``q`` part's delimiter length l and the starts of the
    delimiters it tries, in attempt order: the center, then alternately one
    step of l to the right and one to the left, the last left step clipped
    to 0.  A right step clipped to the part's edge would leave an empty right
    half, so its split could not shrink the problem: it is not tried."""
    l = delimiter_length(c, q)
    if q <= l:
        return l, ()
    center = (q - l) // 2
    right = range(center + l, q - l, l)
    left = [*range(center - l, 0, -l), 0] if center > 0 else []
    paired = min(len(right), len(left))
    return l, (center, *chain.from_iterable(zip(right, left)), *right[paired:], *left[paired:])


@lru_cache(maxsize=16)
def _width_table(w: int, a: tuple[float, ...]) -> dict[tuple[int, int], int]:
    """The code family (w, a)'s syndrome widths, filled by the walk: (q, t) ->
    ``syndrome_width(q, t)``, 0 when the part is beyond capability.
    ``syndrome_width`` reads only w and a, so the sessions of one family
    share the table."""
    return {}


def _window_search(x: bytes, y: bytes):
    """Bob's delimiter search over the session's X and Y, 0/1 bytes.

    Returns ``find(a, l, y0, end)``: the leftmost occurrence of the
    delimiter x[a : a + l] within y[y0:end], or -1, exactly as
    ``y.find(x[a : a + l], y0, end)`` for 0 <= y0 and end <= len(y).  A
    delimiter of l >= 8 bits occurs at p exactly when its l - 7 windows of 8
    bits equal Y's at p, so it is searched as those windows in a window view
    of Y, over the same starts; the needle reads only the delimiter's bits.
    ``find`` builds both views (``core.window_view``, cut to the windows
    that fit), each one byte per bit, at its first search of l >= 8 bits,
    and holds them until it is dropped.
    """
    x8 = y8 = None

    def find(a: int, l: int, y0: int, end: int) -> int:
        nonlocal x8, y8
        if l < 8:
            return y.find(x[a : a + l], y0, end)
        if y8 is None:
            x8, y8 = (window_view(bits)[: max(len(bits) - 7, 0)].tobytes() for bits in (x, y))
        end -= 7
        # A negative end would count back from the view's end: clamp it.
        return y8.find(x8[a : a + l - 7], y0, end if end > y0 else y0)

    return find


def locate_delimiter(y: BitSeq | bytes, delim: BitSeq | bytes, end: int, start: int = 0):
    """Leftmost occurrence of ``delim`` within y[start:end]; None if absent.

    ``y`` and ``delim`` are both ``BitSeq``s or both their raw bytes.
    """
    p = y.find(delim, start, end)
    return p if p >= 0 else None


def recover_section(
    sections: np.ndarray,
    x: bytes,
    y: bytes,
    codes: CodeSpec,
    c: float,
    transcript: Transcript,
) -> tuple[bytearray, list[bool], list[int]]:
    """Module II of one session: recover its sections, in order, from X and Y.

    ``sections`` holds one row (x0, x1, y0, y1, t) per section, as
    ``matching.form_sections`` returns them: row i is section i, x[x0:x1]
    against y[y0:y1] with t = (x1 - x0) - (y1 - y0).  The rows lie in order
    without overlap, 0 <= x0 <= x1 <= the next row's x0 and the last x1 <=
    |X|, and alike in Y; rows that break this raise ``ValueError``.  Returns
    Bob's estimate, one buffer over X, and per section its ``clean`` flag and
    its alternating-direction run count.  ``clean`` is False when Y holds
    more bits than X there, or when a decode failed and a best-effort filler
    was used; residual substitutions are Module III's job either way.

    Each section is one walk, depth first, left half first, that starts
    from the whole section as its one part; a section with more bits in Y
    than in X starts with t = 0, so Bob keeps the first x1 - x0 bits of
    its Y.  A part is (x0, y0, q, t, depth): x[x0 : x0 + q] and
    y[y0 : y0 + q - t] at that depth.  The walk keeps the messages as
    columns, each syndrome with a ``None`` payload, queues each syndrome part
    as a job (X and Y offsets, q, t, message index), and writes every other
    piece of the estimate at its X offset.  Then one ``syndrome_batch`` call
    fills the payloads, one ``extend`` hands the messages to the transcript,
    and one ``decode_batch`` call decodes every job from that same payload,
    so Bob reads exactly the bytes the transcript digests.
    """
    rows = np.asarray(sections, dtype=np.int64).reshape(-1, 5)
    # Per side, 0, x0, x1, x0', x1', ..., |X| never falls, and every row's t
    # is its spans' difference.
    edges = np.empty((2, 2 * len(rows) + 2), dtype=np.int64)
    edges[:, 0], edges[:, -1] = 0, (len(x), len(y))
    edges[:, 1:-1] = rows[:, :4].reshape(-1, 2, 2).transpose(1, 0, 2).reshape(2, -1)
    spans = rows[:, 1] - rows[:, 0] - rows[:, 3] + rows[:, 2]
    if (edges[:, 1:] < edges[:, :-1]).any() or (spans != rows[:, 4]).any():
        raise ValueError("section rows must lie in order in X and Y, t = (x1 - x0) - (y1 - y0)")
    estimate = bytearray(len(x))
    # The Module II columns, in protocol order.
    kinds: list[str] = []
    bits: list[int] = []
    payloads: list[bytes | None] = []
    section_ids: list[int] = []
    jobs: list[int] = []  # five per job: x and y offsets, q, t, message index
    clean: list[bool] = []
    runs: list[int] = []
    w = codes.w
    widths = _width_table(w, codes.a)
    max_depth = MAX_DEPTH
    find = _window_search(x, y)
    # Bob's case payloads by saturated count: one count, and a split's pair.
    over = w + 1
    section_case = [case_payload((t,), w) for t in range(over + 1)]
    pair_case = [[case_payload((a, b), w) for b in range(over + 1)] for a in range(over + 1)]
    not_found = pair_case[0][0]
    case_bits = case_width(w)
    pair_bits = 2 * case_bits
    for sid, (x0, x1, y0, y1, t) in enumerate(rows.tolist()):
        first = len(kinds)
        q = x1 - x0
        # With t < 0 a false pivot left Y with more bits than X here.  The
        # case vocabulary cannot express that, so Bob reports zero, trims his
        # copy to the expected length, and Module III absorbs the
        # substitutions.
        clean.append(t >= 0)
        t = max(t, 0)
        kinds.append("SectionCase")
        bits.append(case_bits)
        payloads.append(section_case[min(t, over)])
        l_section = delimiter_length(c, q)
        attempts = 0
        stack = [(x0, y0, q, t, 0)]
        while stack:
            x0, y0, q, t, depth = stack.pop()
            if t == 0:
                estimate[x0 : x0 + q] = y[y0 : y0 + q]
                continue
            # Alice knows a count above w only as "more than w", Bob's case
            # vocabulary saturating there, so such a part is never looked up.
            if t <= w:
                width = widths.get((q, t))
                if width is None:
                    if len(widths) >= _WIDTHS_MAX:
                        widths.clear()
                    # A count no lane can undo in this part is beyond
                    # capability too: delimiters split it before any syndrome.
                    width = widths[q, t] = syndrome_width(q, t, codes)
                if width:
                    jobs += (x0, y0, q, t, len(kinds))
                    kinds.append("Syndrome")
                    bits.append(width)
                    payloads.append(None)  # written once every job is queued
                    continue

            # Below twice the section's delimiter length, or at the depth
            # cap, the part is sent verbatim without a delimiter.
            small = q < 2 * l_section or depth >= max_depth
            l, starts = (0, ()) if small else _plan(c, q)
            # Clamped to the part's end: an occurrence past it lies in the
            # next part.
            y_limit = q - t
            for start in starts:
                x_split = start + l
                attempts += 1
                delim = x[x0 + start : x0 + x_split]
                p = find(x0 + start, l, y0, y0 + (x_split if x_split < y_limit else y_limit))
                kinds += ("Delimiter", "CaseCode")
                bits += (l, pair_bits)
                if p >= 0:
                    y_split = p + l
                    t_left = x_split - (y_split - y0)
                    # A split that implies negative deletions on one side is
                    # a false match; report not-found and try the next
                    # placement.
                    t_right = t - t_left
                    if t_right >= 0:
                        row = pair_case[t_left if t_left < over else over]
                        payloads += (delim, row[t_right if t_right < over else over])
                        stack.append((x0 + x_split, y_split, q - x_split, t_right, depth + 1))
                        stack.append((x0, y0, x_split, t_left, depth + 1))
                        break
                payloads += (delim, not_found)
            else:
                part = x[x0 : x0 + q]
                kinds.append("Syndrome")
                bits.append(q)
                payloads.append(part)
                estimate[x0 : x0 + q] = part
        # Every CaseCode answers the Delimiter just before it, so after the
        # SectionCase each attempt adds one A2B run and one B2A run, and the
        # A2B messages after the last attempt, if any, add one more.  There
        # are some exactly when the section sent more than the SectionCase and
        # the attempts' pairs: a split leaves deletions in a half, which a
        # later syndrome or verbatim part closes.
        sent = len(kinds) - first
        runs.append(1 + 2 * attempts + (sent > 1 + 2 * attempts))
        section_ids += [sid] * sent

    # The walk is done: every syndrome and every decode of the session at
    # once, without the window views.
    del find
    job_columns = np.array(jobs, dtype=np.int64).reshape(-1, 5)
    x_starts, y_starts, job_q, job_t, messages = job_columns.T
    messages = messages.tolist()
    job_widths = [bits[i] for i in messages]
    payload = syndrome_batch(x, x_starts, job_q, job_t, job_widths, codes)
    end = 0
    for i, width in zip(messages, job_widths):
        payloads[i] = payload[end : end + width]
        end += width
    transcript.extend(kinds, bits, payloads, section_ids)
    results = decode_batch(y, y_starts, job_q, job_t, payload, job_widths, codes)
    # The job rows as five flat columns: rows of their own would be 5 ints in
    # a list per job, whose allocations set off the cyclic collector.
    for x0, y0, q, t, message, result in zip(*(jobs[i::5] for i in range(5)), results):
        if isinstance(result, Exception):
            result = y[y0 : y0 + q - t] + bytes(t)  # best-effort filler
            clean[section_ids[message]] = False
        estimate[x0 : x0 + q] = result
    return estimate, clean, runs
