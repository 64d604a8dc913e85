"""The Module II recursion that copies each part, kept only as a test oracle.

This is the walk as it ran before it moved onto the session's X and Y in
place: each part is sliced out of its parent, each message is recorded on
the transcript as it is sent (a syndrome with its payload from a one-job
``syndrome_batch`` call), the Y side and the payload of every syndrome part
are copied into one buffer each, and each section's estimate is joined from
its pieces.
``delsync.recovery.recover_section`` must send exactly the same messages,
queue the same jobs and give the same estimate and ``clean`` flags.

``placements`` is the oracle's own delimiter rule, a loop that clips each
step to the part's bounds; ``recovery._plan`` computes its starts in closed
form instead.

``recover_section`` here counts in ``events`` each branch it takes that a
test must see covered: a section with more bits in Y than in X, an
edge-clipped placement, a not-found reply, a false match, the verbatim
fallback below 2l, the depth cap, and an attempt whose delimiter is under
8 bits, which the walk searches on 0/1 bytes instead of its window views.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from delsync import recovery
from delsync.codes import CodeSpec, decode_batch, syndrome_batch, syndrome_width
from delsync.core import KINDS, Transcript
from delsync.recovery import case_payload, case_width, delimiter_length


def placements(length: int, l: int) -> tuple[int, ...]:
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


class OracleBatch:
    """Decode jobs with their Y parts and payloads copied into one buffer each."""

    def __init__(self, codes: CodeSpec, transcript: Transcript):
        self.codes, self.transcript = codes, transcript
        self._y, self._payload = bytearray(), bytearray()
        self.jobs: list[tuple[bytes, bytes, int, int, int]] = []  # x part, y part, q, t, message
        self._y_starts: list[int] = []
        self._sections: list[tuple[list[bytes | int], bool]] = []

    def queue(self, x_part: bytes, y_part: bytes, t: int, message: int, payload: bytes) -> int:
        self._y_starts.append(len(self._y))
        self.jobs.append((x_part, y_part, len(x_part), t, message))
        self._y += y_part
        self._payload += payload
        return len(self.jobs) - 1

    def add_section(self, pieces: list[bytes | int], clean: bool) -> None:
        self._sections.append((pieces, clean))

    def estimates(self) -> list[tuple[bytes, bool]]:
        """Each section's (estimate, clean), in the order the sections were added."""
        y_start = np.array(self._y_starts, dtype=np.int64)
        q = np.array([j[2] for j in self.jobs], dtype=np.int64)
        t = np.array([j[3] for j in self.jobs], dtype=np.int64)
        widths = [self.transcript.bits[message] for *_, message in self.jobs]
        results = decode_batch(
            bytes(self._y), y_start, q, t, bytes(self._payload), widths, self.codes
        )
        failed = {j for j, r in enumerate(results) if isinstance(r, Exception)}
        for j in failed:
            _, y_part, qj, tj, _ = self.jobs[j]
            results[j] = y_part + bytes(tj)  # best-effort filler
        out = []
        for pieces, clean in self._sections:
            parts = [results[p] if type(p) is int else p for p in pieces]
            if failed and clean:
                clean = failed.isdisjoint(p for p in pieces if type(p) is int)
            out.append((b"".join(parts), clean))
        return out


def recover_section(
    x_part: bytes, y_part: bytes, sid: int, c: float, batch: OracleBatch, events: Counter
) -> None:
    transcript = batch.transcript
    w = batch.codes.w
    t = len(x_part) - len(y_part)
    transcript.record("SectionCase", case_width(w), case_payload((max(t, 0),), w), sid)
    if t < 0:
        events["y_longer"] += 1
        batch.add_section([y_part[: len(x_part)]], False)
    else:
        pieces: list[bytes | int] = []
        l_section = delimiter_length(c, len(x_part))
        _recover(x_part, y_part, 0, c, l_section, sid, batch, pieces, events)
        batch.add_section(pieces, True)


def _send_verbatim(x_part: bytes, sid: int, transcript: Transcript) -> bytes:
    transcript.record("Syndrome", len(x_part), x_part, sid)
    return x_part


def _recover(x_part, y_part, depth, c, l_section, sid, batch, pieces, events) -> None:
    q = len(x_part)
    t = q - len(y_part)
    if t == 0:
        pieces.append(y_part)
        return
    codes, transcript = batch.codes, batch.transcript
    w = codes.w

    width = syndrome_width(q, t, codes)
    if width:
        payload = syndrome_batch(x_part, [0], [q], [t], [width], codes)
        msg = transcript.record("Syndrome", width, payload, sid)
        pieces.append(batch.queue(x_part, y_part, t, msg, payload))
        return

    if q < 2 * l_section or depth >= recovery.MAX_DEPTH:
        events["verbatim_small" if q < 2 * l_section else "depth_cap"] += 1
        pieces.append(_send_verbatim(x_part, sid, transcript))
        return

    l = delimiter_length(c, q)
    pair_width = 2 * case_width(w)
    for start in placements(q, l):
        x_split = start + l
        if x_split >= q:
            events["edge_clip"] += 1
            continue
        if l < 8:
            events["short_delimiter"] += 1
        delim = x_part[start:x_split]
        transcript.record("Delimiter", l, delim, sid)
        p = y_part.find(delim, 0, x_split)
        if p >= 0:
            y_split = p + l
            t_left = x_split - y_split
            t_right = t - t_left
            if t_right >= 0:
                case = case_payload((t_left, t_right), w)
                transcript.record("CaseCode", pair_width, case, sid)
                for xs, ys in ((x_part[:x_split], y_part[:y_split]),
                               (x_part[x_split:], y_part[y_split:])):
                    _recover(xs, ys, depth + 1, c, l_section, sid, batch, pieces, events)
                return
            events["false_match"] += 1
        else:
            events["not_found"] += 1
        case = case_payload((0, 0), w)  # not found
        transcript.record("CaseCode", pair_width, case, sid)
    pieces.append(_send_verbatim(x_part, sid, transcript))


def section_runs(transcript: Transcript) -> dict[int, int]:
    """Alternating-direction runs per section id, in one pass over the transcript."""
    runs: dict[int, int] = {}
    last: dict[int, str] = {}
    for sid, kind in zip(transcript.section_ids, transcript.kinds):
        direction = KINDS[kind][1]
        if sid is not None and last.get(sid) != direction:
            last[sid] = direction
            runs[sid] = runs.get(sid, 0) + 1
    return runs
