"""The Module II recursion that copies each part, kept only as a test oracle.

This is the walk as it ran before it moved onto the session's X and Y in
place: each part is sliced out of its parent, each message is recorded on
the transcript as it is sent, every syndrome part is copied into one buffer
per side, and each section's estimate is joined from its pieces.
``delsync.recovery.recover_section`` must send exactly the same messages,
queue the same jobs and give the same estimate and ``clean`` flags.

``recover_section`` here counts in ``events`` each branch it takes that a
test must see covered: a section with more bits in Y than in X, an
edge-clipped placement, a not-found reply, a false match, the verbatim
fallback below 2l and the depth cap.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from delsync import recovery
from delsync.codes import CodeSpec, can_decode, decode_batch, syndrome_batch, syndrome_bits
from delsync.core import A2B, B2A, BitSeq, Transcript
from delsync.recovery import (
    _case_payload,
    _placements,
    case_width,
    delimiter_length,
    report_section_case,
)


class OracleBatch:
    """Syndrome and decode jobs with their parts copied into one buffer per side."""

    def __init__(self, codes: CodeSpec, transcript: Transcript):
        self.codes, self.transcript = codes, transcript
        self._x, self._y = bytearray(), bytearray()
        self.jobs: list[tuple[bytes, bytes, int, int, int]] = []  # x part, y part, q, t, message
        self._offsets: list[tuple[int, int]] = []
        self._sections: list[tuple[list[bytes | int], bool]] = []

    def queue(self, x_part: bytes, y_part: bytes, t: int, message: int) -> int:
        self._offsets.append((len(self._x), len(self._y)))
        self.jobs.append((x_part, y_part, len(x_part), t, message))
        self._x += x_part
        self._y += y_part
        return len(self.jobs) - 1

    def add_section(self, pieces: list[bytes | int], clean: bool) -> None:
        self._sections.append((pieces, clean))

    def run(self) -> list[tuple[bytes, bool]]:
        """Each section's (estimate, clean), in the order the sections were added."""
        x, y = bytes(self._x), bytes(self._y)
        x_start = np.array([o[0] for o in self._offsets], dtype=np.int64)
        y_start = np.array([o[1] for o in self._offsets], dtype=np.int64)
        q = np.array([j[2] for j in self.jobs], dtype=np.int64)
        t = np.array([j[3] for j in self.jobs], dtype=np.int64)
        values = syndrome_batch(x, x_start, q, t, self.codes)
        for (_, _, _, _, message), value in zip(self.jobs, values):
            width = self.transcript.bits[message]
            self.transcript.fill([message], [BitSeq.from_int(int(value), width).to_bytes01()])
        results = decode_batch(y, y_start, q, t, values, self.codes)
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
    transcript.record(
        B2A, "II", "SectionCase", case_width(w), report_section_case(max(t, 0), w).to_bytes01(), sid
    )
    if t < 0:
        events["y_longer"] += 1
        batch.add_section([y_part[: len(x_part)]], False)
    else:
        pieces: list[bytes | int] = []
        l_section = delimiter_length(c, len(x_part))
        _recover(x_part, y_part, 0, c, l_section, sid, batch, pieces, events)
        batch.add_section(pieces, True)


def _send_verbatim(x_part: bytes, sid: int, transcript: Transcript) -> bytes:
    transcript.record(A2B, "II", "Syndrome", len(x_part), x_part, sid)
    return x_part


def _recover(x_part, y_part, depth, c, l_section, sid, batch, pieces, events) -> None:
    q = len(x_part)
    t = q - len(y_part)
    if t == 0:
        pieces.append(y_part)
        return
    codes, transcript = batch.codes, batch.transcript
    w = codes.w

    if t <= w and can_decode(q, t, codes):
        msg = transcript.record(A2B, "II", "Syndrome", syndrome_bits(q, t, codes), None, sid)
        pieces.append(batch.queue(x_part, y_part, t, msg))
        return

    if q < 2 * l_section or depth >= recovery.MAX_DEPTH:
        events["verbatim_small" if q < 2 * l_section else "depth_cap"] += 1
        pieces.append(_send_verbatim(x_part, sid, transcript))
        return

    l = delimiter_length(c, q)
    pair_width = 2 * case_width(w)
    for start in _placements(q, l):
        x_split = start + l
        if x_split >= q:
            events["edge_clip"] += 1
            continue
        delim = x_part[start:x_split]
        transcript.record(A2B, "II", "Delimiter", l, delim, sid)
        p = y_part.find(delim, 0, x_split)
        if p >= 0:
            y_split = p + l
            t_left = x_split - y_split
            t_right = t - t_left
            if t_right >= 0:
                case = _case_payload(min(t_left, w + 1), min(t_right, w + 1), False, w)
                transcript.record(B2A, "II", "CaseCode", pair_width, case, sid)
                for xs, ys in ((x_part[:x_split], y_part[:y_split]),
                               (x_part[x_split:], y_part[y_split:])):
                    _recover(xs, ys, depth + 1, c, l_section, sid, batch, pieces, events)
                return
            events["false_match"] += 1
        else:
            events["not_found"] += 1
        case = _case_payload(0, 0, True, w)
        transcript.record(B2A, "II", "CaseCode", pair_width, case, sid)
    pieces.append(_send_verbatim(x_part, sid, transcript))


def section_runs(transcript: Transcript) -> dict[int, int]:
    """Alternating-direction runs per section id, in one pass over the transcript."""
    runs: dict[int, int] = {}
    last: dict[int, str] = {}
    for sid, direction in zip(transcript.section_ids, transcript.directions):
        if sid is not None and last.get(sid) != direction:
            last[sid] = direction
            runs[sid] = runs.get(sid, 0) + 1
    return runs
