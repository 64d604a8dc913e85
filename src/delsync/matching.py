"""Module I: pivot/segment partitioning, candidate search, and pivot selection.

Alice tiles her sequence as ``seg, piv, seg, ..., piv, seg`` and transmits the
pivots.  Bob gathers every feasible occurrence of each pivot in his sequence
and picks a maximum-cardinality chain of matches that could have arisen from
deletions alone; the selected pivots cut both sequences into aligned sections.

For an n-bit file with m candidate matches the module costs O(n + m log m): one
blocked pass over Y finds every pivot occurrence, with O(n log min(L_P, 16))
vectorised work for the windows' leading bits, and one sweep that keeps one
bisected list of shifts selects the chain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import InvalidConfig, pivot_length

__all__ = [
    "EncoderLayout",
    "PivotMatch",
    "SectionPair",
    "candidate_index",
    "find_candidates",
    "form_sections",
    "partition_encoder",
    "pivot_length",
    "select_pivots",
]

_LEAD_BITS = 16  # leading window bits checked against the pivots before the search
_BLOCK = 1 << 15  # Y windows per numpy block


@dataclass(frozen=True)
class EncoderLayout:
    """Deterministic tiling of [0, n): seg_1, piv_1, ..., piv_{k-1}, seg_k."""

    n: int
    k: int
    seg_len: int
    piv_len: int
    pivot_spans: tuple[tuple[int, int], ...]
    segment_spans: tuple[tuple[int, int], ...]


class PivotMatch(NamedTuple):
    pivot_index: int  # 1-based, matches EncoderLayout ordering
    y_start: int
    x_start: int


class SectionPair(NamedTuple):
    """Aligned span of X and Y between two consecutively selected pivots.

    ``t`` is negative only when a false pivot left Y with more bits than X in
    this span; such sections are emitted anyway and repaired downstream.
    """

    section_id: int
    x_span: tuple[int, int]
    y_span: tuple[int, int]
    t: int


@lru_cache(maxsize=64)
def partition_encoder(n: int, seg_len: int, piv_len: int) -> EncoderLayout:
    """Tile [0, n) into k segments and k-1 pivots; the last segment absorbs the remainder.

    Cost: O(k), once per (n, L_S, L_P) while it stays in the cache.
    """
    if piv_len < 1:
        raise InvalidConfig(f"pivot length {piv_len} must be positive")
    if piv_len >= seg_len:
        raise InvalidConfig(f"pivot length {piv_len} must be < segment length {seg_len}")
    if n < seg_len:
        raise InvalidConfig(f"n={n} shorter than one segment; run as a single section")
    k = (n + piv_len) // (seg_len + piv_len)
    period = seg_len + piv_len
    pivots = tuple((i * period - piv_len, i * period) for i in range(1, k))
    segs = [(i * period, i * period + seg_len) for i in range(k - 1)]
    segs.append(((k - 1) * period, n))
    return EncoderLayout(n, k, seg_len, piv_len, pivots, tuple(segs))


def _doublings(bits: np.ndarray, top: int) -> list[np.ndarray]:
    """Keys of every 2^j-bit window of ``bits``, for j = 0..top (top <= 4).

    Level j is built from level j - 1 with one shift and one or: the key of
    the window at i is key(i) << 2^(j-1) | key(i + 2^(j-1)).  The levels are
    uint16, which numpy shifts faster than uint8.
    """
    levels = [bits.astype(np.uint16)]
    for j in range(top):
        half = 1 << j
        low = levels[-1]
        level = low[:-half] << half
        level |= low[half:]
        levels.append(level)
    return levels


def _compose(levels: list[np.ndarray], width: int, at: np.ndarray) -> np.ndarray:
    """uint64 keys of the ``width``-bit windows (width <= 64) starting at ``at``.

    Put together from :func:`_doublings` levels, widest first: the top level
    as often as it fits, then one level per remaining binary digit of the
    width.
    """
    key = np.zeros(len(at), dtype=np.uint64)
    done = 0
    for j in range(len(levels) - 1, -1, -1):
        while width - done >= 1 << j:
            key <<= 1 << j
            key |= levels[j].take(at + done)
            done += 1 << j
    return key


def _pivot_keys(joined: bytes, piv_len: int, width: int) -> np.ndarray:
    """The big-endian value of the first ``width`` (<= 64) bits of each pivot
    in ``joined``, ascending, from one ``np.packbits`` pass."""
    rows = np.zeros((len(joined) // piv_len, 64), dtype=np.uint8)
    rows[:, 64 - width :] = np.frombuffer(joined, dtype=np.uint8).reshape(-1, piv_len)[:, :width]
    return np.sort(np.packbits(rows, axis=1).view(">u8").ravel().astype(np.uint64))


def candidate_index(y: bytes, pivots: list[bytes]) -> dict[bytes, list[int]]:
    """Ascending start positions in ``y`` of each distinct pivot, from one pass over ``y``.

    ``y`` and the pivots are 0/1 bytes, one byte per bit, and the keys are
    the pivots themselves; every pivot gets an entry, empty when it never
    occurs, and overlapping occurrences all count.  ``y`` is read ``_BLOCK``
    windows at a time.  The leading ``_LEAD_BITS`` bits of every window come
    from at most four doublings (:func:`_doublings`), and a table of the
    pivots' leads drops most windows.  Only the rest get a uint64 key of
    their first min(L_P, 64) bits (:func:`_compose`), looked up in the
    sorted keys of the pivots with ``np.searchsorted``.  Only hits leave numpy; each is confirmed on the
    full window bytes, so pivots longer than 64 bits take the same path.
    Cost: O(|y| * log(min(L_P, 16))) vectorised work, O(min(L_P, 64) / 16)
    gathers per window that passes the table (a fraction of about k / 2^16
    for k random pivots), and O(hits) Python; memory O(block + hits) plus
    the 64 KB table.
    """
    index: dict[bytes, list[int]] = {p: [] for p in pivots}
    if not index:
        return index
    piv_len = len(pivots[0])
    if any(len(p) != piv_len for p in index):
        raise ValueError("pivots must share one length")
    width = min(piv_len, 64)
    keys = _pivot_keys(b"".join(index), piv_len, width)
    drop = max(width - _LEAD_BITS, 0)
    lead = width - drop
    top = lead.bit_length() - 1
    leads = np.zeros(1 << lead, dtype=bool)
    leads[keys >> drop] = True
    bits = np.frombuffer(y, dtype=np.uint8)
    windows = len(y) - piv_len + 1
    for first in range(0, windows, _BLOCK):
        count = min(_BLOCK, windows - first)
        levels = _doublings(bits[first : first + count + width - 1], top)
        if lead == 1 << top:
            heads = levels[top][:count]
        else:
            heads = _compose(levels, lead, np.arange(count))
        near = np.flatnonzero(leads.take(heads))
        block = _compose(levels, width, near)
        slot = np.searchsorted(keys, block)
        np.minimum(slot, len(keys) - 1, out=slot)
        for p in (near[keys[slot] == block] + first).tolist():
            occ = index.get(y[p : p + piv_len])
            if occ is not None:
                occ.append(p)
    return index


def find_candidates(index: dict[bytes, list[int]], pivot: bytes, x_start: int) -> list[int]:
    """Every start position of ``pivot`` in Y at or left of ``x_start``, ascending.

    ``index`` is the session's :func:`candidate_index` of Y, built for a set
    of pivots that includes this one.  Deletions only shift content left, so
    occurrences past the pivot's own encoder position cannot be real.  Cost:
    O(log occ + returned) per call.
    """
    occ = index[pivot]
    return occ[: bisect.bisect_right(occ, x_start)]


def select_pivots(candidates: list[list[int]], layout: EncoderLayout) -> list[PivotMatch]:
    """Maximum-cardinality chain of pivot matches consistent with deletions.

    A chain visits strictly increasing pivot indices; consecutive selections
    may not overlap in Y (gap >= pivot length) and their Y-gap may not exceed
    their X-gap.  Ties in cardinality are broken toward the lexicographically
    smallest vector of Y positions (then smallest pivot index).

    The index condition is implied by the other two.  With shift = x - y, let
    b follow a with b.y >= a.y + L_P and shift(b) >= shift(a).  Then
    b.x - a.x >= b.y - a.y >= L_P > 0, and pivot x-positions rise with the
    index, so b's index is larger.  Compatibility is therefore a 2-D
    dominance in (y, shift): one sweep over y, descending, gives each node's
    longest chain.  A node enters once the sweep has passed its y + L_P.
    ``lows[L - 1]`` is minus the largest shift among the entered nodes whose
    chains reach length L.  It never decreases in L: a node's chain of
    length L goes on through a node with a shift at least its own that
    entered before it.  So a node's longest chain is one plus the number of
    entries at or below minus its shift, one bisect, and entering a node
    with a chain of length L lowers entry L - 1 or appends it.  The chain is
    then rebuilt in one pass over the nodes in (y, pivot index) order.
    Cost: O(m log m) for m candidate nodes.
    """
    piv_len = layout.piv_len
    counts = [len(occ) for occ in candidates]
    m = sum(counts)
    if not m:
        return []
    # The nodes, sorted by (y, pivot index): one row of (pivot index, y, x) each.
    index = np.repeat(np.arange(1, len(counts) + 1), counts)
    y = np.fromiter(chain.from_iterable(candidates), dtype=np.int64, count=m)
    x = np.array([a for a, _ in layout.pivot_spans], dtype=np.int64)[index - 1]
    rows = np.stack((index, y, x), axis=1)[np.lexsort((index, y))]
    ys = rows[:, 1].tolist()
    minus_shift = (rows[:, 1] - rows[:, 2]).tolist()  # minus each node's shift

    lows: list[int] = []
    best_after = [0] * m  # longest chain starting at each node
    entered = m  # the nodes from here on have entered
    for i in range(m - 1, -1, -1):
        reach = ys[i] + piv_len
        while entered > 0 and ys[entered - 1] >= reach:
            entered -= 1
            low, length = minus_shift[entered], best_after[entered]
            if length > len(lows):
                lows.append(low)
            elif low < lows[length - 1]:
                lows[length - 1] = low
        best_after[i] = bisect.bisect_right(lows, minus_shift[i]) + 1

    # Each pick is the first node, in (y, pivot index) order, that has the
    # next shorter chain and can follow the last pick; one exists because the
    # last pick's chain goes on at that length.
    need, reach, bound = max(best_after), ys[0], max(minus_shift)
    picks = []
    for i, length in enumerate(best_after):
        if length == need and ys[i] >= reach and minus_shift[i] <= bound:
            picks.append(i)
            need, reach, bound = need - 1, ys[i] + piv_len, minus_shift[i]
    return list(map(PivotMatch._make, rows[picks].tolist()))


def form_sections(
    selection: list[PivotMatch], layout: EncoderLayout, y_len: int
) -> list[SectionPair]:
    """Cut X and Y into aligned sections at the selected pivots.

    Unselected pivots fall inside sections on the X side; their bits are
    recovered along with the segment bits.  Cost: O(selected pivots).
    """
    piv_len, n = layout.piv_len, layout.n
    rows = []
    x_prev, y_prev = 0, 0
    for _, y_cut, x_cut in selection:
        t = (x_cut - x_prev) - (y_cut - y_prev)
        rows.append((len(rows), (x_prev, x_cut), (y_prev, y_cut), t))
        x_prev = x_cut + piv_len
        y_prev = y_cut + piv_len
    rows.append((len(rows), (x_prev, n), (y_prev, y_len), (n - x_prev) - (y_len - y_prev)))
    return list(map(SectionPair._make, rows))
