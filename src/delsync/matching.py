"""Module I: pivot/segment partitioning, candidate search, and pivot selection.

Alice tiles her sequence as ``seg, piv, seg, ..., piv, seg`` and transmits the
pivots.  Bob gathers every feasible occurrence of each pivot in his sequence
and picks a maximum-cardinality chain of matches that could have arisen from
deletions alone; the selected pivots cut both sequences into aligned sections.

The layout is arithmetic in n, L_S and L_P, so both parties know it without
a message.  The stages hand flat int64 arrays to one another: the candidate
table, one row (pivot row, Y start) per occurrence; the chain, one row
(pivot index, Y start, X start) per selected pivot; and the sections, one
row (x0, x1, y0, y1, t) each.  A file of one segment has no pivots, so its
table and chain are empty and its one section is all of X and Y.

For an n-bit file with m candidate nodes the module costs O(n + m log m):
one blocked pass over Y's 8-bit window view finds every pivot occurrence,
with at most three view slices per window for its leading bits, which a
table sized to the pivot count checks before any key is read; one mask
drops the occurrences right of their pivot; and the selection cuts the nodes
into independent components in numpy, so Python runs only over the nodes of
components that hold more than one node, in one sweep that keeps a bisected
list of shifts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import InvalidConfig, window_keys, window_view

__all__ = [
    "EncoderLayout",
    "candidate_index",
    "find_candidates",
    "form_sections",
    "partition_encoder",
    "select_pivots",
]

_BLOCK = 1 << 15  # Y windows per numpy block


@dataclass(frozen=True)
class EncoderLayout:
    """Deterministic tiling of [0, n): seg_1, piv_1, ..., piv_{k-1}, seg_k.

    Pivot i (1-based) starts at i * (L_S + L_P) - L_P, right after a full
    segment, and the last segment takes the rest of [0, n).
    """

    n: int
    k: int
    seg_len: int
    piv_len: int

    @property
    def pivot_starts(self) -> np.ndarray:
        """Each pivot's start in X, in pivot order, as a new int64 array."""
        return np.arange(1, self.k, dtype=np.int64) * (self.seg_len + self.piv_len) - self.piv_len


def partition_encoder(n: int, seg_len: int, piv_len: int) -> EncoderLayout:
    """Tile [0, n) into k segments and k-1 pivots; the last segment absorbs the remainder.

    k = max(1, floor((n + L_P) / (L_S + L_P))): a file shorter than two
    segments and a pivot is one segment.  Cost: O(1); the pivot starts are
    built on each read.
    """
    if piv_len < 1:
        raise InvalidConfig(f"pivot length {piv_len} must be positive")
    if piv_len >= seg_len:
        raise InvalidConfig(f"pivot length {piv_len} must be < segment length {seg_len}")
    if n < 1:
        raise InvalidConfig(f"n={n} must be positive")
    return EncoderLayout(n, max(1, (n + piv_len) // (seg_len + piv_len)), seg_len, piv_len)


def candidate_index(y: bytes, pivots) -> np.ndarray:
    """Every occurrence in ``y`` of every pivot, from one pass over ``y``.

    ``y`` is 0/1 bytes, one byte per bit, and ``pivots`` a matrix of 0/1
    values with one pivot per row.  Returns the candidate table: an (m, 2)
    int64 array with one row (pivot row, start in ``y``) per occurrence,
    sorted by start and then by pivot row.  Overlapping occurrences all
    count, and a pivot that repeats has rows under each of its row numbers.

    Every key is read with ``core.window_keys`` from an 8-bit window view,
    one of ``y`` and one of the pivot rows end to end: a pivot's key is its
    first min(L_P, 64) bits.  ``y``'s windows are taken ``_BLOCK`` at a
    time.  Their leading bits, one view slice per byte, index a table of
    the pivots' leads, which drops most windows.  The lead is
    min(L_P, 24, max(16, bit_length(k) + 6)) bits for k pivots, so the
    table passes about k / 2^lead of the windows: under 1/64 for any k
    below 2^18, where a fixed 16 bits would pass a share that grows with k.
    Only the rest get a key, looked up in the pivots' sorted keys with
    ``np.searchsorted``.  A hit stands for every pivot with its key; one
    ``np.repeat`` over the stable argsort of the keys lists them in row
    order.  When L_P <= 64 the key is the whole pivot, so a key match is an
    occurrence; past 64 bits each further 64 are one more key from each
    view, compared at the matches.
    Cost: O(|y|) to build the view, at most three slices per window, at
    most eight gathers per window that passes the table and per further 64
    bits of a match, and O(k log k + m) for the keys and the table; memory:
    the views, one byte per bit, O(block) of leads, O(m), and the table,
    64 KB up to k = 1,023 and at most 16 MB.  No Python runs per hit.
    """
    pivots = np.asarray(pivots, dtype=np.uint8)
    if pivots.ndim != 2:
        raise ValueError("pivots must be a matrix: one row per pivot, all of one length")
    k, piv_len = pivots.shape
    windows = len(y) - piv_len + 1
    if not k or windows < 1:
        return np.empty((0, 2), dtype=np.int64)
    width = min(piv_len, 64)
    rows = window_view(pivots.tobytes())
    keys = window_keys(rows, slice(0, k * piv_len, piv_len), width)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lead = min(width, 24, max(16, k.bit_length() + 6))
    leads = np.zeros(1 << lead, dtype=bool)
    leads[keys >> (width - lead)] = True
    view = window_view(y)
    starts, slots = [], []
    for first in range(0, windows, _BLOCK):
        heads = window_keys(view, slice(first, min(first + _BLOCK, windows)), lead)
        near = np.flatnonzero(leads.take(heads)) + first
        block = window_keys(view, near, width)
        slot = np.searchsorted(keys, block)
        np.minimum(slot, k - 1, out=slot)
        hit = keys[slot] == block
        starts.append(near[hit])
        slots.append(slot[hit])
    # A hit at slot lo stands for the pivots at lo..hi-1 of the sorted keys.
    lo = np.concatenate(slots)
    hi = np.searchsorted(keys, keys[lo], side="right")
    repeats = hi - lo
    start = np.repeat(np.concatenate(starts), repeats)
    row = order[np.repeat(hi - np.cumsum(repeats), repeats) + np.arange(len(start))]
    for done in range(64, piv_len, 64):
        rest = min(piv_len - done, 64)
        same = window_keys(view, start + done, rest) == window_keys(rows, row * piv_len + done, rest)
        start, row = start[same], row[same]
    return np.stack((row, start), axis=1)


def find_candidates(candidates: np.ndarray, x_starts) -> np.ndarray:
    """The rows of a candidate table at or left of their pivot's start in X.

    ``candidates`` is a :func:`candidate_index` table and ``x_starts[i]`` the
    X start of pivot row i (a layout's ``pivot_starts``).  Deletions only
    shift content left, so occurrences past the pivot's own encoder
    position cannot be real.  Row order is kept.  Cost: O(m), one mask.
    """
    row, start = candidates.T
    return candidates[start <= np.asarray(x_starts)[row]]


def _chain(ys: list[int], minus_shift: list[int], piv_len: int) -> list[int]:
    """The node numbers of the lexicographically first longest chain of the
    nodes (ys[i], shift -minus_shift[i]), given in (y, pivot index) order.

    One sweep over y, descending, gives each node's longest chain.  A node
    enters once the sweep has passed its y + L_P.  ``lows[L - 1]`` is minus
    the largest shift among the entered nodes whose chains reach length L.
    It never decreases in L: a node's chain of length L goes on through a
    node with a shift at least its own that entered before it.  So a node's
    longest chain is one plus the number of entries at or below minus its
    shift, one bisect, and entering a node with a chain of length L lowers
    entry L - 1 or appends it.  The chain is then rebuilt in one pass over
    the nodes.  Cost: O(m log m) Python for m nodes.
    """
    m = len(ys)
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
    return picks


def select_pivots(candidates: np.ndarray, layout: EncoderLayout) -> np.ndarray:
    """Maximum-cardinality chain of pivot matches consistent with deletions.

    ``candidates`` is a table of (pivot row, Y start) rows, as
    :func:`find_candidates` returns it; row i is pivot i + 1 of ``layout``.
    Returns the chain as an (s, 3) int64 array in chain order, one row
    (pivot index, Y start, X start) per match, the index 1-based.

    A chain visits strictly increasing pivot indices; consecutive selections
    may not overlap in Y (gap >= pivot length) and their Y-gap may not exceed
    their X-gap.  Ties in cardinality are broken toward the lexicographically
    smallest vector of Y positions (then smallest pivot index).

    The index condition is implied by the other two.  With shift = x - y, let
    b follow a with b.y >= a.y + L_P and shift(b) >= shift(a).  Then
    b.x - a.x >= b.y - a.y >= L_P > 0, and pivot x-positions rise with the
    index, so b's index is larger.  Compatibility is therefore a 2-D
    dominance in (y, shift).

    Sort the nodes by (y, pivot index) with one ``lexsort``.  Cut between
    nodes i and i + 1 when y[i + 1] >= y[i] + L_P and no node up to i has a
    larger shift than any node after i.  Then every node before the cut can
    precede every node after it, so a longest chain is a longest chain of
    each component between cuts, put end to end, and the lexicographic
    tie-break splits the same way.  A component of one node is in every
    longest chain.  The nodes of the other components go, as one list in
    order (the cuts between them still hold), through the sweep of
    :func:`_chain`.  On uniform input almost every component is one node;
    a false match far left of its pivot joins every later node to its
    component, and on all-zero input every node is in one component.
    Cost: O(m log m) for m candidate nodes, vectorised except for O(r log r)
    Python over the r nodes of components of more than one node.
    """
    order = np.lexsort((candidates[:, 0], candidates[:, 1]))
    row, y = candidates[order].T
    x = layout.pivot_starts[row]
    minus_shift = y - x
    # Node i is alone in its component when there is a cut on each side.
    cut = np.ones(len(y) + 1, dtype=bool)
    cut[1:-1] = (y[1:] >= y[:-1] + layout.piv_len) & (
        np.minimum.accumulate(minus_shift)[:-1]
        >= np.maximum.accumulate(minus_shift[::-1])[-2::-1]
    )
    picked = cut[:-1] & cut[1:]
    rest = np.flatnonzero(~picked)
    if len(rest):
        picked[rest[_chain(y[rest].tolist(), minus_shift[rest].tolist(), layout.piv_len)]] = True
    picks = np.flatnonzero(picked)
    return np.stack((row[picks] + 1, y[picks], x[picks]), axis=1)


def form_sections(selection, layout: EncoderLayout, y_len: int) -> np.ndarray:
    """Cut X and Y into aligned sections at the selected pivots.

    ``selection`` holds (pivot index, Y start, X start) rows in chain order,
    as :func:`select_pivots` returns them.  Returns one row
    (x0, x1, y0, y1, t) per section, in order: X's span x[x0:x1] against
    Y's y[y0:y1], and t = (x1 - x0) - (y1 - y0) deletions.  t is negative
    only when a false pivot left Y with more bits than X in the span; such
    rows are emitted anyway and repaired downstream.  Unselected pivots fall
    inside sections on the X side; their bits are recovered along with the
    segment bits.  Cost: O(selected pivots), vectorised.
    """
    piv_len = layout.piv_len
    _, y_cut, x_cut = np.asarray(selection, dtype=np.int64).reshape(-1, 3).T
    x0 = np.concatenate(([0], x_cut + piv_len))
    x1 = np.append(x_cut, layout.n)
    y0 = np.concatenate(([0], y_cut + piv_len))
    y1 = np.append(y_cut, y_len)
    return np.stack((x0, x1, y0, y1, (x1 - x0) - (y1 - y0)), axis=1)
