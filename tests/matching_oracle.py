"""Reference Module I algorithms, kept only as test oracles.

These are the direct readings of the matching rules: ``tile_pivots`` lays
the pivots down one segment at a time, ``scan_candidates`` rescans Y with
``bytes.find`` for each pivot (O(|y|) per pivot), ``quadratic_select``
compares every pair of candidate nodes (O(m^2)) and ``cut_sections`` walks
the chain one pivot at a time.  ``delsync.matching`` must return exactly
what they return.  Chains are lists of plain (pivot index, y start,
x start) tuples.
"""

from delsync.core import BitSeq
from delsync.matching import EncoderLayout


def tile_pivots(n: int, seg_len: int, piv_len: int) -> list[int]:
    """Each pivot's start in X: walk [0, n) a segment at a time and put a
    pivot after it while a full segment still fits after the pivot."""
    starts, cursor = [], 0
    while cursor + seg_len + piv_len + seg_len <= n:
        starts.append(cursor + seg_len)
        cursor += seg_len + piv_len
    return starts


def scan_candidates(y: BitSeq, pivot: BitSeq, x_start: int) -> list[int]:
    """Every start position of ``pivot`` in ``y`` at or left of ``x_start``."""
    out = []
    p = y.find(pivot)
    while 0 <= p <= x_start:
        out.append(p)
        p = y.find(pivot, p + 1)
    return out


def quadratic_select(
    candidates: list[list[int]], layout: EncoderLayout
) -> list[tuple[int, int, int]]:
    """Longest compatible chain by an all-pairs DP, lexicographic (y, index) tie-break."""
    piv_len = layout.piv_len
    x_starts = tile_pivots(layout.n, layout.seg_len, piv_len)
    nodes: list[tuple[int, int, int]] = []  # (pivot_index, y_start, x_start)
    for idx, occ in enumerate(candidates, start=1):
        x_start = x_starts[idx - 1]
        for p in occ:
            nodes.append((idx, p, x_start))
    if not nodes:
        return []
    nodes.sort(key=lambda t: (t[0], t[1]))
    m = len(nodes)

    def compatible(a, b):
        # a before b in the chain
        return a[0] < b[0] and b[1] >= a[1] + piv_len and (b[1] - a[1]) <= (b[2] - a[2])

    best_after = [1] * m
    for i in range(m - 1, -1, -1):
        for j in range(i + 1, m):
            if compatible(nodes[i], nodes[j]) and best_after[j] + 1 > best_after[i]:
                best_after[i] = best_after[j] + 1

    chain = []
    prev = None
    for length in range(max(best_after), 0, -1):
        pick = None
        for i in range(m):
            if best_after[i] != length:
                continue
            if prev is not None and not compatible(prev, nodes[i]):
                continue
            key = (nodes[i][1], nodes[i][0])
            if pick is None or key < (nodes[pick][1], nodes[pick][0]):
                pick = i
        chain.append(nodes[pick])
        prev = nodes[pick]
    return chain


def cut_sections(
    selection: list[tuple[int, int, int]], layout: EncoderLayout, y_len: int
) -> list[tuple[int, int, int, int, int]]:
    """(x0, x1, y0, y1, t) of each section between consecutive selected pivots."""
    rows = []
    x_prev, y_prev = 0, 0
    for _, y_cut, x_cut in selection:
        rows.append((x_prev, x_cut, y_prev, y_cut, (x_cut - x_prev) - (y_cut - y_prev)))
        x_prev, y_prev = x_cut + layout.piv_len, y_cut + layout.piv_len
    rows.append((x_prev, layout.n, y_prev, y_len, (layout.n - x_prev) - (y_len - y_prev)))
    return rows
