import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delsync.matching
from delsync import protocol
from delsync.core import (
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    pivot_length,
    random_bits,
    substream,
)
from delsync.matching import (
    _BLOCK,
    EncoderLayout,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    select_pivots,
)
from matching_oracle import cut_sections, quadratic_select, scan_candidates, tile_pivots


class TestPivotLength:
    def test_examples(self):
        assert pivot_length(1, 0.01) == 25  # 11 + 2*log2(100) = 24.29
        assert pivot_length(2, 0.001) == 34  # 14 + 2*log2(1000) = 33.93
        assert pivot_length(1, 0.5) == 13  # 11 + 2

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidConfig):
            pivot_length(0, 0.01)
        with pytest.raises(InvalidConfig):
            pivot_length(1, 0.7)


def spans(layout):
    """A layout's pivot and segment spans, from its pivot starts."""
    starts = layout.pivot_starts.tolist()
    pivots = [(a, a + layout.piv_len) for a in starts]
    segments = list(zip([0] + [b for _, b in pivots], starts + [layout.n]))
    return pivots, segments


@st.composite
def tilings(draw):
    """(n, L_S, L_P) with 1 <= L_P < L_S, n often below 2 L_S + L_P."""
    piv_len = draw(st.integers(1, 30))
    seg_len = draw(st.integers(piv_len + 1, 60))
    n = draw(st.one_of(st.integers(1, 2 * seg_len + piv_len), st.integers(1, 5000)))
    return n, seg_len, piv_len


class TestPartitionEncoder:
    def test_tiling_example(self):
        layout = partition_encoder(10_000, 100, 25)
        assert layout.k == 80
        assert len(layout.pivot_starts) == 79
        last = spans(layout)[1][-1]
        assert last[1] - last[0] == 125

    def test_single_segment_boundary(self):
        layout = partition_encoder(125, 100, 25)
        assert layout.k == 1
        assert layout.pivot_starts.tolist() == []
        assert spans(layout) == ([], [(0, 125)])

    def test_paper_scale_counts(self):
        layout = partition_encoder(50_000, 200, 27)
        assert layout.k == 220  # floor(50027 / 227)

    def test_spans_tile_exactly(self):
        for n, seg, piv in ((10_000, 100, 25), (997, 40, 7), (5000, 137, 19)):
            pivots, segments = spans(partition_encoder(n, seg, piv))
            cursor = 0
            for a, b in sorted(segments + pivots):
                assert a == cursor
                cursor = b
            assert cursor == n
            for a, b in pivots:
                assert b - a == piv
            for a, b in segments[:-1]:
                assert b - a == seg

    def test_last_segment_absorbs_remainder(self):
        a, b = spans(partition_encoder(1040, 100, 20))[1][-1]
        assert 100 <= b - a < 2 * 100 + 20

    @settings(max_examples=300, deadline=2000)
    @given(tilings())
    def test_tiling_rule(self, tiling):
        n, seg, piv = tiling
        layout = partition_encoder(n, seg, piv)
        rule = tile_pivots(n, seg, piv)
        assert layout.k == len(rule) + 1
        assert layout.pivot_starts.dtype == np.int64
        assert layout.pivot_starts.tolist() == rule
        pivots, segments = spans(layout)
        for (a, b), (c, d) in zip(segments, pivots):
            assert b == c and b - a == seg and d - c == piv
        a, b = segments[-1]
        if layout.k > 1:
            assert seg <= b - a < 2 * seg + piv
        else:
            assert (a, b) == (0, n)

    def test_rejects_degenerate(self):
        # a file shorter than one segment is the one-segment layout
        layout = partition_encoder(99, 100, 25)
        assert layout.k == 1 and layout.pivot_starts.tolist() == []
        with pytest.raises(InvalidConfig):
            partition_encoder(0, 100, 25)
        with pytest.raises(InvalidConfig):
            partition_encoder(1000, 25, 25)
        with pytest.raises(InvalidConfig):
            partition_encoder(1000, 25, 0)


def matrix(pivots):
    """0/1 byte strings of one length as candidate_index's pivot matrix."""
    return np.frombuffer(b"".join(pivots), dtype=np.uint8).reshape(len(pivots), -1)


def table(candidates):
    """Per-pivot candidate lists as a candidate table: (pivot row, y) rows."""
    rows = [(i, p) for i, occ in enumerate(candidates) for p in occ]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def per_pivot(candidates, count):
    """A candidate table as ascending start lists, one per pivot row."""
    lists = [[] for _ in range(count)]
    for row, start in candidates.tolist():
        lists[row].append(start)
    return lists


def select(candidates, layout):
    """select_pivots on per-pivot lists, its rows as (index, y, x) tuples."""
    return list(map(tuple, select_pivots(table(candidates), layout).tolist()))


def candidates_of(y, pivot, x_start):
    y, pivot = y.to_bytes01(), pivot.to_bytes01()
    return find_candidates(candidate_index(y, matrix([pivot])), [x_start])[:, 1].tolist()


def session_candidates(x, y, layout):
    """Per-pivot candidate lists from the table a session builds: the pivots
    gathered from x in one index, one search of y for all of them, one mask."""
    at = layout.pivot_starts[:, None] + np.arange(layout.piv_len)
    index = candidate_index(y.to_bytes01(), x.to_numpy()[at])
    return per_pivot(find_candidates(index, layout.pivot_starts), layout.k - 1)


class TestFindCandidates:
    def test_absent_pivot(self):
        assert candidates_of(BitSeq("000000"), BitSeq("111"), 5) == []

    def test_all_positions_in_uniform_run(self):
        y = BitSeq("0" * 10)
        piv = BitSeq("0" * 4)
        assert candidates_of(y, piv, 9) == list(range(7))

    def test_feasibility_cutoff(self):
        y = BitSeq("0" * 10)
        piv = BitSeq("0" * 4)
        assert candidates_of(y, piv, 3) == [0, 1, 2, 3]

    def test_true_and_false_occurrence(self):
        y = BitSeq("00110101101")
        piv = BitSeq("1101")
        assert candidates_of(y, piv, 6) == [2]
        # both a false early copy and the true copy are returned
        y2 = BitSeq("00110111010")
        assert candidates_of(y2, piv, 8) == [2, 6]

    def test_index_holds_every_pivot(self):
        y = BitSeq("0011010110").to_bytes01()
        index = candidate_index(y, matrix([b"\x01\x01\x00", b"\x01\x01\x01", b"\x01\x01\x00"]))
        # a repeated pivot has rows under each of its row numbers, by (start, row)
        assert index.tolist() == [[0, 2], [2, 2], [0, 7], [2, 7]]
        assert per_pivot(index, 3) == [[2, 7], [], [2, 7]]
        with pytest.raises(IndexError):
            find_candidates(index, [9, 9])  # no X start for pivot row 2

    def test_pivots_longer_than_a_key(self):
        # 70-bit pivots share their first 64 bits and differ after them
        head = random_bits(64, substream(4, "source"))
        a, b = head + BitSeq("000000"), head + BitSeq("000001")
        a, b = a.to_bytes01(), b.to_bytes01()
        y = b"\x01" + a + b"\x00" + b + a
        index = candidate_index(y, matrix([a, b]))
        assert per_pivot(index, 2) == [[1, 142], [72]]

    def test_windows_span_block_boundaries(self):
        y = random_bits(3 * _BLOCK + 100, substream(6, "source")).to_bytes01()
        pivots = [y[p : p + 20] for p in (0, _BLOCK - 10, _BLOCK, 2 * _BLOCK + 7, len(y) - 20)]
        index = find_candidates(candidate_index(y, matrix(pivots)), [len(y)] * len(pivots))
        assert per_pivot(index, len(pivots)) == [scan_candidates(y, p, len(y)) for p in pivots]

    def test_rejects_mixed_pivot_lengths(self):
        with pytest.raises(ValueError):
            candidate_index(b"\x00\x01\x00\x01", [[0, 1], [0, 1, 0]])
        with pytest.raises(ValueError):
            candidate_index(b"\x00\x01\x00\x01", [0, 1])  # not one row per pivot


def brute_force_select(candidates, layout):
    """Exhaustive oracle over every feasible chain; same tie-break as the DP."""
    x_starts = tile_pivots(layout.n, layout.seg_len, layout.piv_len)
    nodes = []
    for idx, occ in enumerate(candidates, start=1):
        for p in occ:
            nodes.append((idx, p, x_starts[idx - 1]))

    best = []
    best_key = None

    def ok_pair(a, b):
        return (
            a[0] < b[0]
            and b[1] >= a[1] + layout.piv_len
            and (b[1] - a[1]) <= (b[2] - a[2])
        )

    def extend(chain, rest):
        nonlocal best, best_key
        key = (-len(chain), [(n[1], n[0]) for n in chain])
        if best_key is None or key < best_key:
            best, best_key = list(chain), key
        for i, node in enumerate(rest):
            if not chain or ok_pair(chain[-1], node):
                chain.append(node)
                extend(chain, rest[i + 1 :])
                chain.pop()

    extend([], nodes)
    return best


class TestSelectPivots:
    def make_layout(self, k, seg=100, piv=10):
        n = k * seg + (k - 1) * piv
        return partition_encoder(n, seg, piv)

    def test_no_deletions_selects_all(self):
        layout = self.make_layout(5)
        candidates = [[a] for a in layout.pivot_starts.tolist()]
        sel = select(candidates, layout)
        assert len(sel) == 4
        assert [i for i, _, _ in sel] == [1, 2, 3, 4]

    def test_empty_candidates(self):
        layout = self.make_layout(4)
        assert select([[], [], []], layout) == []
        assert select_pivots(np.empty((0, 2), dtype=np.int64), layout).shape == (0, 3)

    def test_gap_constraint_rejects_false_pivot(self):
        layout = self.make_layout(4)
        # pivot 2's only occurrence is far left of pivot 1's, violating order
        x1, _, x3 = layout.pivot_starts.tolist()
        candidates = [[x1], [x1 - 50], [x3 - 1]]
        sel = select(candidates, layout)
        oracle = brute_force_select(candidates, layout)
        assert [(i, y) for i, y, _ in sel] == [(i, y) for i, y, _ in oracle]

    def test_matches_exhaustive_oracle_randomized(self):
        rng = random.Random(123)
        for trial in range(150):
            k = rng.randint(2, 8)
            layout = self.make_layout(k)
            candidates = []
            for x_start in layout.pivot_starts.tolist():
                occ = sorted(
                    rng.sample(range(0, x_start + 1), min(rng.randint(0, 4), x_start + 1))
                )
                candidates.append(occ)
            sel = select(candidates, layout)
            oracle = brute_force_select(candidates, layout)
            assert len(sel) == len(oracle), (trial, candidates)
            assert [(i, y) for i, y, _ in sel] == [(i, y) for i, y, _ in oracle], (
                trial,
                candidates,
            )

    # Pivot x-starts in make_layout(5): 100, 210, 320, 430; L_P = 10.
    @pytest.mark.parametrize(
        "candidates",
        [
            pytest.param([[50], [50, 160], [50, 160, 270], [50, 380]], id="shared-y"),
            pytest.param([[0, 40], [0, 40, 90], [0, 40, 90, 150]], id="shared-y-dense"),
            pytest.param([[50], [50], [50], [50]], id="shared-y-tie"),
            pytest.param([[60], [50, 60], [50, 165], []], id="shared-y-tie-later"),
            pytest.param([[95], [205], [315], [425]], id="equal-shifts"),
            pytest.param([[95, 90], [200, 205], [310, 315], [420, 425]], id="equal-shifts-crossed"),
            pytest.param([[100], [110], [120], [130]], id="gap-exactly-l_p"),
            pytest.param([[100], [109], [118], [127]], id="gap-l_p-minus-one"),
            pytest.param([[100], [109, 110], [119, 120], [129]], id="gap-both"),
            pytest.param([[95], [206], [315], []], id="shift-drop-by-one"),
            pytest.param([[95], [206], [315], [10, 425]], id="shift-drop-then-false-node"),
            pytest.param([[], [], [], []], id="empty"),
            pytest.param([[], [7], [], []], id="single-node"),
            pytest.param([], id="no-pivots"),
        ],
    )
    def test_matches_quadratic_oracle_on_corner_cases(self, candidates):
        layout = self.make_layout(5)
        candidates = [sorted(set(occ)) for occ in candidates]
        assert select(candidates, layout) == quadratic_select(candidates, layout)

    def test_successor_gap_of_exactly_l_p(self):
        layout = self.make_layout(5)
        assert len(select([[100], [110], [120], [130]], layout)) == 4
        # L_P - 1 apart, no two neighbours chain; every other one does
        assert select([[100], [109], [118], [127]], layout) == [(1, 100, 100), (3, 118, 320)]
        assert select([[], [7], [], []], layout) == [(2, 7, 210)]
        # equal chains tie on y, then go to the smallest pivot index
        assert select([[50], [50], [50], [50]], layout) == [(1, 50, 100)]

    def test_dense_all_zero_candidates_match_quadratic_oracle(self):
        # All-zero X and Y: every pivot occurs at every feasible position.
        layout = partition_encoder(13 * 20 + 12 * 8, 20, 8)
        y = bytes(layout.n - 9)
        index = candidate_index(y, np.zeros((layout.k - 1, 8), dtype=np.uint8))
        candidates = per_pivot(find_candidates(index, layout.pivot_starts), layout.k - 1)
        assert sum(map(len, candidates)) > 2000
        assert select(candidates, layout) == quadratic_select(candidates, layout)

    def test_selection_feasible_on_channel_runs(self):
        for seed in range(5):
            x = random_bits(4000, substream(seed, "source"))
            out = apply_deletion_channel(x, 0.01, substream(seed, "channel"))
            layout = partition_encoder(4000, 100, 25)
            cands = session_candidates(x, out.y, layout)
            sel = select(cands, layout)
            for _, y, x in sel:
                assert y <= x
            for (_, ya, xa), (_, yb, xb) in zip(sel, sel[1:]):
                assert yb >= ya + layout.piv_len
                assert (yb - ya) <= (xb - xa)


@st.composite
def small_sessions(draw):
    """(x, y, layout) with L_P in [2, 8], L_S <= 20, n <= 64 (one segment
    when n < 2 L_S + L_P) and a uniform, biased, periodic or all-zero x; the
    low-entropy kinds give dense candidate lists."""
    piv_len = draw(st.integers(2, 8))
    seg_len = draw(st.integers(piv_len + 1, 20))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "biased", "periodic", "zeros"]))
    if kind == "uniform":
        bits = rng.integers(0, 2, n)
    elif kind == "biased":
        bits = rng.random(n) < draw(st.sampled_from([0.05, 0.2, 0.8, 0.95]))
    elif kind == "periodic":
        bits = np.resize(rng.integers(0, 2, draw(st.integers(1, 6))), n)
    else:
        bits = np.zeros(n)
    x = BitSeq(np.asarray(bits, dtype=np.uint8))
    y = apply_deletion_channel(x, draw(st.floats(0.0, 0.3)), rng).y
    return x, y, partition_encoder(n, seg_len, piv_len)


@st.composite
def candidate_lists(draw):
    """A layout and arbitrary feasible candidate lists, not tied to any string."""
    piv_len = draw(st.integers(2, 8))
    seg_len = draw(st.integers(piv_len + 1, 20))
    k = draw(st.integers(2, 10))
    layout = partition_encoder(k * seg_len + (k - 1) * piv_len, seg_len, piv_len)
    candidates = [
        sorted(draw(st.sets(st.integers(0, a), max_size=8))) for a in layout.pivot_starts.tolist()
    ]
    return candidates, layout


@st.composite
def conflicting_candidates(draw):
    """A layout and candidate lists drawn around a deletion path, in the shapes
    that decide where the selection may cut its nodes into components: the
    true node, a dense run of conflicting nodes around it, the previous
    pivot's nodes again (equal y across pivots), a node right of the true
    one (a shift drop that breaks the chain), a node exactly L_P after the
    previous true node, and a false node anywhere feasible."""
    piv_len = draw(st.integers(2, 8))
    seg_len = draw(st.integers(piv_len + 1, 20))
    k = draw(st.integers(2, 14))
    layout = partition_encoder(k * seg_len + (k - 1) * piv_len, seg_len, piv_len)
    shapes = st.lists(
        st.sampled_from(["true", "run", "tie", "drop", "l_p", "far"]), min_size=1, max_size=3
    )
    candidates, shift, last = [], 0, None
    for a in layout.pivot_starts.tolist():
        shift += draw(st.integers(0, 3))  # the deletions left of this pivot
        true = a - shift
        occ = set()
        for shape in draw(shapes):
            if shape == "true":
                occ.add(true)
            elif shape == "run":
                occ.update(range(true - draw(st.integers(0, 3)), true + draw(st.integers(1, 4))))
            elif shape == "tie" and candidates:
                occ.update(candidates[-1])
            elif shape == "drop":
                occ.add(true + draw(st.integers(1, 2)))
            elif shape == "l_p" and last is not None:
                occ.add(last + piv_len)
            elif shape == "far":
                occ.add(draw(st.integers(0, a)))
        candidates.append(sorted(p for p in occ if 0 <= p <= a))
        last = true
    return candidates, layout


# Windows per block while test_index_across_pivot_widths runs: its inputs sit
# at the edges of this block, which keeps them short; the edges of the real
# _BLOCK are covered by test_windows_span_block_boundaries.
_SMALL_BLOCK = 1 << 10


@st.composite
def pivot_searches(draw):
    """(y, pivots, cutoffs), y and the pivots as 0/1 bytes: pivots of one
    length in [1, 80], a uniform, periodic or all-zero y whose window count
    sits near one or two ``_SMALL_BLOCK`` edges, or a y shorter than the pivots.
    Pivots are copies of y (some starting at a block edge), copies with one
    bit flipped, or random."""
    piv_len = draw(st.integers(1, 80))
    edge = draw(st.sampled_from([0, _SMALL_BLOCK, 2 * _SMALL_BLOCK]))
    if edge:
        n = edge + piv_len - 1 + draw(st.integers(-2, 2))
    else:
        n = draw(st.integers(0, piv_len - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "periodic", "zeros"]))
    if kind == "uniform":
        bits = rng.integers(0, 2, n)
    elif kind == "periodic":
        bits = np.resize(rng.integers(0, 2, draw(st.integers(1, 6))), n)
    else:
        bits = np.zeros(n)
    y = BitSeq(np.asarray(bits, dtype=np.uint8))
    last = n - piv_len
    block_edges = (0, _SMALL_BLOCK - 1, _SMALL_BLOCK, 2 * _SMALL_BLOCK - 1, last)
    edges = [p for p in block_edges if 0 <= p <= last]
    pivots = []
    for _ in range(draw(st.integers(1, 6))):
        source = draw(st.sampled_from(["copy", "flipped", "random"] if edges else ["random"]))
        if source == "random":
            pivots.append(BitSeq(rng.integers(0, 2, piv_len).astype(np.uint8)))
            continue
        p = draw(st.one_of(st.integers(0, last), st.sampled_from(edges)))
        bits = y[p : p + piv_len].to_numpy()
        if source == "flipped":
            bits[draw(st.integers(0, piv_len - 1))] ^= 1
        pivots.append(BitSeq(bits))
    cutoffs = [n, draw(st.integers(0, n))]
    return y.to_bytes01(), [p.to_bytes01() for p in pivots], cutoffs


class TestAgainstOracles:
    """The one-pass index and the bisected sweep return exactly what the
    per-pivot rescan and the all-pairs DP return."""

    @settings(max_examples=300, deadline=5000)
    @given(small_sessions())
    def test_session_candidates_and_selection(self, session):
        x, y, layout = session
        cands = session_candidates(x, y, layout)
        piv_len = layout.piv_len
        starts = tile_pivots(len(x), layout.seg_len, piv_len)
        assert cands == [scan_candidates(y, x[a : a + piv_len], a) for a in starts]
        assert select(cands, layout) == quadratic_select(cands, layout)

    @settings(max_examples=300, deadline=5000)
    @given(candidate_lists())
    def test_selection_on_arbitrary_candidates(self, instance):
        candidates, layout = instance
        assert select(candidates, layout) == quadratic_select(candidates, layout)

    @settings(max_examples=300, deadline=5000)
    @given(conflicting_candidates())
    def test_selection_across_component_cuts(self, instance):
        # singleton components are taken without the sweep; the sweep runs
        # over the other components' nodes as one list
        candidates, layout = instance
        assert select(candidates, layout) == quadratic_select(candidates, layout)

    @settings(max_examples=300, deadline=5000)
    @given(pivot_searches())
    def test_index_across_pivot_widths(self, search):
        # widths past 16 bits and up to the 64-bit key read up to eight view
        # bytes a key; longer pivots are confirmed by one more key per 64 bits
        y, pivots, cutoffs = search
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delsync.matching, "_BLOCK", _SMALL_BLOCK)
            index = candidate_index(y, matrix(pivots))
        for x_start in cutoffs:
            found = per_pivot(find_candidates(index, [x_start] * len(pivots)), len(pivots))
            assert found == [scan_candidates(y, piv, x_start) for piv in pivots]

    @pytest.mark.parametrize(
        "piv_len, k, kind, n",
        [
            # L_P < 16: the lead is L_P bits, and the lead bytes of y's last
            # windows hold bits past its end
            pytest.param(5, 6, "uniform", 2500, id="lead-5"),
            pytest.param(12, 6, "period3", 2500, id="lead-12-period3"),
            pytest.param(16, 6, "uniform", 2500, id="lead-16"),
            pytest.param(17, 6, "zeros", 2500, id="key-17-zeros"),
            pytest.param(40, 6, "uniform", 2500, id="key-40"),
            pytest.param(64, 6, "period3", 2500, id="key-64-period3"),
            # past 64 bits: one or two more keys per match
            pytest.param(65, 6, "uniform", 2500, id="rest-1"),
            pytest.param(150, 6, "period3", 2500, id="rest-86-period3"),
            pytest.param(200, 6, "zeros", 2500, id="rest-136-zeros"),
            # k >= 1,024 pivots: a 17-bit lead, three view bytes a window
            pytest.param(24, 1100, "uniform", 6000, id="lead-17"),
            pytest.param(64, 1100, "period3", 3000, id="lead-17-period3"),
            pytest.param(20, 4, "uniform", 19, id="y-under-L_P"),
            pytest.param(3, 4, "uniform", 5, id="y-under-8"),
            pytest.param(12, 4, "zeros", 7, id="y-under-8-and-L_P"),
        ],
    )
    def test_index_in_each_read_branch(self, piv_len, k, kind, n):
        # The pivots are copies of y's windows (its last window among them),
        # copies with their last or another bit flipped, and random rows.
        rng = np.random.default_rng(piv_len * k + n)
        if kind == "uniform":
            bits = rng.integers(0, 2, n, dtype=np.uint8)
        elif kind == "period3":
            bits = np.resize(np.array([0, 0, 1], dtype=np.uint8), n)
        else:
            bits = np.zeros(n, dtype=np.uint8)
        last = n - piv_len
        pivots = rng.integers(0, 2, (k, piv_len), dtype=np.uint8)
        if last >= 0:
            at = rng.integers(0, last + 1, k)
            at[0] = last
            copies = bits[at[:, None] + np.arange(piv_len)]
            copies[2::4, -1] ^= 1
            copies[3::4, rng.integers(0, piv_len)] ^= 1
            pivots[: 3 * k // 4] = copies[: 3 * k // 4]
        y = bits.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delsync.matching, "_BLOCK", _SMALL_BLOCK)
            index = candidate_index(y, pivots)
        expected = sorted(
            (p, row) for row, piv in enumerate(pivots) for p in scan_candidates(y, piv.tobytes(), n)
        )
        assert index.tolist() == [[row, p] for p, row in expected]
        assert (last >= 0) == bool(expected)


def module_i_oracle(x: bytes, y: bytes, seg_len: int, piv_len: int):
    """Module I from the oracles: pivots payload, feedback, chain and sections."""
    layout = partition_encoder(len(x), seg_len, piv_len)
    starts = tile_pivots(len(x), seg_len, piv_len)
    pivots = [x[a : a + piv_len] for a in starts]
    candidates = [scan_candidates(y, p, a) for p, a in zip(pivots, starts)]
    chain = quadratic_select(candidates, layout)
    feedback = bytearray(len(starts))
    for i, _, _ in chain:
        feedback[i - 1] = 1
    return b"".join(pivots), bytes(feedback), chain, cut_sections(chain, layout, len(y))


def one_in(period: int, n: int) -> np.ndarray:
    bits = np.zeros(n, dtype=np.uint8)
    bits[period // 2 :: period] = 1
    return bits


class TestModuleI:
    """A session's Module I, from the pivot gather to the section rows, is the
    per-pivot rescan, the all-pairs selection and the pivot-by-pivot cut."""

    @pytest.mark.parametrize(
        "bits, seg_len, piv_len",
        [
            pytest.param(np.zeros(200, dtype=np.uint8), 20, 8, id="zeros"),
            pytest.param(np.resize(np.array([0, 0, 1], dtype=np.uint8), 300), 20, 8, id="001"),
            pytest.param(
                (np.random.default_rng(5).random(400) < 0.05).astype(np.uint8), 30, 8, id="ones-5%"
            ),
            # 70-bit pivots: the one-in-97 windows share their first 64 bits
            # with the all-zero ones, so only the byte check tells them apart
            pytest.param(one_in(97, 1500), 150, 70, id="long-pivots"),
        ],
    )
    def test_match_is_the_oracles(self, bits, seg_len, piv_len):
        x = BitSeq(bits)
        y = apply_deletion_channel(x, 0.05, np.random.default_rng(8)).y
        x, y = x.to_bytes01(), y.to_bytes01()
        matching = protocol._match(x, y, seg_len, piv_len)
        pivots, feedback, chain, sections = module_i_oracle(x, y, seg_len, piv_len)
        assert matching.pivots == pivots
        assert matching.feedback == feedback
        assert list(map(tuple, matching.selection.tolist())) == chain
        assert list(map(tuple, matching.sections.tolist())) == sections
        assert chain

    @pytest.mark.parametrize("n", [1, 7, 27, 150, 200, 300, 427])
    def test_one_segment_match_is_the_oracles(self, n):
        # n < 2 L_S + L_P = 428: no pivots, one section of all of X and Y
        x = random_bits(n, substream(n, "source"))
        y = apply_deletion_channel(x, 0.02, substream(n, "channel")).y
        x, y = x.to_bytes01(), y.to_bytes01()
        matching = protocol._match(x, y, 200, 28)
        assert matching.layout.k == 1
        pivots, feedback, chain, sections = module_i_oracle(x, y, 200, 28)
        assert matching.pivots == pivots == b""
        assert matching.feedback == feedback == b""
        assert matching.selection.shape == (0, 3) and chain == []
        assert list(map(tuple, matching.sections.tolist())) == sections
        assert sections == [(0, n, 0, len(y), n - len(y))]

    def test_long_pivots_are_confirmed_on_their_bytes(self):
        x = one_in(97, 1500)
        layout = partition_encoder(1500, 150, 70)
        y = x.tobytes()
        at = layout.pivot_starts[:, None] + np.arange(70)
        table = candidate_index(y, x[at])
        heads = [scan_candidates(y, x[a : a + 64].tobytes(), len(y)) for a in layout.pivot_starts]
        assert len(table) < sum(map(len, heads))
        assert per_pivot(table, layout.k - 1) == [
            scan_candidates(y, x[row].tobytes(), len(y)) for row in at
        ]


class TestLinearTime:
    def module_i_seconds(self, n):
        """Best of three: Module I as a session runs it, from the pivot gather
        to the section rows."""
        params = ProtocolParams(n=n, beta=0.01, seed=1)
        x = random_bits(n, substream(1, "source"))
        y = apply_deletion_channel(x, params.beta, substream(1, "channel")).y
        x, y = x.to_bytes01(), y.to_bytes01()
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            protocol._match(x, y, params.seg_len, params.piv_len)
            best = min(best, time.perf_counter() - started)
        return best

    def test_module_i_scales_linearly(self):
        # 20x the input: linear is 20, the rescan-per-pivot search was ~380
        ratio = self.module_i_seconds(1_000_000) / self.module_i_seconds(50_000)
        assert ratio < 60, ratio

    def test_module_i_scales_linearly_past_a_million(self):
        # 10x the input: linear is 10.  With a 16-bit lead table at every
        # pivot count this read 53, as the table passed a share of Y's
        # windows that grows with the pivot count.
        ratio = self.module_i_seconds(10_000_000) / self.module_i_seconds(1_000_000)
        assert ratio < 20, ratio


def records(rows):
    """form_sections rows as (section id, x span, y span, t) tuples."""
    return [(i, (a, b), (c, d), t) for i, (a, b, c, d, t) in enumerate(rows.tolist())]


class TestFormSections:
    def test_two_pivots_three_sections(self):
        layout = partition_encoder(320, 100, 10)
        sel = [(1, 98, 100), (2, 207, 210)]
        secs = records(form_sections(sel, layout, 315))
        assert len(secs) == 3
        assert secs[0][1:3] == ((0, 100), (0, 98))
        assert secs[1][1:3] == ((110, 210), (108, 207))
        assert secs[2][1:3] == ((220, 320), (217, 315))
        assert [t for *_, t in secs] == [2, 1, 2]

    def test_beta_zero_all_t_zero(self):
        layout = partition_encoder(320, 100, 10)
        sel = [(1, 100, 100), (2, 210, 210)]
        secs = records(form_sections(sel, layout, 320))
        assert all(t == 0 for *_, t in secs)

    def test_deletion_totals_conserved(self):
        rng = random.Random(7)
        for _ in range(20):
            x = random_bits(3000, substream(rng.randrange(2**30), "source"))
            out = apply_deletion_channel(x, 0.02, substream(rng.randrange(2**30), "channel"))
            layout = partition_encoder(3000, 150, 28)
            cands = session_candidates(x, out.y, layout)
            sel = select(cands, layout)
            secs = records(form_sections(sel, layout, len(out.y)))
            assert sum(t for *_, t in secs) == len(out.deleted_positions)
            # tiling of both strings
            x_cursor = 0
            y_cursor = 0
            for i, x_span, y_span, _ in secs:
                assert x_span[0] == x_cursor and y_span[0] == y_cursor
                x_cursor = x_span[1] + (layout.piv_len if i < len(sel) else 0)
                y_cursor = y_span[1] + (layout.piv_len if i < len(sel) else 0)
            assert x_cursor == 3000 and y_cursor == len(out.y)

    def test_unselected_pivots_absorbed(self):
        layout = partition_encoder(320, 100, 10)
        sel = [(2, 205, 210)]  # pivot 1 unselected
        secs = records(form_sections(sel, layout, 315))
        assert len(secs) == 2
        assert secs[0][1] == (0, 210)  # includes pivot 1's bits
