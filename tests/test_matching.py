import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delsync.matching
from delsync.core import (
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    random_bits,
    substream,
)
from delsync.matching import (
    _BLOCK,
    EncoderLayout,
    PivotMatch,
    SectionPair,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    pivot_length,
    select_pivots,
)
from matching_oracle import quadratic_select, scan_candidates


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


class TestPartitionEncoder:
    def test_tiling_example(self):
        layout = partition_encoder(10_000, 100, 25)
        assert layout.k == 80
        assert len(layout.pivot_spans) == 79
        last = layout.segment_spans[-1]
        assert last[1] - last[0] == 125

    def test_single_segment_boundary(self):
        layout = partition_encoder(125, 100, 25)
        assert layout.k == 1
        assert layout.pivot_spans == ()
        assert layout.segment_spans == ((0, 125),)

    def test_paper_scale_counts(self):
        layout = partition_encoder(50_000, 200, 27)
        assert layout.k == 220  # floor(50027 / 227)

    def test_spans_tile_exactly(self):
        for n, seg, piv in ((10_000, 100, 25), (997, 40, 7), (5000, 137, 19)):
            layout = partition_encoder(n, seg, piv)
            spans = sorted(layout.segment_spans + layout.pivot_spans)
            cursor = 0
            for a, b in spans:
                assert a == cursor
                cursor = b
            assert cursor == n
            for a, b in layout.pivot_spans:
                assert b - a == piv
            for a, b in layout.segment_spans[:-1]:
                assert b - a == seg

    def test_last_segment_absorbs_remainder(self):
        layout = partition_encoder(1040, 100, 20)
        a, b = layout.segment_spans[-1]
        assert 100 <= b - a < 2 * 100 + 20

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidConfig):
            partition_encoder(99, 100, 25)
        with pytest.raises(InvalidConfig):
            partition_encoder(1000, 25, 25)
        with pytest.raises(InvalidConfig):
            partition_encoder(1000, 25, 0)


def candidates_of(y, pivot, x_start):
    y, pivot = y.to_bytes01(), pivot.to_bytes01()
    return find_candidates(candidate_index(y, [pivot]), pivot, x_start)


def session_candidates(x, y, layout):
    """Candidate lists as a session builds them: one index of y for all pivots."""
    x = x.to_bytes01()
    pivots = [x[a:b] for a, b in layout.pivot_spans]
    index = candidate_index(y.to_bytes01(), pivots)
    return [find_candidates(index, p, a) for p, (a, _) in zip(pivots, layout.pivot_spans)]


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
        index = candidate_index(y, [b"\x01\x01\x00", b"\x01\x01\x01", b"\x01\x01\x00"])
        assert index == {b"\x01\x01\x00": [2, 7], b"\x01\x01\x01": []}
        with pytest.raises(KeyError):
            find_candidates(index, b"\x00\x00\x00", 9)

    def test_pivots_longer_than_a_key(self):
        # 70-bit pivots share their first 64 bits and differ after them
        head = random_bits(64, substream(4, "source"))
        a, b = head + BitSeq("000000"), head + BitSeq("000001")
        a, b = a.to_bytes01(), b.to_bytes01()
        y = b"\x01" + a + b"\x00" + b + a
        index = candidate_index(y, [a, b])
        assert index[a] == [1, 142]
        assert index[b] == [72]

    def test_windows_span_block_boundaries(self):
        y = random_bits(3 * _BLOCK + 100, substream(6, "source")).to_bytes01()
        pivots = [y[p : p + 20] for p in (0, _BLOCK - 10, _BLOCK, 2 * _BLOCK + 7, len(y) - 20)]
        index = candidate_index(y, pivots)
        for piv in pivots:
            assert find_candidates(index, piv, len(y)) == scan_candidates(y, piv, len(y))

    def test_rejects_mixed_pivot_lengths(self):
        with pytest.raises(ValueError):
            candidate_index(b"\x00\x01\x00\x01", [b"\x00\x01", b"\x00\x01\x00"])


def brute_force_select(candidates, layout):
    """Exhaustive oracle over every feasible chain; same tie-break as the DP."""
    nodes = []
    for idx, occ in enumerate(candidates, start=1):
        for p in occ:
            nodes.append((idx, p, layout.pivot_spans[idx - 1][0]))

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
    return [PivotMatch(i, y, x) for i, y, x in best]


class TestSelectPivots:
    def make_layout(self, k, seg=100, piv=10):
        n = k * seg + (k - 1) * piv
        return partition_encoder(n, seg, piv)

    def test_no_deletions_selects_all(self):
        layout = self.make_layout(5)
        candidates = [[layout.pivot_spans[i][0]] for i in range(4)]
        sel = select_pivots(candidates, layout)
        assert len(sel) == 4
        assert [m.pivot_index for m in sel] == [1, 2, 3, 4]

    def test_empty_candidates(self):
        layout = self.make_layout(4)
        assert select_pivots([[], [], []], layout) == []

    def test_gap_constraint_rejects_false_pivot(self):
        layout = self.make_layout(4)
        # pivot 2's only occurrence is far left of pivot 1's, violating order
        x1 = layout.pivot_spans[0][0]
        candidates = [[x1], [x1 - 50], [layout.pivot_spans[2][0] - 1]]
        sel = select_pivots(candidates, layout)
        oracle = brute_force_select(candidates, layout)
        assert [(m.pivot_index, m.y_start) for m in sel] == [
            (m.pivot_index, m.y_start) for m in oracle
        ]

    def test_matches_exhaustive_oracle_randomized(self):
        rng = random.Random(123)
        for trial in range(150):
            k = rng.randint(2, 8)
            layout = self.make_layout(k)
            candidates = []
            for i in range(k - 1):
                x_start = layout.pivot_spans[i][0]
                occ = sorted(
                    rng.sample(range(0, x_start + 1), min(rng.randint(0, 4), x_start + 1))
                )
                candidates.append(occ)
            sel = select_pivots(candidates, layout)
            oracle = brute_force_select(candidates, layout)
            assert len(sel) == len(oracle), (trial, candidates)
            assert [(m.pivot_index, m.y_start) for m in sel] == [
                (m.pivot_index, m.y_start) for m in oracle
            ], (trial, candidates)

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
            pytest.param([[], [], [], []], id="empty"),
            pytest.param([[], [7], [], []], id="single-node"),
            pytest.param([], id="no-pivots"),
        ],
    )
    def test_matches_quadratic_oracle_on_corner_cases(self, candidates):
        layout = self.make_layout(5)
        candidates = [sorted(set(occ)) for occ in candidates]
        assert select_pivots(candidates, layout) == quadratic_select(candidates, layout)

    def test_successor_gap_of_exactly_l_p(self):
        layout = self.make_layout(5)
        assert len(select_pivots([[100], [110], [120], [130]], layout)) == 4
        # L_P - 1 apart, no two neighbours chain; every other one does
        assert select_pivots([[100], [109], [118], [127]], layout) == [
            PivotMatch(1, 100, 100),
            PivotMatch(3, 118, 320),
        ]
        assert select_pivots([[], [7], [], []], layout) == [PivotMatch(2, 7, 210)]
        # equal chains tie on y, then go to the smallest pivot index
        assert select_pivots([[50], [50], [50], [50]], layout) == [PivotMatch(1, 50, 100)]

    def test_dense_all_zero_candidates_match_quadratic_oracle(self):
        # All-zero X and Y: every pivot occurs at every feasible position.
        layout = partition_encoder(13 * 20 + 12 * 8, 20, 8)
        y = bytes(layout.n - 9)
        pivots = [bytes(8)] * (layout.k - 1)
        index = candidate_index(y, pivots)
        candidates = [find_candidates(index, bytes(8), a) for a, _ in layout.pivot_spans]
        assert sum(map(len, candidates)) > 2000
        assert select_pivots(candidates, layout) == quadratic_select(candidates, layout)

    def test_selection_feasible_on_channel_runs(self):
        for seed in range(5):
            x = random_bits(4000, substream(seed, "source"))
            out = apply_deletion_channel(x, 0.01, substream(seed, "channel"))
            layout = partition_encoder(4000, 100, 25)
            cands = session_candidates(x, out.y, layout)
            sel = select_pivots(cands, layout)
            for m in sel:
                assert m.y_start <= m.x_start
            for a, b in zip(sel, sel[1:]):
                assert b.y_start >= a.y_start + layout.piv_len
                assert (b.y_start - a.y_start) <= (b.x_start - a.x_start)


@st.composite
def small_sessions(draw):
    """(x, y, layout) with L_P in [2, 8], L_S <= 20 and a uniform, biased,
    periodic or all-zero x; the low-entropy kinds give dense candidate lists."""
    piv_len = draw(st.integers(2, 8))
    seg_len = draw(st.integers(piv_len + 1, 20))
    n = draw(st.integers(seg_len, 64))
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
        sorted(draw(st.sets(st.integers(0, a), max_size=8))) for a, _ in layout.pivot_spans
    ]
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
        assert cands == [scan_candidates(y, x[a:b], a) for a, b in layout.pivot_spans]
        assert select_pivots(cands, layout) == quadratic_select(cands, layout)

    @settings(max_examples=300, deadline=5000)
    @given(candidate_lists())
    def test_selection_on_arbitrary_candidates(self, instance):
        candidates, layout = instance
        assert select_pivots(candidates, layout) == quadratic_select(candidates, layout)

    @settings(max_examples=300, deadline=5000)
    @given(pivot_searches())
    def test_index_across_pivot_widths(self, search):
        # widths past 16 bits and up to the 64-bit key take every doubling
        # level and composition; longer pivots are confirmed on their bytes
        y, pivots, cutoffs = search
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delsync.matching, "_BLOCK", _SMALL_BLOCK)
            index = candidate_index(y, pivots)
        for piv in pivots:
            for x_start in cutoffs:
                assert find_candidates(index, piv, x_start) == scan_candidates(y, piv, x_start)


class TestLinearTime:
    def module_i_seconds(self, n):
        """Best of three: index build, every find_candidates call, select_pivots."""
        params = ProtocolParams(n=n, beta=0.01, seed=1)
        x = random_bits(n, substream(1, "source"))
        y = apply_deletion_channel(x, params.beta, substream(1, "channel")).y
        layout = partition_encoder(n, params.seg_len, params.piv_len)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            select_pivots(session_candidates(x, y, layout), layout)
            best = min(best, time.perf_counter() - started)
        return best

    def test_module_i_scales_linearly(self):
        # 20x the input: linear is 20, the rescan-per-pivot search was ~380
        ratio = self.module_i_seconds(1_000_000) / self.module_i_seconds(50_000)
        assert ratio < 60, ratio


class TestRecords:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PivotMatch(2, 205, 210),
            lambda: SectionPair(1, (110, 210), (108, 205), 3),
        ],
        ids=["PivotMatch", "SectionPair"],
    )
    def test_value_equality_hashing_and_immutability(self, make):
        a, b = make(), make()
        assert a == b and a is not b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(**{a._fields[0]: a[0] + 1})
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], 0)

    def test_fields_keep_their_order(self):
        assert PivotMatch._fields == ("pivot_index", "y_start", "x_start")
        assert SectionPair._fields == ("section_id", "x_span", "y_span", "t")


class TestFormSections:
    def test_two_pivots_three_sections(self):
        layout = partition_encoder(320, 100, 10)
        sel = [PivotMatch(1, 98, 100), PivotMatch(2, 207, 210)]
        secs = form_sections(sel, layout, 315)
        assert len(secs) == 3
        assert secs[0].x_span == (0, 100) and secs[0].y_span == (0, 98)
        assert secs[1].x_span == (110, 210) and secs[1].y_span == (108, 207)
        assert secs[2].x_span == (220, 320) and secs[2].y_span == (217, 315)
        assert [s.t for s in secs] == [2, 1, 2]

    def test_beta_zero_all_t_zero(self):
        layout = partition_encoder(320, 100, 10)
        sel = [PivotMatch(1, 100, 100), PivotMatch(2, 210, 210)]
        secs = form_sections(sel, layout, 320)
        assert all(s.t == 0 for s in secs)

    def test_deletion_totals_conserved(self):
        rng = random.Random(7)
        for _ in range(20):
            x = random_bits(3000, substream(rng.randrange(2**30), "source"))
            out = apply_deletion_channel(x, 0.02, substream(rng.randrange(2**30), "channel"))
            layout = partition_encoder(3000, 150, 28)
            cands = session_candidates(x, out.y, layout)
            sel = select_pivots(cands, layout)
            secs = form_sections(sel, layout, len(out.y))
            assert sum(s.t for s in secs) == len(out.deleted_positions)
            # tiling of both strings
            x_cursor = 0
            y_cursor = 0
            for i, s in enumerate(secs):
                assert s.x_span[0] == x_cursor and s.y_span[0] == y_cursor
                x_cursor = s.x_span[1] + (layout.piv_len if i < len(sel) else 0)
                y_cursor = s.y_span[1] + (layout.piv_len if i < len(sel) else 0)
            assert x_cursor == 3000 and y_cursor == len(out.y)

    def test_unselected_pivots_absorbed(self):
        layout = partition_encoder(320, 100, 10)
        sel = [PivotMatch(2, 205, 210)]  # pivot 1 unselected
        secs = form_sections(sel, layout, 315)
        assert len(secs) == 2
        assert secs[0].x_span == (0, 210)  # includes pivot 1's bits
