import bisect
import math
import random
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recovery_oracle as oracle
from delsync import recovery

from delsync.codes import CodeSpec, NoCodewordFound
from delsync.core import BitSeq, Transcript, random_bits, substream
from delsync.recovery import (
    _plan,
    case_payload,
    case_width,
    delimiter_length,
    locate_delimiter,
    recover_section,
)


@pytest.fixture(scope="module")
def spec2():
    return CodeSpec.from_seed(2, (1.0, 3.5), seed=7)


@pytest.fixture(scope="module")
def spec1():
    return CodeSpec.from_seed(1, (1.0,), seed=7)


def run_section(x, y, spec, c=3.0):
    tr = Transcript()
    section = (0, len(x), 0, len(y), len(x) - len(y))
    estimate, [ok], _ = recover_section([section], x.to_bytes01(), y.to_bytes01(), spec, c, tr)
    return BitSeq(bytes(estimate)), ok, tr


def states(value, width):
    return BitSeq.from_int(value, width).to_bytes01()


class TestCaseCodes:
    def test_section_case_widths(self):
        assert case_payload((0,), 2) == states(0, 2)
        assert len(case_payload((0,), 2)) == 2
        assert case_payload((2,), 2) == states(2, 2)
        assert case_payload((9,), 2) == states(3, 2)  # more-than-w

    def test_case_width_grows_with_w(self):
        assert case_width(1) == 2
        assert case_width(2) == 2
        assert case_width(6) == 3

    def test_pair_encoding_width(self):
        assert len(case_payload((1, 2), 2)) == 4
        assert len(case_payload((0, 0), 2)) == 4

    def test_not_found_reserves_zero_pattern(self):
        assert case_payload((0, 0), 2) == states(0, 4)
        # honest (0,0) cannot occur: splits happen only when t > w >= 1
        assert case_payload((3, 0), 2) == states(0b1100, 4)

    def test_rejects_state_out_of_range(self):
        # a count past w + 1 saturates; only a negative count is out of range
        assert case_payload((4, 0), 2) == case_payload((3, 0), 2)
        with pytest.raises(ValueError):
            case_payload((-1,), 2)
        with pytest.raises(ValueError):
            case_payload((1, -1), 2)


class TestDelimiterPlacement:
    def test_center_then_shifts(self):
        # a 100-bit part, l = 20: the center, then right and left by l
        assert _plan(3.0, 100) == (20, (40, 60, 20, 0))
        assert oracle.placements(100, 20)[:3] == (40, 60, 20)

    def test_exhaustion_on_short_part(self):
        assert _plan(3.0, 10) == (10, ())  # l = q: no delimiter leaves a right half
        assert oracle.placements(10, 20) == ()

    def test_all_placements_distinct_and_in_bounds(self):
        l, starts = _plan(3.0, 95)
        assert l == 20
        assert all(0 <= start and start + l < 95 for start in starts)
        assert len(set(starts)) == len(starts)
        assert len(starts) >= 95 // 20
        starts = oracle.placements(95, 20)
        assert all(0 <= start <= 75 for start in starts)
        assert len(set(starts)) == len(starts)

    def test_plan_is_the_oracle_loop_without_its_clipped_edge(self):
        for c in (0.5, 1.0, 1.5, 3.0, 4.5):
            for q in range(5001):
                l = delimiter_length(c, q)
                want = tuple(start for start in oracle.placements(q, l) if start + l < q)
                assert _plan(c, q) == (l, want), (c, q)

    def test_delimiter_length_formula(self):
        assert delimiter_length(3.0, 1000) == math.ceil(3 * math.log2(1000))
        assert delimiter_length(3.0, 300) == 25


class TestLocateDelimiter:
    def test_exact_alignment_no_deletions(self):
        x = BitSeq("1011001110100101")
        l, starts = _plan(1.5, len(x))
        assert l == 6
        split = starts[0] + 6
        delim = x[split - 6 : split]
        p = locate_delimiter(x, delim, split)
        assert p is not None and p + 6 == split

    def test_not_found_when_delimiter_bit_deleted(self):
        rng = random.Random(4)
        x = BitSeq([rng.randint(0, 1) for _ in range(200)])
        start = oracle.placements(len(x), 21)[0]
        split = start + 21
        delim = x[start:split]
        y = x.delete([start + 10])  # kill one delimiter bit
        if y.find(delim) == -1:  # the damaged copy may still occur by chance
            assert locate_delimiter(y, delim, split) is None

    def test_earlier_feasible_occurrence_wins(self):
        # constructed false copy left of the true one
        delim = BitSeq("110110")
        y = BitSeq("110110" + "0000" + "110110" + "0000")
        assert locate_delimiter(y, delim, len(y)) == 0

    def test_feasibility_bound_respected(self):
        delim = BitSeq("1111")
        y = BitSeq("000011110000")
        assert locate_delimiter(y, delim, 4) is None
        assert locate_delimiter(y, delim, 8) == 4


def _search_input(kind: str, n: int, rng: random.Random) -> tuple[bytes, bytes]:
    """n bits of X of ``kind`` and Y after deleting about one bit in fifty."""
    if kind == "uniform":
        x = bytes(rng.getrandbits(1) for _ in range(n))
    elif kind == "zeros":
        x = bytes(n)
    else:
        period = {"period2": b"\x00\x01", "period3": b"\x00\x00\x01"}[kind]
        x = (period * n)[rng.randrange(len(period)) :][:n]
    return x, bytes(b for b in x if rng.random() >= 0.02)


class TestWindowSearch:
    """The walk's delimiter search, over window views from l = 8 on, is the
    0/1 search ``y.find(x[a : a + l], y0, end)``."""

    @settings(max_examples=400, deadline=2000)
    @given(
        st.sampled_from(["uniform", "zeros", "period2", "period3"]),
        st.integers(1, 64),
        st.integers(0, 120),
        st.sampled_from(["any", "end_of_y", "under_7", "under_y0_plus_7", "under_l"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_bit_search(self, kind, l, extra, edge, plant, seed):
        rng = random.Random(seed)
        x, y = _search_input(kind, l + extra, rng)
        a = rng.randint(0, len(x) - l)
        y0 = rng.randint(0, len(y))
        end = {
            "any": rng.randint(y0, len(y)),
            "end_of_y": len(y),
            "under_7": min(rng.randint(0, 6), len(y)),
            "under_y0_plus_7": min(y0 + rng.randint(0, 6), len(y)),
            "under_l": min(y0 + rng.randint(0, l - 1), len(y)),
        }[edge]
        if plant and y0 + l <= end:  # a copy of the delimiter in the window
            at = rng.randint(y0, end - l)
            y = y[:at] + x[a : a + l] + y[at + l :]
        find = recovery._window_search(x, y)
        assert find(a, l, y0, end) == y.find(x[a : a + l], y0, end)

    @settings(max_examples=300, deadline=2000)
    @given(
        st.sampled_from(["uniform", "zeros", "period2", "period3"]),
        st.integers(1, 64),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_a_copy_at_or_past_the_window_end(self, kind, l, past, seed):
        # The window ends ``past`` bits before a copy of the delimiter does,
        # so from past = 1 on the copy must not be found, and it starts at
        # most 8 bits before the copy.
        rng = random.Random(seed)
        x, y = _search_input(kind, l + 40, rng)
        a = rng.randint(0, len(x) - l)
        at = rng.randint(0, len(y) - l)
        y = y[:at] + x[a : a + l] + y[at + l :]
        y0, end = max(at - rng.randint(0, 8), 0), at + l - past
        find = recovery._window_search(x, y)
        assert find(a, l, y0, end) == y.find(x[a : a + l], y0, end)


class TestRecoverSection:
    def test_zero_deletions_costs_only_case_report(self, spec2):
        x = BitSeq([0, 1, 1, 0] * 50)
        out, ok, tr = run_section(x, x, spec2)
        assert out == x and ok
        assert tr.total_bits("II") == case_width(2)
        kinds = [m.kind for m in tr.entries]
        assert kinds == ["SectionCase"]

    def test_single_deletion_vt_path(self, spec2):
        x = random_bits(300, substream(21, "source"))
        y = x.delete([113])
        out, ok, tr = run_section(x, y, spec2)
        assert out == x and ok
        syn_msgs = [m for m in tr.entries if m.kind == "Syndrome"]
        assert len(syn_msgs) == 1
        assert syn_msgs[0].bits == math.ceil(math.log2(301))  # 9

    def test_golden_three_deletion_one_split(self, spec2):
        # constructed so attempt 0 succeeds: deletions at 40 | split | 200, 260
        x = random_bits(300, substream(33, "source"))
        y = x.delete([40, 200, 260])
        out, ok, tr = run_section(x, y, spec2)
        assert out == x and ok
        kinds = [m.kind for m in tr.entries]
        assert kinds == ["SectionCase", "Delimiter", "CaseCode", "Syndrome", "Syndrome"]
        delim = next(m for m in tr.entries if m.kind == "Delimiter")
        assert delim.bits == 25  # ceil(3 * log2 300)
        syn_bits = [m.bits for m in tr.entries if m.kind == "Syndrome"]
        assert syn_bits[0] == math.ceil(math.log2(163))  # VT over the 162-bit left part
        assert syn_bits[1] == math.ceil(7 * math.log2(138))  # 2-deletion code, right part

    def test_decode_reads_the_payload_the_transcript_digests(self, spec2, monkeypatch):
        # one syndrome payload goes to the transcript and to the decoder: a
        # bit flipped in it changes the digest chain and Bob's estimate both
        x = random_bits(400, substream(21, "source"))
        y = x.delete([100, 300])
        out, ok, tr = run_section(x, y, spec2)
        assert out == x and ok
        assert [m.kind for m in tr.entries] == ["SectionCase", "Syndrome"]
        syndrome_batch = recovery.syndrome_batch

        def first_bit_flipped(*args):
            payload = syndrome_batch(*args)
            return bytes([1 - payload[0]]) + payload[1:]

        monkeypatch.setattr(recovery, "syndrome_batch", first_bit_flipped)
        out, ok, flipped = run_section(x, y, spec2)
        assert flipped.final_digest != tr.final_digest
        assert out != x and not ok

    def test_length_restored_regardless_of_content(self, spec2):
        # corrupt y so it is not a subsequence: decode fails, length still right
        x = BitSeq([0] * 120)
        y = BitSeq([1] * 118)
        out, ok, tr = run_section(x, y, spec2)
        assert len(out) == 120

    def test_negative_t_flagged_and_trimmed(self, spec2):
        x = BitSeq([0, 1] * 30)
        y = BitSeq([1, 0] * 40)  # longer than x: a false pivot did this
        out, ok, tr = run_section(x, y, spec2)
        assert not ok
        assert len(out) == len(x)  # trimmed; Module III absorbs the content
        assert [m.kind for m in tr.entries] == ["SectionCase"]

    def test_verbatim_fallback_for_tiny_part(self, spec2):
        # t > w and the part sits below 2l: raw send of the whole part
        x = random_bits(29, substream(5, "source"))
        y = x.delete([3, 9, 17])
        out, ok, tr = run_section(x, y, spec2)
        assert out == x and ok
        assert [m.kind for m in tr.entries] == ["SectionCase", "Syndrome"]
        assert tr.entries[-1].bits == 29

    def test_undecodable_count_splits_before_any_syndrome(self):
        # t = 3 <= w, but a 300-bit part is past the walk limit: the part is
        # treated as beyond capability and split, not sent a syndrome
        spec3 = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        x = random_bits(300, substream(33, "source"))
        y = x.delete([40, 200, 260])
        out, ok, tr = run_section(x, y, spec3)
        assert out == x and ok
        assert [m.kind for m in tr.entries[:2]] == ["SectionCase", "Delimiter"]

    def test_random_sections_recover_exactly(self, spec2, spec1):
        # >= 10^3 trials at w=2: at most 1 in 1000 may fail (delimiter
        # mismatches are o(beta)-rare); a shorter sweep covers w=1
        rng = random.Random(55)
        for spec, trials, budget in ((spec2, 1000, 1), (spec1, 150, 1)):
            failures = 0
            for _ in range(trials):
                n_s = rng.randint(200, 2000)
                t = rng.randint(0, 8)
                x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
                y = x.delete(sorted(rng.sample(range(n_s), t)))
                out, ok, tr = run_section(x, y, spec)
                assert len(out) == n_s
                if out != x:
                    failures += 1
            assert failures <= budget

    def test_feedback_bits_tied_to_delimiter_rounds(self, spec2):
        rng = random.Random(77)
        cw = case_width(2)
        for _ in range(40):
            n_s = rng.randint(300, 1200)
            t = rng.randint(3, 8)
            x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
            y = x.delete(sorted(rng.sample(range(n_s), t)))
            out, ok, tr = run_section(x, y, spec2)
            b2a = sum(m.bits for m in tr.entries if m.direction == "B2A")
            n_delim = sum(1 for m in tr.entries if m.kind == "Delimiter")
            assert b2a == 2 * cw * n_delim + cw


class TestCodeBitBound:
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_mean_syndrome_bits_within_bound(self, t, spec2):
        # mean syndrome bits per section <= a * t * log2(n_s), plus up to one
        # bit of integral-syndrome ceiling for each of the <= t code calls
        rng = random.Random(4000 + t)
        n_s = 1000
        vals = []
        for _ in range(300):
            x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
            y = x.delete(sorted(rng.sample(range(n_s), t)))
            out, ok, tr = run_section(x, y, spec2)
            vals.append(sum(m.bits for m in tr.entries if m.kind == "Syndrome"))
        assert statistics.mean(vals) <= 3.5 * t * math.log2(n_s) + t


class TestDelimiterBitBound:
    @pytest.mark.parametrize("w,t", [(1, 3), (1, 5), (2, 5), (2, 8)])
    def test_mean_delimiter_bits_within_split_cost_bound(self, w, t):
        spec = CodeSpec.from_seed(w, (1.0,) if w == 1 else (1.0, 3.5), seed=13)
        rng = random.Random(1000 + 10 * w + t)
        n_s = 1000
        l = delimiter_length(3.0, n_s)
        samples = []
        for _ in range(300):
            x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
            y = x.delete(sorted(rng.sample(range(n_s), t)))
            out, ok, tr = run_section(x, y, spec)
            samples.append(sum(m.bits for m in tr.entries if m.kind == "Delimiter"))
        bound = 2**w / (2**w - 1) * (t - 1) * l
        assert statistics.mean(samples) <= bound


_SPECS = {
    w: CodeSpec.from_seed(w, (1.0, 3.5, 1.5)[:w], seed=7) for w in (1, 2, 3)
}


def make_input(rng: random.Random, kind: str, n: int, beta: float, k: int, jitter: int):
    """X of the given kind, Y after i.i.d. deletions, and k sections tiling both.

    Each Y cut is the survivors' count before its X cut, moved by up to
    ``jitter`` bits, so a section can hold more bits in Y than in X.
    """
    if kind == "uniform":
        x = bytes(rng.getrandbits(1) for _ in range(n))
    elif kind == "biased":
        x = bytes(rng.random() < 0.15 for _ in range(n))
    elif kind == "periodic":
        pattern = bytes(rng.getrandbits(1) for _ in range(rng.randint(2, 6)))
        x = (pattern * n)[:n]
    else:
        x = bytes(n)
    keep = [i for i in range(n) if rng.random() >= beta]
    y = bytes(x[i] for i in keep)
    x_cuts = sorted(rng.sample(range(1, n), k - 1))
    y_cuts, floor = [], 0
    for cut in x_cuts:
        floor = min(max(bisect.bisect_left(keep, cut) + rng.randint(-jitter, jitter), floor), len(y))
        y_cuts.append(floor)
    return x, y, x_cuts, y_cuts


class _KeepsPayloads(Transcript):
    """A transcript that also keeps the payload of every message it takes."""

    def __init__(self):
        super().__init__()
        self.payloads: list[bytes] = []

    def extend(self, kinds, bits, payloads, section_ids):
        self.payloads += payloads
        return super().extend(kinds, bits, payloads, section_ids)


def cut_sections(x: bytes, y: bytes, x_cuts, y_cuts) -> list[tuple[int, ...]]:
    """The (x0, x1, y0, y1, t) rows of the sections that the cuts tile X and Y
    into, in order."""
    xs, ys = [0, *x_cuts, len(x)], [0, *y_cuts, len(y)]
    return [
        (xs[i], xs[i + 1], ys[i], ys[i + 1], xs[i + 1] - xs[i] - ys[i + 1] + ys[i])
        for i in range(len(xs) - 1)
    ]


def shaped_sections(rng: random.Random, shapes):
    """Random X and Y tiled by sections of the given (x length, t) shapes.

    A section with t >= 0 loses t random bits; one with t < 0 gets an
    unrelated Y that is -t bits longer than its X.
    """
    x, y, x_cuts, y_cuts = b"", b"", [], []
    for q, t in shapes:
        xs = bytes(rng.getrandbits(1) for _ in range(q))
        if t < 0:
            ys = bytes(rng.getrandbits(1) for _ in range(q - t))
        else:
            gone = set(rng.sample(range(q), t))
            ys = bytes(b for i, b in enumerate(xs) if i not in gone)
        x, y = x + xs, y + ys
        x_cuts.append(len(x))
        y_cuts.append(len(y))
    return x, y, x_cuts[:-1], y_cuts[:-1]


def walk(x: bytes, y: bytes, x_cuts, y_cuts, spec, c):
    """One walk over the sections: the transcript, the jobs, the estimate, the
    clean flags and the runs.

    The jobs, (x start, y start, q, t, width) each, are read from the walk's
    one ``syndrome_batch`` and one ``decode_batch`` call, which must agree.
    """
    calls = {}

    def reading(name):
        real = getattr(recovery, name)

        def read(buf, starts, q, t, *rest):
            widths = rest[-2]
            calls[name] = (list(starts), list(q), list(t), list(widths))
            return real(buf, starts, q, t, *rest)

        return read

    tr = _KeepsPayloads()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("syndrome_batch", "decode_batch"):
            mp.setattr(recovery, name, reading(name))
        estimate, clean, runs = recover_section(
            cut_sections(x, y, x_cuts, y_cuts), x, y, spec, c, tr
        )
    x_starts, q, t, widths = calls["syndrome_batch"]
    y_starts, *decoded = calls["decode_batch"]
    assert decoded == [q, t, widths]
    return tr, list(zip(x_starts, y_starts, q, t, widths)), estimate, clean, runs


def walk_both(x: bytes, y: bytes, x_cuts, y_cuts, spec, c) -> Counter:
    """Walk the sections with the in-place walk and with the oracle; assert they agree.

    Returns the branches the oracle took.
    """
    sections = cut_sections(x, y, x_cuts, y_cuts)
    tr, jobs, estimate, clean, runs = walk(x, y, x_cuts, y_cuts, spec, c)

    tr_oracle = _KeepsPayloads()  # the oracle records each message as it is sent
    ob, events = oracle.OracleBatch(spec, tr_oracle), Counter()
    for sid, (x0, x1, y0, y1, _) in enumerate(sections):
        oracle.recover_section(x[x0:x1], y[y0:y1], sid, c, ob, events)
    want = ob.estimates()

    # Every Module II message, payload bytes included.
    for column in ("kinds", "bits", "section_ids"):
        assert getattr(tr, column) == getattr(tr_oracle, column), column
    assert tr.payloads == tr_oracle.payloads
    assert [
        (x[x0 : x0 + q], y[y0 : y0 + q - t], q, t, width) for x0, y0, q, t, width in jobs
    ] == [(xs, ys, q, t, tr_oracle.bits[m]) for xs, ys, q, t, m in ob.jobs]
    assert bytes(estimate) == b"".join(est for est, _ in want)
    assert clean == [ok for _, ok in want]
    oracle_runs = oracle.section_runs(tr_oracle)
    assert runs == [oracle_runs[sid] for sid in range(len(sections))]
    assert tr.final_digest == tr_oracle.final_digest
    return events


class TestWalkAgainstOracle:
    @settings(max_examples=120, deadline=5000)
    @given(
        st.sampled_from(["uniform", "biased", "periodic", "zeros"]),
        st.integers(40, 1200),
        st.floats(0.0, 0.05),
        st.integers(1, 4),
        st.sampled_from([0, 0, 3]),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1.5, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_same_messages_jobs_and_estimate(self, kind, n, beta, k, jitter, w, c, seed):
        x, y, x_cuts, y_cuts = make_input(random.Random(seed), kind, n, beta, k, jitter)
        walk_both(x, y, x_cuts, y_cuts, _SPECS[w], c)

    def test_every_branch_is_compared(self, monkeypatch):
        rng = random.Random(2024)
        events = Counter()
        for kind in ("uniform", "biased", "periodic", "zeros"):
            for w in (1, 2, 3):
                for c in (1.5, 3.0):
                    x, y, x_cuts, y_cuts = make_input(rng, kind, 600, 0.05, 3, 3)
                    events += walk_both(x, y, x_cuts, y_cuts, _SPECS[w], c)
        monkeypatch.setattr(recovery, "MAX_DEPTH", 1)
        for kind in ("uniform", "periodic"):
            x, y, x_cuts, y_cuts = make_input(rng, kind, 900, 0.05, 2, 0)
            events += walk_both(x, y, x_cuts, y_cuts, _SPECS[2], 3.0)
        assert set(events) == {
            "y_longer", "edge_clip", "not_found", "false_match", "verbatim_small", "depth_cap",
            "short_delimiter",
        }, events

    def test_every_top_level_close_beside_the_walk(self):
        # w = 2, a = (1, 9): a two-deletion digest takes ceil(18 log2 q) bits,
        # which fits the 124-bit digest only up to q = 118.
        spec = CodeSpec.from_seed(2, (1.0, 9.0), seed=7)
        shapes = ((200, 0), (60, -10), (300, 1), (100, 2), (400, 2), (600, 4))
        x, y, x_cuts, y_cuts = shaped_sections(random.Random(19), shapes)
        events = walk_both(x, y, x_cuts, y_cuts, spec, 3.0)
        assert events["y_longer"] == 1

        tr, _, _, clean, _ = walk(x, y, x_cuts, y_cuts, spec, 3.0)
        sent: dict[int, list[tuple[str, int]]] = {}  # (kind, bits) per section
        for sid, kind, bits in zip(tr.section_ids, tr.kinds, tr.bits):
            sent.setdefault(sid, []).append((kind, bits))
        assert sent[0] == [("SectionCase", 2)]  # t = 0
        assert sent[1] == [("SectionCase", 2)] and not clean[1]  # Y longer than X
        assert sent[2] == [("SectionCase", 2), ("Syndrome", 9)]  # t = 1: VT
        assert sent[3] == [("SectionCase", 2), ("Syndrome", 120)]  # t = 2 within the digest
        # t = 2 past the digest at q = 400, and t > w: both split
        assert [kind for kind, _ in sent[4][:2]] == ["SectionCase", "Delimiter"]
        assert [kind for kind, _ in sent[5][:2]] == ["SectionCase", "Delimiter"]
        assert clean == [True, False, True, True, True, True]

    def test_failed_decode_marks_only_its_own_section(self, spec2, monkeypatch):
        # Sections 0 and 1 queue no job, so job and section indices differ;
        # section 3 splits into several jobs, and its last one fails.
        shapes = ((200, 0), (60, -10), (300, 1), (600, 4), (100, 2), (300, 1))
        x, y, x_cuts, y_cuts = shaped_sections(random.Random(23), shapes)
        _, jobs, estimate, clean, _ = walk(x, y, x_cuts, y_cuts, spec2, 3.0)
        exact = slice(x_cuts[0]), slice(x_cuts[1], None)  # all but Y longer than X
        assert [bytes(estimate[part]) for part in exact] == [x[part] for part in exact]
        assert clean == [True, False, True, True, True, True]
        section_of = [bisect.bisect_right(x_cuts, x0) for x0, *_ in jobs]
        assert section_of.count(3) >= 2
        failed = max(j for j, sid in enumerate(section_of) if sid == 3)
        decode_batch = recovery.decode_batch

        def one_failure(*args):
            results = decode_batch(*args)
            results[failed] = NoCodewordFound("forced")
            return results

        monkeypatch.setattr(recovery, "decode_batch", one_failure)
        _, _, got, clean, _ = walk(x, y, x_cuts, y_cuts, spec2, 3.0)
        assert clean == [True, False, True, False, True, True]
        x0, y0, q, t, _ = jobs[failed]
        assert bytes(got[x0 : x0 + q]) == y[y0 : y0 + q - t] + bytes(t)
        got[x0 : x0 + q] = estimate[x0 : x0 + q]
        assert got == estimate

    def test_search_stops_at_the_part_end(self, spec2):
        # Section 0 keeps only its first 30 bits, so its first delimiter
        # x[40:60] cannot be found in its own Y; section 1's Y starts with
        # that delimiter, where a search past the part's end would find it.
        rng = random.Random(8)
        x0 = bytes(rng.getrandbits(1) for _ in range(100))
        x1 = x0[40:60] + bytes(rng.getrandbits(1) for _ in range(100))
        assert x0[40:60] not in x0[:30]
        walk_both(x0 + x1, x0[:30] + x1, [100], [30], spec2, 3.0)


class TestWidthTable:
    def test_families_interleaved_give_the_columns_of_an_empty_table(self):
        specs = [
            CodeSpec.from_seed(2, (1.0, 3.5), seed=3),
            CodeSpec.from_seed(2, (1.0, 3.5), seed=4),
            CodeSpec.from_seed(2, (1.0, 9.0), seed=3),
            CodeSpec.from_seed(1, (1.0,), seed=3),
        ]
        rng = random.Random(31)
        inputs = [make_input(rng, "uniform", 3000, 0.02, 4, 0) for _ in specs]

        def columns(spec, inp):
            tr, jobs, estimate, clean, runs = walk(*inp, spec, 3.0)
            return tr.kinds, tr.bits, tr.payloads, jobs, bytes(estimate), clean, runs

        recovery._width_table.cache_clear()
        interleaved = [columns(spec, inp) for spec, inp in zip(specs, inputs)]
        for spec, inp, got in zip(specs, inputs, interleaved):
            recovery._width_table.cache_clear()
            assert columns(spec, inp) == got

    def test_table_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(recovery, "_WIDTHS_MAX", 8)
        spec = CodeSpec.from_seed(2, (1.0, 3.25), seed=5)  # a family no other test walks
        recovery._width_table.cache_clear()
        x, y, x_cuts, y_cuts = make_input(random.Random(41), "uniform", 4000, 0.02, 8, 0)
        walk_both(x, y, x_cuts, y_cuts, spec, 3.0)
        _, jobs, _, _, _ = walk(x, y, x_cuts, y_cuts, spec, 3.0)
        walked = {(q, t) for _, _, q, t, _ in jobs}
        assert len(walked) > 8
        assert 0 < len(recovery._width_table(spec.w, spec.a)) <= 8
