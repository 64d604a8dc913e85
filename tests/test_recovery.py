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

from delsync.codes import CodeSpec
from delsync.core import BitSeq, Transcript, random_bits, substream
from delsync.matching import SectionPair
from delsync.recovery import (
    CaseCode,
    RecoveryBatch,
    _placements,
    case_width,
    delimiter_length,
    locate_delimiter,
    recover_section,
    report_section_case,
)


@pytest.fixture(scope="module")
def spec2():
    return CodeSpec.from_seed(2, (1.0, 3.5), seed=7)


@pytest.fixture(scope="module")
def spec1():
    return CodeSpec.from_seed(1, (1.0,), seed=7)


def run_section(x, y, spec, c=3.0):
    tr = Transcript()
    batch = RecoveryBatch(x.to_bytes01(), y.to_bytes01(), spec, c, tr)
    recover_section(SectionPair(0, (0, len(x)), (0, len(y)), len(x) - len(y)), batch)
    estimate, [ok] = batch.run()
    return BitSeq(bytes(estimate)), ok, tr


class TestCaseCodes:
    def test_section_case_widths(self):
        assert report_section_case(0, 2) == BitSeq.from_int(0, 2)
        assert len(report_section_case(0, 2)) == 2
        assert report_section_case(2, 2) == BitSeq.from_int(2, 2)
        assert report_section_case(9, 2) == BitSeq.from_int(3, 2)  # more-than-w

    def test_case_width_grows_with_w(self):
        assert case_width(1) == 2
        assert case_width(2) == 2
        assert case_width(6) == 3

    def test_pair_encoding_width(self):
        assert len(CaseCode(1, 2).encode(2)) == 4
        assert len(CaseCode(0, 0, not_found=True).encode(2)) == 4

    def test_not_found_reserves_zero_pattern(self):
        assert CaseCode(0, 0, not_found=True).encode(2).to_int() == 0
        # honest (0,0) cannot occur: splits happen only when t > w >= 1
        assert CaseCode(3, 0).encode(2).to_int() == 0b1100

    def test_rejects_state_out_of_range(self):
        with pytest.raises(ValueError):
            CaseCode(4, 0).encode(2)
        with pytest.raises(ValueError):
            report_section_case(-1, 2)


class TestDelimiterPlacement:
    def test_center_then_shifts(self):
        # a 100-bit part, l = 20: the center, then right and left by l
        assert _placements(100, 20)[:3] == (40, 60, 20)

    def test_exhaustion_on_short_part(self):
        assert _placements(10, 20) == ()

    def test_all_placements_distinct_and_in_bounds(self):
        starts = _placements(95, 20)
        assert all(0 <= start <= 75 for start in starts)
        assert len(set(starts)) == len(starts)
        assert len(starts) >= 95 // 20

    def test_delimiter_length_formula(self):
        assert delimiter_length(3.0, 1000) == math.ceil(3 * math.log2(1000))
        assert delimiter_length(3.0, 300) == 25


class TestLocateDelimiter:
    def test_exact_alignment_no_deletions(self):
        x = BitSeq("1011001110100101")
        split = _placements(len(x), 6)[0] + 6
        delim = x[split - 6 : split]
        p = locate_delimiter(x, delim, split)
        assert p is not None and p + 6 == split

    def test_not_found_when_delimiter_bit_deleted(self):
        rng = random.Random(4)
        x = BitSeq([rng.randint(0, 1) for _ in range(200)])
        start = _placements(len(x), 21)[0]
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


class TestRecoverSection:
    def test_batch_runs_once(self, spec2):
        x = random_bits(300, substream(21, "source"))
        y = x.delete([113])
        tr = Transcript()
        batch = RecoveryBatch(x.to_bytes01(), y.to_bytes01(), spec2, 3.0, tr)
        recover_section(SectionPair(0, (0, 300), (0, 299), 1), batch)
        estimate, [ok] = batch.run()
        out = BitSeq(bytes(estimate))
        assert out == x and ok
        with pytest.raises(RuntimeError, match="runs once"):
            batch.run()

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


def walk_both(x: bytes, y: bytes, x_cuts, y_cuts, spec, c) -> Counter:
    """Walk the sections with the in-place walk and with the oracle; assert they agree.

    Returns the branches the oracle took.
    """
    xs, ys = [0, *x_cuts, len(x)], [0, *y_cuts, len(y)]
    sections = [
        SectionPair(i, (xs[i], xs[i + 1]), (ys[i], ys[i + 1]), xs[i + 1] - xs[i] - ys[i + 1] + ys[i])
        for i in range(len(xs) - 1)
    ]
    tr = Transcript()
    batch = RecoveryBatch(x, y, spec, c, tr)
    for sec in sections:
        recover_section(sec, batch)
    estimate, clean = batch.run()

    tr_oracle = Transcript()
    ob, events = oracle.OracleBatch(spec, tr_oracle), Counter()
    for sec in sections:
        (x0, x1), (y0, y1) = sec.x_span, sec.y_span
        oracle.recover_section(x[x0:x1], y[y0:y1], sec.section_id, c, ob, events)
    want = ob.run()

    # Every Module II message, payload bytes included (read before the
    # digests are settled, which drops them).
    for column in ("directions", "modules", "kinds", "bits", "section_ids", "_payloads"):
        assert getattr(tr, column) == getattr(tr_oracle, column), column
    jobs = [
        (x[x0 : x0 + q], y[y0 : y0 + q - t], q, t, m)
        for x0, y0, q, t, m in zip(*[iter(batch.jobs)] * 5)
    ]
    assert jobs == ob.jobs
    assert bytes(estimate) == b"".join(est for est, _ in want)
    assert clean == [ok for _, ok in want]
    runs = oracle.section_runs(tr_oracle)
    assert batch.runs == [runs[sec.section_id] for sec in sections]
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
            "y_longer", "edge_clip", "not_found", "false_match", "verbatim_small", "depth_cap"
        }, events

    def test_search_stops_at_the_part_end(self, spec2):
        # Section 0 keeps only its first 30 bits, so its first delimiter
        # x[40:60] cannot be found in its own Y; section 1's Y starts with
        # that delimiter, where a search past the part's end would find it.
        rng = random.Random(8)
        x0 = bytes(rng.getrandbits(1) for _ in range(100))
        x1 = x0[40:60] + bytes(rng.getrandbits(1) for _ in range(100))
        assert x0[40:60] not in x0[:30]
        walk_both(x0 + x1, x0[:30] + x1, [100], [30], spec2, 3.0)
