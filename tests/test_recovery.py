import math
import random
import statistics

import pytest

from delsync.codes import CodeSpec
from delsync.core import BitSeq, Transcript, random_bits, substream
from delsync.matching import SectionPair
from delsync.recovery import (
    CaseCode,
    RecoveryBatch,
    RecoveryTask,
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
    task = RecoveryTask(SectionPair(0, (0, len(x)), (0, len(y)), len(x) - len(y)), x, y, 0, c)
    batch = RecoveryBatch(spec, tr)
    recover_section(task, batch)
    [(out, ok)] = batch.run()
    return out, ok, tr


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
        tr = Transcript()
        task = RecoveryTask(SectionPair(0, (0, 300), (0, 299), 1), x, x.delete([113]), 0, 3.0)
        batch = RecoveryBatch(spec2, tr)
        recover_section(task, batch)
        [(out, ok)] = batch.run()
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
