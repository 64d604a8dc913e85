import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsync.core import (
    _FNV_BLOCK,
    _FNV_OFFSET,
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    Transcript,
    apply_deletion_channel,
    fnv1a64,
    pivot_length,
    random_bits,
    substream,
)
from codes_oracle import bits_to_int, int_to_bits
from codes_oracle import fnv1a64 as fnv_loop


class TestBitSeq:
    def test_construction_equivalences(self):
        assert BitSeq("10110") == BitSeq([1, 0, 1, 1, 0]) == BitSeq(b"\x01\x00\x01\x01\x00")
        assert BitSeq(np.array([1, 0, 1], dtype=np.uint8)) == BitSeq("101")

    def test_empty_is_valid(self):
        assert len(BitSeq()) == 0
        assert BitSeq().to01() == ""

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitSeq([0, 2])
        with pytest.raises(ValueError):
            BitSeq(b"\x05")
        with pytest.raises(ValueError):
            BitSeq(bytes(100_000) + b"\x02")
        with pytest.raises(ValueError):
            BitSeq("012")

    def test_slicing_lengths(self):
        x = BitSeq("10110")
        for i in range(len(x) + 1):
            for j in range(i, len(x) + 1):
                assert len(x[i:j]) == j - i
        assert x[1:4] == BitSeq("011")

    def test_value_equality_and_hash(self):
        assert BitSeq("101") == BitSeq("101")
        assert BitSeq("101") != BitSeq("100")
        assert hash(BitSeq("101")) == hash(BitSeq("101"))

    def test_delete_insert_roundtrip(self):
        x = BitSeq("110010")
        assert x.delete([1, 4]).to01() == "1000"
        assert BitSeq("1001").insert(2, 1).to01() == "10101"

    def test_int_roundtrip(self):
        assert BitSeq.from_int(5, 4).to01() == "0101"
        assert BitSeq.from_int(5, 4).to_int() == 5
        with pytest.raises(ValueError):
            BitSeq.from_int(16, 4)

    def test_int_conversions_match_bit_loops(self):
        rng = np.random.default_rng(4)
        for width in range(0, 131):
            top = (1 << width) - 1
            for value in {0, top, top >> 1, int.from_bytes(rng.bytes(17), "big") & top}:
                seq = BitSeq.from_int(value, width)
                assert seq.to_bytes01() == int_to_bits(value, width)
                assert seq.to_int() == bits_to_int(seq.to_bytes01()) == value
            with pytest.raises(ValueError):
                BitSeq.from_int(top + 1, width)

    def test_find_overlapping(self):
        y = BitSeq("0000")
        assert y.find(BitSeq("00")) == 0
        assert y.find(BitSeq("00"), 1) == 1
        assert y.find(BitSeq("01")) == -1


class TestDeletionChannel:
    def test_zero_rate_identity(self):
        x = BitSeq("10110")
        out = apply_deletion_channel(x, 0.0, substream(1, "channel"))
        assert out.y == x and out.deleted_positions == ()

    def test_total_deletion(self):
        x = BitSeq("10110")
        out = apply_deletion_channel(x, 1.0, substream(1, "channel"))
        assert len(out.y) == 0
        assert out.deleted_positions == (0, 1, 2, 3, 4)

    def test_channel_outcome_invariant_exhaustive_small(self):
        # deleting deleted_positions from x reproduces y, for all x up to 10 bits
        for m in range(1, 11):
            for bits in itertools.product([0, 1], repeat=m):
                x = BitSeq(bits)
                for beta in (0.0, 0.3, 1.0):
                    out = apply_deletion_channel(x, beta, substream(m, "channel"))
                    assert x.delete(out.deleted_positions) == out.y
                    assert len(out.y) == len(x) - len(out.deleted_positions)

    def test_golden_deletion_count_seed7(self):
        x = random_bits(1000, substream(7, "source"))
        out = apply_deletion_channel(x, 0.01, substream(7, "channel"))
        # frozen from the first run; E[|deleted|] = 10
        assert len(out.deleted_positions) == 8

    def test_mean_deletion_count_over_seeds(self):
        x = random_bits(1000, substream(7, "source"))
        total = 0
        trials = 10_000
        for seed in range(trials):
            rng = substream(seed, "channel")
            total += len(apply_deletion_channel(x, 0.01, rng).deleted_positions)
        mean = total / trials
        # 3 sigma of the sample mean around n*beta = 10
        sigma = (1000 * 0.01 * 0.99) ** 0.5 / trials**0.5
        assert abs(mean - 10.0) <= 3 * sigma

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_channel_invariant_property(self, seed, beta, n):
        x = random_bits(n, substream(seed, "source"))
        out = apply_deletion_channel(x, beta, substream(seed, "channel"))
        assert x.delete(out.deleted_positions) == out.y

    def test_determinism(self):
        x = random_bits(500, substream(3, "source"))
        a = apply_deletion_channel(x, 0.1, substream(3, "channel"))
        b = apply_deletion_channel(x, 0.1, substream(3, "channel"))
        assert a.y == b.y and a.deleted_positions == b.deleted_positions


class TestSubstreams:
    def test_labels_are_independent(self):
        a = substream(42, "channel").integers(0, 2**31, 8)
        b = substream(42, "source").integers(0, 2**31, 8)
        assert list(a) != list(b)

    def test_same_label_reproduces(self):
        a = substream(42, "channel").integers(0, 2**31, 8)
        b = substream(42, "channel").integers(0, 2**31, 8)
        assert list(a) == list(b)


class TestProtocolParams:
    def test_pivot_length_examples(self):
        assert pivot_length(1, 0.01) == 25
        assert pivot_length(2, 0.001) == 34
        assert pivot_length(1, 0.5) == 13

    def test_seg_len_rounding(self):
        p = ProtocolParams(n=10_000, beta=0.01, s=2, a=(1, 3.5))
        assert p.seg_len == 200
        assert p.piv_len == 28

    def test_rejects_bad_beta(self):
        with pytest.raises(InvalidConfig):
            ProtocolParams(n=1000, beta=0.6, s=1, w=1, a=(1,))
        with pytest.raises(InvalidConfig):
            ProtocolParams(n=1000, beta=0.0, s=1, w=1, a=(1,))

    def test_rejects_mismatched_efficiencies(self):
        with pytest.raises(InvalidConfig):
            ProtocolParams(n=1000, beta=0.01, s=1, w=2, a=(1.0,))
        with pytest.raises(InvalidConfig):
            ProtocolParams(n=1000, beta=0.01, s=1, w=1, a=(0.5,))

    def test_rejects_pivot_not_shorter_than_segment(self):
        # beta=0.5 -> L_S = 2, L_P = 13
        with pytest.raises(InvalidConfig):
            ProtocolParams(n=1000, beta=0.5, s=1, w=1, a=(1,))

    def test_a_max(self):
        p = ProtocolParams(n=10_000, beta=0.01, s=2, w=2, a=(1, 3.5))
        assert p.a_max == 3.5


class TestTranscript:
    def test_totals_accumulate(self):
        tr = Transcript()
        tr.record("A2B", "I", "Pivots", 25, b"\x01\x00")
        assert tr.total_bits("I") == 25
        tr.record("A2B", "II", "Syndrome", 3, b"\x01")
        tr.record("B2A", "II", "CaseCode", 4, b"\x00")
        assert tr.total_bits("II") == 7
        assert tr.total_bits() == 32

    def test_rejects_negative_bits(self):
        tr = Transcript()
        with pytest.raises(ValueError):
            tr.record("A2B", "I", "Pivots", -1)

    def test_rejects_bad_vocabulary(self):
        tr = Transcript()
        with pytest.raises(ValueError):
            tr.record("AB", "I", "Pivots", 1)
        with pytest.raises(ValueError):
            tr.record("A2B", "IV", "Pivots", 1)
        with pytest.raises(ValueError):
            tr.record("A2B", "I", "Nonsense", 1)

    def test_extend_checks_every_message_before_appending(self):
        tr = Transcript()
        good = [["A2B", "B2A"], ["Delimiter", "CaseCode"], [3, 4], [b"\x01", None], [0, 0]]
        for column, bad in ((0, ["A2B", "AB"]), (1, ["Delimiter", "Nonsense"]), (2, [3, -1]),
                            (4, [0])):
            with pytest.raises(ValueError):
                tr.extend("II", *good[:column], bad, *good[column + 1 :])
        with pytest.raises(ValueError):
            tr.extend("IV", *good)
        assert tr.kinds == [] and tr.total_bits() == 0
        assert tr.extend("II", *good) == 0
        assert tr.extend("II", *good) == 2
        assert tr.total_bits("II") == 14 and tr.section_ids == [0, 0, 0, 0]

    def test_fill_many_at_once(self):
        def pending():
            tr = Transcript()
            tr.extend("II", ["A2B"] * 3, ["Syndrome"] * 3, [2, 1, 2], [None, b"\x01", None], [0] * 3)
            return tr

        for indices in ([0, 1], [2, 2], [0, 3]):
            with pytest.raises(ValueError, match="no pending payload"):
                pending().fill(indices, [b"\x00\x00"] * 2)
        tr, chained = pending(), Transcript()
        tr.fill([2, 0], [b"\x01\x01", b"\x00\x01"])
        for payload in (b"\x00\x01", b"\x01", b"\x01\x01"):
            chained.record("A2B", "II", "Syndrome", len(payload), payload, 0)
        assert tr.final_digest == chained.final_digest

    def test_digest_chain_replays_identically(self):
        def build():
            tr = Transcript()
            tr.record("A2B", "I", "Pivots", 25, b"\x01\x00\x01")
            tr.record("B2A", "I", "PivotFeedback", 1, b"\x01")
            return tr

        assert build().final_digest == build().final_digest
        assert build().to_jsonl() == build().to_jsonl()

    def test_digest_chain_order_sensitive(self):
        tr1 = Transcript()
        tr1.record("A2B", "I", "Pivots", 1, b"\x00")
        tr1.record("A2B", "I", "Pivots", 1, b"\x01")
        tr2 = Transcript()
        tr2.record("A2B", "I", "Pivots", 1, b"\x01")
        tr2.record("A2B", "I", "Pivots", 1, b"\x00")
        assert tr1.final_digest != tr2.final_digest

    def test_jsonl_schema(self):
        import json

        tr = Transcript()
        tr.record("A2B", "II", "Delimiter", 20, b"\x01", section_id=3)
        line = json.loads(tr.to_jsonl().splitlines()[0])
        assert set(line) == {"i", "dir", "mod", "kind", "bits", "sec", "digest"}
        assert line["dir"] == "A2B" and line["mod"] == "II" and line["sec"] == 3
        assert len(line["digest"]) == 16

    @settings(max_examples=200, deadline=5000)
    @given(
        st.lists(
            st.one_of(
                st.just(b""),
                st.binary(max_size=40).map(lambda b: bytes(v & 1 for v in b)),
                st.sampled_from([_FNV_BLOCK - 1, _FNV_BLOCK, _FNV_BLOCK + 1, 2 * _FNV_BLOCK - 5])
                .flatmap(lambda n: st.binary(min_size=n, max_size=n))
                .map(lambda b: bytes(v & 1 for v in b)),
                st.binary(max_size=9),  # a Verify digest or ECBits positions: not 0/1
            ),
            max_size=12,
        ),
        st.lists(st.integers(0, 12), max_size=3),
    )
    def test_one_pass_digests_match_per_message_chain(self, payloads, settle_at):
        tr = Transcript()
        for i, payload in enumerate(payloads):
            if i in settle_at:
                tr.settle()  # a later settle continues the chain
            if i % 3 == 2:  # recorded pending, filled in later
                tr.fill([tr.record("A2B", "II", "Syndrome", len(payload), None)], [payload])
            else:
                tr.record("A2B", "III", "Verify", 8 * len(payload), payload)
        h, want = _FNV_OFFSET, []
        for payload in payloads:
            h = fnv_loop(payload, h)
            want.append(h)
        assert [m.payload_digest for m in tr.entries] == want
        assert tr.final_digest == (want[-1] if want else _FNV_OFFSET)

    def test_pending_payload_blocks_digests(self):
        tr = Transcript()
        i = tr.record("A2B", "II", "Syndrome", 3, None)
        with pytest.raises(ValueError):
            tr.final_digest
        tr.fill([i], [b"\x01\x00\x01"])
        assert tr.final_digest == fnv_loop(b"\x01\x00\x01")
        with pytest.raises(ValueError):
            tr.fill([i], [b"\x00"])  # its digest is already settled

    def test_fill_past_the_end_is_a_value_error(self):
        tr = Transcript()
        tr.record("A2B", "II", "Syndrome", 3, None)
        for index in (1, 5):
            with pytest.raises(ValueError, match="no pending payload"):
                tr.fill([index], [b""])

    def test_fnv_reference_value(self):
        # FNV-1a 64-bit of empty input is the offset basis
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
