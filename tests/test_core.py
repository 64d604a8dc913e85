import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsync.core import (
    _FNV_BLOCK,
    _FNV_FOLD_MIN,
    _FNV_OFFSET,
    KINDS,
    _fnv_states01,
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    Transcript,
    apply_deletion_channel,
    fnv1a64,
    pivot_length,
    random_bits,
    substream,
    window_keys,
    window_view,
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["s", "c", "a"])
    def test_rejects_non_finite_parameters(self, field, value):
        # NaN passes every <= and < check, and inf overflows round(s / beta)
        args = {"s": 2.0, "c": 3.0, "a": (1.0, 3.5)}
        args[field] = (1.0, value) if field == "a" else value
        with pytest.raises(InvalidConfig, match="finite"):
            ProtocolParams(n=5000, beta=0.01, w=2, **args)
        if field == "s":
            with pytest.raises(InvalidConfig):
                pivot_length(value, 0.01)

    def test_a_max(self):
        p = ProtocolParams(n=10_000, beta=0.01, s=2, w=2, a=(1, 3.5))
        assert p.a_max == 3.5


def _bit_bytes(n: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8).tobytes()


# Lengths within a byte of the fold's first two block edges, every offset 0-7 on each side.
_edge_lengths = st.sampled_from([_FNV_BLOCK, 2 * _FNV_BLOCK]).flatmap(
    lambda edge: st.integers(edge - 8, edge + 8)
)


class TestFnvFold:
    @settings(max_examples=100, deadline=5000)
    @given(
        st.integers(0, 300) | _edge_lengths,
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "zeros", "ones"]),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    def test_states_at_every_offset_match_the_byte_loop(self, n, seed, kind, h, data):
        bits = {"uniform": _bit_bytes(n, seed), "zeros": bytes(n), "ones": b"\x01" * n}[kind]
        # an end at every offset 0-7 within a byte, at the block edges, and anywhere
        ends = [data.draw(st.integers(0, (n - r) // 8)) * 8 + r for r in range(8) if r <= n]
        ends += [e for e in (_FNV_BLOCK - 1, _FNV_BLOCK, _FNV_BLOCK + 1) if e <= n]
        ends += data.draw(st.lists(st.integers(0, n), max_size=6)) + [0, n]
        ends.sort()
        want, state, at = [], h, 0
        for end in ends:
            state = fnv_loop(bits[at:end], state)
            want.append(state)
            at = end
        got = _fnv_states01(np.frombuffer(bits, dtype=np.uint8), h, np.array(ends))
        assert got.tolist() == want


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _read_be(bits: bytes, start: int, width: int) -> int:
    """The big-endian value of bits[start : start + width], 0 past the end."""
    return int(bits[start : start + width].ljust(width, b"\x00").translate(_TO_DIGITS), 2)


class TestWindowReads:
    """The window view and the key reader are direct big-endian reads of the 0/1 bytes."""

    @settings(max_examples=60, deadline=5000)
    @given(
        st.integers(0, 24) | st.integers(25, 200),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "zeros", "ones"]),
    )
    def test_every_start_of_every_width(self, n, seed, kind):
        bits = {"uniform": _bit_bytes(n, seed), "zeros": bytes(n), "ones": b"\x01" * n}[kind]
        view = window_view(bits)
        assert view.dtype == np.uint8
        assert view.tolist() == [_read_be(bits, i, 8) for i in range(n)]
        for width in range(1, 65):
            # Every start whose bytes all lie in the view: those whose window
            # fits, then those whose last byte reads past the end of bits.
            starts = range(max(n - 8 * ((width - 1) // 8), 0))
            want = [_read_be(bits, p, width) for p in starts]
            for at in (np.array(starts, dtype=np.int64), slice(0, len(starts))):
                keys = window_keys(view, at, width)
                assert keys.dtype.itemsize * 8 >= width
                assert keys.tolist() == want


class TestTranscript:
    def test_totals_accumulate(self):
        tr = Transcript()
        tr.record("Pivots", 25, b"\x01\x00")
        assert tr.total_bits("I") == 25
        tr.record("Syndrome", 3, b"\x01")
        tr.record("CaseCode", 4, b"\x00")
        assert tr.total_bits("II") == 7
        assert tr.total_bits() == 32

    def test_rejects_negative_bits(self):
        tr = Transcript()
        with pytest.raises(ValueError):
            tr.record("Pivots", -1)

    def test_rejects_bad_vocabulary(self):
        tr = Transcript()
        with pytest.raises(ValueError):
            tr.record("Nonsense", 1)

    def test_extend_checks_every_message_before_appending(self):
        tr = Transcript()
        good = [["Delimiter", "CaseCode"], [3, 4], [b"\x01", b"\x00"], [0, 0]]
        for column, bad in ((0, ["Delimiter", "Nonsense"]), (1, [3, -1]), (3, [0])):
            with pytest.raises(ValueError):
                tr.extend(*good[:column], bad, *good[column + 1 :])
        assert tr.kinds == [] and tr.total_bits() == 0
        assert tr.extend(*good) == 0
        assert tr.extend(*good) == 2
        assert tr.total_bits("II") == 14 and tr.section_ids == [0, 0, 0, 0]

    def test_extend_rejects_two_modules(self):
        tr = Transcript()
        with pytest.raises(ValueError, match="modules"):
            tr.extend(["Syndrome", "Verify"], [3, 64], [b"\x01", b"\x02"], [0, None])
        assert tr.kinds == [] and tr.total_bits() == 0 and tr.final_digest == _FNV_OFFSET

    def test_extend_rejects_a_missing_payload(self):
        tr = Transcript()
        with pytest.raises(ValueError, match="no payload"):
            tr.extend(["Delimiter", "Syndrome"], [3, 2], [b"\x01", None], [0, 0])
        assert tr.kinds == [] and tr.total_bits() == 0 and tr.final_digest == _FNV_OFFSET

    def test_jsonl_direction_and_module_follow_the_kind(self):
        import json

        tr = Transcript()
        for kind in KINDS:
            tr.record(kind, 1, b"\x01")
        lines = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        assert [(m["kind"], m["mod"], m["dir"]) for m in lines] == [
            (kind, *KINDS[kind]) for kind in KINDS
        ]
        got = {m["kind"]: (m["dir"], m["mod"]) for m in lines}
        assert got["PivotFeedback"] == ("B2A", "I") and got["ECBits"] == ("A2B", "III")
        assert got["CaseCode"] == ("B2A", "II") and got["Verify"] == ("A2B", "III")

    def test_digest_chain_replays_identically(self):
        def build():
            tr = Transcript()
            tr.record("Pivots", 25, b"\x01\x00\x01")
            tr.record("PivotFeedback", 1, b"\x01")
            return tr

        assert build().final_digest == build().final_digest
        assert build().to_jsonl() == build().to_jsonl()

    def test_digest_chain_order_sensitive(self):
        tr1 = Transcript()
        tr1.record("Pivots", 1, b"\x00")
        tr1.record("Pivots", 1, b"\x01")
        tr2 = Transcript()
        tr2.record("Pivots", 1, b"\x01")
        tr2.record("Pivots", 1, b"\x00")
        assert tr1.final_digest != tr2.final_digest

    def test_jsonl_schema(self):
        import json

        tr = Transcript()
        tr.record("Delimiter", 20, b"\x01", section_id=3)
        line = json.loads(tr.to_jsonl().splitlines()[0])
        assert set(line) == {"i", "dir", "mod", "kind", "bits", "sec", "digest"}
        assert line["dir"] == "A2B" and line["mod"] == "II" and line["sec"] == 3
        assert len(line["digest"]) == 16

    def test_rejected_extend_changes_nothing(self):
        tr = Transcript()
        tr.record("Pivots", 25, _bit_bytes(_FNV_FOLD_MIN, 5))
        tr.extend(["Delimiter", "CaseCode"], [3, 4], [b"\x01", b"\x00"], [0, 0])
        before = (list(tr.kinds), list(tr.bits), list(tr.section_ids), tr.final_digest)
        totals = [tr.total_bits(m) for m in ("I", "II", "III")]
        jsonl = tr.to_jsonl()
        for columns in (
            (["Delimiter", "Nonsense"], [3, 4], [b"\x01", b"\x00"], [1, 1]),  # bad kind
            (["Syndrome", "Verify"], [3, 64], [b"\x01", b"\x02"], [1, None]),  # two modules
            (["Delimiter", "Syndrome"], [3, 2], [b"\x01", None], [1, 1]),  # no payload
            (["Delimiter", "Syndrome"], [3, -2], [b"\x01", b"\x00"], [1, 1]),  # negative bits
            (["Delimiter", "Syndrome"], [3, 2], [b"\x01", b"\x00"], [1]),  # short column
        ):
            with pytest.raises(ValueError):
                tr.extend(*columns)
            assert (tr.kinds, tr.bits, tr.section_ids, tr.final_digest) == before
            assert [tr.total_bits(m) for m in ("I", "II", "III")] == totals
            assert tr.to_jsonl() == jsonl

    @settings(max_examples=200, deadline=5000)
    @given(
        st.lists(
            st.one_of(
                st.just(b""),
                st.binary(max_size=40).map(lambda b: bytes(v & 1 for v in b)),
                st.builds(_bit_bytes, _edge_lengths, st.integers(0, 2**32 - 1)),
                st.binary(max_size=9),  # a Verify digest or ECBits positions: not 0/1
            ),
            max_size=12,
        ),
        st.lists(st.integers(0, 12), max_size=3),
    )
    def test_one_pass_digests_match_per_message_chain(self, payloads, cuts):
        # The drawn messages, split into extend calls at the drawn points,
        # then fixed batches on either side of the fold's threshold.
        edges = sorted({0, len(payloads), *(c for c in cuts if c <= len(payloads))})
        batches = [payloads[a:b] for a, b in zip(edges, edges[1:])]
        half = _FNV_FOLD_MIN // 2
        batches += [
            [_bit_bytes(_FNV_FOLD_MIN, 1), b"\x02\x00\x01", b"", b"\x01\x00"],  # 0/1 and other bytes
            [_bit_bytes(_FNV_FOLD_MIN, 2)],  # one 0/1 payload at the threshold
            [_bit_bytes(half, 3), b"", _bit_bytes(half, 4)],  # short 0/1 payloads that reach it
            [_bit_bytes(_FNV_FOLD_MIN - 1, 5)],  # one byte short of it
        ]
        tr = Transcript()
        for j, batch in enumerate(batches):
            kind = "Syndrome" if j % 2 else "Verify"
            bits = [8 * len(p) for p in batch]
            first = tr.extend([kind] * len(batch), bits, batch, [j] * len(batch))
            assert first == len(tr.kinds) - len(batch)
        h, want = _FNV_OFFSET, []
        for payload in (p for batch in batches for p in batch):
            h = fnv_loop(payload, h)
            want.append(h)
        assert [m.payload_digest for m in tr.entries] == want
        assert tr.final_digest == want[-1]

    def test_fnv_reference_value(self):
        # FNV-1a 64-bit of empty input is the offset basis
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
