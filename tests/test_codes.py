import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsync.codes import (
    AmbiguousDecode,
    CodeSpec,
    NoCodewordFound,
    Syndrome,
    enumerate_supersequences,
    hash_syndrome,
    make_syndrome,
    multi_decode,
    vt_decode,
    vt_syndrome,
)
from delsync.core import BitSeq


def brute_force_vt_decode(y, syndrome, q):
    """Independent oracle: scan every length-q supersequence of y."""
    hits = [z for z in enumerate_supersequences(y, q - len(y)) if vt_syndrome(z) == syndrome]
    assert len(hits) <= 1
    if not hits:
        raise NoCodewordFound
    return hits[0]


@pytest.fixture(scope="module")
def spec2():
    return CodeSpec.from_seed(2, (1.0, 3.5), seed=11)


class TestVTSyndrome:
    def test_all_zero(self):
        assert vt_syndrome(BitSeq("00000")) == 0

    def test_direct_values(self):
        assert vt_syndrome(BitSeq("10010")) == 5  # 1 + 4 mod 6
        assert vt_syndrome(BitSeq("111")) == 2  # 6 mod 4
        assert vt_syndrome(BitSeq()) == 0


class TestVTDecode:
    def test_zero_deletion_passthrough(self):
        y = BitSeq("10101")
        assert vt_decode(y, vt_syndrome(y), 5) == y

    def test_zero_deletion_wrong_syndrome(self):
        y = BitSeq("10101")
        with pytest.raises(NoCodewordFound):
            vt_decode(y, (vt_syndrome(y) + 1) % 6, 5)

    def test_single_case(self):
        assert vt_decode(BitSeq("1001"), 3, 5) == BitSeq("10101")

    def test_exhaustive_against_all_deletion_positions(self):
        for m in range(1, 13):
            for bits in itertools.product([0, 1], repeat=m):
                x = BitSeq(bits)
                syn = vt_syndrome(x)
                for p in range(m):
                    y = x.delete([p])
                    assert vt_decode(y, syn, m) == x

    def test_uniqueness_of_codeword_small(self):
        # exactly one length-|x| supersequence of the deleted word matches
        rng = random.Random(0)
        for _ in range(200):
            m = rng.randint(2, 10)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            y = x.delete([rng.randrange(m)])
            hits = [
                z
                for z in enumerate_supersequences(y, 1)
                if vt_syndrome(z) == vt_syndrome(x)
            ]
            assert hits == [x]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, bits, data):
        x = BitSeq(bits)
        p = data.draw(st.integers(0, len(x) - 1))
        y = x.delete([p])
        assert vt_decode(y, vt_syndrome(x), len(x)) == x

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            vt_decode(BitSeq("10"), 0, 5)


class TestSupersequences:
    def test_zero_insertions(self):
        assert enumerate_supersequences(BitSeq("01"), 0) == {BitSeq("01")}

    def test_single_insertion_explicit(self):
        got = {z.to01() for z in enumerate_supersequences(BitSeq("01"), 1)}
        assert got == {"001", "010", "011", "101"}

    def test_count_law_exhaustive(self):
        # |supersequences(y, 1)| = |y| + 2 for every binary y up to length 12
        for m in range(0, 13):
            for bits in itertools.product([0, 1], repeat=min(m, 12)):
                if len(bits) != m:
                    break
                y = BitSeq(bits)
                assert len(enumerate_supersequences(y, 1)) == m + 2
            if m > 12:
                break


class TestHashSyndrome:
    def test_redundancy_exact_lengths(self, spec2):
        assert len(hash_syndrome(BitSeq([1] * 256), 2, spec2)) == 56  # ceil(2*3.5*8)
        spec1 = CodeSpec.from_seed(1, (1.0,), seed=11)
        assert len(hash_syndrome(BitSeq([0, 1] * 16), 1, spec1)) == 5  # ceil(log2 32)

    def test_redundancy_at_least_lower_bound(self, spec2):
        for q in (2, 3, 17, 100, 4096):
            for t in (1, 2):
                assert spec2.redundancy(t, q) >= math.ceil(t * math.log2(q))

    def test_determinism(self, spec2):
        x = BitSeq([random.Random(5).randint(0, 1) for _ in range(100)])
        assert hash_syndrome(x, 2, spec2) == hash_syndrome(x, 2, spec2)

    def test_key_dependence(self):
        a = CodeSpec.from_seed(2, (1.0, 3.5), seed=1)
        b = CodeSpec.from_seed(2, (1.0, 3.5), seed=2)
        x = BitSeq([1, 0] * 50)
        assert hash_syndrome(x, 2, a) != hash_syndrome(x, 2, b)

    def test_rejects_oversided_redundancy(self):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=1)
        with pytest.raises(ValueError):
            spec.redundancy(2, 2**20)


class TestMultiDecode:
    def test_zero_deletions_identity(self, spec2):
        x = BitSeq("110100")
        assert multi_decode(x, 0, None, 6, spec2) == x

    def test_two_deletion_roundtrip_small_exhaustive(self, spec2):
        # every x up to length 9, every 2-deletion pattern, via the fast decoder
        for m in range(2, 10):
            for bits in itertools.product([0, 1], repeat=m):
                x = BitSeq(bits)
                syn = make_syndrome(x, 2, spec2)
                for pair in itertools.combinations(range(m), 2):
                    y = x.delete(pair)
                    assert multi_decode(y, 2, syn, m, spec2) == x

    def test_single_deletion_hash_route_all_positions(self):
        # a t=1 digest built directly (sessions always send VT) decodes by the
        # supersequence walk, given an efficiency that provisions the digest
        # above the q+2 candidate count (a_1 = 1 meets the lower bound only
        # through VT's structure)
        spec = CodeSpec.from_seed(2, (3.5, 3.5), seed=11)
        rng = random.Random(31)
        for m in (16, 33, 64):
            for _ in range(5):
                x = BitSeq([rng.randint(0, 1) for _ in range(m)])
                syn = Syndrome("Hash", hash_syndrome(x, 1, spec), m, 1)
                assert len(syn.value) == math.ceil(3.5 * math.log2(m))
                for p in range(m):
                    assert multi_decode(x.delete([p]), 1, syn, m, spec) == x

    def test_fast_decoder_agrees_with_enumeration_oracle(self, spec2):
        # dual route: meet-in-the-middle result equals filtering the full
        # supersequence set by syndrome
        rng = random.Random(9)
        for _ in range(60):
            m = rng.randint(16, 48)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            pos = rng.sample(range(m), 2)
            y = x.delete(pos)
            syn = make_syndrome(x, 2, spec2)
            fast = multi_decode(y, 2, syn, m, spec2)
            oracle = [
                z
                for z in enumerate_supersequences(y, 2)
                if hash_syndrome(z, 2, spec2) == syn.value
            ]
            assert oracle == [fast] and fast == x

    def test_two_deletion_roundtrip_randomized(self, spec2):
        rng = random.Random(17)
        for _ in range(500):
            m = rng.randint(16, 512)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            pos = rng.sample(range(m), 2)
            y = x.delete(pos)
            syn = make_syndrome(x, 2, spec2)
            assert multi_decode(y, 2, syn, m, spec2) == x

    def test_vt_route_for_single_deletion(self, spec2):
        x = BitSeq([0, 1, 1, 0, 1, 0, 0, 1] * 8)
        syn = make_syndrome(x, 1, spec2)
        assert syn.kind == "VT"
        assert syn.bit_length == math.ceil(math.log2(len(x) + 1))
        y = x.delete([13])
        assert multi_decode(y, 1, syn, len(x), spec2) == x

    def test_hash_route_for_single_deletion(self):
        spec = CodeSpec.from_seed(2, (1.5, 3.5), seed=4)
        rng = random.Random(3)
        for m in (16, 100, 400):
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            assert make_syndrome(x, 1, spec).kind == "VT"  # what a session sends
            syn = Syndrome("Hash", hash_syndrome(x, 1, spec), m, 1)
            y = x.delete([rng.randrange(m)])
            assert multi_decode(y, 1, syn, m, spec) == x

    def test_three_deletions_via_enumeration(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 4.0), seed=6)
        rng = random.Random(8)
        x = BitSeq([rng.randint(0, 1) for _ in range(24)])
        syn = make_syndrome(x, 3, spec)
        y = x.delete(rng.sample(range(24), 3))
        assert multi_decode(y, 3, syn, 24, spec) == x

    def test_wrong_syndrome_fails_or_misdecodes(self, spec2):
        # spec error path: a corrupted digest must not silently return x
        rng = random.Random(2)
        x = BitSeq([rng.randint(0, 1) for _ in range(64)])
        y = x.delete([5, 40])
        good = make_syndrome(x, 2, spec2)
        flipped = BitSeq([1 - good.value[0]]) + good.value[1:]
        bad = Syndrome("Hash", flipped, good.q, good.t)
        try:
            got = multi_decode(y, 2, bad, 64, spec2)
        except NoCodewordFound:
            return
        assert got != x  # wrong-x is detected downstream by Module III

    def test_length_consistency_checked(self, spec2):
        x = BitSeq("1100")
        with pytest.raises(ValueError):
            multi_decode(x, 1, make_syndrome(x, 1, spec2), 4, spec2)

    def test_vt_syndrome_value_range(self):
        with pytest.raises(ValueError):
            vt_decode(BitSeq("101"), 9, 4)


class TestCodeSpecValidation:
    def test_requires_w_efficiencies(self):
        with pytest.raises(ValueError):
            CodeSpec.from_seed(2, (1.0,), seed=0)

    def test_requires_efficiencies_at_least_one(self):
        with pytest.raises(ValueError):
            CodeSpec.from_seed(1, (0.9,), seed=0)
