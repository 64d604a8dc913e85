import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codes_oracle as oracle
from delsync.codes import (
    MAX_WALK,
    AmbiguousDecode,
    CodeSpec,
    NoCodewordFound,
    Syndrome,
    can_decode,
    decode_batch,
    enumerate_supersequences,
    hash_syndrome,
    make_syndrome,
    multi_decode,
    syndrome_batch,
    vt_decode,
    vt_syndrome,
)
from delsync import codes
from delsync.codes import _digests, _jobs, _two_insertions_batch
from delsync.core import _FNV_BLOCK, _FNV_FOLD_MIN, BitSeq, fnv1a64


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
        assert spec1.redundancy(1, 32) == 5  # ceil(log2 32)
        # one deletion travels as VT: ceil(log2 33) bits, and no digest exists
        assert make_syndrome(BitSeq([0, 1] * 16), 1, spec1).bit_length == 6
        with pytest.raises(ValueError):
            hash_syndrome(BitSeq([0, 1] * 16), 1, spec1)

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

    def test_syndrome_kind_must_fit_the_count(self, spec2):
        # one deletion travels as VT and two as a digest, never the other way
        x = BitSeq([0, 1, 1] * 10)
        digest = Syndrome("Hash", BitSeq.from_int(0, 5), 30, 1)
        with pytest.raises(ValueError):
            multi_decode(x.delete([4]), 1, digest, 30, spec2)
        with pytest.raises(ValueError):
            multi_decode(x.delete([4, 9]), 2, make_syndrome(x, 1, spec2), 30, spec2)

    def test_three_deletions_via_enumeration(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 4.0), seed=6)
        rng = random.Random(8)
        x = BitSeq([rng.randint(0, 1) for _ in range(24)])
        syn = make_syndrome(x, 3, spec)
        y = x.delete(rng.sample(range(24), 3))
        assert multi_decode(y, 3, syn, 24, spec) == x

    def test_can_decode_marks_the_walk_limit(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        q = 3
        while math.comb(q + 1, 3) * 8 <= MAX_WALK:
            q += 1
        assert can_decode(q, 3, spec) and not can_decode(q + 1, 3, spec)
        x = BitSeq([1, 0, 0] * q)[: q + 1]
        y = x.delete([1, 2, 3])
        with pytest.raises(ValueError, match="too large to walk"):
            multi_decode(y, 3, make_syndrome(x, 3, spec), q + 1, spec)
        # VT and the meet-in-the-middle pass have no walk limit; the latter
        # takes a two-deletion digest from 31 bits on
        assert can_decode(10**5, 1, spec) and can_decode(10**4, 2, spec)
        exactly_31 = CodeSpec.from_seed(2, (1.0, 30.99 / (2 * math.log2(4000))), seed=0)
        assert exactly_31.redundancy(2, 4000) == 31 and can_decode(4000, 2, exactly_31)
        assert not can_decode(10**4, 2, CodeSpec.from_seed(2, (1.0, 1.0), seed=0))

    def test_all_zeros_two_deletion_decode_is_fast(self, spec2):
        # every insertion pair into a run yields the same word; only one copy
        # may be built and hashed (the dictionary sweep was cubic in q here)
        q = 20_000
        x = BitSeq.zeros(q)
        syn = make_syndrome(x, 2, spec2)
        start = time.perf_counter()
        got = multi_decode(x.delete([7, 12_345]), 2, syn, q, spec2)
        assert time.perf_counter() - start < 2.0
        assert got == x

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

    def test_hash_bases_in_range(self):
        # the range from_seed draws from: [2, 2^31 - 3]
        CodeSpec(2, (1, 3.5), (2, 3, 5, 2**31 - 3))
        for bad in (0, 1, -5, 2**31 - 2, 2**31 - 1, 2**40):
            with pytest.raises(ValueError):
                CodeSpec(2, (1, 3.5), (7, 3, 5, bad))


@st.composite
def source_words(draw, min_size, max_size):
    """A uniform, biased, periodic or all-zero word; the low-entropy kinds
    put long runs and repeats in front of the decoders."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "biased", "periodic", "zeros"]))
    if kind == "uniform":
        bits = rng.integers(0, 2, n)
    elif kind == "biased":
        bits = rng.random(n) < draw(st.sampled_from([0.05, 0.1, 0.9, 0.95]))
    elif kind == "periodic":
        bits = np.resize(rng.integers(0, 2, draw(st.integers(1, 6))), n)
    else:
        bits = np.zeros(n)
    return BitSeq(np.asarray(bits, dtype=np.uint8))


def _decode_outcome(decode, *args):
    try:
        return decode(*args)
    except NoCodewordFound:
        return NoCodewordFound


class TestCodesAgainstOracles:
    """The numpy kernels return exactly what the per-bit loops in
    ``codes_oracle`` return."""

    @settings(max_examples=300, deadline=5000)
    @given(source_words(2, 160), st.integers(31, 124), st.integers(0, 2**32 - 1), st.data())
    def test_two_insertions(self, x, bits, key_seed, data):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=key_seed)
        pair = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=2, max_size=2, unique=True))
        y = x.delete(pair).to_bytes01()
        if data.draw(st.booleans()):
            target = oracle.truncated_digest(x.to_bytes01(), bits, spec)
        else:
            target = data.draw(st.integers(0, 2**bits - 1))
        [found] = _two_insertions_batch(y, [0], [len(y)], [target], [bits], spec)
        assert found == oracle.decode_two_insertions(y, target, bits, spec)
        if target == oracle.truncated_digest(x.to_bytes01(), bits, spec):
            assert x.to_bytes01() in found

    @settings(max_examples=300, deadline=5000)
    @given(source_words(0, 3000), st.integers(1, 124), st.integers(0, 2**32 - 1))
    def test_digest(self, x, bits, key_seed):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=key_seed)
        data = x.to_bytes01()
        one_job = _jobs([0], [len(x)])
        full = sum(h << 31 * k for k, h in enumerate(oracle.full_hashes(data, spec.bases)))
        assert _digests(data, *one_job, [31 * len(spec.bases)], spec) == [full]
        assert _digests(data, *one_job, [bits], spec) == [oracle.truncated_digest(data, bits, spec)]
        if len(x) >= 2:
            want = oracle.truncated_digest(data, spec.redundancy(2, len(x)), spec)
            assert hash_syndrome(x, 2, spec).to_int() == want

    @settings(max_examples=200, deadline=5000)
    @given(source_words(0, 12), st.integers(0, 3))
    def test_supersequences(self, y, t):
        got = enumerate_supersequences(y, t)
        assert {z.to_bytes01() for z in got} == oracle.supersequences(y.to_bytes01(), t)
        # the distinct count depends only on |y| and t
        assert len(got) == sum(math.comb(len(y) + t, i) for i in range(t + 1))

    @settings(max_examples=300, deadline=5000)
    @given(source_words(1, 300), st.data())
    def test_vt(self, x, data):
        q = len(x)
        assert vt_syndrome(x) == oracle.vt_syndrome(x)
        if data.draw(st.booleans()):
            syndrome = vt_syndrome(x)
        else:
            syndrome = data.draw(st.integers(0, q))
        y = x.delete([data.draw(st.integers(0, q - 1))]) if data.draw(st.booleans()) else x
        assert _decode_outcome(vt_decode, y, syndrome, q) == _decode_outcome(
            oracle.vt_decode, y, syndrome, q
        )

    @settings(max_examples=200, deadline=5000)
    @given(
        source_words(0, 300)
        | source_words(_FNV_BLOCK - 3, _FNV_BLOCK + 3)
        | source_words(2 * _FNV_BLOCK - 3, 2 * _FNV_BLOCK + 3)
        | source_words(_FNV_FOLD_MIN - 2, 3 * _FNV_BLOCK),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    def test_fnv_on_bit_strings(self, x, h, data):
        payload = x.to_bytes01()
        assert fnv1a64(payload) == oracle.fnv1a64(payload)
        assert fnv1a64(payload, h) == oracle.fnv1a64(payload, h)
        cut = data.draw(st.integers(0, len(payload)))
        assert fnv1a64(payload[cut:], fnv1a64(payload[:cut], h)) == oracle.fnv1a64(payload, h)

    @settings(max_examples=200, deadline=5000)
    @given(source_words(0, 3000), st.binary(min_size=1, max_size=400), st.integers(0, 2**64 - 1))
    def test_fnv_on_other_bytes(self, x, raw, h):
        assert fnv1a64(raw, h) == oracle.fnv1a64(raw, h)
        # a long bit string with one byte above 1 takes the byte loop
        payload = x.to_bytes01() + bytes([2 + raw[0] % 254])
        assert fnv1a64(payload, h) == oracle.fnv1a64(payload, h)


def _run_batch(jobs, spec):
    """Syndromes and decodes of ``(x, y, t, target)`` jobs through one batch of each.

    ``target`` None sends the true syndrome; an int replaces it.  The jobs
    lie back to back in one source buffer and one received buffer.
    """
    q = np.array([len(x) for x, _, _, _ in jobs])
    m = np.array([len(y) for _, y, _, _ in jobs])
    ts = [t for _, _, t, _ in jobs]
    values = syndrome_batch(
        b"".join(x.to_bytes01() for x, _, _, _ in jobs), np.cumsum(q) - q, q, ts, spec
    )
    sent = [v if target is None else target for v, (_, _, _, target) in zip(values, jobs)]
    decoded = decode_batch(
        b"".join(y.to_bytes01() for _, y, _, _ in jobs), np.cumsum(m) - m, q, ts, sent, spec
    )
    return values, sent, [r if isinstance(r, bytes) else type(r) for r in decoded]


def _oracle_syndrome(x, t, spec):
    if t == 1:
        return oracle.vt_syndrome(x)
    return oracle.truncated_digest(x.to_bytes01(), spec.redundancy(t, len(x)), spec)


def _oracle_decode(y, t, target, q, spec):
    """What ``decode_batch`` must return for one job, from the oracles: the
    VT reference decoder, the reference meet-in-the-middle for two deletions
    under a digest of at least 31 bits, and the filtered supersequence space
    for every other job."""
    if t == 1:
        try:
            return oracle.vt_decode(y, target, q).to_bytes01()
        except NoCodewordFound:
            return NoCodewordFound
    bits = spec.redundancy(t, q)
    if t == 2 and bits >= 31:
        found = oracle.decode_two_insertions(y.to_bytes01(), target, bits, spec)
    else:
        found = oracle.decode_by_enumeration(y.to_bytes01(), t, target, bits, spec)
    if len(found) > 1:
        return AmbiguousDecode
    return found.pop() if found else NoCodewordFound


# (t, shortest and longest source) per kind of job; under a_2 = 3.5 a
# two-deletion digest fills its first 31-bit limb from q = 20 on.
_JOB_KINDS = {"VT": (1, 23, 400), "pair": (2, 23, 400), "walk2": (2, 2, 21), "walk3": (3, 3, 40)}


@st.composite
def batch_jobs(draw, spec):
    """Jobs of one to three deletions on assorted words, some with a wrong syndrome.

    Walk jobs (two deletions at q < 22, three at q <= 40 when ``spec.w`` is 3)
    share the batch with VT and meet-in-the-middle jobs; at most one job
    has three deletions, whose walk is the slowest.
    """
    kinds = ["VT", "pair", "walk2"] + (["walk3"] if spec.w >= 3 else [])
    jobs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "walk3":
            kinds.remove("walk3")
        t, shortest, longest = _JOB_KINDS[kind]
        x = draw(source_words(shortest, longest))
        where = draw(st.lists(st.integers(0, len(x) - 1), min_size=t, max_size=t, unique=True))
        target = None
        if draw(st.booleans()):
            width = codes.syndrome_bits(len(x), t, spec)
            target = draw(st.integers(0, len(x) if t == 1 else 2**width - 1))
        jobs.append((x, x.delete(where), t, target))
    return jobs


# The first base has order 31 modulo 2^31 - 1, so a 31-bit digest (its
# first limb only) often matches several supersequences.
_WEAK_SPEC = CodeSpec(2, (1.0, 30.99 / (2 * math.log2(200))), (2, 3, 5, 7))


class TestBatchAgainstPerPart:
    """``syndrome_batch`` and ``decode_batch`` give, job by job, what the
    per-part reference routines in ``codes_oracle`` give."""

    @settings(max_examples=150, deadline=10000)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([16, 64, 700, 1 << 13]), st.data())
    def test_batch_matches_per_part(self, key_seed, chunk, data):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=key_seed)
        jobs = data.draw(batch_jobs(spec))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_CHUNK", chunk)  # small steps: jobs straddle step edges
            values, sent, decoded = _run_batch(jobs, spec)
        for (x, y, t, _), value, target, got in zip(jobs, values, sent, decoded):
            assert value == _oracle_syndrome(x, t, spec)
            assert got == _oracle_decode(y, t, target, len(x), spec)
            if target == value:  # x always matches; a short digest may match more
                assert got in (x.to_bytes01(), AmbiguousDecode)

    @settings(max_examples=100, deadline=10000)
    @given(st.lists(source_words(200, 200), min_size=1, max_size=8), st.data())
    def test_short_digests_match_per_part(self, words, data):
        jobs = []
        for x in words:
            where = data.draw(st.lists(st.integers(0, 199), min_size=2, max_size=2, unique=True))
            jobs.append((x, x.delete(where), 2, None))
        _, sent, decoded = _run_batch(jobs, _WEAK_SPEC)
        for (_, y, _, _), target, got in zip(jobs, sent, decoded):
            assert got == _oracle_decode(y, 2, target, 200, _WEAK_SPEC)

    def test_short_digest_is_ambiguous(self):
        x = BitSeq([0, 1, 1] * 66 + [0, 1])
        jobs = [(x, x.delete([5, 120]), 2, None)]
        _, _, decoded = _run_batch(jobs, _WEAK_SPEC)
        assert decoded == [AmbiguousDecode]

    def test_wrong_targets_find_no_codeword(self, spec2):
        # (A wrong VT syndrome cannot fail: the |y| + 2 one-insertion
        # supersequences of y fill the q + 1 VT classes one each.)
        rng = np.random.default_rng(3)
        x = BitSeq(rng.integers(0, 2, 300, dtype=np.uint8))
        y = x.delete([40, 250])
        digest = make_syndrome(x, 2, spec2).value.to_int()
        jobs = [(x, y, 2, digest ^ 1), (x, y, 2, digest ^ (1 << 40)), (x, y, 2, None)]
        _, _, decoded = _run_batch(jobs, spec2)
        assert decoded == [NoCodewordFound, NoCodewordFound, x.to_bytes01()]

    def test_mixed_batch_decodes_walk_jobs(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        rng = np.random.default_rng(8)
        words = [BitSeq(rng.integers(0, 2, q, dtype=np.uint8)) for q in (300, 17, 250, 40, 9)]
        jobs = [
            (words[0], words[0].delete([12]), 1, None),  # VT
            (words[1], words[1].delete([3, 11]), 2, None),  # walk: a 29-bit digest
            (words[2], words[2].delete([0, 249]), 2, None),  # meet-in-the-middle
            (words[3], words[3].delete([5, 6, 30]), 3, None),  # walk
            (words[4], words[4].delete([0, 4, 8]), 3, None),  # walk
        ]
        assert spec.redundancy(2, 17) < 31 <= spec.redundancy(2, 250)
        _, _, decoded = _run_batch(jobs, spec)
        assert decoded == [x.to_bytes01() for x, _, _, _ in jobs]

    def test_walk_past_max_walk_raises(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        x = BitSeq([0, 1] * 30)
        assert not can_decode(60, 3, spec)
        jobs = [(x, x.delete([1]), 1, None), (x, x.delete([1, 2, 3]), 3, None)]
        with pytest.raises(ValueError, match="too large to walk"):
            _run_batch(jobs, spec)

    def test_empty_batch(self, spec2):
        assert syndrome_batch(b"", [], [], [], spec2) == []
        assert decode_batch(b"", [], [], [], [], spec2) == []


class TestLaneEdges:
    """Edge cases of the lanes: empty parts, the shortest pair job, lanes of
    zero, one or many jobs across step edges, and the Mersenne fold."""

    def test_empty_received_word(self, spec2):
        # q = 1, t = 1: the received word is empty, and either bit decodes
        assert can_decode(1, 1, spec2)
        for bit in (0, 1):
            x = BitSeq([bit])
            assert vt_syndrome(x) == oracle.vt_syndrome(x) == bit
            assert vt_decode(BitSeq(), bit, 1) == oracle.vt_decode(BitSeq(), bit, 1) == x
        # empty parts first, between and last in one lane
        rng = np.random.default_rng(4)
        words = [BitSeq([1]), BitSeq(rng.integers(0, 2, 30, dtype=np.uint8)), BitSeq([0]),
                 BitSeq([1]), BitSeq(rng.integers(0, 2, 9, dtype=np.uint8)), BitSeq([0])]
        jobs = [(x, x.delete([len(x) // 2]), 1, None) for x in words]
        values, sent, decoded = _run_batch(jobs, spec2)
        for (x, y, _, _), value, target, got in zip(jobs, values, sent, decoded):
            assert value == oracle.vt_syndrome(x)
            assert got == _oracle_decode(y, 1, target, len(x), spec2) == x.to_bytes01()
        # an empty source hashes to 0 beside non-empty ones
        data = b"\x01\x00\x01"
        assert _digests(data, *_jobs([0, 0, 1, 3], [0, 2, 2, 0]), [40] * 4, spec2) == [
            0, oracle.truncated_digest(data[:2], 40, spec2),
            oracle.truncated_digest(data[1:], 40, spec2), 0,
        ]

    def test_shortest_pair_job(self):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=5)
        assert spec.redundancy(2, 19) == 30 and spec.redundancy(2, 20) == 31
        assert codes._decoder(19, 2, spec) == codes._WALK
        assert codes._decoder(20, 2, spec) == codes._PAIR
        # beside a wrong target on a longer job, whose digest reaches a second limb
        long = BitSeq([1, 1, 1] + [0] * 6 + [1] * 11 + [0, 1, 1])
        short = long[:20]
        jobs = [(long, long.delete([0, 2]), 2, 0), (short, short.delete([0, 2]), 2, None)]
        assert spec.redundancy(2, 23) > 31
        _, sent, decoded = _run_batch(jobs, spec)
        assert decoded == [NoCodewordFound, short.to_bytes01()]
        # every deletion pair of words ending in 00, 01, 10 and 11: both
        # insertions at the end take each end row of the lane
        rng = np.random.default_rng(6)
        for q, end in itertools.product((19, 20), ([0, 0], [0, 1], [1, 0], [1, 1])):
            x = BitSeq(list(rng.integers(0, 2, q - 2)) + end)
            jobs = [(x, x.delete(pair), 2, None) for pair in itertools.combinations(range(q), 2)]
            _, sent, decoded = _run_batch(jobs, spec)
            for (_, y, _, _), target, got in zip(jobs, sent, decoded):
                assert got == _oracle_decode(y, 2, target, q, spec)

    def test_widths_follow_the_redundancy(self):
        # the batch reads each digest's width from a table of where
        # _digest_bits steps up; it must agree at every q up to the widest
        for a in ((1.0, 3.5), (1.0, 1.0), (1.0, 30.99 / (2 * math.log2(200))), (1.0, 2.2, 7.3)):
            spec = CodeSpec.from_seed(len(a), a, seed=0)
            for t in range(2, spec.w + 1):
                q, want = [], []
                for v in itertools.chain(range(2, 5000), (2**12 + 1, 2**14, 2**16 - 1)):
                    try:
                        want.append(spec.redundancy(t, v))
                    except ValueError:  # past the widest digest
                        break
                    q.append(v)
                assert codes._widths(np.array(q), np.full(len(q), t), spec).tolist() == want
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=0)
        for q in (1, 2**20):
            with pytest.raises(ValueError):
                codes._widths(np.array([q]), np.array([2]), spec)

    @pytest.mark.parametrize("counts", [(0, 0, 2), (0, 1, 0), (1, 0, 0), (4, 3, 0), (0, 4, 1),
                                        (1, 1, 1), (5, 5, 2)])
    @pytest.mark.parametrize("chunk", [8, 40, 300])
    def test_lanes_of_zero_one_or_many_jobs(self, counts, chunk):
        # at _CHUNK = 8 and 40 each part of 40 to 200 bits takes a step of
        # its own; at 300 a step holds several parts and lanes split between
        # steps; the walk's candidates always span many steps
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=chunk)
        rng = np.random.default_rng([chunk, *counts])
        jobs = []
        for kind, n in zip(("VT", "pair", "walk"), counts):
            for _ in range(n):
                q = int(rng.integers(40, 200)) if kind != "walk" else int(rng.integers(4, 12))
                x = BitSeq(rng.integers(0, 2, q, dtype=np.uint8))
                t = 1 if kind == "VT" else 2
                y = x.delete(rng.choice(q, t, replace=False).tolist())
                target = None if rng.random() < 0.7 else int(rng.integers(0, 2**31))
                jobs.append((x, y, t, target if t == 2 else None))
        order = rng.permutation(len(jobs))
        jobs = [jobs[i] for i in order]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_CHUNK", chunk)
            values, sent, decoded = _run_batch(jobs, spec)
        for (x, y, t, _), value, target, got in zip(jobs, values, sent, decoded):
            assert value == _oracle_syndrome(x, t, spec)
            assert got == _oracle_decode(y, t, target, len(x), spec)

    def test_fold_matches_modulo(self):
        p = codes._P
        values = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1, 2**62 - 1, 2**62,
                  (p - 1) ** 2, 2**63 + 5, 2**64 - 1]
        a = np.array(values, dtype=np.uint64)
        assert codes._fold(a.copy()).tolist() == [v % p for v in values]
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True)
        assert (codes._fold(a.copy()) == a % np.uint64(p)).all()


class TestPowerCache:
    def test_cache_stays_bounded_and_results_unchanged(self):
        from delsync import ProtocolParams
        from delsync.harness import run_single

        def session(seed):
            _, met, tr = run_single(ProtocolParams(n=3000, beta=0.01, seed=seed))
            return tr.final_digest, met.bits_total

        first = session(0)
        for seed in range(1, 61):
            session(seed)
        assert len(codes._pow_cache) <= codes._POW_CACHE_TABLES
        assert session(0) == first
