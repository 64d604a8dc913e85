import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codes_oracle as oracle
from delsync.codes import (
    MAX_SYNDROME_BITS,
    MAX_WALK,
    AmbiguousDecode,
    CodeSpec,
    NoCodewordFound,
    decode_batch,
    make_syndrome,
    multi_decode,
    syndrome_batch,
    syndrome_bits,
    syndrome_width,
)
from delsync import codes
from delsync.codes import _two_insertions_batch
from delsync.core import _FNV_BLOCK, _FNV_FOLD_MIN, BitSeq, InvalidConfig, fnv1a64


@pytest.fixture(scope="module")
def spec2():
    return CodeSpec.from_seed(2, (1.0, 3.5), seed=11)


def _syndromes(words, t, spec):
    """``syndrome_batch`` of the ``words`` (BitSeqs) laid out back to back, in one
    call, each at its ``syndrome_bits`` width and read back as an int; ``t`` is
    each word's deletion count, or one count for all."""
    q = np.array([len(x) for x in words], dtype=np.int64)
    t = np.broadcast_to(t, len(words))
    widths = [syndrome_bits(len(x), tj, spec) for x, tj in zip(words, t.tolist())]
    source = b"".join(x.to_bytes01() for x in words)
    return _values(syndrome_batch(source, np.cumsum(q) - q, q, t, widths, spec), widths)


def _values(payload, widths):
    """The ints that payloads of ``widths`` bits, back to back, spell."""
    ends = np.cumsum(widths, dtype=np.int64).tolist()
    return [BitSeq(payload[end - w : end]).to_int() for end, w in zip(ends, widths)]


def _payload(values, widths):
    """``_values``' inverse: each value's big-endian bits, back to back."""
    return b"".join(BitSeq.from_int(v, w).to_bytes01() for v, w in zip(values, widths))


class TestVTSyndrome:
    def test_all_zero(self, spec2):
        assert _syndromes([BitSeq("00000")], 1, spec2) == [0]

    def test_direct_values(self, spec2):
        # 1 + 4 mod 6, 6 mod 4, and the empty word
        assert _syndromes([BitSeq("10010"), BitSeq("111"), BitSeq()], 1, spec2) == [5, 2, 0]


class TestVTDecode:
    def test_single_case(self, spec2):
        got = decode_batch(BitSeq("1001").to_bytes01(), [0], [5], [1], _payload([3], [3]), [3], spec2)
        assert got == [BitSeq("10101").to_bytes01()]

    def test_uniqueness_of_codeword_small(self, spec2):
        # exactly one length-|x| supersequence of the deleted word matches
        rng = random.Random(0)
        for _ in range(200):
            m = rng.randint(2, 10)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            y = x.delete([rng.randrange(m)])
            candidates = [BitSeq(z) for z in codes._supersequences(y.to_bytes01(), 1)]
            *values, want = _syndromes(candidates + [x], 1, spec2)
            assert [z for z, v in zip(candidates, values) if v == want] == [x]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, spec2, bits, data):
        x = BitSeq(bits)
        p = data.draw(st.integers(0, len(x) - 1))
        y = x.delete([p])
        _, _, decoded = _run_batch([(x, y, 1, None)], spec2)
        assert decoded == [x.to_bytes01()]

    def test_rejects_bad_lengths(self, spec2):
        with pytest.raises(ValueError):
            multi_decode(BitSeq("10"), 1, BitSeq.from_int(0, 3), 5, spec2)


class TestSupersequences:
    """The walk decoder's enumerator."""

    def test_zero_insertions(self):
        assert codes._supersequences(b"\x00\x01", 0) == {b"\x00\x01"}

    def test_single_insertion_explicit(self):
        got = {BitSeq(z).to01() for z in codes._supersequences(BitSeq("01").to_bytes01(), 1)}
        assert got == {"001", "010", "011", "101"}

    def test_count_law_exhaustive(self):
        # |supersequences(y, 1)| = |y| + 2 for every binary y up to length 12
        for m in range(0, 13):
            for bits in itertools.product([0, 1], repeat=m):
                assert len(codes._supersequences(bytes(bits), 1)) == m + 2


class TestHashSyndrome:
    def test_redundancy_exact_lengths(self, spec2):
        [value] = _syndromes([BitSeq([1] * 256)], 2, spec2)
        assert syndrome_bits(256, 2, spec2) == 56 and value < 1 << 56  # ceil(2*3.5*8)
        spec1 = CodeSpec.from_seed(1, (1.0,), seed=11)
        # one deletion travels as VT: ceil(log2 33) bits, and no digest exists
        assert syndrome_bits(32, 1, spec1) == 6

    def test_redundancy_at_least_lower_bound(self, spec2):
        for q in (2, 3, 17, 100, 4096):
            for t in (1, 2):
                assert syndrome_bits(q, t, spec2) >= math.ceil(t * math.log2(q))

    def test_determinism(self, spec2):
        x = BitSeq([random.Random(5).randint(0, 1) for _ in range(100)])
        assert _syndromes([x], 2, spec2) == _syndromes([x], 2, spec2)

    def test_key_dependence(self):
        a = CodeSpec.from_seed(2, (1.0, 3.5), seed=1)
        b = CodeSpec.from_seed(2, (1.0, 3.5), seed=2)
        x = BitSeq([1, 0] * 50)
        assert _syndromes([x], 2, a) != _syndromes([x], 2, b)

    def test_rejects_oversided_redundancy(self):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=1)
        with pytest.raises(ValueError):
            syndrome_bits(2**20, 2, spec)


class TestMultiDecode:
    def test_zero_deletions_identity(self, spec2):
        x = BitSeq("110100")
        assert multi_decode(x, 0, None, 6, spec2) == x

    def test_two_deletion_roundtrip_small_exhaustive(self, spec2):
        # every x up to length 9, every 2-deletion pattern, in one batch
        jobs = [
            (x, x.delete(pair), 2, None)
            for m in range(2, 10)
            for x in map(BitSeq, itertools.product([0, 1], repeat=m))
            for pair in itertools.combinations(range(m), 2)
        ]
        _, _, decoded = _run_batch(jobs, spec2)
        assert decoded == [x.to_bytes01() for x, _, _, _ in jobs]

    def test_fast_decoder_agrees_with_enumeration_oracle(self, spec2):
        # dual route: meet-in-the-middle result equals filtering the full
        # supersequence set by syndrome
        rng = random.Random(9)
        jobs = []
        for _ in range(60):
            m = rng.randint(16, 48)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            jobs.append((x, x.delete(rng.sample(range(m), 2)), 2, None))
        values, _, decoded = _run_batch(jobs, spec2)
        for (x, y, _, _), value, fast in zip(jobs, values, decoded):
            bits = syndrome_bits(len(x), 2, spec2)
            assert oracle.decode_by_enumeration(y.to_bytes01(), 2, value, bits, spec2) == {fast}
            assert fast == x.to_bytes01()

    def test_two_deletion_roundtrip_randomized(self, spec2):
        rng = random.Random(17)
        jobs = []
        for _ in range(500):
            m = rng.randint(16, 512)
            x = BitSeq([rng.randint(0, 1) for _ in range(m)])
            jobs.append((x, x.delete(rng.sample(range(m), 2)), 2, None))
        _, _, decoded = _run_batch(jobs, spec2)
        assert decoded == [x.to_bytes01() for x, _, _, _ in jobs]

    def test_vt_route_for_single_deletion(self, spec2):
        x = BitSeq([0, 1, 1, 0, 1, 0, 0, 1] * 8)
        syn = make_syndrome(x, 1, spec2)
        assert len(syn) == math.ceil(math.log2(len(x) + 1))
        assert syn.to_int() == _syndromes([x], 1, spec2)[0]
        y = x.delete([13])
        assert multi_decode(y, 1, syn, len(x), spec2) == x

    def test_syndrome_kind_must_fit_the_count(self, spec2):
        # a one-deletion syndrome (5 bits at q = 30) is no two-deletion digest
        x = BitSeq([0, 1, 1] * 10)
        with pytest.raises(ValueError, match="a payload of 5 bits for 35 syndrome bits"):
            multi_decode(x.delete([4, 9]), 2, make_syndrome(x, 1, spec2), 30, spec2)

    def test_three_deletions_via_enumeration(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 4.0), seed=6)
        rng = random.Random(8)
        x = BitSeq([rng.randint(0, 1) for _ in range(24)])
        syn = make_syndrome(x, 3, spec)
        y = x.delete(rng.sample(range(24), 3))
        assert multi_decode(y, 3, syn, 24, spec) == x

    def test_syndrome_width_marks_the_walk_limit(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        q = 3
        while math.comb(q + 1, 3) * 8 <= MAX_WALK:
            q += 1
        assert syndrome_width(q, 3, spec) == syndrome_bits(q, 3, spec)
        assert syndrome_width(q + 1, 3, spec) == 0
        x = BitSeq([1, 0, 0] * q)[: q + 1]
        y = x.delete([1, 2, 3])
        with pytest.raises(ValueError, match="too large to walk"):
            multi_decode(y, 3, make_syndrome(x, 3, spec), q + 1, spec)
        # VT and the meet-in-the-middle pass have no walk limit; the latter
        # takes a two-deletion digest from 31 bits on
        assert syndrome_width(10**5, 1, spec) == 17 and syndrome_width(10**4, 2, spec) == 94
        exactly_31 = CodeSpec.from_seed(2, (1.0, 30.99 / (2 * math.log2(4000))), seed=0)
        assert syndrome_bits(4000, 2, exactly_31) == 31 == syndrome_width(4000, 2, exactly_31)
        assert syndrome_width(10**4, 2, CodeSpec.from_seed(2, (1.0, 1.0), seed=0)) == 0

    def test_syndrome_width_stops_at_the_widest_digest(self):
        # past MAX_SYNDROME_BITS no syndrome exists, so no lane can decode
        for a, t, last in (((1.0, 3.5, 8.0), 3, 35), ((1.0, 9.0), 2, 118)):
            spec = CodeSpec.from_seed(len(a), a, seed=0)
            assert syndrome_bits(last, t, spec) == MAX_SYNDROME_BITS
            assert syndrome_width(last, t, spec) == MAX_SYNDROME_BITS
            assert syndrome_width(last + 1, t, spec) == 0
            with pytest.raises(ValueError, match="exceeds"):
                syndrome_bits(last + 1, t, spec)

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
        bad = BitSeq([1 - good[0]]) + good[1:]
        try:
            got = multi_decode(y, 2, bad, 64, spec2)
        except NoCodewordFound:
            return
        assert got != x  # wrong-x is detected downstream by Module III

    def test_length_consistency_checked(self, spec2):
        x = BitSeq("1100")
        with pytest.raises(ValueError):
            multi_decode(x, 1, make_syndrome(x, 1, spec2), 4, spec2)

    def test_vt_syndrome_value_range(self, spec2):
        # a VT value in (q, 2^bits) fits the wire and names no VT class, so
        # nothing decodes
        with pytest.raises(NoCodewordFound):
            multi_decode(BitSeq("101"), 1, BitSeq.from_int(5, 3), 4, spec2)


class TestCodeSpecValidation:
    def test_requires_w_efficiencies(self):
        with pytest.raises(ValueError):
            CodeSpec.from_seed(2, (1.0,), seed=0)

    def test_requires_efficiencies_at_least_one(self):
        with pytest.raises(ValueError):
            CodeSpec.from_seed(1, (0.9,), seed=0)

    @pytest.mark.parametrize("w, a", [(0, ()), (2, (1.0, math.nan)), (2, (1.0, math.inf))])
    def test_shares_the_session_check(self, w, a):
        # the code part of core.check_settings, so ProtocolParams rejects the same
        with pytest.raises(InvalidConfig):
            CodeSpec.from_seed(w, a, seed=0)

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
        limbs = codes._from_payload(_payload([target], [bits]), np.array([bits]))
        job, words = _two_insertions_batch(
            y, np.array([0]), np.array([len(y) + 2]), np.array([2]), limbs, np.array([bits]), spec
        )
        found = set(words)
        assert job.tolist() == [0] * len(words) == [0] * len(found)
        assert found == oracle.decode_two_insertions(y, target, bits, spec)
        if target == oracle.truncated_digest(x.to_bytes01(), bits, spec):
            assert x.to_bytes01() in found

    @settings(max_examples=200, deadline=5000)
    @given(st.lists(source_words(2, 300), min_size=1, max_size=6), st.integers(0, 2**32 - 1),
           st.sampled_from([64, 700, 1 << 14]), st.data())
    def test_pair_survivors_keep_the_first_limb(self, words, key_seed, chunk, data):
        # The pair lane hashes a survivor of the table match only on the limbs
        # after the first, so the match must give that limb exactly: re-hashed
        # whole, every survivor's word has its job's target as first limb.
        # Deletions at the end make the end rows insert; the low-entropy words
        # put long runs in the tables.  A target of 2^31 - 1 is no residue.
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=key_seed)
        ys, targets, sources = [], [], []
        for x in words:
            q = len(x)
            where = data.draw(st.sampled_from([[q - 2, q - 1], [0, q - 1], None]))
            if where is None:
                pairs = st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True)
                where = data.draw(pairs)
            ys.append(x.delete(where).to_bytes01())
            sources.append(x.to_bytes01())
            true = oracle.full_hashes(sources[-1], spec.bases[:1])[0]
            target = st.sampled_from([true, codes._P]) | st.integers(0, codes._P - 1)
            targets.append(data.draw(target))
        m = np.array([len(y) for y in ys], dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_CHUNK", chunk)
            survivors = codes._pair_survivors(
                b"".join(ys), np.cumsum(m) - m, m, np.array(targets, dtype=np.uint64), spec
            )
        found = [set() for _ in ys]
        for j, p1, b1, p2, b2 in zip(*(field.tolist() for field in survivors)):
            word = bytearray(ys[j])
            word.insert(p1, b1)
            word.insert(p2, b2)
            assert oracle.full_hashes(bytes(word), spec.bases[:1]) == [targets[j]]
            found[j].add(bytes(word))
        for x, target, hits in zip(sources, targets, found):
            if target == oracle.full_hashes(x, spec.bases[:1])[0]:
                assert x in hits

    @settings(max_examples=300, deadline=5000)
    @given(source_words(0, 3000), st.integers(1, 124), st.integers(0, 2**32 - 1))
    def test_digest(self, x, bits, key_seed):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=key_seed)
        data = x.to_bytes01()
        one_job = ([0], [len(x)], [2])
        full = sum(h << 31 * k for k, h in enumerate(oracle.full_hashes(data, spec.bases)))
        widest = 31 * len(spec.bases)
        assert syndrome_batch(data, *one_job, [widest], spec) == oracle.int_to_bits(full, widest)
        want = oracle.truncated_digest(data, bits, spec)
        assert syndrome_batch(data, *one_job, [bits], spec) == oracle.int_to_bits(want, bits)
        if len(x) >= 2:
            want = oracle.truncated_digest(data, syndrome_bits(len(x), 2, spec), spec)
            assert _syndromes([x], 2, spec) == [want]

    @settings(max_examples=200, deadline=5000)
    @given(source_words(0, 12), st.integers(0, 3))
    def test_supersequences(self, y, t):
        got = codes._supersequences(y.to_bytes01(), t)
        assert got == oracle.supersequences(y.to_bytes01(), t)
        # the distinct count depends only on |y| and t
        assert len(got) == sum(math.comb(len(y) + t, i) for i in range(t + 1))

    @settings(max_examples=300, deadline=5000)
    @given(source_words(1, 300), st.data())
    def test_vt(self, spec2, x, data):
        q = len(x)
        target = None if data.draw(st.booleans()) else data.draw(st.integers(0, q))
        y = x.delete([data.draw(st.integers(0, q - 1))])
        values, sent, decoded = _run_batch([(x, y, 1, target)], spec2)
        assert values == [oracle.vt_syndrome(x)]
        assert decoded == [_oracle_decode(y, 1, sent[0], q, spec2)]

    @settings(max_examples=200, deadline=5000)
    @given(
        source_words(0, 300)
        | source_words(_FNV_BLOCK - 8, _FNV_BLOCK + 8)  # every offset 0-7 around each edge
        | source_words(2 * _FNV_BLOCK - 8, 2 * _FNV_BLOCK + 8)
        | source_words(_FNV_FOLD_MIN - 2, 3 * _FNV_BLOCK),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    def test_fnv_on_bit_strings(self, x, h, data):
        payload = x.to_bytes01()
        want = oracle.fnv1a64(payload, h)
        assert fnv1a64(payload) == oracle.fnv1a64(payload)
        assert fnv1a64(payload, h) == want
        cut = data.draw(st.integers(0, len(payload)))
        assert fnv1a64(payload[cut:], fnv1a64(payload[:cut], h)) == want

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
    values = _syndromes([x for x, _, _, _ in jobs], ts, spec)
    sent = [v if target is None else target for v, (_, _, _, target) in zip(values, jobs)]
    widths = [syndrome_bits(len(x), t, spec) for x, _, t, _ in jobs]
    decoded = decode_batch(
        b"".join(y.to_bytes01() for _, y, _, _ in jobs), np.cumsum(m) - m, q, ts,
        _payload(sent, widths), widths, spec,
    )
    return values, sent, [r if isinstance(r, bytes) else type(r) for r in decoded]


def _oracle_syndrome(x, t, spec):
    if t == 1:
        return oracle.vt_syndrome(x)
    return oracle.truncated_digest(x.to_bytes01(), syndrome_bits(len(x), t, spec), spec)


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
    bits = syndrome_bits(q, t, spec)
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


# tracemalloc peak of one decode_batch call holding the largest three-deletion
# walk that syndrome_width admits (q = 58 under a = (1, 3.5, 1.5)), measured on the
# code before each lane returned its matching words to decode_batch
# (8,260,206 bytes); the call may take at most 10% more.
WALK_PEAK_BYTES = 8_260_206


class TestBatchAgainstPerPart:
    """``syndrome_batch`` and ``decode_batch`` give, job by job, what the
    per-part reference routines in ``codes_oracle`` give."""

    # derandomize: one fixed example set, so the test's time (set by the few
    # t = 3 walk jobs drawn) is the same from run to run
    @settings(max_examples=150, deadline=10000, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([16, 64, 700, 1 << 13, 1 << 14]), st.data())
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
        [digest] = _syndromes([x], 2, spec2)
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
        assert syndrome_bits(17, 2, spec) < 31 <= syndrome_bits(250, 2, spec)
        _, _, decoded = _run_batch(jobs, spec)
        assert decoded == [x.to_bytes01() for x, _, _, _ in jobs]

    def test_one_batch_shows_every_lane_outcome(self):
        # Under _WEAK_SPEC a two-deletion digest takes the walk below q = 200
        # and the meet-in-the-middle from there; its first base, 2, hashes a
        # word of at most 31 bits to its own value, which a digest of fewer
        # bits cuts to the word's leading bits.
        rng = np.random.default_rng(25)
        x250, x12, x25 = (BitSeq(rng.integers(0, 2, q, dtype=np.uint8)) for q in (250, 12, 25))
        x64 = BitSeq(rng.integers(0, 2, 64, dtype=np.uint8))
        period3 = BitSeq([0, 1, 1] * 66 + [0, 1])
        jobs = [  # (source, deleted positions, payload bit to flip or a VT value, outcome)
            (x250, [17, 190], None, x250.to_bytes01()),  # pair, a 33-bit digest
            (x250, [17, 190], 20, NoCodewordFound),
            (period3, [5, 120], None, AmbiguousDecode),  # pair, a 31-bit digest
            (x12, [3, 8], None, x12.to_bytes01()),  # walk, a 15-bit digest of 12 bits
            (x12, [3, 8], 0, NoCodewordFound),  # a value of 2^14 or more
            (x25, [20, 23], None, AmbiguousDecode),  # walk: the last 6 bits are cut
            (x64, [30], None, x64.to_bytes01()),  # VT
            (x64, [30], 100, NoCodewordFound),  # a VT value above q
        ]
        assert [syndrome_bits(len(x), 2, _WEAK_SPEC) for x in (x250, period3, x12, x25)] == [
            33, 31, 15, 19]
        q = [len(x) for x, _, _, _ in jobs]
        t = [len(where) for _, where, _, _ in jobs]
        ys = [x.delete(where).to_bytes01() for x, where, _, _ in jobs]
        bits = [syndrome_bits(qj, tj, _WEAK_SPEC) for qj, tj in zip(q, t)]
        payloads = []
        for (x, _, change, _), tj, width in zip(jobs, t, bits):
            payload = syndrome_batch(x.to_bytes01(), [0], [len(x)], [tj], [width], _WEAK_SPEC)
            if tj == 1 and change is not None:
                payload = BitSeq.from_int(change, width).to_bytes01()
            elif change is not None:
                payload = payload[:change] + bytes([1 - payload[change]]) + payload[change + 1 :]
            payloads.append(payload)
        m = np.array([len(y) for y in ys])
        decoded = decode_batch(b"".join(ys), np.cumsum(m) - m, q, t, b"".join(payloads), bits,
                               _WEAK_SPEC)
        outcome = [r if isinstance(r, bytes) else type(r) for r in decoded]
        assert outcome == [want for _, _, _, want in jobs]
        for y, qj, tj, payload, width, got in zip(ys, q, t, payloads, bits, outcome):
            [alone] = decode_batch(y, [0], [qj], [tj], payload, [width], _WEAK_SPEC)
            assert (alone if isinstance(alone, bytes) else type(alone)) == got
            sent = BitSeq(payload)
            if isinstance(got, bytes):
                assert multi_decode(BitSeq(y), tj, sent, qj, _WEAK_SPEC).to_bytes01() == got
            else:
                with pytest.raises(got):
                    multi_decode(BitSeq(y), tj, sent, qj, _WEAK_SPEC)

    def test_walk_past_max_walk_raises(self):
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        x = BitSeq([0, 1] * 30)
        assert syndrome_width(60, 3, spec) == 0
        jobs = [(x, x.delete([1]), 1, None), (x, x.delete([1, 2, 3]), 3, None)]
        with pytest.raises(ValueError, match="too large to walk"):
            _run_batch(jobs, spec)

    def test_counts_outside_the_code_raise(self):
        # Every job needs 1 <= t <= w, and a decode job t <= q too: a session
        # never sends another, and no lane can undo one.
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=0)
        with pytest.raises(ValueError, match="deletion count"):  # t = 3 above w and q
            decode_batch(b"\x01\x00\x01", [0], [2], [3], bytes(8), [8], spec)
        for t in (0, 3):
            with pytest.raises(ValueError, match="deletion count"):
                syndrome_batch(bytes(40), [0, 0], [40, 40], [2, t], [20, 20], spec)
            with pytest.raises(ValueError, match="deletion count"):
                decode_batch(bytes(40), [0, 0], [40, 40], [2, t], bytes(40), [20, 20], spec)
        with pytest.raises(ValueError, match="deletion count"):  # t = 2 within w, above q
            decode_batch(b"", [0], [1], [2], bytes(20), [20], spec)
        spec3 = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        assert syndrome_width(3, 3, spec3) == syndrome_bits(3, 3, spec3)
        assert syndrome_width(2, 3, spec3) == 0
        assert syndrome_width(40, 0, spec) == 0 and syndrome_width(40, 3, spec) == 0

    def test_parts_outside_their_buffer_raise(self, spec2):
        # Every source x[s : s + q] and received word y[s : s + q - t] lies
        # within its buffer, and every payload byte is 0 or 1: a session
        # never sends another job, and no lane reads one right.
        x = bytes([1, 1, 0, 1, 0, 0, 1, 0])
        with pytest.raises(ValueError, match="outside"):  # x[2:5] of a 3-byte x
            syndrome_batch(bytes([1, 0, 1]), [0, 2], [3, 3], [1, 1], [2, 2], spec2)
        for start, q in ((-1, 4), (0, -1)):
            with pytest.raises(ValueError, match="outside"):
                syndrome_batch(x, [start], [q], [1], [3], spec2)
        y = x[:3] + x[4:]
        payload = syndrome_batch(x, [0], [8], [1], [4], spec2)
        assert decode_batch(y, [0], [8], [1], payload, [4], spec2) == [x]
        for start in (3, -1):  # a 7-byte word from y[3] or y[-1] of a 7-byte y
            with pytest.raises(ValueError, match="outside"):
                decode_batch(y, [start], [8], [1], payload, [4], spec2)
        assert b"\x01" in payload
        with pytest.raises(ValueError, match="0 or 1"):
            decode_batch(y, [0], [8], [1], payload.replace(b"\x01", b"\x02"), [4], spec2)

    def test_walk_limit_peak_memory(self):
        # The walk holds one step's candidates at a time; at the walk limit
        # that is one job's 32,568 words, the most a session ever enumerates.
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=0)
        assert syndrome_width(58, 3, spec) == syndrome_bits(58, 3, spec)
        assert syndrome_width(59, 3, spec) == 0
        x = BitSeq(np.random.default_rng(58).integers(0, 2, 58, dtype=np.uint8))
        bits = syndrome_bits(58, 3, spec)
        payload = syndrome_batch(x.to_bytes01(), [0], [58], [3], [bits], spec)
        job = (x.delete([3, 20, 41]).to_bytes01(), [0], [58], [3], payload, [bits], spec)
        assert decode_batch(*job) == [x.to_bytes01()]  # fills the power tables
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            decode_batch(*job)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * WALK_PEAK_BYTES, peak

    def test_empty_batch(self, spec2):
        assert syndrome_batch(b"", [], [], [], [], spec2) == b""
        assert decode_batch(b"", [], [], [], b"", [], spec2) == []


class TestLaneEdges:
    """Edge cases of the lanes: empty parts, the shortest pair job, lanes of
    zero, one or many jobs across step edges, and the Mersenne fold."""

    def test_empty_received_word(self, spec2):
        # q = 1, t = 1: the received word is empty, and either bit decodes
        assert syndrome_width(1, 1, spec2) == 1
        words = [BitSeq([0]), BitSeq([1])]
        values, _, decoded = _run_batch([(x, BitSeq(), 1, None) for x in words], spec2)
        assert values == [oracle.vt_syndrome(x) for x in words] == [0, 1]
        assert decoded == [oracle.vt_decode(BitSeq(), v, 1).to_bytes01() for v in (0, 1)]
        assert decoded == [b"\x00", b"\x01"]
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
        payload = syndrome_batch(data, [0, 0, 1, 3], [0, 2, 2, 0], [2] * 4, [40] * 4, spec2)
        assert _values(payload, [40] * 4) == [
            0, oracle.truncated_digest(data[:2], 40, spec2),
            oracle.truncated_digest(data[1:], 40, spec2), 0,
        ]

    def test_shortest_pair_job(self):
        spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=5)
        assert syndrome_bits(19, 2, spec) == 30 and syndrome_bits(20, 2, spec) == 31
        assert codes._decoder(2, syndrome_bits(19, 2, spec)) == codes._WALK
        assert codes._decoder(2, syndrome_bits(20, 2, spec)) == codes._PAIR
        # beside a wrong target on a longer job, whose digest reaches a second limb
        long = BitSeq([1, 1, 1] + [0] * 6 + [1] * 11 + [0, 1, 1])
        short = long[:20]
        jobs = [(long, long.delete([0, 2]), 2, 0), (short, short.delete([0, 2]), 2, None)]
        assert syndrome_bits(23, 2, spec) > 31
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
                if target is not None:  # the low bits that a syndrome of its width carries
                    target %= 2 ** syndrome_bits(q, 2, spec)
                jobs.append((x, y, t, target if t == 2 else None))
        order = rng.permutation(len(jobs))
        jobs = [jobs[i] for i in order]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_CHUNK", chunk)
            values, sent, decoded = _run_batch(jobs, spec)
        for (x, y, t, _), value, target, got in zip(jobs, values, sent, decoded):
            assert value == _oracle_syndrome(x, t, spec)
            assert got == _oracle_decode(y, t, target, len(x), spec)

    def test_first_limb_of_all_ones_matches_nothing(self, spec2):
        # 2^31 - 1 is 0 modulo _P, so the pair lane's table match, which
        # works modulo _P, pairs that first limb with a first hash of 0, as
        # the all-zeros candidate has; no candidate's limb is 2^31 - 1.
        y = bytes(40)
        for bits in (31, 62):
            decoded = decode_batch(y, [0], [42], [2], _payload([codes._P], [bits]), [bits], spec2)
            assert [type(r) for r in decoded] == [NoCodewordFound]

    def test_fold_matches_modulo(self):
        p = codes._P
        values = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1, 2**62 - 1, 2**62,
                  (p - 1) ** 2, 2**63 + 5, 2**64 - 1]
        a = np.array(values, dtype=np.uint64)
        assert codes._fold(a.copy()).tolist() == [v % p for v in values]
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True)
        assert (codes._fold(a.copy()) == a % np.uint64(p)).all()


# Widths around each 31-bit limb edge, beside any width a digest can take.
_WIDTHS = st.integers(1, MAX_SYNDROME_BITS) | st.sampled_from([30, 31, 32, 61, 62, 63, 93, 94])


class TestPayloadFormat:
    """A syndrome travels as its payload: its value's big-endian bits at the
    job's width, one 0/1 byte each, every job's back to back."""

    @settings(max_examples=300, deadline=5000)
    @given(st.lists(st.tuples(st.integers(0, 2**124 - 1), _WIDTHS), max_size=8))
    def test_payload_round_trip(self, jobs):
        values = [v for v, _ in jobs]
        bits = np.array([b for _, b in jobs], dtype=np.int64)
        limbs = np.array([[v >> 31 * k & codes._P for v in values] for k in range(4)], dtype=np.uint64)
        payload = codes._to_payload(limbs, bits)
        cut = [v % 2**b for v, b in jobs]
        assert payload == b"".join(BitSeq.from_int(v, b).to_bytes01() for v, b in zip(cut, bits.tolist()))
        back = codes._from_payload(payload, bits)
        assert back.tolist() == [[v >> 31 * k & codes._P for v in cut] for k in range(len(back))]

    def test_rejects_a_width_outside_the_digest(self, spec2):
        x = b"\x01\x00" * 20
        for bits in (0, MAX_SYNDROME_BITS + 1):
            with pytest.raises(ValueError, match="syndrome widths"):
                syndrome_batch(x, [0], [40], [2], [bits], spec2)
            with pytest.raises(ValueError, match="syndrome widths"):
                decode_batch(x, [0], [40], [2], bytes(max(bits, 0)), [bits], spec2)
        with pytest.raises(ValueError, match="payload"):  # one bit short
            decode_batch(x, [0], [40], [2], bytes(37), [38], spec2)

    def test_flipped_payload_bit_never_decodes_to_the_source(self):
        # Each bit of one job's payload flipped in turn, in every lane: the
        # decode of the corrupted payload fails or finds another word.
        spec = CodeSpec.from_seed(3, (1.0, 3.5, 1.5), seed=4)
        rng = np.random.default_rng(12)
        lanes = [(1, 64, codes._VT), (2, 200, codes._PAIR), (2, 12, codes._WALK), (3, 16, codes._WALK)]
        flips = 0
        for t, q, lane in lanes:
            x = BitSeq(rng.integers(0, 2, q, dtype=np.uint8))
            y = x.delete(sorted(rng.choice(q, t, replace=False).tolist())).to_bytes01()
            bits = syndrome_bits(q, t, spec)
            assert codes._decoder(t, bits) == lane
            payload = syndrome_batch(x.to_bytes01(), [0], [q], [t], [bits], spec)
            assert decode_batch(y, [0], [q], [t], payload, [bits], spec) == [x.to_bytes01()]
            flipped = b"".join(
                payload[:i] + bytes([1 - payload[i]]) + payload[i + 1 :] for i in range(bits)
            )
            decoded = decode_batch(y, [0] * bits, [q] * bits, [t] * bits, flipped, [bits] * bits, spec)
            assert x.to_bytes01() not in decoded
            flips += len(decoded)
        assert flips == 7 + 54 + 26 + 18


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
