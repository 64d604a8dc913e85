"""Deletion-correcting codes used by section recovery.

Two code families live here:

* the classic Varshamov-Tenengolts single-deletion code, with the standard
  O(q) weight/deficiency decoder (the syndrome formula ``sum i*x_i mod q+1``
  is the textbook construction, imported here as an external definition);
* a keyed-digest syndrome code for two up to ``w`` deletions whose redundancy
  for ``t`` deletions on a length-``q`` source is exactly
  ``ceil(t * a_t * log2 q)`` bits.

One deletion always travels as a VT syndrome, more as a digest.
``syndrome_batch`` and ``decode_batch`` serve many parts in one call, in
steps of at most ``_CHUNK`` bytes or table entries, and ``decode_batch``
alone picks each part's decoder: VT for one deletion; for two under a digest
of at least 31 bits, a meet-in-the-middle pass over the digest's leading
hash limb, which matches two sorted tables of O(q) canonical insertions, so
that search takes O(q log q) time, runs in the received word included; for
every other count, a walk of the whole supersequence space, hashed by the
same kernel as the syndromes, which may hold at most ``MAX_WALK``
candidates.  ``can_decode`` tells a caller in advance whether a (q, t) pair
is within reach.  ``make_syndrome``, ``hash_syndrome``, ``vt_syndrome``,
``multi_decode`` and ``vt_decode`` are batches of one part.

The digest key (four polynomial-hash bases) is derived from the session seed
and known to both parties; it is never counted as transmitted bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BitSeq, substream

__all__ = [
    "AmbiguousDecode",
    "CodeSpec",
    "MAX_WALK",
    "NoCodewordFound",
    "Syndrome",
    "can_decode",
    "decode_batch",
    "enumerate_supersequences",
    "hash_syndrome",
    "make_syndrome",
    "multi_decode",
    "syndrome_batch",
    "syndrome_bits",
    "vt_decode",
    "vt_syndrome",
]

_P = (1 << 31) - 1  # Mersenne prime; 31-bit hash limbs keep products in 62 bits
_N_BASES = 4
MAX_SYNDROME_BITS = 31 * _N_BASES
MAX_WALK = 250_000  # most candidates the walk decoder tries: about 1 s of Python hashing


class NoCodewordFound(Exception):
    """No candidate supersequence matches the transmitted syndrome."""


class AmbiguousDecode(Exception):
    """Two or more distinct candidates match: digest collision."""


@dataclass(frozen=True)
class CodeSpec:
    """Deletion-code family: capability ``w`` and per-count efficiencies ``a``."""

    w: int
    a: tuple[float, ...]
    bases: tuple[int, ...]

    def __post_init__(self):
        if self.w < 1 or len(self.a) != self.w:
            raise ValueError("a must list exactly w efficiencies")
        if any(v < 1.0 for v in self.a):
            raise ValueError("efficiencies must be >= 1")
        if len(self.bases) != _N_BASES or len(set(self.bases)) != _N_BASES:
            raise ValueError(f"need {_N_BASES} distinct hash bases")
        # from_seed's range: past it a base is 0, 1, -1 or a smaller base
        # modulo _P, and from 2^33 up it overflows the uint64 power table
        if any(not 2 <= r <= _P - 2 for r in self.bases):
            raise ValueError(f"hash bases must lie in [2, {_P - 2}]")

    @classmethod
    def from_seed(cls, w: int, a, seed: int) -> "CodeSpec":
        rng = substream(seed, "hashkey")
        bases: list[int] = []
        while len(bases) < _N_BASES:
            r = int(rng.integers(2, _P - 1))
            if r not in bases:
                bases.append(r)
        return cls(w, tuple(float(v) for v in a), tuple(bases))

    def redundancy(self, t: int, q: int) -> int:
        """Syndrome length in bits for ``t`` deletions on a length-``q`` source."""
        if not 1 <= t <= self.w:
            raise ValueError(f"t={t} outside [1, {self.w}]")
        return _digest_bits(t, self.a[t - 1], q)


@lru_cache(maxsize=1 << 14)
def _digest_bits(t: int, a_t: float, q: int) -> int:
    if q < 2:
        raise ValueError("source length must be >= 2")
    bits = math.ceil(t * a_t * math.log2(q))
    if bits > MAX_SYNDROME_BITS:
        raise ValueError(f"syndrome of {bits} bits exceeds the {MAX_SYNDROME_BITS}-bit digest")
    return bits


@dataclass(frozen=True)
class Syndrome:
    """What Alice transmits so Bob can undo ``t`` deletions in a length-``q`` part."""

    kind: str  # "VT" | "Hash"
    value: object  # int for VT, BitSeq for Hash
    q: int
    t: int

    @property
    def bit_length(self) -> int:
        if self.kind == "VT":
            return _vt_bits(self.q)
        return len(self.value)


@lru_cache(maxsize=1 << 14)
def _vt_bits(q: int) -> int:
    return max(1, math.ceil(math.log2(q + 1)))


def syndrome_bits(q: int, t: int, spec: CodeSpec) -> int:
    """Length of ``make_syndrome``'s syndrome for ``t`` deletions in a length-``q`` source."""
    return _vt_bits(q) if t == 1 else spec.redundancy(t, q)


# --- batch plumbing ---

# Most bytes, or table entries, that one step of a batch works on; a larger
# job takes a step of its own.  Keeps a batch's temporaries near 1 MB, and
# must stay below 2^16 for the two-deletion table keys to fit 63 bits.
_CHUNK = 1 << 13


def _steps(sizes: np.ndarray):
    """Consecutive job ranges [lo, hi) whose sizes sum to at most ``_CHUNK``."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        limit = (int(ends[lo - 1]) if lo else 0) + _CHUNK
        hi = max(int(np.searchsorted(ends, limit, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _gather(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The segments buf[s : s + l] back to back, each byte's offset within its
    segment, and where each segment begins in the result."""
    first = np.cumsum(lens) - lens
    rel = np.arange(int(lens.sum())) - np.repeat(first, lens)
    return buf[np.repeat(starts, lens) + rel], rel, first


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """out[i] = values[:i].sum(), exact while the total fits the dtype."""
    out = np.zeros(len(values) + 1, dtype=values.dtype)
    np.cumsum(values, out=out[1:])
    return out


def _segment_sums(values: np.ndarray, first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The sum of each segment values[f : f + l], empty segments included."""
    acc = _prefix_sums(values)
    return acc[first + lens] - acc[first]


def _jobs(starts, lens) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(starts, dtype=np.int64), np.asarray(lens, dtype=np.int64)


def _fill(out: list, jobs, results) -> None:
    for j, r in zip(jobs, results):
        out[j] = r


def _single(found: set[bytes], t: int, bits: int) -> bytes | Exception:
    """The one candidate that matched, or the error ``multi_decode`` raises."""
    if not found:
        return NoCodewordFound(f"no {t}-insertion candidate matches the syndrome")
    if len(found) > 1:
        return AmbiguousDecode(f"{len(found)} candidates match a {bits}-bit syndrome")
    return next(iter(found))


# --- Varshamov-Tenengolts single-deletion code ---


def vt_syndrome(x: BitSeq) -> int:
    """sum of i*x_i over 1-indexed positions, mod (|x|+1)."""
    return _vt_syndromes(x.to_bytes01(), *_jobs([0], [len(x)]))[0]


def _vt_syndromes(x: bytes, starts: np.ndarray, q: np.ndarray) -> list[int]:
    """``vt_syndrome`` of each x[s : s + q]: a segment sum of 1-indexed positions."""
    xs = np.frombuffer(x, dtype=np.uint8)
    out: list[int] = []
    for lo, hi in _steps(q):
        seg, rel, first = _gather(xs, starts[lo:hi], q[lo:hi])
        out += (_segment_sums(seg * (rel + 1), first, q[lo:hi]) % (q[lo:hi] + 1)).tolist()
    return out


def vt_decode(y: BitSeq, syndrome: int, q: int) -> BitSeq:
    """Recover the length-``q`` codeword from ``y`` after at most one deletion."""
    if not 0 <= syndrome <= q:
        raise ValueError("syndrome out of range")
    if len(y) == q:
        if vt_syndrome(y) == syndrome:
            return y
        raise NoCodewordFound("length matches but syndrome differs")
    if len(y) != q - 1:
        raise ValueError("received word must have length q or q-1")
    out = _vt_decode_batch(y.to_bytes01(), *_jobs([0], [q]), [syndrome])[0]
    if isinstance(out, Exception):
        raise out
    return BitSeq(out)


def _vt_decode_batch(y: bytes, starts: np.ndarray, q: np.ndarray, syndromes) -> list:
    """One deletion undone in each y[s : s + q - 1]: the decoded bytes or ``NoCodewordFound``.

    Uses the standard weight/deficiency rule: with D the syndrome deficit and
    wt the weight of the received word, D <= wt means a 0 was deleted to the
    left of the D-th rightmost one (at the end for D = 0), otherwise a 1 was
    deleted to the right of the (D - wt - 1)-th zero.  A result whose own
    syndrome differs is rejected.
    """
    ys = np.frombuffer(y, dtype=np.uint8)
    syndromes = np.asarray(syndromes, dtype=np.int64)
    out: list = []
    for lo, hi in _steps(q - 1):
        m, mod, syn = q[lo:hi] - 1, q[lo:hi] + 1, syndromes[lo:hi]
        seg, rel, first = _gather(ys, starts[lo:hi], m)
        ones_before = _prefix_sums(seg.astype(np.int64))
        end = first + m
        wt = ones_before[end] - ones_before[first]
        total = _segment_sums(seg * (rel + 1), first, m)
        d = (syn - total) % mod
        # Sentinels keep every gather in range; the lanes they serve are masked.
        ones = np.append(np.flatnonzero(seg), 0)
        zeros = np.append(np.flatnonzero(seg == 0), 0)
        insert_one = d > wt
        zeros_needed = d - wt - 1
        at_one = ones[np.clip(ones_before[end] - d, 0, len(ones) - 1)] - first
        zero_at = first - ones_before[first] + zeros_needed - 1
        after_zero = zeros[np.clip(zero_at, 0, len(zeros) - 1)] - first + 1
        pos = np.where(
            insert_one,
            np.where(zeros_needed > 0, after_zero, 0),
            np.where(d == 0, m, at_one),
        )
        pos = np.clip(pos, 0, m)
        ok = ~insert_one | (zeros_needed <= m - wt)
        shifted = ones_before[end] - ones_before[first + pos]  # ones at or after the insertion
        ok &= (total + shifted + insert_one * (pos + 1)) % mod == syn
        for s, n, p, b, good in zip(
            starts[lo:hi].tolist(), m.tolist(), pos.tolist(), insert_one.tolist(), ok.tolist()
        ):
            if good:
                out.append(y[s : s + p] + bytes((b,)) + y[s + p : s + n])
            else:
                out.append(NoCodewordFound("no single insertion achieves the syndrome"))
    return out


# --- keyed-digest multi-deletion code ---

# base -> uint64 array of base^0, base^1, ... mod _P, grown by doubling.  Every
# session seed brings its own four bases, so only the most recently used
# tables are kept (insertion order is use order).
_pow_cache: dict[int, np.ndarray] = {}
_POW_CACHE_TABLES = 16
_POW_SEED = np.ones(1, dtype=np.uint64)  # every table starts as [base^0]


def _powers(base: int, upto: int) -> np.ndarray:
    """base^0 .. base^upto mod _P as uint64 (every entry below 2^31)."""
    pows = _pow_cache.pop(base, _POW_SEED)
    while len(pows) <= upto:
        step = pows[-1] * np.uint64(base) % _P  # base^len(pows)
        pows = np.concatenate((pows, pows * step % _P))
    _pow_cache[base] = pows
    if len(_pow_cache) > _POW_CACHE_TABLES:
        del _pow_cache[next(iter(_pow_cache))]
    return pows[: upto + 1]


def _digests(x: bytes, starts: np.ndarray, q: np.ndarray, bits, spec: CodeSpec) -> list[int]:
    """The keyed digest of each x[s : s + q], cut to its job's ``bits`` low bits.

    Limb k, from bit 31k, is sum_m x[m] * r_k^m mod _P: one gather from the
    power table and a segment sum, exact since every term is below 2^31.
    Only the limbs that reach a step's widest cut are hashed.
    """
    xs = np.frombuffer(x, dtype=np.uint8)
    bits = np.asarray(bits, dtype=object)
    limbs = np.zeros((-(-max(bits, default=0) // 31), len(q)), dtype=np.uint64)
    for lo, hi in _steps(q):
        seg, rel, first = _gather(xs, starts[lo:hi], q[lo:hi])
        top = int(q[lo:hi].max())
        for k, r in enumerate(spec.bases[: -(-max(bits[lo:hi]) // 31)]):
            limbs[k, lo:hi] = _segment_sums(seg * _powers(r, top)[rel], first, q[lo:hi]) % _P
    packed = sum((limb.astype(object) << 31 * k for k, limb in enumerate(limbs)), 0)
    return (packed & ((1 << bits) - 1)).tolist()


def hash_syndrome(x: BitSeq, t: int, spec: CodeSpec) -> BitSeq:
    """Keyed digest of ``x`` truncated to exactly ``redundancy(t, |x|)`` bits, t >= 2."""
    if t == 1:
        raise ValueError("one deletion travels as a VT syndrome, not a digest")
    return make_syndrome(x, t, spec).value


def enumerate_supersequences(y: BitSeq, t: int) -> set[BitSeq]:
    """All distinct binary sequences of length |y|+t containing ``y``."""
    return {BitSeq(z) for z in _supersequences(y.to_bytes01(), t)}


_OTHER_BIT = (b"\x01", b"\x00")


def _supersequences(y: bytes, t: int) -> set[bytes]:
    """``enumerate_supersequences`` on raw bytes.

    Each level inserts one bit at every canonical spot: before a bit that
    differs from it, or at the end.  That yields each one-insertion
    supersequence once, so the sets only drop the repeats that different
    insertion orders make.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    level = {y}
    for _ in range(t):
        nxt: set[bytes] = set()
        for u in level:
            nxt.update(u[:i] + _OTHER_BIT[b] + u[i:] for i, b in enumerate(u))
            nxt.update(u + end for end in _OTHER_BIT)
        level = nxt
    return level


def make_syndrome(x: BitSeq, t: int, spec: CodeSpec) -> Syndrome:
    """Encoder side: the syndrome Alice transmits for ``t`` deletions in ``x``."""
    q = len(x)
    [value] = syndrome_batch(x.to_bytes01(), [0], [q], [t], spec)
    if t == 1:
        return Syndrome("VT", value, q, 1)
    return Syndrome("Hash", BitSeq.from_int(value, spec.redundancy(t, q)), q, t)


def syndrome_batch(x: bytes, starts, q, t, spec: CodeSpec) -> list[int]:
    """The ``make_syndrome`` value of each source x[s : s + q], for many jobs at once:
    a VT syndrome for t = 1, a digest of ``redundancy(t, q)`` bits otherwise."""
    starts, q = _jobs(starts, q)
    t = [int(v) for v in t]
    vt = [j for j in range(len(t)) if t[j] == 1]
    digest = [j for j in range(len(t)) if t[j] != 1]
    out: list = [None] * len(t)
    _fill(out, vt, _vt_syndromes(x, starts[vt], q[vt]))
    bits = [spec.redundancy(t[j], int(q[j])) for j in digest]
    _fill(out, digest, _digests(x, starts[digest], q[digest], bits, spec))
    return out


def _two_insertions_batch(y: bytes, starts, m, targets, bits, spec: CodeSpec) -> list[set[bytes]]:
    """Every two-insertion supersequence of each y[s : s + m] that keeps its digest.

    Meet-in-the-middle over the digest's leading hash limb.  Writing the
    first polynomial hash of a candidate with bits b1, b2 inserted at final
    positions p1 < p2 as A(p1, b1) + B(p2, b2) mod _P turns the search into
    matching two tables of about m values per job: the A-values and the
    values the B-entries need.  The jobs of one step share the tables, each
    key ``job << 31 | value``, and one sort pairs the equal keys, O(m log m).
    Survivors are checked against every further limb the digest reaches by
    the same identity under that limb's base.

    Only canonical insertions enter the tables: an inserted bit differs from
    the y-bit that follows it, or it sits at the end of y.  They are exactly
    the positions the greedy leftmost embedding of y leaves unmatched, so each
    distinct supersequence is tried once, and a run in y adds no repeats.
    """
    ys = np.frombuffer(y, dtype=np.uint8)
    starts, m = _jobs(starts, m)
    out: list[set[bytes]] = []
    for lo, hi in _steps(m + 2):
        out += _two_insertions_step(
            y, ys, starts[lo:hi], m[lo:hi], targets[lo:hi], bits[lo:hi], spec
        )
    return out


def _two_insertions_step(y, ys, starts, m, targets, bits, spec) -> list[set[bytes]]:
    seg, rel, first = _gather(ys, starts, m)
    size = m + 2  # p1 in [0, m] with the flipped bit, then both bits at m
    job = np.repeat(np.arange(len(m)), size)
    loc = np.arange(len(job)) - np.repeat(np.cumsum(size) - size, size)
    m_job = m[job]
    p1 = np.minimum(loc, m_job)  # the B entry of the same row has p2 = p1 + 1
    flips = (loc > m_job).astype(np.uint64)
    inside = np.flatnonzero(loc < m_job)
    flips[inside] = 1 - seg[first[job[inside]] + loc[inside]]
    del loc, m_job, inside

    def hashes(k: int, idx):
        """Under base k, for the entries ``idx``: each A value (p1, flip) and
        each B value (p2 = p1 + 1, flip)."""
        r = spec.bases[k]
        r2 = r * r % _P
        pows = _powers(r, int(m.max()) + 1)
        acc = _prefix_sums(seg * pows[rel])  # exact: every term is below 2^31
        whole = (acc[first + m] - acc[first]) % _P * r2 % _P
        j, q1, f = job[idx], p1[idx], flips[idx]
        pre = acc[first[j] + q1]  # hash of the job's y[:p1]
        pre -= acc[first[j]]
        pre %= _P
        a = pre * ((1 - r) % _P)
        a += f * pows[q1]
        a %= _P
        pre *= (r - r2) % _P
        pre += whole[j]
        pre += f * pows[q1 + 1]
        pre %= _P
        return a, pre

    def limb(k: int) -> np.ndarray:
        return np.array([(v >> (31 * k)) & ((1 << 31) - 1) for v in targets], dtype=np.uint64)

    a_val, need = hashes(0, slice(None))
    np.subtract(limb(0)[job] + _P, need, out=need)
    need %= _P
    # One sort matches the tables: each key is job << 31 | value, shifted
    # left over a table bit (A below need) and the row.  It fits 63 bits
    # while a step holds one job or at most 2^16 rows (``_CHUNK``).
    shift = len(job).bit_length() + 1
    if (len(m) - 1).bit_length() + 31 + shift > 63:
        raise ValueError("table keys would overflow 63 bits; lower _CHUNK")
    row = np.arange(len(job))
    keys = np.concatenate((job << 31 | a_val.view(np.int64), job << 31 | need.view(np.int64)))
    keys <<= shift
    keys[: len(job)] |= row
    keys[len(job) :] |= row | 1 << (shift - 1)
    del a_val, need, row
    keys.sort()
    value = keys >> shift
    equal = value[1:] == value[:-1]
    repeated = np.zeros(len(keys), dtype=bool)  # rows whose key occurs more than once
    repeated[1:] = equal
    repeated[:-1] |= equal
    keys = keys[repeated]
    value, rows = keys >> shift, keys & ((1 << (shift - 1)) - 1)
    is_need = (keys >> (shift - 1) & 1).astype(bool)
    a_value, a_rows = value[~is_need], rows[~is_need]  # ascending by value
    lo = np.searchsorted(a_value, value[is_need], side="left")
    hits = np.searchsorted(a_value, value[is_need], side="right") - lo
    b_idx = np.repeat(rows[is_need], hits)
    a_idx = a_rows[np.repeat(lo - (np.cumsum(hits) - hits), hits) + np.arange(len(b_idx))]
    keep = p1[a_idx] <= p1[b_idx]  # p1 < p2
    a_idx, b_idx = a_idx[keep], b_idx[keep]

    limbs = np.array([-(-b // 31) for b in bits])
    for k in range(1, int(limbs[job[a_idx]].max(initial=0))):
        on = limbs[job[a_idx]] > k  # survivors whose digest reaches limb k
        a, b = hashes(k, np.concatenate((a_idx[on], b_idx[on])))
        got = (a[: on.sum()] + b[on.sum() :]) % _P
        j = job[a_idx[on]]
        width = np.minimum(np.array(bits)[j] - 31 * k, 31).astype(np.uint64)
        mask = (np.uint64(1) << width) - np.uint64(1)
        ok = np.ones(len(a_idx), dtype=bool)
        ok[on] = got & mask == limb(k)[j] & mask
        a_idx, b_idx = a_idx[ok], b_idx[ok]

    found: list[set[bytes]] = [set() for _ in range(len(m))]
    for j, q1, b1, q2, b2 in zip(
        job[a_idx].tolist(), p1[a_idx].tolist(), flips[a_idx].tolist(),
        (p1[b_idx] + 1).tolist(), flips[b_idx].tolist(),
    ):
        s = int(starts[j])
        w = y[s : s + int(m[j])]
        found[j].add(w[:q1] + bytes((b1,)) + w[q1 : q2 - 1] + bytes((b2,)) + w[q2 - 1 :])
    return found


def _walk_decode_batch(y: bytes, starts, q, t, targets, spec: CodeSpec) -> list:
    """``t`` deletions undone in each y[s : s + q - t] by walking its supersequences:
    the decoded bytes, ``NoCodewordFound`` or ``AmbiguousDecode``.

    A job's whole supersequence space is hashed in one ``_digests`` call, so
    at most one job's candidates are held at a time.  A job whose space
    holds more than ``MAX_WALK`` candidates raises ``ValueError``.
    """
    out: list = []
    for s, qj, tj, target in zip(starts.tolist(), q.tolist(), t.tolist(), targets):
        space = _walk_space(qj, tj)
        if space > MAX_WALK:
            raise ValueError(f"supersequence space of ~{space} candidates is too large to walk")
        words = list(_supersequences(y[s : s + qj - tj], tj))
        n, bits = len(words), spec.redundancy(tj, qj)
        got = _digests(b"".join(words), np.arange(n) * qj, np.full(n, qj), [bits] * n, spec)
        out.append(_single({z for z, v in zip(words, got) if v == target}, tj, bits))
    return out


def _walk_space(q: int, t: int) -> int:
    """Supersequence candidates of a length-(q - t) word, counted with repeats."""
    return math.comb(q, t) * 2**t


def _decoder(q: int, t: int, spec: CodeSpec) -> str:
    """The decoder that undoes ``t`` deletions in a length-``q`` source.

    "VT" for one deletion; "pair", the meet-in-the-middle, for two under a
    digest that fills its first 31-bit limb; the supersequence "walk" for
    every other count.
    """
    if t == 1:
        return "VT"
    if t == 2 and spec.redundancy(2, q) >= 31:
        return "pair"
    return "walk"


def can_decode(q: int, t: int, spec: CodeSpec) -> bool:
    """Whether ``decode_batch`` can undo ``t`` (1 <= t <= w) deletions in a length-``q`` source.

    VT and the meet-in-the-middle always can; the walk's supersequence space
    must hold at most ``MAX_WALK`` candidates.
    """
    return _decoder(q, t, spec) != "walk" or _walk_space(q, t) <= MAX_WALK


def decode_batch(y: bytes, starts, q, t, values, spec: CodeSpec) -> list[bytes | Exception]:
    """``multi_decode`` of many jobs at once, each through the decoder ``_decoder`` picks.

    Job j received y[s : s + q - t] with ``t`` >= 1 deletions and the
    syndrome value ``values[j]`` (``syndrome_batch``'s).  Returns, per job,
    the decoded source's bytes or the ``NoCodewordFound`` /
    ``AmbiguousDecode`` that ``multi_decode`` would raise.  VT jobs are
    decoded together, and so are all meet-in-the-middle jobs, by one table
    match per step.  A job past ``can_decode`` raises ``ValueError``.
    """
    starts, q = _jobs(starts, q)
    t = np.asarray(t, dtype=np.int64)
    lanes: dict[str, list[int]] = {"VT": [], "pair": [], "walk": []}
    for j, (qj, tj) in enumerate(zip(q.tolist(), t.tolist())):
        lanes[_decoder(qj, tj, spec)].append(j)
    vt, pair, walk = lanes.values()
    out: list = [None] * len(t)
    _fill(out, vt, _vt_decode_batch(y, starts[vt], q[vt], [values[j] for j in vt]))
    bits = [spec.redundancy(2, int(q[j])) for j in pair]
    found = _two_insertions_batch(
        y, starts[pair], q[pair] - 2, [values[j] for j in pair], bits, spec
    )
    _fill(out, pair, [_single(f, 2, b) for f, b in zip(found, bits)])
    _fill(out, walk, _walk_decode_batch(
        y, starts[walk], q[walk], t[walk], [values[j] for j in walk], spec
    ))
    return out


def multi_decode(y: BitSeq, t: int, syndrome: Syndrome | None, q: int, spec: CodeSpec) -> BitSeq:
    """Recover the length-``q`` source from ``y`` after exactly ``t`` deletions."""
    if len(y) != q - t:
        raise ValueError("received length inconsistent with t")
    if t == 0:
        return y
    if t < 0 or t > spec.w:
        raise ValueError(f"t={t} outside code capability")
    if syndrome is None:
        raise ValueError("syndrome required for t >= 1")
    if (syndrome.kind == "VT") != (t == 1):
        raise ValueError("one deletion travels as a VT syndrome, more as a digest")
    value = syndrome.value if t == 1 else syndrome.value.to_int()
    out = decode_batch(y.to_bytes01(), [0], [q], [t], [value], spec)[0]
    if isinstance(out, Exception):
        raise out
    return BitSeq(out)
