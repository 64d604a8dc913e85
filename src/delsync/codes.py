"""Deletion-correcting codes used by section recovery.

Two code families live here:

* the classic Varshamov-Tenengolts single-deletion code, with the standard
  O(q) weight/deficiency decoder (the syndrome formula ``sum i*x_i mod q+1``
  is the textbook construction, imported here as an external definition);
* a keyed-digest syndrome code for two up to ``w`` deletions whose redundancy
  for ``t`` deletions on a length-``q`` source is exactly
  ``ceil(t * a_t * log2 q)`` bits.

One deletion always travels as a VT syndrome, more as a digest, of
``syndrome_bits`` bits.  A syndrome is its wire bytes: ``syndrome_batch``
returns every job's payload back to back, and ``decode_batch`` reads its hash
limbs, or VT value, from such a payload (``_to_payload``/``_from_payload``).
Each batch sorts its jobs into lanes and lays out a lane's parts back to back once; a lane's
kernel then walks that buffer in steps of at most ``_CHUNK`` bytes or table
rows, reading every part from its offset in the step, so no step gathers its
parts anew.  ``_decoder(t, bits)`` alone picks each job's decode lane: VT
for one deletion; for two under a digest of at least 31 bits, a
meet-in-the-middle pass over the digest's leading hash limb, which matches
two sorted tables of O(q) canonical insertions, so that search takes
O(q log q) time, runs in the received word included; for every other count,
a walk of the whole supersequence space, hashed by the same kernel as the
syndromes, which may hold at most ``MAX_WALK`` candidates.  ``can_decode``
tells a caller in advance whether a (q, t) pair is within reach, its
syndrome within ``MAX_SYNDROME_BITS`` included.  ``make_syndrome`` and ``multi_decode`` are batches of one part.

The digest key (four polynomial-hash bases) is derived from the session seed
and known to both parties; it is never counted as transmitted bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BitSeq, check_code, substream

__all__ = [
    "AmbiguousDecode",
    "CodeSpec",
    "MAX_SYNDROME_BITS",
    "MAX_WALK",
    "NoCodewordFound",
    "Syndrome",
    "can_decode",
    "decode_batch",
    "make_syndrome",
    "multi_decode",
    "syndrome_batch",
    "syndrome_bits",
]

_P = (1 << 31) - 1  # Mersenne prime; 31-bit hash limbs keep products in 62 bits
_N_BASES = 4
MAX_SYNDROME_BITS = 31 * _N_BASES
# Most candidates the walk decoder tries.  A walk at the limit (t = 3,
# q = 58) takes about 0.12 s on 2 cores, about 0.06-0.09 s of it spent
# enumerating the candidates in Python and the rest in the digest kernel.
MAX_WALK = 250_000


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
        check_code(self.w, self.a)
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
    """Syndrome bits for ``t`` (1 <= t <= w) deletions in a length-``q`` source:
    ceil(log2(q + 1)) for VT, ceil(t * a_t * log2 q) for a digest, which
    raises ``ValueError`` past ``MAX_SYNDROME_BITS``."""
    if t == 1:
        return _vt_bits(q)
    if not 2 <= t <= spec.w:
        raise ValueError(f"t={t} outside [1, {spec.w}]")
    return _digest_bits(t, spec.a[t - 1], q)


# --- batch plumbing ---

# Most bytes, or table rows, that one step of a batch works on; a larger job
# takes a step of its own.  Keeps a batch's temporaries near 1 MB.
_CHUNK = 1 << 13


def _lane_steps(lens: np.ndarray):
    """Split parts laid out back to back into steps of consecutive parts whose
    lengths sum to at most ``_CHUNK``; a longer part takes a step of its own.

    Yields each step's job range [lo, hi), its byte range [base, stop) and
    where each of its parts begins within the step.
    """
    ends = np.cumsum(lens)
    starts = ends - lens
    lo = 0
    while lo < len(lens):
        base = int(starts[lo])
        hi = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), lo + 1)
        yield lo, hi, base, int(ends[hi - 1]), starts[lo:hi] - base
        lo = hi


def _lay_out(buf: bytes, starts: np.ndarray, lens: np.ndarray, end: bytes = b"") -> bytes:
    """The parts buf[s : s + l] back to back, each followed by ``end``."""
    parts = [buf[s : s + n] for s, n in zip(starts.tolist(), lens.tolist())]
    return end.join(parts + [b""]) if parts else b""


def _segment_sums(values: np.ndarray, first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The sum of each part values[f : f + l] of parts that fill ``values`` back to back.

    ``np.add.reduceat`` gives an empty part the element after it, so only
    the non-empty parts are summed and the empty ones stay 0.
    """
    full = lens > 0
    if full.all():
        return np.add.reduceat(values, first)
    out = np.zeros(len(lens), dtype=values.dtype)
    if full.any():
        out[full] = np.add.reduceat(values, first[full])
    return out


def _fold(a: np.ndarray) -> np.ndarray:
    """``a % _P`` in place for any uint64 ``a``: two Mersenne folds
    (a & _P) + (a >> 31) leave at most _P + 5, and one conditional
    subtraction, the smaller of a and a - _P in wrapping arithmetic, ends it."""
    high = a >> 31
    a &= _P
    a += high
    np.right_shift(a, 31, out=high)
    a &= _P
    a += high
    np.subtract(a, _P, out=high)
    np.minimum(a, high, out=a)
    return a


def _spread(lane: np.ndarray, at: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``lane`` with each bits[i] placed at position at[i] of the result (the
    ``at`` distinct), and the lane's own bytes in order around them."""
    out = np.empty(len(lane) + len(at), dtype=np.uint8)
    kept = np.ones(len(out), dtype=bool)
    kept[at] = False
    out[kept] = lane
    out[at] = bits
    return out


def _jobs(starts, lens) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(starts, dtype=np.int64), np.asarray(lens, dtype=np.int64)


def _fill(out: list, jobs: np.ndarray, results) -> None:
    for j, r in zip(jobs.tolist(), results):
        out[j] = r


def _single(found: set[bytes], t: int, bits: int) -> bytes | Exception:
    """The one candidate that matched, or the error ``multi_decode`` raises."""
    if not found:
        return NoCodewordFound(f"no {t}-insertion candidate matches the syndrome")
    if len(found) > 1:
        return AmbiguousDecode(f"{len(found)} candidates match a {bits}-bit syndrome")
    return next(iter(found))


# --- Varshamov-Tenengolts single-deletion code ---


def _vt_sums(seg: np.ndarray, first: np.ndarray, lens: np.ndarray):
    """The ones of ``seg`` (its parts back to back), how many lie before each
    part's end, each part's weight, and each part's sum of 1-indexed one positions."""
    ones = np.flatnonzero(seg.view(bool))
    to_end = np.searchsorted(ones, first + lens)
    wt = to_end - np.searchsorted(ones, first)
    at = _segment_sums(ones, to_end - wt, wt)
    return ones, to_end, wt, at - (first - 1) * wt


def _vt_syndromes(x: bytes, starts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The VT syndrome of each x[s : s + q]: the sum of i * x_i over its
    1-indexed positions, mod q + 1."""
    lane = np.frombuffer(_lay_out(x, starts, q), dtype=np.uint8)
    out = np.empty(len(q), dtype=np.int64)
    for lo, hi, base, stop, first in _lane_steps(q):
        n = q[lo:hi]
        total = _vt_sums(lane[base:stop], first, n)[3]
        out[lo:hi] = total % (n + 1)
    return out


def _vt_decode_batch(y: bytes, starts: np.ndarray, q: np.ndarray, syndromes: np.ndarray) -> list:
    """One deletion undone in each y[s : s + q - 1]: the decoded bytes or ``NoCodewordFound``.

    Uses the standard weight/deficiency rule: with D the syndrome deficit and
    wt the weight of the received word, D <= wt means a 0 was deleted to the
    left of the D-th rightmost one (at the end for D = 0), otherwise a 1 was
    deleted to the right of the (D - wt - 1)-th zero.  Each step reads both
    from the list of its ones, and one masked write over the lane lays out
    every decoded word.  A result whose own syndrome differs is rejected.
    """
    m = q - 1
    lane = np.frombuffer(_lay_out(y, starts, m), dtype=np.uint8)
    at = np.empty(len(m), dtype=np.int64)  # where each decoded word's inserted bit lands
    bit = np.empty(len(m), dtype=bool)
    ok = np.empty(len(m), dtype=bool)
    for lo, hi, base, stop, first in _lane_steps(m):
        seg, n, syn = lane[base:stop], m[lo:hi], syndromes[lo:hi]
        ones, to_end, wt, total = _vt_sums(seg, first, n)
        mod = n + 2
        d = (syn - total) % mod
        insert_one = d > wt
        zeros_needed = d - wt - 1
        # The (to_end - d)-th one of the step, and the z-th zero: it follows
        # the ones with at most z zeros before them.  Indices past either
        # list belong to jobs masked below; a sentinel keeps ``take`` in range.
        at_one = np.append(ones, 0).take(to_end - d, mode="clip") - first
        z = first - (to_end - wt) + zeros_needed - 1
        after_zero = z + np.searchsorted(ones - np.arange(len(ones)), z, side="right") - first + 1
        pos = np.where(
            insert_one,
            np.where(zeros_needed > 0, after_zero, 0),
            np.where(d == 0, n, at_one),
        )
        pos = np.minimum(np.maximum(pos, 0), n)
        good = ~insert_one | (zeros_needed <= n - wt)
        shifted = to_end - np.searchsorted(ones, first + pos)  # ones at or after pos
        good &= (total + shifted + insert_one * (pos + 1)) % mod == syn
        # In the decoded words, job j's inserted bit lies j bytes further on.
        at[lo:hi], bit[lo:hi], ok[lo:hi] = base + first + pos + np.arange(lo, hi), insert_one, good
    words = _spread(lane, at, bit).tobytes()
    ends = np.cumsum(q).tolist()
    out = [words[e - n : e] for e, n in zip(ends, q.tolist())]
    for j in np.flatnonzero(~ok).tolist():
        out[j] = NoCodewordFound("no single insertion achieves the syndrome")
    return out


# --- keyed-digest multi-deletion code ---

# base -> uint64 array of base^0, base^1, ... mod _P, grown on demand.  Every
# session seed brings its own four bases, so only the most recently used
# tables are kept (insertion order is use order).
_pow_cache: dict[int, np.ndarray] = {}
_POW_CACHE_TABLES = 16
_POW_SEED = np.ones(1, dtype=np.uint64)  # every table starts as [base^0]


def _powers(base: int, upto: int) -> np.ndarray:
    """base^0 .. base^upto mod _P as uint64 (every entry below 2^31)."""
    pows = _pow_cache.pop(base, _POW_SEED)
    if len(pows) <= upto:
        # base^(lo + a w + b) for the missing exponents: the outer product of
        # about sqrt(count) powers a apart and as many consecutive ones
        lo, count = len(pows), upto + 1 - len(pows)
        w = math.isqrt(count) + 1
        run = [1]
        for _ in range(w):
            run.append(run[-1] * base % _P)
        far = [pow(base, lo, _P)]
        for _ in range(-(-count // w) - 1):
            far.append(far[-1] * run[w] % _P)
        steps = np.array(far, dtype=np.uint64)[:, None] * np.array(run[:w], dtype=np.uint64)
        pows = np.concatenate((pows, (steps % _P).ravel()[:count]))
    _pow_cache[base] = pows
    if len(_pow_cache) > _POW_CACHE_TABLES:
        del _pow_cache[next(iter(_pow_cache))]
    return pows[: upto + 1]


def _hash_limbs(lane: np.ndarray, lens: np.ndarray, reach: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Hash limbs of each part of ``lane`` (parts back to back), one row per limb.

    Limb k of a part is sum_m x[m] * r_k^m mod _P.  A step weighs its bytes
    by the powers of their position in the step, in one product and one
    segment sum per limb, and scales each part back by r_k^-(its start),
    read from the same powers.  A part's limbs past its ``reach`` are those
    of the widest in its step, or 0.
    """
    limbs = np.zeros((int(reach.max(initial=0)), len(lens)), dtype=np.uint64)
    for lo, hi, base, stop, first in _lane_steps(lens):
        seg, n = lane[base:stop], lens[lo:hi]
        need = reach[lo:hi]
        for k in range(int(need.max())):
            r = spec.bases[k]
            pows = _powers(r, len(seg))
            h = _segment_sums(seg * pows[:-1], first, n) % _P
            if hi - lo > 1:  # r^-s = r^(len - s) * r^-len
                h *= pows[len(seg) - first]
                h %= _P
                h *= pow(r, -len(seg), _P)
                h %= _P
            limbs[k, lo:hi] = h
    return limbs


def _cut(limbs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Each column's limbs cut, in place, to the low ``bits`` bits of the value they form."""
    width = np.minimum(np.maximum(bits - 31 * np.arange(len(limbs))[:, None], 0), 31)
    width = width.astype(np.uint64)
    limbs &= (np.uint64(1) << width) - np.uint64(1)
    return limbs


def _rows(bits: np.ndarray) -> tuple[int, np.ndarray]:
    """The limbs a row of payloads reaches: as many as the widest of ``bits``
    and at least two, so a VT value below 2^62 always has room.  With them,
    where each job's payload lies in its row of those limbs, most significant
    first: the row's last ``bits`` bits.  A width outside [1,
    ``MAX_SYNDROME_BITS``] raises ``ValueError``."""
    if len(bits) and not 1 <= bits.min() <= bits.max() <= MAX_SYNDROME_BITS:
        raise ValueError(f"syndrome widths must lie in [1, {MAX_SYNDROME_BITS}]")
    reach = max(2, -(-int(bits.max(initial=1)) // 31))
    return reach, np.arange(31 * reach) >= 31 * reach - bits[:, None]


def _to_payload(limbs: np.ndarray, bits: np.ndarray) -> bytes:
    """The low bits[j] bits of the value that column j of ``limbs`` forms (limb
    k weighs 2^(31 k)), big-endian and one 0/1 byte each, the columns' back
    to back: ``BitSeq.from_int(value mod 2^bits[j], bits[j])`` of each.

    ``limbs`` holds 31-bit limbs in at least ``_rows(bits)`` rows; rows
    past that are not read.
    """
    reach, kept = _rows(bits)
    words = limbs[reach - 1 :: -1].T.astype(">u4", order="C").view(np.uint8)
    rows = np.unpackbits(words.reshape(len(bits), reach, 4), axis=2)[:, :, 1:]
    return rows.reshape(len(bits), 31 * reach)[kept].tobytes()


def _from_payload(payload: bytes, bits: np.ndarray) -> np.ndarray:
    """The limbs of each job's value, one column per job and ``_rows(bits)``
    rows: the inverse of ``_to_payload``, with every bit past a job's
    ``bits`` 0.  A payload whose length is not the sum of ``bits`` raises
    ``ValueError``."""
    if len(payload) != int(bits.sum()):
        raise ValueError(f"a payload of {len(payload)} bits for {int(bits.sum())} syndrome bits")
    reach, kept = _rows(bits)
    rows = np.zeros((len(bits), 31 * reach), dtype=np.uint8)
    rows[kept] = np.frombuffer(payload, dtype=np.uint8)
    words = np.zeros((len(bits), reach, 32), dtype=np.uint8)
    words[:, :, 1:] = rows.reshape(len(bits), reach, 31)
    limbs = np.packbits(words, axis=2).view(">u4")[:, ::-1, 0]
    return limbs.T.astype(np.uint64)


_OTHER_BIT = (b"\x01", b"\x00")


def _supersequences(y: bytes, t: int) -> set[bytes]:
    """All distinct binary words of length |y| + t that contain ``y``.

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
    bits = syndrome_bits(q, t, spec)
    payload = BitSeq(syndrome_batch(x.to_bytes01(), [0], [q], [t], [bits], spec))
    if t == 1:
        return Syndrome("VT", payload.to_int(), q, 1)
    return Syndrome("Hash", payload, q, t)


def syndrome_batch(x: bytes, starts, q, t, bits, spec: CodeSpec) -> bytes:
    """Every job's syndrome payload, back to back, for many jobs at once.

    Job j's payload is its ``bits[j]`` wire bits (``syndrome_bits`` gives the
    width a session sends), one 0/1 byte each: the low bits of the VT
    syndrome of x[s : s + q] for t = 1, of its keyed digest otherwise, most
    significant first.  A width outside [1, ``MAX_SYNDROME_BITS``] raises
    ``ValueError``.
    """
    starts, q = _jobs(starts, q)
    t, bits = np.asarray(t, dtype=np.int64), np.asarray(bits, dtype=np.int64)
    limbs = np.zeros((_rows(bits)[0], len(t)), dtype=np.uint64)
    vt, digest = np.flatnonzero(t == 1), np.flatnonzero(t != 1)
    if len(vt):
        value = _vt_syndromes(x, starts[vt], q[vt])
        limbs[0, vt], limbs[1, vt] = value & _P, value >> 31
    if len(digest):
        lane = np.frombuffer(_lay_out(x, starts[digest], q[digest]), dtype=np.uint8)
        got = _hash_limbs(lane, q[digest], -(-bits[digest] // 31), spec)
        limbs[: len(got), digest] = got
    return _to_payload(limbs, bits)


# Each received word of the pair lane is followed by these two end rows; a
# row inserts the flip of its byte, so they insert a 1 and a 0 at the end.
_END_ROWS = b"\x00\x01"


def _two_insertions_batch(y: bytes, starts, m, limbs, bits, spec: CodeSpec) -> list[set[bytes]]:
    """Every two-insertion supersequence of each y[s : s + m] that keeps its digest:
    the ``bits``-bit value whose limbs are the job's column of ``limbs``.

    Meet-in-the-middle over the digest's leading hash limb.  Writing the
    first polynomial hash of a candidate with bits b1, b2 inserted at final
    positions p1 < p2 as A(p1, b1) + B(p2, b2) mod _P turns the search into
    matching two tables of about m values per job: the A-values and the
    values the B-entries need.  The jobs of one step share the tables, and
    one sort pairs the equal values, O(m log m).  The words of the pairs that
    match are written out in one pass and hashed whole by ``_hash_limbs``,
    which checks every limb the digest reaches.

    Only canonical insertions enter the tables: an inserted bit differs from
    the y-bit that follows it, or it sits at the end of y.  They are exactly
    the positions the greedy leftmost embedding of y leaves unmatched, so each
    distinct supersequence is tried once, and a run in y adds no repeats.
    """
    starts, m = _jobs(starts, m)
    reach = -(-bits // 31)
    lane = np.frombuffer(_lay_out(y, starts, m, _END_ROWS), dtype=np.uint8)
    pairs = [
        _two_insertions_step(lane[base:stop], first, m[lo:hi], limbs[0, lo:hi], spec, lo)
        for lo, hi, base, stop, first in _lane_steps(m + 2)
    ]
    found: list[set[bytes]] = [set() for _ in range(len(m))]
    if not any(len(step[0]) for step in pairs):
        return found
    job, p1, b1, p2, b2 = (np.concatenate(field) for field in zip(*pairs))
    q = m[job] + 2
    words = np.frombuffer(_lay_out(y, starts[job], q - 2), dtype=np.uint8)
    ends = np.cumsum(q)  # b1 and b2 land at p1 and p2 of each candidate
    cands = _spread(words, np.concatenate((ends - q + p1, ends - q + p2)), np.concatenate((b1, b2)))
    got = _cut(_hash_limbs(cands, q, reach[job], spec), bits[job])
    cands = cands.tobytes()
    for i in np.flatnonzero((got == limbs[: len(got), job]).all(axis=0)).tolist():
        found[job[i]].add(cands[ends[i] - q[i] : ends[i]])
    return found


def _two_insertions_step(rows, first, m, targets, spec: CodeSpec, job0: int):
    """The insertion pairs whose candidate matches the leading limb of its target,
    as arrays job, p1, b1, p2, b2, for jobs ``job0``, ``job0 + 1``, ... whose rows
    begin at ``first`` in ``rows``.

    Each job's rows are its word and ``_END_ROWS``, so row i of a job
    inserts the flip of its byte before position i.  With acc[i] the step's
    hash of the rows before row i, weighed by r^i (its row in the step), a
    job starting at row s with its end rows at e = s + m holds
    r^s * (A(p1, b1) + B(p2, b2)) = A'(s + p1) + B'(s + p2 - 1) + r^2 acc[e] - acc[s],
    where A'(i) = acc[i] (1 - r) + b_i r^i and B'(i) = r A'(i).  So one prefix
    sum over the step gives both tables.
    """
    n_rows = len(rows)
    size = m + 2
    end = first + m
    r = spec.bases[0]
    pows = _powers(r, n_rows - 1)
    terms = rows * pows
    acc = np.zeros(n_rows + 1, dtype=np.uint64)
    np.cumsum(terms, out=acc[1:])  # exact: the sum stays below 2^47
    acc = (acc & _P) + (acc >> 31)  # acc mod _P, up to a _P more
    a_val = acc[:-1] * ((1 - r) % _P)
    a_val += pows
    a_val -= terms  # the flipped bits' powers
    _fold(a_val)
    # The value each job's A-entries need: target r^s + acc[s] - r^2 acc[e] - B',
    # kept positive by _P 2^31, which exceeds every B'.
    const = (targets * pows[first] + acc[first] + (_P - acc[end] % _P) * (r * r % _P)) % _P
    need = np.repeat(const + (_P << 31), size)
    need -= a_val * r
    _fold(need)

    # One sort matches the tables: each key is a value shifted left over a
    # table bit (A below need) and the row.  A value shared by two jobs pairs
    # rows of both; those pairs are dropped below.
    shift = n_rows.bit_length() + 1
    keys = np.empty(2 * n_rows, dtype=np.int64)
    np.left_shift(a_val.view(np.int64), shift, out=keys[:n_rows])
    np.left_shift(need.view(np.int64), shift, out=keys[n_rows:])
    del a_val, need
    row = np.arange(n_rows)
    keys[:n_rows] |= row
    row |= 1 << (shift - 1)
    keys[n_rows:] |= row
    keys.sort()
    value = keys >> shift
    equal = value[1:] == value[:-1]
    repeated = np.zeros(len(keys), dtype=bool)  # rows whose key occurs more than once
    repeated[1:] = equal
    repeated[:-1] |= equal
    keys = keys[repeated]
    value, row = keys >> shift, keys & ((1 << (shift - 1)) - 1)
    is_need = (keys >> (shift - 1) & 1).astype(bool)
    a_value, a_row = value[~is_need], row[~is_need]  # ascending by value
    lo = np.searchsorted(a_value, value[is_need], side="left")
    hits = np.searchsorted(a_value, value[is_need], side="right") - lo
    b = np.repeat(row[is_need], hits)
    a = a_row[np.repeat(lo - (np.cumsum(hits) - hits), hits) + np.arange(len(b))]
    j = np.searchsorted(first, a, side="right") - 1
    off_a, off_b = a - first[j], b - first[j]
    p1, p2 = np.minimum(off_a, m[j]), np.minimum(off_b, m[j]) + 1
    keep = (p1 < p2) & (off_b < size[j])  # p1 < p2, and b in a's job
    return j[keep] + job0, p1[keep], 1 - rows[a[keep]], p2[keep], 1 - rows[b[keep]]


def _walk_decode_batch(y: bytes, starts, q, t, limbs, bits, spec: CodeSpec) -> list:
    """``t`` deletions undone in each y[s : s + q - t] by walking its supersequences
    for the ``bits``-bit digest whose limbs are the job's column of ``limbs``:
    the decoded bytes, ``NoCodewordFound`` or ``AmbiguousDecode``.

    The candidates of consecutive jobs are laid out in steps of at most
    ``_CHUNK`` bytes and hashed by one ``_hash_limbs`` call per step; a job
    with more takes a step of its own, so at most one step's candidates are
    held at a time.  A job whose space holds more than ``MAX_WALK``
    candidates raises ``ValueError``.
    """
    for qj, tj in zip(q.tolist(), t.tolist()):
        space = _walk_space(qj, tj)
        if space > MAX_WALK:
            raise ValueError(f"supersequence space of ~{space} candidates is too large to walk")
    reach = -(-bits // 31)
    words = np.array([_walk_words(qj, tj) for qj, tj in zip(q.tolist(), t.tolist())])
    out: list = []
    for lo, hi, _, _, _ in _lane_steps(words * q):
        held = [
            list(_supersequences(y[s : s + qj - tj], tj))
            for s, qj, tj in zip(starts[lo:hi].tolist(), q[lo:hi].tolist(), t[lo:hi].tolist())
        ]
        job = np.repeat(np.arange(lo, hi), words[lo:hi])
        lane = np.frombuffer(b"".join(w for ws in held for w in ws), dtype=np.uint8)
        got = _cut(_hash_limbs(lane, q[job], reach[job], spec), bits[job])
        hit = (got == limbs[: len(got), job]).all(axis=0)
        first = 0
        for j, ws in zip(range(lo, hi), held):
            found = {ws[i] for i in np.flatnonzero(hit[first : first + len(ws)]).tolist()}
            out.append(_single(found, int(t[j]), int(bits[j])))
            first += len(ws)
    return out


def _walk_space(q: int, t: int) -> int:
    """Supersequence candidates of a length-(q - t) word, counted with repeats."""
    return math.comb(q, t) * 2**t


@lru_cache(maxsize=1 << 10)
def _walk_words(q: int, t: int) -> int:
    """Distinct supersequences of a length-(q - t) word, whatever the word."""
    return sum(math.comb(q, i) for i in range(t + 1))


_VT, _PAIR, _WALK = 0, 1, 2  # decoder lanes


def _decoder(t, bits):
    """The lane that undoes ``t`` deletions under a ``bits``-bit syndrome, for
    ints or arrays alike.

    ``_VT`` for one deletion; ``_PAIR``, the meet-in-the-middle, for two
    under a digest that fills its first 31-bit limb; the supersequence
    ``_WALK`` for every other count.
    """
    pair = (t == 2) & (bits >= 31)
    return (t != 1) * (_WALK - pair)


def can_decode(q: int, t: int, spec: CodeSpec) -> bool:
    """Whether ``decode_batch`` can undo ``t`` (1 <= t <= w) deletions in a
    length-``q`` source under a ``syndrome_bits`` syndrome.

    VT and the meet-in-the-middle always can, within ``MAX_SYNDROME_BITS``;
    the walk's supersequence space must hold at most ``MAX_WALK`` candidates.
    """
    try:
        bits = syndrome_bits(q, t, spec)
    except ValueError:  # a digest wider than MAX_SYNDROME_BITS, or t outside [1, w]
        return False
    return _decoder(t, bits) != _WALK or _walk_space(q, t) <= MAX_WALK


def decode_batch(
    y: bytes, starts, q, t, payload: bytes, bits, spec: CodeSpec
) -> list[bytes | Exception]:
    """``multi_decode`` of many jobs at once, each through the lane ``_decoder`` picks.

    Job j received y[s : s + q - t] with ``t`` >= 1 deletions and the
    ``bits[j]``-bit syndrome that comes next in ``payload`` (``syndrome_batch``'s
    layout).  Returns, per job, the decoded source's bytes or the
    ``NoCodewordFound`` / ``AmbiguousDecode`` that ``multi_decode`` would
    raise.  The payloads are parsed into hash limbs in one pass, a VT value
    from its first two.  Each lane's received words are laid out back to
    back once; VT jobs are decoded together, and so are all
    meet-in-the-middle jobs, by one table match per step.  A width outside
    [1, ``MAX_SYNDROME_BITS``], a payload that does not hold the sum of
    ``bits`` or a job past ``can_decode`` raises ``ValueError``.
    """
    starts, q = _jobs(starts, q)
    t, bits = np.asarray(t, dtype=np.int64), np.asarray(bits, dtype=np.int64)
    limbs = _from_payload(payload, bits)
    lane = _decoder(t, bits)
    vt, pair, walk = (np.flatnonzero(lane == code) for code in (_VT, _PAIR, _WALK))
    out: list = [None] * len(t)
    if len(vt):
        value = (limbs[0, vt] | limbs[1, vt] << np.uint64(31)).astype(np.int64)
        value[limbs[2:, vt].any(axis=0)] = -1  # at least 2^62: no VT class
        _fill(out, vt, _vt_decode_batch(y, starts[vt], q[vt], value))
    if len(pair):
        hit = _two_insertions_batch(y, starts[pair], q[pair] - 2, limbs[:, pair], bits[pair], spec)
        _fill(out, pair, map(_single, hit, [2] * len(pair), bits[pair].tolist()))
    if len(walk):
        decoded = _walk_decode_batch(
            y, starts[walk], q[walk], t[walk], limbs[:, walk], bits[walk], spec
        )
        _fill(out, walk, decoded)
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
    if t == 1 and not 0 <= syndrome.value <= q:
        raise ValueError("VT syndrome outside [0, q]")
    bits = syndrome_bits(q, t, spec)
    payload = BitSeq.from_int(syndrome.value, bits) if t == 1 else syndrome.value
    if len(payload) != bits:
        raise ValueError(f"a syndrome of {len(payload)} bits where {bits} travel")
    out = decode_batch(y.to_bytes01(), [0], [q], [t], payload.to_bytes01(), [bits], spec)[0]
    if isinstance(out, Exception):
        raise out
    return BitSeq(out)
