"""Deletion-correcting codes used by section recovery.

Two code families live here:

* the classic Varshamov-Tenengolts single-deletion code, with the standard
  O(q) weight/deficiency decoder (the syndrome formula ``sum i*x_i mod q+1``
  is the textbook construction, imported here as an external definition);
* a keyed-digest syndrome code for two up to ``w`` deletions whose redundancy
  for ``t`` deletions on a length-``q`` source is exactly
  ``ceil(t * a_t * log2 q)`` bits.

One deletion always travels as a VT syndrome, more as a digest, and either
is only its ``syndrome_bits`` wire bits, most significant first, one 0/1
byte each: ``syndrome_batch`` returns every job's payload back to back, and
``decode_batch`` reads its hash limbs, or VT value, from such a payload
(``_to_payload``/``_from_payload``).  Each batch sorts its jobs into lanes
and lays out a lane's parts back to back once; a lane's kernel then walks
that buffer in steps of at most ``_CHUNK`` bytes or table rows, reading
every part from its offset in the step.  ``_decoder(t, bits)`` alone picks
each job's decode lane: VT for one deletion; for two under a digest of at
least 31 bits, a meet-in-the-middle pass over the digest's leading hash
limb, which matches two sorted tables of O(q) canonical insertions in
O(q log q) time and gives each match's leading limb exactly, so only the
limbs after it are hashed; for every other count, a walk of the whole
supersequence space, which may hold at most ``MAX_WALK`` candidates.  Every
lane returns each word that keeps its job's syndrome, and ``decode_batch``
alone counts them: one word decodes the job, none is ``NoCodewordFound``
and more are ``AmbiguousDecode``.  ``syndrome_width`` says in advance what
a (q, t) part sends: the width of a syndrome ``decode_batch`` can undo, or
0 for none.  ``make_syndrome`` and ``multi_decode`` are the two batches of
one part, over the same bits as a ``BitSeq``.

The digest key (four polynomial-hash bases) is derived from the session seed
and known to both parties; it is never counted as transmitted bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import BitSeq, check_code, substream

__all__ = [
    "AmbiguousDecode",
    "CodeSpec",
    "MAX_SYNDROME_BITS",
    "MAX_WALK",
    "NoCodewordFound",
    "decode_batch",
    "make_syndrome",
    "multi_decode",
    "syndrome_batch",
    "syndrome_bits",
    "syndrome_width",
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


def syndrome_bits(q: int, t: int, spec: CodeSpec) -> int:
    """Syndrome bits for ``t`` (1 <= t <= w) deletions in a length-``q`` source:
    ceil(log2(q + 1)) for VT, ceil(t * a_t * log2 q) for a digest, which
    raises ``ValueError`` past ``MAX_SYNDROME_BITS``."""
    if t == 1:
        return max(1, math.ceil(math.log2(q + 1)))
    if not 2 <= t <= spec.w:
        raise ValueError(f"t={t} outside [1, {spec.w}]")
    if q < 2:
        raise ValueError("source length must be >= 2")
    bits = math.ceil(t * spec.a[t - 1] * math.log2(q))
    if bits > MAX_SYNDROME_BITS:
        raise ValueError(f"syndrome of {bits} bits exceeds the {MAX_SYNDROME_BITS}-bit digest")
    return bits


# --- batch plumbing ---

# Most bytes, or table rows, that one step of a batch works on; a larger job
# takes a step of its own.  A full step of the pair lane, the largest, peaks
# at about 0.39 MB of traced temporaries (24 bytes a row), and a hashing
# step of two limbs at about 0.21 MB.
_CHUNK = 1 << 14


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


def _segment_sums(values: np.ndarray, first: np.ndarray, lens: np.ndarray, dtype=None):
    """The sum of each part values[f : f + l] of parts that fill ``values`` back
    to back, in ``dtype`` (that of ``values`` by default).

    ``np.add.reduceat`` gives an empty part the element after it, so only
    the non-empty parts are summed and the empty ones stay 0.
    """
    full = lens > 0
    if full.all():
        return np.add.reduceat(values, first, dtype=dtype)
    out = np.zeros(len(lens), dtype=dtype or values.dtype)
    if full.any():
        out[full] = np.add.reduceat(values, first[full], dtype=dtype)
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


def _jobs(size: int, starts, q, t, bits, spec: CodeSpec, received: bool = False):
    """A batch's job columns as int64 arrays.  A deletion count outside [1, w],
    or for a ``received`` word above its source's length, raises ``ValueError``,
    as does a part outside the ``size``-byte buffer b: b[s : s + q], received b[s : s + q - t]."""
    starts, q, t, bits = (np.asarray(c, dtype=np.int64) for c in (starts, q, t, bits))
    if not ((1 <= t) & (t <= (np.minimum(q, spec.w) if received else spec.w))).all():
        raise ValueError(f"a deletion count outside [1, {spec.w}]{' or above q' * received}")
    if not ((0 <= starts) & (0 <= q) & (starts + (q - t if received else q) <= size)).all():
        raise ValueError(f"a part outside its {size}-byte buffer")
    return starts, q, t, bits


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


def _vt_decode_batch(y: bytes, starts, q, t, limbs, bits, spec: CodeSpec):
    """The one-insertion supersequence of each y[s : s + q - 1] that keeps its VT
    syndrome, the value whose first two limbs are the job's column of
    ``limbs``: the jobs that have one as an array, and their words in step.

    Uses the standard weight/deficiency rule: with D the syndrome deficit and
    wt the weight of the received word, D <= wt means a 0 was deleted to the
    left of the D-th rightmost one (at the end for D = 0), otherwise a 1 was
    deleted to the right of the (D - wt - 1)-th zero.  Each step reads both
    from the list of its ones, and one masked write over the lane lays out
    every decoded word.  A result whose own syndrome differs is dropped, as
    every result is under a value above q.
    """
    syndromes = (limbs[0] | limbs[1] << np.uint64(31)).astype(np.int64)
    syndromes[limbs[2:].any(axis=0)] = -1  # at least 2^62: no VT class
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
    job = np.flatnonzero(ok)
    ends = np.cumsum(q)[job]
    return job, [words[e - n : e] for e, n in zip(ends.tolist(), q[job].tolist())]


# --- keyed-digest multi-deletion code ---

# base -> uint32 array of base^0, base^1, ... mod _P, grown on demand.  Every
# session seed brings its own four bases, and a sweep never meets a key
# twice, so only the most recently used key's tables are kept (insertion
# order is use order).  A table spans a step, about 64 kB at 2^14 rows.
_pow_cache: dict[int, np.ndarray] = {}
_POW_CACHE_TABLES = _N_BASES
_POW_SEED = np.ones(1, dtype=np.uint32)  # every table starts as [base^0]


def _powers(base: int, upto: int) -> np.ndarray:
    """base^0 .. base^upto mod _P as uint32 (every entry below 2^31)."""
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
        steps %= _P
        pows = np.concatenate((pows, steps.ravel()[:count]), dtype=np.uint32)
    _pow_cache[base] = pows
    if len(_pow_cache) > _POW_CACHE_TABLES:
        del _pow_cache[next(iter(_pow_cache))]
    return pows[: upto + 1]


def _hash_limbs(lane: np.ndarray, lens: np.ndarray, reach: np.ndarray, spec: CodeSpec,
                low: int = 0) -> np.ndarray:
    """Hash limbs of each part of ``lane`` (parts back to back), one row per limb.

    Limb k of a part is sum_m x[m] * r_k^m mod _P.  A step weighs its bytes
    by the powers of their position in the step, in one product and one
    segment sum per limb, and scales each part back by r_k^-(its start),
    read from the same powers.  A part's limbs past its ``reach`` are those
    of the widest in its step, or 0; so are the rows below ``low``, which
    are not hashed.
    """
    limbs = np.zeros((int(reach.max(initial=0)), len(lens)), dtype=np.uint64)
    for lo, hi, base, stop, first in _lane_steps(lens):
        seg, n = lane[base:stop], lens[lo:hi]
        for k in range(low, int(reach[lo:hi].max())):
            r = spec.bases[k]
            pows = _powers(r, len(seg))
            h = _segment_sums(seg * pows[:-1], first, n, np.uint64) % _P
            h *= pows[len(seg) - first]  # r^-s = r^(len - s) * r^-len
            h %= _P
            h *= pow(r, -len(seg), _P)
            limbs[k, lo:hi] = h % _P
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
    ``bits`` 0.  A payload whose length is not the sum of ``bits``, or that
    holds a byte other than 0 or 1, raises ``ValueError``."""
    if len(payload) != int(bits.sum()):
        raise ValueError(f"a payload of {len(payload)} bits for {int(bits.sum())} syndrome bits")
    values = np.frombuffer(payload, dtype=np.uint8)
    if values.max(initial=0) > 1:
        raise ValueError("a payload byte other than 0 or 1")
    reach, kept = _rows(bits)
    rows = np.zeros((len(bits), 31 * reach), dtype=np.uint8)
    rows[kept] = values
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


def make_syndrome(x: BitSeq, t: int, spec: CodeSpec) -> BitSeq:
    """The ``syndrome_bits`` wire bits Alice sends for ``t`` deletions in ``x``:
    ``syndrome_batch`` of one job."""
    q = len(x)
    return BitSeq(syndrome_batch(x.to_bytes01(), [0], [q], [t], [syndrome_bits(q, t, spec)], spec))


def syndrome_batch(x: bytes, starts, q, t, bits, spec: CodeSpec) -> bytes:
    """Every job's syndrome payload, back to back, for many jobs at once.

    Job j's payload is its ``bits[j]`` wire bits (``syndrome_bits`` gives the
    width a session sends), one 0/1 byte each: the low bits of the VT
    syndrome of x[s : s + q] for t = 1, of its keyed digest otherwise, most
    significant first.  A width outside [1, ``MAX_SYNDROME_BITS``], a count
    ``t`` outside [1, w] or a source outside ``x`` raises ``ValueError``.
    """
    starts, q, t, bits = _jobs(len(x), starts, q, t, bits, spec)
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


def _two_insertions_batch(y: bytes, starts, q, t, limbs, bits, spec: CodeSpec):
    """Every two-insertion supersequence of each y[s : s + q - 2] that keeps its
    digest, the ``bits``-bit value whose limbs are the job's column of
    ``limbs``: the jobs of the hits as an array, and their words in step.

    Meet-in-the-middle over the digest's leading hash limb.  Writing the
    first polynomial hash of a candidate with bits b1, b2 inserted at final
    positions p1 < p2 as A(p1, b1) + B(p2, b2) mod _P turns the search into
    matching two tables of about q values per job: the A-values and the
    values the B-entries need (``_pair_survivors``).  The jobs of one step
    share the tables, and one sort pairs the equal values, O(q log q).  The
    match is exact modulo _P, so a survivor already keeps the digest's whole
    first limb: its word is written out and hashed by ``_hash_limbs`` on the
    limbs after the first alone, and a 31-bit digest needs no hashing.

    Only canonical insertions enter the tables: an inserted bit differs from
    the y-bit that follows it, or it sits at the end of y.  They are exactly
    the positions the greedy leftmost embedding of y leaves unmatched, so each
    distinct supersequence is tried once, and a run in y adds no repeats.
    """
    job, p1, b1, p2, b2 = _pair_survivors(y, starts, q - 2, limbs[0], spec)
    q = q[job]
    words = np.frombuffer(_lay_out(y, starts[job], q - 2), dtype=np.uint8)
    ends = np.cumsum(q)  # b1 and b2 land at p1 and p2 of each candidate
    cands = _spread(words, np.concatenate((ends - q + p1, ends - q + p2)), np.concatenate((b1, b2)))
    got = _cut(_hash_limbs(cands, q, -(-bits[job] // 31), spec, low=1), bits[job])
    hit = (got[1:] == limbs[1 : len(got), job]).all(axis=0)
    cands = cands.tobytes()
    return job[hit], [cands[e - n : e] for e, n in zip(ends[hit].tolist(), q[hit].tolist())]


def _pair_survivors(y: bytes, starts, m, targets, spec: CodeSpec):
    """The insertion pairs whose two-insertion supersequence of y[s : s + m] has
    the leading hash limb ``targets`` of its job, as arrays job, p1, b1, p2, b2
    (b1 and b2 inserted at final positions p1 < p2), one ``_two_insertions_step``
    per step.  A target of _P or more is no residue, so its job has none.
    """
    lane = np.frombuffer(_lay_out(y, starts, m, _END_ROWS), dtype=np.uint8)
    steps = [
        _two_insertions_step(lane[base:stop], first, m[lo:hi], targets[lo:hi], spec, lo)
        for lo, hi, base, stop, first in _lane_steps(m + 2)
    ]
    job, p1, b1, p2, b2 = (np.concatenate(field) for field in zip(*steps))
    keep = targets[job] < _P
    return job[keep], p1[keep], b1[keep], p2[keep], b2[keep]


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
    acc = np.zeros(n_rows + 1, dtype=np.uint64)
    np.cumsum(rows * pows, dtype=np.uint64, out=acc[1:])  # exact: the sum stays below 2^47
    high = acc >> 31
    acc &= _P
    acc += high  # acc mod _P, up to a _P more
    del high
    # The value each job's A-entries need: target r^s + acc[s] - r^2 acc[e] - B',
    # kept positive by _P 2^31, which exceeds every B'.
    const = (targets * pows[first] + acc[first] + (_P - acc[end] % _P) * (r * r % _P)) % _P

    # One sort matches the tables: each key is a value shifted left over a
    # table bit (A below need) and the row.  A value shared by two jobs pairs
    # rows of both; those pairs are dropped below.  The tables are built in
    # the keys' own array and each temporary goes as soon as it is spent, so
    # a full step peaks near 24 bytes a row.
    keys = np.empty(2 * n_rows, dtype=np.int64)
    a_val, need = keys[:n_rows].view(np.uint64), keys[n_rows:].view(np.uint64)
    np.multiply(acc[:-1], (1 - r) % _P, out=a_val)
    del acc
    a_val += pows
    a_val -= np.multiply(rows, pows, out=need)  # the flipped bits' powers
    _fold(a_val)
    np.multiply(a_val, r, out=need)
    np.subtract(np.repeat(const + (_P << 31), size), need, out=need)
    _fold(need)
    shift = n_rows.bit_length() + 1
    np.left_shift(keys, shift, out=keys)
    row = np.arange(n_rows)
    keys[:n_rows] |= row
    row |= 1 << (shift - 1)
    keys[n_rows:] |= row
    del row
    keys.sort()
    low = keys.astype(np.uint16 if shift <= 16 else np.uint32)  # the table bit and row
    keys >>= shift  # the values
    equal = keys[1:] == keys[:-1]
    repeated = np.zeros(len(keys), dtype=bool)  # rows whose key occurs more than once
    repeated[1:] = equal
    repeated[:-1] |= equal
    del equal
    value, low = keys[repeated], low[repeated]
    del keys
    row = (low & ((1 << (shift - 1)) - 1)).astype(np.int64)
    is_need = (low >> (shift - 1) & 1).astype(bool)
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


def _walk_decode_batch(y: bytes, starts, q, t, limbs, bits, spec: CodeSpec):
    """Every ``t``-insertion supersequence of each y[s : s + q - t] that keeps its
    digest, the ``bits``-bit value whose limbs are the job's column of
    ``limbs``: the jobs of the hits as an array, and their words in step.

    The candidates of consecutive jobs are laid out in steps of at most
    ``_CHUNK`` bytes and hashed by one ``_hash_limbs`` call per step; a job
    with more takes a step of its own, so at most one step's candidates are
    held at a time, joined once, and the hits are cut from that buffer.  A
    job whose space holds more than ``MAX_WALK`` candidates raises
    ``ValueError``.
    """
    words = []
    for qj, tj in zip(q.tolist(), t.tolist()):
        space = _walk_space(qj, tj)
        if space > MAX_WALK:
            raise ValueError(f"supersequence space of ~{space} candidates is too large to walk")
        words.append(_walk_words(qj, tj))
    words = np.array(words)
    reach = -(-bits // 31)
    hits, found = [], []
    for lo, hi, _, _, _ in _lane_steps(words * q):
        cands = b"".join(itertools.chain.from_iterable(
            _supersequences(y[s : s + qj - tj], tj)
            for s, qj, tj in zip(starts[lo:hi].tolist(), q[lo:hi].tolist(), t[lo:hi].tolist())
        ))
        job = np.repeat(np.arange(lo, hi), words[lo:hi])
        lane = np.frombuffer(cands, dtype=np.uint8)
        got = _cut(_hash_limbs(lane, q[job], reach[job], spec), bits[job])
        hit = np.flatnonzero((got == limbs[: len(got), job]).all(axis=0))
        ends = np.cumsum(q[job])[hit]
        hits.append(job[hit])
        found += [cands[e - n : e] for e, n in zip(ends.tolist(), q[job[hit]].tolist())]
    return np.concatenate(hits), found


def _walk_space(q: int, t: int) -> int:
    """Supersequence candidates of a length-(q - t) word, counted with repeats."""
    return math.comb(q, t) * 2**t


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


def syndrome_width(q: int, t: int, spec: CodeSpec) -> int:
    """The ``syndrome_bits`` width of a syndrome from which ``decode_batch`` can
    undo ``t`` deletions in a length-``q`` source, or 0 when no lane can: for t
    outside [1, min(w, q)], a digest past ``MAX_SYNDROME_BITS`` or a walk past
    ``MAX_WALK`` candidates (VT and the meet-in-the-middle have no limit)."""
    if not 1 <= t <= min(spec.w, q):
        return 0
    try:
        bits = syndrome_bits(q, t, spec)
    except ValueError:  # a digest wider than MAX_SYNDROME_BITS
        return 0
    return bits if _decoder(t, bits) != _WALK or _walk_space(q, t) <= MAX_WALK else 0


def decode_batch(
    y: bytes, starts, q, t, payload: bytes, bits, spec: CodeSpec
) -> list[bytes | Exception]:
    """Decode many jobs at once, each through the lane ``_decoder`` picks.

    Job j received y[s : s + q - t] with 1 <= ``t`` <= min(w, q) deletions and
    the ``bits[j]``-bit syndrome that comes next in ``payload``
    (``syndrome_batch``'s layout).  Returns, per job, the decoded source's
    bytes or its ``NoCodewordFound`` / ``AmbiguousDecode``.  The payloads are
    parsed into hash limbs in one pass.  Each lane decodes all its jobs at
    once, its received words laid out back to back, and returns every word that
    keeps its job's syndrome; one count of those words per job then gives the
    job's word when there is one, and its error otherwise.  A width outside [1,
    ``MAX_SYNDROME_BITS``], a payload that does not hold the sum of ``bits`` in
    0/1 bytes, a received word outside ``y``, a count outside [1, min(w, q)] or
    a walk past ``MAX_WALK`` raises ``ValueError``.
    """
    starts, q, t, bits = _jobs(len(y), starts, q, t, bits, spec, received=True)
    limbs = _from_payload(payload, bits)
    lane = _decoder(t, bits)
    # The pair lane goes first: its steps hold the batch's largest
    # temporaries, and no other lane's words are yet held beside them.
    hits, words = [np.zeros(0, dtype=np.int64)], []
    for code, decode in ((_PAIR, _two_insertions_batch), (_VT, _vt_decode_batch),
                         (_WALK, _walk_decode_batch)):
        at = np.flatnonzero(lane == code)
        if len(at):
            job, found = decode(y, starts[at], q[at], t[at], limbs[:, at], bits[at], spec)
            hits.append(at[job])
            words += found
    hit = np.concatenate(hits)
    out: list = [None] * len(t)
    for j, word in zip(hit.tolist(), words):
        out[j] = word
    count = np.bincount(hit, minlength=len(t))
    for j in np.flatnonzero(count == 0).tolist():
        out[j] = NoCodewordFound(f"no {t[j]}-insertion candidate matches the syndrome")
    for j in np.flatnonzero(count > 1).tolist():
        out[j] = AmbiguousDecode(f"{count[j]} candidates match a {bits[j]}-bit syndrome")
    return out


def multi_decode(y: BitSeq, t: int, syndrome: BitSeq | None, q: int, spec: CodeSpec) -> BitSeq:
    """Recover the length-``q`` source from ``y`` after exactly ``t`` deletions,
    given the ``syndrome_bits(q, t)`` wire bits ``make_syndrome`` sent:
    ``decode_batch`` of one job at that width, raising its error.  Only what
    that job cannot show is checked here: the received length and t = 0."""
    if len(y) != q - t:
        raise ValueError("received length inconsistent with t")
    if t == 0:
        return y
    bits = syndrome_bits(q, t, spec)
    out = decode_batch(y.to_bytes01(), [0], [q], [t], syndrome.to_bytes01(), [bits], spec)[0]
    if isinstance(out, Exception):
        raise out
    return BitSeq(out)
