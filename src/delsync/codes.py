"""Deletion-correcting codes used by section recovery.

Two code families live here:

* the classic Varshamov-Tenengolts single-deletion code, with the standard
  O(q) weight/deficiency decoder (the syndrome formula ``sum i*x_i mod q+1``
  is the textbook construction, imported here as an external definition);
* a keyed-digest syndrome code for up to ``w`` deletions whose redundancy for
  ``t`` deletions on a length-``q`` source is exactly ``ceil(t * a_t * log2 q)``
  bits.  It is decoded by searching the supersequence space of the received
  word.  For the common two-deletion case a meet-in-the-middle pass over the
  digest's leading hash limb matches two sorted tables of O(q) canonical
  insertions, so that search takes O(q log q) time, runs in the received
  word included (each distinct candidate is built once).

One deletion always travels as a VT syndrome.  Every other small case,
including a digest built for t = 1 by a direct ``hash_syndrome`` call, is
decoded by walking the whole supersequence space, which may hold at most
``MAX_WALK`` candidates; ``can_decode`` tells a caller in advance whether a
(q, t) pair is within reach.

The digest key (four polynomial-hash bases) is derived from the session seed
and known to both parties; it is never counted as transmitted bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitSeq, substream

__all__ = [
    "AmbiguousDecode",
    "CodeSpec",
    "MAX_WALK",
    "NoCodewordFound",
    "Syndrome",
    "can_decode",
    "enumerate_supersequences",
    "hash_syndrome",
    "make_syndrome",
    "multi_decode",
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
        if q < 2:
            raise ValueError("source length must be >= 2")
        bits = math.ceil(t * self.a[t - 1] * math.log2(q))
        if bits > MAX_SYNDROME_BITS:
            raise ValueError(
                f"syndrome of {bits} bits exceeds the {MAX_SYNDROME_BITS}-bit digest"
            )
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
            return max(1, math.ceil(math.log2(self.q + 1)))
        return len(self.value)

    def payload_bytes(self) -> bytes:
        if self.kind == "VT":
            return BitSeq.from_int(self.value, self.bit_length).to_bytes01()
        return self.value.to_bytes01()


# --- Varshamov-Tenengolts single-deletion code ---


def _ones(x: BitSeq) -> np.ndarray:
    return np.flatnonzero(np.frombuffer(x.to_bytes01(), dtype=np.uint8))


def _position_sum(ones: np.ndarray) -> int:
    """sum of the 1-indexed positions whose 0-based indices are ``ones``."""
    return int(ones.sum()) + len(ones)


def vt_syndrome(x: BitSeq) -> int:
    """sum of i*x_i over 1-indexed positions, mod (|x|+1)."""
    return _position_sum(_ones(x)) % (len(x) + 1)


def vt_decode(y: BitSeq, syndrome: int, q: int) -> BitSeq:
    """Recover the length-``q`` codeword from ``y`` after at most one deletion.

    Uses the standard weight/deficiency rule: with D the syndrome deficit and
    wt the weight of ``y``, D <= wt means a 0 was deleted to the left of the
    D-th rightmost one, otherwise a 1 was deleted to the right of the
    (D - wt - 1)-th zero.
    """
    if not 0 <= syndrome <= q:
        raise ValueError("syndrome out of range")
    if len(y) == q:
        if vt_syndrome(y) == syndrome:
            return y
        raise NoCodewordFound("length matches but syndrome differs")
    if len(y) != q - 1:
        raise ValueError("received word must have length q or q-1")

    ones = _ones(y)
    wt = len(ones)
    d = (syndrome - _position_sum(ones)) % (q + 1)

    if d == 0:
        x = y.insert(len(y), 0)
    elif d <= wt:
        x = y.insert(int(ones[-d]), 0)
    else:
        zeros_needed = d - wt - 1
        if zeros_needed > len(y) - wt:
            raise NoCodewordFound("deficit exceeds any single insertion")
        pos = 0
        if zeros_needed:
            zeros = np.flatnonzero(np.frombuffer(y.to_bytes01(), dtype=np.uint8) == 0)
            pos = int(zeros[zeros_needed - 1]) + 1
        x = y.insert(pos, 1)

    if vt_syndrome(x) != syndrome:
        raise NoCodewordFound("no single insertion achieves the syndrome")
    return x


# --- keyed-digest multi-deletion code ---

# base -> uint64 array of base^0, base^1, ... mod _P, grown by doubling.
_pow_cache: dict[int, np.ndarray] = {}
_POW_SEED = np.ones(1, dtype=np.uint64)  # every table starts as [base^0]


def _powers(base: int, upto: int) -> np.ndarray:
    """base^0 .. base^upto mod _P as uint64 (every entry below 2^31)."""
    pows = _pow_cache.get(base, _POW_SEED)
    while len(pows) <= upto:
        step = pows[-1] * np.uint64(base) % _P  # base^len(pows)
        pows = _pow_cache[base] = np.concatenate((pows, pows * step % _P))
    return pows[: upto + 1]


def _full_hashes(data: bytes, bases) -> list[int]:
    """sum_m data[m] * r^m mod _P for each base r.

    A gather-and-sum over the power table: each term is below 2^31, so the
    uint64 sum is exact for any source under 2^33 bits.
    """
    ones = np.flatnonzero(np.frombuffer(data, dtype=np.uint8))
    return [int(_powers(r, len(data))[ones].sum()) % _P for r in bases]


def _packed(hashes) -> int:
    v = 0
    for i, h in enumerate(hashes):
        v |= h << (31 * i)
    return v


def hash_syndrome(x: BitSeq, t: int, spec: CodeSpec) -> BitSeq:
    """Keyed digest of ``x`` truncated to exactly ``redundancy(t, |x|)`` bits."""
    if len(x) < 2:
        raise ValueError("source must have at least 2 bits")
    bits = spec.redundancy(t, len(x))
    v = _packed(_full_hashes(x.to_bytes01(), spec.bases))
    return BitSeq.from_int(v & ((1 << bits) - 1), bits)


def enumerate_supersequences(y: BitSeq, t: int) -> set[BitSeq]:
    """All distinct binary sequences of length |y|+t containing ``y``."""
    if t < 0:
        raise ValueError("t must be non-negative")
    level = {y}
    for _ in range(t):
        nxt = set()
        for u in level:
            for i in range(len(u) + 1):
                nxt.add(u.insert(i, 0))
                nxt.add(u.insert(i, 1))
        level = nxt
    return level


def make_syndrome(x: BitSeq, t: int, spec: CodeSpec) -> Syndrome:
    """Encoder side: the syndrome Alice transmits for ``t`` deletions in ``x``."""
    if t == 1:
        return Syndrome("VT", vt_syndrome(x), len(x), 1)
    return Syndrome("Hash", hash_syndrome(x, t, spec), len(x), t)


def _matches_syndrome(z: bytes, target: int, bits: int, spec: CodeSpec) -> bool:
    # Only the 31-bit limbs that reach the kept low ``bits`` are hashed.
    v = _packed(_full_hashes(z, spec.bases[: -(-bits // 31)]))
    return (v & ((1 << bits) - 1)) == target


def _decode_two_insertions(y: bytes, target: int, bits: int, spec: CodeSpec) -> set[bytes]:
    """Meet-in-the-middle over the leading hash limb; survivors fully verified.

    Writing the digest's first polynomial hash of a candidate with bits b1, b2
    inserted at final positions p1 < p2 as A(p1, b1) + B(p2, b2) mod _P turns
    the search into matching two tables of about |y| values each: sort both
    and look the needed values up among the A-values with ``searchsorted``,
    O(q log q).

    Only canonical insertions enter the tables: an inserted bit differs from
    the y-bit that follows it, or it sits at the end of y.  They are exactly
    the positions the greedy leftmost embedding of y leaves unmatched, so each
    distinct supersequence is tried once, and a run in y adds no repeats.
    """
    m = len(y)
    r = spec.bases[0]
    ys = np.frombuffer(y, dtype=np.uint8)
    pows = _powers(r, m + 1)
    prefix = np.zeros(m + 1, dtype=np.uint64)  # prefix[i] = sum_{k<i} y[k] r^k mod _P
    np.cumsum(pows[:m] * ys, out=prefix[1:])
    prefix %= _P
    r2 = (r * r) % _P
    const_b = (r2 * int(prefix[m])) % _P
    target_h1 = target & ((1 << 31) - 1)

    flips = np.concatenate((1 - ys, [0, 1])).astype(np.uint64)
    a_pos = np.concatenate((np.arange(m + 1), [m]))  # p1 in [0, m], both bits at m
    b_pos = a_pos + 1  # p2 in [1, m + 1], both bits at m + 1
    a_val = (prefix[a_pos] * ((1 - r) % _P) + flips * pows[a_pos]) % _P
    b_val = (prefix[b_pos - 1] * ((r - r2) % _P) + const_b + flips * pows[b_pos]) % _P
    need = (target_h1 + _P - b_val) % _P

    # Every value is below 2^31, so int64 views order the same and sort faster;
    # sorted needles also keep ``searchsorted`` cache-friendly.
    a_key, need_key = a_val.view(np.int64), need.view(np.int64)
    a_order, b_order = np.argsort(a_key), np.argsort(need_key)
    sorted_a, sorted_need = a_key[a_order], need_key[b_order]
    lo = np.searchsorted(sorted_a, sorted_need, side="left")
    hits = np.searchsorted(sorted_a, sorted_need, side="right") - lo
    b_idx = np.repeat(b_order, hits)
    first = np.repeat(lo - (np.cumsum(hits) - hits), hits)
    a_idx = a_order[first + np.arange(len(b_idx))]
    keep = a_pos[a_idx] < b_pos[b_idx]
    a_idx, b_idx = a_idx[keep], b_idx[keep]

    found: set[bytes] = set()
    pairs = zip(
        a_pos[a_idx].tolist(), flips[a_idx].tolist(), b_pos[b_idx].tolist(), flips[b_idx].tolist()
    )
    for p1, b1, p2, b2 in pairs:
        z = y[:p1] + bytes((b1,)) + y[p1 : p2 - 1] + bytes((b2,)) + y[p2 - 1 :]
        if _matches_syndrome(z, target, bits, spec):
            found.add(z)
    return found


def _meets_in_middle(t: int, bits: int) -> bool:
    """Whether a ``bits``-bit digest for ``t`` deletions takes the meet-in-the-middle pass."""
    return t == 2 and bits >= 31


def _walk_space(q: int, t: int) -> int:
    """Supersequence candidates of a length-(q - t) word, counted with repeats."""
    return math.comb(q, t) * 2**t


def can_decode(q: int, t: int, spec: CodeSpec) -> bool:
    """Whether ``multi_decode`` can undo ``t`` (1 <= t <= w) deletions in a length-``q`` source.

    One deletion travels as a VT syndrome and two as a digest of at least 31
    bits take the meet-in-the-middle pass; every other case walks the
    supersequence space, which must hold at most ``MAX_WALK`` candidates.
    """
    if t == 1 or _meets_in_middle(t, spec.redundancy(t, q)):
        return True
    return _walk_space(q, t) <= MAX_WALK


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

    if syndrome.kind == "VT":
        return vt_decode(y, syndrome.value, q)

    bits = len(syndrome.value)
    target = syndrome.value.to_int()
    data = y.to_bytes01()

    if _meets_in_middle(t, bits):
        found = _decode_two_insertions(data, target, bits, spec)
    else:
        # Small-q, t = 1 digest or t >= 3 fallback: walk the whole
        # supersequence space.
        space = _walk_space(q, t)
        if space > MAX_WALK:
            raise ValueError(
                f"supersequence space of ~{space} candidates is too large to walk; "
                "the fast path needs a syndrome of at least 31 bits"
            )
        found = {
            z.to_bytes01()
            for z in enumerate_supersequences(y, t)
            if _matches_syndrome(z.to_bytes01(), target, bits, spec)
        }

    if not found:
        raise NoCodewordFound(f"no {t}-insertion candidate matches the syndrome")
    if len(found) > 1:
        raise AmbiguousDecode(f"{len(found)} candidates match a {bits}-bit syndrome")
    return BitSeq(found.pop())
