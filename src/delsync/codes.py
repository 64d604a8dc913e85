"""Deletion-correcting codes used by section recovery.

Two code families live here:

* the classic Varshamov-Tenengolts single-deletion code, with the standard
  O(q) weight/deficiency decoder (the syndrome formula ``sum i*x_i mod q+1``
  is the textbook construction, imported here as an external definition);
* a keyed-digest syndrome code for up to ``w`` deletions whose redundancy for
  ``t`` deletions on a length-``q`` source is exactly ``ceil(t * a_t * log2 q)``
  bits.  It is decoded by searching the supersequence space of the received
  word; a meet-in-the-middle pass over the digest's leading hash keeps that
  search linear in ``q`` for the common two-deletion case.

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


def vt_syndrome(x: BitSeq) -> int:
    """sum of i*x_i over 1-indexed positions, mod (|x|+1)."""
    total = 0
    for i, b in enumerate(x, start=1):
        if b:
            total += i
    return total % (len(x) + 1)


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

    s_y = sum(i * b for i, b in enumerate(y, start=1))
    d = (syndrome - s_y) % (q + 1)
    wt = y.count(1)

    if d == 0:
        x = y.insert(len(y), 0)
    elif d <= wt:
        # position of the d-th one from the right
        seen = 0
        pos = -1
        for i in range(len(y) - 1, -1, -1):
            if y[i]:
                seen += 1
                if seen == d:
                    pos = i
                    break
        x = y.insert(pos, 0)
    else:
        zeros_needed = d - wt - 1
        if zeros_needed > len(y) - wt:
            raise NoCodewordFound("deficit exceeds any single insertion")
        seen = 0
        pos = len(y)
        for i, b in enumerate(y):
            if seen == zeros_needed:
                pos = i
                break
            if b == 0:
                seen += 1
        else:
            pos = len(y)
        x = y.insert(pos, 1)

    if vt_syndrome(x) != syndrome:
        raise NoCodewordFound("no single insertion achieves the syndrome")
    return x


# --- keyed-digest multi-deletion code ---

_pow_cache: dict[int, list[int]] = {}


def _powers(base: int, upto: int) -> list[int]:
    pows = _pow_cache.setdefault(base, [1])
    while len(pows) <= upto:
        pows.append((pows[-1] * base) % _P)
    return pows


def _prefix_hashes(data: bytes, base: int) -> list[int]:
    """P[i] = sum_{m<i} data[m] * base^m mod _P, for i in [0, len]."""
    pows = _powers(base, len(data))
    out = [0] * (len(data) + 1)
    acc = 0
    for m, b in enumerate(data):
        if b:
            acc = (acc + pows[m]) % _P
        out[m + 1] = acc
    return out


def _full_hashes(data: bytes, bases) -> list[int]:
    vals = []
    for r in bases:
        h = 0
        for b in reversed(data):
            h = (h * r + b) % _P
        vals.append(h)
    return vals


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
    inserted at final positions p1 < p2 as A(p1, b1) + B(p2, b2) mod _P lets a
    single left-to-right sweep with a dictionary of A-values find every
    matching (p1, p2, b1, b2) in O(|y|) instead of scanning all pairs.
    """
    m = len(y)
    r = spec.bases[0]
    prefix = _prefix_hashes(y, r)
    pows = _powers(r, m + 2)
    h_y = prefix[m]
    target_h1 = target & ((1 << 31) - 1)
    r2 = (r * r) % _P
    coef_a = (1 - r) % _P
    coef_b = (r - r2) % _P

    found: set[bytes] = set()
    a_table: dict[int, list[tuple[int, int]]] = {}
    for p2 in range(1, m + 2):
        p1 = p2 - 1
        base_a = (prefix[p1] * coef_a) % _P
        for b1 in (0, 1):
            val = (base_a + b1 * pows[p1]) % _P
            a_table.setdefault(val, []).append((p1, b1))
        base_b = ((prefix[p2 - 1] * coef_b) + r2 * h_y) % _P
        for b2 in (0, 1):
            b_val = (base_b + b2 * pows[p2]) % _P
            need = (target_h1 - b_val) % _P
            for p1_hit, b1 in a_table.get(need, ()):
                z = (
                    y[:p1_hit]
                    + bytes((b1,))
                    + y[p1_hit : p2 - 1]
                    + bytes((b2,))
                    + y[p2 - 1 :]
                )
                if z not in found and _matches_syndrome(z, target, bits, spec):
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
