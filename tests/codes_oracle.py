"""Reference deletion-code and digest routines, kept only as test oracles.

These are the direct per-bit readings of each definition: a Horner loop for
the polynomial digest, a dictionary-based meet-in-the-middle that tries every
pair of insertion positions, every insertion at every position and a filter
of that supersequence space by digest, loops for the VT syndrome and decoder, the byte-at-a-time FNV-1a,
and bit loops for ``BitSeq.from_int``/``to_int``.
``delsync.codes`` and ``delsync.core`` must return exactly what they return.
"""

from delsync.codes import _P, CodeSpec, NoCodewordFound
from delsync.core import BitSeq

_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def int_to_bits(value: int, width: int) -> bytes:
    return bytes((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(data: bytes) -> int:
    v = 0
    for b in data:
        v = (v << 1) | b
    return v


def full_hashes(data: bytes, bases) -> list[int]:
    """sum_m data[m] * r^m mod _P for each base r, by Horner's rule."""
    vals = []
    for r in bases:
        h = 0
        for b in reversed(data):
            h = (h * r + b) % _P
        vals.append(h)
    return vals


def truncated_digest(data: bytes, bits: int, spec: CodeSpec) -> int:
    v = 0
    for i, h in enumerate(full_hashes(data, spec.bases[: -(-bits // 31)])):
        v |= h << (31 * i)
    return v & ((1 << bits) - 1)


def supersequences(y: bytes, t: int) -> set[bytes]:
    """Both bits inserted at every position, ``t`` times over."""
    level = {y}
    for _ in range(t):
        level = {u[:i] + bytes((b,)) + u[i:] for u in level for i in range(len(u) + 1) for b in (0, 1)}
    return level


def decode_by_enumeration(y: bytes, t: int, target: int, bits: int, spec: CodeSpec) -> set[bytes]:
    """Every distinct ``t``-insertion supersequence of ``y`` whose digest matches."""
    return {z for z in supersequences(y, t) if truncated_digest(z, bits, spec) == target}


def vt_syndrome(x: BitSeq) -> int:
    total = 0
    for i, b in enumerate(x, start=1):
        if b:
            total += i
    return total % (len(x) + 1)


def vt_decode(y: BitSeq, syndrome: int, q: int) -> BitSeq:
    """Weight/deficiency rule with explicit scans for the insertion point."""
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


def decode_two_insertions(y: bytes, target: int, bits: int, spec: CodeSpec) -> set[bytes]:
    """Every distinct two-insertion supersequence of ``y`` whose digest matches.

    A dictionary of A-values over (p1, b1) is swept left to right against the
    B-values over (p2, b2), trying every position pair p1 < p2 and both bits,
    so a run in ``y`` yields the same candidate many times over.
    """
    m = len(y)
    r = spec.bases[0]
    pows = [1]
    for _ in range(m + 2):
        pows.append(pows[-1] * r % _P)
    prefix = [0] * (m + 1)
    for k, b in enumerate(y):
        prefix[k + 1] = (prefix[k] + b * pows[k]) % _P
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
            a_table.setdefault((base_a + b1 * pows[p1]) % _P, []).append((p1, b1))
        base_b = ((prefix[p2 - 1] * coef_b) + r2 * h_y) % _P
        for b2 in (0, 1):
            need = (target_h1 - (base_b + b2 * pows[p2])) % _P
            for p1_hit, b1 in a_table.get(need, ()):
                z = y[:p1_hit] + bytes((b1,)) + y[p1_hit : p2 - 1] + bytes((b2,)) + y[p2 - 1 :]
                if z not in found and truncated_digest(z, bits, spec) == target:
                    found.add(z)
    return found
