"""Bit sequences, session parameters, the deletion channel, and transcript accounting.

A :class:`BitSeq` is the API type of a file and of a session's output.  A
session works on its 0/1 bytes (``BitSeq.to_bytes01``, one byte per bit), and
the messages of Modules I and II (pivots, feedback flags, case states,
delimiters, syndromes) carry such bytes.  A :class:`Transcript` is the single
source of truth for how many bits each module transmitted; it takes each
module's finished messages and computes their chained digests in one pass.
The FNV-1a digests of such bytes (the Verify digest over X, the chained
digests of a module's messages) fold eight bits per numpy element, with the
byte loop's results.  Modules I and II read bit windows of such bytes from
one 8-bit window view (:func:`window_view`, :func:`window_keys`).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitSeq",
    "ChannelOutcome",
    "InvalidConfig",
    "Message",
    "ProtocolParams",
    "Transcript",
    "apply_deletion_channel",
    "fnv1a64",
    "pivot_length",
    "random_bits",
    "substream",
]

EC_EMPIRICAL = "empirical"
EC_THEORETICAL = "theoretical"

# Transcript vocabulary: each kind of message belongs to one module and
# flows one way, so a message names only its kind.
A2B = "A2B"
B2A = "B2A"
MODULES = ("I", "II", "III")
KINDS = {  # kind -> (module, direction)
    "Pivots": ("I", A2B),
    "PivotFeedback": ("I", B2A),
    "SectionCase": ("II", B2A),
    "Delimiter": ("II", A2B),
    "CaseCode": ("II", B2A),
    "Syndrome": ("II", A2B),
    "ECBits": ("III", A2B),
    "Verify": ("III", A2B),
}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# One-bit-per-byte storage to and from ASCII binary digits.
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class InvalidConfig(ValueError):
    """Raised when protocol parameters cannot form a valid session."""


# The block fold below works on blocks of this many bytes (a multiple of 8),
# which keeps its temporaries near 100 KB whatever the input length.
_FNV_BLOCK = 1 << 15
# Shortest input that takes the block fold: the measured crossover, where the
# byte loop and the fold each take about 20 us (Python 3.11, numpy 2.4).
_FNV_FOLD_MIN = 144
_FNV_PRIME_INV = pow(_FNV_PRIME, -1, 1 << 64)


def _fnv_powers(base: int, count: int) -> np.ndarray:
    """base^0 .. base^(count - 1) mod 2^64 (cumprod gives base^1 .. base^count,
    so each is shifted down by one; numpy wraps)."""
    return np.cumprod(np.full(count, base, dtype=np.uint64)) * np.uint64(pow(base, -1, 1 << 64))


# Per-byte factors of the fold: _FNV_POW_BIT[r] = prime^r for r < 8, and
# _FNV_POW8[g] = prime^8g and _FNV_INV8[g] = prime^-8g for g <= _FNV_BLOCK / 8.
_FNV_POW_BIT = _fnv_powers(_FNV_PRIME, 8)
_FNV_POW8 = _fnv_powers(pow(_FNV_PRIME, 8, 1 << 64), _FNV_BLOCK // 8 + 1)
_FNV_INV8 = _fnv_powers(pow(_FNV_PRIME_INV, 8, 1 << 64), _FNV_BLOCK // 8 + 1)


def _fnv_byte_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each byte v of ``np.packbits`` output (its bits most significant
    first): its parity, and _FNV_STEPS[r, p, v] = sum_{i<r} d_i * prime^-i,
    the steps d_i of its first r bits entered at parity p."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int64)
    before = np.bitwise_xor.accumulate(bits, axis=1) ^ bits  # parity of the bits before bit i
    steps = np.zeros((9, 2, 256), dtype=np.uint64)
    for p in (0, 1):
        d = (bits * (1 - 2 * (before ^ p))).view(np.uint64)
        steps[1:, p] = np.cumsum(d * _fnv_powers(_FNV_PRIME_INV, 8), axis=1).T
    return (bits.sum(axis=1) & 1).astype(np.uint8), steps


_FNV_PARITY, _FNV_STEPS = _fnv_byte_tables()
_FNV_FULL = _FNV_STEPS[8].ravel()  # a whole byte, at index p << 8 | v


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``, chained from ``h``."""
    return int(_fnv_chain([data], h)[-1])


def _fnv_chain(payloads: list[bytes], h: int) -> np.ndarray:
    """FNV-1a states after each of ``payloads`` in turn, chained from ``h``.

    Payloads that join to at least ``_FNV_FOLD_MIN`` bytes, every one 0 or 1
    (a ``BitSeq``'s storage), take one block fold of ``_fnv_states01`` read
    at each payload's end, with the same result; all other inputs take the
    byte loop.
    """
    data = b"".join(payloads)
    if len(data) >= _FNV_FOLD_MIN:
        arr = np.frombuffer(data, dtype=np.uint8)
        if arr.max() <= 1:
            ends = np.cumsum(np.fromiter(map(len, payloads), np.int64, len(payloads)))
            return _fnv_states01(arr, h, ends)
    states = []
    for payload in payloads:
        for b in payload:
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        states.append(h)
    return np.array(states, dtype=np.uint64)


def _fnv_states01(bits: np.ndarray, h: int, ends: np.ndarray) -> np.ndarray:
    """FNV-1a states after the first ``ends[i]`` bytes of a 0/1 array, chained from ``h``.

    ``ends`` is ascending.  For a 0/1 byte b, ``h ^ b`` is ``h + d`` with d = b
    if h is even and -b if h is odd, and the odd prime keeps the parity of
    ``h ^ b``, so the parity before each byte is the prefix XOR of the input
    and each d is known in advance.  The state after j bytes of a block that
    starts in state h is then prime^j * (h + sum_{k<j} d_k * prime^-k) mod
    2^64.  The input is packed eight bytes to one, so the sum runs over
    packed bytes: packed byte g, entered at the prefix parity, adds
    prime^-8g * _FNV_STEPS[8] of it, and a state r bytes into it adds
    _FNV_STEPS[r] in its place.  Per block of ``_FNV_BLOCK`` bytes: one dot
    product for its last state and one cumulative sum when a state inside it
    is read.
    """
    out = np.empty(len(ends), dtype=np.uint64)
    out[: np.searchsorted(ends, 0, side="right")] = h
    for start in range(0, len(bits), _FNV_BLOCK):
        end = min(start + _FNV_BLOCK, len(bits))
        group = np.packbits(bits[start:end])  # zero bits pad the last byte; a 0 adds no step
        parity = _FNV_PARITY[group]
        entry = np.bitwise_xor.accumulate(parity) ^ parity ^ (h & 1)  # parity before each byte
        index = entry.astype(np.intp) << 8 | group
        weights = _FNV_INV8[: len(group)]
        # ends[lo:inner] fall inside the block and ends[inner:hi] at its end.
        lo, inner, hi = np.searchsorted(ends, (start, end - 1, end), side="right")
        if inner > lo:  # only these need the running sum
            terms = _FNV_FULL[index] * weights
            rel = ends[lo:inner] - start
            g, r = rel >> 3, rel & 7
            before = np.cumsum(terms)[g] - terms[g] + _FNV_STEPS[r, entry[g], group[g]] * weights[g]
            out[lo:inner] = _FNV_POW8[g] * _FNV_POW_BIT[r] * (np.uint64(h) + before)
        n = end - start
        scale = int(_FNV_POW8[n >> 3]) * int(_FNV_POW_BIT[n & 7])
        h = (scale * (h + int(np.dot(_FNV_FULL[index], weights)))) & _MASK64
        out[inner:hi] = h
    return out


class BitSeq:
    """Immutable finite binary sequence.

    Bits are stored one per byte (values 0/1) so substring search runs at
    C speed via ``bytes.find``.  Index 0 is the leftmost bit.
    """

    __slots__ = ("_data",)

    def __init__(self, bits=()):
        if isinstance(bits, BitSeq):
            self._data = bits._data
        elif isinstance(bits, bytes):
            if bits.translate(None, b"\x00\x01"):
                raise ValueError("byte values must be 0 or 1")
            self._data = bits
        elif isinstance(bits, np.ndarray):
            arr = bits.astype(np.uint8, copy=False)
            if arr.size and arr.max() > 1:
                raise ValueError("array values must be 0 or 1")
            self._data = arr.tobytes()
        else:
            self._data = bytes(int(b) for b in bits)
            if self._data and max(self._data) > 1:
                raise ValueError("bits must be 0 or 1")

    @classmethod
    def _wrap(cls, data: bytes) -> "BitSeq":
        out = object.__new__(cls)
        out._data = data
        return out

    @classmethod
    def zeros(cls, n: int) -> "BitSeq":
        return cls._wrap(bytes(n))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitSeq":
        """Big-endian ``width``-bit encoding of a non-negative integer."""
        if value < 0 or value >= (1 << width):
            raise ValueError("value does not fit in width")
        if width == 0:
            return cls._wrap(b"")
        return cls._wrap(format(value, f"0{width}b").encode().translate(_FROM_ASCII))

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitSeq._wrap(self._data[idx])
        return self._data[idx]

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitSeq) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __add__(self, other: "BitSeq") -> "BitSeq":
        return BitSeq._wrap(self._data + other._data)

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitSeq({self.to01()!r})"
        return f"BitSeq({self[:16].to01()!r}... len={len(self)})"

    def to01(self) -> str:
        return self._data.decode("latin1").translate({0: "0", 1: "1"})

    def to_bytes01(self) -> bytes:
        """Raw storage: one byte per bit, values 0/1."""
        return self._data

    def to_numpy(self) -> np.ndarray:
        return np.frombuffer(self._data, dtype=np.uint8).copy()

    def to_int(self) -> int:
        """Big-endian integer value of the sequence (empty -> 0)."""
        return int(self._data.translate(_TO_ASCII), 2) if self._data else 0

    def count(self, bit: int = 1) -> int:
        return self._data.count(bit)

    def find(self, pattern: "BitSeq", start: int = 0, end: int | None = None) -> int:
        if end is None:
            return self._data.find(pattern._data, start)
        return self._data.find(pattern._data, start, end)

    def delete(self, positions) -> "BitSeq":
        """New sequence with the given 0-based positions removed."""
        drop = set(positions)
        if not drop:
            return self
        return BitSeq._wrap(bytes(b for i, b in enumerate(self._data) if i not in drop))

    def insert(self, pos: int, bit: int) -> "BitSeq":
        return BitSeq._wrap(self._data[:pos] + bytes((bit,)) + self._data[pos:])


def _window_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each byte value b, the eight bytes (b << r) & 0xFF and the eight
    b >> (8 - r), r = 0..7, each eight as one native uint64: the high and the
    low share of the 8-bit windows that start in a packed byte."""
    b = np.arange(256, dtype=np.uint16)[:, None]
    r = np.arange(8, dtype=np.uint16)
    high, low = (b << r) & 0xFF, b >> (8 - r)
    return tuple(t.astype(np.uint8).view(np.uint64).ravel() for t in (high, low))


_WINDOW_HIGH, _WINDOW_LOW = _window_tables()


def window_view(bits: bytes) -> np.ndarray:
    """The 8-bit window view of 0/1 bytes: a uint8 array whose byte i holds
    bits i..i+7, most significant first, with 0 for bits past the end.

    One ``np.packbits`` pass: window 8k + r is (B[k] << r | B[k + 1] >> (8 -
    r)) & 0xFF for packed bytes B, so one lookup per packed byte in each of
    two tables gives all eight of its windows.
    """
    packed = np.packbits(np.frombuffer(bits, dtype=np.uint8))
    view = _WINDOW_HIGH.take(packed)
    view[:-1] |= _WINDOW_LOW.take(packed[1:])
    return view.view(np.uint8)[: len(bits)]


def window_keys(view: np.ndarray, at, width: int) -> np.ndarray:
    """The big-endian values of the ``width`` bits (1 <= width <= 64) from
    each start in ``at``, an index array or a slice, read from a
    :func:`window_view` one byte at a time, at start + 8j for 8j < width.

    Each byte read must be in the view; the bits it holds past the viewed
    ones read 0.  The keys are the narrowest of uint16, uint32 and uint64
    that holds the bytes read.
    """
    count = -(-width // 8)
    dtype = np.uint16 if count <= 2 else np.uint32 if count <= 4 else np.uint64
    key = view[at].astype(dtype)
    for j in range(8, 8 * count, 8):
        key <<= 8
        key |= view[j:][at]
    key >>= 8 * count - width
    return key


def substream(seed: int, label: str) -> np.random.Generator:
    """Deterministic RNG sub-stream for ``label`` under one root seed.

    Labeled splitting keeps the channel, source, and code-key streams
    independent, so a change in one consumer cannot perturb the others.
    """
    return np.random.default_rng(
        np.random.SeedSequence((seed & _MASK64, fnv1a64(label.encode())))
    )


def random_bits(n: int, rng: np.random.Generator) -> BitSeq:
    """Uniform random binary sequence (i.i.d. Bernoulli(1/2))."""
    return BitSeq(rng.integers(0, 2, size=n, dtype=np.uint8))


@dataclass(frozen=True)
class ChannelOutcome:
    y: BitSeq
    deleted_positions: tuple[int, ...]


def apply_deletion_channel(x: BitSeq, beta: float, rng: np.random.Generator) -> ChannelOutcome:
    """Delete each bit of ``x`` independently with probability ``beta``."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    n = len(x)
    if n == 0 or beta == 0.0:
        return ChannelOutcome(x, ())
    mask = rng.random(n) < beta
    arr = x.to_numpy()
    y = BitSeq(arr[~mask])
    return ChannelOutcome(y, tuple(np.flatnonzero(mask).tolist()))


def pivot_length(s: float, beta: float) -> int:
    """Smallest integer pivot length >= 3s + 8 + 2*log2(1/beta)."""
    if not 0 < s < math.inf:
        raise InvalidConfig("segment multiplier s must be positive and finite")
    if not 0.0 < beta <= 0.5:
        raise InvalidConfig("deletion rate beta must be in (0, 0.5]")
    return math.ceil(3.0 * s + 8.0 + 2.0 * math.log2(1.0 / beta))


def check_code(w: int, a) -> None:
    """The code part of :func:`check_settings`: w >= 1 and w finite a_t >= 1."""
    if w < 1:
        raise InvalidConfig("w must be at least 1")
    if len(a) != w:
        raise InvalidConfig("a must list exactly w code efficiencies")
    if not all(1.0 <= v < math.inf for v in a):
        raise InvalidConfig("code efficiencies must be finite and >= 1")


def check_settings(beta: float, s: float, c: float, w: int, a, ec_policy: str) -> None:
    """The one check of a session's settings, all but n >= 1 and L_P < L_S,
    which a sweep makes per grid point.  NaN fails every comparison here."""
    if not 0.0 < beta <= 0.5:
        raise InvalidConfig("beta must be in (0, 0.5]")
    for name, value in (("s", s), ("c", c)):
        if not 0.0 < value < math.inf:
            raise InvalidConfig(f"{name} must be positive and finite")
    check_code(w, a)
    if ec_policy not in (EC_EMPIRICAL, EC_THEORETICAL):
        raise InvalidConfig(f"unknown ec_policy {ec_policy!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """All session tunables.

    Rounding conventions: the segment length L_S is s/beta rounded to the
    nearest integer (at least 1); the pivot length L_P is the smallest
    integer satisfying its lower bound.  A valid configuration requires
    L_P < L_S.
    """

    n: int
    beta: float
    s: float = 2.0
    c: float = 3.0
    w: int = 2
    a: tuple[float, ...] = (1.0, 3.5)
    seed: int = 0
    ec_policy: str = EC_EMPIRICAL

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        self.validate()

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig("n must be positive")
        check_settings(self.beta, self.s, self.c, self.w, self.a, self.ec_policy)
        if self.seg_len <= self.piv_len:
            raise InvalidConfig(
                f"pivot length {self.piv_len} must be shorter than segment length {self.seg_len}"
            )

    @property
    def seg_len(self) -> int:
        """Segment length L_S = round(s/beta), at least 1."""
        return max(1, round(self.s / self.beta))

    @property
    def piv_len(self) -> int:
        return pivot_length(self.s, self.beta)

    @property
    def a_max(self) -> float:
        return max(self.a)


@dataclass(frozen=True)
class Message:
    index: int
    direction: str
    module: str
    kind: str
    bits: int
    section_id: int | None
    payload_digest: int

    def to_json_obj(self) -> dict:
        return {
            "i": self.index,
            "dir": self.direction,
            "mod": self.module,
            "kind": self.kind,
            "bits": self.bits,
            "sec": self.section_id,
            "digest": f"{self.payload_digest:016x}",
        }


class Transcript:
    """Ordered log of every protocol message; owns all bit accounting.

    Messages are stored as columns: kind, bits and section id; a message's
    module and direction follow from its kind (``KINDS``).  The payload
    digest of each message continues one FNV-1a chain from the previous
    message, so a replay with the same seed and parameters is
    digest-identical.  ``extend`` appends the finished messages of one module
    as columns and computes their chained digests in one pass; ``record`` is
    its one-message case.  Payloads are not kept.
    """

    def __init__(self):
        self.kinds: list[str] = []
        self.bits: list[int] = []
        self.section_ids: list[int | None] = []
        self._totals = {m: 0 for m in MODULES}
        self._digests = array("Q")
        self._entries: list[Message] = []

    def record(
        self, kind: str, bits: int, payload: bytes = b"", section_id: int | None = None
    ) -> int:
        """Append one message; returns its index."""
        return self.extend([kind], [bits], [payload], [section_id])

    def extend(
        self,
        kinds: list[str],
        bits: list[int],
        payloads: list[bytes],
        section_ids: list[int | None],
    ) -> int:
        """Append the messages of one module, given as columns; returns the first one's index.

        Every check and every digest is made before anything is appended.
        """
        distinct = set(kinds)
        bad = distinct.difference(KINDS)
        if bad:
            raise ValueError(f"bad kind {bad.pop()!r}")
        modules = {KINDS[kind][0] for kind in distinct}
        if len(modules) > 1:
            raise ValueError(f"messages of modules {sorted(modules)} in one extend")
        if min(bits, default=0) < 0:
            raise ValueError("bits must be non-negative")
        if None in payloads:
            raise ValueError("a message has no payload")
        if not len(kinds) == len(bits) == len(payloads) == len(section_ids):
            raise ValueError("message columns differ in length")
        digests = _fnv_chain(payloads, self.final_digest)
        first = len(self.kinds)
        self.kinds += kinds
        self.bits += bits
        self.section_ids += section_ids
        self._digests.frombytes(digests.tobytes())
        if modules:
            self._totals[modules.pop()] += sum(bits)
        return first

    def total_bits(self, module: str | None = None) -> int:
        if module is None:
            return sum(self._totals.values())
        return self._totals[module]

    @property
    def final_digest(self) -> int:
        return self._digests[-1] if self._digests else _FNV_OFFSET

    @property
    def entries(self) -> list[Message]:
        """Every message as a ``Message``, built on first use and cached."""
        for i in range(len(self._entries), len(self.kinds)):
            kind = self.kinds[i]
            module, direction = KINDS[kind]
            self._entries.append(
                Message(
                    i, direction, module, kind, self.bits[i], self.section_ids[i], self._digests[i]
                )
            )
        return self._entries

    def messages_for_section(self, section_id: int) -> list[Message]:
        return [m for m in self.entries if m.section_id == section_id]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(m.to_json_obj(), separators=(",", ":")) + "\n" for m in self.entries
        )
