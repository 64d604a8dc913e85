"""Bit sequences, session parameters, the deletion channel, and transcript accounting.

Everything that moves through the protocol (files, pivots, delimiters,
syndromes) is a :class:`BitSeq`.  A :class:`Transcript` is the single source
of truth for how many bits each module transmitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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

# Transcript vocabulary.
A2B = "A2B"
B2A = "B2A"
MODULES = ("I", "II", "III")
KINDS = (
    "Pivots",
    "PivotFeedback",
    "SectionCase",
    "Delimiter",
    "CaseCode",
    "Syndrome",
    "ECBits",
    "Verify",
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class InvalidConfig(ValueError):
    """Raised when protocol parameters cannot form a valid session."""


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``, chained from ``h``."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


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
            if bits and (max(bits) > 1):
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
        return cls._wrap(bytes((value >> (width - 1 - i)) & 1 for i in range(width)))

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
        v = 0
        for b in self._data:
            v = (v << 1) | b
        return v

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
    deleted = tuple(int(i) for i in np.nonzero(mask)[0])
    return ChannelOutcome(y, deleted)


def pivot_length(s: float, beta: float) -> int:
    """Smallest integer pivot length >= 3s + 8 + 2*log2(1/beta)."""
    if s <= 0:
        raise InvalidConfig("segment multiplier s must be positive")
    if not 0.0 < beta <= 0.5:
        raise InvalidConfig("deletion rate beta must be in (0, 0.5]")
    return math.ceil(3.0 * s + 8.0 + 2.0 * math.log2(1.0 / beta))


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
        if not 0.0 < self.beta <= 0.5:
            raise InvalidConfig("beta must be in (0, 0.5]")
        if self.s <= 0:
            raise InvalidConfig("s must be positive")
        if self.c <= 0:
            raise InvalidConfig("c must be positive")
        if self.w < 1:
            raise InvalidConfig("w must be at least 1")
        if len(self.a) != self.w:
            raise InvalidConfig("a must list exactly w code efficiencies")
        if any(v < 1.0 for v in self.a):
            raise InvalidConfig("code efficiencies must be >= 1")
        if self.ec_policy not in (EC_EMPIRICAL, EC_THEORETICAL):
            raise InvalidConfig(f"unknown ec_policy {self.ec_policy!r}")
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


@dataclass
class Transcript:
    """Ordered log of every protocol message; owns all bit accounting.

    The payload digest of each entry is chained from the previous entry, so
    a replay with the same seed and parameters is digest-identical.
    """

    entries: list[Message] = field(default_factory=list)
    _totals: dict[str, int] = field(default_factory=lambda: {m: 0 for m in MODULES})
    _chain: int = _FNV_OFFSET

    def record(
        self,
        direction: str,
        module: str,
        kind: str,
        bits: int,
        payload: bytes = b"",
        section_id: int | None = None,
    ) -> Message:
        if direction not in (A2B, B2A):
            raise ValueError(f"bad direction {direction!r}")
        if module not in MODULES:
            raise ValueError(f"bad module {module!r}")
        if kind not in KINDS:
            raise ValueError(f"bad kind {kind!r}")
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self._chain = fnv1a64(payload, self._chain)
        msg = Message(len(self.entries), direction, module, kind, bits, section_id, self._chain)
        self.entries.append(msg)
        self._totals[module] += bits
        return msg

    def total_bits(self, module: str | None = None) -> int:
        if module is None:
            return sum(self._totals.values())
        return self._totals[module]

    @property
    def final_digest(self) -> int:
        return self._chain

    def messages_for_section(self, section_id: int) -> list[Message]:
        return [m for m in self.entries if m.section_id == section_id]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(m.to_json_obj(), separators=(",", ":")) + "\n" for m in self.entries
        )
