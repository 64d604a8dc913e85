"""Bit sequences, session parameters, the deletion channel, and transcript accounting.

Everything that moves through the protocol (files, pivots, delimiters,
syndromes) is a :class:`BitSeq`.  A :class:`Transcript` is the single source
of truth for how many bits each module transmitted.
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

# One-bit-per-byte storage to and from ASCII binary digits.
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class InvalidConfig(ValueError):
    """Raised when protocol parameters cannot form a valid session."""


# The block fold below works on blocks of this many bytes, which keeps its
# temporaries at about 100 KB whatever the input length.
_FNV_BLOCK = 1 << 13
# Shortest input that takes the block fold: the measured crossover, where the
# byte loop and the fold each take about 12 us (Python 3.11, numpy 2.4).
_FNV_FOLD_MIN = 96
# _FNV_POW[j] = prime^j and _FNV_INV[j] = prime^-j mod 2^64 for j <= _FNV_BLOCK
# (cumprod gives powers 1..B+1, so each is shifted down by one; numpy wraps).
_FNV_PRIME_INV = pow(_FNV_PRIME, -1, 1 << 64)
_FNV_POW = np.cumprod(np.full(_FNV_BLOCK + 1, _FNV_PRIME, dtype=np.uint64)) * np.uint64(
    _FNV_PRIME_INV
)
_FNV_INV = np.cumprod(np.full(_FNV_BLOCK + 1, _FNV_PRIME_INV, dtype=np.uint64)) * np.uint64(
    _FNV_PRIME
)


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``, chained from ``h``.

    Inputs of at least ``_FNV_FOLD_MIN`` bytes whose every byte is 0 or 1 (a
    ``BitSeq``'s storage) take the block fold of ``_fnv_states01``, with the
    same result; all other inputs take the byte loop.
    """
    if len(data) >= _FNV_FOLD_MIN:
        arr = np.frombuffer(data, dtype=np.uint8)
        if arr.max() <= 1:
            return int(_fnv_states01(arr, h, np.array([len(arr)]))[0])
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _fnv_states01(bits: np.ndarray, h: int, ends: np.ndarray) -> np.ndarray:
    """FNV-1a states after the first ``ends[i]`` bytes of a 0/1 array, chained from ``h``.

    ``ends`` is ascending.  For a 0/1 byte b, ``h ^ b`` is ``h + d`` with d = b
    if h is even and -b if h is odd, and the odd prime keeps the parity of
    ``h ^ b``, so the parity before each byte is the prefix XOR of the input
    and each d is known in advance.  The state after j bytes of a block that
    starts in state h is then prime^j * (h + sum_{k<j} d_k * prime^-k) mod
    2^64: per block of ``_FNV_BLOCK`` bytes, one dot product for its last
    state and one cumulative sum when a state inside it is read.
    """
    out = np.empty(len(ends), dtype=np.uint64)
    out[: np.searchsorted(ends, 0, side="right")] = h
    for start in range(0, len(bits), _FNV_BLOCK):
        block = bits[start : start + _FNV_BLOCK]
        end = start + len(block)
        parity = np.bitwise_xor.accumulate(block) ^ block ^ (h & 1)
        steps = (block.astype(np.int64) - 2 * (block & parity)).view(np.uint64)  # d_k
        weights = _FNV_INV[: len(block)]
        # ends[lo:inner] fall inside the block and ends[inner:hi] at its end.
        lo, inner, hi = np.searchsorted(ends, (start, end - 1, end), side="right")
        if inner > lo:  # only these need the running sum
            rel = ends[lo:inner] - start
            out[lo:inner] = _FNV_POW[rel] * (np.uint64(h) + np.cumsum(steps * weights)[rel - 1])
        h = (int(_FNV_POW[len(block)]) * (h + int(np.dot(steps, weights)))) & _MASK64
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


class Transcript:
    """Ordered log of every protocol message; owns all bit accounting.

    Messages are stored as columns: direction, module, kind, bits and section
    id.  The payload digest of each message continues one FNV-1a chain from
    the previous message, so a replay with the same seed and parameters is
    digest-identical.  A payload is kept only until ``settle`` computes the
    digests of every message recorded since the last settle, in one pass over
    the joined payloads; ``final_digest``, ``entries`` and ``to_jsonl`` settle
    first.  ``extend`` appends the messages of one module as columns, and
    ``record`` is its one-message case.  A message may be recorded with its
    payload pending (``None``) and given it by ``fill`` before the next settle.
    """

    def __init__(self):
        self.directions: list[str] = []
        self.modules: list[str] = []
        self.kinds: list[str] = []
        self.bits: list[int] = []
        self.section_ids: list[int | None] = []
        self._payloads: list[bytes | None] = []  # of the messages not yet settled
        self._totals = {m: 0 for m in MODULES}
        self._digests = array("Q")
        self._entries: list[Message] = []

    def record(
        self,
        direction: str,
        module: str,
        kind: str,
        bits: int,
        payload: bytes | None = b"",
        section_id: int | None = None,
    ) -> int:
        """Append one message; returns its index."""
        return self.extend(module, [direction], [kind], [bits], [payload], [section_id])

    def extend(
        self,
        module: str,
        directions: list[str],
        kinds: list[str],
        bits: list[int],
        payloads: list[bytes | None],
        section_ids: list[int | None],
    ) -> int:
        """Append the messages of one module, given as columns; returns the first one's index.

        A payload of ``None`` is pending until ``fill``.
        """
        if module not in MODULES:
            raise ValueError(f"bad module {module!r}")
        bad = set(directions).difference((A2B, B2A))
        if bad:
            raise ValueError(f"bad direction {bad.pop()!r}")
        bad = set(kinds).difference(KINDS)
        if bad:
            raise ValueError(f"bad kind {bad.pop()!r}")
        if min(bits, default=0) < 0:
            raise ValueError("bits must be non-negative")
        if not len(directions) == len(kinds) == len(bits) == len(payloads) == len(section_ids):
            raise ValueError("message columns differ in length")
        first = len(self.kinds)
        self.directions += directions
        self.modules += [module] * len(kinds)
        self.kinds += kinds
        self.bits += bits
        self.section_ids += section_ids
        self._payloads += payloads
        self._totals[module] += sum(bits)
        return first

    def fill(self, indices: list[int], payloads: list[bytes]) -> None:
        """Give messages recorded with a pending payload their payloads."""
        settled, pending = len(self._digests), self._payloads
        for index, payload in zip(indices, payloads, strict=True):
            k = index - settled
            if not 0 <= k < len(pending) or pending[k] is not None:
                raise ValueError(f"message {index} has no pending payload")
            pending[k] = payload

    def settle(self) -> None:
        """Compute the chained digest of every message recorded since the last settle.

        Runs of messages whose payloads are all 0/1 bytes take one block fold
        over their joined payloads, read at each message's end; a message
        with any other byte (a ``Verify`` digest, ``ECBits`` positions) takes
        the byte loop.
        """
        payloads = self._payloads
        if not payloads:
            return
        if None in payloads:
            raise ValueError("a message's payload is still pending")
        h = self._digests[-1] if self._digests else _FNV_OFFSET
        buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        ends = np.cumsum([len(p) for p in payloads])
        # Messages holding a byte other than 0/1, in order.
        other = np.searchsorted(ends, np.flatnonzero(buf > 1), side="right").tolist()
        other = list(dict.fromkeys(other))
        first = 0
        for stop in other + [len(payloads)]:
            if stop > first:
                base = int(ends[first - 1]) if first else 0
                states = _fnv_states01(buf[base : ends[stop - 1]], h, ends[first:stop] - base)
                self._digests.frombytes(states.tobytes())
                h = self._digests[-1]
            if stop < len(payloads):
                h = fnv1a64(payloads[stop], h)
                self._digests.append(h)
            first = stop + 1
        self._payloads = []

    def total_bits(self, module: str | None = None) -> int:
        if module is None:
            return sum(self._totals.values())
        return self._totals[module]

    @property
    def final_digest(self) -> int:
        self.settle()
        return self._digests[-1] if self._digests else _FNV_OFFSET

    @property
    def entries(self) -> list[Message]:
        """Every message as a ``Message``, built on first use and cached."""
        self.settle()
        for i in range(len(self._entries), len(self.kinds)):
            self._entries.append(
                Message(
                    i,
                    self.directions[i],
                    self.modules[i],
                    self.kinds[i],
                    self.bits[i],
                    self.section_ids[i],
                    self._digests[i],
                )
            )
        return self._entries

    def messages_for_section(self, section_id: int) -> list[Message]:
        return [m for m in self.entries if m.section_id == section_id]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(m.to_json_obj(), separators=(",", ":")) + "\n" for m in self.entries
        )
