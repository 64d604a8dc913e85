"""Full-session orchestration and Module III accounting.

``synchronize`` drives Modules I-III over a simulated noiseless two-way
channel and returns the reconstructed sequence, per-run metrics, and the
complete message transcript.  Module III is accounting-only: residual
substitutions are charged at channel capacity (plus a verification digest
under the empirical policy) and the output is taken as corrected.

Module I depends only on X, Y, L_S and L_P, so protocol variants that differ
in their codes alone send the same pivots and get the same sections.  Within
a :func:`shared_matching` scope, sessions over the same X, Y and layout
compute Module I once; each still records its own messages and runs its own
Modules II and III.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import (
    BitSeq,
    ChannelOutcome,
    InvalidConfig,
    ProtocolParams,
    Transcript,
    fnv1a64,
)
from .codes import CodeSpec
from .matching import (
    EncoderLayout,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    select_pivots,
)
from .recovery import recover_section

__all__ = [
    "Metrics",
    "binary_entropy",
    "error_correction_bits",
    "shared_matching",
    "synchronize",
]

VERIFY_BITS = 64


@dataclass(frozen=True)
class Metrics:
    bits_I: int
    bits_II: int
    bits_III: int
    bits_total: int
    rounds_sequential: int
    rounds_parallel: int
    selected_pivots: int
    false_pivots: int
    residual_errors: int
    synchronized: bool
    runtime_ms: int

    def to_json_obj(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def binary_entropy(p: float) -> float:
    """H(p) in bits; 0 at both endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return p * math.log2(1.0 / p) + (1.0 - p) * math.log2(1.0 / (1.0 - p))


def error_correction_bits(
    x: bytes, estimate: bytes | bytearray, params: ProtocolParams
) -> tuple[list[str], list[int], list[bytes], np.ndarray]:
    """Module III's messages, as kind, bits and payload columns, and the
    positions where ``estimate`` differs from X.

    X and the estimate are 0/1 bytes of one length.  Empirical policy: a
    ``Verify`` digest of X, then an ``ECBits`` listing the positions as
    big-endian uint32 and charging the capacity of the measured substitution
    rate, when that charge is above 0.  Theoretical policy: one ``ECBits``
    charging the capacity of the 2*beta worst-case rate, independent of the
    run.
    """
    if len(estimate) != len(x):
        raise ValueError("length mismatch: recovery must restore section lengths")
    n = len(x)
    err_pos = np.flatnonzero(
        np.frombuffer(x, dtype=np.uint8) != np.frombuffer(estimate, dtype=np.uint8)
    )
    if params.ec_policy == core.EC_THEORETICAL:
        bits = math.ceil(n * binary_entropy(min(2.0 * params.beta, 0.5)))
        return ["ECBits"], [bits], [b""], err_pos
    e = len(err_pos)
    bits = math.ceil(n * binary_entropy(e / n)) if e else 0
    kinds, bits_col, payloads = ["Verify"], [VERIFY_BITS], [fnv1a64(x).to_bytes(8, "big")]
    if bits:
        kinds.append("ECBits")
        bits_col.append(bits)
        payloads.append(err_pos.astype(">u4").tobytes())
    return kinds, bits_col, payloads, err_pos


def _leftmost_embedding_deletions(x: bytes, y: bytes) -> np.ndarray:
    """Canonical deletion positions: greedily match y into x left to right."""
    deleted = []
    j = 0
    for i, b in enumerate(x):
        if j < len(y) and b == y[j]:
            j += 1
        else:
            deleted.append(i)
    if j != len(y):
        raise InvalidConfig("y is not a subsequence of x")
    return np.array(deleted, dtype=np.int64)


def _count_false_pivots(selection: np.ndarray, piv_len: int, deleted: np.ndarray) -> int:
    """Selected matches whose position is not explained by the deletion pattern.

    ``selection`` holds one (pivot index, y start, x start) row per match.  A
    match is correct when the pivot string survived and the occurrence
    starts at the deletion-adjusted start or ends at the deletion-adjusted
    end (a deletion inside a uniform run can be read as falling outside).
    """
    _, y_start, x_start = selection.T
    bounds = np.stack((x_start, x_start + piv_len))
    start, end = bounds - np.searchsorted(deleted, bounds)
    return int(np.count_nonzero((y_start != start) & (y_start + piv_len != end)))


@dataclass(frozen=True)
class _Matching:
    """Module I's outcome for one (X, Y, L_S, L_P).  When the layout has one
    segment the pivots and feedback are empty, the selection has no rows and
    the one section is all of X and Y.  The arrays are read-only: the
    sessions of a ``shared_matching`` scope read the same ones."""

    layout: EncoderLayout
    pivots: bytes  # the Pivots payload: every pivot of X, back to back
    selection: np.ndarray  # select_pivots rows: (pivot index, y start, x start)
    feedback: bytes  # the PivotFeedback payload: 1 for each selected pivot
    sections: np.ndarray  # form_sections rows: (x0, x1, y0, y1, t)


# Module I outcomes by (X bytes, Y bytes, L_S, L_P), kept only inside a
# shared_matching scope.
_SHARED: ContextVar[dict | None] = ContextVar("delsync_shared_matching", default=None)


@contextmanager
def shared_matching():
    """Let the sessions run inside this scope share Module I.

    A session over the X, Y, L_S and L_P of an earlier one in the scope
    reuses its layout, selection and sections; its messages, metrics and
    digests are those it would have had alone.  Nothing is kept after the
    scope exits.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _match(x: bytes, y: bytes, seg_len: int, piv_len: int) -> _Matching:
    """Module I: Alice's pivots, Bob's selected chain and the sections it cuts."""
    layout = partition_encoder(len(x), seg_len, piv_len)
    starts = layout.pivot_starts
    pivots = np.frombuffer(x, dtype=np.uint8)[starts[:, None] + np.arange(piv_len)]
    candidates = find_candidates(candidate_index(y, pivots), starts)
    selection = select_pivots(candidates, layout)
    flags = np.zeros(layout.k - 1, dtype=np.uint8)
    flags[selection[:, 0] - 1] = 1
    sections = form_sections(selection, layout, len(y))
    selection.flags.writeable = sections.flags.writeable = False
    return _Matching(layout, pivots.tobytes(), selection, flags.tobytes(), sections)


def synchronize(
    x: BitSeq,
    y: BitSeq,
    params: ProtocolParams,
    channel: ChannelOutcome | None = None,
) -> tuple[BitSeq, Metrics, Transcript]:
    """Run one full session; returns (reconstruction, metrics, transcript).

    ``y`` must be a subsequence of ``x``.  Passing the channel outcome makes
    the false-pivot count exact; otherwise it is measured against the
    canonical leftmost embedding of y in x.  A channel outcome must be the
    one that made ``y``: its ``y`` is ``y`` or equals it, and its positions
    are |x| - |y| strictly increasing positions of ``x``, or ``InvalidConfig``
    is raised.
    """
    if params.n != len(x):
        raise InvalidConfig(f"params.n={params.n} but |x|={len(x)}")
    if channel is not None:
        deleted = np.asarray(channel.deleted_positions, dtype=np.int64)
        # -1 < d_0 < d_1 < ... < |x|: strictly rising within [0, |x|)
        edges = np.concatenate(([-1], deleted, [len(x)]))
        rising = (edges[1:] > edges[:-1]).all()
        if not (channel.y is y or channel.y == y) or len(deleted) != len(x) - len(y) or not rising:
            raise InvalidConfig("the channel outcome did not make y from x")
    started = time.perf_counter()
    transcript = Transcript()
    codes = CodeSpec.from_seed(params.w, params.a, params.seed)
    seg_len, piv_len = params.seg_len, params.piv_len
    x_bytes, y_bytes = x.to_bytes01(), y.to_bytes01()

    # Module I: pivots out, selection feedback back.
    shared = _SHARED.get()
    key = (x_bytes, y_bytes, seg_len, piv_len)
    matching = shared.get(key) if shared is not None else None
    if matching is None:
        matching = _match(x_bytes, y_bytes, seg_len, piv_len)
        if shared is not None:
            shared[key] = matching
    layout, selection, sections = matching.layout, matching.selection, matching.sections
    if layout.k > 1:
        transcript.extend(["Pivots", "PivotFeedback"], [(layout.k - 1) * piv_len, layout.k - 1],
                          [matching.pivots, matching.feedback], [None, None])

    # Module II: per-section divide-and-conquer recovery.
    estimate, _, runs = recover_section(sections, x_bytes, y_bytes, codes, params.c, transcript)
    # The selected pivots were transmitted in Module I.
    at = (selection[:, 2, None] + np.arange(piv_len)).ravel()
    np.frombuffer(estimate, dtype=np.uint8)[at] = np.frombuffer(x_bytes, dtype=np.uint8)[at]

    # Module III: capacity-charged error correction.
    kinds, bits, payloads, err_pos = error_correction_bits(x_bytes, estimate, params)
    transcript.extend(kinds, bits, payloads, [None] * len(kinds))

    # Rounds: alternating-direction batches. Module I contributes two, Module
    # III one; each section contributes its own run count (sections are
    # independent, so the parallel figure takes the slowest section).
    rounds_i = 2 if layout.k > 1 else 0
    rounds_seq = rounds_i + sum(runs) + 1
    rounds_par = rounds_i + max(runs) + 1

    if channel is None:
        deleted = _leftmost_embedding_deletions(x_bytes, y_bytes)
    false_pivots = _count_false_pivots(selection, piv_len, deleted)

    metrics = Metrics(
        bits_I=transcript.total_bits("I"),
        bits_II=transcript.total_bits("II"),
        bits_III=transcript.total_bits("III"),
        bits_total=transcript.total_bits(),
        rounds_sequential=rounds_seq,
        rounds_parallel=rounds_par,
        selected_pivots=len(selection),
        false_pivots=false_pivots,
        residual_errors=len(err_pos),
        synchronized=True,  # Module III is accounting only: the output is X itself
        runtime_ms=int(round((time.perf_counter() - started) * 1000)),
    )
    return x, metrics, transcript
