"""Full-session orchestration and Module III accounting.

``synchronize`` drives Modules I-III over a simulated noiseless two-way
channel and returns the reconstructed sequence, per-run metrics, and the
complete message transcript.  Module III is accounting-only: residual
substitutions are charged at channel capacity (plus a verification digest
under the empirical policy) and the output is taken as corrected.
"""

from __future__ import annotations

import bisect
import json
import math
import time
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
    SectionPair,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    select_pivots,
)
from .recovery import RecoveryBatch, RecoveryTask, recover_section

__all__ = [
    "Metrics",
    "binary_entropy",
    "error_correction_bits",
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
    x: BitSeq, x_partial: BitSeq, params: ProtocolParams
) -> tuple[int, BitSeq]:
    """Module III bit charge and the (modeled) corrected output.

    Empirical policy: a fixed verification digest plus the capacity of the
    measured substitution rate.  Theoretical policy: the capacity of the
    2*beta worst-case rate, independent of the run.
    """
    if len(x_partial) != len(x):
        raise ValueError("length mismatch: recovery must restore section lengths")
    n = len(x)
    if params.ec_policy == core.EC_THEORETICAL:
        return math.ceil(n * binary_entropy(min(2.0 * params.beta, 0.5))), x
    e = _hamming(x, x_partial)
    bits = VERIFY_BITS + (math.ceil(n * binary_entropy(e / n)) if e else 0)
    return bits, x


def _hamming(a: BitSeq, b: BitSeq) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return int((a.to_numpy() != b.to_numpy()).sum())


def _leftmost_embedding_deletions(x: BitSeq, y: BitSeq) -> tuple[int, ...]:
    """Canonical deletion positions: greedily match y into x left to right."""
    xd, yd = x.to_bytes01(), y.to_bytes01()
    deleted = []
    j = 0
    for i, b in enumerate(xd):
        if j < len(yd) and b == yd[j]:
            j += 1
        else:
            deleted.append(i)
    if j != len(yd):
        raise InvalidConfig("y is not a subsequence of x")
    return tuple(deleted)


def _count_false_pivots(selection, layout, deleted: tuple[int, ...]) -> int:
    """Selected matches whose position is not explained by the deletion pattern.

    A match is correct when the pivot string survived and the occurrence
    starts at the deletion-adjusted start or ends at the deletion-adjusted
    end (a deletion inside a uniform run can be read as falling outside).
    """
    false = 0
    for sel in selection:
        x_start, x_end = layout.pivot_spans[sel.pivot_index - 1]
        start_aligned = x_start - bisect.bisect_left(deleted, x_start)
        end_aligned = x_end - bisect.bisect_left(deleted, x_end)
        if sel.y_start != start_aligned and sel.y_start + layout.piv_len != end_aligned:
            false += 1
    return false


def _section_runs(transcript: Transcript) -> dict[int, int]:
    """Alternating-direction runs per section id, in one pass over the transcript."""
    runs: dict[int, int] = {}
    last: dict[int, str] = {}
    for sid, direction in zip(transcript.section_ids, transcript.directions):
        if sid is not None and last.get(sid) != direction:
            last[sid] = direction
            runs[sid] = runs.get(sid, 0) + 1
    return runs


def synchronize(
    x: BitSeq,
    y: BitSeq,
    params: ProtocolParams,
    channel: ChannelOutcome | None = None,
) -> tuple[BitSeq, Metrics, Transcript]:
    """Run one full session; returns (reconstruction, metrics, transcript).

    ``y`` must be a subsequence of ``x``.  Passing the channel outcome makes
    the false-pivot count exact; otherwise it is measured against the
    canonical leftmost embedding of y in x.
    """
    if params.n != len(x):
        raise InvalidConfig(f"params.n={params.n} but |x|={len(x)}")
    started = time.perf_counter()
    transcript = Transcript()
    codes = CodeSpec.from_seed(params.w, params.a, params.seed)
    seg_len, piv_len = params.seg_len, params.piv_len

    # Module I: pivots out, selection feedback back.
    layout = None
    selection = []
    if len(x) >= seg_len:
        layout = partition_encoder(len(x), seg_len, piv_len)
    if layout is not None and layout.k >= 2:
        pivot_bits = [x[a:b] for a, b in layout.pivot_spans]
        transcript.record(
            core.A2B,
            "I",
            "Pivots",
            (layout.k - 1) * piv_len,
            b"".join(p.to_bytes01() for p in pivot_bits),
        )
        index = candidate_index(y, pivot_bits)
        candidates = [
            find_candidates(index, pivot_bits[i], layout.pivot_spans[i][0])
            for i in range(layout.k - 1)
        ]
        selection = select_pivots(candidates, layout)
        chosen = {m.pivot_index for m in selection}
        feedback = BitSeq([1 if i + 1 in chosen else 0 for i in range(layout.k - 1)])
        transcript.record(core.B2A, "I", "PivotFeedback", layout.k - 1, feedback.to_bytes01())
        sections = form_sections(selection, layout, len(y))
    else:
        sections = [SectionPair(0, (0, len(x)), (0, len(y)), len(x) - len(y))]

    # Module II: per-section divide-and-conquer recovery; every syndrome and
    # decode of the session runs in one batch once the sections are walked.
    batch = RecoveryBatch(codes, transcript)
    for sec in sections:
        x_part = x[sec.x_span[0] : sec.x_span[1]]
        y_part = y[sec.y_span[0] : sec.y_span[1]]
        recover_section(RecoveryTask(sec, x_part, y_part, 0, params.c), batch)
    pieces = [est for est, _ in batch.run()]

    assembled = []
    for i, sec in enumerate(sections):
        assembled.append(pieces[i])
        if i < len(selection):
            ps, pe = sec.x_span[1], sec.x_span[1] + piv_len
            assembled.append(x[ps:pe])  # selected pivots were transmitted in Module I
    x_partial = BitSeq(b"".join(p.to_bytes01() for p in assembled))

    # Module III: capacity-charged error correction.
    bits_iii, x_hat = error_correction_bits(x, x_partial, params)
    err_pos = np.flatnonzero(x.to_numpy() != x_partial.to_numpy())
    if params.ec_policy == core.EC_THEORETICAL:
        transcript.record(core.A2B, "III", "ECBits", bits_iii, b"")
    else:
        digest = fnv1a64(x.to_bytes01())
        transcript.record(core.A2B, "III", "Verify", VERIFY_BITS, digest.to_bytes(8, "big"))
        if bits_iii > VERIFY_BITS:
            transcript.record(
                core.A2B, "III", "ECBits", bits_iii - VERIFY_BITS, err_pos.astype(">u4").tobytes()
            )

    # Rounds: alternating-direction batches. Module I contributes two, Module
    # III one; each section contributes its own run count (sections are
    # independent, so the parallel figure takes the slowest section).
    rounds_i = 2 if (layout is not None and layout.k >= 2) else 0
    runs = _section_runs(transcript)
    per_section = [runs.get(sec.section_id, 0) for sec in sections]
    rounds_seq = rounds_i + sum(per_section) + 1
    rounds_par = rounds_i + max(per_section) + 1

    deleted = channel.deleted_positions if channel is not None else _leftmost_embedding_deletions(x, y)
    false_pivots = _count_false_pivots(selection, layout, deleted) if selection else 0

    transcript.settle()  # every digest is computed within the session
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
        synchronized=(x_hat == x),
        runtime_ms=int(round((time.perf_counter() - started) * 1000)),
    )
    return x_hat, metrics, transcript
