"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  All randomized checks use fixed seeds, so every
number asserted here is deterministic.

The end-to-end grids charge Module III at channel capacity (the
"theoretical" policy), matching how the measurements behind the comparison
figures account for error-correction bits.
"""

import itertools
import math
import random
import statistics

import pytest

from delsync.analysis import (
    baseline_bound_coefficient,
    expected_delimiter_bits_bound,
    redundancy_coefficient,
)
from delsync.codes import CodeSpec, enumerate_supersequences, make_syndrome, multi_decode, vt_decode, vt_syndrome
from delsync.core import BitSeq, ProtocolParams, Transcript, apply_deletion_channel, random_bits, substream
from delsync.harness import BASELINE, IMPROVED, run_point, run_single
from delsync.matching import SectionPair
from delsync.protocol import synchronize
from delsync.recovery import RecoveryBatch, delimiter_length, recover_section

N = 50_000
BETAS = tuple(round(0.001 * k, 3) for k in range(1, 11))
S_GRID = (1, 1.5, 2, 2.5, 3, 4, 5)
SEEDS = 20


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def fig3_rows():
    """beta -> list of (baseline_row, improved_row), paired per seed."""
    table = {}
    for beta in BETAS:
        pairs = []
        for seed in range(SEEDS):
            rows = run_point(N, beta, 2.0, [BASELINE, IMPROVED], seed, "theoretical")
            base = next(r for r in rows if r["w"] == 1)
            imp = next(r for r in rows if r["w"] == 2)
            pairs.append((base, imp))
        table[beta] = pairs
    return table


@pytest.fixture(scope="module")
def fig2_means():
    """(beta, variant name) -> list of mean bits_total along S_GRID."""
    table = {}
    for beta, seeds in ((0.01, 20), (0.001, 48)):
        for var in (IMPROVED, BASELINE):
            means = []
            for s in S_GRID:
                tots = [
                    run_point(N, beta, s, [var], seed, "theoretical")[0]["bits_total"]
                    for seed in range(seeds)
                ]
                means.append(statistics.mean(tots))
            table[(beta, var.name)] = means
    return table


def test_criterion_1_formula_fixtures():
    ok = (
        redundancy_coefficient(1, 1, 1, 3) == 36.0
        and redundancy_coefficient(2, 2, 3.5, 3) == 28.5
        and baseline_bound_coefficient(3) == 109.0
    )
    report(1, ok, "r(1,1,1,3)=36, r(2,2,3.5,3)=28.5, baseline(3)=109")
    assert ok


def test_criterion_2_vt_exhaustive_and_supersequence_law():
    failures = 0
    for m in range(1, 13):
        for bits in itertools.product([0, 1], repeat=m):
            x = BitSeq(bits)
            syn = vt_syndrome(x)
            for p in range(m):
                if vt_decode(x.delete([p]), syn, m) != x:
                    failures += 1
    count_law = all(
        len(enumerate_supersequences(BitSeq(bits), 1)) == m + 2
        for m in range(0, 13)
        for bits in itertools.product([0, 1], repeat=m)
    )
    ok = failures == 0 and count_law
    report(2, ok, f"VT exhaustive |x|<=12 failures={failures}; |superseq(y,1)|=|y|+2 {count_law}")
    assert ok


def test_criterion_3_two_deletion_round_trip():
    spec = CodeSpec.from_seed(2, (1.0, 3.5), seed=2024)
    rng = random.Random(2024)
    failures = 0
    bad_lengths = 0
    trials = 10_000
    for _ in range(trials):
        m = rng.randint(16, 512)
        x = BitSeq([rng.randint(0, 1) for _ in range(m)])
        y = x.delete(sorted(rng.sample(range(m), 2)))
        syn = make_syndrome(x, 2, spec)
        if len(syn.value) != math.ceil(7 * math.log2(m)):
            bad_lengths += 1
        if multi_decode(y, 2, syn, m, spec) != x:
            failures += 1
    ok = failures == 0 and bad_lengths == 0
    report(3, ok, f"{trials} trials, decode failures={failures}, wrong syndrome lengths={bad_lengths}")
    assert ok


def test_criterion_4_delimiter_bit_bound():
    n_s, c = 1000, 3.0
    l = delimiter_length(c, n_s)
    ok = True
    details = []
    for w in (1, 2):
        spec = CodeSpec.from_seed(w, (1.0,) if w == 1 else (1.0, 3.5), seed=99)
        for t in (3, 5, 8):
            rng = random.Random(1_000_000 + 100 * w + t)
            samples = []
            for _ in range(1000):
                x = BitSeq([rng.randint(0, 1) for _ in range(n_s)])
                y = x.delete(sorted(rng.sample(range(n_s), t)))
                tr = Transcript()
                batch = RecoveryBatch(x.to_bytes01(), y.to_bytes01(), spec, c, tr)
                recover_section(SectionPair(0, (0, n_s), (0, len(y)), t), batch)
                out, _ = batch.run()
                assert len(out) == n_s
                samples.append(sum(m.bits for m in tr.entries if m.kind == "Delimiter"))
            mean = statistics.mean(samples)
            bound = expected_delimiter_bits_bound(t, w, l)
            details.append(f"(t={t},w={w}): {mean:.0f}<={bound:.0f}")
            ok &= mean <= bound
    report(4, ok, "mean delimiter bits within the split-cost bound " + ", ".join(details))
    assert ok


def test_criterion_5_end_to_end_correctness(fig3_rows):
    bad = sum(
        (not base["synchronized"]) + (not imp["synchronized"])
        for pairs in fig3_rows.values()
        for base, imp in pairs
    )
    total = sum(2 * len(p) for p in fig3_rows.values())
    ok = bad == 0
    report(5, ok, f"{total} runs across {len(BETAS)} rates x {SEEDS} seeds x 2 variants, failures={bad}")
    assert ok


def test_criterion_6_total_cost_bound(fig3_rows):
    ok = True
    worst = 0.0
    for beta, pairs in fig3_rows.items():
        bound = 28.5 * N * beta * math.log2(1 / beta)
        tots = [imp["bits_total"] for _, imp in pairs]
        ok &= all(t <= 1.05 * bound for t in tots)
        ok &= statistics.mean(tots) <= bound
        worst = max(worst, max(tots) / bound)
    report(6, ok, f"per-seed bits_total <= 1.05 * 28.5*n*b*log2(1/b); worst seed at {worst:.2f} of bound")
    assert ok


def test_criterion_7_fig3_reduction(fig3_rows):
    directional = True
    medians = []
    reductions = []
    intervals = []
    for beta, pairs in fig3_rows.items():
        base_mean = statistics.mean(b["bits_total"] for b, _ in pairs)
        imp_mean = statistics.mean(i["bits_total"] for _, i in pairs)
        directional &= imp_mean < base_mean
        per_seed = [
            100 * (b["bits_total"] - i["bits_total"]) / b["bits_total"] for b, i in pairs
        ]
        medians.append(statistics.median(per_seed))
        reductions.append(100 * (base_mean - imp_mean) / base_mean)
        half = 1.96 * statistics.stdev(per_seed) / len(per_seed) ** 0.5
        intervals.append(
            f"b={beta:g}: {statistics.mean(per_seed):.1f}+/-{half:.1f}%"
        )
    max_reduction = max(reductions)
    median_ok = all(m >= 5.0 for m in medians)
    window_ok = 8.0 <= max_reduction <= 18.0
    ok = directional and median_ok and window_ok
    print("  per-rate reduction, 95% CI over paired seeds: " + "; ".join(intervals))
    report(
        7,
        ok,
        f"improved<baseline at all rates: {directional}; medians>=5%: {median_ok} "
        f"(min median {min(medians):.1f}%); max reduction {max_reduction:.1f}% in [8,18]: {window_ok}",
    )
    assert ok


def test_criterion_8_fig2_shape(fig2_means):
    ok = True
    details = []
    for beta in (0.01, 0.001):
        means = fig2_means[(beta, "improved")]
        rising = all(a <= b for a, b in zip(means, means[1:]))
        falling = all(a >= b for a, b in zip(means, means[1:]))
        amin = S_GRID[means.index(min(means))]
        this_ok = (not rising) and (not falling) and 1.5 <= amin <= 3.5
        details.append(f"beta={beta}: argmin={amin} non-monotonic={not (rising or falling)}")
        ok &= this_ok
    report(8, ok, "improved-protocol mean bits vs s: " + "; ".join(details))
    assert ok


def test_criterion_9_matching_error_statistics():
    seeds = 50
    selected, false = 0, 0
    resid = []
    for seed in range(seeds):
        params = ProtocolParams(n=N, beta=0.01, s=1, c=3, w=2, a=(1, 3.5), seed=seed)
        x = random_bits(N, substream(seed, "source"))
        out = apply_deletion_channel(x, 0.01, substream(seed, "channel"))
        _, met, _ = synchronize(x, out.y, params, out)
        selected += met.selected_pivots
        false += met.false_pivots
        resid.append(met.residual_errors / N)
    false_fraction = false / selected
    resid_mean = statistics.mean(resid)
    ok = false_fraction <= 2 * 0.01 and resid_mean <= 4 * 0.01
    report(
        9,
        ok,
        f"false-pivot fraction {false_fraction:.5f} <= 0.02; residual rate {resid_mean:.6f} <= 0.04 ({seeds} seeds)",
    )
    assert ok


def test_criterion_10_determinism_golden_run():
    params = ProtocolParams(n=N, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=7)

    def one():
        _, met, tr = run_single(params)
        obj = met.to_json_obj()
        obj["runtime_ms"] = 0  # wall-clock is the one non-protocol field
        import json

        return tr.to_jsonl().encode(), json.dumps(obj, separators=(",", ":")).encode()

    jsonl_a, metrics_a = one()
    jsonl_b, metrics_b = one()
    ok = jsonl_a == jsonl_b and metrics_a == metrics_b
    report(
        10,
        ok,
        f"transcript JSONL byte-identical: {jsonl_a == jsonl_b}; "
        f"metrics JSON (runtime zeroed) byte-identical: {metrics_a == metrics_b}",
    )
    assert ok
