import gc
import json
import math
import time

import pytest

from delsync.core import (
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    random_bits,
    substream,
)
from delsync.harness import run_single
from delsync.protocol import Metrics, binary_entropy, error_correction_bits, synchronize


def make_params(**kw):
    base = dict(n=4000, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=1)
    base.update(kw)
    return ProtocolParams(**base)


def golden_metrics(bits, rounds, pivots, residual):
    """Metrics JSON of a pinned session, ``runtime_ms`` dropped."""
    return dict(
        bits_I=bits[0], bits_II=bits[1], bits_III=bits[2], bits_total=sum(bits),
        rounds_sequential=rounds[0], rounds_parallel=rounds[1],
        selected_pivots=pivots[0], false_pivots=pivots[1],
        residual_errors=residual, synchronized=True,
    )


# (params, x or None for the seeded uniform source, final digest, metrics),
# captured once and frozen.  The period-3 session is the only cheap one found
# whose Module III sends an ECBits payload; the all-zeros session is the only
# one whose candidate lists are dense (every pivot matches almost everywhere).
# The w = 3 session decodes a three-deletion part by the supersequence walk
# and splits the t = 3 parts too long to walk instead of aborting the run.
GOLDEN_SESSIONS = [
    (
        ProtocolParams(n=2000, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=7),
        None,
        0x0BB2918264A61F54,
        golden_metrics((203, 670, 64), (43, 29), (6, 0), 0),
    ),
    (
        ProtocolParams(n=50_000, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=7),
        None,
        0xEB13A72E33F1A08A,
        golden_metrics((6322, 19976, 64), (1127, 65), (180, 1), 0),
    ),
    (
        ProtocolParams(n=50_000, beta=0.005, w=1, a=(1,), seed=3, ec_policy="theoretical"),
        None,
        0x01BA570653C3C29E,
        golden_metrics((3565, 12165, 4040), (916, 53), (105, 0), 0),
    ),
    (
        ProtocolParams(n=1200, beta=0.01, seed=1),
        BitSeq([0, 0, 1] * 400),
        0x6617EB613EEDB1AA,
        golden_metrics((116, 1674, 433), (76, 21), (4, 4), 66),
    ),
    (
        ProtocolParams(n=2000, beta=0.01, seed=1),
        BitSeq.zeros(2000),
        0x3D8FD2D9C6CD7D68,
        golden_metrics((203, 2928, 64), (130, 21), (7, 7), 0),
    ),
    (
        ProtocolParams(n=6000, beta=0.01, w=3, a=(1, 3.5, 1.5), seed=0),
        None,
        0xDC37869513823E43,
        golden_metrics((725, 2882, 64), (160, 33), (17, 0), 0),
    ),
]
GOLDEN_IDS = [
    "n2000-improved", "n50000-improved", "n50000-w1-theoretical", "period3", "all-zeros",
    "w3-walk",
]


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_direct_value(self):
        assert abs(binary_entropy(0.02) - 0.141441) < 1e-6

    def test_symmetry(self):
        assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-12

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)


class TestErrorCorrectionBits:
    def test_no_errors_costs_digest_only(self):
        x = random_bits(1000, substream(2, "source"))
        bits, x_hat = error_correction_bits(x, x, make_params(n=1000))
        assert bits == 64 and x_hat == x

    def test_half_errors_costs_full_capacity(self):
        x = BitSeq([0] * 1000)
        x_bad = BitSeq(([0, 1] * 500))
        bits, x_hat = error_correction_bits(x, x_bad, make_params(n=1000))
        assert bits == 64 + 1000  # H(1/2) = 1
        assert x_hat == x

    def test_theoretical_policy_is_run_independent(self):
        params = make_params(n=50_000, ec_policy="theoretical")
        x = random_bits(50_000, substream(3, "source"))
        x_bad = BitSeq([1 - x[0]]) + x[1:]
        bits_clean, _ = error_correction_bits(x, x, params)
        bits_dirty, _ = error_correction_bits(x, x_bad, params)
        assert bits_clean == bits_dirty == math.ceil(50_000 * binary_entropy(0.02))
        # exact ceil of 50000*H(0.02) = 7072.03
        assert bits_clean == 7073

    def test_length_mismatch_rejected(self):
        x = BitSeq("1010")
        with pytest.raises(ValueError):
            error_correction_bits(x, x[:3], make_params(n=4))


class TestSynchronize:
    def test_identity_channel(self):
        params = make_params()
        x = random_bits(params.n, substream(4, "source"))
        x_hat, met, tr = synchronize(x, x, params)
        assert x_hat == x and met.synchronized
        # no deletions: zero syndrome/delimiter bits, only per-section case reports
        assert not any(m.kind in ("Syndrome", "Delimiter") for m in tr.entries)
        assert met.bits_III == 64
        assert met.residual_errors == 0

    def test_exact_synchronization_over_seeds(self):
        for seed in range(6):
            params = make_params(seed=seed)
            x = random_bits(params.n, substream(seed, "source"))
            out = apply_deletion_channel(x, params.beta, substream(seed, "channel"))
            x_hat, met, tr = synchronize(x, out.y, params, out)
            assert x_hat == x
            assert met.synchronized

    def test_session_leaves_no_garbage_cycle(self):
        # A reference cycle would keep a session's buffers alive until the
        # cyclic collector next ran.
        sessions = [
            ProtocolParams(n=6000, beta=0.01, w=w, a=(1, 3.5, 1.5)[:w], seed=0) for w in (1, 2, 3)
        ]
        for params in sessions:
            run_single(params)  # fills the caches
        gc.collect()
        gc.disable()
        try:
            for params in sessions:
                run_single(params)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_metrics_match_transcript(self):
        params = make_params(seed=9)
        x_hat, met, tr = run_single(params)
        assert met.bits_I == tr.total_bits("I")
        assert met.bits_II == tr.total_bits("II")
        assert met.bits_III == tr.total_bits("III")
        assert met.bits_total == met.bits_I + met.bits_II + met.bits_III
        assert met.bits_total == tr.total_bits()

    def test_module_one_accounting_exact(self):
        # N_I = (k-1) * L_P + (k-1)
        params = make_params(seed=11)
        x_hat, met, tr = run_single(params)
        piv = params.piv_len
        k = (params.n + piv) // (params.seg_len + piv)
        assert met.bits_I == (k - 1) * piv + (k - 1)

    def test_single_section_when_file_shorter_than_segment(self):
        params = make_params(n=150, beta=0.01, s=2)  # L_S = 200 > n
        x = random_bits(150, substream(5, "source"))
        out = apply_deletion_channel(x, 0.01, substream(5, "channel"))
        x_hat, met, tr = synchronize(x, out.y, params, out)
        assert x_hat == x
        assert met.bits_I == 0
        assert met.selected_pivots == 0

    def test_requires_matching_length(self):
        params = make_params(n=100)
        with pytest.raises(InvalidConfig):
            synchronize(BitSeq([0] * 99), BitSeq([0] * 99), params)

    def test_deterministic_transcripts(self):
        params = make_params(seed=21)
        _, met_a, tr_a = run_single(params)
        _, met_b, tr_b = run_single(params)
        assert tr_a.to_jsonl() == tr_b.to_jsonl()
        assert tr_a.final_digest == tr_b.final_digest
        a = met_a.to_json_obj()
        b = met_b.to_json_obj()
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b

    def test_all_zeros_session_is_fast(self):
        # every pivot matches almost everywhere in y: dense candidate lists
        params = make_params(n=5000, seed=1)
        x = BitSeq.zeros(5000)
        out = apply_deletion_channel(x, params.beta, substream(1, "channel"))
        started = time.perf_counter()
        _, met, _ = synchronize(x, out.y, params, out)
        assert time.perf_counter() - started < 20
        assert met.synchronized

    @pytest.mark.parametrize("params, x, digest, expected", GOLDEN_SESSIONS, ids=GOLDEN_IDS)
    def test_small_golden_digest(self, params, x, digest, expected):
        # pins the wire format across versions, not just within one process
        if x is None:
            x = random_bits(params.n, substream(params.seed, "source"))
        out = apply_deletion_channel(x, params.beta, substream(params.seed, "channel"))
        _, met, tr = synchronize(x, out.y, params, out)
        obj = met.to_json_obj()
        obj.pop("runtime_ms")
        assert tr.final_digest == digest
        assert obj == expected

    def test_large_golden_digest(self):
        # bigfile scale: hundreds of two-deletion parts, so the Module II
        # decode and syndrome batches span more than one table chunk
        _, met, tr = run_single(ProtocolParams(n=200_000, beta=0.01, seed=1))
        obj = met.to_json_obj()
        obj.pop("runtime_ms")
        assert tr.final_digest == 0xADE99FD11436986E
        assert obj == golden_metrics((25404, 83811, 64), (4745, 67), (688, 0), 0)

    def test_section_deletion_totals_match_channel(self):
        # golden seed-7 run at paper scale
        params = ProtocolParams(n=50_000, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=7)
        x = random_bits(params.n, substream(7, "source"))
        out = apply_deletion_channel(x, params.beta, substream(7, "channel"))
        x_hat, met, tr = synchronize(x, out.y, params, out)
        assert x_hat == x
        assert met.selected_pivots == 180
        assert met.false_pivots == 1
        assert met.bits_total == 26362

    def test_policy_ordering(self):
        # empirical charge stays at or below the theoretical constant when
        # recovery leaves few residual errors
        wins = 0
        for seed in range(10):
            emp = make_params(seed=seed)
            theo = make_params(seed=seed, ec_policy="theoretical")
            _, m_emp, _ = run_single(emp)
            _, m_theo, _ = run_single(theo)
            assert m_theo.bits_III == math.ceil(4000 * binary_entropy(0.02))
            if m_emp.bits_III <= m_theo.bits_III:
                wins += 1
        assert wins >= 9

    def test_rounds_accounting(self):
        params = make_params(seed=2)
        _, met, tr = run_single(params)
        assert met.rounds_parallel <= met.rounds_sequential
        # module I contributes two rounds, module III one
        assert met.rounds_parallel >= 3

    def test_metrics_json_field_names(self):
        params = make_params(seed=1)
        _, met, _ = run_single(params)
        obj = json.loads(met.to_json())
        assert list(obj) == [
            "bits_I",
            "bits_II",
            "bits_III",
            "bits_total",
            "rounds_sequential",
            "rounds_parallel",
            "selected_pivots",
            "false_pivots",
            "residual_errors",
            "synchronized",
            "runtime_ms",
        ]


class TestResidualRateAtScale:
    def test_residual_rate_bounded_at_s2(self):
        # spot check of the pre-Module-III substitution rate at n=50,000, s=2
        rates = []
        for seed in range(12):
            params = ProtocolParams(n=50_000, beta=0.01, s=2, c=3, w=2, a=(1, 3.5), seed=seed)
            x = random_bits(params.n, substream(seed, "source"))
            out = apply_deletion_channel(x, params.beta, substream(seed, "channel"))
            _, met, _ = synchronize(x, out.y, params, out)
            rates.append(met.residual_errors / params.n)
        assert sum(rates) / len(rates) <= 4 * 0.01


class TestFalsePivotAccounting:
    def test_beta_zero_channel_no_false_pivots(self):
        params = make_params(seed=31)
        x = random_bits(params.n, substream(31, "source"))
        x_hat, met, tr = synchronize(x, x, params)
        assert met.false_pivots == 0
        assert met.selected_pivots == (params.n + params.piv_len) // (
            params.seg_len + params.piv_len
        ) - 1

    def test_leftmost_embedding_fallback(self):
        # without a channel outcome the count uses the canonical embedding
        params = make_params(seed=32)
        x = random_bits(params.n, substream(32, "source"))
        out = apply_deletion_channel(x, params.beta, substream(32, "channel"))
        _, met_exact, _ = synchronize(x, out.y, params, out)
        _, met_canon, _ = synchronize(x, out.y, params)
        assert met_canon.selected_pivots == met_exact.selected_pivots
