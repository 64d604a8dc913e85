import gc
import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from delsync import codes, recovery
from delsync.codes import MAX_SYNDROME_BITS
from delsync.core import (
    BitSeq,
    ChannelOutcome,
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    fnv1a64,
    random_bits,
    substream,
)
import delsync.protocol as protocol
from delsync.harness import run_single
from delsync.protocol import (
    Metrics,
    binary_entropy,
    error_correction_bits,
    shared_matching,
    synchronize,
)


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
# The last two run Module I on one segment, so send no pivots: at n = 150
# X is shorter than L_S = 200 and one syndrome settles it; at n = 300 the
# single section is split at a delimiter.
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
    (
        ProtocolParams(n=150, beta=0.01, seed=3),
        None,
        0x7AF6835A11CEB4CC,
        golden_metrics((0, 53, 64), (3, 3), (0, 0), 0),
    ),
    (
        ProtocolParams(n=300, beta=0.01, seed=3),
        None,
        0x0CA7DA3C61BE4C72,
        golden_metrics((0, 196, 64), (7, 7), (0, 0), 0),
    ),
]
GOLDEN_IDS = [
    "n2000-improved", "n50000-improved", "n50000-w1-theoretical", "period3", "all-zeros",
    "w3-walk", "n150-under-one-segment", "n300-one-segment",
]
LARGE_GOLDEN = ProtocolParams(n=200_000, beta=0.01, seed=1)
# SHA-256 of each golden session's ``Transcript.to_jsonl()``, captured once
# and frozen: the chained digest covers payloads only, so these pin each
# message's index, direction, module, kind, bits and section as written.
GOLDEN_JSONL = {
    "n2000-improved": "99f958868dafc01e9b4d938d0d7c8cbdce2f33f8d91def037fd06880e111534c",
    "n50000-improved": "91879060377798bfb43efe4f5d3aa78d90be15c203c45db4105bd62f7239afe8",
    "n50000-w1-theoretical": "902e212f2d4ca8190d0882012a1f1a1cf194d0330c9d536d6701a91c95d701a9",
    "period3": "7cdcc422a1aaa459c078351487bc65fc89874d4d17b12c2a86e74aeb28233219",
    "all-zeros": "6130caab56e38da1a05b2b731bd848b50f10b79ba32c55e9bd1179774d32bf07",
    "w3-walk": "e1724d44e5f5ba1e157fa81638d92ef00456d87d7fe43ec0716f0ce1b7b7f17a",
    "n150-under-one-segment": "0d035afd6c9beca4b625f4bdb09171c5679cbca9648e3e873cdbe7b76794b65c",
    "n300-one-segment": "7cdf7748d3c74571b03356943502a2a7d34e9a144e27db9d22ae8c8739fa6c53",
    "large": "28e9f381db689e52d19953f4d90cda4c4497e759418a184b17427d45132ec584",
}
# tracemalloc peak of one LARGE_GOLDEN session above its start, cold power
# tables included, measured on the code before the Module II step size was
# doubled (2,044,825 bytes); a session may take at most 10% more.
SESSION_PEAK_BYTES = 2_044_825
# The same for one n = 10^6 session, measured on the code before Module II
# searched its delimiters over window views (8,107,901 to 8,110,678 bytes);
# a view of X and one of Y held into the codes read 10,098,555.
MILLION = ProtocolParams(n=10**6, beta=0.01, seed=1)
MILLION_PEAK_BYTES = 8_110_678


def golden_session(params, x=None):
    """The seeded session a golden pin was captured from: X is ``x`` or the
    seed's uniform source, sent through the seed's deletion channel."""
    if x is None:
        x = random_bits(params.n, substream(params.seed, "source"))
    out = apply_deletion_channel(x, params.beta, substream(params.seed, "channel"))
    return x, out


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
        x = random_bits(1000, substream(2, "source")).to_bytes01()
        kinds, bits, payloads, err_pos = error_correction_bits(x, x, make_params(n=1000))
        assert sum(bits) == 64 and err_pos.tolist() == []
        assert kinds == ["Verify"] and payloads == [fnv1a64(x).to_bytes(8, "big")]

    def test_half_errors_costs_full_capacity(self):
        x = bytes(1000)
        x_bad = bytes([0, 1] * 500)
        _, bits, _, err_pos = error_correction_bits(x, x_bad, make_params(n=1000))
        assert sum(bits) == 64 + 1000  # H(1/2) = 1
        assert err_pos.tolist() == list(range(1, 1000, 2))

    def test_theoretical_policy_is_run_independent(self):
        params = make_params(n=50_000, ec_policy="theoretical")
        x = random_bits(50_000, substream(3, "source")).to_bytes01()
        x_bad = bytearray(x)
        for p in (0, 777, 49_999):
            x_bad[p] ^= 1
        _, bits_clean, _, _ = error_correction_bits(x, x, params)
        _, bits_dirty, _, err_pos = error_correction_bits(x, x_bad, params)
        assert sum(bits_clean) == sum(bits_dirty) == math.ceil(50_000 * binary_entropy(0.02))
        # exact ceil of 50000*H(0.02) = 7072.03
        assert sum(bits_clean) == 7073
        assert err_pos.tolist() == [0, 777, 49_999]

    def test_length_mismatch_rejected(self):
        x = BitSeq("1010").to_bytes01()
        with pytest.raises(ValueError):
            error_correction_bits(x, x[:3], make_params(n=4))

    def test_errors_add_a_position_list(self):
        x = random_bits(1000, substream(6, "source")).to_bytes01()
        x_bad = bytearray(x)
        for p in (3, 500, 999):
            x_bad[p] ^= 1
        kinds, bits, payloads, err_pos = error_correction_bits(x, x_bad, make_params(n=1000))
        assert kinds == ["Verify", "ECBits"]
        assert bits == [64, math.ceil(1000 * binary_entropy(0.003))]
        assert payloads == [fnv1a64(x).to_bytes(8, "big"), bytes.fromhex("00000003000001f4000003e7")]
        assert err_pos.tolist() == [3, 500, 999]

    def test_every_bit_wrong_sends_the_digest_alone(self):
        # e = n: H(1) = 0, so no position list is charged or sent
        x = bytes(100)
        kinds, bits, _, err_pos = error_correction_bits(x, bytes([1] * 100), make_params(n=100))
        assert (kinds, bits, len(err_pos)) == (["Verify"], [64], 100)

    def test_empty_source_sends_the_digest_alone(self):
        kinds, bits, payloads, err_pos = error_correction_bits(b"", b"", make_params())
        assert (kinds, bits, err_pos.tolist()) == (["Verify"], [64], [])
        assert payloads == [fnv1a64(b"").to_bytes(8, "big")]

    @pytest.mark.parametrize("flips", [0, 1, 40, 1000])
    def test_theoretical_policy_sends_one_bare_charge(self, flips):
        x = bytes(1000)
        x_bad = bytes([1] * flips + [0] * (1000 - flips))
        params = make_params(n=1000, ec_policy="theoretical")
        kinds, bits, payloads, err_pos = error_correction_bits(x, x_bad, params)
        assert (kinds, payloads, len(err_pos)) == (["ECBits"], [b""], flips)
        assert bits == [math.ceil(1000 * binary_entropy(0.02))]


class TestSynchronize:
    def test_identity_channel(self):
        params = make_params()
        x = random_bits(params.n, substream(4, "source"))
        x_hat, met, tr = synchronize(x, x, params, ChannelOutcome(x, ()))
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

    @staticmethod
    def session_peak(params, monkeypatch) -> int:
        """The tracemalloc peak of one seeded session above its start, after
        a first session has filled every cache but the power tables."""
        x, out = golden_session(params)
        synchronize(x, out.y, params, out)
        monkeypatch.setattr(codes, "_pow_cache", {})
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            synchronize(x, out.y, params, out)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_session_peak_memory(self, monkeypatch):
        # A session's temporaries stay near their figure before the Module II
        # steps doubled; the bench's peak_rss_mb follows this peak.
        peak = self.session_peak(LARGE_GOLDEN, monkeypatch)
        assert peak <= 1.1 * SESSION_PEAK_BYTES, peak

    def test_million_bit_session_peak_memory(self, monkeypatch):
        # Module II's window views, n bytes each, live only through its walk.
        peak = self.session_peak(MILLION, monkeypatch)
        assert peak <= 1.1 * MILLION_PEAK_BYTES, peak

    def test_session_builds_and_slices_no_bitseq(self, monkeypatch):
        # BitSeq is the API type; past its arguments a session works on their
        # 0/1 bytes.  _wrap is left out: case_payload's cached from_int uses it.
        w3_walk = ProtocolParams(n=6000, beta=0.01, w=3, a=(1, 3.5, 1.5), seed=0)
        sessions = []
        for params in (make_params(), w3_walk):
            x = random_bits(params.n, substream(params.seed, "source"))
            out = apply_deletion_channel(x, params.beta, substream(params.seed, "channel"))
            sessions.append((params, x, out))
        made = []
        init, getitem = BitSeq.__init__, BitSeq.__getitem__

        def counting_init(self, *args, **kwargs):
            made.append("__init__")
            init(self, *args, **kwargs)

        def counting_getitem(self, idx):
            if isinstance(idx, slice):
                made.append("slice")
            return getitem(self, idx)

        monkeypatch.setattr(BitSeq, "__init__", counting_init)
        monkeypatch.setattr(BitSeq, "__getitem__", counting_getitem)
        for params, x, out in sessions:
            _, met, _ = synchronize(x, out.y, params, out)
            assert met.selected_pivots > 1
        assert made == []

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

    @pytest.mark.parametrize("n, k", [(150, 1), (300, 1), (427, 1), (428, 2)])
    def test_module_i_messages_only_with_pivots(self, n, k):
        # L_S = 200, L_P = 28: X holds two segments and a pivot from n = 428
        params = make_params(n=n)
        _, met, tr = run_single(params)
        kinds = [m.kind for m in tr.entries if m.module == "I"]
        assert kinds == (["Pivots", "PivotFeedback"] if k > 1 else [])
        assert met.bits_I == (k - 1) * (params.piv_len + 1)

    def test_requires_matching_length(self):
        params = make_params(n=100)
        with pytest.raises(InvalidConfig):
            x = BitSeq([0] * 99)
            synchronize(x, x, params, ChannelOutcome(x, ()))

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

    @pytest.mark.parametrize("w, a", [(3, (1, 3.5, 8)), (2, (1, 9))])
    def test_parts_past_the_widest_digest_are_split(self, w, a):
        # A three-deletion digest at a_3 = 8 passes 124 bits from q = 36 on,
        # a two-deletion one at a_2 = 9 from q = 119; such parts are split by
        # delimiters instead of ending the session with a ValueError.
        for seed in range(5):
            _, met, tr = run_single(ProtocolParams(n=20_000, beta=0.01, w=w, a=a, seed=seed))
            assert met.synchronized and met.residual_errors == 0
            assert max(m.bits for m in tr.entries if m.kind == "Syndrome") <= MAX_SYNDROME_BITS

    @pytest.mark.parametrize("params, x, digest, expected", GOLDEN_SESSIONS, ids=GOLDEN_IDS)
    def test_small_golden_digest(self, params, x, digest, expected):
        # pins the wire format across versions, not just within one process
        x, out = golden_session(params, x)
        _, met, tr = synchronize(x, out.y, params, out)
        obj = met.to_json_obj()
        obj.pop("runtime_ms")
        assert tr.final_digest == digest
        assert obj == expected

    def test_golden_jsonl(self):
        # the chained digests cover payloads only; this pins each message's
        # index, direction, module, kind, bits and section as written
        _, _, tr = run_single(GOLDEN_SESSIONS[0][0])
        text = tr.to_jsonl().encode()
        assert (len(text), text.count(b"\n")) == (4330, 45)
        assert fnv1a64(text) == 0xCB0785C793C80B68
        sessions = [(name, params, x) for name, (params, x, *_) in zip(GOLDEN_IDS, GOLDEN_SESSIONS)]
        for name, params, x in sessions + [("large", LARGE_GOLDEN, None)]:
            x, out = golden_session(params, x)
            _, _, tr = synchronize(x, out.y, params, out)
            assert hashlib.sha256(tr.to_jsonl().encode()).hexdigest() == GOLDEN_JSONL[name], name

    def test_large_golden_digest(self):
        # bigfile scale: hundreds of two-deletion parts, so the Module II
        # decode and syndrome batches span more than one table chunk
        _, met, tr = run_single(LARGE_GOLDEN)
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


@pytest.mark.parametrize("lane", ["vt", "digest"])
def test_a_payload_changed_in_flight_is_a_failed_decode(monkeypatch, lane):
    # One syndrome payload changes between Alice and Bob: a VT job's becomes
    # all ones, a value above q (for q + 1 no power of two), or a digest's
    # first bit flips.  The session still ends, the transcript holds the
    # changed payload, and Module III finds the errors; under the theoretical
    # policy its charge does not depend on them, so as many bits travel.
    params = make_params(n=2000, seed=7, ec_policy="theoretical")
    x, out = golden_session(params)
    _, met, tr = synchronize(x, out.y, params, out)
    sent = recovery.syndrome_batch

    def changed(x_bytes, starts, q, t, bits, spec):
        payload = bytearray(sent(x_bytes, starts, q, t, bits, spec))
        q, t, bits = np.asarray(q), np.asarray(t), np.asarray(bits)
        start = np.cumsum(bits) - bits
        if lane == "vt":
            j = np.flatnonzero((t == 1) & (((q + 1) & q) != 0))[0]
            payload[start[j] : start[j] + bits[j]] = b"\x01" * bits[j]
        else:
            j = np.flatnonzero(t > 1)[0]
            payload[start[j]] ^= 1
        return bytes(payload)

    monkeypatch.setattr(recovery, "syndrome_batch", changed)
    _, bad, bad_tr = synchronize(x, out.y, params, out)
    assert bad.bits_total == met.bits_total
    assert bad_tr.final_digest != tr.final_digest
    assert bad.residual_errors > 0


def _session(x, out, params):
    """A session's final digest, JSONL text and metrics (``runtime_ms`` dropped)."""
    _, met, tr = synchronize(x, out.y, params, out)
    obj = met.to_json_obj()
    obj.pop("runtime_ms")
    return tr.final_digest, tr.to_jsonl(), obj


def _count_index_builds(monkeypatch) -> list:
    """Counts Module I's candidate index builds: one entry per build."""
    builds = []
    index = protocol.candidate_index

    def counted(*args):
        builds.append(args)
        return index(*args)

    monkeypatch.setattr(protocol, "candidate_index", counted)
    return builds


class TestSharedMatching:
    @pytest.mark.parametrize("policy", ["empirical", "theoretical"])
    def test_sessions_in_the_scope_match_sessions_alone(self, monkeypatch, policy):
        x = random_bits(20_000, substream(4, "source"))
        out = apply_deletion_channel(x, 0.01, substream(4, "channel"))
        variants = [
            make_params(n=20_000, w=1, a=(1,), seed=4, ec_policy=policy),
            make_params(n=20_000, seed=4, ec_policy=policy),
            make_params(n=20_000, s=1.5, seed=4, ec_policy=policy),  # another layout
        ]
        alone = [_session(x, out, p) for p in variants]
        builds = _count_index_builds(monkeypatch)
        with shared_matching():
            shared = [_session(x, out, p) for p in variants]
            assert len(protocol._SHARED.get()) == 2
        assert shared == alone
        assert len(builds) == 2  # the two variants at s = 2 searched Y once
        assert protocol._SHARED.get() is None  # nothing kept past the scope

    def test_shared_outcome_is_read_only(self):
        # the next variant at the grid point reads the same arrays
        x = random_bits(4000, substream(5, "source"))
        out = apply_deletion_channel(x, 0.01, substream(5, "channel"))
        with shared_matching():
            first = _session(x, out, make_params(seed=5))
            (matching,) = protocol._SHARED.get().values()
            for rows in (matching.selection, matching.sections):
                with pytest.raises(ValueError):
                    rows[0, ...] += 1
            assert _session(x, out, make_params(seed=5)) == first

    def test_no_sharing_outside_the_scope(self, monkeypatch):
        builds = _count_index_builds(monkeypatch)
        for _ in range(2):
            run_single(make_params())
        assert len(builds) == 2
        assert protocol._SHARED.get() is None


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
        x_hat, met, tr = synchronize(x, x, params, ChannelOutcome(x, ()))
        assert met.false_pivots == 0
        assert met.selected_pivots == (params.n + params.piv_len) // (
            params.seg_len + params.piv_len
        ) - 1


class TestChannelCheck:
    """A channel outcome handed to ``synchronize`` must be the one that made Y:
    its false-pivot count is only exact then."""

    @staticmethod
    def session():
        params = make_params(seed=3)
        x = random_bits(params.n, substream(3, "source"))
        return params, x, apply_deletion_channel(x, params.beta, substream(3, "channel"))

    def test_accepts_its_own_channel_or_an_equal_copy(self):
        params, x, out = self.session()
        copy = ChannelOutcome(BitSeq(out.y.to_bytes01()), tuple(out.deleted_positions))
        assert copy.y is not out.y
        _, met, tr = synchronize(x, out.y, params, out)
        _, met_copy, tr_copy = synchronize(x, out.y, params, copy)
        assert met.selected_pivots > 0 and met.false_pivots == met_copy.false_pivots == 0
        assert tr_copy.final_digest == tr.final_digest

    def test_rejects_another_channels_y(self):
        params, x, out = self.session()
        other = apply_deletion_channel(x, params.beta, substream(4, "channel"))
        assert other.y != out.y
        with pytest.raises(InvalidConfig, match="did not make y"):
            synchronize(x, out.y, params, other)

    def test_rejects_a_wrong_number_of_positions(self):
        params, x, out = self.session()
        short = ChannelOutcome(out.y, out.deleted_positions[:-1])
        with pytest.raises(InvalidConfig, match="did not make y"):
            synchronize(x, out.y, params, short)

    @pytest.mark.parametrize("change", ["reversed", "repeated", "negative", "past_x"])
    def test_rejects_positions_not_rising_within_x(self, change):
        params, x, out = self.session()
        first, *middle, last = out.deleted_positions
        positions = {
            "reversed": (last, *middle[::-1], first),
            "repeated": (first, first, *middle),
            "negative": (-1, *middle, last),
            "past_x": (first, *middle, params.n),
        }[change]
        assert len(positions) == len(out.deleted_positions)
        with pytest.raises(InvalidConfig, match="did not make y"):
            synchronize(x, out.y, params, ChannelOutcome(out.y, positions))

    def test_rejects_positions_that_do_not_delete_x_to_y(self):
        # another seed's positions, cut to this channel's count and so of the
        # right count and order, that do not delete X to Y
        params = ProtocolParams(n=50_000, beta=0.01, seed=3)
        x = random_bits(params.n, substream(3, "source"))
        out = apply_deletion_channel(x, params.beta, substream(3, "channel"))
        other = apply_deletion_channel(x, params.beta, substream(4, "channel"))
        positions = other.deleted_positions[: len(out.deleted_positions)]
        assert len(positions) == len(out.deleted_positions) and positions != out.deleted_positions
        with pytest.raises(InvalidConfig, match="did not make y"):
            synchronize(x, out.y, params, ChannelOutcome(out.y, positions))

    def test_requires_a_channel(self):
        params, x, out = self.session()
        with pytest.raises(TypeError):
            synchronize(x, out.y, params)

    @settings(max_examples=300, deadline=2000)
    @given(data=st.data())
    def test_rule_against_brute_force(self, data):
        # the check reads only the positions, so Y may come from any subset of X
        n = data.draw(st.integers(1, 12))
        x = BitSeq(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        made = data.draw(st.sets(st.integers(0, n - 1)))
        y = x.delete(made)
        # free sequences, and rising ones that often make y from another subset
        positions = data.draw(
            st.lists(st.integers(-2, n + 1), max_size=n + 2)
            | st.sets(st.integers(0, n - 1)).map(sorted)
        )
        rising = all(a < b for a, b in zip([-1, *positions], [*positions, n]))
        valid = rising and x.delete(positions) == y
        params = make_params(n=n)
        try:
            synchronize(x, y, params, ChannelOutcome(y, tuple(positions)))
            raised = False
        except InvalidConfig:
            raised = True
        event(f"valid={valid}")
        assert raised != valid
