import itertools
import math

import pytest

from delsync.analysis import (
    baseline_bound_coefficient,
    bound_report,
    expected_code_bits_bound,
    expected_delimiter_bits_bound,
    module_bit_bounds,
    module_coefficients,
    redundancy_coefficient,
)


class TestRedundancyCoefficient:
    def test_baseline_parameter_point(self):
        assert redundancy_coefficient(1, 1, 1, 3) == 36.0

    def test_improved_parameter_point(self):
        assert redundancy_coefficient(2, 2, 3.5, 3) == 28.5

    def test_direct_evaluation(self):
        assert redundancy_coefficient(2, 2, 1, 3) == pytest.approx(21.0)

    def test_decreasing_in_s(self):
        vals = [redundancy_coefficient(s, 2, 1, 3) for s in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_w(self):
        vals = [redundancy_coefficient(2, w, 1, 3) for w in (1, 2, 3, 5, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_closed_form(self):
        # r = 2(s+1)/s * (2^w/(2^w-1) * c + a + 2), the paper's expression
        for s, w, a, c in itertools.product((0.5, 1, 2, 3), (1, 2, 4), (1, 3.5), (1, 3)):
            pow_w = 2.0**w
            closed = 2 * (s + 1) / s * (pow_w / (pow_w - 1) * c + a + 2)
            assert redundancy_coefficient(s, w, a, c) == pytest.approx(closed, rel=1e-12)

    def test_large_w_limit(self):
        limit = 2 * (2 + 1) / 2 * (3 + 1 + 2)
        assert abs(redundancy_coefficient(2, 20, 1, 3) - limit) < 1e-4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            redundancy_coefficient(0, 1, 1, 3)
        with pytest.raises(ValueError):
            redundancy_coefficient(1, 1, 0.5, 3)


class TestBaselineBound:
    def test_reference_point(self):
        assert baseline_bound_coefficient(3) == 109.0

    def test_other_points(self):
        assert baseline_bound_coefficient(1) == 45.0
        assert baseline_bound_coefficient(0.25) == 21.0

    def test_improved_tightens_baseline(self):
        assert redundancy_coefficient(1, 1, 1, 3) < baseline_bound_coefficient(3)


class TestModuleBounds:
    def test_matching_term_at_s_one(self):
        n1, _, _ = module_bit_bounds(50_000, 0.01, 1, 2, 3.5, 3)
        assert n1 == pytest.approx(2 * 50_000 * 0.01 * math.log2(100))

    def test_recovery_coefficient(self):
        _, c2, _ = module_coefficients(2, 2, 3.5, 3)
        assert c2 == pytest.approx(3 * (4 + 3.5))  # 22.5

    def test_sum_below_total_coefficient(self):
        c1, c2, c3 = module_coefficients(2, 2, 3.5, 3)
        assert c1 + c2 + c3 == pytest.approx(25.5)
        assert c1 + c2 + c3 <= redundancy_coefficient(2, 2, 3.5, 3)

    def test_error_term_constant(self):
        _, _, n3 = module_bit_bounds(10_000, 0.005, 3, 1, 1, 3)
        assert n3 == pytest.approx(2 * 10_000 * 0.005 * math.log2(200))

    @pytest.mark.parametrize(
        "n, beta",
        [
            (1000, 0.0),
            (1000, 1.5),
            (1000, -0.01),
            (1000, math.nan),
            (1000, math.inf),
            (0, 0.01),
            (-5, 0.01),
        ],
    )
    def test_rejects_sessions_no_run_can_have(self, n, beta):
        with pytest.raises(ValueError):
            module_bit_bounds(n, beta, 2, 2, 3.5, 3)
        with pytest.raises(ValueError):
            bound_report(n, beta, 2, 2, 3.5, 3)

    def test_accepts_the_rate_limits(self):
        n1, _, _ = module_bit_bounds(1, 0.5, 1, 2, 3.5, 3)
        assert n1 == pytest.approx(2 * 0.5)


class TestExpectedDelimiterBits:
    def test_zero_within_capability(self):
        assert expected_delimiter_bits_bound(2, 2, 24) == 0.0
        assert expected_delimiter_bits_bound(0, 1, 24) == 0.0

    def test_single_capability(self):
        assert expected_delimiter_bits_bound(2, 1, 24) == 48.0

    def test_beyond_capability(self):
        assert expected_delimiter_bits_bound(5, 2, 24) == pytest.approx(128.0)

    @pytest.mark.parametrize(
        "t, w, l", [(3, 0, 10.0), (3, -1, 10.0), (0, 0, 10.0), (3, 1, math.nan)]
    )
    def test_rejects_bad_args(self, t, w, l):
        with pytest.raises(ValueError):
            expected_delimiter_bits_bound(t, w, l)


class TestExpectedCodeBits:
    def test_zero_deletions(self):
        assert expected_code_bits_bound(0, 3.5, 256) == 0.0

    def test_two_deletion_point(self):
        assert expected_code_bits_bound(2, 3.5, 256) == pytest.approx(56.0)

    def test_single_deletion_point(self):
        assert expected_code_bits_bound(1, 1, 300) == pytest.approx(math.log2(300))


class TestBoundReport:
    def test_fields_consistent(self):
        rep = bound_report(50_000, 0.01, 2, 2, 3.5, 3)
        base = 50_000 * 0.01 * math.log2(100)
        assert rep.improved_bits == pytest.approx(28.5 * base)
        assert rep.baseline_bits == pytest.approx(109 * base)
        assert rep.N_I_bound + rep.N_II_bound + rep.N_III_bound <= rep.improved_bits
