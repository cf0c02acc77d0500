"""Numerical kernel tests against closed-form oracles."""

import math

import numpy as np
import pytest

from qcycle.errors import ConvergenceError
from qcycle.numerics import (
    DEFAULT_POLICY,
    NumericsPolicy,
    derivative_centered,
    find_root_bracketed,
    integrate_adaptive,
    integrate_gauss,
    sum_with_tail_bound,
)


def geometric_block(ratio):
    def block(i0, i1):
        return ratio ** np.arange(i0, i1, dtype=float)

    return block


def geometric_tail(ratio):
    def tail(_n, _s, last):
        return last * ratio / (1.0 - ratio)

    return tail


class TestSumWithTailBound:
    def test_geometric_half(self):
        total, used, bound = sum_with_tail_bound(
            geometric_block(0.5), geometric_tail(0.5), DEFAULT_POLICY
        )
        assert total == pytest.approx(2.0, rel=1e-12)
        assert bound <= DEFAULT_POLICY.series_tol * total
        assert used >= 40

    def test_single_nonzero_term(self):
        def block(i0, i1):
            return np.array([3.25])[i0:i1]

        total, used, bound = sum_with_tail_bound(
            block, lambda *_: 0.0, DEFAULT_POLICY
        )
        assert total == 3.25
        assert used == 1
        assert bound == 0.0

    def test_gaussian_terms_match_direct_sum(self):
        # terms e^{-n^2} decay faster than any geometric ratio below e^{-2n}
        def block(i0, i1):
            n = np.arange(i0, i1, dtype=float)
            return np.exp(-n * n)

        def tail(n, _s, last):
            r = math.exp(-(2 * n + 1))
            return last * r / (1.0 - r)

        total, _, _ = sum_with_tail_bound(block, tail, DEFAULT_POLICY)
        direct = sum(math.exp(-n * n) for n in range(50))
        assert total == pytest.approx(direct, rel=1e-15)

    def test_level_cap_exceeded(self):
        policy = NumericsPolicy(level_cap=100)
        with pytest.raises(ConvergenceError):
            sum_with_tail_bound(
                geometric_block(0.9999), lambda n, s, t: 1.0, policy
            )

    def test_bound_is_honest_for_geometric(self):
        # the certified bound must never undershoot the true omitted tail
        ratio = 0.7
        total, used, bound = sum_with_tail_bound(
            geometric_block(ratio), geometric_tail(ratio), DEFAULT_POLICY
        )
        true_tail = ratio**used / (1.0 - ratio)
        assert bound >= true_tail
        assert abs(total - 1.0 / (1.0 - ratio)) <= bound + 1e-15


class TestFindRootBracketed:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0)

    def test_exponential(self):
        root = find_root_bracketed(lambda x: math.exp(x) - 2.0, 0.0, 1.0)
        assert root == pytest.approx(math.log(2.0), rel=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(ConvergenceError):
            find_root_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_endpoint_root(self):
        assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_swapped_bracket(self):
        root = find_root_bracketed(lambda x: x - 0.25, 1.0, 0.0)
        assert root == pytest.approx(0.25, rel=1e-12)

    def test_determinism(self):
        f = lambda x: math.cos(x) - x  # noqa: E731
        a = find_root_bracketed(f, 0.0, 1.0)
        b = find_root_bracketed(f, 0.0, 1.0)
        assert a == b


class TestIntegrateAdaptive:
    def test_linear(self):
        assert integrate_adaptive(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)

    def test_exponential(self):
        value = integrate_adaptive(math.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_zero_length(self):
        assert integrate_adaptive(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_interval(self):
        value = integrate_adaptive(lambda x: x * x, 1.0, 0.0)
        assert value == pytest.approx(-1.0 / 3.0, rel=1e-10)

    def test_tolerance_honesty(self):
        # fuzz suite of smooth functions with known antiderivatives
        cases = [
            (math.sin, 0.0, math.pi, 2.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: x**5, 0.0, 2.0, 64.0 / 6.0),
            (lambda x: math.exp(-3.0 * x), 0.0, 4.0, (1 - math.exp(-12.0)) / 3.0),
            # the cold isochore's heat rate: unresolved on the half panel
            (lambda x: math.exp(-39.3 * x), 0.0, 1.0, -math.expm1(-39.3) / 39.3),
        ]
        for f, a, b, exact in cases:
            got = integrate_adaptive(f, a, b, DEFAULT_POLICY)
            assert abs(got - exact) <= 10.0 * DEFAULT_POLICY.quad_tol * abs(exact)

    def test_max_depth_error(self):
        policy = NumericsPolicy(quad_max_depth=2, quad_tol=1e-14)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda x: math.exp(-40.0 * x * x), -3.0, 5.0, policy)

    def test_gauss_reference_matches(self):
        adaptive = integrate_adaptive(math.exp, 0.0, 1.0)
        gauss = integrate_gauss(math.exp, 0.0, 1.0)
        assert gauss == pytest.approx(adaptive, rel=1e-12)


class TestDerivativeCentered:
    def test_square(self):
        got = derivative_centered(lambda x: x * x, 3.0)
        assert abs(got - 6.0) <= 1e-5

    def test_exponential_at_zero(self):
        assert abs(derivative_centered(math.exp, 0.0) - 1.0) <= 1e-5

    def test_constant(self):
        assert derivative_centered(lambda _x: 4.2, 1.7) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            derivative_centered(lambda x: math.inf, 1.0)


class TestNumericsPolicy:
    def test_defaults(self):
        p = NumericsPolicy()
        assert p.series_tol == 1e-12
        assert p.level_cap == 10_000_000
        assert p.quad_tol == 1e-10
        assert p.quad_max_depth == 40
        assert p.root_tol == 1e-12
        assert p.root_max_iter == 200
        assert p.fd_step_rel == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"series_tol": 0.0},
            {"series_tol": 1.5},
            {"quad_tol": -1e-3},
            {"level_cap": 0},
            {"quad_max_depth": -1},
            {"root_max_iter": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NumericsPolicy(**kwargs)
