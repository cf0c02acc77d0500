"""Numerical kernel tests against closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest

from qcycle.errors import ConvergenceError
from qcycle.numerics import (
    DEFAULT_POLICY,
    NumericsPolicy,
    derivative_centered,
    integrate_adaptive,
    integrate_gauss,
)


class TestIntegrateAdaptive:
    def test_linear(self):
        assert integrate_adaptive(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)

    def test_exponential(self):
        value = integrate_adaptive(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_zero_length(self):
        assert integrate_adaptive(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_interval(self):
        value = integrate_adaptive(lambda x: x * x, 1.0, 0.0)
        assert value == pytest.approx(-1.0 / 3.0, rel=1e-10)

    def test_tolerance_honesty(self):
        # fuzz suite of smooth functions with known antiderivatives
        cases = [
            (np.sin, 0.0, math.pi, 2.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: x**5, 0.0, 2.0, 64.0 / 6.0),
            (lambda x: np.exp(-3.0 * x), 0.0, 4.0, (1 - math.exp(-12.0)) / 3.0),
            # the cold isochore's heat rate: unresolved on the half panel
            (lambda x: np.exp(-39.3 * x), 0.0, 1.0, -math.expm1(-39.3) / 39.3),
        ]
        for f, a, b, exact in cases:
            got = integrate_adaptive(f, a, b, DEFAULT_POLICY)
            assert abs(got - exact) <= 10.0 * DEFAULT_POLICY.quad_tol * abs(exact)

    def test_one_vectorised_call_per_level(self):
        sizes = []

        def f(x):
            assert isinstance(x, np.ndarray)
            sizes.append(x.size)
            return np.exp(-39.3 * x)

        value = integrate_adaptive(f, 0.0, 1.0)
        assert abs(value + math.expm1(-39.3) / 39.3) <= 1e-9 * value
        # the end points and midpoint, then two new nodes per open panel
        assert sizes[0] == 3 and sizes[1] == 2 and len(sizes) > 3
        assert all(0 < b <= 2 * a and b % 2 == 0 for a, b in zip(sizes[1:], sizes[2:]))

    def test_max_depth_error(self):
        policy = NumericsPolicy(quad_max_depth=2, quad_tol=1e-14)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda x: np.exp(-40.0 * x * x), -3.0, 5.0, policy)

    def test_gauss_reference_matches(self):
        adaptive = integrate_adaptive(np.exp, 0.0, 1.0)
        gauss = integrate_gauss(np.exp, 0.0, 1.0)
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
        assert [f.name for f in dataclasses.fields(p)] == [
            "quad_tol", "quad_max_depth", "root_max_iter"
        ]
        assert p.quad_tol == 1e-10
        assert p.quad_max_depth == 40
        assert p.root_max_iter == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quad_tol": 0.0},
            {"quad_tol": 1.5},
            {"quad_tol": -1e-3},
            {"quad_max_depth": 0},
            {"quad_max_depth": -1},
            {"root_max_iter": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NumericsPolicy(**kwargs)
