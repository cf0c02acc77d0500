"""Numerical kernel tests against closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest

from qcycle.errors import ConvergenceError
from qcycle.numerics import (
    _GL_NODES,
    _GL_WEIGHTS,
    _NODES,
    _WEIGHTS,
    DEFAULT_POLICY,
    NumericsPolicy,
    derivative_centered,
    integrate_adaptive,
    integrate_adaptive_batch,
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
        # the 15 nodes of the whole interval, then 15 per new panel: each
        # open panel splits in two, so a level at most doubles the last one
        assert sizes[0] == 15 and len(sizes) > 2
        assert all(0 < b <= 2 * a and b % 15 == 0 for a, b in zip(sizes, sizes[1:]))

    def test_max_depth_error(self):
        policy = NumericsPolicy(quad_max_depth=2, quad_tol=1e-14)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda x: np.exp(-40.0 * x * x), -3.0, 5.0, policy)

    def test_gauss_reference_matches(self):
        adaptive = integrate_adaptive(np.exp, 0.0, 1.0)
        gauss = integrate_gauss(np.exp, 0.0, 1.0)
        assert gauss == pytest.approx(adaptive, rel=1e-12)

    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()


# integrands on [0, 1] with their integrals; the last is the cold
# isochore's heat rate, which needs the most refinement
BATCH_CASES = (
    (lambda t: math.pi * np.sin(math.pi * t), 2.0),
    (lambda t: 1.0 / (1.0 + t * t), math.pi / 4.0),
    (lambda t: 2.0 * (2.0 * t) ** 5, 64.0 / 6.0),
    (lambda t: 4.0 * np.exp(-12.0 * t), (1.0 - math.exp(-12.0)) / 3.0),
    (lambda t: -np.cos(7.0 * t), -math.sin(7.0) / 7.0),
    (lambda t: np.exp(-39.3 * t), -math.expm1(-39.3) / 39.3),
)


def batched(functions):
    def f(owner, t):
        out = np.empty_like(t)
        for i, g in enumerate(functions):
            mine = owner == i
            out[mine] = g(t[mine])
        return out

    return f


class TestIntegrateAdaptiveBatch:
    def test_each_integral_as_alone_and_within_tolerance(self):
        functions = [g for g, _ in BATCH_CASES]
        together = integrate_adaptive_batch(batched(functions), len(functions))
        for (g, exact), value in zip(BATCH_CASES, together):
            (alone,) = integrate_adaptive_batch(batched([g]), 1)
            assert abs(value - alone) <= 1e-15 * abs(alone)
            assert abs(value - exact) <= 10.0 * DEFAULT_POLICY.quad_tol * abs(exact)

    def test_paired_with_the_hardest_integrand(self):
        hard = BATCH_CASES[-1][0]
        for g, _ in BATCH_CASES[:-1]:
            (alone,) = integrate_adaptive_batch(batched([g]), 1)
            value, _ = integrate_adaptive_batch(batched([g, hard]), 2)
            assert abs(value - alone) <= 1e-15 * abs(alone)

    def test_one_call_per_level(self):
        calls = []

        def f(owner, t):
            calls.append(np.bincount(owner, minlength=2).tolist())
            return np.where(owner == 0, np.exp(t), np.exp(-39.3 * t))

        integrate_adaptive_batch(f, 2)
        # exp(t) is done on the whole interval; only the other refines
        assert calls[0] == [15, 15]
        assert len(calls) > 2 and all(row[0] == 0 for row in calls[1:])

    def test_node_bound_error(self):
        # a nan never passes, so every panel splits until the node arrays
        # would outgrow 2^17 elements, well before the default depth of 40
        calls = []

        def f(owner, t):
            calls.append(t.size)
            return np.full_like(t, np.nan)

        with pytest.raises(ConvergenceError):
            integrate_adaptive_batch(f, 3)
        assert max(calls) <= 2**17 and len(calls) < DEFAULT_POLICY.quad_max_depth

    # Legendre-centred monomials u^n, u = 2t - 1, whose integral over [0, 1]
    # is 1/(n + 1) for even n and 0 for odd n
    @staticmethod
    def rule_errors(degree):
        u = 2.0 * _NODES - 1.0
        exact = (1.0 + (-1.0) ** degree) / (2.0 * (degree + 1))
        kronrod = u**degree @ _WEIGHTS[:, 0]
        gauss = u**degree @ (_WEIGHTS[:, 0] - _WEIGHTS[:, 1])
        return abs(kronrod - exact), abs(gauss - exact)

    @pytest.mark.parametrize("degree", range(23))
    def test_kronrod_rule_exact_to_degree_22(self, degree):
        assert self.rule_errors(degree)[0] <= 1e-15

    @pytest.mark.parametrize("degree", range(14))
    def test_gauss_rule_exact_to_degree_13(self, degree):
        assert self.rule_errors(degree)[1] <= 1e-15

    def test_rules_not_exact_beyond_their_degree(self):
        assert self.rule_errors(24)[0] > 1e-10
        assert self.rule_errors(14)[1] > 1e-6


class TestDerivativeCentered:
    def test_square(self):
        got = derivative_centered(lambda x: x * x, 3.0)
        assert abs(got - 6.0) <= 1e-5

    def test_exponential_at_zero(self):
        assert abs(derivative_centered(math.exp, 0.0) - 1.0) <= 1e-5

    def test_constant(self):
        assert derivative_centered(lambda _x: 4.2, 1.7) == 0.0

    def test_small_argument_steps_one_thousandth(self):
        # below |x| = 1 the step stays 1e-3: f is read on [x - 1e-3, x + 1e-3],
        # here on both sides of 0, and the O(h^4) error of sin is about 1e-14
        seen = []

        def f(x):
            seen.append(x)
            return math.sin(x)

        x = 5e-4
        got = derivative_centered(f, x)
        assert abs(got - math.cos(x)) <= 1e-13
        assert min(seen) == pytest.approx(x - 1e-3, rel=1e-12)
        assert max(seen) == pytest.approx(x + 1e-3, rel=1e-12)

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
